"""
Relabel-invariant canonical ordering of link components.

Signatures carry per-component framings and a symmetric, zero-diagonal
pairwise matrix (signed linking for standard closures, absolute linking for
plats). Two braids should compare equal exactly when some bijection of
components matches framings and conjugates one matrix onto the other, so we
order components canonically: sort by (framing, sorted absolute row
multiset), then break remaining ties by choosing, among the orders that keep
those groups in sorted order, the one whose reordered matrix is
lexicographically least (the least order itself on a matrix tie).

That least order is found by individualise-and-refine (McKay-Piperno,
"Practical graph isomorphism, II", J. Symb. Comput. 2014), used only to
prune an exact branch-and-bound search. Positions are filled in order from
cells that start as the tied groups. Placing a component first in its cell
and splitting every later cell by its matrix entries, ascending, gives the
least possible next row, so only components reaching the least row are
branched on, and a branch whose rows already exceed the best order's is
cut. A component whose swap with a smaller member of its cell is an
automorphism of the matrix is skipped, since its subtree mirrors that
member's with a larger order. A cell whose members all are such twins
(the same row outside the cell, one common value inside it) is fully
symmetric: every order of it gives the same matrix, so it is placed
ascending in one step. The search is a loop over an explicit stack, so no
cell size or depth can exhaust the recursion limit.

Most closures need none of this: unlinked_order answers the all-zero
matrix (unlinks, and every closure of at most one component) from the
framings alone. closure_signature and plat_signature call it themselves
for the unlinked 60% of the signatures a default fuzz run computes, and
build no matrix. Untied groups skip the search.

Measured in process on a 2-vCPU VM under Python 3.11, fastest run to upper
quartile: 4 untied components take 4.8-8.8 us (21 runs of 1000 calls), and
`closure_signature` of the chain link s1^2 s2^2 ... s11^2 (12 components,
10 of them tied) 0.58-0.67 ms. Twin-heavy links cost about components x
strands: `closure_signature` of s1^2 s3^2 takes 2.2-3.6 ms on 100 strands
and 0.22-0.26 s on 1024, and the whole `fbk closure --n 1024 "s1^2"`
process 0.44-0.66 s with its bytecode cached.
"""

from __future__ import annotations

from collections.abc import Sequence
from itertools import groupby
from operator import itemgetter

BaseKey = tuple[int, tuple[int, ...]]


def canonical_order(
    framings: Sequence[int], matrix: Sequence[Sequence[int]]
) -> tuple[tuple[int, ...], tuple]:
    """Return (component order, canonical key) for a signature.

    The matrix is the k x k symmetric matrix of linking numbers (or their
    absolute values) with a zero diagonal; the component framings are held
    apart in framings. The key is (ordered base keys, reordered matrix) and
    does not mention strand labels, so it is invariant under any relabeling
    of components.
    """
    k = len(framings)
    if not any(map(any, matrix)):
        return unlinked_order(framings)
    base: list[BaseKey] = []
    for c, row in enumerate(matrix):
        entries = list(map(abs, row))
        del entries[c]  # the zero diagonal; the rest are the other entries
        entries.sort()
        base.append((framings[c], tuple(entries)))
    order = sorted(range(k), key=base.__getitem__)
    if len(set(base)) < k:
        groups = [list(g) for _, g in groupby(order, key=base.__getitem__)]
        best = _least_order(matrix, groups)
    else:
        best = tuple(order)
    get = itemgetter(*best)  # k >= 2 here, so get returns tuples
    return best, (get(base), tuple(map(get, get(matrix))))


def unlinked_order(framings: Sequence[int]) -> tuple[tuple[int, ...], tuple]:
    """canonical_order for an all-zero matrix, as of every unlink and every
    closure of at most one component: each component's other entries are
    k - 1 zeros, so the framings alone order the components."""
    k = len(framings)
    zeros = (0,) * (k - 1)
    order = tuple(sorted(range(k), key=framings.__getitem__))
    return order, (tuple([(framings[c], zeros) for c in order]), ((0,) * k,) * k)


def _least_order(
    matrix: Sequence[Sequence[int]], groups: list[list[int]]
) -> tuple[int, ...]:
    """The order, one group after another, with the least (reordered matrix,
    order); each group lists its components in ascending order."""
    best: tuple[int, ...] = ()
    best_rows: tuple[tuple[int, ...], ...] | None = None

    def twins(u: int, w: int) -> bool:
        """Swapping u and w maps the (symmetric) matrix onto itself."""
        return all(
            x == y for c, (x, y) in enumerate(zip(matrix[u], matrix[w])) if c != u and c != w
        )

    # A node is (prefix, cells, rows): cells cover positions len(prefix),
    # len(prefix)+1, ... in order, each in ascending component order. Nodes
    # are expanded depth first, children in ascending order, so branches are
    # tried in the order's lexicographic order and the first least matrix
    # found wins ties.
    stack: list[tuple[list[int], list[list[int]], tuple]] = [([], groups, ())]
    while stack:
        prefix, cells, rows = stack.pop()
        if not cells:
            if best_rows is None or rows < best_rows:
                best, best_rows = tuple(prefix), rows
            continue
        first, rest = cells[0], cells[1:]
        if all(twins(first[0], w) for w in first[1:]):
            # A fully symmetric cell: every order of it gives the same
            # matrix, so the least order places it ascending, in one step.
            split = _split(rest, matrix[first[0]])
            order = prefix + first + [c for cell in split for c in cell]
            rows += tuple([tuple([matrix[w][c] for c in order]) for w in first])
            children = [(prefix + first, split)]
        else:
            branches = []
            for i, w in enumerate(first):
                if any(twins(u, w) for u in first[:i]):
                    continue
                entries = matrix[w]
                split = _split([first[:i] + first[i + 1:]] + rest, entries)
                row = tuple(entries[c] for c in prefix) + (entries[w],) + tuple(
                    entries[c] for cell in split for c in cell
                )
                branches.append((row, w, split))
            least = min(row for row, _, _ in branches)
            rows += (least,)
            children = [(prefix + [w], split) for row, w, split in branches if row == least]
        if best_rows is not None and rows > best_rows[: len(rows)]:
            continue
        stack += [(child, split, rows) for child, split in reversed(children)]
    return best


def _split(cells: list[list[int]], entries: Sequence[int]) -> list[list[int]]:
    """Split each cell by its members' entries, ascending, keeping order."""
    out: list[list[int]] = []
    for cell in cells:
        by_entry: dict[int, list[int]] = {}
        for c in cell:
            by_entry.setdefault(entries[c], []).append(c)
        out += [by_entry[v] for v in sorted(by_entry)]
    return out
