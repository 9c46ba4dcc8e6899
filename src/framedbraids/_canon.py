"""
Relabel-invariant canonical ordering of link components.

Signatures carry per-component framings and a symmetric pairwise matrix
(signed linking for standard closures, absolute linking for plats). Two
braids should compare equal exactly when some bijection of components
matches framings and conjugates one matrix onto the other, so we order
components canonically: sort by (framing, sorted absolute row multiset),
then break remaining ties by brute force, choosing the ordering whose
matrix is lexicographically least. The all-zero matrix (unlinks)
short-circuits, but tied linked components make the search factorial: the
chain link s1^2 s2^2 ... s(n-1)^2 takes 12 s at n=11 and about 113 s at
n=12 (bench/baseline.json).
"""

from __future__ import annotations

import itertools
from typing import Sequence

BaseKey = tuple[int, tuple[int, ...]]


def canonical_order(
    framings: Sequence[int], matrix: Sequence[Sequence[int]]
) -> tuple[tuple[int, ...], tuple]:
    """Return (component order, canonical key) for a signature.

    The key is (ordered base keys, reordered matrix) and does not mention
    strand labels, so it is invariant under any relabeling of components.
    """
    k = len(framings)
    base: list[BaseKey] = [
        (
            framings[c],
            tuple(sorted(abs(matrix[c][d]) for d in range(k) if d != c)),
        )
        for c in range(k)
    ]
    order = sorted(range(k), key=lambda c: (base[c], c))
    groups: list[list[int]] = []
    for c in order:
        if groups and base[groups[-1][0]] == base[c]:
            groups[-1].append(c)
        else:
            groups.append([c])

    def reordered(perm: Sequence[int]) -> tuple[tuple[int, ...], ...]:
        return tuple(tuple(matrix[a][b] for b in perm) for a in perm)

    trivial_ties = all(len(g) == 1 for g in groups)
    zero_matrix = all(
        matrix[a][b] == 0 for a in range(k) for b in range(k) if a != b
    )
    if trivial_ties or zero_matrix:
        best = tuple(order)
    else:
        best = None
        best_mat = None
        for choice in itertools.product(*(itertools.permutations(g) for g in groups)):
            candidate = tuple(c for group in choice for c in group)
            mat = reordered(candidate)
            if best_mat is None or (mat, candidate) < (best_mat, best):
                best, best_mat = candidate, mat
    key = (tuple(base[c] for c in best), reordered(best))
    return best, key
