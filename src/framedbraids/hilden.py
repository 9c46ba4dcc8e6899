"""
Generators of the Hilden, framed Hilden and pure framed Hilden groups, and
mechanical verification of their defining relations.

The classical cap stabilizer H_2n inside B_2n is generated by

    P_i     = s(2i) s(2i-1) s(2i+1)^-1 s(2i)^-1      1 <= i <= n-1
    S_j     = s(2j) s(2j-1) s(2j+1) s(2j)            1 <= j <= n-1
    Theta_k = s(2k-1)                                1 <= k <= n

Its framed counterpart RH_2n keeps the P and S words, compensates the twist
a capped crossing creates (theta_k = t(2k-1) s(2k-1)), and adds the cap
twists omega_l = t(2l-1) t(2l)^-1 generating the kernel of the projection
that forgets framing. The pure framed group uses g_k = t(2k-1) t(2k)
s(2k-1)^2 together with the omegas; its remaining generators (the p_ij,
x_ij, y_ij braids) are only defined pictorially, so they are accepted as
user-supplied dictionary entries rather than guessed.

The words above are the rows of GENERATORS, the one place the built-in
generators are defined, and SUITE_GENERATORS names each suite's generators.
The generator functions, the built-in dictionaries, the CLI and the fuzz
sampler all read these two tables.

Relation suites are data driven: each relation is two sides written as text
in the paper's notation, generator names separated by blanks with name^-1
for an inverse ("P_1 S_2 S_1", "omega_2^-1 theta_2"). One helper, _rel,
reads them into words over generator names. A relation id spells each pair
generator as its sides do, indices sorted (p_{1,3}, never p_{3,1}). Each
relation is instantiated exhaustively over the valid index combinations at
a fixed n and decided by the exact word problem. Each family emits each
relation once, so a suite is the plain concatenation of its families. A
missing dictionary entry yields a skipped report, never a silent pass.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator

from .framed import FramedBraid, _normal_form, _spelled_letters, framed_equal, spell
from .parser import signed_decimal
from .plat import is_plat_trivial as plat_trivializes
from .words import Letter, _Record, invert, sigma, tau

Atom = tuple[str, int]
Word = tuple[Atom, ...]

CLASSICAL_SUITE = "hilden_1"
FRAMED_SUITE = "framed_hilden"
PURE_SUITE = "pure_framed"
SUITES = (CLASSICAL_SUITE, FRAMED_SUITE, PURE_SUITE)


# name -> (top index minus n, letters of name_i); p and s reuse P and S.
GENERATORS: dict[str, tuple[int, Callable[[int], tuple[Letter, ...]]]] = {
    "P": (-1, lambda i: (sigma(2 * i), sigma(2 * i - 1),
                         sigma(2 * i + 1, -1), sigma(2 * i, -1))),
    "S": (-1, lambda i: (sigma(2 * i), sigma(2 * i - 1), sigma(2 * i + 1), sigma(2 * i))),
    "Theta": (0, lambda i: (sigma(2 * i - 1),)),
    "theta": (0, lambda i: (tau(2 * i - 1), sigma(2 * i - 1))),
    "omega": (0, lambda i: (tau(2 * i - 1), tau(2 * i, -1))),
    "g": (0, lambda i: (tau(2 * i - 1), tau(2 * i), sigma(2 * i - 1, 2))),
}
GENERATORS["p"], GENERATORS["s"] = GENERATORS["P"], GENERATORS["S"]

# suite -> its built-in generator names; fuzz draws from the framed ones in
# this order, so reordering them changes seeded fuzz reports.
SUITE_GENERATORS = {
    CLASSICAL_SUITE: ("P", "S", "Theta"),
    FRAMED_SUITE: ("theta", "omega", "p", "s"),
    PURE_SUITE: ("g", "omega"),
}


def top_index(name: str, n: int) -> int:
    """The largest i for which the generator name_i exists in RB_2n."""
    return n + GENERATORS[name][0]


def _known_suite(suite: str) -> str:
    if suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}; choose from {SUITES}")
    return suite


def builtin_generator(suite: str, name: str, i: int, n: int) -> FramedBraid:
    """The built-in generator name_i of the suite's group inside RB_2n."""
    if name not in SUITE_GENERATORS[_known_suite(suite)]:
        raise ValueError(f"unknown {suite} generator {name!r}")
    if not 1 <= i <= top_index(name, n):
        raise ValueError(f"{name}_{i} needs 1 <= i <= {top_index(name, n)}")
    return _normal_form(2 * n, GENERATORS[name][1](i))


def hilden_generator(name: str, i: int, n: int) -> FramedBraid:
    """The classical generator P_i, S_i or Theta_i of H_2n, zero-framed."""
    return builtin_generator(CLASSICAL_SUITE, name, i, n)


def framed_hilden_generator(name: str, i: int, n: int) -> FramedBraid:
    """The framed generator p_i, s_i, theta_i or omega_i of RH_2n."""
    return builtin_generator(FRAMED_SUITE, name, i, n)


_NAME_ALIASES = {"θ": "theta", "Θ": "Theta", "ω": "omega", "Ω": "omega", "\u2126": "omega"}


def canonical_name(name: str) -> str:
    """Normalize a generator name: blanks stripped, a leading θ, Θ, ω, Ω or
    ohm sign (U+2126) spelled in ascii, pair indices sorted."""
    name = name.strip()
    name = _NAME_ALIASES.get(name[:1], name[:1]) + name[1:]
    if "{" in name:
        head, _, rest = name.partition("_")
        indices = rest.strip("{}").replace(" ", "").split(",")
        if len(indices) != 2:
            raise ValueError(f"generator name {name!r} needs two indices, got {len(indices)}")
        a, b = (signed_decimal(x) for x in indices)
        return _pair(head, a, b)
    return name


class GeneratorDictionary(_Record):
    """Named framed braids in RB_2n feeding the relation verifier. Its entries
    are a dict, so it is equal by value but unhashable."""

    __slots__ = ("n", "entries")

    def __init__(self, n: int, entries: dict[str, FramedBraid]):
        spelled: dict[str, str] = {}  # canonical name -> the key spelling it
        for key in entries:
            name = canonical_name(key)
            if spelled.setdefault(name, key) != key:
                raise ValueError(f"names {spelled[name]!r} and {key!r} both mean {name!r}")
        canonical = {name: entries[key] for name, key in spelled.items()}
        for name, value in canonical.items():
            if value.n != 2 * n:
                raise ValueError(f"entry {name!r} lives in RB_{value.n}, expected RB_{2 * n}")
        self._store(n, canonical)

    @classmethod
    def builtin(cls, suite: str, n: int) -> GeneratorDictionary:
        """Every built-in generator name_i of the suite at half strand count n."""
        return cls(n, {
            f"{name}_{i}": builtin_generator(suite, name, i, n)
            for name in SUITE_GENERATORS[_known_suite(suite)]
            for i in range(1, top_index(name, n) + 1)
        })

    @classmethod
    def classical(cls, n: int) -> GeneratorDictionary:
        return cls.builtin(CLASSICAL_SUITE, n)

    @classmethod
    def framed(cls, n: int) -> GeneratorDictionary:
        return cls.builtin(FRAMED_SUITE, n)

    @classmethod
    def pure(cls, n: int) -> GeneratorDictionary:
        return cls.builtin(PURE_SUITE, n)

    def with_entries(self, extra: dict[str, FramedBraid]) -> GeneratorDictionary:
        """A copy in which the extra entries replace the same-named ones."""
        added = GeneratorDictionary(self.n, extra).entries
        return GeneratorDictionary(self.n, {**self.entries, **added})


class RelationInstance(_Record):
    __slots__ = ("relation_id", "lhs", "rhs", "note")

    def __init__(self, relation_id: str, lhs: Word, rhs: Word, note: str | None = None):
        self._store(relation_id, lhs, rhs, note)


class RelationReport(_Record):
    __slots__ = ("relation_id", "lhs", "rhs", "holds", "skipped", "missing", "note")

    def __init__(self, relation_id: str, lhs: FramedBraid | None, rhs: FramedBraid | None,
                 holds: bool, skipped: bool = False, missing: tuple[str, ...] = (),
                 note: str | None = None):
        self._store(relation_id, lhs, rhs, holds, skipped, missing, note)


def _pair(name: str, i: int, j: int) -> str:
    lo, hi = min(i, j), max(i, j)
    return f"{name}_{{{lo},{hi}}}"


def _rel(relation_id: str, lhs: str, rhs: str, note: str | None = None) -> RelationInstance:
    """The relation lhs = rhs, each side written as in the module docstring."""
    lhs_word, rhs_word = (tuple([(a[:-3], -1) if a.endswith("^-1") else (a, 1)
                                 for a in side.split()]) for side in (lhs, rhs))
    return RelationInstance(relation_id, lhs_word, rhs_word, note)


def _comm(relation_id: str, x: str, *ys: str) -> RelationInstance:
    """The commutation relation x y1...yk = y1...yk x."""
    return _rel(relation_id, " ".join((x, *ys)), " ".join((*ys, x)))


def _hilden_family(n: int, P: str, S: str, T: str, prefix: str) -> Iterator[RelationInstance]:
    """Tawn's relations for H_2n over the generator names (P, S, T).

    The published list repeats its first five families verbatim; each is
    emitted once here, and symmetric instances are generated with i < j.
    """
    for a, tag in ((P, "PP"), (S, "SS")):
        for i in range(1, n):
            for j in range(i + 2, n):
                yield _comm(f"{prefix}.{tag}-far[i={i},j={j}]", f"{a}_{i}", f"{a}_{j}")
            if i + 1 < n:
                yield _rel(f"{prefix}.{tag}-braid[i={i}]",
                           f"{a}_{i} {a}_{i+1} {a}_{i}", f"{a}_{i+1} {a}_{i} {a}_{i+1}")
    for i in range(1, n):
        for j in range(1, n):
            if abs(i - j) > 1:
                yield _comm(f"{prefix}.PS-far[i={i},j={j}]", f"{P}_{i}", f"{S}_{j}")
    for i in range(1, n - 1):
        yield _rel(f"{prefix}.PSS[i={i}]",
                   f"{P}_{i} {S}_{i+1} {S}_{i}", f"{S}_{i+1} {S}_{i} {P}_{i+1}")
        yield _rel(f"{prefix}.PPS[i={i}]",
                   f"{P}_{i+1} {P}_{i} {S}_{i+1}", f"{S}_{i} {P}_{i+1} {P}_{i}")
        yield _rel(f"{prefix}.PSS-shift[i={i}]",
                   f"{P}_{i+1} {S}_{i} {S}_{i+1}", f"{S}_{i} {S}_{i+1} {P}_{i}")
    for i in range(1, n):
        yield _rel(f"{prefix}.PTSP[i={i}]",
                   f"{P}_{i} {T}_{i} {S}_{i} {P}_{i}", f"{S}_{i} {T}_{i}")
        for j in range(1, n + 1):
            if j not in (i, i + 1):
                yield _comm(f"{prefix}.PT-comm[i={i},j={j}]", f"{P}_{i}", f"{T}_{j}")
                yield _comm(f"{prefix}.ST-comm[i={i},j={j}]", f"{S}_{i}", f"{T}_{j}")
        yield _rel(f"{prefix}.ST-swap[i={i},j={i}]", f"{S}_{i} {T}_{i}", f"{T}_{i+1} {S}_{i}")
        yield _rel(f"{prefix}.ST-swap[i={i},j={i + 1}]", f"{S}_{i} {T}_{i+1}", f"{T}_{i} {S}_{i}")
    for i in range(1, n):
        # The published line pairs Theta_i with P_(i+1), but the two sides
        # then project to different permutations of S_2n, so it cannot hold
        # in any subgroup of B_2n; pulling the twist through the pair swap
        # keeps the same swap, giving P_i Theta_(i+1) = Theta_i P_i.
        yield _rel(f"{prefix}.PT-shift[i={i}]", f"{P}_{i} {T}_{i+1}", f"{T}_{i} {P}_{i}",
                   note="index corrected from a misprint; printed form fails in S_2n")
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            yield _comm(f"{prefix}.TT-comm[i={i},j={j}]", f"{T}_{i}", f"{T}_{j}")


def _omega_family(n: int) -> Iterator[RelationInstance]:
    """The twist relations of the framed Hilden presentation."""
    for base in ("p", "s"):
        for j in range(1, n):
            for i in range(1, n + 1):
                k = i + 1 if i == j else i - 1 if i == j + 1 else i
                yield _rel(f"FH.{base}-omega[j={j},i={i}]",
                           f"{base}_{j} omega_{i}", f"omega_{k} {base}_{j}")
    for j in range(1, n + 1):
        for i in range(1, n + 1):
            if i == j:
                yield _rel(f"FH.theta-omega-inv[j={j}]",
                           f"theta_{j} omega_{i}", f"omega_{i}^-1 theta_{j}")
            else:
                yield _comm(f"FH.theta-omega-comm[j={j},i={i}]", f"theta_{j}", f"omega_{i}")
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            yield _comm(f"FH.omega-omega[i={i},j={j}]", f"omega_{i}", f"omega_{j}")


def _rotation(indices: tuple[int, ...]) -> int | None:
    """The r for which indices rotated left by r is strictly increasing; None
    when there is none, as for a repeated index."""
    for r in range(len(indices)):
        rotated = indices[r:] + indices[:r]
        if all(x < y for x, y in zip(rotated, rotated[1:])):
            return r
    return None


# Table 1 of the pure framed relations, by the rotation of (i, j, k):
# i < j < k, j < k < i and k < i < j.
_TABLE1 = (
    {
        ("p", "p", "p"), ("p", "y", "y"), ("x", "p", "p"), ("x", "x", "p"),
        ("x", "y", "y"), ("y", "p", "p"), ("y", "p", "x"), ("y", "y", "y"),
    },
    {
        ("p", "p", "p"), ("p", "x", "y"), ("x", "p", "p"), ("x", "p", "x"),
        ("x", "x", "y"), ("y", "p", "p"), ("y", "x", "y"), ("y", "y", "p"),
    },
    {
        ("p", "p", "p"), ("p", "x", "x"), ("x", "p", "p"), ("x", "x", "x"),
        ("x", "y", "p"), ("y", "p", "p"), ("y", "p", "y"), ("y", "x", "x"),
    },
)


def _pure_family(n: int) -> Iterator[RelationInstance]:
    """The pure framed Hilden relations.

    The pair generators p_ij, x_ij, y_ij have no built-in word, so their
    instances are normally reported as skipped unless the dictionary
    supplies them. The omega-g commutations are required by the direct-sum
    structure and are verified alongside the published list.
    """
    kind_pairs = [(a, b) for a in "pxy" for b in "pxy"]
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            for ab in ("p", "x", "y"):
                for k in range(1, n + 1):
                    if ab == "x" and k == i:
                        continue
                    if ab == "y" and k == j:
                        continue
                    yield _comm(f"PFH.{ab}g-comm[i={i},j={j},k={k}]", _pair(ab, i, j), f"g_{k}")
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            yield _comm(f"PFH.gg-comm[i={i},j={j}]", f"g_{i}", f"g_{j}")
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            for k in range(1, n + 1):
                for l in range(1, n + 1):
                    if _rotation((i, j, k, l)) is None:
                        continue
                    # (k, l, i, j) with the kinds swapped gives the same sides
                    for a, b in kind_pairs if i < k else ():
                        x, y = _pair(a, i, j), _pair(b, k, l)
                        yield _comm(f"PFH.far-comm[{x},{y}]", x, y)
                    p = _pair("p", j, k)
                    for a, b in kind_pairs:
                        x, y = _pair(a, i, k), _pair(b, j, l)
                        yield _rel(f"PFH.conj-comm[{x},{y};{p}]",
                                   f"{x} {p} {y} {p}^-1", f"{p} {y} {p}^-1 {x}",
                                   note="inverse read from a garbled exponent in the source list")
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            for k in range(1, n + 1):
                r = _rotation((i, j, k))
                if r is None:
                    continue
                for a, b, c in sorted(_TABLE1[r]):
                    x, y, z = _pair(a, i, j), _pair(b, i, k), _pair(c, j, k)
                    yield _comm(f"PFH.triple[{x},{y},{z}]", x, y, z)
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            for ab in ("x", "y"):
                yield _comm(f"PFH.{ab}pg[i={i},j={j}]",
                            _pair(ab, i, j), _pair("p", i, j), f"g_{i}")
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            yield _comm(f"PFH.omega-omega[i={i},j={j}]", f"omega_{i}", f"omega_{j}")
    for i in range(1, n + 1):
        for k in range(1, n + 1):
            for j in range(k + 1, n + 1):
                for ab in ("p", "x", "y"):
                    yield _comm(
                        f"PFH.omega-{ab}[i={i},{ab}_{{{k},{j}}}]", f"omega_{i}", _pair(ab, k, j)
                    )
    for i in range(1, n + 1):
        for k in range(1, n + 1):
            yield _comm(f"PFH.omega-g[i={i},k={k}]", f"omega_{i}", f"g_{k}")


def suite_instances(suite: str, n: int) -> tuple[RelationInstance, ...]:
    """All relation instances of a suite at half strand count n, each once."""
    if _known_suite(suite) == CLASSICAL_SUITE:
        return tuple(_hilden_family(n, "P", "S", "Theta", "H1"))
    if suite == FRAMED_SUITE:
        return (*_hilden_family(n, "p", "s", "theta", "FH"), *_omega_family(n))
    return tuple(_pure_family(n))


def _evaluate(word: Word, dictionary: GeneratorDictionary) -> FramedBraid:
    """The product of the word's atoms in one letter pass: an entry's
    spelled letters, or for an inverse atom those letters inverted."""
    letters: list[Letter] = []
    for name, exp in word:
        entry = dictionary.entries[name]
        letters += invert(spell(entry)).letters if exp < 0 else _spelled_letters(entry)
    return _normal_form(2 * dictionary.n, letters)


def verify_relation_suite(
    dictionary: GeneratorDictionary, suite: str
) -> tuple[RelationReport, ...]:
    """Check every instantiated relation of the suite against the dictionary."""
    instances = suite_instances(suite, dictionary.n)
    if not instances:
        raise ValueError(f"suite {suite!r} has no relations at n={dictionary.n}")
    reports: list[RelationReport] = []
    for inst in instances:
        missing = tuple(sorted({name for name, _ in inst.lhs + inst.rhs}
                               - dictionary.entries.keys()))
        lhs = rhs = None
        if not missing:
            lhs, rhs = _evaluate(inst.lhs, dictionary), _evaluate(inst.rhs, dictionary)
        reports.append(RelationReport(
            inst.relation_id, lhs, rhs, holds=not missing and framed_equal(lhs, rhs),
            skipped=bool(missing), missing=missing, note=inst.note,
        ))
    return tuple(reports)
