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

Relation suites are data driven: each relation is a pair of abstract words
over generator names, instantiated exhaustively over the valid index
combinations at a fixed n and decided by the exact word problem. A missing
dictionary entry yields a skipped report, never a silent pass.
"""

from __future__ import annotations

import unicodedata
from dataclasses import dataclass
from typing import Iterator

from .framed import FramedBraid, framed_equal, multiply, inverse, normalize
from .plat import is_plat_trivial as plat_trivializes
from .words import BraidWord, sigma, tau

Atom = tuple[str, int]
Word = tuple[Atom, ...]

CLASSICAL_SUITE = "hilden_1"
FRAMED_SUITE = "framed_hilden"
PURE_SUITE = "pure_framed"
SUITES = (CLASSICAL_SUITE, FRAMED_SUITE, PURE_SUITE)


def hilden_generator(name: str, i: int, n: int) -> FramedBraid:
    """The classical generator P_i, S_i or Theta_i of H_2n, zero-framed."""
    strands = 2 * n
    if name in ("P", "S"):
        if not 1 <= i <= n - 1:
            raise ValueError(f"{name}_{i} needs 1 <= i <= {n - 1}")
        inner = -1 if name == "P" else 1
        letters = (
            sigma(2 * i),
            sigma(2 * i - 1),
            sigma(2 * i + 1, inner),
            sigma(2 * i, inner),
        )
        return normalize(BraidWord(strands, letters))
    if name == "Theta":
        if not 1 <= i <= n:
            raise ValueError(f"Theta_{i} needs 1 <= i <= {n}")
        return normalize(BraidWord(strands, (sigma(2 * i - 1),)))
    raise ValueError(f"unknown classical Hilden generator {name!r}")


def framed_hilden_generator(name: str, i: int, n: int) -> FramedBraid:
    """The framed generator p_i, s_i, theta_i or omega_i of RH_2n."""
    strands = 2 * n
    if name in ("p", "s"):
        return hilden_generator(name.upper(), i, n)
    if name == "theta":
        if not 1 <= i <= n:
            raise ValueError(f"theta_{i} needs 1 <= i <= {n}")
        return normalize(BraidWord(strands, (tau(2 * i - 1), sigma(2 * i - 1))))
    if name == "omega":
        if not 1 <= i <= n:
            raise ValueError(f"omega_{i} needs 1 <= i <= {n}")
        return normalize(BraidWord(strands, (tau(2 * i - 1), tau(2 * i, -1))))
    raise ValueError(f"unknown framed Hilden generator {name!r}")


def pure_framed_generator(name: str, k: int, n: int) -> FramedBraid:
    """The built-in pure framed generator g_k or omega_k of PRH_2n."""
    strands = 2 * n
    if name == "g":
        if not 1 <= k <= n:
            raise ValueError(f"g_{k} needs 1 <= k <= {n}")
        letters = (tau(2 * k - 1), tau(2 * k), sigma(2 * k - 1, 2))
        return normalize(BraidWord(strands, letters))
    if name == "omega":
        return framed_hilden_generator("omega", k, n)
    raise ValueError(f"unknown pure framed generator {name!r}")


_NAME_ALIASES = {"θ": "theta", "Θ": "Theta", "ω": "omega", "Ω": "omega"}


def canonical_name(name: str) -> str:
    """Normalize a generator name: unicode letters to ascii, pairs sorted."""
    name = unicodedata.normalize("NFC", name.strip())
    for greek, ascii_name in _NAME_ALIASES.items():
        if name.startswith(greek):
            name = ascii_name + name[len(greek):]
            break
    if "{" in name:
        head, _, rest = name.partition("_")
        pair = rest.strip("{}").replace(" ", "")
        a, b = (int(x) for x in pair.split(","))
        lo, hi = min(a, b), max(a, b)
        return f"{head}_{{{lo},{hi}}}"
    return name


@dataclass
class GeneratorDictionary:
    """Named framed braids in RB_2n feeding the relation verifier."""

    n: int
    entries: dict[str, FramedBraid]

    def __post_init__(self):
        self.entries = {canonical_name(k): v for k, v in self.entries.items()}
        for name, value in self.entries.items():
            if value.n != 2 * self.n:
                raise ValueError(
                    f"entry {name!r} lives in RB_{value.n}, expected RB_{2 * self.n}"
                )

    @classmethod
    def classical(cls, n: int) -> GeneratorDictionary:
        entries: dict[str, FramedBraid] = {}
        for i in range(1, n):
            entries[f"P_{i}"] = hilden_generator("P", i, n)
            entries[f"S_{i}"] = hilden_generator("S", i, n)
        for k in range(1, n + 1):
            entries[f"Theta_{k}"] = hilden_generator("Theta", k, n)
        return cls(n, entries)

    @classmethod
    def framed(cls, n: int) -> GeneratorDictionary:
        entries: dict[str, FramedBraid] = {}
        for i in range(1, n):
            entries[f"p_{i}"] = framed_hilden_generator("p", i, n)
            entries[f"s_{i}"] = framed_hilden_generator("s", i, n)
        for k in range(1, n + 1):
            entries[f"theta_{k}"] = framed_hilden_generator("theta", k, n)
            entries[f"omega_{k}"] = framed_hilden_generator("omega", k, n)
        return cls(n, entries)

    @classmethod
    def pure(cls, n: int) -> GeneratorDictionary:
        entries: dict[str, FramedBraid] = {}
        for k in range(1, n + 1):
            entries[f"g_{k}"] = pure_framed_generator("g", k, n)
            entries[f"omega_{k}"] = pure_framed_generator("omega", k, n)
        return cls(n, entries)

    def with_entries(self, extra: dict[str, FramedBraid]) -> GeneratorDictionary:
        merged = dict(self.entries)
        merged.update({canonical_name(k): v for k, v in extra.items()})
        return GeneratorDictionary(self.n, merged)


@dataclass(frozen=True)
class RelationInstance:
    relation_id: str
    lhs: Word
    rhs: Word
    note: str | None = None


@dataclass(frozen=True)
class RelationReport:
    relation_id: str
    lhs: FramedBraid | None
    rhs: FramedBraid | None
    holds: bool
    skipped: bool = False
    missing: tuple[str, ...] = ()
    note: str | None = None


def _pair(name: str, i: int, j: int) -> str:
    lo, hi = min(i, j), max(i, j)
    return f"{name}_{{{lo},{hi}}}"


def _atoms(*parts: tuple[str, int] | str) -> Word:
    out: list[Atom] = []
    for part in parts:
        if isinstance(part, str):
            out.append((part, 1))
        else:
            out.append(part)
    return tuple(out)


def _hilden_family(n: int, P: str, S: str, T: str, prefix: str) -> Iterator[RelationInstance]:
    """Tawn's relations for H_2n over the generator names (P, S, T).

    The published list repeats its first five families verbatim; each is
    emitted once here, and symmetric instances are generated with i < j.
    """
    for a, b, tag in ((P, P, "PP"), (S, S, "SS")):
        for i in range(1, n):
            for j in range(i + 2, n):
                yield RelationInstance(
                    f"{prefix}.{tag}-far[i={i},j={j}]",
                    _atoms(f"{a}_{i}", f"{b}_{j}"),
                    _atoms(f"{b}_{j}", f"{a}_{i}"),
                )
            if i + 1 <= n - 1:
                j = i + 1
                yield RelationInstance(
                    f"{prefix}.{tag}-braid[i={i}]",
                    _atoms(f"{a}_{i}", f"{b}_{j}", f"{a}_{i}"),
                    _atoms(f"{b}_{j}", f"{a}_{i}", f"{b}_{j}"),
                )
    for i in range(1, n):
        for j in range(1, n):
            if abs(i - j) > 1:
                yield RelationInstance(
                    f"{prefix}.PS-far[i={i},j={j}]",
                    _atoms(f"{P}_{i}", f"{S}_{j}"),
                    _atoms(f"{S}_{j}", f"{P}_{i}"),
                )
    for i in range(1, n - 1):
        yield RelationInstance(
            f"{prefix}.PSS[i={i}]",
            _atoms(f"{P}_{i}", f"{S}_{i + 1}", f"{S}_{i}"),
            _atoms(f"{S}_{i + 1}", f"{S}_{i}", f"{P}_{i + 1}"),
        )
        yield RelationInstance(
            f"{prefix}.PPS[i={i}]",
            _atoms(f"{P}_{i + 1}", f"{P}_{i}", f"{S}_{i + 1}"),
            _atoms(f"{S}_{i}", f"{P}_{i + 1}", f"{P}_{i}"),
        )
        yield RelationInstance(
            f"{prefix}.PSS-shift[i={i}]",
            _atoms(f"{P}_{i + 1}", f"{S}_{i}", f"{S}_{i + 1}"),
            _atoms(f"{S}_{i}", f"{S}_{i + 1}", f"{P}_{i}"),
        )
    for i in range(1, n):
        yield RelationInstance(
            f"{prefix}.PTSP[i={i}]",
            _atoms(f"{P}_{i}", f"{T}_{i}", f"{S}_{i}", f"{P}_{i}"),
            _atoms(f"{S}_{i}", f"{T}_{i}"),
        )
        for j in range(1, n + 1):
            if j not in (i, i + 1):
                yield RelationInstance(
                    f"{prefix}.PT-comm[i={i},j={j}]",
                    _atoms(f"{P}_{i}", f"{T}_{j}"),
                    _atoms(f"{T}_{j}", f"{P}_{i}"),
                )
                yield RelationInstance(
                    f"{prefix}.ST-comm[i={i},j={j}]",
                    _atoms(f"{S}_{i}", f"{T}_{j}"),
                    _atoms(f"{T}_{j}", f"{S}_{i}"),
                )
        yield RelationInstance(
            f"{prefix}.ST-swap[i={i},j={i}]",
            _atoms(f"{S}_{i}", f"{T}_{i}"),
            _atoms(f"{T}_{i + 1}", f"{S}_{i}"),
        )
        yield RelationInstance(
            f"{prefix}.ST-swap[i={i},j={i + 1}]",
            _atoms(f"{S}_{i}", f"{T}_{i + 1}"),
            _atoms(f"{T}_{i}", f"{S}_{i}"),
        )
    for i in range(1, n):
        # The published line pairs Theta_i with P_(i+1), but the two sides
        # then project to different permutations of S_2n, so it cannot hold
        # in any subgroup of B_2n; pulling the twist through the pair swap
        # keeps the same swap, giving P_i Theta_(i+1) = Theta_i P_i.
        yield RelationInstance(
            f"{prefix}.PT-shift[i={i}]",
            _atoms(f"{P}_{i}", f"{T}_{i + 1}"),
            _atoms(f"{T}_{i}", f"{P}_{i}"),
            note="index corrected from a misprint; printed form fails in S_2n",
        )
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            yield RelationInstance(
                f"{prefix}.TT-comm[i={i},j={j}]",
                _atoms(f"{T}_{i}", f"{T}_{j}"),
                _atoms(f"{T}_{j}", f"{T}_{i}"),
            )


def _omega_family(n: int) -> Iterator[RelationInstance]:
    """The twist relations of the framed Hilden presentation."""
    for base in ("p", "s"):
        for j in range(1, n):
            for i in range(1, n + 1):
                if i == j:
                    rhs = f"omega_{i + 1}"
                elif i == j + 1:
                    rhs = f"omega_{i - 1}"
                else:
                    rhs = f"omega_{i}"
                yield RelationInstance(
                    f"FH.{base}-omega[j={j},i={i}]",
                    _atoms(f"{base}_{j}", f"omega_{i}"),
                    _atoms(rhs, f"{base}_{j}"),
                )
    for j in range(1, n + 1):
        for i in range(1, n + 1):
            if i == j:
                yield RelationInstance(
                    f"FH.theta-omega-inv[j={j}]",
                    _atoms(f"theta_{j}", f"omega_{i}"),
                    _atoms((f"omega_{i}", -1), f"theta_{j}"),
                )
            else:
                yield RelationInstance(
                    f"FH.theta-omega-comm[j={j},i={i}]",
                    _atoms(f"theta_{j}", f"omega_{i}"),
                    _atoms(f"omega_{i}", f"theta_{j}"),
                )
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            yield RelationInstance(
                f"FH.omega-omega[i={i},j={j}]",
                _atoms(f"omega_{i}", f"omega_{j}"),
                _atoms(f"omega_{j}", f"omega_{i}"),
            )


def _cyclic_case(indices: tuple[int, ...]) -> bool:
    """True when the tuple is a rotation of its sorted order."""
    k = len(indices)
    rotations = [tuple(indices[(r + s) % k] for s in range(k)) for r in range(k)]
    return tuple(sorted(indices)) in rotations


_TABLE1 = {
    "ijk": {
        ("p", "p", "p"), ("p", "y", "y"), ("x", "p", "p"), ("x", "x", "p"),
        ("x", "y", "y"), ("y", "p", "p"), ("y", "p", "x"), ("y", "y", "y"),
    },
    "jki": {
        ("p", "p", "p"), ("p", "x", "y"), ("x", "p", "p"), ("x", "p", "x"),
        ("x", "x", "y"), ("y", "p", "p"), ("y", "x", "y"), ("y", "y", "p"),
    },
    "kij": {
        ("p", "p", "p"), ("p", "x", "x"), ("x", "p", "p"), ("x", "x", "x"),
        ("x", "y", "p"), ("y", "p", "p"), ("y", "p", "y"), ("y", "x", "x"),
    },
}


def _triple_case(i: int, j: int, k: int) -> str | None:
    if i < j < k:
        return "ijk"
    if j < k < i:
        return "jki"
    if k < i < j:
        return "kij"
    return None


def _pure_family(n: int) -> Iterator[RelationInstance]:
    """The pure framed Hilden relations.

    The pair generators p_ij, x_ij, y_ij have no built-in word, so their
    instances are normally reported as skipped unless the dictionary
    supplies them. The omega-g commutations are required by the direct-sum
    structure and are verified alongside the published list.
    """
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            for ab in ("p", "x", "y"):
                for k in range(1, n + 1):
                    if ab == "x" and k == i:
                        continue
                    if ab == "y" and k == j:
                        continue
                    yield RelationInstance(
                        f"PFH.{ab}g-comm[i={i},j={j},k={k}]",
                        _atoms(_pair(ab, i, j), f"g_{k}"),
                        _atoms(f"g_{k}", _pair(ab, i, j)),
                    )
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            yield RelationInstance(
                f"PFH.gg-comm[i={i},j={j}]",
                _atoms(f"g_{i}", f"g_{j}"),
                _atoms(f"g_{j}", f"g_{i}"),
            )
    seen_quads: set[tuple[int, int, int, int]] = set()
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            for k in range(1, n + 1):
                for l in range(1, n + 1):
                    quad = (i, j, k, l)
                    if len(set(quad)) != 4 or not _cyclic_case(quad):
                        continue
                    if quad in seen_quads:
                        continue
                    seen_quads.add(quad)
                    for a in ("p", "x", "y"):
                        for b in ("p", "x", "y"):
                            yield RelationInstance(
                                f"PFH.far-comm[{a}_{{{i},{j}}},{b}_{{{k},{l}}}]",
                                _atoms(_pair(a, i, j), _pair(b, k, l)),
                                _atoms(_pair(b, k, l), _pair(a, i, j)),
                            )
                    for a in ("p", "x", "y"):
                        for b in ("p", "x", "y"):
                            yield RelationInstance(
                                f"PFH.conj-comm[{a}_{{{i},{k}}},{b}_{{{j},{l}}};p_{{{j},{k}}}]",
                                _atoms(
                                    _pair(a, i, k), _pair("p", j, k),
                                    _pair(b, j, l), (_pair("p", j, k), -1),
                                ),
                                _atoms(
                                    _pair("p", j, k), _pair(b, j, l),
                                    (_pair("p", j, k), -1), _pair(a, i, k),
                                ),
                                note="inverse read from a garbled exponent in the source list",
                            )
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            for k in range(1, n + 1):
                case = _triple_case(i, j, k)
                if case is None:
                    continue
                for a, b, c in sorted(_TABLE1[case]):
                    yield RelationInstance(
                        f"PFH.triple[{a}_{{{i},{j}}},{b}_{{{i},{k}}},{c}_{{{j},{k}}}]",
                        _atoms(_pair(a, i, j), _pair(b, i, k), _pair(c, j, k)),
                        _atoms(_pair(b, i, k), _pair(c, j, k), _pair(a, i, j)),
                    )
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            for ab in ("x", "y"):
                yield RelationInstance(
                    f"PFH.{ab}pg[i={i},j={j}]",
                    _atoms(_pair(ab, i, j), _pair("p", i, j), f"g_{i}"),
                    _atoms(_pair("p", i, j), f"g_{i}", _pair(ab, i, j)),
                )
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            yield RelationInstance(
                f"PFH.omega-omega[i={i},j={j}]",
                _atoms(f"omega_{i}", f"omega_{j}"),
                _atoms(f"omega_{j}", f"omega_{i}"),
            )
    for i in range(1, n + 1):
        for k in range(1, n + 1):
            for j in range(k + 1, n + 1):
                for ab in ("p", "x", "y"):
                    yield RelationInstance(
                        f"PFH.omega-{ab}[i={i},{ab}_{{{k},{j}}}]",
                        _atoms(f"omega_{i}", _pair(ab, k, j)),
                        _atoms(_pair(ab, k, j), f"omega_{i}"),
                    )
    for i in range(1, n + 1):
        for k in range(1, n + 1):
            yield RelationInstance(
                f"PFH.omega-g[i={i},k={k}]",
                _atoms(f"omega_{i}", f"g_{k}"),
                _atoms(f"g_{k}", f"omega_{i}"),
            )


def suite_instances(suite: str, n: int) -> tuple[RelationInstance, ...]:
    """All relation instances of a suite at half strand count n, deduplicated."""
    if suite == CLASSICAL_SUITE:
        gen = _hilden_family(n, "P", "S", "Theta", "H1")
        instances = list(gen)
    elif suite == FRAMED_SUITE:
        instances = list(_hilden_family(n, "p", "s", "theta", "FH"))
        instances.extend(_omega_family(n))
    elif suite == PURE_SUITE:
        instances = list(_pure_family(n))
    else:
        raise ValueError(f"unknown suite {suite!r}; choose from {SUITES}")
    seen: set[frozenset[Word]] = set()
    unique: list[RelationInstance] = []
    for inst in instances:
        key = frozenset((inst.lhs, inst.rhs))
        if key in seen:
            continue
        seen.add(key)
        unique.append(inst)
    return tuple(unique)


def _evaluate(word: Word, dictionary: GeneratorDictionary) -> FramedBraid:
    out = FramedBraid.identity(2 * dictionary.n)
    for name, exp in word:
        entry = dictionary.entries[name]
        if exp < 0:
            entry = inverse(entry)
        for _ in range(abs(exp)):
            out = multiply(out, entry)
    return out


def verify_relation_suite(
    dictionary: GeneratorDictionary, suite: str
) -> tuple[RelationReport, ...]:
    """Check every instantiated relation of the suite against the dictionary."""
    instances = suite_instances(suite, dictionary.n)
    if not instances:
        raise ValueError(f"suite {suite!r} has no relations at n={dictionary.n}")
    reports: list[RelationReport] = []
    for inst in instances:
        names = {name for name, _ in inst.lhs + inst.rhs}
        missing = tuple(sorted(n_ for n_ in names if n_ not in dictionary.entries))
        if missing:
            reports.append(
                RelationReport(
                    inst.relation_id, None, None,
                    holds=False, skipped=True, missing=missing, note=inst.note,
                )
            )
            continue
        lhs = _evaluate(inst.lhs, dictionary)
        rhs = _evaluate(inst.rhs, dictionary)
        reports.append(
            RelationReport(
                inst.relation_id, lhs, rhs,
                holds=framed_equal(lhs, rhs), note=inst.note,
            )
        )
    return tuple(reports)
