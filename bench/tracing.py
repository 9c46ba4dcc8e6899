"""
Per-layer spans for the traced run, recorded from the benchmark's side.

A layer is a module of the package. Tracer.install() replaces each layer's
public functions, in every package module that binds them, with a wrapper
that records a span (parent, name, start, end) in memory and bumps the
layer's counters; uninstall() puts the originals back. Nothing under src/
changes. Self time of a span is its duration minus its direct children's
durations, so the self times of one op's spans sum exactly to the op span.

The run is single-threaded with one closed-loop client and no queue, so no
layer ever waits: every layer's time is busy time.
"""

from __future__ import annotations

import gzip
import math
from array import array
import sys
import time
from collections import Counter
from typing import Callable

ROOT = "bench.op"

# module -> public functions whose calls are spans of that module's layer
LAYERS: dict[str, tuple[str, ...]] = {
    "parser": ("parse", "format_word"),
    "words": ("concat", "invert", "permutation_of"),
    "framed": ("normalize", "multiply", "inverse", "framed_equal"),
    "garside": ("to_normal_form", "are_equal"),
    "closure": ("closure_signature", "with_adjusted_framing"),
    "plat": ("plat_signature", "with_adjusted_framing", "is_plat_trivial",
             "double_coset_move", "framed_stabilization", "classical_stabilization"),
    "_canon": ("canonical_order",),
    "moves": ("apply_move", "conjugate", "tau_conjugation_as_RL_sequence"),
    "hilden": ("verify_relation_suite", "hilden_generator", "framed_hilden_generator"),
    "fuzz": ("run_fuzz",),
}


def _layer(name: str) -> str:
    """Metric prefix of a span name; `_canon` is spelled `canon` in metrics."""
    return name.split(".")[0].lstrip("_")


def _crossings(word) -> int:
    return sum(abs(letter.exponent) for letter in word.letters)


def candidate_orders(framings, matrix) -> int:
    """Orders canonical_order tries: product of tie-group factorials.

    Components tie when their (framing, sorted |row|) keys agree; the search
    is skipped when no group ties or the matrix is zero off the diagonal.
    """
    k = len(framings)
    keys = Counter(
        (framings[c], tuple(sorted(abs(matrix[c][d]) for d in range(k) if d != c)))
        for c in range(k)
    )
    zero = all(matrix[a][b] == 0 for a in range(k) for b in range(k) if a != b)
    if zero or all(size == 1 for size in keys.values()):
        return 1
    return math.prod(math.factorial(size) for size in keys.values())


def _signature_counts(layer: str):
    def count(counts, args, result):
        beta = args[0].beta
        counts[f"{layer}.syllables_in"] += len(beta.letters)
        counts[f"{layer}.unit_crossings_in"] += _crossings(beta)
    return count


def _nf_counts(counts, args, result):
    counts["garside.unit_crossings_in"] += _crossings(args[0])
    counts["garside.factors_out"] += len(result.factors)


def _canon_counts(counts, args, result):
    counts["canon.components_in"] += len(args[0])
    counts["canon.candidate_orders"] += candidate_orders(args[0], args[1])


COUNTERS: dict[str, Callable] = {
    "parser.parse": lambda counts, args, result: counts.update(
        {"parser.syllables_out": len(result.letters)}),
    "garside.to_normal_form": _nf_counts,
    "closure.closure_signature": _signature_counts("closure"),
    "plat.plat_signature": _signature_counts("plat"),
    "_canon.canonical_order": _canon_counts,
    "hilden.verify_relation_suite": lambda counts, args, result: counts.update(
        {"hilden.relations": sum(not r.skipped for r in result)}),
    "fuzz.run_fuzz": lambda counts, args, result: counts.update(
        {"fuzz.trials": result["trials"]}),
}


class Tracer:
    """In-memory spans in flat arrays, so that a long trace adds no objects
    for the garbage collector to walk; span i has parent[i] (-1 for an op),
    names[name[i]], start[i] and end[i] in ns, and counted[i], the ns its
    children's counters ran inside it, which is not the layer's own time."""

    def __init__(self):
        self.parent = array("q")
        self.name = array("i")
        self.start = array("q")
        self.end = array("q")
        self.counted = array("q")
        self.names: list[str] = []
        self.counts: Counter = Counter()
        self._stack = [-1]
        self._patched: list[tuple[object, str, object]] = []

    def spans(self):
        """(parent, name, start ns, end ns, counted ns) per span, in start order."""
        names = self.names
        for parent, name, start, end, counted in zip(
                self.parent, self.name, self.start, self.end, self.counted):
            yield parent, names[name], start, end, counted

    def clear(self) -> None:
        for column in (self.parent, self.name, self.start, self.end, self.counted):
            del column[:]

    def wrap(self, name: str, fn: Callable) -> Callable:
        parents, names, starts, ends = self.parent, self.name, self.start, self.end
        counted = self.counted
        stack, counts = self._stack, self.counts
        count = COUNTERS.get(name)
        clock = time.perf_counter_ns
        self.names.append(name)
        name_id = len(self.names) - 1

        def traced(*args, **kwargs):
            index = len(starts)
            parents.append(stack[-1])
            names.append(name_id)
            ends.append(0)
            counted.append(0)
            stack.append(index)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()
            if count is not None:
                begin = clock()
                count(counts, args, result)
                counted[stack[-1]] += clock() - begin
            return result

        return traced

    def install(self) -> None:
        """Wrap every layer function under each name the package binds it to."""
        modules = [m for key, m in sorted(sys.modules.items())
                   if key == "framedbraids" or key.startswith("framedbraids.")]
        for layer, names in LAYERS.items():
            home = sys.modules[f"framedbraids.{layer}"]
            for fname in names:
                original = getattr(home, fname)
                wrapper = self.wrap(f"{layer}.{fname}", original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            self._patched.append((module, attr, original))
                            setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()



def wrapper_cost_ns(calls: int = 20000) -> float:
    """Median extra time one traced call adds to its caller, in ns."""
    def noop():
        return None

    tracer = Tracer()
    traced = tracer.wrap("calibration.noop", noop)
    samples = []
    for _ in range(5):
        tracer.clear()
        start = time.perf_counter_ns()
        for _ in range(calls):
            noop()
        bare = time.perf_counter_ns() - start
        start = time.perf_counter_ns()
        for _ in range(calls):
            traced()
        samples.append((time.perf_counter_ns() - start - bare) / calls)
    return sorted(samples)[2]


def layer_table(tracer: Tracer, untraced_s: float, ops: int) -> tuple[dict, list[str]]:
    """Per-layer metrics and the printable table, from one traced op list."""
    spans = list(tracer.spans())
    child = [0] * len(spans)
    in_hilden = [False] * len(spans)
    for index, (parent, name, start, end, _) in enumerate(spans):
        if parent >= 0:
            child[parent] += end - start
            in_hilden[index] = in_hilden[parent] or _layer(spans[parent][1]) == "hilden"
    self_ns: Counter = Counter()
    calls: Counter = Counter()
    under_hilden: Counter = Counter()
    for index, (parent, name, start, end, counted) in enumerate(spans):
        layer = _layer(name)
        self_ns[layer] += end - start - child[index] - counted
        calls[name] += 1
        calls[layer] += 1
        if in_hilden[index]:
            under_hilden[layer] += 1
            under_hilden[name] += 1
    counts = tracer.counts
    traced_s = sum(end - start for parent, _, start, end, _ in spans if parent < 0) / 1e9
    counted_s = sum(span[4] for span in spans) / 1e9

    def ratio(num, base):
        return num / base if base else 0.0

    metrics = {
        "garside.nf_calls": calls["garside.to_normal_form"],
        "garside.self_s": self_ns["garside"] / 1e9,
        "garside.unit_crossings_in": counts["garside.unit_crossings_in"],
        "garside.factors_out": counts["garside.factors_out"],
        "garside.nf_per_decision": ratio(calls["garside.to_normal_form"],
                                         calls["garside.are_equal"]),
    }
    for layer in ("closure", "plat"):
        metrics.update({
            f"{layer}.calls": calls[layer],
            f"{layer}.self_s": self_ns[layer] / 1e9,
            f"{layer}.syllables_in": counts[f"{layer}.syllables_in"],
            f"{layer}.unit_crossings_in": counts[f"{layer}.unit_crossings_in"],
        })
    relations = counts["hilden.relations"]
    metrics.update({
        "canon.calls": calls["canon"],
        "canon.self_s": self_ns["canon"] / 1e9,
        "canon.components_in": counts["canon.components_in"],
        "canon.candidate_orders": counts["canon.candidate_orders"],
        "hilden.relations": relations,
        "hilden.self_s": self_ns["hilden"] / 1e9,
        "hilden.framed_calls_per_relation": ratio(under_hilden["framed"], relations),
        "hilden.garside_nf_per_relation": ratio(
            under_hilden["garside.to_normal_form"], relations),
        "framed.calls": calls["framed"],
        "framed.self_s": self_ns["framed"] / 1e9,
        "parser.calls": calls["parser"],
        "parser.self_s": self_ns["parser"] / 1e9,
        "parser.syllables_out": counts["parser.syllables_out"],
        "words.calls": calls["words"],
        "words.self_s": self_ns["words"] / 1e9,
        "moves.calls": calls["moves"],
        "moves.self_s": self_ns["moves"] / 1e9,
        "fuzz.trials": counts["fuzz.trials"],
        "fuzz.self_s": self_ns["fuzz"] / 1e9,
        "trace.overhead_frac": ratio(traced_s - untraced_s, untraced_s),
        "trace.spans": len(spans),
    })

    # Blocking path: one thread, so every span of an op blocks it. The self
    # times plus the counters' time sum to the traced op time; less the
    # calibrated cost of each wrapper they should give back the untraced
    # op time.
    cost_ns = wrapper_cost_ns()
    self_total = sum(self_ns.values()) / 1e9
    wrappers = len(spans) - ops
    corrected = self_total - wrappers * cost_ns / 1e9
    residual = ratio(corrected - untraced_s, untraced_s)
    lines = [f"{'layer':8} {'self_s':>10} {'share':>7} {'calls':>8}"]
    for layer in sorted(self_ns, key=self_ns.get, reverse=True):
        lines.append(f"{layer:8} {self_ns[layer] / 1e9:10.6f} "
                     f"{ratio(self_ns[layer] / 1e9, self_total):7.1%} {calls[layer]:8d}")
    lines.append("counters and ratios (ratio = numerator / base):")
    for name in sorted(metrics):
        if not name.endswith("self_s"):
            lines.append(f"  {name} = {metrics[name]:g}")
    lines += [
        f"  bases: decisions (garside.are_equal calls) = {calls['garside.are_equal']}, "
        f"relations = {relations}, untraced op time = {untraced_s:.6f} s",
        f"blocking path: sum of self times {self_total:.6f} s + counters "
        f"{counted_s:.6f} s = traced op time {traced_s:.6f} s over {ops} ops",
        f"blocking path: minus {wrappers} wrappers x {cost_ns:.0f} ns calibrated cost "
        f"= {corrected:.6f} s vs untraced {untraced_s:.6f} s "
        f"(residual {residual:+.1%}, {'ok' if abs(residual) <= 0.15 else 'CHECK'})",
    ]
    return metrics, lines


def write_spans(tracer: Tracer, path) -> None:
    """Spans as CSV: id, parent, op (root span id), name, start_ns, end_ns,
    counted_ns."""
    root = []
    with gzip.open(path, "wt", encoding="ascii") as out:
        out.write("id,parent,op,name,start_ns,end_ns,counted_ns\n")
        for index, (parent, name, start, end, counted) in enumerate(tracer.spans()):
            root.append(index if parent < 0 else root[parent])
            out.write(f"{index},{parent},{root[index]},{name},{start},{end},{counted}\n")
