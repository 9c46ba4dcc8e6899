#!/usr/bin/env python3
"""
Benchmark of the framedbraids engine. Run from the repository root:

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --smoke              every workload at tiny sizes, < 10 s
    python3 bench/run.py --baseline OUT.json  the ROADMAP baseline table, one-shot
    python3 bench/run.py --write-spec         regenerate BENCHMARK.json from spec.py
    python3 bench/run.py --write-golden       record the answer digests of this commit

With --trace 0 the workload runs as a closed loop with one client for S
seconds, in whole rounds, and reports the end-to-end metrics.
With --trace 1 it runs a fixed, seeded op list untraced, traced and
untraced again, and reports the per-layer metrics; the layer table and the
spans go to .bench_out/. Either way every answer is checked, the digest of
a fixed golden input set must equal bench/golden.json, and the last line
of stdout is one JSON object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spec
import tracing

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
GOLDEN = BENCH / "golden.json"
GOLDEN_ROUNDS = 2
SETUP_SAMPLES = 9

SETUP_CODE = (
    "import sys, time\n"
    "start = time.perf_counter()\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "import framedbraids, framedbraids.cli\n"
    "print(time.perf_counter() - start)\n"
)


def import_seconds() -> float:
    """Time to import framedbraids and its CLI in a fresh interpreter: what
    every `fbk` call pays before its work. No workload needs further
    one-time program setup."""
    done = subprocess.run(
        [sys.executable, "-I", "-c", SETUP_CODE, str(SRC)],
        cwd=ROOT, capture_output=True, text=True, timeout=60, check=True,
    )
    return float(done.stdout)


class Digest:
    def __init__(self):
        self._hash = hashlib.sha256()
        self.count = 0

    def add(self, record) -> None:
        self._hash.update(json.dumps(record, sort_keys=True).encode() + b"\n")
        self.count += 1

    def hexdigest(self) -> str:
        return self._hash.hexdigest()


def run_case(family, case, digest: Digest, op=None) -> tuple[float, bool]:
    """Time one op (family.op unless given); an exception or a wrong
    answer is a failure."""
    op = op or family.op
    start = time.perf_counter()
    try:
        out = op(*case.args)
    except Exception as err:  # a failed op is counted, the loop goes on
        elapsed = time.perf_counter() - start
        print(f"op failed: {type(err).__name__}: {err}", file=sys.stderr)
        digest.add(["error", type(err).__name__])
        return elapsed, False
    elapsed = time.perf_counter() - start
    digest.add(family.record(out))
    return elapsed, bool(family.check(case, out))


def golden_digest(family) -> str:
    cases = workloads.cases(family, "golden", tiny=True)
    digest = Digest()
    for _ in range(GOLDEN_ROUNDS * len(family.cells(True))):
        run_case(family, next(cases)[1], digest)
    return digest.hexdigest()


def golden_ok(mix: str) -> bool:
    """Every op family of the workload gives the recorded answers."""
    recorded = json.loads(GOLDEN.read_text())
    ok = True
    for family in workloads.parts(mix):
        actual = golden_digest(family)
        expected = recorded[family.name]
        print(f"golden digest {family.name} {actual} "
              f"({'matches' if actual == expected else 'EXPECTED ' + expected})")
        ok &= actual == expected
    return ok


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples beyond): the highest percentile with at
    least ten samples beyond it, or the maximum when there are fewer."""
    ordered = sorted(latencies)
    n = len(ordered)
    beyond = min(10, n - 1)
    return ordered[n - 1 - beyond], 100.0 * (n - beyond) / n, beyond


def measure(mix: str, seed: str, seconds: float, tiny: bool = False,
            setup_samples: int = SETUP_SAMPLES):
    """Closed loop for `seconds`, in whole rounds of the workload.

    The host's CPU speed drifts by up to 2x over seconds to minutes, so
    the setup samples are spread evenly over the run rather than taken
    back to back, where they would all catch one point of that drift.
    """
    correct = golden_ok(mix)
    import_seconds()  # warms the bytecode cache
    cases = workloads.mix_cases(mix, seed, tiny)
    per_round = workloads.round_size(mix, tiny)
    latencies: list[float] = []
    setup: list[float] = []
    failed = 0
    digest = Digest()
    start = time.perf_counter()
    while not latencies or time.perf_counter() - start < seconds:
        for _ in range(per_round):
            elapsed, ok = run_case(*next(cases), digest)
            latencies.append(elapsed)
            failed += not ok
            while len(setup) < setup_samples * min(1.0, (time.perf_counter() - start) / seconds):
                setup.append(import_seconds())
    while len(setup) < setup_samples:
        setup.append(import_seconds())
    wall = time.perf_counter() - start
    attempted = len(latencies)
    tail_s, tail_pct, beyond = tail(latencies)
    metrics = {
        "ops_per_s": (attempted / sum(latencies), "1/s"),
        "op_p50_ms": (statistics.median(latencies) * 1e3, "ms"),
        "op_tail_ms": (tail_s * 1e3, "ms"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    print(f"workload {mix}: {attempted} ops in {attempted // per_round} rounds, "
          f"{wall:.2f} s wall, {sum(latencies):.2f} s in ops, {len(setup)} setup samples")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    print(f"  op_tail_ms is p{tail_pct:.2f} with {beyond} samples beyond, of {attempted}")
    print(f"  failed_frac = {failed / attempted:g} ({failed} of {attempted})")
    print(f"  run digest {digest.hexdigest()} over {digest.count} ops")
    return correct and failed == 0, attempted, failed, metrics


def trace(mix: str, seed: str, tiny: bool = False):
    """Each op family's fixed, seeded trace list, run untraced, traced and
    untraced again."""
    correct = golden_ok(mix)
    ops = []
    for family in workloads.parts(mix):
        cases = workloads.cases(family, seed, tiny)
        ops += [(family, next(cases)[1])
                for _ in range(family.trace_rounds * len(family.cells(tiny)))]

    def untraced() -> tuple[float, int]:
        timings = [run_case(family, case, Digest()) for family, case in ops]
        return sum(t for t, _ in timings), sum(not ok for _, ok in timings)

    before, failed_before = untraced()
    tracer = tracing.Tracer()
    digest = Digest()
    tracer.install()
    try:
        traced_ops = {family.name: tracer.wrap(tracing.ROOT, family.op)
                      for family in workloads.parts(mix)}
        results = [run_case(family, case, digest, traced_ops[family.name])
                   for family, case in ops]
    finally:
        tracer.uninstall()
    after, failed_after = untraced()
    failed = sum(not ok for _, ok in results)
    values, lines = tracing.layer_table(tracer, (before + after) / 2, len(ops))
    OUT.mkdir(exist_ok=True)
    (OUT / f"{mix}-layers.txt").write_text("\n".join(lines) + "\n")
    tracing.write_spans(tracer, OUT / f"{mix}-spans.csv.gz")
    print(f"workload {mix} traced: {len(ops)} ops, run digest {digest.hexdigest()}")
    print("\n".join(lines))
    metrics = {m["name"]: (values[m["name"]], m["unit"]) for m in spec.PER_LAYER}
    ok = correct and failed == failed_before == failed_after == 0
    return ok, len(ops), failed, metrics


def report(correct: bool, attempted: int, failed: int, metrics: dict) -> None:
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))


def smoke() -> int:
    """Every workload at tiny sizes, untraced and traced; exit 1 on a failure.

    Also fails when a per-layer metric is zero on a workload that spec.py
    says stresses its layer, or when BENCHMARK.json is not what spec.py
    writes.
    """
    summary = {}
    for entry in spec.WORKLOADS:
        mix = entry["name"]
        ok_run, *_ = measure(mix, "smoke", 0.3, tiny=True, setup_samples=1)
        ok_trace, _, _, metrics = trace(mix, "smoke", tiny=True)
        stressed = {layer.lstrip("_") for layer in entry["stresses"]}
        idle = [m for m, (value, _) in metrics.items()
                if m.split(".")[0] in stressed and not value]
        if idle:
            print(f"zero on {mix}: {', '.join(idle)}")
        summary[mix] = ok_run and ok_trace and not idle
    spec_current = json.loads((ROOT / "BENCHMARK.json").read_text()) == spec.benchmark_json()
    correct = all(summary.values()) and spec_current
    print(json.dumps({"correct": correct, "spec_current": spec_current, "workloads": summary}))
    return 0 if correct else 1


def main(argv: list[str] | None = None) -> int:
    top = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    top.add_argument("--workload")
    top.add_argument("--seed", default="0")
    top.add_argument("--seconds", type=float, default=20.0)
    top.add_argument("--trace", type=int, choices=(0, 1), default=0)
    top.add_argument("--smoke", action="store_true")
    top.add_argument("--baseline", metavar="OUT", type=Path)
    top.add_argument("--write-spec", action="store_true")
    top.add_argument("--write-golden", action="store_true")
    args = top.parse_args(argv)

    if not (SRC / "framedbraids" / "__init__.py").is_file():
        print(f"bench: no framedbraids package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    global workloads  # needs the package on sys.path, so imported late
    import workloads

    if args.write_spec:
        (ROOT / "BENCHMARK.json").write_text(json.dumps(spec.benchmark_json(), indent=2) + "\n")
        return 0
    if args.write_golden:
        digests = {name: golden_digest(w) for name, w in workloads.WORKLOADS.items()}
        GOLDEN.write_text(json.dumps(digests, indent=2) + "\n")
        return 0
    if args.smoke:
        return smoke()
    if args.baseline:
        import baseline
        baseline.main(args.baseline, SRC)
        return 0
    if args.workload not in workloads.MIXES:
        top.error(f"--workload must be one of {sorted(workloads.MIXES)}")
    if args.trace:
        report(*trace(args.workload, args.seed))
    else:
        report(*measure(args.workload, args.seed, args.seconds))
    return 0


if __name__ == "__main__":
    sys.exit(main())
