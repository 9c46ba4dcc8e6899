"""
What the benchmark measures and why: the source of BENCHMARK.json.

`python3 bench/run.py --write-spec` writes BENCHMARK.json from the tables
below. BENCHMARK.json has a fixed schema (a workload is only a name and a
one-line why), so each workload's op, input grid and the layers it should
stress or bypass are recorded here.

The benchmark is one process, one thread, one closed-loop client: the next
op starts when the previous one returns, on a 2-core machine. No layer has
a queue, so no layer has waiting time; per-layer times are busy times.
"""

from __future__ import annotations

RUN_SECONDS = 50

# Each workload is a round of two op families (bench/workloads.py, MIXES)
# that share one engine path, so that a change to that path shows on one
# workload and not the other. Two workloads of 50-s runs rather than one per
# family: the host's speed drifts by up to 2x over seconds to minutes, and
# longer runs average more of it.
WORKLOADS = [
    {
        "name": "equality",
        "why": "fbk eq pairs (n 4-16, 40-150 crossings) and Hilden relation suites on "
               "a conjugated dictionary: Garside normal form does nearly all the "
               "work; stresses garside and hilden, bypasses closure/plat/_canon",
        "families": {
            "word_problem": {
                "op": "framed_equal(normalize(parse(a)), normalize(parse(b)))",
                "grid": "one round = (n, crossings) in (4,100) (4,150) (8,60) (8,80) "
                        "(16,40); a is random unit s_i^+-1 letters plus crossings/10 "
                        "unit twists; b is a rewritten by a fixed mix per size of far "
                        "commutations and twist slides, braid moves, braid relators and "
                        "s_i s_i^-1 insertions; odd slots insert s_i^2 s_j^-2 (i != j) "
                        "before rewriting",
                "answer": "equal exactly for the even slots, by construction",
            },
            "hilden_suites": {
                "op": "verify_relation_suite(g^-1 D g, suite)",
                "grid": "one round = both suites at n=3 with g of 2, 3 and 4 letters, "
                        "twice, then both suites at n=4 with g of 2 and 3 letters; g is "
                        "one unit twist and length-1 unit crossings with signs +, -, +, "
                        "in random order",
                "answer": "every relation holds and none is skipped (conjugation is "
                          "an automorphism)",
            },
        },
        "round": "one word_problem round (5 ops) then one hilden_suites round (16 ops)",
        "stresses": ["garside", "framed", "parser", "hilden", "words"],
        "bypasses": ["closure", "plat", "_canon", "moves", "fuzz"],
    },
    {
        "name": "signatures",
        "why": "closure/plat signatures of torus and chain links (|e| 1e3-1e5), tie-heavy "
               "chains and random words, plus run_fuzz of the moves: stresses the "
               "crossing scans, _canon and moves, bypasses garside",
        "families": {
            "invariants": {
                "op": "closure_signature(normalize(parse(w)), convention) or "
                      "plat_signature(normalize(parse(w)))",
                "grid": "one round = twisted torus T(p,q)+s1^e, chain s_i^e (n 4-6) and "
                        "plat chain s_2i^e (4-8 ribbons) at |e| ~ 1e3, 1e4, 1e5 (+-20%); "
                        "tie-heavy chain s_i^2k on n = 7, 8, 9 and plat tie chain on 7, "
                        "8, 9 cap pairs; 30 random framed words (n 2-8, 20-40 syllables)",
                "answer": "closed forms (components, framings, neighbour linking e/2) "
                          "for the structured families; cycle or cap components and the "
                          "writhe sum law for random words",
            },
            "fuzz_moves": {
                "op": "run_fuzz(FuzzConfig(seed=s, trials=50))",
                "grid": "one op per round; s drawn from the workload seed",
                "answer": "failed == 0 and passed == 50",
            },
        },
        "round": "one invariants round (45 ops) then 30 fuzz_moves ops, about equal time",
        "stresses": ["closure", "plat", "_canon", "parser", "words", "moves", "fuzz",
                     "framed"],
        "bypasses": ["hilden relation suites; garside only on fuzz's small braids"],
    },
]

END_TO_END = [
    {"name": "ops_per_s", "unit": "1/s", "better": "higher", "bound": 0.25},
    {"name": "op_p50_ms", "unit": "ms", "better": "lower", "bound": 0.25},
    {"name": "op_tail_ms", "unit": "ms", "better": "lower", "bound": 0.25},
    {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.1},
]


def _layer(name: str, unit: str, better: str = "lower") -> dict:
    return {"name": name, "unit": unit, "better": better}


PER_LAYER = [
    _layer("garside.nf_calls", "count"),
    _layer("garside.self_s", "s"),
    _layer("garside.unit_crossings_in", "count"),
    _layer("garside.factors_out", "count"),
    _layer("garside.nf_per_decision", "ratio"),
    *(
        _layer(f"{layer}.{metric}", unit)
        for layer in ("closure", "plat")
        for metric, unit in (("calls", "count"), ("self_s", "s"),
                             ("syllables_in", "count"), ("unit_crossings_in", "count"))
    ),
    _layer("canon.calls", "count"),
    _layer("canon.self_s", "s"),
    _layer("canon.components_in", "count"),
    _layer("canon.candidate_orders", "count"),
    _layer("hilden.relations", "count", "higher"),
    _layer("hilden.self_s", "s"),
    _layer("hilden.framed_calls_per_relation", "ratio"),
    _layer("hilden.garside_nf_per_relation", "ratio"),
    _layer("framed.calls", "count"),
    _layer("framed.self_s", "s"),
    _layer("parser.calls", "count"),
    _layer("parser.self_s", "s"),
    _layer("parser.syllables_out", "count"),
    _layer("words.calls", "count"),
    _layer("words.self_s", "s"),
    _layer("moves.calls", "count"),
    _layer("moves.self_s", "s"),
    _layer("fuzz.trials", "count", "higher"),
    _layer("fuzz.self_s", "s"),
    _layer("trace.overhead_frac", "ratio"),
    _layer("trace.spans", "count"),
]


def benchmark_json() -> dict:
    return {
        "command": ["python3", "bench/run.py"],
        "paths": ["bench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w["name"], "why": w["why"]} for w in WORKLOADS],
        "end_to_end": END_TO_END,
        "per_layer": PER_LAYER,
    }
