import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from framedbraids.cli import MAX_MATRIX_STRANDS

CLI = [sys.executable, "-m", "framedbraids"]


def run_cli(*args, env_extra=None, stdin_text=None, timeout=None):
    env = dict(os.environ)
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        CLI + list(args),
        capture_output=True,
        text=True,
        env=env,
        input=stdin_text,
        timeout=timeout,
    )


def test_closure_documented_example():
    proc = run_cli("closure", "--n", "2", "t1^-1 s1^-3")
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert payload["components"] == [{"strands": [1, 2], "framing": -4}]
    assert payload["linking"] == [[0]]


def test_readme_python_blocks_run():
    root = Path(__file__).resolve().parent.parent
    blocks = re.findall(r"^```python\n(.*?)^```$", (root / "README.md").read_text(),
                        re.MULTILINE | re.DOTALL)
    assert blocks
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    for block in blocks:
        proc = subprocess.run([sys.executable, "-c", block], capture_output=True, text=True,
                              env=env)
        assert proc.returncode == 0, (block, proc.stderr)


def test_hilden_verify_documented_example():
    proc = run_cli("hilden-verify", "--suite", "hilden_1", "--n", "3")
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert payload and all(r["holds"] for r in payload)
    assert all(not r["skipped"] for r in payload)
    assert {"relation_id", "holds", "skipped"} <= set(payload[0])


def test_hilden_verify_without_relations_exits_two():
    for suite, n in (("hilden_1", "1"), ("hilden_1", "0"), ("framed_hilden", "0")):
        proc = run_cli("hilden-verify", "--suite", suite, "--n", n)
        assert proc.returncode == 2
        assert "no relations" in json.loads(proc.stdout)["error"]["message"]


def test_eq_documented_example():
    proc = run_cli("eq", "--n", "3", "s1 s2 s1", "s2 s1 s2")
    assert proc.returncode == 0
    assert json.loads(proc.stdout) == {"equal": True}


def test_eq_unequal_exits_one():
    proc = run_cli("eq", "--n", "3", "s1", "s2")
    assert proc.returncode == 1
    assert json.loads(proc.stdout) == {"equal": False}


def test_eq_cost_follows_the_unshared_middle():
    # the shared 200000-crossing ends cancel; normalising them takes >10 s
    frame = "s2^-200000 {} s2^200000"
    proc = run_cli("eq", "--n", "4", frame.format("s1 s3"), frame.format("s3 s1"), timeout=10)
    assert proc.returncode == 0
    assert json.loads(proc.stdout) == {"equal": True}
    proc = run_cli("eq", "--n", "4", frame.format("s1 s3"), frame.format("s1 s3^-1"), timeout=10)
    assert proc.returncode == 1
    assert json.loads(proc.stdout) == {"equal": False}


def test_parse_error_exits_two():
    proc = run_cli("closure", "--n", "3", "s5")
    assert proc.returncode == 2
    payload = json.loads(proc.stdout)
    assert "error" in payload and payload["error"]["offset"] == 0


@pytest.mark.parametrize("word, message, offset", [
    ("s1^" + "7" * 5000, "exponent has too many digits", 3),
    ("s" + "1" * 5000, "index has too many digits", 1),
])
def test_digit_runs_past_the_int_limit_are_parse_errors(word, message, offset):
    # int() refuses more than sys.get_int_max_str_digits() (4300) digits
    proc = run_cli("nf", "--n", "3", word, timeout=10)
    assert proc.returncode == 2
    assert json.loads(proc.stdout) == {
        "error": {"message": f"{message} (at offset {offset})", "offset": offset}}


def test_usage_error_exits_two():
    proc = run_cli("closure")
    assert proc.returncode == 2


def test_nf_command():
    proc = run_cli("nf", "--n", "2", "s1^-1 t1 s1^2")
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert payload == {"n": 2, "framings": [0, 1], "beta": "s1"}


def test_plat_command():
    proc = run_cli("plat", "--n", "4", "t1 t2^-1")
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert len(payload["components"]) == 2
    assert all(c["framing"] == 0 for c in payload["components"])


def test_move_command():
    proc = run_cli("move", "--n", "1", "--kind", "RM", "--sign", "1", "")
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert payload["n"] == 2 and payload["framings"] == [-1, 0] and payload["beta"] == "s1"


@pytest.mark.parametrize("args, message", [
    (["--kind", "bogus"], "unknown move kind 'bogus'"),
    (["--kind", "Conjugation"], "Conjugation moves need 1 factor, got 0"),
    (["--kind", "TauConjugation", "--index", "3"], "twist index 3 out of range for n=2"),
    (["--kind", "L_over", "--split", "5"], "split 5 out of range for a word of 1 letters"),
    (["--kind", "RM", "--index", "2"], "RM moves do not use index"),
])
def test_move_refusals_exit_two(args, message):
    proc = run_cli("move", "--n", "2", *args, "s1")
    assert proc.returncode == 2
    assert json.loads(proc.stdout) == {"error": {"message": message}}


@pytest.mark.parametrize("args, stdout", [
    (["--n", "2", "--kind", "FramedStabilization", "--sign", "1", "s1^3"],
     '{"beta": "s1^3 s2", "framings": [-1, 0, 0, 0], '
     '"kind": "FramedStabilization", "n": 4}\n'),
    (["--n", "4", "--kind", "FramedStabilization", "--sign", "-1", "t1 s2"],
     '{"beta": "s2 s4^-1", "framings": [1, 0, 0, 1, 0, 0], '
     '"kind": "FramedStabilization", "n": 6}\n'),
    (["--n", "2", "--kind", "ClassicalStabilization", "--sign", "1", "s1^3"],
     '{"beta": "s1^3 s2", "framings": [0, 0, 0, 0], '
     '"kind": "ClassicalStabilization", "n": 4}\n'),
    (["--n", "4", "--kind", "ClassicalStabilization", "--sign", "-1", "t1 s2"],
     '{"beta": "s2 s4^-1", "framings": [1, 0, 0, 0, 0, 0], '
     '"kind": "ClassicalStabilization", "n": 6}\n'),
])
def test_plat_stabilization_moves(args, stdout):
    proc = run_cli("move", *args)
    assert proc.returncode == 0
    assert proc.stdout == stdout


@pytest.mark.parametrize("args, message", [
    (["--n", "3", "--kind", "FramedStabilization", "s1"],
     "FramedStabilization needs an even ribbon count, got 3"),
    (["--n", "3", "--kind", "ClassicalStabilization", "--sign", "-1", "s1"],
     "ClassicalStabilization needs an even ribbon count, got 3"),
    (["--n", "4", "--kind", "DoubleCoset", "s2"], "DoubleCoset moves need 2 factors, got 0"),
    # a factor name refused as a field is: the kind does not use it
    (["--n", "4", "--kind", "DoubleCoset", "--conjugator", "s2", "s2"],
     "DoubleCoset moves do not use conjugator"),
    (["--n", "2", "--kind", "RM", "--conjugator", "s1", "s1"], "RM moves do not use conjugator"),
    (["--n", "3", "--kind", "L_over", "--index", "5", "s1"],
     "L-move position 5 out of range for n=3"),
])
def test_plat_move_refusals_exit_two(args, message):
    proc = run_cli("move", *args)
    assert proc.returncode == 2
    assert json.loads(proc.stdout) == {"error": {"message": message}}


@pytest.mark.parametrize("command, matrix", [("closure", "linking"), ("plat", "abs_linking")])
def test_matrix_commands_cap_the_strand_count(command, matrix):
    assert MAX_MATRIX_STRANDS == 1024
    proc = run_cli(command, "--n", "1024", "s1", timeout=10)
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert len(payload[matrix]) == len(payload["components"]) == (1023 if command == "closure" else 512)
    for n in ("1025", "1000000"):
        proc = run_cli(command, "--n", n, "s1", timeout=10)
        assert proc.returncode == 2 and proc.stderr == ""
        message = f"{command} prints an n x n matrix, so --n is at most 1024, got {n}"
        assert json.loads(proc.stdout) == {"error": {"message": message}}


UNEQUAL = {"equal": False}  # an answer, given with exit 1


@pytest.mark.parametrize("args, error", [
    (("nf", "--n", "1024", "s1"), None),
    (("eq", "--n", "1024", "s1 s1023", "s1023 s1"), None),
    # Garside refuses more than 2000 unit crossings before expanding them,
    # and stops left-weighting past its work budget
    (("eq", "--n", "3", "s2^-1998 s1 s2", "s1 s2 s1^-1998"), None),
    (("eq", "--n", "3", "s2^-1999 s1 s2", "s1 s2 s1^-1999"),
     "Garside normal form takes at most 2000 unit crossings, got 2001"),
    (("eq", "--n", "4", "s2^-2000 s1 s3^-1 s2^2000", "s1"),
     "Garside normal form takes at most 2000 unit crossings, got 4002"),
    (("eq", "--n", "4", "s1^100000000 s3", "s3 s1^100000000"),
     "Garside normal form takes at most 2000 unit crossings, got 100000001"),
    (("eq", "--n", "256", "s1^-1 s2 s1^-1", "s2^-1 s1 s2^-1"), UNEQUAL),
    (("move", "--n", "1024", "--kind", "M", "s1"), None),
    (("fuzz", "--n-min", "1024", "--n-max", "1024", "--trials", "3", "--len-max", "0",
      "--moves", "RM=1"), None),
    # twin-heavy: ~1022 unlinked components tied beside one linked pair
    (("closure", "--n", "1024", "s1^2"), None),
    (("plat", "--n", "1024", "s2^2"), None),
    (("fuzz", "--n-min", "1024", "--n-max", "1024", "--trials", "3"), None),
    # huge exponents cost one step per syllable
    (("nf", "--n", "4", "s1^100000000"), None),
    (("closure", "--n", "4", "s1^100000000"), None),
    (("plat", "--n", "4", "s1^100000000"), None),
    (("move", "--n", "4", "--kind", "RL_over", "--split", "1", "s1^100000000"), None),
    # a move weight costs nothing: no list holds a kind weight times
    (("fuzz", "--trials", "20", "--moves", "RM=1000000000,M=1"), None),
    (("fuzz", "--trials", "3", "--moves", "RM=1,RM=2"), "move kind 'RM' is listed twice"),
    # a trial's cost grows with its word length, which --len-max caps
    (("fuzz", "--trials", "3", "--len-min", "100000", "--len-max", "100000"), None),
    (("fuzz", "--trials", "3", "--len-max", "100001"),
     "fuzz works on words of at most 100000 letters, so --len-max is at most 100000, "
     "got 100001"),
    (("fuzz", "--trials", "3", "--len-max", "1000000000"),
     "fuzz works on words of at most 100000 letters, so --len-max is at most 100000, "
     "got 1000000000"),
    # so does a run's cost with --trials
    (("fuzz", "--trials", "20000"), None),
    (("fuzz", "--trials", "1000000000"),
     "fuzz runs at most 20000 trials, so --trials is at most 20000, got 1000000000"),
    # a negative length would make every trial pass on the empty word
    (("fuzz", "--trials", "3", "--len-min", "-5", "--len-max", "-1", "--moves", "RM=1"),
     "bad length range (-5, -1)"),
    # a strand count below 1 is refused as such, not blamed on the word
    (("nf", "--n", "-3", "s1"), "strand count must be >= 1, got -3"),
    (("eq", "--n", "0", "s1", "s1"), "strand count must be >= 1, got 0"),
    (("closure", "--n", "0", "s1"), "strand count must be >= 1, got 0"),
    (("plat", "--n", "-1", "s1"), "strand count must be >= 1, got -1"),
    (("move", "--n", "0", "--kind", "RM", "s1"), "strand count must be >= 1, got 0"),
    (("hilden-verify", "--suite", "hilden_1", "--n", "0"),
     "suite 'hilden_1' has no relations at n=0"),
    # the relation count grows with n, which --n caps
    (("hilden-verify", "--suite", "pure_framed", "--n", "10"), None),
    (("hilden-verify", "--suite", "framed_hilden", "--n", "11"),
     "hilden-verify checks more relations as n grows, so --n is at most 10, got 11"),
    (("fuzz", "--n-min", "0", "--n-max", "0", "--trials", "1"), "bad strand range (0, 0)"),
], ids=["nf", "eq", "eq-most-crossings", "eq-crossings-over", "eq-exponent-2000",
        "eq-huge-exponent", "eq-wide-negative-crossings", "move", "fuzz", "closure-twins", "plat-twins",
        "fuzz-default-mix", "nf-huge-exponent", "closure-huge-exponent",
        "plat-huge-exponent", "move-huge-exponent", "fuzz-huge-weight", "fuzz-kind-twice",
        "fuzz-longest-words", "fuzz-len-max-over", "fuzz-len-max-huge", "fuzz-most-trials",
        "fuzz-trials-huge", "fuzz-negative-lengths", "nf-n-negative", "eq-n-zero",
        "closure-n-zero", "plat-n-negative", "move-n-zero", "hilden-verify-n-zero",
        "hilden-verify-fastest-suite", "hilden-verify-n-over", "fuzz-n-zero"])
def test_every_command_answers_just_under_the_strand_cap(args, error):
    proc = run_cli(*args, timeout=10)
    if error is None:
        assert proc.returncode == 0, proc.stdout
        assert "error" not in json.loads(proc.stdout)
    elif error is UNEQUAL:
        assert proc.returncode == 1 and json.loads(proc.stdout) == UNEQUAL
    else:
        assert proc.returncode == 2 and proc.stderr == ""
        assert json.loads(proc.stdout) == {"error": {"message": error}}


STRANDS = "works on at most 1024 strands"


@pytest.mark.parametrize("command, args, flag, cap, why", [
    ("nf", ("s1",), "--n", 1024, STRANDS),
    ("eq", ("s1", "s1"), "--n", 1024, STRANDS),
    ("move", ("--kind", "RM", "s1"), "--n", 1024, STRANDS),
    ("hilden-verify", ("--suite", "hilden_1"), "--n", 10, "checks more relations as n grows"),
    ("fuzz", ("--trials", "1"), "--n-max", 1024, STRANDS),
], ids=["nf", "eq", "move", "hilden-verify", "fuzz"])
def test_every_command_caps_the_strand_count(command, args, flag, cap, why):
    for n in (cap + 1, 10 ** 11, 10 ** 20):
        proc = run_cli(command, flag, str(n), *args, timeout=10)
        assert proc.returncode == 2 and proc.stderr == ""
        message = f"{command} {why}, so {flag} is at most {cap}, got {n}"
        assert json.loads(proc.stdout) == {"error": {"message": message}}


DIGITS = "7" * 5000


@pytest.mark.parametrize("args, dictionary", [
    (("nf", "--n", DIGITS, "s1"), None),
    (("fuzz", "--trials", "1", "--moves", "RM=" + DIGITS), None),
    (("hilden-verify", "--suite", "pure_framed", "--n", "2"), {f"x_{{1,{DIGITS}}}": ""}),
], ids=["n", "move-weight", "dict-pair-index"])
def test_integers_past_the_int_limit_exit_two_without_echo(tmp_path, args, dictionary):
    # int() refuses more than sys.get_int_max_str_digits() (4300) digits
    if dictionary is not None:
        path = tmp_path / "gens.json"
        path.write_text(json.dumps(dictionary))
        args += ("--dict", str(path))
    proc = run_cli(*args, timeout=10)
    assert proc.returncode == 2
    assert len(proc.stdout.encode()) < 300 and DIGITS[:100] not in proc.stderr
    assert "integer has too many digits (5000)" in json.loads(proc.stdout)["error"]["message"]


def test_transfer_command(tmp_path):
    data = {"permutation": [2, 1], "delta": [2, 0], "kappa": [1, 1]}
    path = tmp_path / "transfer.json"
    path.write_text(json.dumps(data))
    proc = run_cli("transfer", "--input", str(path))
    assert proc.returncode == 0
    assert json.loads(proc.stdout) == {"solvable": True, "r": [0, -1]}
    proc = run_cli("transfer", stdin_text=json.dumps({"permutation": [2, 1], "delta": [2, 0], "kappa": [0, 0]}))
    assert proc.returncode == 0
    assert json.loads(proc.stdout) == {"solvable": False, "r": None}


@pytest.mark.parametrize("data", [
    {"permutation": [1], "delta": 5, "kappa": [0]},
    [1],
    {"permutation": [2.0, 1], "delta": [0, 0], "kappa": [0, 0]},
    {"permutation": [2, 1], "delta": [0.5, 0], "kappa": [0, 0.5]},
    {"permutation": [2, 1], "delta": [True, 0], "kappa": [0, 1]},
], ids=["scalar-delta", "top-level-list", "float-permutation", "float-vectors", "bool-entry"])
def test_transfer_malformed_input_exits_two(data):
    proc = run_cli("transfer", stdin_text=json.dumps(data))
    assert proc.returncode == 2, proc.stderr
    assert "integer lists" in json.loads(proc.stdout)["error"]["message"]


def test_fuzz_determinism_and_seed_env():
    args = ("fuzz", "--seed", "5", "--trials", "40")
    first = run_cli(*args)
    second = run_cli(*args)
    assert first.returncode == 0
    assert first.stdout == second.stdout  # byte identical
    # FBK_SEED is not read: --seed is the one way to set the seed
    with_env = run_cli(*args, env_extra={"FBK_SEED": "123"})
    assert with_env.returncode == 0 and with_env.stdout == first.stdout


def test_fuzz_move_selection():
    proc = run_cli("fuzz", "--trials", "20", "--moves", "RM=2,Conjugation=1")
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert set(payload["per_kind"]) <= {"RM", "Conjugation"}


def test_fuzz_plat_moves_without_room_exit_two():
    # the default mix has plat moves, which need an even strand count >= 4
    proc = run_cli("fuzz", "--trials", "5", "--n-max", "1")
    assert proc.returncode == 2
    assert "even strand count" in json.loads(proc.stdout)["error"]["message"]
    allowed = run_cli("fuzz", "--trials", "5", "--n-max", "1", "--moves", "RM=1")
    assert allowed.returncode == 0


@pytest.mark.parametrize("moves, message", [
    ("", "unknown move kind ''"),
    ("RM=", "expected a signed decimal integer, got ''"),
    ("RM=1,", "unknown move kind ''"),
], ids=["empty-mix", "empty-weight", "empty-chunk"])
def test_fuzz_empty_moves_exit_two(moves, message):
    # an empty --moves is not the default mix, and an empty weight is not 1
    proc = run_cli("fuzz", "--trials", "3", "--moves", moves)
    assert proc.returncode == 2 and proc.stderr == ""
    assert json.loads(proc.stdout) == {"error": {"message": message}}


def test_fuzz_kind_without_weight_weighs_one():
    proc = run_cli("fuzz", "--trials", "3", "--moves", "RM")
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["config"]["move_mix"] == {"RM": 1}


def test_hilden_verify_with_user_dictionary(tmp_path):
    words = {"p_{1,2}": "", "x_{1,2}": "", "y_{1,2}": ""}
    path = tmp_path / "gens.json"
    path.write_text(json.dumps(words))
    proc = run_cli("hilden-verify", "--suite", "pure_framed", "--n", "2", "--dict", str(path))
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert all(not r["skipped"] for r in payload)


@pytest.mark.parametrize("name, count", [("x_{1}", 1), ("x_{1,2,3}", 3)])
def test_hilden_verify_pair_names_need_two_indices(tmp_path, name, count):
    path = tmp_path / "gens.json"
    path.write_text(json.dumps({name: "s1"}))
    proc = run_cli("hilden-verify", "--suite", "pure_framed", "--n", "2", "--dict", str(path))
    assert proc.returncode == 2 and proc.stderr == ""
    message = f"generator name {name!r} needs two indices, got {count}"
    assert json.loads(proc.stdout) == {"error": {"message": message}}


@pytest.mark.parametrize("raw", [[1], {"x": 5}], ids=["list", "non-string-word"])
def test_hilden_verify_malformed_dictionary_exits_two(tmp_path, raw):
    path = tmp_path / "gens.json"
    path.write_text(json.dumps(raw))
    proc = run_cli("hilden-verify", "--suite", "pure_framed", "--n", "2", "--dict", str(path))
    assert proc.returncode == 2, proc.stderr
    assert "--dict" in json.loads(proc.stdout)["error"]["message"]


def test_pretty_flag():
    proc = run_cli("--pretty", "eq", "--n", "2", "s1", "s1")
    assert proc.returncode == 0
    assert proc.stdout.startswith("{\n")


@pytest.mark.parametrize("args", [
    ("nf", "--n", "٣", "s2"),
    ("nf", "--n", " 3", "s2"),
    ("nf", "--n", "1_0", "s2"),
    ("fuzz", "--trials", "٣", "--moves", "RM=1"),
    ("fuzz", "--trials", "3", "--moves", "RM=٢"),
], ids=["arabic-n", "space-n", "underscore-n", "arabic-trials", "arabic-weight"])
def test_integers_take_ascii_digits_only(args):
    proc = run_cli(*args)
    assert proc.returncode == 2, proc.stdout
    assert "error" in json.loads(proc.stdout)


def test_hilden_verify_colliding_dictionary_names_exit_two(tmp_path):
    path = tmp_path / "gens.json"
    path.write_text(json.dumps({"theta_1": "t1 s1", "θ_1": "s1"}))
    proc = run_cli("hilden-verify", "--suite", "framed_hilden", "--n", "2", "--dict", str(path))
    assert proc.returncode == 2, proc.stdout
    assert "theta_1" in json.loads(proc.stdout)["error"]["message"]


# Byte pins of the outputs no golden digest covers: the usage errors, --pretty,
# transfer, a fuzz report and hilden-verify --dict.

def _pretty(payload):
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _required(*names):
    return ('{"error": {"message": "the following arguments are required: %s"}}\n'
            % ", ".join(names))


@pytest.mark.parametrize("args, stdout", [
    ((), _required("command")),
    (("nf",), _required("--n", "word")),
    (("eq",), _required("--n", "word1", "word2")),
    (("closure",), _required("--n", "word")),
    (("plat",), _required("--n", "word")),
    (("move",), _required("--n", "--kind", "word")),
    (("hilden-verify",), _required("--suite", "--n")),
    # a usage error is printed before --pretty is read
    (("--pretty", "nf"), _required("--n", "word")),
], ids=["fbk", "nf", "eq", "closure", "plat", "move", "hilden-verify", "pretty-nf"])
def test_usage_errors_print_the_missing_arguments(args, stdout):
    proc = run_cli(*args, stdin_text="")
    assert proc.returncode == 2
    assert proc.stdout == stdout
    # argparse's usage line goes to stderr
    assert proc.stderr.startswith(" ".join(["usage: fbk"] + [a for a in args if a != "--pretty"]))


FUZZ_SEED_3 = (
    '{"config": {"move_mix": {"Conjugation": 1, "DoubleCoset": 1, "FramedStabilization": 1, '
    '"IntRL_over": 1, "IntRL_under": 1, "RL_over": 1, "RL_under": 1, "RM": 1, '
    '"TauConjugation": 1}, "n_range": [1, 5], "seed": 3, "trials": 30, '
    '"word_length_range": [0, 12]}, "failed": 0, "first_failure": null, "passed": 30, '
    '"per_kind": {"Conjugation": {"passed": 2, "trials": 2}, '
    '"DoubleCoset": {"passed": 4, "trials": 4}, '
    '"FramedStabilization": {"passed": 4, "trials": 4}, '
    '"IntRL_over": {"passed": 2, "trials": 2}, "IntRL_under": {"passed": 2, "trials": 2}, '
    '"RL_over": {"passed": 5, "trials": 5}, "RL_under": {"passed": 1, "trials": 1}, '
    '"RM": {"passed": 6, "trials": 6}, "TauConjugation": {"passed": 4, "trials": 4}}, '
    '"trials": 30}\n'
)
MISPRINT = "index corrected from a misprint; printed form fails in S_2n"
H1_N2 = [{"holds": True, "note": MISPRINT if rid == "H1.PT-shift[i=1]" else None,
          "relation_id": rid, "skipped": False}
         for rid in ("H1.PTSP[i=1]", "H1.ST-swap[i=1,j=1]", "H1.ST-swap[i=1,j=2]",
                     "H1.PT-shift[i=1]", "H1.TT-comm[i=1,j=2]")]
TRANSFER_INPUT = '{"permutation": [2, 1], "delta": [2, 0], "kappa": [1, 1]}'


@pytest.mark.parametrize("args, stdin, code, stdout", [
    (("--pretty", "nf", "--n", "2", "s1^-1 t1 s1^2"), None, 0,
     _pretty({"beta": "s1", "framings": [0, 1], "n": 2})),
    (("--pretty", "eq", "--n", "3", "s1", "s2"), None, 1, _pretty({"equal": False})),
    (("--pretty", "closure", "--n", "2", "t1^-1 s1^-3"), None, 0,
     _pretty({"components": [{"framing": -4, "strands": [1, 2]}], "linking": [[0]]})),
    (("--pretty", "plat", "--n", "2", "t1 s1^3"), None, 0,
     _pretty({"abs_linking": [[0]], "components": [
         {"framing": -2, "strands": [1, 2], "traversal": [[1, "down"], [2, "up"]]}]})),
    (("--pretty", "move", "--n", "1", "--kind", "RM", "--sign", "1", ""), None, 0,
     _pretty({"beta": "s1", "framings": [-1, 0], "kind": "RM", "n": 2})),
    (("--pretty", "hilden-verify", "--suite", "hilden_1", "--n", "2"), None, 0, _pretty(H1_N2)),
    (("--pretty", "transfer"), TRANSFER_INPUT, 0, _pretty({"r": [0, -1], "solvable": True})),
    (("--pretty", "fuzz", "--trials", "2", "--moves", "RM=1"), None, 0, _pretty({
        "config": {"move_mix": {"RM": 1}, "n_range": [1, 5], "seed": 0, "trials": 2,
                   "word_length_range": [0, 12]},
        "failed": 0, "first_failure": None, "passed": 2,
        "per_kind": {"RM": {"passed": 2, "trials": 2}}, "trials": 2})),
    (("--pretty", "nf", "--n", "2", "s3"), None, 2,
     _pretty({"error": {"message": "s3 out of range for n=2 (at offset 0)", "offset": 0}})),
    (("--pretty", "nf", "--n", "0", "s1"), None, 2,
     _pretty({"error": {"message": "strand count must be >= 1, got 0"}})),
    (("transfer",), TRANSFER_INPUT, 0, '{"r": [0, -1], "solvable": true}\n'),
    (("fuzz", "--trials", "30", "--seed", "3"), None, 0, FUZZ_SEED_3),
], ids=["pretty-nf", "pretty-eq", "pretty-closure", "pretty-plat", "pretty-move",
        "pretty-hilden-verify", "pretty-transfer", "pretty-fuzz", "pretty-parse-error",
        "pretty-usage-error", "transfer-stdin", "fuzz-seed-3"])
def test_outputs_are_pinned_byte_for_byte(args, stdin, code, stdout):
    proc = run_cli(*args, stdin_text=stdin)
    assert proc.returncode == code and proc.stderr == ""
    assert proc.stdout == stdout


def test_transfer_reads_a_file_as_it_reads_stdin(tmp_path):
    path = tmp_path / "transfer.json"
    path.write_text(TRANSFER_INPUT)
    proc = run_cli("transfer", "--input", str(path))
    assert proc.returncode == 0 and proc.stderr == ""
    assert proc.stdout == '{"r": [0, -1], "solvable": true}\n'


def test_hilden_verify_dictionary_output_is_pinned(tmp_path):
    # theta_1 = s1^2 drops the compensating twist, so 5 relations fail
    path = tmp_path / "gens.json"
    path.write_text(json.dumps({"theta_1": "s1 s1"}))
    proc = run_cli("hilden-verify", "--suite", "framed_hilden", "--n", "2", "--dict", str(path))
    assert proc.returncode == 1 and proc.stderr == ""
    rows = [("FH.PTSP[i=1]", False), ("FH.ST-swap[i=1,j=1]", False),
            ("FH.ST-swap[i=1,j=2]", False), ("FH.PT-shift[i=1]", False),
            ("FH.TT-comm[i=1,j=2]", True), ("FH.p-omega[j=1,i=1]", True),
            ("FH.p-omega[j=1,i=2]", True), ("FH.s-omega[j=1,i=1]", True),
            ("FH.s-omega[j=1,i=2]", True), ("FH.theta-omega-inv[j=1]", False),
            ("FH.theta-omega-comm[j=1,i=2]", True), ("FH.theta-omega-comm[j=2,i=1]", True),
            ("FH.theta-omega-inv[j=2]", True), ("FH.omega-omega[i=1,j=2]", True)]
    assert proc.stdout == json.dumps([
        {"holds": holds, "note": MISPRINT if rid == "FH.PT-shift[i=1]" else None,
         "relation_id": rid, "skipped": False}
        for rid, holds in rows]) + "\n"


@pytest.mark.parametrize("words, code, message", [
    # a misspelled name used to be ignored, so every relation held on the built-ins
    ({"thta_1": "s1 s1"}, 2,
     "no framed_hilden relation at n=2 reads --dict 'thta_1'"),
    ({"theta_1": "s1 s1", "omega_3": "", "θ_2": "t3 s3"}, 2,
     "no framed_hilden relation at n=2 reads --dict 'omega_3'"),
    ({"thta_1": "", "x_{1,2}": ""}, 2,
     "no framed_hilden relation at n=2 reads --dict 'thta_1', 'x_{1,2}'"),
    ({"theta_1": "s1 s1"}, 1, None),
    ({"θ_2": "t3 s3"}, 0, None),
], ids=["misspelled", "index-out-of-range", "two-unread", "read-fails", "greek-alias"])
def test_hilden_verify_refuses_dictionary_names_no_relation_reads(tmp_path, words, code, message):
    path = tmp_path / "gens.json"
    path.write_text(json.dumps(words))
    proc = run_cli("hilden-verify", "--suite", "framed_hilden", "--n", "2", "--dict", str(path))
    assert proc.returncode == code and proc.stderr == ""
    if message is not None:
        assert json.loads(proc.stdout) == {"error": {"message": message}}


@pytest.mark.parametrize("args", [
    ("hilden-verify", "--suite", "framed_hilden", "--n", "2", "--dict", ""),
    ("transfer", "--input", ""),
], ids=["dict", "input"])
def test_an_empty_path_exits_two_rather_than_pass_or_read_stdin(args):
    # an empty --dict used to check the built-in words alone and exit 0, and
    # an empty --input read the stdin below
    proc = run_cli(*args, stdin_text=TRANSFER_INPUT)
    assert proc.returncode == 2 and proc.stderr == ""
    message = str(FileNotFoundError(2, os.strerror(2), ""))
    assert json.loads(proc.stdout) == {"error": {"message": message}}
