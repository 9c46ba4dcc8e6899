import json
import os
import subprocess
import sys

import pytest

from framedbraids.cli import MAX_MATRIX_STRANDS

CLI = [sys.executable, "-m", "framedbraids"]


def run_cli(*args, env_extra=None, stdin_text=None, timeout=None):
    env = dict(os.environ)
    env.pop("FBK_SEED", None)
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
    (["--n", "4", "--kind", "DoubleCoset", "--conjugator", "s2", "s2"],
     "DoubleCoset moves need 2 factors, got 1"),
    (["--n", "2", "--kind", "RM", "--conjugator", "s1", "s1"], "RM moves do not use factors"),
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
    via_env = run_cli("fuzz", "--seed", "123", "--trials", "40", env_extra={"FBK_SEED": "5"})
    assert via_env.stdout == first.stdout


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


def test_hilden_verify_with_user_dictionary(tmp_path):
    words = {"p_{1,2}": "", "x_{1,2}": "", "y_{1,2}": ""}
    path = tmp_path / "gens.json"
    path.write_text(json.dumps(words))
    proc = run_cli("hilden-verify", "--suite", "pure_framed", "--n", "2", "--dict", str(path))
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert all(not r["skipped"] for r in payload)


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


@pytest.mark.parametrize("args, env", [
    (("nf", "--n", "٣", "s2"), None),
    (("nf", "--n", " 3", "s2"), None),
    (("nf", "--n", "1_0", "s2"), None),
    (("fuzz", "--trials", "٣", "--moves", "RM=1"), None),
    (("fuzz", "--trials", "3", "--moves", "RM=٢"), None),
    (("fuzz", "--trials", "3", "--moves", "RM=1"), {"FBK_SEED": "٣"}),
    (("fuzz", "--trials", "3", "--moves", "RM=1"), {"FBK_SEED": " 3"}),
], ids=["arabic-n", "space-n", "underscore-n", "arabic-trials", "arabic-weight",
        "arabic-seed", "space-seed"])
def test_integers_take_ascii_digits_only(args, env):
    proc = run_cli(*args, env_extra=env)
    assert proc.returncode == 2, proc.stdout
    assert "error" in json.loads(proc.stdout)


def test_hilden_verify_colliding_dictionary_names_exit_two(tmp_path):
    path = tmp_path / "gens.json"
    path.write_text(json.dumps({"theta_1": "t1 s1", "θ_1": "s1"}))
    proc = run_cli("hilden-verify", "--suite", "framed_hilden", "--n", "2", "--dict", str(path))
    assert proc.returncode == 2, proc.stdout
    assert "theta_1" in json.loads(proc.stdout)["error"]["message"]
