"""Byte-level pins of fuzz reports and CLI output.

Refactors must keep the same answers: the same normal forms, signatures,
CLI JSON and fuzz reports. Each case below is hashed (sha256 of the JSON
report, or of stdout plus the exit code) and compared with the digest
recorded before the last refactor. Run this file directly to print the
current digests:

    PYTHONPATH=src python tests/test_golden_outputs.py
"""

import contextlib
import hashlib
import io
import json

import pytest

from framedbraids.cli import main
from framedbraids.fuzz import ALL_KINDS, FuzzConfig, run_fuzz

FUZZ_TRIALS = 100
ALL_KINDS_MIX = tuple((kind, 1) for kind in ALL_KINDS)

CLI_CASES = {
    "nf-documented": ("nf", "--n", "2", "s1^-1 t1 s1^2"),
    "nf-mixed": ("nf", "--n", "4", "t1^2 s1 s2^-1 t3 s1^3 s3^-2 t4^-1"),
    "nf-parse-error": ("nf", "--n", "2", "s3"),
    "eq-braid-relation": ("eq", "--n", "3", "s1 s2 s1", "s2 s1 s2"),
    "eq-unequal": ("eq", "--n", "3", "s1 s2", "s2 s1"),
    "eq-twist-slide": ("eq", "--n", "2", "t1 s1", "s1 t2"),
    "closure-trefoil": ("closure", "--n", "2", "t1^-1 s1^-3"),
    "closure-trefoil-int": ("closure", "--integer-framing", "--n", "2", "t1^-1 s1^-3"),
    "closure-mixed": ("closure", "--n", "4", "t2 s1^3 s2^-1 s3^2 s1^-1 t4^-2"),
    "closure-mixed-int": ("closure", "--integer-framing", "--n", "4",
                          "t2 s1^3 s2^-1 s3^2 s1^-1 t4^-2"),
    "closure-chain": ("closure", "--n", "5", "s1^2 s2^2 s3^2 s4^2"),
    "closure-chain-int": ("closure", "--integer-framing", "--n", "5", "s1^2 s2^-2 s3^2 s4^-4"),
    "closure-torus": ("closure", "--n", "3", "s1 s2 s1 s2 s1 s2 t3"),
    "closure-torus-int": ("closure", "--integer-framing", "--n", "3", "s1 s2 s1 s2 s1 s2 t3"),
    "closure-unlink": ("closure", "--n", "3", "t1 t3^-2"),
    "closure-bad-n": ("closure", "--n", "0", ""),
    "plat-documented": ("plat", "--n", "4", "t1 t2^-1"),
    "plat-one-cap": ("plat", "--n", "2", "s1^3"),
    "plat-mixed": ("plat", "--n", "4", "s2 s1 s3^-1 s2^-1 t1 s2^3"),
    "plat-six": ("plat", "--n", "6", "s2^2 s4^-3 s3 t5^2 s1^-1 s5^4"),
    "plat-odd": ("plat", "--n", "3", "s1"),
    "move-M+": ("move", "--n", "3", "--kind", "M", "--sign", "1", "t1 s1 s2^-1"),
    "move-M-": ("move", "--n", "3", "--kind", "M", "--sign", "-1", "t1 s1 s2^-1"),
    "move-RM+": ("move", "--n", "1", "--kind", "RM", "--sign", "1", ""),
    "move-RM-": ("move", "--n", "3", "--kind", "RM", "--sign", "-1", "t2^3 s2 s1^2"),
    "move-RL_over": ("move", "--n", "3", "--kind", "RL_over", "--split", "2",
                     "--index", "2", "--sign", "1", "t1 s1 s2^-1 s1"),
    "move-RL_under": ("move", "--n", "3", "--kind", "RL_under", "--split", "1",
                      "--index", "1", "--sign", "-1", "t1 s1 s2^-1 s1"),
    "move-L_over": ("move", "--n", "3", "--kind", "L_over", "--split", "3",
                    "--index", "3", "--sign", "-1", "s1 s2^-1 s1"),
    "move-IntRL_under": ("move", "--n", "3", "--kind", "IntRL_under", "--split", "2",
                         "--index", "2", "--sign", "1", "--k", "-1", "t3 s1 s2^2"),
    "move-TauConjugation": ("move", "--n", "3", "--kind", "TauConjugation",
                            "--index", "2", "--sign", "-1", "s1 s2^-1"),
    "move-Conjugation": ("move", "--n", "3", "--kind", "Conjugation",
                         "--conjugator", "t1 s2", "s1^2 s2^-1"),
}
for _suite in ("hilden_1", "framed_hilden", "pure_framed"):
    for _half in (2, 3):
        CLI_CASES[f"hilden-verify-{_suite}-{_half}"] = (
            "hilden-verify", "--suite", _suite, "--n", str(_half))


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def fuzz_digest(mix_name: str, seed: int) -> str:
    if mix_name == "default":
        config = FuzzConfig(seed=seed, trials=FUZZ_TRIALS)
    else:
        config = FuzzConfig(seed=seed, trials=FUZZ_TRIALS, n_range=(1, 7),
                            move_mix=ALL_KINDS_MIX)
    return _sha(json.dumps(run_fuzz(config), sort_keys=True))


def cli_digest(argv: tuple[str, ...]) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(list(argv))
    return _sha(f"{out.getvalue()}exit={code}")


FUZZ_GOLDEN = {
    'default': {
        0: 'afb7584eb856c7ec7a292f4faaa2da86e10ab7edd1b0d6c906e3ad041cb8a333',
        1: '8e297b8e5d10f4fbcad8cade588fd2096fa023bc6493cae619120ab7036d735d',
        2: 'd4d094a2720b990cf20c2dcb721edf435b6530ab43c4f0e9646c23ad865f37b1',
        3: '09d4ebdd4af726a470e5f81a01b9b9b91b759e1dbc50c7363b983c33c16b010e',
        4: '3c2e8537352611a256495020e8a685988789f8cd77f165393089eeae4aad8e5a',
        5: 'd009ae70ec0e141ccf3f5a93f14818fcee066761db1a43378c8e5fc30a09c404',
        6: 'd1e1fe10d6ffc9b42e6296eea50c038c03521ed36c5f5f605ef7d29f1edbb2a6',
        7: '713162c337b24d27b290a4450bc62159b0447145eb884a5f35354c0b2c93332f',
        8: 'd1f7dcf7e8da716d717ced8e456e420b0e4db22c7707acda086cffdfe4705ef4',
        9: 'e295df30e7cc8c00a0935a15073c823a6e480137b0bf99aadd88448bc20b413b',
    },
    'all_kinds': {
        0: '7ab110110ddf90f2cef19478a2aab6e4fdc34eac88409775ccc808323c7b4510',
        1: '5a36a294b0606a0f0a7ca57b501cf027208a04c0a44d65743e9a5f2227322f8e',
        2: '2c59c098b20d3811e9ddb0a5af9eab84aca3084060ca85834a870c2b45c22ce6',
        3: '50ecc38e7f20dca0fdfb8cf7410a456a38873e24fb0236596082b3d446d63386',
        4: '18e3c5ebfc3f8609589899699c47d736f90a037110b22577d0a3ae98af1e454a',
        5: '306aecc3d8c44d42ab37f5c152c8f4cdbca525d7f1d6eaa9ccf5b9730e1184ba',
        6: 'aa740b2c8135ee5173c62f5d3fe32bff5a770678e6f1db142696f4acbf61b88d',
        7: 'e8319da3920ff3875c94a8fdb89d91ca1dc459100313a1e87f34c60aa88bf809',
        8: '32ed7da0b65f24081b942497d31bbf58abd4b770995c95a57cd2d8eca38f209b',
        9: '4b918083d69a4db4b24ac2dd25e8d5a5667216b9de50d23366933b1af9420917',
    },
}

CLI_GOLDEN = {
    'nf-documented': '301ee5af615896aa8f5ac41147d84575e2b3a4abac0a169c0609d7a097776180',
    'nf-mixed': '88c64fa7d2842992ec86971cbb195b7c8665aa25bafcccbe0a4724367b73285c',
    'nf-parse-error': 'bedde659f0945b0790c257f390ab3b5d4e22431934eada45590272f2d787ffc5',
    'eq-braid-relation': 'e4e42ee1779cf19988ca3d8b46ed35d4b3f2aa6a03ce23f725611e60b0e6b178',
    'eq-unequal': '4d193bef9e8519f7b879d3dbc6e9e8035d6cc188294ea6c5598efc83485f3691',
    'eq-twist-slide': 'e4e42ee1779cf19988ca3d8b46ed35d4b3f2aa6a03ce23f725611e60b0e6b178',
    'closure-trefoil': '4c7f482d5c7318cc9e409f735e9fbca259af666b6dcc84c5f8e35bca8bbaa5d9',
    'closure-trefoil-int': 'aa5442130615b49c338ea89fb3c5a27d6be3299b5190bf0fc1bb0613284d6316',
    'closure-mixed': 'c95c2d21b4d4d3df0243aee7fbdb94fcf5db97986a37e9268f61b89e46318dd4',
    'closure-mixed-int': 'edcbe8f5e7671e439d45abe7baa3a2df9c6a1984054188d8d4d7ce3cc41f9bc1',
    'closure-chain': '678e4269b4915ee333ae1189d6265ccc02048765b73d0a3179cbaa77ac58b443',
    'closure-chain-int': '229a4bb403c7e5521210a63b62a5c46710df86413a79f4d412e0e44c728907ef',
    'closure-torus': 'fff2b5152cd104dd0f9ddda873efde22a0d8f5431b111891ee2293504c86220d',
    'closure-torus-int': 'fff2b5152cd104dd0f9ddda873efde22a0d8f5431b111891ee2293504c86220d',
    'closure-unlink': 'ee4ac19e0c16cb5b36db6f13a0f795d65aa93624c86166cb6faefa9fb03abe76',
    'closure-bad-n': '6f748378ac7ea273eb2ef17d91ea9d55902c71617a4646789cc85beb2f70c037',
    'plat-documented': '4ccb5be4d53333cd21151ef486eaa2fbbc69c863db04fbed09ecdeacd6d8e6ec',
    'plat-one-cap': 'f8076df8994329bf9896350aeb1cbd0877a422a5cb8a54e695c9dac892770030',
    'plat-mixed': '0adbd07180011435e953e32915082c6a7dc1520901e40d1d44e65cf176197248',
    'plat-six': 'e01591e5b19e033cf347a856abcc4d3cd36d99f7d0ada2ee1eff4da0fc6f96e8',
    'plat-odd': '32e85ccc6a7b7a6cc4125317d21b5f60da470c00a0c768c10e97c4d1d6cb9145',
    'move-M+': 'f95fa370cc7dbbd1ecb0c5ccf2da082f6542d490694594f496b6af8a68985ebf',
    'move-M-': '40f885aca58c3818abf414a7b5a8f8e43b04ecf9fc852f3f2b6bb647576ea910',
    'move-RM+': '8ad8173e3f64ba7e399458a05e720501ce52a31217ccab79e488204d3da9b204',
    'move-RM-': 'c1a7ca379f9c773dccbe84dbce7f75e8e829e07f52673a77b3b00a90ea5e5886',
    'move-RL_over': '8a3132ac000f9ddb6942ffc4f17d1c1a1cc16a2302cdea8fb1568cbaf30d7f4b',
    'move-RL_under': 'fb94b051021c127e75516a85c2e9d9a21369439feb5854a4df4be3a6b09b8b9f',
    'move-L_over': '05128872e96cda42204dd27b43b7edd3408b28a0e142407c4d8aba7a5e06dc32',
    'move-IntRL_under': '0c7c9d7fe604bab4544b54c6f4718b724e002b5f29a47e9fac3bd93715f27310',
    'move-TauConjugation': '4bd89d0d6d7dbd2aaa4cca742ed7d385da00fec3bf602f75aede5cf0e80e3927',
    'move-Conjugation': 'b842add633499a8af60e3d93946350d71c261b882e3bc8744dcc25ca6ebb4c0f',
    'hilden-verify-hilden_1-2': '8adabaf5e4953bfb693fed4a99ad4fc0d328153f3cc1f7118323dd93f82fb2a0',
    'hilden-verify-hilden_1-3': 'd7fa4f1cdbb19f219d2aa8758715dbb633c94cd2fad839d453276e20ff68dac4',
    'hilden-verify-framed_hilden-2': '585c7999b570187ec65a96b2de310c0a84b1697d292649039510f198eed4b5d9',
    'hilden-verify-framed_hilden-3': '0f7ad64ca72cfb1ca5136f13a82d5568dea633840165f6816baecc180a43fcc8',
    'hilden-verify-pure_framed-2': '0076032d59f4eabac71bbaa8bd825e232442a7d8a64182a0abcfffa3c31f3de9',
    'hilden-verify-pure_framed-3': 'b2cb3a55dd8fe873b646a3528e3d53e6e6727dce2f5419e47c9c7ed91349f001',
}


@pytest.mark.parametrize("mix_name", ["default", "all_kinds"])
def test_fuzz_reports_unchanged(mix_name):
    got = {seed: fuzz_digest(mix_name, seed) for seed in range(10)}
    assert got == FUZZ_GOLDEN[mix_name]


def test_cli_outputs_unchanged():
    got = {name: cli_digest(argv) for name, argv in CLI_CASES.items()}
    changed = sorted(name for name in CLI_CASES if got[name] != CLI_GOLDEN.get(name))
    assert not changed


if __name__ == "__main__":
    print("FUZZ_GOLDEN = {")
    for mix in ("default", "all_kinds"):
        print(f"    {mix!r}: {{")
        for seed in range(10):
            print(f"        {seed}: {fuzz_digest(mix, seed)!r},")
        print("    },")
    print("}\n\nCLI_GOLDEN = {")
    for name, argv in CLI_CASES.items():
        print(f"    {name!r}: {cli_digest(argv)!r},")
    print("}")
