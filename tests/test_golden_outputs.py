"""Byte-level pins of fuzz reports and trials, CLI output, moved elements,
the Hilden relation data and the relation reports.

Refactors must keep the same answers: the same normal forms, signatures,
CLI JSON, fuzz reports and relation suites. Each case below is hashed
(sha256 of the JSON report, of every trial's draws and verdict, of stdout
plus the exit code, of the reprs of the elements the moves and group
operations return, of a suite's relation instances plus its built-in
generator dictionary, or of every field of its relation reports) and
compared with the digest recorded before the last refactor. Run this file
directly to print the current digests:

    PYTHONPATH=src python tests/test_golden_outputs.py
"""

import contextlib
import hashlib
import io
import json

import random

import pytest

from framedbraids import fuzz
from framedbraids.cli import main
from framedbraids.framed import inverse, normalize
from framedbraids.fuzz import ALL_KINDS, FuzzConfig, run_fuzz
from framedbraids.hilden import GeneratorDictionary, suite_instances, verify_relation_suite
from framedbraids.moves import (FACTOR_NAMES, FIELDS_READ, PLAT_KINDS, MoveDescriptor,
                                apply_move, conjugate, descriptor_json)
from framedbraids.parser import format_word, parse
from framedbraids.words import BraidWord, sigma, tau

FUZZ_TRIALS = 100
ALL_KINDS_MIX = tuple((kind, 1) for kind in ALL_KINDS)
# The other mixes draw Hilden factors at halves 2-3 only; this one draws
# them at halves 4-32. A passing report keeps no factor, so it is pinned
# by its trials alone.
WIDE_PLAT_MIX = tuple((kind, 1) for kind in PLAT_KINDS)
TRIAL_SEEDS = {"default": range(10), "all_kinds": range(10), "wide_plat": range(3)}

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


def _tie_chain(n: int, crossings: range, k: int) -> str:
    """Equal twists on every strand, then s_i^(2k) for each i in crossings."""
    return " ".join([f"t{j}" for j in range(1, n + 1)] + [f"s{i}^{2 * k}" for i in crossings])


# Tie-heavy links: every inner component has the same base key, so these
# pin the tie-break among equal components, not just the sort by base key.
for _k in (1, -1):
    for _n in range(6, 10):
        _word = _tie_chain(_n, range(1, _n), _k)
        CLI_CASES[f"closure-tie-{_n}-{_k}"] = ("closure", "--n", str(_n), _word)
        CLI_CASES[f"closure-tie-{_n}-{_k}-int"] = (
            "closure", "--integer-framing", "--n", str(_n), _word)
    for _m in range(3, 6):
        CLI_CASES[f"plat-tie-{_m}-{_k}"] = (
            "plat", "--n", str(2 * _m), _tie_chain(2 * _m, range(2, 2 * _m - 1, 2), _k))


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _fuzz_config(mix_name: str, seed: int) -> FuzzConfig:
    if mix_name == "default":
        return FuzzConfig(seed=seed, trials=FUZZ_TRIALS)
    if mix_name == "wide_plat":
        return FuzzConfig(seed=seed, trials=FUZZ_TRIALS, n_range=(8, 64), move_mix=WIDE_PLAT_MIX)
    return FuzzConfig(seed=seed, trials=FUZZ_TRIALS, n_range=(1, 7), move_mix=ALL_KINDS_MIX)


def fuzz_digest(mix_name: str, seed: int) -> str:
    return _sha(json.dumps(run_fuzz(_fuzz_config(mix_name, seed)), sort_keys=True))


def trial_digest(mix_name: str, monkeypatch) -> str:
    """Every trial of the mix's seeds, not only the verdict counts a report keeps:
    each trial's kind, strand count, framings, word, descriptor and verdict."""
    out = []
    trial = fuzz._trial

    def recording(*args):
        ok, detail = trial(*args)
        out.append(json.dumps([detail["kind"], detail["n"], detail["framings"],
                               format_word(detail["beta"]),
                               descriptor_json(detail["descriptor"]), ok], sort_keys=True))
        return ok, detail

    monkeypatch.setattr(fuzz, "_trial", recording)
    for seed in TRIAL_SEEDS[mix_name]:
        run_fuzz(_fuzz_config(mix_name, seed))
    return _sha("\n".join(out))


BUILTIN_DICTIONARIES = {
    "hilden_1": GeneratorDictionary.classical,
    "framed_hilden": GeneratorDictionary.framed,
    "pure_framed": GeneratorDictionary.pure,
}
RELATION_HALVES = range(1, 8)


def relation_digest(suite: str, half: int) -> str:
    """The suite's instances in order, then its built-in entries by name."""
    instances = [
        [inst.relation_id, [list(a) for a in inst.lhs], [list(a) for a in inst.rhs], inst.note]
        for inst in suite_instances(suite, half)
    ]
    entries = [
        [name, list(b.framings), format_word(b.beta)]
        for name, b in sorted(BUILTIN_DICTIONARIES[suite](half).entries.items())
    ]
    return _sha(json.dumps([instances, entries]))


# case -> (suite, n, entries added to its built-in dictionary). The pairs
# case supplies p_{1,2} and x_{1,2} but no y_{1,2}: some of its relations
# hold, some fail and some are skipped.
REPORT_CASES = {f"{suite}-{half}": (suite, half, {})
                for suite, halves in (("hilden_1", (2, 3, 4)), ("framed_hilden", (2, 3, 4)),
                                      ("pure_framed", (2, 3)))
                for half in halves}
REPORT_CASES["pure_framed-2-pairs"] = ("pure_framed", 2, {
    "p_{1,2}": normalize(parse("s2^2", 4)),
    "x_{1,2}": normalize(parse("t2 t3^-1 s2^2", 4)),
})


def _side(b) -> list | None:
    return None if b is None else [list(b.framings), format_word(b.beta)]


def report_digest(case: str) -> str:
    """Every field of every relation report the suite's verification returns."""
    suite, half, extra = REPORT_CASES[case]
    dictionary = BUILTIN_DICTIONARIES[suite](half).with_entries(extra)
    return _sha(json.dumps([
        [r.relation_id, r.holds, r.skipped, list(r.missing), r.note, _side(r.lhs), _side(r.rhs)]
        for r in verify_relation_suite(dictionary, suite)
    ]))


MOVED_DRAWS = 40
MOVED_CONFIG = FuzzConfig(seed=0, trials=1, n_range=(1, 8), move_mix=ALL_KINDS_MIX)


def moved_digest() -> str:
    """The reprs of what the moves and group operations return, not only
    whether a signature survives: apply_move on fuzz's own draws (every
    kind, n up to 8), inverse and conjugate of seeded braids, and normalize
    of seeded words mixing sigma and tau letters."""
    out = []
    rng = random.Random("moved")
    for _ in range(MOVED_DRAWS):
        for kind in ALL_KINDS:
            if kind in PLAT_KINDS:
                n = 2 * rng.randint(2, 4)
            else:
                n = rng.randint(1, 8)
            braid = fuzz.sample_framed_braid(rng, n, rng.randint(0, 12))
            fields = {name: fuzz._draw(name, rng, braid, MOVED_CONFIG)
                      for name in FIELDS_READ[kind] if name != "factors"}
            factors = tuple([fuzz._draw(name, rng, braid, MOVED_CONFIG)
                             for name in FACTOR_NAMES.get(kind, ())])
            d = MoveDescriptor(kind, factors=factors, **fields)
            out.append(repr(apply_move(braid, d)))
    for _ in range(300):
        n = rng.randint(1, 8)
        a = fuzz.sample_framed_braid(rng, n, rng.randint(0, 12))
        g = fuzz.sample_framed_braid(rng, n, rng.randint(0, 6))
        out += [repr(inverse(a)), repr(conjugate(a, g))]
    for _ in range(300):
        n = rng.randint(1, 8)
        letters = [tau(rng.randint(1, n), rng.choice((-2, -1, 1, 2))) if rng.random() < 0.3
                   or n == 1 else sigma(rng.randint(1, n - 1), rng.choice((-2, -1, 1, 2)))
                   for _ in range(rng.randint(0, 16))]
        out.append(repr(normalize(BraidWord(n, tuple(letters)))))
    return _sha("\n".join(out))


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

TRIAL_GOLDEN = {
    'default': 'fa99e5fd89b360ad22b079ea2ec9e61bcfbb0e51ce2bdbf47c363180a86d8dd8',
    'all_kinds': '8f1e9ecd95588a03bd4ec4ddabfad88b01c38dabd7d1bd8c138921b4affadc00',
    'wide_plat': '1d7e93978a27eddfa462b62528add79d804a35041d501488350095b93a3f7dfd',
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
    'hilden-verify-pure_framed-3': '048d8362500cf91fa91eaaab15bdc84583f6b47dc5e78010b78aab0ef79709bc',
    'closure-tie-6-1': '8179472af558ff54f9a1c2bb5fa58b700d07f9e3ab764387cb7963e406e11a7e',
    'closure-tie-6-1-int': '8179472af558ff54f9a1c2bb5fa58b700d07f9e3ab764387cb7963e406e11a7e',
    'closure-tie-7-1': 'b278a7468a3bc3051a465c772ec83382aa8490f11b76fbaf1de853a6add541ec',
    'closure-tie-7-1-int': 'b278a7468a3bc3051a465c772ec83382aa8490f11b76fbaf1de853a6add541ec',
    'closure-tie-8-1': '27ed099ce8c313f8349c044acd7d6bf1a316a4797b6b83ee5556f2b982dc5a39',
    'closure-tie-8-1-int': '27ed099ce8c313f8349c044acd7d6bf1a316a4797b6b83ee5556f2b982dc5a39',
    'closure-tie-9-1': '7c354e47f1591def409a598f7427b521517d34484f6235a9f3d07cac2a6c0001',
    'closure-tie-9-1-int': '7c354e47f1591def409a598f7427b521517d34484f6235a9f3d07cac2a6c0001',
    'plat-tie-3-1': '902df820c35f11e524f64cc2cb40065ce0130cd239883915e784baca83b87cf3',
    'plat-tie-4-1': '481f3a1c95510479533ecaa6f549e530ee602d6ed135a945abb7beab03d78f34',
    'plat-tie-5-1': '90d53800f3197cf69d22c8c9d3e5303eaa224e2bcdca280ef4ee7309e2e3f51e',
    'closure-tie-6--1': '101ff0850a888838a27e2986f357c9fb1819e85eb6cf4779aef84225944b6e81',
    'closure-tie-6--1-int': '101ff0850a888838a27e2986f357c9fb1819e85eb6cf4779aef84225944b6e81',
    'closure-tie-7--1': '2056e5efa61fb44d28e8d6e984ca5cc2152cc15c28ea6d6a02a3f37385ac7a7d',
    'closure-tie-7--1-int': '2056e5efa61fb44d28e8d6e984ca5cc2152cc15c28ea6d6a02a3f37385ac7a7d',
    'closure-tie-8--1': 'd4158399fbe7ce44e4a7aa0a8e41abf892d87007390e82e83406d808000f01a5',
    'closure-tie-8--1-int': 'd4158399fbe7ce44e4a7aa0a8e41abf892d87007390e82e83406d808000f01a5',
    'closure-tie-9--1': 'e37300c182c7f18b333191c0b076f83f457e826cbdf8c5d5b02c8fe6113ad1c6',
    'closure-tie-9--1-int': 'e37300c182c7f18b333191c0b076f83f457e826cbdf8c5d5b02c8fe6113ad1c6',
    'plat-tie-3--1': '902df820c35f11e524f64cc2cb40065ce0130cd239883915e784baca83b87cf3',
    'plat-tie-4--1': '481f3a1c95510479533ecaa6f549e530ee602d6ed135a945abb7beab03d78f34',
    'plat-tie-5--1': '90d53800f3197cf69d22c8c9d3e5303eaa224e2bcdca280ef4ee7309e2e3f51e',
}

MOVED_GOLDEN = '6a13b684c4f4f258045214807f18b7426502c9729dad9f099071c228856a60aa'


RELATION_GOLDEN = {
    'hilden_1-1': 'bd4928b9a0ec8247ad6f479826bbe61f335a30b10109743351595c2882ea75d3',
    'hilden_1-2': 'c8c943da48ef38b184ffc686e89d54fc539fbb9af97bf84673cb05bc33a38686',
    'hilden_1-3': 'bc42a7361fcfd1acd72ba416dab0cae9c36e92783fc936e6a1d4ee7bd9e70690',
    'hilden_1-4': '697af34fac0c376a146d4883ebdf88eab1266c0a172dc402aa262846f6c26ab4',
    'hilden_1-5': 'e55713771c509e65088d291769814da59fbec6dcf2830d7e40848cca860f180b',
    'hilden_1-6': '7690bce48ae3a5b0eff92fba219c26d52cfb6ac3ac89fa17161d48fcf7df4777',
    'hilden_1-7': 'aab85ef9fbb6c578da3d67286ff5ab6109d375e367ecdb965b1a5ddde2092ad4',
    'framed_hilden-1': '5893c4a4f9f8ea57ef83e488d138093fb4551e0cbf415ffc4b3e883b85a1ece7',
    'framed_hilden-2': 'fcfd9da92ecd2cd023f5d9583a84a59f390607378d02b3bc26b2a08b6d6c11ee',
    'framed_hilden-3': 'a187e3743847e4fb36bedfa68c8ddbe56b5fa0a0ec1adcb2c7a6d5b7279b3e83',
    'framed_hilden-4': 'fcce2ecdd91adec563ac8df8eff392561f6da8029377be28cf81385a183b9bd9',
    'framed_hilden-5': 'd31b0ee3e998b8b52ad85b92b36ad84dc0e45b0934825dc762662b49345b2e94',
    'framed_hilden-6': 'ed684019e26c0523dd5e88689ec6a99efb61282ea5bc7b7e9f00b4c9b2167041',
    'framed_hilden-7': '30bbbf3723e3bd0ca2e0d3992ef804ed9ee149d73ffd06d048b9555992a0e2ce',
    'pure_framed-1': '8907eb9f6291d5b010e85653527b424a9c871c33a87c803d2038086886da366e',
    'pure_framed-2': '819f144c3837dd13ff47b9641f8bd8c3aa5525e69f31209c0aad041d44972fc2',
    'pure_framed-3': '87b58666933c8d9f4e2d53924fc7aa8b7497a3d09b7fd1c427c10aa5688d96f8',
    'pure_framed-4': '07cfef70de288d9e5c265eaaf0f6efa9f5a935040616513afb41cee9c4ce2ac8',
    'pure_framed-5': '32665f3ec15edf3a5d30a791466d1e5d1cdc7b4c54be697bf0ff770df5960232',
    'pure_framed-6': '10d0db6a5c59eb1aae09c1090d60cd5c8f093c2f7483750bb0a87a09d2275d66',
    'pure_framed-7': '7923b654d2823102a7047c9ffd16ddf9fcbcfe88feaaba2ed6902c69a79bafd9',
}

REPORT_GOLDEN = {
    'hilden_1-2': '3f1091ac4ff602f069a1c6128114e1eabbb861333796175eee3fd8940ca28ff2',
    'hilden_1-3': '2c2ea74d3e10e98a80beab5da318a6ac0a62b615cf2c73917ce6af12b0e1bb11',
    'hilden_1-4': '043fc2dba2213db325b4ac6a8f01f6aa2f9a39efb9779beec0cb6e2231be8852',
    'framed_hilden-2': '48330aab5981fa41fe243d93abcbe259069b2927a4dedf5f9b4c364f84845c54',
    'framed_hilden-3': '3de59fd7b05408587880a8884b216bedf8debd94408f39f92cf5b4762d09a2de',
    'framed_hilden-4': '3e7c351a965541b95ad5b4564f5f9014a6b7cbbc5b8c2e4303120d73508716c9',
    'pure_framed-2': '592f9ff8e003d902c9d6a6639072d554d708006dbb4ce0b2a710bceefa3e670b',
    'pure_framed-3': '08356f37bfaf329924dcece247731673b5f471c1f0c8893e9362fc48b76db523',
    'pure_framed-2-pairs': '632078529a6b1646c44c4fb15569b157fe2624a7e5245a4415e9487fac2f943e',
}


@pytest.mark.parametrize("mix_name", ["default", "all_kinds"])
def test_fuzz_reports_unchanged(mix_name):
    got = {seed: fuzz_digest(mix_name, seed) for seed in range(10)}
    assert got == FUZZ_GOLDEN[mix_name]


@pytest.mark.parametrize("mix_name", TRIAL_SEEDS)
def test_fuzz_trials_unchanged(mix_name, monkeypatch):
    assert trial_digest(mix_name, monkeypatch) == TRIAL_GOLDEN[mix_name]


def test_cli_outputs_unchanged():
    got = {name: cli_digest(argv) for name, argv in CLI_CASES.items()}
    changed = sorted(name for name in CLI_CASES if got[name] != CLI_GOLDEN.get(name))
    assert not changed


def test_moved_elements_unchanged():
    assert moved_digest() == MOVED_GOLDEN


def test_relation_data_unchanged():
    got = {f"{suite}-{half}": relation_digest(suite, half)
           for suite in BUILTIN_DICTIONARIES for half in RELATION_HALVES}
    assert got == RELATION_GOLDEN


def test_relation_reports_unchanged():
    got = {case: report_digest(case) for case in REPORT_CASES}
    assert got == REPORT_GOLDEN


if __name__ == "__main__":
    print("FUZZ_GOLDEN = {")
    for mix in ("default", "all_kinds"):
        print(f"    {mix!r}: {{")
        for seed in range(10):
            print(f"        {seed}: {fuzz_digest(mix, seed)!r},")
        print("    },")
    print("}\n\nTRIAL_GOLDEN = {")
    for mix in TRIAL_SEEDS:
        with pytest.MonkeyPatch.context() as patch:
            print(f"    {mix!r}: {trial_digest(mix, patch)!r},")
    print("}\n\nCLI_GOLDEN = {")
    for name, argv in CLI_CASES.items():
        print(f"    {name!r}: {cli_digest(argv)!r},")
    print(f"}}\n\nMOVED_GOLDEN = {moved_digest()!r}")
    print("\nRELATION_GOLDEN = {")
    for suite in BUILTIN_DICTIONARIES:
        for half in RELATION_HALVES:
            print(f"    '{suite}-{half}': {relation_digest(suite, half)!r},")
    print("}\n\nREPORT_GOLDEN = {")
    for case in REPORT_CASES:
        print(f"    {case!r}: {report_digest(case)!r},")
    print("}")
