import random
import tracemalloc

import pytest
from hypothesis import given

from framedbraids import parser, words
from framedbraids.parser import WordParseError, format_word, parse, signed_decimal
from framedbraids.words import BraidWord, sigma, tau

from oracles import scan_parse
from test_words import letters_strategy


def test_basic_parse():
    word = parse("s1 s2^-1 t3^2", 3)
    assert word.letters == (sigma(1), sigma(2, -1), tau(3, 2))


def test_trefoil_input():
    word = parse("t1^-1 s1^-3", 2)
    assert word.letters == (tau(1, -1), sigma(1, -3))


def test_whitespace_handling():
    assert parse("  s1\t t2  ", 2) == parse("s1 t2", 2)
    assert parse("", 3) == BraidWord(3)
    assert parse("   ", 3) == BraidWord(3)


def test_parse_reduces():
    assert not parse("s1 s1^-1", 2).letters
    assert parse("t1 t1^2", 2).letters == (tau(1, 3),)


def test_index_out_of_range():
    with pytest.raises(WordParseError) as info:
        parse("s5", 3)
    assert info.value.offset == 0
    with pytest.raises(WordParseError):
        parse("t4", 3)
    parse("t3", 3)


def test_error_offsets():
    with pytest.raises(WordParseError) as info:
        parse("s1 x2", 3)
    assert info.value.offset == 3
    with pytest.raises(WordParseError) as info:
        parse("s1 s2^0", 3)
    assert info.value.offset == 6
    with pytest.raises(WordParseError) as info:
        parse("s0", 3)
    assert info.value.offset == 1
    with pytest.raises(WordParseError) as info:
        parse("s", 3)
    assert info.value.offset == 1
    with pytest.raises(WordParseError) as info:
        parse("s1^", 3)
    assert info.value.offset == 3


def test_non_ascii_digits_rejected_with_offset():
    # str.isdigit() accepts these; the grammar takes only 0-9
    for text, offset in (("s\u0661", 1), ("s1 s2^\u0662", 6), ("s1^-\u0663", 3),
                         ("s\u00b2", 1), ("s1^\u00b2", 3), ("s1\u0662", 2)):
        with pytest.raises(WordParseError) as info:
            parse(text, 3)
        assert info.value.offset == offset, text


def test_explicit_positive_exponent():
    assert parse("s1^+2", 2).letters == (sigma(1, 2),)


def test_format_word():
    word = BraidWord(3, (sigma(1), sigma(2, -1), tau(3, 2)))
    assert format_word(word) == "s1 s2^-1 t3^2"
    assert format_word(BraidWord(1)) == ""


@given(letters_strategy(3))
def test_parse_format_round_trip(word):
    assert parse(format_word(word), 3) == word


def test_format_parse_round_trip_on_canonical_text():
    for text in ("s1 s2^-1 t3^2", "t1^-1 s1^-3", ""):
        assert format_word(parse(text, 3)) == text


def test_signed_decimal_takes_ascii_digits_only():
    assert [signed_decimal(t) for t in ("0", "7", "+7", "-12", "007")] == [0, 7, 7, -12, 7]
    for bad in ("", "+", "-", "--1", "+-1", "٣", "1٣", "1_0", " 3", "3 ", "3\n", "0x10", "1e3", "³"):
        with pytest.raises(ValueError):
            signed_decimal(bad)


MUTATION_CHARS = "st^+-0123456789 \t\nx" + "é٣"


def random_dsl_text(rng, n: int) -> str:
    """A word on n strands in the DSL, with leading zeros, explicit '+'
    signs, tabs, adjacent terms and now and then an index of n + 1."""
    terms = []
    for _ in range(rng.randint(0, 6)):
        index = rng.randint(1, n + (rng.random() < 0.05))
        term = rng.choice("st") + "0" * (rng.random() < 0.1) + str(index)
        if rng.random() < 0.5:
            term += "^" + rng.choice(("", "+", "-")) + "0" * (rng.random() < 0.1)
            term += str(rng.randint(1, 12))
        terms.append(term)
        terms.append(rng.choice(("", " ", "  ", "\t", " \t")))
    return rng.choice(("", " ", "\t")) + "".join(terms)


def mutate(rng, text: str) -> str:
    """Replace, insert or delete one character."""
    pos = rng.randint(0, len(text))
    op = rng.choice(("replace", "insert", "delete"))
    keep = pos + (op != "insert")
    added = "" if op == "delete" else rng.choice(MUTATION_CHARS)
    return text[:pos] + added + text[keep:]


def outcome(parse_fn, text: str, n: int):
    """The parsed word, or the error's type, message and offset."""
    try:
        return parse_fn(text, n)
    except ValueError as err:
        return type(err).__name__, str(err), getattr(err, "offset", None)


def test_parse_agrees_with_the_character_scanner():
    rng = random.Random(7)
    errors = 0
    for trial in range(20000):
        n = rng.randint(1, 9)
        text = random_dsl_text(rng, n)
        if trial % 2:
            text = mutate(rng, text)
        expected = outcome(scan_parse, text, n)
        assert outcome(parse, text, n) == expected, (text, n)
        errors += isinstance(expected, tuple)
    assert 2000 < errors < 18000


def test_parse_errors_are_raised_on_every_call():
    for text in ("s1 s2^0", "s0", "s1^", "s9", "s1 x", "s1s2^0", "s1\ns2", "t1^2s9"):
        expected = outcome(scan_parse, text, 3)
        assert isinstance(expected, tuple), text
        for _ in range(2):
            assert outcome(parse, text, 3) == expected, text


def test_both_letter_memos_are_bounded():
    assert 0 < parser._term.cache_info().maxsize <= 256
    assert 0 < words._letter.cache_info().maxsize <= 256


# str.split() with no argument cuts at each of these; the grammar refuses them.
REFUSED_SPACES = "\n\r\x0b\x0c\x1c\x1d\x1e\x1f\x85\xa0\u2003\u3000"


def edge_texts():
    for ch in REFUSED_SPACES:
        yield from (f"s1{ch}s2", f"s1 {ch} t2", f"{ch}s1", f"s1^-2{ch}",
                    f"s{ch}1", f"s1^{ch}2", f"s1^-{ch}2", f"s1{ch}2")
    yield from ("s1s2^-1 t3", "t1^2s1", "s1s2^-1t3", " s1s2", "s1^2s1^-2 t2", "s1s2 s3^0")
    yield from (" \t  s1 \t\t s2^-1\t \t", "\t\t", "  \t", "\ts1\t", "s1 \t ", "", "s1")


def test_parse_agrees_with_the_scanner_on_tokenizer_edges():
    for text in edge_texts():
        for n in (0, 1, 3, 4):
            assert outcome(parse, text, n) == outcome(scan_parse, text, n), (text, n)


def test_parse_with_no_strands():
    assert outcome(parse, "s1", 0) == (
        "WordParseError", "s1 out of range for n=0 (at offset 0)", 0)
    assert outcome(parse, "", 0) == (
        "ValueError", "strand count must be >= 1, got 0", None)


def test_parse_refuses_a_text_that_is_not_str():
    for text, message in ((None, "expected string or bytes-like object"),
                          (b"s1", "cannot use a string pattern on a bytes-like object")):
        with pytest.raises(TypeError, match=message):
            parse(text, 3)


def test_parse_agrees_with_the_scanner_past_the_memo_size():
    # 600 distinct terms: the 256-entry memo evicts while one word is parsed
    terms = [f"s{1 + k % 3}^{k + 1}" for k in range(600)]
    for text in (" ".join(terms), "".join(terms), " ".join(terms) + " s4", " ".join(terms[::-1])):
        before = parser._term.cache_info().misses
        assert outcome(parse, text, 4) == outcome(scan_parse, text, 4), text[-20:]
        assert parser._term.cache_info().misses - before > 256


def test_valid_words_never_reach_the_scanner(monkeypatch):
    # _scan is for faults only: a valid word, with or without blanks and
    # tabs between its terms, is parsed by the one cut and the memo.
    rng = random.Random(27)
    cases = [(random_dsl_text(rng, n), n) for n in (2, 3, 5, 8) for _ in range(250)]
    valid = [(text, n, word) for text, n in cases
             if isinstance(word := outcome(scan_parse, text, n), BraidWord)]
    assert len(valid) > 600
    monkeypatch.setattr(parser, "_scan", lambda text, n: pytest.fail(f"{text!r} was scanned"))
    for text, n, word in valid:
        assert parse(text, n) == word, text


def test_the_term_memo_keeps_no_text():
    rng = random.Random(11)
    pool = [f"s{rng.randint(1, 7)}^{rng.choice((-3, -2, -1, 2, 3))}" for _ in range(40)]
    body = "".join(rng.choice(pool + ["t1", "s2"]) for _ in range(9999))
    # 300 distinct 10 000-term words without blanks, then 20 terms with a
    # 4000-digit exponent; the last 40 words are traced
    for j in range(300):
        if j == 280:
            tracemalloc.start()
        parse(body + f"t8^{j + 1}", 8)
    for j in range(20):
        parse(f"s1^{j + 1}" + "7" * 3999, 2)
    retained = tracemalloc.get_traced_memory()[0]
    tracemalloc.stop()
    assert parser._term.cache_info().currsize <= 256
    assert retained < len(body)
