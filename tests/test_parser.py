import pytest
from hypothesis import given

from framedbraids.parser import WordParseError, format_word, parse, signed_decimal
from framedbraids.words import BraidWord, sigma, tau

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
    assert parse("s1 s1^-1", 2).is_empty()
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
