"""
The braid word DSL: terms like s2^-3 or t1, with or without blanks between.

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

parse cuts the text at blanks (space and tab only; str.split() with no
argument would also cut at newlines and other spaces that the grammar
refuses) and before every 's' and 't'. A term holds one generator letter,
its first character, so a valid word falls apart into exactly its terms.
Each piece goes through _term, a 256-entry memo from one term's text to
its Letter, and BraidWord(n, letters) is the one bound check and the one
free reduction. A piece that is not exactly one valid term raises inside
the memo, and lru_cache stores no error; that fault, or a bound that
BraidWord refuses, sends the text to _scan, one finditer pass of _TOKEN
that raises the first fault in the text with its offset. The memo keeps no
piece longer than _TERM_CHARS, so it never holds a whole input.

The speed rests on terms that recur, as in words over a few generators
with small exponents; blanks between terms do not matter. A random 35-term
word takes about 11 us, or 10 us without blanks, against 24-27 us for one
finditer pass. A term that misses the memo costs about 2 us, a tenth more
than in that pass. A faulty word, or a valid one holding a term longer
than _TERM_CHARS, costs about 3 times one pass (7-8 us for a short one):
the failed cut, then the scan, which reads each term without a memo
(in-process timing, 2-vCPU VM, Python 3.11).
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


# The longest piece the memo keeps; a longer one goes to the scan.
_TERM_CHARS = 40


def _read(gen: str, digits: str, exponent: str | None) -> Letter | tuple[str, int]:
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


@lru_cache(maxsize=256)
def _term(piece: str) -> Letter:
    """The Letter of a blank-free piece that is exactly one valid term of at
    most _TERM_CHARS characters. Any other piece raises ValueError, which
    lru_cache does not store, so the memo holds only short valid terms."""
    if len(piece) > _TERM_CHARS:
        raise ValueError("piece too long to memoize")
    match = _TOKEN.match(piece)
    gen, digits, exponent, _ = match.groups()
    if gen is None or match.end() != len(piece):
        raise ValueError("piece is not one term")
    letter = _read(gen, digits, exponent)
    if letter.__class__ is tuple:
        raise ValueError(letter[0])
    return letter


def parse(text: str, n: int) -> BraidWord:
    """Parse a DSL word into a freely reduced BraidWord on n strands."""
    try:
        # Every term starts with its one 's' or 't': cut there and at blanks.
        cut = text.replace("\t", " ").replace("s", " s").replace("t", " t")
        return BraidWord(n, tuple(map(_term, filter(None, cut.split(" ")))))
    except (ValueError, TypeError, AttributeError):
        # _scan raises the first fault with its offset, or the regex's
        # TypeError for a text that is not a str
        return _scan(text, n)


def _scan(text: str, n: int) -> BraidWord:
    """parse by one finditer pass of _TOKEN, raising the first fault in the
    text with its offset: a bad character, a bad term or an index out of
    range for n."""
    letters: list[Letter] = []
    for match in _TOKEN.finditer(text):
        gen, digits, exponent, bad = match.groups()
        if gen is None:
            if bad is None:
                break
            raise WordParseError(f"expected 's' or 't', found {bad!r}", match.start(4))
        letter = _read(gen, digits, exponent)
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
