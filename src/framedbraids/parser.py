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
"""

from __future__ import annotations

from .words import SIGMA, BraidWord, Letter


class WordParseError(ValueError):
    """Syntax or bounds error in a braid word, with its byte offset."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset


def signed_decimal(text: str) -> int:
    """A whole signed-decimal of the grammar as an int; the CLI reads every
    integer with it. int() alone would also take non-ASCII digits, '_'
    separators and surrounding whitespace."""
    digits = text[1:] if text[:1] in ("+", "-") else text
    if not digits or digits.strip("0123456789"):
        raise ValueError(f"expected a signed decimal integer, got {text!r}")
    return int(text)


def parse(text: str, n: int) -> BraidWord:
    """Parse a DSL word into a freely reduced BraidWord on n strands."""
    letters: list[Letter] = []
    pos = 0
    end = len(text)
    while pos < end:
        ch = text[pos]
        if ch in " \t":
            pos += 1
            continue
        if ch not in "st":
            raise WordParseError(f"expected 's' or 't', found {ch!r}", pos)
        start = pos
        kind = SIGMA if ch == "s" else "tau"
        pos += 1
        index_start = pos
        while pos < end and text[pos] in "0123456789":
            pos += 1
        if pos == index_start:
            raise WordParseError("generator needs a decimal index", pos)
        index = int(text[index_start:pos])
        if index == 0:
            raise WordParseError("generator index must be nonzero", index_start)
        exponent = 1
        if pos < end and text[pos] == "^":
            pos += 1
            exp_start = pos
            if pos < end and text[pos] in "+-":
                pos += 1
            digits_start = pos
            while pos < end and text[pos] in "0123456789":
                pos += 1
            if pos == digits_start:
                raise WordParseError("exponent needs decimal digits", exp_start)
            exponent = int(text[exp_start:pos])
            if exponent == 0:
                raise WordParseError("exponent must be nonzero", exp_start)
        bound = n - 1 if kind == SIGMA else n
        if index > bound:
            raise WordParseError(
                f"{'s' if kind == SIGMA else 't'}{index} out of range for n={n}",
                start,
            )
        letters.append(Letter(kind, index, exponent))
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
