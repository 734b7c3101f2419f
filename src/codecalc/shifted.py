"""Shifted codes for strict indexes, and the staircase substitution linking them.

A strict index with positive rows is encoded by a shifted word: a code word
read with its rows offset by a staircase (``codes.ShiftedCodeWord``), the
stored letters conceptually preceded by the infinite staircase ...ULULU and
followed by R's only.  The word format and the exchange driver live in
``codes``; this module keeps the shifted-style entry points, ``preshift``
(plain code -> shifted code) and the shifted bracket-index.
"""

from .core import (
    Composition,
    DomainError,
    InternalInvariantError,
    SignedIndexResult,
    check_int,
)
from .codes import (
    CodeWord,
    ShiftedCodeWord,
    _as_word,
    _built,
    _decode,
    _encode,
    _replace_ith_r,
    _rows,
    _signed,
    reduce_word,
    straighten_code_trace,
)
from .qvertex import _validated_strict


def encode_shifted(parts) -> ShiftedCodeWord:
    """Shifted-code word of an index with positive rows."""
    return _encode(ShiftedCodeWord, parts)


def decode_shifted(word: ShiftedCodeWord | str) -> Composition:
    """Index encoded by a shifted-code word (validates anything but a ShiftedCodeWord)."""
    return _decode(ShiftedCodeWord, word)


def shifted_straighten(word: ShiftedCodeWord | str) -> SignedIndexResult:
    """Straighten a shifted word into the zero result or a signed strict index.

    Runs the plain exchange rule, except that the run may never reach past the
    stored word's left edge.
    """
    return _signed(straighten_code_trace(word, "shifted"))


class PreshiftedWord(ShiftedCodeWord):
    """Letters following the conceptual infinite staircase prefix ...ULULU."""

    __slots__ = ()

    def strip_prefix(self) -> ShiftedCodeWord:
        """Drop the conceptual prefix, leaving the finite shifted word."""
        return _built(ShiftedCodeWord, self.runs)

    def __str__(self) -> str:
        return "...ULULU" + self.letters


def preshift(word: CodeWord | str) -> PreshiftedWord:
    """Substitute U -> UL in a plain code word (positive rows required).

    The substitution turns the plain code of an index into its shifted code
    behind a staircase prefix: a long enough materialised prefix is prepended,
    the word reduced, and the surviving staircase stripped back off.
    """
    word = _as_word(CodeWord, word)
    if any(p < 1 for p in _rows(word.runs)):
        raise DomainError(f"{word.letters!r} has a zero row; no shifted form exists")
    pad = word.letters.count("R") + 2
    seq = "UL" * pad + word.letters.replace("U", "UL")
    reduced = reduce_word(seq).rstrip("L")
    m = 0
    while 2 * m + 1 < len(reduced) and reduced[2 * m : 2 * m + 2] == "UL":
        m += 1
    if 2 * m >= len(reduced) or reduced[2 * m] != "U":
        raise InternalInvariantError(f"no staircase boundary in {reduced!r}")
    return PreshiftedWord(reduced[2 * m + 1 :])


def lambda_bracket_shifted(lam, i: int) -> Composition:
    """The i-th bracket-index via the shifted code: its i-th R becomes a U.

    Counts into the R-tail when i exceeds the stored R's.  ``codecalc verify``
    checks this code route against the value insertion (suite shifted, op
    bracket_shifted).
    """
    lam = _validated_strict(lam)
    check_int(i, "bracket position", 1)
    return _rows(_replace_ith_r(encode_shifted(lam).runs, i), ShiftedCodeWord.shift)
