"""Shifted codes for strict indexes, and the staircase substitution linking them.

A strict index with positive rows is encoded by a shifted word: a code word
read with its rows offset by a staircase (``codes.ShiftedCodeWord``), the
stored letters conceptually preceded by the infinite staircase ...ULULU and
followed by R's only.  The word format and the exchange driver live in
``codes``; this module keeps the shifted-style entry points, ``preshift``
(plain code -> shifted code, U -> UL, which on runs is d -> d - 1) and the
shifted bracket-index, the i-th R made a U as on the row-adding side.
"""

from .core import (
    Composition,
    DomainError,
    SignedIndexResult,
    check_int,
)
from .codes import (
    CodeWord,
    ShiftedCodeWord,
    _as_word,
    _decode,
    _encode,
    _rows,
    _signed,
    straighten_code_trace,
)
from .qvertex import _bracket, _validated_strict


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
        return ShiftedCodeWord._make(self.runs)

    def __str__(self) -> str:
        return "...ULULU" + self.letters


def preshift(word: CodeWord | str) -> PreshiftedWord:
    """Substitute U -> UL in a plain code word (positive rows required).

    The substitution turns the plain code of an index into its shifted code
    behind the staircase prefix ...ULULU.  On runs it is d -> d - 1: the L
    after each U joins the run that follows (the prefix's last U gives run 1
    its L, the last U's L cancels an R of the R-tail), and the shifted reading
    adds that column back, so the rows stay.
    """
    word = _as_word(CodeWord, word)
    rows = _rows(word.runs)
    if any(p < 1 for p in rows):
        raise DomainError(f"index {rows} has a zero row; no shifted form exists")
    return PreshiftedWord._make(tuple(d - 1 for d in word.runs))


def lambda_bracket_shifted(lam, i: int) -> Composition:
    """The i-th bracket-index via the shifted code: its i-th R becomes a U.

    Counts into the R-tail when i exceeds the stored R's.  The route,
    ``qvertex._bracket``, is ``lambda_bracket``'s too; ``codecalc verify``
    checks it against the value insertion (suite shifted, op bracket_shifted).
    """
    lam = _validated_strict(lam)
    i = check_int(i, "bracket position", 1)
    return _bracket(lam, i)
