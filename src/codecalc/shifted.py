"""Shifted codes for strict indexes, and the staircase substitution linking them.

A strict index with positive rows is encoded by a singly infinite word: the
stored letters are conceptually preceded by the infinite staircase ...ULULU
and followed by R's only.  The x-origin sits len(parts) columns left of where
the plain code would put it, so row i (from the right) reads off as the U's
x-position minus i-1.  Straightening shifted words reuses the plain exchange
rule, except that the run may never reach past the stored word's left edge.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import (
    Composition,
    DomainError,
    InternalInvariantError,
    InvalidCodeError,
    SignedIndexResult,
    ZERO,
    is_strict_partition,
    signed_result,
    validate_composition,
)
from .codes import (
    CodeWord,
    _built,
    _decode_letters,
    _exchange_step,
    _replace_ith_r,
    _straighten_letters,
    reduce_word,
)


def _decode_shifted_letters(seq) -> Composition:
    """Row lengths of a shifted letter sequence (x starts at the U-count)."""
    total = sum(1 for ch in seq if ch == "U")
    x = total
    seen = 0
    rows: list[int] = []
    for ch in seq:
        if ch == "R":
            x += 1
        elif ch == "L":
            x -= 1
        else:
            seen += 1
            rows.append(x - (total - seen))
    rows.reverse()
    return tuple(rows)


@dataclass(frozen=True)
class ShiftedCodeWord:
    """A reduced finite shifted-code word whose rows are all positive."""

    letters: str

    def __post_init__(self) -> None:
        w = self.letters
        if reduce_word(w) != w:
            raise InvalidCodeError(f"word {w!r} is not reduced")
        if w:
            if w[0] == "L":
                raise InvalidCodeError(f"word {w!r} starts with L")
            if w[-1] != "U":
                raise InvalidCodeError(f"word {w!r} does not end with U")
        if any(p < 1 for p in _decode_shifted_letters(w)):
            raise InvalidCodeError(f"word {w!r} has a row below 1")

    @property
    def rows(self) -> int:
        return self.letters.count("U")

    def __str__(self) -> str:
        return self.letters


def encode_shifted(parts) -> ShiftedCodeWord:
    """Shifted-code word of an index with positive rows.

    Bottom row m_l contributes R**(m_l - 1) U; each higher row contributes its
    net move m_i - m_{i+1} - 1 (R's, or L's when negative) followed by its U.
    """
    parts = validate_composition(parts, minimum=1)
    if not parts:
        return _built(ShiftedCodeWord, "")
    chunks = ["R" * (parts[-1] - 1) + "U"]
    for i in range(len(parts) - 2, -1, -1):
        step = parts[i] - parts[i + 1] - 1
        chunks.append(("R" * step if step >= 0 else "L" * -step) + "U")
    return _built(ShiftedCodeWord, "".join(chunks))


def decode_shifted(word: ShiftedCodeWord | str) -> Composition:
    """Index encoded by a shifted-code word (validates strings on the way in)."""
    if not isinstance(word, ShiftedCodeWord):
        word = ShiftedCodeWord(word)
    return _decode_shifted_letters(word.letters)


def shifted_straighten_trace(word: ShiftedCodeWord | str):
    """Straighten a shifted word; None when zero, else (sign exponent, index).

    Runs the same exchange rule as the plain code route; an L-free shifted
    word is strictly decreasing automatically.
    """
    if not isinstance(word, ShiftedCodeWord):
        word = ShiftedCodeWord(word)
    out = _straighten_letters(
        word.letters,
        lambda w: _exchange_step(w, virtual_prefix=False),
        _decode_shifted_letters,
        1,
    )
    if out is None:
        return None
    total, rows = out
    if any(rows[i] <= rows[i + 1] for i in range(len(rows) - 1)):
        raise InternalInvariantError(f"shifted rows not strictly sorted: {rows!r}")
    return total, rows


def shifted_straighten(word: ShiftedCodeWord | str) -> SignedIndexResult:
    """Straighten a shifted word into the zero result or a signed strict index."""
    out = shifted_straighten_trace(word)
    if out is None:
        return ZERO
    return signed_result(*out)


@dataclass(frozen=True)
class PreshiftedWord:
    """Letters following the conceptual infinite staircase prefix ...ULULU."""

    letters: str

    def __post_init__(self) -> None:
        ShiftedCodeWord(self.letters)  # same well-formedness rules as the tail

    def strip_prefix(self) -> ShiftedCodeWord:
        """Drop the conceptual prefix, leaving the finite shifted word."""
        return ShiftedCodeWord(self.letters)

    def __str__(self) -> str:
        return "...ULULU" + self.letters


def preshift(word: CodeWord | str) -> PreshiftedWord:
    """Substitute U -> UL in a plain code word (positive rows required).

    The substitution turns the plain code of an index into its shifted code
    behind a staircase prefix: a long enough materialised prefix is prepended,
    the word reduced, and the surviving staircase stripped back off.
    """
    if not isinstance(word, CodeWord):
        word = CodeWord(word)
    if any(p < 1 for p in _decode_letters(word.letters)):
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
    lam = validate_composition(lam, minimum=1)
    if not isinstance(i, int) or isinstance(i, bool) or i < 1:
        raise DomainError(f"bracket position must be an int >= 1, got {i!r}")
    if not is_strict_partition(lam):
        raise DomainError(f"{lam!r} is not strictly decreasing")
    return _decode_shifted_letters(_replace_ith_r(encode_shifted(lam).letters, i))
