"""Strict-index straightening (Schur-Q side) and the vertex-operator series.

Products of the degree-n operators here anticommute, and a repeated degree
annihilates, so straightening an index is signed sorting into a strictly
decreasing index (possibly with one trailing zero row).  The same result is
computed two independent ways: by counting out-of-order pairs directly, and by
rewriting the code word.
"""

from __future__ import annotations

from .core import (
    Composition,
    DomainError,
    InternalInvariantError,
    SERIES_MAX,
    SignedIndexResult,
    ZERO,
    _Value,
    check_int,
    is_strict_partition,
    signed_result,
    validate_composition,
)
from .codes import (
    _signed,
    _splice_u,
    encode_code,
    straighten_code_trace,
)


def straighten_Y_perm(parts) -> SignedIndexResult:
    """Straighten by sorting: zero on a repeated entry, else (-1) per out-of-order pair."""
    parts = validate_composition(parts)
    if len(set(parts)) < len(parts):
        return ZERO
    inversions = sum(
        1
        for i in range(len(parts))
        for j in range(i + 1, len(parts))
        if parts[i] < parts[j]
    )
    return signed_result(inversions, tuple(sorted(parts, reverse=True)))


def straighten_Y_code(parts) -> SignedIndexResult:
    """Straighten a strict-side index by code-word rewriting (the Q exchange rule)."""
    out = straighten_code_trace(encode_code(parts), "q")
    if out is not None and any(a == b for a, b in zip(out[1], out[1][1:])):
        return ZERO  # equal adjacent rows annihilate
    return _signed(out)


def _validated_strict(parts) -> Composition:
    parts = validate_composition(parts, minimum=1)
    if not is_strict_partition(parts):
        raise DomainError(f"{parts!r} is not strictly decreasing")
    return parts


def yn_action(n: int, lam) -> SignedIndexResult:
    """Apply the degree-n operator to a strict index with positive rows.

    n > lam_1 prepends with sign +1; n already a row annihilates; otherwise n
    is inserted in place with one sign flip per larger row (n = 0 appends a
    trailing zero row).
    """
    lam = _validated_strict(lam)
    check_int(n, "degree", 0)
    if not lam or n > lam[0]:
        return signed_result(0, (n,) + lam)
    if n in lam:
        return ZERO
    j = sum(1 for p in lam if p > n)
    return signed_result(j, lam[:j] + (n,) + lam[j:])


def _rr_pairs(word: str) -> list[int]:
    """Positions t of the adjacent R-pairs word[t:t+2] == "RR", overlaps allowed."""
    return [t for t in range(len(word) - 1) if word[t] == "R" and word[t + 1] == "R"]


def _bracket_by_code(word: str, pairs: list[int], i: int) -> Composition:
    """Insert a U between the i-th adjacent R-pair of the code word.

    ``pairs`` is ``_rr_pairs(word)``; pairs are counted left to right,
    continuing into the implicit R-tail past the word's end.
    """
    idx = pairs[i - 1] + 1 if i <= len(pairs) else len(word) + i - len(pairs)
    return _splice_u(word, idx, insert=True)


def lambda_bracket(lam, i: int) -> Composition:
    """The i-th bracket-index of a strict index (i = 0 appends a zero row).

    For i >= 1 a U goes into the i-th RR pair of the code word, which inserts
    the i-th positive value absent from lam.  ``codecalc verify`` checks this
    code route against the value insertion (suite qvertex, op bracket_code).
    """
    lam = _validated_strict(lam)
    check_int(i, "bracket position", 0)
    if i == 0:
        return lam + (0,)
    word = encode_code(lam).letters
    return _bracket_by_code(word, _rr_pairs(word), i)


class QSeriesTerm(_Value):
    """One term of the strict-side operator series: sign * t**n on an index."""

    __slots__ = __match_args__ = ("n", "j", "i", "sign_exp", "index")

    def __init__(self, n: int, j: int, i: int, sign_exp: int, index: Composition) -> None:
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "j", j)
        object.__setattr__(self, "i", i)
        object.__setattr__(self, "sign_exp", sign_exp)
        object.__setattr__(self, "index", index)

    @property
    def sign(self) -> int:
        return -1 if self.sign_exp % 2 else 1

    @property
    def t_exp(self) -> int:
        return self.n

    def to_dict(self) -> dict:
        return {
            "family": "schurQ",
            "i": self.i,
            "j": self.j,
            "t_exp": self.n,
            "sign_exp": self.sign_exp,
            "index": list(self.index),
        }


def q_series_j_form(lam, n_max: int) -> list[QSeriesTerm]:
    """Series terms with t-exponent n <= n_max, enumerated by insertion slot j.

    Slot j inserts n strictly between neighbouring rows (top slot is bounded by
    n_max only, bottom slot reaches down to n = 0); the term's sign is (-1)**j.
    """
    lam = _validated_strict(lam)
    check_int(n_max, "n_max", 0, SERIES_MAX)
    l = len(lam)
    terms: list[QSeriesTerm] = []
    for j in range(l + 1):
        hi = lam[j - 1] - 1 if j >= 1 else n_max
        lo = lam[j] + 1 if j < l else 0
        for n in range(lo, min(hi, n_max) + 1):
            index = lam[:j] + (n,) + lam[j:]
            terms.append(QSeriesTerm(n=n, j=j, i=n - l + j, sign_exp=j, index=index))
    terms.sort(key=lambda t: t.n)
    return terms


def q_series_i_form(lam, i_max: int) -> list[QSeriesTerm]:
    """Series terms i = 0..i_max via bracket-indexes; must agree with the j-form.

    Term i carries index lambda^[i], t-exponent n = |lambda^[i]| - |lam| and
    sign exponent len(lam) + |lam| - |lambda^[i]| + i, which is checked to be
    the insertion slot of n on every call.
    """
    lam = _validated_strict(lam)
    check_int(i_max, "i_max", 0, SERIES_MAX)
    l = len(lam)
    base = sum(lam)
    word = encode_code(lam).letters
    pairs = _rr_pairs(word)
    terms: list[QSeriesTerm] = []
    for i in range(i_max + 1):
        index = _bracket_by_code(word, pairs, i) if i else lam + (0,)
        n = sum(index) - base
        sign_exp = l + base - sum(index) + i
        if sign_exp != index.index(n) or i != n - l + sign_exp:
            raise InternalInvariantError(
                f"series bookkeeping off at i={i} for {lam!r}: {index!r}"
            )
        terms.append(QSeriesTerm(n=n, j=sign_exp, i=i, sign_exp=sign_exp, index=index))
    return terms
