"""Strict-index straightening (Schur-Q side) and the vertex-operator series.

Products of the degree-n operators here anticommute, and a repeated degree
annihilates, so straightening an index is signed sorting into a strictly
decreasing index (possibly with one trailing zero row).  The same result is
computed two independent ways: by counting out-of-order pairs directly, and by
rewriting the code word.  The bracket-index lambda^[i] is term i of the
i-form's walk over the index (``codes._series``), which turns the shifted
word's i-th R into a U, the row-adding side's rule: read through the staircase
U -> UL, that is [HJS]'s U put into the i-th RR pair of the plain word.  The
code routes read the runs of the index they validated and build no word.
"""

from .core import (
    Composition,
    DomainError,
    SERIES_MAX,
    SignedIndexResult,
    ZERO,
    _Value,
    _check_exact_ints,
    _int_index,
    check_int,
    is_strict_partition,
    signed_result,
    validate_composition,
)
from .codes import _index_of, _index_runs, _series, _signed, _sum_exchanges
from .oracle import _signed_sort


def straighten_Y_perm(parts) -> SignedIndexResult:
    """Straighten by sorting: zero on a repeated entry, else (-1) per out-of-order pair."""
    out = _signed_sort(validate_composition(parts))
    return ZERO if out is None else signed_result(out[0], tuple(out[1]))


def straighten_Y_code(parts) -> SignedIndexResult:
    """Straighten a strict-side index by code-word rewriting (the Q exchange rule)."""
    out = _sum_exchanges(_index_runs(validate_composition(parts)), "q")
    if out is not None and len(set(out[1])) < len(out[1]):
        return ZERO  # equal adjacent rows annihilate (the rows are checked sorted)
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
    n = check_int(n, "degree", 0)
    if not lam or n > lam[0]:
        return signed_result(0, (n,) + lam)
    if n in lam:
        return ZERO
    j = sum(1 for p in lam if p > n)
    return signed_result(j, lam[:j] + (n,) + lam[j:])


def _bracket(lam: Composition, i: int) -> Composition:
    """The i-th bracket-index of a validated strict lam, for ``lambda_bracket``
    and ``shifted.lambda_bracket_shifted``: term i of the series walk, the
    shifted word's i-th R made a U (n = i + b <= i + len(lam) keeps it)."""
    return _series(lam, 1, i, i, i + len(lam), _index_of)[0]


def lambda_bracket(lam, i: int) -> Composition:
    """The i-th bracket-index of a strict index (i = 0 appends a zero row).

    For i >= 1 it inserts the i-th positive value absent from lam: the shifted
    word's i-th R becomes a U (``_bracket``).  ``codecalc verify`` checks this
    code route against the value insertion (suite qvertex, op bracket_code).
    """
    lam = _validated_strict(lam)
    i = check_int(i, "bracket position", 0)
    return _bracket(lam, i)


class QSeriesTerm(_Value):
    """One term of the strict-side operator series: sign * t**n on an index."""

    __slots__ = __match_args__ = ("n", "j", "i", "sign_exp", "index")

    def __new__(cls, n: int, j: int, i: int, sign_exp: int, index: Composition):
        _check_exact_ints(n=n, j=j, i=i, sign_exp=sign_exp)
        return cls._make(n, j, i, sign_exp, _int_index(index))

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

    n runs up from 0.  A value that is not a row of lam goes into slot j,
    below the j rows larger than it, and the slot cursor moves up one slot at
    each row n meets.  The term's sign is (-1)**j.  No code word is read.
    """
    lam = _validated_strict(lam)
    n_max = check_int(n_max, "n_max", 0, SERIES_MAX)
    l = j = len(lam)  # j: the rows >= n, which are positive and strictly decreasing
    terms: list[QSeriesTerm] = []
    for n in range(n_max + 1):
        if j and lam[j - 1] == n:
            j -= 1  # n is a row: no term, and it is below the next n
            continue
        terms.append(QSeriesTerm._make(n, j, n - l + j, j, lam[:j] + (n,) + lam[j:]))
    return terms


def q_series_i_form(lam, i_max: int) -> list[QSeriesTerm]:
    """Series terms i = 0..i_max via bracket-indexes; must agree with the j-form.

    Term i carries index lambda^[i], t-exponent n = |lambda^[i]| - |lam| and
    sign exponent len(lam) + |lam| - |lambda^[i]| + i, the insertion slot of
    n.  Term i turns the i-th R of the shifted word into a U (``_bracket``),
    in one walk of its runs (``codes._series``): with run b holding that R,
    n = i + b goes in below the top l - b rows.
    """
    lam = _validated_strict(lam)
    i_max = check_int(i_max, "i_max", 0, SERIES_MAX)
    # n = i + b is at most i_max + len(lam), so the walk runs to i_max
    return _series(lam, 1, 0, i_max, i_max + len(lam), QSeriesTerm._make)
