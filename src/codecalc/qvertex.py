"""Strict-index straightening (Schur-Q side) and the vertex-operator series.

Products of the degree-n operators here anticommute, and a repeated degree
annihilates, so straightening an index is signed sorting into a strictly
decreasing index (possibly with one trailing zero row).  The same result is
computed two independent ways: by counting out-of-order pairs directly, and by
rewriting the code word.
"""

from .core import (
    Composition,
    DomainError,
    InternalInvariantError,
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
from .codes import _rows, _signed, encode_code, straighten_code_trace
from .oracle import _signed_sort


def straighten_Y_perm(parts) -> SignedIndexResult:
    """Straighten by sorting: zero on a repeated entry, else (-1) per out-of-order pair."""
    out = _signed_sort(validate_composition(parts))
    return ZERO if out is None else signed_result(out[0], tuple(out[1]))


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
    n = check_int(n, "degree", 0)
    if not lam or n > lam[0]:
        return signed_result(0, (n,) + lam)
    if n in lam:
        return ZERO
    j = sum(1 for p in lam if p > n)
    return signed_result(j, lam[:j] + (n,) + lam[j:])


def _bracket_by_code(runs, i: int):
    """Runs of a word without L's with a U inserted into its i-th adjacent
    R-pair.

    Pairs are counted left to right, overlaps allowed (a run of d R's holds
    d - 1 of them), continuing into the implicit R-tail past the word's end;
    i = 0 puts the U before the first R.
    """
    for b, d in enumerate(runs):
        if i < d:
            return runs[:b] + (i, d - i) + runs[b + 1 :]
        i -= max(d - 1, 0)
    return runs + (i,)


def lambda_bracket(lam, i: int) -> Composition:
    """The i-th bracket-index of a strict index (i = 0 appends a zero row).

    A U goes into the i-th RR pair of the code word, which for i >= 1 inserts
    the i-th positive value absent from lam (i = 0 puts it before the first R).
    ``codecalc verify`` checks this code route against the value insertion
    (suite qvertex, op bracket_code).
    """
    lam = _validated_strict(lam)
    i = check_int(i, "bracket position", 0)
    return _rows(_bracket_by_code(encode_code(lam).runs, i))


class QSeriesTerm(_Value):
    """One term of the strict-side operator series: sign * t**n on an index."""

    __slots__ = __match_args__ = ("n", "j", "i", "sign_exp", "index")

    def __init__(self, n: int, j: int, i: int, sign_exp: int, index: Composition) -> None:
        _check_exact_ints(n=n, j=j, i=i, sign_exp=sign_exp)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "j", j)
        object.__setattr__(self, "i", i)
        object.__setattr__(self, "sign_exp", sign_exp)
        object.__setattr__(self, "index", _int_index(index))

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
    sign exponent len(lam) + |lam| - |lambda^[i]| + i, which is checked to be
    the insertion slot of n on every call.  Term i puts a U into the i-th RR
    pair of the code word (``lambda_bracket``): with run b of the word holding
    that pair, the new row n goes in below the top l - b rows.  A cursor walks
    the runs once as i grows, so each term is one C-level copy of the rows.
    """
    lam = _validated_strict(lam)
    i_max = check_int(i_max, "i_max", 0, SERIES_MAX)
    runs = encode_code(lam).runs
    rows = _rows(runs)
    l = len(rows)
    # run b holds the i-th RR pair (a run of d R's holds d - 1 of them);
    # below counts the R's and pairs the pairs of runs[:b]
    b = below = pairs = 0
    terms: list[QSeriesTerm] = []
    for i in range(i_max + 1):
        while b < l and i - pairs >= runs[b]:
            below += runs[b]
            pairs += runs[b] - 1
            b += 1
        n = below + i - pairs
        index = rows[: l - b] + (n,) + rows[l - b :]
        sign_exp = l - n + i
        if sign_exp != index.index(n):
            raise InternalInvariantError(
                f"series bookkeeping off at i={i} for {lam!r}: {index!r}"
            )
        terms.append(QSeriesTerm._make(n, sign_exp, i, sign_exp, index))
    return terms
