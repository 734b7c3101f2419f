"""Row-adding (Bernstein) operator action on partitions and its operator series.

Applying the degree-n operator to a partition is one pass of the plain exchange
rule of ``codes``: n goes on top of the code word as a new run, and the
straightened word either vanishes, is (n,) + lam itself, or (for small n) turns
one R into a U.  The series expansion of the operator product is indexed by
i >= 1 via the sup-indexes lambda^(i).  Every route here reads the word's runs
(``codes.CodeWord.runs``), so a call or a series term costs O(rows) whatever
the parts.
"""

from .core import (
    Composition,
    DomainError,
    InternalInvariantError,
    SERIES_MAX,
    SignedIndexResult,
    _Value,
    _check_exact_ints,
    _int_index,
    check_int,
    is_partition,
    validate_composition,
)
from .codes import _replace_ith_r, _rows, _signed, _sum_exchanges, encode_code


def _validated_partition(parts) -> Composition:
    parts = validate_composition(parts)
    if not is_partition(parts):
        raise DomainError(f"{parts!r} is not weakly decreasing")
    return parts


def bn_action(n: int, lam) -> SignedIndexResult:
    """Apply the degree-n row-adding operator to the partition lam.

    One pass of the plain exchange rule: the code word of lam gets one more
    run, the move n - lam_1 of the new top row, and the exchange loop
    straightens it (``codes._exchange_step``).  For n >= lam_1 that run holds
    no L and (n,) + lam comes back with sign +1; otherwise its L's walk left
    to a U (zero), past the word (zero, n < -len(lam)) or to an R that
    becomes a U.
    """
    lam = _validated_partition(lam)
    n = check_int(n, "degree")
    top = lam[0] if lam else 0
    return _signed(_sum_exchanges(encode_code(lam).runs + (n - top,), "plain"))


def lambda_sup(lam, i: int) -> Composition:
    """The i-th sup-index of a partition: i-th R of the code word becomes a U.

    Equivalently, with j the number of rows >= i, subtract 1 from each of the
    first j rows and insert a new row i-1 after them.  ``codecalc verify``
    checks this code route against that closed form (suite bernstein, op
    sup_code).
    """
    lam = _validated_partition(lam)
    i = check_int(i, "sup-index position", 1)
    return _rows(_replace_ith_r(encode_code(lam).runs, i))


def r_index(lam, i: int) -> int:
    """Number of R's left of the i-th U from the right, the moves of the runs
    up to that U; equals row i (0 past the end)."""
    lam = _validated_partition(lam)
    i = check_int(i, "row position", 1)
    if i > len(lam):
        return 0
    return sum(encode_code(lam).runs[: len(lam) - i + 1])


class SeriesTerm(_Value):
    """One term of an operator series: sign * t**t_exp attached to an index."""

    __slots__ = __match_args__ = ("family", "i", "t_exp", "sign_exp", "index")

    def __init__(self, family: str, i: int, t_exp: int, sign_exp: int, index: Composition) -> None:
        if type(family) is not str:
            raise DomainError(f"family must be a str, got {family!r}")
        _check_exact_ints(i=i, t_exp=t_exp, sign_exp=sign_exp)
        object.__setattr__(self, "family", family)
        object.__setattr__(self, "i", i)
        object.__setattr__(self, "t_exp", t_exp)
        object.__setattr__(self, "sign_exp", sign_exp)
        object.__setattr__(self, "index", _int_index(index))

    @property
    def sign(self) -> int:
        return -1 if self.sign_exp % 2 else 1

    def to_dict(self) -> dict:
        return {
            "family": self.family,
            "i": self.i,
            "t_exp": self.t_exp,
            "sign_exp": self.sign_exp,
            "index": list(self.index),
        }


def _series(lam: Composition, i_max: int, t_max: int) -> list[SeriesTerm]:
    """Terms i = 1..i_max for a validated partition, in one pass over its code
    word, up to the first whose t-exponent passes t_max.

    Term i turns the i-th R into a U (``lambda_sup``): with run b of the word
    holding that R, the top l - b rows drop by one and a row i - 1 goes in
    below them.  A cursor walks the runs once as i grows, so each term is one
    C-level copy of the rows.
    """
    runs = encode_code(lam).runs
    rows = _rows(runs)
    lowered = tuple(r - 1 for r in rows)
    l = len(rows)
    b = below = 0  # run b holds the i-th R; below counts the R's of runs[:b]
    terms: list[SeriesTerm] = []
    for i in range(1, i_max + 1):
        while b < l and below + runs[b] < i:
            below += runs[b]
            b += 1
        j = l - b
        t_exp = i - 1 - j  # |index| - |lam|: j rows lose one, a row i - 1 goes in
        if t_exp > t_max:
            break
        index = lowered[:j] + (i - 1,) + rows[j:]
        # the new row sits between its neighbours, so the term is a partition
        if (j and lowered[j - 1] < i - 1) or (j < l and rows[j] > i - 1):
            raise InternalInvariantError(f"sup-index off at i={i} for {lam!r}: {index!r}")
        terms.append(SeriesTerm._make("schur", i, t_exp, j, index))
    return terms


def bernstein_series(lam, i_max: int) -> list[SeriesTerm]:
    """Terms i = 1..i_max of the row-adding operator series applied to lam.

    Term i carries index lambda^(i), t-exponent |lambda^(i)| - |lam| and sign
    (-1) ** (|lam| - |lambda^(i)| + i - 1).
    """
    lam = _validated_partition(lam)
    i_max = check_int(i_max, "i_max", 0, SERIES_MAX)
    return _series(lam, i_max, i_max)  # every t-exponent is below i


def bernstein_series_window(lam, n_max: int) -> list[SeriesTerm]:
    """All series terms with t-exponent <= n_max, in order of i.

    The t-exponents strictly increase in i: t(i + 1) - t(i) = 1 + #{rows >= i}
    - #{rows >= i + 1} >= 1.  So the window is the terms before the first
    t-exponent past n_max, where the walk stops; t(i) >= i - 1 - len(lam) puts
    every term in it at i <= n_max + 1 + len(lam).  The t-exponents below the
    window's floor, -len(lam), never occur.
    """
    lam = _validated_partition(lam)
    n_max = check_int(n_max, "n_max", None, SERIES_MAX)
    return _series(lam, n_max + 1 + len(lam), n_max)
