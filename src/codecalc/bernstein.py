"""Row-adding (Bernstein) operator action on partitions and its operator series.

Applying the degree-n operator to a partition is one pass of the plain exchange
rule of ``codes``: n goes on top of the code word as a new run, and the
straightened word either vanishes, is (n,) + lam itself, or (for small n) turns
one R into a U.  The series expansion of the operator product is indexed by
i >= 1 via the sup-indexes lambda^(i): term i turns the i-th R into a U, in
one walk of the word (``codes._series``) that the Schur-Q i-form shares.  Every
route here reads the runs of the partition it validated (``codes._index_runs``)
and builds no word, so a call or a series term costs O(rows) whatever the
parts.
"""

from functools import partial

from .core import (
    Composition,
    DomainError,
    SERIES_MAX,
    SignedIndexResult,
    _Value,
    _check_exact_ints,
    _int_index,
    check_int,
    is_partition,
    validate_composition,
)
from .codes import _index_runs, _replace_ith_r, _rows, _series, _signed, _sum_exchanges


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
    return _signed(_sum_exchanges(_index_runs(lam) + (n - top,), "plain"))


def lambda_sup(lam, i: int) -> Composition:
    """The i-th sup-index of a partition: i-th R of the code word becomes a U.

    Equivalently, with j the number of rows >= i, subtract 1 from each of the
    first j rows and insert a new row i-1 after them.  ``codecalc verify``
    checks this code route against that closed form (suite bernstein, op
    sup_code).
    """
    lam = _validated_partition(lam)
    i = check_int(i, "sup-index position", 1)
    return _rows(_replace_ith_r(_index_runs(lam), i))


def r_index(lam, i: int) -> int:
    """Number of R's left of the i-th U from the right, the moves of the runs
    up to that U; equals row i (0 past the end)."""
    lam = _validated_partition(lam)
    i = check_int(i, "row position", 1)
    if i > len(lam):
        return 0
    return sum(_index_runs(lam)[: len(lam) - i + 1])


class SeriesTerm(_Value):
    """One term of an operator series: sign * t**t_exp attached to an index."""

    __slots__ = __match_args__ = ("family", "i", "t_exp", "sign_exp", "index")

    def __new__(cls, family: str, i: int, t_exp: int, sign_exp: int, index: Composition):
        if type(family) is not str:
            raise DomainError(f"family must be a str, got {family!r}")
        _check_exact_ints(i=i, t_exp=t_exp, sign_exp=sign_exp)
        return cls._make(family, i, t_exp, sign_exp, _int_index(index))

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


# a term of the series walk (``codes._series``) as a SeriesTerm
_schur_term = partial(SeriesTerm._make, "schur")


def bernstein_series(lam, i_max: int) -> list[SeriesTerm]:
    """Terms i = 1..i_max of the row-adding operator series applied to lam.

    Term i carries index lambda^(i), t-exponent |lambda^(i)| - |lam| and sign
    (-1) ** (|lam| - |lambda^(i)| + i - 1).
    """
    lam = _validated_partition(lam)
    i_max = check_int(i_max, "i_max", 0, SERIES_MAX)
    # every t-exponent is below i, so t_max = i_max cuts no term
    return _series(_index_runs(lam), 0, 1, i_max, i_max, _schur_term)


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
    return _series(_index_runs(lam), 0, 1, n_max + 1 + len(lam), n_max, _schur_term)
