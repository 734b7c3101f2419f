"""Row-adding (Bernstein) operator action on partitions and its operator series.

Applying the degree-n operator to a partition either vanishes, prepends n as a
new top row, or (for small n) produces a signed partition read off the code
word by turning one R into a U.  The series expansion of the operator product
is indexed by i >= 1 via the sup-indexes lambda^(i).
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
    is_partition,
    signed_result,
    validate_composition,
)
from .codes import _replace_ith_r, _splice_u, encode_code


def _validated_partition(parts) -> Composition:
    parts = validate_composition(parts)
    if not is_partition(parts):
        raise DomainError(f"{parts!r} is not weakly decreasing")
    return parts


def bn_action(n: int, lam) -> SignedIndexResult:
    """Apply the degree-n row-adding operator to the partition lam.

    For n >= lam_1 the row is prepended with sign +1.  Otherwise the code word
    of lam is inspected k = lam_1 - n letters from its right end: a U there
    (or falling off the word, i.e. n < -len(lam)) annihilates, while an R
    there becomes a U, with one sign flip per U strictly between it and the
    word's final U, plus one more.
    """
    lam = _validated_partition(lam)
    check_int(n, "degree")
    top = lam[0] if lam else 0
    if n >= top:
        return signed_result(0, (n,) + lam)
    word = encode_code(lam).letters
    zidx = len(word) - (top - n)
    if zidx < 0 or word[zidx] == "U":
        return ZERO
    exponent = word[zidx + 1 : -1].count("U") + 1
    new = _splice_u(word, zidx)
    if (
        len(new) != len(lam) + 1
        or sum(new) != sum(lam) + n
        or not is_partition(new)
    ):
        raise InternalInvariantError(f"bad action result {new!r} for n={n}, lam={lam!r}")
    return signed_result(exponent, new)


def lambda_sup(lam, i: int) -> Composition:
    """The i-th sup-index of a partition: i-th R of the code word becomes a U.

    Equivalently, with j the number of rows >= i, subtract 1 from each of the
    first j rows and insert a new row i-1 after them.  ``codecalc verify``
    checks this code route against that closed form (suite bernstein, op
    sup_code).
    """
    lam = _validated_partition(lam)
    check_int(i, "sup-index position", 1)
    return _replace_ith_r(encode_code(lam).letters, i)


def r_index(lam, i: int) -> int:
    """Number of R's left of the i-th U from the right; equals row i (0 past the end)."""
    lam = _validated_partition(lam)
    check_int(i, "row position", 1)
    if i > len(lam):
        return 0
    word = encode_code(lam).letters
    count = 0
    for idx in range(len(word) - 1, -1, -1):
        if word[idx] == "U":
            count += 1
            if count == i:
                break
    return word[:idx].count("R")


class SeriesTerm(_Value):
    """One term of an operator series: sign * t**t_exp attached to an index."""

    __slots__ = __match_args__ = ("family", "i", "t_exp", "sign_exp", "index")

    def __init__(self, family: str, i: int, t_exp: int, sign_exp: int, index: Composition) -> None:
        object.__setattr__(self, "family", family)
        object.__setattr__(self, "i", i)
        object.__setattr__(self, "t_exp", t_exp)
        object.__setattr__(self, "sign_exp", sign_exp)
        object.__setattr__(self, "index", index)

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


def _series(lam: Composition, i_max: int) -> list[SeriesTerm]:
    """Terms i = 1..i_max for a validated partition, encoding it once."""
    word = encode_code(lam).letters
    base = sum(lam)
    terms: list[SeriesTerm] = []
    for i in range(1, i_max + 1):
        index = _replace_ith_r(word, i)
        t_exp = sum(index) - base
        sign_exp = i - 1 - t_exp
        if sign_exp < 0:
            raise InternalInvariantError(f"negative sign exponent at i={i} for {lam!r}")
        terms.append(
            SeriesTerm(family="schur", i=i, t_exp=t_exp, sign_exp=sign_exp, index=index)
        )
    return terms


def bernstein_series(lam, i_max: int) -> list[SeriesTerm]:
    """Terms i = 1..i_max of the row-adding operator series applied to lam.

    Term i carries index lambda^(i), t-exponent |lambda^(i)| - |lam| and sign
    (-1) ** (|lam| - |lambda^(i)| + i - 1).
    """
    lam = _validated_partition(lam)
    check_int(i_max, "i_max", 0, SERIES_MAX)
    return _series(lam, i_max)


def bernstein_series_window(lam, n_max: int) -> list[SeriesTerm]:
    """All series terms with t-exponent <= n_max (the t-exponents below that
    window's floor, -len(lam), never occur)."""
    lam = _validated_partition(lam)
    check_int(n_max, "n_max", None, SERIES_MAX)
    i_max = max(n_max + 1 + len(lam), 0)
    return [t for t in _series(lam, i_max) if t.t_exp <= n_max]
