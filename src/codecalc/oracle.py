"""Independent cross-checks: exponent-sort straightening and bialternant quotients.

Nothing here touches the letter-word machinery.  The straightening oracle works
by sorting shifted exponents; the polynomial oracle evaluates alternating sums
of monomials exactly over the integers and divides them.  Both exist so the
code-word routes can be checked against genuinely different arithmetic.
"""

from bisect import bisect_left
from functools import lru_cache
from itertools import combinations, permutations

from .core import (
    Composition,
    DomainError,
    InternalInvariantError,
    SignedIndexResult,
    ZERO,
    check_int,
    signed_result,
    validate_composition,
)


# the most variables a bialternant or Schur polynomial takes: both sum over
# all n! permutations, 8! = 40,320 of them (under a second)
MAX_VARS = 8


def staircase(length: int) -> Composition:
    """The strictly decreasing shift (length-1, ..., 1, 0)."""
    return tuple(range(length - 1, -1, -1))


def _signed_sort(values):
    """(pairs i < j with values[i] < values[j], values sorted descending), or
    None on a repeated value: one pass from the right, placing each value in
    the sorted list of those to its right (Knuth, TAOCP vol. 3, 5.1.1)."""
    seen: list = []
    count = 0
    for v in reversed(values):
        at = bisect_left(seen, v)
        if at < len(seen) and seen[at] == v:
            return None
        count += len(seen) - at
        seen.insert(at, v)
    return count, seen[::-1]


def exponent_straighten(parts) -> SignedIndexResult:
    """Straighten by sorting shifted exponents.

    Add the staircase, annihilate on a repeated exponent, otherwise sort
    descending and subtract the staircase again; the sign is (-1) per pair out
    of order.  Tolerates negative entries.
    """
    parts = validate_composition(parts, minimum=None)
    shifts = staircase(len(parts))
    out = _signed_sort([p + s for p, s in zip(parts, shifts)])
    if out is None:
        return ZERO
    inversions, exps = out
    return signed_result(inversions, tuple(e - s for e, s in zip(exps, shifts)))


class IntPolynomial:
    """Polynomial in x1..xn with integer coefficients, keyed by exponent tuples.

    Instances are treated as immutable; zero coefficients are never stored.
    """

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms=None):
        self.nvars = nvars
        clean: dict[tuple[int, ...], int] = {}
        for key, coeff in (terms or {}).items():
            key = tuple(key)
            if len(key) != nvars or any(e < 0 for e in key):
                raise DomainError(f"bad exponent vector {key!r} for {nvars} variables")
            if coeff:
                clean[key] = coeff
        self.terms = clean

    @classmethod
    def monomial(cls, nvars: int, exponents, coeff: int = 1) -> "IntPolynomial":
        return cls(nvars, {tuple(exponents): coeff})

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, IntPolynomial)
            and self.nvars == other.nvars
            and self.terms == other.terms
        )

    __hash__ = None

    def __neg__(self) -> "IntPolynomial":
        return IntPolynomial(self.nvars, {k: -c for k, c in self.terms.items()})

    def __add__(self, other: "IntPolynomial") -> "IntPolynomial":
        if self.nvars != other.nvars:
            raise DomainError("variable counts differ")
        acc = dict(self.terms)
        for k, c in other.terms.items():
            acc[k] = acc.get(k, 0) + c
        return IntPolynomial(self.nvars, acc)

    def __sub__(self, other: "IntPolynomial") -> "IntPolynomial":
        return self + (-other)

    def __mul__(self, other: "IntPolynomial") -> "IntPolynomial":
        if self.nvars != other.nvars:
            raise DomainError("variable counts differ")
        acc: dict[tuple[int, ...], int] = {}
        for k1, c1 in self.terms.items():
            for k2, c2 in other.terms.items():
                key = tuple(a + b for a, b in zip(k1, k2))
                acc[key] = acc.get(key, 0) + c1 * c2
        return IntPolynomial(self.nvars, acc)

    def divexact(self, divisor: "IntPolynomial") -> "IntPolynomial":
        """Exact division via lex leading terms; raises if not exactly divisible."""
        if divisor.is_zero:
            raise DomainError("division by the zero polynomial")
        if self.nvars != divisor.nvars:
            raise DomainError("variable counts differ")
        dlead = max(divisor.terms)
        dcoeff = divisor.terms[dlead]
        remainder = dict(self.terms)
        quotient: dict[tuple[int, ...], int] = {}
        while remainder:
            rlead = max(remainder)
            rcoeff = remainder[rlead]
            qkey = tuple(a - b for a, b in zip(rlead, dlead))
            if any(e < 0 for e in qkey) or rcoeff % dcoeff:
                raise InternalInvariantError("polynomial division is not exact")
            qcoeff = rcoeff // dcoeff
            quotient[qkey] = qcoeff
            for k, c in divisor.terms.items():
                key = tuple(a + b for a, b in zip(qkey, k))
                val = remainder.get(key, 0) - qcoeff * c
                if val:
                    remainder[key] = val
                else:
                    remainder.pop(key, None)
        return IntPolynomial(self.nvars, quotient)

    def render(self) -> str:
        """Human-readable form in graded-lex order, e.g. "x1^2*x2 - x1*x2^2"."""
        if not self.terms:
            return "0"
        keys = sorted(
            self.terms, key=lambda k: (-sum(k), tuple(-e for e in k))
        )
        pieces: list[str] = []
        for key in keys:
            coeff = self.terms[key]
            vars_part = "*".join(
                f"x{i + 1}" if e == 1 else f"x{i + 1}^{e}"
                for i, e in enumerate(key)
                if e
            )
            if not vars_part:
                body = str(abs(coeff))
            elif abs(coeff) == 1:
                body = vars_part
            else:
                body = f"{abs(coeff)}*{vars_part}"
            if not pieces:
                pieces.append(body if coeff > 0 else f"-{body}")
            else:
                pieces.append(f"+ {body}" if coeff > 0 else f"- {body}")
        return " ".join(pieces)

    def __repr__(self) -> str:
        return f"IntPolynomial({self.nvars}, {self.render()!r})"


def _permutation_sign(perm) -> int:
    # the pairs in order in the reversed permutation are its inversions
    return -1 if _signed_sort(perm[::-1])[0] % 2 else 1


def bialternant(exponents) -> IntPolynomial:
    """Alternating sum over all permutations of a monomial's exponent vector.

    The exponents must be at most ``MAX_VARS`` ints >= 0; anything else, bools
    included, raises DomainError.  Repeated exponents cancel to the zero
    polynomial on their own.
    """
    exponents = validate_composition(exponents)
    n = len(exponents)
    if n > MAX_VARS:
        raise DomainError(f"a bialternant takes at most {MAX_VARS} exponents, got {n}")
    acc: dict[tuple[int, ...], int] = {}
    for perm in permutations(range(n)):
        key = tuple(exponents[p] for p in perm)
        acc[key] = acc.get(key, 0) + _permutation_sign(perm)
    return IntPolynomial(n, acc)


def vandermonde_product(nvars: int) -> IntPolynomial:
    """The expanded product of (x_i - x_j) over all i < j."""
    result = IntPolynomial(nvars, {(0,) * nvars: 1})
    for i, j in combinations(range(nvars), 2):
        xi = [0] * nvars
        xi[i] = 1
        xj = [0] * nvars
        xj[j] = 1
        diff = IntPolynomial(nvars, {tuple(xi): 1, tuple(xj): -1})
        result = result * diff
    return result


@lru_cache(maxsize=None)
def _staircase_bialternant(nvars: int) -> IntPolynomial:
    return bialternant(staircase(nvars))


@lru_cache(maxsize=None)
def _schur_cached(parts: Composition, nvars: int) -> IntPolynomial:
    padded = parts + (0,) * (nvars - len(parts))
    shifts = staircase(nvars)
    numerator = bialternant(tuple(p + s for p, s in zip(padded, shifts)))
    if numerator.is_zero:
        return IntPolynomial(nvars)
    return numerator.divexact(_staircase_bialternant(nvars))


def schur_poly(parts, nvars: int) -> IntPolynomial:
    """Schur polynomial of an index in x1..xnvars, as a bialternant quotient.

    Accepts any index of ints >= 0 (not just partitions) and an int nvars from
    len(parts) to ``MAX_VARS``; anything else, bools included, raises
    DomainError.  Out-of-order indexes come out as the signed straightened
    polynomial, repeated shifted exponents as the zero polynomial.
    """
    parts = validate_composition(parts)
    check_int(nvars, "nvars", len(parts), MAX_VARS)
    return _schur_cached(parts, nvars)
