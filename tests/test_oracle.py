"""Tests for the exponent-sort oracle and exact polynomial arithmetic."""

from __future__ import annotations

import itertools
import random

import pytest

from codecalc import ops, oracle, qvertex, verify
from codecalc.core import DomainError, InternalInvariantError, SignedIndexResult, ZERO


def test_staircase():
    assert oracle.staircase(0) == ()
    assert oracle.staircase(4) == (3, 2, 1, 0)


EXPONENT_CASES = [
    ((), SignedIndexResult(1, ())),
    ((1, 3, 1, 6, 2), SignedIndexResult(1, (3, 3, 3, 2, 2))),
    ((1, 3), SignedIndexResult(-1, (2, 2))),
    ((2, 3), ZERO),
    ((1, 2), ZERO),
    ((0, 2), SignedIndexResult(-1, (1, 1))),
]


@pytest.mark.parametrize("mu,expected", EXPONENT_CASES)
def test_exponent_straighten(mu, expected):
    assert oracle.exponent_straighten(mu) == expected


def test_exponent_straighten_tolerates_negative_entries():
    # (-1, 1): exponents (0, 1) -> sorted (1, 0) -> rows (0, 0), one flip
    assert oracle.exponent_straighten((-1, 1)) == SignedIndexResult(-1, (0, 0))
    assert oracle.exponent_straighten((-1, 0)).is_zero  # exponents (0, 0) collide
    assert oracle.exponent_straighten((-2, 1)) == SignedIndexResult(-1, (0, -1))


def _signed_sort_by_pairs(values):
    """The signed sort written out: a set for repeats, every pair, sorted()."""
    if len(set(values)) < len(values):
        return None
    count = sum(
        1 for i in range(len(values)) for j in range(i + 1, len(values)) if values[i] < values[j]
    )
    return count, sorted(values, reverse=True)


def test_signed_sort_matches_the_pair_count():
    for length in range(8):
        for values in itertools.product(range(-2, 3), repeat=length):
            assert oracle._signed_sort(values) == _signed_sort_by_pairs(values), values


# suite -> the checks with the helper on exactly one side
SIGNED_SORT_CHECKS = {
    "codes": {"straighten_code", "reading_straighten", "reading_raw"},
    "bernstein": {"action_straighten"},
    "qvertex": {"straighten_Y", "yn_straighten"},
    "shifted": {"shifted_straighten"},
    "oracle": {"exponent_vs_code", "vandermonde"},
}


@pytest.mark.parametrize("suite", sorted(SIGNED_SORT_CHECKS))
def test_sweeps_report_a_broken_signed_sort(monkeypatch, suite):
    # the sorting references share one helper; a count off by one must show
    # wherever a sweep compares one of them with a route that does not use it
    signed_sort = oracle._signed_sort

    def off_by_one(values):
        out = signed_sort(values)
        return out and (out[0] + 1, out[1])

    for home in (oracle, qvertex):
        monkeypatch.setattr(home, "_signed_sort", off_by_one)
    # schur_poly caches bialternants; clear them, so none signed by one helper
    # meets one signed by the other
    caches = (oracle._schur_cached, oracle._staircase_bialternant)
    for cache in caches:
        cache.cache_clear()
    try:
        report = verify.SUITES[suite](3, 2)
    finally:
        for cache in caches:
            cache.cache_clear()
    assert {f["input"]["op"] for f in report.failures} == SIGNED_SORT_CHECKS[suite]


def test_int_polynomial_arithmetic():
    x1 = oracle.IntPolynomial.monomial(2, (1, 0))
    x2 = oracle.IntPolynomial.monomial(2, (0, 1))
    p = (x1 + x2) * (x1 - x2)
    assert p == oracle.IntPolynomial(2, {(2, 0): 1, (0, 2): -1})
    assert (p - p).is_zero
    assert not (p - p)
    assert (-p) + p == oracle.IntPolynomial(2)


def test_int_polynomial_drops_zero_coefficients():
    p = oracle.IntPolynomial(2, {(1, 0): 0, (0, 1): 3})
    assert p.terms == {(0, 1): 3}


def test_int_polynomial_render():
    p = oracle.IntPolynomial(2, {(2, 1): 1, (1, 2): -1})
    assert p.render() == "x1^2*x2 - x1*x2^2"
    assert oracle.IntPolynomial(2).render() == "0"
    assert oracle.IntPolynomial(1, {(0,): -7}).render() == "-7"
    assert oracle.IntPolynomial(2, {(1, 1): 3, (0, 0): 1}).render() == "3*x1*x2 + 1"


def test_divexact_round_trips_products():
    rng = random.Random(1)
    for _ in range(50):
        nvars = rng.randint(1, 3)
        def rand_poly():
            terms = {}
            for _ in range(rng.randint(1, 4)):
                key = tuple(rng.randint(0, 3) for _ in range(nvars))
                terms[key] = rng.randint(-3, 3)
            poly = oracle.IntPolynomial(nvars, terms)
            return poly
        a, b = rand_poly(), rand_poly()
        if a.is_zero or b.is_zero:
            continue
        assert (a * b).divexact(b) == a


def test_divexact_rejects_inexact():
    x1 = oracle.IntPolynomial.monomial(2, (1, 0))
    x2 = oracle.IntPolynomial.monomial(2, (0, 1))
    with pytest.raises(InternalInvariantError):
        (x1 * x1 + x2).divexact(x1 + x2)


def test_bialternant_vandermonde():
    for nvars in range(5):
        assert oracle.bialternant(oracle.staircase(nvars)) == oracle.vandermonde_product(
            nvars
        )


def test_bialternant_repeated_exponents_vanish():
    assert oracle.bialternant((3, 3)).is_zero
    assert oracle.bialternant((2, 0, 2)).is_zero


def test_bialternant_column_exchange():
    rng = random.Random(5)
    for _ in range(100):
        n = rng.randint(2, 4)
        exps = tuple(rng.randint(0, 6) for _ in range(n))
        i = rng.randrange(n - 1)
        swapped = list(exps)
        swapped[i], swapped[i + 1] = swapped[i + 1], swapped[i]
        assert oracle.bialternant(tuple(swapped)) == -oracle.bialternant(exps)


SCHUR_CASES = [
    ((1,), 2, "x1 + x2"),
    ((2, 1), 2, "x1^2*x2 + x1*x2^2"),
    ((2, 3), 2, "0"),
    ((1, 1), 2, "x1*x2"),
    ((2,), 2, "x1^2 + x1*x2 + x2^2"),
    ((), 3, "1"),
]


@pytest.mark.parametrize("mu,nvars,rendered", SCHUR_CASES)
def test_schur_poly(mu, nvars, rendered):
    assert oracle.schur_poly(mu, nvars).render() == rendered


def test_schur_poly_rejects_bad_input():
    cases = [((2, 1), 1), ((-1,), 1), ((1,), True), ((2, 1), 2.0), ((1.0,), 1), ((), 9)]
    for parts, nvars in cases:
        with pytest.raises(DomainError):
            ops.run("schur_poly", {"index": parts, "nvars": nvars})


@pytest.mark.parametrize("exponents", [(1.5, 0), (True, False), (-1, 0), (0,) * 9])
def test_bialternant_rejects_bad_exponents(exponents):
    with pytest.raises(DomainError):
        ops.run("bialternant", {"exponents": exponents})


def test_schur_straightening_law_small():
    for length in range(1, 4):
        for mu in itertools.product(range(4), repeat=length):
            result = oracle.exponent_straighten(mu)
            poly = oracle.schur_poly(mu, length)
            if result.is_zero:
                assert poly.is_zero, mu
            else:
                target = oracle.schur_poly(result.index, length)
                assert poly == (target if result.sign > 0 else -target), mu


def test_schur_poly_stability_under_zero_padding():
    assert oracle.schur_poly((2, 1), 3) == oracle.schur_poly((2, 1, 0), 3)
