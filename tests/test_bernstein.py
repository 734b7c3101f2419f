"""Tests for the row-adding operator action, sup-indexes and the series."""

from __future__ import annotations

import pytest

from codecalc import bernstein, codes
from codecalc.core import DomainError, InternalInvariantError, SignedIndexResult, ZERO
from codecalc.verify import _sup_closed, partitions


ACTION_CASES = [
    (1, (3, 1), SignedIndexResult(-1, (2, 2, 1))),
    (4, (2,), SignedIndexResult(1, (4, 2))),
    (2, (3, 1), ZERO),
    (-3, (2,), ZERO),
    (-1, (1,), SignedIndexResult(-1, (0, 0))),
    (0, (2, 0), SignedIndexResult(-1, (1, 1, 0))),
    (3, (), SignedIndexResult(1, (3,))),
    (0, (), SignedIndexResult(1, (0,))),
    (-1, (), ZERO),
]


@pytest.mark.parametrize("n,lam,expected", ACTION_CASES)
def test_bn_action(n, lam, expected):
    assert bernstein.bn_action(n, lam) == expected


def test_bn_action_rejects_non_partition():
    with pytest.raises(DomainError):
        bernstein.bn_action(1, (1, 2))


def test_bn_action_matches_straighten():
    for lam in partitions(4, 3):
        for n in range(0, 7):
            assert bernstein.bn_action(n, lam) == codes.straighten_B((n,) + lam)


def test_bn_action_is_guarded_by_the_exchange_loop(monkeypatch):
    # the action runs the plain rule of codes.RULES, so a step that adds an
    # empty top row is caught by the loop's final row-count check
    word_type, find, step = codes.RULES["plain"]

    def extra_row(word, j):
        out = step(word, j)
        return out and (out[0], out[1] + (0,))

    monkeypatch.setitem(codes.RULES, "plain", (word_type, find, extra_row))
    with pytest.raises(InternalInvariantError):
        bernstein.bn_action(1, (3, 1))


def test_vanishing_degrees():
    for lam in partitions(4, 3):
        l = len(lam)
        vanish = {lam[j] - (j + 1) for j in range(l)}
        for n in range(-l - 2, 7):
            assert bernstein.bn_action(n, lam).is_zero == (n in vanish or n < -l), (
                n,
                lam,
            )


SUP_CASES = [
    ((2, 1), 2, (1, 1, 1)),
    ((2, 1), 3, (2, 2, 1)),
    ((), 4, (3,)),
    ((), 1, (0,)),
    ((2, 0), 1, (1, 0, 0)),
    ((3, 1), 1, (2, 0, 0)),
    # far into the R-tail; the 10**12-letter word this position names is never built
    ((3, 1), 10**12, (10**12 - 1, 3, 1)),
]


@pytest.mark.parametrize("lam,i,expected", SUP_CASES)
def test_lambda_sup(lam, i, expected):
    assert bernstein.lambda_sup(lam, i) == expected


def test_lambda_sup_code_route_matches_closed_form():
    # lambda_sup returns the code route; compare it with the closed form
    for lam in partitions(5, 4):
        for i in range(1, 12):
            j = sum(1 for p in lam if p >= i)
            closed = tuple(p - 1 for p in lam[:j]) + (i - 1,) + lam[j:]
            assert bernstein.lambda_sup(lam, i) == closed, (lam, i)


def test_lambda_sup_rejects_bad_i():
    with pytest.raises(DomainError):
        bernstein.lambda_sup((2, 1), 0)


def test_r_index():
    assert bernstein.r_index((4, 2, 2, 1), 1) == 4
    assert bernstein.r_index((4, 2, 2, 1), 3) == 2
    assert bernstein.r_index((4, 2, 2, 1), 9) == 0
    for lam in partitions(4, 3):
        for i in range(1, len(lam) + 3):
            expected = lam[i - 1] if i <= len(lam) else 0
            assert bernstein.r_index(lam, i) == expected


def test_series_empty_partition():
    terms = bernstein.bernstein_series((), 4)
    assert [(t.sign, t.t_exp, t.index) for t in terms] == [
        (1, 0, (0,)),
        (1, 1, (1,)),
        (1, 2, (2,)),
        (1, 3, (3,)),
    ]


def test_series_single_row():
    terms = bernstein.bernstein_series((1,), 3)
    assert [(t.sign, t.t_exp, t.index) for t in terms] == [
        (-1, -1, (0, 0)),
        (1, 1, (1, 1)),
        (1, 2, (2, 1)),
    ]
    assert [t.i for t in terms] == [1, 2, 3]
    assert all(t.family == "schur" for t in terms)


def test_series_terms_reproduce_action():
    for lam in partitions(4, 3):
        window = bernstein.bernstein_series_window(lam, 6)
        by_exp = {t.t_exp: t for t in window}
        assert len(by_exp) == len(window)  # t-exponents are distinct
        for n in range(-len(lam) - 2, 7):
            action = bernstein.bn_action(n, lam)
            term = by_exp.get(n)
            if term is None:
                assert action.is_zero, (lam, n)
            else:
                assert action == SignedIndexResult(term.sign, term.index), (lam, n)


def test_series_tail_terms_match_closed_form():
    # every partition here stores at most 5 R's, so most terms lie in the R-tail
    for lam in partitions(5, 3):
        terms = bernstein.bernstein_series(lam, 40)
        assert [t.index for t in terms] == [_sup_closed(lam, i) for i in range(1, 41)]


def test_series_terms_are_the_sup_indexes():
    # the one-pass walk against the per-position route, into the R-tail
    for lam in partitions(7, 5):
        i_max = (lam[0] if lam else 0) + len(lam) + 3
        terms = bernstein.bernstein_series(lam, i_max)
        assert [t.i for t in terms] == list(range(1, i_max + 1))
        sups = [bernstein.lambda_sup(lam, i) for i in range(1, i_max + 1)]
        assert [t.index for t in terms] == sups, lam


def test_window_is_the_series_filtered_and_rising():
    for lam in partitions(7, 5):
        for n in range(-len(lam) - 2, 10):
            window = bernstein.bernstein_series_window(lam, n)
            full = bernstein.bernstein_series(lam, max(n + 1 + len(lam), 0))
            assert window == [t for t in full if t.t_exp <= n], (lam, n)
            exps = [t.t_exp for t in window]
            assert all(a < b for a, b in zip(exps, exps[1:])), (lam, n)


def test_series_term_dict_shape():
    (term,) = bernstein.bernstein_series((), 1)
    assert term.to_dict() == {
        "family": "schur",
        "i": 1,
        "t_exp": 0,
        "sign_exp": 0,
        "index": [0],
    }
