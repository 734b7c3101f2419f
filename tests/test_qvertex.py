"""Tests for strict-side straightening, the action law and both series forms."""

from __future__ import annotations

import itertools

import pytest

from codecalc import codes, qvertex
from codecalc.core import DomainError, SignedIndexResult, ZERO, negate
from codecalc.verify import _bracket_by_values, strict_partitions


PERM_CASES = [
    ((), SignedIndexResult(1, ())),
    ((3,), SignedIndexResult(1, (3,))),
    ((3, 3), ZERO),
    ((2, 3), SignedIndexResult(-1, (3, 2))),
    ((1, 3, 2), SignedIndexResult(1, (3, 2, 1))),
    ((0, 2), SignedIndexResult(-1, (2, 0))),
    ((2, 0, 3), SignedIndexResult(1, (3, 2, 0))),
    ((0, 0, 2), ZERO),
    # two zero rows annihilate, as README states; Schur's Pfaffian
    # (Q_(0,0) = 1) would answer Q[] and Q[1]
    ((0, 0), ZERO),
    ((1, 0, 0), ZERO),
]


@pytest.mark.parametrize("mu,expected", PERM_CASES)
def test_straighten_Y_both_routes(mu, expected):
    assert qvertex.straighten_Y_perm(mu) == expected
    assert qvertex.straighten_Y_code(mu) == expected


def test_straighten_routes_agree_sweep():
    for length in range(5):
        for mu in itertools.product(range(5), repeat=length):
            assert qvertex.straighten_Y_perm(mu) == qvertex.straighten_Y_code(mu), mu


def test_q_trace_gives_the_rows_before_the_equal_rows_zero():
    # straighten_code_trace's Q rule stops at the loop's rows; straighten_Y_code
    # then annihilates equal rows
    assert codes.straighten_code_trace(codes.encode_code((2, 1, 2)), "q") == (1, (2, 2, 1))
    assert qvertex.straighten_Y_code((2, 1, 2)) == ZERO


def test_anticommutation():
    for m in range(6):
        for n in range(6):
            if m != n:
                assert qvertex.straighten_Y_perm((m, n)) == negate(
                    qvertex.straighten_Y_perm((n, m))
                )


YN_CASES = [
    (2, (3,), SignedIndexResult(-1, (3, 2))),
    (0, (2, 1), SignedIndexResult(1, (2, 1, 0))),
    (3, (3,), ZERO),
    (5, (3, 1), SignedIndexResult(1, (5, 3, 1))),
    (0, (), SignedIndexResult(1, (0,))),
]


@pytest.mark.parametrize("n,lam,expected", YN_CASES)
def test_yn_action(n, lam, expected):
    assert qvertex.yn_action(n, lam) == expected


def test_yn_action_matches_straightening():
    for lam in strict_partitions(6, 4):
        for n in range(0, 8):
            assert qvertex.yn_action(n, lam) == qvertex.straighten_Y_perm((n,) + lam)


def test_yn_action_domain():
    with pytest.raises(DomainError):
        qvertex.yn_action(-1, (3,))
    with pytest.raises(DomainError):
        qvertex.yn_action(2, (3, 3))
    with pytest.raises(DomainError):
        qvertex.yn_action(2, (3, 0))  # rows must be positive


BRACKET_CASES = [
    ((3, 1), 1, (3, 2, 1)),
    ((3, 1), 2, (4, 3, 1)),
    ((3,), 0, (3, 0)),
    ((), 2, (2,)),
    ((), 1, (1,)),
    ((3,), 3, (4, 3)),
    # far into the R-tail; the 10**12-letter word this position names is never built
    ((3, 1), 10**12, (10**12 + 2, 3, 1)),
]


@pytest.mark.parametrize("lam,i,expected", BRACKET_CASES)
def test_lambda_bracket(lam, i, expected):
    assert qvertex.lambda_bracket(lam, i) == expected == _bracket_by_values(lam, i)


def test_lambda_bracket_inserts_absent_values():
    # lambda_bracket returns the code route; compare it with the value form
    for lam in strict_partitions(6, 4):
        present = set(lam)
        absent = [v for v in range(1, 11 + len(lam)) if v not in present]
        for i in range(1, 11):
            out = qvertex.lambda_bracket(lam, i)
            assert out == tuple(sorted(lam + (absent[i - 1],), reverse=True)), (lam, i)


def test_q_series_j_form_single_row():
    terms = qvertex.q_series_j_form((2,), 3)
    assert [(t.sign, t.n, t.i, t.index) for t in terms] == [
        (-1, 0, 0, (2, 0)),
        (-1, 1, 1, (2, 1)),
        (1, 3, 2, (3, 2)),
    ]


def test_q_series_i_form_single_row():
    terms = qvertex.q_series_i_form((2,), 3)
    assert [(t.sign, t.n, t.i, t.index) for t in terms] == [
        (-1, 0, 0, (2, 0)),
        (-1, 1, 1, (2, 1)),
        (1, 3, 2, (3, 2)),
        (1, 4, 3, (4, 2)),
    ]


def test_q_series_empty_partition():
    terms = qvertex.q_series_j_form((), 3)
    assert [(t.sign, t.n, t.index) for t in terms] == [
        (1, 0, (0,)),
        (1, 1, (1,)),
        (1, 2, (2,)),
        (1, 3, (3,)),
    ]


def test_q_series_forms_agree():
    for lam in strict_partitions(6, 4):
        n_max = (lam[0] if lam else 0) + 4
        j_terms = qvertex.q_series_j_form(lam, n_max)
        i_terms = [
            t for t in qvertex.q_series_i_form(lam, n_max + len(lam)) if t.n <= n_max
        ]
        assert [t.to_dict() for t in j_terms] == sorted(
            (t.to_dict() for t in i_terms), key=lambda d: d["t_exp"]
        )


def test_q_series_terms_match_action():
    for lam in strict_partitions(6, 4):
        for term in qvertex.q_series_j_form(lam, (lam[0] if lam else 0) + 4):
            assert qvertex.yn_action(term.n, lam) == SignedIndexResult(
                term.sign, term.index
            )


def test_q_series_tail_terms_match_value_insertion():
    # every index here has at most 5 RR pairs, so most terms lie in the R-tail
    for lam in strict_partitions(6, 3):
        terms = qvertex.q_series_i_form(lam, 40)[1:]
        expected = [_bracket_by_values(lam, i) for i in range(1, 41)]
        assert [t.index for t in terms] == expected, lam


def test_q_series_i_form_terms_are_the_bracket_indexes():
    # the one-pass walk against the per-position route, into the R-tail
    for lam in strict_partitions(9, 5):
        i_max = (lam[0] if lam else 0) + 3
        terms = qvertex.q_series_i_form(lam, i_max)
        assert [t.i for t in terms] == list(range(i_max + 1))
        assert [t.index for t in terms[1:]] == [
            qvertex.lambda_bracket(lam, i) for i in range(1, i_max + 1)
        ], lam


def test_q_series_term_dict_shape():
    (term,) = qvertex.q_series_j_form((), 0)
    assert term.to_dict() == {
        "family": "schurQ",
        "i": 0,
        "j": 0,
        "t_exp": 0,
        "sign_exp": 0,
        "index": [0],
    }
