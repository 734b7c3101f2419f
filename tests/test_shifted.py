"""Tests for shifted codes, preshifting and the shared straightening rule."""

from __future__ import annotations

import itertools

import pytest

from codecalc import codes, qvertex, shifted
from codecalc.core import DomainError, InvalidCodeError, SignedIndexResult


ENCODE_CASES = [
    ((), ""),
    ((1,), "U"),
    ((4, 2, 1), "UURU"),
    ((2, 3, 1), "URULLU"),
    ((2, 3), "RRULLU"),
    ((5, 2), "RURRU"),
]


@pytest.mark.parametrize("parts,letters", ENCODE_CASES)
def test_encode_shifted(parts, letters):
    assert shifted.encode_shifted(parts).letters == letters


@pytest.mark.parametrize("parts,letters", ENCODE_CASES)
def test_decode_shifted(parts, letters):
    assert shifted.decode_shifted(letters) == parts


def test_encode_shifted_requires_positive_rows():
    with pytest.raises(DomainError):
        shifted.encode_shifted((2, 0))


def test_shifted_word_rejects_malformed():
    for letters in ["RL", "LU", "RUR", "ULLU"]:  # ULLU has a zero row
        with pytest.raises(InvalidCodeError):
            shifted.ShiftedCodeWord(letters)


def test_shifted_word_accepts_repeated_rows():
    # (2, 1) and (1, 1) are fine as words; only straightening cares about order
    assert shifted.decode_shifted("UU") == (2, 1)
    assert shifted.decode_shifted("ULU") == (1, 1)
    assert shifted.shifted_straighten("ULU").is_zero


def test_round_trip_sweep():
    for length in range(4):
        for mu in itertools.product(range(1, 6), repeat=length):
            assert shifted.decode_shifted(shifted.encode_shifted(mu)) == mu


def test_l_free_words_are_strict():
    for length in range(4):
        for lam in itertools.combinations(range(6, 0, -1), length):
            assert "L" not in shifted.encode_shifted(lam).letters


STRAIGHTEN_CASES = [
    ("RRULLU", SignedIndexResult(-1, (3, 2))),  # rows (2, 3)
    ("RRULU", SignedIndexResult(0)),  # rows (3, 3)
    ("UURU", SignedIndexResult(1, (4, 2, 1))),
    ("", SignedIndexResult(1, ())),
]


@pytest.mark.parametrize("letters,expected", STRAIGHTEN_CASES)
def test_shifted_straighten(letters, expected):
    assert shifted.shifted_straighten(letters) == expected


def test_shifted_straighten_matches_perm_route():
    for length in range(1, 5):
        for mu in itertools.product(range(1, 6), repeat=length):
            got = shifted.shifted_straighten(shifted.encode_shifted(mu))
            assert got == qvertex.straighten_Y_perm(mu), mu


PRESHIFT_CASES = [
    ("RURURRU", "UURU"),  # rows (4, 2, 1)
    ("RURRULU", "URULLU"),  # rows (2, 3, 1)
    ("", ""),
    ("RU", "U"),  # rows (1,)
]


@pytest.mark.parametrize("plain,expected", PRESHIFT_CASES)
def test_preshift(plain, expected):
    out = shifted.preshift(plain)
    assert out.letters == expected
    assert out.strip_prefix() == shifted.ShiftedCodeWord(expected)


def test_preshift_str_shows_staircase_prefix():
    assert str(shifted.preshift("RURURRU")) == "...ULULUUURU"


def test_preshift_matches_encode_shifted_sweep():
    for length in range(4):
        for mu in itertools.product(range(1, 6), repeat=length):
            out = shifted.preshift(codes.encode_code(mu))
            assert out.strip_prefix() == shifted.encode_shifted(mu), mu


def test_preshift_rejects_zero_rows():
    with pytest.raises(DomainError):
        shifted.preshift(codes.encode_code((2, 0)))


def _step_trace(runs, rule):
    """Each step of ``rule`` from ``runs``: (sign exponent mod 2, rows), and
    whether the loop ended by annihilating."""
    shift = codes.RULES[rule][0].shift
    steps = []
    out = codes._sum_exchanges(
        runs, rule, lambda exponent, new: steps.append((exponent % 2, codes._rows(new, shift)))
    )
    return steps, out is None


def test_preshift_relates_the_q_rule_to_the_shifted_rule_step_by_step():
    # The relation of the paper, step by step: the Q rule on a plain word and
    # the shifted rule on its preshift take the same steps when the parts are
    # distinct; with a repeated part the shifted rule takes a prefix of the Q
    # rule's steps and then annihilates.
    distinct = repeated = 0
    for length in range(6):
        for mu in itertools.product(range(1, 8), repeat=length):
            word = codes.encode_code(mu)
            q_steps, q_zero = _step_trace(word.runs, "q")
            s_steps, s_zero = _step_trace(shifted.preshift(word).runs, "shifted")
            if len(set(mu)) == length:
                assert (s_steps, s_zero) == (q_steps, q_zero), mu
                distinct += 1
            else:
                assert s_zero and s_steps == q_steps[: len(s_steps)], mu
                repeated += 1
    assert (distinct, repeated) == (3620, 15988)


def _u_into_ith_rr_pair(runs, i: int):
    """[HJS]'s rule on a plain word without L's: runs with a U inserted into
    its i-th adjacent R-pair.

    Pairs are counted left to right, overlaps allowed (a run of d R's holds
    d - 1 of them), continuing into the implicit R-tail past the word's end;
    i = 0 puts the U before the first R.  The package reads the shifted word
    instead (its i-th R becomes a U), so this stays here as the reference.
    """
    for b, d in enumerate(runs):
        if i < d:
            return runs[:b] + (i, d - i) + runs[b + 1 :]
        i -= max(d - 1, 0)
    return runs + (i,)


def test_the_q_bracket_is_the_shifted_r_to_u_read_through_the_staircase():
    # The bracket side of the same relation: a U put into the i-th RR pair of
    # the plain word gives the rows of the preshifted word with its i-th R
    # turned into a U, read with the staircase.  lambda_bracket and every
    # i-form term take that shifted route, so both are held to the RR-pair rule.
    cases = 0
    for length in range(7):
        for lam in itertools.combinations(range(9, 0, -1), length):
            word = codes.encode_code(lam)
            preshifted = shifted.preshift(word).runs
            terms = []
            for i in range(30):
                rows = codes._rows(_u_into_ith_rr_pair(word.runs, i))
                assert codes._rows(codes._replace_ith_r(preshifted, i), 1) == rows, (lam, i)
                assert qvertex.lambda_bracket(lam, i) == rows, (lam, i)
                n = sum(rows) - sum(lam)  # the new row, in slot rows.index(n)
                terms.append(qvertex.QSeriesTerm(n, rows.index(n), i, rows.index(n), rows))
                cases += 1
            assert qvertex.q_series_i_form(lam, 29) == terms, lam
    assert cases == 13980


BRACKET_CASES = [
    ((4, 2, 1), 1, (4, 3, 2, 1)),
    ((3, 1), 2, (4, 3, 1)),
    ((), 1, (1,)),
    ((3,), 3, (4, 3)),
    # far into the R-tail; the 10**12-letter word this position names is never built
    ((3, 1), 10**12, (10**12 + 2, 3, 1)),
]


@pytest.mark.parametrize("lam,i,expected", BRACKET_CASES)
def test_lambda_bracket_shifted(lam, i, expected):
    assert shifted.lambda_bracket_shifted(lam, i) == expected


def test_lambda_bracket_shifted_matches_value_route():
    for length in range(4):
        for lam in itertools.combinations(range(7, 0, -1), length):
            for i in range(1, 11):
                assert shifted.lambda_bracket_shifted(lam, i) == qvertex.lambda_bracket(
                    lam, i
                )


def test_lambda_bracket_shifted_rejects_zero_position():
    with pytest.raises(DomainError):
        shifted.lambda_bracket_shifted((3, 1), 0)


def _outcome(fn, arg):
    try:
        return fn(arg)
    except InvalidCodeError as exc:
        return str(exc)


@pytest.mark.parametrize(
    "fn,other,letters",
    [
        (codes.decode_code, shifted.ShiftedCodeWord, "RRULU"),
        (codes.straighten_code, shifted.ShiftedCodeWord, "RRULU"),
        (codes.decode_code, shifted.ShiftedCodeWord, "ULU"),  # negative as a plain word
        (codes.straighten_code, shifted.ShiftedCodeWord, "ULU"),
        (shifted.decode_shifted, codes.CodeWord, "RRULU"),
        (shifted.shifted_straighten, codes.CodeWord, "RRULU"),
        (shifted.decode_shifted, shifted.PreshiftedWord, "RRULU"),
    ],
)
def test_word_of_another_style_is_taken_as_its_letters(fn, other, letters):
    # the two styles read "RRULU" as different indexes
    assert codes.decode_code("RRULU") == (1, 2) and shifted.decode_shifted("RRULU") == (3, 3)
    assert _outcome(fn, other(letters)) == _outcome(fn, letters)
