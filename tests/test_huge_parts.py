"""Guards that the code routes cost O(rows), not O(letters).

Each input has a part of 10**12.  A word of one letter per column would need
about a terabyte, so a return to per-letter words makes each of these fail at
once with a MemoryError instead of passing slowly.
"""

from codecalc import bernstein, codes, oracle, qvertex, verify
from codecalc.core import SignedIndexResult

M = 10**12


def test_a_straight_word_with_a_huge_part():
    assert codes.straighten_B((M, 0)) == SignedIndexResult(1, (M, 0))


def test_straighten_B_at_huge_parts_matches_the_exponent_sort():
    mu = (1, M, 2, M // 2)
    assert codes.straighten_B(mu) == oracle.exponent_straighten(mu)
    assert codes.straighten_B(mu) == SignedIndexResult(-1, (M - 1, M // 2 - 2, 3, 3))


def test_straighten_Y_code_at_a_huge_part_matches_perm():
    assert qvertex.straighten_Y_code((1, M)) == qvertex.straighten_Y_perm((1, M))


def test_bn_action_at_a_huge_part():
    # B_5 s_(M) = s_(5, M) = -s_(M - 1, 6)
    assert bernstein.bn_action(5, (M,)) == SignedIndexResult(-1, (M - 1, 6))


def test_series_at_a_huge_part_match_their_closed_forms():
    terms = bernstein.bernstein_series((M,), 50)
    assert [t.index for t in terms] == [verify._sup_closed((M,), i) for i in range(1, 51)]
    assert all((t.t_exp, t.sign) == (t.i - 2, -1) for t in terms)
    q_terms = qvertex.q_series_i_form((M,), 50)
    brackets = [verify._bracket_by_values((M,), i) for i in range(1, 51)]
    assert [t.index for t in q_terms] == [(M, 0)] + brackets
    assert q_terms == qvertex.q_series_j_form((M,), 50)
