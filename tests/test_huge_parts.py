"""Guards that the code routes cost O(rows), not O(letters).

Each input has a part of 10**12.  A word of one letter per column would need
about a terabyte, so a return to per-letter words makes each of these fail at
once with a MemoryError instead of passing slowly.
"""

import pytest

from codecalc import bernstein, cli, codes, oracle, qvertex, shifted, verify
from codecalc.core import DomainError, SignedIndexResult

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


def test_words_at_a_huge_part_compare_and_hash_by_their_runs():
    word = codes.encode_code((M, 1))
    assert word == codes.encode_code((M, 1)) and hash(word) == hash(codes.encode_code((M, 1)))
    assert word != codes.encode_code((M + 1, 1))
    assert word != shifted.encode_shifted((M, 1))  # another type, of the same index


def test_preshift_at_a_huge_part():
    assert shifted.preshift(codes.encode_code((M, 1))).strip_prefix() == shifted.encode_shifted(
        (M, 1)
    )
    with pytest.raises(DomainError, match="zero row"):
        shifted.preshift(codes.encode_code((M, 0)))


def test_a_preshifted_word_at_a_huge_part_is_read_by_its_runs():
    word = shifted.preshift(codes.encode_code((M, 1)))
    assert shifted.shifted_straighten(word) == SignedIndexResult(1, (M, 1))
    assert shifted.decode_shifted(word) == (M, 1)


@pytest.mark.parametrize("method", ["shifted", "all"])
def test_cli_hands_the_word_between_ops_at_a_huge_part(capsys, method):
    argv = ["straighten", "--algebra", "q", "--method", method, "--format", "text", f"1,{M}"]
    assert cli.main(argv) == 0
    assert capsys.readouterr() == (f"-1 * Q[{M},1]\n", "")
