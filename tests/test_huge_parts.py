"""Guards that the code routes cost O(rows), not O(letters).

Each input has a part of 10**12.  A word of one letter per column would need
about a terabyte, so a return to per-letter words makes each of these fail at
once with a MemoryError instead of passing slowly.
"""

import copy

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


def test_straighten_code_on_a_word_with_a_huge_part_matches_straighten_B():
    mu = (1, M, 2, M // 2)
    assert codes.straighten_code(codes.encode_code(mu)) == codes.straighten_B(mu)


def test_straighten_Y_code_at_a_huge_part_matches_perm():
    assert qvertex.straighten_Y_code((1, M)) == qvertex.straighten_Y_perm((1, M))


def test_bn_action_at_a_huge_part():
    # B_5 s_(M) = s_(5, M) = -s_(M - 1, 6)
    assert bernstein.bn_action(5, (M,)) == SignedIndexResult(-1, (M - 1, 6))
    # B_{-1} s_(M) = s_(-1, M) = -s_(M - 1, 0)
    assert bernstein.bn_action(-1, (M,)) == SignedIndexResult(-1, (M - 1, 0))
    # a huge negative degree walks past the word: O(rows), not O(|n|)
    assert bernstein.bn_action(-(10**15), (3, 1)).is_zero


def test_series_at_a_huge_part_match_their_closed_forms():
    terms = bernstein.bernstein_series((M,), 50)
    assert [t.index for t in terms] == [verify._sup_closed((M,), i) for i in range(1, 51)]
    assert all((t.t_exp, t.sign) == (t.i - 2, -1) for t in terms)
    q_terms = qvertex.q_series_i_form((M,), 50)
    brackets = [verify._bracket_by_values((M,), i) for i in range(1, 51)]
    assert [t.index for t in q_terms] == [(M, 0)] + brackets
    assert q_terms == qvertex.q_series_j_form((M,), 50)


def test_index_routes_at_a_huge_part_match_their_closed_forms():
    lam = (M, M // 2, 3)  # a partition, and strict
    positions = [1, 2, 3, 4, 5, M // 2 - 2, M // 2, M // 2 + 1, M - 1, M, M + 1, 2 * M]
    for i in positions:
        assert bernstein.lambda_sup(lam, i) == verify._sup_closed(lam, i), i
        bracket = verify._bracket_by_values(lam, i)
        assert qvertex.lambda_bracket(lam, i) == shifted.lambda_bracket_shifted(lam, i) == bracket
    assert qvertex.lambda_bracket(lam, 0) == lam + (0,)
    assert [bernstein.r_index(lam, i) for i in range(1, 6)] == [M, M // 2, 3, 0, 0]


def test_words_at_a_huge_part_compare_and_hash_by_their_runs():
    word = codes.encode_code((M, 1))
    assert word == codes.encode_code((M, 1)) and hash(word) == hash(codes.encode_code((M, 1)))
    assert word != codes.encode_code((M + 1, 1))
    assert word != shifted.encode_shifted((M, 1))  # another type, of the same index


def test_a_copy_of_a_word_at_a_huge_part_is_the_word_itself():
    # a copy rebuilt from the letters would render 10**12 of them
    word = codes.encode_code((M, 1))
    for w in (word, shifted.encode_shifted((M, 1)), shifted.preshift(word)):
        assert copy.copy(w) is w and copy.deepcopy(w) is w


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


# a part of 2**63 or more on a path that spells the word out one letter per
# column: "R" * d overflows before anything is allocated
OVERFLOWING = [
    ["code", "--index", "9223372036854775808"],
    ["code", "--shifted", "--index", "99999999999999999999"],
    ["straighten", "--algebra", "b", "--method", "reading", "1,99999999999999999999"],
    ["straighten", "--algebra", "b", "--method", "all", "1,99999999999999999999"],
]


@pytest.mark.parametrize("argv", OVERFLOWING, ids=" ".join)
def test_a_letter_count_past_the_index_size_ends_in_an_error_line(capsys, argv):
    assert cli.main(argv) == 1
    assert capsys.readouterr() == ("", "error: out of memory\n")
