"""Guards that the code routes cost O(rows), not O(letters).

Each input has a part of 10**12.  A word of one letter per column would need
about a terabyte, so a return to per-letter words makes each of these fail at
once with a MemoryError instead of passing slowly.
"""

import pytest

import child
from codecalc import bernstein, codes, oracle, qvertex, shifted, verify
from codecalc.core import DomainError, InvalidCodeError, SignedIndexResult

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


@pytest.mark.parametrize("route", [codes.straighten_code, shifted.preshift])
def test_an_invalid_word_of_the_other_style_at_a_huge_part_is_named_by_its_runs(route):
    # the shifted runs of (1, M), (M - 1, -M), read plain end M left of the
    # origin: the error names the runs, not the 2M + 1 letters
    with pytest.raises(InvalidCodeError, match=rf"runs \({M - 1}, -{M}\), has a negative row$"):
        route(shifted.encode_shifted((1, M)))


@pytest.mark.parametrize("method", ["shifted"])
def test_cli_hands_the_word_between_ops_at_a_huge_part(method):
    argv = ["straighten", "--algebra", "q", "--method", method, "--format", "text", f"1,{M}"]
    assert child.in_process(*argv) == (0, f"-1 * Q[{M},1]\n", "")


# a part of 2**63 or more on a path that spells the word out one letter per
# column: "R" * d overflows before anything is allocated
OVERFLOWING = [
    ["code", "--shifted", "--index", "99999999999999999999"],
    ["straighten", "--algebra", "b", "--method", "reading", "1,99999999999999999999"],
    ["straighten", "--algebra", "b", "--method", "all", "1,99999999999999999999"],
]


@pytest.mark.parametrize("argv", OVERFLOWING, ids=" ".join)
def test_a_letter_count_past_the_index_size_ends_in_an_error_line(argv):
    assert child.in_process(*argv) == (1, "", "error: out of memory\n")


def _api(name, *lines, out=""):
    return pytest.param(("-c", "\n".join(lines)), out, 0, "", id=name)


# The CLI and the word routes at a part of 1e11 in a fresh process bounded to
# 400,000 KiB of address space (``ulimit -v 400000``) and 10 s: one letter per
# column would end them in "error: out of memory" or a MemoryError.  A row:
# the child's arguments, its stdout, exit code and stderr.
BOUNDED = [
    child.case(
        "straighten --algebra b 1,100000000000,2,50000000000",
        "-1 * B[99999999999,49999999998,3,3]\n",
    ),
    # the word entry straightens an encoded word from its runs
    _api(
        "straighten_code",
        "from codecalc import encode_code as e, straighten_B, straighten_code as s",
        "mu = (1, 10**11, 2, 5 * 10**10)",
        "r = s(e(mu))",
        "assert r == straighten_B(mu)",
        "assert (r.sign, r.index) == (-1, (99999999999, 49999999998, 3, 3))",
    ),
    # a word of the other style is checked at the route's own offset, not spelled
    # out and re-read: the shifted runs of (M, 1) are (0, M - 2), the plain runs
    # (1, M - 1), and the shifted runs of (M, 2), (1, M - 3), read plain are rows
    # (M - 2, 1)
    _api(
        "other style",
        "from codecalc import SignedIndexResult, decode_code, decode_shifted, encode_code",
        "from codecalc import encode_shifted, preshift, shifted_straighten, straighten_code",
        "M = 10**11; plain, strict = encode_code((M, 1)), encode_shifted((M, 1))",
        "assert decode_code(strict) == (M - 2, 0)",
        "assert straighten_code(strict) == SignedIndexResult(1, (M - 2, 0))",
        "assert decode_shifted(plain) == (M + 2, 2)",
        "assert shifted_straighten(plain) == SignedIndexResult(1, (M + 2, 2))",
        "assert preshift(encode_shifted((M, 2))).runs == (0, M - 4)",
    ),
    # an invalid one is refused by its runs: its error does not spell out 2e11 letters
    _api(
        "other style, invalid",
        "from codecalc import InvalidCodeError, decode_code, encode_shifted",
        "try: decode_code(encode_shifted((1, 10**11)))",
        "except InvalidCodeError as exc: print(exc)",
        out="word of 200000000001 letters, runs (99999999999, -100000000000), has a negative row\n",
    ),
    child.case(
        "series --algebra b --index 100000000000 --i-max 3",
        "-t^-1 * B[99999999999,0]\n-t^0 * B[99999999999,1]\n-t^1 * B[99999999999,2]\n",
    ),
    child.case("straighten --algebra q --method all 1,100000000000", "-1 * Q[100000000000,1]\n"),
    # the Q i-form walks the shifted word's runs; no term at n = 5, then the sign turns
    child.case(
        "series --algebra q --index 100000000000,5 --i-max 7",
        "+t^0 * Q[100000000000,5,0]\n+t^1 * Q[100000000000,5,1]\n+t^2 * Q[100000000000,5,2]\n"
        "+t^3 * Q[100000000000,5,3]\n+t^4 * Q[100000000000,5,4]\n-t^6 * Q[100000000000,6,5]\n"
        "-t^7 * Q[100000000000,7,5]\n-t^8 * Q[100000000000,8,5]\n",
    ),
    child.case("act --algebra b -n 5 --index 100000000000", "-1 * B[99999999999,6]\n"),
    child.case("act --algebra b -n -1 --index 100000000000", "-1 * B[99999999999,0]\n"),
    # a copy is the word itself; one rebuilt from its letters would render 1e11 of them
    _api(
        "copy",
        "import copy; from codecalc import encode_code, encode_shifted, preshift",
        "w = encode_code((10**11, 1))",
        "for x in (w, encode_shifted((10**11, 1)), preshift(w)):",
        "    assert copy.copy(x) is x and copy.deepcopy(x) is x",
    ),
    # a part of 2**63 on a letter path overflows "R" * d: an error line, not a traceback
    child.case("code --index 9223372036854775808", "", 1, "error: out of memory\n"),
]


@pytest.mark.skipif(child.resource is None, reason="no resource module to bound the child's memory")
@pytest.mark.parametrize("args,out,code,err", BOUNDED)
def test_a_huge_part_answers_in_bounded_memory(args, out, code, err):
    proc = child.run(*args, memory_kib=400_000)
    assert (proc.returncode, proc.stdout, proc.stderr) == (code, out, err)
