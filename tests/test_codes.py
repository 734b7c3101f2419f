"""Tests for code words and the partition-side straightening routes."""

from __future__ import annotations

import copy
import itertools
import pickle
import random

import pytest

from codecalc import codes, ops, oracle, shifted, verify
from codecalc.core import InvalidCodeError, SignedIndexResult


ENCODE_CASES = [
    ((), ""),
    ((0,), "U"),
    ((2, 0), "URRU"),
    ((0, 2), "RRULLU"),
    ((4, 2, 2, 1), "RURUURRU"),
    ((2, 3, 1, 4), "RRRRULLLURRULU"),
    ((1, 3, 1, 6, 2), "RRURRRRULLLLLURRULLU"),
]


@pytest.mark.parametrize("parts,letters", ENCODE_CASES)
def test_encode_code(parts, letters):
    assert codes.encode_code(parts).letters == letters


@pytest.mark.parametrize("parts,letters", ENCODE_CASES)
def test_decode_code(parts, letters):
    assert codes.decode_code(letters) == parts


def test_zero_rows_get_distinct_words():
    assert codes.encode_code((2,)).letters != codes.encode_code((2, 0)).letters
    assert codes.encode_code((2, 0)).rows == 2


def test_round_trip_sweep():
    for length in range(5):
        for mu in itertools.product(range(5), repeat=length):
            assert codes.decode_code(codes.encode_code(mu)) == mu


def _spelled(mu, shift):
    """Letters of mu's word, one per column: bottom-up, the path moves to the
    k-th row's column, m_k - shift * k with k from 1, then steps up a U."""
    letters, x = [], 0
    for k, m in enumerate(reversed(mu), 1):
        column = m - shift * k
        letters += "R" * (column - x) or "L" * (x - column)
        letters.append("U")
        x = column
    return "".join(letters)


def test_a_word_stores_its_runs_and_renders_the_letters_it_was_validated_from():
    # every word type keeps one field, its runs; its letters are rendered on
    # each read, and must spell what the public constructor validated
    assert codes.CodeWord.__slots__ == ("runs",)
    assert codes.ShiftedCodeWord.__slots__ == shifted.PreshiftedWord.__slots__ == ()
    for mu in verify.compositions(6, 5):  # () gives each type's empty word
        plain = codes.encode_code(mu)
        words = [(plain, _spelled(mu, 0))]
        if all(mu):
            words += [(shifted.encode_shifted(mu), _spelled(mu, 1))]
            words += [(shifted.preshift(plain), _spelled(mu, 1))]
        for word, letters in words:
            cls = type(word)
            validated = cls(letters)
            assert validated == word and validated.letters == word.letters == letters, mu
            assert repr(word) == f"{cls.__name__}(letters={letters!r})"
            for copied in (pickle.loads(pickle.dumps(word)), copy.copy(word), copy.deepcopy(word)):
                assert type(copied) is cls and copied == word and copied.letters == letters


@pytest.mark.parametrize("letters", ["RL", "LU", "RUR", "X", "RLU"])
def test_code_word_rejects_malformed(letters):
    with pytest.raises(InvalidCodeError):
        codes.CodeWord(letters)


def test_code_word_rejects_negative_rows():
    # reduced, starts with R, ends with U, but dips left of the origin
    with pytest.raises(InvalidCodeError):
        codes.CodeWord("RULLU")


def test_reduce_word_examples():
    assert codes.reduce_word("RLRLU") == "U"
    assert codes.reduce_word("URLLRU") == "UU"
    assert codes.reduce_word("") == ""
    with pytest.raises(InvalidCodeError):
        codes.reduce_word("RXU")


def test_reduce_word_idempotent_and_order_independent():
    rng = random.Random(7)
    for _ in range(500):
        raw = "".join(rng.choice("RLU") for _ in range(rng.randrange(0, 20)))
        reduced = codes.reduce_word(raw)
        assert codes.reduce_word(reduced) == reduced
        letters = list(raw)
        while True:
            pairs = [
                i
                for i in range(len(letters) - 1)
                if letters[i] + letters[i + 1] in ("RL", "LR")
            ]
            if not pairs:
                break
            i = rng.choice(pairs)
            del letters[i : i + 2]
        assert "".join(letters) == reduced


STRAIGHTEN_CASES = [
    ((), SignedIndexResult(1, ())),
    ((4,), SignedIndexResult(1, (4,))),
    ((2, 3), SignedIndexResult(0)),
    ((1, 3), SignedIndexResult(-1, (2, 2))),
    ((3, 1), SignedIndexResult(1, (3, 1))),
    ((1, 3, 1, 6, 2), SignedIndexResult(1, (3, 3, 3, 2, 2))),
    ((0, 2), SignedIndexResult(-1, (1, 1))),
]


@pytest.mark.parametrize("mu,expected", STRAIGHTEN_CASES)
def test_straighten_routes_agree_on_cases(mu, expected):
    word = codes.encode_code(mu)
    assert codes.straighten_B(mu) == expected
    assert codes.straighten_code(word) == expected
    assert codes.reading_straighten(word) == expected


def test_worked_example_sign_exponent_is_four():
    word = codes.encode_code((1, 3, 1, 6, 2))
    assert codes.straighten_code_trace(word) == (4, (3, 3, 3, 2, 2))
    assert codes.straighten_code_trace(word, "reading") == (4, (3, 3, 3, 2, 2))
    # the reading entry takes unreduced letters and letter lists
    assert codes.straighten_code_trace("RLRRULLU", "reading") == (1, (1, 1))
    assert codes.straighten_code_trace(list("RURRULLU"), "reading") == (1, (2, 2, 1))


def test_reading_tolerates_raw_words():
    # RL prefix reduces away; the word encodes (0, 2)
    assert codes.reading_straighten("RLRRULLU") == SignedIndexResult(-1, (1, 1))
    rng = random.Random(3)
    for _ in range(300):
        mu = tuple(rng.randrange(0, 5) for _ in range(rng.randrange(0, 4)))
        letters = list(codes.encode_code(mu).letters)
        for _ in range(rng.randrange(1, 4)):
            pos = rng.randrange(0, len(letters) + 1)
            letters[pos:pos] = rng.choice(["RL", "LR"])
        assert codes.reading_straighten("".join(letters)) == codes.straighten_B(mu)


def test_reading_route_on_negative_rows_is_jacobi_trudi():
    # a word that dips left of the origin has negative rows; with h_k = 0 for
    # k < 0 (Macdonald I (3.4)) its determinant is the sorted exponents' sign
    # and rows, or zero where the last straightened row is negative
    words = [""] + [
        "".join(w) + "U" for n in range(9) for w in itertools.product("RLU", repeat=n)
    ]
    negative = 0
    for w in words:
        rows = codes._rows(w)
        negative += min(rows, default=0) < 0
        expected = oracle.exponent_straighten(rows)
        if not expected.is_zero and expected.index and expected.index[-1] < 0:
            expected = SignedIndexResult(0)
        assert codes.reading_straighten(w) == expected, w
    assert (len(words), negative) == (9842, 5174)


def test_letter_lists_keep_their_results():
    # a JSON list of letters (say, from a corpus line) reads as the same word
    # on the reading route; the routes that take reduced words reject a list
    letters = list("RRULLUU")
    assert codes.reading_straighten(letters).is_zero
    assert ops.run("reading_straighten", {"letters": letters}) == {"zero": True}
    for route in (codes.straighten_code, codes.decode_code, shifted.preshift):
        with pytest.raises(InvalidCodeError, match="a str of letters, not list"):
            route(letters)


@pytest.mark.parametrize("word", [["R", "U"], b"RU", ("R", "U")], ids=["list", "bytes", "tuple"])
def test_a_word_that_is_not_a_str_names_its_type(word):
    # not "is not reduced" (a list) or "letter 82 is not one of R, L, U" (bytes)
    message = f"a code word is a str of letters, not {type(word).__name__}$"
    routes = (codes.CodeWord, shifted.ShiftedCodeWord, codes.decode_code, shifted.decode_shifted)
    for route in routes:
        with pytest.raises(InvalidCodeError, match=message):
            route(word)


def test_triple_agreement_small_sweep():
    for length in range(5):
        for mu in itertools.product(range(4), repeat=length):
            expected = oracle.exponent_straighten(mu)
            word = codes.encode_code(mu)
            assert codes.straighten_code(word) == expected
            assert codes.reading_straighten(word) == expected


def test_straighten_preserves_row_count_and_size():
    for length in range(1, 5):
        for mu in itertools.product(range(4), repeat=length):
            result = codes.straighten_B(mu)
            if not result.is_zero:
                assert len(result.index) == len(mu)
                assert sum(result.index) == sum(mu)


def test_step_count_bounded_by_trailing_u_count():
    for length in range(1, 5):
        for mu in itertools.product(range(4), repeat=length):
            letters = codes.encode_code(mu).letters
            if "L" not in letters:
                continue
            bound = letters[letters.index("L") :].count("U")
            steps, bad = verify._replay(letters, "plain")
            assert bad is None and steps <= bound, mu


def _rule_words(rule):
    """The words ``rule``'s step takes, one per composition with parts <= 6
    and length <= 5 (positive parts for the shifted rule), with its index."""
    for mu in verify.compositions(6, 5):
        if rule == "shifted":
            if all(mu):
                yield mu, shifted.encode_shifted(mu).runs
        else:
            word = codes.encode_code(mu)
            yield mu, word.letters if rule == "reading" else word.runs


@pytest.mark.parametrize("rule", sorted(codes.RULES))
def test_the_resumed_scan_finds_what_a_fresh_scan_finds(monkeypatch, rule):
    # the loop resumes each search at the last step's index: no L may sit
    # left of it, so a search from the word's start finds the same one
    word_type, find, step = codes.RULES[rule]
    resumed = 0

    def checked_find(word, start):
        nonlocal resumed
        resumed += start > 0
        assert find(word, start) == find(word, 0), (word, start)
        return find(word, start)

    words = [word for _, word in _rule_words(rule)]
    if rule == "reading":  # it also takes unreduced words, where an L can follow at once
        words += ["".join(w) for n in range(8) for w in itertools.product("RLU", repeat=n)]
    monkeypatch.setitem(codes.RULES, rule, (word_type, checked_find, step))
    for word in words:
        codes._sum_exchanges(word, rule)
    assert resumed


# the sign exponent the exchange loop sums, as a count: the pairs i < j with
# values[i] < values[j] among the values the rule sorts (the plain rule's
# shifted exponents, the Q and shifted rules' rows).  oracle._signed_sort
# counts them; keyed by (value, -position), equal values stay as they stand,
# as the Q rule keeps equal rows.
SORTED_VALUES = {
    "plain": lambda mu: [p + s for p, s in zip(mu, oracle.staircase(len(mu)))],
    "q": list,
    "shifted": list,
}


@pytest.mark.parametrize("rule", sorted(SORTED_VALUES))
def test_the_sign_exponent_counts_the_pairs_out_of_order(rule):
    for mu, word in _rule_words(rule):
        out = codes._sum_exchanges(word, rule)
        values = SORTED_VALUES[rule](mu)
        if out is None:  # every rule annihilates only on a repeated value
            assert oracle._signed_sort(values) is None, mu
        else:
            keyed = [(v, -k) for k, v in enumerate(values)]
            assert out[0] == oracle._signed_sort(keyed)[0], mu


@pytest.mark.parametrize("shift", [0, 1], ids=["plain", "shifted"])
def test_series_walk_refuses_a_new_row_out_of_place(monkeypatch, shift):
    # The walk stops at the run whose rows straddle the i-th R, so on the rows
    # of its own runs every new row fits between its neighbours.  Rows read
    # out of order (here bottom row first) put a new row out of place, and the
    # walk must raise rather than return a term that is no partition.
    real = codes._rows
    monkeypatch.setattr(codes, "_rows", lambda runs, shift=0: real(runs, shift)[::-1])
    with pytest.raises(codes.InternalInvariantError, match="series term off at i=2"):
        codes._series((1, 2, 0), shift, 0, 8, 99, lambda *term: term)


@pytest.mark.parametrize(
    "rows, shift",
    [
        ((1, 3), 0),  # out of order
        ((2, 3, 1), 0),
        ((3, 3), 1),  # equal rows of a shifted word
        ((4, 2, 2), 1),
        ((2, -1), 0),  # bottom row below the shift
        ((2, 0), 1),
        ((-1,), 0),
    ],
)
def test_the_straight_check_refuses_rows_out_of_order(rows, shift):
    with pytest.raises(codes.InternalInvariantError, match="broke row count, total or order"):
        codes._check_straight(rows, rows, shift, "word")


@pytest.mark.parametrize(
    "rows, shift", [((), 0), ((), 1), ((0,), 0), ((2, 2, 0), 0), ((3, 1), 1), ((5, 4, 1), 1)]
)
def test_the_straight_check_takes_straight_rows(rows, shift):
    codes._check_straight(rows, rows, shift, "word")
    for start in (rows + (0,), (sum(rows) + 1,) + rows[1:]):  # row count, total
        with pytest.raises(codes.InternalInvariantError):
            codes._check_straight(start, rows, shift, "word")
