"""Property-based checks past the exhaustive sweeps (parts <= 60, length <= 12).

The examples are derandomized, so every run checks the same inputs; the
exhaustive sweeps in the other test files and in ``codecalc verify`` stay.
"""

from __future__ import annotations

import contextlib
import io

from hypothesis import given, settings
from hypothesis import strategies as st

from codecalc import bernstein, codes, oracle, qvertex, shifted
from codecalc.cli import main
from codecalc.core import ZERO, SignedIndexResult

_SETTINGS = settings(derandomize=True, database=None, deadline=None, max_examples=100)

indexes = st.lists(st.integers(0, 60), max_size=12).map(tuple)
positive_indexes = st.lists(st.integers(1, 60), max_size=12).map(tuple)
partitions = indexes.map(lambda mu: tuple(sorted(mu, reverse=True)))
strict_partitions = st.sets(st.integers(1, 60), max_size=12).map(
    lambda rows: tuple(sorted(rows, reverse=True))
)


@_SETTINGS
@given(indexes)
def test_plain_round_trip(mu):
    word = codes.encode_code(mu)
    assert codes.decode_code(word) == mu
    assert codes.decode_code(word.letters) == mu


@_SETTINGS
@given(positive_indexes)
def test_shifted_round_trip_and_preshift(mu):
    word = shifted.encode_shifted(mu)
    assert shifted.decode_shifted(word) == mu
    assert shifted.decode_shifted(word.letters) == mu
    assert shifted.preshift(codes.encode_code(mu)).strip_prefix() == word


@_SETTINGS
@given(indexes)
def test_code_reading_and_oracle_routes_agree(mu):
    word = codes.encode_code(mu)
    expected = oracle.exponent_straighten(mu)
    assert codes.straighten_code(word) == expected
    assert codes.reading_straighten(word) == expected


@_SETTINGS
@given(indexes)
def test_q_code_route_agrees_with_sorting(mu):
    assert qvertex.straighten_Y_code(mu) == qvertex.straighten_Y_perm(mu)


@_SETTINGS
@given(positive_indexes)
def test_shifted_route_agrees_with_sorting(mu):
    word = shifted.encode_shifted(mu)
    assert shifted.shifted_straighten(word) == qvertex.straighten_Y_perm(mu)


@_SETTINGS
@given(partitions, st.integers(-14, 70))
def test_b_action_is_its_series_term(lam, n):
    terms = {t.t_exp: t for t in bernstein.bernstein_series_window(lam, n)}
    term = terms.get(n)
    expected = ZERO if term is None else SignedIndexResult(term.sign, term.index)
    assert bernstein.bn_action(n, lam) == expected


@_SETTINGS
@given(strict_partitions, st.integers(0, 70))
def test_q_action_and_series_forms_agree(lam, n):
    assert qvertex.yn_action(n, lam) == qvertex.straighten_Y_perm((n,) + lam)
    j_terms = qvertex.q_series_j_form(lam, n)
    i_terms = [t for t in qvertex.q_series_i_form(lam, n + len(lam)) if t.n <= n]
    assert j_terms == sorted(i_terms, key=lambda t: t.n)


# Index texts: well-formed ones with small entries, and junk with no digits
# (a long digit run would ask for a word of that many letters).
index_texts = st.one_of(
    st.lists(st.integers(-2, 60), max_size=8).map(lambda p: ",".join(map(str, p))),
    st.text(alphabet=",- xRLU.\t", max_size=8),
)
words = st.text(alphabet="RLU", max_size=24) | st.text(alphabet="RLUx -", max_size=8)
METHODS = ("code", "reading", "perm", "shifted", "oracle", "all")
formats = st.sampled_from([[], ["--format", "json"]])
argvs = st.one_of(
    st.tuples(
        st.just(["straighten", "--algebra"]),
        st.sampled_from([["b"], ["q"]]),
        st.sampled_from([[]] + [["--method", m] for m in METHODS]),
        formats,
        index_texts.map(lambda t: ["--", t]),
    ),
    st.tuples(
        st.just(["code"]),
        st.sampled_from([[], ["--shifted"]]),
        st.one_of(
            index_texts.map(lambda t: ["--index=" + t]),
            words.map(lambda w: ["--decode=" + w]),
        ),
        formats,
    ),
).map(lambda parts: [arg for part in parts for arg in part])


@_SETTINGS
@given(argvs)
def test_cli_fuzz_exits_0_or_1_without_traceback(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1), (argv, err.getvalue())
    assert "Traceback" not in err.getvalue()
    assert (code == 0) == (err.getvalue() == "")
