"""Property-based checks past the exhaustive sweeps (parts <= 60, length <= 12,
and for the code routes that read runs only, parts <= 10**6, length <= 40).

The examples are derandomized, so every run checks the same inputs; the
exhaustive sweeps in the other test files and in ``codecalc verify`` stay.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import child
from codecalc import bernstein, cli, codes, ops, qvertex, shifted, verify
from codecalc.core import ZERO, SignedIndexResult, canonical_json

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


def _insert_pairs(mu, inserts):
    """mu with the code word's letters and RL/LR pairs inserted (reading tolerates them)."""
    letters = codes.encode_code(mu).letters
    for pos, pair in inserts:
        pos = min(pos, len(letters))
        letters = letters[:pos] + pair + letters[pos:]
    return {"index": list(mu), "letters": letters}


def _at(lams, name):
    """Args of an index and a position i >= 1 or a degree n >= 0, up to 70."""
    return st.tuples(lams, st.integers(1 if name == "i" else 0, 70)).map(
        lambda p: {"index": list(p[0]), name: p[1]}
    )


def _with_letters(mus, encode):
    return mus.map(lambda mu: {"index": list(mu), "letters": encode(mu).letters})


index_args = indexes.map(lambda mu: {"index": list(mu)})
# one args strategy per op that verify.REFERENCES checks
OP_ARGS = {
    "straighten_code": _with_letters(indexes, codes.encode_code),
    "exponent_straighten": index_args,
    "straighten_Y_code": index_args,
    "reading_straighten": st.builds(
        _insert_pairs,
        indexes,
        st.lists(st.tuples(st.integers(0, 200), st.sampled_from(["RL", "LR"])), max_size=3),
    ),
    "shifted_straighten": _with_letters(positive_indexes, shifted.encode_shifted),
    "preshift": _with_letters(positive_indexes, codes.encode_code),
    "lambda_sup": _at(partitions, "i"),
    "r_index": _at(partitions, "i"),
    "bn_action": _at(partitions, "n"),
    "lambda_bracket": _at(strict_partitions, "i"),
    "lambda_bracket_shifted": _at(strict_partitions, "i"),
    "yn_action": _at(strict_partitions, "n"),
}


@pytest.mark.parametrize("check", sorted(verify.REFERENCES))
def test_op_agrees_with_its_reference(check):
    op, reference = verify.REFERENCES[check]

    @_SETTINGS
    @given(OP_ARGS[op])
    def agree(args):
        assert ops.run(op, args) == reference(args)

    agree()


big_indexes = st.lists(st.integers(0, 10**6), max_size=40).map(tuple)
big_partitions = big_indexes.map(lambda mu: tuple(sorted(mu, reverse=True)))
big_strict_partitions = st.sets(st.integers(1, 10**6), max_size=40).map(
    lambda rows: tuple(sorted(rows, reverse=True))
)


def _big_at(lams, name, lo, hi):
    return st.tuples(lams, st.integers(lo, hi)).map(lambda p: {"index": list(p[0]), name: p[1]})


# args at large parts for the checks whose code route, the op or its
# reference, reads the word's runs only (exponent_vs_code: straighten_B);
# a degree n stays small, since series_action checks B_n against a series
# window of n + len(lam) + 1 terms
BIG_OP_ARGS = {
    "exponent_straighten": big_indexes.map(lambda mu: {"index": list(mu)}),
    "straighten_Y_code": big_indexes.map(lambda mu: {"index": list(mu)}),
    "lambda_sup": _big_at(big_partitions, "i", 1, 10**6 + 50),
    "r_index": _big_at(big_partitions, "i", 1, 45),
    "bn_action": _big_at(big_partitions, "n", 0, 300),
    "lambda_bracket": _big_at(big_strict_partitions, "i", 0, 10**6 + 50),
    "lambda_bracket_shifted": _big_at(big_strict_partitions, "i", 1, 10**6 + 50),
}


@pytest.mark.parametrize(
    "check", sorted(c for c, (op, _) in verify.REFERENCES.items() if op in BIG_OP_ARGS)
)
def test_code_route_agrees_with_its_reference_at_large_parts(check):
    op, reference = verify.REFERENCES[check]

    @_SETTINGS
    @given(BIG_OP_ARGS[op])
    def agree(args):
        assert ops.run(op, args) == reference(args)

    agree()


@_SETTINGS
@given(st.lists(st.integers(1, 10**6), max_size=40).map(tuple))
def test_shifted_route_at_large_parts(mu):
    expected = qvertex.straighten_Y_perm(mu)
    assert shifted.shifted_straighten(shifted.encode_shifted(mu)) == expected


@_SETTINGS
@given(big_partitions, big_strict_partitions, st.integers(0, 60))
def test_series_at_large_parts(lam, strict, i_max):
    terms = bernstein.bernstein_series(lam, i_max)
    assert [t.index for t in terms] == [verify._sup_closed(lam, i) for i in range(1, i_max + 1)]
    q_terms = qvertex.q_series_i_form(strict, i_max + len(strict))
    assert qvertex.q_series_j_form(strict, i_max) == [t for t in q_terms if t.n <= i_max]


# encoded words per rule of codes.RULES, as each rule's step takes them: the
# runs, or the letters for the reading rule, which also takes unreduced words
RULE_WORDS = {
    "plain": indexes.map(lambda mu: codes.encode_code(mu).runs),
    "shifted": positive_indexes.map(lambda mu: shifted.encode_shifted(mu).runs),
    "q": indexes.map(lambda mu: codes.encode_code(mu).runs),
    "reading": OP_ARGS["reading_straighten"].map(lambda args: args["letters"]),
}


@pytest.mark.parametrize("rule", sorted(codes.RULES))
def test_every_rule_step_keeps_its_state_type(rule):
    # the rules on runs keep a tuple of ints that starts with no L-run; the
    # reading rule keeps a str over the alphabet
    @_SETTINGS
    @given(RULE_WORDS[rule])
    def steps(word):
        def check(exponent, new):
            assert type(exponent) is int and type(new) is type(word)
            if rule == "reading":
                assert set(new) <= codes.ALPHABET
            else:
                assert all(type(d) is int for d in new) and new[0] >= 0

        codes._sum_exchanges(word, rule, check)

    steps()


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
    # in i order: the i-form's n strictly increases in i and is at least i
    j_terms = qvertex.q_series_j_form(lam, n)
    assert j_terms == [t for t in qvertex.q_series_i_form(lam, n) if t.n <= n]


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
    code, _, err = child.in_process(*argv)
    assert code in (0, 1), (argv, err)
    assert "Traceback" not in err
    assert (code == 0) == (err == "")


# The exit contract over the CLI grammar: each command with its options in any
# order, apart, joined by "=" or attached (-n5), abbreviated, repeated or left
# out, and the straighten index after "--" or among the options.  Index entries
# are small, or past what a word spelled out letter by letter can hold (2**63,
# and 4,301 digits, past int()'s default limit), so no example allocates much.
# Plain forms and valid values are drawn most often: about two in five
# examples answer, and the rest end in errors of many kinds.
_small = st.integers(0, 60).map(str)
ENTRIES = ["-0", "-1", str(2**63), "1" * 4301, "٣", "３", "1_0", "+2", "x"]
contract_index_texts = st.tuples(
    st.lists(_small | _small | _small | st.sampled_from(ENTRIES), max_size=4),
    st.sampled_from([",", " ", ", ", "\t", ",,"]),
    st.sampled_from(["", "", " ", ","]),
).map(lambda t: t[2] + t[1].join(t[0]))
contract_words = st.text(alphabet="RLU", max_size=24) | st.text(alphabet="RLUrlxÜ ", max_size=8)
int_texts = st.integers(-3, 40).map(str) | st.sampled_from(["-0", "10001", str(2**63), "1" * 4301])


def _option(names, values):
    """An option with its value: apart, or joined by "=" or by nothing."""
    joins = st.sampled_from([None] * 6 + ["="] * 3 + [""])
    return st.tuples(st.sampled_from(names), joins, values).map(
        lambda t: [t[0], t[2]] if t[1] is None else [t[0] + t[1] + t[2]]
    )


_algebra = _option(["--algebra", "--algebra", "--alg"], st.sampled_from(["b", "q"] * 4 + ["x"]))
_format = _option(
    ["--format", "--format", "--form"], st.sampled_from(["text", "json"] * 4 + ["xml"])
)
_index = _option(["--index", "--index", "--ind"], contract_index_texts)
# each command's options; code's --index and --decode, and series' --i-max and
# --n-max, share an entry, so that both appear only when it repeats
GRAMMAR = {
    "straighten": [
        _algebra,
        _option(["--method", "--method", "--meth"], st.sampled_from(METHODS * 2 + ("x",))),
        _format,
    ],
    "code": [
        _index | _option(["--decode", "--decode", "--dec"], contract_words),
        st.sampled_from([["--shifted"]] * 4 + [["--shift"], ["--shifted=x"]]),
        _format,
    ],
    "act": [_algebra, _option(["-n", "-n", "--degree", "--deg"], int_texts), _index, _format],
    "series": [
        _algebra,
        _index,
        _option(["--i-max", "--i-max", "--i-m", "--i"], int_texts)
        | _option(["--n-max", "--n-max", "--n-m"], int_texts),
        _format,
    ],
}


@st.composite
def contract_argvs(draw):
    command = draw(st.sampled_from(sorted(GRAMMAR)))
    times = st.sampled_from([1] * 8 + [0, 2])
    pieces = [draw(opt) for opt in GRAMMAR[command] for _ in range(draw(times))]
    pieces = draw(st.permutations(pieces))
    if command == "straighten":
        text = draw(contract_index_texts)
        if draw(st.booleans()):
            pieces.append(["--", text])
        else:
            pieces.insert(draw(st.integers(0, len(pieces))), [text])
    return [command] + [arg for piece in pieces for arg in piece]


@_SETTINGS
@given(contract_argvs())
def test_cli_exit_contract(argv):
    code, out, err = child.in_process(*argv)
    assert code in (0, 1, 2), (argv, err)
    assert "Traceback" not in out + err
    parser = cli._build_parser()
    if code == 0:
        assert err == "", argv
        # the JSON form parses, and the text form renders the same result
        end = argv.index("--") if "--" in argv else len(argv)
        _, as_json, _ = child.in_process(*argv[:end], "--format", "json", *argv[end:])
        result = json.loads(as_json)
        assert as_json == canonical_json(result) + "\n"
        args = vars(parser.parse_args(argv))
        if args["format"] != "json":
            assert out == cli._text(result, args.get("algebra", "").upper())
    else:
        assert err.splitlines()[-1].startswith(("error:", "internal error:")), (argv, err)
    # argparse, parsing every argv, ends each alike
    assert child.in_process(*argv, argparse_only=True) == (code, out, err)
    args = cli._match(cli._TABLES[argv[0]], argv[1:])
    if args is not None:
        assert {**args, "command": argv[0]} == vars(parser.parse_args(argv))


# JSON-like values: every scalar json encodes (floats with nan and inf, ints
# past 64 bits, text with escapes and astral characters), nested in lists,
# tuples and dicts whose keys are all str or all int (sort_keys refuses a mix)
json_scalars = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(-(2**200), 2**200)
    | st.floats()
    | st.text()
    | st.sampled_from(['"', "\\", "\x00\x1f\n\t\x7f", "é雪\U0001f600", ""])
)
json_values = st.recursive(
    json_scalars,
    lambda children: (
        st.lists(children, max_size=4)
        | st.lists(children, max_size=4).map(tuple)
        | st.dictionaries(st.text(max_size=4), children, max_size=4)
        | st.dictionaries(st.integers(), children, max_size=4)
    ),
    max_leaves=30,
)


@_SETTINGS
@given(json_values)
def test_canonical_json_is_json_dumps_sorted_and_compact(value):
    assert canonical_json(value) == json.dumps(value, sort_keys=True, separators=(",", ":"))
