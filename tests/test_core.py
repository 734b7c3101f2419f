"""Tests for shared result/index types and parsing."""

from __future__ import annotations

import ast
import copy
import itertools
import json
import pickle
import re
import sys
from pathlib import Path

import pytest

import child
import codecalc
from child import JSON_PACKAGE
from codecalc import bernstein, codes, core, oracle, qvertex, shifted


class MyInt(int):
    """An int subclass whose arithmetic and comparisons answer wrongly: a
    route that used them, or handed its entries on, would show it."""

    def __sub__(self, other):
        return MyInt(int(self) + other)

    def __lt__(self, other):
        return False

    def __repr__(self):
        return f"MyInt({int(self)})"


def test_signed_result_basics():
    r = core.SignedIndexResult(1, (3, 2))
    assert not r.is_zero
    assert r.to_dict() == {"sign": 1, "index": [3, 2]}
    assert core.negate(r) == core.SignedIndexResult(-1, (3, 2))
    assert core.ZERO.is_zero
    assert core.negate(core.ZERO) is core.ZERO
    assert core.ZERO.to_dict() == {"zero": True}


def test_signed_result_empty_index_is_not_zero():
    r = core.SignedIndexResult(1, ())
    assert not r.is_zero
    assert r.to_dict() == {"sign": 1, "index": []}


def test_signed_result_rejects_bad_values():
    with pytest.raises(core.DomainError):
        core.SignedIndexResult(2, (1,))
    with pytest.raises(core.DomainError):
        core.SignedIndexResult(0, (1,))  # zero carries no index


def test_signed_result_stores_the_index_as_a_tuple():
    assert core.SignedIndexResult(0, []) == core.ZERO
    listed = core.SignedIndexResult(1, [3, 2])
    assert listed.index == (3, 2) and type(listed.index) is tuple
    assert listed == core.SignedIndexResult(1, (3, 2))
    assert hash(listed) == hash(core.SignedIndexResult(1, (3, 2)))


def test_series_terms_store_the_index_as_a_tuple():
    pairs = [
        (codecalc.SeriesTerm("schur", 1, 0, 0, [1]), codecalc.SeriesTerm("schur", 1, 0, 0, (1,))),
        (codecalc.QSeriesTerm(1, 0, 1, 0, index=[1]), codecalc.QSeriesTerm(1, 0, 1, 0, (1,))),
    ]
    for listed, tupled in pairs:
        assert listed.index == (1,) and type(listed.index) is tuple
        assert listed == tupled and hash(listed) == hash(tupled)


@pytest.mark.parametrize(
    "cls,fields",
    [
        (codecalc.SeriesTerm, ("schur", 1, 0, 0, (1,))),
        (codecalc.QSeriesTerm, (1, 0, 1, 0, (1,))),
    ],
    ids=["SeriesTerm", "QSeriesTerm"],
)
def test_series_term_constructors_check_their_fields(cls, fields):
    cls(*fields)
    bad = {"family": [None, 1], "index": ["ab", (1.5,), (True,), [MyInt(1)]]}
    for k, name in enumerate(cls.__match_args__):
        for value in bad.get(name, [None, 1.5, True, "1", MyInt(1)]):
            with pytest.raises(core.DomainError, match=r"must be (a str|an int|ints)"):
                cls(*fields[:k], value, *fields[k + 1 :])
    with pytest.raises(core.DomainError):
        codecalc.SeriesTerm(None, "x", 1.5, -1, "ab")


def test_signed_result_rejects_bool_entries():
    with pytest.raises(core.DomainError):
        core.SignedIndexResult(1, (True, 2))
    with pytest.raises(core.DomainError):
        core.SignedIndexResult(True, (1,))  # a bool sign


def test_signed_result_helper_parity():
    assert core.signed_result(0, (2,)).sign == 1
    assert core.signed_result(3, (2,)).sign == -1
    assert core.signed_result(4, ()).sign == 1


@pytest.mark.parametrize(
    "text,parts",
    [
        ("1,3,1,6,2", (1, 3, 1, 6, 2)),
        ("4 2 2 1", (4, 2, 2, 1)),
        ("", ()),
        ("7", (7,)),
        ("-1,2", (-1, 2)),
    ],
)
def test_parse_index(text, parts):
    assert core.parse_index(text) == parts


def test_parse_render_round_trip():
    for parts in [(), (0,), (1, 3, 1, 6, 2), (10, 0, 2)]:
        assert core.parse_index(core.render_index(parts)) == parts


def test_parse_index_rejects_junk():
    with pytest.raises(core.ParseError):
        core.parse_index("1,x,2")


# int() alone accepts the first three; the others misplace a separator or sign
@pytest.mark.parametrize("text", ["1,,2", "1_0", "\u0661,\u0662", ",1", "1,", "+1", "1-2"])
def test_parse_index_rejects_lenient_forms(text):
    with pytest.raises(core.ParseError):
        core.parse_index(text)


def test_validate_composition():
    assert core.validate_composition([2, 0, 1]) == (2, 0, 1)
    exact = (2, 0, 1)
    assert core.validate_composition(exact) is exact  # exact ints: no copy
    for parts in [(MyInt(2), 1), (2, MyInt(1)), (MyInt(3), MyInt(-1))]:
        got = core.validate_composition(parts, minimum=None)
        assert got == parts and all(type(p) is int for p in got)
    with pytest.raises(core.DomainError, match="below the allowed minimum"):
        core.validate_composition((2, MyInt(-1)))  # read as an int, not by MyInt.__lt__
    with pytest.raises(core.DomainError, match="must be ints"):
        core.validate_composition((MyInt(1), True))
    assert type(core.check_int(MyInt(3), "n", 0)) is int
    with pytest.raises(core.DomainError):
        core.check_int(MyInt(-1), "n", 0)
    with pytest.raises(core.DomainError):
        core.validate_composition((1, -1))
    with pytest.raises(core.DomainError):
        core.validate_composition((1, 0), minimum=1)
    with pytest.raises(core.DomainError):
        core.validate_composition((1, True))


@pytest.mark.parametrize(
    "parts,kind",
    [
        ((2, 3, 1, 4), "general"),
        ((3, 3, 1), "partition"),
        ((4, 2, 1), "strict-partition"),
        ((4, 2, 0), "strict-partition"),
        ((2, 0, 0), "partition"),
        ((), "strict-partition"),
        ((0,), "strict-partition"),
    ],
)
def test_classify(parts, kind):
    assert core.classify(parts) == kind


def test_classify_sorted_never_general():
    import itertools

    for mu in itertools.product(range(4), repeat=3):
        assert core.classify(tuple(sorted(mu, reverse=True))) != "general"


def test_partition_checks_match_their_definitions():
    # decreasing to a nonnegative last entry is every entry nonnegative
    for parts in itertools.chain.from_iterable(
        itertools.product(range(-2, 5), repeat=length) for length in range(6)
    ):
        pairs = list(zip(parts, parts[1:]))
        nonnegative = all(p >= 0 for p in parts)
        assert core.is_partition(parts) == (nonnegative and all(a >= b for a, b in pairs))
        assert core.is_strict_partition(parts) == (nonnegative and all(a > b for a, b in pairs))


def test_canonical_json_is_stable():
    blob = {"b": [1, 2], "a": {"zero": True}}
    out = core.canonical_json(blob)
    assert out == '{"a":{"zero":true},"b":[1,2]}'
    import json

    assert core.canonical_json(json.loads(out)) == out


# Each case against json.dumps with the same settings: nesting and tuples,
# escapes, floats past JSON's range, int keys and top-level scalars.
CANONICAL_CASES = [
    {"b": [1, {"z": (2, 3), "a": []}], "a": {"y": None, "x": [True, False, ()]}},
    ["\u00e9", "\u96ea", "\U0001f600", 'say "hi"', "back\\slash", "\x00\x1f\n\t\x7f"],
    {"\u00e9": 1, "\n": 2, '"': 3, "": 4},
    {10: "b", 9: "a", -1: "c"},
    [0.1, -0.0, 1e300, 1.5e-7, 2.5, float("nan"), float("inf"), float("-inf")],
    {"sign": -1, "index": [3, 3, 0]},
    [-(2**70), 2**64],
    None, True, False, 0, 7, -1.25, "plain text", "", [], {}, (),
]


def _counted(monkeypatch, owner, name):
    """Replace owner.name by a wrapper that counts its calls; return the count."""
    calls = [0]
    inner = getattr(owner, name)

    def wrapper(*args, **kwargs):
        calls[0] += 1
        return inner(*args, **kwargs)

    monkeypatch.setattr(owner, name, wrapper)
    return calls


def _canonical_json_matches_json_dumps(monkeypatch, c_encoder):
    """The checks of test_canonical_json_matches_json_dumps, on the encoder
    path this interpreter's canonical_json took on its first call."""
    core.canonical_json(None)  # the encoder is built
    # the path: the cached C encoder from _json, or json.dumps without it
    assert (core._STATELESS is not False) == c_encoder
    assert (json.encoder.c_make_encoder is not None) == c_encoder
    settings = {"sort_keys": True, "separators": (",", ":")}
    expected = [json.dumps(value, **settings) for value in CANONICAL_CASES]
    stateless = _counted(monkeypatch, core, "_STATELESS") if c_encoder else [0]
    dumps = _counted(monkeypatch, json, "dumps")
    for value, want in zip(CANONICAL_CASES, expected):
        assert core.canonical_json(value) == want, value
    # each case ran on one path only: the cached C encoder or json.dumps
    ran, idle = (stateless, dumps) if c_encoder else (dumps, stateless)
    assert (ran[0], idle[0]) == (len(CANONICAL_CASES), 0)

    loop: list = [1]
    loop.append(loop)
    looped_dict: dict = {}
    looped_dict["self"] = looped_dict
    for value in (loop, looped_dict):
        with pytest.raises(ValueError, match="^Circular reference detected$"):
            core.canonical_json(value)
    assert core.canonical_json([loop[0]]) == "[1]"  # no marker outlives a failed call

    for value in (object(), [{1, 2}], {"k": b"x"}, {(1, 2): 0}, {"a": 1, 2: 0}):
        with pytest.raises(TypeError) as want:
            json.dumps(value, sort_keys=True, separators=(",", ":"))
        with pytest.raises(TypeError, match=f"^{re.escape(str(want.value))}$"):
            core.canonical_json(value)


@pytest.mark.parametrize("c_encoder", [True, False], ids=["c-encoder", "python-encoder"])
def test_canonical_json_matches_json_dumps(monkeypatch, c_encoder):
    if c_encoder:
        if json.encoder.c_make_encoder is None:
            pytest.skip("this Python's json has no C encoder")
        _canonical_json_matches_json_dumps(monkeypatch, c_encoder)
        return
    # the path is chosen on the first call, so the Python encoder runs in
    # a fresh interpreter that cannot import _json, json.dumps included
    script = (
        "import sys\n"
        "sys.modules['_json'] = None\n"
        f"sys.path.insert(0, {str(Path(__file__).resolve().parent)!r})\n"
        "import pytest, test_core\n"
        "with pytest.MonkeyPatch.context() as patch:\n"
        "    test_core._canonical_json_matches_json_dumps(patch, c_encoder=False)"
    )
    proc = child.run("-c", script)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("depth", [5_000, 100_000])
def test_canonical_json_nesting_past_the_limit_raises_as_json_dumps(depth):
    # the marker-free pass runs at this limit, and a RecursionError from it is
    # not taken for a cycle: json.dumps, with markers, raises it again.
    # Python 3.10-3.12 stop 5,000 levels at the default limit, 3.13 only past
    # its C recursion limit; every one of them stops 100,000.
    assert sys.getrecursionlimit() <= core._STATELESS_DEPTH
    deep: list = []
    for _ in range(depth):
        deep = [deep]
    try:
        expected = json.dumps(deep, sort_keys=True, separators=(",", ":"))
    except RecursionError:
        with pytest.raises(RecursionError):
            core.canonical_json(deep)
    else:
        assert depth < 100_000
        assert core.canonical_json(deep) == expected
    assert core.canonical_json([[[]]]) == "[[[]]]"


def test_canonical_json_above_the_guard_runs_only_the_marked_encoder(monkeypatch):
    core.canonical_json(None)  # the encoder is built
    stateless = _counted(monkeypatch, core, "_STATELESS")
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(core._STATELESS_DEPTH + 1)
    try:
        assert core.canonical_json({"b": [1], "a": None}) == '{"a":null,"b":[1]}'
    finally:
        sys.setrecursionlimit(limit)
    assert stateless[0] == 0
    assert core.canonical_json({"b": [1], "a": None}) == '{"a":null,"b":[1]}'
    assert stateless[0] == 1


@pytest.mark.parametrize("limit", [1_000, 10_000, 50_000, 200_000])
def test_a_cycle_raises_value_error_at_any_recursion_limit(limit):
    # Python 3.10 and 3.11 bound the C encoder's depth only by the recursion
    # limit, so a cycle in a marker-free pass at 200,000 overflowed the C
    # stack of 3.11.7; a fresh process shows a crash as an exit code
    script = (
        f"import sys; sys.setrecursionlimit({limit})\n"
        "from codecalc.core import canonical_json\n"
        "loop = [1]; loop.append(loop); looped = {}; looped['self'] = looped\n"
        "for value in (loop, looped, [loop], {'k': looped}):\n"
        "    try:\n"
        "        canonical_json(value)\n"
        "    except ValueError as exc:\n"
        "        print(exc)\n"
        "print(canonical_json([loop[0]]))\n"
    )
    proc = child.run("-c", script)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == "Circular reference detected\n" * 4 + "[1]\n"


def test_an_answer_loads_only_the_c_encoder_and_a_cycle_loads_json():
    # the modules loaded after the answer, as a line, and at the end, less a
    # bare interpreter's; json loads only for json.dumps, on the cycle
    out, new = child.start(
        "from codecalc.core import canonical_json\n"
        "print(canonical_json({'sign': -1, 'index': [3, 3, 0]}))\n"
        "print(*sorted(sys.modules))\n"
        "loop = [1]; loop.append(loop)\n"
        "try:\n"
        "    canonical_json(loop)\n"
        "except ValueError as exc:\n"
        "    print(repr(exc))"
    )
    answer, after_answer, cycle = out
    assert answer == '{"index":[3,3,0],"sign":-1}'
    assert cycle == "ValueError('Circular reference detected')"
    after_answer = set(after_answer.split()) & new
    assert "_json" in after_answer and not after_answer & JSON_PACKAGE
    assert "json" in new - after_answer


# One value of each value type, with its repr as the frozen dataclasses printed it.
VALUES = [
    (core.SignedIndexResult(1, (3, 2)), "SignedIndexResult(sign=1, index=(3, 2))"),
    (core.ZERO, "SignedIndexResult(sign=0, index=())"),
    (codecalc.encode_code((1, 3)), "CodeWord(letters='RRRULLU')"),
    (codecalc.encode_shifted((3, 1)), "ShiftedCodeWord(letters='URU')"),
    (codecalc.preshift(codecalc.encode_code((3, 1))), "PreshiftedWord(letters='URU')"),
    (
        codecalc.bernstein_series((2, 1), 2)[1],
        "SeriesTerm(family='schur', i=2, t_exp=0, sign_exp=1, index=(1, 1, 1))",
    ),
    (
        codecalc.q_series_i_form((3, 1), 2)[2],
        "QSeriesTerm(n=4, j=0, i=2, sign_exp=0, index=(4, 3, 1))",
    ),
]
VALUE_IDS = "SignedIndexResult ZERO CodeWord ShiftedCodeWord PreshiftedWord SeriesTerm QSeriesTerm"


@pytest.mark.parametrize("value,golden", VALUES, ids=VALUE_IDS.split())
def test_value_types_keep_the_dataclass_contract(value, golden):
    assert repr(value) == golden
    cls = type(value)
    rebuilt = eval(golden, {cls.__name__: cls})  # the repr's keywords build an equal value
    assert rebuilt is not value and rebuilt == value and hash(rebuilt) == hash(value)

    class Twin(cls):  # the same fields under another type are unequal
        __slots__ = ()

    twin = eval(golden.replace(cls.__name__, "Twin", 1), {"Twin": Twin})
    assert twin != value and value != twin

    for name in re.findall(r"(\w+)=", golden):
        with pytest.raises(AttributeError):
            setattr(value, name, getattr(value, name))
        with pytest.raises(AttributeError):
            delattr(value, name)

    for copied in (pickle.loads(pickle.dumps(value)), copy.copy(value), copy.deepcopy(value)):
        assert type(copied) is cls and copied == value and hash(copied) == hash(value)


def test_value_types_differ_by_fields():
    values = [value for value, _ in VALUES]
    assert all(a != b for i, a in enumerate(values) for b in values[i + 1 :])
    assert len(set(values)) == len(values)


def test_make_is_the_only_setter_of_a_value():
    """No module of the package sets a field through object.__setattr__, and
    no _Value subclass defines __init__: a public constructor is a __new__
    that checks its arguments and returns cls._make."""
    trees = {f.name: ast.parse(f.read_text()) for f in Path(core.__file__).parent.glob("*.py")}
    setattr_calls = [
        name
        for name, tree in trees.items()
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and ast.unparse(node.func) == "object.__setattr__"
    ]
    assert setattr_calls == []
    classes = {
        node.name: node
        for tree in trees.values()
        for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef)
    }
    values = {"_Value"}
    for _ in classes:  # one pass per level of subclassing is enough
        values |= {n for n, c in classes.items() if {ast.unparse(b) for b in c.bases} & values}
    assert {"SignedIndexResult", "PreshiftedWord", "SeriesTerm", "QSeriesTerm"} <= values
    defines = {n: [getattr(item, "name", "") for item in classes[n].body] for n in values}
    assert [n for n in values if "__init__" in defines[n]] == []


def _check_trusted(value):
    """A value the package built equals, hashes as and pickles as the same
    value built through its validating constructor."""
    cls = type(value)
    rebuilt = cls(*(getattr(value, name) for name in cls.__match_args__))
    assert value == rebuilt and hash(value) == hash(rebuilt), value
    assert pickle.loads(pickle.dumps(value)) == value
    index = getattr(value, "index", ())
    assert type(index) is tuple and all(type(p) is int for p in index), value


def test_the_package_values_match_validated_ones():
    for mu in itertools.chain.from_iterable(
        itertools.product(range(7), repeat=length) for length in range(5)
    ):
        word = codes.encode_code(mu)
        values = [
            word,
            codes.straighten_B(mu),
            codes.reading_straighten(word),
            codes.reading_straighten(word.letters),
            oracle.exponent_straighten(mu),
            qvertex.straighten_Y_code(mu),
            qvertex.straighten_Y_perm(mu),
        ]
        if all(mu):
            shifted_word = shifted.encode_shifted(mu)
            values += [shifted_word, shifted.shifted_straighten(shifted_word)]
            values += [shifted.preshift(word), shifted.preshift(word).strip_prefix()]
        lam = mu[1:]
        if mu and core.is_partition(lam):
            values += [bernstein.bn_action(mu[0], lam), bernstein.bn_action(-mu[0], lam)]
            values += bernstein.bernstein_series(lam, 3) + bernstein.bernstein_series_window(lam, 1)
        if mu and all(lam) and core.is_strict_partition(lam):
            values += [qvertex.yn_action(mu[0], lam)]
            values += qvertex.q_series_i_form(lam, 3) + qvertex.q_series_j_form(lam, 3)
        for value in values:
            _check_trusted(value)


M = MyInt
# every public route that returns an index, fed int-subclass entries and
# int-subclass positions; each answer holds exact ints only
INT_SUBCLASS_ROUTES = {
    "straighten_B": lambda: codes.straighten_B((M(1), M(3))),
    "straighten_code": lambda: codes.straighten_code(codes.encode_code((M(1), M(3)))),
    "reading_straighten": lambda: codes.reading_straighten(codes.encode_code((M(1), M(3)))),
    "exponent_straighten": lambda: oracle.exponent_straighten((M(1), M(3))),
    "straighten_Y_perm": lambda: qvertex.straighten_Y_perm((M(1), M(2))),
    "straighten_Y_code": lambda: qvertex.straighten_Y_code((M(1), M(2))),
    "yn_action": lambda: qvertex.yn_action(M(5), (3,)),
    "yn_action_zero_row": lambda: qvertex.yn_action(M(0), (M(3),)),
    "bn_action": lambda: bernstein.bn_action(M(5), (M(3),)),
    "lambda_sup": lambda: bernstein.lambda_sup((M(3),), M(1)),
    "lambda_bracket": lambda: qvertex.lambda_bracket((M(3),), M(0)),
    "lambda_bracket_shifted": lambda: shifted.lambda_bracket_shifted((M(3),), M(1)),
    "r_index": lambda: (bernstein.r_index((M(3),), M(1)),),
    "bernstein_series": lambda: bernstein.bernstein_series((M(3), M(1)), M(4)),
    "bernstein_series_window": lambda: bernstein.bernstein_series_window((M(3), M(1)), M(2)),
    "q_series_i_form": lambda: qvertex.q_series_i_form((M(3),), M(3)),
    "q_series_j_form": lambda: qvertex.q_series_j_form((M(3),), M(4)),
    "encode_code": lambda: codes.encode_code((M(3), M(1))),
    "decode_code": lambda: codes.decode_code(codes.encode_code((M(3), M(1)))),
    "encode_shifted": lambda: shifted.encode_shifted((M(3), M(1))),
    "decode_shifted": lambda: shifted.decode_shifted(shifted.encode_shifted((M(3), M(1)))),
    "shifted_straighten": lambda: shifted.shifted_straighten(shifted.encode_shifted((M(1), M(3)))),
    "preshift": lambda: shifted.preshift(codes.encode_code((M(3), M(1)))),
}


@pytest.mark.parametrize("route", INT_SUBCLASS_ROUTES.values(), ids=INT_SUBCLASS_ROUTES)
def test_every_route_answers_an_int_subclass_in_exact_ints(route):
    out = route()
    values = out if isinstance(out, list) else [out]
    assert values
    for value in values:
        if isinstance(value, tuple):
            assert all(type(p) is int for p in value), value
            continue
        _check_trusted(value)  # the public constructor accepts it
        for name in value.__slots__:
            field = getattr(value, name)
            if name == "runs":
                assert all(type(d) is int for d in field), value
            elif name != "family":
                assert type(field) is int or all(type(p) is int for p in field), value
