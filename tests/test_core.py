"""Tests for shared result/index types and parsing."""

from __future__ import annotations

import copy
import pickle
import re

import pytest

import codecalc
from codecalc import core


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


def test_canonical_json_is_stable():
    blob = {"b": [1, 2], "a": {"zero": True}}
    out = core.canonical_json(blob)
    assert out == '{"a":{"zero":true},"b":[1,2]}'
    import json

    assert core.canonical_json(json.loads(out)) == out


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
