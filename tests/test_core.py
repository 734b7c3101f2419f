"""Tests for shared result/index types and parsing."""

from __future__ import annotations

import pytest

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
