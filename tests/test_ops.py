"""The op table that the CLI and the corpus replay share."""

from __future__ import annotations

import importlib
import json
import sys
import types

import pytest

import child
import codecalc
from codecalc import ops, qvertex, verify
from codecalc.core import canonical_json


def test_shipped_corpus_uses_exactly_the_ops_in_the_table():
    used = {json.loads(line)["op"] for line in verify.corpus_lines()}
    assert used == set(ops.OPS)
    assert len(ops.OPS) == 27


@pytest.mark.parametrize(
    "args,error",
    [
        ({"index": [3]}, "KeyError: 'n'"),
        ({"n": 1, "index": 3}, "TypeError: 'int' object is not iterable"),
    ],
    ids=["missing-argument", "index-not-iterable"],
)
def test_args_the_op_cannot_take_are_a_recorded_failure(tmp_path, args, error):
    line = canonical_json({"op": "bn_action", "args": args, "expected": {"zero": True}})
    path = tmp_path / "bad.jsonl"
    path.write_text(line + "\n", encoding="utf-8")
    report = verify.verify_corpus(str(path))
    assert report.cases == 1
    assert report.failures == [
        {
            "suite": "corpus",
            "input": {"line": 1, "op": "bn_action", "args": args},
            "expected": "args that bn_action takes",
            "got": error,
        }
    ]


def test_package_serves_every_public_name_on_first_use():
    for name in codecalc.__all__:
        value = getattr(codecalc, name)
        home = sys.modules[f"codecalc.{codecalc._HOME[name]}"]
        assert value is getattr(home, name)
        if isinstance(value, (type, types.FunctionType)):
            assert value.__module__ == home.__name__  # the module that defines it
    assert set(codecalc.__all__) <= set(dir(codecalc))
    namespace = {}
    exec("from codecalc import *", namespace)
    assert all(namespace[name] is getattr(codecalc, name) for name in codecalc.__all__)
    assert namespace["SUITES"] is verify.SUITES
    with pytest.raises(AttributeError):
        codecalc.no_such_name


def test_an_error_the_op_raises_is_recorded_against_expected(monkeypatch):
    def slip(parts):
        raise KeyError("slip")  # a route's own fault, though its args are right

    monkeypatch.setattr(qvertex, "straighten_Y_code", slip)
    report = verify.verify_corpus()
    entries = list(enumerate(map(json.loads, verify.corpus_lines()), start=1))
    assert report.cases == len(entries)
    assert report.failures == [
        {
            "suite": "corpus",
            "input": {"line": lineno, "op": entry["op"], "args": entry["args"]},
            "expected": entry["expected"],
            "got": "KeyError: 'slip'",
        }
        for lineno, entry in entries
        if entry["op"] == "straighten_Y_code"
    ]
    assert len(report.failures) == 5


def test_a_patched_route_is_never_kept_in_the_table():
    # in a fresh interpreter, so that no qvertex op has run before the patch
    script = """
import codecalc
from codecalc import ops, qvertex
args = {"index": [2], "n_max": 3}
real = qvertex.q_series_j_form
qvertex.q_series_j_form = lambda lam, n_max: []
print(ops.run("q_series_j_form", args))
qvertex.q_series_j_form = real
print(ops.run("q_series_j_form", args))
print(codecalc._load("q_series_j_form") is real)
"""
    proc = child.run("-c", script)
    assert proc.returncode == 0, proc.stderr
    patched, answer, kept = proc.stdout.splitlines()
    assert patched == "{'terms': []}"  # the patch answered the first call
    assert answer == repr(ops.run("q_series_j_form", {"index": [2], "n_max": 3}))
    assert answer.startswith("{'terms': [{") and kept == "True"


# the keys ops._json_value knows, and None for a value's to_dict()
KEYS = {None, "index", "kind", "letters", "poly", "terms", "value"}


def test_every_op_is_a_function_its_home_module_defines():
    for op, (names, key) in ops.OPS.items():
        assert op in codecalc._HOME, op
        home = importlib.import_module(f"codecalc.{codecalc._HOME[op]}")
        fn = getattr(home, op)
        assert isinstance(fn, types.FunctionType) and fn.__module__ == home.__name__, op
        # the table holds data only: argument names and a JSON key
        assert names and all(isinstance(n, str) for n in names) and key in KEYS, op
