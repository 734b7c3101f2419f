"""The op table that the CLI and the corpus replay share."""

from __future__ import annotations

import json

import pytest

import codecalc
from codecalc import ops, verify
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


def test_package_serves_the_verify_names_on_first_use():
    namespace = {}
    exec("from codecalc import *", namespace)
    assert namespace["SUITES"] is verify.SUITES
    assert namespace["VerifyReport"] is verify.VerifyReport
    with pytest.raises(AttributeError):
        codecalc.no_such_name
