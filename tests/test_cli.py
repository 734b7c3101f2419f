"""Golden tests for the command-line interface."""

from __future__ import annotations

import copy
import importlib
import inspect
import json
import re
import time
from pathlib import Path

import pytest

import child
import codecalc
from child import JSON_PACKAGE
from codecalc import cli, codes, shifted, verify
from codecalc.core import SignedIndexResult, canonical_json


GOLDEN_TEXT = [
    (("straighten", "--algebra", "b", "1,3,1,6,2"), "+1 * B[3,3,3,2,2]\n"),
    (("straighten", "--algebra", "b", "2,3"), "0\n"),
    (("straighten", "--algebra", "q", "--method", "perm", "2,3"), "-1 * Q[3,2]\n"),
    (("straighten", "--algebra", "q", "--method", "all", "2,3"), "-1 * Q[3,2]\n"),
    (("straighten", "--algebra", "b", "--method", "all", "1,3,1,6,2"), "+1 * B[3,3,3,2,2]\n"),
    (("act", "--algebra", "q", "-n", "2", "--index", "3"), "-1 * Q[3,2]\n"),
    (("act", "--algebra", "b", "-n", "1", "--index", "3,1"), "-1 * B[2,2,1]\n"),
    (("act", "--algebra", "b", "-n", "-3", "--index", "2"), "0\n"),
    (("code", "--shifted", "--index", "4,2,1"), "UURU\n"),
    (("code", "--index", "4,2,2,1"), "RURUURRU\n"),
    (("code", "--decode", "URRU"), "2,0\n"),
    (("code", "--shifted", "--decode", "UURU"), "4,2,1\n"),
    (
        ("series", "--algebra", "q", "--index", "2", "--n-max", "3"),
        "-t^0 * Q[2,0]\n-t^1 * Q[2,1]\n+t^3 * Q[3,2]\n",
    ),
    (
        ("series", "--algebra", "b", "--index", "1", "--i-max", "3"),
        "-t^-1 * B[0,0]\n+t^1 * B[1,1]\n+t^2 * B[2,1]\n",
    ),
    (("series", "--algebra", "b", "--index", "3", "--n-max", "-2"), ""),
]


@pytest.mark.parametrize("argv,expected", GOLDEN_TEXT)
def test_golden_text(argv, expected):
    code, out, err = child.in_process(*argv)
    assert code == 0 and err == ""
    assert out == expected


def test_json_output_and_round_trip():
    code, out, _ = child.in_process("straighten", "--algebra", "b", "--format", "json", "1,3,1,6,2")
    assert code == 0
    assert out == '{"index":[3,3,3,2,2],"sign":1}\n'
    assert canonical_json(json.loads(out)) + "\n" == out

    code, out, _ = child.in_process("straighten", "--algebra", "b", "--format", "json", "2,3")
    assert out == '{"zero":true}\n'

    code, out, _ = child.in_process(
        "series", "--algebra", "q", "--index", "2", "--n-max", "3", "--format", "json"
    )
    parsed = json.loads(out)
    assert [t["index"] for t in parsed["terms"]] == [[2, 0], [2, 1], [3, 2]]
    assert canonical_json(parsed) + "\n" == out


def test_env_var_selects_format():
    code, out, _ = child.in_process("code", "--index", "2,0", env="json")
    assert code == 0 and out == '{"letters":"URRU"}\n'
    # explicit flag wins over the environment
    code, out, _ = child.in_process("code", "--index", "2,0", "--format", "text", env="json")
    assert code == 0 and out == "URRU\n"


def test_bad_env_var_is_a_usage_error():
    code, _, err = child.in_process("code", "--index", "1", env="bogus")
    assert code == 1 and "CODECALC_FORMAT" in err


USAGE_ERRORS = [
    ("straighten", "--algebra", "x", "1"),
    ("straighten", "1,2"),  # missing --algebra
    ("straighten", "--algebra", "b", "--method", "perm", "1,2"),
    ("straighten", "--algebra", "q", "--method", "oracle", "1,2"),
    ("series", "--algebra", "b", "--index", "1"),  # no window
    ("series", "--algebra", "b", "--index", "1", "--i-max", "2", "--n-max", "3"),
]


def test_usage_errors_exit_1():
    for argv in USAGE_ERRORS:
        assert child.in_process(*argv)[0] == 1, argv


def test_domain_errors_exit_1():
    assert child.in_process("act", "--algebra", "q", "-n", "-1", "--index", "3")[0] == 1
    assert child.in_process("act", "--algebra", "b", "-n", "1", "--index", "1,2")[0] == 1
    assert child.in_process("code", "--decode", "RL")[0] == 1
    assert child.in_process("straighten", "--algebra", "b", "1,x")[0] == 1


def test_out_of_memory_is_an_error_line(monkeypatch):
    def exhausted(parts):
        raise MemoryError  # what encoding a part too large for memory ends in

    monkeypatch.setattr(codes, "straighten_B", exhausted)
    assert child.in_process("straighten", "--algebra", "b", "100000000000") == (
        1,
        "",
        "error: out of memory\n",
    )


@pytest.mark.parametrize(
    "algebra,window", [("b", "--i-max"), ("b", "--n-max"), ("q", "--i-max"), ("q", "--n-max")]
)
def test_series_beyond_the_cap_is_an_error(algebra, window):
    code, out, err = child.in_process(
        "series", "--algebra", algebra, "--index", "1", window, "100000000"
    )
    assert code == 1 and out == ""
    assert err == f"error: {window[2:].replace('-', '_')} must be at most 10000, got 100000000\n"


INT_FLAGS = [
    ("act", "--algebra", "b", "--index", "2,1", "-n"),
    ("series", "--algebra", "b", "--index", "1", "--i-max"),
    ("series", "--algebra", "q", "--index", "1", "--n-max"),
    ("verify", "--suite", "corpus", "--max-part"),
    ("verify", "--suite", "corpus", "--max-len"),
    ("verify", "--suite", "corpus", "--i-max"),
    ("verify", "--suite", "corpus", "--n-max"),
]


INT_VALUES = ["\u0663", "\uff13", "1_0", "+2", " 2", "2\n"]


@pytest.mark.parametrize("prefix", INT_FLAGS, ids=[p[0] + p[-1] for p in INT_FLAGS])
@pytest.mark.parametrize(
    "value", INT_VALUES, ids=["arabic-indic", "fullwidth", "underscore", "plus", "space", "newline"]
)
def test_integer_flags_take_ascii_digits_only(prefix, value):
    code, out, err = child.in_process(*prefix, value)
    assert code == 1 and out == ""
    assert err.startswith("error: ") and err.endswith(f"invalid int value: {value!r}\n")


def test_method_all_skips_shifted_on_zero_rows():
    code, out, _ = child.in_process("straighten", "--algebra", "q", "--method", "all", "0,2")
    assert code == 0 and out == "-1 * Q[2,0]\n"


@pytest.mark.parametrize("index", ["0,0", "1,0,0"])
@pytest.mark.parametrize(
    "method,expected",
    [
        ("code", (0, "0\n", "")),
        ("perm", (0, "0\n", "")),
        ("all", (0, "0\n", "")),
        ("shifted", (1, "", "error: index entry 0 is below the allowed minimum 1\n")),
    ],
)
def test_q_methods_on_two_zero_rows(method, expected, index):
    # two zero rows annihilate on the Q side (README); shifted words take positive rows only
    assert child.in_process("straighten", "--algebra", "q", "--method", method, index) == expected


def _home(op):
    return importlib.import_module(f"codecalc.{codecalc._HOME[op]}")


# one route of each algebra made to answer with the other sign
@pytest.mark.parametrize(
    "algebra,op,index,result",
    [
        ("b", "exponent_straighten", "1,3,1,6,2", (-1, (3, 3, 3, 2, 2))),
        ("q", "straighten_Y_perm", "2,3", (1, (3, 2))),
    ],
)
def test_disagreeing_methods_are_an_internal_error(monkeypatch, algebra, op, index, result):
    monkeypatch.setattr(_home(op), op, lambda *args: SignedIndexResult(*result))
    code, out, err = child.in_process("straighten", "--algebra", algebra, "--method", "all", index)
    assert (code, out) == (2, "")
    assert err.startswith("internal error: straightening methods disagree: ")
    assert err.count("\n") == 1


def test_method_all_leaves_the_shared_table_as_it_was(monkeypatch):
    calls = []
    real = shifted.shifted_straighten
    monkeypatch.setattr(shifted, "shifted_straighten", lambda w: calls.append(w) or real(w))
    table = {algebra: dict(methods) for algebra, methods in cli._METHODS.items()}
    q_all = ("straighten", "--algebra", "q", "--method", "all")
    assert child.in_process(*q_all, "0,1") == (0, "-1 * Q[1,0]\n", "")
    assert calls == []  # shifted codes carry positive rows only
    assert child.in_process(*q_all, "1,2") == (0, "-1 * Q[2,1]\n", "")
    assert len(calls) == 1
    assert cli._METHODS == table


@pytest.mark.parametrize(
    "algebra,method,index,expected",
    [
        ("b", "code", "1,3,1,6,2", "+1 * B[3,3,3,2,2]\n"),
        ("b", "reading", "1,3,1,6,2", "+1 * B[3,3,3,2,2]\n"),
        ("b", "oracle", "1,3,1,6,2", "+1 * B[3,3,3,2,2]\n"),
        ("q", "code", "2,3", "-1 * Q[3,2]\n"),
        ("q", "perm", "2,3", "-1 * Q[3,2]\n"),
        ("q", "shifted", "2,3", "-1 * Q[3,2]\n"),
    ],
)
def test_one_method_runs_no_other_route(monkeypatch, algebra, method, index, expected):
    def refuse(*args):
        raise AssertionError("a route that was not asked for ran")

    for a, methods in cli._METHODS.items():
        for m, (op, _) in methods.items():
            if (a, m) != (algebra, method):
                monkeypatch.setattr(_home(op), op, refuse)
    code, out, err = child.in_process("straighten", "--algebra", algebra, "--method", method, index)
    assert (code, out, err) == (0, expected, "")


@pytest.mark.parametrize("method", ["code", "reading", "oracle", "all"])
@pytest.mark.parametrize("index", ["2,-1", "-1"])
def test_b_methods_reject_a_negative_row(method, index):
    # B_{-1} . 1 = h_{-1} = 0, so no B method may print a product for a negative row
    argv = ("straighten", "--algebra", "b", "--method", method, "--", index)
    code, out, err = child.in_process(*argv)
    assert (code, out) == (1, "")
    assert err == "error: index entry -1 is below the allowed minimum 0\n"


def test_act_on_empty_index():
    code, out, _ = child.in_process("act", "--algebra", "b", "-n", "3")
    assert code == 0 and out == "+1 * B[3]\n"
    code, out, _ = child.in_process("act", "--algebra", "q", "-n", "0")
    assert code == 0 and out == "+1 * Q[0]\n"


def test_verify_corpus_subcommand():
    code, out, _ = child.in_process("verify", "--suite", "corpus")
    assert code == 0
    assert out.startswith("suite=corpus cases=")
    assert "failures=0" in out


def test_verify_small_sweep_json():
    code, out, _ = child.in_process(
        "verify", "--suite", "codes", "--max-part", "2", "--max-len", "2", "--format", "json"
    )
    assert code == 0
    report = json.loads(out.splitlines()[0])
    assert report["suite"] == "codes" and report["failures"] == 0


def test_corpus_file_replay(tmp_path):
    lines = [
        canonical_json(
            {
                "op": "straighten_B",
                "args": {"index": [1, 3]},
                "expected": {"sign": -1, "index": [2, 2]},
            }
        ),
        canonical_json(
            {
                "op": "encode_shifted",
                "args": {"index": [2, 3, 1]},
                "expected": {"letters": "URULLU"},
            }
        ),
    ]
    path = tmp_path / "mini.jsonl"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    code, out, _ = child.in_process("verify", "--suite", "corpus", "--file", str(path))
    assert code == 0 and "cases=2 failures=0" in out


def test_corpus_failure_reporting(tmp_path):
    entry = canonical_json(
        {"op": "straighten_B", "args": {"index": [1, 3]}, "expected": {"zero": True}}
    )
    path = tmp_path / "bad.jsonl"
    path.write_text(entry + "\n", encoding="utf-8")
    out_path = tmp_path / "failures.jsonl"
    code, out, _ = child.in_process(
        "verify", "--suite", "corpus", "--file", str(path), "--output", str(out_path)
    )
    assert code == 1 and "failures=1" in out
    failure = json.loads(out_path.read_text().splitlines()[0])
    assert failure["suite"] == "corpus" and failure["expected"] == {"zero": True}


def test_verify_missing_corpus_file_is_an_error(tmp_path):
    missing = str(tmp_path / "missing.jsonl")
    for suite in (("--suite", "corpus"), ()):  # () runs every suite, the corpus last
        code, out, err = child.in_process("verify", *suite, "--file", missing)
        assert code == 1 and out == ""
        assert err.startswith("error:") and "missing.jsonl" in err


@pytest.mark.parametrize(
    "flag,value,message",
    [
        ("--max-part", "-1", "max_part must be an int >= 0, got -1"),
        ("--max-len", "30", "max_len must be at most 4, got 30"),
        ("--n-max", "20000", "n_max must be at most 1000, got 20000"),
    ],
)
def test_verify_range_beyond_its_bound_is_an_error(flag, value, message):
    start = time.perf_counter()
    code, out, err = child.in_process("verify", flag, value)
    assert time.perf_counter() - start < 0.5
    assert code == 1 and out == ""
    assert err == f"error: {message}\n"


def test_verify_accepts_its_largest_ranges():
    argv = "verify --suite corpus --max-part 8 --max-len 4 --i-max 1000 --n-max 1000"
    code, out, err = child.in_process(*argv.split())
    assert code == 0 and err == "" and "failures=0" in out


def test_suite_choices_match_the_verify_suites():
    assert list(cli._SUITES) == list(verify.SUITES)
    for name, flags in cli._SUITES.items():  # each sweep takes one argument per flag
        assert len(inspect.signature(verify.SUITES[name]).parameters) == len(flags), name


def test_verify_unwritable_output_is_an_error(tmp_path):
    code, out, err = child.in_process(
        "verify", "--suite", "corpus", "--output", str(tmp_path / "no_dir" / "x")
    )
    assert code == 1 and out == ""
    assert err.startswith("error:") and "no_dir" in err


@pytest.mark.parametrize(
    "line",
    [
        "this line is not JSON",
        canonical_json({"op": "straighten_B", "expected": {"zero": True}}),
    ],
    ids=["not-json", "no-args"],
)
def test_verify_malformed_corpus_line_is_a_failure(tmp_path, line):
    good = canonical_json(
        {"op": "straighten_B", "args": {"index": [1, 3]}, "expected": {"sign": -1, "index": [2, 2]}}
    )
    path = tmp_path / "bad.jsonl"
    path.write_text(good + "\n" + line + "\n", encoding="utf-8")
    code, out, err = child.in_process("verify", "--suite", "corpus", "--file", str(path))
    assert code == 1 and err == ""
    lines = out.splitlines()
    assert lines[0].startswith("suite=corpus cases=2 failures=1")
    failure = json.loads(lines[1])
    assert failure["suite"] == "corpus" and failure["input"] == {"line": 2}


def test_verify_deeply_nested_corpus_line_is_a_failure(tmp_path):
    # json.loads raises RecursionError past its depth limit, which varies by
    # Python version: 995 deep is past it on 3.10 and 3.11, 100,000 everywhere
    lines = [
        "[" * 100_000 + "]" * 100_000,
        canonical_json({"op": "straighten_B", "args": {"index": [1, 3]}, "expected": None})
        .replace("null", "[" * 995 + "]" * 995),
    ]
    path = tmp_path / "deep.jsonl"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    code, out, err = child.in_process("verify", "--suite", "corpus", "--file", str(path))
    assert code == 1 and err == ""
    report, *failures = out.splitlines()
    assert report.startswith("suite=corpus cases=2 failures=2")
    failures = [json.loads(line) for line in failures]
    assert failures[0]["input"] == {"line": 1}
    assert failures[1]["input"]["line"] == 2
    # the same file in a fresh process, where every warning raises
    argv = ("verify", "--suite", "corpus", "--file", str(path))
    proc = child.run("-m", "codecalc", *argv, env=child.WARNINGS_ERROR)
    assert (proc.returncode, proc.stderr) == (1, "")
    assert proc.stdout.startswith("suite=corpus cases=2 failures=2")


def test_verify_factorial_corpus_line_is_a_failure(tmp_path):
    # 13 exponents would be 13! permutations, hours of work: the cap refuses them
    line = {"op": "bialternant", "args": {"exponents": [0] * 13}, "expected": {"poly": "0"}}
    path = tmp_path / "big.jsonl"
    path.write_text(canonical_json(line) + "\n", encoding="utf-8")
    start = time.perf_counter()
    code, out, err = child.in_process("verify", "--suite", "corpus", "--file", str(path))
    assert time.perf_counter() - start < 5
    assert code == 1 and err == ""
    report, failure = out.splitlines()
    assert report.startswith("suite=corpus cases=1 failures=1")
    assert json.loads(failure)["got"] == "DomainError: a bialternant takes at most 8 exponents, got 13"


# main(None) reads sys.argv[1:], answers a plain argv of a known command from
# its table and leaves any other to argparse; only a new process reaches that
# branch, errors included.  A row: argv, stdout, exit code and a pattern of the
# whole stderr; every warning raises in the child
FRESH = [
    child.case("straighten --algebra b 1,3,1,6,2", "+1 * B[3,3,3,2,2]\n"),
    child.case("act --algebra b -n -1 --index 2", "-1 * B[1,0]\n"),
    child.case("straighten --alg b 1,3,1,6,2", "+1 * B[3,3,3,2,2]\n"),
    # every method of an algebra, checked against the first; Q on a zero row drops shifted
    child.case("straighten --algebra b --method all 1,3,1,6,2", "+1 * B[3,3,3,2,2]\n"),
    child.case("straighten --algebra q --method all 0,1", "-1 * Q[1,0]\n"),
    # a repeated 0 annihilates on the Q side (README)
    child.case("straighten --algebra q --method all 1,0,0", "0\n"),
    child.case(
        "straighten --algebra q --method all --format json 3,1,2", '{"index":[3,2,1],"sign":-1}\n'
    ),
    # canonical JSON through this Python's encoder path, byte for byte
    child.case(
        "straighten --algebra b --format json 1,3,1,6,2", '{"index":[3,3,3,2,2],"sign":1}\n'
    ),
    child.case("code --decode RURUURRU --format json", '{"index":[4,2,2,1]}\n'),
    child.case("code --index 4,2,2,1 --format json", '{"letters":"RURUURRU"}\n'),
    child.case(
        "series --algebra q --index 3,1 --i-max 2 --format json",
        '{"terms":[{"family":"schurQ","i":0,"index":[3,1,0],"j":2,"sign_exp":2,"t_exp":0},'
        '{"family":"schurQ","i":1,"index":[3,2,1],"j":1,"sign_exp":1,"t_exp":2},'
        '{"family":"schurQ","i":2,"index":[4,3,1],"j":0,"sign_exp":0,"t_exp":4}]}\n',
    ),
    # the window stops at term i = 4, the first t-exponent (3) past --n-max
    child.case(
        "series --algebra b --index 3,1 --n-max 1 --format json",
        '{"terms":[{"family":"schur","i":1,"index":[2,0,0],"sign_exp":2,"t_exp":-2},'
        '{"family":"schur","i":2,"index":[2,1,1],"sign_exp":1,"t_exp":0},'
        '{"family":"schur","i":3,"index":[2,2,1],"sign_exp":1,"t_exp":1}]}\n',
    ),
    child.case("frobnicate", "", 1, "error: .*\n"),
    # a known command that the table refuses goes to the top-level parse
    child.case("straighten 1,2", "", 1, "error: the following arguments are required: --algebra\n"),
]
# each JSON answer again with _json blocked, so canonical_json takes json's Python encoder
NO_C_JSON = (
    "import sys; sys.modules['_json'] = None; from codecalc import cli; "
    "sys.exit(cli.main(sys.argv[1:]))"
)


@pytest.mark.parametrize(
    "args,out,code,err",
    FRESH
    + [
        pytest.param(("-c", NO_C_JSON, *p.values[0][2:]), *p.values[1:], id=f"no _json: {p.id}")
        for p in FRESH
        if "json" in p.id
    ],
)
def test_a_fresh_process_answers_from_sys_argv(args, out, code, err):
    proc = child.run(*args, env=child.WARNINGS_ERROR)
    assert (proc.returncode, proc.stdout) == (code, out)
    assert re.fullmatch(err, proc.stderr), proc.stderr


# no start of the package or the bench imports these
NEVER = {"__future__", "dataclasses", "inspect"}


def test_cold_bench_start_imports_only_core_and_codes():
    cold = str(Path(__file__).resolve().parents[1] / "bench" / "cold.py")
    out, new = child.start(
        "sys.argv[1:] = ['1,3']\n"
        f"with open({cold!r}) as f:\n"
        f"    exec(compile(f.read(), {cold!r}, 'exec'), {{'__name__': '__main__'}})"
    )
    assert out == ['{"index":[2,2],"sign":-1}']
    assert {m for m in new if m.split(".")[0] == "codecalc"} == {
        "codecalc",
        "codecalc.core",
        "codecalc.codes",
    }
    assert not new & NEVER
    # the JSON answer runs on the C encoder alone, not on the json package
    assert "_json" in new and not new & JSON_PACKAGE


def _cli_start(*argv):
    """child.start of ``python -m codecalc argv``, which must exit 0 and load
    none of NEVER."""
    out, new = child.start(
        "import runpy\n"
        f"sys.argv[1:] = {list(argv)!r}\n"
        "try:\n"
        "    runpy.run_module('codecalc', run_name='__main__', alter_sys=True)\n"
        "except SystemExit as stop:\n"
        "    assert stop.code == 0"
    )
    assert not new & NEVER
    return out, new


# the modules of the routes a plain B straighten does not run
ROUTE_MODULES = {"codecalc.bernstein", "codecalc.oracle", "codecalc.qvertex", "codecalc.shifted"}


def test_cli_start_imports_neither_dataclasses_nor_verify():
    out, new = _cli_start("straighten", "--algebra", "b", "1,3")
    assert out == ["-1 * B[2,2]"]
    assert "codecalc.cli" in new
    assert not new & {"dataclasses", "inspect", "codecalc.verify"}
    # a plain argv is answered from its table, and text output needs no json
    assert not new & {"argparse", "_json", *JSON_PACKAGE, *ROUTE_MODULES}


@pytest.mark.parametrize(
    "argv,out,loads,skips",
    [
        (
            ("straighten", "--algebra", "b", "--format", "json", "1,3"),
            ['{"index":[2,2],"sign":-1}'],
            {"_json"},
            {"argparse", *JSON_PACKAGE, *ROUTE_MODULES},
        ),
        (
            ("act", "--algebra", "q", "-n", "2", "--index", "3"),
            ["-1 * Q[3,2]"],
            {"codecalc.qvertex"},
            {"argparse", "_json", "json", "codecalc.bernstein"},
        ),
        (
            ("act", "--algebra", "b", "-n", "1", "--index", "2"),
            ["0"],
            {"codecalc.bernstein"},
            {"argparse", "_json", "json", *ROUTE_MODULES - {"codecalc.bernstein"}},
        ),
        (
            ("series", "--algebra", "b", "--index", "1", "--i-max", "2"),
            ["-t^-1 * B[0,0]", "+t^1 * B[1,1]"],
            {"codecalc.bernstein"},
            {"argparse", "_json", "json", *ROUTE_MODULES - {"codecalc.bernstein"}},
        ),
        (
            ("straighten", "--algebra", "b", "--method", "oracle", "1,3"),
            ["-1 * B[2,2]"],
            {"codecalc.oracle"},
            {"argparse", "_json", "json", "codecalc.codes", *ROUTE_MODULES - {"codecalc.oracle"}},
        ),
        (
            ("straighten", "--algebra", "q", "--method", "code", "2,3"),
            ["-1 * Q[3,2]"],
            {"codecalc.qvertex", "codecalc.oracle"},
            {"argparse", "_json", "json", "codecalc.bernstein", "codecalc.shifted"},
        ),
        (
            ("code", "--shifted", "--index", "3,1"),
            ["URU"],
            {"codecalc.shifted", "codecalc.qvertex", "codecalc.oracle"},
            {"argparse", "_json", "json", "codecalc.bernstein"},
        ),
    ],
    ids=[
        "json",
        "act-q",
        "act-b",
        "series-b",
        "straighten-b-oracle",
        "straighten-q-code",
        "code-shifted",
    ],
)
def test_cli_start_imports_what_its_command_uses(argv, out, loads, skips):
    got, new = _cli_start(*argv)
    assert got == out
    assert loads <= new and not new & skips


def test_cli_start_help_still_comes_from_argparse():
    out, new = _cli_start("straighten", "-h")
    assert out[0].startswith("usage: codecalc straighten [-h]")
    assert "argparse" in new


def _table(parser, actions, exclusive=()) -> tuple:
    """A command's table for _match, read from its parser's Actions as cli read
    it before the spec: option string -> option, the positional, the required
    dests, the exclusive dests and the defaults, the handler included."""

    def option(action):
        return (action.dest, action.nargs, action.const, action.type, action.choices)

    return (
        {s: option(a) for a in actions for s in a.option_strings},
        next((option(a) for a in actions if not a.option_strings), None),
        {a.dest for a in actions if a.required},
        {a.dest for a in exclusive},
        {**{a.dest: a.default for a in actions}, "handler": parser.get_default("handler")},
    )


def test_the_spec_tables_are_read_off_the_parsers_actions():
    # argparse keeps a parser's Actions and groups in private attributes
    parser = cli._build_parser()
    (commands,) = (a for a in parser._actions if a.dest == "command")
    assert list(commands.choices) == list(cli._COMMANDS) == list(cli._TABLES)
    for name, p in commands.choices.items():
        actions = [a for a in p._actions if a.dest != "help"]
        groups = p._mutually_exclusive_groups
        assert all(group.required for group in groups)
        exclusive = [a for group in groups for a in group._group_actions]
        assert _table(p, actions, exclusive) == cli._TABLES[name], name


def test_parser_is_built_once():
    assert cli._build_parser() is cli._build_parser()


# (argv, CODECALC_FORMAT or None): every way a request can end, interleaved
REUSE_SEQUENCE = [
    (("straighten", "--algebra", "b", "1,3,1,6,2"), None),
    (("series", "--algebra", "q", "--index", "2", "--n-max", "3", "--format", "json"), None),
    (("code", "--index", "4,2,2,1"), "json"),
    (("code", "--index", "4,2,2,1"), "bogus"),
    (("straighten", "--algebra", "x", "1"), None),
    (("straighten", "--help"), None),
    (("act", "--algebra", "b", "-n", "1", "--index", "1,2"), None),
    (("act", "--algebra", "q", "-n", "2", "--index", "3", "--format", "text"), "json"),
    (("code", "--decode", "RURUURRU", "--shifted"), None),
    (("series", "--algebra", "b", "--index", "1", "--i-max", "3"), "json"),
    (("act", "--algebra", "b", "-n", "x"), None),
    (("code", "--index", "4,2,2,1"), None),
]


def test_reused_parser_leaks_no_state():
    tables = copy.deepcopy(cli._TABLES)  # no call may edit a command's table
    fresh = {}
    for argv, env in REUSE_SEQUENCE:
        cli._build_parser.cache_clear()
        fresh[argv, env] = child.in_process(*argv, env=env)
    assert fresh[("straighten", "--help"), None][0] == ("SystemExit", 0)
    assert {code for code, _, _ in fresh.values()} == {0, 1, ("SystemExit", 0)}

    interleaved = REUSE_SEQUENCE[::2] + REUSE_SEQUENCE[1::2]
    for order in (REUSE_SEQUENCE[::-1], interleaved):
        cli._build_parser.cache_clear()
        for argv, env in order:
            assert child.in_process(*argv, env=env) == fresh[argv, env], argv
    assert cli._TABLES == tables


# argvs where the table and the top-level parser could part ways: help, no or
# an unknown command, abbreviations, "--", attached values, a leading option
# and an extra argument
DISPATCH_EDGES = [
    (),
    ("-h",),
    ("frobnicate",),
    ("straighten", "-h"),
    ("straighten", "--alg", "b", "1,2"),
    ("straighten", "--algebra=b", "--", "-1,2"),
    ("act", "--algebra", "b", "-n5", "--index", "2"),
    ("--format", "json", "straighten", "--algebra", "b", "1"),
    ("series", "--algebra", "q", "--index", "2", "--n-max", "3", "extra"),
]

# (argv, whether the table takes it): plain forms at the edge of what the table
# takes, and near misses that it leaves to argparse
PLAIN_EDGES = [
    (("act", "--algebra", "b", "-n", "-2", "--index", "2"), True),
    (("act", "--algebra", "b", "-n=-2", "--index", "2"), False),
    (("code", "--index=", "--shifted"), True),
    (("code", "--index=2", "--shifted=x"), False),
    (("straighten", "--algebra", "b", ""), True),
    (("straighten", "--algebra", "b", "-1"), True),
    (("straighten", "--algebra=b", "--format=json", "1,3,1,6,2"), True),
    (("straighten", "--algebra", "b", "--format", "json", "--format", "text", "1,2"), False),
]


# the table and the top-level parse answer alike
@pytest.mark.parametrize(
    "argv,env",
    [(argv, None) for argv, _ in GOLDEN_TEXT]
    + [(argv, None) for argv in USAGE_ERRORS + DISPATCH_EDGES]
    + REUSE_SEQUENCE
    + [(prefix + (value,), None) for prefix in INT_FLAGS for value in INT_VALUES]
    + [(argv, None) for argv, _ in PLAIN_EDGES],
)
def test_a_command_parser_answers_as_the_top_level_parse(argv, env):
    parser = cli._build_parser()
    if argv and argv[0] in cli._TABLES:
        args = cli._match(cli._TABLES[argv[0]], argv[1:])
        if args is not None:
            assert {**args, "command": argv[0]} == vars(parser.parse_args(argv))
    table = child.in_process(*argv, env=env)
    assert child.in_process(*argv, env=env, argparse_only=True) == table


def _record_parses(monkeypatch, parser):
    """The argvs the top-level parser's parse_known_args is called with, in order."""
    calls = []

    def parse_known_args(args=None, namespace=None):
        calls.append(list(args))
        return type(parser).parse_known_args(parser, args, namespace)

    monkeypatch.setattr(parser, "parse_known_args", parse_known_args)
    return calls


def test_a_plain_argv_takes_no_argparse_pass(monkeypatch):
    parser = cli._build_parser()
    calls = _record_parses(monkeypatch, parser)
    for argv, expected in GOLDEN_TEXT:
        assert child.in_process(*argv) == (0, expected, ""), argv
    code, out, _ = child.in_process("verify", "--suite", "corpus")
    assert code == 0 and out.startswith("suite=corpus cases=")
    assert {argv[0] for argv, _ in GOLDEN_TEXT} | {"verify"} == set(cli._TABLES)
    assert calls == []  # every plain argv is answered from its command's table

    # any other argv takes exactly one top-level parse
    for argv, taken in PLAIN_EDGES:
        child.in_process(*argv)
        assert calls == ([] if taken else [list(argv)]), argv
        calls.clear()

    for argv in [
        ("straighten", "--alg", "b", "1,2"),
        ("act", "--algebra", "b", "-n5", "--index", "2"),
        ("straighten", "--help"),
    ]:
        child.in_process(*argv)
        assert calls == [list(argv)], argv
        calls.clear()

    for argv, ends, message in [
        ((), 1, "error: the following arguments are required: command\n"),
        (("-h",), ("SystemExit", 0), "usage: codecalc [-h] {code,straighten,act,series,verify}"),
        (("frobnicate",), 1, "error: argument command: invalid choice: 'frobnicate'"),
        (("straighten", "1,2"), 1, "error: the following arguments are required: --algebra"),
    ]:
        code, out, err = child.in_process(*argv)
        assert code == ends and message in out + err, argv
        assert calls == [list(argv)], argv
        calls.clear()
