"""Golden tests for the command-line interface."""

from __future__ import annotations

import json
import subprocess
import sys
import time

import pytest

from codecalc import cli, ops, verify
from codecalc.cli import main
from codecalc.core import canonical_json


def _run(capsys, *argv, env_format=None, monkeypatch=None):
    if env_format is not None:
        monkeypatch.setenv("CODECALC_FORMAT", env_format)
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


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
def test_golden_text(capsys, argv, expected):
    code, out, err = _run(capsys, *argv)
    assert code == 0 and err == ""
    assert out == expected


def test_json_output_and_round_trip(capsys):
    code, out, _ = _run(capsys, "straighten", "--algebra", "b", "--format", "json", "1,3,1,6,2")
    assert code == 0
    assert out == '{"index":[3,3,3,2,2],"sign":1}\n'
    assert canonical_json(json.loads(out)) + "\n" == out

    code, out, _ = _run(capsys, "straighten", "--algebra", "b", "--format", "json", "2,3")
    assert out == '{"zero":true}\n'

    code, out, _ = _run(
        capsys, "series", "--algebra", "q", "--index", "2", "--n-max", "3", "--format", "json"
    )
    parsed = json.loads(out)
    assert [t["index"] for t in parsed["terms"]] == [[2, 0], [2, 1], [3, 2]]
    assert canonical_json(parsed) + "\n" == out


def test_env_var_selects_format(capsys, monkeypatch):
    code, out, _ = _run(
        capsys, "code", "--index", "2,0", env_format="json", monkeypatch=monkeypatch
    )
    assert code == 0 and out == '{"letters":"URRU"}\n'
    # explicit flag wins over the environment
    code, out, _ = _run(
        capsys,
        "code",
        "--index",
        "2,0",
        "--format",
        "text",
        env_format="json",
        monkeypatch=monkeypatch,
    )
    assert code == 0 and out == "URRU\n"


def test_bad_env_var_is_a_usage_error(capsys, monkeypatch):
    code, _, err = _run(
        capsys, "code", "--index", "1", env_format="bogus", monkeypatch=monkeypatch
    )
    assert code == 1 and "CODECALC_FORMAT" in err


def test_usage_errors_exit_1(capsys):
    assert _run(capsys, "straighten", "--algebra", "x", "1")[0] == 1
    assert _run(capsys, "straighten", "1,2")[0] == 1  # missing --algebra
    assert _run(capsys, "straighten", "--algebra", "b", "--method", "perm", "1,2")[0] == 1
    assert _run(capsys, "straighten", "--algebra", "q", "--method", "oracle", "1,2")[0] == 1
    assert _run(capsys, "series", "--algebra", "b", "--index", "1")[0] == 1  # no window
    assert (
        _run(capsys, "series", "--algebra", "b", "--index", "1", "--i-max", "2", "--n-max", "3")[0]
        == 1
    )


def test_domain_errors_exit_1(capsys):
    assert _run(capsys, "act", "--algebra", "q", "-n", "-1", "--index", "3")[0] == 1
    assert _run(capsys, "act", "--algebra", "b", "-n", "1", "--index", "1,2")[0] == 1
    assert _run(capsys, "code", "--decode", "RL")[0] == 1
    assert _run(capsys, "straighten", "--algebra", "b", "1,x")[0] == 1


def test_out_of_memory_is_an_error_line(capsys, monkeypatch):
    def exhausted(parts):
        raise MemoryError  # what encoding a part too large for memory ends in

    monkeypatch.setitem(ops.OPS, "straighten_B", (exhausted, ("index",), None))
    assert _run(capsys, "straighten", "--algebra", "b", "100000000000") == (
        1,
        "",
        "error: out of memory\n",
    )


@pytest.mark.parametrize(
    "algebra,window", [("b", "--i-max"), ("b", "--n-max"), ("q", "--i-max"), ("q", "--n-max")]
)
def test_series_beyond_the_cap_is_an_error(capsys, algebra, window):
    code, out, err = _run(
        capsys, "series", "--algebra", algebra, "--index", "1", window, "100000000"
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


@pytest.mark.parametrize("prefix", INT_FLAGS, ids=[p[0] + p[-1] for p in INT_FLAGS])
@pytest.mark.parametrize(
    "value",
    ["\u0663", "\uff13", "1_0", "+2", " 2", "2\n"],
    ids=["arabic-indic", "fullwidth", "underscore", "plus", "space", "newline"],
)
def test_integer_flags_take_ascii_digits_only(capsys, prefix, value):
    code, out, err = _run(capsys, *prefix, value)
    assert code == 1 and out == ""
    assert err.startswith("error: ") and err.endswith(f"invalid int value: {value!r}\n")


def test_method_all_skips_shifted_on_zero_rows(capsys):
    code, out, _ = _run(capsys, "straighten", "--algebra", "q", "--method", "all", "0,2")
    assert code == 0 and out == "-1 * Q[2,0]\n"


def test_act_on_empty_index(capsys):
    code, out, _ = _run(capsys, "act", "--algebra", "b", "-n", "3")
    assert code == 0 and out == "+1 * B[3]\n"
    code, out, _ = _run(capsys, "act", "--algebra", "q", "-n", "0")
    assert code == 0 and out == "+1 * Q[0]\n"


def test_verify_corpus_subcommand(capsys):
    code, out, _ = _run(capsys, "verify", "--suite", "corpus")
    assert code == 0
    assert out.startswith("suite=corpus cases=")
    assert "failures=0" in out


def test_verify_small_sweep_json(capsys):
    code, out, _ = _run(
        capsys,
        "verify",
        "--suite",
        "codes",
        "--max-part",
        "2",
        "--max-len",
        "2",
        "--format",
        "json",
    )
    assert code == 0
    report = json.loads(out.splitlines()[0])
    assert report["suite"] == "codes" and report["failures"] == 0


def test_corpus_file_replay(tmp_path, capsys):
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
    code, out, _ = _run(capsys, "verify", "--suite", "corpus", "--file", str(path))
    assert code == 0 and "cases=2 failures=0" in out


def test_corpus_failure_reporting(tmp_path, capsys):
    entry = canonical_json(
        {"op": "straighten_B", "args": {"index": [1, 3]}, "expected": {"zero": True}}
    )
    path = tmp_path / "bad.jsonl"
    path.write_text(entry + "\n", encoding="utf-8")
    out_path = tmp_path / "failures.jsonl"
    code, out, _ = _run(
        capsys, "verify", "--suite", "corpus", "--file", str(path), "--output", str(out_path)
    )
    assert code == 1 and "failures=1" in out
    failure = json.loads(out_path.read_text().splitlines()[0])
    assert failure["suite"] == "corpus" and failure["expected"] == {"zero": True}


def test_verify_missing_corpus_file_is_an_error(tmp_path, capsys):
    missing = str(tmp_path / "missing.jsonl")
    for suite in (("--suite", "corpus"), ()):  # () runs every suite, the corpus last
        code, out, err = _run(capsys, "verify", *suite, "--file", missing)
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
def test_verify_range_beyond_its_bound_is_an_error(capsys, flag, value, message):
    start = time.perf_counter()
    code, out, err = _run(capsys, "verify", flag, value)
    assert time.perf_counter() - start < 0.5
    assert code == 1 and out == ""
    assert err == f"error: {message}\n"


def test_verify_accepts_its_largest_ranges(capsys):
    argv = "verify --suite corpus --max-part 8 --max-len 4 --i-max 1000 --n-max 1000"
    code, out, err = _run(capsys, *argv.split())
    assert code == 0 and err == "" and "failures=0" in out


def test_suite_choices_match_the_verify_suites():
    assert cli._SUITES == tuple(verify.SUITES)


def test_verify_unwritable_output_is_an_error(tmp_path, capsys):
    code, out, err = _run(
        capsys, "verify", "--suite", "corpus", "--output", str(tmp_path / "no_dir" / "x")
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
def test_verify_malformed_corpus_line_is_a_failure(tmp_path, capsys, line):
    good = canonical_json(
        {"op": "straighten_B", "args": {"index": [1, 3]}, "expected": {"sign": -1, "index": [2, 2]}}
    )
    path = tmp_path / "bad.jsonl"
    path.write_text(good + "\n" + line + "\n", encoding="utf-8")
    code, out, err = _run(capsys, "verify", "--suite", "corpus", "--file", str(path))
    assert code == 1 and err == ""
    lines = out.splitlines()
    assert lines[0].startswith("suite=corpus cases=2 failures=1")
    failure = json.loads(lines[1])
    assert failure["suite"] == "corpus" and failure["input"] == {"line": 2}


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "codecalc", "straighten", "--algebra", "b", "1,3,1,6,2"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout == "+1 * B[3,3,3,2,2]\n"


def test_cli_start_does_not_import_verify():
    script = (
        "import sys, codecalc.cli; "
        "codecalc.cli.main(['straighten', '--algebra', 'b', '1,3']); "
        "print('codecalc.verify' in sys.modules)"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout == "-1 * B[2,2]\nFalse\n"


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


def _outcome(capsys, monkeypatch, argv, env):
    if env is None:
        monkeypatch.delenv("CODECALC_FORMAT", raising=False)
    else:
        monkeypatch.setenv("CODECALC_FORMAT", env)
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = ("SystemExit", exc.code)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_reused_parser_leaks_no_state(capsys, monkeypatch):
    fresh = {}
    for argv, env in REUSE_SEQUENCE:
        cli._build_parser.cache_clear()
        fresh[argv, env] = _outcome(capsys, monkeypatch, argv, env)
    assert fresh[("straighten", "--help"), None][0] == ("SystemExit", 0)
    assert {code for code, _, _ in fresh.values()} == {0, 1, ("SystemExit", 0)}

    interleaved = REUSE_SEQUENCE[::2] + REUSE_SEQUENCE[1::2]
    for order in (REUSE_SEQUENCE[::-1], interleaved):
        cli._build_parser.cache_clear()
        for argv, env in order:
            assert _outcome(capsys, monkeypatch, argv, env) == fresh[argv, env], argv
