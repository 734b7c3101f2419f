"""The verify suites catch a broken route, and their checks are pinned.

The public operations compute each answer once, by the code route; the
independent routes and the laws are compared in the verify suites.  Each
breaker test here breaks one route, one step of a ``codes.RULES`` entry, one
op of a ``verify.REFERENCES`` entry or one ``verify.LAWS`` entry, and checks
that the suites report it as a failure of the named check.  The rest pin the
case counts and the README's tables of checks.
"""

from __future__ import annotations

import importlib
import json
import re
from collections import Counter
from pathlib import Path

import pytest

import codecalc
from codecalc import bernstein, cli, codes, ops, qvertex, shifted, verify
from codecalc.core import negate


def _shift_i(real):
    return lambda word_or_index, i: real(word_or_index, i + 1)


def _extra_row(real):
    # a step on runs that adds an empty top row
    def step(word, j):
        out = real(word, j)
        return out and (out[0], out[1] + (0,))

    return step


def _flip_sign(real):
    def step(word, j):
        out = real(word, j)
        return out and (out[0] + 1, out[1])

    return step


def _leading_l(word_type, real):
    return lambda parts: word_type._make((-1,) + real(parts).runs)


def _row_up(real):
    # runs whose bottom run moves one column more: every row one larger
    def runs(parts, shift=0):
        out = real(parts, shift)
        return out and (out[0] + 1,) + out[1:]

    return runs


def _raises(error):
    def breaker(real):
        def broken(*args):
            raise error("broken on purpose")

        return broken

    return breaker


def _one_more_flip(real):
    # the series walk with one more sign flip on every term
    return lambda runs, shift, i_min, i_max, t_max, term: real(
        runs, shift, i_min, i_max, t_max, lambda i, t_exp, j, index: term(i, t_exp, j + 1, index)
    )


BROKEN_ROUTES = [
    # (module, attribute, how to break it, suite, op whose check must fail);
    # _replace_ith_r takes a word's runs, the shared bracket route an index.
    # The shared routes are broken where each side imports them, and each
    # side's own reference must catch the fault.  _index_runs turns the rows
    # of the index a bernstein or qvertex route validated into runs, with no
    # encode_code on the way, so each side checks it through its own routes.
    (bernstein, "_index_runs", _row_up, verify.verify_bernstein, "action_straighten"),
    (qvertex, "_index_runs", _row_up, verify.verify_qvertex, "bracket_code"),
    (bernstein, "_replace_ith_r", _shift_i, verify.verify_bernstein, "sup_code"),
    (qvertex, "_bracket", _shift_i, verify.verify_qvertex, "bracket_code"),
    (shifted, "_bracket", _shift_i, verify.verify_shifted, "bracket_shifted"),
    (bernstein, "_series", _one_more_flip, verify.verify_bernstein, "series_action"),
    (qvertex, "_series", _one_more_flip, verify.verify_qvertex, "series_forms"),
    (
        codes,
        "encode_code",
        lambda real: _leading_l(codes.CodeWord, real),
        verify.verify_codes,
        "encode_valid",
    ),
    (
        shifted,
        "encode_shifted",
        lambda real: _leading_l(shifted.ShiftedCodeWord, real),
        verify.verify_shifted,
        "encode_valid",
    ),
    # a fault that is no CalcError, as a slip of an index makes
    (qvertex, "q_series_j_form", _raises(IndexError), verify.verify_qvertex, "series_forms"),
]


@pytest.mark.parametrize(
    "module,name,breaker,suite,op",
    BROKEN_ROUTES,
    ids=[f"{m.__name__.split('.')[-1]}.{n}" for m, n, *_ in BROKEN_ROUTES],
)
def test_suite_reports_broken_route(monkeypatch, module, name, breaker, suite, op):
    assert suite(3, 3).ok
    monkeypatch.setattr(module, name, breaker(getattr(module, name)))
    report = suite(3, 3)
    failed_ops = {f["input"].get("op") for f in report.failures}
    assert op in failed_ops, sorted(map(str, failed_ops))


def test_suite_reports_broken_renderer(monkeypatch):
    # the encoders build runs and the letters are rendered from them, here
    # with every L-run drawn as R's; the word laws read the letters
    assert verify.verify_codes(3, 3).ok
    real = codes._render
    monkeypatch.setattr(codes, "_render", lambda runs: real(tuple(map(abs, runs))))
    report = verify.verify_codes(3, 3)
    failed_ops = {f["input"].get("op") for f in report.failures}
    assert failed_ops & {"encode_valid", "round_trip"}, sorted(map(str, failed_ops))


def _outcome(straighten, mu):
    try:
        return straighten(mu)
    except codes.InternalInvariantError as exc:
        return type(exc).__name__


BROKEN_RULES = [
    # (rule of codes.RULES, how to break its step, suite, op whose check must
    # fail, the public straightener that runs the rule); the reading step
    # rewrites letters, the others runs
    ("plain", _extra_row, verify.verify_codes, "step_invariants", codes.straighten_B),
    (
        "shifted",
        _extra_row,
        verify.verify_shifted,
        "step_invariants",
        lambda mu: shifted.shifted_straighten(shifted.encode_shifted(mu)),
    ),
    ("q", _extra_row, verify.verify_qvertex, "step_invariants", qvertex.straighten_Y_code),
    (
        "reading",
        _flip_sign,
        verify.verify_codes,
        "reading_straighten",
        lambda mu: codes.reading_straighten(codes.encode_code(mu)),
    ),
]


@pytest.mark.parametrize(
    "rule,breaker,suite,op,straighten", BROKEN_RULES, ids=[r[0] for r in BROKEN_RULES]
)
def test_suite_reports_broken_rule(monkeypatch, rule, breaker, suite, op, straighten):
    # the sweeps and the library run the same loop: a broken step shows in both
    assert suite(3, 3).ok
    before = _outcome(straighten, (1, 3))
    word_type, find, step = codes.RULES[rule]
    monkeypatch.setitem(codes.RULES, rule, (word_type, find, breaker(step)))
    assert _outcome(straighten, (1, 3)) != before
    report = suite(3, 3)
    failed = {(f["input"].get("op"), f["input"].get("rule")) for f in report.failures}
    assert (op, rule if op == "step_invariants" else None) in failed, sorted(map(str, failed))


SWEEPS = [suite for name, suite in verify.SUITES.items() if name != "corpus"]


def _failed_checks() -> set:
    """The checks the sweeps at (3, 2) report as failed.  Each failure must
    come back identical from ``_check`` on its input minus op."""
    failures = [f for suite in SWEEPS for f in suite(3, 2).failures]
    for f in failures:
        report = verify.VerifyReport(f["suite"])
        verify._check(report, f["input"]["op"], {k: v for k, v in f["input"].items() if k != "op"})
        assert report.failures == [f]
    return {f["input"]["op"] for f in failures}


@pytest.mark.parametrize("check", sorted(verify.REFERENCES))
def test_sweeps_report_every_broken_reference_entry(monkeypatch, check):
    op = verify.REFERENCES[check][0]
    home = importlib.import_module(f"codecalc.{codecalc._HOME[op]}")
    fn, key = getattr(home, op), ops.OPS[op][1]
    # a wrong answer: the sign flipped, or -1 in place of an index, word or row
    wrong = (lambda *args: negate(fn(*args))) if key is None else (lambda *args: -1)
    monkeypatch.setattr(home, op, wrong)
    failed = _failed_checks()
    assert check in failed, sorted(failed)


@pytest.mark.parametrize("check", sorted(verify.LAWS))
def test_sweeps_report_every_broken_law(monkeypatch, check):
    law = verify.LAWS[check]

    def broken(args):  # the law's got, wrapped so that it never equals expected
        expected, got = law(args)
        return expected, {"broken": got}

    monkeypatch.setitem(verify.LAWS, check, broken)
    failed = _failed_checks()
    assert check in failed, sorted(failed)


def test_check_records_errors_as_failures(monkeypatch):
    def broken(word):
        raise codes.InternalInvariantError("broken on purpose")

    monkeypatch.setattr(codes, "straighten_code", broken)
    report = verify.verify_codes(2, 2)
    raised = [f for f in report.failures if f["expected"] == "no error"]
    assert raised and all("broken on purpose" in f["got"] for f in raised)


def test_an_enumeration_error_is_one_recorded_failure(monkeypatch, capsys):
    def broken(parts):
        raise codes.InternalInvariantError("broken on purpose")

    monkeypatch.setattr(codes, "encode_code", broken)
    report = verify.verify_codes(2, 2)
    assert (report.cases, report.ok) == (1, False)
    assert report.failures[0]["input"] == {"op": "enumeration"}
    assert cli.main(["verify", "--suite", "codes", "--max-part", "2", "--max-len", "2"]) == 1
    out, err = capsys.readouterr()
    assert out.startswith("suite=codes cases=1 failures=1 ") and err == ""
    assert "broken on purpose" in out


def _verify_per_check(capsys, argv):
    """cli.main(argv) on a verify argv: exit code, stdout, stderr and the cases
    of each check."""
    per_check = Counter()
    check = verify.VerifyReport.check

    def counted(report, input_, expected, got):
        per_check[input_["op"]] += 1
        check(report, input_, expected, got)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(verify.VerifyReport, "check", counted)
        code = cli.main(argv)
    out, err = capsys.readouterr()
    return code, out, err, per_check


def test_a_route_that_raises_is_recorded_and_every_other_check_counted(monkeypatch, capsys):
    argv = ["verify", "--suite", "qvertex"]
    code, _, _, whole = _verify_per_check(capsys, argv)
    assert code == 0
    monkeypatch.setattr(qvertex, "q_series_j_form", _raises(IndexError)(None))
    code, out, err, broken = _verify_per_check(capsys, argv)
    assert code == 1 and err == "" and "Traceback" not in out
    summary, *failures = out.splitlines()
    failures = [json.loads(line) for line in failures]
    assert failures and summary.startswith(
        f"suite=qvertex cases={sum(broken.values())} failures={len(failures)} "
    )
    assert {f["input"]["op"] for f in failures} == {"series_forms"}
    assert {f["got"] for f in failures} == {"IndexError: broken on purpose"}
    # series_strict checks the j-form's terms, and a j-form that raises has none
    assert broken.pop("series_strict", 0) == 0 and whole.pop("series_strict") > 0
    assert broken == whole


def test_a_memory_error_still_ends_verify_with_the_error_line(monkeypatch, capsys):
    monkeypatch.setattr(qvertex, "q_series_j_form", _raises(MemoryError)(None))
    assert cli.main(["verify", "--suite", "qvertex"]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err == "error: out of memory\n"


def test_replay_reports_first_bad_step(monkeypatch):
    word_type, find, step = codes.RULES["plain"]
    monkeypatch.setitem(codes.RULES, "plain", (word_type, find, _extra_row(step)))
    letters = codes.encode_code((1, 3, 1, 6, 2)).letters
    steps, bad = verify._replay(letters, "plain")
    assert steps == 1 and bad["step"] == 1


def test_enumerators():
    assert list(verify.strict_partitions(3, 2)) == [(), (3,), (2,), (1,), (3, 2), (3, 1), (2, 1)]
    assert sorted(verify.partitions(2, 2)) == sorted(
        mu for mu in verify.compositions(2, 2) if list(mu) == sorted(mu, reverse=True)
    )
    assert sum(1 for _ in verify.compositions(6, 5)) == 19_608


# cases per suite at the CLI's defaults (--max-part 4 --max-len 3 --i-max 10
# --n-max 5) and at --max-part 3 --max-len 2
DEFAULT_CASES = {
    "codes": 5324, "bernstein": 2940, "qvertex": 756, "shifted": 551, "oracle": 615, "corpus": 78
}
SMALL_CASES = {
    "codes": 4596, "bernstein": 642, "qvertex": 235, "shifted": 119, "oracle": 344, "corpus": 78
}


@pytest.fixture(scope="module")
def small_run():
    """Cases per suite, and per (suite, check), of every suite at (3, 2)."""
    per_check = Counter()
    check = verify.VerifyReport.check

    def counted(report, input_, expected, got):
        per_check[report.suite, input_["op"]] += 1
        check(report, input_, expected, got)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(verify.VerifyReport, "check", counted)
        cases = {
            name: (suite() if name == "corpus" else suite(3, 2)).cases
            for name, suite in verify.SUITES.items()
        }
    return cases, per_check


def test_case_counts_at_a_small_range(small_run):
    assert small_run[0] == SMALL_CASES


def test_sweeps_default_to_the_cli_ranges(capsys):
    assert cli.main(["verify", "--format", "json"]) == 0
    summaries = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert {s["suite"]: s["cases"] for s in summaries} == DEFAULT_CASES
    assert {name: suite().cases for name, suite in verify.SUITES.items()} == DEFAULT_CASES


README = Path(__file__).resolve().parents[1] / "README.md"


def _readme_tables() -> list[dict]:
    """Check name -> suites, per table under README's "Where the cross-checks run"."""
    text = README.read_text("utf-8")
    section = text.split("**Where the cross-checks run.**")[1].split("\n## ")[0]
    tables = []
    for block in section.split("\n\n"):
        rows = [line.split("|")[1:3] for line in block.splitlines() if line.startswith("| `")]
        if rows:
            tables.append(
                {re.findall(r"`(\w+)`", c)[0]: set(re.findall(r"`(\w+)`", s)) for c, s in rows}
            )
    return tables


def test_readme_tables_list_every_check_with_its_suites(small_run):
    references, laws = _readme_tables()
    assert sorted(references) == sorted(verify.REFERENCES)
    assert sorted(laws) == sorted(verify.LAWS)
    assert not set(verify.REFERENCES) & set(verify.LAWS)
    runs = {}
    for suite, check in small_run[1]:
        runs.setdefault(check, set()).add(suite)
    assert {**references, **laws} == runs
