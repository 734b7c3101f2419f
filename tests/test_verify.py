"""The verify suites catch a broken route.

The public operations compute each answer once, by the code route; the
independent routes and the per-step exchange invariants are compared in the
verify suites.  Each test here breaks one route, one step of a
``codes.RULES`` entry or one op of a ``verify.REFERENCES`` entry, and checks
that the suites report it as a failure of the named check.
"""

from __future__ import annotations

import pytest

from codecalc import bernstein, codes, ops, qvertex, shifted, verify
from codecalc.codes import _built
from codecalc.core import negate


def _shift_i(real):
    return lambda word, i, *shift: real(word, i + 1, *shift)


def _wrong_bracket(real):
    return lambda word, pairs, i: real(word, pairs, i + 1)


def _extra_row(real):
    def step(word, shift):
        out = real(word, shift)
        return out if out is None else (out[0], out[1] + "U")

    return step


def _flip_sign(real):
    def step(word, shift):
        out = real(word, shift)
        return out if out is None else (out[0] + 1, out[1])

    return step


def _leading_l(word_type, real):
    return lambda parts: _built(word_type, "L" + real(parts).letters)


BROKEN_ROUTES = [
    # (module, attribute, how to break it, suite, op whose check must fail)
    (bernstein, "_replace_ith_r", _shift_i, verify.verify_bernstein, "sup_code"),
    (qvertex, "_bracket_by_code", _wrong_bracket, verify.verify_qvertex, "bracket_code"),
    (shifted, "_replace_ith_r", _shift_i, verify.verify_shifted, "bracket_shifted"),
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


def _outcome(straighten, mu):
    try:
        return straighten(mu)
    except codes.InternalInvariantError as exc:
        return type(exc).__name__


BROKEN_RULES = [
    # (rule of codes.RULES, how to break its step, suite, op whose check must
    # fail, the public straightener that runs the rule)
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
    word_type, step = codes.RULES[rule]
    monkeypatch.setitem(codes.RULES, rule, (word_type, breaker(step)))
    assert _outcome(straighten, (1, 3)) != before
    report = suite(3, 3)
    failed = {(f["input"].get("op"), f["input"].get("rule")) for f in report.failures}
    assert (op, rule if op == "step_invariants" else None) in failed, sorted(map(str, failed))


SWEEPS = [suite for name, suite in verify.SUITES.items() if name != "corpus"]


@pytest.mark.parametrize("check", sorted(verify.REFERENCES))
def test_sweeps_report_every_broken_reference_entry(monkeypatch, check):
    op = verify.REFERENCES[check][0]
    fn, names, key = ops.OPS[op]
    # a wrong answer: the sign flipped, or -1 in place of an index, word or row
    wrong = (lambda *args: negate(fn(*args))) if key is None else (lambda *args: -1)
    monkeypatch.setitem(ops.OPS, op, (wrong, names, key))
    failed = {f["input"].get("op") for suite in SWEEPS for f in suite(3, 3).failures}
    assert check in failed, sorted(map(str, failed))


def test_guard_records_errors_as_failures(monkeypatch):
    def broken(word):
        raise codes.InternalInvariantError("broken on purpose")

    monkeypatch.setattr(codes, "straighten_code", broken)
    report = verify.verify_codes(2, 2)
    raised = [f for f in report.failures if f["expected"] == "no error"]
    assert raised and all("broken on purpose" in f["got"] for f in raised)


def test_replay_reports_first_bad_step(monkeypatch):
    word_type, step = codes.RULES["plain"]
    monkeypatch.setitem(codes.RULES, "plain", (word_type, _extra_row(step)))
    letters = codes.encode_code((1, 3, 1, 6, 2)).letters
    steps, bad = verify._replay(letters, "plain")
    assert steps == 1 and bad["step"] == 1


def test_enumerators():
    assert list(verify.strict_partitions(3, 2)) == [(), (3,), (2,), (1,), (3, 2), (3, 1), (2, 1)]
    assert sorted(verify.partitions(2, 2)) == sorted(
        mu for mu in verify.compositions(2, 2) if list(mu) == sorted(mu, reverse=True)
    )
    assert sum(1 for _ in verify.compositions(6, 5)) == 19_608
