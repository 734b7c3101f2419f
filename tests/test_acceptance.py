"""Acceptance gate: ten end-to-end criteria with stated tolerances.

Each test prints exactly one `criterion N: PASS/FAIL (...)` line to the real
terminal (bypassing capture) and then asserts, so a verbose pytest run shows a
visible verdict per criterion alongside the usual pass/fail status.
"""

from __future__ import annotations

import random
import time
from collections import Counter

from codecalc import (
    bernstein,
    codes,
    oracle,
    qvertex,
    shifted,
)
from codecalc.codes import reduce_word
from codecalc.verify import compositions, strict_partitions


def _verdict(capsys, num: int, ok: bool, detail: str) -> None:
    line = f"criterion {num}: {'PASS' if ok else 'FAIL'} ({detail})"
    with capsys.disabled():
        print(line, flush=True)
    assert ok, line


def _positive_partitions(max_size: int):
    """All weakly decreasing tuples of positive integers with sum <= max_size."""

    def rec(remaining: int, cap: int, prefix: tuple[int, ...]):
        yield prefix
        for part in range(min(remaining, cap), 0, -1):
            yield from rec(remaining - part, part, prefix + (part,))

    yield from rec(max_size, max_size, ())


def _padded_partitions(max_size: int, max_zeros: int = 2):
    for lam in _positive_partitions(max_size):
        for zeros in range(max_zeros + 1):
            yield lam + (0,) * zeros


def test_criterion_01_worked_example(capsys):
    mu = (1, 3, 1, 6, 2)
    trace = codes.straighten_code_trace(codes.encode_code(mu))
    ok = trace is not None and trace == (4, (3, 3, 3, 2, 2))
    result = codes.straighten_B(mu)
    ok = ok and result.sign == 1 and result.index == (3, 3, 3, 2, 2)
    codes.straighten_B(mu)  # warm up before timing
    best = float("inf")
    for _ in range(20):
        start = time.perf_counter()
        codes.straighten_B(mu)
        best = min(best, time.perf_counter() - start)
    ok = ok and best < 1e-3
    _verdict(capsys, 1, ok, f"sign exponent 4 -> +1 * (3,3,3,2,2), best {best * 1e6:.0f} us")


def test_criterion_02_code_examples(capsys):
    checks = [
        (str(codes.encode_code((4, 2, 2, 1))), "RURUURRU"),
        (str(codes.encode_code((2, 3, 1, 4))), "RRRRULLLURRULU"),
        (str(shifted.encode_shifted((4, 2, 1))), "UURU"),
        (str(shifted.encode_shifted((2, 3, 1))), "URULLU"),
    ]
    bad = [(got, want) for got, want in checks if got != want]
    _verdict(capsys, 2, not bad, f"{len(checks)} exact code strings" if not bad else repr(bad))


def test_criterion_03_triple_agreement(capsys):
    start = time.perf_counter()
    cases = 0
    mismatches = 0
    for mu in compositions(6, 5):
        cases += 1
        word = codes.encode_code(mu)
        expected = oracle.exponent_straighten(mu)
        if codes.straighten_code(word) != expected:
            mismatches += 1
        elif codes.reading_straighten(word) != expected:
            mismatches += 1
    elapsed = time.perf_counter() - start
    ok = mismatches == 0 and cases == 19_608 and elapsed < 10.0
    _verdict(capsys, 3, ok, f"{cases} cases, {mismatches} mismatches, {elapsed:.2f}s")


def test_criterion_04_bialternant_law(capsys):
    start = time.perf_counter()
    nvars = 4
    cases = 0
    mismatches = 0
    for mu in compositions(5, 4):
        cases += 1
        poly = oracle.schur_poly(mu, nvars)
        result = codes.straighten_B(mu)
        if result.is_zero:
            if not poly.is_zero:
                mismatches += 1
        else:
            target = oracle.schur_poly(result.index, nvars)
            if result.sign < 0:
                target = -target
            if poly.is_zero or poly != target:
                mismatches += 1
    elapsed = time.perf_counter() - start
    ok = mismatches == 0 and elapsed < 60.0
    _verdict(capsys, 4, ok, f"{cases} cases, {mismatches} mismatches, {elapsed:.2f}s")


def test_criterion_05_vanishing_characterization(capsys):
    start = time.perf_counter()
    cases = 0
    mismatches = 0
    for lam in _padded_partitions(10):
        l = len(lam)
        top = lam[0] if lam else 0
        vanish = {lam[j] - (j + 1) for j in range(l)}
        for n in range(-l - 2, top + 3):
            cases += 1
            expect_zero = n < -l or n in vanish
            if bernstein.bn_action(n, lam).is_zero != expect_zero:
                mismatches += 1
    elapsed = time.perf_counter() - start
    ok = mismatches == 0 and elapsed < 5.0
    _verdict(capsys, 5, ok, f"{cases} cases, {mismatches} mismatches, {elapsed:.2f}s")


def test_criterion_06_series_action_consistency(capsys):
    start = time.perf_counter()
    i_max = 12
    cases = 0
    mismatches = 0
    for lam in _padded_partitions(10):
        terms = bernstein.bernstein_series(lam, i_max)
        if [t.i for t in terms] != list(range(1, i_max + 1)):
            mismatches += 1
        for term in terms:
            cases += 1
            action = bernstein.bn_action(term.t_exp, lam)
            if action.is_zero or action.sign != term.sign or action.index != term.index:
                mismatches += 1
    elapsed = time.perf_counter() - start
    ok = mismatches == 0 and elapsed < 5.0
    _verdict(capsys, 6, ok, f"{cases} terms, {mismatches} mismatches, {elapsed:.2f}s")


def test_criterion_07_q_triple_agreement(capsys):
    start = time.perf_counter()
    cases = 0
    mismatches = 0
    for mu in compositions(8, 5, min_part=1):
        cases += 1
        expected = qvertex.straighten_Y_perm(mu)
        if qvertex.straighten_Y_code(mu) != expected:
            mismatches += 1
        elif shifted.shifted_straighten(shifted.encode_shifted(mu)) != expected:
            mismatches += 1
    elapsed = time.perf_counter() - start
    ok = mismatches == 0 and cases == 37_449 and elapsed < 30.0
    _verdict(capsys, 7, ok, f"{cases} cases, {mismatches} mismatches, {elapsed:.2f}s")


def test_criterion_08_q_series_forms(capsys):
    start = time.perf_counter()
    cases = 0
    mismatches = 0
    for lam in strict_partitions(8, 8):
        n_max = (lam[0] if lam else 0) + 5
        j_terms = qvertex.q_series_j_form(lam, n_max)
        i_terms = [
            t for t in qvertex.q_series_i_form(lam, n_max + len(lam)) if t.n <= n_max
        ]
        key = lambda t: (t.n, t.j, t.i, t.sign_exp, t.index)
        if Counter(map(key, j_terms)) != Counter(map(key, i_terms)):
            mismatches += 1
        for term in j_terms:
            cases += 1
            action = qvertex.yn_action(term.n, lam)
            if action.is_zero or action.sign != term.sign or action.index != term.index:
                mismatches += 1
    elapsed = time.perf_counter() - start
    ok = mismatches == 0 and elapsed < 5.0
    _verdict(capsys, 8, ok, f"{cases} terms, {mismatches} mismatches, {elapsed:.2f}s")


def test_criterion_09_dual_definitions(capsys):
    mismatches = 0
    sup_cases = 0
    for lam in _padded_partitions(10):
        for i in range(1, 21):
            sup_cases += 1
            j = sum(1 for p in lam if p >= i)
            closed = tuple(p - 1 for p in lam[:j]) + (i - 1,) + lam[j:]
            if bernstein.lambda_sup(lam, i) != closed:
                mismatches += 1
    bracket_cases = 0
    for lam in strict_partitions(8, 8):
        absent = [v for v in range(1, len(lam) + 12) if v not in lam]
        for i in range(11):
            bracket_cases += 1
            if i == 0:
                closed = lam + (0,)
            else:
                closed = tuple(sorted(lam + (absent[i - 1],), reverse=True))
            if qvertex.lambda_bracket(lam, i) != closed:
                mismatches += 1
            if i >= 1 and shifted.lambda_bracket_shifted(lam, i) != closed:
                mismatches += 1
    ok = mismatches == 0
    _verdict(capsys, 9, ok, f"{sup_cases}+{bracket_cases} cases, {mismatches} mismatches")


def test_criterion_10_round_trips_and_reduction(capsys):
    mismatches = 0
    plain = 0
    for mu in compositions(6, 5):
        plain += 1
        if codes.decode_code(codes.encode_code(mu)) != mu:
            mismatches += 1
    strict = 0
    for mu in compositions(8, 5, min_part=1):
        strict += 1
        if shifted.decode_shifted(shifted.encode_shifted(mu)) != mu:
            mismatches += 1

    rng = random.Random(20260819)
    words = 0
    for _ in range(10_000):
        words += 1
        raw = "".join(rng.choice("RLU") for _ in range(rng.randrange(31)))
        reduced = reduce_word(raw)
        if reduce_word(reduced) != reduced:
            mismatches += 1
            continue
        # cancel adjacent RL/LR pairs in a random order; the normal form
        # must not depend on the order chosen
        letters = list(raw)
        while True:
            pairs = [
                i
                for i in range(len(letters) - 1)
                if letters[i] != letters[i + 1] and "U" not in letters[i : i + 2]
            ]
            if not pairs:
                break
            at = rng.choice(pairs)
            del letters[at : at + 2]
        if "".join(letters) != reduced:
            mismatches += 1
    ok = mismatches == 0
    _verdict(
        capsys,
        10,
        ok,
        f"{plain}+{strict} round trips, {words} random words, {mismatches} mismatches",
    )
