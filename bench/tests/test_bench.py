"""Tests of the benchmark itself: python -m pytest bench/tests -q"""

from __future__ import annotations

import json
import random
import sys
import time
from itertools import islice
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import ops  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from codecalc.core import negate  # noqa: E402
from spans import Samples, Span, Totals, self_times  # noqa: E402

FIRST = {"small": 2000, "cli": 300}


def test_same_seed_generates_identical_requests():
    for name, workload in workloads.WORKLOADS.items():
        n = FIRST[name]
        a = list(islice(workload.stream(random.Random(7)), n))
        b = list(islice(workload.stream(random.Random(7)), n))
        c = list(islice(workload.stream(random.Random(8)), n))
        assert a == b, name
        assert a != c, name


def _serve(count=1500, seed=3):
    result = run.Run(seed)
    workload = workloads.WORKLOADS["small"]
    run.serve(result, workload.stream(random.Random(seed)), count=count, batch=workload.batch)
    return result


def test_every_small_request_agrees_with_its_reference():
    result = _serve()
    assert result.attempted == 1500
    assert result.failed == 0, result.problems


def test_wrong_route_is_counted_as_failed(monkeypatch):
    right = ops.codes.straighten_code
    monkeypatch.setattr(ops.codes, "straighten_code", lambda word: negate(right(word)))
    result = _serve()
    assert result.failed > 0
    assert all('"straighten"' in p for p in result.problems)
    assert all('"method": "reading"' not in p and '"method": "oracle"' not in p for p in result.problems)


def test_oracle_method_is_checked_against_another_route(monkeypatch):
    req = {"op": "straighten", "args": {"algebra": "b", "method": "oracle", "text": "1,3,1,6,2"}}
    assert ops.check(req, ops.run_one(req)) is None
    right = ops.oracle.exponent_straighten
    monkeypatch.setattr(ops.oracle, "exponent_straighten", lambda mu: negate(right(mu)))
    assert ops.check(req, ops.run_one(req)) is not None


def test_untimed_requests_do_not_count_towards_throughput():
    result = _serve(count=300)
    before = result.ops_per_s
    req = {"op": "reduce_word", "args": {"letters": "RL"}}
    result.record(req, ops.run_one(req))
    assert result.attempted == 301
    assert result.ops_per_s == before


def test_cold_starts_are_spread_over_the_run():
    stamps = []
    workload = workloads.WORKLOADS["small"]

    def cold():
        stamps.append(time.perf_counter())
        return len(stamps) / 100

    reqs = list(islice(workload.stream(random.Random(0)), 2000))
    metrics, _ = run.measure_end_to_end(run.Run(0), reqs, random.Random(0), 0.7, cold)
    assert len(stamps) == run.SETUP_RUNS
    assert stamps[-1] - stamps[0] > 0.5
    assert metrics["setup_s"] == ((run.SETUP_RUNS + 1) / 200, "s")  # the median of 1..SETUP_RUNS hundredths


def test_passes_keep_each_requests_fastest_latency(monkeypatch):
    reqs = [{"op": "reduce_word", "args": {"letters": "RL" * k}} for k in range(1, 4)]
    ticks = iter(range(10**6))
    monkeypatch.setattr(run.time, "perf_counter", lambda: float(next(ticks)))
    result = run.Run(0)
    passes = run.serve_passes(result, reqs, random.Random(0), 20)
    assert passes >= 2
    assert result.attempted > len(reqs) and result.failed == 0
    assert result.latency.n == len(reqs)
    assert result.busy == 3.0  # every request's fastest pass is one tick


def test_a_wrong_answer_fails_on_every_pass(monkeypatch):
    req = {"op": "reduce_word", "args": {"letters": "RLU"}}
    monkeypatch.setattr(ops, "run_one", lambda req, call=None: ("ok", '{"letters":"RLU"}'))
    result = run.Run(0)
    run.serve_passes(result, [req], random.Random(0), 0.05)
    assert result.attempted > 1
    assert result.failed == result.attempted


def test_busy_time_is_broken_down_by_request_kind():
    result = _serve(count=600)
    share = result.kind_share()
    assert abs(sum(share.values()) - 1) < 1e-3
    assert {"straighten.b.code", "straighten.q.all", "series.q.i_max", "invalid"} <= set(share)


def test_verify_sweep_holds_every_suite_at_five_ranges_and_the_law():
    cycle = workloads.verify_cycle()
    ranges = {(q["args"]["max_part"], q["args"]["max_len"]) for q in cycle if q["op"] == "verify"}
    assert len(ranges) == 5 and workloads.LAW in cycle and workloads.CORPUS in cycle
    assert len(cycle) == 2 + 5 * len(workloads.VERIFY_SUITES)


def test_in_process_cli_ends_as_a_fresh_interpreter_does():
    cases = [
        (["straighten", "--algebra", "b", "1,3,1,6,2"], None),
        (["code", "--index", "2,1"], {"CODECALC_FORMAT": "json"}),
        (["code", "--index", "2,1"], {"CODECALC_FORMAT": "xml"}),
        (["frobnicate"], None),
    ]
    for argv, env in cases:
        assert ops.run_cli(argv, env) == ops.spawn_cli(argv, env), argv
    assert "CODECALC_FORMAT" not in ops.os.environ


def test_in_process_cli_reports_a_traceback():
    code, out, err = ops.run_cli(["verify", "--suite", "corpus", "--file", "no/such/file.jsonl"])
    assert code == 1 and "Traceback" in err


def test_cache_statistics_survive_a_clear():
    ops.clear_oracle_caches()
    ops.oracle.schur_poly((2, 1), 3)
    hits, misses = ops.oracle_cache_stats()
    ops.clear_oracle_caches()
    assert ops.oracle_cache_stats() == (hits, misses)
    ops.oracle.schur_poly((2, 1), 3)
    assert ops.oracle_cache_stats()[1] > misses


def test_invalid_input_must_raise_its_own_error():
    req = {"op": "code", "args": {"decode": True, "letters": "LU"}, "expect": "InvalidCodeError"}
    assert ops.check(req, ops.run_one(req)) is None
    assert ops.check(req, ("error", "DomainError", "")) is not None
    assert ops.check(req, ("ok", '{"index":[0]}')) is not None


def test_cli_traceback_fails_and_error_line_passes():
    inner = {"op": "straighten", "args": {"algebra": "b", "method": "code", "text": "1,x"}, "expect": "ParseError"}
    req = {"op": "cli", "args": {"argv": [], "json": False, "inner": inner}}
    assert ops.check(req, ("ok", (1, "", "error: not an index: '1,x'\n"))) is None
    traceback = "Traceback (most recent call last):\n  ...\nValueError: boom\n"
    assert ops.check(req, ("ok", (1, "", traceback))) is not None
    assert ops.check(req, ("ok", (0, "+1 * B[1]\n", ""))) is not None


def test_cli_text_output_is_checked():
    inner = {"op": "straighten", "args": {"algebra": "b", "method": "code", "text": "1,3,1,6,2"}}
    req = {"op": "cli", "args": {"argv": [], "json": False, "inner": inner}}
    assert ops.check(req, ("ok", (0, "+1 * B[3,3,3,2,2]\n", ""))) is None
    assert ops.check(req, ("ok", (0, "-1 * B[3,3,3,2,2]\n", ""))) is not None


def _span(name, start, end, parent=-1):
    return Span(name, start, end, parent, 0, False)


def test_self_time_subtracts_the_union_of_children():
    spans = [
        _span("request", 0.0, 10.0),
        _span("a", 1.0, 4.0, 0),
        _span("b", 3.0, 6.0, 0),  # overlaps a: the union [1, 6] counts once
        _span("a.child", 2.0, 3.0, 1),
        _span("late", 9.0, 12.0, 0),  # clipped to the parent's end
    ]
    assert self_times(spans) == [4.0, 2.0, 3.0, 1.0, 3.0]


def test_totals_keep_parent_links_across_batches():
    totals = Totals(keep=10)
    totals.fold([_span("request", 0.0, 2.0), _span("x", 0.5, 1.0, 0)])
    totals.fold([_span("request", 3.0, 5.0), _span("x", 3.5, 4.5, 0)])
    assert [s.parent for s in totals.kept] == [-1, 0, -1, 2]
    assert totals.calls["x"] == 2
    assert totals.busy["x"] == 1.5
    assert totals.self_s["request"] == 2.5


def test_percentile_interpolates():
    samples = Samples(8)
    for x in (4.0, 1.0, 3.0, 2.0, 5.0):
        samples.add(x)
    assert samples.percentile(50) == 3.0
    assert samples.percentile(90) == 4.6


def test_per_layer_names_fit_the_contract():
    units = run.per_layer_units()
    assert 1 <= len(units) <= 128
    assert all(len(name) <= 64 for name in units)


def test_benchmark_json_names_what_the_run_prints():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [m["name"] for m in spec["per_layer"]] == list(run.per_layer_units())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
