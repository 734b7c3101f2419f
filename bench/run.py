"""codecalc benchmark: closed loop, one client, stdlib only.

Run one workload (the form the benchmark contract uses):

    python3 bench/run.py --workload small --seed 1 --seconds 45 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a separate traced run together with the tracing overhead.  Human
readable lines come first; the last line of stdout is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.

Run every workload, untraced and traced, print each metric with its unit and
sample count, and optionally write a record or compare with an earlier one:

    python3 bench/run.py --all --seconds 45 --out record.json --compare bench/baseline.json

The untraced run draws a fixed set of requests from the seed and serves it in
passes, keeping each request's fastest latency (see ``serve_passes``): on a
shared host the same work runs up to half as fast again for seconds at a time.
Every answer is checked against an independent route outside the timed span;
see ops.py.  The workloads are described in BENCHMARK.json and workloads.py.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

LATENCY_CAP = 1 << 18  # latencies kept; a uniform sample beyond that
SETUP_RUNS = 9
IMPORT_PAIRS = 7

END_TO_END = {
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

FUNCTIONS = (
    "core.parse_index",
    "core.render",
    "codes.encode_code",
    "codes.decode_code",
    "codes.straighten_code",
    "codes.reading_straighten",
    "codes.reduce_word",
    "qvertex.straighten_Y_code",
    "qvertex.straighten_Y_perm",
    "qvertex.yn_action",
    "qvertex.q_series_i_form",
    "qvertex.q_series_j_form",
    "qvertex.lambda_bracket",
    "shifted.encode_shifted",
    "shifted.decode_shifted",
    "shifted.shifted_straighten",
    "shifted.preshift",
    "shifted.lambda_bracket_shifted",
    "bernstein.bn_action",
    "bernstein.bernstein_series",
    "bernstein.bernstein_series_window",
    "bernstein.lambda_sup",
    "oracle.exponent_straighten",
    "oracle.schur_poly",
)
LAYERS = ("core", "codes", "qvertex", "shifted", "bernstein", "oracle")
SUITES = ("codes", "bernstein", "qvertex", "shifted", "oracle", "corpus")
SUBCOMMANDS = ("code", "straighten", "act", "series")


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric name and its unit, in a fixed order."""
    units = {}
    for fn in FUNCTIONS:
        units.update(
            {f"{fn}.calls": "count", f"{fn}.busy_s": "s", f"{fn}.p50_us": "us", f"{fn}.errors": "count"}
        )
    for layer in LAYERS:
        units[f"{layer}.self_s"] = "s"
    units["request.self_s"] = "s"
    for suite in SUITES:
        units[f"verify.{suite}.s"] = "s"
        units[f"verify.{suite}.cases"] = "count"
    for sub in SUBCOMMANDS:
        units[f"cli.main.{sub}.us"] = "us"
    units["cli.import_ms"] = "ms"
    units["cli.probe_failures"] = "count"
    units["codes.word_letters.mean"] = "letters"
    units["codes.zero_share"] = "ratio"
    units["qvertex.zero_share"] = "ratio"
    units["oracle.schur_cache_hit_ratio"] = "ratio"
    units["trace.untraced_ops_per_s"] = "1/s"
    units["trace.traced_ops_per_s"] = "1/s"
    return units


def _parts(text: str) -> list[int]:
    return [int(t) for t in text.replace(",", " ").split()]


class Counters:
    """Counts taken where the work happens, from requests and their outcomes."""

    def __init__(self):
        self.letters = self.words = 0
        self.codes_zero = self.codes_tried = 0
        self.q_zero = self.q_tried = 0
        self.suite_cases: dict[str, int] = {}

    def add(self, req, outcome) -> None:
        op, a = req["op"], req["args"]
        if req.get("expect") or outcome[0] != "ok":
            return
        zero = outcome[1] == '{"zero":true}'
        if op == "straighten" and a["algebra"] == "b" and a["method"] != "oracle":
            m = _parts(a["text"])
            self.words += 1
            self.letters += len(m) + (m[-1] if m else 0) + sum(abs(x - y) for x, y in zip(m, m[1:]))
            self.codes_tried += 1
            self.codes_zero += zero
        elif (op == "straighten" and a["algebra"] == "q" and a["method"] != "shifted") or (
            op == "act" and a["algebra"] == "q"
        ):
            self.q_tried += 1
            self.q_zero += zero
        elif op == "verify" and (a["max_part"], a["max_len"]) == (4, 3):
            for s in json.loads(outcome[1])["suites"]:
                self.suite_cases[s["suite"]] = s["cases"]


class Run:
    """Outcome of serving a stream: counts, busy time and latencies."""

    def __init__(self, seed, cap=LATENCY_CAP):
        from spans import Samples

        self.attempted = self.failed = 0
        self.busy = 0.0
        self.latency = Samples(cap, seed)
        self.kind_busy: dict[str, float] = {}
        self.problems: list[str] = []

    def record(self, req, outcome) -> str | None:
        """Check an outcome against its reference route and count it."""
        import ops

        problem = ops.check(req, outcome)
        self.tally(req, problem)
        return problem

    def tally(self, req, problem) -> None:
        """Count a request whose check gave ``problem`` (None when right)."""
        self.attempted += 1
        if problem:
            self.failed += 1
            if len(self.problems) < 5:
                self.problems.append(f"{json.dumps(req)} -> {problem}")

    def absorb(self, other) -> None:
        """Count another run's requests and failures as this run's."""
        self.attempted += other.attempted
        self.failed += other.failed
        self.problems += other.problems

    @property
    def ops_per_s(self) -> float:
        return self.latency.n / self.busy if self.busy else 0.0

    def kind_share(self) -> dict[str, float]:
        """Each request kind's share of the busy time, largest first."""
        total = sum(self.kind_busy.values())
        ranked = sorted(self.kind_busy.items(), key=lambda kv: -kv[1])
        return {kind: round(busy / total, 4) for kind, busy in ranked} if total else {}


def serve(run, stream, *, count, batch, tracer=None, totals=None, counters=None, cold_caches=False):
    """Closed loop with one client: the next request starts when the last ends.

    Serves ``count`` requests of ``stream``.  Requests are generated and
    checked between batches of ``batch``, and with ``cold_caches`` the oracle's
    caches are emptied before every request, all outside the timed span; busy
    time is the sum of the request latencies.
    """
    import ops
    import workloads

    call = tracer.call if tracer else ops.plain_call
    served = 0
    while served < count:
        size = min(batch, count - served)
        reqs = [next(stream) for _ in range(size)]
        outcomes, latencies = [], []
        for req in reqs:
            if cold_caches:
                ops.clear_oracle_caches()
            t0 = time.perf_counter()
            if tracer:
                tracer.request = run.attempted + len(outcomes)
                outcomes.append(tracer.call("request", ops.run_one, req, call))
            else:
                outcomes.append(ops.run_one(req, call))
            latencies.append(time.perf_counter() - t0)
        run.busy += sum(latencies)
        served += size
        for req, x in zip(reqs, latencies):
            run.latency.add(x)
            kind = workloads.kind_of(req)
            run.kind_busy[kind] = run.kind_busy.get(kind, 0.0) + x
        for req, outcome in zip(reqs, outcomes):
            run.record(req, outcome)
            if counters:
                counters.add(req, outcome)
        if totals is not None:
            totals.fold(tracer.spans)
            tracer.spans.clear()


def serve_passes(run, reqs, rng, seconds, between=None) -> int:
    """Closed loop with one client over a fixed set of requests, in passes.

    Each pass serves every request once, in a fresh seeded order, until
    ``seconds`` of wall time have gone; the first pass is always whole.  A
    request's latency is the fastest of its passes: on a shared host the same
    work runs up to half as fast again for seconds at a time, and the fastest
    pass is what the program costs outside such spells.  ``run.busy`` is the
    sum of those latencies.  Answers are checked outside the timed span, in
    full the first time and again whenever a later pass answers differently;
    ``between()`` is called before every request.  Returns the passes begun.
    """
    import ops
    import workloads

    best = [math.inf] * len(reqs)
    seen: list[tuple | None] = [None] * len(reqs)  # (last outcome, its problem)
    order = list(range(len(reqs)))
    deadline = time.perf_counter() + seconds
    passes = 0
    while passes == 0 or time.perf_counter() < deadline:
        rng.shuffle(order)
        passes += 1
        for i in order:
            if passes > 1 and time.perf_counter() >= deadline:
                break
            if between:
                between()
            t0 = time.perf_counter()
            outcome = ops.run_one(reqs[i])
            elapsed = time.perf_counter() - t0
            best[i] = min(best[i], elapsed)
            if seen[i] and seen[i][0] == outcome:
                run.tally(reqs[i], seen[i][1])
            else:
                seen[i] = (outcome, run.record(reqs[i], outcome))
    run.busy = sum(best)
    for req, x in zip(reqs, best):
        run.latency.add(x)
        kind = workloads.kind_of(req)
        run.kind_busy[kind] = run.kind_busy.get(kind, 0.0) + x
    return passes


def _spawn(cmd):
    import ops

    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, env=ops.child_env(), capture_output=True, text=True, timeout=120)
    return time.perf_counter() - t0, proc


def cold_start(run, workload):
    """A function that times one fresh interpreter from launch to its first answer.

    The cold request runs as ``python -m codecalc`` (cli) or through
    cold.py (small), which imports codecalc and nothing of the harness.
    Each answer is checked and recorded in ``run``.
    """
    cold = workload.cold
    if cold["op"] == "cli":
        cmd = [sys.executable, "-m", "codecalc", *cold["args"]["argv"]]
    else:
        cmd = [sys.executable, str(BENCH_DIR / "cold.py"), cold["args"]["text"]]

    def once() -> float:
        elapsed, proc = _spawn(cmd)
        if cold["op"] == "cli":
            outcome = ("ok", (proc.returncode, proc.stdout, proc.stderr))
        elif proc.returncode == 0:
            outcome = ("ok", proc.stdout.strip())
        else:
            outcome = ("crash", "exit", f"{proc.returncode}: {proc.stderr.strip()[-200:]}")
        run.record(cold, outcome)
        return elapsed

    return once


def import_ms() -> float:
    """Fresh-process ``import codecalc`` minus a bare interpreter, in ms."""
    bare, full = [], []
    for _ in range(IMPORT_PAIRS):
        bare.append(_spawn([sys.executable, "-c", "pass"])[0])
        full.append(_spawn([sys.executable, "-c", "import codecalc"])[0])
    return 1000 * (statistics.median(full) - statistics.median(bare))


def probe_failures() -> tuple[int, list[str]]:
    """Run the known traceback inputs; count those that break the error contract."""
    import ops
    import workloads

    failures = []
    for req in workloads.probes(ROOT, WORK):
        problem = ops.check(req, ("ok", ops.spawn_cli(req["args"]["argv"])))
        if problem:
            failures.append(f"{' '.join(req['args']['argv'])}: {problem}")
    return len(failures), failures


def run_workload(name, seed, seconds, trace):
    """Serve one workload; return (run, metrics {name: (value, unit)}, details)."""
    import workloads

    workload = workloads.WORKLOADS[name]
    WORK.mkdir(exist_ok=True)
    run = Run(seed)
    warm = Run(seed, cap=1)  # set-up and warm-up requests: checked, never timed
    serve(warm, workload.stream(random.Random(f"warm-{seed}")), count=workload.warmup, batch=workload.batch)
    rng = random.Random(seed)
    stream = workload.stream(rng)
    if trace:
        metrics, details = measure_layers(run, name, workload, stream, seed, seconds)
    else:
        reqs = [next(stream) for _ in range(workload.set_size)]
        metrics, details = measure_end_to_end(run, reqs, rng, seconds, cold_start(warm, workload))
    run.absorb(warm)
    if name == "cli":
        count, failures = probe_failures()
        details["probe_failures"] = failures
        if trace:
            metrics["cli.probe_failures"] = (count, "count")
    details["error_rate"] = run.failed / run.attempted
    details["problems"] = run.problems
    return run, metrics, details


def measure_end_to_end(run, reqs, rng, seconds, cold):
    """Untraced: throughput, latency percentiles, set-up time and peak memory.

    ``reqs`` is served in passes (see ``serve_passes``): ``ops_per_s`` is the
    set's size over the sum of its requests' fastest latencies, and the
    percentiles are over those latencies.  The ``SETUP_RUNS`` cold starts are
    spread over the run, between requests, so that their median samples the
    machine across the whole run.
    """
    starts, begin = [], time.perf_counter()

    def between():
        if len(starts) < SETUP_RUNS and time.perf_counter() - begin >= len(starts) * seconds / SETUP_RUNS:
            starts.append(cold())

    passes = serve_passes(run, reqs, rng, seconds, between)
    while len(starts) < SETUP_RUNS:
        starts.append(cold())
    usage = resource.getrusage(resource.RUSAGE_SELF)
    n = run.latency.n
    values = {
        "ops_per_s": run.ops_per_s,
        "latency_p50_ms": 1000 * run.latency.percentile(50),
        "latency_p90_ms": 1000 * run.latency.percentile(90),
        "setup_s": statistics.median(starts),
        "peak_rss_mb": usage.ru_maxrss / 1024,
    }
    details = {
        "samples": {**dict.fromkeys(values, n), "setup_s": SETUP_RUNS, "peak_rss_mb": 1},
        "kind_share": run.kind_share(),
        "passes": passes,
    }
    if n >= 1000:
        details["latency_p99_ms"] = 1000 * run.latency.percentile(99)
    return {k: (v, END_TO_END[k]) for k, v in values.items()}, details


def measure_layers(run, name, workload, stream, seed, seconds):
    """Per-layer totals from traced runs, and the tracing overhead.

    Every batch is served twice, untraced and traced, in alternating order,
    so both sides see the same inputs at nearly the same time.  The cli run
    first serves the verify sweep (every suite at the default range and its
    neighbours, and the criterion-4 law) once, traced and with cold caches:
    that sweep is too long and memory-bound to time steadily on a shared
    host, so no workload times it, and it is where the verify and oracle
    layers are measured.
    """
    import ops
    import workloads
    from spans import Totals, Tracer

    traced = Run(seed, cap=1)
    tracer, totals, counters = Tracer(), Totals(), Counters()
    before = ops.oracle_cache_stats()
    deadline = time.perf_counter() + seconds
    if name == "cli":
        sweep, cycle = Run(seed, cap=1), workloads.verify_cycle()
        serve(sweep, iter(cycle), count=len(cycle), batch=len(cycle), tracer=tracer, totals=totals,
              counters=counters, cold_caches=True)
        run.absorb(sweep)
    turn = 0
    while time.perf_counter() < deadline:
        batch = [next(stream) for _ in range(workload.batch)]
        sides = [
            lambda: serve(run, iter(batch), count=len(batch), batch=len(batch)),
            lambda: serve(traced, iter(batch), count=len(batch), batch=len(batch),
                          tracer=tracer, totals=totals, counters=counters),
        ]
        for side in sides[::-1] if turn % 2 else sides:
            side()
        turn += 1
    hits, misses = (a - b for a, b in zip(ops.oracle_cache_stats(), before))
    totals.write(WORK / f"spans-{name}-{seed}.jsonl")
    values = layer_values(totals, counters)
    values["oracle.schur_cache_hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    values["trace.untraced_ops_per_s"] = run.ops_per_s
    values["trace.traced_ops_per_s"] = traced.ops_per_s
    if name == "cli":
        values["cli.import_ms"] = import_ms()
    details = {"tracing_overhead": 1 - traced.ops_per_s / run.ops_per_s, "kind_share": run.kind_share()}
    run.absorb(traced)
    return {k: (values.get(k, 0.0), unit) for k, unit in per_layer_units().items()}, details


def layer_values(totals, counters) -> dict[str, float]:
    values = {}
    for fn in FUNCTIONS:
        values[f"{fn}.calls"] = totals.calls.get(fn, 0)
        values[f"{fn}.busy_s"] = totals.busy.get(fn, 0.0)
        samples = totals.durations.get(fn)
        values[f"{fn}.p50_us"] = 1e6 * samples.percentile(50) if samples else 0.0
        values[f"{fn}.errors"] = totals.errors.get(fn, 0)
    for layer in LAYERS:
        values[f"{layer}.self_s"] = sum(v for k, v in totals.self_s.items() if k.startswith(layer + "."))
    values["request.self_s"] = totals.self_s.get("request", 0.0)
    for suite in SUITES:
        samples = totals.durations.get(f"verify.{suite}")
        values[f"verify.{suite}.s"] = samples.percentile(50) if samples else 0.0
        values[f"verify.{suite}.cases"] = counters.suite_cases.get(suite, 0)
    for sub in SUBCOMMANDS:
        samples = totals.durations.get(f"cli.main.{sub}")
        values[f"cli.main.{sub}.us"] = 1e6 * samples.percentile(50) if samples else 0.0
    values["codes.word_letters.mean"] = counters.letters / counters.words if counters.words else 0.0
    values["codes.zero_share"] = counters.codes_zero / counters.codes_tried if counters.codes_tried else 0.0
    values["qvertex.zero_share"] = counters.q_zero / counters.q_tried if counters.q_tried else 0.0
    return values


def print_metrics(name, trace, run, metrics, details) -> None:
    print(f"workload={name} trace={trace} attempted={run.attempted} failed={run.failed} "
          f"error_rate={details['error_rate']:.6f}")
    samples = details.get("samples", {})
    for key, (value, unit) in metrics.items():
        n = samples.get(key)
        print(f"  {key} = {value:.6g} {unit}" + (f" (n={n})" if n is not None else ""))
    if "latency_p99_ms" in details:
        print(f"  latency_p99_ms = {details['latency_p99_ms']:.6g} ms (n={samples['latency_p50_ms']})")
    print("  busy share by request kind: "
          + ", ".join(f"{k} {100 * v:.1f}%" for k, v in details["kind_share"].items()))
    if "tracing_overhead" in details:
        print(f"  tracing overhead = {100 * details['tracing_overhead']:.1f}% of untraced ops_per_s")
    for line in details.get("probe_failures", []):
        print(f"  known defect probe: {line}")
    for line in details["problems"]:
        print(f"  FAILED {line}")
    print("detail: " + json.dumps(details))


# ----------------------------------------------------------------------------
# --all: every workload, a record, and deltas against an earlier record


def _child(name, seed, seconds, trace):
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"error: {name} trace={trace} failed:\n{proc.stderr}")
    details = next(json.loads(l[len("detail: "):]) for l in lines if l.startswith("detail: "))
    return json.loads(lines[-1]), details


def _commit() -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30)
    except OSError:
        return "unknown"
    return out.stdout.strip() or "unknown"


def run_all(args) -> int:
    import workloads

    record = {
        "python": platform.python_version(),
        "commit": _commit(),
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "seed": args.seed,
        "seconds": args.seconds,
        "workloads": {},
    }
    failed = 0
    for name in workloads.WORKLOADS:
        e2e, d0 = _child(name, args.seed, args.seconds, 0)
        layer, d1 = _child(name, args.seed, args.seconds, 1)
        samples = d0["samples"]
        entry = {
            "attempted": e2e["attempted"],
            "failed": e2e["failed"],
            "error_rate": d0["error_rate"],
            "end_to_end": {k: dict(v, samples=samples[k]) for k, v in e2e["metrics"].items()},
            "per_layer": layer["metrics"],
            "tracing_overhead": d1["tracing_overhead"],
            "kind_share": d0["kind_share"],
            "known_defect_probes": d0.get("probe_failures", []),
        }
        if "latency_p99_ms" in d0:
            entry["latency_p99_ms"] = {"value": d0["latency_p99_ms"], "unit": "ms", "samples": samples["latency_p50_ms"]}
        record["workloads"][name] = entry
        failed += e2e["failed"] + layer["failed"]
        print(f"{name}: attempted={e2e['attempted']} failed={e2e['failed']} "
              f"error_rate={d0['error_rate']:.6f} tracing_overhead={100 * d1['tracing_overhead']:.1f}%")
        for k, v in entry["end_to_end"].items():
            print(f"  {k} = {v['value']:.6g} {v['unit']} (n={v['samples']})")
        if "latency_p99_ms" in entry:
            p99 = entry["latency_p99_ms"]
            print(f"  latency_p99_ms = {p99['value']:.6g} ms (n={p99['samples']})")
        print("  busy share by request kind: "
              + ", ".join(f"{k} {100 * v:.1f}%" for k, v in entry["kind_share"].items()))
        for line in d0["problems"] + d1["problems"]:
            print(f"  FAILED {line}")
        for line in entry["known_defect_probes"]:
            print(f"  known defect probe: {line}")
    if args.out:
        Path(args.out).write_text(json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    if args.compare:
        compare(json.loads(Path(args.compare).read_text(encoding="utf-8")), record)
    return 1 if failed else 0


def compare(old, new) -> None:
    """One row per workload: each end-to-end metric, old -> new and the change."""
    print(f"deltas against commit {old.get('commit', '?')[:12]} (Python {old.get('python', '?')}):")
    for name, entry in new["workloads"].items():
        before = old.get("workloads", {}).get(name, {}).get("end_to_end", {})
        cells = []
        for k, v in entry["end_to_end"].items():
            if k in before and before[k]["value"]:
                change = 100 * (v["value"] / before[k]["value"] - 1)
                cells.append(f"{k} {before[k]['value']:.4g}->{v['value']:.4g} ({change:+.1f}%)")
            else:
                cells.append(f"{k} n/a->{v['value']:.4g}")
        print(f"  {name}: " + "; ".join(cells))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="codecalc benchmark")
    parser.add_argument("--workload", help="small or cli")
    parser.add_argument("--all", action="store_true", help="run every workload, untraced and traced")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=45)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="with --all: write the record here")
    parser.add_argument("--compare", help="with --all: print deltas against this record")
    args = parser.parse_args(argv)
    if not (SRC / "codecalc" / "__init__.py").is_file():
        print(f"error: no codecalc sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.all:
        return run_all(args)
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")
    run, metrics, details = run_workload(args.workload, args.seed, args.seconds, args.trace)
    print_metrics(args.workload, args.trace, run, metrics, details)
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
