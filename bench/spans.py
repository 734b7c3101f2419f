"""In-memory spans around the benchmark's calls into codecalc, and their totals.

A span holds its name, start, end, parent and request id.  The tracer keeps
the spans of the requests in flight; after every batch the run loop folds them
into per-name totals and drops them, except for the first ``keep`` requests,
whose spans are written out when the run ends.
"""

from __future__ import annotations

import json
import random
from array import array
from collections import defaultdict
from time import perf_counter
from typing import NamedTuple


class Span(NamedTuple):
    name: str
    start: float
    end: float
    parent: int  # index of the parent span in the same list, -1 for a root
    request: int
    error: bool


class Tracer:
    """Records one span per ``call``; ``call`` has the signature the handlers use."""

    def __init__(self):
        self.spans: list[Span | None] = []
        self.request = 0
        self._stack: list[int] = []

    def call(self, name, fn, *args):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(None)
        self._stack.append(idx)
        error = True
        start = perf_counter()
        try:
            out = fn(*args)
            error = False
            return out
        finally:
            end = perf_counter()
            self._stack.pop()
            self.spans[idx] = Span(name, start, end, parent, self.request, error)


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it that its children cover."""
    children = defaultdict(list)
    for i, s in enumerate(spans):
        if s.parent >= 0:
            children[s.parent].append(i)
    out = []
    for i, s in enumerate(spans):
        covered = 0.0
        reach = s.start
        for c in sorted(children.get(i, ()), key=lambda c: spans[c].start):
            lo, hi = max(spans[c].start, reach), min(spans[c].end, s.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(s.end - s.start - covered)
    return out


class Samples:
    """A fixed-size uniform sample of a stream of numbers (exact below ``cap``).

    The buffer is allocated up front so that how many requests a run serves
    does not change the benchmark's own resident memory.
    """

    def __init__(self, cap: int, seed: int = 0):
        self.cap = cap
        self.n = 0
        self.buf = array("d", bytes(8 * cap))
        self._rng = random.Random(seed)

    def add(self, x: float) -> None:
        if self.n < self.cap:
            self.buf[self.n] = x
        else:
            j = self._rng.randrange(self.n + 1)
            if j < self.cap:
                self.buf[j] = x
        self.n += 1

    def percentile(self, p: float) -> float:
        """Linear-interpolated p-th percentile of the sample (0 when empty)."""
        data = sorted(self.buf[: min(self.n, self.cap)])
        if not data:
            return 0.0
        pos = p / 100 * (len(data) - 1)
        lo = int(pos)
        hi = min(lo + 1, len(data) - 1)
        return data[lo] + (data[hi] - data[lo]) * (pos - lo)


class Totals:
    """Per-span-name calls, busy time, self time, errors and a duration sample."""

    def __init__(self, keep: int = 200):
        self.calls = defaultdict(int)
        self.busy = defaultdict(float)
        self.self_s = defaultdict(float)
        self.errors = defaultdict(int)
        self.durations: dict[str, Samples] = {}
        self.keep = keep
        self.kept: list[Span] = []

    def fold(self, spans) -> None:
        for s, own in zip(spans, self_times(spans)):
            d = s.end - s.start
            self.calls[s.name] += 1
            self.busy[s.name] += d
            self.self_s[s.name] += own
            self.errors[s.name] += s.error
            if s.name not in self.durations:
                self.durations[s.name] = Samples(1 << 14, len(self.durations))
            self.durations[s.name].add(d)
        if spans and spans[0].request < self.keep:
            offset = len(self.kept)
            self.kept.extend(
                s._replace(parent=s.parent + offset) if s.parent >= 0 else s for s in spans
            )

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as out:
            for s in self.kept:
                out.write(json.dumps(s._asdict()) + "\n")
