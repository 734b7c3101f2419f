"""Deterministic verification sweeps, shared by the test suite and the CLI.

Each suite enumerates its inputs in a fixed order (randomised checks use a
fixed seed), records mismatches as JSON-ready failure dicts, and returns a
VerifyReport.  The corpus suite replays a JSON-lines file of worked examples
through the op table the CLI runs too (``ops.run``).

The public operations compute each answer once, by the code route; this
module is where the independent routes are compared with it.  ``REFERENCES``
names, once, the reference route each op of ``ops.OPS`` is checked against;
the suites compare the two through ``_check_ref``.  The laws with no second
route are checked in place: the plain, Q and shifted rules replayed one step
at a time by the library's own loop (op ``step_invariants``), every encoder
output re-validated through the public word constructors (op
``encode_valid``), round trips, reduction, vanishing degrees, series shape,
anticommutation and the polynomial identities.
"""

import json
import random
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from importlib import resources
from itertools import combinations, combinations_with_replacement, product

from . import bernstein, codes, ops, oracle, qvertex, shifted
from .core import (
    CalcError,
    DomainError,
    InvalidCodeError,
    ZERO,
    ParseError,
    SignedIndexResult,
    canonical_json,
    classify,
    negate,
)


@dataclass
class VerifyReport:
    """Outcome of one verification suite."""

    suite: str
    cases: int = 0
    failures: list[dict] = field(default_factory=list)
    seconds: float = 0.0

    @property
    def ok(self) -> bool:
        return not self.failures

    def fail(self, input_, expected, got) -> None:
        self.failures.append(
            {"suite": self.suite, "input": input_, "expected": expected, "got": got}
        )

    def check(self, input_, expected, got) -> None:
        self.cases += 1
        if expected != got:
            self.fail(input_, expected, got)

    @contextmanager
    def guard(self, input_):
        """Record a CalcError raised while checking input_ as one failed case,
        so a broken route shows up as failures rather than ending the sweep."""
        try:
            yield
        except CalcError as exc:
            self.cases += 1
            self.fail(input_, "no error", f"{type(exc).__name__}: {exc}")


def compositions(max_part: int, max_len: int, min_part: int = 0):
    """Every tuple of length <= max_len with entries in min_part..max_part."""
    for length in range(max_len + 1):
        yield from product(range(min_part, max_part + 1), repeat=length)


def partitions(max_part: int, max_len: int):
    """Every weakly decreasing tuple of length <= max_len with entries in 0..max_part."""
    for length in range(max_len + 1):
        yield from combinations_with_replacement(range(max_part, -1, -1), length)


def strict_partitions(max_part: int, max_len: int):
    """Every strictly decreasing tuple of length <= max_len with entries in 1..max_part."""
    for length in range(min(max_len, max_part) + 1):
        yield from combinations(range(max_part, 0, -1), length)


def _replay(letters: str, rule: str):
    """Run ``rule``'s exchange loop (``codes.RULES``) one step at a time.

    Every word it yields must keep the row count and the total, with no row
    below its type's shift.  Returns (steps, None) or (steps, first bad step).
    """
    shift = codes.RULES[rule][0].shift
    rows = codes._decode_letters(letters, shift)
    nrows, size = len(rows), sum(rows)
    steps = 0
    for out in codes._exchanges(letters, rule):
        if out is None:
            break
        steps += 1
        rows = codes._decode_letters(out[1], shift)
        if len(rows) != nrows or sum(rows) != size or any(r < shift for r in rows):
            return steps, {"step": steps, "letters": out[1], "rows": list(rows)}
    return steps, None


def _sup_closed(lam, i: int):
    """Closed form of the i-th sup-index: with j the rows >= i, lower those
    j rows by one and insert a row i-1 after them."""
    j = sum(1 for p in lam if p >= i)
    return tuple(p - 1 for p in lam[:j]) + (i - 1,) + tuple(lam[j:])


def _bracket_by_values(lam, i: int):
    """Insert the i-th smallest positive integer absent from the strict lam, in order."""
    v = i  # each row at or below the candidate pushes it one value further
    for p in sorted(lam):
        if p <= v:
            v += 1
    j = sum(1 for p in lam if p > v)
    return tuple(lam[:j]) + (v,) + tuple(lam[j:])


def _straightened(fn):
    """Reference route: fn of the args' index, behind the degree n when args carry one."""
    return lambda a: fn(tuple(a["index"]) if "n" not in a else (a["n"], *a["index"])).to_dict()


def _inserted(fn):
    """Reference route: fn of the args' index and position i, as an index result."""
    return lambda a: {"index": list(fn(a["index"], a["i"]))}


def _series_term(args) -> dict:
    """The Bernstein series term of t-exponent n, as the action's result."""
    n = args["n"]
    window = bernstein.bernstein_series_window(tuple(args["index"]), n)
    term = next((t for t in window if t.t_exp == n), None)
    return ZERO.to_dict() if term is None else SignedIndexResult(term.sign, term.index).to_dict()


# check name -> (op in ops.OPS, reference route).  The check passes when
# ``ops.run(op, args)`` equals ``reference(args)``; args may carry keys the op
# does not take, such as the ``index`` a ``letters`` op's reference reads.
REFERENCES = {
    "straighten_code": ("straighten_B", _straightened(oracle.exponent_straighten)),
    "reading_straighten": ("reading_straighten", _straightened(oracle.exponent_straighten)),
    "reading_raw": ("reading_straighten", _straightened(oracle.exponent_straighten)),
    "exponent_vs_code": ("exponent_straighten", _straightened(codes.straighten_B)),
    "straighten_Y": ("straighten_Y_code", _straightened(qvertex.straighten_Y_perm)),
    "shifted_straighten": ("shifted_straighten", _straightened(qvertex.straighten_Y_perm)),
    "sup_code": ("lambda_sup", _inserted(_sup_closed)),
    "bracket_code": ("lambda_bracket", _inserted(_bracket_by_values)),
    "bracket_shifted": ("lambda_bracket_shifted", _inserted(_bracket_by_values)),
    "r_index": (
        "r_index",
        lambda a: {"value": a["index"][a["i"] - 1] if a["i"] <= len(a["index"]) else 0},
    ),
    "action_straighten": ("bn_action", _straightened(codes.straighten_B)),
    "series_action": ("bn_action", _series_term),
    "yn_straighten": ("yn_action", _straightened(qvertex.straighten_Y_perm)),
    "preshift": (
        "preshift",
        lambda a: {"letters": shifted.encode_shifted(codes.decode_code(a["letters"])).letters},
    ),
}


def _check_ref(report: VerifyReport, check: str, args: dict) -> None:
    """One case of ``check``: its op's JSON result on args against its reference."""
    op, reference = REFERENCES[check]
    report.check({"op": check, **args}, reference(args), ops.run(op, args))


def _check_word(report: VerifyReport, mu, word, decode, rule: str) -> int:
    """Encoder validity, round trip and per-step ``rule`` invariants of the
    word an encoder built for mu; returns the number of exchange steps."""
    letters = word.letters
    try:
        codes.RULES[rule][0](letters)  # the public constructor must accept the encoder's letters
        valid = True
    except InvalidCodeError as exc:
        valid = str(exc)
    report.check({"op": "encode_valid", "index": list(mu)}, True, valid)
    report.check({"op": "round_trip", "index": list(mu)}, list(mu), list(decode(word)))
    return _check_steps(report, mu, letters, rule)


def _check_steps(report: VerifyReport, mu, letters: str, rule: str) -> int:
    """Replay ``rule`` on letters, checking every step's word (op step_invariants)."""
    if "L" not in letters:
        return 0
    steps, bad = _replay(letters, rule)
    report.check({"op": "step_invariants", "rule": rule, "index": list(mu)}, None, bad)
    return steps


def verify_codes(max_part: int = 4, max_len: int = 3) -> VerifyReport:
    """Round trips, encoder validity, reduction properties, per-step exchange
    invariants and three-way straightening agreement."""
    report = VerifyReport("codes")
    start = time.perf_counter()
    for mu in compositions(max_part, max_len):
        with report.guard({"index": list(mu)}):
            word = codes.encode_code(mu)
            letters = word.letters
            steps = _check_word(report, mu, word, codes.decode_code, "plain")
            if "L" in letters:
                # exchange-step count is bounded by the U's right of the leftmost L
                bound = letters[letters.index("L") :].count("U")
                report.check(
                    {"op": "step_bound", "index": list(mu)},
                    True,
                    steps <= bound,
                )
            _check_ref(report, "straighten_code", {"index": list(mu)})
            _check_ref(report, "reading_straighten", {"index": list(mu), "letters": letters})
    rng = random.Random(0)
    for case in range(2000):
        raw = "".join(rng.choice("RLU") for _ in range(rng.randrange(0, 24)))
        reduced = codes.reduce_word(raw)
        report.check(
            {"op": "reduce_idempotent", "case": case, "letters": raw},
            reduced,
            codes.reduce_word(reduced),
        )
        # cancelling adjacent RL/LR pairs in any order reaches the same word
        letters = raw
        while True:
            pairs = [i for i in range(len(letters) - 1) if letters[i : i + 2] in ("RL", "LR")]
            if not pairs:
                break
            i = rng.choice(pairs)
            letters = letters[:i] + letters[i + 2 :]
        report.check({"op": "reduce_any_order", "case": case, "letters": raw}, reduced, letters)
    for case in range(500):
        # reading_straighten tolerates non-reduced words
        length = rng.randrange(0, 4)
        mu = tuple(rng.randrange(0, max_part + 1) for _ in range(length))
        raw = codes.encode_code(mu).letters
        for _ in range(rng.randrange(1, 4)):
            pos = rng.randrange(0, len(raw) + 1)
            raw = raw[:pos] + rng.choice(["RL", "LR"]) + raw[pos:]
        args = {"case": case, "letters": raw, "index": list(mu)}
        with report.guard({"op": "reading_raw", **args}):
            _check_ref(report, "reading_raw", args)
    report.seconds = time.perf_counter() - start
    return report


def verify_bernstein(max_part: int = 4, max_len: int = 3) -> VerifyReport:
    """Action/series consistency, vanishing degrees, sup-indexes and r_index."""
    report = VerifyReport("bernstein")
    start = time.perf_counter()
    for lam in partitions(max_part, max_len):
        with report.guard({"index": list(lam)}):
            _check_bernstein(report, lam, max_part, max_len)
    report.seconds = time.perf_counter() - start
    return report


def _check_bernstein(report: VerifyReport, lam, max_part: int, max_len: int) -> None:
    l = len(lam)
    for i in range(1, max_part + max_len + 2):
        _check_ref(report, "sup_code", {"index": list(lam), "i": i})
        sup = bernstein.lambda_sup(lam, i)
        rows_at_least_i = sum(1 for p in lam if p >= i)
        report.check(
            {"op": "sup_index", "index": list(lam), "i": i},
            {"size": sum(lam) + i - 1 - rows_at_least_i, "partition": True},
            {"size": sum(sup), "partition": classify(sup) != "general"},
        )
    for i in range(1, l + 3):
        _check_ref(report, "r_index", {"index": list(lam), "i": i})
    vanish = {lam[j] - (j + 1) for j in range(l)}
    n_max = max_part + 2
    window = bernstein.bernstein_series_window(lam, n_max)
    by_exp = {t.t_exp: t for t in window}
    report.check(
        {"op": "window_distinct", "index": list(lam)},
        len(window),
        len(by_exp),
    )
    for n in range(-l - 2, n_max + 1):
        report.check(
            {"op": "vanishing", "index": list(lam), "n": n},
            n in vanish or n < -l,
            bernstein.bn_action(n, lam).is_zero,
        )
        _check_ref(report, "series_action", {"index": list(lam), "n": n})
        if n >= 0:
            _check_ref(report, "action_straighten", {"index": list(lam), "n": n})
    report.check(
        {"op": "window_exponents", "index": list(lam)},
        sorted(n for n in range(-l, n_max + 1) if n not in vanish),
        sorted(by_exp),
    )


def verify_qvertex(max_part: int = 4, max_len: int = 3, window_pad: int = 5) -> VerifyReport:
    """Two-route straightening agreement, per-step Q-rule invariants, bracket
    routes, action laws and series-form equivalence."""
    report = VerifyReport("qvertex")
    start = time.perf_counter()
    for mu in compositions(max_part, max_len):
        with report.guard({"index": list(mu)}):
            letters = codes.encode_code(mu).letters
            _check_steps(report, mu, letters, "q")
            _check_ref(report, "straighten_Y", {"index": list(mu)})
    for m in range(max_part + 1):
        for n in range(max_part + 1):
            if m != n:
                report.check(
                    {"op": "anticommute", "index": [m, n]},
                    negate(qvertex.straighten_Y_perm((n, m))).to_dict(),
                    qvertex.straighten_Y_perm((m, n)).to_dict(),
                )
    for lam in strict_partitions(max_part, max_len):
        with report.guard({"index": list(lam)}):
            _check_qvertex(report, lam, max_part, window_pad)
    report.seconds = time.perf_counter() - start
    return report


def _check_qvertex(report: VerifyReport, lam, max_part: int, window_pad: int) -> None:
    top = lam[0] if lam else 0
    n_max = top + window_pad
    i_max = n_max + len(lam)
    for i in range(1, i_max + 1):
        _check_ref(report, "bracket_code", {"index": list(lam), "i": i})
    for n in range(0, max_part + 3):
        report.check(
            {"op": "yn_zero", "index": list(lam), "n": n},
            n in lam,
            qvertex.yn_action(n, lam).is_zero,
        )
        _check_ref(report, "yn_straighten", {"index": list(lam), "n": n})
    j_terms = qvertex.q_series_j_form(lam, n_max)
    i_terms = qvertex.q_series_i_form(lam, i_max)
    in_window = [t for t in i_terms if t.n <= n_max]
    report.check(
        {"op": "series_forms", "index": list(lam), "n_max": n_max},
        [t.to_dict() for t in j_terms],
        sorted((t.to_dict() for t in in_window), key=lambda d: d["t_exp"]),
    )
    for term in j_terms:
        report.check(
            {"op": "series_strict", "index": list(lam), "n": term.n},
            "strict-partition",
            classify(term.index),
        )


def verify_shifted(max_part: int = 4, max_len: int = 3, i_max: int = 10) -> VerifyReport:
    """Shifted round trips, encoder validity, preshift consistency, per-step
    shifted-rule invariants, shared straightening and the shifted bracket."""
    report = VerifyReport("shifted")
    start = time.perf_counter()
    for mu in compositions(max_part, max_len, 1):
        with report.guard({"index": list(mu)}):
            word = shifted.encode_shifted(mu)
            _check_word(report, mu, word, shifted.decode_shifted, "shifted")
            plain = codes.encode_code(mu).letters
            _check_ref(report, "preshift", {"index": list(mu), "letters": plain})
            _check_ref(report, "shifted_straighten", {"index": list(mu), "letters": word.letters})
    for lam in strict_partitions(max_part, max_len):
        if not lam:
            continue
        with report.guard({"op": "bracket_shifted", "index": list(lam)}):
            for i in range(1, i_max + 1):
                _check_ref(report, "bracket_shifted", {"index": list(lam), "i": i})
    report.cases += 1
    try:
        shifted.preshift(codes.encode_code((2, 0)))
    except DomainError:
        pass
    else:
        report.fail({"op": "preshift_zero_row", "index": [2, 0]}, "DomainError", "no error")
    report.seconds = time.perf_counter() - start
    return report


def verify_oracle(max_part: int = 3, max_len: int = 3) -> VerifyReport:
    """Polynomial-level checks: exchange antisymmetry and the straightening law."""
    report = VerifyReport("oracle")
    start = time.perf_counter()
    for nvars in range(min(max_len, 5) + 1):
        report.check(
            {"op": "vandermonde", "nvars": nvars},
            True,
            oracle.bialternant(oracle.staircase(nvars)) == oracle.vandermonde_product(nvars),
        )
    rng = random.Random(0)
    for case in range(300):
        n = rng.randint(2, 4)
        exps = tuple(rng.randint(0, max_part + n) for _ in range(n))
        i = rng.randrange(n - 1)
        swapped = list(exps)
        swapped[i], swapped[i + 1] = swapped[i + 1], swapped[i]
        report.check(
            {"op": "exchange", "exponents": list(exps), "i": i},
            True,
            oracle.bialternant(tuple(swapped)) == -oracle.bialternant(exps),
        )
    for mu in compositions(max_part, max_len):
        result = oracle.exponent_straighten(mu)
        with report.guard({"op": "exponent_vs_code", "index": list(mu)}):
            _check_ref(report, "exponent_vs_code", {"index": list(mu)})
        if not mu:
            continue
        poly = oracle.schur_poly(mu, len(mu))
        if result.is_zero:
            report.check(
                {"op": "schur_law", "index": list(mu)}, True, poly.is_zero
            )
        else:
            target = oracle.schur_poly(result.index, len(mu))
            if result.sign < 0:
                target = -target
            report.check(
                {"op": "schur_law", "index": list(mu)}, True, poly == target
            )
    report.seconds = time.perf_counter() - start
    return report


def corpus_lines(path: str | None = None) -> list[str]:
    """Raw JSON lines of the worked-example corpus (shipped copy by default).

    An unreadable file raises OSError; a file that is not UTF-8 text raises
    ParseError.
    """
    try:
        if path is not None:
            with open(path, encoding="utf-8") as handle:
                text = handle.read()
        else:
            text = (
                resources.files("codecalc").joinpath("data/corpus.jsonl").read_text("utf-8")
            )
    except UnicodeDecodeError as exc:
        raise ParseError(f"corpus file {path!r} is not UTF-8 text: {exc.reason}") from None
    return [line for line in text.splitlines() if line.strip()]


def _corpus_entry(line: str):
    """(op, args, expected) of one corpus line, or None when it is malformed."""
    try:
        entry = json.loads(line)
    except ValueError:
        return None
    if not (
        isinstance(entry, dict)
        and isinstance(entry.get("op"), str)
        and isinstance(entry.get("args"), dict)
        and "expected" in entry
    ):
        return None
    return entry["op"], entry["args"], entry["expected"]


def verify_corpus(path: str | None = None) -> VerifyReport:
    """Replay every corpus entry and require canonical-JSON-identical results.

    A line that is not a JSON object with "op", "args" (an object) and
    "expected", or whose args the op cannot take, is a failure of that line.
    """
    report = VerifyReport("corpus")
    start = time.perf_counter()
    for lineno, line in enumerate(corpus_lines(path), start=1):
        report.cases += 1
        parsed = _corpus_entry(line)
        if parsed is None:
            report.fail(
                {"line": lineno},
                'a JSON object with "op", "args" and "expected"',
                line,
            )
            continue
        op, args, expected = parsed
        if op not in ops.OPS:
            report.fail({"line": lineno, "op": op}, "known op", "unknown op")
            continue
        where = {"line": lineno, "op": op, "args": args}
        try:
            got = ops.run(op, args)
        except CalcError as exc:
            report.fail(where, expected, f"{type(exc).__name__}: {exc}")
            continue
        except (AttributeError, KeyError, TypeError) as exc:
            report.fail(where, f"args that {op} takes", f"{type(exc).__name__}: {exc}")
            continue
        emitted = canonical_json(got)
        if emitted != canonical_json(expected):
            report.fail(where, expected, got)
        elif canonical_json(json.loads(emitted)) != emitted:
            report.fail(where, "byte-identical round trip", emitted)
    report.seconds = time.perf_counter() - start
    return report


SUITES = {
    "codes": verify_codes,
    "bernstein": verify_bernstein,
    "qvertex": verify_qvertex,
    "shifted": verify_shifted,
    "oracle": verify_oracle,
    "corpus": verify_corpus,
}

# Largest ranges ``codecalc verify`` accepts.  Oracle time grows factorially in
# max_len, bracket checks linearly in i_max and n_max; at this corner the oracle
# suite takes about 19 s and qvertex and shifted 6 s and 3 s on a 2-CPU x86 host.
RANGE_MAX = {"max_part": 8, "max_len": 4, "i_max": 1000, "n_max": 1000}
