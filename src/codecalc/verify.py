"""Deterministic verification sweeps, shared by the test suite and the CLI.

A sweep enumerates its cases in a fixed order (randomised checks use a fixed
seed) as (check name, args) pairs, and ``_check`` runs each one.  A check name
is a key of exactly one of two tables.  ``REFERENCES`` names the op of
``ops.OPS`` and the independent route its JSON result must equal: the public
operations compute each answer once, by the code route, and this is where
the second routes are compared with it.  ``LAWS`` maps each law with no
second route to a function of the args returning (expected, got).

A case fails when the two differ or the check raises an exception (only
running out of memory ends the run instead); it is then recorded as a
JSON-ready dict whose ``input`` is the check name (as ``op``) with the args.
Every entry recomputes its answer from the args alone, so
``_check(VerifyReport(suite), op, args)`` on a failure's input minus ``op``
records the same failure again.  The corpus suite replays a JSON-lines file
of worked examples through the op table the CLI runs too (``ops.run``).
"""

import functools
import json
import random
import time
from dataclasses import dataclass, field
from importlib import resources
from itertools import combinations, combinations_with_replacement, product

from . import bernstein, codes, ops, oracle, qvertex, shifted
from .core import (
    DomainError,
    InvalidCodeError,
    ZERO,
    ParseError,
    SignedIndexResult,
    canonical_json,
    classify,
    negate,
)


# What ends a run, as the CLI's "error: out of memory" line, where any other
# exception is recorded as a failure: an input too large for memory (an
# OverflowError is a run of 2**63 letters or more) is no route's fault.
_OUT_OF_MEMORY = (MemoryError, OverflowError)


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
    """Run the exchange loop of a rule on runs (``codes.RULES``) on the word
    with these letters, checking each step through the loop's callback.

    Every word a step returns must keep the row count and the total, with no
    row below its type's shift.  Returns (steps, None) or (steps, first bad
    step), the loop stopped there.
    """
    shift = codes.RULES[rule][0].shift
    runs = codes._runs(letters)
    rows = codes._rows(runs, shift)
    nrows, size = len(rows), sum(rows)
    steps, bad = 0, None

    def check(runs) -> bool:
        nonlocal steps, bad
        steps += 1
        rows = codes._rows(runs, shift)
        if len(rows) != nrows or sum(rows) != size or any(r < shift for r in rows):
            bad = {"step": steps, "runs": list(runs), "rows": list(rows)}
        return bad is not None

    codes._sum_exchanges(runs, rule, check)
    return steps, bad


@functools.lru_cache(maxsize=1)
def _shared(fn, *args):
    """fn(*args), computed once for the consecutive cases that read it: a word's
    replay (step_invariants, step_bound) or a partition's j-form (series_forms,
    series_strict).  Every sweep run starts with it empty."""
    return fn(*args)


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
    "action_straighten": ("bn_action", _straightened(oracle.exponent_straighten)),
    "series_action": ("bn_action", _series_term),
    "yn_straighten": ("yn_action", _straightened(qvertex.straighten_Y_perm)),
    "preshift": (
        "preshift",
        lambda a: {"letters": shifted.encode_shifted(codes.decode_code(a["letters"])).letters},
    ),
}


def _encode_valid(args):
    """The public constructor of the rule's word type accepts the encoder's letters."""
    try:
        codes.RULES[args["rule"]][0](args["letters"])
    except InvalidCodeError as exc:
        return True, str(exc)
    return True, True


def _round_trip(args):
    """The encoder's letters, read at the offset of the rule's word type, decode to the index."""
    return args["index"], list(codes._rows(args["letters"], codes.RULES[args["rule"]][0].shift))


def _step_bound(args):
    """The exchange-step count is bounded by the U's right of the leftmost L."""
    letters = args["letters"]
    steps = _shared(_replay, letters, args["rule"])[0]
    return True, steps <= letters[letters.index("L") :].count("U")


def _cancel_any_order(args):
    """The reduced word against RL / LR pairs cancelled in a random order seeded by the word."""
    raw = letters = args["letters"]
    rng = random.Random(raw)
    while pairs := [i for i in range(len(letters) - 1) if letters[i : i + 2] in ("RL", "LR")]:
        i = rng.choice(pairs)
        letters = letters[:i] + letters[i + 2 :]
    return codes.reduce_word(raw), letters


def _sup_index(args):
    """The i-th sup-index is a partition of size |lam| + i - 1 - (rows >= i)."""
    lam, i = args["index"], args["i"]
    sup = bernstein.lambda_sup(tuple(lam), i)
    expected = {"size": sum(lam) + i - 1 - sum(1 for p in lam if p >= i), "partition": True}
    return expected, {"size": sum(sup), "partition": classify(sup) != "general"}


def _vanishing(lam) -> set:
    """The degrees n >= -len(lam) at which B_n kills s_lam: lam_j - j."""
    return {p - j for j, p in enumerate(lam, 1)}


def _window(args):
    return bernstein.bernstein_series_window(tuple(args["index"]), args["n_max"])


def _series_forms(args):
    """The j-form equals the i-form's terms in the window n <= n_max."""
    lam, n_max = tuple(args["index"]), args["n_max"]
    in_window = [t for t in qvertex.q_series_i_form(lam, n_max + len(lam)) if t.n <= n_max]
    return (
        [t.to_dict() for t in _shared(qvertex.q_series_j_form, lam, n_max)],
        sorted((t.to_dict() for t in in_window), key=lambda d: d["t_exp"]),
    )


def _preshift_zero_row(args):
    """A word with a zero row has no shifted form."""
    try:
        shifted.preshift(codes.encode_code(tuple(args["index"])))
    except DomainError:
        return "DomainError", "DomainError"
    return "DomainError", "no error"


def _exchange(args):
    """Swapping two neighbouring exponents negates the bialternant."""
    exps, i = args["exponents"], args["i"]
    swapped = exps[:i] + [exps[i + 1], exps[i]] + exps[i + 2 :]
    return True, oracle.bialternant(tuple(swapped)) == -oracle.bialternant(tuple(exps))


def _schur_law(args):
    """s_mu in nvars variables is the signed Schur polynomial straighten_B(mu) names."""
    mu, nvars = tuple(args["index"]), args["nvars"]
    result = codes.straighten_B(mu)
    poly = oracle.schur_poly(mu, nvars)
    if result.is_zero:
        return True, poly.is_zero
    target = oracle.schur_poly(result.index, nvars)
    return True, poly == (target if result.sign > 0 else -target)


# check name -> law: a function of the case's args returning (expected, got).
# Where a law needs more than an index, the args carry it: the ``rule`` that
# names a word type, the encoder's ``letters``, a window's ``n_max``, a series
# ``term`` or the ``nvars`` of a polynomial.
LAWS = {
    "encode_valid": _encode_valid,
    "round_trip": _round_trip,
    "step_invariants": lambda a: (None, _shared(_replay, a["letters"], a["rule"])[1]),
    "step_bound": _step_bound,
    "reduce_idempotent": lambda a: (r := codes.reduce_word(a["letters"]), codes.reduce_word(r)),
    "reduce_any_order": _cancel_any_order,
    "sup_index": _sup_index,
    "vanishing": lambda a: (
        a["n"] < -len(a["index"]) or a["n"] in _vanishing(a["index"]),
        bernstein.bn_action(a["n"], tuple(a["index"])).is_zero,
    ),
    "window_distinct": lambda a: (len(w := _window(a)), len({t.t_exp for t in w})),
    "window_exponents": lambda a: (
        sorted(set(range(-len(a["index"]), a["n_max"] + 1)) - _vanishing(a["index"])),
        sorted({t.t_exp for t in _window(a)}),
    ),
    "anticommute": lambda a: (
        negate(qvertex.straighten_Y_perm(tuple(a["index"][::-1]))).to_dict(),
        qvertex.straighten_Y_perm(tuple(a["index"])).to_dict(),
    ),
    "yn_zero": lambda a: (
        a["n"] in a["index"], qvertex.yn_action(a["n"], tuple(a["index"])).is_zero
    ),
    "series_forms": _series_forms,
    "series_strict": lambda a: ("strict-partition", classify(tuple(a["term"]))),
    "preshift_zero_row": _preshift_zero_row,
    "vandermonde": lambda a: (
        True,
        oracle.bialternant(oracle.staircase(a["nvars"])) == oracle.vandermonde_product(a["nvars"]),
    ),
    "exchange": _exchange,
    "schur_law": _schur_law,
}


def _check(report: VerifyReport, check: str, args: dict) -> None:
    """Record one case of ``check``, a key of LAWS or REFERENCES, on args; an
    exception raised by the check is recorded as the case's failure."""
    try:
        if check in LAWS:
            expected, got = LAWS[check](args)
        else:
            op, reference = REFERENCES[check]
            expected, got = reference(args), ops.run(op, args)
    except _OUT_OF_MEMORY:
        raise
    except Exception as exc:  # a route's fault, CalcError or not, is what verify reports
        expected, got = "no error", f"{type(exc).__name__}: {exc}"
    report.check({"op": check, **args}, expected, got)


def _sweep(cases):
    """A verify suite from a generator function of (check, args) pairs: one
    timed run of ``_check`` over them.  An exception raised by the enumeration
    itself, such as a broken encoder's, ends the run as one more failure."""
    suite = cases.__name__.removeprefix("verify_")

    @functools.wraps(cases)
    def run(*ranges, **options) -> VerifyReport:
        report = VerifyReport(suite)
        _shared.cache_clear()
        start = time.perf_counter()
        try:
            for check, args in cases(*ranges, **options):
                _check(report, check, args)
        except _OUT_OF_MEMORY:
            raise
        except Exception as exc:
            report.check({"op": "enumeration"}, "no error", f"{type(exc).__name__}: {exc}")
        report.seconds = time.perf_counter() - start
        return report

    return run


def _word_cases(rule: str, args: dict):
    """The laws of an encoder's letters for an index, words of ``rule``'s type."""
    args = {"rule": rule, **args}
    yield "encode_valid", args
    yield "round_trip", args
    if "L" in args["letters"]:
        yield "step_invariants", args


@_sweep
def verify_codes(max_part: int = 4, max_len: int = 3):
    """Round trips, encoder validity, reduction properties, per-step exchange
    invariants and three-way straightening agreement."""
    for mu in compositions(max_part, max_len):
        args = {"index": list(mu), "letters": codes.encode_code(mu).letters}
        yield from _word_cases("plain", args)
        if "L" in args["letters"]:
            yield "step_bound", {"rule": "plain", **args}
        yield "straighten_code", {"index": list(mu)}
        yield "reading_straighten", args
    rng = random.Random(0)
    for case in range(2000):
        raw = "".join(rng.choice("RLU") for _ in range(rng.randrange(0, 24)))
        yield "reduce_idempotent", {"case": case, "letters": raw}
        yield "reduce_any_order", {"case": case, "letters": raw}
    for case in range(500):
        # reading_straighten tolerates non-reduced words
        mu = tuple(rng.randrange(0, max_part + 1) for _ in range(rng.randrange(0, 4)))
        raw = codes.encode_code(mu).letters
        for _ in range(rng.randrange(1, 4)):
            pos = rng.randrange(0, len(raw) + 1)
            raw = raw[:pos] + rng.choice(["RL", "LR"]) + raw[pos:]
        yield "reading_raw", {"case": case, "letters": raw, "index": list(mu)}


@_sweep
def verify_bernstein(max_part: int = 4, max_len: int = 3):
    """Action/series consistency, vanishing degrees, sup-indexes and r_index."""
    n_max = max_part + 2
    for lam in partitions(max_part, max_len):
        index = list(lam)
        for i in range(1, max_part + max_len + 2):
            yield "sup_code", {"index": index, "i": i}
            yield "sup_index", {"index": index, "i": i}
        for i in range(1, len(lam) + 3):
            yield "r_index", {"index": index, "i": i}
        yield "window_distinct", {"index": index, "n_max": n_max}
        yield "window_exponents", {"index": index, "n_max": n_max}
        for n in range(-len(lam) - 2, n_max + 1):
            yield "vanishing", {"index": index, "n": n}
            yield "series_action", {"index": index, "n": n}
            if n >= 0:
                yield "action_straighten", {"index": index, "n": n}


@_sweep
def verify_qvertex(max_part: int = 4, max_len: int = 3, window_pad: int = 5):
    """Two-route straightening agreement, per-step Q-rule invariants, bracket
    routes, action laws and series-form equivalence."""
    for mu in compositions(max_part, max_len):
        letters = codes.encode_code(mu).letters
        if "L" in letters:
            yield "step_invariants", {"rule": "q", "index": list(mu), "letters": letters}
        yield "straighten_Y", {"index": list(mu)}
    for m in range(max_part + 1):
        for n in range(max_part + 1):
            if m != n:
                yield "anticommute", {"index": [m, n]}
    for lam in strict_partitions(max_part, max_len):
        index, n_max = list(lam), (lam[0] if lam else 0) + window_pad
        for i in range(1, n_max + len(lam) + 1):
            yield "bracket_code", {"index": index, "i": i}
        for n in range(max_part + 3):
            yield "yn_zero", {"index": index, "n": n}
            yield "yn_straighten", {"index": index, "n": n}
        yield "series_forms", {"index": index, "n_max": n_max}
        try:
            terms = _shared(qvertex.q_series_j_form, lam, n_max)
        except Exception:  # series_forms, just above, recorded the j-form's fault
            terms = ()
        for term in terms:
            yield "series_strict", {"index": index, "n": term.n, "term": list(term.index)}


@_sweep
def verify_shifted(max_part: int = 4, max_len: int = 3, i_max: int = 10):
    """Shifted round trips, encoder validity, preshift consistency, per-step
    shifted-rule invariants, shared straightening and the shifted bracket."""
    for mu in compositions(max_part, max_len, 1):
        args = {"index": list(mu), "letters": shifted.encode_shifted(mu).letters}
        yield from _word_cases("shifted", args)
        yield "preshift", {"index": list(mu), "letters": codes.encode_code(mu).letters}
        yield "shifted_straighten", args
    for lam in strict_partitions(max_part, max_len):
        for i in range(1, i_max + 1 if lam else 1):
            yield "bracket_shifted", {"index": list(lam), "i": i}
    yield "preshift_zero_row", {"index": [2, 0]}


@_sweep
def verify_oracle(max_part: int = 4, max_len: int = 3):
    """Polynomial-level checks: exchange antisymmetry and the straightening law."""
    for nvars in range(min(max_len, 5) + 1):
        yield "vandermonde", {"nvars": nvars}
    rng = random.Random(0)
    for case in range(300):
        n = rng.randint(2, 4)
        exps = [rng.randint(0, max_part + n) for _ in range(n)]
        yield "exchange", {"exponents": exps, "i": rng.randrange(n - 1)}
    for mu in compositions(max_part, max_len):
        yield "exponent_vs_code", {"index": list(mu)}
        if mu:
            yield "schur_law", {"index": list(mu), "nvars": len(mu)}


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
    except (ValueError, RecursionError):  # RecursionError: nested past the decoder's limit
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
    "expected", whose args the op cannot take (an argument missing, an index
    not iterable), or whose op raises, is a failure of that line; what the op
    raises is recorded against the line's "expected".
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
            arguments = ops.arguments(op, args)
        except (KeyError, TypeError) as exc:
            report.fail(where, f"args that {op} takes", f"{type(exc).__name__}: {exc}")
            continue
        try:
            got = ops.call(op, *arguments)
        except _OUT_OF_MEMORY:
            raise
        except Exception as exc:
            report.fail(where, expected, f"{type(exc).__name__}: {exc}")
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
# suite takes 12-15 s and qvertex and shifted 4-5 s and 2-3 s on a 2-CPU x86 host.
RANGE_MAX = {"max_part": 8, "max_len": 4, "i_max": 1000, "n_max": 1000}
