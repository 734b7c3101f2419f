"""Request handlers and the independent routes that check their answers.

A request is ``{"op": name, "args": {...}}``, the shape of a corpus line, plus
an optional ``"expect"`` naming the error class that a deliberately invalid
input must raise.  ``handle`` runs the public steps the CLI runs for the op:
``parse_index``, the encoder or word constructor, the operation itself, then
``to_dict`` and ``canonical_json``.  Every step goes through
``call(name, fn, *args)``, so a tracer can put a span around it.

``check`` compares an outcome with a reference route and is only ever called
outside the timed span.  The references never reuse the route under test:
straightening is checked against ``exponent_straighten`` (B side; the oracle
method itself against ``straighten_B``) or ``straighten_Y_perm`` (Q side),
sup- and bracket-indexes against their closed
forms, encoders and decoders by round trip, and CLI runs by exit code, stdout
and an ``error:`` line with no traceback.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import re
import sys
import traceback
from itertools import product
from pathlib import Path

import codecalc
from codecalc import bernstein, cli, codes, oracle, qvertex, shifted
from codecalc.core import CalcError, InternalInvariantError, canonical_json, parse_index
from workloads import to_argv

SRC_DIR = Path(codecalc.__file__).resolve().parents[1]
ROOT_DIR = SRC_DIR.parent


def plain_call(name, fn, *args):
    """The untraced ``call``: run the step and nothing else."""
    return fn(*args)


def _render(result) -> str:
    return canonical_json(result.to_dict())


def _render_terms(terms) -> str:
    return canonical_json({"terms": [t.to_dict() for t in terms]})


def _code_route(call, mu):
    word = call("codes.encode_code", codes.encode_code, mu)
    return call("codes.straighten_code", codes.straighten_code, word)


def _reading_route(call, mu):
    word = call("codes.encode_code", codes.encode_code, mu)
    return call("codes.reading_straighten", codes.reading_straighten, word)


def _shifted_route(call, mu):
    word = call("shifted.encode_shifted", shifted.encode_shifted, mu)
    return call("shifted.shifted_straighten", shifted.shifted_straighten, word)


ROUTES = {
    "b": {
        "code": _code_route,
        "reading": _reading_route,
        "oracle": lambda call, mu: call(
            "oracle.exponent_straighten", oracle.exponent_straighten, mu
        ),
    },
    "q": {
        "code": lambda call, mu: call(
            "qvertex.straighten_Y_code", qvertex.straighten_Y_code, mu
        ),
        "perm": lambda call, mu: call(
            "qvertex.straighten_Y_perm", qvertex.straighten_Y_perm, mu
        ),
        "shifted": _shifted_route,
    },
}


def _straighten(call, a):
    mu = call("core.parse_index", parse_index, a["text"])
    routes = ROUTES[a["algebra"]]
    if a["method"] == "all":
        names = list(routes)
        if a["algebra"] == "q" and any(p < 1 for p in mu):
            names.remove("shifted")  # shifted codes carry positive rows only
    else:
        names = [a["method"]]
    results = [routes[name](call, mu) for name in names]
    if any(r != results[0] for r in results[1:]):
        raise InternalInvariantError(f"straightening methods disagree: {results!r}")
    return call("core.render", _render, results[0])


def _act(call, a):
    lam = call("core.parse_index", parse_index, a["text"])
    if a["algebra"] == "b":
        result = call("bernstein.bn_action", bernstein.bn_action, a["n"], lam)
    else:
        result = call("qvertex.yn_action", qvertex.yn_action, a["n"], lam)
    return call("core.render", _render, result)


SERIES = {
    ("b", "i_max"): ("bernstein.bernstein_series", bernstein.bernstein_series),
    ("b", "n_max"): ("bernstein.bernstein_series_window", bernstein.bernstein_series_window),
    ("q", "i_max"): ("qvertex.q_series_i_form", qvertex.q_series_i_form),
    ("q", "n_max"): ("qvertex.q_series_j_form", qvertex.q_series_j_form),
}


def _series(call, a):
    lam = call("core.parse_index", parse_index, a["text"])
    bound = "i_max" if "i_max" in a else "n_max"
    name, fn = SERIES[a["algebra"], bound]
    terms = call(name, fn, lam, a[bound])
    return call("core.render", _render_terms, terms)


def _code(call, a):
    if a.get("decode"):
        if a.get("shifted"):
            parts = call("shifted.decode_shifted", shifted.decode_shifted, a["letters"])
        else:
            parts = call("codes.decode_code", codes.decode_code, a["letters"])
        return call("core.render", canonical_json, {"index": list(parts)})
    parts = call("core.parse_index", parse_index, a["text"])
    if a.get("shifted"):
        word = call("shifted.encode_shifted", shifted.encode_shifted, parts)
    else:
        word = call("codes.encode_code", codes.encode_code, parts)
    return call("core.render", canonical_json, {"letters": word.letters})


def _preshift(call, a):
    word = call("shifted.preshift", shifted.preshift, a["letters"])
    return call("core.render", canonical_json, {"letters": word.letters})


def _reduce_word(call, a):
    letters = call("codes.reduce_word", codes.reduce_word, a["letters"])
    return call("core.render", canonical_json, {"letters": letters})


def _index_op(name, fn):
    def run(call, a):
        lam = call("core.parse_index", parse_index, a["text"])
        index = call(name, fn, lam, a["i"])
        return call("core.render", canonical_json, {"index": list(index)})

    return run


def compositions(max_part: int, max_len: int):
    for length in range(max_len + 1):
        yield from product(range(max_part + 1), repeat=length)


def _bialternant_law(call, a):
    """Acceptance criterion 4: schur_poly(mu) equals the signed straightened one."""
    nvars = a["nvars"]
    cases = mismatches = 0
    for mu in compositions(a["max_part"], a["max_len"]):
        cases += 1
        poly = call("oracle.schur_poly", oracle.schur_poly, mu, nvars)
        result = _code_route(call, mu)
        if result.is_zero:
            ok = poly.is_zero
        else:
            target = call("oracle.schur_poly", oracle.schur_poly, result.index, nvars)
            ok = not poly.is_zero and poly == (target if result.sign > 0 else -target)
        mismatches += not ok
    return canonical_json({"cases": cases, "mismatches": mismatches})


def _verify(call, a):
    argv = to_argv({"op": "verify", "args": a}) + ["--format", "json"]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = call(f"verify.{a['suite']}", cli.main, argv)
    suites = [
        {"suite": d["suite"], "cases": d["cases"], "failures": d["failures"]}
        for d in map(json.loads, out.getvalue().splitlines())
        if "cases" in d
    ]
    return canonical_json({"exit": code, "suites": suites})


_CLEARED = [0, 0]  # cache hits and misses read just before the last clear


def _oracle_caches():
    return [fn for fn in vars(oracle).values() if callable(getattr(fn, "cache_info", None))]


def oracle_cache_stats() -> tuple[int, int]:
    """Hits and misses of codecalc.oracle's lru caches, counted across clears."""
    hits, misses = _CLEARED
    for fn in _oracle_caches():
        info = fn.cache_info()
        hits += info.hits
        misses += info.misses
    return hits, misses


def clear_oracle_caches() -> None:
    """Empty codecalc.oracle's lru caches, as a fresh ``codecalc verify`` process has them."""
    _CLEARED[:] = oracle_cache_stats()
    for fn in _oracle_caches():
        fn.cache_clear()


def child_env(extra=None) -> dict:
    """Environment for a fresh interpreter that imports codecalc from this tree."""
    env = {k: v for k, v in os.environ.items() if k not in ("CODECALC_FORMAT", "PYTHONPATH")}
    env["PYTHONPATH"] = str(SRC_DIR)
    env.update(extra or {})
    return env


def spawn_cli(argv, env=None, timeout=60):
    """Run ``python -m codecalc argv`` in a fresh interpreter; (exit, stdout, stderr)."""
    import subprocess  # only fresh-process runs pay for this import

    proc = subprocess.run(
        [sys.executable, "-m", "codecalc", *argv],
        cwd=ROOT_DIR,
        env=child_env(env),
        capture_output=True,
        text=True,
        timeout=timeout,
    )
    return proc.returncode, proc.stdout, proc.stderr


def run_cli(argv, env=None):
    """Run ``cli.main(argv)`` in this process; (exit, stdout, stderr) as
    ``python -m codecalc argv`` would end, a traceback included."""
    out, err = io.StringIO(), io.StringIO()
    saved = os.environ.pop("CODECALC_FORMAT", None)
    os.environ.update(env or {})
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(list(argv))
            except SystemExit as exc:
                code = exc.code
            except Exception:
                traceback.print_exc()
                code = 1
    finally:
        os.environ.pop("CODECALC_FORMAT", None)
        if saved is not None:
            os.environ["CODECALC_FORMAT"] = saved
    return code, out.getvalue(), err.getvalue()


SUBCOMMANDS = ("code", "straighten", "act", "series", "verify")


def _cli(call, a):
    sub = a["argv"][0] if a["argv"] and a["argv"][0] in SUBCOMMANDS else "other"
    return call(f"cli.main.{sub}", run_cli, a["argv"], a.get("env"))


HANDLERS = {
    "straighten": _straighten,
    "act": _act,
    "series": _series,
    "code": _code,
    "preshift": _preshift,
    "reduce_word": _reduce_word,
    "lambda_sup": _index_op("bernstein.lambda_sup", bernstein.lambda_sup),
    "lambda_bracket": _index_op("qvertex.lambda_bracket", qvertex.lambda_bracket),
    "lambda_bracket_shifted": _index_op(
        "shifted.lambda_bracket_shifted", shifted.lambda_bracket_shifted
    ),
    "bialternant_law": _bialternant_law,
    "verify": _verify,
    "cli": _cli,
}


def handle(req, call=plain_call):
    """Run one request; return its answer (canonical JSON, or a CLI triple)."""
    return HANDLERS[req["op"]](call, req["args"])


def run_one(req, call=plain_call):
    """Outcome of one request: ("ok", answer), ("error", class, msg) or ("crash", ...)."""
    try:
        return ("ok", handle(req, call))
    except CalcError as exc:
        return ("error", type(exc).__name__, str(exc))
    except Exception as exc:  # a defect: recorded as a failed request, never fatal
        return ("crash", type(exc).__name__, str(exc))


# ----------------------------------------------------------------------------
# Reference routes


def sup_closed(lam, i):
    """Criterion 9: subtract 1 from the rows >= i and insert a row i - 1 after them."""
    j = sum(1 for p in lam if p >= i)
    return tuple(p - 1 for p in lam[:j]) + (i - 1,) + tuple(lam[j:])


def bracket_closed(lam, i):
    """Criterion 9: i = 0 appends a zero row, else insert the i-th absent value."""
    if i == 0:
        return tuple(lam) + (0,)
    absent = [v for v in range(1, len(lam) + i + 1) if v not in lam][i - 1]
    return tuple(sorted(tuple(lam) + (absent,), reverse=True))


def _schur_term(lam, i, index):
    base = sum(lam)
    return {
        "family": "schur",
        "i": i,
        "t_exp": sum(index) - base,
        "sign_exp": base - sum(index) + i - 1,
        "index": list(index),
    }


def _q_term(lam, n, j, i, index):
    return {"family": "schurQ", "i": i, "j": j, "t_exp": n, "sign_exp": j, "index": list(index)}


def _ref_series(a):
    lam = parse_index(a["text"])
    l = len(lam)
    if a["algebra"] == "b":
        if "i_max" in a:
            return [_schur_term(lam, i, sup_closed(lam, i)) for i in range(1, a["i_max"] + 1)]
        n_max = a["n_max"]
        terms = [
            _schur_term(lam, i, sup_closed(lam, i)) for i in range(1, max(n_max + 1 + l, 0) + 1)
        ]
        return [t for t in terms if t["t_exp"] <= n_max]
    if "i_max" in a:
        terms = []
        for i in range(a["i_max"] + 1):
            index = bracket_closed(lam, i)
            n = sum(index) - sum(lam)
            terms.append(_q_term(lam, n, index.index(n), i, index))
        return terms
    terms = []
    for n in range(a["n_max"] + 1):
        if n not in lam:
            j = sum(1 for p in lam if p > n)
            terms.append(_q_term(lam, n, j, n - l + j, lam[:j] + (n,) + lam[j:]))
    return terms


def _ref_straighten(a):
    mu = parse_index(a["text"])
    if a["algebra"] == "q":
        return qvertex.straighten_Y_perm(mu).to_dict()
    if a["method"] == "oracle":  # the oracle is checked against the code route
        return codes.straighten_B(mu).to_dict()
    return oracle.exponent_straighten(mu).to_dict()


def _ref_act(a):
    lam = parse_index(a["text"])
    if a["algebra"] == "q":
        return qvertex.straighten_Y_perm((a["n"],) + lam).to_dict()
    result = oracle.exponent_straighten((a["n"],) + lam).to_dict()
    if any(p < 0 for p in result.get("index", ())):
        return {"zero": True}  # the operator vanishes below -len(lam)
    return result


def _reduce_by_replacing(letters):
    while True:
        shorter = letters.replace("RL", "").replace("LR", "")
        if shorter == letters:
            return letters
        letters = shorter


def reference(req):
    """Expected answer as a JSON-ready object, or None for round-trip ops."""
    op, a = req["op"], req["args"]
    if op == "straighten":
        return _ref_straighten(a)
    if op == "act":
        return _ref_act(a)
    if op == "series":
        return {"terms": _ref_series(a)}
    if op == "preshift":
        return {"letters": shifted.encode_shifted(codes.decode_code(a["letters"])).letters}
    if op == "reduce_word":
        return {"letters": _reduce_by_replacing(a["letters"])}
    if op == "lambda_sup":
        return {"index": list(sup_closed(parse_index(a["text"]), a["i"]))}
    if op in ("lambda_bracket", "lambda_bracket_shifted"):
        return {"index": list(bracket_closed(parse_index(a["text"]), a["i"]))}
    if op == "bialternant_law":
        cases = sum((a["max_part"] + 1) ** k for k in range(a["max_len"] + 1))
        return {"cases": cases, "mismatches": 0}
    return None


def _check_round_trip(a, got) -> str | None:
    if a.get("decode"):
        encode = shifted.encode_shifted if a.get("shifted") else codes.encode_code
        back = encode(tuple(got["index"])).letters
        return None if back == a["letters"] else f"re-encodes to {back!r}"
    decode = shifted.decode_shifted if a.get("shifted") else codes.decode_code
    back = list(decode(got["letters"]))
    return None if back == list(parse_index(a["text"])) else f"decodes to {back!r}"


def _check_verify(a, got) -> str | None:
    suites = got["suites"]
    if got["exit"] != 0 or [s["suite"] for s in suites] != [a["suite"]]:
        return f"verify exit {got['exit']} with summaries {suites!r}"
    if suites[0]["failures"] or suites[0]["cases"] < 1:
        return f"verify reported {suites[0]!r}"
    return None


def check_answer(req, answer: str) -> str | None:
    """None when an in-process answer agrees with the reference route."""
    op = req["op"]
    got = json.loads(answer)
    if canonical_json(got) != answer:
        return f"answer is not canonical JSON: {answer!r}"
    if op == "code":
        return _check_round_trip(req["args"], got)
    if op == "verify":
        return _check_verify(req["args"], got)
    expected = canonical_json(reference(req))
    return None if answer == expected else f"expected {expected}, got {answer}"


_RESULT_LINE = re.compile(r"([+-])1 \* ([BQ])\[([0-9,]*)\]")
_VERIFY_LINE = re.compile(r"suite=(\w+) cases=([0-9]+) failures=([0-9]+) time=[0-9.]+s")


def _text_answer(inner, lines):
    """Turn the CLI's text output back into the in-process answer, or None."""
    op, a = inner["op"], inner["args"]
    if op in ("straighten", "act"):
        if lines == ["0"]:
            return canonical_json({"zero": True})
        m = _RESULT_LINE.fullmatch(lines[0]) if len(lines) == 1 else None
        if not m or m.group(2) != ("B" if a["algebra"] == "b" else "Q"):
            return None
        sign = 1 if m.group(1) == "+" else -1
        return canonical_json({"sign": sign, "index": list(parse_index(m.group(3)))})
    if op == "code" and len(lines) == 1:
        if a.get("decode"):
            return canonical_json({"index": list(parse_index(lines[0]))})
        return canonical_json({"letters": lines[0]})
    return None


def _verify_rows(lines, as_json):
    if as_json:
        return [json.loads(line) for line in lines]
    rows = []
    for line in lines:
        m = _VERIFY_LINE.fullmatch(line)
        if not m:
            return None
        rows.append({"suite": m.group(1), "cases": int(m.group(2)), "failures": int(m.group(3))})
    return rows


def _series_text(terms, letter):
    rows = []
    for t in terms:
        sign = "-" if t["sign_exp"] % 2 else "+"
        rows.append(f"{sign}t^{t['t_exp']} * {letter}[{','.join(map(str, t['index']))}]")
    return rows


def check_cli(a, answer) -> str | None:
    """None when a CLI run ends as documented and prints the reference answer."""
    code, stdout, stderr = answer
    inner = a["inner"]
    if "Traceback" in stderr:
        return f"traceback on stderr: {stderr.strip().splitlines()[-1]!r}"
    if inner.get("expect") or a.get("usage_error"):
        if code == 1 and stderr.startswith("error:") and not stdout:
            return None
        return f"expected exit 1 with an error: line, got exit {code} and {stderr!r}"
    if code != 0 or stderr:
        return f"exit {code}, stderr {stderr!r}"
    op, lines = inner["op"], stdout.splitlines()
    if op == "series" and not a["json"]:
        letter = "B" if inner["args"]["algebra"] == "b" else "Q"
        want = _series_text(_ref_series(inner["args"]), letter)
        return None if lines == want else f"expected {want}, got {lines}"
    if op == "verify":
        rows = _verify_rows(lines, a["json"])
        got = rows and canonical_json(
            {"exit": code, "suites": [{k: r[k] for k in ("suite", "cases", "failures")} for r in rows]}
        )
    elif a["json"]:
        got = lines[0] if len(lines) == 1 else None
    else:
        got = _text_answer(inner, lines)
    if not got:
        return f"unreadable output {stdout!r}"
    return check_answer(inner, got)


def check(req, outcome) -> str | None:
    """None when the outcome is right for the request, else what went wrong."""
    kind = outcome[0]
    if req["op"] == "cli":
        return check_cli(req["args"], outcome[1]) if kind == "ok" else f"{outcome[1]}: {outcome[2]}"
    expect = req.get("expect")
    if expect:
        if kind == "error" and outcome[1] == expect:
            return None
        return f"expected {expect}, got {outcome!r}"
    if kind != "ok":
        return f"{outcome[1]}: {outcome[2]}"
    return check_answer(req, outcome[1])
