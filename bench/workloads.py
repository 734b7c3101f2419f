"""Seeded request streams for the two workloads, and the verify sweep.

Every stream is a function of a ``random.Random`` seeded from ``--seed``
alone, so the same seed gives the same requests.  Requests are built here
without calling codecalc: the program only ever sees the generated inputs.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Iterator


@dataclass(frozen=True)
class Sizes:
    """How large the indexes of a workload are."""

    lengths: tuple[int, ...]  # row counts to draw from
    max_part: int  # largest part
    max_i: int  # series and index positions
    max_letters: int  # raw words for reduce_word

    def part(self, rng, minimum: int = 0) -> int:
        return rng.randint(minimum, self.max_part)

    def comp(self, rng, minimum=0, length=None):
        length = rng.choice(self.lengths) if length is None else length
        return tuple(self.part(rng, minimum) for _ in range(length))

    def partition(self, rng):
        return tuple(sorted(self.comp(rng), reverse=True))

    def strict(self, rng):
        length = rng.choice(self.lengths)
        values: set[int] = set()
        while len(values) < length:
            values.add(rng.randint(1, max(self.max_part, length)))
        return tuple(sorted(values, reverse=True))


SMALL = Sizes(lengths=tuple(range(7)), max_part=8, max_i=10, max_letters=24)


def text(rng, parts) -> str:
    sep = " " if rng.random() < 0.1 else ","
    return sep.join(map(str, parts))


def letters(parts, shifted=False) -> str:
    """Code word of an index, built bottom-up as the paper describes."""
    if not parts:
        return ""
    d = 1 if shifted else 0
    chunks = ["R" * (parts[-1] - d) + "U"]
    for i in range(len(parts) - 2, -1, -1):
        step = parts[i] - parts[i + 1] - d
        chunks.append(("R" * step if step >= 0 else "L" * -step) + "U")
    return "".join(chunks)


def _req(op, expect=None, **args):
    req = {"op": op, "args": args}
    if expect:
        req["expect"] = expect
    return req


def _straighten(algebra, method, minimum=0):
    def make(rng, s):
        return _req("straighten", algebra=algebra, method=method, text=text(rng, s.comp(rng, minimum)))
    return make


def _act_b(rng, s):
    lam = s.partition(rng)
    top = lam[0] if lam else 0
    return _req("act", algebra="b", n=rng.randint(-len(lam) - 2, top + 3), text=text(rng, lam))


def _act_q(rng, s):
    lam = s.strict(rng)
    top = lam[0] if lam else 0
    return _req("act", algebra="q", n=rng.randint(0, top + 2), text=text(rng, lam))


def _series(algebra, bound):
    def make(rng, s):
        lam = s.partition(rng) if algebra == "b" else s.strict(rng)
        top = lam[0] if lam else 0
        if bound == "i_max":
            value = rng.randint(0, s.max_i)
        elif algebra == "b":
            value = rng.randint(-2, s.max_i)
        else:
            value = rng.randint(0, top + 5)
        return _req("series", algebra=algebra, text=text(rng, lam), **{bound: value})
    return make


def _encode(shifted):
    def make(rng, s):
        return _req("code", shifted=shifted, text=text(rng, s.comp(rng, 1 if shifted else 0)))
    return make


def _decode(shifted):
    def make(rng, s):
        return _req("code", decode=True, shifted=shifted,
                    letters=letters(s.comp(rng, 1 if shifted else 0), shifted))
    return make


def _preshift(rng, s):
    return _req("preshift", letters=letters(s.comp(rng, 1)))


def _reduce_word(rng, s):
    n = rng.randrange(s.max_letters + 1)
    return _req("reduce_word", letters="".join(rng.choice("RLU") for _ in range(n)))


def _lambda_sup(rng, s):
    lam = s.partition(rng)
    top = lam[0] if lam else 0
    return _req("lambda_sup", text=text(rng, lam), i=rng.randint(1, top + len(lam) + 2))


def _lambda_bracket(op, low):
    def make(rng, s):
        lam = s.strict(rng)
        return _req(op, text=text(rng, lam), i=rng.randint(low, s.max_i))
    return make


def _invalid(rng, s):
    """One deliberately invalid input and the error class it must raise."""
    kind = rng.randrange(10)
    comp = s.comp(rng, length=rng.choice(s.lengths) or 1)
    if kind == 0:
        tokens = list(map(str, comp))
        tokens.insert(rng.randrange(len(tokens) + 1), "x")
        return _req("straighten", "ParseError", algebra="b", method="code", text=",".join(tokens))
    if kind == 1:
        bad = (comp[0] + 1,) + tuple(-p - 1 if i == 0 else p for i, p in enumerate(comp))
        return _req("straighten", "DomainError", algebra=rng.choice("bq"), method="code", text=text(rng, bad))
    if kind == 2:
        bad = tuple(p + 1 for p in comp) + (0,)
        return _req("straighten", "DomainError", algebra="q", method="shifted", text=text(rng, bad))
    if kind == 3:
        lam = s.strict(rng) or (1,)
        bad = tuple(sorted(lam + (lam[0],), reverse=True))
        return _req("act", "DomainError", algebra="q", n=rng.randint(0, 5), text=text(rng, bad))
    if kind == 4:
        lam = tuple(sorted(comp))
        bad = lam if lam[0] < lam[-1] else lam + (lam[-1] + 1,)
        return _req("act", "DomainError", algebra="b", n=rng.randint(0, 5), text=text(rng, bad))
    if kind == 5:
        return _req("series", "DomainError", algebra="q", text=text(rng, s.strict(rng)),
                    n_max=-rng.randint(1, 5))
    if kind == 6:
        return _req("code", "InvalidCodeError", decode=True, shifted=rng.random() < 0.5,
                    letters="L" + letters(comp))
    if kind == 7:
        return _req("code", "InvalidCodeError", decode=True, shifted=False, letters=letters(comp) + "R")
    if kind == 8:
        return _req("preshift", "DomainError", letters=letters(tuple(p + 1 for p in comp) + (0,)))
    return _req("reduce_word", "InvalidCodeError",
                letters="".join(rng.choice("RLUX") for _ in range(8)) + "X")


# (weight, request maker, whether the command line can express the request)
KINDS = [
    (14, _straighten("b", "code"), True),
    (4, _straighten("b", "reading"), True),
    (3, _straighten("b", "oracle"), True),
    (4, _straighten("b", "all"), True),
    (10, _straighten("q", "code"), True),
    (4, _straighten("q", "shifted", minimum=1), True),
    (4, _straighten("q", "all"), True),
    (6, _act_b, True),
    (6, _act_q, True),
    (3, _series("b", "i_max"), True),
    (3, _series("b", "n_max"), True),
    (3, _series("q", "i_max"), True),
    (3, _series("q", "n_max"), True),
    (4, _encode(False), True),
    (4, _decode(False), True),
    (2, _encode(True), True),
    (2, _decode(True), True),
    (2, _preshift, False),
    (2, _reduce_word, False),
    (2, _lambda_sup, False),
    (2, _lambda_bracket("lambda_bracket", 0), False),
    (2, _lambda_bracket("lambda_bracket_shifted", 1), False),
    (6, _invalid, False),
]


def api_stream(rng, sizes: Sizes, cli_only=False) -> Iterator[dict]:
    """Rounds holding every kind as often as its weight, in seeded order.

    Row counts cycle through ``sizes.lengths``.  Fixed proportions keep the
    mix, and with it the run-to-run spread, the same for every seed.
    """
    per_length = [replace(sizes, lengths=(n,)) for n in sizes.lengths]
    turn = 0
    while True:
        kinds = [make for w, make, on_cli in KINDS if on_cli or not cli_only for _ in range(w)]
        rng.shuffle(kinds)
        for make in kinds:
            yield make(rng, per_length[turn % len(per_length)])
            turn += 1


# ----------------------------------------------------------------------------
# verify: the sweep that the cli workload's traced run serves once

VERIFY_SUITES = ("codes", "bernstein", "qvertex", "shifted", "oracle")
DEFAULT_RANGE = (4, 3)  # the CLI's --max-part and --max-len
NEIGHBOURS = ((3, 3), (5, 3), (4, 2), (4, 4))  # one step from the default in each direction
CORPUS = _req("verify", suite="corpus", max_part=4, max_len=3)
LAW = _req("bialternant_law", max_part=5, max_len=4, nvars=4)


def verify_cycle() -> list[dict]:
    """The corpus, the criterion-4 law, and every suite at the default range
    and at each of its four neighbours, in a fixed order."""
    reqs = [CORPUS, LAW]
    for suite in VERIFY_SUITES:
        for p, l in (DEFAULT_RANGE,) + NEIGHBOURS:
            reqs.append(_req("verify", suite=suite, max_part=p, max_len=l))
    return reqs


# ----------------------------------------------------------------------------
# cli: codecalc's command line, ``cli.main`` run in-process on an argv

USAGE_ERRORS = (
    (["series", "--algebra", "b", "--index", "2,1"], None),
    (["straighten", "--algebra", "b", "--method", "perm", "1,2"], None),
    (["straighten", "1,2"], None),
    (["frobnicate"], None),
    (["code", "--index", "2,1"], {"CODECALC_FORMAT": "xml"}),
)


def to_argv(req) -> list[str]:
    op, a = req["op"], req["args"]
    if op == "straighten":
        return ["straighten", "--algebra", a["algebra"], "--method", a["method"], a["text"]]
    if op == "act":
        return ["act", "--algebra", a["algebra"], "-n", str(a["n"]), "--index", a["text"]]
    if op == "series":
        bound = "i_max" if "i_max" in a else "n_max"
        return ["series", "--algebra", a["algebra"], "--index", a["text"],
                "--" + bound.replace("_", "-"), str(a[bound])]
    if op == "code":
        argv = ["code", "--decode", a["letters"]] if a.get("decode") else ["code", "--index", a["text"]]
        return argv + (["--shifted"] if a.get("shifted") else [])
    if op == "verify":
        return ["verify", "--suite", a["suite"], "--max-part", str(a["max_part"]),
                "--max-len", str(a["max_len"])]
    raise ValueError(f"no command line for {op!r}")


def _cli_req(rng, inner) -> dict:
    argv = to_argv(inner)
    style = rng.random()
    env = None
    if style < 0.45:
        argv.append("--format=json")
    elif style < 0.55:
        env = {"CODECALC_FORMAT": "json"}
    return _req("cli", argv=argv, env=env, json=style < 0.55, inner=inner)


def _invalid_for_cli(rng, sizes):
    while True:
        req = _invalid(rng, sizes)
        if req["op"] in ("straighten", "act", "series", "code"):
            return req


def _usage_error(rng):
    argv, env = rng.choice(USAGE_ERRORS)
    return _req("cli", argv=list(argv), env=env, json=False, usage_error=True,
                inner={"op": argv[0], "args": {}})


def cli_stream(rng) -> Iterator[dict]:
    """Rounds of 20 in seeded order: two invalid inputs, one usage error and
    17 requests of the API mix."""
    api = api_stream(rng, SMALL, cli_only=True)
    makers = (
        [lambda: _cli_req(rng, _invalid_for_cli(rng, SMALL))] * 2
        + [lambda: _usage_error(rng)]
        + [lambda: _cli_req(rng, next(api))] * 17
    )
    while True:
        rng.shuffle(makers)
        for make in makers:
            yield make()


def probes(root, work_dir) -> list[dict]:
    """Inputs the ROADMAP lists as leaving a traceback instead of an error line.

    Paths are relative to ``root``, where the CLI runs, so reports carry no
    machine-specific prefix.
    """
    work = work_dir.relative_to(root)
    (work_dir / "not_json.jsonl").write_text("this line is not JSON\n", encoding="utf-8")
    cases = [
        ["verify", "--suite", "corpus", "--file", str(work / "missing.jsonl")],
        ["verify", "--suite", "corpus", "--output", str(work / "no_such_dir" / "x")],
        ["verify", "--suite", "corpus", "--file", str(work / "not_json.jsonl")],
    ]
    return [_req("cli", argv=argv, env=None, json=False, usage_error=True,
                 inner={"op": "verify", "args": {}}) for argv in cases]


def kind_of(req) -> str:
    """The request kind that busy time is broken down by, e.g. ``straighten.b.code``."""
    op, a = req["op"], req["args"]
    if req.get("expect"):
        return "invalid"
    if op == "cli":
        return "cli.usage_error" if a.get("usage_error") else "cli." + kind_of(a["inner"])
    if op == "straighten":
        return f"straighten.{a['algebra']}.{a['method']}"
    if op == "act":
        return f"act.{a['algebra']}"
    if op == "series":
        return f"series.{a['algebra']}.{'i_max' if 'i_max' in a else 'n_max'}"
    if op == "code":
        return "code." + ("decode" if a.get("decode") else "encode") + (".shifted" if a.get("shifted") else "")
    if op == "verify":
        return f"verify.{a['suite']}"
    return op


# ----------------------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    stream: Callable  # rng -> iterator of requests
    batch: int  # requests timed back to back between checks (traced run, warm-up)
    set_size: int  # requests drawn once and served in passes by the untraced run
    cold: dict  # the first request a fresh interpreter serves in set-up
    warmup: int  # requests served before timing starts


WORKLOADS = {
    "small": Workload(
        stream=lambda rng: api_stream(rng, SMALL),
        batch=256,
        set_size=12_000,
        cold=_req("straighten", algebra="b", method="code", text="1,3,1,6,2"),
        warmup=2000,
    ),
    "cli": Workload(
        stream=cli_stream,
        batch=256,
        set_size=150,
        cold=_req("cli", argv=["straighten", "--algebra", "b", "1,3,1,6,2"], env=None,
                  json=False, inner=_req("straighten", algebra="b", method="code",
                                         text="1,3,1,6,2")),
        warmup=500,
    ),
}
