"""Command-line interface: encode/decode, straighten, act, series, verify.

Exit codes: 0 on success, 1 on usage or domain errors, 2 when an internal
invariant check fails.  Output is plain text by default; --format json (or the
CODECALC_FORMAT environment variable) switches to canonical one-line JSON.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import bernstein, codes, oracle, qvertex, shifted
from .core import (
    DomainError,
    InternalInvariantError,
    InvalidCodeError,
    ParseError,
    SignedIndexResult,
    canonical_json,
    parse_index,
    render_index,
)
from .verify import SUITES, verify_corpus


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage problems must exit 1, not argparse's 2
        raise ParseError(message)


def _resolve_format(args) -> str:
    if args.format:
        return args.format
    env = os.environ.get("CODECALC_FORMAT", "")
    if env:
        if env not in ("text", "json"):
            raise ParseError(f"CODECALC_FORMAT must be 'text' or 'json', not {env!r}")
        return env
    return "text"


def _family_letter(algebra: str) -> str:
    return "B" if algebra == "b" else "Q"


def _print_result(result: SignedIndexResult, algebra: str, fmt: str) -> None:
    if fmt == "json":
        print(canonical_json(result.to_dict()))
    elif result.is_zero:
        print("0")
    else:
        sign = "+" if result.sign > 0 else "-"
        print(f"{sign}1 * {_family_letter(algebra)}[{render_index(result.index)}]")


def _cmd_code(args) -> int:
    fmt = _resolve_format(args)
    if args.decode is not None:
        decode = shifted.decode_shifted if args.shifted else codes.decode_code
        parts = decode(args.decode)
        print(canonical_json({"index": list(parts)}) if fmt == "json" else render_index(parts))
    else:
        encode = shifted.encode_shifted if args.shifted else codes.encode_code
        word = encode(parse_index(args.index))
        print(canonical_json({"letters": word.letters}) if fmt == "json" else word.letters)
    return 0


_B_METHODS = {
    "code": lambda mu: codes.straighten_B(mu),
    "reading": lambda mu: codes.reading_straighten(codes.encode_code(mu)),
    "oracle": lambda mu: oracle.exponent_straighten(mu),
}

_Q_METHODS = {
    "code": lambda mu: qvertex.straighten_Y_code(mu),
    "perm": lambda mu: qvertex.straighten_Y_perm(mu),
    "shifted": lambda mu: shifted.shifted_straighten(shifted.encode_shifted(mu)),
}


def _cmd_straighten(args) -> int:
    fmt = _resolve_format(args)
    mu = parse_index(args.index)
    methods = _B_METHODS if args.algebra == "b" else _Q_METHODS
    if args.method == "all":
        chosen = dict(methods)
        if args.algebra == "q" and any(p < 1 for p in mu):
            del chosen["shifted"]  # shifted codes carry positive rows only
    elif args.method in methods:
        chosen = {args.method: methods[args.method]}
    else:
        raise ParseError(
            f"method {args.method!r} is not available with --algebra {args.algebra}"
        )
    results = {name: fn(mu) for name, fn in chosen.items()}
    values = list(results.values())
    if any(v != values[0] for v in values[1:]):
        raise InternalInvariantError(f"straightening methods disagree: {results!r}")
    _print_result(values[0], args.algebra, fmt)
    return 0


def _cmd_act(args) -> int:
    fmt = _resolve_format(args)
    lam = parse_index(args.index)
    action = bernstein.bn_action if args.algebra == "b" else qvertex.yn_action
    _print_result(action(args.n, lam), args.algebra, fmt)
    return 0


def _cmd_series(args) -> int:
    fmt = _resolve_format(args)
    lam = parse_index(args.index)
    if (args.i_max is None) == (args.n_max is None):
        raise ParseError("series needs exactly one of --i-max or --n-max")
    if args.algebra == "b":
        if args.i_max is not None:
            terms = bernstein.bernstein_series(lam, args.i_max)
        else:
            terms = bernstein.bernstein_series_window(lam, args.n_max)
    else:
        if args.i_max is not None:
            terms = qvertex.q_series_i_form(lam, args.i_max)
        else:
            terms = qvertex.q_series_j_form(lam, args.n_max)
    if fmt == "json":
        print(canonical_json({"terms": [t.to_dict() for t in terms]}))
    else:
        letter = _family_letter(args.algebra)
        for t in terms:
            sign = "+" if t.sign > 0 else "-"
            print(f"{sign}t^{t.t_exp} * {letter}[{render_index(t.index)}]")
    return 0


def _cmd_verify(args) -> int:
    fmt = _resolve_format(args)
    names = list(SUITES) if args.suite == "all" else [args.suite]
    # the corpus suite runs first, so an unreadable file ends the run before any output
    corpus = verify_corpus(args.file) if "corpus" in names else None
    out = sys.stdout if args.output == "-" else open(args.output, "w", encoding="utf-8")
    try:
        all_ok = True
        for name in names:
            if name == "corpus":
                report = corpus
            elif name == "qvertex":
                report = SUITES[name](args.max_part, args.max_len, window_pad=args.n_max)
            elif name == "shifted":
                report = SUITES[name](args.max_part, args.max_len, args.i_max)
            else:
                report = SUITES[name](args.max_part, args.max_len)
            all_ok = all_ok and report.ok
            if fmt == "json":
                print(
                    canonical_json(
                        {
                            "suite": report.suite,
                            "cases": report.cases,
                            "failures": len(report.failures),
                            "seconds": round(report.seconds, 3),
                        }
                    )
                )
            else:
                print(
                    f"suite={report.suite} cases={report.cases} "
                    f"failures={len(report.failures)} time={report.seconds:.2f}s"
                )
            for failure in report.failures:
                print(canonical_json(failure), file=out)
        return 0 if all_ok else 1
    finally:
        if out is not sys.stdout:
            out.close()


def _build_parser() -> _Parser:
    parser = _Parser(prog="codecalc", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def add_format(p):
        p.add_argument("--format", choices=("text", "json"), default=None)

    p = sub.add_parser("code", parents=[], help="encode an index or decode a word")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--index", help="index to encode, e.g. 4,2,2,1")
    group.add_argument("--decode", help="letter word to decode, e.g. RURUURRU")
    p.add_argument("--shifted", action="store_true", help="use shifted codes")
    add_format(p)
    p.set_defaults(handler=_cmd_code)

    p = sub.add_parser("straighten", help="straighten an index")
    p.add_argument("index", help="index to straighten, e.g. 1,3,1,6,2")
    p.add_argument("--algebra", choices=("b", "q"), required=True)
    p.add_argument(
        "--method",
        choices=("code", "reading", "perm", "shifted", "oracle", "all"),
        default="code",
    )
    add_format(p)
    p.set_defaults(handler=_cmd_straighten)

    p = sub.add_parser("act", help="apply one degree-n operator to an index")
    p.add_argument("--algebra", choices=("b", "q"), required=True)
    p.add_argument("-n", "--degree", dest="n", type=int, required=True)
    p.add_argument("--index", default="", help="index acted on (default: empty)")
    add_format(p)
    p.set_defaults(handler=_cmd_act)

    p = sub.add_parser("series", help="expand an operator series on an index")
    p.add_argument("--algebra", choices=("b", "q"), required=True)
    p.add_argument("--index", default="", help="index expanded on (default: empty)")
    p.add_argument("--i-max", type=int, default=None, help="enumerate terms i <= i-max")
    p.add_argument("--n-max", type=int, default=None, help="enumerate t-exponents <= n-max")
    add_format(p)
    p.set_defaults(handler=_cmd_series)

    p = sub.add_parser("verify", help="run verification sweeps")
    p.add_argument(
        "--suite",
        choices=tuple(SUITES) + ("all",),
        default="all",
    )
    p.add_argument("--max-part", type=int, default=4)
    p.add_argument("--max-len", type=int, default=3)
    p.add_argument("--i-max", type=int, default=10)
    p.add_argument("--n-max", type=int, default=5)
    p.add_argument("--file", default=None, help="corpus file to replay (default: shipped)")
    p.add_argument("--output", default="-", help="failure JSONL destination (default: stdout)")
    add_format(p)
    p.set_defaults(handler=_cmd_verify)

    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        return args.handler(args)
    except (ParseError, DomainError, InvalidCodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:  # --file / --output that cannot be opened
        where = f": {exc.filename!r}" if exc.filename else ""
        print(f"error: {exc.strerror or exc}{where}", file=sys.stderr)
        return 1
    except InternalInvariantError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
