"""Command-line interface: encode/decode, straighten, act, series, verify.

Exit codes: 0 on success, 1 on usage or domain errors and on inputs too large
for the memory available, 2 when an internal invariant check fails.  Output is
plain text by default; --format json (or the CODECALC_FORMAT environment
variable) switches to canonical one-line JSON.
"""

import argparse
import functools
import os
import re
import sys

from . import ops
from .core import (
    DomainError,
    InternalInvariantError,
    InvalidCodeError,
    ParseError,
    canonical_json,
    check_int,
    parse_index,
    render_index,
    validate_composition,
)

# verify.SUITES' names, spelled out so that a CLI start does not import verify
_SUITES = ("codes", "bernstein", "qvertex", "shifted", "oracle", "corpus")


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage problems must exit 1, not argparse's 2
        raise ParseError(message)


_INT = re.compile(r"-?[0-9]+")


def _int(text: str) -> int:
    """An integer flag's value: ASCII -?[0-9]+ only, the grammar of parse_index."""
    if not _INT.fullmatch(text):
        raise ValueError(text)
    return int(text)


_int.__name__ = "int"  # argparse names the type in "invalid int value: ..."


def _resolve_format(args) -> str:
    if args.format:
        return args.format
    env = os.environ.get("CODECALC_FORMAT", "")
    if env:
        if env not in ("text", "json"):
            raise ParseError(f"CODECALC_FORMAT must be 'text' or 'json', not {env!r}")
        return env
    return "text"


def _signed(negative, power: str, letter: str, index) -> str:
    return f"{'-' if negative else '+'}{power} * {letter}[{render_index(index)}]\n"


def _text(result: dict, letter: str) -> str:
    """Plain-text rendering of an op's JSON result; letter names the family."""
    if "terms" in result:
        return "".join(
            _signed(t["sign_exp"] % 2, f"t^{t['t_exp']}", letter, t["index"])
            for t in result["terms"]
        )
    if "zero" in result:
        return "0\n"
    if "sign" in result:
        return _signed(result["sign"] < 0, "1", letter, result["index"])
    if "letters" in result:
        return result["letters"] + "\n"
    return render_index(result["index"]) + "\n"


def _print(args, result: dict, letter: str = "") -> int:
    text = _text(result, letter) if args.format == "text" else canonical_json(result) + "\n"
    sys.stdout.write(text)
    return 0


def _cmd_code(args) -> int:
    style = "shifted" if args.shifted else "code"
    if args.letters is not None:
        return _print(args, ops.run(f"decode_{style}", vars(args)))
    return _print(args, ops.run(f"encode_{style}", {"index": parse_index(args.index)}))


# (--algebra, --method) -> (op, the encoder op whose word it takes, or None)
_METHODS = {
    ("b", "code"): ("straighten_B", None),
    ("b", "reading"): ("reading_straighten", "encode_code"),
    ("b", "oracle"): ("exponent_straighten", None),
    ("q", "code"): ("straighten_Y_code", None),
    ("q", "perm"): ("straighten_Y_perm", None),
    ("q", "shifted"): ("shifted_straighten", "encode_shifted"),
}


def _cmd_straighten(args) -> int:
    mu = parse_index(args.index)
    methods = {m: route for (algebra, m), route in _METHODS.items() if algebra == args.algebra}
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
    if args.algebra == "b":
        validate_composition(mu)  # B rows are nonnegative for every method, the oracle too
    results = {}
    for name, (op, encoder) in chosen.items():
        op_args = {"letters": ops.OPS[encoder][0](mu)} if encoder else {"index": mu}
        results[name] = ops.run(op, op_args)
    values = list(results.values())
    if any(v != values[0] for v in values[1:]):
        raise InternalInvariantError(f"straightening methods disagree: {results!r}")
    return _print(args, values[0], args.algebra.upper())


def _cmd_act(args) -> int:
    args.index = parse_index(args.index)
    op = "bn_action" if args.algebra == "b" else "yn_action"
    return _print(args, ops.run(op, vars(args)), args.algebra.upper())


def _cmd_series(args) -> int:
    args.index = parse_index(args.index)
    if (args.i_max is None) == (args.n_max is None):
        raise ParseError("series needs exactly one of --i-max or --n-max")
    if args.algebra == "b":
        op = "bernstein_series" if args.n_max is None else "bernstein_series_window"
    else:
        op = "q_series_i_form" if args.n_max is None else "q_series_j_form"
    return _print(args, ops.run(op, vars(args)), args.algebra.upper())


def _cmd_verify(args) -> int:
    from . import verify  # imported here so that no other command loads it at start
    for name, top in verify.RANGE_MAX.items():
        check_int(getattr(args, name), name, 0, top)
    names = list(verify.SUITES) if args.suite == "all" else [args.suite]
    # the corpus suite runs first, so an unreadable file ends the run before any output
    corpus = verify.verify_corpus(args.file) if "corpus" in names else None
    out = sys.stdout if args.output == "-" else open(args.output, "w", encoding="utf-8")
    try:
        all_ok = True
        for name in names:
            if name == "corpus":
                report = corpus
            elif name == "qvertex":
                report = verify.SUITES[name](args.max_part, args.max_len, window_pad=args.n_max)
            elif name == "shifted":
                report = verify.SUITES[name](args.max_part, args.max_len, args.i_max)
            else:
                report = verify.SUITES[name](args.max_part, args.max_len)
            all_ok = all_ok and report.ok
            if args.format == "json":
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


def _plain(arg: str) -> bool:
    """A value as argparse reads it in every version: no leading "-", or -[0-9]+."""
    return arg[:1] != "-" or _INT.fullmatch(arg) is not None


def _table(parser, actions, exclusive=()) -> tuple:
    """A command's table for _match, read from the Actions its add_argument calls
    returned: option string -> action, the positional, the required dests, the
    exclusive dests and the defaults, the handler included."""
    return (
        {s: a for a in actions for s in a.option_strings},
        next((a for a in actions if not a.option_strings), None),
        {a.dest for a in actions if a.required},
        {a.dest for a in exclusive},
        {**{a.dest: a.default for a in actions}, "handler": parser.get_default("handler")},
    )


def _match(table, args):
    """The Namespace the command's parse_args gives for args in plain form, else None.

    Plain: exact option strings, --long=value, values for which _plain holds,
    each dest at most once, every required dest, and one dest of the exclusive
    group (the one group, code's, is required).  Anything else (help,
    abbreviations, "--", -n5, repeats, errors) is left to argparse, which
    writes every message, so this path has none of its own.
    """
    options, positional, required, exclusive, defaults = table
    values = {}
    args = iter(args)
    for arg in args:
        if _plain(arg):
            action, value = positional, arg
        elif arg in options:
            action = options[arg]
            if action.nargs == 0:
                value = action.const
            else:
                value = next(args, None)
                if value is None or not _plain(value):
                    return None
        else:
            name, eq, value = arg.partition("=")
            action = options.get(name) if eq and name[:2] == "--" else None
            if action is not None and action.nargs == 0:
                return None
        if action is None or action.dest in values:
            return None
        if action.type is not None:
            try:
                value = action.type(value)
            except ValueError:  # _int's refusal: argparse words the message
                return None
        if action.choices is not None and value not in action.choices:
            return None
        values[action.dest] = value
    if not required <= values.keys() or (exclusive and len(exclusive & values.keys()) != 1):
        return None
    return argparse.Namespace(**{**defaults, **values})


# Built on first use and shared by every main() in the process: parse_args fills
# a new Namespace each call, and help and usage errors read the terminal width
# and sys.stdout/sys.stderr when they print.  ``tables`` maps each command to its
# _table, read from the Actions that add_argument returned (documented
# attributes only).  main answers a plain argv of a known command from its
# table, with no argparse pass, and leaves any other argv to the top-level parse.
@functools.cache
def _build_parser() -> _Parser:
    parser = _Parser(prog="codecalc", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    tables = {}

    def add_format(p):
        return p.add_argument("--format", choices=("text", "json"), default=None)

    p = sub.add_parser("code", parents=[], help="encode an index or decode a word")
    group = p.add_mutually_exclusive_group(required=True)
    exclusive = [
        group.add_argument("--index", help="index to encode, e.g. 4,2,2,1"),
        group.add_argument(
            "--decode",
            dest="letters",
            metavar="DECODE",
            help="letter word to decode, e.g. RURUURRU",
        ),
    ]
    actions = exclusive + [
        p.add_argument("--shifted", action="store_true", help="use shifted codes"),
        add_format(p),
    ]
    p.set_defaults(handler=_cmd_code)
    tables["code"] = _table(p, actions, exclusive)

    p = sub.add_parser("straighten", help="straighten an index")
    actions = [
        p.add_argument("index", help="index to straighten, e.g. 1,3,1,6,2"),
        p.add_argument("--algebra", choices=("b", "q"), required=True),
        p.add_argument(
            "--method",
            choices=("code", "reading", "perm", "shifted", "oracle", "all"),
            default="code",
        ),
        add_format(p),
    ]
    p.set_defaults(handler=_cmd_straighten)
    tables["straighten"] = _table(p, actions)

    p = sub.add_parser("act", help="apply one degree-n operator to an index")
    actions = [
        p.add_argument("--algebra", choices=("b", "q"), required=True),
        p.add_argument("-n", "--degree", dest="n", type=_int, required=True),
        p.add_argument("--index", default="", help="index acted on (default: empty)"),
        add_format(p),
    ]
    p.set_defaults(handler=_cmd_act)
    tables["act"] = _table(p, actions)

    p = sub.add_parser("series", help="expand an operator series on an index")
    actions = [
        p.add_argument("--algebra", choices=("b", "q"), required=True),
        p.add_argument("--index", default="", help="index expanded on (default: empty)"),
        p.add_argument("--i-max", type=_int, default=None, help="enumerate terms i <= i-max"),
        p.add_argument("--n-max", type=_int, default=None, help="enumerate t-exponents <= n-max"),
        add_format(p),
    ]
    p.set_defaults(handler=_cmd_series)
    tables["series"] = _table(p, actions)

    p = sub.add_parser("verify", help="run verification sweeps")
    actions = [
        p.add_argument(
            "--suite",
            choices=_SUITES + ("all",),
            default="all",
        ),
        p.add_argument("--max-part", type=_int, default=4),
        p.add_argument("--max-len", type=_int, default=3),
        p.add_argument("--i-max", type=_int, default=10),
        p.add_argument("--n-max", type=_int, default=5),
        p.add_argument("--file", default=None, help="corpus file to replay (default: shipped)"),
        p.add_argument("--output", default="-", help="failure JSONL destination (default: stdout)"),
        add_format(p),
    ]
    p.set_defaults(handler=_cmd_verify)
    tables["verify"] = _table(p, actions)

    parser.tables = tables
    return parser


def main(argv=None) -> int:
    try:
        argv = sys.argv[1:] if argv is None else list(argv)
        parser = _build_parser()
        table = parser.tables.get(argv[0]) if argv else None
        args = _match(table, argv[1:]) if table else None
        if args is None:
            args = parser.parse_args(argv)
        args.format = _resolve_format(args)
        return args.handler(args)
    except (ParseError, DomainError, InvalidCodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:  # --file / --output that cannot be opened
        where = f": {exc.filename!r}" if exc.filename else ""
        print(f"error: {exc.strerror or exc}{where}", file=sys.stderr)
        return 1
    except (MemoryError, OverflowError):  # OverflowError: a run of 2**63 letters or more
        print("error: out of memory", file=sys.stderr)
        return 1
    except InternalInvariantError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
