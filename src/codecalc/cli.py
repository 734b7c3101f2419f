"""Command-line interface: encode/decode, straighten, act, series, verify.

Exit codes: 0 on success, 1 on usage or domain errors and on inputs too large
for the memory available, 2 when an internal invariant check fails.  Output is
plain text by default; --format json (or the CODECALC_FORMAT environment
variable) switches to canonical one-line JSON.
"""

import functools
import os
import sys

from . import _load, ops
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

# verify.SUITES in its order, each with the flags its arguments are read from,
# passed in order; spelled out so that a CLI start does not import verify
_SUITES = {
    "codes": ("max_part", "max_len"),
    "bernstein": ("max_part", "max_len"),
    "qvertex": ("max_part", "max_len", "n_max"),  # --n-max: the window pad
    "shifted": ("max_part", "max_len", "i_max"),  # --i-max: the bracket positions
    "oracle": ("max_part", "max_len"),
    "corpus": ("file",),
}


def _is_int(text: str) -> bool:
    """True when text is ASCII -?[0-9]+, the grammar of parse_index's entries."""
    digits = text[1:] if text[:1] == "-" else text
    return digits.isascii() and digits.isdigit()


def _int(text: str) -> int:
    """An integer flag's value: ASCII -?[0-9]+ only, the grammar of parse_index."""
    if not _is_int(text):
        raise ValueError(text)
    return int(text)


_int.__name__ = "int"  # argparse names the type in "invalid int value: ..."


def _env_format() -> str:
    """The format when --format is not given: CODECALC_FORMAT's, else text."""
    env = os.environ.get("CODECALC_FORMAT") or "text"
    if env not in ("text", "json"):
        raise ParseError(f"CODECALC_FORMAT must be 'text' or 'json', not {env!r}")
    return env


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
    text = _text(result, letter) if args["format"] == "text" else canonical_json(result) + "\n"
    sys.stdout.write(text)
    return 0


def _cmd_code(args) -> int:
    style = "shifted" if args["shifted"] else "code"
    if args["letters"] is not None:
        return _print(args, ops.run(f"decode_{style}", args))
    return _print(args, ops.call(f"encode_{style}", parse_index(args["index"])))


# --algebra -> --method -> (op, the encoder op whose word it takes, or None)
_METHODS = {
    "b": {
        "code": ("straighten_B", None),
        "reading": ("reading_straighten", "encode_code"),
        "oracle": ("exponent_straighten", None),
    },
    "q": {
        "code": ("straighten_Y_code", None),
        "perm": ("straighten_Y_perm", None),
        "shifted": ("shifted_straighten", "encode_shifted"),
    },
}


def _cmd_straighten(args) -> int:
    mu, algebra, method = parse_index(args["index"]), args["algebra"], args["method"]
    methods = _METHODS[algebra]
    if method == "all":
        chosen = dict(methods)  # a copy: the shared table is never edited
        if algebra == "q" and any(p < 1 for p in mu):
            del chosen["shifted"]  # shifted codes carry positive rows only
    elif method in methods:
        chosen = {method: methods[method]}
    else:
        raise ParseError(f"method {method!r} is not available with --algebra {algebra}")
    if algebra == "b":
        validate_composition(mu)  # B rows are nonnegative for every method, the oracle too
    results = {}
    for name, (op, encoder) in chosen.items():
        results[name] = ops.call(op, _load(encoder)(mu) if encoder else mu)
    values = iter(results.values())
    first = next(values)
    for value in values:
        if value != first:
            raise InternalInvariantError(f"straightening methods disagree: {results!r}")
    return _print(args, first, algebra.upper())


def _cmd_act(args) -> int:
    args["index"] = parse_index(args["index"])
    op = "bn_action" if args["algebra"] == "b" else "yn_action"
    return _print(args, ops.run(op, args), args["algebra"].upper())


def _cmd_series(args) -> int:
    args["index"] = parse_index(args["index"])
    if (args["i_max"] is None) == (args["n_max"] is None):
        raise ParseError("series needs exactly one of --i-max or --n-max")
    if args["algebra"] == "b":
        op = "bernstein_series" if args["n_max"] is None else "bernstein_series_window"
    else:
        op = "q_series_i_form" if args["n_max"] is None else "q_series_j_form"
    return _print(args, ops.run(op, args), args["algebra"].upper())


def _cmd_verify(args) -> int:
    from . import verify  # imported here so that no other command loads it at start
    for name, top in verify.RANGE_MAX.items():
        check_int(args[name], name, 0, top)
    names = list(_SUITES) if args["suite"] == "all" else [args["suite"]]

    def sweep(name):
        return verify.SUITES[name](*[args[flag] for flag in _SUITES[name]])

    # the corpus suite runs first, so an unreadable file ends the run before any output
    corpus = sweep("corpus") if "corpus" in names else None
    out = sys.stdout if args["output"] == "-" else open(args["output"], "w", encoding="utf-8")
    try:
        all_ok = True
        for name in names:
            report = corpus if name == "corpus" else sweep(name)
            all_ok = all_ok and report.ok
            if args["format"] == "json":
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


def _option(*flags, **settings) -> tuple:
    """An option of a command's spec: its flags, and add_argument's keyword arguments."""
    return flags, settings


# Each command's spec: (help, handler, the members of its one exclusive group,
# which is required, and its other options).  An option is (flags, settings):
# the settings are add_argument's keyword arguments, and every optional names
# its dest, so that _table reads it where argparse derives it.  _build_parser
# feeds the spec to argparse, and _TABLES reads _match's tables off it.
_ALGEBRA = _option("--algebra", dest="algebra", choices=("b", "q"), required=True)
_FORMAT = _option("--format", dest="format", choices=("text", "json"), default=None)
_COMMANDS = {
    "code": (
        "encode an index or decode a word",
        _cmd_code,
        [
            _option("--index", dest="index", help="index to encode, e.g. 4,2,2,1"),
            _option(
                "--decode",
                dest="letters",
                metavar="DECODE",
                help="letter word to decode, e.g. RURUURRU",
            ),
        ],
        [
            _option("--shifted", dest="shifted", action="store_true", help="use shifted codes"),
            _FORMAT,
        ],
    ),
    "straighten": (
        "straighten an index",
        _cmd_straighten,
        [],
        [
            _option("index", help="index to straighten, e.g. 1,3,1,6,2"),
            _ALGEBRA,
            _option(
                "--method",
                dest="method",
                choices=("code", "reading", "perm", "shifted", "oracle", "all"),
                default="code",
            ),
            _FORMAT,
        ],
    ),
    "act": (
        "apply one degree-n operator to an index",
        _cmd_act,
        [],
        [
            _ALGEBRA,
            _option("-n", "--degree", dest="n", type=_int, required=True),
            _option("--index", dest="index", default="", help="index acted on (default: empty)"),
            _FORMAT,
        ],
    ),
    "series": (
        "expand an operator series on an index",
        _cmd_series,
        [],
        [
            _ALGEBRA,
            _option(
                "--index", dest="index", default="", help="index expanded on (default: empty)"
            ),
            _option(
                "--i-max", dest="i_max", type=_int, default=None, help="enumerate terms i <= i-max"
            ),
            _option(
                "--n-max",
                dest="n_max",
                type=_int,
                default=None,
                help="enumerate t-exponents <= n-max",
            ),
            _FORMAT,
        ],
    ),
    "verify": (
        "run verification sweeps",
        _cmd_verify,
        [],
        [
            _option("--suite", dest="suite", choices=(*_SUITES, "all"), default="all"),
            _option("--max-part", dest="max_part", type=_int, default=4),
            _option("--max-len", dest="max_len", type=_int, default=3),
            _option("--i-max", dest="i_max", type=_int, default=10),
            _option("--n-max", dest="n_max", type=_int, default=5),
            _option(
                "--file", dest="file", default=None, help="corpus file to replay (default: shipped)"
            ),
            _option(
                "--output",
                dest="output",
                default="-",
                help="failure JSONL destination (default: stdout)",
            ),
            _FORMAT,
        ],
    ),
}


def _table(spec) -> tuple:
    """A command's table for _match, read off its spec: option string -> option,
    the positional, the required dests, the exclusive dests and the defaults,
    the handler included.  An option is (dest, nargs, const, type, choices),
    as on the Action that add_argument makes of it."""
    _, handler, exclusive, rest = spec
    options, positional, required, defaults = {}, None, set(), {"handler": handler}
    for flags, settings in exclusive + rest:
        dest = settings.get("dest", flags[0])
        nargs, const = (0, True) if settings.get("action") == "store_true" else (None, None)
        option = (dest, nargs, const, settings.get("type"), settings.get("choices"))
        if flags[0][:1] == "-":
            options.update(dict.fromkeys(flags, option))
            if settings.get("required"):
                required.add(dest)
        else:  # a positional of one value, which argparse requires
            positional = option
            required.add(dest)
        defaults[dest] = settings.get("default", False if nargs == 0 else None)
    return options, positional, required, {s["dest"] for _, s in exclusive}, defaults


_TABLES = {name: _table(spec) for name, spec in _COMMANDS.items()}


def _plain(arg: str) -> bool:
    """A value as argparse reads it in every version: no leading "-", or -[0-9]+."""
    return arg[:1] != "-" or _is_int(arg)


def _match(table, args):
    """The dict vars(parse_args) gives for the command's args in plain form, else None.

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
        option = options.get(arg)  # no option string is plain, so look it up first
        if option is not None:
            if option[1] == 0:  # nargs 0: a store_true flag, which takes its const
                value = option[2]
            else:
                value = next(args, None)
                if value is None or (value[:1] == "-" and not _is_int(value)):  # _plain, inlined
                    return None
        elif _plain(arg):
            option, value = positional, arg
        else:
            name, eq, value = arg.partition("=")
            option = options.get(name) if eq and name[:2] == "--" else None
            if option is not None and option[1] == 0:
                return None
        if option is None:
            return None
        dest, _, _, type_, choices = option
        if dest in values:
            return None
        if type_ is not None:
            try:
                value = type_(value)
            except ValueError:  # _int's refusal: argparse words the message
                return None
        if choices is not None and value not in choices:
            return None
        values[dest] = value
    if not required <= values.keys() or (exclusive and len(exclusive & values.keys()) != 1):
        return None
    return {**defaults, **values}


# Built on first use, for an argv that _match refuses and for help, and shared
# by every main() in the process: parse_args fills a new Namespace each call,
# and help and usage errors read the terminal width and sys.stdout/sys.stderr
# when they print.  A plain argv never imports argparse.
@functools.cache
def _build_parser():
    import argparse

    class Parser(argparse.ArgumentParser):
        def error(self, message):  # usage problems must exit 1, not argparse's 2
            raise ParseError(message)

    parser = Parser(prog="codecalc", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_, handler, exclusive, rest) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_)
        if exclusive:
            group = p.add_mutually_exclusive_group(required=True)
            for flags, settings in exclusive:
                group.add_argument(*flags, **settings)
        for flags, settings in rest:
            p.add_argument(*flags, **settings)
        p.set_defaults(handler=handler)
    return parser


def main(argv=None) -> int:
    try:
        argv = sys.argv[1:] if argv is None else list(argv)
        table = _TABLES.get(argv[0]) if argv else None
        args = _match(table, argv[1:]) if table else None
        if args is None:
            args = vars(_build_parser().parse_args(argv))
        args["format"] = args["format"] or _env_format()
        return args["handler"](args)
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
