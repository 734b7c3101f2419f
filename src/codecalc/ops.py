"""The operation table that the CLI and the corpus replay share.

Each op name maps to its public callable, its argument names and the key its
value is stored under in the JSON result (``None``: the value's ``to_dict()``).
"""

import sys

from . import codes
from .core import classify, parse_index


def _first_call(home: str, op: str):
    """The stand-in for an op of a route module that no start loads.  Its first
    call imports the module and puts the op's function in OPS in its place, so
    later calls cost what they did when ops imported every module.  A function
    the module does not define (a stand-in a caller patched over it) answers
    that call but is never kept, so a patch ends when the caller undoes it."""

    def call(*args):
        module = __import__(f"{__package__}.{home}", fromlist=(op,))
        fn = getattr(module, op)
        if getattr(fn, "__globals__", None) is vars(module):
            OPS[op] = (fn, *OPS[op][1:])
        return fn(*args)

    return call


def _deferred(table: dict) -> dict:
    """The table with each route module's name replaced by its op's stand-in."""
    return {
        op: (_first_call(fn, op) if isinstance(fn, str) else fn, names, key)
        for op, (fn, names, key) in table.items()
    }


# op -> (callable, argument names, key).  An op of a route module beyond
# ``codes`` names the module here, which loads on the op's first call.
OPS = _deferred(
    {
        "parse_index": (parse_index, ("text",), "index"),
        "classify": (classify, ("index",), "kind"),
        "reduce_word": (codes.reduce_word, ("letters",), "letters"),
        "encode_code": (codes.encode_code, ("index",), "letters"),
        "decode_code": (codes.decode_code, ("letters",), "index"),
        "straighten_code": (codes.straighten_code, ("letters",), None),
        "reading_straighten": (codes.reading_straighten, ("letters",), None),
        "straighten_B": (codes.straighten_B, ("index",), None),
        "exponent_straighten": ("oracle", ("index",), None),
        "bn_action": ("bernstein", ("n", "index"), None),
        "lambda_sup": ("bernstein", ("index", "i"), "index"),
        "r_index": ("bernstein", ("index", "i"), "value"),
        "bernstein_series": ("bernstein", ("index", "i_max"), "terms"),
        "bernstein_series_window": ("bernstein", ("index", "n_max"), "terms"),
        "straighten_Y_perm": ("qvertex", ("index",), None),
        "straighten_Y_code": ("qvertex", ("index",), None),
        "yn_action": ("qvertex", ("n", "index"), None),
        "lambda_bracket": ("qvertex", ("index", "i"), "index"),
        "q_series_j_form": ("qvertex", ("index", "n_max"), "terms"),
        "q_series_i_form": ("qvertex", ("index", "i_max"), "terms"),
        "encode_shifted": ("shifted", ("index",), "letters"),
        "decode_shifted": ("shifted", ("letters",), "index"),
        "shifted_straighten": ("shifted", ("letters",), None),
        "preshift": ("shifted", ("letters",), "letters"),
        "lambda_bracket_shifted": ("shifted", ("index", "i"), "index"),
        "schur_poly": ("oracle", ("index", "nvars"), "poly"),
        "bialternant": ("oracle", ("exponents",), "poly"),
    }
)


def _json_value(value):
    """JSON form of a keyed op's value: an index, a word, a polynomial or series terms."""
    if isinstance(value, tuple):
        return list(value)
    if isinstance(value, list):
        return [term.to_dict() for term in value]
    if isinstance(value, codes.CodeWord):
        return value.letters
    oracle = sys.modules.get(f"{__package__}.oracle")  # loaded if value is its polynomial
    if oracle is not None and isinstance(value, oracle.IntPolynomial):
        return value.render()
    return value


def run(op: str, args: dict) -> dict:
    """Call op on its arguments from args (index lists as tuples); return its JSON result.

    A missing argument raises KeyError; an index that is not iterable raises TypeError.
    """
    fn, names, key = OPS[op]
    value = fn(*(tuple(args[n]) if n in ("index", "exponents") else args[n] for n in names))
    return value.to_dict() if key is None else {key: _json_value(value)}
