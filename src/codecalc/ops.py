"""The operation table that the CLI and the corpus replay share.

Each op name maps to its public callable, its argument names and the key its
value is stored under in the JSON result (``None``: the value's ``to_dict()``).
"""

from . import bernstein, codes, oracle, qvertex, shifted
from .core import classify, parse_index

OPS = {
    "parse_index": (parse_index, ("text",), "index"),
    "classify": (classify, ("index",), "kind"),
    "reduce_word": (codes.reduce_word, ("letters",), "letters"),
    "encode_code": (codes.encode_code, ("index",), "letters"),
    "decode_code": (codes.decode_code, ("letters",), "index"),
    "straighten_code": (codes.straighten_code, ("letters",), None),
    "reading_straighten": (codes.reading_straighten, ("letters",), None),
    "straighten_B": (codes.straighten_B, ("index",), None),
    "exponent_straighten": (oracle.exponent_straighten, ("index",), None),
    "bn_action": (bernstein.bn_action, ("n", "index"), None),
    "lambda_sup": (bernstein.lambda_sup, ("index", "i"), "index"),
    "r_index": (bernstein.r_index, ("index", "i"), "value"),
    "bernstein_series": (bernstein.bernstein_series, ("index", "i_max"), "terms"),
    "bernstein_series_window": (bernstein.bernstein_series_window, ("index", "n_max"), "terms"),
    "straighten_Y_perm": (qvertex.straighten_Y_perm, ("index",), None),
    "straighten_Y_code": (qvertex.straighten_Y_code, ("index",), None),
    "yn_action": (qvertex.yn_action, ("n", "index"), None),
    "lambda_bracket": (qvertex.lambda_bracket, ("index", "i"), "index"),
    "q_series_j_form": (qvertex.q_series_j_form, ("index", "n_max"), "terms"),
    "q_series_i_form": (qvertex.q_series_i_form, ("index", "i_max"), "terms"),
    "encode_shifted": (shifted.encode_shifted, ("index",), "letters"),
    "decode_shifted": (shifted.decode_shifted, ("letters",), "index"),
    "shifted_straighten": (shifted.shifted_straighten, ("letters",), None),
    "preshift": (shifted.preshift, ("letters",), "letters"),
    "lambda_bracket_shifted": (shifted.lambda_bracket_shifted, ("index", "i"), "index"),
    "schur_poly": (oracle.schur_poly, ("index", "nvars"), "poly"),
    "bialternant": (oracle.bialternant, ("exponents",), "poly"),
}


def _json_value(value):
    """JSON form of a keyed op's value: an index, a word, a polynomial or series terms."""
    if isinstance(value, tuple):
        return list(value)
    if isinstance(value, list):
        return [term.to_dict() for term in value]
    if isinstance(value, codes.CodeWord):
        return value.letters
    if isinstance(value, oracle.IntPolynomial):
        return value.render()
    return value


def run(op: str, args: dict) -> dict:
    """Call op on its arguments from args (index lists as tuples); return its JSON result.

    A missing argument raises KeyError; an index that is not iterable raises TypeError.
    """
    fn, names, key = OPS[op]
    value = fn(*(tuple(args[n]) if n in ("index", "exponents") else args[n] for n in names))
    return value.to_dict() if key is None else {key: _json_value(value)}
