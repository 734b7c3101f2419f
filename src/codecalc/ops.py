"""The operation table that the CLI and the corpus replay share.

Each op is a public name of the package.  OPS maps it to its argument names and
the key its value is stored under in the JSON result (``None``: the value's
``to_dict()``).  An op's function is read off its home module on every call,
so the op runs whatever that module holds now, and the module loads on the
first call of any of its ops.
"""

from . import _load

# op -> (argument names, key)
OPS = {
    "parse_index": (("text",), "index"),
    "classify": (("index",), "kind"),
    "reduce_word": (("letters",), "letters"),
    "encode_code": (("index",), "letters"),
    "decode_code": (("letters",), "index"),
    "straighten_code": (("letters",), None),
    "reading_straighten": (("letters",), None),
    "straighten_B": (("index",), None),
    "exponent_straighten": (("index",), None),
    "bn_action": (("n", "index"), None),
    "lambda_sup": (("index", "i"), "index"),
    "r_index": (("index", "i"), "value"),
    "bernstein_series": (("index", "i_max"), "terms"),
    "bernstein_series_window": (("index", "n_max"), "terms"),
    "straighten_Y_perm": (("index",), None),
    "straighten_Y_code": (("index",), None),
    "yn_action": (("n", "index"), None),
    "lambda_bracket": (("index", "i"), "index"),
    "q_series_j_form": (("index", "n_max"), "terms"),
    "q_series_i_form": (("index", "i_max"), "terms"),
    "encode_shifted": (("index",), "letters"),
    "decode_shifted": (("letters",), "index"),
    "shifted_straighten": (("letters",), None),
    "preshift": (("letters",), "letters"),
    "lambda_bracket_shifted": (("index", "i"), "index"),
    "schur_poly": (("index", "nvars"), "poly"),
    "bialternant": (("exponents",), "poly"),
}


def _json_value(key: str, value):
    """JSON form of a keyed op's value; the key says what the value is."""
    if key == "index":
        return list(value)
    if key == "letters":
        return value if isinstance(value, str) else value.letters  # reduce_word's is a str
    if key == "poly":
        return value.render()
    if key == "terms":
        return [term.to_dict() for term in value]
    return value


def arguments(op: str, args: dict) -> list:
    """op's positional arguments, taken from args by name (index lists as tuples).

    A missing argument raises KeyError; an index that is not iterable raises TypeError.
    """
    return [tuple(args[n]) if n in ("index", "exponents") else args[n] for n in OPS[op][0]]


def call(op: str, *arguments) -> dict:
    """Call op's function on its positional arguments; return its JSON result."""
    value = _load(op)(*arguments)
    key = OPS[op][1]
    return value.to_dict() if key is None else {key: _json_value(key, value)}


def run(op: str, args: dict) -> dict:
    """Call op on its arguments from args; return its JSON result."""
    return call(op, *arguments(op, args))
