"""codecalc: code-word calculus for straightening operator products.

Indexes (tuples of row lengths) are encoded as words over {R, L, U}; products
of row-adding operators are straightened into signed partition-indexed terms,
on two independent sides: the partition side (Schur functions, operators that
shift by a staircase under the hood) and the strict side (Schur-Q functions,
anticommuting vertex operators).  Every nontrivial computation has at least
two independent routes, and the verify module sweeps them against each other.

Every public name loads on first use: ``from codecalc import straighten_code``
imports only ``core`` and ``codes``.  A CLI start never imports ``verify``, nor
a route module that its command does not run (see ``ops``).
"""

__version__ = "0.1.0"

# each public name and the module that defines it; __all__ keeps this order
_HOME = {
    "CalcError": "core",
    "CodeWord": "codes",
    "Composition": "core",
    "DomainError": "core",
    "IntPolynomial": "oracle",
    "InternalInvariantError": "core",
    "InvalidCodeError": "core",
    "ParseError": "core",
    "PreshiftedWord": "shifted",
    "QSeriesTerm": "qvertex",
    "SeriesTerm": "bernstein",
    "ShiftedCodeWord": "codes",
    "SignedIndexResult": "core",
    "SUITES": "verify",
    "VerifyReport": "verify",
    "ZERO": "core",
    "bernstein_series": "bernstein",
    "bernstein_series_window": "bernstein",
    "bialternant": "oracle",
    "bn_action": "bernstein",
    "canonical_json": "core",
    "classify": "core",
    "decode_code": "codes",
    "decode_shifted": "shifted",
    "encode_code": "codes",
    "encode_shifted": "shifted",
    "exponent_straighten": "oracle",
    "is_partition": "core",
    "is_strict_partition": "core",
    "lambda_bracket": "qvertex",
    "lambda_bracket_shifted": "shifted",
    "lambda_sup": "bernstein",
    "negate": "core",
    "parse_index": "core",
    "preshift": "shifted",
    "q_series_i_form": "qvertex",
    "q_series_j_form": "qvertex",
    "r_index": "bernstein",
    "reading_straighten": "codes",
    "reduce_word": "codes",
    "render_index": "core",
    "schur_poly": "oracle",
    "shifted_straighten": "shifted",
    "staircase": "oracle",
    "straighten_B": "codes",
    "straighten_Y_code": "qvertex",
    "straighten_Y_perm": "qvertex",
    "straighten_code": "codes",
    "vandermonde_product": "oracle",
    "yn_action": "qvertex",
}

__all__ = list(_HOME)


def __getattr__(name):
    """Import the module that defines a public name, on its first use."""
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # __import__, unlike importlib.import_module, shows in python -X importtime
    module = __import__(f"{__name__}.{_HOME[name]}", fromlist=(name,))
    value = getattr(module, name)
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
