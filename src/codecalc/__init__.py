"""codecalc: code-word calculus for straightening operator products.

Indexes (tuples of row lengths) are encoded as words over {R, L, U}; products
of row-adding operators are straightened into signed partition-indexed terms,
on two independent sides: the partition side (Schur functions, operators that
shift by a staircase under the hood) and the strict side (Schur-Q functions,
anticommuting vertex operators).  Every nontrivial computation has at least
two independent routes, and the verify module sweeps them against each other.

Every public name loads on first use: ``_HOME`` names the module that defines
it, and ``_load`` imports that module and reads the name off it.  So ``from
codecalc import straighten_code`` imports only ``core`` and ``codes``.  The
package keeps a name's value after its first use; ``ops`` loads an op's
function anew on each call, so a CLI start never imports ``verify``, nor a
route module that its command does not run.
"""

from sys import modules as _modules

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


def _load(name):
    """A public name's value as its home module holds it now; the first use of
    any of the module's names imports it."""
    home = f"{__name__}.{_HOME[name]}"
    # a loaded module is looked up, as ops loads on every call and __import__
    # costs about 0.5 us there; __import__, unlike importlib.import_module,
    # shows in python -X importtime
    return getattr(_modules.get(home) or __import__(home, fromlist=(name,)), name)


def __getattr__(name):
    """A public name's value, loaded on its first use and kept from then on."""
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = _load(name)  # later lookups skip this function
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
