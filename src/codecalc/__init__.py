"""codecalc: code-word calculus for straightening operator products.

Indexes (tuples of row lengths) are encoded as words over {R, L, U}; products
of row-adding operators are straightened into signed partition-indexed terms,
on two independent sides: the partition side (Schur functions, operators that
shift by a staircase under the hood) and the strict side (Schur-Q functions,
anticommuting vertex operators).  Every nontrivial computation has at least
two independent routes, and the verify module sweeps them against each other.
"""

from .core import (
    CalcError,
    Composition,
    DomainError,
    InternalInvariantError,
    InvalidCodeError,
    ParseError,
    SignedIndexResult,
    ZERO,
    canonical_json,
    classify,
    is_partition,
    is_strict_partition,
    negate,
    parse_index,
    render_index,
)
from .codes import (
    CodeWord,
    decode_code,
    encode_code,
    reading_straighten,
    reduce_word,
    straighten_B,
    straighten_code,
)
from .bernstein import (
    SeriesTerm,
    bernstein_series,
    bernstein_series_window,
    bn_action,
    lambda_sup,
    r_index,
)
from .qvertex import (
    QSeriesTerm,
    lambda_bracket,
    q_series_i_form,
    q_series_j_form,
    straighten_Y_code,
    straighten_Y_perm,
    yn_action,
)
from .shifted import (
    PreshiftedWord,
    ShiftedCodeWord,
    decode_shifted,
    encode_shifted,
    lambda_bracket_shifted,
    preshift,
    shifted_straighten,
)
from .oracle import (
    IntPolynomial,
    bialternant,
    exponent_straighten,
    schur_poly,
    staircase,
    vandermonde_product,
)

__version__ = "0.1.0"

__all__ = [
    "CalcError",
    "CodeWord",
    "Composition",
    "DomainError",
    "IntPolynomial",
    "InternalInvariantError",
    "InvalidCodeError",
    "ParseError",
    "PreshiftedWord",
    "QSeriesTerm",
    "SeriesTerm",
    "ShiftedCodeWord",
    "SignedIndexResult",
    "SUITES",
    "VerifyReport",
    "ZERO",
    "bernstein_series",
    "bernstein_series_window",
    "bialternant",
    "bn_action",
    "canonical_json",
    "classify",
    "decode_code",
    "decode_shifted",
    "encode_code",
    "encode_shifted",
    "exponent_straighten",
    "is_partition",
    "is_strict_partition",
    "lambda_bracket",
    "lambda_bracket_shifted",
    "lambda_sup",
    "negate",
    "parse_index",
    "preshift",
    "q_series_i_form",
    "q_series_j_form",
    "r_index",
    "reading_straighten",
    "reduce_word",
    "render_index",
    "schur_poly",
    "shifted_straighten",
    "staircase",
    "straighten_B",
    "straighten_Y_code",
    "straighten_Y_perm",
    "straighten_code",
    "vandermonde_product",
    "yn_action",
]


def __getattr__(name):  # verify is imported on first use, so a CLI start skips it
    if name not in ("SUITES", "VerifyReport"):
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import verify
    return getattr(verify, name)
