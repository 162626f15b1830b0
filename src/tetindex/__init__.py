"""Exact q-series computations with the tetrahedron index.

Everything is computed over truncated Laurent series in q^(1/2) with
exact integer coefficients; exponents and precision bounds are tracked
as integers in half-units (h stands for q^(h/2)).
"""

from .bailey import (
    BaileyState,
    bailey_beta,
    bailey_chain,
    bailey_seed,
    bailey_seed_delta,
    bailey_step,
    bailey_verify,
)
from .errors import (
    ExprSyntaxError,
    PrecisionError,
    StabilizationError,
    TetIndexError,
)
from .identities import (
    CheckReport,
    duality_check,
    pentagon_check,
    pentagon_lhs,
    pentagon_rhs,
    pentagon_shifted_check,
    pentagon_shifted_lhs,
    pentagon_shifted_rhs,
    triality_check,
)
from .lattice import (
    IND41_TEXT,
    AffineForm,
    LatticeSumExpr,
    eval_expr_with_box,
    format_expr,
    ind41,
    load_expr_file,
    parse_expr,
)
from .series import QSeries, equal_to_order, monomial, one, qpoch, zero
from .tetrahedron import tet_index, tet_min_degree, tet_term

__all__ = [
    "QSeries",
    "monomial",
    "zero",
    "one",
    "qpoch",
    "equal_to_order",
    "tet_term",
    "tet_index",
    "tet_min_degree",
    "CheckReport",
    "triality_check",
    "duality_check",
    "pentagon_lhs",
    "pentagon_rhs",
    "pentagon_check",
    "pentagon_shifted_lhs",
    "pentagon_shifted_rhs",
    "pentagon_shifted_check",
    "BaileyState",
    "bailey_seed_delta",
    "bailey_seed",
    "bailey_step",
    "bailey_beta",
    "bailey_verify",
    "bailey_chain",
    "AffineForm",
    "LatticeSumExpr",
    "parse_expr",
    "format_expr",
    "eval_expr_with_box",
    "ind41",
    "IND41_TEXT",
    "load_expr_file",
    "TetIndexError",
    "PrecisionError",
    "StabilizationError",
    "ExprSyntaxError",
]

__version__ = "0.1.0"
