"""Exact arithmetic core: polynomials, rational functions, matrices."""

from .poly import MPoly, NotDivisible, normalize_var, poly_gcd, var_rank
from .ratfun import ParseError, RatFun
from .linalg import (
    identity,
    kron,
    mat_add,
    mat_eq,
    mat_mul,
    mat_scale,
    np_apply_conserving,
    np_partial_trace,
    np_residual,
    op_on_slots,
    partial_trace,
    rref,
    solve_unique,
)

__all__ = [
    "MPoly",
    "NotDivisible",
    "normalize_var",
    "poly_gcd",
    "var_rank",
    "ParseError",
    "RatFun",
    "identity",
    "kron",
    "mat_add",
    "mat_eq",
    "mat_mul",
    "mat_scale",
    "np_apply_conserving",
    "np_partial_trace",
    "np_residual",
    "op_on_slots",
    "partial_trace",
    "rref",
    "solve_unique",
]
