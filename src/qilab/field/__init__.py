"""Exact arithmetic core: polynomials, rational functions, matrices."""

from .poly import MPoly, NotDivisible, normalize_var, poly_gcd, var_rank
from .ratfun import ParseError, RatFun
from .linalg import (
    apply_on_slots,
    identity,
    kron,
    mat_add,
    mat_eq,
    mat_mul,
    mat_scale,
    np_residual,
    np_spin_apply,
    np_spin_dense,
    np_spin_identity,
    np_spin_index,
    np_spin_trace_first,
    np_spin_transfer,
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
    "apply_on_slots",
    "identity",
    "kron",
    "mat_add",
    "mat_eq",
    "mat_mul",
    "mat_scale",
    "np_residual",
    "np_spin_apply",
    "np_spin_dense",
    "np_spin_identity",
    "np_spin_index",
    "np_spin_trace_first",
    "np_spin_transfer",
    "rref",
    "solve_unique",
]
