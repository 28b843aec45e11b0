"""Matrices over exact rings and their numeric complex128 counterparts.

Exact matrices are plain lists of rows whose entries are MPoly, RatFun,
Fraction, or int; the helpers only assume ring arithmetic with coercion and
canonicalize no further than the entry type itself does.  ``mat_mul`` of two
matrices whose nonzero entries are all MPoly runs ``MPoly.matrix_product``:
each entry's packed integer terms are rekeyed once to the union of all
supports, and only the (i, t, j) with A[i][t] and B[t][j] both nonzero are
visited, with one int multiply-add per pair of their terms.  Other entry
types take the generic loop over all n*k*m index triples with one ring
product and sum per nonzero pair.  Numeric matrices are numpy arrays:
``np_apply_conserving`` applies a spin-conserving 4x4 factor on two tensor
slots in place with two quarter-matrix updates and two quarter-size
temporaries.
"""

from __future__ import annotations

import numpy as np

from .poly import MPoly

__all__ = [
    "mat_mul",
    "mat_add",
    "mat_scale",
    "mat_eq",
    "identity",
    "kron",
    "op_on_slots",
    "partial_trace",
    "rref",
    "solve_unique",
    "np_apply_conserving",
    "np_partial_trace",
    "np_residual",
]


def mat_mul(A, B):
    if all(isinstance(x, MPoly) for M in (A, B) for row in M for x in row if x):
        return MPoly.matrix_product(A, B)
    n, k, m = len(A), len(B), len(B[0])
    out = []
    for i in range(n):
        row = []
        Ai = A[i]
        for j in range(m):
            acc = None
            for t in range(k):
                a = Ai[t]
                if not a:
                    continue
                b = B[t][j]
                if not b:
                    continue
                p = a * b
                acc = p if acc is None else acc + p
            row.append(0 if acc is None else acc)
        out.append(row)
    return out


def mat_add(A, B):
    return [[a + b for a, b in zip(ra, rb)] for ra, rb in zip(A, B)]


def mat_scale(A, s):
    return [[s * a for a in row] for row in A]


def mat_eq(A, B) -> bool:
    if len(A) != len(B):
        return False
    for ra, rb in zip(A, B):
        if len(ra) != len(rb):
            return False
        for a, b in zip(ra, rb):
            if not (a == b):
                return False
    return True


def identity(n: int):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def kron(A, B):
    na, ma = len(A), len(A[0])
    nb, mb = len(B), len(B[0])
    out = [[0] * (ma * mb) for _ in range(na * nb)]
    for i in range(na):
        for j in range(ma):
            a = A[i][j]
            if not a:
                continue
            for k in range(nb):
                for l in range(mb):
                    b = B[k][l]
                    if b:
                        out[i * nb + k][j * mb + l] = a * b
    return out


def _digits(index: int, dims) -> list[int]:
    out = [0] * len(dims)
    for pos in range(len(dims) - 1, -1, -1):
        out[pos] = index % dims[pos]
        index //= dims[pos]
    return out


def _index(digits, dims) -> int:
    idx = 0
    for d, n in zip(digits, dims):
        idx = idx * n + d
    return idx


def op_on_slots(M, slots, dims):
    """Embed an operator on the chosen tensor slots, identity elsewhere.

    ``M`` acts on the product of ``dims[s] for s in slots`` with the slots in
    the order given; repeated slots are rejected.
    """
    slots = tuple(slots)
    if len(set(slots)) != len(slots):
        raise ValueError("repeated tensor slots")
    sub_dims = [dims[s] for s in slots]
    sub_n = 1
    for d in sub_dims:
        sub_n *= d
    if len(M) != sub_n:
        raise ValueError("operator size does not match the chosen slots")
    rest = [i for i in range(len(dims)) if i not in slots]
    rest_dims = [dims[i] for i in rest]
    rest_n = 1
    for d in rest_dims:
        rest_n *= d
    N = sub_n * rest_n
    out = [[0] * N for _ in range(N)]
    for sr in range(sub_n):
        row_sub = _digits(sr, sub_dims)
        for sc in range(sub_n):
            entry = M[sr][sc]
            if not entry:
                continue
            col_sub = _digits(sc, sub_dims)
            for rest_idx in range(rest_n):
                rd = _digits(rest_idx, rest_dims)
                row_digits = [0] * len(dims)
                col_digits = [0] * len(dims)
                for t, s in enumerate(slots):
                    row_digits[s] = row_sub[t]
                    col_digits[s] = col_sub[t]
                for t, r in enumerate(rest):
                    row_digits[r] = rd[t]
                    col_digits[r] = rd[t]
                out[_index(row_digits, dims)][_index(col_digits, dims)] = entry
    return out


def partial_trace(M, slot: int, dims):
    """Trace out one tensor slot of an exact matrix."""
    n = len(dims)
    keep = [i for i in range(n) if i != slot]
    keep_dims = [dims[i] for i in keep]
    kn = 1
    for d in keep_dims:
        kn *= d
    out = [[0] * kn for _ in range(kn)]
    for r in range(kn):
        rk = _digits(r, keep_dims)
        for c in range(kn):
            ck = _digits(c, keep_dims)
            acc = None
            for s in range(dims[slot]):
                row_digits = [0] * n
                col_digits = [0] * n
                for t, i in enumerate(keep):
                    row_digits[i] = rk[t]
                    col_digits[i] = ck[t]
                row_digits[slot] = s
                col_digits[slot] = s
                e = M[_index(row_digits, dims)][_index(col_digits, dims)]
                if not e:
                    continue
                acc = e if acc is None else acc + e
            out[r][c] = 0 if acc is None else acc
    return out


# exact elimination


def rref(rows):
    """Reduced row echelon form over a field; returns (rows, pivot columns)."""
    R = [list(r) for r in rows]
    nrows = len(R)
    ncols = len(R[0]) if R else 0
    pivots = []
    r = 0
    for col in range(ncols):
        pivot = None
        for i in range(r, nrows):
            if R[i][col]:
                pivot = i
                break
        if pivot is None:
            continue
        R[r], R[pivot] = R[pivot], R[r]
        p = R[r][col]
        R[r] = [x / p for x in R[r]]
        for i in range(nrows):
            if i != r and R[i][col]:
                f = R[i][col]
                R[i] = [a - f * b for a, b in zip(R[i], R[r])]
        pivots.append(col)
        r += 1
        if r == nrows:
            break
    return R, pivots


def solve_unique(A, b):
    """Solve A x = b insisting on exactly one solution."""
    aug = [list(r) + [v] for r, v in zip(A, b)]
    R, pivots = rref(aug)
    ncols = len(A[0])
    if ncols in pivots:
        raise ValueError("inconsistent linear system")
    if len(pivots) != ncols:
        raise ValueError("underdetermined linear system")
    x = [0] * ncols
    for r, pc in enumerate(pivots):
        x[pc] = R[r][ncols]
    return x


# numeric counterparts


def np_apply_conserving(M: np.ndarray, F: np.ndarray, slots, dims) -> np.ndarray:
    """``M`` times ``F`` on ``slots`` (identity elsewhere), in place; returns ``M``.

    ``F`` must conserve the spin sum of its two size-2 slots and ``M`` must be
    C-contiguous; otherwise ValueError is raised before ``M`` changes."""
    if F.shape != (4, 4) or any(dims[s] != 2 for s in slots):
        raise ValueError("a conserving factor is 4x4 on two slots of size 2")
    off = F.copy()  # the entries that would move spin between the slots
    off[0, 0] = off[3, 3] = off[1:3, 1:3] = 0
    if np.count_nonzero(off) or not M.flags.c_contiguous:
        raise ValueError("needs a spin-conserving F and a C-contiguous M")
    axes = [1 + s for s in slots]
    T = M.reshape([M.shape[0]] + list(dims))  # a view of M
    V = T.transpose(axes + [k for k in range(T.ndim) if k not in axes])
    X01, X10 = V[0, 1], V[1, 0]  # V[a, s] is the quarter with slot values a, s
    t01, t10 = X10 * F[2, 1], X01 * F[1, 2]
    X01 *= F[1, 1]
    X01 += t01
    X10 *= F[2, 2]
    X10 += t10
    for i in (0, 1):
        if F[3 * i, 3 * i] != 1:
            np.multiply(V[i, i], F[3 * i, 3 * i], out=V[i, i])
    return M


def np_partial_trace(M: np.ndarray, slot: int, dims) -> np.ndarray:
    n = len(dims)
    T = np.asarray(M, dtype=complex).reshape(list(dims) * 2)
    T = np.trace(T, axis1=slot, axis2=n + slot)
    keep = [d for i, d in enumerate(dims) if i != slot]
    N = 1
    for d in keep:
        N *= d
    return T.reshape(N, N)


def np_residual(A: np.ndarray, B: np.ndarray) -> float:
    A = np.asarray(A, dtype=complex)
    B = np.asarray(B, dtype=complex)
    scale = max(1.0, float(np.max(np.abs(A))), float(np.max(np.abs(B))))
    return float(np.max(np.abs(A - B))) / scale

