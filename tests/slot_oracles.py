"""Dense slot embeddings, kept as test oracles.

``op_on_slots`` embeds an exact operator on chosen tensor slots entry by
entry; ``np_apply_on_slots`` and ``np_op_on_slots`` do it numerically with
one general ``tensordot``.  The package's slot kernels, ``apply_on_slots``
(a stream of factors from the identity) and ``np_spin_apply`` (one factor
in place), and its corner-built transfer ``np_spin_transfer`` are checked
against them.
"""

import numpy as np


def np_apply_on_slots(M: np.ndarray, F: np.ndarray, slots, dims) -> np.ndarray:
    """``M @ np_op_on_slots(F, slots, dims)`` without building the embedding.

    One ``tensordot`` contracts the rows of ``F`` with the slot axes of the
    columns of ``M``: O(R*N*k) for R rows, N columns and a factor of size k.
    """
    M = np.asarray(M, dtype=complex)
    sub_dims = [dims[s] for s in slots]
    F = np.asarray(F, dtype=complex).reshape(sub_dims + sub_dims)
    axes = [1 + s for s in slots]
    k = len(axes)
    T = M.reshape([M.shape[0]] + list(dims))
    out = np.tensordot(T, F, axes=(axes, list(range(k))))
    return np.moveaxis(out, list(range(out.ndim - k, out.ndim)), axes).reshape(M.shape)


def np_op_on_slots(M: np.ndarray, slots, dims) -> np.ndarray:
    """Dense embedding of ``M`` on the chosen slots, identity elsewhere."""
    N = int(np.prod(dims))
    return np_apply_on_slots(np.eye(N, dtype=complex), M, slots, dims)


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
    """Embed an exact operator on the chosen tensor slots, identity elsewhere.

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
