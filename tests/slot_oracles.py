"""Dense numeric slot embeddings, kept as test oracles.

``np_apply_on_slots`` and ``np_op_on_slots`` embed a factor on chosen tensor
slots with one general ``tensordot``.  The package's spin-block kernel
``np_spin_apply`` and its corner-built transfer ``np_spin_transfer`` are
checked against them.
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
