"""Matrices over exact rings and their numeric complex128 counterparts.

Exact matrices are plain lists of rows whose entries are MPoly, RatFun,
Fraction, or int; the helpers only assume ring arithmetic with coercion and
canonicalize no further than the entry type itself does.  ``mat_mul`` of two
matrices whose nonzero entries are all MPoly runs ``MPoly.matrix_product``:
each entry's packed integer terms are rekeyed once to the union of all
supports, and only the (i, t, j) with A[i][t] and B[t][j] both nonzero are
visited, with one int multiply-add per pair of their terms.  Other entry
types take the generic loop over all n*k*m index triples with one ring
product and sum per nonzero pair.  ``apply_on_slots`` multiplies the identity
on n slots of size 2 by a stream of spin-conserving 4x4 factors, each on
two slots.  Each row starts as its unit vector and keeps only its nonzero
entries, which every factor sends through its middle block or scales by a
corner, so no 2^n-square embedding is formed.  The whole stream runs on
packed ints (``poly._slot_product``), each entry canonicalized once.
``spin_transfer``, the exact twin of ``np_spin_transfer`` below, builds a
transfer from its corners, so both rings build transfers alike.  Exact
``commute`` calls ``mat_mul`` once: the other order is that product with
z and w exchanged (``MPoly.exchange``).

Numeric matrices are numpy arrays.  A spin-conserving matrix on n slots of
size 2 is kept as its spin blocks, one per popcount k, of size C(n, k):
their entries are C(2n, n) in all instead of 4^n.  ``np_spin_apply``, the
twin of ``apply_on_slots`` on spin blocks, multiplies them by such a factor
in place; in each block it gathers the rows whose two slots read 01 and
their 10 partners, mixes them with the factor's middle 2x2, and scatters
them back.
``np_spin_transfer`` builds the weighted auxiliary trace of a one-line
monodromy from its corners, adding one leading site at a time with a
contiguous slice per entry: about (4/3) C(2L, L) entries for L sites,
against L passes over C(2L+2, L+1) for streaming factors through blocks.
``np_spin_trace_first`` takes the weighted trace over slot 0 block by block
and ``np_spin_dense`` spreads blocks into a dense matrix.
"""

from __future__ import annotations

from functools import lru_cache
from math import comb

import numpy as np

from .poly import MPoly, _slot_product

__all__ = [
    "mat_mul",
    "mat_add",
    "mat_scale",
    "mat_eq",
    "identity",
    "kron",
    "apply_on_slots",
    "spin_transfer",
    "rref",
    "solve_unique",
    "np_residual",
    "np_spin_apply",
    "np_spin_dense",
    "np_spin_identity",
    "np_spin_index",
    "np_spin_trace_first",
    "np_spin_transfer",
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


# the entries of a 4x4 factor on two slots that move spin between them
_SPIN_MOVES = ~np.array(
    [[1, 0, 0, 0], [0, 1, 1, 0], [0, 1, 1, 0], [0, 0, 0, 1]], dtype=bool
)
_MOVES = np.argwhere(_SPIN_MOVES).tolist()  # as (row, column) pairs


def apply_on_slots(n: int, steps):
    """The identity on ``n`` slots of size 2 times each ``(F, slots)`` of
    ``steps`` in turn, ``F`` acting on its two slots (identity elsewhere).

    Slot 0 is the leading bit of a row or column index; each ``F`` is 4x4,
    indexed by the values of its slots in the order given.  Entries are
    MPoly, Fraction or int; the nonzero entries of the result are MPoly and
    the others int 0.  Every ``F`` must conserve the spin sum of its slots,
    on distinct slots in range, and the exponents must stay in bounds;
    otherwise ValueError is raised before any row is built.
    """
    steps = list(steps)
    _check_steps(n, steps)
    return _slot_product(n, steps)


def _check_steps(n: int, steps) -> None:
    """ValueError unless each ``(F, (s0, s1))`` is a spin-conserving 4x4
    ``F`` on two distinct slots of ``n``."""
    for F, (s0, s1) in steps:
        square = len(F) == 4 and all(len(row) == 4 for row in F)
        if not square or s0 == s1 or not (0 <= s0 < n and 0 <= s1 < n):
            raise ValueError("a conserving factor is 4x4 on two distinct slots")
        if any(F[i][j] for i, j in _MOVES):
            raise ValueError("needs a spin-conserving F")


def spin_transfer(factors, w0, w1):
    """w0 * A + w1 * D for the monodromy factors[L-1] ... factors[0], laid
    out as in ``np_spin_transfer`` but as one 2^L-square matrix.

    The monodromy rows of aux bit a grow from ``w_a e_a``, each a dict from
    column (aux bit, then the sites so far) to entry.  Each site, from L-1
    down to 0, is the new leading bit s of a row and t of a column: aux b
    goes to b2 by F[2b + s][2b2 + t] where b2 + t = b + s, so every new
    entry is one product.  The last site keeps the columns of the row's
    aux bit, and the two aux rows add up.  Entries and weights are MPoly,
    Fraction or int; every result entry is an MPoly, zero included.  A
    factor that is not 4x4 or moves spin, or no factor, raises ValueError
    before any product.
    """
    factors = list(factors)
    if not factors:
        raise ValueError("needs at least one site factor")
    _check_steps(2, [(F, (0, 1)) for F in factors])
    rows = [{a: MPoly.zero() + w} if w else {} for a, w in enumerate((w0, w1))]
    for n, F in enumerate(reversed(factors)):
        last, low = n == len(factors) - 1, (1 << n) - 1
        new = [{} for _ in range(2 << n if last else 4 << n)]
        for r, row in enumerate(rows):
            a, i = r >> n, r & low
            for s in (0, 1):
                dst = new[s << n | i if last else a << n + 1 | s << n | i]
                for c, x in row.items():
                    b, j = c >> n, c & low
                    for b2 in (0, 1) if not last else (a,):
                        t = b + s - b2
                        f = F[2 * b + s][2 * b2 + t] if 0 <= t <= 1 else 0
                        if f:
                            key = (t if last else 2 * b2 + t) << n | j
                            dst[key] = dst[key] + x * f if key in dst else x * f
        rows = new
    return [[row.get(c, MPoly.zero()) for c in range(len(rows))] for row in rows]


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
#
# A matrix on n slots of size 2 that conserves the total spin is block
# diagonal by popcount.  Its spin blocks are a list of n + 1 arrays: block k
# holds the rows and columns of the C(n, k) states of popcount k in increasing
# index order (slot 0 is the leading bit) and is stored transposed, so a
# factor acting from the right updates whole rows of it.


@lru_cache(maxsize=None)
def _spin_layout(n: int) -> tuple:
    """Popcount and position in its block of every state on ``n`` slots, and
    the states of each block, ascending."""
    states = np.arange(1 << n)
    pc = np.zeros_like(states)
    for b in range(n):
        pc += (states >> b) & 1
    order = np.argsort(pc, kind="stable")
    sizes = np.bincount(pc, minlength=n + 1)
    pos = np.empty_like(pc)
    pos[order] = states - np.repeat(np.cumsum(sizes) - sizes, sizes)
    return pc, pos, tuple(np.split(order, np.cumsum(sizes)[:-1]))


@lru_cache(maxsize=None)
def _spin_pair_rows(n: int, s0: int, s1: int) -> tuple:
    """Per block: its rows ordered by the values of slots (s0, s1) as
    01 | 10 | 00 | 11, the 01 count and the 00 count.

    A 01 state and its 10 partner differ by a fixed offset, so each group in
    ascending order lines the partners up row by row."""
    pc, pos, _ = _spin_layout(n)
    states = np.arange(1 << n)
    a, b = (states >> (n - 1 - s0)) & 1, (states >> (n - 1 - s1)) & 1
    kind = np.where(a != b, a, 2 + a)
    rows = pos[np.lexsort((kind, pc))]
    counts = np.bincount(4 * pc + kind, minlength=4 * n + 4).reshape(n + 1, 4)
    ends = np.cumsum(counts.sum(axis=1)).tolist()
    return tuple(
        (rows[end - sum(c) : end], c[0], c[2]) for end, c in zip(ends, counts.tolist())
    )


def np_spin_identity(n: int) -> list:
    """Spin blocks of the identity on ``n`` slots."""
    return [np.eye(len(states), dtype=complex) for states in _spin_layout(n)[2]]


def np_spin_index(n: int, state: int) -> tuple:
    """(block, position in the block) of a basis state on ``n`` slots."""
    pc, pos, _ = _spin_layout(n)
    return int(pc[state]), int(pos[state])


@lru_cache(maxsize=None)
def _spin_entries(n: int) -> np.ndarray:
    """Flat indices into the dense 2^n-square matrix of the raveled blocks."""
    N = 1 << n
    return np.concatenate([(s * N + s[:, None]).ravel() for s in _spin_layout(n)[2]])


def np_spin_dense(blocks) -> np.ndarray:
    """The dense matrix of a list of spin blocks."""
    n = len(blocks) - 1
    out = np.zeros((1 << n, 1 << n), dtype=complex)
    np.put(out, _spin_entries(n), np.concatenate([B.ravel() for B in blocks]))
    return out


def np_spin_trace_first(blocks, w0, w1) -> list:
    """Spin blocks of the trace over slot 0 weighted by diag(w0, w1).

    Slot 0 is the leading bit, so block k lists its C(n-1, k) states with
    slot 0 empty first: block m of the result is w0 times the first corner
    of block m plus w1 times the last corner of block m + 1."""
    out = []
    for m in range(len(blocks) - 1):
        c = comb(len(blocks) - 2, m)
        out.append(w0 * blocks[m][:c, :c] + w1 * blocks[m + 1][-c:, -c:])
    return out


def np_spin_apply(blocks, F: np.ndarray, slots):
    """Spin blocks of ``M`` times ``F`` on two ``slots`` (identity elsewhere),
    in place; returns ``blocks``.

    ``F`` is 4x4 and must conserve the spin sum of its slots; otherwise
    ValueError is raised before any block changes."""
    n = len(blocks) - 1
    s0, s1 = slots
    if F.shape != (4, 4) or s0 == s1 or not (0 <= s0 < n and 0 <= s1 < n):
        raise ValueError("a conserving factor is 4x4 on two distinct slots")
    if F[_SPIN_MOVES].any():
        raise ValueError("needs a spin-conserving F")
    # the 01 and 10 halves of a gather: each times its own diagonal entry
    # of F's middle block (F11, F22) plus the other half times F21, F12
    diag, cross = F.take([5, 10, 9, 6]).reshape(2, 2, 1, 1)
    f00, f33 = F[0, 0], F[3, 3]
    for B, (rows, h, c00) in zip(blocks, _spin_pair_rows(n, s0, s1)):
        if h:
            pair = rows[: 2 * h]
            g = B.take(pair, axis=0).reshape(2, h, -1)  # 01 rows, then 10 partners
            t = g[::-1] * cross
            g *= diag
            g += t
            B[pair] = g.reshape(2 * h, -1)
        if f00 != 1 and c00:
            B[rows[2 * h : 2 * h + c00]] *= f00
        if f33 != 1 and len(rows) > 2 * h + c00:
            B[rows[2 * h + c00 :]] *= f33
    return blocks


_DENSE_SITES = 6  # sites built as dense slabs: fewer numpy calls than blocks (BENCH_18.json)


def _slab_step(O, Op, cut: int, mid: int, r) -> np.ndarray:
    """A row slab [Pa0 | Pa1] times the factor ``r`` on (aux, new site), the
    new site leading: its rows are those of ``O`` (new site empty) over
    those of ``Op`` (new site full), and its columns are

        [[r00 O[:, :cut], r21 O[:, cut:], r22 O[:, cut:], 0              ],
         [0,              r11 Op[:, :mid], r12 Op[:, :mid], r33 Op[:, mid:]]]

    where ``O`` has columns [cut | mid], ``Op`` has [mid | right] and ``r``
    lists (r00, r21, r22, r11, r12, r33).  A leading axis, if any, stacks
    slabs of one shape."""
    top, bottom = O.shape[-2], Op.shape[-2]
    right = Op.shape[-1] - mid
    X = np.empty(O.shape[:-2] + (top + bottom, cut + 2 * mid + right), dtype=complex)
    if top:
        np.multiply(O[..., :cut], r[0], out=X[..., :top, :cut])
        np.multiply(O[..., cut:], r[1], out=X[..., :top, cut : cut + mid])
        np.multiply(O[..., cut:], r[2], out=X[..., :top, cut + mid : cut + 2 * mid])
        X[..., :top, cut + 2 * mid :] = 0
    if bottom:
        X[..., top:, :cut] = 0
        np.multiply(Op[..., :mid], r[3], out=X[..., top:, cut : cut + mid])
        np.multiply(Op[..., :mid], r[4], out=X[..., top:, cut + mid : cut + 2 * mid])
        np.multiply(Op[..., mid:], r[5], out=X[..., top:, cut + 2 * mid :])
    return X


@lru_cache(maxsize=None)
def _slab_index(n: int) -> tuple:
    """Index pairs that cut a dense slab on n sites into spin blocks, per aux
    row a and total spin N = 0..n+1; and, with n sites as a whole transfer,
    those of its sectors."""
    states = _spin_layout(n)[2]
    nil = states[0][:0]

    def st(k):
        return states[k] if 0 <= k <= n else nil

    slabs = tuple(
        tuple(
            np.ix_(st(N - a), np.concatenate([st(N), (1 << n) + st(N - 1)]))
            for N in range(n + 2)
        )
        for a in (0, 1)
    )
    return slabs, tuple(np.ix_(s, s) for s in states)


def _binomials(n: int) -> list:
    """C(n, k) for k = -1..n+2, at list position k + 1."""
    return [comb(n, k) if k >= 0 else 0 for k in range(-1, n + 3)]


def np_spin_transfer(factors, w0, w1) -> list:
    """Sectors of w0 * A + w1 * D, the weighted trace over the auxiliary
    slot of the monodromy factors[L-1] ... factors[0].

    ``factors[l]`` is the 4x4 factor on (aux, site l), aux the leading bit
    of its index; site 0 is the leading site bit.  Factors multiply from
    the right and mix only columns, so each aux row of the monodromy, the
    row slab [A | B] or [C | D] of its corners, grows on its own from the
    row w0 e_0 or w1 e_1.  Sites are added from L-1 down to 0, each as the
    new leading bit, so a new slab is a 2x2 arrangement of pieces of the
    old one, each one product written into a contiguous slice
    (``_slab_step``).  Up to ``_DENSE_SITES`` sites the slabs are dense;
    a longer chain then cuts them into spin blocks by total spin N (rows
    of site popcount N - a, columns of aux b and site popcount N - b), and
    block N of a new slab is built from the old blocks N and N - 1: about
    (4/3) C(2L, L) entries in all, no gather or scatter per factor.  The
    last site writes sector m, the transfer on the site states of
    popcount m, directly.  The sectors are listed by m = 0..L in natural
    orientation, C-contiguous.  A factor that moves spin raises ValueError
    before any block is built.
    """
    factors = [np.asarray(F) for F in factors]
    for F in factors:
        if F.shape != (4, 4) or F[_SPIN_MOVES].any():
            raise ValueError("needs spin-conserving 4x4 factors")
    coeffs = [F.take([0, 9, 10, 5, 6, 15]).tolist() for F in factors]
    L = len(factors)
    k = min(L, _DENSE_SITES)
    slabs = np.array([[[w0, 0]], [[0, w1]]], dtype=complex)  # both aux rows
    for n in range(k):
        slabs = _slab_step(slabs, slabs, 1 << n, 1 << n, coeffs[L - 1 - n])
    if k == L:
        T = slabs[0, :, : 1 << L] + slabs[1, :, 1 << L :]
        return [T[idx] for idx in _slab_index(L)[1]]
    # block N of each slab at list position N + 1, between two empty blocks;
    # an old block is dropped as soon as no new block needs it
    nil = np.empty((0, 0), dtype=complex)
    rows = [
        [nil, *(S[idx] for idx in index), nil]
        for S, index in zip(slabs, _slab_index(k)[0])
    ]
    for n in range(k, L - 1):
        c, r = _binomials(n), coeffs[L - 1 - n]
        for a, B in enumerate(rows):
            new = [nil]
            for N in range(n + 3):
                new.append(_slab_step(B[N + 1], B[N], c[N + 1], c[N], r))
                B[N] = None
            rows[a] = new + [nil]
    r00, r21, r22, r11, r12, r33 = coeffs[0]
    c = _binomials(L - 1)
    S0, S1 = rows  # [A | B] and [C | D]
    out = []
    for m in range(L + 1):
        top, bottom = c[m + 1], c[m]
        T = np.empty((top + bottom, top + bottom), dtype=complex)
        if top:
            np.multiply(S0[m + 1][:, :top], r00, out=T[:top, :top])
            T[:top, :top] += r22 * S1[m + 2][:, c[m + 2] :]
            np.multiply(S0[m + 1][:, top:], r21, out=T[:top, top:])
        if bottom:
            np.multiply(S1[m + 1][:, :top], r12, out=T[top:, :top])
            np.multiply(S0[m][:, :bottom], r11, out=T[top:, top:])
            T[top:, top:] += r33 * S1[m + 1][:, top:]
        S0[m] = S1[m + 1] = None
        out.append(T)
    return out


def np_residual(A, B) -> float:
    """Largest entry of |A - B| over max(1, largest |A| or |B| entry).

    ``A`` and ``B`` are arrays or matching lists of spin blocks; blocks are
    compared one at a time, never joined into one array."""
    if not isinstance(A, list):
        A, B = [np.asarray(A, dtype=complex)], [np.asarray(B, dtype=complex)]
    scale, diff = 1.0, 0.0
    for X, Y in zip(A, B):
        scale = max(scale, float(np.max(np.abs(X))), float(np.max(np.abs(Y))))
        diff = max(diff, float(np.max(np.abs(X - Y))))
    return diff / scale
