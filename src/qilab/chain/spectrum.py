"""Numeric transfer-matrix spectra and Baxter's TQ relation in coefficient space.

The transfer matrices at different arguments commute, so one seeded base
point fixes a joint eigenbasis V per magnon sector, and every eigenvalue
branch is read at any z as diag(V^-1 T(z) V) (``Spectrum.eigenvalues``).
With D(z) = prod(zeta - q^-2), zeta = z * rho_l, each branch's numerator
N = Lambda * D is a polynomial of degree <= L.  ``compute_spectrum``
interpolates it from L+1 points on the unit circle (one FFT per sector);
the known base-point eigenvalue checks the interpolation, and that error
is the branch's ``fit_residual``.

Baxter's relation Lambda(z) Q(z) = t1 Q(zq^-2) + t2(z) Q(zq^2), with
t1 = u q^m and t2 = u^-1 q^-m d(z), cleared by D, is the coefficient
identity N Q = u q^m D Q(.q^-2) + u^-1 q^(-m-L) P Q(.q^2), P = prod(zeta - 1):
an (L+m+1) x (m+1) linear system on the coefficients of Q.
``solve_sector`` solves it for every branch of a sector by one stacked
SVD, with no sample point and no pole.  ``functional_residual`` checks each
Q against the transfer matrix itself at fresh points, and the root-level
residuals close the loop.  ``vacuum`` gives D, P and the vacuum ratio d in
one loop.

The magnon sector is the unit of data: ``Spectrum.sectors[m]`` holds the
rows of sector m's branches, and every stage takes and returns one stack
of rows per sector.  Branches are numbered across sectors, sector 0 first,
so the branch at position p of sector m is number ``first + p``.  The root
stages ``poly_roots`` (one stacked companion eigensolve and polish),
``root_residuals`` and ``solve_roots_newton`` (one stacked linear solve per
Newton step) each run once per sector.  Each row still stops on its own
rules, so every branch reports its own roots, root residuals, Newton
iteration count and smallest singular value.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..verdict import CheckResult
from .model import ChainSpec, off_poles, sample_point, transfer_sectors

__all__ = [
    "Sector",
    "Spectrum",
    "SpectrumBreakdown",
    "breakdown_result",
    "compute_spectrum",
    "validate_sector",
    "poly_eval",
    "poly_roots",
    "vacuum",
    "solve_sector",
    "functional_residual",
    "root_residuals",
    "solve_roots_newton",
    "check_tq",
    "check_bethe",
]


@dataclass(frozen=True)
class Sector:
    """The branches of magnon sector m as rows, numbered from ``first``:
    base-point eigenvalues, numerator coefficients (k x (L+1), constant
    first), fit residuals, and the joint eigenbasis V with its inverse."""

    m: int
    first: int
    lam0: np.ndarray
    ncoeffs: np.ndarray
    fit_residual: np.ndarray
    V: np.ndarray
    Vinv: np.ndarray


class SpectrumBreakdown(RuntimeError):
    """The joint eigenbasis or the interpolation broke down: a defect of the
    transfer matrices, reported as a failed verdict, not as bad input."""


def breakdown_result(name: str, spec: ChainSpec, error: SpectrumBreakdown, **extra):
    """The failed verdict of a check whose spectrum broke down."""
    details = {"L": spec.L, "error": str(error), **extra}
    return CheckResult(name=name, ok=False, details=details)


@dataclass(frozen=True)
class Spectrum:
    """Every sector of one chain, m = 0..L, and the coefficients (D, P),
    constant first, of the vacuum polynomials."""

    spec: ChainSpec
    sectors: tuple
    vacuum_coeffs: tuple

    def __len__(self) -> int:
        return sum(len(s.lam0) for s in self.sectors)

    def eigenvalues(self, z: complex, sectors) -> list:
        """Lambda(z) of every branch of each sector in ``sectors``, one array
        per sector, as diag(V^-1 T(z) V) from one transfer build."""
        blocks = transfer_sectors(self.spec, z)
        return [
            np.einsum("ij,ji->i", s.Vinv @ blocks[s.m], s.V)
            for s in (self.sectors[m] for m in sectors)
        ]


def vacuum(spec: ChainSpec, z: complex):
    """(D, P, d) at z on the all-up state, with zeta = z * rho_l:
    D = prod(zeta - q^-2), P = prod(zeta - 1) and d(z) / a(z) =
    prod((zeta - 1) / (q (zeta - q^-2))), a product of R[1][1] per site."""
    q = spec.q_complex()
    qinv2 = q**-2
    D = P = d = 1.0 + 0j
    for rho in spec.site_ratios_complex():
        zeta = z * rho
        den, num = zeta - qinv2, zeta - 1
        D *= den
        P *= num
        d *= num / (q * den)
    return D, P, d


def _weights(spec: ChainSpec, m: int, z: complex):
    """t1 = u q^m and t2 = u^-1 q^-m d(z), the weights of Q(zq^-2) and
    Q(zq^2) in the relation of sector m."""
    q = spec.q_complex()
    u = spec.twist_complex()
    return u * q**m, (1 / u) * q ** (-m) * vacuum(spec, z)[2]


def _circle(spec: ChainSpec, rng) -> np.ndarray:
    """The (L+1)-th roots of unity turned by a seeded phase, clear of poles."""
    n = spec.L + 1
    roots = np.exp(2j * np.pi * np.arange(n) / n)
    for _ in range(1000):
        pts = np.exp(2j * np.pi * rng.random()) * roots
        if all(off_poles(spec, complex(z)) for z in pts):
            return pts
    raise RuntimeError("could not place the interpolation points away from the poles")


def _coefficients(values: np.ndarray, pts: np.ndarray) -> np.ndarray:
    """Coefficients (constant first, last axis) of the polynomials of degree
    < n taking ``values`` at the n points ``pts`` = c * (n-th roots of unity)."""
    n = len(pts)
    return np.fft.fft(values, axis=-1) / (n * pts[0] ** np.arange(n))


def compute_spectrum(spec: ChainSpec, seed: int = 0) -> Spectrum:
    """Diagonalize once, read every branch on a circle, interpolate N.

    The base point is diagonalized first.  Then one transfer at a time, at
    each of the L+1 circle points, fills its column of every sector's
    eigenvalue table and is dropped.  A sector's failures are raised lowest
    sector first and, within a sector, in stage order: degenerate base point
    (RuntimeError, a genericity condition), then joint eigenbasis and base-
    point interpolation (SpectrumBreakdown).
    """
    rng = np.random.default_rng(seed)
    z0 = sample_point(spec, rng)
    pts = _circle(spec, rng)
    errors = {}
    bases = []
    for m, B0 in enumerate(transfer_sectors(spec, z0)):
        w0, V = np.linalg.eig(B0)
        scale = max(1.0, float(np.max(np.abs(w0))))
        gaps = np.abs(w0[:, None] - w0)
        np.fill_diagonal(gaps, np.inf)
        if np.min(gaps) < 1e-8 * scale:
            errors[m] = RuntimeError(
                f"degenerate base-point spectrum in sector {m}; "
                "pick more generic parameters or another seed"
            )
            bases.append(None)
            continue
        order = sorted(
            range(len(w0)), key=lambda i: (round(w0[i].real, 9), round(w0[i].imag, 9))
        )
        w0, V = w0[order], V[:, order]
        table = np.empty((len(w0), len(pts)), dtype=complex)
        bases.append((w0, V, np.linalg.inv(V), table))
    for s, z in enumerate(pts):
        for m, Bz in enumerate(transfer_sectors(spec, complex(z))):
            if m in errors:
                continue
            _, V, Vinv, table = bases[m]
            Ds = Vinv @ Bz @ V
            off = Ds - np.diag(np.diag(Ds))
            if np.max(np.abs(off)) > 1e-8 * max(1.0, np.max(np.abs(Ds))):
                errors[m] = SpectrumBreakdown(
                    f"joint eigenbasis failed in sector {m}; "
                    "transfer matrices did not stay diagonal"
                )
                continue
            table[:, s] = np.diag(Ds)
    vac = np.array([vacuum(spec, complex(z))[:2] for z in pts]).T
    D0 = vacuum(spec, z0)[0]
    sectors = []
    first = 0
    for m, base in enumerate(bases):
        if m in errors:
            raise errors[m]
        w0, V, Vinv, table = base
        values = table * vac[0]
        ncoeffs = _coefficients(values, pts)
        scale = np.maximum(np.max(np.abs(values), axis=1), np.abs(w0 * D0))
        resid = np.abs(poly_eval(ncoeffs.T, z0) - w0 * D0) / np.maximum(1.0, scale)
        if np.max(resid) > 1e-8:
            raise SpectrumBreakdown(
                f"rational fit failed in sector {m} (base-point interpolation "
                f"error {np.max(resid):.2e})"
            )
        sectors.append(Sector(m, first, w0, ncoeffs, resid, V, Vinv))
        first += len(w0)
    return Spectrum(spec, tuple(sectors), tuple(_coefficients(vac, pts)))


def validate_sector(spec: ChainSpec, sector: int | None) -> None:
    """Reject a magnon number outside 0..L (None means every sector)."""
    if sector is not None and not 0 <= sector <= spec.L:
        raise ValueError("sector must lie between 0 and L")


def solve_sector(spectrum: Spectrum, m: int):
    """(Q, errors) for sector m by one stacked SVD: Q is the (k, m+1) stack
    of monic Q of degree m (constant first), one row per branch, and
    ``errors`` maps the position of each branch without one to its message.

    Row r of the system is the z^r coefficient of N Q - c1 D Q(.q^-2) -
    c2 P Q(.q^2); it is scaled by the largest of its pieces, so one large
    row does not hide the others, and the null space must then be exactly
    one-dimensional at level 1e-8.
    """
    spec = spectrum.spec
    L = spec.L
    q = spec.q_complex()
    u = spec.twist_complex()
    D, P = spectrum.vacuum_coeffs
    ncoeffs = spectrum.sectors[m].ncoeffs
    k = len(ncoeffs)
    pieces = np.zeros((3, k, L + m + 1, m + 1), dtype=complex)
    for j in range(m + 1):
        pieces[0, :, j : j + L + 1, j] = ncoeffs
        pieces[1, :, j : j + L + 1, j] = u * q**m * q ** (-2 * j) * D
        pieces[2, :, j : j + L + 1, j] = (1 / u) * q ** (-m - L) * q ** (2 * j) * P
    scale = np.max(np.abs(pieces), axis=(0, 3))
    A = (pieces[0] - pieces[1] - pieces[2]) / np.where(scale > 0, scale, 1.0)[..., None]
    _, s, vh = np.linalg.svd(A)
    Q = np.conj(vh[:, -1])
    lead = Q[:, -1]
    errors = {}
    for i in range(k):
        if m >= 1 and s[i, m - 1] <= 1e-8:
            errors[i] = "coefficient null space is not one-dimensional"
        elif s[i, m] > 1e-8:
            errors[i] = (
                f"no polynomial solution at degree {m} (smallest scaled "
                f"singular value {s[i, m]:.2e})"
            )
        elif abs(lead[i]) < 1e-6 * float(np.max(np.abs(Q[i]))):
            errors[i] = "polynomial solution has unexpected lower degree"
    # a row whose leading coefficient is exactly zero already carries the
    # lower-degree error and is never read, so it is left undivided
    return Q / np.where(lead == 0, 1, lead)[:, None], errors


def poly_eval(coeffs, z: complex) -> complex:
    """Horner value at ``z`` of a coefficient sequence, constant first; an
    array with coefficients along axis 0 gives the values of its columns,
    broadcast against ``z``."""
    out = 0j
    for c in reversed(coeffs):
        out = out * z + c
    return out


_POLISH_STEPS = 8  # Newton steps on each root of ``poly_roots``


def poly_roots(Q) -> np.ndarray:
    """Roots of each row of a (k, m+1) stack of coefficient rows (constant
    first; one row is a stack of one), as a (k, m) array.

    As in ``np.roots``, each companion matrix holds its row divided by the
    leading coefficient, and one stacked ``eigvals`` solves all k.  Every
    root is then polished by up to ``_POLISH_STEPS`` Newton steps on its
    polynomial; a root stops when |Q'| falls below 1e-14 or when its step
    falls below 1e-14 relative to max(1, |root|).
    """
    Q = np.atleast_2d(np.asarray(Q, dtype=complex))
    k, m = Q.shape[0], Q.shape[1] - 1
    companion = np.zeros((k, m, m), dtype=complex)
    companion[:, :1] = -Q[:, None, m - 1 :: -1][..., :m] / Q[:, None, m:]
    below = np.arange(1, m)
    companion[:, below, below - 1] = 1
    W = np.linalg.eigvals(companion)
    Qs, dQs = Q.T[..., None], (Q[:, 1:] * np.arange(1, m + 1)).T[..., None]
    live = np.ones(W.shape, dtype=bool)
    for _ in range(_POLISH_STEPS):
        f, df = poly_eval(Qs, W), poly_eval(dQs, W)
        live &= np.abs(df) >= 1e-14
        step = np.where(live, f / np.where(live, df, 1), 0)
        W = W - step
        live &= np.abs(step) >= 1e-14 * np.maximum(1.0, np.abs(W))
        if not live.any():
            break
    return W


def functional_residual(
    spectrum: Spectrum,
    solved: dict,
    points: int = 20,
    seed: int = 2,
    perturb: bool = False,
) -> dict:
    """Relative residual of Baxter's relation on fresh seeded samples, per
    sector m of ``solved`` {m: (positions, Q)}: the worst residual of each
    row of Q, the polynomial of the branch at the same place in positions.

    At each sample one transfer build serves every sector: Lambda is read
    from the transfer matrix as diag(V^-1 T V), not from the interpolant.
    ``perturb`` doubles t2.
    """
    spec = spectrum.spec
    q = spec.q_complex()
    worst = {m: np.zeros(len(pos)) for m, (pos, _) in solved.items()}
    rng = np.random.default_rng(seed)
    for _ in range(points if solved else 0):
        z = sample_point(spec, rng)
        for (m, (pos, Q)), lam in zip(solved.items(), spectrum.eigenvalues(z, solved)):
            t1, t2 = _weights(spec, m, z)
            if perturb:
                t2 = 2 * t2
            lhs = lam[pos] * poly_eval(Q.T, z)
            rhs = t1 * poly_eval(Q.T, z * q**-2) + t2 * poly_eval(Q.T, z * q**2)
            denom = np.maximum(1.0, np.maximum(np.abs(lhs), np.abs(rhs)))
            worst[m] = np.maximum(worst[m], np.abs(lhs - rhs) / denom)
    return worst


def root_residuals(spec: ChainSpec, m: int, W, perturb: bool = False) -> np.ndarray:
    """Cleared two-term residual at each root of a (k, m) stack of root
    sets, as a (k, m) array; all must vanish."""
    W = np.asarray(W, dtype=complex)
    term1, term2 = _root_terms(spec, m, _monic_from_roots(W), W)
    if perturb:
        term2 = 2 * term2
    denom = np.maximum(1.0, np.maximum(np.abs(term1), np.abs(term2)))
    return np.abs(term1 + term2) / denom


def _root_terms(spec: ChainSpec, m: int, coeffs: np.ndarray, W: np.ndarray):
    """The two cleared terms of the root system at each point of row r of W
    for the polynomial of row r of ``coeffs``; they cancel at a root."""
    q = spec.q_complex()
    u = spec.twist_complex()
    D, P, _ = vacuum(spec, W)
    Qs = coeffs.T[..., None]
    term1 = u * q**m * D * poly_eval(Qs, W * q**-2)
    term2 = (1 / u) * q ** (-m) * q ** (-spec.L) * P * poly_eval(Qs, W * q**2)
    return term1, term2


def _monic_from_roots(W: np.ndarray) -> np.ndarray:
    """Coefficients (constant first) of prod_j (z - W[r, j]), per row r."""
    coeffs = np.ones((len(W), 1), dtype=complex)
    for j in range(W.shape[1]):
        nxt = np.zeros((len(W), j + 2), dtype=complex)
        nxt[:, 1:] = coeffs
        nxt[:, :-1] -= coeffs * W[:, j, None]
        coeffs = nxt
    return coeffs


def _all_but_one(X: np.ndarray) -> np.ndarray:
    """out[..., j, k] = product of X[..., j, l] over l != k, without division."""
    ones = np.ones(X.shape[:-1] + (1,), dtype=complex)
    left = np.cumprod(np.concatenate([ones, X[..., :-1]], axis=-1), axis=-1)
    right = np.cumprod(np.concatenate([ones, X[..., :0:-1]], axis=-1), axis=-1)
    return left * right[..., ::-1]


@dataclass(frozen=True)
class NewtonResult:
    """Per row of a Newton stack: the (k, m) roots, the final max |F_j|
    relative to its terms (the scaling of ``root_residuals``), the steps
    taken and the smallest singular value of the Jacobian at the roots."""

    roots: np.ndarray
    residual: np.ndarray
    iterations: np.ndarray
    min_singular: np.ndarray


def _root_system(spec: ChainSpec, m: int, ws: np.ndarray):
    """F, its closed-form Jacobian and the scale of each F_j for the product
    form of the root system, for every row of a (k, m) stack of root sets,
    F_j = u q^m D(w_j) prod_k (w_j q^-2 - w_k)
        + u^-1 q^(-m-L) P(w_j) prod_k (w_j q^2 - w_k);
    the scale is max(1, |first term|, |second term|), as in
    ``root_residuals``.  F and the scale are (k, m), J is (k, m, m)."""
    q = spec.q_complex()
    u = spec.twist_complex()
    rho = np.array(spec.site_ratios_complex())
    eye = np.eye(m, dtype=bool)
    F = np.zeros(ws.shape, dtype=complex)
    J = np.zeros(ws.shape + (m,), dtype=complex)
    scale = np.ones(ws.shape)
    for c, shift, corner in (
        (u * q**m, q**-2, q**-2),  # with D: zeta - q^-2
        ((1 / u) * q ** (-m - spec.L), q**2, 1.0),  # with P: zeta - 1
    ):
        Y = ws[..., None] * rho - corner
        V, dV = np.prod(Y, axis=-1), _all_but_one(Y) @ rho
        X = ws[..., :, None] * shift - ws[..., None, :]
        Q, dQ = np.prod(X, axis=-1), -_all_but_one(X)
        dQ[..., eye] -= shift * dQ.sum(axis=-1)
        term = c * V * Q
        F += term
        scale = np.maximum(scale, np.abs(term))
        J += c * V[..., None] * dQ
        J[..., eye] += c * dV * Q
    return F, J, scale


def _singular(J: np.ndarray) -> bool:
    """Whether LAPACK's LU solve refuses the square matrix J."""
    try:
        np.linalg.solve(J, np.zeros(len(J), dtype=complex))
    except np.linalg.LinAlgError:
        return True
    return False


def solve_roots_newton(
    spec: ChainSpec, m: int, starts, max_iter: int = 200
) -> NewtonResult:
    """Newton iteration on the product form of the root system, with its
    closed-form Jacobian (``_root_system``), from each row of a (k, m)
    stack of starting guesses; each step is one stacked solve.

    Each row stops on its own step size: once its relative step falls
    below 1e-14, or below 1e-8 without shrinking (the roundoff floor).
    Stopping on |F| instead leaves roots off by |F| over the smallest
    singular value.  A row whose Jacobian is singular stops alone.
    """
    ws = np.array(starts, dtype=complex)
    iterations = np.zeros(len(ws), dtype=int)
    prev = np.full(len(ws), np.inf)
    live = np.ones(len(ws), dtype=bool)
    for it in range(1, max_iter + 1):
        rows = np.flatnonzero(live)
        if not len(rows):
            break
        iterations[rows] = it
        F, J, _ = _root_system(spec, m, ws[rows])
        try:
            step = np.linalg.solve(J, F[..., None])[..., 0]
        except np.linalg.LinAlgError:
            solvable = np.array([not _singular(j) for j in J])
            live[rows[~solvable]] = False
            rows, F, J = rows[solvable], F[solvable], J[solvable]
            step = np.linalg.solve(J, F[..., None])[..., 0]
        ws[rows] -= step
        size = np.max(
            np.abs(step) / np.maximum(1.0, np.abs(ws[rows])), axis=1, initial=0.0
        )
        stop = (size < 1e-14) | ((size < 1e-8) & (size >= prev[rows]))
        live[rows[stop]] = False
        prev[rows] = size
    F, J, scale = _root_system(spec, m, ws)
    smin = np.linalg.svd(J, compute_uv=False)[:, -1] if m else np.zeros(len(ws))
    final = np.max(np.abs(F) / scale, axis=1, initial=0.0)
    return NewtonResult(ws, final, iterations, smin)


def check_tq(
    spec: ChainSpec,
    seed: int = 0,
    perturb: bool = False,
    sector: int | None = None,
    tol: float = 1e-8,
) -> CheckResult:
    """Every branch carries a polynomial solving the shift identity.

    Completeness means: every coefficient solve succeeds, and both the
    functional and root-level residuals stay below ``tol``.  A ``sector``
    restricts the polynomial solves to that magnon number.  The branch
    count is reported against the state-space dimension, not gated on it:
    each sector's ``eig`` returns C(L, m) values or ``compute_spectrum``
    raises, and a breakdown of the spectrum itself fails the check.
    """
    validate_sector(spec, sector)
    try:
        spectrum = compute_spectrum(spec, seed=seed)
    except SpectrumBreakdown as e:
        return breakdown_result("tq", spec, e, tolerance=tol, perturbed=bool(perturb))
    expected = 1 << spec.L
    failures = []
    stacks = {}  # sector -> (positions, Q) of its solved branches
    for s in spectrum.sectors:
        if sector is not None and s.m != sector:
            continue
        Q, errors = solve_sector(spectrum, s.m)
        failures += [{"branch": s.first + p, "error": e} for p, e in errors.items()]
        good = [p for p in range(len(Q)) if p not in errors]
        if good:
            stacks[s.m] = (good, Q[good])
    fun = functional_residual(
        spectrum, stacks, points=20, seed=seed + 2, perturb=perturb
    )
    worst_root = 0.0
    solved = []
    for m, (good, Q) in stacks.items():
        rr = root_residuals(spec, m, poly_roots(Q), perturb=perturb)
        worst_root = max(worst_root, float(np.max(rr, initial=0.0)))
        first = spectrum.sectors[m].first
        solved += [
            {
                "branch": first + p,
                "sector": m,
                "q_coeffs": [[c.real, c.imag] for c in coeffs],
                "functional_residual": f,
                "root_residuals": r,
            }
            for p, coeffs, f, r in zip(good, Q.tolist(), fun[m].tolist(), rr.tolist())
        ]
    worst_fun = max((e["functional_residual"] for e in solved), default=0.0)
    return CheckResult(
        name="tq",
        ok=not failures and worst_fun < tol and worst_root < tol,
        details={
            "L": spec.L,
            "branches": len(spectrum),
            "expected": expected,
            "per_sector": {str(s.m): len(s.lam0) for s in spectrum.sectors},
            "solved": solved,
            "worst_functional_residual": worst_fun,
            "worst_root_residual": worst_root,
            "failures": failures,
            "tolerance": tol,
            "perturbed": bool(perturb),
        },
    )


def check_bethe(
    spec: ChainSpec,
    sector: int,
    seed: int = 0,
    perturb: bool = False,
    tol: float = 1e-8,
) -> CheckResult:
    """Root systems from the coefficient solve agree with direct Newton
    solving from a perturbed start.

    A branch whose solve breaks down is reported with its error and fails
    the check, and so does a breakdown of the spectrum itself.
    """
    validate_sector(spec, sector)
    try:
        spectrum = compute_spectrum(spec, seed=seed)
    except SpectrumBreakdown as e:
        return breakdown_result("bethe", spec, e, tolerance=tol, perturbed=bool(perturb))
    rng = np.random.default_rng(seed + 31)
    first = spectrum.sectors[sector].first
    Q, errors = solve_sector(spectrum, sector)
    good = [p for p in range(len(Q)) if p not in errors]
    ok = not errors
    entries = {p: {"branch": first + p, "error": e} for p, e in errors.items()}
    if good:
        roots = poly_roots(Q[good])
        rr = root_residuals(spec, sector, roots, perturb=perturb)
        ok = ok and not np.any(rr > tol)
        for p, ws, r in zip(good, roots.tolist(), rr.tolist()):
            entries[p] = {
                "branch": first + p,
                "roots": [[w.real, w.imag] for w in ws],
                "root_residuals": r,
            }
        if sector >= 1:
            # one start draw per root, in branch order
            starts = roots * (1 + 0.01 * (rng.random(roots.shape) - 0.5))
            newton = solve_roots_newton(spec, sector, starts)
            match = _roots_match(roots, newton.roots)
            ok = ok and bool(np.all(match)) and not np.any(newton.residual > tol)
            for p, res, its, smin, hit in zip(
                good,
                newton.residual.tolist(),
                newton.iterations.tolist(),
                newton.min_singular.tolist(),
                match.tolist(),
            ):
                entries[p].update(
                    newton_final_residual=res,
                    newton_iterations=its,
                    newton_min_singular_value=smin,
                    newton_matches=hit,
                )
    return CheckResult(
        name="bethe",
        ok=ok,
        details={
            "L": spec.L,
            "sector": sector,
            "branches": [entries[p] for p in range(len(Q))],
            "tolerance": tol,
            "perturbed": bool(perturb),
        },
    )


def _roots_match(A: np.ndarray, B: np.ndarray, tol: float = 1e-6) -> np.ndarray:
    """Per row of two (k, m) root stacks: whether each root of A, in order,
    has an unused root of B within tol * max(1, |root|), taking the nearest
    (the first of equals) each time."""
    dist = np.abs(A[:, :, None] - B[:, None, :])
    rows = np.arange(len(A))
    ok = np.ones(len(A), dtype=bool)
    for j in range(A.shape[1]):
        best = np.argmin(dist[:, j], axis=1)
        ok &= ~(dist[rows, j, best] > tol * np.maximum(1.0, np.abs(A[:, j])))
        dist[rows, :, best] = np.inf
    return ok
