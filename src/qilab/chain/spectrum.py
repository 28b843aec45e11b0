"""Numeric transfer-matrix spectra and their finite-difference functional data.

The transfer matrices at different arguments commute, so one seeded base
point fixes a joint eigenbasis; every branch of eigenvalues is then read
off diagonally at further sample points.  Each branch is fitted as
N(z) / D(z) with D the product of the cleared-factor denominators, which
the fit residual verifies.  For each branch, ``solved_branches`` recovers
by collocation a polynomial Q with Lambda(z) Q(z) = t1 Q(zq^-2) +
t2(z) Q(zq^2), Baxter's relation; its roots are polished, and the
root-level residuals close the loop.  ``vacuum`` gives D, P = prod(zeta - 1)
and the vacuum ratio d in one loop; ``Spectrum.point`` gives Lambda, t1, t2.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np

from ..verdict import CheckResult
from .model import ChainSpec, sample_point, transfer_sectors

__all__ = [
    "Branch",
    "Spectrum",
    "compute_spectrum",
    "validate_sector",
    "solve_shift_poly",
    "poly_eval",
    "poly_roots",
    "vacuum",
    "solved_branches",
    "functional_residual",
    "root_residuals",
    "check_tq",
    "check_bethe",
]


@dataclass(frozen=True)
class Branch:
    """One eigenvalue branch: sector, numerator coefficients, diagnostics."""

    sector: int
    ncoeffs: tuple
    fit_residual: float
    lam0: complex


class Spectrum:
    """All eigenvalue branches of one chain, rationally interpolated."""

    def __init__(self, spec: ChainSpec, branches, z0: complex, seed: int):
        self.spec = spec
        self.branches = list(branches)
        self.z0 = z0
        self.seed = seed

    def point(self, branch: Branch, z: complex):
        """(Lambda(z), t1, t2): the eigenvalue and the weights u q^m and
        u^-1 q^-m d(z) of Q(zq^-2) and Q(zq^2) in the branch's relation."""
        q = self.spec.q_complex()
        u = self.spec.twist_complex()
        m = branch.sector
        den, _, d = vacuum(self.spec, z)
        num = 0j
        for k, c in enumerate(branch.ncoeffs):
            num += c * z**k
        return num / den, u * q**m, (1 / u) * q ** (-m) * d


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


def compute_spectrum(spec: ChainSpec, seed: int = 0) -> Spectrum:
    """Diagonalize once, follow every branch, fit each one rationally.

    The base point is diagonalized first.  Then one sample transfer at a
    time fills its column of every sector's eigenvalue table and is
    dropped, so only one sample transfer is alive at once.  A sector's
    failures are raised lowest sector first and, within a sector, in stage
    order: degenerate base point, joint eigenbasis, rational fit.
    """
    rng = np.random.default_rng(seed)
    L = spec.L
    n_samples = L + 2
    z0 = sample_point(spec, rng)
    samples = [sample_point(spec, rng) for _ in range(n_samples)]
    errors = {}
    bases = []
    for m, B0 in enumerate(transfer_sectors(spec, z0)):
        w0, V = np.linalg.eig(B0)
        scale = max(1.0, float(np.max(np.abs(w0))))
        k = len(w0)
        if any(
            abs(w0[i] - w0[j]) < 1e-8 * scale
            for i in range(k)
            for j in range(i + 1, k)
        ):
            errors[m] = (
                f"degenerate base-point spectrum in sector {m}; "
                "pick more generic parameters or another seed"
            )
            bases.append(None)
            continue
        table = np.empty((k, n_samples), dtype=complex)
        bases.append((w0, V, np.linalg.inv(V), table))
    for s, z in enumerate(samples):
        for m, Bz in enumerate(transfer_sectors(spec, z)):
            if m in errors:
                continue
            _, V, Vinv, table = bases[m]
            Ds = Vinv @ Bz @ V
            off = Ds - np.diag(np.diag(Ds))
            if np.max(np.abs(off)) > 1e-8 * max(1.0, np.max(np.abs(Ds))):
                errors[m] = (
                    f"joint eigenbasis failed in sector {m}; "
                    "transfer matrices did not stay diagonal"
                )
                continue
            table[:, s] = np.diag(Ds)
    dens = [vacuum(spec, z)[0] for z in samples]
    A = np.array([[z**j for j in range(L + 1)] for z in samples])
    branches = []
    for m, base in enumerate(bases):
        if m in errors:
            raise RuntimeError(errors[m])
        w0, _, _, lam_table = base
        for i in range(len(w0)):
            rhs = np.array([lam_table[i, s] * dens[s] for s in range(n_samples)])
            coeffs, *_ = np.linalg.lstsq(A, rhs, rcond=None)
            pred = A @ coeffs
            resid = float(
                np.max(np.abs(pred - rhs)) / max(1.0, float(np.max(np.abs(rhs))))
            )
            if resid > 1e-8:
                raise RuntimeError(
                    f"rational fit failed in sector {m} (residual {resid:.2e})"
                )
            branches.append(
                Branch(
                    sector=m,
                    ncoeffs=tuple(complex(c) for c in coeffs),
                    fit_residual=resid,
                    lam0=complex(w0[i]),
                )
            )
    branches.sort(key=lambda b: (b.sector, round(b.lam0.real, 9), round(b.lam0.imag, 9)))
    return Spectrum(spec, branches, z0, seed)


def validate_sector(spec: ChainSpec, sector: int | None) -> None:
    """Reject a magnon number outside 0..L (None means every sector)."""
    if sector is not None and not 0 <= sector <= spec.L:
        raise ValueError("sector must lie between 0 and L")


def solve_shift_poly(spectrum: Spectrum, branch: Branch, seed: int = 1):
    """Monic polynomial solving the branch functional equation, by collocation.

    Returns the coefficient tuple (constant first, monic leading 1).  The
    collocation null space must be one-dimensional; anything else means the
    branch does not carry a polynomial of the expected degree.
    """
    spec = spectrum.spec
    m = branch.sector
    q = spec.q_complex()
    rng = np.random.default_rng(seed + 7919 * m)
    npts = 2 * spec.L + 2 * m + 4
    rows = []
    scale = 1.0
    for _ in range(npts):
        z = sample_point(spec, rng)
        lam, t1, t2 = spectrum.point(branch, z)
        row = []
        for k in range(m + 1):
            pieces = (lam * z**k, t1 * (z * q**-2) ** k, t2 * (z * q**2) ** k)
            scale = max(scale, *(abs(p) for p in pieces))
            row.append(pieces[0] - pieces[1] - pieces[2])
        rows.append(row)
    A = np.array(rows, dtype=complex)
    _, s, vh = np.linalg.svd(A)
    level = 1e-8 * scale
    if m >= 1 and s[m - 1] <= level:
        raise RuntimeError("collocation null space is not one-dimensional")
    if s[m] > level:
        raise RuntimeError(
            f"no polynomial solution at degree {m} (smallest singular value "
            f"{s[m]:.2e} vs scale {scale:.2e})"
        )
    coeffs = np.conj(vh[-1])
    lead = coeffs[-1]
    if abs(lead) < 1e-6 * float(np.max(np.abs(coeffs))):
        raise RuntimeError("polynomial solution has unexpected lower degree")
    coeffs = coeffs / lead
    return tuple(complex(c) for c in coeffs)


def poly_eval(coeffs, z: complex) -> complex:
    """Horner value at ``z`` of a coefficient sequence, constant first."""
    out = 0j
    for c in reversed(coeffs):
        out = out * z + c
    return out


_POLISH_STEPS = 8  # Newton steps on each root of ``poly_roots``


def poly_roots(coeffs) -> list:
    """Roots of a monic coefficient tuple (constant first), each polished
    by up to ``_POLISH_STEPS`` Newton steps on the polynomial."""
    arr = np.array(list(coeffs)[::-1], dtype=complex)
    dcoeffs = [k * coeffs[k] for k in range(1, len(coeffs))]
    out = []
    for w in np.roots(arr):
        w = complex(w)
        for _ in range(_POLISH_STEPS):
            f = poly_eval(coeffs, w)
            df = poly_eval(dcoeffs, w)
            if abs(df) < 1e-14:
                break
            step = f / df
            w = w - step
            if abs(step) < 1e-14 * max(1.0, abs(w)):
                break
        out.append(w)
    return out


def functional_residual(
    spectrum: Spectrum,
    branch: Branch,
    coeffs,
    points: int = 20,
    seed: int = 2,
    perturb: bool = False,
) -> float:
    """Relative residual of the two-term shift identity on fresh samples."""
    spec = spectrum.spec
    q = spec.q_complex()
    rng = np.random.default_rng(seed + 104729 * branch.sector)
    worst = 0.0
    for _ in range(points):
        z = sample_point(spec, rng)
        lam, t1, t2 = spectrum.point(branch, z)
        if perturb:
            t2 = 2 * t2
        lhs = lam * poly_eval(coeffs, z)
        rhs = t1 * poly_eval(coeffs, z * q**-2) + t2 * poly_eval(coeffs, z * q**2)
        denom = max(1.0, abs(lhs), abs(rhs))
        worst = max(worst, abs(lhs - rhs) / denom)
    return worst


def root_residuals(
    spec: ChainSpec, m: int, roots, perturb: bool = False
) -> list:
    """Cleared two-term residual at each root; all must vanish."""
    coeffs = _monic_from_roots(roots)
    out = []
    for w in roots:
        term1, term2 = _root_terms(spec, m, coeffs, w)
        if perturb:
            term2 = 2 * term2
        denom = max(1.0, abs(term1), abs(term2))
        out.append(abs(term1 + term2) / denom)
    return out


def _root_terms(spec: ChainSpec, m: int, coeffs, w: complex):
    """The two cleared terms of the root system at ``w``; they cancel at a root."""
    q = spec.q_complex()
    u = spec.twist_complex()
    D, P, _ = vacuum(spec, w)
    term1 = u * q**m * D * poly_eval(coeffs, w * q**-2)
    term2 = (1 / u) * q ** (-m) * q ** (-spec.L) * P * poly_eval(coeffs, w * q**2)
    return term1, term2


def _monic_from_roots(roots) -> tuple:
    coeffs = [1.0 + 0j]
    for w in roots:
        nxt = [0j] * (len(coeffs) + 1)
        for k, c in enumerate(coeffs):
            nxt[k + 1] += c
            nxt[k] -= c * w
        coeffs = nxt
    return tuple(coeffs)


def solve_roots_newton(
    spec: ChainSpec, m: int, start, max_iter: int = 200, tol: float = 1e-12
):
    """Newton iteration on the cleared root system from a starting guess."""

    def residvec(ws):
        coeffs = _monic_from_roots(ws)
        terms = [_root_terms(spec, m, coeffs, w) for w in ws]
        return np.array([t1 + t2 for t1, t2 in terms], dtype=complex)

    ws = np.array(list(start), dtype=complex)
    for _ in range(max_iter):
        F = residvec(ws)
        if float(np.max(np.abs(F))) < tol:
            return [complex(w) for w in ws], float(np.max(np.abs(F)))
        J = np.empty((m, m), dtype=complex)
        for j in range(m):
            h = 1e-7 * max(1.0, abs(ws[j]))
            bumped = ws.copy()
            bumped[j] += h
            J[:, j] = (residvec(bumped) - F) / h
        try:
            step = np.linalg.solve(J, F)
        except np.linalg.LinAlgError:
            break
        ws = ws - step
    F = residvec(ws)
    return [complex(w) for w in ws], float(np.max(np.abs(F)))


def solved_branches(spectrum: Spectrum, sector: int | None, seed: int):
    """Per branch of ``sector`` (every branch for None), in spectrum order:
    (index, branch, its polynomial or its collocation RuntimeError), the
    collocation seeded at ``seed + 1``."""
    for i, branch in enumerate(spectrum.branches):
        if sector is not None and branch.sector != sector:
            continue
        try:
            coeffs = solve_shift_poly(spectrum, branch, seed=seed + 1)
        except RuntimeError as e:
            coeffs = e
        yield i, branch, coeffs


def check_tq(
    spec: ChainSpec,
    seed: int = 0,
    perturb: bool = False,
    sector: int | None = None,
    tol: float = 1e-8,
) -> CheckResult:
    """Every branch carries a polynomial solving the shift identity.

    Completeness means: the number of recovered branches equals the full
    state-space dimension, every collocation succeeds, and both the
    functional and root-level residuals stay below ``tol``.  A ``sector``
    restricts the polynomial solves to that magnon number; the branch
    count is still taken over the whole spectrum.
    """
    validate_sector(spec, sector)
    spectrum = compute_spectrum(spec, seed=seed)
    total = len(spectrum.branches)
    expected = 1 << spec.L
    worst_fun = 0.0
    worst_root = 0.0
    per_sector = Counter(b.sector for b in spectrum.branches)
    failures = []
    solved = []
    for i, branch, coeffs in solved_branches(spectrum, sector, seed):
        if isinstance(coeffs, RuntimeError):
            failures.append({"branch": i, "error": str(coeffs)})
            continue
        fr = functional_residual(
            spectrum, branch, coeffs, points=20, seed=seed + 2, perturb=perturb
        )
        worst_fun = max(worst_fun, fr)
        roots = poly_roots(coeffs)
        rr = root_residuals(spec, branch.sector, roots, perturb=perturb)
        if rr:
            worst_root = max(worst_root, max(rr))
        solved.append(
            {
                "branch": i,
                "sector": branch.sector,
                "q_coeffs": [[c.real, c.imag] for c in coeffs],
                "functional_residual": fr,
                "root_residuals": rr,
            }
        )
    ok = (
        total == expected
        and not failures
        and worst_fun < tol
        and worst_root < tol
    )
    return CheckResult(
        name="tq",
        ok=ok,
        details={
            "L": spec.L,
            "branches": total,
            "expected": expected,
            "per_sector": {str(k): v for k, v in sorted(per_sector.items())},
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
    """Root systems from collocation agree with direct Newton solving.

    A branch whose collocation breaks down is reported with its error and
    fails the check.
    """
    validate_sector(spec, sector)
    spectrum = compute_spectrum(spec, seed=seed)
    rng = np.random.default_rng(seed + 31)
    reports = []
    ok = True
    for i, _, coeffs in solved_branches(spectrum, sector, seed):
        if isinstance(coeffs, RuntimeError):
            reports.append({"branch": i, "error": str(coeffs)})
            ok = False
            continue
        roots = poly_roots(coeffs)
        rr = root_residuals(spec, sector, roots, perturb=perturb)
        entry = {
            "branch": i,
            "roots": [[w.real, w.imag] for w in roots],
            "root_residuals": rr,
        }
        if sector >= 1:
            start = [w * (1 + 0.01 * (rng.random() - 0.5)) for w in roots]
            solved, final = solve_roots_newton(spec, sector, start)
            match = _roots_match(roots, solved)
            entry["newton_final_residual"] = final
            entry["newton_matches"] = match
            if not match or final > tol:
                ok = False
        if rr and max(rr) > tol:
            ok = False
        reports.append(entry)
    return CheckResult(
        name="bethe",
        ok=ok,
        details={
            "L": spec.L,
            "sector": sector,
            "branches": reports,
            "tolerance": tol,
            "perturbed": bool(perturb),
        },
    )


def _roots_match(a, b, tol: float = 1e-6) -> bool:
    if len(a) != len(b):
        return False
    left = list(b)
    for w in a:
        best = None
        for j, v in enumerate(left):
            d = abs(w - v)
            if best is None or d < best[0]:
                best = (d, j)
        if best is None or best[0] > tol * max(1.0, abs(w)):
            return False
        left.pop(best[1])
    return True
