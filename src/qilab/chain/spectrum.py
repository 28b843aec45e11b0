"""Numeric transfer-matrix spectra and their finite-difference functional data.

The transfer matrices at different arguments commute, so one seeded base
point fixes a joint eigenbasis; every branch of eigenvalues is then read
off diagonally at further sample points.  Each branch is fitted as
N(z) / D(z) with D the product of the cleared-factor denominators, which
the fit residual verifies.  For each branch a one-variable polynomial
satisfying the two-term shift functional equation is recovered by
collocation, its roots are polished, and the root-level residuals close
the loop.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..verdict import CheckResult
from .model import ChainSpec, sample_point, transfer_numeric

__all__ = [
    "Branch",
    "Spectrum",
    "compute_spectrum",
    "solve_shift_poly",
    "poly_eval",
    "poly_roots",
    "shift_terms",
    "vacuum_ratio",
    "functional_residual",
    "root_residuals",
    "refine_roots",
    "check_tq",
    "check_bethe",
]


def _popcount(n: int) -> int:
    return bin(n).count("1")


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

    def denominator(self, z: complex) -> complex:
        qinv2 = self.spec.q_complex() ** -2
        out = 1.0 + 0j
        for rho in self.spec.site_ratios_complex():
            out *= z * rho - qinv2
        return out

    def lam(self, branch: Branch, z: complex) -> complex:
        num = 0j
        for k, c in enumerate(branch.ncoeffs):
            num += c * z**k
        return num / self.denominator(z)


def compute_spectrum(spec: ChainSpec, seed: int = 0) -> Spectrum:
    """Diagonalize once, follow every branch, fit each one rationally."""
    rng = np.random.default_rng(seed)
    L = spec.L
    n_samples = L + 2
    z0 = sample_point(spec, rng)
    samples = [sample_point(spec, rng) for _ in range(n_samples)]
    T0 = transfer_numeric(spec, z0)
    Ts = [transfer_numeric(spec, z) for z in samples]
    dens = list(map(Spectrum(spec, [], z0, seed).denominator, samples))
    dim = 1 << L
    sectors = {}
    for i in range(dim):
        sectors.setdefault(_popcount(i), []).append(i)
    branches = []
    for m in sorted(sectors):
        idx = np.array(sectors[m])
        B0 = T0[np.ix_(idx, idx)]
        w0, V = np.linalg.eig(B0)
        scale = max(1.0, float(np.max(np.abs(w0))))
        k = len(w0)
        for i in range(k):
            for j in range(i + 1, k):
                if abs(w0[i] - w0[j]) < 1e-8 * scale:
                    raise RuntimeError(
                        f"degenerate base-point spectrum in sector {m}; "
                        "pick more generic parameters or another seed"
                    )
        Vinv = np.linalg.inv(V)
        lam_table = np.empty((k, n_samples), dtype=complex)
        for s, Tz in enumerate(Ts):
            Ds = Vinv @ Tz[np.ix_(idx, idx)] @ V
            off = Ds - np.diag(np.diag(Ds))
            if np.max(np.abs(off)) > 1e-8 * max(1.0, np.max(np.abs(Ds))):
                raise RuntimeError(
                    f"joint eigenbasis failed in sector {m}; "
                    "transfer matrices did not stay diagonal"
                )
            lam_table[:, s] = np.diag(Ds)
        A = np.array([[z**j for j in range(L + 1)] for z in samples])
        for i in range(k):
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


def shift_terms(spec: ChainSpec, m: int, z: complex):
    """Coefficients of the down-shifted and up-shifted polynomial values."""
    q = spec.q_complex()
    u = spec.twist_complex()
    t1 = u * q**m
    t2 = (1 / u) * q ** (-m) * vacuum_ratio(spec, z)
    return t1, t2


def vacuum_ratio(spec: ChainSpec, z: complex) -> complex:
    """Numeric d(z) / a(z) on the all-up reference state."""
    q = spec.q_complex()
    qinv2 = q**-2
    d = 1.0 + 0j
    for rho in spec.site_ratios_complex():
        zeta = z * rho
        d *= (zeta - 1) / (q * (zeta - qinv2))
    return d


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
        lam = spectrum.lam(branch, z)
        t1, t2 = shift_terms(spec, m, z)
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


def poly_roots(coeffs) -> list:
    """Roots of a monic coefficient tuple (constant first)."""
    deg = len(coeffs) - 1
    if deg == 0:
        return []
    arr = np.array(list(coeffs)[::-1], dtype=complex)
    return [complex(r) for r in np.roots(arr)]


def refine_roots(coeffs, roots, iters: int = 8) -> list:
    dcoeffs = [k * coeffs[k] for k in range(1, len(coeffs))]
    out = []
    for w in roots:
        for _ in range(iters):
            f = poly_eval(coeffs, w)
            df = poly_eval(dcoeffs, w)
            if abs(df) < 1e-14:
                break
            step = f / df
            w = w - step
            if abs(step) < 1e-14 * max(1.0, abs(w)):
                break
        out.append(complex(w))
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
        lam = spectrum.lam(branch, z)
        t1, t2 = shift_terms(spec, branch.sector, z)
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
    qinv2 = q**-2
    p1 = p2 = 1.0 + 0j
    for rho in spec.site_ratios_complex():
        zeta = w * rho
        p1 *= zeta - qinv2
        p2 *= zeta - 1
    term1 = u * q**m * p1 * poly_eval(coeffs, w * qinv2)
    term2 = (1 / u) * q ** (-m) * q ** (-spec.L) * p2 * poly_eval(coeffs, w * q**2)
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
    spectrum = compute_spectrum(spec, seed=seed)
    total = len(spectrum.branches)
    expected = 1 << spec.L
    worst_fun = 0.0
    worst_root = 0.0
    per_sector = {}
    failures = []
    solved = []
    for i, branch in enumerate(spectrum.branches):
        per_sector[branch.sector] = per_sector.get(branch.sector, 0) + 1
        if sector is not None and branch.sector != sector:
            continue
        try:
            coeffs = solve_shift_poly(spectrum, branch, seed=seed + 1)
        except RuntimeError as e:
            failures.append({"branch": i, "error": str(e)})
            continue
        fr = functional_residual(
            spectrum, branch, coeffs, points=20, seed=seed + 2, perturb=perturb
        )
        worst_fun = max(worst_fun, fr)
        roots = refine_roots(coeffs, poly_roots(coeffs))
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
    """Root systems from collocation agree with direct Newton solving."""
    if not 0 <= sector <= spec.L:
        raise ValueError("sector must lie between 0 and L")
    spectrum = compute_spectrum(spec, seed=seed)
    rng = np.random.default_rng(seed + 31)
    reports = []
    ok = True
    for i, branch in enumerate(spectrum.branches):
        if branch.sector != sector:
            continue
        coeffs = solve_shift_poly(spectrum, branch, seed=seed + 1)
        roots = refine_roots(coeffs, poly_roots(coeffs))
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
