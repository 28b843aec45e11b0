"""Laurent sums in two-parameter Y-symbols and the eigenvalue substitution.

A YLaurent is an integer combination of monomials in signed symbols
Y_{i,b}; the spectral labels b stay exact multiplicative expressions so
that argument shifts under substitution are exact.  The substitution turns
each symbol into a prefactor times a ratio of shifted one-variable
polynomials; calibrating the prefactors on the reference branch and
reusing them with each branch's own polynomial reproduces the measured
transfer-matrix eigenvalues.
"""

from __future__ import annotations

from dataclasses import dataclass

from .field import RatFun
from .verdict import CheckResult
from .chain.model import ChainSpec
from .chain.model import sample_point
from .chain.spectrum import (
    SpectrumBreakdown,
    breakdown_result,
    compute_spectrum,
    poly_eval,
    solve_sector,
    vacuum,
)

import numpy as np

__all__ = [
    "YLaurent",
    "SubstitutionSpec",
    "chi_fund_sl2",
    "baxter_substitute",
    "check_conjecture_sl2",
]


def _label_key(expr) -> RatFun:
    if isinstance(expr, RatFun):
        return expr
    if isinstance(expr, str):
        return RatFun.parse(expr)
    return RatFun.const(expr)


class YLaurent:
    """Integer combination of monomials in signed symbols Y_{i,b}.

    Monomial keys are sorted tuples of (index, label, exponent) with the
    exponents of repeated symbols merged.  Coefficients must be positive:
    the coefficient sum is the dimension of what the sum describes.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: dict | None = None):
        clean = {}
        for mono, coeff in (terms or {}).items():
            c = int(coeff)
            if c == 0:
                continue
            if c < 0:
                raise ValueError("coefficients must be positive")
            merged = {}
            for i, label, e in mono:
                k = (int(i), _label_key(label))
                merged[k] = merged.get(k, 0) + int(e)
            key = tuple(
                sorted(
                    ((i, lab, e) for (i, lab), e in merged.items() if e != 0),
                    key=lambda t: (t[0], str(t[1]), t[2]),
                )
            )
            clean[key] = clean.get(key, 0) + c
        self.terms = clean

    @classmethod
    def symbol(cls, i: int, label, exponent: int = 1) -> "YLaurent":
        return cls({((i, _label_key(label), exponent),): 1})

    def __add__(self, other: "YLaurent") -> "YLaurent":
        out = dict(self.terms)
        for mono, c in other.terms.items():
            out[mono] = out.get(mono, 0) + c
        return YLaurent(out)

    def __mul__(self, other: "YLaurent") -> "YLaurent":
        out = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                combo = tuple(list(m1) + list(m2))
                out[combo] = out.get(combo, 0) + c1 * c2
        return YLaurent(out)

    def coeff_sum(self) -> int:
        return sum(self.terms.values())

    def __eq__(self, other) -> bool:
        return isinstance(other, YLaurent) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for mono, c in sorted(self.terms.items(), key=lambda kv: str(kv[0])):
            factors = [
                f"Y[{i},{lab}]" + (f"^{e}" if e != 1 else "") for i, lab, e in mono
            ]
            body = "*".join(factors) if factors else "1"
            parts.append(body if c == 1 else f"{c}*{body}")
        return " + ".join(parts)


@dataclass(frozen=True)
class SubstitutionSpec:
    """Per-index substitution data: monic polynomial and per-label prefactors.

    ``q_poly``: index -> coefficient tuple (constant first, monic).
    ``prefactor``: (index, label) -> callable z -> complex, calibrated on
    the reference branch and shared by every branch.
    ``qval``: numeric deformation parameter used for the argument shifts.
    """

    q_poly: dict
    prefactor: dict
    qval: complex

    def degree(self, i: int) -> int:
        return len(self.q_poly[i]) - 1


def chi_fund_sl2(a) -> YLaurent:
    """Two-term character of the fundamental evaluation module at a."""
    av = _label_key(a)
    q = RatFun.var("q")
    return YLaurent.symbol(1, av / q) + YLaurent.symbol(1, av * q, -1)


def baxter_substitute(chi: YLaurent, sub: SubstitutionSpec, z: complex) -> complex:
    """Evaluate the substituted character at the spectral point z.

    Each Y_{i,b}^e becomes [F_{i,b}(z) q^{deg} Q_i(z b/q) / Q_i(z b q)]^e
    with all shifts exact in the label expressions before numeric
    evaluation.  Labels without prefactor data are an error.
    """
    qc = sub.qval
    point = {"q": qc}
    total = 0j
    for mono, coeff in chi.terms.items():
        val = complex(coeff)
        for i, lab, e in mono:
            if i not in sub.q_poly:
                raise ValueError(f"no substitution data for index {i}")
            if (i, lab) not in sub.prefactor:
                raise ValueError(f"no prefactor data for label {lab}")
            coeffs = sub.q_poly[i]
            b = lab.eval_complex(point)
            f = sub.prefactor[(i, lab)](z)
            num = poly_eval(coeffs, z * b / qc)
            den = poly_eval(coeffs, z * b * qc)
            if abs(den) < 1e-13:
                raise ZeroDivisionError("substitution hit a polynomial zero")
            factor = f * qc ** sub.degree(i) * num / den
            val *= factor**e
        total += val
    return total


def vacuum_prefactors(spec: ChainSpec):
    """Prefactor data read off the reference branch.

    On that branch the polynomial is 1 and the two-term substituted shape
    must equal u*a(z) + (1/u)*d(z); matching term by term fixes the
    prefactor attached to each of the two labels.
    """
    u = spec.twist_complex()
    a_expr = RatFun.parse(spec.a)
    q = RatFun.var("q")
    lab_lo = a_expr / q
    lab_hi = a_expr * q
    return {
        (1, lab_lo): lambda z: u,
        (1, lab_hi): lambda z: u / vacuum(spec, z)[2],
    }


def check_conjecture_sl2(
    spec: ChainSpec, seed: int = 0, points: int = 20, perturb: bool = False
) -> CheckResult:
    """Substituted characters reproduce every eigenvalue branch.

    One prefactor assignment, calibrated once on the reference branch, is
    reused verbatim for all branches; only the branch polynomial changes.
    The measured eigenvalues are read from the transfer matrix at each
    sample point, one build for every branch.  ``perturb`` swaps the
    polynomials of two same-sector branches, which must break the match.
    """
    chi = chi_fund_sl2(RatFun.parse(spec.a))
    if chi.coeff_sum() != 2:
        return CheckResult(
            name="qchar",
            ok=False,
            details={"error": "character coefficient sum is not the dimension"},
        )
    try:
        spectrum = compute_spectrum(spec, seed=seed)
    except SpectrumBreakdown as e:
        return breakdown_result("qchar", spec, e)
    failures = []
    polys = {}  # sector -> the Q of each branch, None where its solve failed
    for s in spectrum.sectors:
        Q, errors = solve_sector(spectrum, s.m)
        failures += [{"branch": s.first + p, "error": e} for p, e in errors.items()]
        polys[s.m] = [None if p in errors else tuple(q) for p, q in enumerate(Q.tolist())]
    swapped = None
    if perturb:
        s = next((s for s in spectrum.sectors if len(s.lam0) >= 2), None)
        if s is None:
            raise ValueError("no two branches share a sector; nothing to swap")
        rows = polys[s.m]
        rows[0], rows[1] = rows[1], rows[0]
        swapped = [s.first, s.first + 1]
    prefs = vacuum_prefactors(spec)
    qc = spec.q_complex()
    subs = {
        m: [
            (p, SubstitutionSpec(q_poly={1: q}, prefactor=prefs, qval=qc))
            for p, q in enumerate(rows)
            if q is not None
        ]
        for m, rows in polys.items()
    }
    rng = np.random.default_rng(seed + 17)
    worst = 0.0
    for _ in range(points):
        z = sample_point(spec, rng)
        for rows, measured in zip(subs.values(), spectrum.eigenvalues(z, subs)):
            for p, sub in rows:
                pred = baxter_substitute(chi, sub, z)
                worst = max(worst, abs(pred - measured[p]) / max(1.0, abs(measured[p])))
    trivial = SubstitutionSpec(
        q_poly={1: (1.0 + 0j,)},
        prefactor={k: (lambda z: 1.0 + 0j) for k in prefs},
        qval=qc,
    )
    degeneration = baxter_substitute(chi, trivial, 1.234)
    degen_ok = abs(degeneration - 2.0) < 1e-12
    ok = worst < 1e-8 and degen_ok and not failures
    return CheckResult(
        name="qchar",
        ok=ok,
        details={
            "L": spec.L,
            "branches": len(spectrum),
            "points": points,
            "worst_residual": worst,
            "failures": failures,
            "tolerance": 1e-8,
            "coeff_sum": chi.coeff_sum(),
            "degeneration_value": [degeneration.real, degeneration.imag],
            "character": str(chi),
            "perturbed": bool(perturb),
            "swapped_branches": swapped,
        },
    )
