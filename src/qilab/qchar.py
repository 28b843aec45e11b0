"""Laurent sums in two-parameter Y-symbols and the eigenvalue substitution.

A YLaurent is an integer combination of monomials in signed symbols
Y_{i,b}; the spectral labels b stay exact expressions.
``check_conjecture_sl2`` substitutes each branch's Baxter polynomial Q into
chi(V_a) = Y_{1,a/q} + Y_{1,aq}^-1: Y_{1,b} becomes F_b q^deg Q(z b/q) /
Q(z b q), with b valued relative to a because the spectral z already
carries a.  The two labels are evaluated once per check; at each sample
point one table gives both their values and prefactors F, calibrated on the
all-up branch, and every branch of every sector reads that table with its
own Q.
"""

from __future__ import annotations

from .field import RatFun
from .verdict import CheckResult
from .chain.model import ChainSpec, sample_point
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


def chi_fund_sl2(a) -> YLaurent:
    """Two-term character of the fundamental evaluation module at a."""
    av = _label_key(a)
    q = RatFun.var("q")
    return YLaurent.symbol(1, av / q) + YLaurent.symbol(1, av * q, -1)


def baxter_substitute(
    chi: YLaurent, coeffs, labels: dict, q: complex, z: complex
) -> complex:
    """Evaluate the substituted character at the spectral point z.

    Each Y_{1,b}^e becomes [F_b q^deg Q(z b/q) / Q(z b q)]^e, where Q has the
    coefficients ``coeffs`` (constant first, degree ``len(coeffs) - 1``) and
    ``labels`` maps each label's canonical string to (b, F_b): its numeric
    value and its prefactor at z.  An index other than 1 or a label missing
    from the table is an error.
    """
    deg = len(coeffs) - 1
    total = 0j
    for mono, coeff in chi.terms.items():
        val = complex(coeff)
        for i, lab, e in mono:
            if i != 1:
                raise ValueError(f"no substitution data for index {i}")
            entry = labels.get(str(lab))
            if entry is None:
                raise ValueError(f"no prefactor data for label {lab}")
            b, f = entry
            num = poly_eval(coeffs, z * b / q)
            den = poly_eval(coeffs, z * b * q)
            if abs(den) < 1e-13:
                raise ZeroDivisionError("substitution hit a polynomial zero")
            factor = f * q**deg * num / den
            val *= factor**e
        total += val
    return total


def check_conjecture_sl2(
    spec: ChainSpec, seed: int = 0, points: int = 20, perturb: bool = False
) -> CheckResult:
    """Substituted characters reproduce every eigenvalue branch.

    On the all-up branch Q = 1, so matching u a(z) + d(z) / u term by term
    calibrates the prefactors: u for the label a/q and u / d(z) for aq.  At
    each sample point one table holds them with the label values, and every
    branch reads it with its own polynomial; the measured eigenvalues come
    from one transfer build per point.  ``perturb`` swaps the polynomials of
    the first two branches of the first sector that has two, which must
    break the match.
    """
    a = RatFun.parse(spec.a)
    chi = chi_fund_sl2(a)
    try:
        spectrum = compute_spectrum(spec, seed=seed)
    except SpectrumBreakdown as e:
        return breakdown_result("qchar", spec, e)
    failures = []
    solved = {}  # sector -> (position, Q) of each branch whose solve succeeded
    swapped = None
    for s in spectrum.sectors:
        Q, errors = solve_sector(spectrum, s.m)
        failures += [{"branch": s.first + p, "error": e} for p, e in errors.items()]
        rows = [None if p in errors else q for p, q in enumerate(Q.tolist())]
        if perturb and swapped is None and len(rows) >= 2:
            rows[0], rows[1] = rows[1], rows[0]
            swapped = [s.first, s.first + 1]
        solved[s.m] = [(p, q) for p, q in enumerate(rows) if q is not None]
    if perturb and swapped is None:
        raise ValueError("no two branches share a sector; nothing to swap")
    qc, u = spec.q_complex(), spec.twist_complex()
    # the labels a/q and aq, valued relative to a: the spectral z already
    # carries a (zeta = z a / b_l)
    (lo, b_lo), (hi, b_hi) = (
        (str(lab), (lab / a).eval_complex({"q": qc}))
        for lab in (a / RatFun.var("q"), a * RatFun.var("q"))
    )
    rng = np.random.default_rng(seed + 17)
    worst = 0.0
    for _ in range(points):
        z = sample_point(spec, rng)
        labels = {lo: (b_lo, u), hi: (b_hi, u / vacuum(spec, z)[2])}
        for rows, measured in zip(solved.values(), spectrum.eigenvalues(z, solved)):
            for p, coeffs in rows:
                pred = baxter_substitute(chi, coeffs, labels, qc, z)
                worst = max(worst, abs(pred - measured[p]) / max(1.0, abs(measured[p])))
    ok = worst < 1e-8 and not failures
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
            "character": str(chi),
            "perturbed": bool(perturb),
            "swapped_branches": swapped,
        },
    )
