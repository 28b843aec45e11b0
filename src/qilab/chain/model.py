"""Twisted inhomogeneous spin-chain transfer matrices and their checks.

A chain is a list of L two-dimensional sites with parameters b_1..b_L, an
auxiliary space with parameter a, a deformation parameter q, and a diagonal
twist diag(u, u^-1).  The monodromy over aux (x) sites is the ordered
product of fundamental solutions on (aux, site_l) at arguments z*a/b_l,
site L leftmost.  The transfer matrix is the twisted auxiliary trace
u*A(z) + u^-1*D(z).

Exact checks run on cleared polynomial matrices (every factor scaled by its
corner denominator, the twist scaled by u); both sides of each identity
carry the same overall scalar, so equality is polynomial equality.  Numeric
products are streamed in place: a spin-conserving 4x4 factor updates two
quarters of the matrix via two quarter-size temporaries, O(L*4^L) per transfer.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

from ..field import (
    MPoly,
    RatFun,
    mat_eq,
    mat_mul,
    np_apply_conserving,
    np_partial_trace,
    np_residual,
    op_on_slots,
    partial_trace,
)
from ..verdict import CheckResult
from ..rmatrix import cleared_r

__all__ = [
    "ChainSpec",
    "parse_complex",
    "numeric_r",
    "monodromy_cleared",
    "transfer_cleared",
    "monodromy_numeric",
    "transfer_numeric",
    "sample_point",
    "check_rtt",
    "check_commute",
    "check_multiplicativity",
]


_FLOATISH = re.compile(r"^[+-]?(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?$")


def parse_complex(text: str) -> complex:
    """Numeric literal: a fraction, a decimal, or re+im*i forms."""
    s = text.strip().replace(" ", "")
    try:
        return complex(Fraction(s))
    except (ValueError, ZeroDivisionError):
        pass
    s2 = s.replace("*i", "j")
    s2 = re.sub(r"(?<![\w.])i\b", "1j", s2)
    if s2.endswith("i"):
        s2 = s2[:-1] + "j"
    try:
        return complex(s2)
    except ValueError:
        raise ValueError(f"cannot read numeric value {text!r}") from None


@dataclass(frozen=True)
class ChainSpec:
    """Chain data; values are kept as strings and parsed per mode."""

    L: int
    q: str = "q"
    a: str = "1"
    sites: tuple = ()
    twist: str = "u"

    def __post_init__(self):
        if self.L < 1:
            raise ValueError("chain length must be positive")
        sites = tuple(self.sites) if self.sites else ("1",) * self.L
        if len(sites) != self.L:
            raise ValueError("length of sites must match L")
        object.__setattr__(self, "sites", sites)

    @classmethod
    def from_json(cls, text_or_dict) -> "ChainSpec":
        d = (
            json.loads(text_or_dict)
            if isinstance(text_or_dict, str)
            else dict(text_or_dict)
        )
        known = {"L", "q", "a", "sites", "twist"}
        extra = set(d) - known
        if extra:
            raise ValueError(f"unknown chain fields: {sorted(extra)}")
        if "L" not in d:
            raise ValueError("chain needs a length L")
        sites = d.get("sites")
        return cls(
            L=int(d["L"]),
            q=str(d.get("q", "q")),
            a=str(d.get("a", "1")),
            sites=tuple(str(s) for s in sites) if sites else (),
            twist=str(d.get("twist", "u")),
        )

    def to_json(self) -> str:
        return json.dumps(
            {
                "L": self.L,
                "q": self.q,
                "a": self.a,
                "sites": list(self.sites),
                "twist": self.twist,
            },
            sort_keys=True,
        )

    # exact accessors

    def q_is_symbolic(self) -> bool:
        return self.q.strip() == "q"

    def q_fraction(self) -> Fraction:
        v = RatFun.parse(self.q)
        if not v.is_const():
            raise ValueError("q is not a rational constant in this chain")
        return v.as_fraction()

    def a_fraction(self) -> Fraction:
        v = RatFun.parse(self.a)
        if not v.is_const():
            raise ValueError("aux parameter must be a rational constant")
        return v.as_fraction()

    def site_fraction(self, l: int) -> Fraction:
        v = RatFun.parse(self.sites[l])
        if not v.is_const():
            raise ValueError("site parameters must be rational constants")
        f = v.as_fraction()
        if f == 0:
            raise ValueError("site parameters must be nonzero")
        return f

    def ratios(self, a_override: Fraction | None = None) -> list[Fraction]:
        a = self.a_fraction() if a_override is None else Fraction(a_override)
        return [a / self.site_fraction(l) for l in range(self.L)]

    def twist_is_symbolic(self) -> bool:
        return self.twist.strip() == "u"

    def twist_fraction(self) -> Fraction:
        v = RatFun.parse(self.twist)
        if not v.is_const():
            raise ValueError("twist is not a rational constant in this chain")
        f = v.as_fraction()
        if f == 0:
            raise ValueError("twist must be invertible")
        return f

    # numeric accessors; the spectrum loops call them per point, so each
    # literal is parsed once per spec (a failed parse raises on every call)

    @cached_property
    def _q_c(self) -> complex:
        return parse_complex(self.q)

    @cached_property
    def _twist_c(self) -> complex:
        v = parse_complex(self.twist)
        if v == 0:
            raise ValueError("twist must be invertible")
        return v

    @cached_property
    def _ratios_c(self) -> tuple:
        return self.site_ratios_complex(self.a_complex())

    def q_complex(self) -> complex:
        return self._q_c

    def a_complex(self) -> complex:
        return parse_complex(self.a)

    def site_complex(self, l: int) -> complex:
        return parse_complex(self.sites[l])

    def twist_complex(self) -> complex:
        return self._twist_c

    def site_ratios_complex(self, a: complex | None = None) -> tuple:
        """Numeric a / b_l per site, the spec's a by default."""
        if a is None:
            return self._ratios_c
        return tuple(a / self.site_complex(l) for l in range(self.L))


def numeric_r(zeta: complex, q: complex) -> np.ndarray:
    """Numeric fundamental solution at argument zeta."""
    den = zeta - q**-2
    if abs(den) < 1e-12:
        raise ZeroDivisionError("spectral argument numerically on the pole")
    b = (zeta - 1) / (q * den)
    c2 = (1 - q**-2) / den
    c1 = zeta * (1 - q**-2) / den
    return np.array(
        [
            [1, 0, 0, 0],
            [0, b, c2, 0],
            [0, c1, b, 0],
            [0, 0, 0, 1],
        ],
        dtype=complex,
    )


def _q_poly(spec: ChainSpec) -> dict:
    """Substitution pinning q when the spec fixes it to a rational."""
    if spec.q_is_symbolic():
        return {}
    return {"q": MPoly.const(spec.q_fraction())}


def _maybe_fix_q(M, subs: dict):
    if not subs:
        return M
    return [[e.substitute(subs) for e in row] for row in M]


def monodromy_cleared(
    spec: ChainSpec,
    zbase: MPoly,
    dims: list,
    aux_slot: int,
    site_slots: list,
    a_override: Fraction | None = None,
):
    """Ordered cleared product over sites; site L leftmost.

    ``zbase`` is the polynomial spectral variable (z, or z*w); the argument
    on site l is zbase * a / b_l folded into the cleared factor.
    """
    subs = _q_poly(spec)
    ratios = spec.ratios(a_override)
    factors = []
    for l in range(spec.L - 1, -1, -1):
        r4 = cleared_r(zbase * ratios[l], 1)
        r4 = _maybe_fix_q(r4, subs)
        factors.append(op_on_slots(r4, (aux_slot, site_slots[l]), dims))
    M = factors[0]
    for f in factors[1:]:
        M = mat_mul(M, f)
    return M


def _cleared_twist(spec: ChainSpec):
    """diag(u^2, 1) for the symbolic twist, diag(p^2, r^2) for u = p/r."""
    if spec.twist_is_symbolic():
        u = MPoly.var("u")
        return [[u * u, MPoly.zero()], [MPoly.zero(), MPoly.const(1)]]
    t = spec.twist_fraction()
    return [
        [MPoly.const(t.numerator**2), MPoly.zero()],
        [MPoly.zero(), MPoly.const(t.denominator**2)],
    ]


def transfer_cleared(
    spec: ChainSpec,
    zbase: MPoly,
    a_override: Fraction | None = None,
):
    """Cleared transfer matrix on the site space.

    With the twist cleared to diag(u^2, 1) this equals u * prod(corners)
    times the true transfer matrix; identical scalars cancel in every
    comparison the package makes.
    """
    dims = [2] + [2] * spec.L
    M = monodromy_cleared(
        spec, zbase, dims, 0, list(range(1, spec.L + 1)), a_override
    )
    H = 1 << spec.L
    A = [row[:H] for row in M[:H]]
    D = [row[H:] for row in M[H:]]
    tw = _cleared_twist(spec)
    return [
        [tw[0][0] * A[i][j] + tw[1][1] * D[i][j] for j in range(H)] for i in range(H)
    ]


def monodromy_numeric(
    spec: ChainSpec, z: complex, a_val: complex | None = None
) -> np.ndarray:
    """Numeric monodromy over aux (x) sites, the auxiliary space in slot 0."""
    return _np_monodromy(spec, np.eye(2 << spec.L, dtype=complex), [(0, z, a_val)])


def _np_monodromy(spec: ChainSpec, M: np.ndarray, lines) -> np.ndarray:
    """``M`` times the ordered site factors, site L leftmost, in place.

    The columns of ``M`` carry the auxiliary slots, then the L sites.  Each
    line ``(aux_slot, z, a)`` puts numeric_r(z * a / b_l, q) on (aux_slot,
    site l), ``a=None`` meaning the spec's a; at each site the lines apply in
    the order given.  ``M`` is overwritten, so callers pass a fresh start.
    """
    dims = [2] * (M.shape[1].bit_length() - 1)
    first_site = len(dims) - spec.L
    q = spec.q_complex()
    ratios = [spec.site_ratios_complex(a) for _, _, a in lines]
    for l in range(spec.L - 1, -1, -1):
        for (slot, z, _), rho in zip(lines, ratios):
            r = numeric_r(z * rho[l], q)
            np_apply_conserving(M, r, (slot, first_site + l), dims)
    return M


def transfer_numeric(
    spec: ChainSpec, z: complex, a_val: complex | None = None
) -> np.ndarray:
    M = monodromy_numeric(spec, z, a_val=a_val)
    H = 1 << spec.L
    u = spec.twist_complex()
    return u * M[:H, :H] + (1 / u) * M[H:, H:]


def sample_point(spec: ChainSpec, rng) -> complex:
    """Seeded sample in an annulus, kept away from the factor poles."""
    qinv2 = spec.q_complex() ** -2
    ratios = spec.site_ratios_complex()
    for _ in range(1000):
        r = 0.5 + rng.random()
        theta = 2 * np.pi * rng.random()
        z = r * np.exp(1j * theta)
        ok = True
        for rho in ratios:
            zeta = z * rho
            if abs(zeta - qinv2) < 1e-3 or abs(zeta - 1) < 1e-6:
                ok = False
                break
        if ok:
            return complex(z)
    raise RuntimeError("could not sample away from the poles")


def check_rtt(
    spec: ChainSpec,
    mode: str = "exact",
    seed: int = 0,
    perturb=False,
    samples: int = 2,
    tol: float = 1e-10,
) -> CheckResult:
    """Exchange of two monodromies through one fundamental factor."""
    if mode == "exact":
        z = MPoly.var("z")
        w = MPoly.var("w")
        dims = [2, 2] + [2] * spec.L
        subs = _q_poly(spec)
        r12 = _maybe_fix_q(cleared_r(z, 1), subs)
        if perturb:
            r12 = [row[:] for row in r12]
            r12[1][2] = 2 * r12[1][2]
        R12 = op_on_slots(r12, (0, 1), dims)
        site_slots = list(range(2, spec.L + 2))
        T13 = monodromy_cleared(spec, z * w, dims, 0, site_slots)
        T23 = monodromy_cleared(spec, w, dims, 1, site_slots)
        lhs = mat_mul(mat_mul(R12, T13), T23)
        rhs = mat_mul(mat_mul(T23, T13), R12)
        ok = mat_eq(lhs, rhs)
        return CheckResult(
            name="rtt",
            ok=ok,
            details={
                "mode": "exact",
                "L": spec.L,
                "entries_compared": (4 * (1 << spec.L)) ** 2,
                "perturbed": bool(perturb),
            },
        )
    if mode != "numeric":
        raise ValueError("mode must be exact or numeric")
    rng = np.random.default_rng(seed)
    q = spec.q_complex()
    dims = [2, 2] + [2] * spec.L
    worst = 0.0
    for _ in range(samples):
        z0 = sample_point(spec, rng)
        w0 = sample_point(spec, rng)
        r = numeric_r(z0, q)
        if perturb:
            r = r.copy()
            r[1, 2] *= 2
        # T13 and T23 factors on different sites commute, so each side is
        # one stream interleaving the two lines site by site
        t13, t23 = (0, z0 * w0, None), (1, w0, None)
        lhs = np_apply_conserving(np.eye(4 << spec.L, dtype=complex), r, (0, 1), dims)
        lhs = _np_monodromy(spec, lhs, [t13, t23])
        rhs = _np_monodromy(spec, np.eye(4 << spec.L, dtype=complex), [t23, t13])
        np_apply_conserving(rhs, r, (0, 1), dims)
        worst = max(worst, np_residual(lhs, rhs))
    ok = worst < tol
    return CheckResult(
        name="rtt",
        ok=ok,
        details={
            "mode": "numeric",
            "L": spec.L,
            "residual": worst,
            "tolerance": tol,
            "perturbed": bool(perturb),
        },
    )


def check_commute(
    spec: ChainSpec,
    mode: str = "exact",
    seed: int = 0,
    perturb=False,
    samples: int = 2,
    tol: float = 1e-10,
) -> CheckResult:
    """Transfer matrices at two arguments commute.

    ``perturb`` doubles the hopping entry (1,2) of the second matrix, a
    single-excitation matrix element; it needs L >= 2 to exist.
    """
    if perturb and spec.L < 2:
        raise ValueError("the perturbed entry exists only for L >= 2")
    if mode == "exact":
        z = MPoly.var("z")
        w = MPoly.var("w")
        Tz = transfer_cleared(spec, z)
        Tw = transfer_cleared(spec, w)
        if perturb:
            Tw = [row[:] for row in Tw]
            Tw[1][2] = 2 * Tw[1][2]
        ok = mat_eq(mat_mul(Tz, Tw), mat_mul(Tw, Tz))
        return CheckResult(
            name="commute",
            ok=ok,
            details={
                "mode": "exact",
                "L": spec.L,
                "q": spec.q,
                "twist": spec.twist,
                "perturbed": bool(perturb),
            },
        )
    if mode != "numeric":
        raise ValueError("mode must be exact or numeric")
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(samples):
        z0 = sample_point(spec, rng)
        w0 = sample_point(spec, rng)
        Tz = transfer_numeric(spec, z0)
        Tw = transfer_numeric(spec, w0)
        if perturb:
            Tw = Tw.copy()
            Tw[1, 2] *= 2
        worst = max(worst, np_residual(Tz @ Tw, Tw @ Tz))
    ok = worst < tol
    return CheckResult(
        name="commute",
        ok=ok,
        details={
            "mode": "numeric",
            "L": spec.L,
            "residual": worst,
            "tolerance": tol,
            "perturbed": bool(perturb),
        },
    )


def check_multiplicativity(
    spec: ChainSpec,
    a2: Fraction | complex | None = None,
    mode: str = "exact",
    seed: int = 0,
    perturb=False,
    samples: int = 2,
    tol: float = 1e-10,
) -> CheckResult:
    """Transfer over a tensor pair of auxiliary spaces factorizes.

    The combined monodromy interleaves both auxiliary factors site by site;
    tracing the twisted pair must equal the product of the two transfer
    matrices.  ``perturb`` omits the twist on the second auxiliary slot.
    """
    H = 1 << spec.L
    if mode == "exact":
        z = MPoly.var("z")
        a1 = spec.a_fraction()
        a2 = a1 * 2 if a2 is None else Fraction(a2)
        dims = [2, 2] + [2] * spec.L
        subs = _q_poly(spec)
        ratios1 = spec.ratios()
        ratios2 = spec.ratios(a2)
        M = None
        for l in range(spec.L - 1, -1, -1):
            f1 = op_on_slots(
                _maybe_fix_q(cleared_r(z * ratios1[l], 1), subs), (0, l + 2), dims
            )
            f2 = op_on_slots(
                _maybe_fix_q(cleared_r(z * ratios2[l], 1), subs), (1, l + 2), dims
            )
            g = mat_mul(f1, f2)
            M = g if M is None else mat_mul(M, g)
        tw = _cleared_twist(spec)
        tw2 = [[MPoly.const(1), MPoly.zero()], [MPoly.zero(), MPoly.const(1)]] if perturb else tw
        big_twist = op_on_slots(tw, (0,), dims)
        big_twist2 = op_on_slots(tw2, (1,), dims)
        twisted = mat_mul(mat_mul(big_twist, big_twist2), M)
        pair = partial_trace(partial_trace(twisted, 0, dims), 0, [2] + [2] * spec.L)
        t1 = transfer_cleared(spec, z)
        t2 = transfer_cleared(spec, z, a_override=a2)
        prod = mat_mul(t1, t2)
        ok = mat_eq(pair, prod)
        return CheckResult(
            name="multiplicativity",
            ok=ok,
            details={
                "mode": "exact",
                "L": spec.L,
                "a1": str(a1),
                "a2": str(a2),
                "perturbed": bool(perturb),
            },
        )
    if mode != "numeric":
        raise ValueError("mode must be exact or numeric")
    rng = np.random.default_rng(seed)
    a2c = spec.a_complex() * 2 if a2 is None else complex(a2)
    u = spec.twist_complex()
    dims = [2, 2] + [2] * spec.L
    tw = np.diag([u, 1 / u]).astype(complex)
    tw12 = np.kron(tw, np.eye(2, dtype=complex) if perturb else tw)
    worst = 0.0
    for _ in range(samples):
        z0 = sample_point(spec, rng)
        twists = np_apply_conserving(np.eye(4 * H, dtype=complex), tw12, (0, 1), dims)
        big = _np_monodromy(spec, twists, [(0, z0, None), (1, z0, a2c)])
        pair = np_partial_trace(np_partial_trace(big, 0, dims), 0, [2] + [2] * spec.L)
        t1 = transfer_numeric(spec, z0)
        t2 = transfer_numeric(spec, z0, a_val=a2c)
        worst = max(worst, np_residual(pair, t1 @ t2))
    ok = worst < tol
    return CheckResult(
        name="multiplicativity",
        ok=ok,
        details={
            "mode": "numeric",
            "L": spec.L,
            "residual": worst,
            "tolerance": tol,
            "perturbed": bool(perturb),
        },
    )

