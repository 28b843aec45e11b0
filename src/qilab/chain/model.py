"""Twisted inhomogeneous spin-chain transfer matrices and their checks.

A chain is a list of L two-dimensional sites with parameters b_1..b_L, an
auxiliary space with parameter a, a deformation parameter q, and a diagonal
twist diag(u, u^-1).  The monodromy of an auxiliary line is the ordered
product of fundamental solutions on (aux, site_l) at arguments z*a/b_l,
site L leftmost.  The transfer matrix is the twisted auxiliary trace
u*A(z) + u^-1*D(z).

Each identity is written once, as its two sides over a ring, and one
builder serves both rings: ``_Ring.lines`` builds the product of one or
two auxiliary lines, with optional factors before and after, from the
identity as one stream of (factor, slots) steps, site by site.  The exact
ring hands it to ``field.apply_on_slots``, one packed call on sparse rows,
and the numeric ring feeds it, one factor at a time, to
``field.np_spin_apply`` on popcount blocks.  Each ring's ``transfer`` is
built from the aux corners A, B, C, D of one line, site by site
(``field.spin_transfer``, ``field.np_spin_transfer``): each new site is the
leading bit, so each new entry is one product, about (4/3)*C(2L, L)
numeric entries per transfer instead of the L*C(2L+2, L+1) of streaming
every factor through the (L+1)-slot monodromy.  No factor is embedded as a
dense matrix and no line is kept between checks.  The factors come from
``rmatrix``: ``cleared_r`` at the spec's q, symbolic or pinned, for the
exact ring and ``numeric_r`` for the numeric one.  ``_Exact`` compares
cleared polynomial matrices at symbolic z, w: every factor is scaled by its
corner denominator and the twist by u, so both sides carry the same scalar.
``_Numeric`` takes the worst residual over seeded sample points, on popcount
blocks, since every factor conserves aux plus site spin.  Each ring has one
auxiliary trace, ``trace_first``, over slot 0 weighted by diag(w0, w1); a
transfer equals that trace of one line weighted by the twist, which tests
check.
``transfer_sectors`` hands the numeric sectors to the spectrum.
``commute`` takes both products of T(z) and T(w) from ``both_orders``: the
exact T(w) is T(z) with z and w exchanged, a ring automorphism, so the
exact ring multiplies once and exchanges z and w in the product.
"""

from __future__ import annotations

import itertools
import json
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

from ..field import (
    MPoly,
    RatFun,
    apply_on_slots,
    kron,
    mat_eq,
    mat_mul,
    np_residual,
    np_spin_apply,
    np_spin_dense,
    np_spin_identity,
    np_spin_index,
    np_spin_trace_first,
    np_spin_transfer,
    spin_transfer,
)
from ..verdict import CheckResult
from ..rmatrix import cleared_r, numeric_r

__all__ = [
    "ChainSpec",
    "parse_complex",
    "transfer_cleared",
    "transfer_numeric",
    "transfer_sectors",
    "sample_point",
    "off_poles",
    "check_rtt",
    "check_commute",
    "check_multiplicativity",
]


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


def _rational(text: str, error: str) -> Fraction:
    """Exact literal that must be a rational constant; ``error`` otherwise."""
    v = RatFun.parse(text)
    if not v.is_const():
        raise ValueError(error)
    return v.as_fraction()


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

    # exact accessors

    def q_is_symbolic(self) -> bool:
        return self.q.strip() == "q"

    def q_fraction(self) -> Fraction:
        return _rational(self.q, "q is not a rational constant in this chain")

    def a_fraction(self) -> Fraction:
        return _rational(self.a, "aux parameter must be a rational constant")

    def site_fraction(self, l: int) -> Fraction:
        f = _rational(self.sites[l], "site parameters must be rational constants")
        if f == 0:
            raise ValueError("site parameters must be nonzero")
        return f

    def ratios(self, a_override: Fraction | None = None) -> list[Fraction]:
        a = self.a_fraction() if a_override is None else Fraction(a_override)
        return [a / self.site_fraction(l) for l in range(self.L)]

    def twist_is_symbolic(self) -> bool:
        return self.twist.strip() == "u"

    def twist_fraction(self) -> Fraction:
        f = _rational(self.twist, "twist is not a rational constant in this chain")
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


class _Ring:
    """The factor stream both rings share; a ring supplies ``apply_slots``
    (the identity on n slots times a stream of 4x4 factors, each on two
    slots), the site ``ratios`` a / b_l and the factor ``r``.  The exact
    ring looks every field function up at call time, so perfbench's
    tracer, which rebinds module names, sees the calls."""

    def __init__(self, spec: ChainSpec):
        self.spec = spec

    def lines(self, lines, before=(), after=()):
        """The product of the ``before`` steps, the lines' factors and the
        ``after`` steps, from the identity, as one stream of ``(F, slots)``.

        It acts on the aux slots 0..max(slot) of the lines and the sites.
        At each site the lines apply in the order given; factors of
        different lines on different sites commute, so this equals the
        product of whole line monodromies.
        """
        first = max(slot for slot, _, _ in lines) + 1
        ratios = [self.ratios(a) for _, _, a in lines]
        steps = (
            (self.r(z * rho[l]), (slot, first + l))
            for l in range(self.spec.L - 1, -1, -1)
            for (slot, z, _), rho in zip(lines, ratios)
        )
        n = first + self.spec.L
        return self.apply_slots(n, itertools.chain(before, steps, after))


class _Exact(_Ring):
    """Cleared polynomial matrices, q pinned when the spec fixes it."""

    mode = "exact"
    mul = staticmethod(lambda A, B: mat_mul(A, B))
    dense = staticmethod(lambda M: M)
    kron = staticmethod(lambda A, B: kron(A, B))
    apply_slots = staticmethod(lambda n, steps: apply_on_slots(n, steps))

    def __init__(self, spec: ChainSpec):
        super().__init__(spec)
        self._q = (
            MPoly.var("q") if spec.q_is_symbolic() else MPoly.const(spec.q_fraction())
        )

    def a(self) -> Fraction:
        return self.spec.a_fraction()

    def ratios(self, a) -> list:
        return self.spec.ratios(a)

    def r(self, zeta):
        return cleared_r(zeta, 1, self._q)

    def twist(self):
        """diag(u, 1/u) cleared by u: diag(u^2, 1), or diag(p^2, r^2) for u = p/r."""
        if self.spec.twist_is_symbolic():
            p, r = MPoly.var("u"), MPoly.const(1)
        else:
            t = self.spec.twist_fraction()
            p, r = MPoly.const(t.numerator), MPoly.const(t.denominator)
        return [[p * p, MPoly.zero()], [MPoly.zero(), r * r]]

    def transfer(self, z, a=None):
        """u * A(z) + u^-1 * D(z), cleared by u * prod(corners), built from
        the aux corners of one line site by site (``spin_transfer``)."""
        tw = self.twist()
        factors = [self.r(z * rho) for rho in self.ratios(a)]
        return spin_transfer(factors, tw[0][0], tw[1][1])

    @staticmethod
    def both_orders(A, B):
        """``(A·B, B·A)``.  Exchanging z and w is a ring automorphism, so when
        it turns A into B, B·A is A·B exchanged and one product serves."""
        swap = lambda M: [[x.exchange("z", "w") if x else x for x in r] for r in M]
        AB = mat_mul(A, B)
        return AB, swap(AB) if mat_eq(swap(A), B) else mat_mul(B, A)

    @staticmethod
    def trace_first(M, w0, w1):
        """Trace over slot 0 (the leading bit) weighted by diag(w0, w1)."""
        H = len(M) // 2
        return [
            [w0 * M[i][j] + w1 * M[H + i][H + j] for j in range(H)] for i in range(H)
        ]

    def compare(self, sides, points, details, seed, samples, tol):
        """Polynomial equality of the two sides at symbolic z (and w)."""
        return mat_eq(*sides(*[MPoly.var(v) for v in "zw"[:points]])), details


class _Numeric(_Ring):
    """complex128 spin blocks, stored transposed: a transfer is built from
    its corners, a product of lines in place; ``mul`` is dense and
    ``both_orders`` multiplies block by block."""

    mode = "numeric"
    mul = staticmethod(np.matmul)
    kron = staticmethod(np.kron)
    dense = staticmethod(np_spin_dense)
    trace_first = staticmethod(np_spin_trace_first)

    @staticmethod
    def apply_slots(n, steps):
        blocks = np_spin_identity(n)
        for F, slots in steps:
            np_spin_apply(blocks, F, slots)
        return blocks

    def a(self) -> complex:
        return self.spec.a_complex()

    def ratios(self, a) -> tuple:
        return self.spec.site_ratios_complex(a)

    @staticmethod
    def both_orders(A, B) -> tuple:
        """Spin blocks of ``(A·B, B·A)``; blocks are stored transposed, so
        each block of A·B is B's block times A's."""
        return [Y @ X for X, Y in zip(A, B)], [X @ Y for X, Y in zip(A, B)]

    def r(self, zeta) -> np.ndarray:
        return numeric_r(zeta, self.spec.q_complex())

    def twist(self) -> np.ndarray:
        u = self.spec.twist_complex()
        return np.diag([u, 1 / u]).astype(complex)

    def transfer(self, z, a=None) -> list:
        """Spin blocks of u * A(z) + u^-1 * D(z): the transposed views of
        ``transfer_sectors``."""
        return [B.T for B in transfer_sectors(self.spec, z, a)]

    def compare(self, sides, points, details, seed, samples, tol):
        """Worst residual of the two sides over seeded sample points."""
        if samples < 1:
            raise ValueError("samples must be at least 1")
        rng = np.random.default_rng(seed)
        worst = 0.0
        for _ in range(samples):
            z = [sample_point(self.spec, rng) for _ in range(points)]
            worst = max(worst, np_residual(*sides(*z)))
        return worst < tol, {"residual": worst, "tolerance": tol}


def _ring(spec: ChainSpec, mode: str):
    if mode == "exact":
        return _Exact(spec)
    if mode == "numeric":
        return _Numeric(spec)
    raise ValueError("mode must be exact or numeric")


def transfer_cleared(spec: ChainSpec, z: MPoly, a: Fraction | None = None):
    """Cleared transfer matrix on the site space, ``a=None`` the spec's a.

    With the twist cleared to diag(u^2, 1) this equals u * prod(corners)
    times the true transfer matrix; identical scalars cancel in every
    comparison the package makes.
    """
    return _Exact(spec).transfer(z, a)


def transfer_numeric(
    spec: ChainSpec, z: complex, a: complex | None = None
) -> np.ndarray:
    return np_spin_dense(_Numeric(spec).transfer(z, a))


def transfer_sectors(spec: ChainSpec, z: complex, a: complex | None = None) -> list:
    """The blocks of ``transfer_numeric`` by magnon number m = 0..L.

    Block m is the transfer matrix on the site states of popcount m, in
    increasing index order, C-contiguous.
    """
    q, u = spec.q_complex(), spec.twist_complex()
    factors = [numeric_r(z * rho, q) for rho in spec.site_ratios_complex(a)]
    return np_spin_transfer(factors, u, 1 / u)


def off_poles(spec: ChainSpec, z: complex) -> bool:
    """Whether every zeta = z * rho_l keeps clear of the factor pole q^-2
    (by 1e-3) and of the permutation point 1 (by 1e-6)."""
    qinv2 = spec.q_complex() ** -2
    for rho in spec.site_ratios_complex():
        zeta = z * rho
        if abs(zeta - qinv2) < 1e-3 or abs(zeta - 1) < 1e-6:
            return False
    return True


def sample_point(spec: ChainSpec, rng) -> complex:
    """Seeded sample in an annulus, kept away from the factor poles."""
    for _ in range(1000):
        r = 0.5 + rng.random()
        theta = 2 * np.pi * rng.random()
        z = r * np.exp(1j * theta)
        if off_poles(spec, z):
            return complex(z)
    raise RuntimeError("could not sample away from the poles")


def _doubled(M, i, j):
    """A copy of ``M`` with entry (i, j) doubled: the --perturb controls.

    Numeric spin blocks (stored transposed) double that entry of their
    dense form, which is zero unless states i and j share a block."""
    if isinstance(M, list) and isinstance(M[0], np.ndarray):
        (m, r), (mj, c) = (np_spin_index(len(M) - 1, k) for k in (i, j))
        M = [B.copy() for B in M]
        if m == mj:
            M[m][c, r] *= 2
        return M
    M = M.copy() if isinstance(M, np.ndarray) else [row[:] for row in M]
    M[i][j] *= 2
    return M


def _verdict(name, ring, sides, points, seed, perturb, samples, tol, details):
    """Run one identity in ``ring``; ``details`` are reported in exact mode."""
    ok, details = ring.compare(sides, points, details, seed, samples, tol)
    details.update(mode=ring.mode, L=ring.spec.L, perturbed=bool(perturb))
    return CheckResult(name=name, ok=ok, details=details)


def check_rtt(
    spec: ChainSpec,
    mode: str = "exact",
    seed: int = 0,
    perturb=False,
    samples: int = 2,
    tol: float = 1e-10,
) -> CheckResult:
    """Exchange of two monodromies through one fundamental factor:
    R12 T13(z*w) T23(w) = T23(w) T13(z*w) R12(z).

    ``perturb`` doubles the entry (1,2) of R12.
    """
    ring = _ring(spec, mode)

    def sides(z, w):
        r = ring.r(z)
        if perturb:
            r = _doubled(r, 1, 2)
        t13, t23 = (0, z * w, None), (1, w, None)
        lhs = ring.lines([t13, t23], before=[(r, (0, 1))])
        rhs = ring.lines([t23, t13], after=[(r, (0, 1))])
        return lhs, rhs

    exact = {"entries_compared": (4 * (1 << spec.L)) ** 2}
    return _verdict("rtt", ring, sides, 2, seed, perturb, samples, tol, exact)


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
    ring = _ring(spec, mode)

    def sides(z, w):
        Tz, Tw = ring.transfer(z), ring.transfer(w)
        if perturb:
            Tw = _doubled(Tw, 1, 2)
        return ring.both_orders(Tz, Tw)

    exact = {"q": spec.q, "twist": spec.twist}
    return _verdict("commute", ring, sides, 2, seed, perturb, samples, tol, exact)


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

    The twisted trace over both auxiliary lines, the second at a2 (2a by
    default), must equal the product of the two transfer matrices.
    ``perturb`` omits the twist on the second auxiliary slot.
    """
    ring = _ring(spec, mode)
    a1 = ring.a()
    a2 = a1 * 2 if a2 is None else type(a1)(a2)
    tw = ring.twist()
    tw12 = ring.kron(tw, [[1, 0], [0, 1]] if perturb else tw)

    def sides(z):
        pair = ring.lines([(0, z, None), (1, z, a2)], before=[(tw12, (0, 1))])
        pair = ring.dense(ring.trace_first(ring.trace_first(pair, 1, 1), 1, 1))
        t1, t2 = (ring.dense(ring.transfer(z, a)) for a in (None, a2))
        return pair, ring.mul(t1, t2)

    exact = {"a1": str(a1), "a2": str(a2)}
    return _verdict(
        "multiplicativity", ring, sides, 1, seed, perturb, samples, tol, exact
    )
