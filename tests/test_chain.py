"""Monodromy, transfer matrices, and their exchange identities."""

import os
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest

import qilab
from qilab.chain import (
    ChainSpec,
    check_commute,
    check_multiplicativity,
    check_rtt,
    parse_complex,
    sample_point,
    transfer_sectors,
)
from qilab.chain import model as model_module
from qilab.chain.model import _Exact, _Numeric, _doubled
from qilab.chain.spectrum import vacuum
from qilab.field import (
    MPoly,
    RatFun,
    kron,
    mat_eq,
    mat_mul,
    np_residual,
    np_spin_dense,
    orders_differ,
    spin_transfer,
)
from qilab.field import poly as poly_module
from qilab.rmatrix import numeric_r
from slot_oracles import np_apply_on_slots


def _dense_transfer(spec, z):
    # the numeric transfer as one dense matrix; spin blocks are stored
    # transposed
    return np_spin_dense([B.T for B in transfer_sectors(spec, z)])


def test_parse_complex_forms():
    assert parse_complex("3/4") == 0.75
    assert parse_complex("2") == 2.0
    assert abs(parse_complex("0.83+0.21*i") - (0.83 + 0.21j)) < 1e-15
    assert abs(parse_complex("i") - 1j) < 1e-15
    assert abs(parse_complex("1-2i") - (1 - 2j)) < 1e-15


def test_spec_schema():
    s = ChainSpec.from_json({"L": 2, "q": "3/5"})
    assert s.L == 2 and s.sites == ("1", "1") and s.twist == "u"
    with pytest.raises(ValueError):
        ChainSpec.from_json({"q": "2"})
    with pytest.raises(ValueError):
        ChainSpec.from_json({"L": 1, "bogus": 1})
    with pytest.raises(ValueError):
        ChainSpec.from_json({"L": 2, "sites": ["1"]})


def test_spec_exact_accessors():
    s = ChainSpec.from_json({"L": 1, "q": "2", "twist": "3"})
    assert not s.q_is_symbolic()
    assert s.q_fraction() == 2
    assert s.twist_fraction() == 3
    sym = ChainSpec.from_json({"L": 1})
    assert sym.q_is_symbolic() and sym.twist_is_symbolic()


def test_l1_transfer_golden_strings():
    # diagonal of the cleared 2x2 transfer at L=1, fully symbolic
    s = ChainSpec.from_json({"L": 1})
    T = _Exact(s).transfer(MPoly.var("z"))
    assert str(T[0][0]) == "z*u^2*q^2 + z*q - u^2 - q"
    assert str(T[1][1]) == "z*u^2*q + z*q^2 - u^2*q - 1"
    assert T[0][1].is_zero() and T[1][0].is_zero()


def test_transfer_cleared_entries_are_all_mpoly():
    # zeros included: callers read every entry with MPoly methods
    for fields in ({"L": 2}, {"L": 3, "q": "3/5", "twist": "2"}):
        T = _Exact(ChainSpec.from_json(fields)).transfer(MPoly.var("z"))
        assert all(isinstance(x, MPoly) for row in T for x in row)
        assert any(x.is_zero() for row in T for x in row)


def test_vacuum_ratio_golden():
    # the one d(z) of the package against the exact L=1 form, a(z) = 1
    golden = RatFun.parse("(z*q - q)/(z*q^2 - 1)")
    points = [(0.83 + 0.21j, 1.3 - 0.2j), (2.5 - 0.4j, 0.6 + 0.7j), (-0.7 + 1.1j, -2.0)]
    for q, z in points:
        s = ChainSpec.from_json({"L": 1, "q": f"{q.real}{q.imag:+}*i"})
        want = golden.eval_complex({"q": q, "z": z})
        assert abs(vacuum(s, z)[2] - want) < 1e-14 * abs(want)


@pytest.mark.parametrize(
    "spec",
    [
        {"L": 6, "q": "0.83+0.21*i", "twist": "0.64+0.13*i"},
        {
            "L": 4,
            "q": "0.83+0.21*i",
            "a": "1.1-0.3*i",
            "sites": ["1", "0.7+0.2*i", "1.9", "-1.2+0.5*i"],
        },
    ],
    ids=["generic", "inhomogeneous"],
)
def test_vacuum_is_the_r_matrix_corner_product(spec):
    # d(z) is the product over sites of the all-up entry R[1][1] of the
    # fundamental solution, and the cleared products obey q^L D d = P
    s = ChainSpec.from_json(spec)
    q = s.q_complex()
    rng = np.random.default_rng(3)
    for _ in range(5):
        z = sample_point(s, rng)
        D, P, d = vacuum(s, z)
        want = 1.0 + 0j
        for rho in s.site_ratios_complex():
            want *= numeric_r(z * rho, q)[1, 1]
        assert abs(d - want) <= 1e-15 * abs(want)
        assert abs(q**s.L * D * d - P) <= 1e-13 * abs(P)


def test_exact_trace_first_of_product_state():
    # the weighted trace over slot 0 of A (x) B is (w0 A00 + w1 A11) B
    A = [[MPoly.const(a) for a in row] for row in [[1, 2], [3, 4]]]
    B = [[MPoly.var("z"), MPoly.const(5)], [MPoly.zero(), MPoly.var("q") + 7]]
    w0, w1 = MPoly.var("u"), MPoly.const(Fraction(2, 3))
    scale = w0 * A[0][0] + w1 * A[1][1]
    want = [[scale * e for e in row] for row in B]
    assert mat_eq(_Exact.trace_first(kron(A, B), w0, w1), want)


def test_numeric_r_unitarity_point():
    q = 0.7 + 0.1j
    z = 1.3 - 0.2j
    R = numeric_r(z, q)
    P = np.zeros((4, 4), dtype=complex)
    for pair in ((0, 0), (1, 2), (2, 1), (3, 3)):
        P[pair] = 1
    Rb = P @ numeric_r(1 / z, q) @ P
    assert np.max(np.abs(R @ Rb - np.eye(4))) < 1e-12


def test_sample_point_respects_guards():
    s = ChainSpec.from_json({"L": 2, "q": "0.83+0.21*i", "twist": "0.64+0.13*i"})
    rng = np.random.default_rng(0)
    qinv2 = 1 / s.q_complex() ** 2
    for _ in range(10):
        z = sample_point(s, rng)
        assert 0.4 < abs(z) < 1.6
        for l in range(s.L):
            zeta = z * s.a_complex() / s.site_complex(l)
            assert abs(zeta - qinv2) > 1e-3


@pytest.mark.parametrize("L", range(1, 6))
@pytest.mark.parametrize("q, twist", [("q", "u"), ("3/5", "2/3")])
def test_exact_corner_built_transfer_equals_the_traced_line(L, q, twist):
    # the exact corner kernel against the factor stream that rtt and
    # multiplicativity use: one line on aux slot 0, traced with the twist
    sites = [("1", "2", "1/3")[l % 3] for l in range(L)]
    s = ChainSpec.from_json({"L": L, "q": q, "twist": twist, "a": "3/2", "sites": sites})
    ring = _Exact(s)
    (w0, _), (_, w1) = ring.twist()
    z = MPoly.var("z")
    for a in (None, Fraction(2, 3)):
        T = ring.transfer(z, a)
        assert mat_eq(T, _Exact.trace_first(ring.lines([(0, z, a)]), w0, w1))
        # zeros included: callers read every entry with MPoly methods
        assert all(isinstance(x, MPoly) for row in T for x in row)


def _broken_cleared_r(scale, entry=(2, 1)):
    """``cleared_r`` with one entry, R[2][1] (c1) by default, times
    ``scale(zeta)``."""
    good = model_module.cleared_r

    def broken(zn, zd=1, q=None):
        R = good(zn, zd, q)
        i, j = entry
        R[i][j] = R[i][j] * scale(zn)
        return R

    return broken


# the defects of ROADMAP item 8, as in tests/test_rmatrix.py
_DEFECTS = {
    "R21x2": ((2, 1), lambda zeta: 2),
    "R21x(1+zeta)": ((2, 1), lambda zeta: 1 + zeta),
    "R12x2": ((1, 2), lambda zeta: 2),
    "R11x2": ((1, 1), lambda zeta: 2),
    "R22x(1+zeta)": ((2, 2), lambda zeta: 1 + zeta),
}


def _first_row(A, B):
    # the materialised verdict: mat_eq, row by row
    return next((i for i, (x, y) in enumerate(zip(A, B)) if not mat_eq([x], [y])), None)


def _materialised_rtt(spec):
    """First differing row of check_rtt's two sides, each built whole."""
    ring = _Exact(spec)
    z, w = MPoly.var("z"), MPoly.var("w")
    r = ring.r(z)
    t13, t23 = (0, z * w, None), (1, w, None)
    lhs = ring.lines([t13, t23], before=[(r, (0, 1))])
    rhs = ring.lines([t23, t13], after=[(r, (0, 1))])
    return _first_row(lhs, rhs)


def _materialised_commute(spec):
    """First differing row of T(z)·T(w) against T(w)·T(z), both built whole."""
    ring = _Exact(spec)
    Tz, Tw = (ring.transfer(MPoly.var(v)) for v in "zw")
    return _first_row(mat_mul(Tz, Tw), mat_mul(Tw, Tz))


def _row_verdict(cr):
    assert cr.ok == ("first_differing_row" not in cr.details)
    return cr.details.get("first_differing_row")


@pytest.mark.parametrize("q", ["q", "3/5"])
@pytest.mark.parametrize("defect", [None, *_DEFECTS])
def test_row_comparison_gives_the_materialised_verdict(monkeypatch, defect, q):
    # rtt at L <= 4, and commute where a broken R can show (L=4, and the
    # inhomogeneous L=3 chain): the row-by-row verdict and its first
    # differing row are those of the sides built whole
    if defect:
        monkeypatch.setattr(model_module, "cleared_r", _broken_cleared_r(*_DEFECTS[defect][::-1]))
    rtt_rows = []
    for L in range(1, 5):
        s = ChainSpec.from_json({"L": L, "q": q})
        rtt_rows.append(_row_verdict(check_rtt(s, mode="exact")))
        assert rtt_rows[-1] == _materialised_rtt(s)
    commute_rows = []
    for sites in (["1"] * 4, ["1", "2", "3/2"]):
        s = ChainSpec.from_json({"L": len(sites), "q": q, "sites": sites})
        commute_rows.append(_row_verdict(check_commute(s, mode="exact")))
        assert commute_rows[-1] == _materialised_commute(s)
    # every defect fails both checks somewhere; the true R passes everywhere
    assert (set(rtt_rows) == {None}) == (defect is None)
    assert (set(commute_rows) == {None}) == (defect is None)


def _count_rows(monkeypatch, name) -> list:
    """Record each row that ``poly.<name>`` builds."""
    built = []
    rows = getattr(poly_module, name)

    def counting(*args):
        for row in rows(*args):
            built.append(row)
            yield row

    monkeypatch.setattr(poly_module, name, counting)
    return built


def test_a_perturbed_control_stops_at_its_first_differing_row(monkeypatch):
    # each side builds one row per step of the comparison, so a failure
    # builds both sides up to the row that differs and no further
    built = _count_rows(monkeypatch, "_rows")
    s = ChainSpec.from_json({"L": 3, "q": "q"})
    assert check_rtt(s, mode="exact").ok
    assert len(built) == 2 * 2**5
    built.clear()
    cr = check_rtt(s, mode="exact", perturb=True)
    row = cr.details["first_differing_row"]
    assert len(built) == 2 * (row + 1) < 2 * 2**5
    # a failure counts the entries of the rows compared, 32 per row
    assert cr.details["entries_compared"] == 32 * (row + 1)
    built = _count_rows(monkeypatch, "_product_rows")
    s = ChainSpec.from_json({"L": 4, "q": "3/5"})
    assert check_commute(s, mode="exact").ok
    assert len(built) == 2**4
    built.clear()
    cr = check_commute(s, mode="exact", perturb=True)
    assert len(built) == 2 * (cr.details["first_differing_row"] + 1) < 2 * 2**4


@pytest.mark.slow
def test_exact_rtt_at_five_and_six_sites_stays_under_64_mb():
    # the symbolic rtt with both sides held whole peaked at about 120 MB at
    # L=5 and 480 MB at L=6, one row at a time at about 33 and 38 MB; commute
    # at L=6, whose two packed sides are rekeyed to box indices, at about 35
    # MB.  Linux keeps a process's peak RSS across exec, so a child of the
    # test process would start from pytest's own peak; a small launcher in
    # between starts each check from a few MB
    env = {
        **os.environ,
        "OPENBLAS_NUM_THREADS": "1",
        "PYTHONPATH": os.path.dirname(os.path.dirname(qilab.__file__)),
    }
    for name, L in (("rtt", 5), ("rtt", 6), ("commute", 6)):
        check = (
            f"import resource; from qilab.chain import ChainSpec, check_{name}; "
            f"ok = check_{name}(ChainSpec.from_json({{'L': {L}}}), mode='exact').ok; "
            "print(ok, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)"
        )
        launcher = f"import subprocess, sys; subprocess.run([sys.executable, '-c', {check!r}], check=True)"
        out = subprocess.run(
            [sys.executable, "-c", launcher], env=env, capture_output=True, text=True, check=True
        )
        ok, kb = out.stdout.split()
        assert ok == "True" and int(kb) < 64 * 1024, (name, L, kb)


@pytest.mark.parametrize("q", ["q", "3/5"])
@pytest.mark.parametrize("sites", [["1"] * 4, ["1", "2", "3/2"]], ids=["L4", "L3-inhomogeneous"])
@pytest.mark.parametrize(
    "scale", [lambda zeta: 2, lambda zeta: 1 + zeta], ids=["doubled", "times-1+zeta"]
)
def test_a_broken_r_matrix_fails_exact_commute(monkeypatch, scale, sites, q):
    # the broken family is still exchanged by z <-> w, so the one-product
    # path runs; on homogeneous chains it needs L >= 4 to fail (README)
    s = ChainSpec.from_json({"L": len(sites), "q": q, "sites": sites})
    assert check_commute(s, mode="exact").ok
    monkeypatch.setattr(model_module, "cleared_r", _broken_cleared_r(scale))
    products, _ = _count_row_products(monkeypatch)
    assert not check_commute(s, mode="exact").ok
    assert len(products) == 1


def _count_products(monkeypatch) -> list:
    """Record the size of each ``mat_mul`` that ``chain.model`` calls."""
    products = []

    def counting(A, B):
        products.append(len(A))
        return mat_mul(A, B)

    monkeypatch.setattr(model_module, "mat_mul", counting)
    return products


def _count_row_products(monkeypatch) -> tuple:
    """Record the row count of each product whose rows exact ``commute``
    builds, each one ``poly._product_rows`` generator, and the ``swap`` of
    each ``orders_differ`` call, which ``chain.model`` looks up at call time."""
    products, calls = [], []
    rows = poly_module._product_rows

    def counting(PA, PB):
        products.append(len(PA))
        return rows(PA, PB)

    def looked_up(A, B, swap=None):
        calls.append(swap)
        return orders_differ(A, B, swap)

    monkeypatch.setattr(poly_module, "_product_rows", counting)
    monkeypatch.setattr(model_module, "orders_differ", looked_up)
    return products, calls


def test_exact_commute_multiplies_once_unless_perturbed(monkeypatch):
    products, calls = _count_row_products(monkeypatch)
    s = ChainSpec.from_json({"L": 3, "q": "3/5", "sites": ["1", "2", "3/2"]})
    assert check_commute(s, mode="exact").ok
    assert products == [8] and calls == [("z", "w")]
    assert not check_commute(s, mode="exact", perturb=True).ok
    assert products == [8, 8, 8] and calls == [("z", "w"), None]


def test_exact_commute_builds_one_transfer(monkeypatch):
    # T(w) is T(z) exchanged, perturbed or not; the numeric ring builds at
    # both sampled points
    built = []

    def counted(factors, w0, w1):
        built.append(len(factors))
        return spin_transfer(factors, w0, w1)

    monkeypatch.setattr(model_module, "spin_transfer", counted)
    s = ChainSpec.from_json({"L": 3, "q": "3/5", "sites": ["1", "2", "3/2"]})
    for perturb in (False, True):
        built.clear()
        assert check_commute(s, mode="exact", perturb=perturb).ok is not perturb
        assert built == [3]
    s = ChainSpec.from_json({"L": 3, "q": "0.83+0.21*i", "twist": "0.64+0.13*i"})
    for perturb in (False, True):
        built.clear()
        assert check_commute(s, mode="numeric", perturb=perturb, samples=3).ok is not perturb
        assert built == [3] * 6


def test_exact_multiplicativity_looks_up_its_product_and_kron(monkeypatch):
    # the exact ring reads both field functions at call time, so a rebound
    # module name (perfbench's tracer) sees the calls
    products = _count_products(monkeypatch)
    krons = []

    def counting_kron(A, B):
        krons.append((len(A), len(B)))
        return kron(A, B)

    monkeypatch.setattr(model_module, "kron", counting_kron)
    assert check_multiplicativity(ChainSpec.from_json({"L": 2, "q": "3/5"})).ok
    assert products == [4] and krons == [(2, 2)]


def test_numeric_identities_need_a_sample():
    s = ChainSpec.from_json({"L": 2, "q": "0.83+0.21*i", "twist": "0.64+0.13*i"})
    for check in (check_rtt, check_commute, check_multiplicativity):
        with pytest.raises(ValueError, match="samples must be at least 1"):
            check(s, mode="numeric", samples=0)


def test_rtt_exact_small_l():
    for L in (1, 2):
        s = ChainSpec.from_json({"L": L, "q": "3/5"})
        assert check_rtt(s, mode="exact").ok
    assert not check_rtt(ChainSpec.from_json({"L": 2, "q": "3/5"}), mode="exact", perturb=True).ok


def test_rtt_exact_symbolic_q_l4():
    assert check_rtt(ChainSpec.from_json({"L": 4, "q": "q"}), mode="exact").ok


def test_rtt_exact_symbolic_q_perturb_fails():
    s = ChainSpec.from_json({"L": 3, "q": "q"})
    assert not check_rtt(s, mode="exact", perturb=True).ok


def test_rtt_numeric():
    s = ChainSpec.from_json({"L": 4, "q": "0.83+0.21*i", "twist": "0.64+0.13*i"})
    cr = check_rtt(s, mode="numeric")
    assert cr.ok and cr.details["residual"] < 1e-10
    assert not check_rtt(s, mode="numeric", perturb=True).ok


def test_commute_exact_and_numeric():
    for L in (2, 3):
        s = ChainSpec.from_json({"L": L, "q": "3/5"})
        assert check_commute(s, mode="exact").ok
        assert not check_commute(s, mode="exact", perturb=True).ok
    s8 = ChainSpec.from_json({"L": 8, "q": "0.83+0.21*i", "twist": "0.64+0.13*i"})
    cr = check_commute(s8, mode="numeric")
    assert cr.ok and cr.details["residual"] < 1e-10
    assert not check_commute(s8, mode="numeric", perturb=True).ok


def test_commute_perturb_needs_two_sites():
    s = ChainSpec.from_json({"L": 1, "q": "2"})
    with pytest.raises(ValueError):
        check_commute(s, perturb=True)


def test_commute_inhomogeneous_exact():
    s = ChainSpec.from_json({"L": 2, "q": "3/5", "sites": ["1", "2"]})
    assert check_commute(s, mode="exact").ok


def test_multiplicativity_exact_and_numeric():
    for L in (1, 2):
        s = ChainSpec.from_json({"L": L, "q": "3/5"})
        assert check_multiplicativity(s, mode="exact").ok
    s = ChainSpec.from_json({"L": 2, "q": "3/5"})
    assert not check_multiplicativity(s, mode="exact", perturb=True).ok
    s5 = ChainSpec.from_json({"L": 5, "q": "0.83+0.21*i", "twist": "0.64+0.13*i"})
    cr = check_multiplicativity(s5, mode="numeric")
    assert cr.ok and cr.details["residual"] < 1e-10
    assert not check_multiplicativity(s5, mode="numeric", perturb=True).ok


def test_multiplicativity_numeric_fresh_start_per_sample():
    # a start matrix left mutated by one sample would spoil the next
    s = ChainSpec.from_json(
        {
            "L": 4,
            "q": "0.83+0.21*i",
            "twist": "0.64+0.13*i",
            "a": "3/2",
            "sites": ["1", "2", "1/3", "0.9+0.1*i"],
        }
    )
    cr = check_multiplicativity(s, mode="numeric", samples=3, tol=1e-12)
    assert cr.ok and cr.details["residual"] < 1e-12
    assert not check_multiplicativity(
        s, mode="numeric", samples=3, tol=1e-12, perturb=True
    ).ok


def test_transfer_sectors_return_fresh_arrays():
    s = ChainSpec.from_json({"L": 3, "q": "0.83+0.21*i", "twist": "0.64+0.13*i"})
    first = transfer_sectors(s, 0.7 + 0.2j)
    kept = [B.copy() for B in first]
    second = transfer_sectors(s, 0.7 + 0.2j)
    for A, B in zip(first, second):
        assert B is not A and not np.shares_memory(A, B)
        B[:] = 0
    assert all(np.array_equal(A, K) for A, K in zip(first, kept))
    assert all(
        np.array_equal(A, K) for A, K in zip(transfer_sectors(s, 0.7 + 0.2j), kept)
    )


def test_exact_checks_in_one_process_keep_line_monodromies_apart():
    # the transfer (one auxiliary slot) and the fused pair (two) share the
    # line (slot 0, z, a); a monodromy kept for one must not serve the other
    s = ChainSpec.from_json({"L": 2, "q": "3/5", "sites": ["1", "2"]})
    assert check_commute(s, mode="exact").ok
    assert check_rtt(s, mode="exact").ok
    assert check_multiplicativity(s, mode="exact").ok
    assert not check_rtt(s, mode="exact", perturb=True).ok
    assert not check_multiplicativity(s, mode="exact", perturb=True).ok
    assert check_commute(s, mode="exact").ok


def test_transfer_numeric_matches_cleared_at_rational_point():
    # same object through the exact and numeric pipelines, up to the
    # cleared scalar u * prod(corner_l)
    s = ChainSpec.from_json({"L": 2, "q": "2", "twist": "3"})
    z0 = Fraction(5, 7)
    T = _Exact(s).transfer(MPoly.const(z0))
    q = 2.0
    u = 3.0
    corner = (q * q * float(z0) - 1) ** 2
    Tn = _dense_transfer(s, complex(z0))
    H = 4
    for i in range(H):
        for j in range(H):
            exact_val = float(T[i][j].eval_fraction({}) if not T[i][j].is_zero() else 0)
            assert abs(exact_val - u * corner * Tn[i, j].real) < 1e-9
            assert abs(Tn[i, j].imag) < 1e-12


def _dense_site_factor(r4, l, L):
    # numeric_r on (aux, site l) of aux (x) L sites, as a sum of Kronecker
    # products of matrix units
    out = np.zeros((2 << L, 2 << L), dtype=complex)
    for row in range(4):
        for col in range(4):
            if r4[row, col] == 0:
                continue
            aux = np.zeros((2, 2))
            aux[row >> 1, col >> 1] = 1
            site = np.zeros((2, 2))
            site[row & 1, col & 1] = 1
            term = np.kron(aux, np.eye(1 << l))
            term = np.kron(np.kron(term, site), np.eye(1 << (L - l - 1)))
            out += r4[row, col] * term
    return out


def _dense_reference(s, z):
    """The transfer as one dense matrix: the product of Kronecker-embedded
    ``numeric_r`` factors, site L-1 leftmost, traced over aux with the twist."""
    q, u, L = s.q_complex(), s.twist_complex(), s.L
    M = np.eye(2 << L, dtype=complex)
    for l in range(L - 1, -1, -1):
        zeta = z * s.a_complex() / s.site_complex(l)
        M = M @ _dense_site_factor(numeric_r(zeta, q), l, L)
    H = 1 << L
    return u * M[:H, :H] + M[H:, H:] / u


def test_transfer_numeric_matches_dense_reference():
    L = 5
    s = ChainSpec.from_json(
        {
            "L": L,
            "q": "0.83+0.21*i",
            "twist": "0.64+0.13*i",
            "a": "3/2",
            "sites": ["1", "2", "1/3", "0.9+0.1*i", "5/4"],
        }
    )
    z = sample_point(s, np.random.default_rng(4))
    assert np_residual(_dense_transfer(s, z), _dense_reference(s, z)) < 1e-13


@pytest.mark.slow
def test_commute_numeric_scale_guard_l10():
    s = ChainSpec.from_json({"L": 10, "q": "0.83+0.21*i", "twist": "0.64+0.13*i"})
    cr = check_commute(s, mode="numeric", samples=1, tol=1e-10)
    assert cr.ok and cr.details["residual"] < 1e-10


def test_transfer_numeric_matches_general_slot_stream_l8():
    # inhomogeneous, so no site-independent aux gauge hides a wrong factor
    L = 8
    s = ChainSpec.from_json(
        {
            "L": L,
            "q": "0.83+0.21*i",
            "twist": "0.64+0.13*i",
            "a": "3/2",
            "sites": ["1", "2", "1/3", "0.9+0.1*i", "5/4", "3/2", "2/3", "1.1-0.2*i"],
        }
    )
    z = sample_point(s, np.random.default_rng(2))
    q, u = s.q_complex(), s.twist_complex()
    M = np.eye(2 << L, dtype=complex)
    for l in range(L - 1, -1, -1):
        zeta = z * s.a_complex() / s.site_complex(l)
        M = np_apply_on_slots(M, numeric_r(zeta, q), (0, 1 + l), [2] * (L + 1))
    H = 1 << L
    ref = u * M[:H, :H] + M[H:, H:] / u
    assert np_residual(_dense_transfer(s, z), ref) < 1e-14


def test_transfer_sectors_are_the_sector_slices_of_a_dense_reference():
    # compute_spectrum reads these blocks: block m is the slice of magnon
    # number m of the Kronecker-built dense transfer, which is zero between
    # magnon numbers
    L = 6
    s = ChainSpec.from_json(
        {
            "L": L,
            "q": "0.83+0.21*i",
            "twist": "0.64+0.13*i",
            "a": "0.7+0.2*i",
            "sites": ["1", "2", "1/3", "0.9+0.1*i", "5/4", "1.1-0.2*i"],
        }
    )
    z = sample_point(s, np.random.default_rng(4))
    ref = _dense_reference(s, z)
    pieces = transfer_sectors(s, z)
    pc = np.array([bin(i).count("1") for i in range(1 << L)])
    assert len(pieces) == L + 1
    for m, piece in enumerate(pieces):
        idx = np.flatnonzero(pc == m)
        assert piece.flags.c_contiguous
        assert np_residual(piece, ref[np.ix_(idx, idx)]) < 1e-13
    assert not np.any(ref[pc[:, None] != pc[None, :]])


def test_numeric_perturb_doubles_the_dense_entry_of_the_blocks():
    # numeric commute doubles entry (1, 2) of its transfer's spin blocks; it
    # must be the entry the dense --perturb control doubles
    s = ChainSpec.from_json({"L": 3, "q": "0.83+0.21*i", "twist": "0.64+0.13*i"})
    blocks = _Numeric(s).transfer(0.7 + 0.2j)
    dense = np_spin_dense(blocks)
    for i, j in ((1, 2), (3, 5), (1, 6)):
        doubled = np_spin_dense(_doubled(blocks, i, j))
        assert np.array_equal(doubled, _doubled(dense, i, j))
    assert np.array_equal(np_spin_dense(blocks), dense)


def test_block_residual_matches_the_dense_one():
    s = ChainSpec.from_json({"L": 4, "q": "0.83+0.21*i", "twist": "0.64+0.13*i"})
    a, b = (_Numeric(s).transfer(z) for z in (0.7 + 0.2j, -0.3 + 0.8j))
    assert np_residual(a, b) == np_residual(np_spin_dense(a), np_spin_dense(b))


SITES = ["1", "2", "1/3", "0.9+0.1*i", "5/4", "3/2", "2/3", "1.1-0.2*i", "0.7"]


@pytest.mark.parametrize("L", range(1, 10))
def test_corner_built_transfer_equals_the_traced_line(L):
    # the corner kernel against the factor stream that rtt and
    # multiplicativity use: one line on aux slot 0, traced with the twist
    s = ChainSpec.from_json(
        {"L": L, "q": "0.83+0.21*i", "twist": "0.64+0.13*i", "a": "0.7+0.2*i", "sites": SITES[:L]}
    )
    ring = _Numeric(s)
    u = s.twist_complex()
    for z, a in ((sample_point(s, np.random.default_rng(L)), None), (0.4 - 0.9j, 1.3 + 0.1j)):
        traced = ring.trace_first(ring.lines([(0, z, a)]), u, 1 / u)
        assert np_residual(ring.transfer(z, a), traced) < 1e-14


def test_a_spin_moving_r_matrix_entry_stops_the_transfer_build(monkeypatch):
    good = model_module.numeric_r

    def moving(zeta, q):
        R = good(zeta, q)
        R[0][3] = 0.1
        return R

    s = ChainSpec.from_json({"L": 7, "q": "0.83+0.21*i", "twist": "0.64+0.13*i"})
    monkeypatch.setattr(model_module, "numeric_r", moving)
    with pytest.raises(ValueError, match="spin-conserving"):
        transfer_sectors(s, 0.7 + 0.2j)
    with pytest.raises(ValueError, match="spin-conserving"):
        check_commute(s, mode="numeric")


def test_the_transfer_build_keeps_the_pole_error():
    s = ChainSpec.from_json({"L": 3, "q": "0.83+0.21*i", "twist": "0.64+0.13*i"})
    with pytest.raises(ZeroDivisionError):
        transfer_sectors(s, s.q_complex() ** -2)
