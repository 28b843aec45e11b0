"""Joint eigenbranches, shift-identity polynomials, root systems."""

from fractions import Fraction

import numpy as np
import pytest

from qilab.chain import spectrum as spectrum_module
from qilab.chain import (
    Branch,
    ChainSpec,
    check_bethe,
    check_tq,
    compute_spectrum,
    functional_residual,
    poly_roots,
    root_residuals,
    solve_roots_newton,
    solve_shift_poly,
)

L1 = ChainSpec.from_json({"L": 1, "q": "2", "twist": "3"})
L2 = ChainSpec.from_json({"L": 2, "q": "0.83+0.21*i", "twist": "0.64+0.13*i"})


def test_branch_count_and_sectors():
    sp = compute_spectrum(L1)
    assert len(sp.branches) == 2
    assert sorted(b.sector for b in sp.branches) == [0, 1]
    sp2 = compute_spectrum(L2)
    assert len(sp2.branches) == 4
    assert sorted(b.sector for b in sp2.branches) == [0, 1, 1, 2]


def test_branches_are_rational_in_z():
    sp = compute_spectrum(L2)
    for b in sp.branches:
        assert b.fit_residual < 1e-8
        assert len(b.ncoeffs) == L2.L + 1


def test_l1_golden_root():
    # at q=2, u=3 the one-excitation state has its root at exactly 7/34
    sp = compute_spectrum(L1)
    branch = next(b for b in sp.branches if b.sector == 1)
    coeffs = solve_shift_poly(sp, branch)
    roots = poly_roots(coeffs)
    assert len(roots) == 1
    assert abs(roots[0] - float(Fraction(7, 34))) < 1e-10
    rr = root_residuals(L1, 1, roots)
    assert max(rr) < 1e-12


def test_shift_terms_weights():
    sp = compute_spectrum(L1)
    branch = next(b for b in sp.branches if b.sector == 1)
    z = 0.9 + 0.1j
    lam, t1, t2 = sp.point(branch, z)
    # first weight u q^m, second u^-1 q^-m d(z); d(z) = (z - 1)/(2 (z - 1/4))
    assert abs(t1 - 3 * 2) < 1e-12
    assert abs(t2 - (z - 1) / (2 * (z - 0.25)) / 6) < 1e-12
    num = sum(c * z**k for k, c in enumerate(branch.ncoeffs))
    assert abs(lam - num / (z - 0.25)) < 1e-12


def test_vacuum_polynomial_is_constant():
    sp = compute_spectrum(L1)
    vac = next(b for b in sp.branches if b.sector == 0)
    coeffs = solve_shift_poly(sp, vac)
    assert len(coeffs) == 1
    assert abs(coeffs[0] - 1) < 1e-12
    assert functional_residual(sp, vac, coeffs) < 1e-10


def test_garbage_branch_has_no_polynomial():
    sp = compute_spectrum(L1)
    branch = next(b for b in sp.branches if b.sector == 1)
    bad = Branch(
        sector=1,
        ncoeffs=tuple(c * 1.37 + 0.1 for c in branch.ncoeffs),
        fit_residual=branch.fit_residual,
        lam0=branch.lam0,
    )
    with pytest.raises(RuntimeError):
        solve_shift_poly(sp, bad)


def test_degenerate_family_is_refused():
    flat = ChainSpec.from_json({"L": 2, "q": "1", "twist": "0.64+0.13*i"})
    with pytest.raises(RuntimeError):
        compute_spectrum(flat)


def test_check_tq_l2():
    cr = check_tq(L2)
    assert cr.ok
    assert cr.details["branches"] == 4
    assert cr.details["per_sector"] == {"0": 1, "1": 2, "2": 1}
    assert cr.details["worst_functional_residual"] < 1e-8
    assert cr.details["worst_root_residual"] < 1e-8
    assert not check_tq(L2, perturb=True).ok


def test_check_tq_sector_filter():
    cr = check_tq(L2, sector=1)
    solved = cr.details["solved"]
    assert [e["sector"] for e in solved] == [1, 1]
    assert cr.ok


def test_check_bethe_newton_agreement():
    cr = check_bethe(L2, 1)
    assert cr.ok
    for entry in cr.details["branches"]:
        assert entry["newton_matches"]
        assert entry["newton_final_residual"] < 1e-8
    assert not check_bethe(L2, 1, perturb=True).ok
    with pytest.raises(ValueError):
        check_bethe(L2, 5)


def test_out_of_range_sector_is_refused_before_any_spectrum(monkeypatch):
    def no_spectrum(*args, **kwargs):
        raise AssertionError("a spectrum was built")

    monkeypatch.setattr(spectrum_module, "compute_spectrum", no_spectrum)
    for bad in (-1, 3, 9):
        for check in (check_tq, check_bethe):
            with pytest.raises(ValueError, match="sector must lie between 0 and L"):
                check(L2, sector=bad)


def test_check_bethe_reports_a_collocation_breakdown_as_a_failure():
    # at seed 1 the one sector-7 branch of this chain has no one-dimensional
    # collocation null space; that is a failed verdict, not bad input
    spec = ChainSpec.from_json({"L": 7, "q": "0.83+0.21*i", "twist": "0.64+0.13*i"})
    cr = check_bethe(spec, 7, seed=1)
    assert not cr.ok
    assert cr.details["branches"] == [
        {"branch": 127, "error": "collocation null space is not one-dimensional"}
    ]


def test_newton_basin_from_perturbed_start():
    sp = compute_spectrum(L2)
    branch = next(b for b in sp.branches if b.sector == 1)
    coeffs = solve_shift_poly(sp, branch)
    roots = poly_roots(coeffs)
    start = [w * 1.01 for w in roots]
    solved, final = solve_roots_newton(L2, 1, start)
    assert final < 1e-10
    assert min(abs(solved[0] - w) for w in roots) < 1e-8


def test_seed_invariance_of_branches():
    # the recovered rational functions do not depend on the sample seed
    a = compute_spectrum(L2, seed=0)
    b = compute_spectrum(L2, seed=5)
    zt = 1.7 + 0.3j

    def profile(sp):
        return sorted(
            (br.sector, round(lam.real, 7), round(lam.imag, 7))
            for br in sp.branches
            for lam in [sp.point(br, zt)[0]]
        )

    assert profile(a) == profile(b)


def _fake_transfers(monkeypatch, base, sample):
    """Make ``compute_spectrum`` read L=2 sector blocks from ``base`` (at the
    base point) and ``sample(z)`` (at each sample point); returns the sizes
    of the matrices it inverts."""
    calls = []

    def sectors(spec, z, a=None):
        calls.append(z)
        blocks = base if len(calls) == 1 else sample(z)
        return [np.array(b, dtype=complex) for b in blocks]

    inverted = []
    inv = np.linalg.inv

    def counted_inv(M):
        inverted.append(len(M))
        return inv(M)

    monkeypatch.setattr(spectrum_module, "transfer_sectors", sectors)
    monkeypatch.setattr(np.linalg, "inv", counted_inv)
    return inverted


FINE = [[[2.0]], [[1.0, 0.0], [0.0, 3.0]], [[5.0]]]


def test_spectrum_failures_raise_lowest_sector_first(monkeypatch):
    # constant eigenvalues fit; exp(z) does not fit a degree-L numerator
    def sample(z):
        return [[[np.exp(z)]], [[1.0, 1.0], [0.0, 3.0]], [[5.0]]]

    degenerate = [FINE[0], [[1.0, 0.0], [0.0, 1.0]], FINE[2]]
    inverted = _fake_transfers(monkeypatch, degenerate, sample)
    with pytest.raises(RuntimeError, match="rational fit failed in sector 0"):
        compute_spectrum(L2)
    assert inverted == [1, 1]  # never the degenerate sector 1


def test_spectrum_failures_raise_in_stage_order_within_a_sector(monkeypatch):
    def tilted(z):
        return [FINE[0], [[np.exp(z), 1.0], [0.0, 3.0]], [[np.exp(z)]]]

    degenerate = [FINE[0], [[1.0, 0.0], [0.0, 1.0]], FINE[2]]
    _fake_transfers(monkeypatch, degenerate, tilted)
    with pytest.raises(RuntimeError, match="degenerate base-point spectrum in sector 1"):
        compute_spectrum(L2)
    monkeypatch.undo()
    _fake_transfers(monkeypatch, FINE, tilted)
    with pytest.raises(RuntimeError, match="joint eigenbasis failed in sector 1"):
        compute_spectrum(L2)
    monkeypatch.undo()

    def unfit(z):
        return [FINE[0], [[np.exp(z), 0.0], [0.0, 3.0]], [[np.exp(z)]]]

    _fake_transfers(monkeypatch, FINE, unfit)
    with pytest.raises(RuntimeError, match="rational fit failed in sector 1"):
        compute_spectrum(L2)
    monkeypatch.undo()
    _fake_transfers(monkeypatch, FINE, lambda z: FINE)
    sp = compute_spectrum(L2)
    assert [b.lam0 for b in sp.branches] == [2, 1, 3, 5]
