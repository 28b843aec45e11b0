"""Joint eigenbranches, shift-identity polynomials, root systems."""

import json
import os
import subprocess
import sys
import warnings
from collections import Counter
from fractions import Fraction
from math import comb

import numpy as np
import pytest

import qilab
from qilab import cli
from qilab.chain import model as model_module
from qilab.chain import spectrum as spectrum_module
from qilab.chain import (
    ChainSpec,
    check_bethe,
    check_tq,
    compute_spectrum,
    functional_residual,
    poly_roots,
    root_residuals,
    sample_point,
    solve_roots_newton,
    solve_sector,
    vacuum,
)
from qilab.qchar import check_conjecture_sl2

GENERIC = {"q": "0.83+0.21*i", "twist": "0.64+0.13*i"}
L1 = ChainSpec.from_json({"L": 1, "q": "2", "twist": "3"})
L2 = ChainSpec.from_json({"L": 2, **GENERIC})


def _generic(L):
    return ChainSpec.from_json({"L": L, **GENERIC})


def _sector_labels(sp):
    """The magnon number of every branch, in branch order."""
    return [s.m for s in sp.sectors for _ in s.lam0]


def test_branch_count_and_sectors():
    sp = compute_spectrum(L1)
    assert len(sp) == 2
    assert sorted(_sector_labels(sp)) == [0, 1]
    sp2 = compute_spectrum(L2)
    assert len(sp2) == 4
    assert sorted(_sector_labels(sp2)) == [0, 1, 1, 2]


@pytest.mark.parametrize("L", range(1, 7))
def test_sectors_are_numbered_across_the_spectrum(L):
    # branch numbers run across sectors, sector 0 first: sector m holds
    # C(L, m) branches and starts after those of every lower sector
    sp = compute_spectrum(_generic(L))
    assert [s.m for s in sp.sectors] == list(range(L + 1))
    for s in sp.sectors:
        assert s.first == sum(comb(L, k) for k in range(s.m))
        assert len(s.lam0) == len(s.ncoeffs) == len(s.fit_residual) == comb(L, s.m)
        assert s.ncoeffs.shape == (comb(L, s.m), L + 1)
    assert sum(len(s.lam0) for s in sp.sectors) == len(sp) == 2**L


def test_branches_are_rational_in_z():
    sp = compute_spectrum(L2)
    for s in sp.sectors:
        for fit, ncoeffs in zip(s.fit_residual, s.ncoeffs):
            assert fit < 1e-8
            assert len(ncoeffs) == L2.L + 1


def _solved(sp, sector):
    """(index, Q) of the first branch of ``sector``, or (index, its error)."""
    Q, errors = solve_sector(sp, sector)
    return sp.sectors[sector].first, errors.get(0, tuple(Q[0].tolist()))


def test_l1_golden_root():
    # at q=2, u=3 the one-excitation state has its root at exactly 7/34
    sp = compute_spectrum(L1)
    _, coeffs = _solved(sp, 1)
    roots = poly_roots(coeffs)
    assert len(roots) == 1
    assert abs(roots[0] - float(Fraction(7, 34))) < 1e-10
    rr = root_residuals(L1, 1, roots)
    assert max(rr) < 1e-12


def test_shift_terms_weights():
    sp = compute_spectrum(L1)
    ncoeffs = sp.sectors[1].ncoeffs[0]
    z = 0.9 + 0.1j
    lam = spectrum_module.poly_eval(ncoeffs, z) / vacuum(L1, z)[0]
    t1, t2 = spectrum_module._weights(L1, 1, z)
    # first weight u q^m, second u^-1 q^-m d(z); d(z) = (z - 1)/(2 (z - 1/4))
    assert abs(t1 - 3 * 2) < 1e-12
    assert abs(t2 - (z - 1) / (2 * (z - 0.25)) / 6) < 1e-12
    num = sum(c * z**k for k, c in enumerate(ncoeffs))
    assert abs(lam - num / (z - 0.25)) < 1e-12


def test_vacuum_polynomial_is_constant():
    sp = compute_spectrum(L1)
    _, coeffs = _solved(sp, 0)
    assert len(coeffs) == 1
    assert abs(coeffs[0] - 1) < 1e-12
    assert functional_residual(sp, {0: ([0], np.array([coeffs]))})[0][0] < 1e-10


def test_garbage_branch_has_no_polynomial():
    sp = compute_spectrum(L1)
    _garble(sp.sectors[1], 0)
    assert isinstance(_solved(sp, 1)[1], str)


def _garble(sector, p):
    """Give branch p of ``sector`` a numerator with no Baxter polynomial."""
    sector.ncoeffs[p] = sector.ncoeffs[p] * 1.37 + 0.1


def test_a_garbled_branch_fails_alone_under_its_global_number(monkeypatch):
    spec = _generic(4)
    sp = compute_spectrum(spec)
    first = sp.sectors[2].first
    _garble(sp.sectors[2], 1)
    monkeypatch.setattr(spectrum_module, "compute_spectrum", lambda spec, seed=0: sp)
    cr = check_tq(spec)
    assert not cr.ok
    assert [f["branch"] for f in cr.details["failures"]] == [first + 1]
    assert cr.details["failures"][0]["error"].startswith("no polynomial solution")
    solved = sorted(e["branch"] for e in cr.details["solved"])
    assert solved == [i for i in range(2**4) if i != first + 1]
    assert cr.details["worst_functional_residual"] < 1e-8


def test_a_zero_leading_coefficient_fails_its_branches_without_a_warning():
    # at q = 0.6 with twist 1 five branches of L = 4 solve only at a lower
    # degree; their leading coefficient is exactly zero and is not divided by
    spec = ChainSpec.from_json({"L": 4, "q": "0.6", "twist": "1"})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        cr = check_tq(spec, seed=3)
    assert not cr.ok
    failures = cr.details["failures"]
    assert [f["branch"] for f in failures] == [11, 12, 13, 14, 15]
    assert {f["error"] for f in failures} == {
        "polynomial solution has unexpected lower degree"
    }


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


def test_newton_residual_is_relative_and_still_catches_shifted_roots(monkeypatch):
    # at L=7 sector 7 the terms of the root system reach ~6e13, so an
    # absolute |F| of a few hundredths is roundoff; scaled like
    # root_residuals the check passes, and roots off by 1e-6 still fail
    spec = _generic(7)
    cr = check_bethe(spec, 7, seed=1)
    assert cr.ok
    assert cr.details["branches"][0]["newton_final_residual"] < 1e-12
    real = spectrum_module.solve_roots_newton

    def shifted(spec, m, starts, max_iter=200):
        roots = real(spec, m, starts, max_iter).roots
        return real(spec, m, roots * (1 + 1e-6), max_iter=0)

    monkeypatch.setattr(spectrum_module, "solve_roots_newton", shifted)
    cr = check_bethe(spec, 7, seed=1)
    assert not cr.ok
    assert cr.details["branches"][0]["newton_final_residual"] > cr.details["tolerance"]


def test_check_bethe_reports_a_collocation_breakdown_as_a_failure(monkeypatch):
    # a branch whose coefficient system has no polynomial solution is a
    # failed verdict, not bad input
    def garbled_spectrum(spec, seed=0):
        sp = compute_spectrum(spec, seed)
        _garble(sp.sectors[1], 0)  # branch 1
        return sp

    monkeypatch.setattr(spectrum_module, "compute_spectrum", garbled_spectrum)
    cr = check_bethe(L2, 1)
    assert not cr.ok
    report = cr.details["branches"][0]
    assert report["branch"] == 1
    assert report["error"].startswith("no polynomial solution at degree 1")
    assert cr.details["branches"][1]["newton_matches"]


def test_newton_basin_from_perturbed_start():
    sp = compute_spectrum(L2)
    _, coeffs = _solved(sp, 1)
    roots = poly_roots(coeffs)
    start = [w * 1.01 for w in roots]
    newton = solve_roots_newton(L2, 1, start)
    assert newton.residual < 1e-10
    assert min(abs(newton.roots[0] - w) for w in roots) < 1e-8


def _sector_stack(L, m):
    """(spec, the (k, m+1) stack of every Q of sector m) at the generic point."""
    spec = _generic(L)
    Q, errors = solve_sector(compute_spectrum(spec), m)
    assert not errors
    return spec, Q


def _scalar_roots(coeffs):
    """``np.roots`` and the Newton polish one root at a time: the loop that
    the stacked ``poly_roots`` replaced, kept as its reference."""
    dcoeffs = [k * coeffs[k] for k in range(1, len(coeffs))]
    out = []
    for w in np.roots(np.array(coeffs[::-1], dtype=complex)):
        w = complex(w)
        for _ in range(spectrum_module._POLISH_STEPS):
            f = spectrum_module.poly_eval(coeffs, w)
            df = spectrum_module.poly_eval(dcoeffs, w)
            if abs(df) < 1e-14:
                break
            step = f / df
            w = w - step
            if abs(step) < 1e-14 * max(1.0, abs(w)):
                break
        out.append(w)
    return out


@pytest.mark.parametrize("L, m", [(6, 3), (7, 2), (7, 7)])
def test_a_stacked_row_equals_the_row_run_alone(L, m):
    # numpy's elementwise arithmetic and LAPACK's per-matrix calls do not
    # depend on how many rows share the stack, so neither do the results
    spec, Q = _sector_stack(L, m)
    roots = poly_roots(Q)
    rr = root_residuals(spec, m, roots)
    starts = roots * (1 + 0.01 * (np.random.default_rng(4).random(roots.shape) - 0.5))
    newton = solve_roots_newton(spec, m, starts)
    for r in range(len(Q)):
        one = slice(r, r + 1)
        assert np.array_equal(poly_roots(Q[one]), roots[one])
        assert np.array_equal(root_residuals(spec, m, roots[one]), rr[one])
        alone = solve_roots_newton(spec, m, starts[one])
        for field in ("roots", "residual", "iterations", "min_singular"):
            assert np.array_equal(getattr(alone, field), getattr(newton, field)[one])


@pytest.mark.parametrize("L, m", [(6, 2), (6, 3), (8, 4), (9, 1)])
def test_poly_roots_matches_np_roots_and_the_polish_row_by_row(L, m):
    _, Q = _sector_stack(L, m)
    roots = poly_roots(Q)
    assert roots.shape == (len(Q), m)
    for row, coeffs in zip(roots, Q):
        ref = np.array(_scalar_roots(tuple(coeffs)))
        assert np.all(np.abs(row - ref) <= 1e-12 * np.abs(ref))


def test_the_root_stages_take_empty_and_full_root_sets():
    sp = compute_spectrum(L2)
    for m in (0, L2.L):
        Q, _ = solve_sector(sp, m)
        roots = poly_roots(Q)
        assert roots.shape == (1, m)
        assert np.max(root_residuals(L2, m, roots), initial=0.0) < 1e-12
        newton = solve_roots_newton(L2, m, roots * 1.001)
        assert newton.roots.shape == (1, m)
        assert newton.residual[0] < 1e-12
        assert check_bethe(L2, m).ok
    assert check_bethe(L2, 0).details["branches"][0]["roots"] == []
    # and a stack of no rows at all
    assert poly_roots(np.zeros((0, 3))).shape == (0, 2)
    assert root_residuals(L2, 2, np.zeros((0, 2))).shape == (0, 2)
    assert solve_roots_newton(L2, 2, np.zeros((0, 2))).iterations.shape == (0,)


def test_a_singular_jacobian_stops_only_its_own_row():
    spec, Q = _sector_stack(6, 2)
    roots = poly_roots(Q[:4])
    starts = roots * 1.005
    # at an all-zero start every product in the Jacobian has a zero factor
    stack = np.insert(starts, 2, 0, axis=0)
    assert not np.any(spectrum_module._root_system(spec, 2, stack[2:3])[1])
    newton = solve_roots_newton(spec, 2, stack)
    assert newton.iterations[2] == 1
    assert np.array_equal(newton.roots[2], [0, 0])
    kept = [0, 1, 3, 4]
    alone = solve_roots_newton(spec, 2, starts)
    assert np.array_equal(newton.roots[kept], alone.roots)
    assert np.array_equal(newton.iterations[kept], alone.iterations)
    assert np.all(newton.residual[kept] < 1e-12)
    assert np.all(spectrum_module._roots_match(roots, newton.roots[kept]))


def test_the_root_stages_run_once_per_sector(monkeypatch):
    calls = Counter()
    for name in ("poly_roots", "root_residuals", "solve_roots_newton"):

        def counted(*args, _real=getattr(spectrum_module, name), _name=name, **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(spectrum_module, name, counted)
    spec = _generic(6)
    assert check_tq(spec).ok
    assert calls == {"poly_roots": 7, "root_residuals": 7}
    calls.clear()
    assert check_bethe(spec, 3).ok
    assert calls == {"poly_roots": 1, "root_residuals": 1, "solve_roots_newton": 1}


def test_seed_invariance_of_branches():
    # the recovered rational functions do not depend on the sample seed
    a = compute_spectrum(L2, seed=0)
    b = compute_spectrum(L2, seed=5)
    zt = 1.7 + 0.3j

    def profile(sp):
        D = vacuum(L2, zt)[0]
        return sorted(
            (s.m, round(lam.real, 7), round(lam.imag, 7))
            for s in sp.sectors
            for lam in (spectrum_module.poly_eval(n, zt) / D for n in s.ncoeffs)
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
    assert [lam for s in sp.sectors for lam in s.lam0] == [2, 1, 3, 5]


@pytest.mark.parametrize("L", range(2, 8))
def test_interpolated_numerator_matches_a_sampled_fit(L):
    # the least-squares fit of Lambda * D on L+2 annulus samples, the route
    # the circle interpolation replaced, finds the same numerators
    spec = _generic(L)
    sp = compute_spectrum(spec)
    rng = np.random.default_rng(11)
    zs = [sample_point(spec, rng) for _ in range(L + 2)]
    lam = np.array([np.concatenate(sp.eigenvalues(z, range(L + 1))) for z in zs])
    dens = np.array([vacuum(spec, z)[0] for z in zs])
    fit, *_ = np.linalg.lstsq(
        np.vander(zs, L + 1, increasing=True), lam * dens[:, None], rcond=None
    )
    interpolated = np.concatenate([s.ncoeffs for s in sp.sectors]).T
    scale = max(1.0, float(np.max(np.abs(interpolated))))
    assert np.max(np.abs(fit - interpolated)) / scale < 1e-9
    assert max(np.max(s.fit_residual) for s in sp.sectors) < 1e-12


def test_root_system_jacobian_is_the_derivative():
    spec = ChainSpec.from_json(
        {"L": 4, **GENERIC, "a": "3/2", "sites": ["1", "2", "1/3", "0.9+0.1*i"]}
    )
    ws = np.array([[0.7 + 0.2j, -0.4 + 0.9j, 1.3 - 0.5j]])  # a stack of one
    F, J, _ = spectrum_module._root_system(spec, 3, ws)
    h = 1e-6
    for k in range(3):
        step = np.zeros(3)
        step[k] = h
        up, down = (spectrum_module._root_system(spec, 3, ws + d)[0] for d in (step, -step))
        assert np.allclose(J[0, :, k], (up[0] - down[0]) / (2 * h), rtol=1e-7, atol=1e-9)
    coeffs = spectrum_module._monic_from_roots(ws)
    terms = sum(spectrum_module._root_terms(spec, 3, coeffs, ws))
    assert np.allclose(F, terms)


def _broken_numeric_r(monkeypatch):
    """Scale R[2][1] of the numeric R-matrix by (1 + 0.3 zeta)."""
    good = model_module.numeric_r

    def broken(zeta, q):
        R = good(zeta, q)
        R[2][1] *= 1 + 0.3 * zeta
        return R

    monkeypatch.setattr(model_module, "numeric_r", broken)


def _exit_code(argv, capsys):
    try:
        code = cli.main(argv + ["--json"])
    except SystemExit as e:
        code = e.code
    out = capsys.readouterr().out
    return code, json.loads(out) if out else None


def test_a_broken_r_matrix_fails_spectrum_tq_and_bethe_with_exit_1(
    monkeypatch, tmp_path, capsys
):
    path = tmp_path / "l4.json"
    path.write_text(json.dumps({"L": 4, **GENERIC}))
    _broken_numeric_r(monkeypatch)
    for argv in (["spectrum"], ["tq"], ["bethe", "--sector", "2"]):
        code, report = _exit_code(["chain", *argv, "--spec", str(path)], capsys)
        assert code == 1, argv
        error = report["verdicts"][0]["details"]["error"]
        assert error.startswith("joint eigenbasis failed in sector 2"), argv


def test_a_failed_interpolation_exits_1_and_a_degenerate_base_point_exits_2(
    monkeypatch, tmp_path, capsys
):
    path = tmp_path / "l2.json"
    path.write_text(json.dumps({"L": 2, **GENERIC}))
    _fake_transfers(monkeypatch, FINE, lambda z: [[[np.exp(z)]], FINE[1], FINE[2]])
    for argv in (["spectrum"], ["tq"], ["bethe", "--sector", "1"]):
        code, report = _exit_code(["chain", *argv, "--spec", str(path)], capsys)
        assert code == 1, argv
        error = report["verdicts"][0]["details"]["error"]
        assert error.startswith("rational fit failed in sector 0"), argv
    monkeypatch.undo()
    flat = tmp_path / "flat.json"
    flat.write_text(json.dumps({"L": 2, "q": "1", "twist": GENERIC["twist"]}))
    for argv in (["spectrum"], ["tq"], ["bethe", "--sector", "1"]):
        assert _exit_code(["chain", *argv, "--spec", str(flat)], capsys) == (2, None)


@pytest.mark.parametrize("L", [2, 6])
def test_every_perturb_control_of_the_baxter_stages_fails(L, tmp_path, capsys):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({"L": L, **GENERIC}))
    for argv in (
        ["tq"],
        ["bethe", "--sector", "1"],
        ["commute", "--mode", "numeric"],
    ):
        argv = ["chain", *argv, "--spec", str(path), "--perturb"]
        assert _exit_code(argv, capsys)[0] == 1, argv
    assert check_conjecture_sl2(_generic(L), perturb=True).exit_code == 1


@pytest.mark.slow
@pytest.mark.parametrize("L, seeds", [(8, range(6)), (9, range(6)), (10, [0])])
def test_check_tq_holds_at_long_chains(L, seeds):
    spec = _generic(L)
    for seed in seeds:
        cr = check_tq(spec, seed=seed)
        assert cr.ok, (seed, cr.details["worst_functional_residual"])
        assert cr.details["tolerance"] == 1e-8


def _check_tq_on_one_blas_thread(L, seed):
    # the L=10 margin is thin enough that the BLAS thread count moves the
    # verdict (seed 1: 1.03e-8 on one thread, 9.5e-9 on two), so the check
    # runs in a child process pinned to one thread, as the benchmark runs
    code = (
        "import json; from qilab.chain import ChainSpec, check_tq; "
        f"cr = check_tq(ChainSpec.from_json({json.dumps({'L': L, **GENERIC})!r}), seed={seed}); "
        "d = cr.details; "
        "print(json.dumps([cr.ok, d['tolerance'], d['worst_functional_residual']]))"
    )
    env = {
        **os.environ,
        "OPENBLAS_NUM_THREADS": "1",
        "OMP_NUM_THREADS": "1",
        "PYTHONPATH": os.path.dirname(os.path.dirname(qilab.__file__)),
    }
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    return json.loads(out.stdout)


@pytest.mark.slow
@pytest.mark.parametrize(
    "seed",
    [
        pytest.param(
            1,
            marks=pytest.mark.xfail(
                strict=True,
                reason="functional residual 1.03e-8 against 1e-8: the Baxter "
                "stages lose about 7 digits at L=10 (FOUND on check_tq in CHANGES.md)",
            ),
        ),
        2,
        3,
        4,
        5,
    ],
)
def test_check_tq_holds_at_ten_sites(seed):
    # seed 0 is in test_check_tq_holds_at_long_chains
    ok, tol, residual = _check_tq_on_one_blas_thread(10, seed)
    assert tol == 1e-8
    assert ok, residual


@pytest.mark.slow
def test_bethe_sector_3_of_six_sites_holds_at_every_seed():
    spec = _generic(6)
    for seed in range(10):
        cr = check_bethe(spec, 3, seed=seed)
        assert cr.ok, seed
        for entry in cr.details["branches"]:
            assert entry["newton_matches"] and entry["newton_iterations"] < 200
