"""Y-monomial characters and the polynomial substitution bridge."""

import hashlib
import json
import os

import pytest

import qilab.qchar
from qilab.chain import ChainSpec, compute_spectrum
from qilab.field import RatFun
from qilab.qchar import (
    YLaurent,
    baxter_substitute,
    check_conjecture_sl2,
    chi_fund_sl2,
)

GENERIC = {"q": "0.83+0.21*i", "twist": "0.64+0.13*i"}
L2 = ChainSpec.from_json({"L": 2, **GENERIC})
L4 = ChainSpec.from_json({"L": 4, **GENERIC})


def test_fundamental_character_display():
    chi = chi_fund_sl2(RatFun.parse("1"))
    assert str(chi) == "Y[1,1/q] + Y[1,q]^-1"
    assert chi.coeff_sum() == 2
    chi2 = chi_fund_sl2(RatFun.parse("q^2"))
    assert str(chi2) == "Y[1,q] + Y[1,q^3]^-1"


def test_laurent_algebra():
    a = YLaurent.symbol(1, RatFun.parse("q"), 1)
    b = YLaurent.symbol(1, RatFun.parse("q"), -1)
    prod = a * b
    # exponents on the same label merge and cancel
    assert prod.coeff_sum() == 1
    assert str(prod) == "1"
    s = a + a
    assert s.coeff_sum() == 2


def test_substitution_requires_covered_labels():
    chi = chi_fund_sl2(RatFun.parse("1"))
    lo, hi = str(RatFun.parse("1/q")), str(RatFun.parse("q"))
    q = 0.8 + 0.2j
    table = {lo: (1 / q, 1.0 + 0j), hi: (q, 1.0 + 0j)}
    assert baxter_substitute(chi, (1.0 + 0j,), table, q, 1.2) == 2
    # a label missing from the table
    with pytest.raises(ValueError, match="no prefactor data for label q"):
        baxter_substitute(chi, (1.0 + 0j,), {lo: table[lo]}, q, 1.2)
    with pytest.raises(ValueError, match="no prefactor data"):
        baxter_substitute(chi, (1.0 + 0j,), {}, q, 1.2)
    # an index other than 1
    chi2 = YLaurent.symbol(2, RatFun.parse("1/q"))
    with pytest.raises(ValueError, match="no substitution data for index 2"):
        baxter_substitute(chi2, (1.0 + 0j,), table, q, 1.2)


def test_substitution_raises_at_a_zero_of_the_shifted_polynomial():
    # Q(x) = x - z b q vanishes at the denominator's argument of label b = q
    chi = chi_fund_sl2(RatFun.parse("1"))
    q, z = 0.8 + 0.2j, 1.2 + 0.1j
    table = {str(RatFun.parse("1/q")): (1 / q, 1.0 + 0j), str(RatFun.parse("q")): (q, 1.0 + 0j)}
    with pytest.raises(ZeroDivisionError, match="polynomial zero"):
        baxter_substitute(chi, (-(z * q * q), 1.0 + 0j), table, q, z)
    # a root a little way off passes
    assert baxter_substitute(chi, (-(z * q * q) + 1e-3, 1.0 + 0j), table, q, z)


def test_conjecture_l2():
    cr = check_conjecture_sl2(L2)
    assert cr.ok
    assert cr.details["worst_residual"] < 1e-8
    assert cr.details["coeff_sum"] == 2


def test_conjecture_swap_control():
    cr = check_conjecture_sl2(L2, perturb=True)
    assert not cr.ok
    assert cr.details["perturbed"]


# sha256 of the details at L = 2..5, seeds 0-3, and of each swap control at
# seed 0
DETAIL_PINS = [
    (2, 0, False, "0e9c4037092a58e9b1e2c40db9bbdd9aa4d5cebd6b3cccdafb58d2da96ce086e"),
    (2, 1, False, "9fea762dc64601681c565b4aae537a87c4814310e85b474761fdeda60b925868"),
    (2, 2, False, "a108f9a6642a8b7e9681e222cff601cfff5e89c9f6855515565a5f97ebb4a6be"),
    (2, 3, False, "0acb4ad62f2d407c393a4fdc08785eaceba4fc92429a2e640340ff4aa204d106"),
    (3, 0, False, "6ee16b1c10f1a45c4e93aa391a5829198bf9133e0224b8334c390dbedd9cebaa"),
    (3, 1, False, "acc6f8f5f98677f8a45538eca97f3509203d2910b24e3d54ee6b8c2a4368d404"),
    (3, 2, False, "f528188aef2e12ee25e0a4a3ef516628a7a6dca16bf2bbf248e76bcf92a9a5f9"),
    (3, 3, False, "ebe6176aa03f27cd37224547b23f85501141602efce5826655f19ff2e97eb8f0"),
    (4, 0, False, "c9077bb8d9c433e977d3aef703b1550e1510ee63e774c8625b0108f3b851f65c"),
    (4, 1, False, "a2ecdd9c9d68c26b32504023a52ed9bc090618c537182711f69c5d1450459853"),
    (4, 2, False, "913946d836f61ff758b20b77a053212b67a7161357a15918b8568bb1eeaec2d7"),
    (4, 3, False, "c225a9ee15e8778beab0d3dba65eb782737b8b195c912a3bbe5b54484d9cd081"),
    (5, 0, False, "b38f696c71150d85732927e259077ff50b89d224b77a4da4a335cf32f569b143"),
    (5, 1, False, "9ecc3921e01875aec22e746d96329f4e3f092abe72633a85c052820672ba7eaa"),
    (5, 2, False, "7a5c8a7b17020a6749c96f216008552be5f3ff60c313b872067254afc416bc57"),
    (5, 3, False, "d983c93239368d2e3892ab87f23c59f93584775aaa1a8dfeab15a2de0442283b"),
    (2, 0, True, "87d6fa378bffab2ef90a7c4cb526172f09e09fb81095a3b395910411c2997742"),
    (3, 0, True, "d44193435b43eee85f2126a9323cfc5461af7a68b08c15e834a1679d0a132fd4"),
    (4, 0, True, "e9dfd3a3eb53c920be35d1b62687d747cae45532de1e60cf5162098ad12a8522"),
    (5, 0, True, "17bb53c50ad0fd498b7482c664e52f75d6929894e601c346643da0fab6b42a0f"),
]


@pytest.mark.parametrize(
    "L, seed, perturb, digest",
    DETAIL_PINS,
    ids=[f"L{L}-seed{s}" + ("-perturb" if p else "") for L, s, p, _ in DETAIL_PINS],
)
def test_conjecture_details_bytes_are_pinned(L, seed, perturb, digest):
    # no CLI command runs qchar, so no --json pin covers these bytes
    spec = ChainSpec.from_json({"L": L, **GENERIC})
    cr = check_conjecture_sl2(spec, seed=seed, perturb=perturb)
    assert cr.ok != perturb
    text = json.dumps(cr.details, sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == digest


@pytest.mark.parametrize("a", ["2", "3/5"])
@pytest.mark.parametrize("sites", [None, ["1", "2", "1/3"]], ids=["homogeneous", "sites"])
def test_conjecture_holds_away_from_a_equal_one(a, sites):
    # the spectral z already carries a, so the labels a/q and aq are read
    # relative to a; read absolutely, these residuals were 1.2 to 3.1
    d = {"L": 3, "a": a, **GENERIC}
    if sites:
        d["sites"] = sites
    spec = ChainSpec.from_json(d)
    cr = check_conjecture_sl2(spec)
    assert cr.ok
    assert cr.details["worst_residual"] < 1e-12
    assert cr.details["character"] == str(chi_fund_sl2(RatFun.parse(a)))
    control = check_conjecture_sl2(spec, perturb=True)
    assert not control.ok
    assert control.details["worst_residual"] > 1e-2


def test_the_benchmark_call_path_runs(tmp_path, monkeypatch):
    # perfbench/run.py reads qilab.qchar.ChainSpec and calls the check with
    # these arguments for each qchar case of its chain-numeric workload
    here = os.path.dirname(os.path.abspath(__file__))
    monkeypatch.syspath_prepend(os.path.join(os.path.dirname(here), "perfbench"))
    import cases

    built, _ = cases.build("chain-numeric", 0, cases.Inputs(str(tmp_path), "work"))
    qcases = [c for c in built if c.qchar]
    assert [c.qchar for c in qcases] == [(4, False), (2, True)]
    for case in qcases:
        L, perturb = case.qchar
        spec = qilab.qchar.ChainSpec.from_json({"L": L, **cases.GENERIC})
        res = qilab.qchar.check_conjecture_sl2(spec, seed=0, perturb=perturb)
        assert res.exit_code == case.expect


@pytest.mark.parametrize("spec", [L2, L4])
def test_swap_control_swaps_the_first_two_branches_of_sector_1(spec):
    # sector 0 holds one branch, so the first shared sector is 1, whose
    # branches are numbered from 1
    cr = check_conjecture_sl2(spec, perturb=True)
    assert not cr.ok
    assert cr.details["swapped_branches"] == [1, 2]


def test_swap_control_needs_two_branches_in_one_sector():
    L1 = ChainSpec.from_json({"L": 1, **GENERIC})
    with pytest.raises(ValueError, match="no two branches share a sector"):
        check_conjecture_sl2(L1, perturb=True)


def test_a_failed_branch_is_reported_and_left_out(monkeypatch):
    # a garbled numerator, as tests/test_spectrum.py builds for check_tq,
    # has no Baxter polynomial: the check fails under that branch's global
    # number, and the row is dropped rather than substituted
    sp = compute_spectrum(L4)
    first = sp.sectors[2].first
    sp.sectors[2].ncoeffs[1] = sp.sectors[2].ncoeffs[1] * 1.37 + 0.1
    monkeypatch.setattr(qilab.qchar, "compute_spectrum", lambda spec, seed=0: sp)
    cr = check_conjecture_sl2(L4)
    assert not cr.ok
    assert [f["branch"] for f in cr.details["failures"]] == [first + 1]
    assert cr.details["failures"][0]["error"].startswith("no polynomial solution")
    assert cr.details["worst_residual"] < 1e-8
