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
    dv = cr.details["degeneration_value"]
    assert abs(complex(dv[0], dv[1]) - 2) < 1e-12


def test_conjecture_swap_control():
    cr = check_conjecture_sl2(L2, perturb=True)
    assert not cr.ok
    assert cr.details["perturbed"]


# sha256 of the details, each taken before the substitution was rewritten
# around one label table
DETAIL_PINS = [
    (4, 0, False, "6faaef14d8c3ba7ff0539fcf3bf12df6ab5e0adcc622a0459eeda7674c69f597"),
    (4, 1, False, "6b2969c6f8ab0da645f0972c8a16b32dde6bdcc55257599ce5d8eed64182432f"),
    (4, 2, False, "54fab1a05a1101626eec91fbfba6e7adcb28ff2113cd71989513f91bff43be71"),
    (4, 3, False, "4576e4e357848d4fead77a06c8f00b760235f18d7f571373fff2b52da8e19b7f"),
    (2, 0, True, "86bcfbd270fe250ff90f18624a6015ab1b5690934f913d09893ada1e196a8209"),
    (4, 0, True, "17cac01ec10d82f2a28c154cf27012abe9978d014ebf93c3c0bacc621ea8cf6e"),
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
