"""Y-monomial characters and the polynomial substitution bridge."""

import pytest

from qilab.chain import ChainSpec
from qilab.field import RatFun
from qilab.qchar import (
    SubstitutionSpec,
    YLaurent,
    baxter_substitute,
    check_conjecture_sl2,
    chi_fund_sl2,
    vacuum_prefactors,
)

L2 = ChainSpec.from_json({"L": 2, "q": "0.83+0.21*i", "twist": "0.64+0.13*i"})


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
    sub = SubstitutionSpec(q_poly={}, prefactor={}, qval=0.8 + 0.2j)
    with pytest.raises(ValueError):
        baxter_substitute(chi, sub, 1.2)


def test_vacuum_prefactors_cover_both_labels():
    pre = vacuum_prefactors(L2)
    assert len(pre) == 2
    for (i, lab), fn in pre.items():
        assert i == 1
        assert callable(fn)
        assert isinstance(lab, RatFun) or isinstance(lab, str) or lab is not None


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
