"""Y-monomial characters and the polynomial substitution bridge."""

import hashlib
import json

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


def test_conjecture_details_bytes_are_pinned():
    # no CLI command runs qchar, so no --json pin covers these bytes
    cr = check_conjecture_sl2(L4, seed=0)
    assert cr.ok
    text = json.dumps(cr.details, sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "6faaef14d8c3ba7ff0539fcf3bf12df6ab5e0adcc622a0459eeda7674c69f597"
    )


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
