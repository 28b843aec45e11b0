"""End-to-end acceptance battery.

Each test prints exactly one summary line so the run reads as a checklist.
Run with ``pytest -s tests/test_acceptance.py`` to see every line; under
plain pytest the lines still appear for any failing criterion.
"""

import contextlib
import io
import json
import time
from math import comb

from qilab.chain import ChainSpec, check_commute, check_multiplicativity, check_rtt
from qilab.chain.spectrum import check_tq
from qilab.cli import main
from qilab.cluster import Quiver, explore, initial_seed, laurent_check
from qilab.field import RatFun
from qilab.qchar import check_conjecture_sl2
from qilab.rmatrix import (
    check_hexagon,
    check_inverse,
    check_pole_structure,
    check_yang,
    check_ybe,
)
from qilab.stab import (
    N1_R,
    Chamber,
    check_axioms,
    check_cycle_identity,
    fan_n2,
    geometric_r,
    stab_matrix,
)

GENERIC = {"q": "0.83+0.21*i", "twist": "0.64+0.13*i"}


def _line(num, ok, elapsed, msg):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPT criterion-{num:02d}: {status} ({elapsed:.2f}s) {msg}", flush=True)
    assert ok, f"criterion {num}: {msg}"


def _numeric_spec(L):
    return ChainSpec.from_json({"L": L, **GENERIC})


def test_criterion_01_triple_exchange_exact():
    t0 = time.time()
    res = check_ybe()
    t = time.time() - t0
    _line(1, res.ok and t < 10.0, t, "8x8 difference vanishes over the function field")


def test_criterion_02_additive_degeneration():
    t0 = time.time()
    res = check_yang()
    t = time.time() - t0
    ok = res.ok and res.details["closed_form"] is True and res.details["limit"] == [
        ["1", "0", "0", "0"],
        ["0", "u/(u + h)", "h/(u + h)", "0"],
        ["0", "h/(u + h)", "u/(u + h)", "0"],
        ["0", "0", "0", "1"],
    ]
    _line(2, ok and t < 1.0, t, "leading forms match the additive closed form")


def test_criterion_03_pole_and_residue():
    t0 = time.time()
    res = check_pole_structure()
    t = time.time() - t0
    d = res.details
    ok = res.ok and d["pole_order"] == 1 and d["rank"] == 1
    _line(3, ok, t, "simple pole at z=1 with a rank 1 scaled limit")


def test_criterion_04_inverse_and_hexagon():
    t0 = time.time()
    inv = check_inverse(seed=0, points=3)
    hexg = check_hexagon(seed=0, points=3)
    t = time.time() - t0
    ok = inv.ok and hexg.ok and inv.details["symbolic"] is True
    _line(4, ok, t, "inverse and hexagon hold symbolically and on 3 rational triples")


def test_criterion_05_rtt():
    t0 = time.time()
    exact_ok = all(
        check_rtt(ChainSpec.from_json({"L": L, "q": "q", "twist": "u"})).ok
        for L in (1, 2)
    )
    worst = 0.0
    numeric_ok = True
    for L in (4, 6):
        res = check_rtt(_numeric_spec(L), mode="numeric", seed=0, tol=1e-10)
        numeric_ok = numeric_ok and res.ok
        worst = max(worst, res.details["residual"])
    t = time.time() - t0
    ok = exact_ok and numeric_ok and t < 30.0
    _line(5, ok, t, f"exact L<=2, numeric worst residual {worst:.2e} at L=4,6")


def test_criterion_06_commutativity():
    t0 = time.time()
    exact_ok = all(
        check_commute(ChainSpec.from_json({"L": L, "q": "3/5", "twist": "u"})).ok
        for L in (1, 2, 3)
    )
    res = check_commute(_numeric_spec(8), mode="numeric", seed=0, tol=1e-10)
    t = time.time() - t0
    worst = res.details["residual"]
    ok = exact_ok and res.ok and t < 60.0
    _line(6, ok, t, f"exact at q=3/5 for L<=3, L=8 numeric residual {worst:.2e}")


def test_criterion_07_multiplicativity():
    t0 = time.time()
    exact_ok = all(
        check_multiplicativity(
            ChainSpec.from_json({"L": L, "q": "q", "twist": "u"})
        ).ok
        for L in (1, 2)
    )
    worst = 0.0
    numeric_ok = True
    for L in (3, 4, 5):
        res = check_multiplicativity(
            _numeric_spec(L), mode="numeric", seed=0, tol=1e-10
        )
        numeric_ok = numeric_ok and res.ok
        worst = max(worst, res.details["residual"])
    t = time.time() - t0
    ok = exact_ok and numeric_ok
    _line(7, ok, t, f"tensor auxiliary factorizes, worst residual {worst:.2e}, L<=5")


def test_criterion_08_tq_completeness():
    t0 = time.time()
    ok = True
    worst_fun = 0.0
    worst_root = 0.0
    for L in (2, 3):
        res = check_tq(_numeric_spec(L), seed=0, tol=1e-8)
        d = res.details
        ok = ok and res.ok and d["branches"] == 2**L
        ok = ok and d["per_sector"] == {str(k): comb(L, k) for k in range(L + 1)}
        for entry in d["solved"]:
            coeffs = entry["q_coeffs"]
            # monic of degree equal to the magnon sector
            ok = ok and len(coeffs) == entry["sector"] + 1
            lead = coeffs[-1]
            ok = ok and abs(lead[0] - 1) < 1e-12 and abs(lead[1]) < 1e-12
        worst_fun = max(worst_fun, d["worst_functional_residual"])
        worst_root = max(worst_root, d["worst_root_residual"])
    t = time.time() - t0
    ok = ok and t < 60.0
    _line(
        8,
        ok,
        t,
        f"all branches at L=2,3 carry monic Q, residuals {worst_fun:.2e}/{worst_root:.2e}",
    )


def test_criterion_09_character_substitution():
    t0 = time.time()
    res = check_conjecture_sl2(_numeric_spec(2), seed=0, points=20)
    t = time.time() - t0
    worst = res.details["worst_residual"]
    ok = res.ok and worst < 1e-8
    _line(9, ok, t, f"calibrated substitution matches 4 branches, worst {worst:.2e}")


def test_criterion_10_cluster_example():
    t0 = time.time()
    example = {"r": 3, "frozen": [2, 3], "arrows": [[3, 1, 1], [1, 2, 1]]}
    a2 = {"r": 2, "frozen": [], "arrows": [[1, 2, 1]]}
    at1 = explore(initial_seed(Quiver.from_json(example)), 4)
    at2 = explore(initial_seed(Quiver.from_json(a2)), 8)
    t = time.time() - t0
    variables = list(at1.variables.values()) + list(at2.variables.values())
    ok = (
        at1.closed
        and at1.cluster_count() == 2
        and len(at1.variables) == 4
        and at1.relation_strings() == ["X1p*X1 = X2 + X3"]
        and at2.closed
        and at2.cluster_count() == 5
        and set(at2.variable_strings())
        == {"X1", "X2", "(X2 + 1)/X1", "(X1 + X2 + 1)/(X1*X2)", "(X1 + 1)/X2"}
        and all(laurent_check(v) for v in variables)
        # control: a non-Laurent expression must fail the same test
        and not laurent_check(RatFun.parse("(1 + X1)/(1 + X2)"))
    )
    _line(10, ok and t < 5.0, t, "both quivers close with the expected atlases")


def test_criterion_11_stable_envelopes():
    t0 = time.time()
    strings = lambda M: tuple(tuple(str(e) for e in row) for row in M)
    plus, minus = Chamber.named("plus"), Chamber.named("minus")
    sp, sm = stab_matrix(plus), stab_matrix(minus)
    n1 = (
        strings(sp.matrix) == (("-u", "-h"), ("0", "u - h"))
        and strings(sm.matrix) == (("-u - h", "0"), ("-h", "u"))
        and strings(geometric_r(sp, sm)) == N1_R
        # control: the flipped polarization at p_0 breaks the reference
        and strings(geometric_r(stab_matrix(plus, polarization=(1, 1)), sm)) != N1_R
    )
    fan = fan_n2()
    n2 = all(check_axioms(stab_matrix(ch)).ok for ch in fan)
    cycles_ok = all(
        check_cycle_identity(fan[k:] + fan[:k]).ok for k in range(6)
    )
    t = time.time() - t0
    ok = n1 and n2 and cycles_ok and t < 60.0
    _line(11, ok, t, "n=1 exact displays, 6 chamber axioms, all face cycles close")


def test_criterion_12_negative_controls(tmp_path):
    l2 = tmp_path / "l2.json"
    l2.write_text(json.dumps({"L": 2, **GENERIC}))
    quiver = tmp_path / "example.json"
    quiver.write_text(
        json.dumps({"r": 3, "frozen": [2, 3], "arrows": [[3, 1, 1], [1, 2, 1]]})
    )
    controls = [
        ["rmat", "ybe", "--perturb"],
        ["rmat", "yang", "--perturb"],
        ["rmat", "inverse", "--perturb"],
        ["rmat", "hexagon", "--perturb"],
        ["rmat", "intertwine", "--perturb"],
        ["chain", "rtt", "--spec", str(l2), "--perturb"],
        ["chain", "commute", "--spec", str(l2), "--perturb"],
        ["chain", "multiplicativity", "--spec", str(l2), "--perturb"],
        ["chain", "tq", "--spec", str(l2), "--perturb"],
        ["chain", "bethe", "--spec", str(l2), "--sector", "1", "--perturb"],
        ["cluster", "laurent", "--quiver", str(quiver), "--perturb"],
        ["stab", "cycle", "--n", "2", "--perturb"],
    ]
    t0 = time.time()
    failed = []
    for argv in controls:
        # the reports themselves are noise here; only exit codes matter
        with contextlib.redirect_stdout(io.StringIO()):
            try:
                code = main(argv + ["--json"])
            except SystemExit as e:
                code = e.code
        if code != 1:
            failed.append((argv, code))
    t = time.time() - t0
    ok = not failed
    msg = f"{len(controls)} perturbed commands all exit 1"
    if failed:
        msg = f"controls not tripping: {failed}"
    _line(12, ok, t, msg)
