import json
import os
from fractions import Fraction

import pytest

from qilab import cli
from qilab.cli import main


def run(argv, capsys):
    try:
        code = main(argv)
    except SystemExit as e:
        code = e.code
    out = capsys.readouterr()
    return code, out.out, out.err


@pytest.fixture
def specs(tmp_path):
    (tmp_path / "l1.json").write_text(json.dumps({"L": 1, "q": "2", "twist": "3"}))
    (tmp_path / "l2.json").write_text(
        json.dumps({"L": 2, "q": "0.83+0.21*i", "twist": "0.64+0.13*i"})
    )
    (tmp_path / "example.json").write_text(
        json.dumps({"r": 3, "frozen": [2, 3], "arrows": [[3, 1, 1], [1, 2, 1]]})
    )
    return tmp_path


def report_of(out):
    rep = json.loads(out)
    assert set(rep) == {"command", "inputs", "verdicts", "timing"}
    return rep


def test_ybe_passes_and_perturb_fails(capsys):
    code, out, _ = run(["rmat", "ybe", "--json"], capsys)
    assert code == 0
    rep = report_of(out)
    assert rep["command"] == "rmat ybe"
    assert all(v["status"] == "pass" for v in rep["verdicts"])
    code, out, _ = run(["rmat", "ybe", "--perturb", "--json"], capsys)
    assert code == 1
    assert any(v["status"] == "fail" for v in report_of(out)["verdicts"])


def test_ybe_rejects_symbolic_scalar(capsys):
    code, _, err = run(["rmat", "ybe", "--a", "q"], capsys)
    assert code == 2
    assert "error:" in err


@pytest.mark.parametrize("shift", [(1, 0), (-1, 0), (0, 1)])
def test_limit_wrong_result_fails(capsys, monkeypatch, shift):
    # a pole_limit that reports a wrong order or a wrong entry gives FAIL
    from qilab import rmatrix

    true_limit = rmatrix.pole_limit

    def wrong_limit(M, var, point):
        order, res = true_limit(M, var, point)
        res[1][1] = res[1][1] + shift[1]
        return order + shift[0], res

    monkeypatch.setattr(rmatrix, "pole_limit", wrong_limit)
    argv = ["rmat", "limit", "--a", "2", "--b", "3", "--point", "3/2", "--json"]
    code, out, _ = run(argv, capsys)
    assert code == 1
    assert report_of(out)["verdicts"][0]["status"] == "fail"


def test_weight_defect_fails_normalize_and_numeric_rtt(capsys, monkeypatch, specs):
    # trig_r and numeric_r share one weight formula, so a wrong c1 fails the
    # exact normalize check and the numeric exchange relation
    from qilab import rmatrix

    rtt = ["chain", "rtt", "--spec", str(specs / "l2.json"), "--mode", "numeric"]
    assert run(["rmat", "normalize"], capsys)[0] == 0
    assert run(rtt, capsys)[0] == 0
    true_weights = rmatrix._weights

    def wrong_c1(zeta, *rest):
        b, c2, c1 = true_weights(zeta, *rest)
        return b, c2, c1 * (1 + Fraction(3, 10) * zeta)

    monkeypatch.setattr(rmatrix, "_weights", wrong_c1)
    assert run(["rmat", "normalize"], capsys)[0] == 1
    assert run(rtt, capsys)[0] == 1


def test_limit_exponent_past_the_slot_limit_exits_2(capsys):
    code, out, err = run(["rmat", "limit", "--a", f"z^{2**31}"], capsys)
    assert code == 2 and out == ""
    want = f"error: bad scalar 'z^{2**31}': exponent exceeds the limit {2**31 - 1}"
    assert err.strip() == want


def test_limit_documented_example(capsys):
    code, out, _ = run(
        ["rmat", "limit", "--a", "1", "--b", "q^2", "--point", "1", "--json"], capsys
    )
    assert code == 0
    rep = report_of(out)
    detail = rep["verdicts"][0]["details"]
    assert detail["rank"] == 1


def test_chain_spectrum_l1_sector0(capsys, specs):
    code, out, _ = run(
        ["chain", "spectrum", "--spec", str(specs / "l1.json"), "--sector", "0", "--json"],
        capsys,
    )
    assert code == 0
    rep = report_of(out)
    branches = rep["verdicts"][0]["details"]["branches"]
    assert len(branches) == 1
    assert branches[0]["lam"] == "(-0.9166666667 + 3.166666667*z) / ((z*1 - 0.25))"


def test_chain_checks_and_controls(capsys, specs):
    spec = str(specs / "l2.json")
    code, _, _ = run(["chain", "rtt", "--spec", spec], capsys)
    assert code == 0
    code, _, _ = run(["chain", "commute", "--spec", spec, "--perturb"], capsys)
    assert code == 1
    code, _, err = run(["chain", "rtt", "--spec", str(specs / "nope.json")], capsys)
    assert code == 2
    code, _, err = run(
        ["chain", "bethe", "--spec", spec, "--sector", "9"], capsys
    )
    assert code == 2
    assert "sector" in err


def test_json_output_is_deterministic(capsys, specs):
    argv = ["chain", "tq", "--spec", str(specs / "l2.json"), "--seed", "3", "--json"]
    code1, out1, _ = run(argv, capsys)
    code2, out2, _ = run(argv, capsys)
    assert code1 == code2 == 0
    assert out1 == out2


def test_cluster_explore_and_mutate(capsys, specs):
    quiver = str(specs / "example.json")
    code, out, _ = run(
        ["cluster", "explore", "--quiver", quiver, "--depth", "4", "--json"], capsys
    )
    assert code == 0
    detail = report_of(out)["verdicts"][0]["details"]
    assert detail["clusters"] == 2
    assert len(detail["variables"]) == 4
    assert detail["relations"] == ["X1p*X1 = X2 + X3"]

    code, out, _ = run(
        ["cluster", "mutate", "--quiver", quiver, "--at", "1", "--at", "1", "--json"],
        capsys,
    )
    assert code == 0
    detail = report_of(out)["verdicts"][0]["details"]
    assert detail["returned_to_start"] is True

    code, _, err = run(["cluster", "mutate", "--quiver", quiver, "--at", "2"], capsys)
    assert code == 2
    assert "frozen" in err


def test_cluster_laurent_control(capsys, specs):
    quiver = str(specs / "example.json")
    code, _, _ = run(["cluster", "laurent", "--quiver", quiver], capsys)
    assert code == 0
    code, _, _ = run(["cluster", "laurent", "--quiver", quiver, "--perturb"], capsys)
    assert code == 1


def test_stab_matrix_documented_example(capsys):
    code, out, _ = run(["stab", "matrix", "--n", "1", "--chamber", "plus", "--json"], capsys)
    assert code == 0
    rep = report_of(out)
    info = rep["verdicts"][0]["details"]
    assert info["matrix"] == [["-u", "-h"], ["0", "u - h"]]
    assert rep["verdicts"][1]["status"] == "pass"


def test_stab_rmatrix_documented_example(capsys):
    code, out, _ = run(["stab", "rmatrix", "--n", "1", "--json"], capsys)
    assert code == 0
    detail = report_of(out)["verdicts"][0]["details"]
    assert detail["matrix"] == [
        ["u/(u + h)", "h/(u + h)"],
        ["h/(u + h)", "u/(u + h)"],
    ]


def test_stab_cycle_and_controls(capsys):
    code, _, _ = run(["stab", "cycle", "--n", "2", "--face", "u1=u2"], capsys)
    assert code == 0
    code, _, _ = run(["stab", "cycle", "--n", "2", "--perturb"], capsys)
    assert code == 1
    code, _, err = run(["stab", "cycle", "--n", "3"], capsys)
    assert code == 2
    code, _, err = run(["stab", "cycle", "--n", "2", "--face", "u1=0"], capsys)
    assert code == 2


def test_stab_chamber_input_errors(capsys):
    code, _, err = run(["stab", "matrix", "--n", "2"], capsys)
    assert code == 2
    assert "--chamber" in err
    code, _, _ = run(["stab", "matrix", "--n", "2", "--chamber", "p0>p1>p1"], capsys)
    assert code == 2
    for pol in ("1,2,1", "1,x"):
        argv = ["stab", "matrix", "--n", "2", "--chamber", "0,1,2", "--polarization", pol]
        code, _, err = run(argv, capsys)
        assert code == 2 and err.startswith("error: "), pol


def test_human_output_shape(capsys):
    code, out, _ = run(["stab", "roots", "--n", "2"], capsys)
    assert code == 0
    assert "[PASS]" in out
    assert "exit: 0" in out


def test_console_entry_points_delegate(capsys):
    from qilab.cli import main_rmat, main_stab

    try:
        code = main_rmat(["yang", "--cutoff", "4"])
    except SystemExit as e:
        code = e.code
    capsys.readouterr()
    assert code == 0
    try:
        code = main_stab(["roots", "--n", "1"])
    except SystemExit as e:
        code = e.code
    capsys.readouterr()
    assert code == 0


def test_every_benchmark_argv_parses(tmp_path, monkeypatch):
    # the benchmark runs these argvs in-process, so they freeze the command
    # surface: a change that would stop it (say, dropping ``rmat yang
    # --cutoff``, which a warm-up passes) fails here first
    here = os.path.dirname(os.path.abspath(__file__))
    monkeypatch.syspath_prepend(os.path.join(os.path.dirname(here), "perfbench"))
    import cases

    parser = cli._parser()
    for seed in (0, 7):
        for workload in cases.WORKLOADS:
            inp = cases.Inputs(str(tmp_path), f"{workload}-{seed}")
            built, warmup = cases.build(workload, seed, inp)
            argvs = [c.argv for c in built if c.argv] + warmup
            assert len(argvs) > len(warmup)
            for argv in argvs:
                parser.parse_args(list(argv) + ["--json"])
