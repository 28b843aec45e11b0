"""qilab benchmark: time the checks of one workload to their verdicts.

Run from the root of a checkout:

    python3 perfbench/run.py --workload chain-numeric --seed 0 --seconds 20 --trace 0

The workloads are listed in ``cases.py``.  One process does all the work, one
check at a time, with the BLAS thread count pinned in its own environment.
After set-up it runs full passes over the workload's cases until ``--seconds``
have gone by (at least two passes, so that the --json bytes of each case
can be compared between passes).  It prints a human report,
then one JSON line: ``{"correct", "attempted", "failed", "metrics"}``.

``--trace 0`` reports the end-to-end metrics:

- ``setup_s``: median over SETUP_REPEATS set-ups, each a fresh import of
  qilab from ``src/``, writing the seeded inputs, and one run of every
  command at a small size (the first call of a command is slower);
- ``pass_s``: median time of one pass over all cases (the sum of its case
  times);
- ``case_geomean_s``: geometric mean of the per-case median times, which
  small cases move even when one large case dominates ``pass_s``;
- ``verdict_ok_ratio``: share of cases whose outcome is right
  (``outcome.classify``); the report also prints the error ratio and, for
  numeric verdicts, the smallest log10(tolerance / residual) margin;
- ``peak_rss_mb``: peak resident memory of the process.

Times are given at a reference machine speed; see ``calibrate``.  The report
also prints the raw pass times and each pass's speed factor.

``--trace 1`` runs one untraced pass and two traced passes instead, checks
the traced run against the untraced one, reports the per-layer metrics of
``layers.py`` and writes the spans of the first traced pass under
``perfbench/.work/``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import io
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKDIR = os.path.join("perfbench", ".work")

BLAS_THREADS = 1  # at most the core count; one thread keeps passes steady
MIN_PASSES = 2
SETUP_REPEATS = 9
CAL_REF_S = 0.005  # calibration kernel time that defines the reference speed

sys.path.insert(0, HERE)

from cases import GENERIC, KNOWN_DEFECTS, WORKLOADS, Case, Inputs, build  # noqa: E402
from outcome import Attempt, classify, is_known_defect  # noqa: E402

END_TO_END = [
    ("setup_s", "s"),
    ("pass_s", "s"),
    ("case_geomean_s", "s"),
    ("verdict_ok_ratio", "ratio"),
    ("peak_rss_mb", "MB"),
]

# Rows of the baseline table in ROADMAP.md, keyed by the case that runs the
# same input.  The transfer_numeric row is read from the traced run.
BASELINE_ROWS = [
    ("compute_spectrum L=8", "chain spectrum L=8", "2.0 s"),
    ("check_tq L=6", "chain tq L=6", "0.8 s pass"),
    ("check_tq L=8", "chain tq L=8", "5.1 s fail"),
    ("check_rtt exact, symbolic q, L=3", "chain rtt L=3 q=q exact", "0.95 s"),
    ("check_cycle_identity n=2", "stab cycle n=2", "0.55 s"),
    ("explore D4 quiver, depth 12", "cluster explore D4 depth=12", "0.85 s"),
]
BASELINE_LEFT_OUT = (
    "transfer_numeric L=10 and L=11 are left out: a single L=11 build takes "
    "over a minute.  compute_spectrum L=6, check_tq L=9, check_rtt L=2 and "
    "check_commute q=3/5 L=4 have no case in any workload."
)


# ---------------------------------------------------------------- set-up


def _pin_blas() -> None:
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)


def _import_qilab():
    """Import the package fresh from the checkout's ``src``."""
    for name in [n for n in sys.modules if n == "qilab" or n.startswith("qilab.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    return importlib.import_module("qilab.cli"), importlib.import_module("qilab.qchar")


class Program:
    """The imported entry points a case calls, looked up at call time."""

    def __init__(self, cli, qchar):
        self.cli = cli
        self.qchar = qchar

    def run(self, case, seed: int):
        """Run one case; return (seconds, Attempt, stdout text)."""
        out = io.StringIO()
        code, error = None, ""
        t0 = time.perf_counter()
        try:
            with redirect_stdout(out), redirect_stderr(io.StringIO()):
                if case.qchar:
                    L, perturb = case.qchar
                    spec = self.qchar.ChainSpec.from_json({"L": L, **GENERIC})
                    res = self.qchar.check_conjecture_sl2(spec, seed=seed, perturb=perturb)
                    doc = {"name": res.name, "ok": res.ok, "details": res.details}
                    out.write(json.dumps(doc, sort_keys=True, indent=2, default=str))
                    code = res.exit_code
                else:
                    code = self.cli.main(list(case.argv) + ["--json"])
        except SystemExit as e:  # argparse rejects its input this way
            code = e.code if isinstance(e.code, int) else 2
        except Exception as e:  # a check that raises is a wrong outcome
            error = f"{type(e).__name__}: {e}"
        elapsed = time.perf_counter() - t0
        text = out.getvalue()
        digest = hashlib.sha256(text.encode()).hexdigest()
        return elapsed, Attempt(code, digest, error), text


def set_up(workload: str, seed: int):
    """Import qilab, write the inputs and warm every command up once."""
    cli, qchar = _import_qilab()
    program = Program(cli, qchar)
    cases, warmup = build(workload, seed, Inputs(ROOT, WORKDIR))
    for argv in warmup:
        program.run(Case("warm-up", 0, argv), seed)
    return program, cases


# ---------------------------------------------------------------- passes


def calibrate() -> float:
    """Seconds taken by a fixed pure-Python kernel that never calls qilab.

    A shared machine's speed swings by up to a factor of two over minutes
    (measured on a 2-vCPU VM), which no bound on raw wall time can absorb.
    The kernel runs before every case, and a pass's times are multiplied by
    CAL_REF_S over its median kernel time: a reported second is a second at
    the speed where the kernel takes CAL_REF_S.  The kernel multiplies two
    sparse polynomials with Fraction coefficients held in dicts and takes
    big-integer gcds, the two kinds of work of the exact field; on rational-
    canonical passes its time tracked the pass time with elasticity near 1.
    """
    t0 = time.perf_counter()
    poly = {(i, j): Fraction(i + 1, j + 2) for i in range(5) for j in range(5)}
    out = {}
    for (a, b), x in poly.items():
        for (c, d), y in poly.items():
            key = (a + c, b + d)
            out[key] = out.get(key, 0) + x * y
    big, other = 3**400, 5**300 + 7
    for i in range(300):
        math.gcd(big + i, other * (i + 1))
    return time.perf_counter() - t0


def run_pass(program: Program, cases, seed: int) -> dict:
    """Run every case once.

    ``wall`` is the sum of the case times and ``speed`` the factor that
    scales them to the reference speed.
    """
    gc.collect()
    kernel, results = [], []
    for case in cases:
        kernel.append(calibrate())
        results.append(program.run(case, seed))
    times = [r[0] for r in results]
    return {
        "wall": sum(times),
        "speed": CAL_REF_S / statistics.median(kernel),
        "times": times,
        "attempts": [r[1] for r in results],
        "texts": [r[2] for r in results],
    }


def judge(cases, passes) -> list:
    """Per case: (reason it is wrong or None, known defect?)."""
    out = []
    for i, case in enumerate(cases):
        reason = classify(case.expect, [p["attempts"][i] for p in passes])
        out.append((reason, is_known_defect(case.id, reason, KNOWN_DEFECTS)))
    return out


def accuracy_margins(cases, texts) -> dict:
    """log10(tolerance / residual) of each numeric identity verdict."""
    margins = {}
    for case, text in zip(cases, texts):
        if case.expect != 0 or not text:
            continue
        doc = json.loads(text)
        # the direct qchar call reports one result instead of a verdict list
        verdicts = doc.get("verdicts") or [
            {"residual": doc["details"].get("worst_residual"), "details": doc["details"]}
        ]
        for v in verdicts:
            res, tol = v.get("residual"), v["details"].get("tolerance")
            if isinstance(res, float) and isinstance(tol, float) and res > 0:
                margins[case.id] = min(margins.get(case.id, math.inf), math.log10(tol / res))
    return margins


# ---------------------------------------------------------------- report


def _env_lines(workload: str, seed: int) -> list:
    import numpy

    return [
        f"workload: {workload}  ({WORKLOADS[workload]})",
        f"seed: {seed}",
        f"blas threads: {BLAS_THREADS} (cores: {os.cpu_count()})",
        f"python: {platform.python_version()}  numpy: {numpy.__version__}",
        "load: one process, one check at a time",
    ]


def _case_table(cases, passes, verdicts) -> list:
    lines = [f"{'case':48} {'exp':>3} {'exit':>5} {'raw med s':>10} {'n':>3}  outcome"]
    for i, case in enumerate(cases):
        times = [p["times"][i] for p in passes]
        codes = sorted({str(p["attempts"][i].code) for p in passes})
        reason, known = verdicts[i]
        status = "ok" if reason is None else f"WRONG: {reason}"
        if known:
            status += f"  [known defect: {KNOWN_DEFECTS[case.id]}]"
        lines.append(
            f"{case.id:48} {case.expect:>3} {'/'.join(codes):>5} "
            f"{statistics.median(times):>10.4f} {len(times):>3}  {status}"
        )
    return lines


def _baseline_lines(cases, passes, transfer_l8=None) -> list:
    ids = [c.id for c in cases]
    lines = ["baseline rows (ROADMAP.md) with an input in this workload:"]
    for row, case_id, recorded in BASELINE_ROWS:
        if case_id in ids:
            i = ids.index(case_id)
            med = statistics.median(p["times"][i] for p in passes)
            lines.append(f"  {row:36} recorded {recorded:12} now {med:.3f} s raw ({case_id})")
    if "chain spectrum L=8" in ids:
        now = (
            "needs --trace 1"
            if transfer_l8 is None
            else f"now {transfer_l8:.3f} s per call (traced)"
        )
        lines.append(f"  {'transfer_numeric L=8':36} recorded {'0.20 s':12} {now}")
    lines.append("  " + BASELINE_LEFT_OUT)
    return lines


def _metric_lines(metrics: dict) -> list:
    return [f"  {k}: {v['value']:.6g} {v['unit']}" for k, v in metrics.items()]


# ---------------------------------------------------------------- modes


def end_to_end(program, cases, args, setup_times) -> tuple:
    passes = []
    t0 = time.perf_counter()
    while len(passes) < MIN_PASSES or time.perf_counter() - t0 < args.seconds:
        passes.append(run_pass(program, cases, args.seed))
    verdicts = judge(cases, passes)
    failed = sum(r is not None for r, _ in verdicts)
    per_case = [
        statistics.median(p["times"][i] * p["speed"] for p in passes)
        for i in range(len(cases))
    ]
    metrics = {
        "setup_s": statistics.median(setup_times),
        "pass_s": statistics.median(p["wall"] * p["speed"] for p in passes),
        "case_geomean_s": math.exp(statistics.fmean(math.log(t) for t in per_case)),
        "verdict_ok_ratio": (len(cases) - failed) / len(cases),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    metrics = {k: {"value": metrics[k], "unit": u} for k, u in END_TO_END}
    lines = _case_table(cases, passes, verdicts)
    lines += ["", "end-to-end:"] + _metric_lines(metrics)
    lines.append(
        f"  (pass_s is the median of {len(passes)} passes, "
        f"setup_s the median of {len(setup_times)} set-ups; at reference speed)"
    )
    raw = statistics.median(p["wall"] for p in passes)
    speeds = ", ".join(f"{p['speed']:.3f}" for p in passes)
    lines.append(f"  raw pass time: median {raw:.4f} s; speed factor per pass: {speeds}")
    lines.append(f"  verdict_error_ratio: {failed / len(cases):.6g} ({failed} of {len(cases)})")
    margins = accuracy_margins(cases, passes[0]["texts"])
    if margins:
        worst = min(margins, key=margins.get)
        lines.append(
            f"  accuracy_margin_dec: {margins[worst]:.4f} dec (smallest, {worst}; "
            f"over {len(margins)} numeric verdicts)"
        )
    lines += [""] + _baseline_lines(cases, passes)
    return metrics, verdicts, lines, []


def traced(program, cases, args, setup_times) -> tuple:
    import numpy as np

    import layers
    from spans import Tracer

    base = run_pass(program, cases, args.seed)
    tracer = Tracer()
    bindings = layers.install(tracer)
    try:
        first = run_pass(program, cases, args.seed)
        sum1 = tracer.summary()
        spans = tracer.arrays()
        tracer.reset()
        second = run_pass(program, cases, args.seed)
        sum2 = tracer.summary()
    finally:
        restored = tracer.restore()
    verdicts = judge(cases, [base, first, second])

    def counts(s):
        ints = {k: v for k, v in s["counters"].items() if isinstance(v, int)}
        return s["calls"], s["raised"], ints

    same_outcome = all(
        [a.code for a in p["attempts"]] == [a.code for a in base["attempts"]]
        and [a.digest for a in p["attempts"]] == [a.digest for a in base["attempts"]]
        for p in (first, second)
    )
    unattributed = first["wall"] - sum1["root_s"]
    closes = (
        abs(sum1["self_total_s"] + unattributed - first["wall"]) <= 1e-6 * first["wall"]
        and unattributed >= 0
        and sum1["min_self_s"] >= -1e-9
    )
    checks = {
        "traced verdicts and --json digests equal the untraced pass": same_outcome,
        "span self times plus unattributed sum to the traced wall time": closes,
        "counts repeat exactly across the two traced passes": counts(sum1) == counts(sum2),
        f"all {bindings} wrapped bindings restored": restored,
    }
    extra = {
        "cli.report.bytes": sum(len(t.encode()) for t in first["texts"]),
        "trace.unattributed_s": unattributed,
        "trace.overhead_s": (first["wall"] + second["wall"]) / 2 - base["wall"],
    }
    metrics = layers.metrics(sum1, sum2, extra)
    c = sum1["counters"]
    l8 = None
    if c.get("transfer_numeric.L8.calls"):
        l8 = c["transfer_numeric.L8.s"] / c["transfer_numeric.L8.calls"]

    os.makedirs(os.path.join(ROOT, WORKDIR), exist_ok=True)
    out = os.path.join(WORKDIR, f"spans-{args.workload}-seed{args.seed}.npz")
    np.savez(os.path.join(ROOT, out), names=np.array(tracer.names), **spans)

    lines = _case_table(cases, [base], verdicts)
    lines += ["", "traced run:"]
    lines.append(
        f"  untraced pass {base['wall']:.3f} s, traced passes "
        f"{first['wall']:.3f} s and {second['wall']:.3f} s"
    )
    lines.append(f"  {sum1['spans']} spans in the first traced pass, written to {out}")
    for name, ok in checks.items():
        lines.append(f"  [{'ok' if ok else 'FAILED'}] {name}")
    top = sorted(sum1["self_s"].items(), key=lambda kv: -kv[1])[:12]
    lines.append("  largest self times (first traced pass):")
    for name, s in top:
        lines.append(f"    {name:44} {s:9.4f} s  {sum1['calls'][name]:>9} calls")
    lines += ["", "per-layer (value; end-to-end metric it should move; on workload (~0 on)):"]
    for name, unit, _, moves, where in layers.PER_LAYER:
        lines.append(f"  {name}: {metrics[name]['value']:.6g} {unit}; {moves}; {where}")
    lines += [""] + _baseline_lines(cases, [base], l8)
    problems = [name for name, ok in checks.items() if not ok]
    return metrics, verdicts, lines, problems


# ---------------------------------------------------------------- main


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    _pin_blas()
    if not os.path.isfile(os.path.join(ROOT, "src", "qilab", "__init__.py")):
        print(f"error: no qilab sources under {ROOT}/src", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    os.chdir(ROOT)  # input paths in the commands are relative to the checkout

    setup_times = []  # at reference speed, like every end-to-end time
    for _ in range(SETUP_REPEATS):
        speed = CAL_REF_S / statistics.median(calibrate() for _ in range(3))
        t0 = time.perf_counter()
        program, cases = set_up(args.workload, args.seed)
        setup_times.append((time.perf_counter() - t0) * speed)

    mode = traced if args.trace else end_to_end
    metrics, verdicts, lines, problems = mode(program, cases, args, setup_times)
    unexpected = [
        c.id for c, (reason, known) in zip(cases, verdicts) if reason is not None and not known
    ]
    for line in _env_lines(args.workload, args.seed) + [""] + lines:
        print(line)
    for case_id in unexpected:
        print(f"UNEXPECTED wrong outcome: {case_id}")
    for name in problems:
        print(f"SELF-CHECK FAILED: {name}")
    result = {
        "correct": not unexpected and not problems,
        "attempted": len(cases),
        "failed": sum(r is not None for r, _ in verdicts),
        "metrics": metrics,
    }
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
