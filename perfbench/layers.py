"""Per-layer metrics of the traced run, named after qilab's modules.

Span names are ``<module>.<function>`` as ``Tracer.install`` gives them, plus
the three patched attributes below.  ``HOOKS`` count work that only the
arguments or results show; ``metrics`` turns two traced passes into the
named per-layer values (counts from the first pass, self times averaged).
"""

from __future__ import annotations

MUL = "field.poly.mul"  # MPoly.__mul__ / __rmul__
CANON = "field.ratfun.canon"  # RatFun.__init__: gcd, div_exact, monic scaling
EIG = "numpy.linalg.eig"
GCD = "field.poly.poly_gcd"


def _np_op_on_slots(tracer, idx, args, kwargs, result):
    # the dense operator it builds: N x N complex128, N = prod(dims)
    n = 1
    for d in kwargs["dims"] if "dims" in kwargs else args[2]:
        n *= d
    tracer.counters["np_op_on_slots.bytes"] += n * n * 16


def _transfer_numeric(tracer, idx, args, kwargs, result):
    spec = args[0]
    n = 2 ** (spec.L + 1)
    tracer.counters["transfer_numeric.cmacs"] += (spec.L - 1) * n**3
    tracer.counters[f"transfer_numeric.L{spec.L}.calls"] += 1
    tracer.counters[f"transfer_numeric.L{spec.L}.s"] += tracer.span(idx)[2]


def _poly_gcd(tracer, idx, args, kwargs, result):
    if tracer.span(idx)[1] == CANON:
        tracer.counters["canon.gcds"] += 1
        # RatFun.__init__ divides only when the gcd is not the constant 1.
        if not (result.is_const() and result.as_fraction() == 1):
            tracer.counters["canon.gcds_useful"] += 1


def _explore(tracer, idx, args, kwargs, result):
    tracer.counters["explore.new_seeds"] += result.cluster_count() - 1


def _mutate_seed(tracer, idx, args, kwargs, result):
    if tracer.span(idx)[1] == "cluster.explore":
        tracer.counters["explore.mutations"] += 1


HOOKS = {
    "field.linalg.np_op_on_slots": _np_op_on_slots,
    "chain.model.transfer_numeric": _transfer_numeric,
    GCD: _poly_gcd,
    "cluster.explore": _explore,
    "cluster.mutate_seed": _mutate_seed,
}


def install(tracer) -> int:
    """Wrap qilab's public functions, the MPoly multiply, RatFun
    construction and ``np.linalg.eig``; returns the bindings replaced."""
    import numpy as np
    from qilab.field.poly import MPoly
    from qilab.field.ratfun import RatFun

    count = tracer.install("qilab", HOOKS)
    mul = tracer.wrap(vars(MPoly)["__mul__"], MUL)
    for attr in ("__mul__", "__rmul__"):
        tracer.patch(MPoly, attr, mul)
    tracer.patch(RatFun, "__init__", tracer.wrap(vars(RatFun)["__init__"], CANON))
    tracer.patch(np.linalg, "eig", tracer.wrap(np.linalg.eig, EIG))
    return count + 4


# The per-layer metrics in report order: (name, unit, better, the
# end-to-end metric it should move, the workload it moves on with the
# workload(s) where it should stay near zero in parentheses).
PER_LAYER = [
    ("field.poly.mul.calls", "count", "lower", "pass_s", "exact-cleared (chain-numeric)"),
    ("field.poly.mul.self_s", "s", "lower", "pass_s", "exact-cleared (chain-numeric)"),
    ("field.poly.gcd.calls", "count", "lower", "pass_s", "rational-canonical (exact-cleared)"),
    ("field.poly.gcd.self_s", "s", "lower", "pass_s", "rational-canonical (exact-cleared)"),
    ("field.ratfun.canon.calls", "count", "lower", "pass_s", "rational-canonical (chain-numeric)"),
    ("field.ratfun.canon.self_s", "s", "lower", "pass_s", "rational-canonical (chain-numeric)"),
    ("field.ratfun.canon.gcd_useful_ratio", "ratio", "higher", "pass_s", "rational-canonical (chain-numeric)"),
    ("field.linalg.op_on_slots.calls", "count", "lower", "pass_s", "exact-cleared (chain-numeric)"),
    ("field.linalg.op_on_slots.self_s", "s", "lower", "pass_s", "exact-cleared (chain-numeric)"),
    ("field.linalg.mat_mul.calls", "count", "lower", "pass_s", "exact-cleared (chain-numeric)"),
    ("field.linalg.mat_mul.self_s", "s", "lower", "pass_s", "exact-cleared (chain-numeric)"),
    ("field.linalg.rref.calls", "count", "lower", "pass_s", "rational-canonical (exact-cleared)"),
    ("field.linalg.rref.self_s", "s", "lower", "pass_s", "rational-canonical (exact-cleared)"),
    ("field.linalg.np_op_on_slots.calls", "count", "lower", "pass_s, peak_rss_mb", "chain-numeric (exact-cleared)"),
    ("field.linalg.np_op_on_slots.self_s", "s", "lower", "pass_s, peak_rss_mb", "chain-numeric (exact-cleared)"),
    ("field.linalg.np_op_on_slots.bytes", "B", "lower", "pass_s, peak_rss_mb", "chain-numeric (exact-cleared)"),
    ("chain.model.transfer_numeric.calls", "count", "lower", "pass_s", "chain-numeric (rational-canonical)"),
    ("chain.model.transfer_numeric.self_s", "s", "lower", "pass_s", "chain-numeric (rational-canonical)"),
    ("chain.model.transfer_numeric.computed_cmacs", "count", "lower", "pass_s", "chain-numeric (rational-canonical)"),
    ("chain.model.transfer_cleared.self_s", "s", "lower", "pass_s", "exact-cleared (chain-numeric)"),
    ("chain.model.monodromy_cleared.self_s", "s", "lower", "pass_s", "exact-cleared (chain-numeric)"),
    ("chain.model.parse_complex.calls", "count", "lower", "case_geomean_s, pass_s", "chain-numeric (exact-cleared)"),
    ("chain.model.parse_complex.self_s", "s", "lower", "case_geomean_s, pass_s", "chain-numeric (exact-cleared)"),
    ("chain.model.sample_point.calls", "count", "lower", "case_geomean_s", "chain-numeric (exact-cleared)"),
    ("chain.model.sample_point.self_s", "s", "lower", "case_geomean_s", "chain-numeric (exact-cleared)"),
    ("chain.spectrum.compute_spectrum.self_s", "s", "lower", "pass_s", "chain-numeric (exact-cleared)"),
    ("chain.spectrum.eig.calls", "count", "lower", "pass_s", "chain-numeric (exact-cleared)"),
    ("chain.spectrum.eig.self_s", "s", "lower", "pass_s", "chain-numeric (exact-cleared)"),
    ("chain.spectrum.solve_shift_poly.calls", "count", "lower", "verdict_ok_ratio, accuracy margin", "chain-numeric (others)"),
    ("chain.spectrum.solve_shift_poly.self_s", "s", "lower", "verdict_ok_ratio, accuracy margin", "chain-numeric (others)"),
    ("chain.spectrum.solve_shift_poly.fail_ratio", "ratio", "lower", "verdict_ok_ratio, accuracy margin", "chain-numeric (others)"),
    ("chain.spectrum.functional_residual.self_s", "s", "lower", "case_geomean_s", "chain-numeric (others)"),
    ("chain.spectrum.root_residuals.self_s", "s", "lower", "case_geomean_s", "chain-numeric (others)"),
    ("chain.spectrum.solve_roots_newton.calls", "count", "lower", "case_geomean_s", "chain-numeric (others)"),
    ("chain.spectrum.solve_roots_newton.self_s", "s", "lower", "case_geomean_s", "chain-numeric (others)"),
    ("qchar.check_conjecture_sl2.self_s", "s", "lower", "case_geomean_s", "chain-numeric (others)"),
    ("cluster.explore.self_s", "s", "lower", "pass_s", "rational-canonical (chain-numeric)"),
    ("cluster.mutate_seed.calls", "count", "lower", "pass_s", "rational-canonical (chain-numeric)"),
    ("cluster.explore.new_seed_ratio", "ratio", "higher", "pass_s", "rational-canonical (chain-numeric)"),
    ("stab.stab_matrix.calls", "count", "lower", "pass_s", "rational-canonical (exact-cleared)"),
    ("stab.stab_matrix.self_s", "s", "lower", "pass_s", "rational-canonical (exact-cleared)"),
    ("stab.geometric_r.self_s", "s", "lower", "pass_s", "rational-canonical (exact-cleared)"),
    ("stab.check_axioms.self_s", "s", "lower", "pass_s", "rational-canonical (exact-cleared)"),
    ("rmatrix.checks.self_s", "s", "lower", "case_geomean_s", "exact-cleared (chain-numeric)"),
    ("cli.main.self_s", "s", "lower", "case_geomean_s", "all three (overhead share)"),
    ("cli.report.bytes", "B", "lower", "case_geomean_s", "all three (overhead share)"),
    ("trace.unattributed_s", "s", "lower", "none: tracing only", "all three"),
    ("trace.overhead_s", "s", "lower", "none: tracing only", "all three"),
]

# Metric stem -> span name, where they differ.
_SPAN = {
    "field.poly.mul": MUL,
    "field.poly.gcd": GCD,
    "field.ratfun.canon": CANON,
    "chain.spectrum.eig": EIG,
}


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def metrics(first: dict, second: dict, extra: dict) -> dict:
    """Per-layer values from two traced-pass summaries.

    ``extra`` supplies what the runner measures itself: ``cli.report.bytes``,
    ``trace.unattributed_s`` and ``trace.overhead_s``.
    """

    def calls(span):
        return first["calls"].get(span, 0)

    def self_s(span):
        return (first["self_s"].get(span, 0.0) + second["self_s"].get(span, 0.0)) / 2

    c = first["counters"]
    derived = {
        "field.ratfun.canon.gcd_useful_ratio": _ratio(
            c.get("canon.gcds_useful", 0), c.get("canon.gcds", 0)
        ),
        "field.linalg.np_op_on_slots.bytes": c.get("np_op_on_slots.bytes", 0),
        "chain.model.transfer_numeric.computed_cmacs": c.get("transfer_numeric.cmacs", 0),
        "chain.spectrum.solve_shift_poly.fail_ratio": _ratio(
            first["raised"].get("chain.spectrum.solve_shift_poly", 0),
            calls("chain.spectrum.solve_shift_poly"),
        ),
        "cluster.explore.new_seed_ratio": _ratio(
            c.get("explore.new_seeds", 0), c.get("explore.mutations", 0)
        ),
        "rmatrix.checks.self_s": sum(
            self_s(n) for n in first["self_s"] if n.startswith("rmatrix.check_")
        ),
        **extra,
    }
    out = {}
    for name, unit, *_ in PER_LAYER:
        if name in derived:
            value = derived[name]
        else:
            stem, _, kind = name.rpartition(".")
            span = _SPAN.get(stem, stem)
            value = calls(span) if kind == "calls" else self_s(span)
        out[name] = {"value": value, "unit": unit}
    return out
