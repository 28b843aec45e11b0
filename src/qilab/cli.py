"""Command line front end, one entry point per module family.

Every subcommand wraps a library check or computation and prints a run
report: the command, echoed inputs, one verdict per check, and timing.
``--json`` switches to a machine-stable document: keys sorted, timing
null, so identical inputs and seed give byte-identical output.

Exit codes: 0 when every verdict passes, 1 when any fails (a numerical
breakdown inside a check, such as a joint eigenbasis that does not stay
diagonal or a wall crossing that breaks down at a column, is a failed
verdict), 2 on malformed input (bad scalars, unreadable files,
schema violations, orders on a wall, genericity-guard failures such as a
degenerate base-point spectrum).
"""

from __future__ import annotations

import argparse
import functools
import json
import re
import sys
import time
from fractions import Fraction

from . import cluster as cl
from . import rmatrix as rm
from . import stab as st
from .chain import (
    ChainSpec,
    SpectrumBreakdown,
    breakdown_result,
    check_bethe,
    check_commute,
    check_multiplicativity,
    check_rtt,
    check_tq,
    compute_spectrum,
    validate_sector,
)
from .field import MPoly, RatFun, rref
from .verdict import CheckResult


class InputError(ValueError):
    """Anything wrong with user-supplied input; maps to exit code 2."""


# ---------------------------------------------------------------- parsing


def _ratfun(text: str) -> RatFun:
    try:
        return RatFun.parse(text)
    except Exception as e:
        raise InputError(f"bad scalar {text!r}: {e}")


def _rational(text: str) -> Fraction:
    f = _ratfun(text)
    try:
        return f.num.eval_fraction({}) / f.den.eval_fraction({})
    except Exception:
        raise InputError(f"expected a rational constant, got {text!r}")


def _fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise InputError(f"expected a rational number, got {text!r}")


def _load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as e:
        raise InputError(f"cannot read {path}: {e}")
    except json.JSONDecodeError as e:
        raise InputError(f"{path} is not valid JSON: {e}")


def _chain_spec(path: str) -> ChainSpec:
    return ChainSpec.from_json(_load_json(path))


def _quiver(path: str) -> cl.Quiver:
    return cl.Quiver.from_json(_load_json(path))


def _chamber(n: int, text: str) -> st.Chamber:
    if text in ("plus", "minus"):
        if n != 1:
            raise InputError("named chambers plus/minus exist only for n=1")
        return st.Chamber.named(text)
    toks = [t.strip().lstrip("pP") for t in re.split(r"[>,]", text) if t.strip()]
    try:
        perm = tuple(int(t) for t in toks)
    except ValueError:
        raise InputError(f"bad chamber {text!r}; use e.g. 'plus' or '1,0,2'")
    return st.Chamber.from_perm(n, perm)


def _polarization(text: str) -> tuple:
    try:
        return tuple(int(t) for t in text.split(",") if t.strip())
    except ValueError:
        raise InputError(f"bad polarization {text!r}; use e.g. '1,-1'")


# ---------------------------------------------------------------- report


def _residual_of(details: dict):
    for key in (
        "residual",
        "worst_residual",
        "worst_functional_residual",
        "max_abs_difference",
    ):
        v = details.get(key)
        if isinstance(v, (int, float)) and not isinstance(v, bool):
            return float(v)
    return None


def _finish(args, command: str, inputs: dict, results: list, t0: float) -> int:
    verdicts = [
        {
            "name": cr.name,
            "status": "pass" if cr.ok else "fail",
            "residual": _residual_of(cr.details),
            "details": cr.details,
        }
        for cr in results
    ]
    code = 0 if all(v["status"] == "pass" for v in verdicts) else 1
    if getattr(args, "json", False):
        report = {
            "command": command,
            "inputs": inputs,
            "verdicts": verdicts,
            "timing": None,
        }
        print(json.dumps(report, sort_keys=True, indent=2, default=str))
        return code
    print(f"command: {command}")
    for key in sorted(inputs):
        print(f"  {key}: {inputs[key]}")
    for v in verdicts:
        tag = "PASS" if v["status"] == "pass" else "FAIL"
        line = f"[{tag}] {v['name']}"
        if v["residual"] is not None:
            line += f"  residual={v['residual']:.3e}"
        print(line)
        for key in sorted(v["details"]):
            text = json.dumps(v["details"][key], sort_keys=True, default=str)
            if len(text) > 1200:
                text = text[:1200] + "..."
            print(f"    {key}: {text}")
    print(f"time: {time.perf_counter() - t0:.3f} s")
    print(f"exit: {code}")
    return code


# ---------------------------------------------------------------- handlers
#
# Each handler takes the parsed arguments and returns (inputs, results); the
# table at the end names its command and flags, and ``main`` reports.


def _cmd_rmat_ybe(args):
    a, b, c = _rational(args.a), _rational(args.b), _rational(args.c)
    cr = rm.check_ybe(a, b, c, perturb=args.perturb)
    return {"a": str(a), "b": str(b), "c": str(c), "perturb": args.perturb}, [cr]


def _cmd_rmat_yang(args):
    cr = rm.check_yang(cutoff=args.cutoff, perturb=args.perturb)
    return {"cutoff": args.cutoff, "perturb": args.perturb}, [cr]


def _cmd_rmat_normalize(args):
    a, b = _rational(args.a), _rational(args.b)
    if b == 0:
        raise InputError("scale b must be nonzero")
    zn, zd = rm._zeta_pair(a / b, MPoly.var("z"))
    cleared = [[RatFun(e) for e in row] for row in rm.cleared_r(zn, zd)]
    rows, factor = rm.normalize(cleared)
    zeta = RatFun(MPoly.var("z")) * RatFun(a) / RatFun(b)
    ok = rows == rm.trig_r(zeta)
    cr = CheckResult(
        name="normalize",
        ok=ok,
        details={
            "factor": str(factor),
            "matrix": [[str(x) for x in row] for row in rows],
            "matches_normalized_form": ok,
        },
    )
    return {"a": str(a), "b": str(b)}, [cr]


def _cmd_rmat_limit(args):
    fa, fb = _ratfun(args.a), _ratfun(args.b)
    point = _fraction(args.point)
    inputs = {"a": args.a, "b": args.b, "point": str(point)}
    if fa == RatFun(1) and fb == RatFun.parse("q^2") and point == Fraction(1):
        return inputs, [rm.check_pole_structure()]
    if fb.is_zero():
        raise InputError("scale b must be nonzero")
    M = rm.trig_r(RatFun(MPoly.var("z")) * fa / fb)
    order, res = rm.pole_limit(M, "z", point)
    cr = CheckResult(
        name="pole-limit",
        ok=rm.pole_limit_holds(M, "z", point, order, res),
        details={
            "pole_order": order,
            "rank": len(rref(res)[1]),
            "limit": [[str(x) for x in row] for row in res],
        },
    )
    return inputs, [cr]


def _cmd_rmat_sampled(args):
    check = {"inverse": rm.check_inverse, "hexagon": rm.check_hexagon}[args.cmd]
    cr = check(seed=args.seed, points=args.points, perturb=args.perturb)
    return {"seed": args.seed, "points": args.points, "perturb": args.perturb}, [cr]


def _cmd_rmat_intertwine(args):
    return {"perturb": args.perturb}, [rm.check_intertwiner(perturb=args.perturb)]


def _chain_inputs(args, spec: ChainSpec) -> dict:
    return {
        "spec": args.spec,
        "L": spec.L,
        "q": spec.q,
        "a": spec.a,
        "twist": spec.twist,
        "seed": args.seed,
    }


def _exact_capable(spec: ChainSpec) -> bool:
    try:
        if not spec.q_is_symbolic():
            spec.q_fraction()
        if not spec.twist_is_symbolic():
            spec.twist_fraction()
        spec.a_fraction()
        for l in range(spec.L):
            spec.site_fraction(l)
        return True
    except (ValueError, ZeroDivisionError):
        return False


def _tol_kw(args) -> dict:
    return {} if args.tol is None else {"tol": args.tol}


def _cmd_chain_identity(args):
    """``chain rtt``, ``commute`` and ``multiplicativity``: one identity
    check; ``--mode auto`` picks exact for chains up to its exact_max sites.
    The check is looked up per call, so a patched module binding is used."""
    check, exact_max = {
        "rtt": (check_rtt, 2),
        "commute": (check_commute, 3),
        "multiplicativity": (check_multiplicativity, 2),
    }[args.cmd]
    spec = _chain_spec(args.spec)
    mode = args.mode
    if mode == "auto":
        exact = spec.L <= exact_max and _exact_capable(spec)
        mode = "exact" if exact else "numeric"
    kw = {**_tol_kw(args), "samples": args.samples} if mode == "numeric" else {}
    cr = check(spec, mode=mode, seed=args.seed, perturb=args.perturb, **kw)
    inputs = {**_chain_inputs(args, spec), "mode": mode, "perturb": args.perturb}
    return inputs, [cr]


def _fmt_complex(v) -> str:
    if abs(v.imag) < 1e-12:
        return f"{v.real:.10g}"
    return f"({v.real:.10g}{v.imag:+.10g}i)"


def _cmd_chain_spectrum(args):
    spec = _chain_spec(args.spec)
    validate_sector(spec, args.sector)
    inputs = {**_chain_inputs(args, spec), "sector": args.sector}
    try:
        spectrum = compute_spectrum(spec, seed=args.seed)
    except SpectrumBreakdown as e:
        return inputs, [breakdown_result("spectrum", spec, e)]
    qinv2 = 1 / spec.q_complex() ** 2
    den_str = "".join(
        f"(z*{_fmt_complex(r)} - {_fmt_complex(qinv2)})"
        for r in spec.site_ratios_complex()
    )

    def _term(k: int, co) -> str:
        s = _fmt_complex(co)
        if k == 0:
            return s
        return f"{s}*z" if k == 1 else f"{s}*z^{k}"

    branches = []
    for s in spectrum.sectors:
        if args.sector is not None and s.m != args.sector:
            continue
        for ncoeffs, fit in zip(s.ncoeffs.tolist(), s.fit_residual.tolist()):
            num_str = " + ".join(_term(k, co) for k, co in enumerate(ncoeffs))
            branches.append(
                {
                    "sector": s.m,
                    "numerator_coeffs": [[co.real, co.imag] for co in ncoeffs],
                    "fit_residual": fit,
                    "lam": f"({num_str}) / ({den_str})",
                }
            )
    cr = CheckResult(
        name="spectrum",
        ok=True,
        details={
            "L": spec.L,
            "branches": branches,
            "branch_count": len(spectrum),
            "denominator": den_str,
        },
    )
    return inputs, [cr]


def _cmd_chain_sector(args):
    """``chain tq`` and ``bethe``: one spectral check, optionally per sector."""
    check = {"tq": check_tq, "bethe": check_bethe}[args.cmd]
    spec = _chain_spec(args.spec)
    cr = check(
        spec, sector=args.sector, seed=args.seed, perturb=args.perturb, **_tol_kw(args)
    )
    inputs = {**_chain_inputs(args, spec), "sector": args.sector}
    return {**inputs, "perturb": args.perturb}, [cr]


def _cmd_cluster_mutate(args):
    seed0 = cl.initial_seed(_quiver(args.quiver))
    s = seed0
    for k in args.at:
        s = cl.mutate_seed(s, k)
    cr = CheckResult(
        name="mutate",
        ok=True,
        details={
            "at": list(args.at),
            "variables": [str(v) for v in s.variables],
            "quiver": json.loads(s.quiver.to_json()),
            "returned_to_start": s == seed0,
        },
    )
    return {"quiver": args.quiver, "at": list(args.at)}, [cr]


def _cmd_cluster_explore(args):
    atlas = cl.explore(cl.initial_seed(_quiver(args.quiver)), args.depth)
    cr = CheckResult(name="explore", ok=True, details=json.loads(atlas.to_json()))
    return {"quiver": args.quiver, "depth": args.depth}, [cr]


def _cmd_cluster_laurent(args):
    atlas = cl.explore(cl.initial_seed(_quiver(args.quiver)), args.depth)
    variables = list(atlas.variables.values())
    if args.perturb:
        variables.append(RatFun.parse("(1 + X1)/(1 + X2)"))
    bad = sorted(str(v) for v in variables if not cl.laurent_check(v))
    cr = CheckResult(
        name="laurent",
        ok=not bad,
        details={
            "variables": len(variables),
            "non_laurent": bad,
            "closed": atlas.closed,
            "perturbed": args.perturb,
        },
    )
    return {"quiver": args.quiver, "depth": args.depth, "perturb": args.perturb}, [cr]


def _stab_chamber(args) -> st.Chamber:
    if args.n < 1:
        raise InputError("n must be at least 1")
    if args.chamber is None:
        if args.n == 1:
            return st.Chamber.named("plus")
        raise InputError("--chamber is required for n >= 2")
    return _chamber(args.n, args.chamber)


def _cmd_stab_roots(args):
    rts = st.roots(args.n)
    details = {"n": args.n, "roots": rts, "count": len(rts)}
    return {"n": args.n}, [CheckResult(name="roots", ok=True, details=details)]


def _cmd_stab_order(args):
    chamber = _stab_chamber(args)
    details = {
        "n": args.n,
        "order": chamber.order_string(),
        "top_to_bottom": list(chamber.perm),
    }
    inputs = {"n": args.n, "chamber": args.chamber or "plus"}
    return inputs, [CheckResult(name="order", ok=True, details=details)]


def _cmd_stab_matrix(args):
    chamber = _stab_chamber(args)
    pol = _polarization(args.polarization) if args.polarization else None
    inputs = {
        "n": args.n,
        "chamber": args.chamber or "plus",
        "polarization": args.polarization,
    }
    sm = st.stab_matrix(chamber, polarization=pol)
    info = CheckResult(
        name="stab-matrix",
        ok=True,
        details={
            "chamber": chamber.order_string(),
            "polarization": list(sm.polarization),
            "matrix": [[str(x) for x in row] for row in sm.matrix],
            "classes": [str(g) for g in sm.gammas],
        },
    )
    return inputs, [info, st.check_axioms(sm)]


def _cmd_stab_rmatrix(args):
    chamber = _stab_chamber(args)
    to = _chamber(args.n, args.to) if args.to else chamber.opposite()
    inputs = {
        "n": args.n,
        "chamber": args.chamber or "plus",
        "to": args.to or to.order_string(),
    }
    details = {"from": chamber.order_string(), "to": to.order_string()}
    try:
        R = st.geometric_r(st.stab_matrix(chamber), st.stab_matrix(to))
    except st.StabBreakdown as e:
        return inputs, [e.verdict("geometric-r", **details)]
    got = tuple(tuple(str(x) for x in row) for row in R)
    details["matrix"] = [list(row) for row in got]
    ok = True
    if args.n == 1 and chamber.perm == (1, 0) and to.perm == (0, 1):
        ok = details["matches_reference"] = got == st.N1_R
    return inputs, [CheckResult(name="geometric-r", ok=ok, details=details)]


def _cmd_stab_cycle(args):
    if args.n != 2:
        raise InputError("the cycle walk is implemented for n=2")
    if args.face != "u1=u2":
        raise InputError(
            f"unknown face {args.face!r}; the supported codim-2 face is 'u1=u2'"
        )
    inputs = {"n": args.n, "face": args.face, "perturb": args.perturb}
    try:
        cr = st.check_cycle_identity(perturb=args.perturb)
    except st.StabBreakdown as e:
        cr = e.verdict("stab-cycle", perturbed=args.perturb)
    return inputs, [cr]


# ---------------------------------------------------------------- table


def _flag(option: str, **kw) -> tuple:
    return option, kw


def _scale(space: int, default: str = "1", note: str = " (rational)") -> tuple:
    return _flag(
        "--" + "abc"[space - 1], default=default, help=f"scale of space {space}{note}"
    )


_JSON = _flag("--json", action="store_true", help="machine-readable report")
_PERTURB = _flag(
    "--perturb",
    action="store_true",
    help="apply the documented breaking perturbation; the check must fail",
)
_SEED = _flag("--seed", type=int, default=0)
_POINTS = _flag("--points", type=int, default=3, help="random rational triples")
_CHAIN = (
    _flag("--spec", required=True, help="chain description JSON file"),
    _SEED,
    _flag("--tol", type=float, default=None, help="residual tolerance"),
)
_IDENTITY = _CHAIN + (
    _flag(
        "--mode",
        choices=("auto", "exact", "numeric"),
        default="auto",
        help="auto picks exact for small L, numeric otherwise",
    ),
    _flag("--samples", type=int, default=2, help="numeric sample points"),
    _JSON,
    _PERTURB,
)


def _sector(required: bool) -> tuple:
    return _flag(
        "--sector", type=int, required=required, default=None, help="magnon number"
    )


_QUIVER = _flag("--quiver", required=True, help="quiver JSON file")
_DEPTH = _flag("--depth", type=int, default=8, help="mutation depth bound")
_N = _flag("--n", type=int, required=True)
_CHAMBER = _flag("--chamber", default=None, help="'plus', 'minus', or '1,0,2'")

_GROUPS = {
    "rmat": "fundamental 4x4 solution checks",
    "chain": "transfer matrices on a finite chain",
    "cluster": "seed mutation and exchange graphs",
    "stab": "attracting-order matrices and walls",
}

# (group, command, help, flags, handler); the report names it "group command".
# fmt: off
_COMMANDS = (
    ("rmat", "ybe", "triple exchange identity",
     (_scale(1), _scale(2), _scale(3), _JSON, _PERTURB), _cmd_rmat_ybe),
    ("rmat", "yang", "additive degeneration of the solution",
     (_flag("--cutoff", type=int, default=6,
            help="bound on the leading degree of each denominator"),
      _JSON, _PERTURB), _cmd_rmat_yang),
    ("rmat", "normalize", "rescale the cleared matrix to corner 1",
     (_scale(1), _scale(2), _JSON), _cmd_rmat_normalize),
    ("rmat", "limit", "scaled limit of the matrix at a pole",
     (_scale(1, note=""), _scale(2, "q^2", note=""),
      _flag("--point", default="1", help="location of the pole in z"), _JSON),
     _cmd_rmat_limit),
    ("rmat", "inverse", "unitarity of the normalized solution",
     (_SEED, _POINTS, _JSON, _PERTURB), _cmd_rmat_sampled),
    ("rmat", "hexagon", "mixed-argument exchange identity",
     (_SEED, _POINTS, _JSON, _PERTURB), _cmd_rmat_sampled),
    ("rmat", "intertwine", "zero-weight generator compatibility",
     (_JSON, _PERTURB), _cmd_rmat_intertwine),
    ("chain", "rtt", "exchange relation for the monodromy",
     _IDENTITY, _cmd_chain_identity),
    ("chain", "commute", "transfer matrices commute",
     _IDENTITY, _cmd_chain_identity),
    ("chain", "multiplicativity", "transfer over a tensor pair factorizes",
     _IDENTITY, _cmd_chain_identity),
    ("chain", "spectrum", "joint eigenvalue branches",
     _CHAIN + (_sector(False), _JSON), _cmd_chain_spectrum),
    ("chain", "tq", "shift identity with a polynomial on every branch",
     _CHAIN + (_sector(False), _JSON, _PERTURB), _cmd_chain_sector),
    ("chain", "bethe", "root systems against direct nonlinear solving",
     _CHAIN + (_sector(True), _JSON, _PERTURB), _cmd_chain_sector),
    ("cluster", "mutate", "mutate the initial seed at vertices",
     (_QUIVER,
      _flag("--at", type=int, action="append", required=True,
            help="1-based mutable vertex; repeat to compose"),
      _JSON), _cmd_cluster_mutate),
    ("cluster", "explore", "breadth-first seed exploration",
     (_QUIVER, _DEPTH, _JSON), _cmd_cluster_explore),
    ("cluster", "laurent", "denominators of discovered variables",
     (_QUIVER, _DEPTH, _JSON, _PERTURB), _cmd_cluster_laurent),
    ("stab", "roots", "wall directions of the arrangement",
     (_N, _JSON), _cmd_stab_roots),
    ("stab", "order", "attracting order of a chamber",
     (_N, _CHAMBER, _JSON), _cmd_stab_order),
    ("stab", "matrix", "envelope matrix for a chamber",
     (_N, _CHAMBER,
      _flag("--polarization", default=None,
            help="signs per fixed point, e.g. '1,-1'"),
      _JSON), _cmd_stab_matrix),
    ("stab", "rmatrix", "wall-crossing matrix between chambers",
     (_N, _flag("--chamber", default=None, help="source chamber"),
      _flag("--to", default=None, help="target chamber (default: opposite)"),
      _JSON), _cmd_stab_rmatrix),
    ("stab", "cycle", "cyclic wall-crossing product closes",
     (_N, _flag("--face", default="u1=u2", help="codim-2 face label"),
      _JSON, _PERTURB), _cmd_stab_cycle),
)
# fmt: on


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The argparse tree of ``_COMMANDS``, built once per process."""
    parser = argparse.ArgumentParser(
        prog="qilab",
        description="Checks and computations for the lattice-model toolkit.",
    )
    sub = parser.add_subparsers(dest="module", required=True)
    groups = {
        name: sub.add_parser(name, help=text).add_subparsers(dest="cmd", required=True)
        for name, text in _GROUPS.items()
    }
    for group, name, text, flags, handler in _COMMANDS:
        p = groups[group].add_parser(name, help=text)
        for option, kw in flags:
            p.add_argument(option, **kw)
        p.set_defaults(handler=handler, command=f"{group} {name}")
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(sys.argv[1:] if argv is None else list(argv))
    t0 = time.perf_counter()
    try:
        inputs, results = args.handler(args)
        return _finish(args, args.command, inputs, results, t0)
    except (ValueError, OSError, ZeroDivisionError, RuntimeError) as e:
        # InputError is a ValueError: malformed input of any kind exits 2
        print(f"error: {e}", file=sys.stderr)
        return 2


def _delegate(module: str, argv) -> int:
    rest = sys.argv[1:] if argv is None else list(argv)
    return main([module] + rest)


def main_rmat(argv=None) -> int:
    return _delegate("rmat", argv)


def main_chain(argv=None) -> int:
    return _delegate("chain", argv)


def main_cluster(argv=None) -> int:
    return _delegate("cluster", argv)


def main_stab(argv=None) -> int:
    return _delegate("stab", argv)
