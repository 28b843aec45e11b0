"""Command line front end, one entry point per module family.

Every subcommand wraps a library check or computation and prints a run
report: the command, echoed inputs, one verdict per check, and timing.
``--json`` switches to a machine-stable document: keys sorted, timing
null, so identical inputs and seed give byte-identical output.

Exit codes: 0 when every verdict passes, 1 when any fails, 2 on
malformed input (bad scalars, unreadable files, schema violations,
orders on a wall, genericity-guard failures).
"""

from __future__ import annotations

import argparse
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
    check_bethe,
    check_commute,
    check_multiplicativity,
    check_rtt,
    check_tq,
    compute_spectrum,
)
from .field import MPoly, RatFun, mat_mul, rref
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
    try:
        return ChainSpec.from_json(_load_json(path))
    except ValueError as e:
        raise InputError(str(e))


def _quiver(path: str) -> cl.Quiver:
    try:
        return cl.Quiver.from_json(_load_json(path))
    except ValueError as e:
        raise InputError(str(e))


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
    try:
        return st.Chamber.from_perm(n, perm)
    except ValueError as e:
        raise InputError(str(e))


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


# ---------------------------------------------------------------- rmat


def _cmd_rmat_ybe(args) -> int:
    t0 = time.perf_counter()
    a, b, c = _rational(args.a), _rational(args.b), _rational(args.c)
    cr = rm.check_ybe(a, b, c, perturb=args.perturb)
    inputs = {"a": str(a), "b": str(b), "c": str(c), "perturb": args.perturb}
    return _finish(args, "rmat ybe", inputs, [cr], t0)


def _cmd_rmat_yang(args) -> int:
    t0 = time.perf_counter()
    cr = rm.check_yang(cutoff=args.cutoff, perturb=args.perturb)
    inputs = {"cutoff": args.cutoff, "perturb": args.perturb}
    return _finish(args, "rmat yang", inputs, [cr], t0)


def _cmd_rmat_normalize(args) -> int:
    t0 = time.perf_counter()
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
    inputs = {"a": str(a), "b": str(b)}
    return _finish(args, "rmat normalize", inputs, [cr], t0)


def _cmd_rmat_limit(args) -> int:
    t0 = time.perf_counter()
    fa, fb = _ratfun(args.a), _ratfun(args.b)
    point = _fraction(args.point)
    inputs = {"a": args.a, "b": args.b, "point": str(point)}
    default = (
        fa == RatFun(1) and fb == RatFun.parse("q^2") and point == Fraction(1)
    )
    if default:
        cr = rm.check_pole_structure()
        return _finish(args, "rmat limit", inputs, [cr], t0)
    if fb.is_zero():
        raise InputError("scale b must be nonzero")
    zeta = RatFun(MPoly.var("z")) * fa / fb
    M = rm.trig_r(zeta)
    orders = [
        rm.pole_order_at(x, "z", point) for row in M for x in row if not x.is_zero()
    ]
    order = max(orders) if orders else 0
    res = [[rm.limit_at(x, "z", point, order) for x in row] for row in M]
    rank = len(rref(res)[1])
    cr = CheckResult(
        name="pole-limit",
        ok=True,
        details={
            "pole_order": order,
            "rank": rank,
            "limit": [[str(x) for x in row] for row in res],
        },
    )
    return _finish(args, "rmat limit", inputs, [cr], t0)


def _cmd_rmat_inverse(args) -> int:
    t0 = time.perf_counter()
    cr = rm.check_inverse(seed=args.seed, points=args.points, perturb=args.perturb)
    inputs = {"seed": args.seed, "points": args.points, "perturb": args.perturb}
    return _finish(args, "rmat inverse", inputs, [cr], t0)


def _cmd_rmat_hexagon(args) -> int:
    t0 = time.perf_counter()
    cr = rm.check_hexagon(seed=args.seed, points=args.points, perturb=args.perturb)
    inputs = {"seed": args.seed, "points": args.points, "perturb": args.perturb}
    return _finish(args, "rmat hexagon", inputs, [cr], t0)


def _cmd_rmat_intertwine(args) -> int:
    t0 = time.perf_counter()
    cr = rm.check_intertwiner(perturb=args.perturb)
    inputs = {"perturb": args.perturb}
    return _finish(args, "rmat intertwine", inputs, [cr], t0)


# ---------------------------------------------------------------- chain


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


def _pick_mode(args, spec: ChainSpec, exact_max: int) -> str:
    if args.mode != "auto":
        return args.mode
    if spec.L <= exact_max and _exact_capable(spec):
        return "exact"
    return "numeric"


def _tol_kw(args) -> dict:
    return {} if args.tol is None else {"tol": args.tol}


def _cmd_chain_rtt(args) -> int:
    t0 = time.perf_counter()
    spec = _chain_spec(args.spec)
    mode = _pick_mode(args, spec, exact_max=2)
    kw = _tol_kw(args) if mode == "numeric" else {}
    if mode == "numeric":
        kw["samples"] = args.samples
    cr = check_rtt(spec, mode=mode, seed=args.seed, perturb=args.perturb, **kw)
    inputs = {**_chain_inputs(args, spec), "mode": mode, "perturb": args.perturb}
    return _finish(args, "chain rtt", inputs, [cr], t0)


def _cmd_chain_commute(args) -> int:
    t0 = time.perf_counter()
    spec = _chain_spec(args.spec)
    mode = _pick_mode(args, spec, exact_max=3)
    kw = _tol_kw(args) if mode == "numeric" else {}
    if mode == "numeric":
        kw["samples"] = args.samples
    cr = check_commute(spec, mode=mode, seed=args.seed, perturb=args.perturb, **kw)
    inputs = {**_chain_inputs(args, spec), "mode": mode, "perturb": args.perturb}
    return _finish(args, "chain commute", inputs, [cr], t0)


def _cmd_chain_mult(args) -> int:
    t0 = time.perf_counter()
    spec = _chain_spec(args.spec)
    mode = _pick_mode(args, spec, exact_max=2)
    kw = _tol_kw(args) if mode == "numeric" else {}
    if mode == "numeric":
        kw["samples"] = args.samples
    cr = check_multiplicativity(
        spec, mode=mode, seed=args.seed, perturb=args.perturb, **kw
    )
    inputs = {**_chain_inputs(args, spec), "mode": mode, "perturb": args.perturb}
    return _finish(args, "chain multiplicativity", inputs, [cr], t0)


def _fmt_complex(v) -> str:
    if abs(v.imag) < 1e-12:
        return f"{v.real:.10g}"
    return f"({v.real:.10g}{v.imag:+.10g}i)"


def _cmd_chain_spectrum(args) -> int:
    t0 = time.perf_counter()
    spec = _chain_spec(args.spec)
    spectrum = compute_spectrum(spec, seed=args.seed)
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
    for br in spectrum.branches:
        if args.sector is not None and br.sector != args.sector:
            continue
        num_str = " + ".join(_term(k, co) for k, co in enumerate(br.ncoeffs))
        branches.append(
            {
                "sector": br.sector,
                "numerator_coeffs": [[co.real, co.imag] for co in br.ncoeffs],
                "fit_residual": br.fit_residual,
                "lam": f"({num_str}) / ({den_str})",
            }
        )
    cr = CheckResult(
        name="spectrum",
        ok=True,
        details={
            "L": spec.L,
            "branches": branches,
            "branch_count": len(spectrum.branches),
            "denominator": den_str,
        },
    )
    inputs = {**_chain_inputs(args, spec), "sector": args.sector}
    return _finish(args, "chain spectrum", inputs, [cr], t0)


def _cmd_chain_tq(args) -> int:
    t0 = time.perf_counter()
    spec = _chain_spec(args.spec)
    cr = check_tq(
        spec,
        seed=args.seed,
        perturb=args.perturb,
        sector=args.sector,
        **_tol_kw(args),
    )
    inputs = {
        **_chain_inputs(args, spec),
        "sector": args.sector,
        "perturb": args.perturb,
    }
    return _finish(args, "chain tq", inputs, [cr], t0)


def _cmd_chain_bethe(args) -> int:
    t0 = time.perf_counter()
    spec = _chain_spec(args.spec)
    try:
        cr = check_bethe(
            spec, args.sector, seed=args.seed, perturb=args.perturb, **_tol_kw(args)
        )
    except ValueError as e:
        raise InputError(str(e))
    inputs = {
        **_chain_inputs(args, spec),
        "sector": args.sector,
        "perturb": args.perturb,
    }
    return _finish(args, "chain bethe", inputs, [cr], t0)


# ---------------------------------------------------------------- cluster


def _cmd_cluster_mutate(args) -> int:
    t0 = time.perf_counter()
    quiver = _quiver(args.quiver)
    seed0 = cl.initial_seed(quiver)
    s = seed0
    for k in args.at:
        try:
            s = cl.mutate_seed(s, k)
        except ValueError as e:
            raise InputError(str(e))
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
    inputs = {"quiver": args.quiver, "at": list(args.at)}
    return _finish(args, "cluster mutate", inputs, [cr], t0)


def _cmd_cluster_explore(args) -> int:
    t0 = time.perf_counter()
    quiver = _quiver(args.quiver)
    atlas = cl.explore(cl.initial_seed(quiver), args.depth)
    cr = CheckResult(
        name="explore",
        ok=True,
        details=json.loads(atlas.to_json()),
    )
    inputs = {"quiver": args.quiver, "depth": args.depth}
    return _finish(args, "cluster explore", inputs, [cr], t0)


def _cmd_cluster_laurent(args) -> int:
    t0 = time.perf_counter()
    quiver = _quiver(args.quiver)
    atlas = cl.explore(cl.initial_seed(quiver), args.depth)
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
    inputs = {"quiver": args.quiver, "depth": args.depth, "perturb": args.perturb}
    return _finish(args, "cluster laurent", inputs, [cr], t0)


# ---------------------------------------------------------------- stab


def _stab_chamber(args, n: int) -> st.Chamber:
    if args.chamber is None:
        if n == 1:
            return st.Chamber.named("plus")
        raise InputError("--chamber is required for n >= 2")
    return _chamber(n, args.chamber)


def _cmd_stab_roots(args) -> int:
    t0 = time.perf_counter()
    if args.n < 1:
        raise InputError("n must be at least 1")
    rts = st.roots(args.n)
    cr = CheckResult(
        name="roots",
        ok=True,
        details={"n": args.n, "roots": rts, "count": len(rts)},
    )
    return _finish(args, "stab roots", {"n": args.n}, [cr], t0)


def _cmd_stab_order(args) -> int:
    t0 = time.perf_counter()
    chamber = _stab_chamber(args, args.n)
    cr = CheckResult(
        name="order",
        ok=True,
        details={
            "n": args.n,
            "order": chamber.order_string(),
            "top_to_bottom": st.attr_order(chamber),
        },
    )
    inputs = {"n": args.n, "chamber": args.chamber or "plus"}
    return _finish(args, "stab order", inputs, [cr], t0)


def _cmd_stab_matrix(args) -> int:
    t0 = time.perf_counter()
    chamber = _stab_chamber(args, args.n)
    pol = _polarization(args.polarization) if args.polarization else None
    try:
        sm = st.stab_matrix(chamber, polarization=pol)
    except ValueError as e:
        raise InputError(str(e))
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
    axioms = st.check_axioms(sm)
    inputs = {
        "n": args.n,
        "chamber": args.chamber or "plus",
        "polarization": args.polarization,
    }
    return _finish(args, "stab matrix", inputs, [info, axioms], t0)


def _cmd_stab_rmatrix(args) -> int:
    t0 = time.perf_counter()
    chamber = _stab_chamber(args, args.n)
    to = _chamber(args.n, args.to) if args.to else chamber.opposite()
    try:
        sa = st.stab_matrix(chamber)
        sb = st.stab_matrix(to)
        R = st.geometric_r(sa, sb)
        Rback = st.geometric_r(sb, sa)
    except ValueError as e:
        raise InputError(str(e))
    prod = mat_mul(R, Rback)
    m = len(prod)
    ident = all(
        prod[i][j] == RatFun(1 if i == j else 0) for i in range(m) for j in range(m)
    )
    got = tuple(tuple(str(x) for x in row) for row in R)
    details = {
        "from": chamber.order_string(),
        "to": to.order_string(),
        "matrix": [list(row) for row in got],
        "inverse_pair_is_identity": ident,
    }
    ok = ident
    if args.n == 1 and chamber.perm == (1, 0) and to.perm == (0, 1):
        matches = got == st.N1_R
        details["matches_reference"] = matches
        ok = ok and matches
    cr = CheckResult(name="geometric-r", ok=ok, details=details)
    inputs = {
        "n": args.n,
        "chamber": args.chamber or "plus",
        "to": args.to or to.order_string(),
    }
    return _finish(args, "stab rmatrix", inputs, [cr], t0)


def _cmd_stab_cycle(args) -> int:
    t0 = time.perf_counter()
    if args.n != 2:
        raise InputError("the cycle walk is implemented for n=2")
    if args.face != "u1=u2":
        raise InputError(
            f"unknown face {args.face!r}; the supported codim-2 face is 'u1=u2'"
        )
    cr = st.check_cycle_identity(perturb=args.perturb)
    inputs = {"n": args.n, "face": args.face, "perturb": args.perturb}
    return _finish(args, "stab cycle", inputs, [cr], t0)


# ---------------------------------------------------------------- parser


def _add_json(p) -> None:
    p.add_argument("--json", action="store_true", help="machine-readable report")


def _add_perturb(p) -> None:
    p.add_argument(
        "--perturb",
        action="store_true",
        help="apply the documented breaking perturbation; the check must fail",
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qilab",
        description="Checks and computations for the lattice-model toolkit.",
    )
    sub = parser.add_subparsers(dest="module", required=True)

    # ---- rmat
    rmat = sub.add_parser("rmat", help="fundamental 4x4 solution checks")
    rsub = rmat.add_subparsers(dest="cmd", required=True)

    p = rsub.add_parser("ybe", help="triple exchange identity")
    p.add_argument("--a", default="1", help="scale of space 1 (rational)")
    p.add_argument("--b", default="1", help="scale of space 2 (rational)")
    p.add_argument("--c", default="1", help="scale of space 3 (rational)")
    _add_json(p)
    _add_perturb(p)
    p.set_defaults(func=_cmd_rmat_ybe)

    p = rsub.add_parser("yang", help="additive degeneration of the solution")
    p.add_argument("--cutoff", type=int, default=6, help="series truncation order")
    _add_json(p)
    _add_perturb(p)
    p.set_defaults(func=_cmd_rmat_yang)

    p = rsub.add_parser("normalize", help="rescale the cleared matrix to corner 1")
    p.add_argument("--a", default="1", help="scale of space 1 (rational)")
    p.add_argument("--b", default="1", help="scale of space 2 (rational)")
    _add_json(p)
    p.set_defaults(func=_cmd_rmat_normalize)

    p = rsub.add_parser("limit", help="scaled limit of the matrix at a pole")
    p.add_argument("--a", default="1", help="scale of space 1")
    p.add_argument("--b", default="q^2", help="scale of space 2")
    p.add_argument("--point", default="1", help="location of the pole in z")
    _add_json(p)
    p.set_defaults(func=_cmd_rmat_limit)

    p = rsub.add_parser("inverse", help="unitarity of the normalized solution")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--points", type=int, default=3, help="random rational triples")
    _add_json(p)
    _add_perturb(p)
    p.set_defaults(func=_cmd_rmat_inverse)

    p = rsub.add_parser("hexagon", help="mixed-argument exchange identity")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--points", type=int, default=3, help="random rational triples")
    _add_json(p)
    _add_perturb(p)
    p.set_defaults(func=_cmd_rmat_hexagon)

    p = rsub.add_parser("intertwine", help="zero-weight generator compatibility")
    _add_json(p)
    _add_perturb(p)
    p.set_defaults(func=_cmd_rmat_intertwine)

    # ---- chain
    chain = sub.add_parser("chain", help="transfer matrices on a finite chain")
    csub = chain.add_subparsers(dest="cmd", required=True)

    def chain_parser(name, helptext, *, sector=None, mode=True, perturb=True):
        cp = csub.add_parser(name, help=helptext)
        cp.add_argument("--spec", required=True, help="chain description JSON file")
        cp.add_argument("--seed", type=int, default=0)
        cp.add_argument("--tol", type=float, default=None, help="residual tolerance")
        if mode:
            cp.add_argument(
                "--mode",
                choices=("auto", "exact", "numeric"),
                default="auto",
                help="auto picks exact for small L, numeric otherwise",
            )
            cp.add_argument(
                "--samples", type=int, default=2, help="numeric sample points"
            )
        if sector is not None:
            cp.add_argument(
                "--sector",
                type=int,
                required=sector,
                default=None,
                help="magnon number",
            )
        _add_json(cp)
        if perturb:
            _add_perturb(cp)
        return cp

    chain_parser("rtt", "exchange relation for the monodromy").set_defaults(
        func=_cmd_chain_rtt
    )
    chain_parser("commute", "transfer matrices commute").set_defaults(
        func=_cmd_chain_commute
    )
    chain_parser(
        "multiplicativity", "transfer over a tensor pair factorizes"
    ).set_defaults(func=_cmd_chain_mult)
    chain_parser(
        "spectrum", "joint eigenvalue branches", sector=False, mode=False, perturb=False
    ).set_defaults(func=_cmd_chain_spectrum)
    chain_parser(
        "tq", "shift identity with a polynomial on every branch", sector=False,
        mode=False,
    ).set_defaults(func=_cmd_chain_tq)
    chain_parser(
        "bethe", "root systems against direct nonlinear solving", sector=True,
        mode=False,
    ).set_defaults(func=_cmd_chain_bethe)

    # ---- cluster
    cluster = sub.add_parser("cluster", help="seed mutation and exchange graphs")
    clsub = cluster.add_subparsers(dest="cmd", required=True)

    p = clsub.add_parser("mutate", help="mutate the initial seed at vertices")
    p.add_argument("--quiver", required=True, help="quiver JSON file")
    p.add_argument(
        "--at",
        type=int,
        action="append",
        required=True,
        help="1-based mutable vertex; repeat to compose",
    )
    _add_json(p)
    p.set_defaults(func=_cmd_cluster_mutate)

    p = clsub.add_parser("explore", help="breadth-first seed exploration")
    p.add_argument("--quiver", required=True, help="quiver JSON file")
    p.add_argument("--depth", type=int, default=8, help="mutation depth bound")
    _add_json(p)
    p.set_defaults(func=_cmd_cluster_explore)

    p = clsub.add_parser("laurent", help="denominators of discovered variables")
    p.add_argument("--quiver", required=True, help="quiver JSON file")
    p.add_argument("--depth", type=int, default=8, help="mutation depth bound")
    _add_json(p)
    _add_perturb(p)
    p.set_defaults(func=_cmd_cluster_laurent)

    # ---- stab
    stab = sub.add_parser("stab", help="attracting-order matrices and walls")
    ssub = stab.add_subparsers(dest="cmd", required=True)

    p = ssub.add_parser("roots", help="wall directions of the arrangement")
    p.add_argument("--n", type=int, required=True)
    _add_json(p)
    p.set_defaults(func=_cmd_stab_roots)

    p = ssub.add_parser("order", help="attracting order of a chamber")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--chamber", default=None, help="'plus', 'minus', or '1,0,2'")
    _add_json(p)
    p.set_defaults(func=_cmd_stab_order)

    p = ssub.add_parser("matrix", help="envelope matrix for a chamber")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--chamber", default=None, help="'plus', 'minus', or '1,0,2'")
    p.add_argument(
        "--polarization", default=None, help="signs per fixed point, e.g. '1,-1'"
    )
    _add_json(p)
    p.set_defaults(func=_cmd_stab_matrix)

    p = ssub.add_parser("rmatrix", help="wall-crossing matrix between chambers")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--chamber", default=None, help="source chamber")
    p.add_argument("--to", default=None, help="target chamber (default: opposite)")
    _add_json(p)
    p.set_defaults(func=_cmd_stab_rmatrix)

    p = ssub.add_parser("cycle", help="cyclic wall-crossing product closes")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--face", default="u1=u2", help="codim-2 face label")
    _add_json(p)
    _add_perturb(p)
    p.set_defaults(func=_cmd_stab_cycle)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(sys.argv[1:] if argv is None else list(argv))
    try:
        return args.func(args)
    except InputError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except (ValueError, OSError, ZeroDivisionError, RuntimeError) as e:
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
