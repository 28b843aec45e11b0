"""The three workloads: which checks each one runs, generated from the seed.

Every case is one in-process CLI command (``qilab.cli.main(argv + ["--json"])``)
except the character-substitution check, which has no command and is called
directly.  Input files are written under the work directory with paths
relative to the checkout root, so the ``--json`` bytes do not depend on
where the checkout lives.

The workload seed is passed to every command that takes ``--seed`` and to
the direct call.  The numeric chains keep the acceptance battery's q and
twist; rational-canonical orients the arrows of its D4 and A4 quivers from
the seed (seed 0 keeps the orientation written below).
"""

from __future__ import annotations

import itertools
import json
import os
import random
from dataclasses import dataclass

# The acceptance battery's generic numeric point (tests/test_acceptance.py).
GENERIC = {"q": "0.83+0.21*i", "twist": "0.64+0.13*i"}

WORKLOADS = {
    "chain-numeric": (
        "long numeric chains: dense transfer builds, eig and the scalar "
        "loops of chain.spectrum dominate; the exact field is idle"
    ),
    "exact-cleared": (
        "exact identities on cleared polynomial matrices: thousands of MPoly "
        "multiplies, few gcds, numpy idle"
    ),
    "rational-canonical": (
        "stab, cluster and rmatrix over rational functions: RatFun "
        "canonicalisation (gcd, div_exact) and rref; chain code unused"
    ),
}

# Wrong verdicts the program is known to give on these inputs.  They stay in
# the workloads and count as failed; only a wrong verdict outside this list
# makes the run incorrect.  A listed case that passes is fine.
KNOWN_DEFECTS = {
    "chain tq L=6": "collocation loses accuracy in high magnon sectors; "
    "fails at seed 8 among seeds 0..23",
    "chain tq L=7": "same cause as L=8; residual 1.2e-8..2.1e-8 against 1e-8 "
    "at about half the seeds, passes at seed 0",
    "chain tq L=8": "functional residual 6.4e-8 against tolerance 1e-8 at seed 0",
    "chain bethe L=6 sector=3": "the Newton solve lands on a different root "
    "set (branch 28 at seed 0)",
}


@dataclass(frozen=True)
class Case:
    """One check: a CLI argv, or ``qchar`` arguments for the direct call."""

    id: str
    expect: int  # 0 for a true identity, 1 for a --perturb control
    argv: tuple = ()
    qchar: tuple = ()  # (L, perturb) for qchar.check_conjecture_sl2


class Inputs:
    """Writes seeded input files into ``workdir``; ``root`` is the checkout."""

    def __init__(self, root: str, workdir: str):
        self.root = root
        self.workdir = workdir
        os.makedirs(os.path.join(root, workdir), exist_ok=True)

    def write(self, name: str, obj) -> str:
        rel = os.path.join(self.workdir, name + ".json")
        with open(os.path.join(self.root, rel), "w", encoding="utf-8") as fh:
            json.dump(obj, fh, sort_keys=True)
        return rel


def _tree_quiver(r: int, edges, rng) -> dict:
    """Orient each edge of a tree from the seed; seed 0 keeps edges as given."""
    arrows = []
    for i, j in edges:
        if rng is not None and rng.random() < 0.5:
            i, j = j, i
        arrows.append([i, j])
    return {"r": r, "frozen": [], "arrows": arrows}


def _chain_numeric(inp: Inputs, seed: int):
    def spec(L):
        return inp.write(f"generic-L{L}", {"L": L, **GENERIC})

    s = ("--seed", str(seed))
    cases = [Case("chain spectrum L=8", 0, ("chain", "spectrum", "--spec", spec(8)) + s)]
    for L in (6, 7, 8):
        cases.append(Case(f"chain tq L={L}", 0, ("chain", "tq", "--spec", spec(L)) + s))
    for m in (2, 3):
        cases.append(
            Case(
                f"chain bethe L=6 sector={m}",
                0,
                ("chain", "bethe", "--spec", spec(6), "--sector", str(m)) + s,
            )
        )
    numeric = ("--mode", "numeric")
    cases += [
        Case("chain commute L=8 numeric", 0, ("chain", "commute", "--spec", spec(8)) + numeric + s),
        Case(
            "chain commute L=9 numeric samples=1",
            0,
            ("chain", "commute", "--spec", spec(9)) + numeric + ("--samples", "1") + s,
        ),
        Case(
            "chain rtt L=8 numeric samples=1",
            0,
            ("chain", "rtt", "--spec", spec(8)) + numeric + ("--samples", "1") + s,
        ),
        Case(
            "chain multiplicativity L=6 numeric",
            0,
            ("chain", "multiplicativity", "--spec", spec(6)) + numeric + s,
        ),
        Case("qchar conjecture L=4", 0, qchar=(4, False)),
    ]
    l2 = spec(2)
    for cmd in ("rtt", "commute", "multiplicativity", "tq"):
        cases.append(Case(f"chain {cmd} L=2 perturb", 1, ("chain", cmd, "--spec", l2, "--perturb") + s))
    cases.append(
        Case(
            "chain bethe L=2 sector=1 perturb",
            1,
            ("chain", "bethe", "--spec", l2, "--sector", "1", "--perturb") + s,
        )
    )
    cases.append(Case("qchar conjecture L=2 perturb", 1, qchar=(2, True)))
    warmup = [
        ("chain", "spectrum", "--spec", spec(3)) + s,
        ("chain", "tq", "--spec", spec(3)) + s,
        ("chain", "bethe", "--spec", spec(3), "--sector", "1") + s,
        ("chain", "commute", "--spec", spec(3)) + numeric + s,
        ("chain", "rtt", "--spec", spec(3)) + numeric + s,
        ("chain", "multiplicativity", "--spec", spec(3)) + numeric + s,
    ]
    return cases, warmup


def _exact_cleared(inp: Inputs, seed: int):
    def spec(L, q):
        tag = "sym" if q == "q" else "q35"
        return inp.write(f"{tag}-L{L}", {"L": L, "q": q, "twist": "u"})

    s = ("--seed", str(seed))
    exact = ("--mode", "exact")
    cases = [
        Case("chain rtt L=3 q=q exact", 0, ("chain", "rtt", "--spec", spec(3, "q")) + exact + s),
        Case("chain rtt L=4 q=3/5 exact", 0, ("chain", "rtt", "--spec", spec(4, "3/5")) + exact + s),
        Case(
            "chain commute L=5 q=3/5 exact",
            0,
            ("chain", "commute", "--spec", spec(5, "3/5")) + exact + s,
        ),
        Case("chain commute L=4 q=q exact", 0, ("chain", "commute", "--spec", spec(4, "q")) + exact + s),
        Case(
            "chain multiplicativity L=3 q=q exact",
            0,
            ("chain", "multiplicativity", "--spec", spec(3, "q")) + exact + s,
        ),
        Case("rmat ybe", 0, ("rmat", "ybe")),
        Case("rmat ybe a=2 b=3 c=5", 0, ("rmat", "ybe", "--a", "2", "--b", "3", "--c", "5")),
        Case("rmat hexagon", 0, ("rmat", "hexagon") + s),
        Case("rmat inverse", 0, ("rmat", "inverse") + s),
        Case("rmat intertwine", 0, ("rmat", "intertwine")),
        Case("rmat ybe perturb", 1, ("rmat", "ybe", "--perturb")),
        Case("rmat hexagon perturb", 1, ("rmat", "hexagon", "--perturb") + s),
        Case("rmat inverse perturb", 1, ("rmat", "inverse", "--perturb") + s),
        Case("rmat intertwine perturb", 1, ("rmat", "intertwine", "--perturb")),
        Case(
            "chain rtt L=2 q=q exact perturb",
            1,
            ("chain", "rtt", "--spec", spec(2, "q")) + exact + ("--perturb",) + s,
        ),
        Case(
            "chain commute L=2 q=3/5 exact perturb",
            1,
            ("chain", "commute", "--spec", spec(2, "3/5")) + exact + ("--perturb",) + s,
        ),
        Case(
            "chain multiplicativity L=2 q=q exact perturb",
            1,
            ("chain", "multiplicativity", "--spec", spec(2, "q")) + exact + ("--perturb",) + s,
        ),
    ]
    warmup = [
        ("chain", "rtt", "--spec", spec(1, "q")) + exact + s,
        ("chain", "commute", "--spec", spec(2, "3/5")) + exact + s,
        ("chain", "multiplicativity", "--spec", spec(1, "q")) + exact + s,
        ("rmat", "ybe"),
        ("rmat", "hexagon", "--points", "1") + s,
        ("rmat", "inverse", "--points", "1") + s,
        ("rmat", "intertwine"),
    ]
    return cases, warmup


def _rational_canonical(inp: Inputs, seed: int):
    rng = random.Random(seed) if seed else None
    d4 = inp.write("d4", _tree_quiver(4, [(1, 2), (2, 3), (2, 4)], rng))
    a4 = inp.write("a4", _tree_quiver(4, [(1, 2), (2, 3), (3, 4)], rng))
    cases = [
        Case("stab cycle n=2", 0, ("stab", "cycle", "--n", "2")),
        Case("stab cycle n=2 perturb", 1, ("stab", "cycle", "--n", "2", "--perturb")),
    ]
    for perm in itertools.permutations(range(4)):
        chamber = ",".join(map(str, perm))
        cases.append(
            Case(f"stab matrix n=3 chamber={chamber}", 0, ("stab", "matrix", "--n", "3", "--chamber", chamber))
        )
    cases += [
        Case("stab rmatrix n=1", 0, ("stab", "rmatrix", "--n", "1")),
        Case("stab rmatrix n=2", 0, ("stab", "rmatrix", "--n", "2", "--chamber", "0,1,2")),
        Case("cluster explore D4 depth=12", 0, ("cluster", "explore", "--quiver", d4, "--depth", "12")),
        Case("cluster explore A4 depth=14", 0, ("cluster", "explore", "--quiver", a4, "--depth", "14")),
        Case("cluster laurent D4", 0, ("cluster", "laurent", "--quiver", d4)),
        Case("cluster laurent D4 perturb", 1, ("cluster", "laurent", "--quiver", d4, "--perturb")),
        Case("rmat yang", 0, ("rmat", "yang")),
        Case("rmat limit", 0, ("rmat", "limit")),
        Case("rmat normalize a=2 b=3", 0, ("rmat", "normalize", "--a", "2", "--b", "3")),
    ]
    a2 = inp.write("a2", {"r": 2, "frozen": [], "arrows": [[1, 2]]})
    warmup = [
        ("stab", "matrix", "--n", "1"),
        ("stab", "rmatrix", "--n", "1"),
        ("cluster", "explore", "--quiver", a2),
        ("cluster", "laurent", "--quiver", a2),
        ("rmat", "yang", "--cutoff", "3"),
        ("rmat", "limit"),
        ("rmat", "normalize"),
    ]
    return cases, warmup


_BUILDERS = {
    "chain-numeric": _chain_numeric,
    "exact-cleared": _exact_cleared,
    "rational-canonical": _rational_canonical,
}


def build(workload: str, seed: int, inp: Inputs):
    """Return ``(cases, warmup_argvs)`` for one workload and seed."""
    return _BUILDERS[workload](inp, seed)
