import json
import random

import pytest
from hypothesis import given, settings, strategies as st

from qilab import cluster
from qilab.cluster import (
    Quiver,
    explore,
    initial_seed,
    laurent_check,
    mutate_quiver,
    mutate_seed,
)
from qilab.field import MPoly, NotDivisible, RatFun, poly

# The example quiver (one mutable vertex, two frozen) and A2.
EXAMPLE_QUIVER = {"r": 3, "frozen": [2, 3], "arrows": [[3, 1, 1], [1, 2, 1]]}
A2_QUIVER = {"r": 2, "frozen": [], "arrows": [[1, 2, 1]]}
A2_VARIABLES = (
    "X1",
    "X2",
    "(X2 + 1)/X1",
    "(X1 + X2 + 1)/(X1*X2)",
    "(X1 + 1)/X2",
)


def test_quiver_validation():
    with pytest.raises(ValueError):
        Quiver(r=0, B=(), frozen=frozenset())
    with pytest.raises(ValueError):
        Quiver(r=2, B=((0, 1),), frozen=frozenset())
    # loop on the diagonal
    with pytest.raises(ValueError):
        Quiver(r=1, B=((1,),), frozen=frozenset())
    # not skew-symmetric
    with pytest.raises(ValueError):
        Quiver(r=2, B=((0, 1), (1, 0)), frozen=frozenset())
    with pytest.raises(ValueError):
        Quiver(r=2, B=((0, 1), (-1, 0)), frozen=frozenset({3}))


def test_quiver_from_json_errors():
    with pytest.raises(ValueError, match="unknown quiver fields"):
        Quiver.from_json({"r": 2, "edges": []})
    with pytest.raises(ValueError, match="vertex count"):
        Quiver.from_json({"arrows": []})
    with pytest.raises(ValueError, match="out of range"):
        Quiver.from_json({"r": 2, "arrows": [[1, 3]]})
    with pytest.raises(ValueError, match="loops"):
        Quiver.from_json({"r": 2, "arrows": [[1, 1]]})
    with pytest.raises(ValueError):
        Quiver.from_json({"r": 2, "arrows": [[1, 2, 1, 9]]})


def test_quiver_from_json_accumulates_arrows():
    q = Quiver.from_json({"r": 2, "arrows": [[1, 2], [1, 2], [2, 1]]})
    assert q.B == ((0, 1), (-1, 0))
    round_trip = Quiver.from_json(q.to_json())
    assert round_trip == q


def test_mutation_rule_creates_composite_arrow():
    # path 1 -> 2 -> 3, mutate at the middle vertex
    q = Quiver.from_json({"r": 3, "arrows": [[1, 2], [2, 3]]})
    m = mutate_quiver(q, 2)
    assert m.B == ((0, -1, 1), (1, 0, -1), (-1, 1, 0))


def test_mutation_frozen_rejected():
    q = Quiver.from_json(EXAMPLE_QUIVER)
    with pytest.raises(ValueError, match="frozen or out of range"):
        mutate_quiver(q, 2)
    with pytest.raises(ValueError, match="frozen or out of range"):
        mutate_quiver(q, 4)


def test_quiver_mutation_involutive():
    q = Quiver.from_json(EXAMPLE_QUIVER)
    assert mutate_quiver(mutate_quiver(q, 1), 1) == q


def test_initial_seed_and_frozen_layout():
    q = Quiver.from_json(EXAMPLE_QUIVER)
    s = initial_seed(q)
    assert [str(v) for v in s.variables] == ["X1", "X2", "X3"]
    # frozen vertices must sit at the tail of the index range
    from qilab.cluster import Seed

    bad = Quiver(r=2, B=((0, 1), (-1, 0)), frozen=frozenset({1}))
    with pytest.raises(ValueError, match="trailing"):
        Seed(variables=(RatFun.var("X1"), RatFun.var("X2")), quiver=bad)


def test_exchange_identity():
    # new variable times the old one equals the two neighbor products summed
    for quiver_json, k in ((EXAMPLE_QUIVER, 1), (A2_QUIVER, 1), (A2_QUIVER, 2)):
        s = initial_seed(Quiver.from_json(quiver_json))
        out = inn = RatFun(1)
        for j, arrows in enumerate(s.quiver.B[k - 1]):
            if arrows > 0:
                out = out * s.variables[j] ** arrows
            elif arrows < 0:
                inn = inn * s.variables[j] ** -arrows
        m = mutate_seed(s, k)
        assert m.variables[k - 1] * s.variables[k - 1] == out + inn
        assert m.exchange[2] == out + inn


def test_seed_mutation_involutive():
    s = initial_seed(Quiver.from_json(EXAMPLE_QUIVER))
    assert mutate_seed(mutate_seed(s, 1), 1) == s


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.integers(min_value=-2, max_value=2), min_size=3, max_size=3),
    st.integers(min_value=1, max_value=3),
)
def test_seed_mutation_involutive_random(upper, k):
    a, b, c = upper
    B = ((0, a, b), (-a, 0, c), (-b, -c, 0))
    s = initial_seed(Quiver(r=3, B=B, frozen=frozenset()))
    assert mutate_seed(mutate_seed(s, k), k) == s


def test_mutation_back_along_each_edge_returns_the_seed():
    # explore skips the edge a seed was found by; that needs mu_k mu_k = id
    # on every seed it reaches
    d4 = Quiver.from_json({"r": 4, "frozen": [], "arrows": [[1, 2], [2, 3], [2, 4]]})
    for quiver in (d4, Quiver.from_json(EXAMPLE_QUIVER)):
        atlas = explore(initial_seed(quiver), 6)
        assert len(atlas.seeds) > 1
        for s in atlas.seeds:
            for k in range(1, quiver.n + 1):
                assert mutate_seed(mutate_seed(s, k), k) == s


def test_explore_example_quiver():
    atlas = explore(initial_seed(Quiver.from_json(EXAMPLE_QUIVER)), 4)
    assert atlas.closed
    assert atlas.cluster_count() == 2
    assert set(atlas.variable_strings()) == {"X1", "X2", "X3", "(X2 + X3)/X1"}
    assert atlas.relation_strings() == ["X1p*X1 = X2 + X3"]
    assert all(laurent_check(v) for v in atlas.variables.values())
    data = json.loads(atlas.to_json())
    assert data["clusters"] == 2
    assert data["closed"] is True


def test_explore_a2():
    atlas = explore(initial_seed(Quiver.from_json(A2_QUIVER)), 8)
    assert atlas.closed
    assert atlas.cluster_count() == 5
    assert set(atlas.variable_strings()) == set(A2_VARIABLES)
    # every variable is a Laurent polynomial in the initial cluster
    assert all(laurent_check(v) for v in atlas.variables.values())


def test_laurent_check_negative():
    assert laurent_check(RatFun.parse("(X1 + X2)/X1"))
    assert laurent_check(RatFun.parse("X1/(X1*X2)"))
    assert not laurent_check(RatFun.parse("(1 + X1)/(1 + X2)"))


def _tree_quiver(edges, rng):
    """A tree quiver on 4 vertices with each edge flipped when ``rng`` draws
    below 1/2, as the rational-canonical benchmark orients it (no rng keeps
    ``edges`` as given)."""
    arrows = []
    for i, j in edges:
        if rng is not None and rng.random() < 0.5:
            i, j = j, i
        arrows.append([i, j])
    return Quiver.from_json({"r": 4, "frozen": [], "arrows": arrows})


D4_EDGES = [(1, 2), (2, 3), (2, 4)]
A4_EDGES = [(1, 2), (2, 3), (3, 4)]


def _benchmark_explorations():
    # D4 at depth 12 then A4 at depth 14, oriented from one rng per seed
    for seed in range(4):
        rng = random.Random(seed) if seed else None
        yield _tree_quiver(D4_EDGES, rng), 12
        yield _tree_quiver(A4_EDGES, rng), 14


def test_laurent_division_equals_the_generic_quotient(monkeypatch):
    # every exchange of the benchmark explorations: the exact-division value
    # is the generic rhs / v, printed the same
    divide = cluster._divide
    seen = []

    def checked(rhs, v):
        new = divide(rhs, v)
        generic = rhs / v
        assert new == generic
        assert str(new) == str(generic)
        assert laurent_check(new)
        seen.append(new)
        return new

    monkeypatch.setattr(cluster, "_divide", checked)
    relations = 0
    for quiver, depth in _benchmark_explorations():
        relations += len(explore(initial_seed(quiver), depth).relations)
    # explore computes each distinct exchange once, through _divide
    assert len(seen) == relations


def test_non_laurent_exchange_takes_the_generic_quotient(monkeypatch):
    div_exact = MPoly.div_exact
    refused = []

    def spy(self, other):
        try:
            return div_exact(self, other)
        except NotDivisible:
            refused.append((str(self), str(other)))
            raise

    monkeypatch.setattr(MPoly, "div_exact", spy)
    q = Quiver.from_json(A2_QUIVER)
    x2 = RatFun.var("X2")
    # a polynomial that is not a monomial: both denominators are monomials,
    # the exact division is tried and refused
    s = cluster.Seed((RatFun.parse("1 + X1"), x2), q)
    new = mutate_seed(s, 1).variables[0]
    assert refused == [("X2 + 1", "X1 + 1")]
    assert new == RatFun.parse("(1 + X2)/(1 + X1)")
    assert not laurent_check(new)
    # a non-monomial denominator skips the division altogether
    v = RatFun.parse("(1 + X1)/(1 + X2)")
    new = mutate_seed(cluster.Seed((v, x2), q), 1).variables[0]
    assert refused == [("X2 + 1", "X1 + 1")]
    assert new == RatFun(v.den * (1 + x2).num, v.num)
    assert str(new) == str((1 + x2) / v)
    assert not laurent_check(new)


def test_benchmark_explorations_run_no_heuristic_or_prs_gcd(monkeypatch):
    # by the Laurent phenomenon every exchange is an exact division with a
    # monomial denominator, so no gcd of two multi-term operands is needed
    calls = {"heuristic": 0, "prs": 0}
    heuristic, prs = poly._heuristic_gcd, poly._prs_gcd

    def counted_heuristic(*args):
        calls["heuristic"] += 1
        return heuristic(*args)

    def counted_prs(*args):
        calls["prs"] += 1
        return prs(*args)

    monkeypatch.setattr(poly, "_heuristic_gcd", counted_heuristic)
    monkeypatch.setattr(poly, "_prs_gcd", counted_prs)
    x1, x2 = MPoly.var("X1"), MPoly.var("X2")
    poly.poly_gcd(x1 * x1 - 1, x1 * x2 + x2)  # the counters see a real gcd
    assert calls["heuristic"] > 0
    calls.update(heuristic=0)
    for edges, depth in ((D4_EDGES, 12), (A4_EDGES, 14)):
        explore(initial_seed(_tree_quiver(edges, None)), depth)
    assert calls == {"heuristic": 0, "prs": 0}


def _explore_without_a_table(seed, depth):
    """``explore`` as a plain breadth-first search: every edge calls
    ``mutate_seed``, and nothing is remembered between edges."""
    atlas = cluster.Atlas()
    for i, v in enumerate(seed.variables):
        cluster._register_variable(atlas, v, f"X{i + 1}")
    k0 = cluster._canonical_key(seed)
    seen = {k0}
    atlas.seed_keys.append(k0)
    atlas.seeds.append(seed)
    frontier = [(seed, None)]
    for _ in range(depth):
        if not frontier:
            break
        nxt = []
        for s, found_by in frontier:
            for k in range(1, s.quiver.n + 1):
                if k == found_by:
                    continue
                child = mutate_seed(s, k)
                cluster._record_relation(s, atlas, k, child)
                ck = cluster._canonical_key(child)
                if ck not in seen:
                    seen.add(ck)
                    atlas.seed_keys.append(ck)
                    atlas.seeds.append(child)
                    nxt.append((child, k))
        frontier = nxt
    atlas.closed = not frontier
    return atlas


def _reference_cases():
    for i, (quiver, depth) in enumerate(_benchmark_explorations()):
        yield pytest.param(quiver, depth, id=f"{'D4' if i % 2 == 0 else 'A4'}-seed{i // 2}")
    yield pytest.param(Quiver.from_json(EXAMPLE_QUIVER), 4, id="example")
    # A2 with one frozen vertex on each mutable one: frozen variables enter
    # every exchange of a finite-type exploration
    principal = {"r": 4, "frozen": [3, 4], "arrows": [[1, 2], [3, 1], [4, 2]]}
    yield pytest.param(Quiver.from_json(principal), 8, id="a2-frozen")
    kronecker = {"r": 2, "arrows": [[1, 2, 2]]}
    yield pytest.param(Quiver.from_json(kronecker), 8, id="kronecker")
    # a double arrow, and an atlas that is not closed at this depth
    wild = {"r": 3, "arrows": [[1, 2, 2], [2, 3, 1]]}
    yield pytest.param(Quiver.from_json(wild), 5, id="double-arrow")


@pytest.mark.parametrize("quiver, depth", _reference_cases())
def test_explore_equals_a_plain_breadth_first_search(quiver, depth):
    seed = initial_seed(quiver)
    atlas = explore(seed, depth)
    reference = _explore_without_a_table(seed, depth)
    assert atlas.to_json() == reference.to_json()
    assert atlas.seed_keys == reference.seed_keys
    assert atlas.seeds == reference.seeds
    for s, r in zip(atlas.seeds[1:], reference.seeds[1:]):
        out, inn, rhs = s.exchange
        assert (out, inn) == r.exchange[:2]
        assert rhs == r.exchange[2]
        assert str(rhs) == str(r.exchange[2])


@pytest.mark.parametrize(
    "edges, depth, relations", [(D4_EDGES, 12, 52), (A4_EDGES, 14, 35)], ids=["D4", "A4"]
)
def test_explore_computes_each_exchange_once(monkeypatch, edges, depth, relations):
    exchange = cluster._exchange
    calls = []

    def counted(seed, k):
        calls.append(k)
        return exchange(seed, k)

    monkeypatch.setattr(cluster, "_exchange", counted)
    seed = initial_seed(_tree_quiver(edges, None))
    atlas = explore(seed, depth)
    assert len(calls) == len(atlas.relations) == relations
    # the table lives for one call: a second call computes them all again
    explore(seed, depth)
    assert len(calls) == 2 * relations


def test_the_exchange_table_keys_on_every_input(monkeypatch):
    # seeds that share the variable at vertex 1 and differ in one input of
    # its exchange: an arrow count, a frozen neighbor, the side of a
    # neighbor, or the whole orientation (the same unordered pair, a hit)
    quivers = [
        {"r": 3, "frozen": [3], "arrows": [[1, 2, 1]]},
        {"r": 3, "frozen": [3], "arrows": [[1, 2, 2]]},
        {"r": 3, "frozen": [3], "arrows": [[1, 2, 1], [3, 1, 1]]},
        {"r": 3, "frozen": [3], "arrows": [[1, 2, 1], [1, 3, 1]]},
        {"r": 3, "frozen": [3], "arrows": [[2, 1, 1]]},
    ]
    exchange = cluster._exchange
    calls = []
    monkeypatch.setattr(cluster, "_exchange", lambda s, k: calls.append(k) or exchange(s, k))
    exchanges = {}
    computed = []
    for d in quivers:
        s = initial_seed(Quiver.from_json(d))
        for k in (1, 2):
            before = len(calls)
            new = cluster._mutate_once(s, k, exchanges)
            computed.append(len(calls) - before)
            expected = mutate_seed(s, k)
            assert new == expected
            assert new.exchange[:2] == expected.exchange[:2]
            assert str(new.exchange[2]) == str(expected.exchange[2])
            # mutating back is stored with the exchange: no new computation
            before = len(calls)
            back = cluster._mutate_once(new, k, exchanges)
            assert len(calls) == before
            assert back == s
            assert back.exchange[:2] == mutate_seed(new, k).exchange[:2]
    # vertex 2 of the third and fourth quivers exchanges X2 against X1 alone,
    # as in the first; the reversed quiver meets both of the first's pairs
    assert computed == [1, 1, 1, 1, 1, 0, 1, 0, 0, 0]
