"""Matrix layer over exact scalars and its numeric twin."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from qilab.field import (
    MPoly,
    RatFun,
    apply_on_slots,
    identity,
    kron,
    mat_eq,
    mat_mul,
    np_residual,
    np_spin_apply,
    np_spin_dense,
    np_spin_identity,
    np_spin_trace_first,
    orders_differ,
    rref,
    slots_differ,
    spin_transfer,
)
from qilab.field import poly as poly_module
from slot_oracles import np_apply_on_slots, np_op_on_slots, op_on_slots


def _frac_mat(rows):
    return [[MPoly.const(Fraction(x)) for x in row] for row in rows]


def test_op_on_slots_matches_kron_oracle():
    # a 4x4 operator on slots (0,1) of three qubits is M (x) I
    M = _frac_mat([[1, 2, 0, 0], [0, 1, 0, 0], [3, 0, 1, 0], [0, 0, 0, 2]])
    big = op_on_slots(M, (0, 1), [2, 2, 2])
    oracle = kron(M, identity(2))
    assert mat_eq(big, oracle)


def test_op_on_slots_reorders_slots():
    # acting on (1,0) must equal conjugation by the swap of the two factors
    M = _frac_mat([[0, 1, 0, 0], [2, 0, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])
    got = op_on_slots(M, (1, 0), [2, 2])
    S = _frac_mat([[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]])
    oracle = mat_mul(mat_mul(S, M), S)
    assert mat_eq(got, oracle)


_Z = MPoly.var("z")
_W = MPoly.var("w")

# the 10 entries of a 4x4 factor on two slots that move spin between them
_SPIN_MOVING = [
    (i, j) for i in range(4) for j in range(4) if i != j and {i, j} != {1, 2}
]


def _exact_value(rng, kind):
    # 0 (an int, as in an identity) or a small Fraction or MPoly
    if rng.random() < 0.3:
        return 0
    c = Fraction(int(rng.integers(-3, 4)), int(rng.integers(1, 5)))
    return c if kind == "fraction" else c * _Z + int(rng.integers(-2, 3))


@st.composite
def _exact_slot_problems(draw):
    # 2..5 slots of size 2, two of them in either order (so reversed and
    # non-adjacent pairs occur), and a conserving factor of Fraction or
    # MPoly entries whose corners may each be 1
    n = draw(st.integers(2, 5))
    slots = tuple(draw(st.permutations(range(n)))[:2])
    kind = draw(st.sampled_from(["fraction", "mpoly"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    F = [[0] * 4 for _ in range(4)]
    for i, j in ((1, 1), (1, 2), (2, 1), (2, 2)):
        F[i][j] = _exact_value(rng, kind)
    for i in (0, 3):
        F[i][i] = 1 if draw(st.booleans()) else _exact_value(rng, kind)
    return F, slots, n


def _is_packed(M) -> bool:
    # nonzero entries are MPoly and the others int 0
    return all(
        isinstance(x, MPoly) if x else type(x) is int for row in M for x in row
    )


@settings(max_examples=60, deadline=None)
@given(_exact_slot_problems())
def test_apply_on_slots_equals_product_with_embedding(problem):
    F, slots, n = problem
    expected = mat_mul(identity(1 << n), op_on_slots(F, slots, [2] * n))
    out = apply_on_slots(n, [(F, slots)])
    assert mat_eq(out, expected)
    assert _is_packed(out)


# a small pool of values, so equal entries and opposite factor entries meet
# often and sums cancel: int 0 and MPoly zero, ints, Fractions and MPolys
_POOL = [0, MPoly.zero(), 1, -1, 2, Fraction(1, 2), Fraction(-3, 4)]
_POOL += [_Z, -_Z, _Z + 1, 2 * _Z - Fraction(1, 3)]
_ONES = [1, Fraction(1), MPoly.const(1)]


# coefficients up to about 2^40 of both signs, alone or on z and z^2
_BIG = st.builds(
    lambda a, b, k: a * _Z**k + b,
    st.integers(-(2**40), 2**40),
    st.integers(-(2**40), 2**40),
    st.integers(0, 2),
)


def _draw_stream(draw, n: int, value=st.sampled_from(_POOL)) -> list:
    # 1..5 conserving factors on pairs of the n slots in either order, their
    # entries drawn from ``value``, by default the pool; a corner may be 1 in
    # any of its three kinds and a middle entry may be zero
    steps = []
    for _ in range(draw(st.integers(1, 5))):
        F = [[0] * 4 for _ in range(4)]
        for i, j in ((1, 1), (1, 2), (2, 1), (2, 2)):
            F[i][j] = draw(value)
        for i in (0, 3):
            F[i][i] = draw(st.one_of(st.sampled_from(_ONES), value))
        steps.append((F, tuple(draw(st.permutations(range(n)))[:2])))
    return steps


@st.composite
def _exact_slot_streams(draw):
    n = draw(st.integers(2, 5))
    return _draw_stream(draw, n), n


@st.composite
def _exact_stream_pairs(draw):
    # two streams on one slot count; the second is often the first with its
    # factors scaled in pairs, so the products stay equal or differ late
    n = draw(st.integers(2, 4))
    value = st.one_of(st.sampled_from(_POOL), _BIG)
    lhs = _draw_stream(draw, n, value)
    if draw(st.booleans()):
        return lhs, _draw_stream(draw, n, value), n
    rhs = [([row[:] for row in F], slots) for F, slots in lhs]
    if len(rhs) > 1 and draw(st.booleans()):
        # a scalar moves from one factor to another: the product is the same,
        # the denominators of the two streams are not
        c = draw(st.sampled_from([Fraction(1, 2), Fraction(3), Fraction(-2, 5)]))
        rhs[0] = ([[c * x for x in row] for row in rhs[0][0]], rhs[0][1])
        rhs[-1] = ([[x * (1 / c) for x in row] for row in rhs[-1][0]], rhs[-1][1])
    if draw(st.booleans()):
        F, slots = rhs[-1]
        F[1][2] = F[1][2] * 2 + 1  # breaks the product unless the row misses it
    return lhs, rhs, n


_MIX = [[1, 0, 0, 0], [0, 1, 1, 0], [0, 1, 1, 0], [0, 0, 0, 1]]
_CANCEL = [[1, 0, 0, 0], [0, 1, 1, 0], [0, -1, -1, 0], [0, 0, 0, 1]]


@settings(max_examples=80, deadline=None)
@given(_exact_slot_streams())
@example(([(_MIX, (0, 1)), (_CANCEL, (0, 1))], 2))  # rows 1 and 2 cancel to zero
def test_a_stream_equals_the_product_of_its_embeddings(problem):
    steps, n = problem
    expected = identity(1 << n)
    for F, slots in steps:
        expected = mat_mul(expected, op_on_slots(F, slots, [2] * n))
    out = apply_on_slots(n, iter(steps))
    assert mat_eq(out, expected)
    assert _is_packed(out)


def _first_differing_row(A, B):
    # the materialised oracle: mat_eq row by row
    return next((i for i, (x, y) in enumerate(zip(A, B)) if not mat_eq([x], [y])), None)


@settings(max_examples=120, deadline=None)
@given(_exact_stream_pairs())
@example(
    (
        [(_frac_mat(np.diag([1, 2, 2, 1]).tolist()), (0, 1)), (_frac_mat(np.diag([3, 1, 1, 3]).tolist()), (0, 1))],
        [(_frac_mat(np.diag([3, 2, 2, 3]).tolist()), (1, 0))],
        2,
    )
)
@example(([(_MIX, (0, 1)), (_CANCEL, (0, 1))], [(_CANCEL, (0, 1)), (_MIX, (0, 1))], 2))
def test_slots_differ_gives_the_materialised_verdict(problem):
    # the rows of both streams are compared raw, over one pack; where the two
    # streams' denominators differ, each side is scaled by the other's
    lhs, rhs, n = problem
    expected = _first_differing_row(apply_on_slots(n, lhs), apply_on_slots(n, rhs))
    assert slots_differ(n, iter(lhs), iter(rhs)) == expected


def test_slots_differ_with_two_denominators():
    # z/2 then 2/3 on the 00 corner against z/3 in one factor: equal
    # products over denominators 6 and 3; a 5/3 instead differs in row 0
    half = [[_Z * Fraction(1, 2), 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, Fraction(1, 2)]]
    third = [[_Z * Fraction(1, 3), 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, Fraction(1, 3)]]
    scale = [[Fraction(2, 3), 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, Fraction(2, 3)]]
    assert slots_differ(2, [(half, (0, 1)), (scale, (0, 1))], [(third, (0, 1))]) is None
    scale[0][0] = Fraction(5, 3)
    assert slots_differ(2, [(half, (0, 1)), (scale, (0, 1))], [(third, (0, 1))]) == 0
    scale[0][0], third[3][3] = Fraction(2, 3), Fraction(1, 6)
    assert slots_differ(2, [(half, (0, 1)), (scale, (0, 1))], [(third, (0, 1))]) == 3


def _carry_pairs() -> list:
    # stream pairs on two slots whose row 0 differs by a polynomial that a
    # Kronecker map with one bit or one exponent too few would send to 0
    w, q = MPoly.var("w"), MPoly.var("q")

    def stream(*corners):
        return [(_corners(*c), (0, 1)) for c in corners]

    pairs = []
    for m in (3, 6, 11, 2**40 + 3):
        # the larger l1 norm is m, so B is bit_length(2m); 2^(B-1) < 2m
        # puts the coefficient m - 2^(B-1) inside that norm
        b = (2 * m).bit_length()
        for shift in (b - 2, b - 1, b, b + 1):
            for c in (1, -1):
                pairs.append((stream((c * m,)), stream((c * (m + _Z - 2**shift),))))
    # a term at the exponent bound of a lower slot against one unit of the
    # slot above it: lowest, and middle of three
    pairs += [(stream((w**3,)), stream((_Z,))), (stream((q**2,)), stream((w,)))]
    pairs.append((stream((_Z, q**3)), stream((w**2, q**3))))
    # two steps of norm 3 make 9, which 1 + z would meet at B = 3
    pairs += [(stream((3,), (3,)), stream((1 + _Z,))), (stream((-3,), (3,)), stream((-1 - _Z,)))]
    return pairs


def test_slots_differ_tells_carry_shaped_differences_apart():
    for lhs, rhs in _carry_pairs():
        for a, b in ((lhs, rhs), (rhs, lhs)):
            assert _first_differing_row(apply_on_slots(2, a), apply_on_slots(2, b)) == 0
            assert slots_differ(2, a, b) == 0


def test_a_sparse_entry_of_high_degree_is_compared_without_its_box(monkeypatch):
    # z^(2^30) spans a box of 2^30 + 1 exponents, far past the cap on packing
    # a row into ints, so its rows keep int dict entries
    def no_int(*args):
        raise AssertionError("a row entry was packed into an int")

    monkeypatch.setattr(poly_module, "_send_int", no_int)
    big = _Z ** (1 << 30)
    lhs = [(_corners(big), (0, 1))]
    assert slots_differ(2, lhs, lhs) is None
    assert slots_differ(2, lhs, [(_corners(big, 2), (0, 1))]) == 3


@st.composite
def _box_edge_entries(draw):
    # z^3 w^3 is the top of both strategies' ranges, so its products reach
    # the box top on both exchanged variables; z^k w^k is fixed by the
    # exchange, and a third term is anywhere in the box
    coeffs = st.fractions(min_value=-3, max_value=3, max_denominator=4).filter(bool)
    k, a, b = (draw(st.integers(0, 3)) for _ in range(3))
    terms = {(3, 3): draw(coeffs), (k, k): draw(coeffs), (a, b): draw(coeffs)}
    return MPoly(("z", "w"), terms)


@st.composite
def _square_pairs(draw):
    k = draw(st.integers(1, 4))
    entry = st.one_of(st.just(0), st.just(MPoly.zero()), _mpoly_entries(), _box_edge_entries())
    A = [[draw(entry) for _ in range(k)] for _ in range(k)]
    if draw(st.booleans()):
        # B is A with z and w exchanged: the one-product path
        swap = lambda x: x.exchange("z", "w") if isinstance(x, MPoly) else x
        return A, [[swap(x) for x in row] for row in A], ("z", "w")
    return A, [[draw(entry) for _ in range(k)] for _ in range(k)], None


@settings(max_examples=120, deadline=None)
@given(_square_pairs())
@example(([[_Z, 1], [0, _W]], [[_W, 1], [0, _Z]], ("z", "w")))  # row 0 differs
@example(([[-1, -1], [-1, 0]], [[0, -1], [-1, 1]], None))  # A·B cancels where B·A has no term
@example(([[_Z, 0], [0, _Z]], [[_W, 0], [0, _W]], ("z", "w")))  # they commute
@example(  # the top of both exchanged ranges, and a term with e_z = e_w
    ([[_Z**3 * _W**3, _Z * _W], [_Z**3, 1]], [[_Z**3 * _W**3, _Z * _W], [_W**3, 1]], ("z", "w"))
)
def test_orders_differ_gives_the_materialised_verdict(problem):
    A, B, swap = problem
    expected = _first_differing_row(mat_mul(A, B), mat_mul(B, A))
    assert orders_differ(A, B, swap) == expected
    if swap:
        assert orders_differ(A, B) == expected


def test_orders_differ_keys_a_wide_box():
    # z^(2^29)*w and its exchange span a box of about 2^58 cells, which the
    # indices cover with no cap and no fallback
    big = _Z ** (1 << 29) * _W
    swap = lambda x: x.exchange("z", "w") if isinstance(x, MPoly) else x
    # the first pair differs in row 0; the diagonal one commutes
    for A, row in (([[big, 1], [0, _Z]], 0), ([[big, 0], [0, swap(big)]], None)):
        B = [[swap(x) for x in r] for r in A]
        assert _first_differing_row(mat_mul(A, B), mat_mul(B, A)) == row
        assert orders_differ(A, B, ("z", "w")) == orders_differ(A, B) == row


def test_orders_differ_refuses_an_exchange_of_one_present_variable():
    # with only z (or only w) in A and B, exchanging z and w cannot turn A
    # into B, whatever the products are
    for v in (_Z, _W):
        A = [[v, 0], [0, MPoly.var("q")]]
        with pytest.raises(ValueError, match=f"only {v} occurs"):
            orders_differ(A, A, ("z", "w"))
    assert orders_differ([[2, 1], [0, 3]], [[2, 1], [0, 3]], ("z", "w")) is None


def _no_row(*args):
    raise AssertionError("a row was built")


def test_an_exponent_overflow_stops_a_comparison_before_any_row(monkeypatch):
    z = MPoly.var("z")
    big = z ** (1 << 30)
    monkeypatch.setattr(poly_module, "_rows", _no_row)
    monkeypatch.setattr(poly_module, "_product_rows", _no_row)
    monkeypatch.setattr(poly_module, "_box_keys", _no_row)
    # the second stream alone passes the limit; the first is fine
    good, bad = [(_corners(big), (0, 1))], [(_corners(big), (0, 1)), (_corners(big), (1, 0))]
    for lhs, rhs in ((good, bad), (bad, good)):
        with pytest.raises(ValueError, match="exponent exceeds the limit"):
            slots_differ(2, lhs, rhs)
    with pytest.raises(ValueError, match="exponent exceeds the limit"):
        orders_differ([[big, 0], [0, 1]], [[1, 0], [0, big]])
    with pytest.raises(ValueError, match="exponent exceeds the limit"):
        orders_differ([[big]], [[big]], ("z", "w"))
    moving = _factor()
    moving[0][3] = 1
    with pytest.raises(ValueError, match="spin-conserving"):
        slots_differ(2, good, [(moving, (0, 1))])


def _factor():
    # a conserving factor with no zero entry in its blocks
    return _frac_mat([[2, 0, 0, 0], [0, 3, 5, 0], [0, 7, 11, 0], [0, 0, 0, 13]])


@pytest.mark.parametrize("entry", _SPIN_MOVING)
def test_apply_on_slots_rejects_a_spin_moving_entry(entry):
    F = _factor()
    F[entry[0]][entry[1]] = _Z
    with pytest.raises(ValueError, match="spin-conserving"):
        apply_on_slots(3, [(F, (2, 0))])


@pytest.mark.parametrize("slots", [(1, 1), (0, 3), (3, 1), (-1, 2)])
def test_apply_on_slots_rejects_repeated_or_out_of_range_slots(slots):
    with pytest.raises(ValueError, match="two distinct slots"):
        apply_on_slots(3, [(_factor(), slots)])


@pytest.mark.parametrize(
    "last, error",
    [
        ((None, (1, 1)), "two distinct slots"),
        (((0, 3), (2, 0)), "spin-conserving"),
        (((3, 0), (0, 1)), "spin-conserving"),
    ],
)
def test_a_bad_last_step_raises_before_the_stream_starts(last, error):
    # the first steps are good; the last repeats a slot or moves spin
    F = _factor()
    entry, slots = last
    bad = [row[:] for row in F]
    if entry:
        bad[entry[0]][entry[1]] = 1
    with pytest.raises(ValueError, match=error):
        apply_on_slots(3, [(F, (0, 1)), (F, (2, 1)), (bad, slots)])


def _corners(f00, f33=1):
    return [[f00, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, f33]]


def test_an_exponent_overflow_raises_before_the_stream_starts():
    z = MPoly.var("z")
    big, near = z ** (1 << 30), z ** ((1 << 31) - 1)
    # two z^(2^30) corners pass the limit 2^31 - 1 on the 00 row
    with pytest.raises(ValueError, match="exponent exceeds the limit"):
        apply_on_slots(2, [(_corners(big), (0, 1)), (_corners(big * _Z), (1, 0))])
    # a sum that wraps past the whole slot (2^31 - 1 twice, then 2) leaves
    # the guard bit clear; the bound catches it at the second factor
    with pytest.raises(ValueError, match="exponent exceeds the limit"):
        apply_on_slots(2, [(_corners(near), (0, 1))] * 2 + [(_corners(_Z**2), (0, 1))])
    # the bound adds each factor's largest exponent, not the OR of its
    # exponents: 2^30 and 1 in one factor, then 2^30 - 1, reach the limit
    F = [[1, 0, 0, 0], [0, big, 0, 0], [0, 0, _Z, 0], [0, 0, 0, 1]]
    G = [[1, 0, 0, 0], [0, z ** ((1 << 30) - 1), 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]
    out = apply_on_slots(2, [(F, (0, 1)), (G, (0, 1))])
    assert out[1][1] == near and out[2][2] == _Z and out[0][0] == out[3][3] == 1


@pytest.mark.parametrize(
    "bad",
    [
        [[1] * 4] * 3,  # 3x4
        [[1, 0, 0], [0, 1, 0], [0, 0, 1], [0, 0, 0]],  # 4x3
        "moving",
    ],
)
def test_spin_transfer_rejects_a_bad_factor_before_any_work(bad, monkeypatch):
    # MPoly factors run the shared kernel on object arrays
    if bad == "moving":
        bad = _factor()
        bad[1][3] = _Z

    def no_work(*args):
        raise AssertionError("a product ran")

    monkeypatch.setattr(MPoly, "__mul__", no_work)
    monkeypatch.setattr(MPoly, "__rmul__", no_work)
    with pytest.raises(ValueError, match="4x4|spin-conserving"):
        spin_transfer([_factor(), _factor(), bad], _Z, 1)
    with pytest.raises(ValueError, match="at least one"):
        spin_transfer([], _Z, 1)


def test_spin_transfer_raises_on_an_exponent_past_the_limit():
    z = MPoly.var("z")
    big = z ** (1 << 30)
    # one corner z^(2^30) per site and a weight z^(2^30) pass the limit
    with pytest.raises(ValueError, match="exponent exceeds the limit"):
        spin_transfer([_corners(big)], big, 1)
    with pytest.raises(ValueError, match="exponent exceeds the limit"):
        spin_transfer([_corners(big), _corners(big)], 1, 1)
    got = spin_transfer([_corners(big)], z ** ((1 << 30) - 1), 0)
    assert [S.tolist() for S in got] == [
        [[z ** ((1 << 31) - 1)]],
        [[z ** ((1 << 30) - 1)]],
    ]
    # an MPoly weight alone makes integer factors run on objects
    assert [S.tolist() for S in spin_transfer([_corners(2)], z, 0)] == [[[2 * z]], [[z]]]


def test_mat_mul_bounds_only_a_real_overflow():
    # the exponents of the two sides sum past the limit, but no product does
    big, one = MPoly.var("z") ** (1 << 30), MPoly.const(1)
    got = mat_mul([[big, 0], [0, one]], [[one, 0], [0, big]])
    assert got == [[big, 0], [0, big]]
    with pytest.raises(ValueError, match="exponent exceeds the limit"):
        mat_mul([[big]], [[big * _Z]])


def test_rref_rank_and_nullspace():
    M = [[RatFun(1), RatFun(2)], [RatFun(2), RatFun(4)]]
    R, pivots = rref(M)
    assert pivots == [0]
    # the free column gives the null vector (-R[0][1], 1)
    v = [-R[0][1], RatFun(1)]
    for row in M:
        assert row[0] * v[0] + row[1] * v[1] == RatFun.zero()


def test_rref_square_and_underdetermined_systems():
    # augmented [A | b]: a pivot in every column of A reads off the solution
    square = [[RatFun(1), RatFun(1), RatFun(3)], [RatFun(0), RatFun(1), RatFun(1)]]
    R, pivots = rref(square)
    assert pivots == [0, 1]
    assert [row[2] for row in R] == [RatFun(2), RatFun(1)]
    _, pivots = rref([[RatFun(1), RatFun(1), RatFun(1)]])
    assert pivots == [0]


def _monomials(p: MPoly) -> dict:
    return {tuple((v, k) for v, k in zip(p.vars, e) if k): c for e, c in p.terms().items()}


def _reference_entry(pairs):
    """Sum of the pair products worked monomial by monomial; int 0 without
    pairs, as the generic loop leaves it."""
    if not pairs:
        return 0
    acc: dict[tuple, Fraction] = {}
    for a, b in pairs:
        for ma, ca in _monomials(a).items():
            for mb, cb in _monomials(b).items():
                m = dict(ma)
                for v, k in mb:
                    m[v] = m.get(v, 0) + k
                key = tuple(sorted(m.items()))
                acc[key] = acc.get(key, Fraction(0)) + ca * cb
    names = sorted({v for m in acc for v, _ in m})
    return MPoly(names, {tuple(dict(m).get(v, 0) for v in names): c for m, c in acc.items()})


@st.composite
def _mpoly_entries(draw):
    names = draw(st.lists(st.sampled_from(("z", "w", "q")), min_size=0, max_size=3, unique=True))
    exps = st.tuples(*[st.integers(0, 3)] * len(names))
    coeffs = st.fractions(min_value=-3, max_value=3, max_denominator=4)
    return MPoly(names, draw(st.dictionaries(exps, coeffs, min_size=1, max_size=3)))


@st.composite
def _mpoly_matmul_problems(draw):
    n, k, m = (draw(st.integers(1, 4)) for _ in range(3))
    entry = st.one_of(st.just(0), st.just(MPoly.zero()), _mpoly_entries())
    A = [[draw(entry) for _ in range(k)] for _ in range(n)]
    B = [[draw(entry) for _ in range(m)] for _ in range(k)]
    if k >= 2 and draw(st.booleans()):
        # A's column 1 repeats column 0 and B's row 1 negates row 0: those
        # two pairs cancel in every entry
        for row in A:
            row[1] = row[0]
        B[1] = [-b for b in B[0]]
    return A, B


_z, _q = MPoly.var("z"), MPoly.var("q")


@settings(max_examples=120, deadline=None)
@given(_mpoly_matmul_problems())
@example(([[_z, MPoly.const(1)]], [[_q], [1 - _z * _q]]))  # z*q + 1 - z*q = 1
def test_mat_mul_mpoly_equals_entrywise_reference(problem):
    A, B = problem
    got = mat_mul(A, B)
    assert len(got) == len(A) and all(len(row) == len(B[0]) for row in got)
    for i, row in enumerate(A):
        for j in range(len(B[0])):
            pairs = [(a, B[t][j]) for t, a in enumerate(row) if a and B[t][j]]
            ref, out = _reference_entry(pairs), got[i][j]
            if not pairs:
                assert type(out) is int and out == 0
                continue
            assert isinstance(out, MPoly)
            assert out.vars == ref.vars and out.terms() == ref.terms()
            assert hash(out) == hash(ref)


def _generic_mat_mul(A, B):
    out = []
    for row in A:
        new = []
        for j in range(len(B[0])):
            acc = None
            for t, a in enumerate(row):
                if a and B[t][j]:
                    acc = a * B[t][j] if acc is None else acc + a * B[t][j]
            new.append(0 if acc is None else acc)
        out.append(new)
    return out


_MIXED_B = [[_q, 0], [MPoly.const(2), _z], [0, _z + 1]]
_FRACS = [[Fraction(1, 2), 0], [Fraction(3), Fraction(-1, 3)]]


@pytest.mark.parametrize(
    "A, B",
    [
        ([[_z, RatFun.parse("1/z"), 0], [MPoly.zero(), _q, _z * _q - 1]], _MIXED_B),
        ([[_z, Fraction(1, 2), 0], [MPoly.zero(), _q, _z * _q - 1]], _MIXED_B),
        (_FRACS, _FRACS),
    ],
    ids=["ratfun", "fraction", "fractions-only"],
)
def test_mat_mul_other_entry_types_keep_the_generic_rule(A, B):
    got, ref = mat_mul(A, B), _generic_mat_mul(A, B)
    assert [[type(x) for x in row] for row in got] == [[type(x) for x in row] for row in ref]
    assert mat_eq(got, ref)


def test_np_op_on_slots_matches_exact_embedding():
    # same random integer matrix through both layers, entry by entry
    rng = np.random.default_rng(3)
    Mi = rng.integers(-3, 4, size=(4, 4))
    exact = op_on_slots(
        [[MPoly.const(int(x)) for x in row] for row in Mi], (0, 2), [2, 2, 2]
    )
    numeric = np_op_on_slots(Mi.astype(complex), (0, 2), [2, 2, 2])
    for i in range(8):
        for j in range(8):
            e = exact[i][j]
            val = float(e.as_fraction()) if isinstance(e, MPoly) else float(e)
            assert abs(val - numeric[i, j].real) < 1e-12
            assert abs(numeric[i, j].imag) < 1e-12


@st.composite
def _slot_problems(draw):
    # 2..4 tensor slots of dimension 2 or 3, one or two chosen in any order
    # (so reversed and non-adjacent pairs occur), a random complex M
    dims = draw(st.lists(st.sampled_from([2, 3]), min_size=2, max_size=4))
    k = draw(st.integers(1, 2))
    slots = tuple(draw(st.permutations(range(len(dims))))[:k])
    rows = draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    N = int(np.prod(dims))
    n = int(np.prod([dims[s] for s in slots]))
    M = rng.normal(size=(rows, N)) + 1j * rng.normal(size=(rows, N))
    F = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return M, F, slots, dims


@settings(max_examples=80, deadline=None)
@given(_slot_problems())
def test_np_apply_on_slots_equals_product_with_embedding(problem):
    M, F, slots, dims = problem
    applied = np_apply_on_slots(M, F, slots, dims)
    assert applied.shape == M.shape
    assert np_residual(applied, M @ np_op_on_slots(F, slots, dims)) < 1e-14
    # the exact embedding shares no code with the numeric one
    exact = np.array(op_on_slots(F.tolist(), slots, dims), dtype=complex)
    assert np_residual(applied, M @ exact) < 1e-14


def _spin_blocks(M, n):
    # the popcount blocks of a dense spin-conserving M, transposed, built
    # without the package's state tables
    states = [[s for s in range(1 << n) if bin(s).count("1") == k] for k in range(n + 1)]
    return [M[np.ix_(st_, st_)].T.copy() for st_ in states]


def _random_conserving(rng, n):
    # a random dense matrix on n slots of size 2, zero between popcounts
    N = 1 << n
    pc = np.array([bin(s).count("1") for s in range(N)])
    M = rng.normal(size=(N, N)) + 1j * rng.normal(size=(N, N))
    return np.where(pc[:, None] == pc[None, :], M, 0)


@st.composite
def _conserving_problems(draw):
    # 2..6 slots of size 2, two of them in either order (adjacent or not), a
    # random spin-conserving complex factor whose corners may each be 1
    n = draw(st.integers(2, 6))
    slots = tuple(draw(st.permutations(range(n)))[:2])
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    M = _random_conserving(rng, n)
    F = np.zeros((4, 4), dtype=complex)
    F[1:3, 1:3] = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    for i in (0, 3):
        F[i, i] = 1 if draw(st.booleans()) else complex(*rng.normal(size=2))
    return M, F, slots, [2] * n


@settings(max_examples=80, deadline=None)
@given(_conserving_problems())
def test_np_apply_conserving_equals_product_with_embedding(problem):
    # np_spin_apply on the popcount blocks of M equals M times the embedding
    M, F, slots, dims = problem
    blocks = _spin_blocks(M, len(dims))
    assert np.array_equal(np_spin_dense(blocks), M)
    expected = M @ np_op_on_slots(F, slots, dims)
    out = np_spin_apply(blocks, F, slots)
    assert out is blocks
    assert np_residual(np_spin_dense(out), expected) < 1e-14
    assert np_residual(out, _spin_blocks(expected, len(dims))) < 1e-14


@pytest.mark.parametrize("entry", [(0, 1), (0, 3), (1, 3), (3, 0), (2, 0)])
def test_np_apply_conserving_rejects_spin_changing_factor(entry):
    # np_spin_apply raises before any block changes
    blocks = _spin_blocks(_random_conserving(np.random.default_rng(1), 4), 4)
    before = [B.copy() for B in blocks]
    F = np.eye(4, dtype=complex)
    F[entry] = 0.5
    with pytest.raises(ValueError):
        np_spin_apply(blocks, F, (2, 0))
    for slots in ((2, 2), (0, 4)):
        with pytest.raises(ValueError):
            np_spin_apply(blocks, np.eye(4, dtype=complex), slots)
    assert all(np.array_equal(B, b) for B, b in zip(blocks, before))


def test_np_identity_embedding_and_partial_trace():
    pattern = np_op_on_slots(np.eye(4, dtype=complex), (0, 2), [2, 2, 2])
    assert np_residual(pattern, np.eye(8, dtype=complex)) < 1e-14
    tr = np_spin_dense(np_spin_trace_first(np_spin_identity(2), 1, 1))
    assert np_residual(tr, 2 * np.eye(2, dtype=complex)) < 1e-14


def test_np_spin_trace_first_is_the_weighted_corner_sum():
    # the blocks' trace over slot 0 against the two corners of their dense form
    rng = np.random.default_rng(5)
    for n in (1, 2, 3, 5):
        blocks = _spin_blocks(_random_conserving(rng, n), n)
        w0, w1 = complex(*rng.normal(size=2)), complex(*rng.normal(size=2))
        M = np_spin_dense(blocks)
        H = 1 << (n - 1)
        got = np_spin_dense(np_spin_trace_first(blocks, w0, w1))
        assert np.array_equal(got, w0 * M[:H, :H] + w1 * M[H:, H:])


def _random_factor(rng):
    # a spin-conserving 4x4 factor with all six entries random
    F = np.zeros((4, 4), dtype=complex)
    for i, j in ((0, 0), (1, 1), (1, 2), (2, 1), (2, 2), (3, 3)):
        F[i, j] = complex(*rng.normal(size=2))
    return F


@pytest.mark.parametrize("L", range(1, 9))
def test_np_spin_transfer_is_the_weighted_trace_of_the_dense_monodromy(L):
    # every entry of the factors random (numeric_r has r00 = r33 = 1), and
    # L = 7, 8 pass the dense start into the spin-block steps
    rng = np.random.default_rng(L)
    factors = [_random_factor(rng) for _ in range(L)]
    w0, w1 = complex(*rng.normal(size=2)), complex(*rng.normal(size=2))
    dims = [2] * (L + 1)
    M = np.eye(2 << L, dtype=complex)
    for l in range(L - 1, -1, -1):
        M = np_apply_on_slots(M, factors[l], (0, 1 + l), dims)
    H = 1 << L
    T = w0 * M[:H, :H] + w1 * M[H:, H:]
    pc = np.array([bin(s).count("1") for s in range(H)])
    sectors = spin_transfer(factors, w0, w1)
    assert len(sectors) == L + 1
    for m, S in enumerate(sectors):
        idx = np.flatnonzero(pc == m)
        assert S.flags.c_contiguous
        assert np_residual(S, T[np.ix_(idx, idx)]) < 1e-13


@pytest.mark.parametrize("entry", [(0, 1), (0, 3), (1, 3), (3, 0), (2, 0)])
def test_np_spin_transfer_rejects_a_spin_moving_factor(entry):
    # complex and MPoly factors, each with no factor as well
    rng = np.random.default_rng(3)
    numeric = [_random_factor(rng) for _ in range(8)]
    exact = [np.array(_factor(), dtype=object) for _ in range(8)]
    for factors, w, x in ((numeric, 1, 0.5), (exact, _Z, _Z)):
        factors[5][entry] = x
        with pytest.raises(ValueError, match="spin-conserving"):
            spin_transfer(factors, w, 1)
        with pytest.raises(ValueError, match="at least one"):
            spin_transfer([], w, 1)
    with pytest.raises(ValueError):
        spin_transfer([np.eye(3, dtype=complex)], 1, 1)


@pytest.mark.parametrize("L", range(1, 9))
def test_mpoly_sectors_evaluate_to_the_complex_sectors(L):
    # MPoly slabs start in spin blocks, complex ones dense for up to six
    # sites and in blocks after, so L = 7, 8 also cross the complex switch
    rng = np.random.default_rng(L)
    factors = []
    for _ in range(L):
        F = [[0] * 4 for _ in range(4)]
        for i, j in ((0, 0), (1, 1), (1, 2), (2, 1), (2, 2), (3, 3)):
            F[i][j] = int(rng.integers(-3, 4)) + int(rng.integers(1, 4)) * _Z
        factors.append(F)
    z0 = Fraction(3, 5)

    def at(x):
        return complex(x.eval_fraction({"z": z0}) if isinstance(x, MPoly) else x)

    w0, w1 = 2 + _Z, MPoly.const(Fraction(-1, 3))
    numeric = [np.array([[at(x) for x in row] for row in F]) for F in factors]
    exact = spin_transfer(factors, w0, w1)
    sectors = spin_transfer(numeric, at(w0), at(w1))
    assert [S.dtype for S in exact] == [np.dtype(object)] * (L + 1)
    for E, S in zip(exact, sectors):
        assert np_residual(np.vectorize(at, otypes=[complex])(E), S) < 1e-13
