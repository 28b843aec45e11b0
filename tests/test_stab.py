import hashlib
from fractions import Fraction
from functools import lru_cache
from itertools import permutations

import pytest
from hypothesis import given, settings, strategies as st

from qilab.cli import main
from qilab.field import MPoly, RatFun, identity, mat_eq, mat_mul, solve_unique
from qilab.stab import (
    N1_R,
    Chamber,
    StabMatrix,
    adjacent,
    check_axioms,
    check_cycle_identity,
    default_polarization,
    e_neg,
    fan_n2,
    geometric_r,
    roots,
    stab_matrix,
    weight_names,
    weights,
)


def test_roots_counts_and_values():
    assert roots(1) == ["-u", "u"]
    assert roots(2) == ["-u1", "-u1 + u2", "-u2", "u1", "u1 - u2", "u2"]


def test_chamber_constructors():
    plus = Chamber.named("plus")
    minus = Chamber.named("minus")
    assert plus.perm == (1, 0)
    assert plus.order_string() == "p1 > p0"
    assert plus.opposite() == minus
    with pytest.raises(ValueError):
        Chamber.named("sideways")
    with pytest.raises(ValueError):
        Chamber.from_perm(2, (0, 1, 1))


def test_attracting_order_helpers():
    ch = Chamber.from_perm(2, (2, 0, 1))
    assert ch.above(0) == [2]
    assert ch.below(0) == [1]
    assert ch.above(2) == []
    assert str(e_neg(Chamber.named("plus"), 0)) == "u"
    assert str(e_neg(Chamber.named("plus"), 1)) == "u - h"


N1_PLUS = (("-u", "-h"), ("0", "u - h"))
N1_MINUS = (("-u - h", "0"), ("-h", "u"))


def _strings(M):
    return tuple(tuple(str(e) for e in row) for row in M)


def test_n1_reference_matrices():
    sp = stab_matrix(Chamber.named("plus"))
    sm = stab_matrix(Chamber.named("minus"))
    assert _strings(sp.matrix) == N1_PLUS
    assert _strings(sm.matrix) == N1_MINUS
    r = geometric_r(sp, sm)
    assert _strings(r) == N1_R
    assert mat_eq(mat_mul(r, geometric_r(sm, sp)), identity(2))
    assert mat_eq(geometric_r(sp, sp), identity(2))


def test_n1_polarization_flip_breaks_the_reference():
    # flipping the sign at p_0 must break the reference comparison
    sp = stab_matrix(Chamber.named("plus"), polarization=(1, 1))
    sm = stab_matrix(Chamber.named("minus"))
    assert _strings(sp.matrix) != N1_PLUS
    assert _strings(geometric_r(sp, sm)) != N1_R


def test_polarization_flip_negates_one_column():
    plus = Chamber.named("plus")
    assert default_polarization(plus) == (-1, 1)
    base = stab_matrix(plus)
    flipped = stab_matrix(plus, polarization=(1, 1))
    for i in range(2):
        assert flipped.matrix[i][0] == -base.matrix[i][0]
        assert flipped.matrix[i][1] == base.matrix[i][1]
    with pytest.raises(ValueError, match="polarization"):
        stab_matrix(plus, polarization=(1, 2))


def test_n2_chambers_solve_and_satisfy_axioms():
    for ch in fan_n2():
        sm = stab_matrix(ch)
        res = check_axioms(sm)
        assert res.ok, res.details


def test_adjacency():
    fan = fan_n2()
    for i in range(6):
        assert adjacent(fan[i], fan[(i + 1) % 6])
    assert not adjacent(fan[0], fan[0])
    assert not adjacent(fan[0], fan[3])
    assert not adjacent(Chamber.named("plus"), fan[0])


def test_cycle_identity():
    res = check_cycle_identity()
    assert res.ok
    assert res.details["factors"] == 6


def test_cycle_identity_perturbed_fails():
    res = check_cycle_identity(perturb=True)
    assert not res.ok


def test_cycle_rejects_bad_chains():
    fan = fan_n2()
    with pytest.raises(ValueError, match="not wall-adjacent"):
        check_cycle_identity([fan[0], fan[3], fan[0], fan[3]])
    with pytest.raises(ValueError, match="at least two"):
        check_cycle_identity([fan[0]])


def test_wall_crossing_round_trip_n2():
    fan = fan_n2()
    sa = stab_matrix(fan[0])
    sb = stab_matrix(fan[1])
    r = geometric_r(sa, sb)
    back = geometric_r(sb, sa)
    prod = mat_mul(r, back)
    for i in range(3):
        for j in range(3):
            assert prod[i][j] == RatFun(1 if i == j else 0)


def test_geometric_r_requires_matching_rank():
    sa = stab_matrix(Chamber.named("plus"))
    sb = stab_matrix(fan_n2()[0])
    with pytest.raises(ValueError, match="same space"):
        geometric_r(sa, sb)


def test_weight_names():
    assert weight_names(1) == ["u"]
    assert weight_names(2) == ["u1", "u2"]


def _chambers(n):
    return [Chamber(n=n, perm=p) for p in permutations(range(n + 1))]


@lru_cache(maxsize=None)
def _stab(ch):
    return stab_matrix(ch)


def _with_matrix(sm, rows):
    return StabMatrix(
        chamber=sm.chamber,
        polarization=sm.polarization,
        gammas=sm.gammas,
        matrix=tuple(tuple(r) for r in rows),
    )


def test_restrictions_equal_substituted_classes():
    """matrix[i][j] is the class of column j with c set to v_i."""
    for n in (1, 2, 3):
        vs = weights(n)
        for ch in _chambers(n):
            sm = _stab(ch)
            for i in range(n + 1):
                for j in range(n + 1):
                    want = sm.gammas[j].substitute({"c": vs[i]})
                    assert sm.matrix[i][j] == want, (ch.perm, i, j)


def _det(A):
    """Determinant by Laplace expansion along the first row."""
    if len(A) == 1:
        return A[0][0]
    out = RatFun(0)
    for j, a in enumerate(A[0]):
        if a:
            term = a * _det([row[:j] + row[j + 1 :] for row in A[1:]])
            out = out + term if j % 2 == 0 else out - term
    return out


def _inverse_times(S_to, S_from):
    """S_to^-1 S_from as adj(S_to) S_from / det(S_to), by cofactors."""
    A = [[RatFun(e) for e in row] for row in S_to]
    B = [[RatFun(e) for e in row] for row in S_from]
    size = len(A)
    det = _det(A)
    adj = [[None] * size for _ in range(size)]
    for i in range(size):
        for j in range(size):
            minor = [row[:j] + row[j + 1 :] for k, row in enumerate(A) if k != i]
            cof = _det(minor)
            adj[j][i] = cof if (i + j) % 2 == 0 else -cof
    prod = lambda i, j: sum((adj[i][t] * B[t][j] for t in range(size)), RatFun(0))
    return [[prod(i, j) / det for j in range(size)] for i in range(size)]


def _n3_pairs():
    base = Chamber(n=3, perm=(0, 1, 2, 3))
    other = Chamber(n=3, perm=(2, 0, 3, 1))
    pairs = [(base, base.opposite()), (other, base)]
    for ch in (base, other):
        for a in range(3):
            p = list(ch.perm)
            p[a], p[a + 1] = p[a + 1], p[a]
            pairs.append((ch, Chamber(n=3, perm=tuple(p))))
    return pairs


def test_geometric_r_equals_inverse_times_source():
    fan = fan_n2()
    pairs = [(fan[i], fan[(i + d) % 6]) for i in range(6) for d in (1, -1)]
    pairs += _n3_pairs()
    for src, dst in pairs:
        sa, sb = _stab(src), _stab(dst)
        got = geometric_r(sa, sb)
        want = _inverse_times(sb.matrix, sa.matrix)
        assert got == want, (src.perm, dst.perm)


def test_geometric_r_rejects_singular_target():
    sm = _stab(fan_n2()[0])
    rows = list(sm.matrix)
    repeated = _with_matrix(sm, [rows[0], rows[0], rows[2]])
    zero = _with_matrix(sm, [[MPoly.zero()] * 3] * 3)
    for target in (repeated, zero):
        with pytest.raises(ValueError, match="singular"):
            geometric_r(sm, target)
    assert geometric_r(repeated, sm)  # a singular source is fine


def _vandermonde_membership(n, col):
    """Monomial coefficients of the interpolant in c, solved over RatFun."""
    vand = [[RatFun(v) ** k for k in range(n + 1)] for v in weights(n)]
    coeffs = solve_unique(vand, [RatFun(e) for e in col])
    return all(c.den == 1 for c in coeffs)


def test_membership_holds_for_genuine_matrices():
    for n in (1, 2, 3):
        for ch in _chambers(n):
            sm = _stab(ch)
            assert check_axioms(sm).details["membership"], ch.perm
            for j in range(n + 1):
                col = [sm.matrix[i][j] for i in range(n + 1)]
                assert _vandermonde_membership(n, col)


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_perturbed_entry_membership_agrees_with_vandermonde(data):
    """One entry moved by a nonzero monomial delta at p_i.

    The interpolant moves by delta * prod_{m != i} (c - v_m) / (v_i - v_m),
    so the column stays a restriction exactly when prod_{m != i} (v_i - v_m)
    divides delta.
    """
    n = data.draw(st.sampled_from([2, 3]))
    sm = _stab(data.draw(st.sampled_from(_chambers(n))))
    i = data.draw(st.integers(0, n))
    j = data.draw(st.integers(0, n))
    coeff = data.draw(
        st.fractions(min_value=-3, max_value=3, max_denominator=4).filter(bool)
    )
    exps = data.draw(st.lists(st.integers(0, 2), min_size=n + 1, max_size=n + 1))
    delta = MPoly.const(coeff)
    for name, e in zip(weight_names(n) + ["h"], exps):
        delta = delta * MPoly.var(name) ** e
    rows = [list(r) for r in sm.matrix]
    rows[i][j] = rows[i][j] + delta
    got = check_axioms(_with_matrix(sm, rows)).details["membership"]
    assert got == _vandermonde_membership(n, [r[j] for r in rows])
    vs = weights(n)
    lift = MPoly.const(1)
    for m in range(n + 1):
        if m != i:
            lift = lift * (vs[i] - vs[m])
    assert got == ((RatFun(delta) / RatFun(lift)).den == 1)


def test_membership_fails_for_constant_shifts():
    for ch in (fan_n2()[0], Chamber(n=3, perm=(2, 0, 3, 1))):
        sm = _stab(ch)
        size = sm.n + 1
        for i in range(size):
            for j in range(size):
                rows = [list(r) for r in sm.matrix]
                rows[i][j] = rows[i][j] + Fraction(1, 2)
                res = check_axioms(_with_matrix(sm, rows))
                assert res.details["membership"] is False, (i, j)
                assert not res.ok


# Exit code and sha256 of the --json output of `qilab stab ...`: a faster
# route to the same matrices must not change a byte of these reports.
GOLDEN_JSON = {
    "matrix --n 3 --chamber 0,1,2,3": (0, "6e33249b1f51d124bfd1be1cfd1fb2e96db270a782549fdefb46fddd04c56895"),
    "matrix --n 3 --chamber 0,1,3,2": (0, "0debe94306808dfca0ee5fd1679d47bda717d50b7e2aced5fa5b59ba80917031"),
    "matrix --n 3 --chamber 0,2,1,3": (0, "32b1e50c90aad1e893156c7c3379388a87d5417b7ab0992e6b7b18bde87a2a49"),
    "matrix --n 3 --chamber 0,2,3,1": (0, "d5c72382bb2fb867e898e1fb0d1d632984bd5f3237da4d40684469711bdfa1fa"),
    "matrix --n 3 --chamber 0,3,1,2": (0, "82414276bb3376793c0e22d28bb4b7d0fbd8c1734e2c83ae0b2bee5b633ec009"),
    "matrix --n 3 --chamber 0,3,2,1": (0, "228e47e7b73b90f646f6348f73509fbc9ca540a34744788acc4d901e9413cc8c"),
    "matrix --n 3 --chamber 1,0,2,3": (0, "2407eb74864f15fb8d83f892c00f00ff7555fc7f50206b568d37890c605bf635"),
    "matrix --n 3 --chamber 1,0,3,2": (0, "833fad183b3f6f8bed314f7e429fae9a51df119a05e6f5bf9b35c31e4a07dc45"),
    "matrix --n 3 --chamber 1,2,0,3": (0, "adf27ce6ed7bdad70368d6ff8dbe436d68b6e4fe0ac32ac39a7ffbcb839e3a48"),
    "matrix --n 3 --chamber 1,2,3,0": (0, "0c8bc753d5fbb24e58e1da3d004065295fc803caccbbab96051924e17fd917f0"),
    "matrix --n 3 --chamber 1,3,0,2": (0, "a0bad65922a0eb75351bc4a5dbf98575a7a784b8bd83f772268ffce475e8f9a7"),
    "matrix --n 3 --chamber 1,3,2,0": (0, "1186323aef4d6fa2b91eaa0bcadbca7657a9270df4dcd9e4ed008c89d0bb1ab8"),
    "matrix --n 3 --chamber 2,0,1,3": (0, "fc99860898cbe841923c23d01e38624adc19830bf3b6478f7d214c740359ef77"),
    "matrix --n 3 --chamber 2,0,3,1": (0, "87f56928ae22728bbc40d026264897d204107881464aafa5753ee1f256accc27"),
    "matrix --n 3 --chamber 2,1,0,3": (0, "f994747f834e8ed558069efa28bdfd7aa39dfc26a32428d0e14fee07e21704ac"),
    "matrix --n 3 --chamber 2,1,3,0": (0, "6cf925555e43e7e898f75936e8330d333af073dc04b3448d4ff21037a03beb80"),
    "matrix --n 3 --chamber 2,3,0,1": (0, "123c0e8b266ce4691cdc1b338b81f1b7b644f0bdc3fb78e6b36b618157c0fc5a"),
    "matrix --n 3 --chamber 2,3,1,0": (0, "252855f15b7baa17392766eee8fea0563908e33bbe6cd14b9d5f4e1fcec70af4"),
    "matrix --n 3 --chamber 3,0,1,2": (0, "566031d7807cd8b2d4ceff6315a4dbf5879f6d8c1efb80dd23a9c87d1af184b4"),
    "matrix --n 3 --chamber 3,0,2,1": (0, "a04f674d2543516c9dc6aa3c1d739a104def21424f005ee5d4fb831a52b95fa2"),
    "matrix --n 3 --chamber 3,1,0,2": (0, "f4c15696a432669bfa5d06d250aac8c9d32bdbaecc679a7229b171bf883a0e36"),
    "matrix --n 3 --chamber 3,1,2,0": (0, "993f8e28fa5ee2a91f7898f916466c2f7e2cf02315e501e89579e3db88ae9442"),
    "matrix --n 3 --chamber 3,2,0,1": (0, "030b53b40648a5fb104cf6df6c21eeccb79a37d143548c4818415521abee1731"),
    "matrix --n 3 --chamber 3,2,1,0": (0, "3f1d2cc1db13baacb139fc5e6be71bd065e816e4c918ea08f6e183bfdfc52aee"),
    "rmatrix --n 2 --chamber 0,1,2": (0, "76ac2b592041f7425c40b52f472feb709af013fb04470642e486645531813e1a"),
    "rmatrix --n 2 --chamber 0,2,1": (0, "e679e657e746cf06b7efd657e7e4eb2662528727f76037c9e5b32b9f1f8c338c"),
    "rmatrix --n 2 --chamber 1,0,2": (0, "e8ca5a68da44b804d81ffc783834678e494ff562d389bb3911db9530cbdce13e"),
    "rmatrix --n 2 --chamber 1,2,0": (0, "9021b3840a14cbcb114b26479e04ada6b69e114d40fe4de4eeb3447ed725d5ba"),
    "rmatrix --n 2 --chamber 2,0,1": (0, "6c83184c6c430adc5d448c57a14ee918d05c251ddc89b102e7ec665c9406f30b"),
    "rmatrix --n 2 --chamber 2,1,0": (0, "76ddf3617f3e3a9306484c2c63867546aa838ee3892d557f315075fa71442428"),
    "cycle --n 2": (0, "bbe0ae312d71c7c371e6a3e15c17ff23076649e2db88ede97c86e0656a6caa00"),
    "cycle --n 2 --perturb": (1, "3d40840cb9ebbadeb434214b64b0959590c3cba5177c3f7aa1e793cfc00ab6ce"),
}


def test_stab_json_bytes_are_pinned(capsys):
    for argv, (code, digest) in GOLDEN_JSON.items():
        assert main(["stab", *argv.split(), "--json"]) == code, argv
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == digest, argv
