import hashlib
import itertools

import pytest

from bracealg import linalg
from bracealg.linalg import GF, QQ, Matrix, compose, kernel_basis, rank
from bracealg.algebra import (
    _bar,
    _normalizing_maps,
    AlgebraSpecError,
    Bimodule,
    BimoduleMap,
    FiniteAlgebra,
    bar_resolution,
    build_truncated_polynomial,
    comparison_map_to_periodic,
    diagonal_bimodule,
    enveloping,
    free_rank_one_bimodule,
    is_stable_iso,
    is_symmetric,
    load_algebra,
    periodic_bimodule_resolution,
    strip_projective_summands,
    syzygy,
)
from bracealg import hochschild as H
from bracealg.finite import _generators


def k_algebra():
    return build_truncated_polynomial(1)


def unnormalized_bar(lam, length):
    """The bar resolution Lambda^(x)(p+2) that bar_resolution normalizes: the
    same construction, _bar, with middle maps J = P = I."""
    ident = Matrix.identity(lam.dim, lam.field)
    return _bar(lam, length, ident, ident)


def kxx(n, field=QQ):
    return build_truncated_polynomial(n, field)


def two_copies_of_k():
    # k x k with componentwise multiplication
    z, o = 0, 1
    mult = [[[o, z], [z, z]], [[z, z], [z, o]]]
    return FiniteAlgebra(["e1", "e2"], [o, o], mult)


# -- finite algebras -------------------------------------------------------


def test_truncated_polynomial_n1_is_field():
    a = k_algebra()
    assert a.dim == 1
    assert a.mul([QQ.one], [QQ.one]) == [QQ.one]


def test_truncated_polynomial_n2():
    a = kxx(2)
    assert a.dim == 2
    x = a.basis_vector(1)
    assert a.mul(x, x) == [QQ.zero, QQ.zero]


def test_truncated_polynomial_n4_constructor_checks():
    # constructor runs the 64-triple associativity check
    a = kxx(4)
    assert a.dim == 4


def test_raw_int_structure_constants_lift_into_prime_field():
    f5 = GF(5)
    a = FiniteAlgebra(["1", "t"], [1, 0], [[[1, 0], [0, 1]], [[0, 1], [-1, 0]]], f5)  # t^2 = -1
    fp = type(f5.one)
    assert all(type(x) is fp for x in a.unit + [x for row in a.mult for v in row for x in v])
    assert a.mult[1][1] == [4, 0] and a.element_from([6, -2]) == [1, 3]
    assert all(type(x) is fp for x in a.element_from([6, -2]))


def test_associativity_violation_rejected():
    # basis 1, a, b with a*a = b, a*b = 1, b*a = 0: (aa)b != a(ab)
    z3 = [0, 0, 0]
    mult = [
        [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
        [[0, 1, 0], [0, 0, 1], [1, 0, 0]],
        [[0, 0, 1], z3, z3],
    ]
    with pytest.raises(AlgebraSpecError, match=r"basis triple \(1,1,1\)"):
        FiniteAlgebra(["1", "a", "b"], [1, 0, 0], mult)


def test_associativity_error_names_first_failing_triple():
    # k[x]/(x^4) with x^3 * x = x^3: the triples (1,2,1), (2,1,1), ... fail,
    # and the error names the first in lexicographic order
    a = kxx(4)
    mult = [[list(v) for v in row] for row in a.mult]
    mult[3][1] = [0, 0, 0, 1]
    with pytest.raises(AlgebraSpecError, match=r"basis triple \(1,2,1\)$"):
        FiniteAlgebra(a.basis_labels, a.unit, mult)


@pytest.mark.parametrize(
    "i,j,vec,message",
    [(1, 0, [1, 0], "right unit law fails on basis 1"), (0, 1, [1, 0], "left unit law fails on basis 1")],
)
def test_unit_law_error_names_basis(i, j, vec, message):
    mult = [[[1, 0], [0, 1]], [[0, 1], [0, 0]]]
    mult[i][j] = vec
    with pytest.raises(AlgebraSpecError, match=message):
        FiniteAlgebra(["1", "t"], [1, 0], mult)


def test_comparison_refuses_permuted_basis():
    # k[x]/(x^3) with basis x, x^2, 1: the periodic oracle needs the
    # monomial basis, so the comparison map refuses instead of guessing
    lam = load_algebra({
        "dim": 3,
        "labels": ["x", "x^2", "1"],
        "unit": ["0", "0", "1"],
        "mult": [
            [0, 0, ["0", "1", "0"]], [0, 2, ["1", "0", "0"]], [1, 2, ["0", "1", "0"]],
            [2, 0, ["1", "0", "0"]], [2, 1, ["0", "1", "0"]], [2, 2, ["0", "0", "1"]],
        ],
    })
    with pytest.raises(AlgebraSpecError, match="monomial basis"):
        comparison_map_to_periodic(bar_resolution(lam, 2), 2)


def test_enveloping_dims():
    assert enveloping(k_algebra()).dim == 1
    assert enveloping(kxx(2)).dim == 4
    e = enveloping(kxx(3))
    # spot-check (a(x)b)(c(x)d) = ac (x) db: (x(x)1)(x(x)x) = x^2 (x) x
    d = 3
    xb1 = 1 * d + 0
    xbx = 1 * d + 1
    prod = e.mult[xb1][xbx]
    expect = [QQ.zero] * 9
    expect[2 * d + 1] = QQ.one
    assert prod == expect


def test_center_and_units():
    a = kxx(2)
    assert a.center_basis().dim == 2  # commutative
    assert a.is_unit(a.element_from([1, 1]))
    assert not a.is_unit(a.element_from([0, 1]))
    inv = a.inverse(a.element_from([1, 1]))
    assert a.mul(inv, a.element_from([1, 1])) == a.unit


def test_radical_and_socle():
    a = kxx(3)
    assert a.radical_basis().dim == 2
    soc = a.socle_generator()
    assert soc is not None
    # socle of k[x]/(x^3) is spanned by x^2
    assert soc[2] and not soc[0] and not soc[1]
    e = enveloping(kxx(2))
    assert e.radical_basis().dim == 3
    assert e.socle_generator() is not None


def test_radical_by_trace_form_over_large_prime():
    assert build_truncated_polynomial(3, GF(7)).radical_basis().dim == 2


def test_radical_refuses_kernel_that_is_not_nilpotent():
    # k[x]/(x^3) x k over GF(3): tr L_{1_A} = 3 vanishes, so the trace form's
    # kernel is span(1_A, x, x^2), an ideal but not nilpotent; the radical is
    # span(x, x^2)
    F = GF(3)
    z, o = F.zero, F.one
    e = [[o, z, z, z], [z, o, z, z], [z, z, o, z], [z, z, z, o]]
    zero = [z] * 4
    mult = [
        [e[0], e[1], e[2], zero],
        [e[1], e[2], zero, zero],
        [e[2], zero, zero, zero],
        [zero, zero, zero, e[3]],
    ]
    a = FiniteAlgebra(["1A", "x", "x^2", "b"], [o, z, z, o], mult, F)
    with pytest.raises(AlgebraSpecError, match="not nilpotent"):
        a.radical_basis()
    # k[x]/(x^4) over GF(3): tr L_1 = 4 does not vanish, and the kernel is (x)
    rad = build_truncated_polynomial(4, F).radical_basis()
    assert rad.dim == 3 and not rad.contains(build_truncated_polynomial(4, F).unit)


@pytest.mark.parametrize("n,p", [(3, 3), (5, 5)])
def test_radical_refuses_trace_form_vanishing_on_unit(n, p):
    # tr L_1 = n vanishes mod p, so the trace form's kernel is all of k[x]/(x^n)
    with pytest.raises(AlgebraSpecError, match=r"GF\(%d\)" % p):
        build_truncated_polynomial(n, GF(p)).radical_basis()


# -- bar resolution --------------------------------------------------------


def test_bar_resolution_over_k():
    res = unnormalized_bar(k_algebra(), 3)
    assert [m.dim for m in res.modules] == [1, 1, 1, 1]
    # differentials alternate id/0 over k
    d1 = res.differential_matrix(1)
    d2 = res.differential_matrix(2)
    assert d1.is_zero() or rank(d1) == 1
    assert (d1 * d2).is_zero()
    assert res.exactness_verified_up_to == 2
    # normalized: k-bar = k / k.1 = 0, so B_0 = k (x) k and nothing above it
    res = bar_resolution(k_algebra(), 3)
    assert [m.dim for m in res.modules] == [1, 0, 0, 0]
    assert res.differential_matrix(1).rows == 1 and res.differential_matrix(1).cols == 0
    assert res.exactness_verified_up_to == 2


def test_bar_resolution_kx2_rank_oracle():
    lam = kxx(2)
    res = bar_resolution(lam, 3)
    # rank of d_1 equals dim of the kernel of the augmentation
    assert rank(res.differential_matrix(1)) == res.modules[0].dim - rank(res.augmentation)


def test_bar_differential_squares_to_zero_kx3():
    lam = kxx(3)
    res = bar_resolution(lam, 3)
    for p in range(2, 4):
        dp = res.differential_matrix(p)
        dpm1 = res.differential_matrix(p - 1)
        assert (dpm1 * dp).is_zero()


# 2x2 upper-triangular matrices with basis e11, e12, e22: not commutative
# (e11 e12 = e12, e12 e11 = 0), and the unit e11 + e22 is no basis vector
UPPER_TRIANGULAR = {
    "dim": 3,
    "labels": ["e11", "e12", "e22"],
    "unit": ["1", "0", "1"],
    "mult": [
        [0, 0, ["1", "0", "0"]], [0, 1, ["0", "1", "0"]],
        [1, 2, ["0", "1", "0"]], [2, 2, ["0", "0", "1"]],
    ],
}


# k x k on the basis f0 = (1, 0), f1 = (1, 2): the unit (f0 + f1)/2 is no
# basis vector and f1 f1 = 2 f1 - f0 has a component along f0, the pivot of
# the unit, so the normalized bar's inner faces reduce it modulo k.1
SKEW_K_TIMES_K = {
    "dim": 2,
    "labels": ["f0", "f1"],
    "unit": ["1/2", "1/2"],
    "mult": [[0, 0, ["1", "0"]], [0, 1, ["1", "0"]], [1, 0, ["1", "0"]], [1, 1, ["-1", "2"]]],
}


def _dense_left_ops(lam):
    # column j of L_i is e_i e_j, read straight from lam.mult
    rng = range(lam.dim)
    return [Matrix([[lam.mult[i][j][r] for j in rng] for r in rng], lam.field) for i in rng]


@pytest.mark.parametrize(
    "lam",
    [k_algebra(), kxx(3), load_algebra(UPPER_TRIANGULAR), load_algebra(SKEW_K_TIMES_K), kxx(3, GF(7))],
    ids=["k", "kx3", "upper", "skew-kxk", "kx3-gf7"],
)
def test_multiplication_operators_match_structure_constants(lam):
    # dense references from lam.mult: column j of L_i is e_i e_j, of R_i is e_j e_i
    d, f = lam.dim, lam.field
    rng = range(d)
    left = _dense_left_ops(lam)
    u = [f.of(k - 1, k + 2) for k in rng]
    v = [f.of(2 * k + 1) for k in rng]
    for i in rng:
        assert lam.left_mult_matrix(i) == left[i]
        assert lam.right_mult_matrix(i) == Matrix([[lam.mult[j][i][r] for j in rng] for r in rng], f)
    left_v = [[sum((v[i] * lam.mult[i][j][r] for i in rng), f.zero) for j in rng] for r in rng]
    assert lam.left_mult_of(v) == Matrix(left_v, f)
    uv = [sum((u[i] * v[j] * lam.mult[i][j][r] for i in rng for j in rng), f.zero) for r in rng]
    assert lam.mul(u, v) == uv


@pytest.mark.parametrize(
    "lam",
    [kxx(3), load_algebra(UPPER_TRIANGULAR), load_algebra(SKEW_K_TIMES_K), kxx(4, GF(5)), enveloping(kxx(3))],
    ids=["kx3", "upper", "skew-kxk", "kx4-gf5", "env-kx3"],
)
def test_radical_and_socle_match_dense_references(lam):
    # the radical is the kernel of tr(L_a L_b), the socle that of the L_x,
    # x in the radical, stacked; both from operators read off lam.mult
    f, ops = lam.field, _dense_left_ops(lam)
    rad = kernel_basis(Matrix([[sum(((a * b)[k, k] for k in range(lam.dim)), f.zero) for b in ops] for a in ops], f))
    assert lam.radical_basis() == rad
    eqs = Matrix.zeros(0, lam.dim, f)
    for x in rad.vectors():
        eqs = eqs.stack(sum((m.scale(c) for c, m in zip(x, ops) if c), Matrix.zeros(lam.dim, lam.dim, f)))
    soc = kernel_basis(eqs)
    assert lam.socle_generator() == (soc.vectors()[0] if rad.dim and soc.dim == 1 else None)


def _bar_reference(lam, length, normalized):
    """The bar complex from its definition, by loops over basis tuples.

    Returns the augmentation, d_1..d_length and the outer actions of each
    B_p as matrices.  Tuples (j_0, m_1, ..., m_p, j_{p+1}) are numbered
    with j_0 most significant.  The middle entries run over Lambda's basis,
    or, normalized, over its basis without u, the first index in the unit's
    support.  Face i of d_p multiplies slots i and i+1, with sign (-1)^i; in
    the normalized bar an inner face writes its product modulo k.1, where
    e_u = -(1/c_u) sum_{j != u} c_j e_j for the unit sum_j c_j e_j.  The left
    action multiplies slot 0 from the left and the right action the last
    slot from the right."""
    d, field = lam.dim, lam.field
    u = next(i for i, c in enumerate(lam.unit) if c)
    mids = [j for j in range(d) if j != u] if normalized else list(range(d))
    n = len(mids)

    def modulo_unit(r):
        """e_r in middle coordinates, as (position, coefficient) pairs."""
        if r in mids:
            return [(mids.index(r), field.one)]
        return [(t, -lam.unit[j] * field.inv(lam.unit[u])) for t, j in enumerate(mids) if lam.unit[j]]

    def index(tup):
        out = 0
        for pos, t in enumerate(tup):
            out = out * (d if pos in (0, len(tup) - 1) else n) + t
        return out

    aug = [[field.zero] * d**2 for _ in range(d)]
    for i, j in itertools.product(range(d), repeat=2):
        for r, c in enumerate(lam.mult[i][j]):
            aug[r][index((i, j))] += c
    diffs, actions = [], []
    for p in range(length + 1):
        size, below = d * d * n**p, d * d * n ** (p - 1) if p else d
        dp = [[field.zero] * size for _ in range(below)]
        left = [[[field.zero] * size for _ in range(size)] for _ in range(d)]
        right = [[[field.zero] * size for _ in range(size)] for _ in range(d)]
        for col, tup in enumerate(itertools.product(range(d), *[range(n)] * p, range(d))):
            values = (tup[0],) + tuple(mids[m] for m in tup[1:-1]) + (tup[-1],)
            for i in range(p + 1 if p else 0):
                for r, c in enumerate(lam.mult[values[i]][values[i + 1]]):
                    for new, x in [(r, field.one)] if i in (0, p) else modulo_unit(r):
                        dp[index(tup[:i] + (new,) + tup[i + 2 :])][col] += c * x if i % 2 == 0 else -c * x
            for b in range(d):
                for r, c in enumerate(lam.mult[b][tup[0]]):
                    left[b][index((r,) + tup[1:])][col] += c
                for r, c in enumerate(lam.mult[tup[-1]][b]):
                    right[b][index(tup[:-1] + (r,))][col] += c
        diffs.append(Matrix(dp, field, cols=size))
        actions.append(([Matrix(a, field, cols=size) for a in left], [Matrix(a, field, cols=size) for a in right]))
    return Matrix(aug, field), diffs, actions


@pytest.mark.parametrize(
    "lam",
    [k_algebra(), kxx(3), load_algebra(UPPER_TRIANGULAR), load_algebra(SKEW_K_TIMES_K)],
    ids=["k", "kx3", "upper", "skew-kxk"],
)
def test_bar_resolution_matches_definition(lam):
    for res, normalized in [(unnormalized_bar(lam, 3), False), (bar_resolution(lam, 3), True)]:
        aug, diffs, actions = _bar_reference(lam, 3, normalized)
        assert res.augmentation == aug
        for p in range(1, 4):
            assert res.differential_matrix(p) == diffs[p]
        for p in range(4):
            assert (res.modules[p].left, res.modules[p].right) == actions[p]
        # Omega^k = ker d_{k-1}, with d_0 the augmentation
        kernels = [aug, diffs[1], diffs[2]]
        assert [syzygy(res, k).dim for k in (1, 2, 3)] == [m.cols - rank(m) for m in kernels]
        assert res.exactness_verified_up_to == 2


def test_normalizing_maps_on_non_basis_unit():
    # the unit e11 + e22 of the upper-triangular algebra: P kills it, P J = I
    lam = load_algebra(UPPER_TRIANGULAR)
    J, P = _normalizing_maps(lam)
    assert P * J == Matrix.identity(2)
    assert P * Matrix.column_vector(lam.unit) == Matrix.zeros(2, 1)
    assert J == Matrix.from_int_rows([[0, 0], [1, 0], [0, 1]])


# -- syzygies and the periodic oracle --------------------------------------


def test_syzygy_zero_is_diagonal():
    lam = kxx(2)
    res = bar_resolution(lam, 2)
    s0 = syzygy(res, 0)
    assert s0.dim == 2


def test_syzygy_dims_kx2():
    lam = kxx(2)
    res = unnormalized_bar(lam, 4)
    assert syzygy(res, 1).dim == 2
    assert syzygy(res, 2).dim == 6
    assert syzygy(res, 4).dim == 22
    # normalized: every B_p is Lambda (x) k.x^(x)p (x) Lambda, of dimension 4
    res = bar_resolution(lam, 4)
    assert [syzygy(res, k).dim for k in (1, 2, 4)] == [2, 2, 2]


def test_periodic_resolution_is_exact():
    lam = kxx(3)
    res = periodic_bimodule_resolution(lam, 5)
    assert res.exactness_verified_up_to == 4


# The comparison maps Omega^k -> Lambda out of the unnormalized bar, pinned
# as (shape, positions of their entries, all equal to 1), as the
# per-generator elimination that preceded the one-solve-per-degree lift
# computed them.
COMPARISON_MAPS = {
    (2, 2): ((2, 6), [(0, 2), (1, 5)]),
    (2, 4): ((2, 22), [(0, 10), (1, 21)]),
    (3, 2): ((3, 21), [(0, 4), (0, 5), (1, 6), (1, 11), (1, 12), (2, 13), (2, 18), (2, 19)]),
    (3, 4): (
        (3, 183),
        [
            (0, 38), (0, 39), (0, 51), (0, 52),
            (1, 40), (1, 53), (1, 58), (1, 59), (1, 99), (1, 100), (1, 112), (1, 113),
            (2, 60), (2, 101), (2, 114), (2, 119), (2, 120), (2, 160), (2, 161), (2, 173), (2, 174),
        ],
    ),
}


# The same out of the normalized bar, as the normalized bar gave them first.
NORMALIZED_COMPARISON_MAPS = {
    (2, 2): ((2, 2), [(0, 0), (1, 1)]),
    (2, 4): ((2, 2), [(0, 0), (1, 1)]),
    (3, 2): ((3, 12), [(0, 1), (0, 2), (1, 3), (1, 5), (1, 6), (2, 7), (2, 9), (2, 10)]),
    (3, 4): (
        (3, 48),
        [
            (0, 5), (0, 6), (0, 9), (0, 10),
            (1, 7), (1, 11), (1, 13), (1, 14), (1, 21), (1, 22), (1, 25), (1, 26),
            (2, 15), (2, 23), (2, 27), (2, 29), (2, 30), (2, 37), (2, 38), (2, 41), (2, 42),
        ],
    ),
}


@pytest.mark.parametrize("n", [2, 3])
def test_comparison_maps_pinned(n):
    bars = [(unnormalized_bar(kxx(n), 4), COMPARISON_MAPS), (bar_resolution(kxx(n), 4), NORMALIZED_COMPARISON_MAPS)]
    for res, pins in bars:
        for k in (2, 4):
            (rows, cols), ones = pins[(n, k)]
            want = [[0] * cols for _ in range(rows)]
            for i, j in ones:
                want[i][j] = 1
            assert comparison_map_to_periodic(res, k).matrix == Matrix.from_int_rows(want)


def test_comparison_maps_share_one_periodic_resolution(monkeypatch):
    # k = 2 and k = 4 on one length-4 bar ask for the same periodic
    # resolution, the bar's length, so it is built and checked once
    from bracealg import algebra

    lengths = []
    build = algebra.periodic_bimodule_resolution

    def counted(lam, length):
        lengths.append(length)
        return build(lam, length)

    monkeypatch.setattr(algebra, "periodic_bimodule_resolution", counted)
    res = bar_resolution(kxx(3), 4)
    for k in (2, 4):
        comparison_map_to_periodic(res, k)
    assert lengths == [4, 4]


def _corrupted(mats, i):
    """mats with 1 added to entry (0, 0) of mats[i]."""
    ent = [list(r) for r in mats[i].entries]
    ent[0][0] = ent[0][0] + 1
    return mats[:i] + [Matrix(ent, QQ)] + mats[i + 1 :]


def test_exact_check_names_corrupted_non_generator_action():
    # x^2 = x.x is not a generator of k[x]/(x^3); the first pair whose
    # product the corrupted action breaks is (x, x) on either side.  The
    # unit, the empty product, breaks the unit law at the corrupted column
    lam = kxx(3)
    syz = H._bar_syzygy(lam, 4)
    with pytest.raises(AlgebraSpecError, match="left action is not unital at basis 0"):
        Bimodule(lam, _corrupted(syz.left, 0), syz.right)
    with pytest.raises(AlgebraSpecError, match="right action is not unital at basis 0"):
        Bimodule(lam, syz.left, _corrupted(syz.right, 0))
    with pytest.raises(AlgebraSpecError, match=r"left action not associative at \(1,1\)"):
        Bimodule(lam, _corrupted(syz.left, 2), syz.right)
    with pytest.raises(AlgebraSpecError, match=r"right action not associative at \(1,1\)"):
        Bimodule(lam, syz.left, _corrupted(syz.right, lam.dim - 1))


def _kxy2():
    """k[x, y]/(x, y)^2, basis 1, x, y: two generators, x and y."""
    e = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    zero = [0] * 3
    return FiniteAlgebra(["1", "x", "y"], e[0], [e, [e[1], zero, zero], [e[2], zero, zero]])


def test_generators_chosen_greedily():
    assert _generators(kxx(1)) == () and _generators(kxx(7)) == (1,)
    assert _generators(_kxy2()) == (1, 2)
    # x (x) 1 and 1 (x) x generate k[x]/(x^5) (x) k[x]/(x^5)^op
    assert _generators(enveloping(kxx(5))) == (1, 5)


def test_exact_check_names_non_commuting_actions():
    n = Matrix.from_int_rows([[0, 1], [0, 0]])
    ident = Matrix.identity(2, QQ)
    # x -> N on the left and x -> N^T on the right are each associative over
    # k[x]/(x^2), but N N^T != N^T N
    with pytest.raises(AlgebraSpecError, match=r"actions do not commute at \(1,1\)"):
        Bimodule(kxx(2), [ident, n], [ident, n.transpose()])
    # over k[x, y]/(x, y)^2, x -> N on the left commutes with x -> 0 on the
    # right but not with y -> N^T: the pair is (x, y), not (y, x); and the
    # other way round
    lam, null = _kxy2(), Matrix.zeros(2, 2, QQ)
    Bimodule(lam, [ident, n, null], [ident, null, null])  # each side alone is a module
    with pytest.raises(AlgebraSpecError, match=r"actions do not commute at \(1,2\)"):
        Bimodule(lam, [ident, n, null], [ident, null, n.transpose()])
    with pytest.raises(AlgebraSpecError, match=r"actions do not commute at \(2,1\)"):
        Bimodule(lam, [ident, null, n], [ident, n.transpose(), null])


@pytest.mark.parametrize("side", ["left", "right"])
@pytest.mark.parametrize("lam,phi,bad", [(kxx(2), [1, 0], 1), (_kxy2(), [1, 1, 0], 2)], ids=["kx2", "kxy2"])
def test_exact_check_names_non_equivariant_map(side, lam, phi, bad):
    # on Lambda (x) Lambda, phi (x) 1 commutes with the right action and
    # 1 (x) phi with the left, phi keeping 1 and x and killing the rest; each
    # fails the other side at the generator phi kills (x, or y of (x, y))
    free = free_rank_one_bimodule(lam)
    ident = Matrix.identity(lam.dim, QQ)
    phi = Matrix.from_int_rows([[c * int(i == j) for j in range(lam.dim)] for i, c in enumerate(phi)])
    f = linalg.kron([phi, ident] if side == "left" else [ident, phi])
    with pytest.raises(AlgebraSpecError, match="map does not commute with %s action %d" % (side, bad)):
        BimoduleMap(free, free, f)


def test_exact_check_rejects_corrupted_omega4_action():
    lam = kxx(3)
    unnormalized = syzygy(unnormalized_bar(lam, 4), 4)
    assert unnormalized.dim == 183
    assert H._bar_syzygy(lam, 4).dim == 48
    for syz in (unnormalized, H._bar_syzygy(lam, 4)):
        Bimodule(lam, syz.left, syz.right)  # the syzygy itself passes
        with pytest.raises(AlgebraSpecError):
            Bimodule(lam, _corrupted(syz.left, 1), syz.right)


def _core_dim_and_verdict(res, k):
    """The core dimension of Omega^k and the comparison map's stable-iso
    verdict, or the error that refuses it (odd k: no map to Lambda)."""
    core = strip_projective_summands(syzygy(res, k)).core.dim
    try:
        return core, is_stable_iso(comparison_map_to_periodic(res, k))
    except AlgebraSpecError as exc:
        return core, type(exc)


@pytest.mark.parametrize("n", [2, 3])
def test_normalized_syzygies_stably_equal_unnormalized(n):
    lam = kxx(n)
    full, norm = unnormalized_bar(lam, 4), bar_resolution(lam, 4)
    _, P = _normalizing_maps(lam)
    ident = Matrix.identity(n)
    for k in range(1, 5):
        assert _core_dim_and_verdict(norm, k) == _core_dim_and_verdict(full, k)
        # the quotient B_{k-1} -> B-bar_{k-1}, I (x) P^(x)(k-1) (x) I, maps
        # Omega^k onto Omega-bar^k, and that map is a stable isomorphism
        src, tgt = syzygy(full, k), syzygy(norm, k)
        quotient = compose(Matrix.identity(tgt.inclusion.matrix.cols), [ident] + [P] * (k - 1) + [ident])
        image = quotient * src.inclusion.matrix.transpose()
        coords = image.select_rows(tgt.inclusion.pivots)
        assert tgt.inclusion.matrix.transpose() * coords == image
        assert is_stable_iso(BimoduleMap(src, tgt, coords))


@pytest.mark.parametrize("n,k", [(2, 2), (2, 4), (3, 2), (3, 4)])
def test_syzygy_stably_isomorphic_to_lambda(n, k):
    lam = kxx(n)
    res = bar_resolution(lam, k)
    cmp_map = comparison_map_to_periodic(res, k)
    assert is_stable_iso(cmp_map)


# -- stripping -------------------------------------------------------------


def test_strip_free_module_to_zero():
    lam = kxx(2)
    free = free_rank_one_bimodule(lam)
    core, r = strip_projective_summands(free)
    assert core.dim == 0 and r == 1


def test_strip_diagonal_is_core():
    lam = kxx(2)
    diag = diagonal_bimodule(lam)
    core, r = strip_projective_summands(diag)
    assert core.dim == 2 and r == 0
    # idempotence
    core2, r2 = strip_projective_summands(core)
    assert core2.dim == 2 and r2 == 0


def test_strip_lambda_plus_free():
    lam = kxx(2)
    diag = diagonal_bimodule(lam)
    free = free_rank_one_bimodule(lam)

    def block(a, b):
        z1 = Matrix.zeros(a.rows, b.cols, QQ)
        z2 = Matrix.zeros(b.rows, a.cols, QQ)
        top = Matrix([ra + rb for ra, rb in zip(a.entries, z1.entries)], QQ)
        bot = Matrix([ra + rb for ra, rb in zip(z2.entries, b.entries)], QQ)
        return top.stack(bot)

    from bracealg.algebra import Bimodule

    summ = Bimodule(
        lam,
        [block(diag.left[i], free.left[i]) for i in range(2)],
        [block(diag.right[i], free.right[i]) for i in range(2)],
    )
    core, r = strip_projective_summands(summ)
    assert r == 1
    assert core.dim == 2


def test_strip_results_pinned():
    # stripped rank, inclusion, projection and core actions of Omega^1..4 of
    # k[x]/(x^n), n = 2, 3, 4, as exact values: one sha256 recorded when the
    # inclusion was still built by a per-entry loop
    digest = hashlib.sha256()

    def put(*values):
        digest.update(repr(values).encode())

    for n in (2, 3, 4):
        res = bar_resolution(kxx(n), 4)
        for k in (1, 2, 3, 4):
            s = strip_projective_summands(syzygy(res, k))
            put(n, k, s.stripped_rank)
            for m in [s.include_matrix, s.project_matrix, *s.core.left, *s.core.right]:
                put(m.rows, m.cols, [[(j, str(x)) for j, x in row] for row in m.nonzeros()])
    assert digest.hexdigest() == "596b56e011318b20c89133d0f7d334af655d0d3dd0bdce30a1607778639b985d"


def test_strip_over_semisimple():
    lam = k_algebra()
    diag = diagonal_bimodule(lam)
    core, r = strip_projective_summands(diag)
    assert core.dim == 0 and r == 1


# -- stable isomorphism ----------------------------------------------------


def test_identity_is_stable_iso():
    lam = kxx(2)
    diag = diagonal_bimodule(lam)
    f = BimoduleMap(diag, diag, Matrix.identity(2, QQ))
    assert is_stable_iso(f)


def test_zero_map_not_stable_iso():
    lam = kxx(2)
    diag = diagonal_bimodule(lam)
    f = BimoduleMap(diag, diag, Matrix.zeros(2, 2, QQ))
    assert not is_stable_iso(f)


# -- symmetric forms -------------------------------------------------------


def test_symmetric_form_truncated_polynomial():
    for n in (1, 2, 3, 4):
        a = kxx(n)
        form = is_symmetric(a)
        assert form is not None
        # nondegenerate associative pairing; top coefficient involved
        assert form[n - 1]


def test_symmetric_form_k_times_k():
    a = two_copies_of_k()
    # the candidate (1, 0) is degenerate and must be rejected by the search
    form = is_symmetric(a)
    assert form is not None
    assert form[0] and form[1]
    # the first nonzero point of the grid c . basis, c in {-2..2}^2 in
    # lexicographic order, that is nondegenerate
    assert form == [-2, -2]


def test_symmetric_form_found_by_random_search():
    # k^5: every basis functional is degenerate, and the trace forms are all
    # of k^5, too many for the grid, so the seeded random search runs
    d = 5
    e = [[int(i == j) for j in range(d)] for i in range(d)]
    mult = [[e[i] if i == j else [0] * d for j in range(d)] for i in range(d)]
    a = FiniteAlgebra(["e%d" % i for i in range(d)], [1] * d, mult)
    form = is_symmetric(a)
    # the first nondegenerate draw of the search seeded with 999
    assert form == [3, 2, -3, 3, 1]
    gram = Matrix([[sum(c * x for c, x in zip(form, a.mult[i][j])) for j in range(d)] for i in range(d)], QQ)
    assert gram == gram.transpose() and rank(gram) == d


# -- JSON loader ------------------------------------------------------------


def test_load_algebra_roundtrip():
    a = kxx(3)
    data = a.to_json()
    b = load_algebra(data)
    assert b.mult == a.mult and b.unit == a.unit


def test_load_algebra_position_precise_errors():
    a = kxx(2)
    data = a.to_json()
    data["mult"][1][2] = ["1", "bogus"]
    with pytest.raises(AlgebraSpecError) as exc:
        load_algebra(data)
    assert "mult[1]" in str(exc.value)
    data2 = a.to_json()
    data2["unit"] = ["1"]
    with pytest.raises(AlgebraSpecError) as exc2:
        load_algebra(data2)
    assert "unit" in str(exc2.value)


def test_load_algebra_rejects_invariant_violations():
    # unit law broken: 1 * t = 1
    data = {
        "dim": 2,
        "labels": ["1", "t"],
        "unit": ["1", "0"],
        "mult": [[0, 0, ["1", "0"]], [0, 1, ["1", "0"]], [1, 0, ["0", "1"]], [1, 1, ["0", "0"]]],
    }
    with pytest.raises(AlgebraSpecError):
        load_algebra(data)
    # non-associative 3-dim table
    data3 = {
        "dim": 3,
        "labels": ["1", "a", "b"],
        "unit": ["1", "0", "0"],
        "mult": [
            [0, 0, ["1", "0", "0"]], [0, 1, ["0", "1", "0"]], [0, 2, ["0", "0", "1"]],
            [1, 0, ["0", "1", "0"]], [1, 1, ["0", "0", "1"]], [1, 2, ["1", "0", "0"]],
            [2, 0, ["0", "0", "1"]], [2, 1, ["0", "0", "0"]], [2, 2, ["0", "0", "0"]],
        ],
    }
    with pytest.raises(AlgebraSpecError):
        load_algebra(data3)
