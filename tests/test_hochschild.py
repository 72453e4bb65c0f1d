import hashlib
import json
import math
import random

import pytest

from bracealg.algebra import (
    _bar,
    _normalizing_maps,
    AlgebraSpecError,
    BimoduleMap,
    bar_resolution,
    build_truncated_polynomial,
    diagonal_bimodule,
    load_algebra,
    strip_projective_summands,
    syzygy,
)
from bracealg.linalg import GF, Matrix, QQ, compose, kernel_basis, rank, solve_matrix
from bracealg import hochschild as H


LAM2 = build_truncated_polynomial(2)
LAM3 = build_truncated_polynomial(3)


def rc(lam, p, j, rng, norm=False):
    return H.random_cochain(lam, p, j, rng, normalized=norm)


def rwc(lam, p, j, rng):
    """rc plus up to three Euler-weighted components, exponents 0-2."""
    c = rc(lam, p, j, rng)
    for _ in range(rng.randint(0, 3)):
        e = tuple(rng.randint(0, 2) for _ in range(p))
        c.comps[p][e] = rc(lam, p, j, rng).component_matrix(p)
    return c


def total(c):
    ar = c.arities()
    return (ar[0] if ar else 0) - 2 * c.iota


def sgn(lam, e):
    return lam.field.one if e % 2 == 0 else -lam.field.one


# -- differential -----------------------------------------------------------


def test_zero_cochain_differential_commutative():
    a = H.Cochain.from_matrix(LAM2, 0, Matrix([[QQ.of(2)], [QQ.of(5)]]), 0)
    assert H.differential(a).is_zero()


def test_derivation_is_cocycle():
    # x d/dx on k[x]/(x^3)
    m = Matrix.zeros(3, 3, QQ).entries
    for i in range(3):
        m[i][i] = QQ.of(i)
    D = H.Cochain.from_matrix(LAM3, 1, Matrix(m, QQ), 0)
    assert H.differential(D).is_zero()


def test_identity_cochain_not_cocycle():
    I = H.Cochain.from_matrix(LAM2, 1, Matrix.identity(2, QQ), 0)
    assert not H.differential(I).is_zero()


@pytest.mark.parametrize("lam", [LAM2, LAM3])
def test_d_squared_zero_random(lam):
    rng = random.Random(11)
    for p in range(0, 4):
        c = rc(lam, p, rng.choice([0, 1]), rng)
        assert H.differential(H.differential(c)).is_zero()


def test_d_equals_bracket_with_m2():
    rng = random.Random(2)
    c = rc(LAM2, 2, 0, rng)
    m2 = H.Cochain.multiplication(LAM2)
    assert (H.differential(c) - H.bracket(m2, c)).is_zero()


# -- braces ------------------------------------------------------------------


def test_brace_vanishes_low_arity():
    rng = random.Random(3)
    x = rc(LAM2, 1, 0, rng)
    y1, y2 = rc(LAM2, 1, 0, rng), rc(LAM2, 2, 0, rng)
    assert H.brace(x, [y1, y2]).is_zero()


def brace_relation_holds(lam, x, ys, zs):
    p, q = len(ys), len(zs)
    lhs = H.brace(H.brace(x, ys), zs)
    rhs = H.Cochain.zero(lam, lhs.iota)

    def positions(k, start):
        if k == p:
            yield []
            return
        for i in range(start, q + 1):
            for j in range(i, q + 1):
                for rest in positions(k + 1, j):
                    yield [(i, j)] + rest

    for pos in positions(0, 0):
        eps = 0
        for k, (i, _) in enumerate(pos):
            eps += (total(ys[k]) - 1) * sum(total(zs[l]) - 1 for l in range(i))
        args = []
        cur = 0
        for k, (i, j) in enumerate(pos):
            args.extend(zs[cur:i])
            args.append(H.brace(ys[k], zs[i:j]))
            cur = j
        args.extend(zs[cur:])
        rhs = rhs + H.brace(x, args).scale(sgn(lam, eps))
    return (lhs - rhs).is_zero()


PQ = [(1, 1), (1, 2), (2, 1), (2, 2)]


@pytest.mark.parametrize(
    "pq, gen",
    [(pq, rc) for pq in PQ] + [(pq, rwc) for pq in PQ],
    ids=["pq%d" % i for i in range(4)] + ["pq%d-weighted" % i for i in range(4)],
)
def test_brace_relation(pq, gen):
    p, q = pq
    rng = random.Random(100 + 10 * p + q)
    for _ in range(3):
        x = gen(LAM2, rng.randint(max(p, 1), 3), rng.choice([0, 1]), rng)
        ys = [gen(LAM2, rng.randint(0, 2), 0, rng) for _ in range(p)]
        zs = [gen(LAM2, rng.randint(0, 2), 0, rng) for _ in range(q)]
        assert brace_relation_holds(LAM2, x, ys, zs)


def lemma_differential_holds(lam, x0, xs):
    n = len(xs)
    lhs = H.differential(H.brace(x0, xs))
    rhs = H.brace(H.differential(x0), xs)
    degs = [total(x0)] + [total(x) for x in xs]
    for i in range(1, n + 1):
        e = sum(degs[j] for j in range(i)) - i
        rhs = rhs + H.brace(x0, xs[: i - 1] + [H.differential(xs[i - 1])] + xs[i:]).scale(sgn(lam, e))
    e = degs[0] - 1 + degs[0] * degs[1]
    rhs = rhs + H.cup(xs[0], H.brace(x0, xs[1:])).scale(sgn(lam, e))
    for i in range(1, n):
        e = sum(degs[j] for j in range(i + 1)) - i - 1
        merged = xs[: i - 1] + [H.cup(xs[i - 1], xs[i])] + xs[i + 1 :]
        rhs = rhs + H.brace(x0, merged).scale(sgn(lam, e))
    e = sum(degs[j] for j in range(n)) - n - 1
    rhs = rhs + H.cup(H.brace(x0, xs[:-1]), xs[-1]).scale(sgn(lam, e))
    return (lhs - rhs).is_zero()


@pytest.mark.parametrize(
    "n, gen",
    [(n, rc) for n in (1, 2, 3)] + [(n, rwc) for n in (1, 2, 3)],
    ids=["1", "2", "3", "1-weighted", "2-weighted", "3-weighted"],
)
def test_lemma_braces_vs_differential(n, gen):
    rng = random.Random(200 + n)
    for _ in range(4):
        x0 = gen(LAM2, rng.randint(n, 3), rng.choice([0, 1]), rng)
        xs = [gen(LAM2, rng.randint(0, 2), rng.choice([0, 1]), rng) for _ in range(n)]
        assert lemma_differential_holds(LAM2, x0, xs)


def lemma_cup_holds(lam, x, y, zs):
    n = len(zs)
    lhs = H.brace(H.cup(x, y), zs)
    rhs = H.Cochain.zero(lam, lhs.iota)
    for i in range(n + 1):
        e = total(y) * sum((total(z) - 1) for z in zs[:i])
        rhs = rhs + H.cup(H.brace(x, zs[:i]), H.brace(y, zs[i:])).scale(sgn(lam, e))
    return (lhs - rhs).is_zero()


@pytest.mark.parametrize("n", [1, 2])
def test_lemma_braces_vs_cup(n):
    rng = random.Random(300 + n)
    for _ in range(4):
        x = rc(LAM2, rng.randint(0, 2), rng.choice([0, 1]), rng)
        y = rc(LAM2, rng.randint(0, 2), rng.choice([0, 1]), rng)
        zs = [rc(LAM2, rng.randint(0, 2), 0, rng) for _ in range(n)]
        assert lemma_cup_holds(LAM2, x, y, zs)


def test_cup_unit_laws_and_associativity():
    rng = random.Random(4)
    u = H.Cochain.unit_cochain(LAM2)
    c = rc(LAM2, 2, 1, rng)
    assert (H.cup(u, c) - c).is_zero()
    assert (H.cup(c, u) - c).is_zero()
    a, b, d = rc(LAM2, 1, 0, rng), rc(LAM2, 2, 0, rng), rc(LAM2, 1, 1, rng)
    assert (H.cup(H.cup(a, b), d) - H.cup(a, H.cup(b, d))).is_zero()


# sha256 of the to_json of _engine_outputs(), recorded before the brace
# engine was rewritten on exponent-tuple weights
ENGINE_OUTPUTS_SHA256 = "b32a7626e51f561538d382cd178d5d96897654bf03ab3c63286eeec0ffe058a0"


def _engine_outputs():
    """Seeded brace, cup, bracket and differential outputs on k[x]/(x^2) and
    k[x]/(x^3): weighted (exponents 0-2) and two-arity inputs of iota -1 to
    2, some with an iota-power summand, some capped, braces with 1-3
    arguments, some with a cap of their own."""
    rng = random.Random(1313)

    def draw(lam, lo, hi):
        j = rng.choice([-1, 0, 1, 2])
        c = rwc(lam, rng.randint(lo, hi), j, rng)
        if rng.random() < 0.5:
            c = c + rwc(lam, rng.randint(lo, hi), j, rng)
        if rng.random() < 0.3:
            c = c + H.Cochain.iota_cochain(lam, j)
        return c.with_cap(rng.choice([math.inf, math.inf, hi, hi + 1]))

    outs = []
    for lam in (LAM2, LAM3):
        for n in (1, 2, 3):
            for _ in range(12):
                x0 = draw(lam, n, 3)
                ys = [draw(lam, 0, 2) for _ in range(n)]
                outs.append(H.brace(x0, ys, cap=rng.choice([None, 3, 4])))
        for _ in range(10):
            x, y = draw(lam, 0, 2), draw(lam, 0, 2)
            cap = rng.choice([None, 4])
            outs += [H.cup(x, y, cap=cap), H.bracket(x, y, cap=cap), H.differential(x, cap=cap)]
    return [c.to_json() for c in outs]


def test_engine_outputs_pinned():
    outs = json.dumps(_engine_outputs(), sort_keys=True)
    assert hashlib.sha256(outs.encode()).hexdigest() == ENGINE_OUTPUTS_SHA256


def test_brace_sum_equals_sum_of_braces():
    # seeded terms of one internal degree: weighted, two-arity and capped
    # cochains, terms with no arguments (x0{} = x0), and a cap of the sum's own
    rng = random.Random(4242)

    def draw(lam, lo, hi, j):
        c = rwc(lam, rng.randint(lo, hi), j, rng)
        if rng.random() < 0.4:
            c = c + rwc(lam, rng.randint(lo, hi), j, rng)
        return c.with_cap(rng.choice([math.inf, math.inf, hi, hi + 1]))

    no_args = capped = 0
    for lam in (LAM2, LAM3):
        for _ in range(12):
            iota = rng.choice([-1, 0, 1])
            terms = []
            for _ in range(rng.randint(1, 4)):
                n = rng.choice([0, 1, 1, 2])
                js = [rng.choice([-1, 0, 1]) for _ in range(n)]
                args = [draw(lam, 0, 2, j) for j in js]
                terms.append((rng.choice([1, -1]), draw(lam, max(n, 1), 3, iota - sum(js)), args))
                no_args += n == 0
                capped += any(c.cap != math.inf for c in [terms[-1][1], *args])
            cap = rng.choice([None, 3, 4])
            got = H.brace_sum(terms, cap=cap)
            want = H.Cochain.zero(lam, iota)
            for sign, x0, args in terms:
                want = want + H.brace(x0, args, cap=cap).scale(lam.field.of(sign))
            assert got.cap == want.cap
            assert got == want
            assert all(p <= got.cap for p in got.comps)
    assert no_args and capped


def test_brace_sum_refuses_mixed_internal_degrees():
    x = H.Cochain.multiplication(LAM2)
    with pytest.raises(AlgebraSpecError, match="different internal degree"):
        H.brace_sum([(1, x, [H.Cochain.iota_cochain(LAM2, 0)]), (1, x, [H.Cochain.iota_cochain(LAM2, 1)])])


def _cup_cap(x, y, cap):
    """The cup's reliable range as cup once computed it itself."""
    limit = math.inf
    if x.cap != math.inf:
        limit = min(limit, x.cap + H._min_possible_arity(y))
    if y.cap != math.inf:
        limit = min(limit, y.cap + H._min_possible_arity(x))
    return limit if cap is None else min(limit, cap)


def _bracket_cap(x, y, cap):
    """The bracket's reliable range as bracket once computed it itself."""
    limit = math.inf
    if x.cap != math.inf:
        limit = min(limit, x.cap + H._min_possible_arity(y) - 1)
    if y.cap != math.inf:
        limit = min(limit, y.cap + H._min_possible_arity(x) - 1)
    return limit if cap is None else min(limit, cap)


# sha256 of the to_json of the outputs of test_cochain_sums_keep_the_reliable_range,
# each cut at its cap, recorded while cup and bracket still computed their
# caps themselves
CAPPED_OUTPUTS_SHA256 = "fb63af902779565de3e85d204c65d6fae0f7cc37fd9bad5afa044e9a06a8f60d"


def test_cochain_sums_keep_the_reliable_range():
    # cup, bracket and differential give the caps of the explicit formulas
    # above, and their sums keep no component above the cap; the inputs
    # include cochains with no components but a finite cap, arity-0 parts,
    # iota summands, and components above the cap
    rng = random.Random(2718)

    def draw(lam):
        j = rng.choice([-1, 0, 1, 2])
        cap = rng.choice([math.inf, 1, 2, 3, 4])
        if rng.random() < 0.15:
            return H.Cochain.zero(lam, j).with_cap(cap)
        c = rc(lam, rng.randint(0, 2), j, rng)
        if rng.random() < 0.5:
            c = c + rc(lam, rng.randint(0, 2), j, rng)
        if rng.random() < 0.3:
            c = c + H.Cochain.iota_cochain(lam, j)
        return c.with_cap(cap) if rng.random() < 0.7 else H.Cochain(lam, c.iota, c.comps, cap)

    outs = []
    for lam in (LAM2, LAM3):
        m2 = H.Cochain.multiplication(lam)
        for _ in range(25):
            x, y = draw(lam), draw(lam)
            cap = rng.choice([None, 2, 3, 5])
            for got, want in (
                (H.cup(x, y, cap=cap), _cup_cap(x, y, cap)),
                (H.bracket(x, y, cap=cap), _bracket_cap(x, y, cap)),
                (H.differential(x, cap=cap), _bracket_cap(m2, x, cap)),
            ):
                assert got.cap == want
                assert all(p <= got.cap for p in got.comps)
                outs.append(got.with_cap(got.cap).to_json())
    digest = hashlib.sha256(json.dumps(outs, sort_keys=True).encode()).hexdigest()
    assert digest == CAPPED_OUTPUTS_SHA256


def test_sum_of_different_internal_degrees_refused():
    c = H.Cochain.iota_cochain(LAM2, 1)
    with pytest.raises(AlgebraSpecError, match="cannot add cochains of different internal degree"):
        H.Cochain.zero(LAM2, 0) + c


def test_cochains_of_different_internal_degree_are_unequal():
    assert H.Cochain.iota_cochain(LAM2, 1) != H.Cochain.iota_cochain(LAM2, 0)
    assert H.Cochain.zero(LAM2, 0) != H.Cochain.zero(LAM2, 1)
    assert H.Cochain.zero(LAM2, 1) == H.Cochain.zero(LAM2, 1)


def test_cochains_over_different_algebras_are_unequal():
    assert H.Cochain.unit_cochain(LAM2) != H.Cochain.unit_cochain(LAM3)
    # two builds of one algebra count as the same algebra
    assert H.Cochain.unit_cochain(LAM3) == H.Cochain.unit_cochain(build_truncated_polynomial(3))
    # so are Euler-adjoined pairs over them
    assert H.euler_derivation(LAM2) != H.euler_derivation(LAM3)
    assert H.euler_derivation(LAM3) == H.euler_derivation(build_truncated_polynomial(3))
    shifted = H.EulerAdjoinedCochain(H.Cochain.zero(LAM2, 1), H.Cochain.unit_cochain(LAM2))
    assert H.euler_derivation(LAM2) != shifted


def test_bracket_even_square():
    rng = random.Random(5)
    x = rc(LAM2, 2, 0, rng)  # even total degree
    assert (H.bracket(x, x) - H.brace(x, [x]).scale(QQ.of(2))).is_zero()


def test_graded_jacobi():
    rng = random.Random(6)
    for _ in range(5):
        x = rc(LAM2, rng.randint(1, 2), rng.choice([0, 1]), rng)
        y = rc(LAM2, rng.randint(1, 2), 0, rng)
        z = rc(LAM2, rng.randint(1, 2), 0, rng)
        lhs = H.bracket(x, H.bracket(y, z))
        rhs = H.bracket(H.bracket(x, y), z) + H.bracket(y, H.bracket(x, z)).scale(
            sgn(LAM2, (total(x) - 1) * (total(y) - 1))
        )
        assert (lhs - rhs).is_zero()


# -- cohomology --------------------------------------------------------------


def test_hh_dims_k():
    lam = build_truncated_polynomial(1)
    assert len(H.cohomology(lam, 0, 0)) == 1
    for p in (1, 2, 3):
        assert len(H.cohomology(lam, p, 0)) == 0


def test_hh_dims_kx2():
    assert len(H.cohomology(LAM2, 0, 0)) == 2  # centre = Lambda
    for p in (1, 2, 3, 4):
        assert len(H.cohomology(LAM2, p, p // 2)) == 1


def full_complex_dims(lam, pmax):
    """Independent oracle: ranks of the unnormalized cochain complex."""
    d = lam.dim
    dims = []
    prev_rank = 0
    for p in range(pmax + 1):
        src = d * d**p
        cols = []
        for t in range(src):
            m = Matrix.zeros(d, d**p, lam.field).entries
            row, col = t % d, t // d
            m[row][col] = lam.field.one
            c = H.Cochain.from_matrix(lam, p, Matrix(m, lam.field), 0)
            dc = H.differential(c)
            mat = dc.component_matrix(p + 1)
            vec = []
            for cc in range(d ** (p + 1)):
                vec.extend(mat.entries[r][cc] for r in range(d))
            cols.append(vec)
        Dp = Matrix([[cols[j][i] for j in range(src)] for i in range(d * d ** (p + 1))], lam.field)
        kdim = kernel_basis(Dp).dim
        dims.append(kdim - prev_rank)
        prev_rank = rank(Dp)
    return dims


def test_hh_dims_cross_checked_against_bar_complex():
    assert full_complex_dims(LAM2, 4) == [2, 1, 1, 1, 1]
    assert [len(H.cohomology(LAM2, p, 0)) for p in range(5)] == [2, 1, 1, 1, 1]
    assert full_complex_dims(LAM3, 3) == [3, 2, 2, 2]
    assert [len(H.cohomology(LAM3, p, 0)) for p in range(4)] == [3, 2, 2, 2]


def test_cap_too_low():
    with pytest.raises(H.CapTooLow):
        H.cohomology(LAM2, H.DEFAULT_CAP, 0)


def test_cup_graded_commutative_in_cohomology_only():
    # cochain level may fail, class level holds
    rng = random.Random(8)
    x = H.cohomology(LAM2, 1, 0)[0]
    y = H.cohomology(LAM2, 2, 1)[0]
    xy = x.cup_cls(y)
    yx = y.cup_cls(x)
    s = (total(x.representative)) * (total(y.representative))
    expect = yx.scale(sgn(LAM2, s))
    assert xy == expect
    # exhibit non-commutativity at cochain level (unnormalized pair)
    found = False
    for _ in range(20):
        a = rc(LAM2, 1, 0, rng, norm=False)
        b = rc(LAM2, 2, 0, rng, norm=False)
        lhs = H.cup(a, b)
        rhs = H.cup(b, a).scale(sgn(LAM2, total(a) * total(b)))
        if not (lhs - rhs).is_zero():
            found = True
            break
    assert found


def test_leibniz_bracket_over_cup_class_level():
    # [x, y.z] = [x,y].z + (-1)^((|x|-1)|y|) y.[x,z] in cohomology
    for (px, jx), (py, jy), (pz, jz) in [
        ((1, 0), (1, 0), (2, 1)),
        ((2, 1), (1, 0), (1, 0)),
        ((1, 0), (2, 1), (1, 0)),
    ]:
        x = H.cohomology(LAM2, px, jx)[0]
        y = H.cohomology(LAM2, py, jy)[0]
        z = H.cohomology(LAM2, pz, jz)[0]
        lhs = x.bracket_cls(y.cup_cls(z))
        t1 = x.bracket_cls(y).cup_cls(z)
        t2 = y.cup_cls(x.bracket_cls(z)).scale(
            sgn(LAM2, (total(x.representative) - 1) * total(y.representative))
        )
        assert lhs == t1 + t2


# -- Euler-adjoined model -----------------------------------------------------


def test_euler_values():
    e2 = H.Cochain.euler(LAM2)
    val, j = e2.evaluate([(LAM2.unit, 1)])
    assert val == [-QQ.one, QQ.zero] and j == 1
    val0, _ = e2.evaluate([(LAM2.basis_vector(1), 0)])
    assert all(v == QQ.zero for v in val0)
    assert H.differential(e2).is_zero()


def test_bracket_table():
    iota_c = H.Cochain.iota_cochain(LAM2, 1)
    e2 = H.Cochain.euler(LAM2)
    hh = H.cohomology(LAM2, 2, 0)[0].representative
    assert H.bracket(iota_c, hh).is_zero()
    assert H.bracket(iota_c, H.Cochain.iota_cochain(LAM2, 1)).is_zero()
    assert H.bracket(e2, hh).is_zero()
    assert (H.bracket(e2, iota_c) + iota_c).is_zero()


def test_forward_backward_roundtrip():
    rng = random.Random(9)
    for _ in range(15):
        p = rng.randint(1, 3)
        j = rng.choice([0, 1, 2])
        x = rc(LAM2, p, j, rng, norm=True)
        y = rc(LAM2, p - 1, j, rng, norm=True)
        pair = H.EulerAdjoinedCochain(x, y)
        assert (H.hh_isos_forward(H.hh_isos_backward(pair)) - pair).is_zero()


def test_forward_iota_linear_zero_euler_part():
    rng = random.Random(10)
    x = rc(LAM2, 2, 1, rng, norm=True)
    fw = H.hh_isos_forward(x)
    assert fw.euler.is_zero() and (fw.plain - x).is_zero()


def test_restrict_j_chain_map():
    rng = random.Random(12)
    for _ in range(5):
        c = rc(LAM2, 2, 1, rng, norm=True)
        b = rc(LAM2, 1, 1, rng, norm=True)
        # j* of a coboundary is a coboundary (here: the identity on data)
        db = H.differential(b)
        assert (H.restrict_j(db) - H.differential(H.restrict_j(b))).is_zero()
        assert (H.restrict_j(H.differential(c)) - H.differential(H.restrict_j(c))).is_zero()


def test_restrict_of_multiplication():
    m2 = H.Cochain.multiplication(LAM2)
    assert (H.restrict_j(m2) - m2).is_zero()


# -- cocycle -> extension, Tate units -----------------------------------------


def test_cocycle_to_extension_zero():
    z = H.vec_to_cochain(LAM2, 4, 1, [QQ.zero] * H.normalized_space_dim(LAM2, 4), False)
    fmap = H.cocycle_to_extension(z)
    assert fmap.matrix.is_zero()


def test_not_a_cocycle_rejected():
    # over k[x]/(x^2) every normalized 4-cochain is a cocycle, so use an
    # unnormalized one to find a non-cocycle
    rng = random.Random(14)
    for _ in range(50):
        c = rc(LAM2, 4, 1, rng, norm=False)
        if not H.differential(c).is_zero():
            break
    else:
        pytest.fail("could not sample a non-cocycle")
    with pytest.raises(H.NotACocycle):
        H.cocycle_to_extension(c)


def test_coboundary_gives_non_stable_iso():
    rng = random.Random(15)
    b = rc(LAM2, 3, 1, rng, norm=True)
    db = H.differential(b)
    dbn = H.Cochain.from_matrix(LAM2, 4, db.component_matrix(4), 1)
    from bracealg.algebra import is_stable_iso

    fmap = H.cocycle_to_extension(dbn)
    assert not is_stable_iso(fmap)


def _unnormalized_bar(lam, length):
    ident = Matrix.identity(lam.dim, lam.field)
    return _bar(lam, length, ident, ident)


def _extension_by_elimination(c, res, J):
    """Reference for cocycle_to_extension on the bar res of length k with
    middle inclusion J: lift Omega^k through d_k by elimination and evaluate
    a_0 (x) m_1 .. m_k (x) a_{k+1} -> a_0 c(J m_1, ..., J m_k) a_{k+1}."""
    lam, k = c.algebra, res.length
    d, n = lam.dim, J.cols
    syz = syzygy(res, k)
    incl = syz.inclusion.vectors()
    B = Matrix([[v[i] for v in incl] for i in range(len(incl[0]))], lam.field)
    W = solve_matrix(res.differential_matrix(k), B)
    cmat = compose(c.component_matrix(k), [J] * k).entries
    cols = []
    for t in range(syz.dim):
        acc = [lam.field.zero] * d
        for idx, coeff in enumerate(W.column(t)):
            if coeff:
                # idx encodes (j_0, m_1, ..., m_k, j_{k+1}), j_0 most significant
                first, rest = divmod(idx, n**k * d)
                col, last = divmod(rest, d)
                val = [cmat[r][col] for r in range(d)]
                val = lam.mul(lam.mul(lam.basis_vector(first), val), lam.basis_vector(last))
                acc = [x + coeff * y for x, y in zip(acc, val)]
        cols.append(acc)
    return Matrix([[cols[t][r] for t in range(syz.dim)] for r in range(d)], lam.field)


def _unnormalized_extension(c, k):
    """cocycle_to_extension out of the unnormalized bar: phi o s with s = 1 (x) -,
    phi(s(a_0 (x) ... (x) a_k)) = c(a_0, ..., a_{k-1}) a_k."""
    lam = c.algebra
    syz = syzygy(_unnormalized_bar(lam, k), k)
    phi_s = compose(lam.mult_matrix(), [c.component_matrix(k), Matrix.identity(lam.dim, lam.field)])
    return BimoduleMap(syz, diagonal_bimodule(lam), phi_s * syz.inclusion.matrix.transpose())


@pytest.mark.parametrize("k", [2, 4])
def test_homotopy_lift_matches_elimination(k):
    rng = random.Random(17 + k)
    reps = [cls.representative for cls in H.cohomology(LAM2, k, 1)]
    b = rc(LAM2, k - 1, 1, rng, norm=True)
    perturbed = reps[0] + H.differential(b)
    reps.append(H.Cochain.from_matrix(LAM2, k, perturbed.component_matrix(k), 1))
    assert not (reps[-1] - reps[0]).is_zero()
    ident = Matrix.identity(LAM2.dim)
    J, _ = _normalizing_maps(LAM2)
    for c in reps:
        full = _unnormalized_extension(c, k).matrix
        assert full == _extension_by_elimination(c, _unnormalized_bar(LAM2, k), ident)
        assert H.cocycle_to_extension(c, k).matrix == _extension_by_elimination(c, bar_resolution(LAM2, k), J)


# 2x2 upper-triangular matrices on the basis e11, e12, e22: the unit e11 + e22
# is no basis vector
UPPER_TRIANGULAR = {
    "dim": 3,
    "labels": ["e11", "e12", "e22"],
    "unit": ["1", "0", "1"],
    "mult": [
        [0, 0, ["1", "0", "0"]], [0, 1, ["0", "1", "0"]],
        [1, 2, ["0", "1", "0"]], [2, 2, ["0", "0", "1"]],
    ],
}


def test_extension_on_non_basis_unit_matches_elimination():
    # the coboundary of a normalized 3-cochain (one that vanishes on the unit, through J P)
    lam = load_algebra(UPPER_TRIANGULAR)
    J, P = _normalizing_maps(lam)
    rng = random.Random(21)
    raw = Matrix([[QQ.of(rng.randint(-3, 3)) for _ in range(27)] for _ in range(3)], QQ)
    b = H.Cochain.from_matrix(lam, 3, compose(raw, [J * P] * 3), 1)
    c = H.Cochain.from_matrix(lam, 4, H.differential(b).component_matrix(4), 1)
    assert not c.component_matrix(4).is_zero()
    assert H.cocycle_to_extension(c, 4).matrix == _extension_by_elimination(c, bar_resolution(lam, 4), J)


def test_cocycle_to_extension_refuses_non_normalized_cocycle():
    # u + d(b) with b not normalized is a cocycle that does not vanish on the unit
    rng = random.Random(22)
    u = H.cohomology(LAM2, 4, 1)[0].representative
    b = rc(LAM2, 3, 1, rng, norm=False)
    c = H.Cochain.from_matrix(LAM2, 4, (u + H.differential(b)).component_matrix(4), 1)
    assert H.differential(c).is_zero(up_to=5)
    assert not H._is_normalized_component(c, 4)
    with pytest.raises(AlgebraSpecError, match="normalized cocycle"):
        H.cocycle_to_extension(c)


def test_store_shared_by_equal_algebras():
    a = build_truncated_polynomial(2)
    b = load_algebra(a.to_json())
    assert a is not b
    assert H.hh_context(a, 4, 1) is H.hh_context(b, 4, 1)


def test_extension_maps_share_omega():
    u = H.cohomology(LAM2, 4, 1)[0]
    f1 = H.cocycle_to_extension(u.representative)
    f2 = H.cocycle_to_extension(u.representative.scale(QQ.of(2)))
    assert f1.source is f2.source
    assert strip_projective_summands(f1.source) is strip_projective_summands(f2.source)


def test_exact_check_rejects_corrupted_extension_map():
    u = H.cohomology(LAM3, 4, 1)[0]
    unnormalized = _unnormalized_extension(u.representative, 4)
    assert unnormalized.source.dim == 183
    f = H.cocycle_to_extension(u.representative)
    assert f.source.dim == 48
    for f in (unnormalized, f):
        ent = [list(r) for r in f.matrix.entries]
        ent[0][0] = ent[0][0] + 1
        with pytest.raises(AlgebraSpecError):
            BimoduleMap(f.source, f.target, Matrix(ent, QQ))


def test_tate_unit_check_periodicity_class():
    u = H.cohomology(LAM2, 4, 1)[0]
    res = H.tate_unit_check(u)
    assert bool(res) and not res.separable


def test_tate_unit_check_zero_class_false():
    u = H.cohomology(LAM2, 4, 1)[0]
    zero = u.scale(QQ.zero)
    assert not H.tate_unit_check(zero)


def test_tate_unit_representative_independent():
    rng = random.Random(16)
    u = H.cohomology(LAM2, 4, 1)[0]
    b = rc(LAM2, 3, 1, rng, norm=True)
    rep2 = u.representative + H.differential(b)
    rep2 = H.Cochain.from_matrix(LAM2, 4, rep2.component_matrix(4), 1)
    u2 = H.HHClass(u.context, rep2)
    assert u2 == u
    assert bool(H.tate_unit_check(u2)) == bool(H.tate_unit_check(u))


def test_tate_unit_separable_flag():
    lam = build_truncated_polynomial(1)
    zero = H.HHClass(
        H.hh_context(lam, 4, 1),
        H.vec_to_cochain(lam, 4, 1, [QQ.zero] * H.normalized_space_dim(lam, 4), False),
    )
    res = H.tate_unit_check(zero)
    assert bool(res) and res.separable


def test_wrong_bidegree():
    u = H.cohomology(LAM2, 2, 1)[0]
    with pytest.raises(H.WrongBidegree):
        H.tate_unit_check(u)


def test_divide_class():
    u = H.cohomology(LAM2, 4, 1)[0]
    x6 = H.cohomology(LAM2, 6, 2)[0]
    v = H.divide_class(x6, u)
    assert u.cup_cls(v) == x6


def test_combination_is_the_class_of_the_sum():
    rng = random.Random(15)
    for p in (0, 2, 3, 4):
        ctx = H.hh_context(LAM3, p, (p + 1) // 2)
        coeffs = [QQ.of(rng.randint(-3, 3), rng.randint(1, 3)) for _ in ctx.reps]
        total = H.Cochain.zero(LAM3, ctx.j)
        for c, b in zip(coeffs, ctx.basis_classes()):
            total = total + b.representative.scale(c)
        cls = ctx.combination(coeffs)
        assert cls == H.class_of(LAM3, total, p, ctx.j)
        assert cls.coords == coeffs
    zero = ctx.combination([])
    assert zero.is_zero() and zero.vec == [QQ.zero] * H.normalized_space_dim(LAM3, 4)


def test_cochain_json_dump():
    rng = random.Random(17)
    c = rc(LAM2, 2, 1, rng, norm=True)
    data = c.to_json()
    assert data["iota_power"] == 1 and "2" in data["components"]


def test_euler_derivation_operation():
    from bracealg.finite import LaurentAlgebra

    lau = LaurentAlgebra(LAM2)
    e = H.euler_derivation(lau)
    assert e.plain.is_zero()
    # the pair (0, 1) models e2 itself: its honest cochain sends iota to -iota
    c = H.hh_isos_backward(e)
    val, j = c.evaluate([(LAM2.unit, 1)])
    assert val == [-QQ.one, QQ.zero] and j == 1
    # and the forward image of e2's honest cochain is the pair again
    assert (H.hh_isos_forward(c) - e).is_zero()


def test_forward_euler_free_part_is_restriction():
    rng = random.Random(21)
    x = rc(LAM2, 2, 1, rng, norm=True)
    fw = H.hh_isos_forward(x)
    assert (H.restrict_j(fw.plain) - H.restrict_j(x)).is_zero()


@pytest.mark.parametrize("lam", [build_truncated_polynomial(1), LAM2, LAM3])
def test_d_squared_exhaustive_basis_cochains(lam):
    # module invariant: d^2 = 0 on every basis cochain, p <= 4
    from bracealg.linalg import Matrix

    d = lam.dim
    for p in range(0, 5):
        if d ** p * d > 300:
            # full exhaustion is quadratic in this count; sample the basis
            # deterministically above desk scale
            idxs = range(0, d * d**p, 3)
        else:
            idxs = range(d * d**p)
        for t in idxs:
            m = Matrix.zeros(d, d**p, lam.field).entries
            m[t % d][t // d] = lam.field.one
            c = H.Cochain.from_matrix(lam, p, Matrix(m, lam.field), 0)
            assert H.differential(H.differential(c)).is_zero()


# -- the differential matrices against the brace engine -----------------------

# k[x]/(x^3) with basis x, 1, x^2: the unit is a basis vector, but not the first
KX3_PERMUTED = {
    "dim": 3,
    "labels": ["x", "1", "x^2"],
    "unit": ["0", "1", "0"],
    "mult": [
        [0, 0, ["0", "0", "1"]], [0, 1, ["1", "0", "0"]], [1, 0, ["1", "0", "0"]],
        [1, 1, ["0", "1", "0"]], [1, 2, ["0", "0", "1"]], [2, 1, ["0", "0", "1"]],
    ],
}

# upper-triangular 2x2 matrices with basis 1, e11, e12: not commutative
# (e11 e12 = e12, e12 e11 = 0), and the unit is a basis vector
UPPER_UNIT_BASIS = {
    "dim": 3,
    "labels": ["1", "e11", "e12"],
    "unit": ["1", "0", "0"],
    "mult": [
        [0, 0, ["1", "0", "0"]], [0, 1, ["0", "1", "0"]], [0, 2, ["0", "0", "1"]],
        [1, 0, ["0", "1", "0"]], [2, 0, ["0", "0", "1"]],
        [1, 1, ["0", "1", "0"]], [1, 2, ["0", "0", "1"]],
    ],
}

# the same algebra on the basis e11, e12, e22: the unit e11 + e22 is no
# basis vector
UPPER_T2 = {
    "dim": 3,
    "labels": ["e11", "e12", "e22"],
    "unit": ["1", "0", "1"],
    "mult": [
        [0, 0, ["1", "0", "0"]], [0, 1, ["0", "1", "0"]],
        [1, 2, ["0", "1", "0"]], [2, 2, ["0", "0", "1"]],
    ],
}

# k[x]/(x^2) and k[x]/(x^3) with bases 1+x, x(, x^2): the unit is (1+x) - x
KX2_SHIFTED = {
    "dim": 2,
    "labels": ["1+x", "x"],
    "unit": ["1", "-1"],
    "mult": [[0, 0, ["1", "1"]], [0, 1, ["0", "1"]], [1, 0, ["0", "1"]]],
}
KX3_SHIFTED = {
    "dim": 3,
    "labels": ["1+x", "x", "x^2"],
    "unit": ["1", "-1", "0"],
    "mult": [
        [0, 0, ["1", "1", "1"]], [0, 1, ["0", "1", "1"]], [1, 0, ["0", "1", "1"]],
        [0, 2, ["0", "0", "1"]], [2, 0, ["0", "0", "1"]], [1, 1, ["0", "0", "1"]],
    ],
}

# k[x]/(x^2) on the basis x, 1+x: (1+x)^2 = (1+x) + x has a component on
# x, the basis vector that Lambda-bar leaves out
KX2_X_FIRST = {
    "dim": 2,
    "labels": ["x", "1+x"],
    "unit": ["-1", "1"],
    "mult": [[0, 1, ["1", "0"]], [1, 0, ["1", "0"]], [1, 1, ["1", "1"]]],
}


@pytest.mark.parametrize("spec", [KX2_SHIFTED, KX2_X_FIRST, KX3_SHIFTED], ids=["kx2-shifted", "kx2-x-first", "kx3-shifted"])
def test_tate_unit_check_on_a_basis_without_the_unit(spec):
    # the same flags as on the monomial basis: HH^{4,-2} of k[x]/(x^2) is
    # spanned by the periodicity unit, and k[x]/(x^3) has one unit and one
    # non-unit among its basis classes
    lam = load_algebra(spec)
    flags = [bool(H.tate_unit_check(u)) for u in H.cohomology(lam, 4, 1)]
    assert flags == ([True] if lam.dim == 2 else [False, True])


def _basis_vectors(n, field):
    for t in range(n):
        vec = [field.zero] * n
        vec[t] = field.one
        yield vec


def _brace_differential_matrix(lam, p, weighted):
    """d in the plain or the weighted coordinates, by running [m2, -] on each
    basis cochain; in the plain layout each image is checked normalized."""
    def size(q):
        return len(H.cochain_to_vec(H.Cochain.zero(lam), q, weighted))

    cols = []
    for vec in _basis_vectors(size(p), lam.field):
        dc = H.differential(H.vec_to_cochain(lam, p, 0, vec, weighted))
        assert weighted or H._is_normalized_component(dc, p + 1)
        cols.append(H.cochain_to_vec(dc, p + 1, weighted))
    return Matrix(cols, lam.field, cols=size(p + 1)).transpose()


@pytest.mark.parametrize(
    "lam",
    [
        build_truncated_polynomial(1), LAM2, LAM3, load_algebra(KX3_PERMUTED), load_algebra(UPPER_UNIT_BASIS),
        load_algebra(UPPER_T2), load_algebra(KX3_SHIFTED), load_algebra(KX2_X_FIRST),
    ],
    ids=["k", "kx2", "kx3", "kx3-permuted", "upper", "upper-t2", "kx3-shifted", "kx2-x-first"],
)
def test_differential_matrices_match_brace_reference(lam):
    for weighted, arities in ((False, 5), (True, 4)):
        for p in range(arities):
            assert H.normalized_differential_matrix(lam, p, weighted) == _brace_differential_matrix(lam, p, weighted)


@pytest.mark.parametrize("weighted", [False, True], ids=["plain", "weighted"])
def test_coordinate_layouts(weighted):
    # coordinates round-trip; the zero vector gives the plain layout's one
    # zero block, as Cochain.from_matrix does, and no component in the
    # weighted layout; a weight outside the layout is refused
    p, rng = 2, random.Random(19)
    size = len(H.cochain_to_vec(H.Cochain.zero(LAM3), p, weighted))
    assert size == ((p + 1) * 3 ** (p + 1) if weighted else H.normalized_space_dim(LAM3, p))
    vec = [QQ.of(rng.randint(-3, 3)) for _ in range(size)]
    assert H.cochain_to_vec(H.vec_to_cochain(LAM3, p, 1, vec, weighted), p, weighted) == vec
    zero = H.vec_to_cochain(LAM3, p, 1, [QQ.zero] * size, weighted)
    assert zero.comps == ({} if weighted else {p: {(0, 0): Matrix.zeros(3, 9, QQ)}})
    heavy = H.Cochain(LAM3, 0, {p: {(1, 1) if weighted else (1, 0): Matrix.from_int_rows([[1] + [0] * 8] * 3)}})
    with pytest.raises(AlgebraSpecError, match=r"^cochain has Euler weights of degree > %d$" % weighted):
        H.cochain_to_vec(heavy, p, weighted)


@pytest.mark.parametrize("side", ["left", "right"])
def test_normalization_check_fires_on_broken_unit_law(side):
    # k[x]/(x^3) built valid, then edited so that 1.x (or x.1) = x + x^2
    lam = build_truncated_polynomial(3)
    i, j = (0, 1) if side == "left" else (1, 0)
    lam.mult[i][j] = [QQ.zero, QQ.one, QQ.one]
    lam._mult_mat = None
    with pytest.raises(AlgebraSpecError, match="differential left the normalized subcomplex"):
        H.normalized_differential_matrix(lam, 1, False)


def test_equal_algebras_share_the_store():
    # the store key is kept on the algebra and built from its structure, so
    # an algebra built again finds the entries of the first
    from bracealg.finite import _structure_key

    a, b = build_truncated_polynomial(3, GF(101)), build_truncated_polynomial(3, GF(101))
    assert a is not b and _structure_key(a) is _structure_key(a)
    assert H.normalized_differential_matrix(a, 2, False) is H.normalized_differential_matrix(b, 2, False)
    assert H.hh_context(a, 2, 1) is H.hh_context(b, 2, 1)


# -- the class products against the brace engine ------------------------------


def _brace_class(lam, product, p, j):
    """The old route: a product of representatives, checked normalized, then class_of."""
    assert H._is_normalized_component(product, p)
    return H.class_of(lam, product, p, j)


@pytest.mark.parametrize("field", [QQ, GF(101)], ids=["qq", "fp101"])
@pytest.mark.parametrize(
    "spec",
    [1, 2, 3, KX3_PERMUTED, UPPER_UNIT_BASIS, KX2_SHIFTED],
    ids=["k", "kx2", "kx3", "kx3-permuted", "upper", "kx2-shifted"],
)
def test_class_products_match_brace_reference(spec, field):
    lam = build_truncated_polynomial(spec, field) if isinstance(spec, int) else load_algebra(spec, field)
    gens = [cls for p in range(5) for cls in H.cohomology(lam, p, (p + 1) // 2)]
    for x in gens:
        for y in gens:
            p, q = x.context.p, y.context.p
            j = x.context.j + y.context.j
            cup = x.cup_cls(y)
            ref = _brace_class(lam, H.cup(x.representative, y.representative), p + q, j)
            assert cup == ref and cup.vec == ref.vec
            br = x.bracket_cls(y)
            if p + q == 0:
                assert br.bidegree == (0, -2 * j) and br.is_zero()
                continue
            ref = _brace_class(lam, H.bracket(x.representative, y.representative), p + q - 1, j)
            assert br == ref and br.vec == ref.vec


@pytest.mark.parametrize("field", [QQ, GF(101)], ids=["qq", "fp101"])
@pytest.mark.parametrize(
    "spec",
    [2, 3, KX3_PERMUTED, UPPER_UNIT_BASIS, KX2_SHIFTED],
    ids=["kx2", "kx3", "kx3-permuted", "upper", "kx2-shifted"],
)
def test_class_product_tables_match_brace_reference(spec, field):
    # whole a x b tables per pair of arities, and their 1 x k rows, against
    # the brace engine pair by pair
    lam = build_truncated_polynomial(spec, field) if isinstance(spec, int) else load_algebra(spec, field)
    gens = [H.cohomology(lam, p, (p + 1) // 2) for p in range(5)]
    for xs in gens:
        for ys in gens:
            if not xs or not ys:
                continue
            p, q = xs[0].context.p, ys[0].context.p
            j = xs[0].context.j + ys[0].context.j
            cups, brackets = H.cup_table(xs, ys), H.bracket_table(xs, ys)
            assert [len(row) for row in cups] == [len(row) for row in brackets] == [len(ys)] * len(xs)
            for x, cup_row, bracket_row in zip(xs, cups, brackets):
                assert H.cup_table([x], ys) == [cup_row] and H.bracket_table([x], ys) == [bracket_row]
                for y, cup, br in zip(ys, cup_row, bracket_row):
                    ref = _brace_class(lam, H.cup(x.representative, y.representative), p + q, j)
                    assert cup == ref and cup.vec == ref.vec
                    if p + q == 0:
                        assert br.bidegree == (0, -2 * j) and br.is_zero()
                        continue
                    ref = _brace_class(lam, H.bracket(x.representative, y.representative), p + q - 1, j)
                    assert br == ref and br.vec == ref.vec


def test_class_product_tables_of_empty_and_mixed_stacks():
    ones, twos = H.cohomology(LAM3, 1, 1), H.cohomology(LAM3, 2, 1)
    assert ones and twos
    for table in (H.cup_table, H.bracket_table):
        assert table([], twos) == [] and table(twos, []) == [[] for _ in twos]
        with pytest.raises(H.WrongBidegree, match="one bidegree"):
            table(ones + twos, twos)


def test_class_of_a_non_cocycle_refused():
    ctx = H.hh_context(LAM3, 2, 1)
    d = H.normalized_differential_matrix(LAM3, 2, False)
    v = next(v for v in _basis_vectors(d.cols, QQ) if any(d.apply(v)))
    with pytest.raises(H.NotACocycle, match=r"^vector is not a cocycle at \(2, -2\)$"):
        H.HHClass(ctx, vec=v)


def test_non_normalized_representative_refused():
    # the 1-cochain 1 -> x, x -> 0 on k[x]/(x^2): its reduced coordinates
    # (the values on x alone) are zero, a cocycle, so only the
    # normalization check can refuse it
    ctx = H.hh_context(LAM2, 1, 0)
    rep = H.Cochain.from_matrix(LAM2, 1, Matrix([[0, 0], [1, 0]], QQ), 0)
    with pytest.raises(AlgebraSpecError, match="expected a normalized cochain"):
        H.HHClass(ctx, rep)
    with pytest.raises(AlgebraSpecError, match="expected a normalized cochain"):
        H.class_of(LAM2, rep, 1, 0)


def test_solve_coboundary_extra_columns_on_a_coboundary():
    # a coboundary target needs none of the extra columns: their
    # coefficients are zero and b is the primitive found without them
    target = H.differential(H.random_cochain(LAM2, 5, 2, random.Random(3)))
    target = H.Cochain.from_matrix(LAM2, 6, target.component_matrix(6), 2)
    also = [cls.representative for cls in H.cohomology(LAM2, 6, 2)] + [target]
    b, x = H.solve_coboundary(LAM2, target, 6, 2)
    b_also, x_also = H.solve_coboundary(LAM2, target, 6, 2, also=also)
    assert x == [] and x_also == [QQ.zero] * len(also)
    assert b_also.to_json() == b.to_json()
    assert (H.differential(b, cap=6) - target).is_zero(up_to=6)
