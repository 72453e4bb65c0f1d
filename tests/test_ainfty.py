import hashlib
import itertools
import json
import random

import pytest

from bracealg.finite import AlgebraSpecError, LaurentAlgebra, build_truncated_polynomial
from bracealg.linalg import Matrix, QQ, compose, solve_matrix
from bracealg import hochschild as H
from bracealg.ainfty import (
    AInftyMorphism,
    ClassMismatch,
    FORMAL,
    INCONCLUSIVE,
    M3NonZero,
    MinimalAInfty,
    NOT_FORMAL,
    NotUnit,
    ObstructionNotContractible,
    ainfty_map_check,
    build_iso,
    contractible_solution,
    extract_m4_class,
    formality_verdict_of_model,
    gauge_by_central_unit,
    is_formal,
    mc_check,
    restricted_ump,
    transfer,
    transported_structure,
    two_equations_solve,
)
from bracealg.ainfty import _search_compensating_unit
from bracealg.cli import structure_to_json
from bracealg.dg import ContractionData, DGAlgebra, NotLaurentForm, cohomology_algebra, make_contraction
from bracealg.models import complete_resolution, dg_end, seeded_minimal_model


def _table(lam):
    """lam's product as the nested table a DGAlgebra takes per degree pair,
    read off mu: _table(lam)[i][j] is e_i e_j."""
    d, cols = lam.dim, lam.mult_matrix().transpose().entries
    return [cols[i * d : i * d + d] for i in range(d)]


def trivial_laurent_dga(lam):
    """lam[i^{+-1}] as a folded periodic DG algebra with zero differential."""
    d = lam.dim
    dims = {0: d, 1: 0}
    mult = {(0, 0): _table(lam)}
    diff = {0: Matrix.zeros(0, d, QQ), 1: Matrix.zeros(d, 0, QQ)}
    return DGAlgebra(dims, lam.unit, mult, diff, periodic=True)


def odd_clifford_dga():
    """Periodic algebra with an invertible odd class (not Laurent form)."""
    dims = {0: 1, 1: 1}
    one = [QQ.one]
    mult = {
        (0, 0): [[[QQ.one]]],
        (0, 1): [[[QQ.one]]],
        (1, 0): [[[QQ.one]]],
        (1, 1): [[[QQ.one]]],
    }
    diff = {0: Matrix.zeros(1, 1, QQ), 1: Matrix.zeros(1, 1, QQ)}
    return DGAlgebra(dims, one, mult, diff, periodic=True)


def bounded_dga():
    """k[x]/(x^2) concentrated in degree 0 (bounded, not periodic)."""
    lam = build_truncated_polynomial(2)
    dims = {0: lam.dim}
    mult = {(0, 0): _table(lam)}
    diff = {0: Matrix.zeros(0, lam.dim, QQ)}
    return DGAlgebra(dims, lam.unit, mult, diff, periodic=False)


# -- DG algebra constructor ---------------------------------------------------


def test_dga_constructor_accepts_models():
    e = dg_end(complete_resolution(4, 2))
    assert e.dims[0] - e.dims[1] == 2  # Euler characteristic = dim stableEnd


def test_dga_rejects_broken_leibniz():
    lam = build_truncated_polynomial(2)
    d = lam.dim
    dims = {0: d, 1: d}
    mult = {
        (0, 0): _table(lam),
        (0, 1): _table(lam),
        (1, 0): _table(lam),
        (1, 1): _table(lam),
    }
    bad = Matrix.from_int_rows([[0, 1], [0, 0]])
    diff = {0: bad, 1: Matrix.zeros(d, d, QQ)}
    with pytest.raises(AlgebraSpecError):
        DGAlgebra(dims, lam.unit, mult, diff, periodic=True)


def _square_zero_dga(edit=None):
    """k[x]/(x^2) in both parities with zero differential, after edit(mult, diff)."""
    lam = build_truncated_polynomial(2)
    mult = {key: _table(lam) for key in ((0, 0), (0, 1), (1, 0), (1, 1))}
    diff = {0: Matrix.zeros(2, 2, QQ), 1: Matrix.zeros(2, 2, QQ)}
    if edit:
        edit(mult, diff)
    return DGAlgebra({0: 2, 1: 2}, lam.unit, mult, diff, periodic=True)


def _break_associativity(mult, diff):
    mult[(0, 1)][1][1] = [QQ.one, QQ.zero]  # x . u_x = u_1, so (x x) u_x != x (x u_x)


def _break_right_unit(mult, diff):
    mult[(1, 0)][0][0] = [QQ.zero, QQ.one]  # u_1 . 1 = u_x


def _break_left_unit(mult, diff):
    mult[(0, 1)][0][0] = [QQ.zero, QQ.one]  # 1 . u_1 = u_x


def _d_of_unit(mult, diff):
    diff[0] = Matrix.from_int_rows([[1, 0], [0, 0]])  # d1 = u_1, and d^2 = 0


def _d_of_x(mult, diff):
    diff[0] = Matrix.from_int_rows([[0, 1], [0, 0]])  # dx = u_1: d(x x) = 0, but dx x + x dx = 2 u_x


def _d_squared_identity(mult, diff):
    diff[0] = diff[1] = Matrix.identity(2, QQ)


@pytest.mark.parametrize(
    "edit,message",
    [
        (_break_associativity, r"associativity fails at degrees \(0,0,1\)"),
        (_break_right_unit, "right unit law fails in degree 1"),
        (_break_left_unit, "left unit law fails in degree 1"),
        (_d_of_unit, "unit is not a cocycle"),
        (_d_of_x, r"Leibniz fails at degrees \(0,0\)"),
        (_d_squared_identity, r"d\^2 != 0 at degree 0"),
    ],
    ids=["associativity", "unit-law", "left-unit-law", "unit-cocycle", "leibniz", "d-squared"],
)
def test_dga_rejects_broken_axiom(edit, message):
    assert _square_zero_dga().dims == {0: 2, 1: 2}  # the unedited model is accepted
    with pytest.raises(AlgebraSpecError, match=message):
        _square_zero_dga(edit)


def _with(con, **maps):
    """A copy of the contraction con with the maps given in maps replaced."""
    return ContractionData(con.dga, maps.get("P", con.P), maps.get("I", con.I), maps.get("H", con.H), con.h_dims)


def _model_contraction():
    return make_contraction(dg_end(complete_resolution(4, 2)))


def _doubled(which):
    """The (4,2) model's contraction with every map of `which` doubled."""
    con = _model_contraction()
    return _with(con, **{which: getattr(con, which).scale(QQ.of(2))})


def _h_squared_nonzero():
    # h' = h + d h d: d h' + h' d = d h + h d, as d^2 = 0, but h'^2 != 0
    con = _model_contraction()
    D = con.dga.D
    return _with(con, H=con.H + D * con.H * D)


def _h_i_nonzero():
    # on k[x]/(x^2) in both parities (basis 1, x, u_1, u_x) with d = 0,
    # p = i = id and h = 0; an h sending 1 to u_1 keeps d h + h d = 0 =
    # id - i p and h^2 = 0, but h i != 0
    con = make_contraction(_square_zero_dga())
    assert con.H.is_zero()
    return _with(con, H=Matrix.from_nonzeros([{}, {}, {0: QQ.one}, {}], 4))


# p h = 0 has no case: it follows from the other four identities, which
# verify checks first on the whole space.  p (d h + h d) = p - p i p = 0
# gives p h d = -p d h, so p h = p h (d h + h d + i p) = p h d h + p h h d
# + p h i p = -p d h h + 0 + 0 = 0.  No input reaches that refusal.
@pytest.mark.parametrize(
    "broken,message",
    [
        (lambda: _doubled("I"), "p i != id"),
        (lambda: _doubled("H"), r"d h \+ h d != id - i p"),
        (_h_squared_nonzero, r"h\^2 != 0 in degree 0"),
        (_h_i_nonzero, "h i != 0 in degree 0"),
    ],
    ids=["i-doubled", "h-doubled", "h-squared", "h-i"],
)
def test_contraction_verify_rejects_broken_maps(broken, message):
    with pytest.raises(AlgebraSpecError, match=message):
        broken().verify()
    _model_contraction().verify()


def test_bounded_dga_checks_products_outside_dims():
    # y, then 1 and e, then z and w in degrees -1, 0 and 1, with z y = e and
    # z e = w the only products besides the unit's.  z z lies in degree 2,
    # which dims does not have, so it is zero, and (z z) y = 0 != w = z (z y);
    # every triple whose products stay inside dims is associative
    basis = {-1: ["y"], 0: ["1", "e"], 1: ["z", "w"]}

    def prod(a, b):
        return b if a == "1" else a if b == "1" else {("z", "y"): "e", ("z", "e"): "w"}.get((a, b))

    mult = {
        (d1, d2): [[[QQ.of(int(prod(a, b) == c)) for c in basis.get(d1 + d2, [])] for b in basis[d2]] for a in basis[d1]]
        for d1 in basis
        for d2 in basis
    }
    with pytest.raises(AlgebraSpecError, match=r"associativity fails at degrees \(1,1,-1\)"):
        DGAlgebra({d: len(b) for d, b in basis.items()}, [QQ.one, QQ.zero], mult, {}, periodic=False)


def test_periodic_dga_without_an_odd_component():
    # a periodic algebra given only in degree 0 has a zero odd component:
    # its products and maps at degree 1 are zero blocks, and it transfers
    lam = build_truncated_polynomial(2)
    dga = DGAlgebra({0: 2}, lam.unit, {(0, 0): _table(lam)}, {}, periodic=True)
    assert dga.dims == {0: 2, 1: 0} and dga.mult_matrix(1, 1) == Matrix.zeros(2, 0, QQ)
    assert transfer(dga, make_contraction(dga), 6).arities() == []


def test_dga_json_roundtrip():
    e = dg_end(complete_resolution(4, 2))
    data = e.to_json()
    e2 = DGAlgebra.from_json(data)
    assert e2.dims == e.dims
    assert e2.d_matrix(0) == e.d_matrix(0)
    assert e2.mult[(0, 1)] == e.mult[(0, 1)]


# -- cohomology algebra and contraction ---------------------------------------


def test_cohomology_algebra_zero_differential():
    lam = build_truncated_polynomial(2)
    a = trivial_laurent_dga(lam)
    lau = cohomology_algebra(a)
    assert lau.base.dim == 2
    assert lau.base.mult_matrix() == lam.mult_matrix()


def test_cohomology_algebra_rejects_odd():
    with pytest.raises(NotLaurentForm, match="odd cohomology has dimension 1"):
        cohomology_algebra(odd_clifford_dga())


def test_cohomology_algebra_rejects_bounded():
    with pytest.raises(NotLaurentForm, match="bounded DG algebras do not have Laurent cohomology"):
        cohomology_algebra(bounded_dga())


def test_make_contraction_rejects_unknown_scheme():
    with pytest.raises(AlgebraSpecError, match="unknown contraction scheme 'forward'"):
        make_contraction(bounded_dga(), "forward")


@pytest.mark.parametrize("build", [make_contraction, cohomology_algebra])
def test_unit_class_vanishing_is_refused(build):
    # 1 and an odd u with u u = 0 and d(u) = 1: a DG algebra (d(u u) = 0 =
    # d(u) u - u d(u)) whose unit is a coboundary
    one = [[[QQ.one]]]
    mult = {(0, 0): one, (0, 1): one, (1, 0): one, (1, 1): [[[QQ.zero]]]}
    diff = {0: Matrix.zeros(1, 1, QQ), 1: Matrix.from_int_rows([[1]])}
    dga = DGAlgebra({0: 1, 1: 1}, [QQ.one], mult, diff, periodic=True)
    with pytest.raises(NotLaurentForm, match="unit class vanishes in cohomology"):
        build(dga)


def _block(m, row_dims, r, col_dims, c):
    """The block of m from the component of degree c to that of degree r,
    for the direct sums, degrees in order, of components of dimensions
    col_dims and row_dims; empty for a degree that they do not have."""

    def slot(dims, deg):
        start = sum(n for d, n in dims.items() if d < deg)
        return range(start, start + dims.get(deg, 0))

    rows, cols = slot(row_dims, r), slot(col_dims, c)
    return Matrix([[m[i, j] for j in cols] for i in rows], QQ, cols=len(cols))


def _per_degree(con):
    """The contraction's maps as per-degree blocks {name: {degree: block}}:
    p and i between each component and its cohomology, and h from each
    component to that of the degree below."""
    dga, c = con.dga, con.h_dims
    prev = {deg: (deg - 1) % 2 if dga.periodic else deg - 1 for deg in dga.degrees()}
    return {
        "p": {deg: _block(con.P, c, deg, dga.dims, deg) for deg in dga.degrees()},
        "i": {deg: _block(con.I, dga.dims, deg, c, deg) for deg in dga.degrees()},
        "h": {deg: _block(con.H, dga.dims, prev[deg], dga.dims, deg) for deg in dga.degrees()},
    }


def test_contraction_zero_differential():
    lam = build_truncated_polynomial(2)
    con = make_contraction(trivial_laurent_dga(lam))
    assert con.H.is_zero()
    assert con.P == con.I == Matrix.identity(2, QQ)


def test_contraction_models_verified():
    # verify() runs in make_contraction; spot-check dh + hd = id - ip per
    # degree, on the blocks of the whole-space maps
    e = dg_end(complete_resolution(2, 1))
    blocks = _per_degree(make_contraction(e))
    p, i, h = blocks["p"], blocks["i"], blocks["h"]
    for deg in (0, 1):
        prev, nxt = (deg - 1) % 2, (deg + 1) % 2
        dh = e.d_matrix(prev) * h[deg]
        hd = h[nxt] * e.d_matrix(deg)
        assert dh + hd + i[deg] * p[deg] == Matrix.identity(e.dim(deg), QQ)
        assert (h[prev] * h[deg]).is_zero()


def test_contraction_schemes_differ_but_verify():
    e = dg_end(complete_resolution(4, 2))
    con1 = make_contraction(e, scheme="default")
    con2 = make_contraction(e, scheme="reverse")
    assert con1.h_dims == con2.h_dims
    assert con1.H != con2.H


# sha256 of the per-degree (p, i, h) entries of every contraction below
# under both schemes, recorded before make_contraction took the image
# basis from d(W2), when the contraction was kept as per-degree blocks;
# every transferred operation of the test suite but the conjugated
# model's is zero, so this is what pins h
CONTRACTIONS_SHA256 = "96cc757cd0c0f3e4e92ade352d1007f9376fd993dc9651e866efd850f0577d3e"


def test_contraction_maps_pinned():
    dgas = [dg_end(complete_resolution(n, a)) for n, a in ((2, 1), (3, 1), (4, 2), (6, 3), (8, 4))]
    dgas += [bounded_dga(), odd_clifford_dga(), trivial_laurent_dga(build_truncated_polynomial(3))]
    maps = []
    for dga in dgas:
        for scheme in ("default", "reverse"):
            blocks = _per_degree(make_contraction(dga, scheme))
            maps.append({
                name: {str(deg): [[QQ.to_str(x) for x in row] for row in m.entries] for deg, m in sorted(blocks[name].items())}
                for name in ("p", "i", "h")
            })
    assert hashlib.sha256(json.dumps(maps).encode()).hexdigest() == CONTRACTIONS_SHA256


# -- transfer ------------------------------------------------------------------


def test_transfer_formal_zero_differential():
    lam = build_truncated_polynomial(2)
    a = trivial_laurent_dga(lam)
    m = transfer(a, make_contraction(a), 8)
    assert m.arities() == []


def test_transfer_21_all_vanish():
    e = dg_end(complete_resolution(2, 1))
    m = transfer(e, make_contraction(e), 8)
    assert m.arities() == []
    assert mc_check(m).ok


def test_transfer_42_mc_exact():
    e = dg_end(complete_resolution(4, 2))
    m = transfer(e, make_contraction(e), 8)
    assert mc_check(m).ok
    assert m.report.digest() == mc_check(m).digest()


def test_transfer_model_independence_of_class():
    e = dg_end(complete_resolution(4, 2))
    m1 = transfer(e, make_contraction(e, "default"), 6)
    m2 = transfer(e, make_contraction(e, "reverse"), 6)
    c1 = extract_m4_class(m1)
    c2 = extract_m4_class(m2)
    assert c1 == c2


# -- mc_check and morphism check -------------------------------------------------


def test_mc_zero_structure():
    m = seeded_minimal_model(2, 1, cap=8)
    assert mc_check(m).ok


def test_mc_detects_corruption():
    m = seeded_minimal_model(4, 2, cap=8)
    bad_ops = dict(m.ops)
    mat = bad_ops[4].component_matrix(4)
    ent = [list(r) for r in mat.entries]
    ent[0][5] = ent[0][5] + QQ.one
    bad_ops[4] = H.Cochain.from_matrix(m.algebra, 4, Matrix(ent, QQ), 1, cap=8)
    bad = MinimalAInfty(m.laurent, bad_ops, 8, check=False)
    rep = mc_check(bad)
    assert not rep.ok
    assert 5 in rep.failures()  # d(m4) != 0 shows at arity 5
    # the unchecked structure keeps the residuals its constructor computed
    assert not bad.report.ok and 5 in bad.report.failures()


def test_map_check_identity_morphism():
    m = seeded_minimal_model(4, 2, cap=8)
    f = AInftyMorphism(m, m, {}, None)
    assert ainfty_map_check(f, m, m, cap=8).ok


def test_map_check_detects_distinct_structures():
    m = seeded_minimal_model(4, 2, cap=8)
    zero = MinimalAInfty(m.laurent, {}, 8)
    f = AInftyMorphism(m, zero, {}, None)
    rep = ainfty_map_check(f, m, zero, cap=8)
    assert not rep.ok and 4 in rep.failures()


# -- the residuals against the formulas written with differential, cup and brace ------


def _arity_sums(pieces):
    """{p: the Cochain sum of the arity-p components of the pieces}."""
    out = {}
    for c in pieces:
        for p, comp in c.comps.items():
            piece = H.Cochain(c.algebra, c.iota, {p: comp}, c.cap)
            out[p] = out[p] + piece if p in out else piece
    return out


def _mc_reference(m):
    """d(m) + m{m} per arity."""
    pieces = [H.differential(c) for c in m.ops.values()]
    pieces += [H.brace(ca, [cb], cap=m.cap) for ca in m.ops.values() for cb in m.ops.values()]
    return _arity_sums(pieces)


def _morphism_reference(f, m, mp, cap):
    """d(f) + f.f + sum_{r>=0} m'{f,...,f} - m - f{m} per arity."""
    minus = QQ.of(-1)
    pieces = [H.differential(c) for c in f.values()]
    pieces += [H.cup(ca, cb, cap=cap) for ca in f.values() for cb in f.values()]
    for k, mk in mp.ops.items():
        pieces.append(mk)
        for r in range(1, k + 1):
            for combo in itertools.product(sorted(f), repeat=r):
                if k - r + sum(combo) <= cap:
                    pieces.append(H.brace(mk, [f[a] for a in combo], cap=cap))
    pieces += [c.scale(minus) for c in m.ops.values()]
    pieces += [H.brace(ca, [cb], cap=cap).scale(minus) for ca in f.values() for cb in m.ops.values()]
    return _arity_sums(pieces)


def _nonzero_after_matching(report, reference):
    """The number of nonzero residuals in report, each checked to equal the
    reference at its arity."""
    nonzero = 0
    for p, got in report.residuals.items():
        want = reference.get(p)
        if want is None:
            assert got.is_zero()
            continue
        assert p <= got.cap and got == want
        nonzero += not got.is_zero()
    return nonzero


def _transports(m, seed):
    """(f, the transport of m along f) for f = {3: b3}, {5: b5} and {3: b3, 5: b5}."""
    rng = random.Random(seed)
    b3 = H.random_cochain(m.algebra, 3, 1, rng, normalized=True)
    b5 = H.random_cochain(m.algebra, 5, 2, rng, normalized=True)
    return [(f, transported_structure(m, f, cap=m.cap)) for f in ({3: b3}, {5: b5}, {3: b3, 5: b5})]


def _reference_structures():
    """The seeded (4,2) model at cap 9, a gauge of it whose m4 has values
    off the unit (so that f{m} is not zero), the (6,3) model at cap 8, and
    (source, f, target) for the gauged pair and the transports of the last two."""
    m = seeded_minimal_model(4, 2, cap=9)
    gauged = gauge_by_central_unit(m, m.algebra.element_from([1, 1]))
    m63 = seeded_minimal_model(6, 3, cap=8)
    iso = build_iso(m, gauged, 9)
    assert iso.linear is None and 3 in iso.higher
    pairs = [(m, iso.higher, gauged)]
    pairs += [(s, f, t) for s in (gauged, m63) for f, t in _transports(s, 77)]
    return [m, gauged, m63], pairs


def test_mc_residuals_match_the_reference_formula():
    models, pairs = _reference_structures()
    for s in models + [t for _, _, t in pairs]:
        assert _nonzero_after_matching(mc_check(s), _mc_reference(s)) == 0
    # structures with a seeded non-cocycle added to m4 and a seeded m6, whose
    # residuals are nonzero
    rng = random.Random(78)
    for s in models:
        noise = [H.random_cochain(s.algebra, n, j, rng, normalized=False) for n, j in ((4, 1), (6, 2))]
        ops = {4: s.op(4) + noise[0].with_cap(s.cap), 6: noise[1]}
        bad = MinimalAInfty(s.laurent, ops, s.cap, check=False)
        assert _nonzero_after_matching(mc_check(bad), _mc_reference(bad)) >= 2


def test_morphism_residuals_match_the_reference_formula():
    _, pairs = _reference_structures()
    for s, f, t in pairs:
        rep = ainfty_map_check(AInftyMorphism(s, t, f), s, t)
        assert _nonzero_after_matching(rep, _morphism_reference(f, s, t, s.cap)) == 0
        # the same components read as a morphism s -> s are not one
        rep = ainfty_map_check(AInftyMorphism(s, s, f), s, s)
        assert _nonzero_after_matching(rep, _morphism_reference(f, s, s, s.cap)) >= 1


def test_transported_ops_carry_the_structure_cap():
    m = seeded_minimal_model(4, 2, cap=9)
    for seed in range(3):
        for _, mp in _transports(m, seed):
            assert mp.ops and all(c.cap == 9 for c in mp.ops.values())


# -- gauge -----------------------------------------------------------------------


def test_gauge_identity():
    m = seeded_minimal_model(4, 2, cap=8)
    m2 = gauge_by_central_unit(m, m.algebra.unit)
    assert all((m2.op(n) - m.op(n)).is_zero() for n in m.arities())


def test_gauge_by_central_unit_group_action():
    m = seeded_minimal_model(4, 2, cap=8)
    lam = m.algebra
    u1 = lam.element_from([1, 1])
    u2 = lam.element_from([3, -2])
    a = gauge_by_central_unit(gauge_by_central_unit(m, u1), u2)
    b = gauge_by_central_unit(m, lam.mul(u1, u2))
    assert all((a.op(n) - b.op(n)).is_zero() for n in (4, 6, 8))


def test_gauge_by_central_unit_converts_plain_ints():
    m = seeded_minimal_model(4, 2, cap=8)
    a = gauge_by_central_unit(m, [1, 1])
    b = gauge_by_central_unit(m, m.algebra.element_from([1, 1]))
    assert a.arities() == b.arities()
    assert all((a.op(n) - b.op(n)).is_zero() for n in a.arities())
    assert not (a.op(4) - m.op(4)).is_zero()


def test_gauge_refuses_an_element_of_the_wrong_length():
    m = seeded_minimal_model(6, 3, cap=8)
    assert m.algebra.dim == 3
    for call in (lambda: m.algebra.element_from([1, 1]), lambda: gauge_by_central_unit(m, [1, 1])):
        with pytest.raises(AlgebraSpecError, match="^element: expected 3 coordinates, got 2$"):
            call()


def test_gauge_scalar_scales_m4():
    # g = scalar c on the algebra part acts on m4 through the iota factor
    m = seeded_minimal_model(4, 2, cap=8)
    lam = m.algebra
    m2 = gauge_by_central_unit(m, lam.element_from([2, 0]))
    assert mc_check(m2).ok
    assert not (m2.op(4) - m.op(4)).is_zero()


def test_gauge_unit_errors():
    m = seeded_minimal_model(4, 2, cap=8)
    lam = m.algebra
    with pytest.raises(NotUnit):
        gauge_by_central_unit(m, lam.element_from([0, 1]))


def test_compensating_unit_search_walks_the_kernel():
    # on k[x]/(x^3), with target the zero class of HH^4 at weight 1, the
    # particular solution of u . current = target is u = 0, no unit, so the
    # search walks the kernel of u -> u . current.  For current = 0 that is
    # the whole centre, and 0 + 1 is a unit; x and x^2 kill the first basis
    # class, and no unit u has u . class = 0 for a nonzero class
    lam = build_truncated_polynomial(3)
    ctx = H.hh_context(lam, 4, 1)
    zero, first = ctx.combination([]), ctx.combination([1, 0])
    assert _search_compensating_unit(lam, zero, zero) == [1, 0, 0]
    assert _search_compensating_unit(lam, zero, first) is None


def test_gauge_action_on_restricted_class():
    # j*[m4 * g_u] = [u . m4] as classes
    m = seeded_minimal_model(4, 2, cap=8)
    lam = m.algebra
    u = lam.element_from([1, 1])
    m2 = gauge_by_central_unit(m, u)
    r2 = restricted_ump(m2)
    uc = H.Cochain.from_matrix(lam, 0, Matrix([[x] for x in u], QQ), 0)
    prod = H.cup(uc, m.op(4))
    expected = H.class_of(lam, H.Cochain.from_matrix(lam, 4, prod.component_matrix(4), 1), 4, 1)
    assert r2 == expected


# -- Massey classes ----------------------------------------------------------------


def test_extract_m4_class_requires_m3_zero():
    m = seeded_minimal_model(4, 2, cap=8)
    fake = MinimalAInfty(m.laurent, dict(m.ops), 8, check=False)
    fake.ops[3] = m.ops[4]
    with pytest.raises(M3NonZero):
        extract_m4_class(fake)


def test_restricted_ump_k_is_zero():
    m = seeded_minimal_model(2, 1, cap=8)
    assert restricted_ump(m).is_zero()


def test_restricted_ump_42_is_tate_unit():
    m = seeded_minimal_model(4, 2, cap=8)
    r = restricted_ump(m)
    assert not r.is_zero()
    assert H.tate_unit_check(r)


# -- the two-equations solver -------------------------------------------------------


def test_two_equations_unique_solution():
    lam = build_truncated_polynomial(2)
    u = H.cohomology(lam, 4, 0)[0]
    cls = two_equations_solve(lam, u)
    assert cls.solution_space_dim == 0
    assert cls.e_part.is_zero()  # [u, u] = 0 here, so m = u . iota


def test_two_equations_pairwise_linearity_on_two_class_basis():
    # on k[x]/(x^3), HH^{3,-2} has two classes, so the solver checks the
    # constraint's affine-linearity on a pair
    lam = build_truncated_polynomial(3)
    assert len(H.hh_context(lam, 3, 1).basis_classes()) == 2
    us = H.cohomology(lam, 4, 0)
    assert two_equations_solve(lam, us[1]).solution_space_dim == 0
    with pytest.raises(NotUnit):
        two_equations_solve(lam, us[0])


def test_two_equations_rejects_non_unit():
    lam = build_truncated_polynomial(2)
    u = H.cohomology(lam, 4, 0)[0].scale(QQ.zero)
    with pytest.raises(NotUnit):
        two_equations_solve(lam, u)


# -- contractible obstructions --------------------------------------------------------


def u_class_of(lam):
    return H.cohomology(lam, 4, 0)[0]


def test_contractible_zero_obstruction():
    lam = build_truncated_polynomial(2)
    a = H.Cochain.zero(lam, 2)
    c_low, c_up = contractible_solution(a, u_class_of(lam), 2)
    assert c_low.is_zero() and c_up.is_zero()


def test_contractible_exact_obstruction():
    lam = build_truncated_polynomial(2)
    rng = random.Random(5)
    b = H.random_cochain(lam, 5, 2, rng, normalized=True)
    a = H.differential(b)
    a = H.Cochain.from_matrix(lam, 6, a.component_matrix(6), 2)
    c_low, c_up = contractible_solution(a, u_class_of(lam), 2)
    assert c_low.is_zero()
    # the defining identity holds exactly
    total = a + H.differential(c_up)
    assert total.is_zero(up_to=6)


def test_contractible_unnormalized_exact_obstruction():
    # an unnormalized coboundary has values on unit inputs, which the
    # normalized coordinates do not hold; the solve must still be exact
    lam = build_truncated_polynomial(2)
    b = H.random_cochain(lam, 5, 2, random.Random(5), normalized=False)
    a = H.Cochain.from_matrix(lam, 6, H.differential(b).component_matrix(6), 2)
    c_low, c_up = contractible_solution(a, u_class_of(lam), 2)
    assert c_low.is_zero() and (a + H.differential(c_up)).is_zero(up_to=6)


def test_contractible_coboundary_beyond_horizontal_cap():
    # a coboundary at arity 14 is solved without cohomology at arity 11,
    # which lies beyond the horizontal cap
    lam = build_truncated_polynomial(2)
    with pytest.raises(H.CapTooLow):
        H.hh_context(lam, 11, 6)
    b = H.random_cochain(lam, 13, 7, random.Random(1))
    a = H.Cochain.from_matrix(lam, 14, H.differential(b, cap=14).component_matrix(14), 7)
    assert not a.is_zero()
    c_low, c_up = contractible_solution(a, u_class_of(lam), 7)
    assert c_low.is_zero() and (a + H.differential(c_up, cap=15)).is_zero(up_to=14)


def test_contractible_nonzero_class_iota_linear_route():
    lam = build_truncated_polynomial(2)
    u = u_class_of(lam)
    # a := nonzero-class cocycle at (6, -4)
    gen = H.cohomology(lam, 6, 2)[0]
    a = gen.representative
    c_low, c_up = contractible_solution(a, u, 2)
    lowc = c_low.to_cochain()
    assert not lowc.is_zero()
    assert H.differential(lowc).is_zero(up_to=6)
    m4_rep = u.representative.shift_iota(1)
    total = a + H.differential(c_up) + H.bracket(m4_rep, lowc)
    assert total.is_zero(up_to=6)


def test_contractible_euler_route_exact():
    # force the Euler-adjoined route by monkeypatching away route 2
    import bracealg.ainfty as A

    lam = build_truncated_polynomial(2)
    u = u_class_of(lam)
    gen = H.cohomology(lam, 6, 2)[0]
    a = gen.representative
    ctx_orig = A.hh_context

    def no_bracket_ctx(l, p, j):
        ctx = ctx_orig(l, p, j)
        if (p, j) == (3, 1):
            class Empty:
                dim = 0

                def basis_classes(self):
                    return []

            return Empty()
        return ctx

    A.hh_context, saved = no_bracket_ctx, A.hh_context
    try:
        c_low, c_up = contractible_solution(a, u, 2)
    finally:
        A.hh_context = saved
    lowc = c_low.to_cochain()
    assert not lowc.is_iota_linear()  # genuinely used the Euler part
    assert H.differential(lowc).is_zero(up_to=6)
    m4_rep = u.representative.shift_iota(1)
    total = a + H.differential(c_up) + H.bracket(m4_rep, lowc)
    assert total.is_zero(up_to=6)


def test_contractible_zero_unit_class_is_an_obstruction():
    # with u = 0 every candidate's bracket vanishes, so a nonzero class
    # cannot be contracted in either layout
    lam = build_truncated_polynomial(2)
    a = H.cohomology(lam, 6, 2)[0].representative
    with pytest.raises(ObstructionNotContractible) as exc:
        contractible_solution(a, u_class_of(lam).scale(QQ.zero), 2)
    assert exc.value.arity == 6


def test_verdict_inconclusive_on_nonzero_m6_class():
    # [m4] = 0 but m6 has a nonzero class: the first obstruction is at arity 6
    lam = build_truncated_polynomial(2)
    m = MinimalAInfty(LaurentAlgebra(lam), {6: H.cohomology(lam, 6, 2)[0].representative.with_cap(8)}, 8)
    v = formality_verdict_of_model(m, 8)
    assert v == INCONCLUSIVE and v.obstruction_arity == 6


# -- build_iso --------------------------------------------------------------------------


def test_build_iso_self():
    m = seeded_minimal_model(4, 2, cap=8)
    f = build_iso(m, m, 8)
    assert not f.higher
    assert ainfty_map_check(f, m, m, cap=8).ok


def test_build_iso_gauge_pair():
    m = seeded_minimal_model(4, 2, cap=9)
    mp = gauge_by_central_unit(m, m.algebra.element_from([1, 1]))
    f = build_iso(m, mp, 9)
    rep = ainfty_map_check(f, m, mp, cap=9)
    assert rep.ok
    assert 3 in f.higher
    assert f.linear is None and f.residual.digest() == rep.digest()


def test_build_iso_perturbed():
    m = seeded_minimal_model(4, 2, cap=9)
    rng = random.Random(99)
    for _ in range(10):
        b5 = H.random_cochain(m.algebra, 5, 2, rng, normalized=True)
        mpp = transported_structure(m, {5: b5}, cap=9)
        if any(not (mpp.op(n) - m.op(n)).is_zero() for n in (4, 6, 8)):
            break
    else:
        pytest.fail("no effective perturbation found")
    assert mc_check(mpp).ok
    f = build_iso(m, mpp, 9)
    assert 5 in f.higher
    assert ainfty_map_check(f, m, mpp, cap=9).ok


def test_build_iso_class_mismatch():
    m = seeded_minimal_model(4, 2, cap=8)
    zero = MinimalAInfty(m.laurent, {}, 8)
    with pytest.raises(ClassMismatch):
        build_iso(m, zero, 8)


def test_build_iso_scaled_class_uses_gauge():
    m = seeded_minimal_model(4, 2, cap=8)
    scaled = MinimalAInfty(m.laurent, {4: m.op(4).scale(QQ.of(2))}, 8)
    f = build_iso(m, scaled, 8)
    assert f.linear is not None
    rep = ainfty_map_check(f, m, scaled, cap=8)
    assert rep.ok
    assert f.residual.digest() == rep.digest()


def scaled_and_perturbed_pair(seed):
    """The (4,2) model and a partner with m4 scaled by 2, transported along a seeded b5."""
    m = seeded_minimal_model(4, 2, cap=9)
    scaled = MinimalAInfty(m.laurent, {4: m.op(4).scale(QQ.of(2))}, 9)
    b5 = H.random_cochain(m.algebra, 5, 2, random.Random(seed), normalized=True)
    return m, transported_structure(scaled, {5: b5}, cap=9)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_build_iso_gauged_morphism_with_higher_parts(seed):
    # the compensating unit's morphism carries nonzero higher components;
    # its residual, and the map check against (m, m'), vanish to the cap
    m, mp = scaled_and_perturbed_pair(seed)
    f = build_iso(m, mp, 9)
    assert f.linear is not None and f.higher
    assert f.residual.ok
    assert ainfty_map_check(f, m, mp, cap=9).ok


def test_compare_gauged_morphism_residual_zero(tmp_path, monkeypatch):
    from bracealg.cli import main, structure_to_json

    monkeypatch.chdir(tmp_path)
    m, mp = scaled_and_perturbed_pair(1)
    (tmp_path / "m.json").write_text(json.dumps(structure_to_json(m)))
    (tmp_path / "mp.json").write_text(json.dumps(structure_to_json(mp)))
    assert main(["compare", "m.json", "mp.json", "--cap-n", "9", "--out", "cmp.json"]) == 0
    rep = json.loads((tmp_path / "cmp.json").read_text())
    assert rep["result"] == "isomorphism" and rep["linear_part"] == "central-unit gauge"
    assert rep["residual_digest"]["nonzero_arities"] == []


def test_transported_structure_identity():
    m = seeded_minimal_model(4, 2, cap=8)
    m2 = transported_structure(m, {}, cap=8)
    assert all((m2.op(n) - m.op(n)).is_zero() for n in (4, 6, 8))


# -- conjugated DG models ---------------------------------------------------------------


def conjugated_dump(dga, seed):
    """The DG dump of dga in a new basis: mu' = g mu (g^-1 (x) g^-1),
    d' = g d g^-1 and unit' = g unit.

    In each parity g is the identity plus seeded entries in {-1, 0, 1} off
    the diagonal, redrawn until invertible.  The dump describes an
    isomorphic DG algebra whose structure constants are dense.
    """
    f = dga.field
    rng = random.Random(seed)
    g, ginv = {}, {}
    for deg in dga.degrees():
        n = dga.dim(deg)
        while ginv.get(deg) is None:
            g[deg] = Matrix([[f.one if r == c else f.of(rng.choice((-1, 0, 1))) for c in range(n)] for r in range(n)], f)
            ginv[deg] = solve_matrix(g[deg], Matrix.identity(n, f))
    mult = {}
    for d1 in dga.degrees():
        for d2 in dga.degrees():
            prod = g[dga.deg_add(d1, d2)] * compose(dga.mult_matrix(d1, d2), [ginv[d1], ginv[d2]])
            cols = [[f.to_str(x) for x in prod.column(c)] for c in range(prod.cols)]
            mult["%d,%d" % (d1, d2)] = [cols[i * dga.dim(d2) : (i + 1) * dga.dim(d2)] for i in range(dga.dim(d1))]
    diff = {}
    for deg in dga.degrees():
        d = g[dga.deg_next(deg)] * dga.d_matrix(deg) * ginv[deg]
        diff[str(deg)] = [[f.to_str(x) for x in row] for row in d.entries]
    return {
        "periodic": True,
        "dims": {str(deg): n for deg, n in dga.dims.items()},
        "unit": [f.to_str(x) for x in g[0].apply(dga.unit)],
        "mult": mult,
        "diff": diff,
        "labels": {},
    }


# sha256 of structure_to_json of the conjugated (4,2) model's transfer
# below under both contraction schemes, recorded while the contraction and
# the transfer still ran per degree and per parity
CONJUGATED_TRANSFER_SHA256 = "7b511ef571b76aeef789a829c116d799231f51e16cb52143960c8c616bb0f6b6"


def test_conjugated_model_transfers_higher_operations():
    # the unconjugated (4,2) model transfers to no operation at all; the
    # conjugated one (its dump read back exactly) has operations at arities
    # 4, 6 and 8, which transfer's MinimalAInfty checks against
    # Maurer-Cartan, the same bytes under both schemes as pinned, and the
    # same verdict
    e = dg_end(complete_resolution(4, 2))
    dump = conjugated_dump(e, 1)
    dga = DGAlgebra.from_json(dump)
    assert dga.to_json() == dump
    m = transfer(dga, make_contraction(dga), 8)
    assert m.arities() == [4, 6, 8]
    ms = [m, transfer(dga, make_contraction(dga, "reverse"), 8)]
    assert hashlib.sha256(json.dumps([structure_to_json(x) for x in ms]).encode()).hexdigest() == CONJUGATED_TRANSFER_SHA256
    assert formality_verdict_of_model(m, 8) == FORMAL
    assert is_formal(e, 8) == FORMAL


# -- formality ----------------------------------------------------------------------------


def test_is_formal_zero_differential():
    lam = build_truncated_polynomial(2)
    assert is_formal(trivial_laurent_dga(lam), 8) == FORMAL


def test_is_formal_21():
    assert is_formal(dg_end(complete_resolution(2, 1)), 8) == FORMAL


def test_not_formal_verdict_on_unit_class_model():
    m = seeded_minimal_model(4, 2, cap=8)
    v = formality_verdict_of_model(m, 8)
    assert v == NOT_FORMAL
    assert v.certificate is not None and not v.certificate.is_zero()


def test_formal_verdict_through_build_iso():
    # the zero structure transported along a seeded b5 has an m6 and [m4] = 0,
    # so the verdict needs build_iso to reach the zero structure
    lam = build_truncated_polynomial(2)
    zero = MinimalAInfty(LaurentAlgebra(lam), {}, 8)
    b5 = H.random_cochain(lam, 5, 2, random.Random(0), normalized=True)
    m = transported_structure(zero, {5: b5}, cap=8)
    assert 6 in m.arities() and restricted_ump(m).is_zero()
    assert formality_verdict_of_model(m, 8) == FORMAL


def test_m4_class_invariant_under_identity_part_isomorphism():
    # transporting along (id; f3, ...) changes m4 by a coboundary only
    m = seeded_minimal_model(4, 2, cap=8)
    rng = random.Random(424242)
    for _ in range(5):
        b3 = H.random_cochain(m.algebra, 3, 1, rng, normalized=True)
        m2 = transported_structure(m, {3: b3}, cap=8)
        assert mc_check(m2).ok
        if (m2.op(4) - m.op(4)).is_zero():
            continue
        assert extract_m4_class(m2) == extract_m4_class(m)
        assert restricted_ump(m2) == restricted_ump(m)


def test_transfer_odd_operations_vanish_exactly():
    e = dg_end(complete_resolution(4, 2))
    m = transfer(e, make_contraction(e), 7)
    assert all(n % 2 == 0 for n in m.arities())


def test_build_iso_even_components_vanish():
    m = seeded_minimal_model(4, 2, cap=9)
    mp = gauge_by_central_unit(m, m.algebra.element_from([1, 1]))
    f = build_iso(m, mp, 9)
    assert all(n % 2 == 1 for n in f.higher)
