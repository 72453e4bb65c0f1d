"""Property tests for the core invariants (hypothesis-driven)."""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from bracealg import linalg
from bracealg.linalg import (
    GF,
    QQ,
    Matrix,
    SubspaceBasis,
    SubspaceNotContained,
    compose,
    kernel_basis,
    quotient_basis,
    rank,
    rref,
    solve,
    solve_matrix,
)
from bracealg.finite import build_truncated_polynomial
from bracealg import hochschild as H


small_rational = st.fractions(
    min_value=Fraction(-4), max_value=Fraction(4), max_denominator=3
)


@st.composite
def matrices(draw, max_dim=5):
    rows = draw(st.integers(1, max_dim))
    cols = draw(st.integers(1, max_dim))
    ent = draw(
        st.lists(
            st.lists(small_rational, min_size=cols, max_size=cols),
            min_size=rows,
            max_size=rows,
        )
    )
    return Matrix([[QQ.of(x.numerator, x.denominator) for x in r] for r in ent], QQ)


@settings(max_examples=40, deadline=None)
@given(matrices())
def test_rref_idempotent(m):
    red, piv = rref(m)
    red2, piv2 = rref(red)
    assert red2 == red and piv2 == piv


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_rref_independent_of_row_order(data):
    # sparse rows, so that leading columns vary and tie, in any order:
    # eliminating them one by one in that order, or handing them to rref,
    # gives the same RREF and pivots
    cols = data.draw(st.integers(1, 6))
    entry = st.one_of(st.just(Fraction(0)), small_rational)
    rows = data.draw(st.lists(st.lists(entry, min_size=cols, max_size=cols), min_size=1, max_size=7))
    m = Matrix([[QQ.of(x.numerator, x.denominator) for x in r] for r in rows], QQ, cols=cols)
    order = data.draw(st.permutations(range(m.rows)))
    ech = linalg._Echelon(QQ)
    for i in order:
        if m.nonzeros()[i]:
            ech.add(dict(m.nonzeros()[i]))
    assert ech.matrix(m.rows, cols)._rref == rref(m)
    assert rref(m.select_rows(order)) == rref(m)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_reshape_round_trip(data):
    m = data.draw(matrices(max_dim=6))
    size = m.rows * m.cols
    rows = data.draw(st.sampled_from([r for r in range(1, size + 1) if size % r == 0]))
    flat = m.reshape(rows, size // rows)
    assert sum(map(len, flat.nonzeros())) == sum(map(len, m.nonzeros()))
    assert flat.reshape(1, size).row(0) == [x for row in m.entries for x in row]
    assert flat.reshape(m.rows, m.cols) == m


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 4), st.data())
def test_reduced_matrix_inverts_vec_of(n, data):
    # a block's coordinates are its entries column by column
    lam = build_truncated_polynomial(n)
    cols = data.draw(st.integers(0, 5))
    ent = data.draw(st.lists(st.lists(small_rational, min_size=cols, max_size=cols), min_size=n, max_size=n))
    m = Matrix([[QQ.of(x.numerator, x.denominator) for x in r] for r in ent], QQ, cols=cols)
    vec = H._vec_of(m)
    assert vec == [x for col in m.transpose().entries for x in col]
    assert H._reduced_matrix(lam, vec) == m
    assert H._vec_of(H._reduced_matrix(lam, vec)) == vec


@settings(max_examples=40, deadline=None)
@given(matrices())
def test_rank_nullity(m):
    assert rank(m) + kernel_basis(m).dim == m.cols


@settings(max_examples=40, deadline=None)
@given(matrices(), st.lists(small_rational, min_size=1, max_size=5))
def test_solve_is_exact_or_certifiably_inconsistent(m, b):
    b = [QQ.of(x.numerator, x.denominator) for x in b[: m.rows]]
    b = b + [QQ.zero] * (m.rows - len(b))
    v = solve(m, b)
    if v is None:
        assert rank(m.augment(Matrix.column_vector(b))) > rank(m)
    else:
        assert m.apply(v) == b


class AllRationalField:
    """The rationals with every element the backend rational, integral or
    not: the reference for QQ, whose integral elements are plain ints."""

    name = "QQ"

    def of(self, num, den=1):
        return linalg._mpq(num, den)

    @property
    def zero(self):
        return linalg._mpq(0)

    @property
    def one(self):
        return linalg._mpq(1)

    def inv(self, x):
        return 1 / x

    def canonical(self, x):
        return x

    def to_str(self, x):
        return str(x)


ALL_RATIONAL = AllRationalField()
# integral values half the time, so both int and rational entries are common
mixed_rational = st.one_of(st.integers(-3, 3).map(Fraction), small_rational)


@st.composite
def scalar_cases(draw):
    """Fraction grids (a, a2, f1, f2, v) and a scalar c: a and a2 are
    r x (k1 k2), f1 is k1 x c1, f2 is k2 x c2 and v has length k1 k2."""
    r, k1, k2, c1, c2 = (draw(st.integers(1, 3)) for _ in range(5))

    def grid(rows, cols):
        return draw(st.lists(st.lists(mixed_rational, min_size=cols, max_size=cols), min_size=rows, max_size=rows))

    return grid(r, k1 * k2), grid(r, k1 * k2), grid(k1, c1), grid(k2, c2), grid(1, k1 * k2)[0], draw(mixed_rational)


@settings(max_examples=60, deadline=None)
@given(scalar_cases())
def test_int_scalars_match_all_rational_reference(case):
    ga, ga2, gf1, gf2, gv, gc = case

    def results(field):
        def of(x):
            return field.of(x.numerator, x.denominator)

        def build(grid):
            return Matrix([[of(x) for x in row] for row in grid], field)

        a, a2, f1, f2 = map(build, (ga, ga2, gf1, gf2))
        red, piv = rref(a)
        sol = solve(a, a.apply([of(x) for x in gv]))
        mats = [red, kernel_basis(a).matrix, Matrix.column_vector(sol, field), compose(a, [f1, f2]), a * a2.transpose()]
        return piv, mats + [a + a2, a - a2, -a, a.scale(of(gc))]

    piv, mats = results(QQ)
    assert (piv, mats) == results(ALL_RATIONAL)
    rational = type(linalg._mpq(1, 2))
    assert all(type(x) in (int, rational) for m in mats for row in m.entries for x in row)  # never a float
    # the same matrix from ints (where integral) and from Fractions
    m_int = Matrix([[QQ.of(x.numerator, x.denominator) for x in row] for row in ga], QQ)
    for other in (Matrix(ga, QQ), Matrix([[linalg._mpq(x) for x in row] for row in ga], QQ)):
        assert m_int == other and other == m_int and hash(m_int) == hash(other)
    # a row scaled to a pivot (lead not one) keeps its integral entries ints
    ech = linalg._Echelon(QQ)
    for row in m_int.nonzeros():
        reduced = ech.reduce(dict(row))
        if reduced and reduced[min(reduced)] != 1:
            pivot = ech.rows[ech.insert(reduced)]
            assert all(type(x) is int for x in pivot.values() if x.denominator == 1)


@st.composite
def products(draw):
    """(field, a, b, v, c, m, factors, e) with a r x k, b k x c, v of length
    k, c r x k, factors a list of up to three small blocks (some identities),
    m with one column per tuple of factor rows, and e an elimination input,
    as rows of field elements.  Entries are mostly zero and small, so sums
    of products often cancel (1 - 1 over QQ, 3 + 4 over GF(7)).  e is a
    block followed by sums of its rows (so it is rank-deficient), shuffled,
    so its pivot rows arrive out of order; zero rows and columns are
    common."""
    field = draw(st.sampled_from([QQ, GF(7)]))
    r, k, c = (draw(st.integers(1, 5)) for _ in range(3))
    entry = st.sampled_from([(0, 1)] * 4 + [(1, 1), (-1, 1), (3, 1), (4, 1), (1, 2), (-1, 2)])

    def block(rows, cols):
        return [[field.of(*draw(entry)) for _ in range(cols)] for _ in range(rows)]

    factors = []
    for _ in range(draw(st.integers(0, 3))):
        fr, fc = draw(st.integers(1, 3)), draw(st.integers(1, 3))
        if draw(st.booleans()):
            factors.append([[field.of(int(i == j)) for j in range(fr)] for i in range(fr)])
        else:
            factors.append(block(fr, fc))
    width = 1
    for f in factors:
        width *= len(f)
    m = block(draw(st.integers(1, 3)), width)
    e = block(draw(st.integers(1, 4)), draw(st.integers(1, 5)))
    pick = st.integers(0, len(e) - 1)
    e += [[x + y for x, y in zip(e[i], e[j])] for i, j in draw(st.lists(st.tuples(pick, pick), max_size=2))]
    e = draw(st.permutations(e))
    return field, block(r, k), block(k, c), block(1, k)[0], block(r, k), m, factors, e


@st.composite
def kron_factors(draw):
    """(field, factors): one to three blocks of at most 3 x 3 over QQ or
    GF(101), mostly zero, so zero rows and 1 x 1 factors are common."""
    field = draw(st.sampled_from([QQ, GF(101)]))
    entry = st.sampled_from([(0, 1)] * 3 + [(1, 1), (-1, 1), (5, 1), (1, 3)])
    factors = []
    for _ in range(draw(st.integers(1, 3))):
        rows, cols = draw(st.integers(1, 3)), draw(st.integers(1, 3))
        factors.append(Matrix([[field.of(*draw(entry)) for _ in range(cols)] for _ in range(rows)], field))
    return field, factors


@settings(max_examples=80, deadline=None)
@given(kron_factors())
# a 1 x 1 factor, and a zero row in front of and behind it
@example((QQ, [Matrix([[QQ.zero, QQ.zero], [QQ.one, QQ.of(1, 2)]], QQ), Matrix([[QQ.of(-3)]], QQ)]))
@example((GF(101), [Matrix([[GF(101).of(7)]], GF(101)), Matrix([[GF(101).zero], [GF(101).of(-1)]], GF(101))]))
def test_kron_matches_compose_with_identity(case):
    field, factors = case
    n = 1
    for f in factors:
        n *= f.rows
    got = linalg.kron(factors)
    assert got == compose(Matrix.identity(n, field), factors)
    # rows as compose hands them out: nonzero values, in column order
    assert all(x for row in got.nonzeros() for _, x in row)
    assert all(a[0] < b[0] for row in got.nonzeros() for a, b in zip(row, row[1:]))
    # kron_sum: scaled parts add into one matrix, and cancel to zero
    total = linalg.kron_sum([(field.of(3), factors), (-1, factors)], got.rows, got.cols, field)
    assert total == got.scale(field.of(2))
    assert linalg.kron_sum([(1, factors), (-1, factors)], got.rows, got.cols, field).is_zero()
    with pytest.raises(ValueError, match="kron_sum"):
        linalg.kron_sum([(1, factors)], got.rows + 1, got.cols, field)


def _dense_mul(a, b, z):
    return [[sum((a[i][t] * b[t][j] for t in range(len(b))), z) for j in range(len(b[0]))] for i in range(len(a))]


def _dense_kron(a, b):
    return [[x * y for x in ra for y in rb] for ra in a for rb in b]


def _nonzeros(rows):
    return [[(j, x) for j, x in enumerate(row) if x] for row in rows]


def _dense_rref(rows, field, cols):
    """Dense Gauss-Jordan elimination over whole rows, the reference for
    the row-sparse kernel: (rows, pivots)."""
    z = field.zero
    rows = [list(r) for r in rows]
    nr = len(rows)
    pivots = []
    pr = 0
    for pc in range(cols):
        piv = None
        for i in range(pr, nr):
            if rows[i][pc] != z:
                piv = i
                break
        if piv is None:
            continue
        rows[pr], rows[piv] = rows[piv], rows[pr]
        inv = field.inv(rows[pr][pc])
        if inv != field.one:
            rows[pr] = [x * inv for x in rows[pr]]
        rp = rows[pr]
        for i in range(nr):
            if i == pr:
                continue
            f = rows[i][pc]
            if f:
                ri = rows[i]
                rows[i] = [a - f * b for a, b in zip(ri, rp)]
        pivots.append(pc)
        pr += 1
        if pr == nr:
            break
    return rows, pivots


def _dense_basis(vectors, field, cols):
    """The nonzero rows of the dense RREF of vectors."""
    red, piv = _dense_rref(vectors, field, cols)
    return red[: len(piv)]


def _dense_solve(m, bcols, field):
    """Solutions of m X = B (columns bcols) with zero free coordinates, as
    one list per column, or None when some column is inconsistent."""
    n = len(m[0])
    aug, piv = _dense_rref([row + [b[i] for b in bcols] for i, row in enumerate(m)], field, n + len(bcols))
    if piv and piv[-1] >= n:
        return None
    out = [[field.zero] * n for _ in bcols]
    for i, pc in enumerate(piv):
        for t in range(len(bcols)):
            out[t][pc] = aug[i][n + t]
    return out


def _dense_coords(basis, w, field):
    """Coordinates of w in the independent rows of basis, or None."""
    if not basis:
        return None if any(w) else []
    ref = _dense_solve([list(r) for r in zip(*basis)], [w], field)
    return ref[0] if ref else None


@settings(max_examples=80, deadline=None)
@given(products())
@example((QQ, [[QQ.one, QQ.one]], [[QQ.one], [-QQ.one]], [QQ.one, -QQ.one],
          [[-QQ.one, QQ.one]], [[QQ.one, QQ.one]], [[[QQ.one], [-QQ.one]]],
          [[QQ.one, -QQ.one]]))
# zero rows, a zero column, a dependent row, and pivot rows out of order
@example((GF(7), [[GF(7).one]], [[GF(7).one]], [GF(7).one], [[GF(7).one]], [[GF(7).one]], [],
          [[GF(7).of(x) for x in r] for r in [[0, 0, 0, 3], [0, 0, 0, 0], [0, 2, 0, 1], [0, 2, 0, 4], [0, 0, 0, 0]]]))
def test_matrix_kernel_matches_dense_reference(case):
    field, a, b, v, c, m, factors, e = case
    z = field.zero
    # storage: dense rows in and out, and every read against them, also on
    # the 0-row and 0-column shapes
    for dense, ncols in [(x, len(x[0])) for x in (a, b, m, e)] + [(a[:0], len(a[0])), ([[] for _ in a], 0)]:
        M = Matrix(dense, field, cols=ncols)
        assert (M.rows, M.cols) == (len(dense), ncols) and M.entries == dense
        sparse = Matrix.from_nonzeros([dict(enumerate(row)) for row in dense], ncols, field)
        assert sparse == M and hash(sparse) == hash(M)
        columns = [[row[j] for row in dense] for j in range(ncols)]
        T = M.transpose()
        assert (T.rows, T.cols) == (ncols, len(dense)) and T.entries == columns
        S, A2 = M.stack(sparse), M.augment(sparse)
        assert (S.rows, S.cols) == (2 * len(dense), ncols) and S.entries == dense + dense
        assert (A2.rows, A2.cols) == (len(dense), 2 * ncols) and A2.entries == [row + row for row in dense]
        assert [M.row(i) for i in range(M.rows)] == dense
        assert [M.column(j) for j in range(ncols)] == columns
        assert [[M[i, j] for j in range(ncols)] for i in range(M.rows)] == dense
    want = _dense_mul(a, b, z)
    prod = Matrix(a, field) * Matrix(b, field)
    assert prod.entries == want
    # cancelled entries are dropped and columns stay sorted
    assert prod.nonzeros() == [[(j, x) for j, x in enumerate(row) if x] for row in want]
    assert Matrix(a, field).apply(v) == [sum((x * y for x, y in zip(row, v)), z) for row in a]
    assert prod == Matrix(want, field) and Matrix(want, field) == prod
    bumped = [list(row) for row in want]
    bumped[-1][-1] = bumped[-1][-1] + field.one
    assert prod != Matrix(bumped, field)
    # compose against the dense Kronecker product of the factors
    kron = [[field.one]]
    for f in factors:
        kron = _dense_kron(kron, f)
    want = _dense_mul(m, kron, z)
    comp = compose(Matrix(m, field), [Matrix(f, field) for f in factors])
    assert comp.entries == want and comp.nonzeros() == _nonzeros(want)
    # elementwise operations, with sums that cancel
    A, C = Matrix(a, field), Matrix(c, field)
    for got, dense in [
        (A + C, [[x + y for x, y in zip(ra, rc)] for ra, rc in zip(a, c)]),
        (A - C, [[x - y for x, y in zip(ra, rc)] for ra, rc in zip(a, c)]),
        (-A, [[-x for x in ra] for ra in a]),
        (A.scale(field.of(3)), [[field.of(3) * x for x in ra] for ra in a]),
    ]:
        assert got.entries == dense and got.nonzeros() == _nonzeros(dense)
        assert got.is_zero() == (not any(x for row in dense for x in row))
    assert (A - A).is_zero() and (A + -A).is_zero() and A.scale(z).is_zero()
    # a sum of mismatched shapes names both
    taller = Matrix.zeros(A.rows + 1, A.cols, field)
    with pytest.raises(ValueError, match=r"%dx%d .* %dx%d" % (taller.rows, A.cols, A.rows, A.cols)):
        A + taller
    assert A.is_zero() == (not any(x for row in a for x in row))
    # elimination against the dense Gauss-Jordan reference
    E, n = Matrix(e, field), len(e[0])
    red, piv = rref(E)
    want, want_piv = _dense_rref(e, field, n)
    assert (red.entries, piv) == (want, want_piv) and red.nonzeros() == _nonzeros(want)
    free = [j for j in range(n) if j not in want_piv]
    null = [[field.one if t == j else z for t in range(n)] for j in free]
    for i, pc in enumerate(want_piv):
        for t, j in enumerate(free):
            null[t][pc] = -want[i][j]
    assert kernel_basis(E).vectors() == _dense_basis(null, field, n)
    units = [[field.one if t == j else z for t in range(n)] for j in range(n)]
    rhs = [E.apply(v2) for v2 in [list(row) for row in e] + units]  # consistent columns
    rhs += [[field.one if t == i else z for t in range(len(e))] for i in range(len(e))]
    for col in rhs:
        got, ref = solve(E, col), _dense_solve(e, [col], field)
        assert got == (ref[0] if ref else None)
    got = solve_matrix(E, Matrix([list(r) for r in zip(*rhs)], field))
    ref = _dense_solve(e, rhs, field)
    assert (got is None and ref is None) or got.entries == [list(r) for r in zip(*ref)]
    # subspace coordinates and the quotient projection, members or not
    span = SubspaceBasis(n, e, field)
    basis = _dense_basis(e, field, n)
    assert span.vectors() == basis
    probes = basis + [list(row) for row in e] + units
    for w in probes:
        assert span.coordinates(w) == _dense_coords(basis, w, field)
    small = SubspaceBasis(n, e[:1], field)
    reps, proj = quotient_basis(span, small)
    base = small.vectors()
    for w in span.vectors():  # greedy representatives, as the reference picks them
        if _dense_coords(base, w, field) is None:
            base.append(w)
    assert reps == base[small.dim :]
    for w in probes:
        ref = _dense_coords(base, w, field)
        if ref is None:
            with pytest.raises(SubspaceNotContained):
                proj(w)
        else:
            assert proj(w) == ref[small.dim :]


LAM = build_truncated_polynomial(2)


@st.composite
def cochains(draw, max_arity=2):
    p = draw(st.integers(0, max_arity))
    j = draw(st.integers(0, 1))
    d = LAM.dim
    ent = draw(
        st.lists(
            st.lists(st.integers(-3, 3), min_size=d**p, max_size=d**p),
            min_size=d,
            max_size=d,
        )
    )
    return H.Cochain.from_matrix(LAM, p, Matrix.from_int_rows(ent), j)


@settings(max_examples=25, deadline=None)
@given(cochains())
def test_d_squared_vanishes(c):
    assert H.differential(H.differential(c)).is_zero()


@settings(max_examples=25, deadline=None)
@given(cochains(), cochains())
def test_bracket_graded_antisymmetry(x, y):
    px = (x.arities() or [0])[0]
    py = (y.arities() or [0])[0]
    sign = QQ.one if ((px - 1) * (py - 1)) % 2 == 0 else -QQ.one
    assert (H.bracket(x, y) + H.bracket(y, x).scale(sign)).is_zero()


@settings(max_examples=20, deadline=None)
@given(cochains(max_arity=1), cochains(max_arity=1), cochains(max_arity=1))
def test_cup_associative(a, b, c):
    assert (H.cup(H.cup(a, b), c) - H.cup(a, H.cup(b, c))).is_zero()
