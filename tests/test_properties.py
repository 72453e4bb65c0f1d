"""Property tests for the core invariants (hypothesis-driven)."""

from fractions import Fraction

from hypothesis import example, given, settings, strategies as st

from bracealg.linalg import GF, QQ, Matrix, compose, kernel_basis, rank, rref, solve
from bracealg.algebra import build_truncated_polynomial
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


@st.composite
def products(draw):
    """(field, a, b, v, c, m, factors) with a r x k, b k x c, v of length k,
    c r x k, factors a list of up to three small blocks (some identities)
    and m with one column per tuple of factor rows, as rows of field
    elements.  Entries are mostly zero and small, so sums of products often
    cancel (1 - 1 over QQ, 3 + 4 over GF(7))."""
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
    return field, block(r, k), block(k, c), block(1, k)[0], block(r, k), m, factors


def _dense_mul(a, b, z):
    return [[sum((a[i][t] * b[t][j] for t in range(len(b))), z) for j in range(len(b[0]))] for i in range(len(a))]


def _dense_kron(a, b):
    return [[x * y for x in ra for y in rb] for ra in a for rb in b]


def _nonzeros(rows):
    return [[(j, x) for j, x in enumerate(row) if x] for row in rows]


@settings(max_examples=80, deadline=None)
@given(products())
@example((QQ, [[QQ.one, QQ.one]], [[QQ.one], [-QQ.one]], [QQ.one, -QQ.one],
          [[-QQ.one, QQ.one]], [[QQ.one, QQ.one]], [[[QQ.one], [-QQ.one]]]))
def test_matrix_kernel_matches_dense_reference(case):
    field, a, b, v, c, m, factors = case
    z = field.zero
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
    assert A.is_zero() == (not any(x for row in a for x in row))


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
