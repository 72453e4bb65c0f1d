import random

import pytest

from bracealg import linalg
from bracealg.linalg import (
    GF,
    QQ,
    Matrix,
    SubspaceBasis,
    SubspaceNotContained,
    image_basis,
    intersect,
    kernel_basis,
    quotient_basis,
    rank,
    rref,
    solve,
)


def rand_matrix(rng, rows, cols, field=QQ):
    return Matrix(
        [[field.of(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(cols)] for _ in range(rows)],
        field,
    )


def test_rational_scalars_int_when_integral():
    rational = type(linalg._mpq(1, 2))  # Fraction, or gmpy2's mpq
    for x in (QQ.of(4, 2), QQ.of(-6, 3), QQ.of(0, 5), QQ.zero, QQ.one, QQ.inv(QQ.of(1, 2)), QQ.inv(-1)):
        assert type(x) is int
    for x in (QQ.of(1, 2), QQ.of(-3, 6), QQ.inv(2), QQ.inv(QQ.of(-2, 3))):
        assert type(x) is rational
    assert QQ.inv(2) == QQ.of(1, 2) and QQ.inv(QQ.of(-2, 3)) == QQ.of(-3, 2)
    with pytest.raises(ZeroDivisionError):
        QQ.inv(QQ.zero)


def test_field_elements_lift_only_into_prime_fields():
    # over QQ an int is canonical and is kept as it is; F_p lifts raw ints
    half = QQ.of(1, 2)
    values = [3, -1, 0, half]
    got = QQ.elements(values)
    assert got == values and got is not values and all(a is b for a, b in zip(got, values))
    f5 = GF(5)
    lifted = f5.elements([7, -1, 0])
    assert lifted == [2, 4, 0] and all(type(x) is type(f5.one) for x in lifted)


def test_rational_scalars_never_float():
    values = [QQ.of(n, d) for n in range(-6, 7) for d in range(1, 5)]
    values += [QQ.inv(x) for x in values if x]
    values += [x * y for x in values[:40] for y in values[-40:]] + [x - y for x in values[:40] for y in values[-40:]]
    assert not any(isinstance(x, float) for x in values)


def test_rref_identity():
    m = Matrix.identity(2)
    red, piv = rref(m)
    assert red == m
    assert piv == [0, 1]


def test_rref_rank_one():
    m = Matrix.from_int_rows([[2, 4], [1, 2]])
    red, piv = rref(m)
    assert red == Matrix.from_int_rows([[1, 2], [0, 0]])
    assert piv == [0]


def test_rref_idempotent_random():
    rng = random.Random(7)
    for _ in range(10):
        m = rand_matrix(rng, 5, 7)
        red, piv = rref(m)
        red2, piv2 = rref(red)
        assert red2 == red and piv2 == piv
        assert piv == sorted(piv)


def test_kernel_identity_empty():
    assert kernel_basis(Matrix.identity(4)).dim == 0


def test_kernel_zero_full():
    assert kernel_basis(Matrix.zeros(3, 3)).dim == 3


def test_kernel_substitution():
    m = Matrix.from_int_rows([[1, 1, 0]])
    ker = kernel_basis(m)
    assert ker.dim == 2
    for v in ker.vectors():
        assert all(x == QQ.zero for x in m.apply(v))


@pytest.mark.parametrize("length", [2, 4])
def test_apply_refuses_wrong_length(length):
    # a 2 x 3 matrix takes vectors of length 3 only, longer ones included
    m = Matrix.from_int_rows([[1, 2, 3], [0, 1, 0]])
    assert m.apply([QQ.one] * 3) == [6, 1]
    with pytest.raises(ValueError):
        m.apply([QQ.one] * length)


def test_reshape_keeps_row_major_order():
    # entry (i, j) of the 2 x 3 matrix sits at flat index 3i + j, and at
    # (k // cols, k % cols) of every reshape
    m = Matrix.from_int_rows([[1, 0, 2], [3, 4, 0]])
    assert m.reshape(1, 6).entries == [[1, 0, 2, 3, 4, 0]]
    assert m.reshape(3, 2).entries == [[1, 0], [2, 3], [4, 0]]
    assert m.reshape(6, 1).entries == [[1], [0], [2], [3], [4], [0]]
    assert m.reshape(3, 2).nonzeros() == [[(0, 1)], [(0, 2), (1, 3)], [(0, 4)]]
    assert m.reshape(2, 3) == m


def test_reshape_refuses_other_sizes():
    m = Matrix.from_int_rows([[1, 0, 2], [3, 4, 0]])
    for rows, cols in [(4, 2), (1, 5), (0, 6), (6, 0)]:
        with pytest.raises(ValueError):
            m.reshape(rows, cols)


def test_reshape_of_empty_shapes():
    # 0 rows or 0 columns: every shape of size 0 is reachable, and none other
    for m in (Matrix.zeros(0, 3, QQ), Matrix.zeros(4, 0, QQ)):
        for rows, cols in [(0, 0), (0, 5), (5, 0)]:
            out = m.reshape(rows, cols)
            assert (out.rows, out.cols) == (rows, cols) and out.is_zero()
        with pytest.raises(ValueError):
            m.reshape(1, 1)


def test_rank_nullity_random():
    rng = random.Random(3)
    for _ in range(12):
        r, c = rng.randint(1, 6), rng.randint(1, 6)
        m = rand_matrix(rng, r, c)
        assert rank(m) + kernel_basis(m).dim == c


def test_solve_identity():
    b = [QQ.of(3), QQ.of(-1, 2), QQ.of(0)]
    assert solve(Matrix.identity(3), b) == b


def test_solve_exact_or_none():
    rng = random.Random(11)
    for _ in range(20):
        m = rand_matrix(rng, 4, 3)
        b = [QQ.of(rng.randint(-3, 3)) for _ in range(4)]
        v = solve(m, b)
        if v is None:
            assert rank(m.augment(Matrix.column_vector(b))) > rank(m)
        else:
            assert m.apply(v) == b


def test_quotient_by_itself_zero():
    s = SubspaceBasis(3, [[1, 0, 0], [0, 1, 0]], QQ)
    reps, proj = quotient_basis(s, s)
    assert reps == []
    assert proj(s.vectors()[0]) == []


def test_quotient_dim_random_nested():
    rng = random.Random(5)
    for _ in range(10):
        n = 6
        vecs = [[QQ.of(rng.randint(-2, 2)) for _ in range(n)] for _ in range(4)]
        big = SubspaceBasis(n, vecs, QQ)
        small = SubspaceBasis(n, big.vectors()[: rng.randint(0, big.dim)], QQ)
        reps, proj = quotient_basis(big, small)
        assert len(reps) == big.dim - small.dim
        # projection kills exactly the small subspace
        for v in small.vectors():
            assert all(x == QQ.zero for x in proj(v))


def test_quotient_not_contained_raises():
    big = SubspaceBasis(3, [[1, 0, 0]], QQ)
    small = SubspaceBasis(3, [[0, 1, 0]], QQ)
    with pytest.raises(SubspaceNotContained):
        quotient_basis(big, small)


def test_quotient_projection_rejects_non_member():
    big = SubspaceBasis(3, [[1, 1, 0], [0, 0, 1]], QQ)
    small = SubspaceBasis(3, [[0, 0, 1]], QQ)
    reps, proj = quotient_basis(big, small)
    assert len(reps) == 1
    assert proj([QQ.of(2), QQ.of(2), QQ.of(5)]) == [QQ.of(2)]
    with pytest.raises(SubspaceNotContained):
        proj([QQ.of(1), QQ.of(0), QQ.of(0)])
    # the quotient by everything still rejects vectors outside big
    _, proj = quotient_basis(big, big)
    with pytest.raises(SubspaceNotContained):
        proj([QQ.of(0), QQ.of(1), QQ.of(1)])


def test_coordinates_of_non_member_is_none():
    s = SubspaceBasis(3, [[1, 2, 0], [0, 0, 1]], QQ)
    assert s.coordinates([QQ.of(2), QQ.of(4), QQ.of(-1)]) == [QQ.of(2), QQ.of(-1)]
    assert s.coordinates([QQ.of(1), QQ.of(1), QQ.of(0)]) is None
    assert not s.contains([QQ.of(0), QQ.of(1), QQ.of(0)])
    assert SubspaceBasis(3, [], QQ).coordinates([QQ.of(0), QQ.of(0), QQ.of(1)]) is None


def test_image_basis_column_space():
    m = Matrix.from_int_rows([[1, 2], [0, 0], [1, 2]])
    im = image_basis(m)
    assert im.dim == 1
    assert im.contains([QQ.of(1), QQ.of(0), QQ.of(1)])


def test_intersect():
    a = SubspaceBasis(3, [[1, 0, 0], [0, 1, 0]], QQ)
    b = SubspaceBasis(3, [[0, 1, 0], [0, 0, 1]], QQ)
    c = intersect(a, b)
    assert c.dim == 1
    assert c.contains([QQ.of(0), QQ.of(1), QQ.of(0)])


def test_prime_field_roundtrip():
    f = GF(23)
    m = Matrix([[f.of(2), f.of(4)], [f.of(1), f.of(2)]], f)
    red, piv = rref(m)
    assert piv == [0]
    assert red.entries[0] == [f.one, f.of(2)]


def test_subspace_canonical_equality():
    a = SubspaceBasis(3, [[1, 1, 0], [0, 1, 1]], QQ)
    b = SubspaceBasis(3, [[1, 0, -1], [0, 2, 2]], QQ)
    assert a == b


@pytest.mark.parametrize("n", [3, 4])
def test_elimination_output_holds_no_integral_rational(n):
    # the normalized d_5 of k[x]/(x^n): subtractions in the backend rational
    # leave integral values that are not ints (94 of the 177 entries of the
    # kernel basis on x^3), and elimination hands them out as ints
    from bracealg import hochschild as H
    from bracealg.finite import build_truncated_polynomial

    d5 = H.normalized_differential_matrix(build_truncated_polynomial(n), 5, False)
    for m in (kernel_basis(d5).matrix, image_basis(d5).matrix, rref(d5)[0]):
        assert all(type(x) is int or x.denominator != 1 for row in m.nonzeros() for _, x in row)
