"""Exact linear algebra over the rationals (or a prime field).

A rational is a plain int when it is integral and the backend rational
(gmpy2.mpq, or fractions.Fraction without gmpy2) otherwise; see
RationalField.  Sums and products of ints stay ints, which skip the gcds
of rational arithmetic; a value becomes a rational only through a division
(inv, or of with a denominator), and arithmetic with a rational gives a
rational, even when the result is integral.

A matrix is stored sparse: per row, the (column, value) pairs of its
nonzero entries, plus its shape and field.  Dense rows are converted once
where they enter, and the dense view (entries) is built on demand and
never kept.  Products, sums, differences, scaling, transposes, zero
tests and equality run over the nonzeros, so the common sparse 0/±1
inputs stay cheap at sizes no dense grid could hold.  kron_sum is the one
loop that adds scaled matrices: a + b, a - b, a linear combination of
action matrices and the terms of a brace or a transferred product are all
sums of one-factor Kronecker products.

compose, kron/kron_sum, Matrix.__mul__ (*) and _Echelon are the kernels
of matrix arithmetic: apply (a product with the vector as a column), an
algebra's multiplication operators and product, a stripped bimodule's
inclusion and the equations of module maps are each one call to them,
with no product loop of their own.

Elimination is one row-sparse Gauss-Jordan kernel (_Echelon) over
{column: value} rows: rref, kernel bases, solves, subspace coordinates and
quotient projections all go through it, and it only touches nonzeros.  A
basis that is used for many vectors is factored once and kept, as a
Matrix keeps its rref.

compose(m, [F_1, ..., F_k]) = m . (F_1 (x) ... (x) F_k) is the one
tensor-composition primitive: the brace engine, the products of
cohomology classes and homotopy transfer reduce to it, without forming
the Kronecker product, and every structural check is a compose identity:
the unit and associativity laws of an algebra or a bimodule, the
commutation of a bimodule's two actions, the equivariance of a bimodule
map and the Leibniz rule of a DG algebra.  Where the Kronecker product
itself is the matrix wanted (the bar and periodic resolutions, the outer
bimodule actions and the Hochschild differential matrices, sums of
signed products), kron builds it in one pass over the factors' nonzeros
and kron_sum adds such products into one matrix.

Every operation is a pure function of its inputs, values are never mutated
after construction (which is what makes both caches safe), and results are
bit-exact.
"""

from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction

try:  # gmpy2's mpq is a drop-in, much faster rational
    from gmpy2 import mpq as _mpq

    _HAVE_GMPY = True
except ImportError:  # pragma: no cover
    _mpq = Fraction
    _HAVE_GMPY = False


class SubspaceNotContained(Exception):
    """Raised when a quotient is requested by a non-subspace."""


def _rational(q):
    """q (a backend rational) as a plain int when it is integral."""
    return int(q.numerator) if q.denominator == 1 else q


class RationalField:
    """The field of rationals.

    An element is a plain int when it is integral and the backend rational
    (gmpy2.mpq, or Fraction without gmpy2) otherwise.  Mixed int/rational
    arithmetic is exact, and ==, hash, truthiness and str agree between an
    int and an equal rational, so the two forms are interchangeable; most
    values (0/+-1 structure constants, bar differentials, Kronecker
    factors) never leave int.  inv divides in the backend rational, never
    with int true division, which would give a float.  canonical turns an
    integral rational back into an int, for kernels that scale by inverses.
    """

    name = "QQ"

    def of(self, num, den=1):
        return _rational(_mpq(num, den))

    canonical = staticmethod(_rational)
    elements = staticmethod(list)  # an int is already canonical: no lifting

    zero = 0
    one = 1

    def inv(self, x):
        return _rational(1 / _mpq(x))

    def to_str(self, x):
        return str(x)

    def __repr__(self):
        return "QQ"

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("QQ")


def _fp_class(p):
    class Fp(int):
        __slots__ = ()

        def __new__(cls, v):
            return int.__new__(cls, v % p)

        def __add__(self, other):
            return Fp(int(self) + int(other))

        __radd__ = __add__

        def __sub__(self, other):
            return Fp(int(self) - int(other))

        def __rsub__(self, other):
            return Fp(int(other) - int(self))

        def __mul__(self, other):
            return Fp(int(self) * int(other))

        __rmul__ = __mul__

        def __neg__(self):
            return Fp(-int(self))

    return Fp


class PrimeField:
    """F_p for an odd prime p; elements stay reduced to [0, p)."""

    def __init__(self, p):
        if p < 3 or any(p % q == 0 for q in range(2, int(p**0.5) + 1)):
            raise ValueError("p must be an odd prime, got %r" % (p,))
        self.p = p
        self.name = "GF(%d)" % p
        self._cls = _fp_class(p)

    def of(self, num, den=1):
        if den % self.p == 0:
            raise ZeroDivisionError("denominator divisible by p")
        return self._cls(num * pow(den, -1, self.p))

    @property
    def zero(self):
        return self._cls(0)

    @property
    def one(self):
        return self._cls(1)

    def inv(self, x):
        return self._cls(pow(int(x), -1, self.p))

    def canonical(self, x):
        return x

    def elements(self, values):
        """values as a list of field elements, raw ints lifted into F_p."""
        return [self.of(x) if isinstance(x, int) else x for x in values]

    def to_str(self, x):
        return str(x)

    def __repr__(self):
        return self.name

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("GF", self.p))


QQ = RationalField()


def GF(p):
    return PrimeField(p)


class Matrix:
    """Immutable sparse matrix over an exact field.

    A matrix is its shape, its field and, per row, the (column, value)
    pairs of its nonzero entries in column order; nothing else is stored
    but its rref, built on first use.  Dense rows are converted once where
    they enter (Matrix(rows)), and entries builds them again on each call.
    """

    __slots__ = ("rows", "cols", "field", "_nz", "_rref")

    def __init__(self, entries, field=QQ, cols=None):
        entries = list(entries)
        self.rows = len(entries)
        self.cols = len(entries[0]) if entries else (cols or 0)
        if any(len(r) != self.cols for r in entries):
            raise ValueError("ragged rows")
        self.field = field
        self._nz = [[(j, x) for j, x in enumerate(r) if x] for r in entries]
        self._rref = None

    # -- constructors -------------------------------------------------

    @staticmethod
    def _of(nz, cols, field):
        """Matrix from per-row (column, value) lists, sorted and nonzero."""
        m = Matrix.__new__(Matrix)
        m.rows, m.cols, m.field, m._nz, m._rref = len(nz), cols, field, nz, None
        return m

    @staticmethod
    def zeros(rows, cols, field=QQ):
        return Matrix._of([[] for _ in range(rows)], cols, field)

    @staticmethod
    def identity(n, field=QQ):
        one = field.one
        return Matrix._of([[(i, one)] for i in range(n)], n, field)

    @staticmethod
    def from_int_rows(rows, field=QQ):
        return Matrix([[field.of(x) for x in r] for r in rows], field)

    @staticmethod
    def from_nonzeros(rows, cols, field=QQ):
        """Matrix from one {column: value} dict per row; zero values are dropped."""
        return Matrix._of([[(j, acc[j]) for j in sorted(acc) if acc[j]] for acc in rows], cols, field)

    @staticmethod
    def column_vector(vec, field=QQ):
        return Matrix([[x] for x in vec], field, cols=1)

    # -- basics --------------------------------------------------------

    @property
    def entries(self):
        """The dense rows, built on each call and never stored."""
        return [self._dense(row) for row in self._nz]

    def _dense(self, pairs):
        out = [self.field.zero] * self.cols
        for j, x in pairs:
            out[j] = x
        return out

    def _at(self, pairs, j):
        k = bisect_left(pairs, (j,))
        return pairs[k][1] if k < len(pairs) and pairs[k][0] == j else self.field.zero

    def __getitem__(self, ij):
        i, j = ij
        return self._at(self._nz[i], range(self.cols)[j])  # range: an IndexError as for a list

    def row(self, i):
        return self._dense(self._nz[i])

    def column(self, j):
        j = range(self.cols)[j]
        return [self._at(row, j) for row in self._nz]

    def select_rows(self, indices):
        """The matrix of the rows at indices, in that order."""
        return Matrix._of([self._nz[i] for i in indices], self.cols, self.field)

    def nonzeros(self):
        """Per row, the (column, value) pairs of its nonzero entries, by column."""
        return self._nz

    def __eq__(self, other):
        return (
            isinstance(other, Matrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and self._nz == other._nz
        )

    def __hash__(self):
        return hash((self.rows, self.cols, tuple(map(tuple, self._nz))))

    def __repr__(self):
        if self.rows * self.cols > 64:
            return "Matrix(%dx%d over %r)" % (self.rows, self.cols, self.field)
        return "Matrix(%r)" % (self.entries,)

    def is_zero(self):
        return not any(self._nz)

    def __add__(self, other):
        return kron_sum([(self.field.one, [self]), (self.field.one, [other])], self.rows, self.cols, self.field)

    def __sub__(self, other):
        return kron_sum([(self.field.one, [self]), (-self.field.one, [other])], self.rows, self.cols, self.field)

    def __neg__(self):
        return self.scale(-self.field.one)

    def scale(self, c):
        """c * self; a nonzero c keeps every nonzero and its column order."""
        nz = [[(j, c * x) for j, x in r] for r in self._nz] if c else [[] for _ in self._nz]
        return Matrix._of(nz, self.cols, self.field)

    def __mul__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        if self.cols != other.rows:
            raise ValueError("shape mismatch %dx%d * %dx%d" % (self.rows, self.cols, other.rows, other.cols))
        onz = other.nonzeros()
        out = []
        for ra in self.nonzeros():
            acc = {}
            for k, a in ra:
                for j, b in onz[k]:
                    s = acc.get(j)
                    acc[j] = a * b if s is None else s + a * b
            out.append(acc)
        return Matrix.from_nonzeros(out, other.cols, self.field)

    def apply(self, vec):
        """Matrix times column vector, as a plain list; vec must have length cols."""
        return (self * Matrix.column_vector(vec, self.field)).column(0)

    def transpose(self):
        cols = [[] for _ in range(self.cols)]
        for i, row in enumerate(self._nz):
            for j, x in row:
                cols[j].append((i, x))
        return Matrix._of(cols, self.rows, self.field)

    def stack(self, other):
        """Rows of self followed by rows of other."""
        if self.cols != other.cols:
            raise ValueError("column mismatch")
        return Matrix._of(self._nz + other._nz, self.cols, self.field)

    def augment(self, other):
        """Columns of self followed by columns of other."""
        if self.rows != other.rows:
            raise ValueError("row mismatch")
        shift = self.cols
        nz = [ra + [(j + shift, x) for j, x in rb] for ra, rb in zip(self._nz, other._nz)]
        return Matrix._of(nz, self.cols + other.cols, self.field)


def compose(m: Matrix, factors) -> Matrix:
    """m . (F_1 (x) ... (x) F_k), without forming the Kronecker product.

    The columns of m index tuples (i_1, ..., i_k) with i_t < F_t.rows, and
    the result's columns index tuples (j_1, ..., j_k) with j_t < F_t.cols,
    both encoded with the first position most significant.  The factors are
    contracted one at a time, last first, over the nonzeros of m and the
    per-row nonzeros of each factor; identity factors are skipped.  This is
    the partial composition of multilinear maps: a brace inserts cochains
    into some inputs of another (identities elsewhere), a change of basis
    transforms every input, and a product M is associative exactly when
    compose(M, [M, I]) == compose(M, [I, M]).  With m the identity it
    equals kron(factors), which is the cheaper way to build that.
    """
    width = cols = 1
    for f in factors:
        width *= f.rows
        cols *= f.cols
    if m.cols != width:
        raise ValueError("compose: %d columns, but the factors take %d inputs" % (m.cols, width))
    one = m.field.one
    rows = [dict(r) for r in m.nonzeros()]
    suffix = 1  # columns of the factors contracted so far
    for f in reversed(factors):
        fnz = f.nonzeros()
        if f.rows == f.cols and all(r == [(i, one)] for i, r in enumerate(fnz)):
            suffix *= f.cols
            continue
        for t, row in enumerate(rows):
            acc = {}
            for col, v in row.items():
                hi, lo = divmod(col, suffix)
                pre, i = divmod(hi, f.rows)
                base = pre * f.cols
                for j, x in fnz[i]:
                    key = (base + j) * suffix + lo
                    s = acc.get(key)
                    acc[key] = v * x if s is None else s + v * x
            rows[t] = acc
        suffix *= f.cols
    return Matrix.from_nonzeros(rows, cols, m.field)


def kron(factors) -> Matrix:
    """F_1 (x) ... (x) F_k, with row and column tuples encoded first position
    most significant, as in compose.

    Row (i_1, ..., i_k) is the product of the factors' rows i_t: its pairs
    come out in column order when the first factor's columns vary slowest,
    and a product of nonzeros is nonzero, so the rows need no dict and no
    sort.
    """
    first, *rest = factors
    rows, cols = first.nonzeros(), first.cols
    for f in rest:
        fnz, fc = f.nonzeros(), f.cols
        rows = [[(c * fc + j, v * x) for c, v in row for j, x in frow] for row in rows for frow in fnz]
        cols *= fc
    return Matrix._of(rows, cols, first.field)


def kron_sum(parts, rows, cols, field) -> Matrix:
    """The rows x cols sum of c * (F_1 (x) ... (x) F_k) over the (c, factors)
    parts, c a scalar (a sign for the differentials and for a - b, a signed
    weight coefficient for a brace's terms, a coordinate for a linear
    combination of matrices, which are one-factor parts).  Every part is
    added into one {column: value} dict per row, and the sum is sorted once."""
    out = [{} for _ in range(rows)]
    for c, factors in parts:
        term = kron(factors)
        if (term.rows, term.cols) != (rows, cols):
            raise ValueError("kron_sum: a %dx%d part in a %dx%d sum" % (term.rows, term.cols, rows, cols))
        for acc, row in zip(out, term.nonzeros()):
            for j, x in row:
                x = c * x
                s = acc.get(j)
                acc[j] = x if s is None else s + x
    return Matrix.from_nonzeros(out, cols, field)


def _subtract(acc, c, row):
    """acc -= c * row for a {column: value} dict acc and (column, value)
    pairs row; entries that cancel are dropped."""
    for j, x in row:
        s = acc.get(j)
        s = -c * x if s is None else s - c * x
        if s:
            acc[j] = s
        else:
            del acc[j]


class _Echelon:
    """Row-sparse Gauss-Jordan elimination over {column: value} rows.

    Keeps one fully reduced row per pivot column: the row starts at its
    pivot column with the entry one, and is zero at every other pivot
    column.  Sorted by pivot, the rows are therefore the unique RREF of
    their span.  A row is reduced only at the pivot columns where it is
    nonzero, and cancelled entries are dropped, so the work follows the
    nonzeros.  A row scaled to its pivot keeps its scalars canonical (over
    QQ, integral entries stay ints).
    """

    __slots__ = ("field", "rows")

    def __init__(self, field):
        self.field = field
        self.rows = {}  # pivot column -> fully reduced row

    def reduce(self, row):
        """Subtract from row (a dict, changed in place) its pivot-column
        entries times the pivot rows; returns row, now zero at every pivot.

        The pivot rows are zero at each other's pivots, so row's entries at
        pivot columns are not changed by the other subtractions."""
        pivots = self.rows
        for pc in [j for j in row if j in pivots]:
            _subtract(row, row[pc], pivots[pc].items())
        return row

    def insert(self, row):
        """Make a reduced nonzero row a pivot row at its first column and
        clear that column from the other pivot rows; returns the column."""
        pc = min(row)
        lead = row[pc]
        if lead != self.field.one:
            inv, canonical = self.field.inv(lead), self.field.canonical
            row = {j: canonical(x * inv) for j, x in row.items()}
        for other in self.rows.values():
            c = other.get(pc)
            if c is not None:
                _subtract(other, c, row.items())
        self.rows[pc] = row
        return pc

    def add(self, row):
        """Reduce row; if anything is left, insert it.  Returns the new
        pivot column, or None when row was already in the span."""
        row = self.reduce(row)
        return self.insert(row) if row else None

    def matrix(self, nrows, ncols):
        """The pivot rows by pivot column, then zero rows up to nrows, as a
        Matrix whose rref is itself.  Its scalars are canonical: a
        subtraction in the backend rational can leave an integral value
        that is not an int, and it leaves here as an int."""
        pivots = sorted(self.rows)
        canonical = self.field.canonical
        rows = [[(j, canonical(row[j])) for j in sorted(row)] for row in map(self.rows.get, pivots)]
        out = Matrix._of(rows + [[] for _ in range(nrows - len(pivots))], ncols, self.field)
        out._rref = (out, pivots)
        return out


def _echelon_of(field, rows):
    """An _Echelon of rows given as {column: value} dicts or (column, value)
    pairs; the rows are copied.  They go in by descending leading column, so
    a new pivot usually lies left of the existing ones and insert has little
    to clear; the result, the unique RREF of the span, does not depend on
    the order."""
    ech = _Echelon(field)
    for row in sorted((dict(r) for r in rows if r), key=min, reverse=True):
        ech.add(row)
    return ech


def _sparse(vec):
    return {j: x for j, x in enumerate(vec) if x}


def rref(m: Matrix):
    """Reduced row echelon form.  Returns (Matrix, pivot column list).

    The result is the unique RREF, so it can be used for canonical
    comparisons; the pivot list is strictly increasing.
    """
    if m._rref is None:
        out = _echelon_of(m.field, m.nonzeros()).matrix(m.rows, m.cols)
        m._rref = out._rref
    return m._rref


def rank(m: Matrix):
    return len(rref(m)[1])


class SubspaceBasis:
    """A subspace of k^n stored by its unique RREF row basis.

    Equality of subspaces is structural equality of the stored data.
    """

    __slots__ = ("ambient_dim", "matrix", "pivots")

    def __init__(self, ambient_dim, vectors, field=QQ):
        self._span(ambient_dim, [_sparse(v) for v in vectors], field)

    @classmethod
    def from_nonzeros(cls, ambient_dim, rows, field=QQ):
        """The span of {column: value} rows."""
        self = cls.__new__(cls)
        self._span(ambient_dim, rows, field)
        return self

    def _span(self, ambient_dim, rows, field):
        self.ambient_dim = ambient_dim
        ech = _echelon_of(field, rows)
        self.matrix = ech.matrix(len(ech.rows), ambient_dim)
        self.pivots = self.matrix._rref[1]

    @property
    def dim(self):
        return len(self.pivots)

    @property
    def field(self):
        return self.matrix.field

    def vectors(self):
        return self.matrix.entries

    def __eq__(self, other):
        return (
            isinstance(other, SubspaceBasis)
            and self.ambient_dim == other.ambient_dim
            and self.matrix == other.matrix
        )

    def __repr__(self):
        return "SubspaceBasis(dim %d of k^%d)" % (self.dim, self.ambient_dim)

    def coordinates(self, vec):
        """Coordinates of vec in this RREF basis, or None if not a member.

        The rows are fully reduced, so the coordinates are vec's entries at
        the pivot columns, and vec is a member when subtracting that
        combination leaves nothing."""
        v = list(vec)
        coords = [v[pc] for pc in self.pivots]
        rest = _sparse(v)
        for c, row in zip(coords, self.matrix.nonzeros()):
            if c:
                _subtract(rest, c, row)
        return None if rest else coords

    def contains(self, vec):
        return self.coordinates(vec) is not None


def kernel_basis(m: Matrix) -> SubspaceBasis:
    """Basis of {v : m v = 0}, canonical (RREF) form."""
    red, piv = rref(m)
    pivset = set(piv)
    one = m.field.one
    vecs = {j: {j: one} for j in range(m.cols) if j not in pivset}
    for pc, row in zip(piv, red.nonzeros()):
        for j, x in row:
            if j in vecs:
                vecs[j][pc] = -x
    return SubspaceBasis.from_nonzeros(m.cols, vecs.values(), m.field)


def image_basis(m: Matrix) -> SubspaceBasis:
    """Column space of m, canonical form."""
    return SubspaceBasis.from_nonzeros(m.rows, m.transpose().nonzeros(), m.field)


def solve(m: Matrix, b) -> list | None:
    """Some exact solution v of m v = b, or None when inconsistent.

    The returned solution is the one with zero free coordinates, hence
    deterministic (echelon-minimal).
    """
    sol = solve_matrix(m, Matrix.column_vector(b, m.field))
    return None if sol is None else sol.column(0)


def solve_matrix(m: Matrix, b: Matrix) -> Matrix | None:
    """Solve m X = b columnwise; None if any column is inconsistent."""
    aug, piv = rref(m.augment(b))
    if piv and piv[-1] >= m.cols:
        return None
    n = m.cols
    out = [[] for _ in range(n)]
    for pc, row in zip(piv, aug.nonzeros()):
        out[pc] = [(j - n, x) for j, x in row if j >= n]
    return Matrix._of(out, b.cols, m.field)


def quotient_basis(big: SubspaceBasis, small: SubspaceBasis):
    """Representatives and projection for big/small.

    Returns (reps, proj) where reps is a list of vectors of big whose
    classes form a basis of the quotient, and proj maps any vector of big
    to its coordinate list in those classes (a surjective linear map with
    kernel exactly small).  Raises SubspaceNotContained if small is not a
    subspace of big, or when proj is given a vector outside big.

    The basis of big made of small's rows followed by reps is factored
    once: its rows are eliminated with an identity block appended, as in
    rref([base | I]), so each pivot row is (R, T) with R = T . base.  A
    vector v then reduces to (v - c . base, -c), and its coordinates c are
    read off the identity block.  The rows inserted span small + big, which
    has the dimension of big exactly when small lies in big.
    """
    if big.ambient_dim != small.ambient_dim:
        raise SubspaceNotContained("ambient dimensions differ")
    field = big.field
    n = big.ambient_dim
    ech = _Echelon(field)
    reps = []
    for i, v in enumerate(small.matrix.nonzeros() + big.matrix.nonzeros()):
        row = ech.reduce(dict(v))
        if any(j < n for j in row):  # v is not in the span so far: it joins base
            row[n + len(ech.rows)] = field.one
            ech.insert(row)
            if i >= small.dim:
                reps.append(big.matrix.row(i - small.dim))
    if len(ech.rows) != big.dim:
        raise SubspaceNotContained("quotient by a non-subspace")
    zero = field.zero

    def proj(vec):
        row = ech.reduce(_sparse(vec))
        if any(j < n for j in row):
            raise SubspaceNotContained("vector not in the big subspace")
        return [-row[j] if j in row else zero for j in range(n + small.dim, n + len(ech.rows))]

    return reps, proj


def intersect(a: SubspaceBasis, b: SubspaceBasis) -> SubspaceBasis:
    """Intersection of two subspaces of the same ambient space."""
    if a.ambient_dim != b.ambient_dim:
        raise ValueError("ambient mismatch")
    if a.dim == 0 or b.dim == 0:
        return SubspaceBasis(a.ambient_dim, [], a.field)
    # w in the kernel of [A; B]^T gives the common vector w_A . A = -w_B . B
    ker = kernel_basis(a.matrix.stack(b.matrix).transpose())
    coeffs = Matrix._of([[(j, x) for j, x in w if j < a.dim] for w in ker.matrix.nonzeros()], a.dim, a.field)
    return SubspaceBasis.from_nonzeros(a.ambient_dim, (coeffs * a.matrix).nonzeros(), a.field)
