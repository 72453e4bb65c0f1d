"""Finite-dimensional algebras by their product matrix: the core every layer uses.

A finite algebra is its basis labels, its unit and its product matrix mu,
the dim x dim^2 matrix whose column i*dim+j is e_i e_j.  Every product,
check and derived structure is one matrix expression in mu.  The nested
[i, j, coeffs] table of an algebra spec is read into mu once, on load, and
written back from it by to_json.  Algebras are checked at construction
(associativity, unit laws) and loaded from specs with precise errors.
Everything built once per algebra lives in the per-algebra store below.
The bimodule layer is in `algebra`.
"""

from __future__ import annotations

import functools

from .linalg import QQ, Matrix, compose, image_basis, kernel_basis, rank, solve


class AlgebraSpecError(ValueError):
    """Malformed or inconsistent algebra description."""


class FiniteAlgebra:
    """An associative unital algebra, as (labels, unit, mu).

    mu is the dim x dim^2 product matrix, column i*dim+j the coordinate
    vector of e_i e_j; raw ints in unit and mu are lifted into the field
    once.  Associativity mu (mu (x) I) = mu (I (x) mu) and the unit laws are
    checked when the algebra is constructed; everything downstream relies
    on them.  Nothing is changed afterwards: the per-algebra store key and
    the radical are built from mu once and kept.  Every product is a
    compose of mu: mul(u, v) inserts u and v, left_mult_of(v) inserts v and
    the identity; the centre, commutativity and the trace forms
    (algebra.is_symmetric) all read the commutator mu - mu tau.
    """

    def __init__(self, labels, unit, mu: Matrix, field=QQ):
        self.field = field
        self.dim = d = len(labels)
        self.basis_labels = list(labels)
        self.unit = field.elements(unit)
        if len(self.unit) != d or (mu.rows, mu.cols) != (d, d * d):
            shapes = (d, d, d, d * d, len(self.unit), mu.rows, mu.cols)
            raise AlgebraSpecError("algebra data: dim %d needs a unit of length %d and a %dx%d product, got %d and %dx%d" % shapes)
        # raw ints are lifted once; an entry that lifts to zero is dropped
        rows = [dict(zip([j for j, _ in r], field.elements([x for _, x in r]))) for r in mu.nonzeros()]
        self._mu = Matrix.from_nonzeros(rows, d * d, field)
        self._key = None  # _structure_key, built on first use
        self._rad = None
        _check_unit_and_associativity(self._mu, self.unit, lambda a: a, "on basis %d", "on basis triple (%d,%d,%d)")

    def mul(self, u, v):
        f = self.field
        return compose(self._mu, [Matrix.column_vector(u, f), Matrix.column_vector(v, f)]).column(0)

    def mult_matrix(self):
        """The product as a dim x dim^2 matrix; column i*dim+j is e_i e_j."""
        return self._mu

    @property
    def mult(self):
        """The product as a nested table, mult[i][j] the coordinates of e_i e_j,
        read off mu on each access.  The package does not read it; the span
        tracer in perfbench/ keys repeated inputs on it."""
        d, cols = self.dim, self._mu.transpose().entries
        return [cols[i * d : i * d + d] for i in range(d)]

    def commutator(self):
        """mu - mu tau, tau swapping the two inputs: column i*dim+j is
        e_i e_j - e_j e_i."""
        d = self.dim
        swapped = self._mu.transpose().select_rows([j * d + i for i in range(d) for j in range(d)]).transpose()
        return self._mu - swapped

    def left_mult_of(self, vec):
        f = self.field
        return compose(self._mu, [Matrix.column_vector(vec, f), Matrix.identity(self.dim, f)])

    def is_commutative(self):
        return self.commutator().is_zero()

    def center_basis(self):
        """Basis of the centre, as a SubspaceBasis of k^dim: the z with
        e_i z = z e_i for every i, the rows (r, i) of the commutator
        reshaped so that its second input is the column."""
        return kernel_basis(self.commutator().reshape(self.dim * self.dim, self.dim))

    def radical_basis(self):
        """Jacobson radical as the kernel I of the trace form tr(L_a L_b).

        I is an ideal that contains the radical, so it is the radical
        exactly when it is nilpotent, which is checked: its powers must
        reach zero.  They do in characteristic zero and in characteristic
        p > dim.  Below that tr L_e can vanish mod p for an idempotent e (e
        = 1 in k[x]/(x^3) over GF(3)), and such a kernel is refused instead
        of returned.
        """
        if self._rad is not None:
            return self._rad

        d, mult = self.dim, self.mult_matrix()
        # tr(L_a L_b) = tr L_{e_a e_b} = t . (e_a e_b), where t_c = tr L_c is
        # the sum of the entries (k, c*d + k) of the product matrix
        t = Matrix([[sum((mult[k, c * d + k] for k in range(d)), self.field.zero) for c in range(d)]], self.field)
        rad = kernel_basis((t * mult).reshape(d, d))
        basis, power = rad.matrix.transpose(), rad
        while power.dim:  # I.I^k is spanned by the products of the two bases
            smaller = image_basis(compose(mult, [basis, power.matrix.transpose()]))
            if smaller.dim == power.dim:
                raise AlgebraSpecError(
                    "the trace form's kernel over %r is not nilpotent, so it is not the radical "
                    "(needs characteristic 0 or above dim %d)" % (self.field, self.dim)
                )
            power = smaller
        self._rad = rad
        return rad

    def socle_generator(self):
        """Generator of soc(A) when 1-dimensional, else None.

        soc here is the left socle {a : rad * a = 0}; for the symmetric
        local algebras used as coefficients it is simple.
        """
        radb = self.radical_basis()
        if radb.dim == 0:
            return None
        d, f = self.dim, self.field
        # column t*d + j of the product is x_t e_j, x_t the t-th radical
        # basis vector, so its t-th block of d columns is L_{x_t}; the
        # socle equations are the rows of these blocks, row (i, t) the row
        # i of L_{x_t}
        prod = compose(self.mult_matrix(), [radb.matrix.transpose(), Matrix.identity(d, f)])
        soc = kernel_basis(prod.reshape(d * radb.dim, d))
        if soc.dim != 1:
            return None
        return soc.vectors()[0]

    def is_unit(self, vec):
        return rank(self.left_mult_of(vec)) == self.dim

    def inverse(self, vec):
        sol = solve(self.left_mult_of(vec), self.unit)
        if sol is None:
            raise ValueError("element is not invertible")
        return sol

    def is_central(self, vec):
        f = self.field
        return compose(self.commutator(), [Matrix.column_vector(vec, f), Matrix.identity(self.dim, f)]).is_zero()

    def element_from(self, coeffs):
        if len(coeffs) != self.dim:
            raise AlgebraSpecError("element: expected %d coordinates, got %d" % (self.dim, len(coeffs)))
        return self.field.elements(coeffs)

    # -- serialization --------------------------------------------------

    def to_json(self):
        ser, d = self.field.to_str, self.dim
        return {
            "dim": d,
            "labels": self.basis_labels,
            "unit": [ser(x) for x in self.unit],
            "mult": [[c // d, c % d, [ser(x) for x in col]] for c, col in enumerate(self._mu.transpose().entries)],
        }

    @staticmethod
    def from_json(data, field=QQ):
        return load_algebra(data, field)

    def __repr__(self):
        return "FiniteAlgebra(dim=%d, %s)" % (self.dim, ",".join(map(str, self.basis_labels[:6])))


def _first_difference(a: Matrix, b: Matrix, key=None):
    """The first column in which a and b differ, or None; with key, the
    least key(column) over the columns in which they differ."""
    cols = {j for ra, rb in zip(a.nonzeros(), b.nonzeros()) if ra != rb for j, _ in set(ra) ^ set(rb)}
    return min(cols if key is None else map(key, cols), default=None)


def _check_unit_and_associativity(mult: Matrix, unit, label, at_one, at_three):
    """The unit laws mult (1 (x) I) = I = mult (I (x) 1) and associativity
    mult (mult (x) I) = mult (I (x) mult) of a product mult (n x n^2) with
    unit vector unit, for FiniteAlgebra and DGAlgebra alike.  An error names
    the least label(a) of a failing basis index a (the index, or its degree),
    or the least triple of them, formatted by at_one or at_three."""
    n, field = mult.rows, mult.field
    ident, one = Matrix.identity(n, field), Matrix.column_vector(unit, field)
    left = _first_difference(compose(mult, [one, ident]), ident, label)
    right = _first_difference(compose(mult, [ident, one]), ident, label)
    if left is not None and (right is None or left <= right):
        raise AlgebraSpecError("left unit law fails " + at_one % left)
    if right is not None:
        raise AlgebraSpecError("right unit law fails " + at_one % right)
    triple = _first_difference(compose(mult, [mult, ident]), compose(mult, [ident, mult]), lambda c: (label(c // n // n), label(c // n % n), label(c % n)))
    if triple is not None:
        raise AlgebraSpecError("associativity fails " + at_three % triple)


def _parse_scalar(field, txt, where):
    try:
        if isinstance(txt, int):
            return field.of(txt)
        if isinstance(txt, str):
            if "/" in txt:
                num, den = txt.split("/")
                return field.of(int(num), int(den))
            return field.of(int(txt))
    except (ValueError, ZeroDivisionError) as exc:
        raise AlgebraSpecError("%s: bad scalar %r (%s)" % (where, txt, exc)) from exc
    raise AlgebraSpecError("%s: bad scalar %r" % (where, txt))


def _parse_int(txt, where):
    try:
        return int(txt)
    except (TypeError, ValueError) as exc:
        raise AlgebraSpecError("%s: bad integer %r" % (where, txt)) from exc


def _parse_matrix(field, rows, cols, where):
    """A Matrix from a dump's rows of scalars, each of length cols."""
    out = []
    for r, row in enumerate(_list(rows, where)):
        if not isinstance(row, list) or len(row) != cols:
            raise AlgebraSpecError("%s: row %d must be a list of %d scalars" % (where, r, cols))
        out.append([_parse_scalar(field, x, "%s[%d][%d]" % (where, r, c)) for c, x in enumerate(row)])
    return Matrix(out, field, cols=cols)


def _get(obj, key, where):
    """obj[key] from a dump, or an AlgebraSpecError naming the missing key."""
    if not isinstance(obj, dict) or key not in obj:
        raise AlgebraSpecError("%s: missing key %r" % (where, key))
    return obj[key]


def _list(value, where):
    """value if it is a JSON list, else an AlgebraSpecError naming the field."""
    if not isinstance(value, list):
        raise AlgebraSpecError("%s: expected a list, got %r" % (where, value))
    return value


def _dict(value, where):
    """value if it is a JSON object, else an AlgebraSpecError naming the field."""
    if not isinstance(value, dict):
        raise AlgebraSpecError("%s: expected an object, got %r" % (where, value))
    return value


def load_algebra(data, field=QQ):
    """Load an algebra spec {dim, labels, unit, mult} with precise errors.

    mult is a list of triples [i, j, coeffs]; absent pairs default to 0.
    All invariant checks re-run on load.
    """
    if not isinstance(data, dict):
        raise AlgebraSpecError("algebra spec must be an object")
    for key in ("dim", "labels", "unit", "mult"):
        if key not in data:
            raise AlgebraSpecError("algebra spec missing key %r" % key)
    dim = data["dim"]
    if type(dim) is not int or dim < 1:  # a JSON true is no dimension
        raise AlgebraSpecError("dim: must be a positive integer")
    labels = _list(data["labels"], "labels")
    if len(labels) != dim:
        raise AlgebraSpecError("labels: expected %d entries, got %d" % (dim, len(labels)))
    unit = _list(data["unit"], "unit")
    if len(unit) != dim:
        raise AlgebraSpecError("unit: expected %d entries, got %d" % (dim, len(unit)))
    unit = [_parse_scalar(field, x, "unit[%d]" % k) for k, x in enumerate(unit)]
    rows = [{} for _ in range(dim)]  # row k of mu; a repeated pair overwrites its column
    for pos, triple in enumerate(_list(data["mult"], "mult")):
        where = "mult[%d]" % pos
        if len(_list(triple, where)) != 3:
            raise AlgebraSpecError("%s: expected [i, j, coeffs]" % where)
        i, j, coeffs = triple
        if not (type(i) is int and 0 <= i < dim):
            raise AlgebraSpecError("%s: row index %r out of range" % (where, i))
        if not (type(j) is int and 0 <= j < dim):
            raise AlgebraSpecError("%s: column index %r out of range" % (where, j))
        if len(_list(coeffs, where + " coeffs")) != dim:
            raise AlgebraSpecError("%s: coeffs length %d != dim %d" % (where, len(coeffs), dim))
        for k, c in enumerate(coeffs):
            rows[k][i * dim + j] = _parse_scalar(field, c, "%s[%d]" % (where, k))
    try:
        return FiniteAlgebra(labels, unit, Matrix.from_nonzeros(rows, dim * dim, field), field)
    except AlgebraSpecError:
        raise
    except Exception as exc:  # pragma: no cover
        raise AlgebraSpecError(str(exc)) from exc


def build_truncated_polynomial(n, field=QQ):
    """k[x]/(x^n) with basis 1, x, ..., x^(n-1)."""
    if n < 1:
        raise AlgebraSpecError("n must be >= 1")
    labels = ["1"] + ["x^%d" % i if i > 1 else "x" for i in range(1, n)]
    unit = [field.one] + [field.zero] * (n - 1)
    # x^i x^j = x^(i+j) below n: row k holds the columns i*n + (k - i)
    mu = Matrix.from_nonzeros([{i * n + k - i: field.one for i in range(k + 1)} for k in range(n)], n * n, field)
    return FiniteAlgebra(labels, unit, mu, field)


def _structure_key(lam: FiniteAlgebra):
    """The field, unit and product matrix of lam as one hashable value, kept
    on lam: equal algebras built separately have equal keys, and equal
    structure constants over different fields do not."""
    if lam._key is None:
        lam._key = (lam.field, lam.dim, tuple(lam.unit), tuple(map(tuple, lam.mult_matrix().nonzeros())))
    return lam._key


# The per-algebra store: everything built once per algebra (enveloping
# algebra, diagonal bimodule, periodic resolutions, differential matrices,
# Hochschild contexts, bar syzygies, Tate-unit verdicts, normalizing maps,
# generators) lives here for the life of the process, keyed on the
# algebra's structure so that equal algebras built separately share
# entries.  Nothing in the package runs concurrently, so it needs no lock.
_store = {}


def _per_algebra(build):
    """Decorator: keep build(lam, *args) in the store, built on first use.

    The key is the positional arguments as passed, so a stored function
    takes no defaults and no keywords: f(lam, p) and f(lam, p, False)
    would be two entries for one value.
    """

    @functools.wraps(build)
    def memo(lam, *args):
        key = (_structure_key(lam), build.__qualname__, args)
        value = _store.get(key)
        if value is None:
            value = _store[key] = build(lam, *args)
        return value

    return memo


@_per_algebra
def _generators(lam: FiniteAlgebra):
    """Basis indices that generate lam as a unital algebra, chosen greedily:
    each is the first basis vector outside the subalgebra of the earlier ones."""
    ident = Matrix.identity(lam.dim, lam.field)
    gens, span = [], image_basis(Matrix.column_vector(lam.unit, lam.field))
    for b in range(lam.dim):
        grown = image_basis(span.matrix.stack(ident.select_rows([b])).transpose())
        if grown.dim > span.dim:
            gens.append(b)
        while grown.dim > span.dim:  # close the span under products; it holds 1, so it only grows
            span, words = grown, grown.matrix.transpose()
            grown = image_basis(compose(lam.mult_matrix(), [words, words]))
    return tuple(gens)


@_per_algebra
def _normalizing_maps(lam: FiniteAlgebra):
    """(J, P) for Lambda-bar = Lambda / k.1, on the basis indices other than u,
    the first index in the unit's support.

    J: Lambda-bar -> Lambda includes those basis vectors, and P: Lambda ->
    Lambda-bar keeps them and sends e_u to -(1/c_u) sum_{j != u} c_j e_j,
    where 1 = sum_j c_j e_j; so P.1 = 0, P.J = I and I - J.P maps into k.1.

    The one definition of Lambda-bar: the normalized bar resolution (algebra)
    and the normalized Hochschild complex (hochschild) are both built on it,
    so a unit need not be a basis vector.
    """
    field = lam.field
    u = next(i for i, c in enumerate(lam.unit) if c)
    rest = [j for j in range(lam.dim) if j != u]
    scale = -field.inv(lam.unit[u])
    P = Matrix.from_nonzeros([{j: field.one, u: scale * lam.unit[j]} for j in rest], lam.dim, field)
    J = Matrix.from_nonzeros([{j: field.one} for j in rest], lam.dim, field).transpose()
    return J, P


class LaurentAlgebra:
    """L[i^{+-1}]: the base algebra with a formal central unit of degree -2.

    Every homogeneous element of degree -2j is l iota^j with l in the base;
    the generator iota is central and invertible by construction, so only
    the base is stored.
    """

    def __init__(self, base: FiniteAlgebra):
        self.base = base

    def __repr__(self):
        return "LaurentAlgebra(%r)" % (self.base,)

    def __eq__(self, other):
        return isinstance(other, LaurentAlgebra) and _structure_key(self.base) == _structure_key(other.base)
