"""DG algebras, their deterministic contractions and Laurent cohomology.

The DG algebras handled here are either 2-periodic (stored folded, with a
component for each parity) or concentrated in finitely many degrees.  A
contraction (p, i, h) onto the cohomology is built and verified once per
algebra; for a periodic algebra whose cohomology is of Laurent form
H0 (x) k[i^{+-1}], it witnesses H0 as a LaurentAlgebra.  Homotopy transfer
along it is in `ainfty`.
"""

from __future__ import annotations

from .finite import AlgebraSpecError, FiniteAlgebra, LaurentAlgebra, _dict, _get, _parse_int, _parse_matrix, _parse_scalar
from .linalg import Matrix, QQ, SubspaceBasis, _echelon_of, _sparse, compose, kernel_basis, solve_matrix


class NotLaurentForm(Exception):
    pass


# ---------------------------------------------------------------------------
# DG algebras (folded-periodic or finite support)


class DGAlgebra:
    """A DG algebra with either a 2-periodic (folded) or finite grading.

    For the periodic case the degrees are the parities 0, 1 and the stored
    data repeats 2-periodically in the obvious way; d has degree +1 and the
    Leibniz rule, associativity, unitality and d^2 = 0 are all verified at
    construction.
    """

    def __init__(self, dims, unit, mult, diff, periodic=True, labels=None, field=QQ):
        self.periodic = periodic
        self.dims = dict(dims)  # degree -> dimension
        self.unit = list(unit)  # vector in degree 0
        self.mult = mult  # (d1, d2) -> list[dim1] of list[dim2] of vectors
        self.diff = diff  # degree -> Matrix (dims[deg+1] x dims[deg])
        self.labels = labels or {}
        self.field = field
        self._mult_mats = {}
        self._contractions = {}  # scheme -> verified ContractionData
        self._check()

    def degrees(self):
        return sorted(self.dims)

    def deg_add(self, d1, d2):
        s = d1 + d2
        return s % 2 if self.periodic else s

    def deg_next(self, d):
        return (d + 1) % 2 if self.periodic else d + 1

    def dim(self, d):
        return self.dims.get(d, 0)

    def mult_matrix(self, d1, d2):
        """The product on degrees (d1, d2) as a matrix; column i*dim(d2)+j is e_i e_j."""
        m = self._mult_mats.get((d1, d2))
        if m is None:
            n1, n2, nt = self.dim(d1), self.dim(d2), self.dim(self.deg_add(d1, d2))
            table = self.mult.get((d1, d2))
            if table is None:
                m = Matrix.zeros(nt, n1 * n2, self.field)
            else:
                if len(table) != n1 or any(len(row) != n2 or any(len(v) != nt for v in row) for row in table):
                    raise AlgebraSpecError("multiplication table shape mismatch at degrees (%r,%r)" % (d1, d2))
                m = Matrix([[v[r] for row in table for v in row] for r in range(nt)], self.field, cols=n1 * n2)
            self._mult_mats[(d1, d2)] = m
        return m

    def mul_vectors(self, d1, u, d2, v):
        """Product of u (degree d1) and v (degree d2)."""
        f = self.field
        return compose(self.mult_matrix(d1, d2), [Matrix.column_vector(u, f), Matrix.column_vector(v, f)]).column(0)

    def d_matrix(self, deg):
        m = self.diff.get(deg)
        if m is None:
            return Matrix.zeros(self.dim(self.deg_next(deg)), self.dim(deg), self.field)
        return m

    def _check(self):
        f = self.field
        for deg in self.degrees():
            dm = self.d_matrix(deg)
            if dm.rows != self.dim(self.deg_next(deg)) or dm.cols != self.dim(deg):
                raise AlgebraSpecError("differential shape mismatch at degree %r" % deg)
        # d^2 = 0
        for deg in self.degrees():
            nxt = self.deg_next(deg)
            if self.dim(nxt) and self.dim(self.deg_next(nxt)):
                if not (self.d_matrix(nxt) * self.d_matrix(deg)).is_zero():
                    raise AlgebraSpecError("d^2 != 0 at degree %r" % deg)
        # unit laws, associativity and Leibniz, as matrix identities on all
        # basis vectors, pairs and triples
        if self.dim(0) == 0:
            raise AlgebraSpecError("need a degree-0 component containing the unit")
        if len(self.unit) != self.dim(0):
            raise AlgebraSpecError("unit: expected %d entries, got %d" % (self.dim(0), len(self.unit)))
        unit = Matrix.column_vector(self.unit, f)
        ident = {deg: Matrix.identity(self.dim(deg), f) for deg in self.degrees()}
        for deg in self.degrees():
            if compose(self.mult_matrix(0, deg), [unit, ident[deg]]) != ident[deg]:
                raise AlgebraSpecError("left unit law fails in degree %r" % deg)
            if compose(self.mult_matrix(deg, 0), [ident[deg], unit]) != ident[deg]:
                raise AlgebraSpecError("right unit law fails in degree %r" % deg)
        if any(self.d_matrix(0).apply(self.unit)):
            raise AlgebraSpecError("unit is not a cocycle")
        degs = self.degrees()
        for d1 in degs:
            for d2 in degs:
                for d3 in degs:
                    if not (self.dim(d1) and self.dim(d2) and self.dim(d3)):
                        continue
                    t12 = self.deg_add(d1, d2)
                    if not self.periodic and (t12 not in self.dims or self.deg_add(t12, d3) not in self.dims):
                        continue
                    lhs = compose(self.mult_matrix(t12, d3), [self.mult_matrix(d1, d2), ident[d3]])
                    rhs = compose(self.mult_matrix(d1, self.deg_add(d2, d3)), [ident[d1], self.mult_matrix(d2, d3)])
                    if lhs != rhs:
                        raise AlgebraSpecError("associativity fails at degrees (%r,%r,%r)" % (d1, d2, d3))
        for d1 in degs:
            for d2 in degs:
                if not (self.dim(d1) and self.dim(d2)):
                    continue
                # d(ab) = d(a) b + (-1)^|a| a d(b)
                lhs = self.d_matrix(self.deg_add(d1, d2)) * self.mult_matrix(d1, d2)
                rhs = compose(self.mult_matrix(self.deg_next(d1), d2), [self.d_matrix(d1), ident[d2]])
                rhs2 = compose(self.mult_matrix(d1, self.deg_next(d2)), [ident[d1], self.d_matrix(d2)])
                if lhs != (rhs + rhs2 if d1 % 2 == 0 else rhs - rhs2):
                    raise AlgebraSpecError("Leibniz fails at degrees (%r,%r)" % (d1, d2))

    def to_json(self):
        ser = self.field.to_str
        return {
            "periodic": self.periodic,
            "dims": {str(k): v for k, v in self.dims.items()},
            "unit": [ser(x) for x in self.unit],
            "mult": {
                "%d,%d" % key: [[[ser(x) for x in vec] for vec in row] for row in table]
                for key, table in self.mult.items()
            },
            "diff": {
                str(k): [[ser(x) for x in row] for row in m.entries]
                for k, m in self.diff.items()
            },
            "labels": {str(k): v for k, v in self.labels.items()},
        }

    @staticmethod
    def from_json(data, field=QQ):
        def sc(x):
            return _parse_scalar(field, x, "DG dump")

        def get(key):
            return _get(data, key, "DG dump")

        periodic = get("periodic")
        dims = {_parse_int(k, "DG dump dims"): v for k, v in _dict(get("dims"), "DG dump dims").items()}
        if not all(isinstance(v, int) for v in dims.values()):
            raise AlgebraSpecError("DG dump dims: expected integer dimensions, got %r" % get("dims"))
        unit = [sc(x) for x in get("unit")]
        mult = {}
        for key, table in _dict(get("mult"), "DG dump mult").items():
            # a key of three or more degrees leaves a comma in d2, which is no integer
            d1, d2 = (_parse_int(t, "DG dump mult key %r" % key) for t in key.partition(",")[::2])
            mult[(d1, d2)] = [[[sc(x) for x in vec] for vec in row] for row in table]
        diff = {}
        for k, rows in _dict(get("diff"), "DG dump diff").items():
            deg = _parse_int(k, "DG dump diff")
            tgt = dims.get((deg + 1) % 2 if periodic else deg + 1, 0)
            src = dims.get(deg, 0)
            diff[deg] = _parse_matrix(field, rows, src, "DG dump diff[%s]" % k) if rows else Matrix.zeros(tgt, src, field)
        return DGAlgebra(dims, unit, mult, diff, periodic=periodic, labels=data.get("labels"), field=field)

    def __repr__(self):
        return "DGAlgebra(%s, dims=%r)" % ("periodic" if self.periodic else "bounded", self.dims)


def _basis(field, n, i):
    v = [field.zero] * n
    v[i] = field.one
    return v


# ---------------------------------------------------------------------------
# Contractions


class ContractionData:
    """Deterministic harmonious contraction (p, i, h) of a DG algebra.

    p i = id, d h + h d = id - i p, and the side conditions
    h^2 = 0, h i = 0, p h = 0 hold by construction and are verified.
    """

    def __init__(self, dga: DGAlgebra, p, i, h, h_classes):
        self.dga = dga
        self.p = p  # degree -> Matrix (hdim x dim)
        self.i = i  # degree -> Matrix (dim x hdim)
        self.h = h  # degree -> Matrix (dim(next-lower) x dim): degree -1 map
        self.h_dims = h_classes  # degree -> cohomology dimension
        self.h0 = None  # the LaurentAlgebra H0 it witnesses, built on first use

    def verify(self):
        dga = self.dga
        f = dga.field
        for deg in dga.degrees():
            dim = dga.dim(deg)
            if dim == 0:
                continue
            prev = (deg - 1) % 2 if dga.periodic else deg - 1
            nxt = dga.deg_next(deg)
            pi = self.p[deg] * self.i[deg]
            if pi != Matrix.identity(self.h_dims.get(deg, 0), f) and self.h_dims.get(deg, 0):
                raise AlgebraSpecError("p i != id in degree %r" % deg)
            dh = dga.d_matrix(prev) * self.h[deg] if dga.dim(prev) else Matrix.zeros(dim, dim, f)
            hd = self.h[nxt] * dga.d_matrix(deg) if dga.dim(nxt) else Matrix.zeros(dim, dim, f)
            ip = self.i[deg] * self.p[deg] if self.h_dims.get(deg, 0) else Matrix.zeros(dim, dim, f)
            if dh + hd + ip != Matrix.identity(dim, f):
                raise AlgebraSpecError("d h + h d != id - i p in degree %r" % deg)
            if dga.dim(prev) and not (self.h[prev] * self.h[deg]).is_zero():
                raise AlgebraSpecError("h^2 != 0 in degree %r" % deg)
            if self.h_dims.get(deg, 0):
                if not (self.h[deg] * self.i[deg]).is_zero():
                    raise AlgebraSpecError("h i != 0 in degree %r" % deg)
            if dga.dim(prev) and self.h_dims.get(prev, 0):
                if not (self.p[prev] * self.h[deg]).is_zero():
                    raise AlgebraSpecError("p h != 0 in degree %r" % deg)


def make_contraction(dga: DGAlgebra, scheme="default") -> ContractionData:
    """Echelon-pivot contraction; `scheme` varies the complement choices.

    Each component splits as im d + W1 + W2, with W2 a complement of the
    kernel and W1 one of the image in the kernel.  d is injective on W2 and
    maps it onto the image, so d(W2 of the previous degree) is the basis of
    im d used, and h inverts d there.  In degree zero the unit is forced to
    represent its class first, so i(1) = 1; together with the side
    conditions this makes the transferred operations strictly unital.  It
    is built and verified once per DG algebra and scheme; later calls
    return the same contraction.
    """
    # candidates ordering defines the scheme; "reverse" stays because
    # test_transfer_model_independence_of_class transfers along it to
    # show that [m4] does not depend on the contraction
    if scheme not in ("default", "reverse"):
        raise AlgebraSpecError("unknown contraction scheme %r" % scheme)
    con = dga._contractions.get(scheme)
    if con is not None:
        return con
    f = dga.field
    p, i, h, hdims = {}, {}, {}, {}
    degs = dga.degrees()
    kers, w2 = {}, {}
    for deg in degs:
        dim = dga.dim(deg)
        kers[deg] = kernel_basis(dga.d_matrix(deg)) if dim else SubspaceBasis(0, [], f)
        # W2: complement of ker in the whole component
        cands = range(dim)[::-1] if scheme == "reverse" else range(dim)
        span = _echelon_of(f, kers[deg].matrix.nonzeros())
        w2[deg] = [e for e in (_basis(f, dim, c) for c in cands) if span.add(_sparse(e)) is not None]
    for deg in degs:
        dim = dga.dim(deg)
        ker = kers[deg]
        prev = (deg - 1) % 2 if dga.periodic else deg - 1
        w2_prev = w2.get(prev, [])
        im = [dga.d_matrix(prev).apply(v) for v in w2_prev]
        # W1: complement of im in ker (unit first in degree 0)
        w1_vecs = []
        span = _echelon_of(f, [_sparse(v) for v in im])
        if deg == 0:
            if not ker.contains(dga.unit):
                raise NotLaurentForm("unit is not a cocycle")
            if span.add(_sparse(dga.unit)) is None:
                raise NotLaurentForm("unit class vanishes in cohomology")
            w1_vecs.append(list(dga.unit))
        w1_vecs += [v for v in ker.vectors() if span.add(_sparse(v)) is not None]
        hdims[deg] = len(w1_vecs)
        # p and h from the decomposition im + W1 + W2
        basis_rows = im + w1_vecs + w2[deg]
        B = Matrix(basis_rows, f, cols=dim).transpose()
        Binv = solve_matrix(B, Matrix.identity(dim, f))
        if Binv is None:
            raise AlgebraSpecError("component decomposition failed")
        nim = len(im)
        i[deg] = Matrix(w1_vecs, f, cols=dim).transpose()
        p[deg] = Binv.select_rows(range(nim, nim + len(w1_vecs)))
        # h(v) := W2-preimage of the im-part of v
        h[deg] = Matrix(w2_prev, f, cols=dga.dim(prev)).transpose() * Binv.select_rows(range(nim))
    contraction = ContractionData(dga, p, i, h, hdims)
    contraction.verify()
    dga._contractions[scheme] = contraction
    return contraction


# ---------------------------------------------------------------------------
# Cohomology algebra and Laurent form


def cohomology_algebra(dga: DGAlgebra):
    """H(dga) as a Laurent algebra H0 (x) k[i^{+-1}].

    Fails with NotLaurentForm when the odd cohomology is nonzero, when the
    input is not 2-periodic (a bounded algebra can never have Laurent
    cohomology), or when the unit class dies.
    """
    _require_periodic(dga)
    con = make_contraction(dga)
    if con.h_dims.get(1, 0):
        raise NotLaurentForm(
            "odd cohomology has dimension %d" % con.h_dims[1]
        )
    if con.h_dims.get(0, 0) == 0:
        raise NotLaurentForm("zero cohomology")
    return _laurent_h0(con)


def _require_periodic(dga: DGAlgebra):
    if not dga.periodic:
        raise NotLaurentForm("bounded DG algebras do not have Laurent cohomology")


def _laurent_h0(con: ContractionData) -> LaurentAlgebra:
    """H0 (x) k[i^{+-1}] with the product p(i(a) i(b)) and unit p(1), for the
    contraction con.  Built once per contraction."""
    if con.h0 is None:
        dga = con.dga
        reps = con.i[0].transpose().entries
        mult = [[con.p[0].apply(dga.mul_vectors(0, a, 0, b)) for b in reps] for a in reps]
        labels = ["h%d" % t for t in range(con.h_dims[0])]
        labels[0] = "1"
        con.h0 = LaurentAlgebra(FiniteAlgebra(labels, con.p[0].apply(dga.unit), mult, dga.field))
    return con.h0
