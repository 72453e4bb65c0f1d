"""DG algebras, their deterministic contractions and Laurent cohomology.

The DG algebras handled here are either 2-periodic (stored folded, with a
component for each parity) or concentrated in finitely many degrees.  Each
keeps its product and differential once, as matrices on the direct sum of
its components, and its axioms and its contraction's identities are
identities of whole-space matrices, checked as a FiniteAlgebra's are.  A
contraction (p, i, h) onto the cohomology is built and verified once per
algebra; for a periodic algebra whose cohomology is of Laurent form
H0 (x) k[i^{+-1}], it witnesses H0 as a LaurentAlgebra.  Homotopy transfer
along it is in `ainfty`.
"""

from __future__ import annotations

from .finite import AlgebraSpecError, FiniteAlgebra, LaurentAlgebra, _check_unit_and_associativity, _dict, _first_difference, _get, _list, _parse_int, _parse_matrix, _parse_scalar
from .linalg import Matrix, QQ, SubspaceBasis, _echelon_of, _sparse, compose, kernel_basis, kron_sum, solve_matrix


class NotLaurentForm(Exception):
    pass


# ---------------------------------------------------------------------------
# DG algebras (folded-periodic or finite support)


class DGAlgebra:
    """A DG algebra with either a 2-periodic (folded) or finite grading.

    For the periodic case the degrees are the parities 0, 1 and the stored
    data repeats 2-periodically in the obvious way; d has degree +1.  Every
    product block is built and shape-checked at construction, and a table at
    a degree outside dims is refused.  On V, the sum of the components with
    degrees in order, the product is one n x n^2 matrix M (a product landing
    outside dims is zero) and d one n x n matrix D, and the axioms are
    verified as identities of these: D D = 0, the unit laws and
    M (M (x) I) = M (I (x) M) as for a FiniteAlgebra, d(1) = 0 and Leibniz
    D M = M (D (x) I) + M (S (x) D), S = (-1)^degree on V.  An error names
    the degrees of the first failing column.
    """

    def __init__(self, dims, unit, mult, diff, periodic=True, labels=None, field=QQ):
        self.periodic = periodic
        self.dims = dict(dims)  # degree -> dimension
        self.unit = list(unit)  # vector in degree 0
        self.mult = mult  # (d1, d2) -> list[dim1] of list[dim2] of vectors
        self.diff = diff  # degree -> Matrix (dims[deg+1] x dims[deg])
        self.labels = labels or {}
        self.field = field
        self._contractions = {}  # scheme -> verified ContractionData
        if periodic:
            if not set(self.dims) <= {0, 1}:
                raise AlgebraSpecError("periodic DG algebra: degrees must be 0 or 1, got %r" % sorted(self.dims))
            self.dims = {0: 0, 1: 0, **self.dims}
        if self.dim(0) == 0:
            raise AlgebraSpecError("need a degree-0 component containing the unit")
        if len(self.unit) != self.dim(0):
            raise AlgebraSpecError("unit: expected %d entries, got %d" % (self.dim(0), len(self.unit)))
        for deg, dm in sorted(diff.items()):
            if dm.rows != self.dim(self.deg_next(deg)) or dm.cols != self.dim(deg):
                raise AlgebraSpecError("differential shape mismatch at degree %r" % deg)
        for d1, d2 in mult:
            if d1 not in self.dims or d2 not in self.dims:
                raise AlgebraSpecError("multiplication table at degrees (%r,%r) outside dims" % (d1, d2))
        self._blocks = {(d1, d2): self._block(d1, d2) for d1 in self.degrees() for d2 in self.degrees()}
        self._proj, self._degree_of = _direct_sum(self.dims, field)
        n, proj = len(self._degree_of), self._proj
        parts = [(field.one, [compose(proj[t].transpose() * m, [proj[d1], proj[d2]])]) for (d1, d2), m in self._blocks.items() if (t := self.deg_add(d1, d2)) in proj]
        self._M = kron_sum(parts, n, n * n, field)
        self._D = _on_sum({(self.deg_next(deg), deg): dm for deg, dm in diff.items()}, proj, proj, field)
        self._check()

    def degrees(self):
        return sorted(self.dims)

    def deg_add(self, d1, d2):
        s = d1 + d2
        return s % 2 if self.periodic else s

    def deg_next(self, d):
        return (d + 1) % 2 if self.periodic else d + 1

    def deg_prev(self, d):
        return (d - 1) % 2 if self.periodic else d - 1

    def dim(self, d):
        return self.dims.get(d, 0)

    def _block(self, d1, d2):
        """The product on degrees (d1, d2) from its table, shape-checked; zero without one."""
        n1, n2, nt = self.dim(d1), self.dim(d2), self.dim(self.deg_add(d1, d2))
        table = self.mult.get((d1, d2))
        if table is None:
            return Matrix.zeros(nt, n1 * n2, self.field)
        if len(table) != n1 or any(len(row) != n2 or any(len(v) != nt for v in row) for row in table):
            raise AlgebraSpecError("multiplication table shape mismatch at degrees (%r,%r)" % (d1, d2))
        return Matrix([[v[r] for row in table for v in row] for r in range(nt)], self.field, cols=n1 * n2)

    def mult_matrix(self, d1, d2):
        """The product on degrees (d1, d2) as a matrix; column i*dim(d2)+j is e_i e_j."""
        return self._blocks[(d1, d2)]

    def mul_vectors(self, d1, u, d2, v):
        """Product of u (degree d1) and v (degree d2)."""
        f = self.field
        return compose(self.mult_matrix(d1, d2), [Matrix.column_vector(u, f), Matrix.column_vector(v, f)]).column(0)

    def d_matrix(self, deg):
        return self.diff.get(deg) or Matrix.zeros(self.dim(self.deg_next(deg)), self.dim(deg), self.field)

    def _check(self):
        f, M, D, degree_of, n = self.field, self._M, self._D, self._degree_of, len(self._degree_of)
        deg = _first_difference(D * D, Matrix.zeros(n, n, f), degree_of.__getitem__)
        if deg is not None:
            raise AlgebraSpecError("d^2 != 0 at degree %r" % deg)
        unit = self._proj[0].transpose().apply(self.unit)
        _check_unit_and_associativity(M, unit, degree_of.__getitem__, "in degree %r", "at degrees (%r,%r,%r)")
        if any(D.apply(unit)):
            raise AlgebraSpecError("unit is not a cocycle")
        sign = Matrix.from_nonzeros([{a: -f.one if deg % 2 else f.one} for a, deg in enumerate(degree_of)], n, f)
        rhs = compose(M, [D, Matrix.identity(n, f)]) + compose(M, [sign, D])
        pair = _first_difference(D * M, rhs, lambda c: (degree_of[c // n], degree_of[c % n]))
        if pair is not None:
            raise AlgebraSpecError("Leibniz fails at degrees (%r,%r)" % pair)

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
        if not isinstance(periodic, bool):
            raise AlgebraSpecError("DG dump periodic: expected true or false, got %r" % (periodic,))
        dims = {_parse_int(k, "DG dump dims"): v for k, v in _dict(get("dims"), "DG dump dims").items()}
        if not all(isinstance(v, int) and v >= 0 for v in dims.values()):
            raise AlgebraSpecError("DG dump dims: expected non-negative integer dimensions, got %r" % get("dims"))
        unit = [sc(x) for x in _list(get("unit"), "DG dump unit")]
        mult = {}
        for key, table in _dict(get("mult"), "DG dump mult").items():
            # a key of three or more degrees leaves a comma in d2, which is no integer
            d1, d2 = (_parse_int(t, "DG dump mult key %r" % key) for t in key.partition(",")[::2])
            at = "DG dump mult[%s]" % key
            mult[(d1, d2)] = [[[sc(x) for x in _list(vec, at)] for vec in _list(row, at)] for row in _list(table, at)]
        diff = {}
        for k, rows in _dict(get("diff"), "DG dump diff").items():
            deg = _parse_int(k, "DG dump diff")
            tgt, src = dims.get((deg + 1) % 2 if periodic else deg + 1, 0), dims.get(deg, 0)
            diff[deg] = _parse_matrix(field, rows, src, "DG dump diff[%s]" % k) if rows else Matrix.zeros(tgt, src, field)
        return DGAlgebra(dims, unit, mult, diff, periodic=periodic, labels=_dict(data.get("labels", {}), "DG dump labels"), field=field)

    def __repr__(self):
        return "DGAlgebra(%s, dims=%r)" % ("periodic" if self.periodic else "bounded", self.dims)


def _direct_sum(dims, field):
    """(projections, degree_of) for the direct sum of the components dims,
    degrees in order: projections[deg] maps it onto the component of degree
    deg, and degree_of[a] is the degree of its basis index a."""
    degree_of = [deg for deg in sorted(dims) for _ in range(dims[deg])]
    ident = Matrix.identity(len(degree_of), field)
    return {deg: ident.select_rows([a for a, d in enumerate(degree_of) if d == deg]) for deg in dims}, degree_of


def _on_sum(blocks, rows, cols, field):
    """The map between two direct sums, given by their projections rows and
    cols, whose block from component c to component r is blocks[(r, c)].  A
    block at a degree that a sum does not have is empty and adds nothing."""
    n_rows, n_cols = (sum(p.rows for p in side.values()) for side in (rows, cols))
    parts = [(field.one, [rows[r].transpose() * m * cols[c]]) for (r, c), m in blocks.items() if r in rows and c in cols]
    return kron_sum(parts, n_rows, n_cols, field)


# ---------------------------------------------------------------------------
# Contractions


class ContractionData:
    """Deterministic harmonious contraction (p, i, h) of a DG algebra.

    p i = id, d h + h d = id - i p and the side conditions h^2 = 0, h i = 0,
    p h = 0 (which follows from the others) hold by construction.  verify
    checks them for the whole-space maps P, I and Hm (h, of degree -1) on V,
    the sum of the components, and H, that of the cohomology: P I = id_H,
    D Hm + Hm D = id_V - I P, Hm Hm = 0, Hm I = 0 and P Hm = 0, each error
    naming the degree of the first failing column.
    """

    def __init__(self, dga: DGAlgebra, p, i, h, h_classes):
        self.dga = dga
        self.p = p  # degree -> Matrix (hdim x dim)
        self.i = i  # degree -> Matrix (dim x hdim)
        self.h = h  # degree -> Matrix (dim(next-lower) x dim): degree -1 map
        self.h_dims = h_classes  # degree -> cohomology dimension
        self.h0 = None  # the LaurentAlgebra H0 it witnesses, built on first use

    def verify(self):
        dga, f = self.dga, self.dga.field
        proj, on_v = dga._proj, dga._degree_of
        hproj, on_h = _direct_sum(self.h_dims, f)
        n, nh = len(on_v), len(on_h)
        P = _on_sum({(deg, deg): m for deg, m in self.p.items()}, hproj, proj, f)
        I = _on_sum({(deg, deg): m for deg, m in self.i.items()}, proj, hproj, f)
        Hm = _on_sum({(dga.deg_prev(deg), deg): m for deg, m in self.h.items()}, proj, proj, f)
        for lhs, rhs, degree_of, message in (
            (P * I, Matrix.identity(nh, f), on_h, "p i != id in degree %r"),
            (dga._D * Hm + Hm * dga._D + I * P, Matrix.identity(n, f), on_v, "d h + h d != id - i p in degree %r"),
            (Hm * Hm, Matrix.zeros(n, n, f), on_v, "h^2 != 0 in degree %r"),
            (Hm * I, Matrix.zeros(n, nh, f), on_h, "h i != 0 in degree %r"),
            (P * Hm, Matrix.zeros(nh, n, f), on_v, "p h != 0 in degree %r"),
        ):
            deg = _first_difference(lhs, rhs, degree_of.__getitem__)
            if deg is not None:
                raise AlgebraSpecError(message % deg)


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
        span, ident = _echelon_of(f, kers[deg].matrix.nonzeros()), Matrix.identity(dim, f)
        w2[deg] = [e for e in map(ident.row, cands) if span.add(_sparse(e)) is not None]
    for deg in degs:
        dim, ker, prev = dga.dim(deg), kers[deg], dga.deg_prev(deg)
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
        raise NotLaurentForm("odd cohomology has dimension %d" % con.h_dims[1])
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
