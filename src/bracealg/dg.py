"""DG algebras, their deterministic contractions and Laurent cohomology.

The DG algebras handled here are either 2-periodic (stored folded, with a
component for each parity) or concentrated in finitely many degrees.  Each
keeps its product and differential once, as matrices M and D on V, the
direct sum of its components, and everything downstream is a map on V: the
axioms and the contraction's identities are identities of whole-space
matrices, checked as a FiniteAlgebra's are, and the contraction is one
triple (P, I, H) of maps between V and C, the direct sum of the cohomology
groups.  It is built and verified once per algebra; for a periodic algebra
whose cohomology is of Laurent form H0 (x) k[i^{+-1}], it witnesses H0 as a
LaurentAlgebra.  Homotopy transfer along it is in `ainfty`.
"""

from __future__ import annotations

from .finite import AlgebraSpecError, FiniteAlgebra, LaurentAlgebra, _check_unit_and_associativity, _dict, _first_difference, _get, _list, _parse_int, _parse_matrix, _parse_scalar
from .linalg import Matrix, QQ, _echelon_of, _sparse, compose, kernel_basis, solve_matrix


class NotLaurentForm(Exception):
    pass


# ---------------------------------------------------------------------------
# DG algebras (folded-periodic or finite support)


class DGAlgebra:
    """A DG algebra with either a 2-periodic (folded) or finite grading.

    For the periodic case the degrees are the parities 0, 1 and the stored
    data repeats 2-periodically in the obvious way; d has degree +1.  On V,
    the sum of the components with degrees in order, the product is one
    n x n^2 matrix M (a product landing outside dims is zero) and d one
    n x n matrix D, both read in one pass from the given tables, which are
    shape-checked; a table at a degree outside dims is refused.  mult and
    diff are kept only as that input.  The axioms are verified as
    identities of M and D: D D = 0, the unit laws and
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
        self._degree_of = _degrees(self.dims)  # of each basis index of V
        n = len(self._degree_of)
        entries = []  # (row, column, value) of M
        for (d1, d2), table in sorted(mult.items()):
            s1, s2, st = self._slot(d1), self._slot(d2), self._slot(self.deg_add(d1, d2))
            if len(table) != len(s1) or any(len(row) != len(s2) or any(len(v) != len(st) for v in row) for row in table):
                raise AlgebraSpecError("multiplication table shape mismatch at degrees (%r,%r)" % (d1, d2))
            entries += [(st[r], a * n + b, x) for a, row in zip(s1, table) for b, v in zip(s2, row) for r, x in enumerate(v) if x]
        self.M = _from_entries(entries, n, n * n, field)
        entries = []  # (row, column, value) of D
        for deg, dm in diff.items():
            src, tgt = self._slot(deg), self._slot(self.deg_next(deg))
            entries += [(tgt[r], src[c], x) for r, row in enumerate(dm.nonzeros()) for c, x in row]
        self.D = _from_entries(entries, n, n, field)
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

    def _slot(self, deg):
        """The basis indices of V that span the component of degree deg (none
        for a degree that dims does not have)."""
        start = sum(n for d, n in self.dims.items() if d < deg)
        return range(start, start + self.dim(deg))

    def on_sum(self, deg, vec):
        """vec, a vector of the component of degree deg, as a vector of V."""
        zero, slot = self.field.zero, self._slot(deg)
        return [zero] * slot.start + list(vec) + [zero] * (len(self._degree_of) - slot.stop)

    def _view(self, m, rows, cols):
        """The block of m (M or D) at the given rows and columns."""
        return Matrix([[m[r, c] for c in cols] for r in rows], self.field, cols=len(cols))

    def mult_matrix(self, d1, d2):
        """The product on degrees (d1, d2), read off M; column i*dim(d2)+j is e_i e_j."""
        n = len(self._degree_of)
        return self._view(self.M, self._slot(self.deg_add(d1, d2)), [a * n + b for a in self._slot(d1) for b in self._slot(d2)])

    def d_matrix(self, deg):
        """d on the component of degree deg, read off D."""
        return self._view(self.D, self._slot(self.deg_next(deg)), self._slot(deg))

    def _check(self):
        f, M, D, degree_of, n = self.field, self.M, self.D, self._degree_of, len(self._degree_of)
        deg = _first_difference(D * D, Matrix.zeros(n, n, f), degree_of.__getitem__)
        if deg is not None:
            raise AlgebraSpecError("d^2 != 0 at degree %r" % deg)
        unit = self.on_sum(0, self.unit)
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


def _from_entries(entries, rows, cols, field):
    """The rows x cols matrix with the given (row, column, value) entries,
    no position given twice, and zero everywhere else."""
    out = [{} for _ in range(rows)]
    for r, c, x in entries:
        out[r][c] = x
    return Matrix.from_nonzeros(out, cols, field)


def _degrees(dims):
    """The degree of each basis index of the direct sum of the components of
    dimensions dims, degrees in order."""
    return [deg for deg in sorted(dims) for _ in range(dims[deg])]


# ---------------------------------------------------------------------------
# Contractions


class ContractionData:
    """Deterministic harmonious contraction of a DG algebra onto its cohomology.

    P: V -> C, I: C -> V and H: V -> V (of degree -1) are maps between the
    sum V of the components and the sum C of the cohomology groups, of
    dimensions h_dims, both with degrees in order.  P I = id_C,
    D H + H D = id_V - I P and the side conditions H H = 0, H I = 0 and
    P H = 0 (which follows from the others) hold by construction; verify
    checks them in that order, each error naming the degree of the first
    failing column.
    """

    def __init__(self, dga: DGAlgebra, P, I, H, h_dims):
        self.dga = dga
        self.P = P  # Matrix (dim C x dim V)
        self.I = I  # Matrix (dim V x dim C)
        self.H = H  # Matrix (dim V x dim V)
        self.h_dims = h_dims  # degree -> cohomology dimension
        self.h0 = None  # the LaurentAlgebra H0 it witnesses, built on first use

    def verify(self):
        f, D, P, I, H = self.dga.field, self.dga.D, self.P, self.I, self.H
        on_v, on_c = self.dga._degree_of, _degrees(self.h_dims)
        n, nc = len(on_v), len(on_c)
        for lhs, rhs, degree_of, message in (
            (P * I, Matrix.identity(nc, f), on_c, "p i != id in degree %r"),
            (D * H + H * D + I * P, Matrix.identity(n, f), on_v, "d h + h d != id - i p in degree %r"),
            (H * H, Matrix.zeros(n, n, f), on_v, "h^2 != 0 in degree %r"),
            (H * I, Matrix.zeros(n, nc, f), on_c, "h i != 0 in degree %r"),
            (P * H, Matrix.zeros(nc, n, f), on_v, "p h != 0 in degree %r"),
        ):
            deg = _first_difference(lhs, rhs, degree_of.__getitem__)
            if deg is not None:
                raise AlgebraSpecError(message % deg)


def make_contraction(dga: DGAlgebra, scheme="default") -> ContractionData:
    """Echelon-pivot contraction; `scheme` varies the complement choices.

    V splits as im d + W1 + W2, with W2 a complement of ker d among the
    basis vectors (taken in index order, or in reverse for "reverse") and
    W1 one of im d in ker d.  d is injective on W2 and maps it onto im d,
    so d(W2) is the basis of im d used, and H inverts d there.  The unit is
    forced to represent its class first, so I(1) = 1; together with the
    side conditions this makes the transferred operations strictly unital.
    Every choice is greedy and the components do not interact, so each
    component's part is the choice made on that component alone.  It is
    built and verified once per DG algebra and scheme; later calls return
    the same contraction.
    """
    # candidates ordering defines the scheme; "reverse" stays because
    # test_transfer_model_independence_of_class transfers along it to
    # show that [m4] does not depend on the contraction
    if scheme not in ("default", "reverse"):
        raise AlgebraSpecError("unknown contraction scheme %r" % scheme)
    con = dga._contractions.get(scheme)
    if con is not None:
        return con
    f, D, degree_of = dga.field, dga.D, dga._degree_of
    n = len(degree_of)
    ker = kernel_basis(D)
    # W2: complement of ker d among the basis vectors
    span = _echelon_of(f, ker.matrix.nonzeros())
    w2 = [a for a in (range(n)[::-1] if scheme == "reverse" else range(n)) if span.add({a: f.one}) is not None]
    columns = D.transpose().nonzeros()
    im = [columns[a] for a in w2]
    # W1: complement of im d in ker d, the unit first; d(1) = 0, as the
    # DGAlgebra constructor checks, so the unit lies in ker d
    span = _echelon_of(f, im)
    unit = _sparse(dga.on_sum(0, dga.unit))
    if span.add(dict(unit)) is None:
        raise NotLaurentForm("unit class vanishes in cohomology")
    w1 = [list(unit.items())] + [v for v in ker.matrix.nonzeros() if span.add(dict(v)) is not None]
    w1.sort(key=lambda v: degree_of[v[0][0]])  # stable: the unit stays first in degree 0
    h_dims = {deg: sum(degree_of[v[0][0]] == deg for v in w1) for deg in dga.degrees()}
    # P and H from the decomposition im + W1 + W2, whose basis B is
    # invertible: d is injective on W2, W1 completes im d to ker d and W2
    # completes ker d to V
    W2 = Matrix.from_nonzeros([{a: f.one} for a in w2], n, f)
    Binv = solve_matrix(Matrix.from_nonzeros(map(dict, im + w1), n, f).stack(W2).transpose(), Matrix.identity(n, f))
    P = Binv.select_rows(range(len(im), len(im) + len(w1)))
    I = Matrix.from_nonzeros(map(dict, w1), n, f).transpose()
    # H(v) := W2-preimage of the im-part of v
    H = W2.transpose() * Binv.select_rows(range(len(im)))
    contraction = ContractionData(dga, P, I, H, h_dims)
    contraction.verify()
    dga._contractions[scheme] = contraction
    return contraction


# ---------------------------------------------------------------------------
# Cohomology algebra and Laurent form


def cohomology_algebra(dga: DGAlgebra):
    """H(dga) as a Laurent algebra H0 (x) k[i^{+-1}].

    Fails with NotLaurentForm when the unit class dies, when the input is
    not 2-periodic (a bounded algebra can never have Laurent cohomology), or
    when the odd cohomology is nonzero.
    """
    return _laurent_h0(make_contraction(dga))


def _laurent_h0(con: ContractionData) -> LaurentAlgebra:
    """H0 (x) k[i^{+-1}] with the product P(I(a) I(b)) and unit P(1), for the
    contraction con of a periodic algebra with zero odd cohomology; then C
    is H0 and P, I map between it and V.  Built once per contraction."""
    if con.h0 is None:
        dga = con.dga
        if not dga.periodic:
            raise NotLaurentForm("bounded DG algebras do not have Laurent cohomology")
        if con.h_dims[1]:
            raise NotLaurentForm("odd cohomology has dimension %d" % con.h_dims[1])
        # h_dims[0] >= 1: make_contraction puts the unit into W1 or refuses
        labels = ["h%d" % t for t in range(con.h_dims[0])]
        labels[0] = "1"
        mu = con.P * compose(dga.M, [con.I, con.I])
        con.h0 = LaurentAlgebra(FiniteAlgebra(labels, con.P.apply(dga.on_sum(0, dga.unit)), mu, dga.field))
    return con.h0
