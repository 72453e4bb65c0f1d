"""Hochschild cochains on a finite-dimensional algebra and their brace calculus.

A cochain lives on the Laurent extension L[i^{\\pm 1}] of the coefficient
algebra L (|i| = -2) but is stored finitely: a component of arity p is a
matrix dim(L) x dim(L)^p together with a single iota power recording the
internal degree, plus optional "weight" matrices recording polynomial
dependence on the iota powers of individual inputs, keyed by exponent
tuples.  iota-linear cochains have no weights; the fractional Euler
derivation is the basic example of a weight-one cochain.  One engine,
brace, computes on this representation, weighted or not; cup product, Lie
bracket and differential are braces, and the weight rule is stated once,
in brace's docstring.  Products of cohomology classes skip it: a class
keeps the reduced coordinates of a normalized representative, and the cup
and bracket tables of two lists of classes are compositions of their
coordinate matrices set side by side.

Sign convention: Koszul signs with respect to the total degree shifted by
-1 (the bar convention).  The binary product cochain is minus the algebra
multiplication; that normalisation is forced by unitality of the cup
product.  The convention is pinned operationally by the identity test
suite (d = [m2,-], d^2 = 0, the brace relation and the two compatibility
lemmas relating braces to the differential and the cup product).
"""

from __future__ import annotations

import math
from itertools import combinations, product

from .finite import AlgebraSpecError, FiniteAlgebra, _normalizing_maps, _per_algebra
from .linalg import Matrix, SubspaceBasis, compose, image_basis, kernel_basis, kron_sum, quotient_basis, solve


class CapTooLow(Exception):
    """An operation needed cochain components beyond the reliable range."""


class NotACocycle(Exception):
    pass


class WrongBidegree(Exception):
    pass


DEFAULT_CAP = 10


class Cochain:
    """A Hochschild cochain with iota bookkeeping and optional weights.

    comps[p] is a dict {weight-tuple: Matrix}; the weight tuple has length
    p, and the value of the component on inputs l_1 i^{j_1}, ..., l_p i^{j_p}
    is sum_e (prod_i j_i^{e_i}) M_e(l_1,...,l_p) * i^{iota + sum j_i}.  Column
    (i_1 ... i_p) in base dim, first input most significant, is the value on
    the basis inputs e_{i_1}, ..., e_{i_p}: the order of linalg.compose.
    Components with arity > cap are unknown rather than zero.
    """

    __slots__ = ("algebra", "iota", "comps", "cap")

    def __init__(self, algebra: FiniteAlgebra, iota=0, comps=None, cap=math.inf):
        self.algebra = algebra
        self.iota = iota
        self.comps = comps or {}
        self.cap = cap

    # -- constructors ---------------------------------------------------

    @staticmethod
    def zero(algebra, iota=0):
        return Cochain(algebra, iota, {}, math.inf)

    @staticmethod
    def from_matrix(algebra, p, matrix, iota=0, cap=math.inf):
        zero_w = (0,) * p
        return Cochain(algebra, iota, {p: {zero_w: matrix}}, cap)

    @staticmethod
    def unit_cochain(algebra):
        """The unit of L as a 0-cochain."""
        return Cochain.iota_cochain(algebra, 0)

    @staticmethod
    def iota_cochain(algebra, power=1):
        """The central element iota^power as a 0-cochain."""
        m = Matrix([[c] for c in algebra.unit], algebra.field)
        return Cochain.from_matrix(algebra, 0, m, power)

    @staticmethod
    def multiplication(algebra):
        """The product 2-cochain m2 (equal to minus the multiplication)."""
        return Cochain.from_matrix(algebra, 2, -algebra.mult_matrix(), 0)

    @staticmethod
    def euler(algebra):
        """The fractional Euler derivation a -> (|a|/2) a as a weight-one 1-cochain."""
        d = algebra.dim
        return Cochain(algebra, 0, {1: {(1,): -Matrix.identity(d, algebra.field)}}, math.inf)

    # -- bookkeeping -----------------------------------------------------

    def arities(self):
        return sorted(self.comps)

    def min_arity(self):
        ar = [p for p, c in self.comps.items() if c]
        return min(ar) if ar else None

    def is_iota_linear(self):
        return all(
            not any(e) or mat.is_zero()
            for comp in self.comps.values()
            for e, mat in comp.items()
        )

    def component_matrix(self, p, weights=None):
        d = self.algebra.dim
        w = weights if weights is not None else (0,) * p
        comp = self.comps.get(p)
        if comp is None or w not in comp:
            return Matrix.zeros(d, d**p, self.algebra.field)
        return comp[w]

    def with_cap(self, cap):
        return Cochain(self.algebra, self.iota, {p: dict(c) for p, c in self.comps.items() if p <= cap}, cap)

    def shift_iota(self, delta):
        return Cochain(self.algebra, self.iota + delta, self.comps, self.cap)

    # -- linear structure -------------------------------------------------

    def _merged(self, other, sign):
        if self.algebra is not other.algebra and self.algebra.mult != other.algebra.mult:
            raise AlgebraSpecError("cochain algebra mismatch")
        if self.iota != other.iota:
            if _support_empty(self.comps):
                return Cochain(other.algebra, other.iota, _scaled(other.comps, sign, other.algebra.field), min(self.cap, other.cap))
            if _support_empty(other.comps):
                return Cochain(self.algebra, self.iota, {p: dict(c) for p, c in self.comps.items()}, min(self.cap, other.cap))
            raise AlgebraSpecError("cannot add cochains of different internal degree")
        comps = {p: dict(c) for p, c in self.comps.items()}
        for p, comp in other.comps.items():
            tgt = comps.setdefault(p, {})
            for e, mat in comp.items():
                cur = tgt.get(e)
                new = mat.scale(sign) if sign != self.algebra.field.one else mat
                tgt[e] = cur + new if cur is not None else new
        return Cochain(self.algebra, self.iota, comps, min(self.cap, other.cap))

    def __add__(self, other):
        return self._merged(other, self.algebra.field.one)

    def __sub__(self, other):
        return self._merged(other, -self.algebra.field.one)

    def scale(self, c):
        return Cochain(self.algebra, self.iota, _scaled(self.comps, c, self.algebra.field), self.cap)

    def is_zero(self, up_to=None):
        bound = self.cap if up_to is None else min(up_to, self.cap)
        if up_to is not None and up_to > self.cap:
            raise CapTooLow("zero test up to %s exceeds reliable cap %s" % (up_to, self.cap))
        for p, comp in self.comps.items():
            if p <= bound:
                for mat in comp.values():
                    if not mat.is_zero():
                        return False
        return True

    def __eq__(self, other):
        if not isinstance(other, Cochain):
            return NotImplemented
        return (self - other).is_zero()

    # -- evaluation -------------------------------------------------------

    def evaluate(self, inputs):
        """Value on inputs [(vector, jpower), ...]; returns (vector, jpower).

        Only usable when all stored components of this arity agree on the
        output iota power, which they do by construction.
        """
        p = len(inputs)
        d = self.algebra.dim
        field = self.algebra.field
        out = Matrix.zeros(d, 1, field)
        comp = self.comps.get(p)
        if p > self.cap:
            raise CapTooLow("evaluation at arity %d beyond cap" % p)
        if comp:
            factors = [Matrix.column_vector(vec, field) for vec, _ in inputs]
            for e, mat in comp.items():
                wcoeff = 1
                for exp, (_, j) in zip(e, inputs):
                    if exp:
                        wcoeff *= j**exp
                if wcoeff:
                    out = out + compose(mat, factors).scale(field.of(wcoeff))
        jout = self.iota + sum(j for _, j in inputs)
        return out.column(0), jout

    def __repr__(self):
        ar = {p: len(c) for p, c in self.comps.items()}
        return "Cochain(iota=%d, arities=%r, cap=%s)" % (self.iota, ar, self.cap)

    def to_json(self):
        ser = self.algebra.field.to_str
        comps = {}
        for p, comp in sorted(self.comps.items()):
            entry = []
            for e, mat in sorted(comp.items()):
                entry.append({
                    "weights": list(e),
                    "matrix": [[ser(x) for x in row] for row in mat.entries],
                })
            comps[str(p)] = entry
        return {
            "iota_power": self.iota,
            "cap": None if self.cap == math.inf else self.cap,
            "components": comps,
        }


def _support_empty(comps):
    return all(mat.is_zero() for comp in comps.values() for mat in comp.values())


def _scaled(comps, c, field):
    return {p: {e: m.scale(c) for e, m in comp.items()} for p, comp in comps.items()}


# ---------------------------------------------------------------------------
# The brace engine


def _min_possible_arity(c: Cochain):
    """Smallest arity at which c can be nonzero (inf for the exact zero)."""
    m = c.min_arity()
    if m is not None:
        return m
    return c.cap + 1 if c.cap != math.inf else math.inf


def _times_linear(poly, q, positions):
    """poly * (q + sum_{u in positions} j_u), for poly a {weight: int} dict
    with brace's exponent-tuple weights."""
    out = {}
    for e, c in poly.items():
        out[e] = out.get(e, 0) + c * q
        for u in positions:
            f = e[:u] + (e[u] + 1,) + e[u + 1:]
            out[f] = out.get(f, 0) + c
    return {e: c for e, c in out.items() if c}


def brace(x0: Cochain, args, cap=None) -> Cochain:
    """The brace x0{y_1, ..., y_n}; vanishes when arity(x0) < n.

    The result's arity-P component collects every way of inserting the
    arguments, in order, into distinct inputs (slots) of an x0 component;
    the sign of a term is the Koszul sign for moving each y_k past the
    inputs that precede its block, all degrees shifted by -1.

    The weight rule: a weight is an exponent tuple (e_0, ..., e_{P-1}),
    standing for the monomial prod_u j_u^e_u in the iota powers j_u of the
    result's inputs.  y_k's weights move to its block.  x0's weight at a
    free slot moves to that slot's position; at the slot of y_k it sees the
    iota power of the inserted value, q_k + sum_{u in block} j_u with q_k
    the iota of y_k, so each unit of its exponent multiplies the weight
    polynomial by that linear form.  Each weight of each component is then
    the sum of its signed, weighted terms, added up once (kron_sum).
    """
    args = list(args)
    n = len(args)
    lam = x0.algebra
    field = lam.field
    if n == 0:
        return x0
    iota = x0.iota + sum(a.iota for a in args)
    # reliable range: one below the smallest arity receiving an unknown term
    amins = [_min_possible_arity(a) for a in args]
    x0min = _min_possible_arity(x0)
    limit = math.inf
    if x0.cap != math.inf:
        limit = min(limit, (x0.cap + 1) - n + sum(amins))
    for k, a in enumerate(args):
        if a.cap != math.inf:
            others = sum(m for t, m in enumerate(amins) if t != k)
            limit = min(limit, max(x0min, n) - n + (a.cap + 1) + others)
    if limit != math.inf:
        limit -= 1
    if cap is not None:
        limit = min(limit, cap)
    ident = Matrix.identity(lam.dim, field)
    choices = [[(pk, ek, mk) for pk, comp in a.comps.items() if pk <= a.cap for ek, mk in comp.items()] for a in args]
    parts = {}  # P -> {weight: [(scalar, [term])]}
    for p0, comp0 in x0.comps.items():
        if p0 < n or p0 > x0.cap:
            continue
        for slots in combinations(range(p0), n):
            for choice in product(*choices):
                P = p0 - n + sum(pk for pk, _, _ in choice)
                if P > limit:
                    continue
                at = dict(zip(slots, choice))
                starts, pos = [], 0  # where each input of x0 lands
                for t in range(p0):
                    starts.append(pos)
                    pos += at[t][0] if t in at else 1
                blocks = [range(starts[s], starts[s] + pk) for s, (pk, _, _) in zip(slots, choice)]
                # y_k has total degree p_k - 2 iota, shifted by -1: parity p_k + 1
                sgn = -1 if sum((len(b) + 1) * b.start for b in blocks) % 2 else 1
                base = [0] * P
                for block, (_, ek, _) in zip(blocks, choice):
                    for u, x in zip(block, ek):
                        base[u] += x
                factors = [at[t][2] if t in at else ident for t in range(p0)]
                for e0, mat0 in comp0.items():
                    w = list(base)
                    for t in range(p0):
                        if t not in at:
                            w[starts[t]] += e0[t]
                    poly = {tuple(w): 1}
                    for block, s, y in zip(blocks, slots, args):
                        for _ in range(e0[s]):
                            poly = _times_linear(poly, y.iota, block)
                    if not poly or (term := compose(mat0, factors)).is_zero():
                        continue
                    bucket = parts.setdefault(P, {})
                    for e, c in poly.items():
                        bucket.setdefault(e, []).append((field.of(sgn * c), [term]))
    comps = {}
    for P, bucket in parts.items():
        sums = {e: kron_sum(terms, lam.dim, lam.dim**P, field) for e, terms in bucket.items()}
        kept = {e: m for e, m in sums.items() if not m.is_zero()}
        if kept:
            comps[P] = kept
    return Cochain(lam, iota, comps, limit)


# ---------------------------------------------------------------------------
# Cup, bracket, differential


def _arity_slice(c: Cochain, p):
    comp = c.comps.get(p)
    return Cochain(c.algebra, c.iota, {p: comp} if comp else {}, math.inf)


def cup(x: Cochain, y: Cochain, cap=None) -> Cochain:
    """Cup product x.y = (-1)^(|x|-1) m2{x, y}, extended bilinearly."""
    lam = x.algebra
    m2 = Cochain.multiplication(lam)
    out = Cochain.zero(lam, x.iota + y.iota)
    limit = math.inf
    if x.cap != math.inf:
        limit = min(limit, x.cap + _min_possible_arity(y))
    if y.cap != math.inf:
        limit = min(limit, y.cap + _min_possible_arity(x))
    if cap is not None:
        limit = min(limit, cap)
    for p in x.arities():
        sgn = lam.field.one if (p - 2 * x.iota - 1) % 2 == 0 else -lam.field.one
        term = brace(m2, [_arity_slice(x, p), y], cap=cap).scale(sgn)
        out = out + term
    out.cap = min(out.cap, limit)
    return out


def bracket(x: Cochain, y: Cochain, cap=None) -> Cochain:
    """Gerstenhaber bracket [x,y] = x{y} - (-1)^(|x|-1)(|y|-1) y{x}."""
    lam = x.algebra
    out = Cochain.zero(lam, x.iota + y.iota)
    limit = math.inf
    if x.cap != math.inf:
        limit = min(limit, x.cap + _min_possible_arity(y) - 1)
    if y.cap != math.inf:
        limit = min(limit, y.cap + _min_possible_arity(x) - 1)
    if cap is not None:
        limit = min(limit, cap)
    for p in x.arities():
        xs = _arity_slice(x, p)
        for q in y.arities():
            ys = _arity_slice(y, q)
            first = brace(xs, [ys], cap=cap)
            second = brace(ys, [xs], cap=cap)
            sgn = (p - 1) * (q - 1)  # iota powers are even and drop mod 2
            out = out + first - second if sgn % 2 == 0 else out + first + second
    out.cap = min(out.cap, limit)
    return out


def differential(c: Cochain, cap=None) -> Cochain:
    """Hochschild differential d(c) = [m2, c] (bidegree (1, 0))."""
    m2 = Cochain.multiplication(c.algebra)
    return bracket(m2, c, cap=cap)


# ---------------------------------------------------------------------------
# The normalized subcomplex as finite coordinates


def _non_unit_inputs(lam: FiniteAlgebra):
    """The basis indices other than the unit's: the inputs of normalized cochains."""
    support = [i for i, c in enumerate(lam.unit) if c]
    if len(support) != 1 or lam.unit[support[0]] != lam.field.one:
        raise AlgebraSpecError("normalized-complex coordinates need the unit to be a basis vector")
    return [j for j in range(lam.dim) if j != support[0]]


def _inclusion(lam: FiniteAlgebra, inputs):
    """The dim x len(inputs) matrix whose columns are the basis vectors at inputs."""
    f = lam.field
    return Matrix([[f.one if i == j else f.zero for j in inputs] for i in range(lam.dim)], f, cols=len(inputs))


def _reduced_inclusion(lam: FiniteAlgebra):
    """The dim x (dim-1) matrix whose columns are the non-unit basis vectors."""
    return _inclusion(lam, _non_unit_inputs(lam))


def normalized_space_dim(lam, p):
    return lam.dim * (lam.dim - 1) ** p


def cochain_to_vec(c: Cochain, p):
    """Coordinates of the arity-p component on reduced input tuples.

    Requires an iota-linear component (no weights).
    """
    for e, m in c.comps.get(p, {}).items():
        if any(e) and not m.is_zero():
            raise AlgebraSpecError("cochain has Euler weights; not in the iota-linear model")
    return _vec_of(compose(c.component_matrix(p), [_reduced_inclusion(c.algebra)] * p))


def _vec_of(reduced):
    """The coordinates of a dim x (dim-1)^p reduced matrix, column by column."""
    return [x for col in reduced.transpose().entries for x in col]


def _reduced_matrix(lam, p, vec):
    """The reduced matrix with coordinates vec: the inverse of _vec_of."""
    d = lam.dim
    return Matrix([vec[row::d] for row in range(d)], lam.field, cols=(d - 1) ** p)


def vec_to_cochain(lam, p, j, vec, cap=math.inf):
    """Normalized cochain from reduced coordinates (zero on unit inputs)."""
    proj = _reduced_inclusion(lam).transpose()
    return Cochain.from_matrix(lam, p, compose(_reduced_matrix(lam, p, vec), [proj] * p), j, cap)


def differential_parts(lam, p, inputs):
    """The Hochschild differential on arity-p cochains as signed Kronecker products.

    d(f) = -mu(f, 1) + (-1)^p mu(1, f) + sum_i (-1)^(p-1+i) f(..., mu_i, ...),
    where mu_i multiplies inputs i and i+1 of d(f), counted from 0; this is
    [m2, f] written out.  Coordinates are cochain_to_vec's, with every input
    running over the basis indices `inputs`.  Each part is (sign, factors,
    moves): kron(factors) = F_1 (x) ... (x) F_k maps arity-p coordinates to
    arity-(p+1) ones (linalg.kron_sum adds the signed parts into the matrix
    of d), and moves[k] lists the inputs of d(f)
    that an Euler weight on input k of f moves to (a face sends it to both
    inputs it multiplies).  An outer product is one part per value of its
    outer input; a face keeps the components of a product on `inputs`.
    """
    field = lam.field
    mu = lam.mult_matrix()
    ident = Matrix.identity(lam.dim, field)
    incl = _inclusion(lam, inputs)
    n = len(inputs)
    rest = Matrix.identity(n**p, field)
    sign = 1 if p % 2 == 0 else -1
    parts = []
    for a, x in enumerate(inputs):
        at_a = Matrix.column_vector([field.one if b == a else field.zero for b in range(n)], field)
        e_x = Matrix.column_vector(lam.basis_vector(x), field)
        parts.append((sign, [at_a, rest, compose(mu, [e_x, ident])], [[k + 1] for k in range(p)]))
        parts.append((-1, [rest, at_a, compose(mu, [ident, e_x])], [[k] for k in range(p)]))
    face = compose(incl.transpose() * mu, [incl, incl]).transpose()
    for i in range(p):
        factors = [Matrix.identity(n**i, field), face, Matrix.identity(n ** (p - 1 - i), field), ident]
        moves = [[k] if k < i else [i, i + 1] if k == i else [k + 1] for k in range(p)]
        parts.append((-sign if i % 2 == 0 else sign, factors, moves))
    return parts


@_per_algebra
def _normalized_inputs(lam):
    """The non-unit basis indices, after the unit law that keeps d normalized."""
    inputs = _non_unit_inputs(lam)
    mu, ident = lam.mult_matrix(), Matrix.identity(lam.dim, lam.field)
    unit = Matrix.column_vector(lam.unit, lam.field)
    if compose(mu, [unit, ident]) != ident or compose(mu, [ident, unit]) != ident:
        raise AlgebraSpecError("differential left the normalized subcomplex")
    return inputs


@_per_algebra
def normalized_differential_matrix(lam, p):
    """Matrix of d on normalized cochains, arity p -> p+1, reduced coords.

    d keeps normalized cochains normalized.  Put the unit at input k of
    d(f), with f normalized: every term that hands the unit to f vanishes,
    and the two that multiply it with a neighbour (faces k-1 and k, or a
    face and an outer product at either end) carry opposite signs and are
    equal, because 1.x = x = x.1.  _normalized_inputs checks that unit law
    exactly, once per algebra, and the parts are summed over the non-unit
    inputs alone.
    """
    parts = differential_parts(lam, p, _normalized_inputs(lam))
    terms = [(sign, factors) for sign, factors, _ in parts]
    return kron_sum(terms, normalized_space_dim(lam, p + 1), normalized_space_dim(lam, p), lam.field)


def _is_normalized_component(c: Cochain, p):
    """Does the arity-p component vanish whenever an input is the unit?"""
    J, P = _normalizing_maps(c.algebra)
    mat = c.component_matrix(p)
    return compose(mat, [J * P] * p) == mat


# ---------------------------------------------------------------------------
# Cohomology classes


@_per_algebra
def _cohomology_at(lam, p):
    """(cocycles, coboundaries, reps, proj) of the normalized complex at arity p.

    None of it depends on the internal degree, so every j shares one
    factorisation per arity.
    """
    cocycles = kernel_basis(normalized_differential_matrix(lam, p))
    if p >= 1:
        coboundaries = image_basis(normalized_differential_matrix(lam, p - 1))
    else:
        coboundaries = SubspaceBasis(normalized_space_dim(lam, p), [], lam.field)
    return (cocycles, coboundaries, *quotient_basis(cocycles, coboundaries))


class HHContext:
    """Cocycles and coboundaries of the normalized complex at (p, -2j)."""

    def __init__(self, lam, p, j):
        self.algebra = lam
        self.p = p
        self.j = j
        self.cocycles, self.coboundaries, self.reps, self._proj = _cohomology_at(lam, p)

    @property
    def dim(self):
        return self.cocycles.dim - self.coboundaries.dim

    def classify(self, vec):
        """Quotient coordinates of a cocycle vector."""
        if not self.cocycles.contains(vec):
            raise NotACocycle("vector is not a cocycle at (%d, %d)" % (self.p, -2 * self.j))
        return self._proj(vec)

    def basis_classes(self):
        return [HHClass(self, vec=v) for v in self.reps]


@_per_algebra
def hh_context(lam, p, j) -> HHContext:
    if p + 1 > DEFAULT_CAP:
        raise CapTooLow("cohomology at arity %d exceeds the horizontal cap %d" % (p, DEFAULT_CAP))
    return HHContext(lam, p, j)


class HHClass:
    """A Hochschild cohomology class with a normalized representative.

    The class is kept as the reduced coordinates vec of its representative
    (cochain_to_vec's).  A representative handed in as a cochain is checked
    to be normalized here, once; products and linear combinations work on
    the coordinates, and a class made from coordinates builds its
    representative only when asked for it.  cup_cls and bracket_cls are the
    1 x 1 case of cup_table and bracket_table.
    """

    def __init__(self, context: HHContext, representative: Cochain = None, vec=None):
        """The class of a normalized representative, or of reduced coordinates vec."""
        if representative is not None:
            if not _is_normalized_component(representative, context.p):
                raise AlgebraSpecError("expected a normalized cochain")
            vec = cochain_to_vec(representative, context.p)
        self.context, self.vec, self._representative = context, vec, representative
        self.coords = context.classify(vec)

    @property
    def representative(self) -> Cochain:
        if self._representative is None:
            ctx = self.context
            self._representative = vec_to_cochain(ctx.algebra, ctx.p, ctx.j, self.vec)
        return self._representative

    @property
    def bidegree(self):
        return (self.context.p, -2 * self.context.j)

    def is_zero(self):
        z = self.context.algebra.field.zero
        return all(c == z for c in self.coords)

    def __eq__(self, other):
        if not isinstance(other, HHClass):
            return NotImplemented
        return (
            self.context.p == other.context.p
            and self.context.j == other.context.j
            and self.coords == other.coords
        )

    def scale(self, c):
        return HHClass(self.context, vec=[c * x for x in self.vec])

    def _plus(self, other, sign):
        if other.context.p != self.context.p:
            raise WrongBidegree("cannot add classes of arities %d and %d" % (self.context.p, other.context.p))
        return HHClass(self.context, vec=[x + sign * y for x, y in zip(self.vec, other.vec)])

    def __add__(self, other):
        return self._plus(other, 1)

    def __sub__(self, other):
        return self._plus(other, -1)

    def _reduced(self):
        return _reduced_matrix(self.context.algebra, self.context.p, self.vec)

    def cup_cls(self, other) -> "HHClass":
        """The class of cup(f, g) = (-1)^(pq) mu(f, g)."""
        return cup_table([self], [other])[0][0]

    def bracket_cls(self, other) -> "HHClass":
        """The class of [f, g] = f{g} - (-1)^((p-1)(q-1)) g{f}."""
        return bracket_table([self], [other])[0][0]

    def __repr__(self):
        return "HHClass(p=%d, q=%d, coords=%r)" % (
            self.context.p,
            -2 * self.context.j,
            [str(c) for c in self.coords],
        )


def _stack(classes):
    """The reduced matrices of classes of one bidegree side by side: a
    dim x (a n^p) matrix, n = dim - 1, whose columns put the class index
    before the p inputs, so that it is one multilinear map with a leading
    input that picks the class."""
    ctx = classes[0].context
    if any((c.context.p, c.context.j) != (ctx.p, ctx.j) for c in classes):
        raise WrongBidegree("stacked classes must share one bidegree")
    stack = classes[0]._reduced()
    for cls in classes[1:]:
        stack = stack.augment(cls._reduced())
    return stack


def _unstack(term, sign, b, head, tail, vecs, swap):
    """Add sign * term into the coordinate lists vecs[c1][c2] (vecs[c2][c1]
    if swap), for a term whose columns are (c1, h, c2, t), h < head, c2 < b,
    t < tail: the product of stacked classes c1 and c2 at reduced column
    h * tail + t.  vec is column-major, index column * dim + row."""
    d = term.rows
    for r, row in enumerate(term.nonzeros()):
        for col, x in row:
            rest, t = divmod(col, tail)
            rest, c2 = divmod(rest, b)
            c1, h = divmod(rest, head)
            vec = vecs[c2][c1] if swap else vecs[c1][c2]
            k = (h * tail + t) * d + r
            vec[k] = vec[k] + sign * x


def _table(ctx, a, b):
    """An a x b table of zero coordinate lists for classes of ctx."""
    lam = ctx.algebra
    size = normalized_space_dim(lam, ctx.p)
    return [[[lam.field.zero] * size for _ in range(b)] for _ in range(a)]


def _classes(ctx, vecs):
    return [[HHClass(ctx, vec=vec) for vec in row] for row in vecs]


def cup_table(xs, ys):
    """[[x.cup_cls(y) for y in ys] for x in xs], from one composition.

    cup(f, g) = (-1)^(pq) mu(f, g) on the reduced matrices.  With xs and ys
    stacked, mu(X, Y) holds every pair's product, its columns being (x,
    the inputs of f, y, the inputs of g).  Each product is classified, so
    each is checked to be a cocycle.
    """
    if not xs or not ys:
        return [[] for _ in xs]
    lam = xs[0].context.algebra
    p, q = xs[0].context.p, ys[0].context.p
    ctx = hh_context(lam, p + q, xs[0].context.j + ys[0].context.j)
    n = lam.dim - 1
    vecs = _table(ctx, len(xs), len(ys))
    prod = compose(lam.mult_matrix(), [_stack(xs), _stack(ys)])
    _unstack(prod, -1 if p * q % 2 else 1, len(ys), n**p, n**q, vecs, False)
    return _classes(ctx, vecs)


def _brace_into(vecs, fs, gs, sign, swap):
    """Add sign * f{g} into vecs[f][g] (vecs[g][f] if swap) for every f in fs
    and g in gs: f{g} = sum_s (-1)^((q+1)s) f(..., g, ...), g at input s.

    f's inputs in reduced coordinates are the non-unit basis vectors, so g
    enters through its rows at those vectors (incl^T g).  With fs stacked
    as F and gs as G, the term at s is compose(F, [I_a, I^s, incl^T G,
    I^(p-1-s)]) for every pair at once, its columns being (f, s inputs, g,
    the other q + p-1-s inputs)."""
    lam = fs[0].context.algebra
    field = lam.field
    p, q = fs[0].context.p, gs[0].context.p
    n = lam.dim - 1
    F, G = _stack(fs), _stack(gs).select_rows(_non_unit_inputs(lam))
    for s in range(p):
        factors = [Matrix.identity(len(fs), field), Matrix.identity(n**s, field), G, Matrix.identity(n ** (p - 1 - s), field)]
        term_sign = -sign if (q + 1) * s % 2 else sign
        _unstack(compose(F, factors), term_sign, len(gs), n**s, n ** (q + p - 1 - s), vecs, swap)


def bracket_table(xs, ys):
    """[[x.bracket_cls(y) for y in ys] for x in xs], from p + q compositions.

    [f, g] = f{g} - (-1)^((p-1)(q-1)) g{f}; the bracket of two 0-cochains
    vanishes identically.  Each product is classified, so each is checked
    to be a cocycle.
    """
    if not xs or not ys:
        return [[] for _ in xs]
    lam = xs[0].context.algebra
    p, q = xs[0].context.p, ys[0].context.p
    ctx = hh_context(lam, max(p + q - 1, 0), xs[0].context.j + ys[0].context.j)
    vecs = _table(ctx, len(xs), len(ys))
    _brace_into(vecs, xs, ys, 1, False)
    _brace_into(vecs, ys, xs, 1 if (p - 1) * (q - 1) % 2 else -1, True)
    return _classes(ctx, vecs)


def class_of(lam, c: Cochain, p, j) -> HHClass:
    """The class of c's arity-p component, a normalized cocycle."""
    ctx = hh_context(lam, p, j)
    return HHClass(ctx, Cochain.from_matrix(lam, p, c.component_matrix(p), c.iota, c.cap))


def cohomology(lam, p, j):
    """Representatives of a basis of HH^{p,-2j}(L, L i^j) (dim = len)."""
    return hh_context(lam, p, j).basis_classes()


def solve_coboundary(lam, target: Cochain, p, j):
    """A normalized primitive b (arity p-1) with d(b) = target, or None."""
    dmat = normalized_differential_matrix(lam, p - 1)
    vec = cochain_to_vec(target, p)
    sol = solve(dmat, vec)
    if sol is None:
        return None
    return vec_to_cochain(lam, p - 1, j, sol)


def divide_class(x_cls: HHClass, u_cls: HHClass) -> HHClass:
    """The class v with [u][v] = [x] (unique when cup-by-u is bijective).

    Only positive target degrees are used, where Hochschild and Tate
    cohomology agree, so invertibility of u makes the division exact.
    """
    lam = x_cls.context.algebra
    p = x_cls.context.p - u_cls.context.p
    j = x_cls.context.j - u_cls.context.j
    if p <= 0:
        raise WrongBidegree("class division only implemented in positive degrees")
    ctx = hh_context(lam, p, j)
    cols = [cls.coords for cls in cup_table([u_cls], ctx.basis_classes())[0]]
    if not cols:
        raise NotACocycle("empty source space in class division")
    sol = solve(Matrix(cols, lam.field).transpose(), x_cls.coords)
    if sol is None:
        raise NotACocycle("class is not divisible by the unit class")
    vec = [sum((c * v[t] for c, v in zip(sol, ctx.reps)), lam.field.zero) for t in range(normalized_space_dim(lam, p))]
    return HHClass(ctx, vec=vec)


# ---------------------------------------------------------------------------
# The Euler-adjoined model


class EulerAdjoinedCochain:
    """A pair (x, y) modelling the cochain x + y . e2 on the Laurent algebra.

    x and y are iota-linear; squares of e2 are never formed at this level
    (they only vanish in cohomology), so products of two Euler-adjoined
    cochains are offered at class level only.
    """

    def __init__(self, plain: Cochain, euler: Cochain):
        self.plain = plain
        self.euler = euler

    @property
    def algebra(self):
        return self.plain.algebra

    def to_cochain(self) -> Cochain:
        e2 = Cochain.euler(self.algebra)
        return self.plain + cup(self.euler, e2)

    def __add__(self, other):
        return EulerAdjoinedCochain(self.plain + other.plain, self.euler + other.euler)

    def __sub__(self, other):
        return EulerAdjoinedCochain(self.plain - other.plain, self.euler - other.euler)

    def scale(self, c):
        return EulerAdjoinedCochain(self.plain.scale(c), self.euler.scale(c))

    def is_zero(self, up_to=None):
        return self.plain.is_zero(up_to) and self.euler.is_zero(up_to)

    def __eq__(self, other):
        if not isinstance(other, EulerAdjoinedCochain):
            return NotImplemented
        return (self - other).is_zero()

    def __repr__(self):
        return "EulerAdjoined(plain=%r, euler=%r)" % (self.plain, self.euler)


def euler_derivation(lau) -> EulerAdjoinedCochain:
    """The fractional Euler derivation a -> (|a|/2) a as the pair (0, 1)."""
    lam = lau.base if hasattr(lau, "base") else lau
    return EulerAdjoinedCochain(Cochain.zero(lam, 0), Cochain.unit_cochain(lam))


def restrict_j(c: Cochain) -> Cochain:
    """Restriction along the degree-zero inclusion: drop all Euler weights.

    For an iota-linear cochain this is the identity on the stored data,
    reinterpreted with coefficients L . i^j.
    """
    comps = {}
    for p, comp in c.comps.items():
        zero_w = (0,) * p
        if zero_w in comp:
            comps[p] = {zero_w: comp[zero_w]}
    return Cochain(c.algebra, c.iota, comps, c.cap)


def hh_isos_forward(c: Cochain) -> EulerAdjoinedCochain:
    """x -> j*(x) - i^{-1} j*([x, iota]) e2 in the pair model."""
    lam = c.algebra
    iota_c = Cochain.iota_cochain(lam, 1)
    plain = restrict_j(c)
    br = bracket(c, iota_c)
    euler = restrict_j(br).scale(-lam.field.one).shift_iota(-1)
    return EulerAdjoinedCochain(plain, euler)


def hh_isos_backward(e: EulerAdjoinedCochain) -> Cochain:
    """x + y e2 -> i(x) + i(y) . e2 as an honest (weighted) cochain."""
    return e.to_cochain()


# ---------------------------------------------------------------------------
# Cocycle -> bimodule extension and the Tate unit test; only these import the
# bimodule layer, so computing cohomology never compiles it


@_per_algebra
def _bar_syzygy(lam, k):
    """Omega^k(L) = ker d_{k-1} in the normalized bar resolution of length k,
    whose homotopy identity then holds on B_{k-1}."""
    from .algebra import bar_resolution, syzygy

    return syzygy(bar_resolution(lam, k), k)


def cocycle_to_extension(c: Cochain, degree=4) -> BimoduleMap:
    """The bimodule map Omega^degree(L) -> L induced by a normalized cocycle.

    A normalized cocycle c of arity k is the bimodule map phi on the
    normalized bar, phi(a_0 (x) a_1 .. a_k (x) a_{k+1}) = a_0 c(a_1, ..., a_k) a_{k+1};
    it vanishes on im d_{k+1}, so it factors through Omega^k = ker d_{k-1}
    via d_k, and phi(s v) for the contracting homotopy s is its value on v.
    Cohomologous cocycles give maps equal up to one factoring through a
    projective.  Non-cocycles raise NotACocycle, then cocycles that are not
    normalized (phi is not defined on the normalized bar) AlgebraSpecError.
    """
    lam = c.algebra
    if not c.is_iota_linear():
        raise NotACocycle("extension dictionary needs an iota-linear cochain")
    dc = differential(c)
    if not dc.is_zero(up_to=degree + 1 if dc.cap >= degree + 1 else None):
        raise NotACocycle("not a cocycle")
    if not _is_normalized_component(c, degree):
        raise AlgebraSpecError("the extension map needs a normalized cocycle")
    J, _ = _normalizing_maps(lam)
    return _extension(lam, compose(c.component_matrix(degree), [J] * degree), degree)


def _extension(lam, reduced, k):
    """phi o s on Omega^k, for the cocycle with values reduced on Lambda-bar^(x)k:
    phi(s(a_0 (x) a_1 .. a_{k-1} (x) a_k)) = reduced(P a_0, a_1, ..., a_{k-1}) a_k."""
    from .algebra import BimoduleMap, diagonal_bimodule

    syz = _bar_syzygy(lam, k)
    _, P = _normalizing_maps(lam)
    head = compose(reduced, [P, Matrix.identity(P.rows ** (k - 1), lam.field)])
    phi_s = compose(lam.mult_matrix(), [head, Matrix.identity(lam.dim, lam.field)])
    return BimoduleMap(syz, diagonal_bimodule(lam), phi_s * syz.inclusion.matrix.transpose())


class TateUnitResult(int):
    """Boolean with a flag marking the degenerate separable case."""

    def __new__(cls, value, separable=False):
        self = int.__new__(cls, bool(value))
        self.separable = separable
        return self

    def __repr__(self):
        extra = ", separable coefficient" if self.separable else ""
        return "TateUnitResult(%s%s)" % (bool(self), extra)


def tate_unit_check(cls: HHClass) -> TateUnitResult:
    """Is the class a unit in Hochschild--Tate cohomology?

    Criterion: the map Omega^4(L) -> L induced by the class, built from its
    reduced coordinates (vec), is a stable isomorphism.  The result does not
    depend on the representative (tested).
    """
    if cls.bidegree != (4, -2):
        raise WrongBidegree("tate unit check needs bidegree (4, -2), got %r" % (cls.bidegree,))
    from .algebra import _env_of, is_stable_iso

    lam = cls.context.algebra
    separable = _env_of(lam).radical_basis().dim == 0
    return TateUnitResult(is_stable_iso(_extension(lam, cls._reduced(), 4)), separable)


# ---------------------------------------------------------------------------
# Seeded random cochains (test and calibration helpers)


def random_cochain(lam, p, j, rng, normalized=True, cap=math.inf):
    d = lam.dim
    if normalized:
        n = normalized_space_dim(lam, p)
        vec = [lam.field.of(rng.randint(-3, 3)) for _ in range(n)]
        return vec_to_cochain(lam, p, j, vec, cap)
    m = Matrix(
        [[lam.field.of(rng.randint(-3, 3)) for _ in range(d**p)] for _ in range(d)],
        lam.field,
    )
    return Cochain.from_matrix(lam, p, m, j, cap)
