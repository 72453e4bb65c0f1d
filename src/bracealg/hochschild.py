"""Hochschild cochains on a finite-dimensional algebra and their brace calculus.

A cochain lives on the Laurent extension L[i^{\\pm 1}] of the coefficient
algebra L (|i| = -2) but is stored finitely: a component of arity p is a
matrix dim(L) x dim(L)^p together with a single iota power recording the
internal degree, plus optional "weight" matrices recording polynomial
dependence on the iota powers of individual inputs, keyed by exponent
tuples.  iota-linear cochains have no weights; the fractional Euler
derivation is the basic example of a weight-one cochain.  One engine,
brace_sum, sums signed braces on this representation and is the only
adder of cochains: brace is its one-term case, x +- y are terms with no
arguments, cup, bracket and d are one brace_sum each, and a reliable range
counts only blocks that are not all zero.  The weight rule is in its docstring.
Products of cohomology classes skip the engine: a class keeps the reduced
coordinates of a normalized representative, and the cup and bracket tables
of two lists of classes are compositions of their coordinate matrices set
side by side.

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
from .linalg import Matrix, SubspaceBasis, SubspaceNotContained, compose, image_basis, kernel_basis, kron_sum, quotient_basis, solve


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
    Components with arity > cap are unknown rather than zero.  + and - are
    brace_sum's terms with no arguments, so a sum keeps none of them and
    no all-zero block.
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
        """The smallest arity with a block that is not all zero, or None."""
        ar = [p for p, c in self.comps.items() if not all(m.is_zero() for m in c.values())]
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

    def _same_algebra(self, other):
        return self.algebra is other.algebra or self.algebra.mult == other.algebra.mult

    def __add__(self, other):
        return brace_sum([(1, self, []), (1, other, [])])

    def __sub__(self, other):
        return brace_sum([(1, self, []), (-1, other, [])])

    def scale(self, c):
        comps = {p: {e: m.scale(c) for e, m in comp.items()} for p, comp in self.comps.items()}
        return Cochain(self.algebra, self.iota, comps, self.cap)

    def is_zero(self, up_to=None):
        if up_to is not None and up_to > self.cap:
            raise CapTooLow("zero test up to %s exceeds reliable cap %s" % (up_to, self.cap))
        low = self.min_arity()
        return low is None or low > (self.cap if up_to is None else up_to)

    def __eq__(self, other):
        if not isinstance(other, Cochain):
            return NotImplemented
        # cochains of different internal degree or over different algebras
        # are unequal, as classes of different bidegree are
        return self.iota == other.iota and self._same_algebra(other) and (self - other).is_zero()

    # -- evaluation -------------------------------------------------------

    def evaluate(self, inputs):
        """Value on inputs [(vector, jpower), ...]; returns (vector, jpower).

        Only usable when all stored components of this arity agree on the
        output iota power, which they do by construction.
        """
        p = len(inputs)
        field = self.algebra.field
        if p > self.cap:
            raise CapTooLow("evaluation at arity %d beyond cap" % p)
        factors = [Matrix.column_vector(vec, field) for vec, _ in inputs]
        terms = []
        for e, mat in self.comps.get(p, {}).items():
            wcoeff = math.prod(j**exp for exp, (_, j) in zip(e, inputs))  # j**0 is 1, also for j = 0
            if wcoeff:
                terms.append((field.of(wcoeff), [compose(mat, factors)]))
        out = kron_sum(terms, self.algebra.dim, 1, field)
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


# ---------------------------------------------------------------------------
# The brace engine


def _min_possible_arity(c: Cochain):
    """Smallest arity at which c can be nonzero: min_arity, else cap + 1."""
    m = c.min_arity()
    return c.cap + 1 if m is None else m


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
    """The brace x0{y_1, ..., y_n}, brace_sum's one-term case; it vanishes
    when arity(x0) < n, and x0{} = x0."""
    return brace_sum([(1, x0, list(args))], cap)


def brace_sum(terms, cap=None) -> Cochain:
    """sum_t sign_t x0_t{args_t} over a nonempty list of terms (sign, x0, args)
    of one internal degree, sign = +-1 and args a list of cochains y_1, ..., y_n.

    The arity-P component of x0{args} collects every way of inserting the
    arguments, in order, into distinct inputs (slots) of an x0 component;
    the sign of a term is the Koszul sign for moving each y_k past the
    inputs that precede its block, all degrees shifted by -1.  The sum is
    reliable up to the smallest reliable range among its terms and cap.
    Every cochain sum is one: x + y and x - y are the terms (1, x, []) and
    (+-1, y, []), so every x0 and argument must live on one algebra.

    The weight rule: a weight is an exponent tuple (e_0, ..., e_{P-1}),
    standing for the monomial prod_u j_u^e_u in the iota powers j_u of the
    result's inputs.  y_k's weights move to its block.  x0's weight at a
    free slot moves to that slot's position; at the slot of y_k it sees the
    iota power of the inserted value, q_k + sum_{u in block} j_u with q_k
    the iota of y_k, so each unit of its exponent multiplies the weight
    polynomial by that linear form.  Each weight of each component is then
    the sum of the signed, weighted terms of every brace, added up once
    (kron_sum), and a weight whose sum vanishes is dropped.
    """
    first = terms[0][1]
    if not all(first._same_algebra(c) for _, x0, args in terms for c in (x0, *args)):
        raise AlgebraSpecError("cochain algebra mismatch")
    lam, field = first.algebra, first.algebra.field
    iotas = {x0.iota + sum(a.iota for a in args) for _, x0, args in terms}
    if len(iotas) != 1:
        raise AlgebraSpecError("cannot add cochains of different internal degree")
    # reliable range: one below the smallest arity receiving an unknown term
    unknown = math.inf
    for _, x0, args in terms:
        n, amins = len(args), [_min_possible_arity(a) for a in args]
        unknown = min(unknown, x0.cap + 1 - n + sum(amins))
        for k, a in enumerate(args):
            others = sum(m for t, m in enumerate(amins) if t != k)
            unknown = min(unknown, max(_min_possible_arity(x0), n) - n + a.cap + 1 + others)
    limit = unknown - 1 if cap is None else min(unknown - 1, cap)
    ident = Matrix.identity(lam.dim, field)
    parts = {}  # P -> {weight: [(scalar, [term])]}
    for sign, x0, args in terms:
        n = len(args)
        choices = [[(pk, ek, mk) for pk, comp in a.comps.items() if pk <= a.cap for ek, mk in comp.items()] for a in args]
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
                    sgn = -sign if sum((len(b) + 1) * b.start for b in blocks) % 2 else sign
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
                        if not poly or (term := compose(mat0, factors) if n else mat0).is_zero():
                            continue
                        bucket = parts.setdefault(P, {})
                        for e, c in poly.items():
                            bucket.setdefault(e, []).append((field.of(sgn * c), [term]))
    comps = {}
    for P, bucket in parts.items():
        sums = {e: kron_sum(at_e, lam.dim, lam.dim**P, field) for e, at_e in bucket.items()}
        kept = {e: m for e, m in sums.items() if not m.is_zero()}
        if kept:
            comps[P] = kept
    return Cochain(lam, iotas.pop(), comps, limit)


# ---------------------------------------------------------------------------
# Cup, bracket, differential


def _slices(c: Cochain):
    """(p, the arity-p part of c) for each component, each with c's cap;
    [(0, c)] if c has none.  Summing braces of the slices, brace_sum's
    reliable range gives cup, bracket and d their caps."""
    return [(p, Cochain(c.algebra, c.iota, {p: comp}, c.cap)) for p, comp in c.comps.items() if comp] or [(0, c)]


def _cup_terms(x: Cochain, y: Cochain):
    """x.y = (-1)^(|x|-1) m2{x, y} as brace_sum terms, one per slice of x."""
    m2 = Cochain.multiplication(x.algebra)
    return [(1 if p % 2 else -1, m2, [xs, y]) for p, xs in _slices(x)]


def _d_terms(c: Cochain):
    """d(c) = m2{c_p} + (-1)^p c_p{m2} as brace_sum terms, two per slice c_p of c."""
    m2 = Cochain.multiplication(c.algebra)
    return [t for p, cp in _slices(c) for t in ((1, m2, [cp]), (-1 if p % 2 else 1, cp, [m2]))]


def cup(x: Cochain, y: Cochain, cap=None) -> Cochain:
    """Cup product x.y = (-1)^(|x|-1) m2{x, y}, extended bilinearly."""
    return brace_sum(_cup_terms(x, y), cap)


def bracket(x: Cochain, y: Cochain, cap=None) -> Cochain:
    """Gerstenhaber bracket [x,y] = x{y} - (-1)^(|x|-1)(|y|-1) y{x}."""
    terms = []
    for p, xs in _slices(x):
        for q, ys in _slices(y):
            # iota powers are even and drop mod 2
            terms += [(1, xs, [ys]), (1 if (p - 1) * (q - 1) % 2 else -1, ys, [xs])]
    return brace_sum(terms, cap)


def differential(c: Cochain, cap=None) -> Cochain:
    """Hochschild differential d(c) = [m2, c] (bidegree (1, 0)), as its brace terms."""
    return brace_sum(_d_terms(c), cap)


# ---------------------------------------------------------------------------
# Cochain coordinates: the normalized layout and the weighted one


def normalized_space_dim(lam, p):
    return lam.dim * (lam.dim - 1) ** p


def _layout(lam, p, weighted):
    """(weights, J, P): the coordinates of arity-p cochains.

    The coordinates are those of the weight blocks, one after another, and a
    block is the component of that weight composed with J (x) ... (x) J,
    column by column (_vec_of).  A plain cochain has one block, no weight,
    on Lambda-bar^(x)p with the J, P of _normalizing_maps: the normalized
    complex.  A weighted cochain has the blocks of weight degree <= 1 (no
    weight, then one on each input) on Lambda^(x)p, J = P = I, because an
    Euler weight need not vanish on the unit.
    """
    if not weighted:
        return [(0,) * p], *_normalized_maps(lam)
    ident = Matrix.identity(lam.dim, lam.field)
    return [(0,) * p] + [tuple(int(u == t) for u in range(p)) for t in range(p)], ident, ident


def cochain_to_vec(c: Cochain, p, weighted):
    """The coordinates of c's arity-p component in _layout(p, weighted); a
    nonzero component of a weight outside the layout raises.  The plain
    coordinates see only the values on Lambda-bar, so they hold a component
    whole only when it is normalized."""
    weights, J, _ = _layout(c.algebra, p, weighted)
    for e, m in c.comps.get(p, {}).items():
        if e not in weights and not m.is_zero():
            raise AlgebraSpecError("cochain has Euler weights of degree > %d" % weighted)
    return [x for e in weights for x in _vec_of(compose(c.component_matrix(p, e), [J] * p))]


def _vec_of(reduced):
    """The coordinates of a dim x m matrix, column by column: the one layout
    of a block, index column * dim + row."""
    return reduced.transpose().reshape(1, reduced.rows * reduced.cols).row(0)


def _reduced_matrix(lam, vec):
    """The dim x (len(vec) / dim) matrix with coordinates vec: the inverse of _vec_of."""
    return Matrix([vec], lam.field).reshape(len(vec) // lam.dim, lam.dim).transpose()


def vec_to_cochain(lam, p, j, vec, weighted, cap=math.inf):
    """The cochain with coordinates vec in _layout(p, weighted): each block's
    reduced matrix composed with P (x) ... (x) P.  A plain cochain is
    normalized, since P.1 = 0, and keeps its block even when it is zero, as
    Cochain.from_matrix does; a weighted one keeps its nonzero blocks only."""
    weights, _, P = _layout(lam, p, weighted)
    stride = len(vec) // len(weights)
    comp = {}
    for t, e in enumerate(weights):
        m = compose(_reduced_matrix(lam, vec[t * stride : (t + 1) * stride]), [P] * p)
        if not (weighted and m.is_zero()):
            comp[e] = m
    return Cochain(lam, j, {p: comp} if comp else {}, cap)


def differential_parts(lam, p, J, P):
    """The Hochschild differential on arity-p cochains as signed Kronecker products.

    d(f) = -mu(f, 1) + (-1)^p mu(1, f) + sum_i (-1)^(p-1+i) f(..., mu_i, ...),
    where mu_i multiplies inputs i and i+1 of d(f), counted from 0; this is
    [m2, f] written out.  Every input runs over M, given J: M -> Lambda and
    P: Lambda -> M as for algebra._bar: those of _layout give its blocks'
    M, Lambda-bar or Lambda.
    Each part is (sign, factors, moves): kron(factors) = F_1 (x) ... (x) F_k
    maps arity-p coordinates to arity-(p+1) ones (linalg.kron_sum adds the
    signed parts into the matrix of d), and moves[k] lists the inputs of d(f)
    that an Euler weight on input k of f moves to (a face sends it to both
    inputs it multiplies).  An outer product is one part per basis vector a
    of M, multiplying by column a of J; a face is the bar's inner face
    P mu(J (x) J).
    """
    field = lam.field
    mu = lam.mult_matrix()
    ident = Matrix.identity(lam.dim, field)
    n = J.cols
    rest = Matrix.identity(n**p, field)
    sign = 1 if p % 2 == 0 else -1
    parts = []
    for a in range(n):
        at_a = Matrix.column_vector([field.one if b == a else field.zero for b in range(n)], field)
        parts.append((sign, [at_a, rest, compose(mu, [J * at_a, ident])], [[k + 1] for k in range(p)]))
        parts.append((-1, [rest, at_a, compose(mu, [ident, J * at_a])], [[k] for k in range(p)]))
    face = compose(P * mu, [J, J]).transpose()
    for i in range(p):
        factors = [Matrix.identity(n**i, field), face, Matrix.identity(n ** (p - 1 - i), field), ident]
        moves = [[k] if k < i else [i, i + 1] if k == i else [k + 1] for k in range(p)]
        parts.append((-sign if i % 2 == 0 else sign, factors, moves))
    return parts


@_per_algebra
def _normalized_maps(lam):
    """_normalizing_maps(lam), after the unit law that keeps d normalized."""
    mu, ident = lam.mult_matrix(), Matrix.identity(lam.dim, lam.field)
    unit = Matrix.column_vector(lam.unit, lam.field)
    if compose(mu, [unit, ident]) != ident or compose(mu, [ident, unit]) != ident:
        raise AlgebraSpecError("differential left the normalized subcomplex")
    return _normalizing_maps(lam)


def _weight_moves(moves, blocks_in, blocks_out, field):
    """The block map of one part of d on _layout's weight blocks (block 0 no
    weight, block k+1 a weight on input k): no weight stays none, and a
    weight on input k of f moves to input t of d(f) for each t in moves[k]."""
    images = [[0]] + [[t + 1 for t in ts] for ts in moves]
    return Matrix([[field.one if t in images[k] else field.zero for k in range(blocks_in)] for t in range(blocks_out)], field)


@_per_algebra
def normalized_differential_matrix(lam, p, weighted):
    """Matrix of d, arity p -> p+1, in the coordinates of _layout(p, weighted).

    Each part of differential_parts gets one more Kronecker factor in front,
    which moves the weight blocks; in the plain layout it is 1 x 1.
    d keeps normalized cochains normalized.  Put the unit at input k of
    d(f), with f normalized: every term that hands the unit to f vanishes,
    and the two that multiply it with a neighbour (faces k-1 and k, or a
    face and an outer product at either end) carry opposite signs and are
    equal, because 1.x = x = x.1.  _normalized_maps checks that unit law
    exactly, once per algebra, and the plain parts are summed over Lambda-bar.
    """
    weights, J, P = _layout(lam, p, weighted)
    blocks = len(weights), len(_layout(lam, p + 1, weighted)[0])
    parts = differential_parts(lam, p, J, P)
    terms = [(sign, [_weight_moves(moves, *blocks, lam.field)] + factors) for sign, factors, moves in parts]
    n = J.cols
    return kron_sum(terms, blocks[1] * lam.dim * n ** (p + 1), blocks[0] * lam.dim * n**p, lam.field)


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
    cocycles = kernel_basis(normalized_differential_matrix(lam, p, False))
    if p >= 1:
        coboundaries = image_basis(normalized_differential_matrix(lam, p - 1, False))
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
        try:
            return self._proj(vec)
        except SubspaceNotContained:
            raise NotACocycle("vector is not a cocycle at (%d, %d)" % (self.p, -2 * self.j)) from None

    def basis_classes(self):
        return [HHClass(self, vec=v) for v in self.reps]

    def combination(self, coeffs, vecs=None):
        """The class of sum_t coeffs[t] vecs[t] (vecs: the reps' by default); the zero class for []."""
        field, n = self.algebra.field, self.cocycles.ambient_dim
        parts = [(c, [Matrix([v], field)]) for c, v in zip(coeffs, self.reps if vecs is None else vecs)]
        return HHClass(self, vec=kron_sum(parts, 1, n, field).row(0))


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
            vec = cochain_to_vec(representative, context.p, False)
        self.context, self.vec, self._representative = context, vec, representative
        self.coords = context.classify(vec)

    @property
    def representative(self) -> Cochain:
        if self._representative is None:
            ctx = self.context
            self._representative = vec_to_cochain(ctx.algebra, ctx.p, ctx.j, self.vec, False)
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
        return self.context.combination([c], [self.vec])

    def _plus(self, other, sign):
        if other.context.p != self.context.p:
            raise WrongBidegree("cannot add classes of arities %d and %d" % (self.context.p, other.context.p))
        return self.context.combination([1, sign], [self.vec, other.vec])

    def __add__(self, other):
        return self._plus(other, 1)

    def __sub__(self, other):
        return self._plus(other, -1)

    def _reduced(self):
        return _reduced_matrix(self.context.algebra, self.vec)

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


def _pairs(term, a, b, head, tail, swap):
    """The coordinates of every pair's product in a term whose columns are
    (c1, h, c2, t), c1 < a, h < head, c2 < b, t < tail: the product of
    stacked classes c1 and c2 at reduced column h * tail + t.  Row c1 * b +
    c2 (c2 * a + c1 if swap) of the a*b x N result holds that pair's
    coordinates, column-major as in _vec_of: index column * dim + row."""
    d = term.rows
    out = [{} for _ in range(a * b)]
    for r, row in enumerate(term.nonzeros()):
        for col, x in row:
            rest, t = divmod(col, tail)
            rest, c2 = divmod(rest, b)
            c1, h = divmod(rest, head)
            out[c2 * a + c1 if swap else c1 * b + c2][(h * tail + t) * d + r] = x
    return Matrix.from_nonzeros(out, d * head * tail, term.field)


def _classes(ctx, xs, ys, parts):
    """The len(xs) x len(ys) table of the classes whose coordinates are the
    rows of the sum of parts, row x * len(ys) + y for the pair (x, y)."""
    lam = ctx.algebra
    total = kron_sum(parts, len(xs) * len(ys), normalized_space_dim(lam, ctx.p), lam.field)
    return [[HHClass(ctx, vec=total.row(x * len(ys) + y)) for y in range(len(ys))] for x in range(len(xs))]


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
    prod = compose(lam.mult_matrix(), [_stack(xs), _stack(ys)])
    term = _pairs(prod, len(xs), len(ys), n**p, n**q, False)
    return _classes(ctx, xs, ys, [(-1 if p * q % 2 else 1, [term])])


def _brace_parts(fs, gs, sign, swap):
    """The kron_sum parts of sign * f{g} for every f in fs and g in gs, the
    pair (f, g) at row f * len(gs) + g (g * len(fs) + f if swap): f{g} =
    sum_s (-1)^((q+1)s) f(..., g, ...), g at input s.

    f's inputs in reduced coordinates lie in Lambda-bar: a normalized f is
    its reduced matrix composed with P on each input, P as in
    _normalizing_maps, so g enters as P g.  With fs stacked as F and gs as
    G, the term at s is
    compose(F, [I_a, I^s, P G, I^(p-1-s)]) for every pair at once, its
    columns being (f, s inputs, g, the other q + p-1-s inputs)."""
    lam = fs[0].context.algebra
    field = lam.field
    p, q = fs[0].context.p, gs[0].context.p
    n = lam.dim - 1
    _, P = _normalizing_maps(lam)
    F, G = _stack(fs), P * _stack(gs)
    parts = []
    for s in range(p):
        factors = [Matrix.identity(len(fs), field), Matrix.identity(n**s, field), G, Matrix.identity(n ** (p - 1 - s), field)]
        term = _pairs(compose(F, factors), len(fs), len(gs), n**s, n ** (q + p - 1 - s), swap)
        parts.append((-sign if (q + 1) * s % 2 else sign, [term]))
    return parts


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
    parts = _brace_parts(xs, ys, 1, False) + _brace_parts(ys, xs, 1 if (p - 1) * (q - 1) % 2 else -1, True)
    return _classes(ctx, xs, ys, parts)


def class_of(lam, c: Cochain, p, j) -> HHClass:
    """The class of c's arity-p component, a normalized cocycle."""
    ctx = hh_context(lam, p, j)
    return HHClass(ctx, Cochain.from_matrix(lam, p, c.component_matrix(p), c.iota, c.cap))


def cohomology(lam, p, j):
    """Representatives of a basis of HH^{p,-2j}(L, L i^j) (dim = len)."""
    return hh_context(lam, p, j).basis_classes()


def solve_coboundary(lam, target: Cochain, p, j, weighted=False, also=()):
    """(b, x) with d(b) + sum_t x[t] also[t] = target exactly, or None.

    b has arity p-1, and x has one coefficient per arity-p cochain of
    `also`, whose columns follow those of d.  The solution is the one with
    zero free coordinates: x = 0 when target is a coboundary, and b is then
    the primitive found without `also`; otherwise x uses the leftmost
    cochains of `also` that are independent modulo coboundaries.  The plain
    layout holds cochains that are normalized and have no Euler weights, and
    b is then normalized; the solve runs in the weighted layout, which holds
    every cochain of weight degree <= 1, if target or `also` needs it or
    when asked for.
    """
    weighted = weighted or not all(c.is_iota_linear() and _is_normalized_component(c, p) for c in (target, *also))
    d = normalized_differential_matrix(lam, p - 1, weighted)
    columns = Matrix([cochain_to_vec(c, p, weighted) for c in also], lam.field, cols=d.rows).transpose()
    sol = solve(d.augment(columns), cochain_to_vec(target, p, weighted))
    return None if sol is None else (vec_to_cochain(lam, p - 1, j, sol[: d.cols], weighted), sol[d.cols :])


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
    return ctx.combination(sol)


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
        return brace_sum([(1, self.plain, [])] + _cup_terms(self.euler, Cochain.euler(self.algebra)))

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
        return self.plain == other.plain and self.euler == other.euler

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
    depend on the representative (tested); it is kept in the per-algebra
    store under the representative's coordinates.
    """
    if cls.bidegree != (4, -2):
        raise WrongBidegree("tate unit check needs bidegree (4, -2), got %r" % (cls.bidegree,))
    return _tate_unit(cls.context.algebra, tuple(cls.vec))


@_per_algebra
def _tate_unit(lam, vec):
    from .algebra import _env_of, is_stable_iso

    separable = _env_of(lam).radical_basis().dim == 0
    return TateUnitResult(is_stable_iso(_extension(lam, _reduced_matrix(lam, vec), 4)), separable)


# ---------------------------------------------------------------------------
# Seeded random cochains (test and calibration helpers)


def random_cochain(lam, p, j, rng, normalized=True, cap=math.inf):
    d = lam.dim
    if normalized:
        n = normalized_space_dim(lam, p)
        vec = [lam.field.of(rng.randint(-3, 3)) for _ in range(n)]
        return vec_to_cochain(lam, p, j, vec, False, cap)
    m = Matrix(
        [[lam.field.of(rng.randint(-3, 3)) for _ in range(d**p)] for _ in range(d)],
        lam.field,
    )
    return Cochain.from_matrix(lam, p, m, j, cap)
