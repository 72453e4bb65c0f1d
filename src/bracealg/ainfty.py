"""Minimal A-infinity structures by homotopy transfer, and their comparison.

For a DG algebra (see `dg`, which only `transfer` and `is_formal` import)
whose cohomology is of Laurent form H0 (x) k[i^{+-1}], homotopy transfer
along a deterministic echelon contraction produces the minimal operations
m_n as iota-linear Hochschild cochains on H0; the Maurer-Cartan equation
is verified exactly and is the arbiter for all sign conventions.  The
Maurer-Cartan and morphism residuals are signed brace terms (d and the cup
product take theirs from hochschild), summed by one brace_sum per arity.  The
inductive construction of A-infinity isomorphisms kills one even-arity
obstruction at a time, by one exact linear solve for a primitive and a
cocycle correction, plain first and Euler-adjoined when that fails.
"""

from __future__ import annotations

import math
from itertools import product

from .finite import AlgebraSpecError, LaurentAlgebra
from .hochschild import (
    Cochain,
    EulerAdjoinedCochain,
    HHClass,
    NotACocycle,
    WrongBidegree,
    _cup_terms,
    _d_terms,
    bracket,
    brace,
    brace_sum,
    class_of,
    cup_table,
    differential,
    divide_class,
    hh_context,
    hh_isos_forward,
    solve_coboundary,
    tate_unit_check,
)
from .linalg import Matrix, compose, kernel_basis, kron_sum, solve


class M3NonZero(Exception):
    pass


class NotCentral(Exception):
    pass


class NotUnit(Exception):
    pass


# error name used by the two-equations solver contract
NotAUnit = NotUnit


class ClassMismatch(Exception):
    pass


class ObstructionNotContractible(Exception):
    def __init__(self, message, arity=None):
        super().__init__(message)
        self.arity = arity


# ---------------------------------------------------------------------------
# Homotopy transfer


class MinimalAInfty:
    """A minimal A-infinity structure (m_3, ..., m_N) on L[i^{+-1}].

    Every operation is an iota-linear cochain on the degree-zero part; the
    operation of arity n has iota power (n-2)/2, so odd arities vanish on
    the evenly graded algebras handled here.  The Maurer-Cartan residuals
    up to the arity cap are computed at construction and kept as `report`;
    `check` decides whether a failure raises.
    """

    def __init__(self, laurent: LaurentAlgebra, ops, cap, check=True):
        self.laurent = laurent
        self.ops = {n: c for n, c in ops.items() if not c.is_zero()}
        self.cap = cap
        self.report = mc_check(self)
        if check and not self.report.ok:
            raise AlgebraSpecError("Maurer-Cartan equation fails: %r" % self.report.failures())

    @property
    def algebra(self):
        return self.laurent.base

    def op(self, n) -> Cochain:
        c = self.ops.get(n)
        if c is not None:
            return c
        return Cochain.zero(self.algebra, (n - 2) // 2 if (n - 2) % 2 == 0 else 0).with_cap(self.cap)

    def arities(self):
        return sorted(self.ops)

    def to_json(self):
        return {
            "cap": self.cap,
            "ops": {str(n): c.to_json() for n, c in sorted(self.ops.items())},
            "mc_residual_digest": self.report.digest(),
        }


class ResidualReport:
    """Per-arity residual cochains of a quadratic A-infinity identity."""

    def __init__(self, residuals, cap):
        self.residuals = residuals  # arity -> Cochain
        self.cap = cap

    @property
    def ok(self):
        return all(c.is_zero() for c in self.residuals.values())

    def failures(self):
        return sorted(n for n, c in self.residuals.items() if not c.is_zero())

    def digest(self):
        return {
            "cap": None if self.cap == math.inf else self.cap,
            "zero_arities": sorted(int(n) for n, c in self.residuals.items() if c.is_zero()),
            "nonzero_arities": [int(n) for n in self.failures()],
        }


def transfer(dga: DGAlgebra, con: ContractionData, N: int) -> MinimalAInfty:
    """Kadeishvili transfer: minimal operations up to arity N.

    Sum over planar binary trees computed by the convolution recursion on
    V, the sum of the components: Theta_n = sum_k (-1)^k M(Psi_k (x)
    Psi_{n-k}), Psi_1 = I, Psi_n = H Theta_n and b_n = P Theta_n, the sign
    that of b2(x, y) = (-1)^(parity(x)+1) x y in shifted coordinates; all
    other Koszul signs vanish because the intermediate maps have degree
    zero.  Theta_n lies in the component of parity n, so b_n is zero at odd
    n, as P vanishes on the odd component once the odd cohomology is zero.
    The Maurer-Cartan equation (checked on construction) pins the signs.
    A bounded algebra, or one with odd cohomology, raises NotLaurentForm.
    """
    from .dg import _laurent_h0

    f = dga.field
    lau = _laurent_h0(con)
    base = lau.base
    psi = {1: con.I}
    ops = {}
    # Psi_k = H Theta_k (Psi_1 = I) lands in parity k - 1, so term k reads M
    # only where its first input has that parity: cut[p] is M there
    ident = Matrix.identity(dga.M.rows, f)
    even = Matrix.from_nonzeros([{} if deg % 2 else {a: f.one} for a, deg in enumerate(dga._degree_of)], ident.cols, f)
    cut = [compose(dga.M, [even, ident]), compose(dga.M, [ident - even, ident])]
    for n in range(2, N + 1):
        terms = [(-f.one if k % 2 else f.one, [compose(cut[(k - 1) % 2], [psi[k], psi[n - k]])]) for k in range(1, n)]
        theta = kron_sum(terms, dga.M.rows, base.dim**n, f)
        psi[n] = con.H * theta
        bn = con.P * theta
        if n == 2:
            if bn != Cochain.multiplication(base).component_matrix(2):
                raise AlgebraSpecError("transferred binary product disagrees with the algebra")
        elif not bn.is_zero():
            ops[n] = Cochain.from_matrix(base, n, bn, (n - 2) // 2, cap=N)
    return MinimalAInfty(lau, ops, N)


# ---------------------------------------------------------------------------
# Structure equations


def _residuals(lam, terms, arities, cap):
    """{p: the sum of the terms (p, sign, x0, args)} for p in arities, one
    brace_sum each, reliable up to cap; the zero cochain where no term is."""
    at = {}
    for p, *term in terms:
        at.setdefault(p, []).append(term)
    return {p: brace_sum(at[p], cap=cap) if p in at else Cochain.zero(lam) for p in arities}


def mc_check(m: MinimalAInfty) -> ResidualReport:
    """Residuals d(m) + m{m} per arity, all zero up to the cap on success."""
    terms = [(n + 1, *t) for n, c in m.ops.items() for t in _d_terms(c)]
    terms += [(a + b - 1, 1, ca, [cb]) for a, ca in m.ops.items() for b, cb in m.ops.items()]
    return ResidualReport(_residuals(m.algebra, terms, range(3, m.cap + 1), m.cap), m.cap)


class AInftyMorphism:
    """(f_1; f_2, f_3, ...) between minimal structures.

    linear is None for identity linear part.  Otherwise it is a central
    unit u of the degree-zero algebra, and the morphism m -> m' is stored
    as the pair (u; f): f is an identity-part morphism m -> m' * g_u (see
    gauge_by_central_unit), followed by the strict isomorphism g_u:
    m' * g_u -> m'.  to_json names such a linear part "twisted"; u itself
    is not written.  The higher components are cochains of total degree 1
    (arity n has iota power (n-1)/2; Euler-adjoined components are stored
    as honest weighted cochains).  build_iso sets `residual` to the
    ResidualReport of the check that accepted the morphism.
    """

    def __init__(self, source: MinimalAInfty, target: MinimalAInfty, higher, linear=None):
        self.source = source
        self.target = target
        self.higher = {n: c for n, c in higher.items() if not c.is_zero()}
        self.linear = linear
        self.residual = None

    def to_json(self):
        return {
            "linear": "identity" if self.linear is None else "twisted",
            "components": {str(n): c.to_json() for n, c in sorted(self.higher.items())},
        }


def ainfty_map_check(f: AInftyMorphism, m: MinimalAInfty, mp: MinimalAInfty, cap=None) -> ResidualReport:
    """Residual of the morphism equation, per arity.

    d(f) + f.f + sum_r m'{f,...,f} - m - f{m}; for a linear part g_u the
    higher components are checked as an identity-part morphism into m' * g_u.
    """
    if cap is None:
        cap = min(m.cap, mp.cap)
    if f.linear is not None:
        mp = gauge_by_central_unit(mp, f.linear)
    terms = _morphism_terms(f.higher, m.ops, mp.ops, cap)
    return ResidualReport(_residuals(m.algebra, terms, range(3, cap + 1), cap), cap)


def _morphism_terms(f, m_ops, mp_ops, cap):
    """d(f) + f.f + sum_{r>=0} m'{f,...,f} - m - f{m} as terms (arity, sign,
    x0, args), d and the cup product f_a.f_b as hochschild writes them and
    m'_k{} = m'_k, the m' terms up to arity cap; f, m_ops and mp_ops map
    arities to the components of the morphism (identity linear part), the
    source and the target ops."""
    terms = [(k, -1, mk, []) for k, mk in m_ops.items()]
    for a, fa in f.items():
        terms += [(a + 1, *t) for t in _d_terms(fa)] + [(a + b, *t) for b, fb in f.items() for t in _cup_terms(fa, fb)]
        terms += [(a + b - 1, -1, fa, [mb]) for b, mb in m_ops.items()]
    for k, mk in mp_ops.items():
        for r in range(k + 1):
            for combo in product(sorted(f), repeat=r):
                if k - r + sum(combo) <= cap:
                    terms.append((k - r + sum(combo), 1, mk, [f[a] for a in combo]))
    return terms


def _left_multiply(c: Cochain, z):
    """z . c: every component of c left-multiplied by the central element z."""
    lam = c.algebra
    mult = lam.left_mult_of(z)
    comps = {p: {e: mult * mat for e, mat in comp.items()} for p, comp in c.comps.items()}
    return Cochain(lam, c.iota, comps, c.cap)


def _central_power(lam, w, k):
    out = list(lam.unit)
    if k >= 0:
        for _ in range(k):
            out = lam.mul(out, w)
    else:
        winv = lam.inverse(w)
        for _ in range(-k):
            out = lam.mul(out, winv)
    return out


def gauge_by_central_unit(m: MinimalAInfty, u) -> MinimalAInfty:
    """Gauge by g_u: x -> x u^i on the degree-2i part (iota -> u^{-1} iota)."""
    lam = m.algebra
    u = lam.element_from(u)
    if not lam.is_central(u):
        raise NotCentral("u is not central")
    if not lam.is_unit(u):
        raise NotUnit("u is not a unit")
    # (m * g_u)_n = g_u^{-1} o m_n o g_u^{(x)n} is u^q . m_n on iota power q
    ops = {n: _left_multiply(c, _central_power(lam, u, c.iota)) for n, c in m.ops.items()}
    return MinimalAInfty(m.laurent, ops, m.cap)


# ---------------------------------------------------------------------------
# Massey classes


def extract_m4_class(m: MinimalAInfty) -> HHClass:
    """The universal Massey product [m_4] (requires m_3 = 0)."""
    if 3 in m.ops:
        raise M3NonZero("m_3 is nonzero")
    lam = m.algebra
    c = m.op(4)
    return class_of(lam, c, 4, 1)


def restricted_ump(m: MinimalAInfty) -> HHClass:
    """j*[m_4]: same representative, viewed with coefficients L . iota.

    class_of reads only the weight-zero component of m_4, which is j*(m_4),
    so this is the class extract_m4_class already built.
    """
    return extract_m4_class(m)


# ---------------------------------------------------------------------------
# Classes on the Laurent algebra (pair decomposition) and the two equations


class LaurentHHClass:
    """A class in HH(L[i])(L[i]) as an (x-part, e2-part) pair of L-classes."""

    def __init__(self, x_part: HHClass, e_part: HHClass):
        self.x_part = x_part
        self.e_part = e_part

    def is_zero(self):
        return self.x_part.is_zero() and self.e_part.is_zero()

    def __eq__(self, other):
        if not isinstance(other, LaurentHHClass):
            return NotImplemented
        return self.x_part == other.x_part and self.e_part == other.e_part

    def __repr__(self):
        return "LaurentHHClass(x=%r, e2=%r)" % (self.x_part, self.e_part)


def laurent_class_of(lam, c: Cochain, p, j) -> LaurentHHClass:
    """Decompose the class of a cocycle on L[i] via the Euler quasi-isomorphism."""
    fw = hh_isos_forward(c)
    xr = Cochain.from_matrix(lam, p, fw.plain.component_matrix(p), j, fw.plain.cap)
    er = Cochain.from_matrix(lam, p - 1, fw.euler.component_matrix(p - 1), j, fw.euler.cap)
    return LaurentHHClass(class_of(lam, xr, p, j), class_of(lam, er, p - 1, j))


def two_equations_solve(lam, u: HHClass):
    """The unique Laurent class m with j*(m) = u . iota and [m, m]/2 = 0.

    u is a unit class of bidegree (4, 0) on L.  Returns the class as an
    (x-part, e2-part) pair together with a certificate that the affine
    space of solutions has dimension zero (the constraints are linear in
    the Euler part once the x-part is pinned by the first equation).
    """
    if u.bidegree != (4, 0):
        raise WrongBidegree("u must live in bidegree (4, 0)")
    u_iota = class_of(lam, u.representative.shift_iota(1), 4, 1)
    if not tate_unit_check(u_iota):
        raise NotAUnit("the given class is not a Tate unit")
    # x = (1/2) u^{-1} [u, u]
    uu = u.bracket_cls(u)
    half = lam.field.of(1, 2)
    x = divide_class(uu.scale(half), u)
    m_class = LaurentHHClass(u_iota, class_of(lam, x.representative.shift_iota(1), 3, 1))
    # certificate: enumerate the affine solution set over the e2-part space
    ctx3 = hh_context(lam, 3, 1)
    basis = ctx3.basis_classes()
    uplain = u.representative.shift_iota(1)

    def constraint(beta_rep: Cochain):
        cand = EulerAdjoinedCochain(uplain, beta_rep)
        c = cand.to_cochain()
        br = bracket(c, c).scale(half)
        return laurent_class_of(lam, br, 7, 2)

    base_rep = Cochain.zero(lam, 1)
    c0 = constraint(base_rep)
    cols = []
    for b in basis:
        cb = constraint(base_rep + b.representative)
        dx = cb.x_part - c0.x_part
        de = cb.e_part - c0.e_part
        # verify linearity (no quadratic cross terms) pairwise
        cols.append(list(dx.coords) + list(de.coords))
    for s in range(len(basis)):
        for t in range(s + 1, len(basis)):
            cst = constraint(base_rep + basis[s].representative + basis[t].representative)
            lin = [a + b + c for a, b, c in zip(
                list(c0.x_part.coords) + list(c0.e_part.coords),
                cols[s],
                cols[t],
            )]
            got = list(cst.x_part.coords) + list(cst.e_part.coords)
            if lin != got:
                raise AlgebraSpecError("constraint is not affine-linear (unexpected)")
    rhs = [-v for v in (list(c0.x_part.coords) + list(c0.e_part.coords))]
    if basis:
        A = Matrix(cols, lam.field).transpose()
        sol = solve(A, rhs)
        if sol is None:
            raise AlgebraSpecError("no solution to the Maurer-Cartan constraint (unexpected)")
        sol_dim = kernel_basis(A).dim
    elif any(rhs):
        raise AlgebraSpecError("no solution to the Maurer-Cartan constraint (unexpected)")
    else:
        sol, sol_dim = [], 0
    solved = LaurentHHClass(u_iota, ctx3.combination(sol))
    if solved != m_class:
        raise AlgebraSpecError("closed formula and enumeration disagree")
    m_class.solution_space_dim = sol_dim
    return m_class


def contractible_solution(a: Cochain, u: HHClass, q: int):
    """Cochains (c_lower, c_upper) with d(c_lower) = 0 and
    a + d(c_upper) + [m4_rep, c_lower] = 0 exactly.

    m4_rep is u's representative placed at iota power 1.  A coboundary `a`
    is solved first with c_lower = 0 and no candidates.  Otherwise one
    linear solve per layout (solve_coboundary with `also`) finds c_upper
    together with c_lower, a combination of candidate cocycles c, each
    entering as the column of [m4_rep, c]: in the plain layout the
    representatives of HH^{p-3, -2(q-1)}; in the weighted layout, tried when
    the plain solve fails, also v . e2 for each representative v of
    HH^{p-4, -2(q-1)} (the Euler-adjoined contraction
    c_lower ~ u^{-1} e2 x i^{q-1}).  With zero free coordinates, c_lower
    uses the leftmost candidates whose brackets are independent modulo
    coboundaries.  The identity is re-verified exactly before returning.
    Raises ObstructionNotContractible when neither layout solves it.
    """
    lam = a.algebra
    aits = [p_ for p_, comp in a.comps.items() if comp]
    zero = Cochain.zero(lam, q - 1)
    if not aits:
        return EulerAdjoinedCochain(zero, zero), Cochain.zero(lam, q)
    if len(aits) != 1:
        raise AlgebraSpecError("obstruction must be arity-homogeneous")
    p = aits[0]
    if not differential(a, cap=p + 1).is_zero(up_to=p + 1):
        raise NotACocycle("obstruction is not a cocycle")
    m4_rep = u.representative.shift_iota(1)
    target = a.scale(-lam.field.one)

    def solved(cands, weighted):
        """(c_lower, c_upper) from the candidates in one layout, or None."""
        columns = [bracket(m4_rep, c.to_cochain(), cap=p) for c in cands]
        sol = solve_coboundary(lam, target, p, q, weighted, also=columns)
        if sol is None:
            return None
        c_up, x = sol
        c_low = sum((c.scale(t) for t, c in zip(x, cands) if t), EulerAdjoinedCochain(zero, zero))
        lowc = c_low.to_cochain()
        if not differential(lowc, cap=p).is_zero(up_to=p):
            return None
        if not (a + differential(c_up, cap=p + 1) + bracket(m4_rep, lowc, cap=p)).is_zero(up_to=p):
            return None
        return c_low, c_up

    # a coboundary needs no candidates, and so no hh_context, which stops at the horizontal cap
    found = solved([], False)
    if found is None:
        cands = [EulerAdjoinedCochain(g.representative, zero) for g in hh_context(lam, p - 3, q - 1).basis_classes()]
        found = solved(cands, False)
    if found is None:
        cands += [EulerAdjoinedCochain(zero, v.representative) for v in hh_context(lam, p - 4, q - 1).basis_classes()]
        found = solved(cands, True)
    if found is None:
        raise ObstructionNotContractible("no exact correction found for the obstruction class", arity=p)
    return found


# ---------------------------------------------------------------------------
# The inductive isomorphism builder


def build_iso(m: MinimalAInfty, mp: MinimalAInfty, N: int) -> AInftyMorphism:
    """An A-infinity isomorphism f: m -> m' with residual zero up to N.

    Requires m_3 = 0 on both sides and equal restricted Massey classes; if
    the classes differ, a compensating gauge by a central unit is searched
    first and the returned morphism carries that unit as its linear part.
    Stage n kills the arity-(2n+2) obstruction with contractible_solution.
    """
    lam = m.algebra
    field = lam.field
    if 3 in m.ops or 3 in mp.ops:
        raise M3NonZero("both structures must have m_3 = 0")
    r1 = restricted_ump(m)
    r2 = restricted_ump(mp)
    if r1 != r2:
        uvec = _search_compensating_unit(lam, r1, r2)
        if uvec is None:
            raise ClassMismatch("restricted Massey classes differ even after gauge search")
        core = build_iso(m, gauge_by_central_unit(mp, uvec), N)
        f = AInftyMorphism(m, mp, core.higher, linear=uvec)
        f.residual = core.residual
        return f
    # stage 1: d(f3) = m4 - m4'
    diff4 = m.op(4) - mp.op(4)
    stage1 = solve_coboundary(lam, diff4, 4, 1)
    if stage1 is None:
        raise ClassMismatch("m4 classes differ at the cochain level (precheck passed?)")
    f = {3: stage1[0]}
    u_cls = class_of(lam, m.op(4).shift_iota(-1), 4, 0)
    n = 2
    while 2 * n + 2 <= N:
        morph = AInftyMorphism(m, mp, f, None)
        rep = ainfty_map_check(morph, m, mp, cap=2 * n + 2)
        for arity in range(3, 2 * n + 2):
            if not rep.residuals[arity].is_zero():
                raise AlgebraSpecError("residual not zero below the current stage (arity %d)" % arity)
        a = rep.residuals[2 * n + 2]
        if a.is_zero():
            n += 1
            continue
        old_f3 = f[3]
        c_low, newtop = contractible_solution(a, u_cls, n)
        lowc = c_low.to_cochain()
        if not lowc.is_zero():
            f[2 * n - 1] = f.get(2 * n - 1, Cochain.zero(lam, n - 1)) + lowc
            newtop = newtop + brace(old_f3, [lowc], cap=2 * n + 1)
            if n == 2:
                newtop = newtop + brace(lowc, [lowc], cap=5).scale(field.of(1, 2))
        if not newtop.is_zero():
            f[2 * n + 1] = newtop
        n += 1
    morph = AInftyMorphism(m, mp, f, None)
    morph.residual = ainfty_map_check(morph, m, mp, cap=N)
    if not morph.residual.ok:
        raise ObstructionNotContractible(
            "constructed morphism has nonzero residual", arity=morph.residual.failures()[0]
        )
    return morph


def _search_compensating_unit(lam, target: HHClass, current: HHClass):
    """A central unit u with u . current = target, or None.

    The action of g_u on the restricted class is cup with u (as a
    0-cochain); centrality makes this linear in u, so the search is a
    solve over the centre followed by a unit check.
    """
    field = lam.field
    zs = lam.center_basis().vectors()
    ctx0 = hh_context(lam, 0, 0)
    cols = [row[0].coords for row in cup_table([HHClass(ctx0, vec=z) for z in zs], [current])]
    A = Matrix(cols, field).transpose()
    sol = solve(A, list(target.coords))
    if sol is None:
        return None
    centre = Matrix(zs, field).transpose()
    u = centre.apply(sol)
    if lam.is_unit(u):
        return u
    # homogeneous freedom may restore unit-ness
    for kv in kernel_basis(A).vectors():
        cand = [a + b for a, b in zip(u, centre.apply(kv))]
        if lam.is_unit(cand):
            return cand
    return None


FORMAL = "FORMAL"
NOT_FORMAL = "NOT_FORMAL"
INCONCLUSIVE = "INCONCLUSIVE"


class FormalityVerdict:
    def __init__(self, verdict, certificate=None, obstruction_arity=None):
        self.verdict = verdict
        self.certificate = certificate
        self.obstruction_arity = obstruction_arity

    def __eq__(self, other):
        if isinstance(other, str):
            return self.verdict == other
        return NotImplemented

    def __repr__(self):
        extra = ""
        if self.obstruction_arity is not None:
            extra = ", arity=%d" % self.obstruction_arity
        return "FormalityVerdict(%s%s)" % (self.verdict, extra)


def formality_verdict_of_model(m: MinimalAInfty, N: int) -> FormalityVerdict:
    """Formality verdict for an already-minimal structure.

    FORMAL when an isomorphism to the zero-higher-operations structure is
    found up to N; NOT_FORMAL when the restricted [m4] class is nonzero
    (certificate attached); INCONCLUSIVE when [m4] vanishes but a higher
    obstruction resists (arity reported).
    """
    if not m.ops:
        return FormalityVerdict(FORMAL)
    if 3 in m.ops:
        return FormalityVerdict(INCONCLUSIVE, obstruction_arity=3)
    r = restricted_ump(m)
    if not r.is_zero():
        return FormalityVerdict(NOT_FORMAL, certificate=r)
    zero = MinimalAInfty(m.laurent, {}, N)
    try:
        build_iso(m, zero, N)
        return FormalityVerdict(FORMAL)
    except ObstructionNotContractible as exc:
        return FormalityVerdict(INCONCLUSIVE, obstruction_arity=exc.arity)


def is_formal(dga: DGAlgebra, N: int) -> FormalityVerdict:
    """FORMAL / NOT_FORMAL (nonzero restricted [m4]) / INCONCLUSIVE.

    Transfers a minimal model and compares it with the structure having
    all higher operations zero, using the inductive builder.
    """
    from .dg import make_contraction

    con = make_contraction(dga)
    m = transfer(dga, con, N)
    return formality_verdict_of_model(m, N)


def transported_structure(m: MinimalAInfty, fdict, cap=None) -> MinimalAInfty:
    """The unique structure m'' making (id; f) a morphism m -> m''.

    Solves the morphism equation arity by arity for the target operations
    (the arity-N equation determines m''_N from lower data, since every
    other occurrence of m'' is inserted into at least one f).  This is the
    honest way to perturb a structure by a coboundary while keeping the
    Maurer-Cartan equation exact: transport along (id, ..., b, ...).
    """
    if cap is None:
        cap = m.cap
    f = {n: c for n, c in fdict.items() if not c.is_zero()}
    ops = {}
    for N in range(3, cap + 1):
        # m''_N is minus the arity-N terms, which hold no m''_k with k >= N
        terms = [(p, -sign, x0, args) for p, sign, x0, args in _morphism_terms(f, m.ops, ops, N)]
        op = _residuals(m.algebra, terms, [N], cap)[N]
        if not op.is_zero():
            ops[N] = op
    return MinimalAInfty(m.laurent, ops, cap)
