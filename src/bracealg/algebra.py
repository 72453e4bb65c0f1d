"""Bimodules, bar resolutions and syzygies over finite-dimensional algebras.

Bimodules over an algebra L are the same thing as left modules over its
enveloping algebra L (x) L^op; the stable category machinery (stripping
projective summands, stable isomorphism) is implemented for enveloping
algebras of the commutative local test beds, where the socle criterion
makes projective summands visible by plain rank computations.  The
algebras themselves are in `finite`, re-exported here.
"""

from __future__ import annotations

import functools
import random

# load_algebra and solve are re-exported for callers that import them from here
from .finite import AlgebraSpecError, FiniteAlgebra, _first_difference, _generators, _normalizing_maps, _per_algebra
from .finite import build_truncated_polynomial, load_algebra  # noqa: F401
from .linalg import (  # noqa: F401
    Matrix,
    SubspaceBasis,
    compose,
    kernel_basis,
    kron,
    kron_sum,
    rank,
    _Echelon,
    _echelon_of,
    solve,
    solve_matrix,
)


def enveloping(a: FiniteAlgebra) -> FiniteAlgebra:
    """A (x) A^op; basis (i,j) at index i*dim+j, (a(x)b)(c(x)d)=ac(x)db."""
    d = range(a.dim)
    labels = ["%s(x)%s" % (a.basis_labels[i], a.basis_labels[j]) for i in d for j in d]
    unit = [x * y for x in a.unit for y in a.unit]
    # op side: (i,j)*(k,l) -> (ik, lj)
    mult = [[[x * y for x in a.mult[i][k] for y in a.mult[l][j]] for k in d for l in d] for i in d for j in d]
    return FiniteAlgebra(labels, unit, mult, a.field)


# ---------------------------------------------------------------------------
# Bimodules


class Bimodule:
    """A Lambda-bimodule with explicit action matrices per algebra basis.

    The actions are checked exactly, by compose identities of the action maps
    l: Lambda (x) M -> M and r: M (x) Lambda -> M: the unit laws, l(mu (x) 1) =
    l(1 (x) l) and r(1 (x) mu) = r(r (x) 1) with the outer algebra input on a
    generating set G (finite._generators), and l(1 (x) r) = r(l (x) 1) on
    G x G.  That suffices, as the a with L_ab = L_a L_b for every b form a
    unital subalgebra, and likewise on the right and for commutation.  An
    error names the first failing pair of basis elements.
    """

    def __init__(self, algebra: FiniteAlgebra, left, right):
        self.algebra = algebra
        self.left = list(left)
        self.right = list(right)
        self.dim = self.left[0].rows if self.left else 0
        self._strip = None  # filled in by strip_projective_summands
        self._check()

    def _check(self):
        lam, m = self.algebra, self.dim
        d, field, gens = lam.dim, lam.field, _generators(lam)
        if len(self.left) != d or len(self.right) != d:
            raise AlgebraSpecError("need one action matrix per algebra basis element")
        k, mu, unit = len(gens), lam.mult_matrix(), Matrix.column_vector(lam.unit, field)
        basis, ident, ik = Matrix.identity(d, field), Matrix.identity(m, field), Matrix.identity(k, field)
        G = basis.select_rows(gens).transpose()  # d x k: the generators as columns
        l, r = _action_maps(self, range(d))
        lg, rg = _action_maps(self, gens)
        col = _first_difference(compose(l, [unit, ident]), ident)
        if col is not None:
            raise AlgebraSpecError("left action is not unital at basis %d" % col)
        col = _first_difference(compose(r, [ident, unit]), ident)
        if col is not None:
            raise AlgebraSpecError("right action is not unital at basis %d" % col)
        col = _first_difference(compose(l, [compose(mu, [G, basis]), ident]), compose(lg, [ik, l]))
        if col is not None:  # column (g, b, v)
            raise AlgebraSpecError("left action not associative at (%d,%d)" % (gens[col // (d * m)], col // m % d))
        col = _first_difference(compose(r, [ident, compose(mu, [basis, G])]), compose(rg, [r, ik]))
        if col is not None:  # column (v, b, g)
            raise AlgebraSpecError("right action not associative at (%d,%d)" % (col // k % d, gens[col % k]))
        col = _first_difference(compose(lg, [ik, rg]), compose(rg, [lg, ik]))
        if col is not None:  # column (g, v, h)
            raise AlgebraSpecError("actions do not commute at (%d,%d)" % (gens[col // (m * k)], gens[col % k]))

    def env_action(self, i, j):
        """Matrix of the enveloping-algebra basis element e_i (x) e_j."""
        return self.left[i] * self.right[j]

    def __repr__(self):
        return "Bimodule(dim=%d over %r)" % (self.dim, self.algebra)


def _action_maps(mod: Bimodule, idx):
    """The action maps of mod on the k algebra basis elements idx: l, whose
    column t*m + v is e_idx[t] . v, and r, whose column v*k + t is v . e_idx[t]."""
    k, m, field = len(idx), mod.dim, mod.algebra.field
    basis = Matrix.identity(k, field)
    l = kron_sum([(field.one, [basis.select_rows([t]), mod.left[i]]) for t, i in enumerate(idx)], m, k * m, field)
    r = kron_sum([(field.one, [mod.right[i], basis.select_rows([t])]) for t, i in enumerate(idx)], m, m * k, field)
    return l, r


@_per_algebra
def diagonal_bimodule(lam: FiniteAlgebra) -> Bimodule:
    """Lambda itself with the regular actions; built (and stripped) once per
    algebra."""
    mats_l = [lam.left_mult_matrix(i) for i in range(lam.dim)]
    mats_r = [lam.right_mult_matrix(i) for i in range(lam.dim)]
    return Bimodule(lam, mats_l, mats_r)


class BimoduleMap:
    """A map f of bimodules given by its matrix; checked to be equivariant,
    exactly, by f l = l'(1 (x) f) and f r = r'(f (x) 1) on the generating set
    G of Lambda, as in Bimodule.  An error names the first failing generator."""

    def __init__(self, source: Bimodule, target: Bimodule, matrix: Matrix):
        self.source = source
        self.target = target
        self.matrix = matrix
        if matrix.rows != target.dim or matrix.cols != source.dim:
            raise AlgebraSpecError("bimodule map has wrong shape")
        self._check()

    def _check(self):
        f, gens = self.matrix, _generators(self.source.algebra)
        ik = Matrix.identity(len(gens), f.field)
        (l, r), (tl, tr) = _action_maps(self.source, gens), _action_maps(self.target, gens)
        col = _first_difference(f * l, compose(tl, [ik, f]))
        if col is not None:  # column (g, v)
            raise AlgebraSpecError("map does not commute with left action %d" % gens[col // self.source.dim])
        col = _first_difference(f * r, compose(tr, [f, ik]))
        if col is not None:  # column (v, g)
            raise AlgebraSpecError("map does not commute with right action %d" % gens[col % len(gens)])

    def __repr__(self):
        return "BimoduleMap(%d -> %d)" % (self.source.dim, self.target.dim)


# ---------------------------------------------------------------------------
# The normalized bar resolution, built from compose


class BarModule:
    """B_p = Lambda (x) M^(x)p (x) Lambda, free over the enveloping algebra on
    1 (x) M^(x)p (x) 1, with M = Lambda / k.1 (bar_resolution) or Lambda of dim mid.

    Basis indices encode tuples (j_0, m_1, ..., m_p, j_{p+1}), the first
    position most significant.  The outer actions are built on first use: a
    syzygy needs them on one module of a resolution only.
    """

    def __init__(self, algebra: FiniteAlgebra, p: int, mid: int):
        self.algebra = algebra
        self.p = p
        self.dim = algebra.dim**2 * mid**p

    @functools.cached_property
    def left(self):
        return _outer_actions(self.algebra, self.dim, "left")

    @functools.cached_property
    def right(self):
        return _outer_actions(self.algebra, self.dim, "right")

    @functools.cached_property
    def generators(self):
        """The inclusion M^(x)p -> B_p, m_1 .. m_p -> 1 (x) m_1 .. m_p (x) 1."""
        unit = Matrix.column_vector(self.algebra.unit, self.algebra.field)
        middle = Matrix.identity(self.dim // self.algebra.dim**2, self.algebra.field)
        return kron([unit, middle, unit])

    def __repr__(self):
        return "BarModule(p=%d, dim=%d)" % (self.p, self.dim)


def _outer_actions(lam: FiniteAlgebra, dim, side):
    """L_b in the first slot (side "left") or R_b in the last, for each basis
    element b, on Lambda (x) R (x) Lambda of dimension dim."""
    rest = Matrix.identity(dim // lam.dim, lam.field)
    if side == "left":
        return [kron([lam.left_mult_matrix(b), rest]) for b in range(lam.dim)]
    return [kron([rest, lam.right_mult_matrix(b)]) for b in range(lam.dim)]


def free_rank_one_bimodule(lam: FiniteAlgebra) -> Bimodule:
    """Lambda (x) Lambda with outer actions; basis (i,j) at i*dim+j."""
    free = BarModule(lam, 0, lam.dim)
    return Bimodule(lam, free.left, free.right)


class Resolution:
    """A (partial) projective bimodule resolution of Lambda.

    differentials[k] is the Matrix of d_k : modules[k] -> modules[k-1] for
    k >= 1, and differentials[0] is the augmentation modules[0] -> Lambda.
    d o d = 0 is always verified; exactness is certified either by an
    explicit contracting homotopy (bar case) or by rank computations
    (recorded in exactness_verified_up_to).
    """

    def __init__(self, algebra, modules, differentials, exactness_verified_up_to=-1):
        self.algebra = algebra
        self.modules = modules
        self.differentials = differentials
        self.exactness_verified_up_to = exactness_verified_up_to
        self.length = len(modules) - 1

    @property
    def augmentation(self) -> Matrix:
        return self.differentials[0]

    def differential_matrix(self, k) -> Matrix:
        """The matrix of d_k : modules[k] -> modules[k-1]."""
        return self.differentials[k]


def _check_complex(res: Resolution, what):
    """d_{k-1} o d_k = 0 for k >= 1, each as one matrix product."""
    for k in range(1, res.length + 1):
        if not (res.differentials[k - 1] * res.differentials[k]).is_zero():
            raise AlgebraSpecError("%s: d_%d o d_%d != 0" % (what, k - 1, k))


def bar_resolution(lam: FiniteAlgebra, length: int) -> Resolution:
    """The normalized bar resolution B_p = Lambda (x) Lambda-bar^(x)p (x) Lambda
    up to B_length, Lambda-bar = Lambda / k.1 (Loday, Cyclic Homology, ch. 1):
    stably the same syzygies as the unnormalized bar, and smaller (Omega^4 of
    k[x]/(x^3) has 48 dimensions there, not 183).

    With J, P as in _normalizing_maps and mu the product, face 0 of d_p is
    mu(I (x) J), the inner faces are P mu(J (x) J) and the last is mu(J (x) I),
    with signs (-1)^i; the augmentation is mu.  The contracting homotopy
    s(a_0 (x) ...) = 1 (x) P(a_0) (x) ... certifies exactness, as one exact
    identity d s + s d = id per degree.
    """
    return _bar(lam, length, *_normalizing_maps(lam))


def _bar(lam: FiniteAlgebra, length: int, J: Matrix, P: Matrix) -> Resolution:
    """The bar complex with middle factor M, given J: M -> Lambda and
    P: Lambda -> M with P J = I and I - J P mapping into k.1; J = P = I gives
    the unnormalized bar Lambda^(x)(p+2)."""
    if length < 1:
        raise AlgebraSpecError("length must be >= 1")
    field = lam.field
    mu = lam.mult_matrix()
    ident = Matrix.identity(lam.dim, field)
    mid = Matrix.identity(J.cols, field)
    first, inner, last = compose(mu, [ident, J]), P * compose(mu, [J, J]), compose(mu, [J, ident])
    modules = [BarModule(lam, p, J.cols) for p in range(length + 1)]
    diffs = [mu]
    for p in range(1, length + 1):
        # face i maps slots i and i+1 of (j_0, m_1, ..., m_p, j_{p+1}) to one
        slots = [ident] + [mid] * p + [ident]
        faces = [
            (-1 if i % 2 else 1, slots[:i] + [first if i == 0 else last if i == p else inner] + slots[i + 2 :])
            for i in range(p + 1)
        ]
        diffs.append(kron_sum(faces, modules[p - 1].dim, modules[p].dim, field))
    res = Resolution(lam, modules, diffs)
    _check_complex(res, "bar resolution")
    # d_{p+1} s_p + s_{p-1} d_p = id on B_p for p < length certifies exactness
    # at 0..length-1 without elimination: s_p(a_0 (x) rest) = 1 (x) P(a_0) (x) rest,
    # s_{-1}: Lambda -> B_0 puts the unit in front, d_0 is the augmentation
    unit = Matrix.column_vector(lam.unit, field)
    prev = kron([unit, ident])
    for p in range(length):
        rest = Matrix.identity(modules[p].dim // lam.dim, field)
        s_p = kron([unit, P, rest])
        bad = _first_difference(diffs[p + 1] * s_p + prev * diffs[p], Matrix.identity(modules[p].dim, field))
        if bad is not None:
            raise AlgebraSpecError("bar homotopy identity fails at p=%d idx=%d" % (p, bad))
        prev = s_p
    res.exactness_verified_up_to = length - 1
    return res


@_per_algebra
def periodic_bimodule_resolution(lam: FiniteAlgebra, length: int) -> Resolution:
    """The explicit 2-periodic resolution of k[x]/(x^n) by rank-one frees.

    Differentials alternate multiplication by x(x)1 - 1(x)x and by
    sum_i x^i (x) x^(n-1-i); exactness is verified by rank computations
    at every position (the modules have dimension n^2, so this is cheap).
    Built once per algebra and length.
    """
    n = lam.dim
    field = lam.field
    # sanity: lam must actually be k[x]/(x^n) in the standard basis
    probe = build_truncated_polynomial(n, field)
    if lam.mult != probe.mult:
        raise AlgebraSpecError("periodic resolution oracle needs k[x]/(x^n) in the monomial basis")
    free = free_rank_one_bimodule(lam)
    modules = [free for _ in range(length + 1)]

    def middle_mult(celem):
        # bimodule endomorphism of Lambda(x)Lambda inserting celem in the
        # middle: a (x) b -> sum coeff * a c1 (x) c2 b
        parts = [(coeff, [lam.right_mult_matrix(c1), lam.left_mult_matrix(c2)]) for (c1, c2), coeff in celem.items()]
        return kron_sum(parts, n * n, n * n, field)

    pi_elem = {(1, 0): field.one, (0, 1): -field.one} if n > 1 else {}
    tau_elem = {(i, n - 1 - i): field.one for i in range(n)}
    diffs = [lam.mult_matrix()] + [middle_mult(pi_elem if k % 2 else tau_elem) for k in range(1, length + 1)]
    res = Resolution(lam, modules, diffs)
    _check_complex(res, "periodic resolution")
    # exactness by ranks
    for k in range(1, length + 1):
        if rank(diffs[k]) != n * n - rank(diffs[k - 1]):
            raise AlgebraSpecError("periodic resolution not exact at %d" % (k - 1))
    res.exactness_verified_up_to = length - 1
    return res


class SyzygyBimodule(Bimodule):
    """ker(d_{k-1}) with its induced actions; inclusion is the kernel's
    RREF row basis in the ambient module."""

    def __init__(self, algebra, left, right, inclusion: SubspaceBasis):
        super().__init__(algebra, left, right)
        self.inclusion = inclusion


def syzygy(res: Resolution, k: int) -> Bimodule:
    """The k-th syzygy ker(d_{k-1}) of the resolved module, as a Bimodule.

    k = 0 returns the diagonal bimodule itself.
    """
    lam = res.algebra
    if k == 0:
        return diagonal_bimodule(lam)
    if k - 1 > res.length:
        raise AlgebraSpecError("resolution too short for syzygy %d" % k)
    return _restrict_to_kernel(lam, res.modules[k - 1], kernel_basis(res.differentials[k - 1]))


def _restrict_to_kernel(lam, mod, ker: SubspaceBasis) -> SyzygyBimodule:
    """The actions of mod induced on the submodule spanned by ker.

    The coordinates of a member in the RREF row basis are its entries at
    the pivot columns, so an induced action is the action's rows at the
    pivots times the basis vectors."""
    basis = ker.matrix.transpose()
    left = [a.select_rows(ker.pivots) * basis for a in mod.left]
    right = [a.select_rows(ker.pivots) * basis for a in mod.right]
    return SyzygyBimodule(lam, left, right, ker)


# ---------------------------------------------------------------------------
# Stable category machinery


class StripResult(tuple):
    """(core, stripped_rank) plus inclusion/projection data for the core."""

    def __new__(cls, core, stripped_rank, include_matrix, project_matrix):
        self = tuple.__new__(cls, (core, stripped_rank))
        self.core = core
        self.stripped_rank = stripped_rank
        self.include_matrix = include_matrix  # m.dim x core.dim
        self.project_matrix = project_matrix  # core.dim x m.dim
        return self


def strip_projective_summands(m: Bimodule) -> StripResult:
    """Split off a maximal projective (= free) direct summand.

    Works over the enveloping algebra E of the coefficient algebra.  For
    semisimple E every module is projective.  For local symmetric E with
    one-dimensional socle (all k[x]/(x^n) test beds), an element v with
    soc(E).v != 0 generates a free rank-one summand; the number of free
    summands is the rank of soc(E).M, and an explicit complement is cut
    out by dual-basis functionals obtained from the symmetrizing form.

    The result is kept on m, as a Matrix keeps its rref: each bimodule is
    stripped once.
    """
    if m._strip is None:
        m._strip = _strip(m)
    return m._strip


def _strip(m: Bimodule) -> StripResult:
    lam = m.algebra
    env = _env_of(lam)
    field = lam.field
    d2 = env.dim
    rad = env.radical_basis()
    if rad.dim == 0:
        # semisimple: everything is projective
        empty = [Matrix.zeros(0, 0, field)] * lam.dim
        core = Bimodule(lam, empty, empty)
        return StripResult(core, m.dim, Matrix.zeros(m.dim, 0, field), Matrix.zeros(0, m.dim, field))
    soc = env.socle_generator()
    if soc is None:
        raise AlgebraSpecError(
            "projective stripping implemented for semisimple or local symmetric enveloping algebras"
        )
    form = is_symmetric(lam)
    if form is None:
        raise AlgebraSpecError("coefficient algebra is not symmetric")
    lamform = [x * y for x in form for y in form]  # the product form on Lambda (x) Lambda^op

    def socle_action(mod):  # S = sum c_ij L_i R_j
        parts = [(c, [mod.env_action(*divmod(t, lam.dim))]) for t, c in enumerate(soc) if c]
        return kron_sum(parts, mod.dim, mod.dim, field)

    # soc . M is the column space of S; its rank counts the free summands,
    # and its first independent columns pick generators
    socle_images = socle_action(m).transpose().nonzeros()
    seen = _Echelon(field)
    sel = [j for j, w in enumerate(socle_images) if seen.add(dict(w)) is not None]
    r = len(sel)
    if r == 0:
        return StripResult(m, 0, Matrix.identity(m.dim, field), Matrix.identity(m.dim, field))
    # F-basis rows: b_t . m_l, at row l*d2 + t
    env_mats = [m.env_action(*divmod(t, lam.dim)) for t in range(d2)]  # e_i (x) e_j at i*dim+j
    env_cols = [bt.transpose().nonzeros() for bt in env_mats]
    F = Matrix.from_nonzeros([dict(env_cols[t][l]) for l in sel for t in range(d2)], m.dim, field)
    # dual functionals: f_l(b_t . m_l') = delta_{l l'} lamform(b_t)
    RHS = Matrix.from_nonzeros([{l: lamform[t]} for l in range(r) for t in range(d2)], r, field)
    funcs = solve_matrix(F, RHS)
    if funcs is None:
        raise AlgebraSpecError("free summand extraction failed (theory violation?)")
    # Gram matrix of the symmetrizing pairing on E and its inverse
    gram = Matrix(
        [[_form_value(env, lamform, env.mult[i][j]) for j in range(d2)] for i in range(d2)],
        field,
    )
    gram_inv = solve_matrix(gram, Matrix.identity(d2, field))
    if gram_inv is None:
        raise AlgebraSpecError("symmetrizing form of the enveloping algebra is degenerate")
    # phi_l(v) = gram_inv . (f_l(b_t v))_t; Phi stacks the blocks phi_l, so
    # Phi = (I_r (x) gram_inv) . G with row l*d2 + t of G the row l of f o B_t
    f_rows = funcs.transpose()
    fB = [(f_rows * bt).nonzeros() for bt in env_mats]
    G = Matrix.from_nonzeros([dict(fbt[l]) for l in range(r) for fbt in fB], m.dim, field)
    Phi = kron([Matrix.identity(r, field), gram_inv]) * G
    # Phi is a retraction onto the free part: phi_l(b_t m_l) = b_t and
    # phi_l'(b_t m_l) = 0 for l' != l, i.e. Phi F^T is the identity
    if Phi * F.transpose() != Matrix.identity(r * d2, field):
        raise AlgebraSpecError("retraction verification failed")
    # complement: kernel of Phi via the explicit section; F is factored
    # once, and the projection reduces by it and reads the free columns
    reducer = _echelon_of(field, F.nonzeros())
    if len(reducer.rows) != d2 * r:
        raise AlgebraSpecError("free part has unexpected rank")
    free_cols = [j for j in range(m.dim) if j not in reducer.rows]
    core_dim = len(free_cols)
    # core vector for free column c: e_c - sum_k Phi[k][c] F_k, the row c of
    # I - Phi^T F; only the free rows are formed
    ident = Matrix.identity(m.dim, field)
    include = (ident.select_rows(free_cols) - Phi.transpose().select_rows(free_cols) * F).transpose()
    # column j of the projection: e_j reduced by F, which leaves it at the
    # free columns only
    free_pos = {c: t for t, c in enumerate(free_cols)}
    proj_rows = [{free_pos[c]: x for c, x in reducer.reduce({j: field.one}).items()} for j in range(m.dim)]
    proj_matrix = Matrix.from_nonzeros(proj_rows, core_dim, field).transpose()
    left = [proj_matrix * (a * include) for a in m.left]
    right = [proj_matrix * (a * include) for a in m.right]
    core = Bimodule(lam, left, right)
    # the core must carry no further free summand
    if not socle_action(core).is_zero():
        raise AlgebraSpecError("stripping did not reach a projective-free core")
    return StripResult(core, r, include, proj_matrix)


def _form_value(env, form, vec):
    return sum((c * f for c, f in zip(vec, form) if c), env.field.zero)


_env_of = _per_algebra(enveloping)


def is_stable_iso(f: BimoduleMap) -> bool:
    """True iff f is an isomorphism in the stable bimodule category.

    Both sides are stripped to their projective-free cores; f is a stable
    isomorphism iff the induced map between the cores is a linear
    isomorphism (maps factoring through projectives lie in the radical of
    the endomorphism algebra of a projective-free module, so invertibility
    modulo them equals invertibility).
    """
    src = strip_projective_summands(f.source)
    tgt = strip_projective_summands(f.target)
    if src.core.dim != tgt.core.dim:
        return False
    if src.core.dim == 0:
        return True
    induced = tgt.project_matrix * (f.matrix * src.include_matrix)
    return rank(induced) == src.core.dim


def is_symmetric(a: FiniteAlgebra):
    """A symmetrizing form (linear functional) for a, or None.

    The form L satisfies L(xy) = L(yx) with nondegenerate pairing
    (x, y) -> L(xy).  The space of trace forms is computed exactly; a
    nondegenerate member is searched deterministically (basis members
    first, then a small integer grid).
    """
    d = a.dim
    field = a.field
    rows = []
    for i in range(d):
        for j in range(i):
            diff = [x - y for x, y in zip(a.mult[i][j], a.mult[j][i])]
            if any(diff):
                rows.append(diff)
    space = kernel_basis(Matrix(rows, field, cols=d))
    if space.dim == 0:
        return None

    def nondeg(form):
        gram = Matrix(
            [[_form_value(a, form, a.mult[i][j]) for j in range(d)] for i in range(d)],
            field,
        )
        return rank(gram) == d

    for v in space.vectors():
        if nondeg(v):
            return v
    if space.dim > 1:
        grid = range(-2, 3)
        basis = space.vectors()

        def combos(k):
            if k == 0:
                yield [field.zero] * d
                return
            for rest in combos(k - 1):
                for c in grid:
                    if c == 0:
                        yield rest
                    else:
                        yield [x + field.of(c) * y for x, y in zip(rest, basis[k - 1])]

        if space.dim <= 4:
            for cand in combos(space.dim):
                if any(cand) and nondeg(cand):
                    return cand
        else:
            rng = random.Random(999)
            for _ in range(200):
                cand = [field.zero] * d
                for b in basis:
                    c = field.of(rng.randint(-3, 3))
                    cand = [x + c * y for x, y in zip(cand, b)]
                if any(cand) and nondeg(cand):
                    return cand
    return None


def comparison_map_to_periodic(res_bar: Resolution, k: int) -> BimoduleMap:
    """Chain-map comparison of the bar syzygy with the periodic oracle.

    Lifts the identity of Lambda through the bar resolution (normalized or
    not: the lift is fixed by its values on each module's generators) and
    the explicit 2-periodic resolution, restricts to the k-th syzygy, and
    composes with the explicit isomorphism of the periodic syzygy with
    Lambda.  The output (syzygy -> diagonal bimodule) is the comparison
    map whose stable invertibility witnesses the periodicity.  The
    periodic resolution is built as long as the bar's (and at least k), so
    every k on one bar resolution shares it.
    """
    lam = res_bar.algebra
    field = lam.field
    n = lam.dim
    per = periodic_bimodule_resolution(lam, max(k, res_bar.length))
    mu = lam.mult_matrix()
    ident = Matrix.identity(n, field)
    unit = Matrix.column_vector(lam.unit, field)
    # a_0 (x) (x (x) y) (x) a_1 -> a_0 x (x) y a_1 in Lambda (x) Lambda
    outer = kron([mu, mu])

    def solve_for(m, rhs, failure):
        sol = solve_matrix(m, rhs)
        if sol is None:
            raise AlgebraSpecError(failure)
        return sol

    # the lift alpha_p: B_p -> P_p of id_Lambda is the bimodule map
    # A_p = outer . (I (x) G_p (x) I) with values G_p on the generators
    # 1 (x) M^(x)p (x) 1 of B_p; G_0 is 1 (x) 1, and G_p solves
    # d^per_p G_p = A_{p-1} d_p (generators)
    mods = res_bar.modules
    lift = compose(outer, [ident, mods[0].generators, ident])
    for p in range(1, k):
        rhs = lift * (res_bar.differential_matrix(p) * mods[p].generators)
        gens = solve_for(per.differential_matrix(p), rhs, "comparison lift failed at degree %d" % p)
        lift = compose(outer, [ident, gens, ident])
    # restrict alpha_{k-1} to the syzygy; the image lies in ker(d^per_{k-1}),
    # expressed through the embedding Lambda ~ ker, lambda -> d^per_k(lambda (x) 1)
    syz = syzygy(res_bar, k)
    cols = lift * syz.inclusion.matrix.transpose()
    emb = compose(per.differential_matrix(k), [ident, unit])
    mat = solve_for(emb, cols, "syzygy comparison does not land in the periodic syzygy")
    return BimoduleMap(syz, diagonal_bimodule(lam), mat)

