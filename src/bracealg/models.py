"""Desk-scale 2-periodic test beds feeding the A-infinity pipeline.

complete_resolution(n, a) is the honest 2-periodic complete resolution of
M = k[x]/(x^a) over R = k[x]/(x^n) (multiplication maps x^a and x^(n-a)),
with exactness verified; rigidity_check computes the stable Hom space
Hom(M, Omega M) honestly (it is nonzero for every such M, so the
cluster-tilting hypothesis of the source theory fails at desk scale --
this is reported, never assumed away).

dg_end(c) produces the associated "derived endomorphism" analog: a finite
2-periodic DG algebra whose cohomology is stableEnd(M)[i^{+-1}] with an
invertible degree-(-2) class.  Its transferred minimal model has no
higher operation, so its length-4 universal Massey product is zero, not a
Tate unit; seeded_minimal_model builds a model with a Tate-unit m4
directly.  A naive strictly periodic endomorphism complex with equal
even/odd dimensions can never have such cohomology (its folded Euler
characteristic vanishes while Laurent form forces chi = dim stableEnd(M)),
so the algebra is instead constructed as a verified truncated quotient:
generators e (even), theta, with d(theta) = e^m, an even generator v with
d(v) = e theta - theta e, the relation
theta^2 = 1 + sum_i e^i v e^(m-1-i), and all heavier words zero, where
m = min(a, n-a) = dim stableEnd(M).  All DG algebra axioms, the
cohomology, and the Laurent form are re-verified by the constructor.
"""

from __future__ import annotations

from .dg import DGAlgebra, cohomology_algebra, make_contraction
from .finite import AlgebraSpecError, FiniteAlgebra, build_truncated_polynomial
from .linalg import Matrix, QQ, kernel_basis, kron_sum, rank, solve


class BadParameters(Exception):
    pass


class NoWitness(Exception):
    pass


class PeriodicComplex:
    """The 2-periodic complete resolution of k[x]/(x^a) over k[x]/(x^n)."""

    def __init__(self, n, a, field=QQ):
        if not (1 <= a <= n - 1):
            raise BadParameters("need 1 <= a <= n-1, got (n, a) = (%d, %d)" % (n, a))
        self.n = n
        self.a = a
        self.field = field
        self.ring = build_truncated_polynomial(n, field)
        self.even_map = _mult_by_power(self.ring, a)
        self.odd_map = _mult_by_power(self.ring, n - a)
        if not (self.even_map * self.odd_map).is_zero() or not (self.odd_map * self.even_map).is_zero():
            raise BadParameters("maps do not compose to zero")
        # exactness at both positions
        if kernel_basis(self.even_map).dim != rank(self.odd_map):
            raise BadParameters("complex not exact at even position")
        if kernel_basis(self.odd_map).dim != rank(self.even_map):
            raise BadParameters("complex not exact at odd position")

    def __repr__(self):
        return "PeriodicComplex(n=%d, a=%d)" % (self.n, self.a)


def _mult_by_power(ring, k):
    one = ring.field.one
    return Matrix.from_nonzeros([{i - k: one} if i >= k else {} for i in range(ring.dim)], ring.dim, ring.field)


def complete_resolution(n, a, field=QQ) -> PeriodicComplex:
    return PeriodicComplex(n, a, field)


# ---------------------------------------------------------------------------
# The DG endomorphism analog


class DGEnd(DGAlgebra):
    """2-periodic DG algebra analog of a derived endomorphism algebra."""

    def __init__(self, dims, unit, mult, diff, labels, periodicity_element, source, hypothesis_flags):
        super().__init__(dims, unit, mult, diff, periodic=True, labels=labels)
        self.periodicity_element = periodicity_element
        self.source = source
        self.hypothesis_flags = hypothesis_flags


def _word_weight(word, m):
    w = 0
    for ch in word:
        w += 1 if ch == "e" else (m if ch == "t" else (m + 1 if ch == "v" else 2 * m))
    return w


def _word_parity(word):
    return sum(1 for ch in word if ch in "tw") % 2


def _model_words(m):
    """All words over e/t/v/w of weight <= 2m, split by parity."""
    alphabet = [("e", 1), ("t", m), ("v", m + 1), ("w", 2 * m)]
    words = [""]
    frontier = [""]
    while frontier:
        nxt = []
        for word in frontier:
            base = _word_weight(word, m)
            for ch, wt in alphabet:
                if base + wt <= 2 * m:
                    nxt.append(word + ch)
        words.extend(nxt)
        frontier = nxt
    evens = sorted((w for w in set(words) if _word_parity(w) == 0), key=lambda w: (_word_weight(w, m), w))
    odds = sorted((w for w in set(words) if _word_parity(w) == 1), key=lambda w: (_word_weight(w, m), w))
    return evens, odds


def dg_end(c: PeriodicComplex) -> DGEnd:
    """The verified 2-periodic DG algebra analog attached to (n, a).

    Generators: e (even, a lift of the stable-endomorphism generator),
    t (odd, d(t) = e^m), v (even, d(v) = et - te) and w (odd,
    d(w) = tt - sum_i e^i v e^(m-1-i)); all words of weight > 2m vanish,
    where e, t, v, w weigh 1, m, m+1, 2m and m = min(a, n-a).  The
    constructor re-verifies every DG algebra axiom, the cohomology is
    stableEnd(k[x]/(x^a))[i^{+-1}] (certified by an honest contraction and
    cross-checked against the independent stable-endomorphism oracle).
    Homotopy transfer gives it no higher operation: `transfer` reports
    "ops": {} and FORMAL at (4,2), (5,2), (6,2), (6,3), (7,3) and (8,4).

    A strictly periodic endomorphism complex with components R^2 cannot
    serve here: its folded Euler characteristic is zero while Laurent-form
    cohomology forces chi = dim stableEnd(M) > 0.
    """
    field = c.field
    m = min(c.a, c.n - c.a)
    evens, odds = _model_words(m)
    basis = {0: evens, 1: odds}
    index = {0: {w: i for i, w in enumerate(evens)}, 1: {w: i for i, w in enumerate(odds)}}
    dims = {0: len(evens), 1: len(odds)}

    def as_vector(comb, par):
        vec = [field.zero] * dims[par]
        for w, co in comb.items():
            if co:
                vec[index[par][w]] = vec[index[par][w]] + field.of(co)
        return vec

    def put(out, word, co):
        if _word_weight(word, m) <= 2 * m:
            out[word] = out.get(word, 0) + co

    mult = {}
    for p1 in (0, 1):
        for p2 in (0, 1):
            table = []
            for w1 in basis[p1]:
                row = []
                for w2 in basis[p2]:
                    out = {}
                    put(out, w1 + w2, 1)
                    row.append(as_vector(out, (p1 + p2) % 2))
                table.append(row)
            mult[(p1, p2)] = table

    def d_of_word(word):
        out = {}
        sign = 1
        for k, ch in enumerate(word):
            head, tail = word[:k], word[k + 1 :]
            if ch == "t":
                put(out, head + "e" * m + tail, sign)
            elif ch == "v":
                put(out, head + "et" + tail, sign)
                put(out, head + "te" + tail, -sign)
            elif ch == "w":
                put(out, head + "tt" + tail, sign)
                for i in range(m):
                    put(out, head + "e" * i + "v" + "e" * (m - 1 - i) + tail, -sign)
            if ch in "tw":
                sign = -sign
        return out

    diff = {}
    for par in (0, 1):
        cols = [as_vector(d_of_word(w), (par + 1) % 2) for w in basis[par]]
        tgt = (par + 1) % 2
        diff[par] = Matrix(
            [[cols[j][i] for j in range(dims[par])] for i in range(dims[tgt])],
            field,
            cols=dims[par],
        )
    unit = as_vector({"": 1}, 0)
    labels = {0: evens, 1: odds}
    flags = {
        "rigid": rigidity_check(c.n, c.a),
        "stable_end_dim": m,
        "note": "desk-scale analog; geometric cluster-tilting hypotheses fail here",
    }
    dge = DGEnd(dims, unit, mult, diff, labels, unit, c, flags)
    lau = cohomology_algebra(dge)
    oracle = stable_endomorphism_algebra(c.n, c.a, field)
    if lau.base.dim != oracle.dim:
        raise AlgebraSpecError("H0 does not match the stable endomorphism oracle")
    return dge


def seeded_minimal_model(n, a, cap=8, field=QQ):
    """The minimal A-infinity model (L[i^{+-1}], m4 = periodicity class).

    L = stableEnd(k[x]/(x^a)) over k[x]/(x^n).  The single operation m4 is
    the normalized representative of the degree-4 periodicity class (the
    Tate unit).  When min(a, n-a) <= 3, m4{m4} vanishes and the
    Maurer-Cartan equation holds with m6 = m8 = ... = 0, which the
    constructor verifies; above that, m4{m4} is nonzero at arity 7, so the
    constructor refuses the model ("Maurer-Cartan equation fails: [7]",
    an AlgebraSpecError) until the higher operations are solved.  This
    realises the iota-linear unit-Massey-product minimal model directly; no
    finite 2-periodic DG algebra can produce it by transfer (see the ledger).
    """
    from .ainfty import MinimalAInfty
    from .finite import LaurentAlgebra
    from .hochschild import cohomology, tate_unit_check

    m = min(a, n - a)
    if not (1 <= a <= n - 1):
        raise BadParameters("need 1 <= a <= n-1")
    lam = build_truncated_polynomial(m, field)
    lau = LaurentAlgebra(lam)
    if m == 1:
        return MinimalAInfty(lau, {}, cap)
    for cls in cohomology(lam, 4, 1):
        if tate_unit_check(cls):
            break
    else:
        raise AlgebraSpecError("no Tate unit found in HH^{4,-2}")
    return MinimalAInfty(lau, {4: cls.representative.with_cap(cap)}, cap)


# ---------------------------------------------------------------------------
# Stable module computations over k[x]/(x^n) (one-sided, honest oracles)


def _cyclic_module(n, c, field):
    """R/(x^c) over R = k[x]/(x^n): the action matrix of x."""
    return Matrix.from_nonzeros([{i - 1: field.one} if i else {} for i in range(c)], c, field)


def _module_homs(x_src, x_tgt, field):
    """Basis of Hom_R(M, N) as matrices commuting with the x-actions."""
    s, t = x_src.cols, x_tgt.rows
    # h -> x_tgt h - h x_src on h flattened row by row, entry (i, j) at i*s + j
    one = field.one
    parts = [(one, [x_tgt, Matrix.identity(s, field)]), (-one, [Matrix.identity(t, field), x_src.transpose()])]
    ker = kernel_basis(kron_sum(parts, t * s, t * s, field))
    return [Matrix([[v[i * s + j] for j in range(s)] for i in range(t)], field) for v in ker.vectors()]


def stable_hom_dim(n, c_src, c_tgt, field=QQ):
    """dim of stable Hom(R/(x^c_src), R/(x^c_tgt)) over R = k[x]/(x^n)."""
    xs = _cyclic_module(n, c_src, field)
    xt = _cyclic_module(n, c_tgt, field)
    xr = _cyclic_module(n, n, field)
    homs = _module_homs(xs, xt, field)
    through = _module_homs(xs, xr, field)
    back = _module_homs(xr, xt, field)
    pvecs = []
    for f in through:
        for g in back:
            comp = g * f
            pvecs.append([x for row in comp.entries for x in row])
    from .linalg import SubspaceBasis

    p_span = SubspaceBasis(c_tgt * c_src, pvecs, field)
    h_span = SubspaceBasis(
        c_tgt * c_src,
        [[x for row in h.entries for x in row] for h in homs],
        field,
    )
    return h_span.dim - p_span.dim


def stable_endomorphism_algebra(n, a, field=QQ) -> FiniteAlgebra:
    """stableEnd(k[x]/(x^a)) over k[x]/(x^n), computed then rebuilt.

    End(R/(x^a)) = R/(x^a) acting by multiplication; maps factoring
    through the projective cover R form the ideal (x^(n-a)); the quotient
    is k[x]/(x^min(a, n-a)), which is returned in its monomial basis after
    the dimension is verified against the matrix computation.
    """
    m = min(a, n - a)
    if stable_hom_dim(n, a, a, field) != m:
        raise AlgebraSpecError("stable endomorphism dimension mismatch")
    return build_truncated_polynomial(m, field)


def rigidity_check(n, a, field=QQ) -> bool:
    """Is Hom(M, Omega M) = 0 in the stable module category?

    Omega M = (x^a) = R/(x^(n-a)); for the cyclic test beds this space is
    never zero, so the answer is False throughout -- recorded honestly.
    """
    PeriodicComplex(n, a, field)  # parameter validation
    return stable_hom_dim(n, a, n - a, field) == 0


def periodicity_witness(e: DGEnd):
    """An invertible degree-(-2) cohomology class with verified inverse.

    In the folded model the witness is an even cocycle w together with an
    even cocycle w' whose classes multiply to the unit class; for the
    constructed models w = w' = 1 under the periodic identification.
    """
    w = getattr(e, "periodicity_element", None)
    if w is None:
        w = e.unit
    if any(e.d_matrix(0).apply(w)):
        raise NoWitness("designated periodicity element is not a cocycle")
    con = make_contraction(e)
    wcls = con.p[0].apply(w)
    if not any(wcls):
        raise NoWitness("periodicity class vanishes in cohomology")
    # find an inverse class: solve [w][w'] = [1] on representatives
    h0 = con.h_dims[0]
    field = e.field
    reps = con.i[0].transpose().entries
    cols = [con.p[0].apply(e.mul_vectors(0, w, 0, rep)) for rep in reps]
    A = Matrix(cols, field, cols=h0).transpose()
    unit_cls = con.p[0].apply(e.unit)
    sol = solve(A, unit_cls)
    if sol is None:
        raise NoWitness("periodicity class is not invertible in cohomology")
    inv_rep = con.i[0].apply(sol)
    # verify the product is the unit class exactly
    prod = e.mul_vectors(0, w, 0, inv_rep)
    if con.p[0].apply(prod) != unit_cls:
        raise NoWitness("inverse verification failed")
    return w, inv_rep
