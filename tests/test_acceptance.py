"""Acceptance criteria, one test per criterion, exact tolerances.

Each criterion prints a PASS/FAIL line (run with -s or -rA to see them).
Criterion 6 contains three clauses that are mathematically unattainable
for any finite folded DG model (see the decisions ledger for the Euler
characteristic / invertibility analysis); those assertions are faithful
to the criterion and are marked as strict expected failures rather than
weakened.
"""

import json
import random
import time

import pytest

from bracealg.finite import build_truncated_polynomial
from bracealg.linalg import QQ
from bracealg import hochschild as H
from bracealg.ainfty import (
    FORMAL,
    NOT_FORMAL,
    MinimalAInfty,
    ainfty_map_check,
    build_iso,
    formality_verdict_of_model,
    gauge_by_central_unit,
    is_formal,
    mc_check,
    restricted_ump,
    transfer,
    transported_structure,
    two_equations_solve,
)
from bracealg.dg import cohomology_algebra, make_contraction
from bracealg.models import complete_resolution, dg_end, seeded_minimal_model, stable_endomorphism_algebra

LAM2 = build_truncated_polynomial(2)
LAM3 = build_truncated_polynomial(3)


def report(criterion, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print("ACCEPTANCE %-2s: %s %s" % (criterion, status, detail))
    assert ok, "criterion %s failed: %s" % (criterion, detail)


def total(c):
    ar = c.arities()
    return (ar[0] if ar else 0) - 2 * c.iota


def sgn(e):
    return QQ.one if e % 2 == 0 else -QQ.one


def basis_cochains(lam, p, j=0):
    d = lam.dim
    out = []
    for t in range(d * d**p):
        from bracealg.linalg import Matrix

        m = Matrix.zeros(d, d**p, lam.field).entries
        m[t % d][t // d] = lam.field.one
        out.append(H.Cochain.from_matrix(lam, p, Matrix(m, lam.field), j))
    return out


def brace_relation_residual(lam, x, ys, zs):
    pq = len(ys)
    q = len(zs)
    lhs = H.brace(H.brace(x, ys), zs)
    rhs = H.Cochain.zero(lam, lhs.iota)

    def positions(k, start):
        if k == pq:
            yield []
            return
        for i in range(start, q + 1):
            for jj in range(i, q + 1):
                for rest in positions(k + 1, jj):
                    yield [(i, jj)] + rest

    for pos in positions(0, 0):
        eps = 0
        for k, (i, _) in enumerate(pos):
            eps += (total(ys[k]) - 1) * sum(total(zs[l]) - 1 for l in range(i))
        args = []
        cur = 0
        for k, (i, jj) in enumerate(pos):
            args.extend(zs[cur:i])
            args.append(H.brace(ys[k], zs[i:jj]))
            cur = jj
        args.extend(zs[cur:])
        rhs = rhs + H.brace(x, args).scale(sgn(eps))
    return lhs - rhs


def lemma_differential_residual(lam, x0, xs):
    n = len(xs)
    lhs = H.differential(H.brace(x0, xs))
    rhs = H.brace(H.differential(x0), xs)
    degs = [total(x0)] + [total(x) for x in xs]
    for i in range(1, n + 1):
        e = sum(degs[j] for j in range(i)) - i
        rhs = rhs + H.brace(x0, xs[: i - 1] + [H.differential(xs[i - 1])] + xs[i:]).scale(sgn(e))
    e = degs[0] - 1 + degs[0] * degs[1]
    rhs = rhs + H.cup(xs[0], H.brace(x0, xs[1:])).scale(sgn(e))
    for i in range(1, n):
        e = sum(degs[j] for j in range(i + 1)) - i - 1
        rhs = rhs + H.brace(x0, xs[: i - 1] + [H.cup(xs[i - 1], xs[i])] + xs[i + 1 :]).scale(sgn(e))
    e = sum(degs[j] for j in range(n)) - n - 1
    rhs = rhs + H.cup(H.brace(x0, xs[:-1]), xs[-1]).scale(sgn(e))
    return lhs - rhs


def lemma_cup_residual(lam, x, y, zs):
    n = len(zs)
    lhs = H.brace(H.cup(x, y), zs)
    rhs = H.Cochain.zero(lam, lhs.iota)
    for i in range(n + 1):
        e = total(y) * sum((total(z) - 1) for z in zs[:i])
        rhs = rhs + H.cup(H.brace(x, zs[:i]), H.brace(y, zs[i:])).scale(sgn(e))
    return lhs - rhs


def test_criterion_1_identity_suite():
    t0 = time.time()
    # (i) exhaustive: all basis cochains p <= 3 over k[x]/(x^2)
    allb = []
    for p in range(0, 4):
        allb.extend(basis_cochains(LAM2, p))
    for c in allb:
        assert H.differential(H.differential(c)).is_zero()
    small = [c for c in allb if (c.arities() or [0])[0] <= 1]
    for x in allb:
        for y in small:
            for z in small:
                assert brace_relation_residual(LAM2, x, [y], [z]).is_zero()
    for x in allb:
        if (x.arities() or [0])[0] < 1:
            continue
        for y in small:
            assert lemma_differential_residual(LAM2, x, [y]).is_zero()
    for x in small:
        for y in small:
            for z in small:
                assert lemma_cup_residual(LAM2, x, y, [z]).is_zero()
    # (ii) 200 seeded random cochains per identity over k[x]/(x^3)
    rng = random.Random(314159)

    def rc(pmax=3):
        return H.random_cochain(LAM3, rng.randint(0, pmax), rng.choice([0, 1]), rng, normalized=False)

    for _ in range(200):
        c = rc()
        assert H.differential(H.differential(c)).is_zero()
    for _ in range(200):
        x = rc(3)
        ys = [rc(1) for _ in range(rng.choice([1, 2]))]
        zs = [rc(1) for _ in range(rng.choice([1, 2]))]
        assert brace_relation_residual(LAM3, x, ys, zs).is_zero()
    for _ in range(200):
        n = rng.choice([1, 2, 3])
        x0 = rc(3)
        xs = [rc(1) for _ in range(n)]
        assert lemma_differential_residual(LAM3, x0, xs).is_zero()
    for _ in range(200):
        n = rng.choice([1, 2])
        assert lemma_cup_residual(LAM3, rc(1), rc(1), [rc(1) for _ in range(n)]).is_zero()
    dt = time.time() - t0
    report(1, dt < 120, "identity suite exact, %.1fs" % dt)


def test_criterion_2_gerstenhaber_suite():
    t0 = time.time()
    gens = []
    for p in range(0, 5):
        j = max(0, (p + 1) // 2)
        for cls in H.cohomology(LAM2, p, j):
            gens.append(cls)
    for x in gens:
        for y in gens:
            px, py = x.context.p, y.context.p
            if px + py >= H.DEFAULT_CAP:
                continue
            xy = x.cup_cls(y)
            yx = y.cup_cls(x)
            assert xy == yx.scale(sgn(total(x.representative) * total(y.representative)))
    for x in gens:
        for y in gens:
            for z in gens:
                px, py, pz = (c.context.p for c in (x, y, z))
                if px + py + pz - 1 >= H.DEFAULT_CAP or px + py + pz > 7:
                    continue
                # brackets with two 0-classes vanish identically and land in a
                # degenerate bidegree; those Leibniz/Jacobi instances are trivial
                if min(px + py, px + pz, px + py + pz) >= 1:
                    lhs = x.bracket_cls(y.cup_cls(z))
                    rhs = x.bracket_cls(y).cup_cls(z) + y.cup_cls(x.bracket_cls(z)).scale(
                        sgn((total(x.representative) - 1) * total(y.representative))
                    )
                    assert lhs == rhs
                if min(px + py, py + pz, px + pz) >= 1:
                    jac_l = x.bracket_cls(y.bracket_cls(z))
                    jac_r = x.bracket_cls(y).bracket_cls(z) + y.bracket_cls(x.bracket_cls(z)).scale(
                        sgn((total(x.representative) - 1) * (total(y.representative) - 1))
                    )
                    assert jac_l == jac_r
    dt = time.time() - t0
    report(2, dt < 120, "class-level Gerstenhaber suite exact, %.1fs" % dt)


def test_criterion_3_hh_isos():
    t0 = time.time()
    rng = random.Random(271828)
    for _ in range(100):
        p = rng.randint(1, 3)
        j = rng.choice([0, 1, 2])
        x = H.random_cochain(LAM2, p, j, rng, normalized=True)
        y = H.random_cochain(LAM2, p - 1, j, rng, normalized=True)
        pair = H.EulerAdjoinedCochain(x, y)
        assert (H.hh_isos_forward(H.hh_isos_backward(pair)) - pair).is_zero()
    iota_c = H.Cochain.iota_cochain(LAM2, 1)
    e2 = H.Cochain.euler(LAM2)
    for p in range(0, 4):
        j = max(0, (p + 1) // 2)
        for cls in H.cohomology(LAM2, p, j):
            assert H.bracket(iota_c, cls.representative).is_zero()
            assert H.bracket(e2, cls.representative.shift_iota(-cls.representative.iota)).is_zero()
    assert H.bracket(iota_c, H.Cochain.iota_cochain(LAM2, 1)).is_zero()
    assert (H.bracket(e2, iota_c) + iota_c).is_zero()
    dt = time.time() - t0
    report(3, dt < 120, "Euler model round trips and bracket table exact, %.1fs" % dt)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_criterion_4_bimodule_periodicity(n):
    from bracealg.algebra import bar_resolution, comparison_map_to_periodic, is_stable_iso

    t0 = time.time()
    lam = build_truncated_polynomial(n)
    res = bar_resolution(lam, 4)
    for k in (2, 4):
        cmp_map = comparison_map_to_periodic(res, k)
        assert is_stable_iso(cmp_map), "Omega^%d comparison not a stable iso for n=%d" % (k, n)
    dt = time.time() - t0
    report(4, dt < 300, "n=%d: Omega^2 and Omega^4 stably isomorphic to the diagonal, %.1fs" % (n, dt))


def test_criterion_5_pipeline_21():
    t0 = time.time()
    e = dg_end(complete_resolution(2, 1))
    m = transfer(e, make_contraction(e), 8)
    assert m.arities() == []
    assert mc_check(m).ok
    verdict = is_formal(e, 8)
    assert verdict == FORMAL
    dt = time.time() - t0
    report(5, dt < 60, "(2,1): all m_n = 0 and FORMAL, %.1fs" % dt)


def test_criterion_6_pipeline_42_attainable_clauses():
    t0 = time.time()
    e = dg_end(complete_resolution(4, 2))
    lau = cohomology_algebra(e)
    oracle = stable_endomorphism_algebra(4, 2)
    assert lau.base.dim == oracle.dim == 2
    assert lau.base.is_commutative()
    m = transfer(e, make_contraction(e), 8)
    assert 3 not in m.ops  # m_3 = 0
    assert mc_check(m).ok
    dt = time.time() - t0
    report("6a", dt < 600, "(4,2): H0 = k[x]/(x^2) (oracle), m3 = 0, MC exact, %.1fs" % dt)


@pytest.mark.xfail(
    strict=True,
    reason="Unattainable for any finite folded DG model: Laurent-form cohomology "
    "forces folded Euler characteristic dim H0 > 0 while a unit universal Massey "
    "product requires an invertibility that finite folds cannot carry; the "
    "transferred [m_4] class is exact (p kills d(w)).  See the decisions ledger. "
    "The unit-Massey pipeline itself is exercised on the directly constructed "
    "minimal model (criteria 7 and 8).",
)
def test_criterion_6_pipeline_42_unit_class_clauses():
    e = dg_end(complete_resolution(4, 2))
    m = transfer(e, make_contraction(e), 8)
    r = restricted_ump(m)
    ok_nonzero = not r.is_zero()
    ok_unit = bool(H.tate_unit_check(r)) and ok_nonzero
    verdict = is_formal(e, 8)
    print(
        "ACCEPTANCE 6b: FAIL (expected) rump!=0:%s tate:%s verdict:%s "
        "-- unattainable, see ledger" % (ok_nonzero, ok_unit, verdict.verdict)
    )
    assert ok_nonzero and ok_unit and verdict == NOT_FORMAL


def test_criterion_6_substance_on_direct_model():
    """The unit-class substance of criterion 6, on the direct minimal model."""
    t0 = time.time()
    m = seeded_minimal_model(4, 2, cap=8)
    assert m.algebra.dim == 2 and m.algebra.mult == LAM2.mult
    assert 3 not in m.ops
    assert mc_check(m).ok
    r = restricted_ump(m)
    assert not r.is_zero()
    assert H.tate_unit_check(r)
    assert formality_verdict_of_model(m, 8) == NOT_FORMAL
    dt = time.time() - t0
    report("6*", dt < 600, "direct (4,2) model: rump != 0, Tate unit, NOT_FORMAL, %.1fs" % dt)


def test_criterion_7_two_equations():
    t0 = time.time()
    u = H.cohomology(LAM2, 4, 0)[0]
    cls = two_equations_solve(LAM2, u)
    assert cls.solution_space_dim == 0
    assert cls.x_part.coords == u.coords
    dt = time.time() - t0
    report(7, dt < 120, "unique Laurent class, solution space dimension 0, %.1fs" % dt)


def test_criterion_8_uniqueness_algorithm():
    t0 = time.time()
    # faithful reading: the transfer of the (4,2) DG model (zero class on
    # both sides after gauging, so the builder succeeds trivially)
    e = dg_end(complete_resolution(4, 2))
    mt = transfer(e, make_contraction(e), 9)
    mt_p = gauge_by_central_unit(mt, mt.algebra.element_from([1, 1]))
    f0 = build_iso(mt, mt_p, 9)
    assert ainfty_map_check(f0, mt, mt_p, cap=9).ok
    # substantive run: the direct unit-class model
    m = seeded_minimal_model(4, 2, cap=9)
    mp = gauge_by_central_unit(m, m.algebra.element_from([1, 1]))
    f = build_iso(m, mp, 9)
    rep1 = ainfty_map_check(f, m, mp, cap=9)
    assert rep1.ok and 3 in f.higher
    # coboundary-perturbed target
    rng = random.Random(161803)
    for _ in range(10):
        b5 = H.random_cochain(m.algebra, 5, 2, rng, normalized=True)
        mpp = transported_structure(m, {5: b5}, cap=9)
        if any(not (mpp.op(n) - m.op(n)).is_zero() for n in (4, 6, 8)):
            break
    f2 = build_iso(m, mpp, 9)
    rep2 = ainfty_map_check(f2, m, mpp, cap=9)
    assert rep2.ok and 5 in f2.higher
    dt = time.time() - t0
    report(8, dt < 600, "gauge pair and perturbed pair: residual exactly zero to N=9, %.1fs" % dt)


def test_criterion_9_determinism(tmp_path):
    from bracealg.cli import main

    t0 = time.time()
    spec = tmp_path / "kx2.json"
    spec.write_text(json.dumps(LAM2.to_json()))
    blobs = []
    for i, threads in enumerate(("1", "1", "4")):
        out = tmp_path / ("r%d.json" % i)
        code = main(["hh", str(spec), "--cap-p", "5", "--threads", threads, "--out", str(out)])
        assert code == 0
        blobs.append(out.read_bytes())
    assert blobs[0] == blobs[1] == blobs[2]
    outs = []
    for i in range(2):
        out = tmp_path / ("t%d.json" % i)
        assert main(["transfer", "--n", "4", "--a", "2", "--cap-n", "6", "--out", str(out)]) == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]
    mouts = []
    for i in range(2):
        out = tmp_path / ("m%d.json" % i)
        assert main(["massey", "--n", "4", "--a", "2", "--cap-n", "6", "--out", str(out)]) == 0
        mouts.append(out.read_bytes())
    assert mouts[0] == mouts[1]
    dt = time.time() - t0
    report(9, dt < 300, "reports byte-identical across runs and thread counts, %.1fs" % dt)
