import pytest

from bracealg.linalg import Matrix, QQ, compose, kernel_basis, rank, solve
from bracealg.ainfty import mc_check, transfer
from bracealg.dg import cohomology_algebra, make_contraction
from bracealg.finite import AlgebraSpecError
from bracealg.hochschild import tate_unit_check
from bracealg.models import (
    BadParameters,
    NoWitness,
    PeriodicComplex,
    complete_resolution,
    dg_end,
    periodicity_witness,
    rigidity_check,
    seeded_minimal_model,
    stable_endomorphism_algebra,
)


def test_complete_resolution_21():
    c = complete_resolution(2, 1)
    assert rank(c.even_map) == 1 and rank(c.odd_map) == 1
    assert (c.even_map * c.odd_map).is_zero()


def test_complete_resolution_42():
    c = complete_resolution(4, 2)
    assert kernel_basis(c.even_map).dim == rank(c.odd_map) == 2


def test_complete_resolution_rejects_bad_parameters():
    with pytest.raises(BadParameters):
        complete_resolution(3, 3)
    with pytest.raises(BadParameters):
        complete_resolution(3, 0)


@pytest.mark.parametrize("n,a", [(n, a) for n in range(2, 7) for a in range(1, n)])
def test_dg_end_invariants_all_small_parameters(n, a):
    e = dg_end(complete_resolution(n, a))
    lau = cohomology_algebra(e)
    m = min(a, n - a)
    oracle = stable_endomorphism_algebra(n, a)
    assert lau.base.dim == oracle.dim == m
    # H0 is k[x]/(x^m): compare against the oracle structure constants after
    # matching the canonical generator
    assert lau.base.is_commutative()


def test_dg_end_h0_dims():
    assert cohomology_algebra(dg_end(complete_resolution(2, 1))).base.dim == 1
    assert cohomology_algebra(dg_end(complete_resolution(4, 2))).base.dim == 2


def test_rigidity_check_fails_on_test_beds():
    # stable Hom(M, Omega M) != 0 for every cyclic module here: the
    # geometric cluster-tilting hypothesis does not hold at desk scale
    assert rigidity_check(2, 1) is False
    assert rigidity_check(4, 2) is False
    for n in range(2, 7):
        for a in range(1, n):
            assert rigidity_check(n, a) is False


def test_stable_hom_oracle_values():
    from bracealg.models import stable_hom_dim

    # End(M)/proj for M = k[x]/(x^a) over k[x]/(x^n) has dim min(a, n-a)
    assert stable_hom_dim(2, 1, 1) == 1
    assert stable_hom_dim(4, 2, 2) == 2
    # Hom(M, Omega M) is nonzero
    assert stable_hom_dim(4, 2, 2) != 0
    assert stable_hom_dim(3, 1, 2) == 1


def test_periodicity_witness():
    e = dg_end(complete_resolution(4, 2))
    w, winv = periodicity_witness(e)
    # verified inside: [w][winv] = [1]; check the product at cochain level
    prod = compose(e.mult_matrix(0, 0), [Matrix.column_vector(w), Matrix.column_vector(winv)]).column(0)
    con = make_contraction(e)
    assert con.P.apply(e.on_sum(0, prod)) == con.P.apply(e.on_sum(0, e.unit))


def _basis_vector(e, word):
    return [QQ.of(int(w == word)) for w in e.labels[0]]


@pytest.mark.parametrize(
    "word,message",
    [
        ("v", "designated periodicity element is not a cocycle"),  # d(v) = et - te
        ("ee", "periodicity class vanishes in cohomology"),  # e^2 = d(t)
        ("e", "periodicity class is not invertible in cohomology"),  # [e] is nilpotent
    ],
)
def test_periodicity_witness_refuses(word, message):
    e = dg_end(complete_resolution(4, 2))
    e.periodicity_element = _basis_vector(e, word)
    with pytest.raises(NoWitness, match=message):
        periodicity_witness(e)


def test_periodicity_witness_checks_the_inverse(monkeypatch):
    # an inverse class solved wrongly (twice the true one) is caught by the
    # exact product check
    import bracealg.models as models

    e = dg_end(complete_resolution(4, 2))
    monkeypatch.setattr(models, "solve", lambda m, b: [2 * x for x in solve(m, b)])
    with pytest.raises(NoWitness, match="inverse verification failed"):
        periodicity_witness(e)


def test_hypothesis_flags_reported():
    e = dg_end(complete_resolution(4, 2))
    assert e.hypothesis_flags["rigid"] is False
    assert e.hypothesis_flags["stable_end_dim"] == 2


@pytest.mark.parametrize("n,a", [(3, 3), (3, 0)])
def test_seeded_minimal_model_rejects_bad_parameters(n, a):
    with pytest.raises(BadParameters, match=r"need 1 <= a <= n-1"):
        seeded_minimal_model(n, a)


def test_seeded_minimal_model_21_formal():
    m = seeded_minimal_model(2, 1, cap=8)
    assert m.arities() == []


def test_seeded_minimal_model_42():
    m = seeded_minimal_model(4, 2, cap=8)
    assert m.arities() == [4]
    assert mc_check(m).ok
    assert m.report.digest() == mc_check(m).digest()
    from bracealg.ainfty import restricted_ump

    assert tate_unit_check(restricted_ump(m))


def test_seeded_minimal_model_63():
    m = seeded_minimal_model(6, 3, cap=8)
    assert mc_check(m).ok
    assert m.algebra.dim == 3


@pytest.mark.xfail(
    strict=True,
    raises=AlgebraSpecError,
    reason="for min(a, n-a) >= 4 the normalized Tate-unit representative has "
    "m4{m4} != 0 at arity 7, so m4 alone fails the Maurer-Cartan equation; "
    "the model needs higher operations solved arity by arity",
)
def test_seeded_minimal_model_84():
    m = seeded_minimal_model(8, 4, cap=8)
    assert mc_check(m).ok


def test_transfer_from_models_mc():
    for (n, a) in [(2, 1), (3, 1), (4, 2)]:
        e = dg_end(complete_resolution(n, a))
        m = transfer(e, make_contraction(e), 6)
        assert mc_check(m).ok
