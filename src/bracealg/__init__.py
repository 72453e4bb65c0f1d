"""Exact-arithmetic toolkit for Hochschild/brace calculus, bimodule syzygies,
A-infinity minimal models and Massey-product unit tests on small algebras.

Everything is computed over an exact field (rationals by default); there is
no floating point anywhere and all results are deterministic.

The package namespace is lazy (PEP 562): a name below is imported from its
module on first access, so a program imports only the modules it uses.
"""

import importlib

_EXPORTS = {
    "linalg": "QQ GF Matrix SubspaceBasis SubspaceNotContained",
    "finite": "AlgebraSpecError FiniteAlgebra LaurentAlgebra build_truncated_polynomial load_algebra",
    "algebra": """Bimodule BimoduleMap Resolution enveloping bar_resolution periodic_bimodule_resolution
        comparison_map_to_periodic diagonal_bimodule free_rank_one_bimodule syzygy
        strip_projective_summands is_stable_iso is_symmetric""",
    "hochschild": """CapTooLow Cochain EulerAdjoinedCochain HHClass NotACocycle WrongBidegree brace
        bracket class_of cohomology cocycle_to_extension cup differential divide_class
        euler_derivation hh_isos_backward hh_isos_forward random_cochain restrict_j
        solve_coboundary tate_unit_check""",
    "dg": "ContractionData DGAlgebra NotLaurentForm cohomology_algebra make_contraction",
    "ainfty": """AInftyMorphism ClassMismatch FORMAL INCONCLUSIVE M3NonZero MinimalAInfty NOT_FORMAL
        NotAUnit NotCentral NotUnit ObstructionNotContractible ainfty_map_check build_iso
        contractible_solution extract_m4_class formality_verdict_of_model gauge_by_central_unit
        is_formal mc_check restricted_ump transfer transported_structure two_equations_solve""",
    "models": """BadParameters DGEnd NoWitness PeriodicComplex complete_resolution dg_end
        periodicity_witness rigidity_check seeded_minimal_model stable_endomorphism_algebra""",
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names.split()}

# the star-import names predate the finite and dg modules, which are
# reachable as attributes only
__all__ = [*(m for m in _EXPORTS if m not in ("finite", "dg")), *_MODULE_OF]
__version__ = "0.1.0"


def __getattr__(name):
    if name in _EXPORTS:
        return importlib.import_module("." + name, __name__)
    if name not in _MODULE_OF:
        raise AttributeError("module %r has no attribute %r" % (__name__, name))
    return getattr(importlib.import_module("." + _MODULE_OF[name], __name__), name)


def __dir__():
    return sorted(set(globals()) | set(__all__))
