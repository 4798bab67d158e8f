"""Workbench for finite involutive idempotent integral near semirings.

Operation-table algebras with exhaustive axiom checking, congruence and
ideal lattices (computed by two independent routes and compared), central
elements and direct decompositions, the MV-algebra translation, the
interval-based isomorphism construction, and exhaustive model enumeration.
"""

from .axioms import (AxiomReport, CheckOutcome, INRS, LUK_NRS, LUK_RS, Witness,
                     check_axioms, classify)
from .cantor_bernstein import (CBInstance, CBTrace, cb_isomorphism, cb_search,
                               cb_sequences, make_cb_instance)
from .catalog import (b2_x_b2, b2_x_l3, boolean2, full_corpus, godel3,
                      l3_x_b2, luk_chain, luk_corpus, trivial)
# not the function center: it would hide the submodule of that name
from .center import (CenterReport, Decomposition, Interval, central_elements,
                     central_ideal_check, central_laws_report, decompose,
                     interval_algebra, is_central, partition_decomposition, q)
from .congruences import (MalcevReport, Partition, all_congruences,
                          malcev_and_regularity_report, polynomial_pairs,
                          principal_congruence)
from .core import (AlgebraError, FiniteAlgebra, Homomorphism, SizeLimitError,
                   find_isomorphism, leq, product, projections)
from .ideals import (ClaimsReport, ElementSet, IdealLattice, all_ideals,
                     generate_ideal, ideal_join_via_coset, is_ideal,
                     principal_ideal, principal_ideal_report, pseudocomplement,
                     semiring_claims_report, skeleton, theta_of_ideal,
                     theta_partition)
from .mv import (AdjudicationError, MVAlgebra, check_mv_axioms, from_mv,
                 ideal_correspondence_report, roundtrip_check, to_mv)
from .search import (CanonicalForm, EnumerationCapExceeded, EnumerationTask,
                     canonical_form, count, enumerate_algebras,
                     enumerate_with_forms, frozen_counts, relabel)
from .terms import Term, Var, eval_term

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"


def bundled_file(name: str):
    """Path to one of the packaged example .alg documents."""
    from importlib import resources
    return resources.files(__name__).joinpath("data").joinpath(name)
