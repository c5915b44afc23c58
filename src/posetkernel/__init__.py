"""posetkernel: way-below relations, approximation kernels, and largest
continuous retracts on conditionally-complete interpolating posets.

The library pairs every certified closed-form rule with an independent
check: definitional brute force on finite carriers, bank-driven refutation
on symbolic ones.  See the catalog module for the shipped carriers and the
proofs of their rules.
"""

from .closedsets import (ClosedSetRep, closed_set, closedset_join,
                         closedset_leq, closedset_meet, closedset_normalize,
                         format_closed_set, periodic_set)
from .core import (BOTTOM, NO_INFIMUM, NO_SUPREMUM, OMEGA, FinitePoset,
                   FinitePosetPresentation, Inner, Left, PosetPresentation,
                   Right, build_finite_poset, check_conditionally_complete,
                   check_continuity, check_interpolation, check_subposet,
                   greatest_lower_bound, is_directed, is_element,
                   least_upper_bound, leq, waybelow)
from .catalog import (CatalogSpec, ClosedSetsPresentation,
                      DisjointSumPresentation, LiftPresentation,
                      OmegaPlusOnePresentation, closed_sets, disjoint_sum,
                      finite_explicit, finite_named, finite_random, lift,
                      make_catalog, named_finite_poset, omega_plus_one,
                      punctured_closed_sets, random_finite_poset,
                      standard_roster)
from .families import ChainFamily, ExplicitFamily
from .kernel import (QuotientStructure, adversarial_kernel,
                     check_approximation_laws, check_inf_preservation,
                     check_inf_preservation_sampled, check_kernel_laws,
                     check_largest_retract, check_scott_continuity,
                     check_waybelow_kernel_equivalence,
                     in_retract, is_approximable, kernel_of,
                     quotient_structure, retract_member)
from .oracle import (bank_refute_waybelow, continuity_bruteforce,
                     kernel_bruteforce, largest_continuous_subposet_bruteforce,
                     waybelow_bruteforce)
from .reports import (BANK, EXHAUSTIVE, CheckReport, Scope, Status, sampled)

__version__ = "0.1.0"
