"""posetkernel: way-below relations, approximation kernels, and largest
continuous retracts on conditionally-complete interpolating posets.

The library pairs every certified closed-form rule with an independent
check: definitional brute force on finite carriers, bank-driven refutation
on symbolic ones.  See the closedsets module for the closed sets and the
carriers module for the other symbolic carriers, each with the proofs of
its rules.

The finite core loads with the package.  The closed-set algebra, the
symbolic carriers, the quotient and the self-test fixture load on first
use: the names in ``_LAZY`` resolve from their home module on first access
and are then kept in this module.  The symbolic halves of the laws
(``sampled_laws``) load when a check picks a sampled scope.
"""

from .core import (BOTTOM, NO_INFIMUM, NO_LOWER_BOUND, NO_SUPREMUM, OMEGA,
                   FinitePoset, FinitePosetPresentation, Inner, Left,
                   PosetPresentation, Right, build_finite_poset,
                   check_conditionally_complete, check_continuity,
                   check_interpolation, check_subposet, greatest_lower_bound,
                   is_directed, is_element, least_upper_bound, leq, waybelow)
from .catalog import (CatalogSpec, closed_sets, disjoint_sum,
                      finite_explicit, finite_named, finite_random, lift,
                      make_catalog, named_finite_poset, omega_plus_one,
                      punctured_closed_sets, random_finite_poset,
                      standard_roster)
from .families import ChainFamily, ExplicitFamily
from .kernel import (check_approximation_laws, check_inf_preservation,
                     check_inf_preservation_sampled, check_kernel_laws,
                     check_largest_retract, check_scott_continuity,
                     check_waybelow_kernel_equivalence, in_retract,
                     is_approximable, kernel_of, retract_member)
from .oracle import (bank_refute_waybelow, continuity_bruteforce,
                     kernel_bruteforce, largest_continuous_subposet_bruteforce,
                     waybelow_bruteforce)
from .reports import (BANK, EXHAUSTIVE, CheckReport, Scope, Status, sampled)

__version__ = "0.1.0"

_LAZY = {
    **dict.fromkeys(("ClosedSetRep", "ClosedSetsPresentation", "closed_set",
                     "closedset_join", "closedset_leq", "closedset_meet",
                     "closedset_normalize", "format_closed_set",
                     "periodic_set"), "closedsets"),
    **dict.fromkeys(("DisjointSumPresentation", "LiftPresentation",
                     "OmegaPlusOnePresentation"), "carriers"),
    **dict.fromkeys(("QuotientStructure", "quotient_structure"), "commands"),
    "adversarial_kernel": "acceptance",
}

__all__ = [
    "BOTTOM", "NO_INFIMUM", "NO_LOWER_BOUND", "NO_SUPREMUM", "OMEGA",
    "FinitePoset", "FinitePosetPresentation", "Inner", "Left",
    "PosetPresentation", "Right", "build_finite_poset",
    "check_conditionally_complete", "check_continuity",
    "check_interpolation", "check_subposet", "greatest_lower_bound",
    "is_directed", "is_element", "least_upper_bound", "leq", "waybelow",
    "CatalogSpec", "closed_sets", "disjoint_sum", "finite_explicit",
    "finite_named", "finite_random", "lift", "make_catalog",
    "named_finite_poset", "omega_plus_one", "punctured_closed_sets",
    "random_finite_poset", "standard_roster",
    "ChainFamily", "ExplicitFamily",
    "check_approximation_laws", "check_inf_preservation",
    "check_inf_preservation_sampled", "check_kernel_laws",
    "check_largest_retract", "check_scott_continuity",
    "check_waybelow_kernel_equivalence", "in_retract", "is_approximable",
    "kernel_of", "retract_member",
    "bank_refute_waybelow", "continuity_bruteforce", "kernel_bruteforce",
    "largest_continuous_subposet_bruteforce", "waybelow_bruteforce",
    "BANK", "EXHAUSTIVE", "CheckReport", "Scope", "Status", "sampled",
    *_LAZY,
]


def __getattr__(name):
    home = _LAZY.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module
    value = globals()[name] = getattr(import_module(f".{home}", __name__),
                                      name)
    return value


def __dir__():
    return __all__
