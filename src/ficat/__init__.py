"""Exact linear algebra over finite commutative rings, the complemented
categories built on them, insertion orders on morphism posets, and
shift-functor chain complexes with homology over an exact coefficient
field."""

__version__ = "0.1.0"

from .catcore import FiCategory, check_axioms
from .errors import BudgetExceeded, InvariantViolation, PreconditionError
from .matrices import Mat, factor_surjection
from .modhom import (
    chain_homotopy_check,
    coef_field,
    complex_homology,
    exactness_report,
    generation_degree,
    homology_report,
    init_gap_check,
    init_module,
    init_of,
    representable,
    shift_complex,
    submodule_closure,
)
from .rings import make_ring
from .si import make_osi_category, make_si_category, standard_form
from .vic import make_ovic_category, make_vic_category, vic_factor
from .wporder import ovic_insertion

__all__ = [
    "BudgetExceeded",
    "FiCategory",
    "InvariantViolation",
    "Mat",
    "PreconditionError",
    "chain_homotopy_check",
    "check_axioms",
    "coef_field",
    "complex_homology",
    "exactness_report",
    "factor_surjection",
    "generation_degree",
    "homology_report",
    "init_gap_check",
    "init_module",
    "init_of",
    "make_osi_category",
    "make_ovic_category",
    "make_ring",
    "make_si_category",
    "make_vic_category",
    "ovic_insertion",
    "representable",
    "shift_complex",
    "standard_form",
    "submodule_closure",
    "vic_factor",
]
