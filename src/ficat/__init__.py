"""Exact linear algebra over finite commutative rings, the complemented
categories built on them, insertion orders on morphism posets, and
shift-functor chain complexes with homology over an exact coefficient
field.

Importing the package compiles none of its modules: an exported name is
imported from its module when it is first read (PEP 562), so a process
pays only for the modules its work reaches."""

import importlib

__version__ = "0.1.0"

# each module and the names the package exports from it
_EXPORTS = {
    "catcore": ("FiCategory", "check_axioms"),
    "errors": ("BudgetExceeded", "InvariantViolation", "PreconditionError"),
    "matrices": ("Mat", "factor_surjection"),
    "modhom": (
        "chain_homotopy_check", "coef_field", "complex_homology", "exactness_report",
        "generation_degree", "homology_report", "init_gap_check", "init_module", "init_of",
        "representable", "shift_complex", "submodule_closure",
    ),
    "rings": ("make_ring",),
    "si": ("make_osi_category", "make_si_category", "standard_form"),
    "vic": ("make_ovic_category", "make_vic_category", "vic_factor"),
    "wporder": ("ovic_insertion",),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name):
    module = _HOME.get(name)
    if module is None:
        raise AttributeError("module %r has no attribute %r" % (__name__, name))
    value = getattr(importlib.import_module("." + module, __name__), name)
    globals()[name] = value
    return value
