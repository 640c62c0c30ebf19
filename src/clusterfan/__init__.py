"""Exact computations with finite root systems, cluster mutation, and
generalized associahedra."""

from .laurent import ExponentOverflow, LaurentPoly, NonExactDivision
from .cartan import (
    b_matrix,
    cartan_for_type,
    classify,
    dynkin_name,
    standard_cartan,
    validate_finite_type,
)
from .roots import root_system, coxeter_data
from .coxeter import build_group
from .mutation import alternating_chain, detect_finite_type, explore, initial_seed
from .assoc import almost_positive, build_polytope, cluster_complex, compatibility
from .verify import run_battery, render_report

__version__ = "0.1.0"

__all__ = [
    "ExponentOverflow",
    "LaurentPoly",
    "NonExactDivision",
    "b_matrix",
    "cartan_for_type",
    "classify",
    "dynkin_name",
    "standard_cartan",
    "validate_finite_type",
    "root_system",
    "coxeter_data",
    "build_group",
    "alternating_chain",
    "detect_finite_type",
    "explore",
    "initial_seed",
    "almost_positive",
    "build_polytope",
    "cluster_complex",
    "compatibility",
    "run_battery",
    "render_report",
    "__version__",
]
