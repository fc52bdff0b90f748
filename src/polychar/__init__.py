"""Exact characters and weight-polytope lattice sums for simple Lie algebras.

Everything exponent-like is a tuple of fundamental-weight labels; formal
sums keep exact integer coefficients; floats appear only in the numeric
cross-check layer.
"""

from .demazure import (
    apply_D_root,
    apply_D_simple,
    apply_d_root,
    apply_d_simple,
    apply_r_root,
    apply_r_simple,
    apply_word,
    character_demazure,
)
from .formal import FormalSum, evaluate
from .polysum import (
    DEFAULT_SEED,
    CrossCheckError,
    GenericityError,
    PolytopeSizeError,
    PolytopeSum,
    brion_eval,
    character_freudenthal,
    dominant_weight_multiplicities,
    dominant_weights_below,
    numeric_formula_check,
    polytope_expansion,
    polytope_member,
    polytope_sum_demazure,
    polytope_sum_oracle,
    sample_generic_sigmas,
    verify_polytope_formula,
    weyl_character_eval,
    weyl_dimension,
)
from .rootsys import (
    AlgebraId,
    Root,
    RootSystem,
    build_root_system,
)
from .weyl import (
    WeylElement,
    dominant_representative,
    orbit,
    orbit_size,
    weyl_group,
)

__version__ = "0.1.0"

__all__ = [
    "AlgebraId",
    "CrossCheckError",
    "DEFAULT_SEED",
    "FormalSum",
    "GenericityError",
    "PolytopeSizeError",
    "PolytopeSum",
    "Root",
    "RootSystem",
    "WeylElement",
    "apply_D_root",
    "apply_D_simple",
    "apply_d_root",
    "apply_d_simple",
    "apply_r_root",
    "apply_r_simple",
    "apply_word",
    "brion_eval",
    "build_root_system",
    "character_demazure",
    "character_freudenthal",
    "dominant_representative",
    "dominant_weight_multiplicities",
    "dominant_weights_below",
    "evaluate",
    "numeric_formula_check",
    "orbit",
    "orbit_size",
    "polytope_expansion",
    "polytope_member",
    "polytope_sum_demazure",
    "polytope_sum_oracle",
    "sample_generic_sigmas",
    "verify_polytope_formula",
    "weyl_character_eval",
    "weyl_dimension",
    "weyl_group",
]
