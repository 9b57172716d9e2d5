"""Exact Lefschetz/Nielsen numbers and zeta functions for affine self-maps
on flat manifolds and Heisenberg infra-nilmanifolds of dimension <= 3.

`import infranil` loads the engine modules only: `numberfield`, the
field-generic linear algebra the test oracles and the benchmark's tracer
use, is imported on its own as `infranil.numberfield`.
"""

from .catalog import (
    CatalogEntry,
    HolonomyGroup,
    catalog_ids,
    catalog_lookup,
    holonomy,
    psi_embed,
)
from .errors import (
    CatalogError,
    ConstraintError,
    CorpusError,
    InfranilError,
    InvalidCandidateError,
    ReconstructionError,
    RouteMismatchError,
)
from .fixedpoint import (
    EigenClass,
    PositivePart,
    check_sign_relations,
    eigen_classify,
    positive_part,
)
from .matrices import QMatrix, charpoly, exterior_power
from .polynomials import IntPoly, QPoly, factor_over_q
from .selfmaps import (
    FamilySpec,
    MapCandidate,
    PhiAssignment,
    family_instantiate,
    heis_endo_check,
    load_corpus,
    sample_params,
    validate_selfmap,
)
from .series import (
    RatFuncProduct,
    berlekamp_massey_q,
    exponents_from_logderiv,
    parity_signs,
    rfp_equal,
)
from .zeta import ZetaResult, compute_zeta

__version__ = "0.1.0"

__all__ = [
    "CatalogEntry", "HolonomyGroup", "catalog_ids",
    "catalog_lookup", "holonomy", "psi_embed",
    "CatalogError", "ConstraintError", "CorpusError", "InfranilError",
    "InvalidCandidateError", "ReconstructionError", "RouteMismatchError",
    "EigenClass", "PositivePart", "check_sign_relations",
    "eigen_classify", "positive_part",
    "QMatrix", "charpoly", "exterior_power",
    "IntPoly", "QPoly", "factor_over_q",
    "FamilySpec", "MapCandidate", "PhiAssignment", "family_instantiate",
    "heis_endo_check", "load_corpus", "sample_params", "validate_selfmap",
    "RatFuncProduct", "berlekamp_massey_q", "exponents_from_logderiv",
    "parity_signs", "rfp_equal",
    "ZetaResult", "compute_zeta",
]
