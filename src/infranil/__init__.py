"""Exact Lefschetz/Nielsen numbers and zeta functions for affine self-maps
on flat manifolds and Heisenberg infra-nilmanifolds of dimension <= 3.

`NFElem`, `NumberField` and `nf_sign` are re-exported lazily: no engine
module needs `numberfield` (real algebraic number fields, kept for the test
oracles), so `import infranil` does not load it.  The first read of one of
these names, or of `infranil.numberfield`, imports the module.
"""

import importlib

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
from .polynomials import IntPoly, QPoly, Rational, factor_over_q, sturm_count
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

_NUMBERFIELD_NAMES = ("NFElem", "NumberField", "nf_sign")


def __getattr__(name):
    if name == "numberfield" or name in _NUMBERFIELD_NAMES:
        module = importlib.import_module(".numberfield", __name__)
        return module if name == "numberfield" else getattr(module, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

__all__ = [
    "CatalogEntry", "HolonomyGroup", "catalog_ids",
    "catalog_lookup", "holonomy", "psi_embed",
    "CatalogError", "ConstraintError", "CorpusError", "InfranilError",
    "InvalidCandidateError", "ReconstructionError", "RouteMismatchError",
    "EigenClass", "PositivePart", "check_sign_relations",
    "eigen_classify", "positive_part",
    "QMatrix", "charpoly", "exterior_power",
    "NFElem", "NumberField", "nf_sign",
    "IntPoly", "QPoly", "Rational", "factor_over_q", "sturm_count",
    "FamilySpec", "MapCandidate", "PhiAssignment", "family_instantiate",
    "heis_endo_check", "load_corpus", "sample_params", "validate_selfmap",
    "RatFuncProduct", "berlekamp_massey_q", "exponents_from_logderiv",
    "parity_signs", "rfp_equal",
    "ZetaResult", "compute_zeta",
]
