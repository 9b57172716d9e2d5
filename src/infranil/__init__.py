"""Exact Lefschetz/Nielsen numbers and zeta functions for affine self-maps
on flat manifolds and Heisenberg infra-nilmanifolds of dimension <= 3."""

from .catalog import (
    AffineElement,
    CatalogEntry,
    HolonomyGroup,
    catalog_ids,
    catalog_lookup,
    holonomy,
    lattice_member,
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
    lefschetz_number,
    nielsen_number,
    positive_part,
)
from .matrices import QMatrix, charpoly, exterior_power
from .numberfield import NFElem, NumberField, nf_sign
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
    rfp_equal,
    rfp_transform,
)
from .zeta import ZetaResult, compute_zeta, exterior_closed_form

__version__ = "0.1.0"

__all__ = [
    "AffineElement", "CatalogEntry", "HolonomyGroup", "catalog_ids",
    "catalog_lookup", "holonomy", "lattice_member", "psi_embed",
    "CatalogError", "ConstraintError", "CorpusError", "InfranilError",
    "InvalidCandidateError", "ReconstructionError", "RouteMismatchError",
    "EigenClass", "PositivePart", "check_sign_relations",
    "eigen_classify", "lefschetz_number", "nielsen_number", "positive_part",
    "QMatrix", "charpoly", "exterior_power",
    "NFElem", "NumberField", "nf_sign",
    "IntPoly", "QPoly", "Rational", "factor_over_q", "sturm_count",
    "FamilySpec", "MapCandidate", "PhiAssignment", "family_instantiate",
    "heis_endo_check", "load_corpus", "sample_params", "validate_selfmap",
    "RatFuncProduct", "berlekamp_massey_q", "exponents_from_logderiv",
    "rfp_equal", "rfp_transform",
    "ZetaResult", "compute_zeta", "exterior_closed_form",
]
