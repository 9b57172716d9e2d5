"""Nielsen and Lefschetz zeta functions as canonical rational-function
products, computed by two independent routes and compared.  `compute_zeta`
is the one entry point; it runs both routes.

Direct route: the exact integer sequence N(f^k) (or L(f^k)) is fed through
minimal-recurrence reconstruction and log-derivative inversion.

Structural route: only L-type zetas are reconstructed; the Nielsen zeta is
then assembled from the parity/index case table using the z -> -z and
reciprocal transforms:

                      p even, n even   p even, n odd    p odd, n even   p odd, n odd
    index 1:   N_f =  L_f              1/L_f(-z)        1/L_f(z)        L_f(-z)
    index 2:   N_f =  L_f+/L_f         L_f(-z)/L_f+(-z) L_f(z)/L_f+(z)  L_f+(-z)/L_f(-z)

Equality of the two routes is a hard postcondition, and so is, for trivial
holonomy, equality of the Lefschetz zeta with the exterior-power closed form.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import RouteMismatchError
from .fixedpoint import (
    ExteriorData,
    SignRelationReport,
    _sign_relations,
    det_table,
    eigen_classify,
    exterior_data,
    lefschetz_from_row,
    nielsen_from_row,
    positive_part,
)
from .matrices import QMatrix, det_one_minus_z, exterior_power
from .series import (
    RatFuncProduct,
    berlekamp_massey_q,
    exponents_from_logderiv,
    normalize_factor,
    rfp_equal,
    rfp_transform,
)
from .selfmaps import MapCandidate


def recurrence_bound(dim: int) -> int:
    """Worst case: a quotient of two L-type zetas has at most 2 * 2^dim
    exponential terms."""
    return 2 ** (dim + 1)


def sequence_length(dim: int) -> int:
    """Fitting window (2 * bound + 2) plus ten held-out verification terms."""
    return 2 * recurrence_bound(dim) + 12


def candidate_factor_hints(ext: ExteriorData):
    """Irreducible factors of det(I - z Lambda^j D) for all j, and their
    z -> -z twists: every factor of any zeta of the candidate divides their
    product, so the reconstruction factors its denominators over them."""
    return [h for factors in ext.factors for q, _ in factors for h in (q, q.subs_neg_x())]


def zeta_from_sequence(seq, bound: int, hints=None) -> RatFuncProduct:
    """Canonical product with z (log Z)' = sum seq[k-1] z^k."""
    num, den = berlekamp_massey_q(seq, bound)
    return exponents_from_logderiv(num, den, hints)


def exterior_closed_form(dstar: QMatrix) -> RatFuncProduct:
    """prod_j det(I - z Lambda^j D)^((-1)^(j+1)): the trivial-holonomy
    Lefschetz zeta in closed form."""
    n = dstar.nrows
    return RatFuncProduct.from_factors(
        (det_one_minus_z(exterior_power(dstar, j)), (-1) ** (j + 1)) for j in range(n + 1)
    )


def _closed_form(ext: ExteriorData) -> RatFuncProduct:
    """`exterior_closed_form` assembled from the factors in ext."""
    return RatFuncProduct.from_irreducibles(
        (normalize_factor(q), mult * (-1) ** (j + 1))
        for j, factors in enumerate(ext.factors) for q, mult in factors
    )


def _structural(lef, lef_plus, index, p, n):
    pe, ne = p % 2 == 0, n % 2 == 0
    if index == 1:
        if pe and ne:
            return lef
        if pe:
            return rfp_transform(rfp_transform(lef, "negate-z"), "reciprocal")
        if ne:
            return rfp_transform(lef, "reciprocal")
        return rfp_transform(lef, "negate-z")
    if pe and ne:
        return lef_plus / lef
    if pe:
        return rfp_transform(lef, "negate-z") / rfp_transform(lef_plus, "negate-z")
    if ne:
        return lef / lef_plus
    return rfp_transform(lef_plus, "negate-z") / rfp_transform(lef, "negate-z")


@dataclass(frozen=True)
class ZetaResult:
    """Everything both routes produce for one candidate."""

    p: int
    n: int
    index: int
    case_label: str
    lefschetz_numbers: tuple
    nielsen_numbers: tuple
    lefschetz: RatFuncProduct
    lefschetz_plus: RatFuncProduct | None
    nielsen_direct: RatFuncProduct
    nielsen_structural: RatFuncProduct
    sign_relations: SignRelationReport

    @property
    def nielsen(self) -> RatFuncProduct:
        return self.nielsen_direct


def case_label(index: int, p: int, n: int) -> str:
    gamma = "Gamma = Gamma+" if index == 1 else "Gamma != Gamma+"
    return (
        f"{gamma}, p {'even' if p % 2 == 0 else 'odd'}, "
        f"n {'even' if n % 2 == 0 else 'odd'}"
    )


def compute_zeta(candidate: MapCandidate, kmax: int = 40) -> ZetaResult:
    """Run both routes; their agreement is asserted (RouteMismatchError), as
    is, for trivial holonomy, the agreement of the Lefschetz zeta with the
    exterior-power closed form.  The parity relations for k = 1..kmax are
    checked on the same table, spectrum and positive part, and reported, not
    asserted."""
    ec = eigen_classify(candidate.dstar)
    part = positive_part(candidate, ec)
    ext = exterior_data(candidate.dstar)
    dim = candidate.entry.dim
    nterms = max(sequence_length(dim), kmax)
    table = det_table(ext, part.group, nterms)
    lef_seq = tuple(lefschetz_from_row(row) for row in table)
    nie_seq = tuple(nielsen_from_row(row) for row in table)
    hints = candidate_factor_hints(ext)
    bound = recurrence_bound(dim)
    lef = zeta_from_sequence(lef_seq[: sequence_length(dim)], bound, hints)
    if part.group.order == 1:
        closed = _closed_form(ext)
        if not rfp_equal(lef, closed):
            raise RouteMismatchError(f"reconstructed {lef} differs from closed form {closed}")
    lef_plus = None
    if part.index == 2:
        plus_seq = [lefschetz_from_row(row, part.plus_indices) for row in table]
        lef_plus = zeta_from_sequence(plus_seq[: sequence_length(dim)], bound, hints)
    direct = zeta_from_sequence(nie_seq[: sequence_length(dim)], bound, hints)
    structural = _structural(lef, lef_plus, part.index, ec.p, ec.n)
    if not rfp_equal(direct, structural):
        raise RouteMismatchError(
            f"direct {direct} != structural {structural} "
            f"({case_label(part.index, ec.p, ec.n)})"
        )
    return ZetaResult(
        p=ec.p,
        n=ec.n,
        index=part.index,
        case_label=case_label(part.index, ec.p, ec.n),
        lefschetz_numbers=lef_seq[:kmax],
        nielsen_numbers=nie_seq[:kmax],
        lefschetz=lef,
        lefschetz_plus=lef_plus,
        nielsen_direct=direct,
        nielsen_structural=structural,
        sign_relations=_sign_relations(table[:kmax], ec, part),
    )
