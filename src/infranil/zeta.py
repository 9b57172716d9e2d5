"""Nielsen and Lefschetz zeta functions as canonical rational-function
products, computed by two independent routes and compared.

Direct route: the exact integer sequence N(f^k) (or L(f^k)) is fed through
minimal-recurrence reconstruction and log-derivative inversion.

Structural route: only L-type zetas are reconstructed; the Nielsen zeta is
then assembled from the parity/index case table using the z -> -z and
reciprocal transforms:

                      p even, n even   p even, n odd    p odd, n even   p odd, n odd
    index 1:   N_f =  L_f              1/L_f(-z)        1/L_f(z)        L_f(-z)
    index 2:   N_f =  L_f+/L_f         L_f(-z)/L_f+(-z) L_f(z)/L_f+(z)  L_f+(-z)/L_f(-z)

Equality of the two routes is a hard postcondition.
"""

from __future__ import annotations

from dataclasses import dataclass

from .catalog import HolonomyGroup, holonomy
from .errors import RouteMismatchError
from .fixedpoint import (
    EigenClass,
    PositivePart,
    SignRelationReport,
    check_sign_relations,
    det_table,
    eigen_classify,
    lefschetz_from_row,
    nielsen_from_row,
    positive_part,
)
from .matrices import QMatrix, det_one_minus_z, exterior_power
from .polynomials import factor_over_q
from .series import (
    RatFuncProduct,
    berlekamp_massey_q,
    exponents_from_logderiv,
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


def candidate_factor_hints(dstar: QMatrix):
    """Irreducible factors of det(I - z Lambda^j D) for all j, and their
    z -> -z twists: every factor of any zeta of the candidate divides their
    product, so the reconstruction factors its denominators over them."""
    hints = []
    n = dstar.nrows
    for j in range(n + 1):
        poly = det_one_minus_z(exterior_power(dstar, j))
        if poly.degree < 1:
            continue
        for q, _ in factor_over_q(poly.to_int()[0]):
            hints.append(q)
            hints.append(q.subs_neg_x())
    return hints


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


def lefschetz_zeta(
    candidate: MapCandidate,
    indices=None,
    group: HolonomyGroup | None = None,
    table=None,
) -> RatFuncProduct:
    """Lefschetz zeta of the candidate, averaging over the whole holonomy
    group or the subset `indices` (used for the positive part).  For trivial
    holonomy the result is cross-checked against the exterior-power closed
    form."""
    group = group or holonomy(candidate.entry)
    dim = candidate.entry.dim
    nterms = sequence_length(dim)
    table = table or det_table(candidate, group, nterms)
    seq = [lefschetz_from_row(row, indices) for row in table[:nterms]]
    result = zeta_from_sequence(seq, recurrence_bound(dim), candidate_factor_hints(candidate.dstar))
    if group.order == 1 and indices is None:
        closed = exterior_closed_form(candidate.dstar)
        if not rfp_equal(result, closed):
            raise RouteMismatchError(
                f"reconstructed {result} differs from closed form {closed}"
            )
    return result


def nielsen_zeta_direct(
    candidate: MapCandidate,
    group: HolonomyGroup | None = None,
    table=None,
) -> RatFuncProduct:
    """Nielsen zeta reconstructed from the exact sequence N(f^k)."""
    group = group or holonomy(candidate.entry)
    dim = candidate.entry.dim
    nterms = sequence_length(dim)
    table = table or det_table(candidate, group, nterms)
    seq = [nielsen_from_row(row) for row in table[:nterms]]
    return zeta_from_sequence(seq, recurrence_bound(dim), candidate_factor_hints(candidate.dstar))


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


def nielsen_zeta_structural(
    candidate: MapCandidate,
    group: HolonomyGroup | None = None,
    table=None,
    ec: EigenClass | None = None,
    part: PositivePart | None = None,
) -> RatFuncProduct:
    """Nielsen zeta assembled from L-type zetas through the case table."""
    group = group or holonomy(candidate.entry)
    ec = ec or eigen_classify(candidate.dstar)
    part = part or positive_part(candidate, group, ec)
    dim = candidate.entry.dim
    nterms = sequence_length(dim)
    table = table or det_table(candidate, group, nterms)
    lef = lefschetz_zeta(candidate, None, group, table)
    lef_plus = None
    if part.index == 2:
        lef_plus = lefschetz_zeta(candidate, part.plus_indices, group, table)
    return _structural(lef, lef_plus, part.index, ec.p, ec.n)


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
    """Run both routes; their agreement is asserted (RouteMismatchError).
    The parity relations for k = 1..kmax are checked on the same group,
    table, spectrum and positive part, and reported, not asserted."""
    group = holonomy(candidate.entry)
    ec = eigen_classify(candidate.dstar)
    part = positive_part(candidate, group, ec)
    dim = candidate.entry.dim
    nterms = max(sequence_length(dim), kmax)
    table = det_table(candidate, group, nterms)
    lef_seq = tuple(lefschetz_from_row(row) for row in table)
    nie_seq = tuple(nielsen_from_row(row) for row in table)
    hints = candidate_factor_hints(candidate.dstar)
    bound = recurrence_bound(dim)
    lef = zeta_from_sequence(lef_seq[: sequence_length(dim)], bound, hints)
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
        sign_relations=check_sign_relations(candidate, kmax, group, table[:kmax], ec, part),
    )
