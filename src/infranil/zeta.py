"""Nielsen and Lefschetz zeta functions as canonical rational-function
products, computed by two independent routes and compared.  `compute_zeta`
is the one entry point; it runs both routes.

Direct route: the exact integer sequence N(f^k) is fed through
minimal-recurrence reconstruction and log-derivative inversion.

Structural route: the L-type zetas come in closed form from the averaging
formula.  With P_j = (1/#F) sum_{A in F} Lambda^j A, D A = phi(A) D gives
P_j (Lambda^j D)^k = (P_j Lambda^j D)^k, so for every holonomy group

    L_f(z) = prod_j det(I - z P_j Lambda^j D)^((-1)^(j+1)),

and L_f+ is the same product averaged over F+.  The Nielsen zeta then
follows from one rule (`series.parity_signs`), the parity/index case table
of the averaging formula in closed form:

    N_f(z) = B(sigma z)^eps,   B = L_f (index 1) or L_f+/L_f (index 2),
                               sigma = (-1)^n,  eps = (-1)^(p+n).

Hard postconditions (RouteMismatchError): the two routes agree, and the
log-derivative of each closed form reproduces every L(f^k) (and L(f_+^k))
of the determinant table.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isqrt

from .errors import RouteMismatchError
from .fixedpoint import (
    ExteriorData,
    SignRelationReport,
    _candidate_sequences,
    _sign_relations,
)
from .matrices import flat_product, scaled_det_one_minus_z
from .series import (
    RatFuncProduct,
    berlekamp_massey_q,
    exponents_from_logderiv,
    factor_with_hints,
    normalize_factor,
    parity_signs,
    rfp_equal,
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


def _averaged_closed_form(ext: ExteriorData, averages) -> RatFuncProduct:
    """prod_j det(I - z P_j Lambda^j D)^((-1)^(j+1)), where averages[j] is the
    integer form (den, flat) of P_j (`HolonomyGroup.exterior_averages`).

    Every nonzero eigenvalue of P_j Lambda^j D is one of Lambda^j D (their
    power sums tr(P_j (Lambda^j D)^k) are sums of its eigenvalues' powers),
    so each determinant factors over ext.factors[j] by trial division; where
    P_j = I (every j on trivial holonomy), ext.factors[j] is its factorization."""
    pairs = []
    for j, ((den, avg), (q, flat), factors) in enumerate(zip(averages, ext.forms, ext.factors)):
        m = isqrt(len(flat))
        if avg != tuple(den * (r == c) for r in range(m) for c in range(m)):
            det_poly = scaled_det_one_minus_z(flat_product(avg, flat, m), m, den * q)
            factors = factor_with_hints(det_poly, [h for h, _ in factors])
        pairs += [(normalize_factor(h), mult * (-1) ** (j + 1)) for h, mult in factors]
    return RatFuncProduct.from_irreducibles(pairs)


def _checked_closed_form(ext: ExteriorData, averages, seq, name: str) -> RatFuncProduct:
    """The closed form, checked in integers against every term of seq."""
    closed = _averaged_closed_form(ext, averages)
    series = closed.logderiv_series(len(seq))
    if series != list(seq):
        k = next(k for k, (a, b) in enumerate(zip(series, seq), start=1) if a != b)
        raise RouteMismatchError(
            f"closed form {closed} gives {name}(f^{k}) = {series[k - 1]}, "
            f"the determinant table {seq[k - 1]}"
        )
    return closed


def _structural(lef, lef_plus, index, p, n):
    """N_f(z) = B(sigma z)^eps (`parity_signs`), B = L_f or L_f+/L_f."""
    sigma, eps = parity_signs(p, n)
    base = lef if index == 1 else lef_plus / lef
    if sigma < 0:
        base = base.subs_neg_z()
    return base if eps > 0 else base.reciprocal()


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
    """Run both routes: the Nielsen sequence is reconstructed (direct), and
    the Lefschetz zetas come from the holonomy-averaged closed form, turned
    into the Nielsen zeta by the case table (structural).  Asserted
    (RouteMismatchError): the routes agree, and each closed form's
    log-derivative reproduces its Lefschetz numbers on every term of the
    determinant table.  The parity relations for k = 1..kmax are checked on
    the same table, spectrum and positive part, and reported, not
    asserted.  The table and the positive part read one set of
    `exterior_traces`.  Raises ConstraintError for kmax < 1."""
    dim = candidate.entry.dim
    ext, part, seqs = _candidate_sequences(candidate, kmax, max(sequence_length(dim), kmax))
    ec, group = ext.spectrum, candidate.entry.holonomy_group
    lef_seq, nie_seq, plus_seq = seqs
    lef = _checked_closed_form(ext, group.exterior_averages(), lef_seq, "L")
    lef_plus = None
    if part.index == 2:
        lef_plus = _checked_closed_form(
            ext, group.exterior_averages(part.plus_indices), plus_seq, "L_+"
        )
    num, den = berlekamp_massey_q(nie_seq[: sequence_length(dim)], recurrence_bound(dim))
    direct = exponents_from_logderiv(num, den, candidate_factor_hints(ext))
    structural = _structural(lef, lef_plus, part.index, ec.p, ec.n)
    label = case_label(part.index, ec.p, ec.n)
    if not rfp_equal(direct, structural):
        raise RouteMismatchError(f"direct {direct} != structural {structural} ({label})")
    return ZetaResult(
        p=ec.p,
        n=ec.n,
        index=part.index,
        case_label=label,
        lefschetz_numbers=lef_seq[:kmax],
        nielsen_numbers=nie_seq[:kmax],
        lefschetz=lef,
        lefschetz_plus=lef_plus,
        nielsen_direct=direct,
        nielsen_structural=structural,
        sign_relations=_sign_relations(seqs, kmax, ec, part.index),
    )
