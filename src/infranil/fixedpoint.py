"""Exact fixed-point invariants by holonomy averaging.

For a valid candidate (d, D) on a manifold with holonomy group F,

    L(f^k) = (1/#F) sum_{A in F} det(I - A* D*^k)
    N(f^k) = (1/#F) sum_{A in F} |det(I - A* D*^k)|

both of which must come out integral (asserted).  `det_table` builds the
determinants without a matrix power or a determinant past the first few
terms: expanding det(I - M) = sum_j (-1)^j tr(Lambda^j M) with
Lambda^j (A D^k) = Lambda^j A . (Lambda^j D)^k gives

    det(I - A D^k) = sum_{j=0..n} (-1)^j tr(Lambda^j A . E_j^k),  E_j = Lambda^j D,

and each trace sequence obeys the Cayley-Hamilton recurrence of charpoly(E_j),
of order C(n, j).  `exterior_data` forms the spectrum of D and, once per
candidate, each E_j in integer form (the integer minors of D's integer
form, D's own for j = 1) and det(I - z q_j E_j), q_j the common
denominator of E_j, in closed form from that integer form.  For n <= 3
the eigenvalues of E_j are the j-fold products of those of D, so on first
read the factors of det(I - z E_j) are read off the factors of
charpoly(D), the one polynomial factored.  The first C(n, j) powers
of E_j are shared by every holonomy element, every later term costs
C(n, j) multiplications per element, and Lambda^j A is formed once per
holonomy group.  The traces run in integers, and a table row is (den, nums):
the entries' integer numerators over the common denominator den = R Q^k, R
and Q the lcms of the sequences' scales r_j and q_j (positive, not always
the least), so L and N are integer sums.  The test oracles form the same
determinants directly, from explicit integer powers of D
(`tests/oracles.py`).

The spectrum of D* is classified exactly, in integers, in closed form and
with no root isolated (`_analyze_factor`): the counts p of real
eigenvalues > 1 and n < -1 and the modulus split against the unit circle
come from each factor's discriminant, Descartes' rule on its Taylor shifts
to 1 and -1, and its signs at -1, 1 and +-|c0/c3|.  The positive
part F_+, of index 1 or 2, holds the holonomy elements A with eps_A =
det(A on V/W) = +1, W the modulus <= 1 subspace.  With m = dim V/W,

    eps_A = tr(Lambda^m A . p(Lambda^m D)) / tr(p(Lambda^m D)),
    p = x^j charpoly(Lambda^m D) / h,

where h is the minimal polynomial of mu, the product of the expanding
eigenvalues, read off the spectrum's factors, and j < deg h the least that
makes the denominator nonzero (`positive_part`): two integer dot products
with the first C(n, m) terms of the j = m trace sequences.  A `PositivePart`
holds the index, the signs and the indices of F_+ into the holonomy group,
which it does not carry; `positive_part` checks on that group's table that
F_+ is closed.
The parity relations tying N(f^k) to L(f^k) and L(f_+^k) are checked for a
range of iterates.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import comb, isqrt, lcm
from operator import mul
from typing import NamedTuple

from .catalog import HolonomyGroup
from .errors import ConstraintError, InfranilError, InvalidCandidateError
from .matrices import (
    QMatrix,
    exterior_integer_form,
    flat_product,
    integer_form,
    scaled_det_one_minus_z,
)
from .polynomials import IntPoly, exact_quotient, factor_over_q, sign_at
from .records import Record
from .selfmaps import MapCandidate
from .series import extend_recurrence, parity_signs

# Counts the `positive_part` calls on a spectrum with an irreducible cubic
# factor that has roots on both sides of the unit circle.  Trivial holonomy
# counts too (random torus-3 maps hit it); no catalog family with nontrivial
# holonomy produces one, so a count from such a family is worth investigating.
MIXED_CUBIC_COUNTER = 0

INSIDE = "(-1,1)"
GT1 = ">1"
LTM1 = "<-1"
ONE = "1"
MINUS_ONE = "-1"


class FactorRoots(NamedTuple):
    """Exact root layout of one irreducible factor of the characteristic
    polynomial: the sign classes of its real roots, in ascending root order,
    plus the modulus class ('lt', 'eq', 'gt') of the complex pair if present."""

    factor: IntPoly
    multiplicity: int
    real: tuple          # sign class per real root, ascending
    pair_class: str | None

    @property
    def degree(self) -> int:
        return self.factor.degree

    def modulus_counts(self):
        """(lt, eq, gt) root counts of one copy of the factor."""
        lt = self.real.count(INSIDE)
        eq = self.real.count(ONE) + self.real.count(MINUS_ONE)
        gt = self.real.count(GT1) + self.real.count(LTM1)
        if self.pair_class == "lt":
            lt += 2
        elif self.pair_class == "eq":
            eq += 2
        elif self.pair_class == "gt":
            gt += 2
        return lt, eq, gt

    def side(self) -> str:
        """'le', 'gt', or 'mixed' relative to the unit circle."""
        lt, eq, gt = self.modulus_counts()
        if gt == 0:
            return "le"
        if lt + eq == 0:
            return "gt"
        return "mixed"


def _sign_changes(coeffs) -> int:
    """Sign changes along a coefficient sequence, zeros skipped."""
    signs = [c > 0 for c in coeffs if c]
    return sum(a != b for a, b in zip(signs, signs[1:]))


def _analyze_factor(q: IntPoly, mult: int) -> FactorRoots:
    """Root layout of an irreducible factor with positive leading
    coefficient, in integers and in closed form.  A linear factor's root
    -c0/c1 is compared with -1 and 1.  A quadratic or cubic with positive
    discriminant has only real roots, so Descartes' rule on the Taylor
    shifts q(1 + y) and q(-1 - y) counts its roots above 1 and below -1
    exactly.  A cubic with negative discriminant has one real root theta,
    placed by the signs of q(1) and q(-1); its complex pair by the signs of
    q at +-|c0/c3|.  A zero at -1, 1 or +-|c0/c3|, or a zero discriminant,
    shows a reducible factor (InfranilError)."""
    c, deg = q.coeffs, q.degree
    if deg == 1:
        r, one = -c[0], c[1]
        cls = (GT1 if r > one else ONE if r == one else INSIDE if r > -one
               else MINUS_ONE if r == -one else LTM1)
        return FactorRoots(q, mult, (cls,), None)
    if deg not in (2, 3):
        raise InfranilError(f"unexpected factor degree {deg} in spectrum analysis")
    c0, c1, c2, c3 = c + (0,) * (3 - deg)
    if deg == 2:
        disc = c1 * c1 - 4 * c0 * c2
        if disc < 0:
            # |lambda|^2 = c0/c2 for the conjugate pair
            return FactorRoots(q, mult, (), "eq" if c0 == c2 else ("gt" if c0 > c2 else "lt"))
    else:
        disc = (18 * c0 * c1 * c2 * c3 - 4 * c2 ** 3 * c0 + c2 * c2 * c1 * c1
                - 4 * c3 * c1 ** 3 - 27 * c3 * c3 * c0 * c0)
    at_one, at_minus_one = c0 + c1 + c2 + c3, c0 - c1 + c2 - c3
    if not (at_one and at_minus_one):
        raise InfranilError(f"{q} has the root 1 or -1")
    if not disc:
        raise InfranilError(f"factor {q} has a repeated root, so it is not irreducible")
    if disc > 0:  # the coefficients of q(1 + y) and of q(-1 - y)
        above = _sign_changes((at_one, c1 + 2 * c2 + 3 * c3, c2 + 3 * c3, c3))
        below = _sign_changes((at_minus_one, -c1 + 2 * c2 - 3 * c3, c2 - 3 * c3, -c3))
        real = (LTM1,) * below + (INSIDE,) * (deg - below - above) + (GT1,) * above
        return FactorRoots(q, mult, real, None)
    # q > 0 above theta and q < 0 below it.  theta * |lambda|^2 = -c0/c3,
    # so |lambda| > 1 iff |theta| < B = |c0/c3|, iff q changes sign on (-B, B)
    real = GT1 if at_one < 0 else LTM1 if at_minus_one > 0 else INSIDE
    lo, hi = sign_at(q, -abs(c0), c3), sign_at(q, abs(c0), c3)
    if not lo * hi:
        raise InfranilError(f"factor {q} has a rational root, so it is not irreducible")
    return FactorRoots(q, mult, (real,), "gt" if lo != hi else "lt")


class EigenClass(NamedTuple):
    """Exact spectrum classification of a linear part."""

    charpoly: IntPoly    # primitive, positive leading coefficient
    root_data: tuple      # FactorRoots per factor of the nonconstant part
    p: int                # real eigenvalues > 1, with multiplicity
    n: int                # real eigenvalues < -1, with multiplicity
    dim_gt1: int          # total modulus > 1 count, with multiplicity


def eigen_classify(dstar: QMatrix) -> EigenClass:
    return _classify(integer_form([dstar]), dstar.nrows)


def _classify(form, dim: int) -> EigenClass:
    """`eigen_classify` of the matrix whose integer form is form = (q, (flat,))."""
    q, (flat,) = form
    rev = scaled_det_one_minus_z(flat, dim, q).coeffs  # q^dim det(I - z D)
    cp = IntPoly((rev + (0,) * (dim + 1 - len(rev)))[::-1]).primitive()
    data = []
    p = n = gt_total = total = 0
    for q, mult in factor_over_q(cp):
        fr = _analyze_factor(q, mult)
        data.append(fr)
        lt, eq, gt = fr.modulus_counts()
        total += (lt + eq + gt) * mult
        gt_total += gt * mult
        p += mult * fr.real.count(GT1)
        n += mult * fr.real.count(LTM1)
    if total != cp.degree:
        raise InfranilError("modulus classes must partition the spectrum")
    return EigenClass(cp, tuple(data), p, n, gt_total)


# ---------------------------------------------------------------------------
# Averaging
# ---------------------------------------------------------------------------


class ExteriorData(Record):
    """Lambda^j D for j = 0..n in integer form, with det(I - z q_j Lambda^j D)
    and the exact spectrum of D, formed once per candidate by
    `exterior_data`.  forms[j] = (q_j, flat_j): Lambda^j D = flat_j / q_j,
    flat_j row-major ints; det_polys[j] = det(I - z flat_j), an IntPoly."""

    _fields = ("forms", "det_polys", "spectrum")

    def __init__(self, forms: tuple, det_polys: tuple, spectrum: EigenClass):
        self._set_fields(forms, det_polys, spectrum)

    @cached_property
    def factors(self) -> tuple:
        """factors[j]: the factors, as `factor_over_q` gives them, of
        det(I - z Lambda^j D) = det_polys[j](z / q_j), all read off the
        spectrum's factors of charpoly(D), so charpoly(D) is the one
        polynomial factored.  Formed on first read, so a caller that needs
        only the determinant table factors nothing.

        j = 1: the factors of charpoly(D) reversed, less the factors x of its
        zero eigenvalues.  A det_polys[j] of degree <= 1 is its own factor.
        n = 3, j = 2, det D != 0: Lambda^2 D has eigenvalues det D / lambda,
        so each factor f of charpoly(D) gives the factor f(det D z), with
        the same multiplicity."""
        out = [((IntPoly([-1, 1]), 1),)]  # det(I - z Lambda^0 D) = 1 - z
        reversed_d = []
        for q, mult, _, _ in self.spectrum.root_data:
            if q.constant():  # x, a zero eigenvalue, reverses to 1
                sign = 1 if q.constant() > 0 else -1
                rev = IntPoly([sign * c for c in reversed(q.coeffs)])
                reversed_d.append((rev, mult))
        out.append(tuple(sorted(reversed_d, key=lambda fm: fm[0].sort_key())))
        cp = self.spectrum.charpoly.coeffs
        a, b = -cp[0], cp[-1]  # det D = a / b when n = 3
        for (den, _), poly in zip(self.forms[2:], self.det_polys[2:]):
            if poly.degree > 1:  # b^d f(a z / b) is f(det D z) cleared of denominators
                factors = sorted(
                    ((IntPoly([c * a ** t * b ** (f.degree - t)
                                         for t, c in enumerate(f.coeffs)])
                      .primitive(), mult) for f, mult, _, _ in self.spectrum.root_data),
                    key=lambda fm: fm[0].sort_key(),
                )
            else:  # den poly(z / den), up to its content
                factors = ([(IntPoly([den, poly.coeffs[1]]).primitive(), 1)]
                           if poly.degree else [])
            out.append(tuple(factors))
        return tuple(out)


def exterior_data(dstar: QMatrix) -> ExteriorData:
    """The exterior data of a candidate's linear part: the spectrum,
    `det_table`, the factor hints and the closed form all read it.  D's
    integer form is formed once: the spectrum is classified on it, each
    Lambda^j D is its integer minors, and Lambda^1 D is the form itself,
    whose denominator is already the least.  Every
    det_polys[j] is `scaled_det_one_minus_z` of flat_j, of size C(n, j), at
    scale 1; for j = 0 that is 1 - z."""
    n = dstar.nrows
    form = integer_form([dstar])
    spectrum = _classify(form, n)
    forms, det_polys = [], []
    for j in range(n + 1):
        q, (flat,) = form if j == 1 else exterior_integer_form(form, j)
        forms.append((q, flat))
        det_polys.append(scaled_det_one_minus_z(flat, comb(n, j), 1))
    return ExteriorData(tuple(forms), tuple(det_polys), spectrum)


def _trace_sequences(blocks, form, det_poly: IntPoly, kmax: int):
    """(r, q, seqs) with seqs[i][k] = r q^k tr(B_i . e^k), an integer, for
    k = 0..kmax, where blocks = (r, flats) is the integer form of the B_i,
    form = (q, qe) that of e and det_poly = det(I - z qe).  The first
    m = dim(e) terms come from explicit powers of qe, the rest from the
    recurrence of charpoly(qe) (Cayley-Hamilton: (qe)^k charpoly(qe) = 0 for
    every k >= 0)."""
    r, flats = blocks
    q, qe = form
    m = isqrt(len(qe))
    # (q e)^T and its powers, row-major: tr(B . (qe)^p) is a dot product
    qe_t = tuple(qe[j * m + i] for i in range(m) for j in range(m))
    powers_t = [tuple(int(i == j) for i in range(m) for j in range(m))]
    for _ in range(1, min(m, kmax + 1)):
        powers_t.append(flat_product(powers_t[-1], qe_t, m))
    coeffs = det_poly.coeffs + (0,) * (m + 1 - len(det_poly.coeffs))
    rec = [-coeffs[m - i] for i in range(m)]
    seqs = [extend_recurrence([sum(map(mul, flat, pt)) for pt in powers_t], rec, kmax + 1)
            for flat in flats]
    return r, q, seqs


def exterior_traces(ext: ExteriorData, group: HolonomyGroup, kmax: int) -> list:
    """traces[j - 1] = `_trace_sequences` of the Lambda^j A_i against
    Lambda^j D, for j = 1..n: seqs[i][k] = r q^k tr(Lambda^j A_i .
    (Lambda^j D)^k) for k = 0..max(kmax, C(n, j) - 1).  Formed once per
    candidate: `det_table` reads k = 1..kmax of every j, and `positive_part`
    the first C(n, m) terms of j = m."""
    return [
        _trace_sequences(
            group.exterior_powers[j], form, poly, max(kmax, isqrt(len(form[1])) - 1)
        )
        for j, (form, poly) in enumerate(zip(ext.forms, ext.det_polys))
        if j
    ]


def det_table(ext: ExteriorData, group: HolonomyGroup, kmax: int, traces: list):
    """table[k-1] = (den, nums) with det(I - A_i D^k) = nums[i] / den for
    k = 1..kmax and nums ints, where ext is `exterior_data(D)`, by the
    exterior-power trace recurrences of the module docstring.  traces is
    `exterior_traces(ext, group, K)` for some K >= kmax, which
    `positive_part` reads too.

    den = R Q^k, R and Q the lcms of the r_j and q_j of the trace sequences:
    a positive common denominator, not always the least.  The j-th sequence
    then weighs (-1)^j (R / r_j) (Q / q_j)^k, one int when q_j = Q."""
    big_r, big_q = lcm(*(r for r, _, _ in traces)), lcm(*(q for _, q, _ in traces))
    dens, den = [], big_r
    for _ in range(kmax):
        den *= big_q
        dens.append(den)
    weights = []
    for j, (r, q, _) in enumerate(traces, start=1):
        w, ratio = (-1) ** j * (big_r // r), big_q // q
        weights.append(w if ratio == 1 else [w * ratio ** k for k in range(1, kmax + 1)])
    columns = []
    for i in range(group.order):
        col = dens
        for w, (_, _, seqs) in zip(weights, traces):
            seq = seqs[i][1:]
            if type(w) is int:
                col = [c + w * t for c, t in zip(col, seq)]
            else:
                col = [c + wk * t for c, wk, t in zip(col, w, seq)]
        columns.append(col)
    return list(zip(dens, zip(*columns)))


def _average(total: int, count: int, what: str) -> int:
    value, rem = divmod(total, count)
    if rem:
        raise InvalidCandidateError(f"{what} is not an integer: {Fraction(total, count)}")
    return value


# ---------------------------------------------------------------------------
# Positive part
# ---------------------------------------------------------------------------


class PositivePart(NamedTuple):
    """The subgroup F_+ of holonomy elements A whose sign
    eps_A = det(A on V/W) is +1, W the modulus <= 1 subspace of D, together
    with every element's sign (`positive_part` computes them).  Indices are
    into the holonomy group it was computed on, which it does not carry."""

    index: int
    det_signs: tuple      # +1/-1 per holonomy element
    plus_indices: tuple   # indices of the kernel F_+


def _root_product(f) -> tuple:
    """(num, den): num / den is the product of the roots of the polynomial
    with coefficients f."""
    return (-1) ** (len(f) - 1) * f[0], f[-1]


def positive_part(ext: ExteriorData, group: HolonomyGroup, traces: list) -> PositivePart:
    """The sign eps_A = det(A on V/W) of every element A of the holonomy
    group, where ext is `exterior_data(D)`, and the subgroup F_+ where it is
    +1.  traces is `exterior_traces(ext, group, K)` for any K >= 1; only its
    first C(n, m) terms of j = m are read.

    Let m = dim V/W, mu the product of the expanding eigenvalues and h its
    minimal polynomial.  W is preserved by every holonomy element, and its
    annihilator's Pluecker line is the mu-eigenline of Lambda^m D^T, on which
    Lambda^m A^T acts by eps_A.  |mu| is strictly the largest modulus in the
    spectrum of Lambda^m D, so mu and its conjugates are simple eigenvalues
    there.  Hence, for p = x^j charpoly(Lambda^m D) / h,

        eps_A = tr(Lambda^m A . p(Lambda^m D)) / tr(p(Lambda^m D)),

    with the least j < deg h that makes the denominator nonzero (p(mu) != 0,
    and the trace form of Q(mu) is nondegenerate).  Both traces are dot
    products with the first C(n, m) terms of the integer trace sequences
    for j = m; the denominator is the identity's (element 0).

    h comes from the spectrum's factors with no comparison of roots, up to a
    constant factor.  With c the product of the roots of the purely
    expanding factors (with multiplicity), h = x - c when no factor
    straddles the unit circle.  A straddling factor f, of degree d, is
    unique and simple for n <= 3; with one expanding root h = c^d f(x / c),
    and with one non-expanding root h = x^d f(c P / x), P the product of
    f's roots.
    """
    global MIXED_CUBIC_COUNTER
    m = ext.spectrum.dim_gt1
    if m == 0:
        return PositivePart(1, (1,) * group.order, tuple(range(group.order)))

    # the traces are of E = q Lambda^m D, whose eigenvalue q mu is a / b
    # times a root of f (f = x - 1 unless a factor straddles the circle), so
    # b^d (a / b)^d f(b x / a) is a multiple of h for E
    q, flat = ext.forms[m]
    a, b, f, straddling = q, 1, (-1, 1), None
    for fr in ext.spectrum.root_data:
        side = fr.side()
        if side == "gt":
            num, den = _root_product(fr.factor.coeffs)
            a, b = a * num ** fr.multiplicity, b * den ** fr.multiplicity
        elif side == "mixed":
            straddling = fr
    if straddling is not None:
        f = straddling.factor.coeffs
        if straddling.degree == 3:
            MIXED_CUBIC_COUNTER += 1
        if straddling.modulus_counts()[2] != 1:
            # one non-expanding root beta: mu = c P / beta, where 1 / beta
            # is a root of f reversed
            num, den = _root_product(f)
            a, b, f = a * num, b * den, f[::-1]
    d = len(f) - 1
    h = IntPoly([v * a ** (d - k) * b ** k for k, v in enumerate(f)]).primitive()
    det_poly, size = ext.det_polys[m].coeffs, isqrt(len(flat))
    cp_m = IntPoly((det_poly + (0,) * (size + 1 - len(det_poly)))[::-1])
    g = exact_quotient(cp_m, h).coeffs
    seqs = traces[m - 1][2]
    for j in range(d):
        total = sum(map(mul, g, seqs[0][j:]))
        if total:
            break
    else:
        raise InfranilError("the expanding eigenvalue product is not simple in Lambda^m D")

    signs = []
    for seq in seqs:
        num = sum(map(mul, g, seq[j:]))
        if num not in (total, -total):
            raise InfranilError(f"determinant sign {Fraction(num, total)} is not +-1")
        signs.append(1 if num == total else -1)
    plus = tuple(i for i, s in enumerate(signs) if s == 1)
    index = group.order // len(plus)
    if index not in (1, 2) or group.order % len(plus):
        raise InfranilError(f"positive part has index {group.order / len(plus)}")
    idx = set(plus)
    if not all(group.table[i][j] in idx for i in plus for j in plus):
        raise InfranilError("positive part is not closed under multiplication")
    return PositivePart(index, tuple(signs), plus)


# ---------------------------------------------------------------------------
# Parity relations
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SignRelationReport:
    ok: bool
    kmax: int
    p: int
    n: int
    index: int
    first_violation: tuple | None  # (k, nielsen, expected)


def check_sign_relations(candidate: MapCandidate, kmax: int = 40) -> SignRelationReport:
    """Verify, for k = 1..kmax, the parity relations

        index 1:  N(f^k) = eps sigma^k L(f^k)
        index 2:  N(f^k) = eps sigma^k (L(f_+^k) - L(f^k))

    with (sigma, eps) = `series.parity_signs(p, n)`, on the
    `_candidate_sequences` to kmax; `compute_zeta` runs the same
    check on its own.  Raises ConstraintError for kmax < 1."""
    ext, part, seqs = _candidate_sequences(candidate, kmax, kmax)
    return _sign_relations(seqs, kmax, ext.spectrum, part.index)


def _candidate_sequences(candidate: MapCandidate, kmax: int, nterms: int):
    """(ext, part, seqs) of a candidate: its `exterior_data`, its
    `positive_part` and the `_number_sequences` for k = 1..nterms, the
    determinant table and the positive part reading one set of
    `exterior_traces`.  Raises ConstraintError for kmax < 1 first."""
    check_kmax(kmax)
    ext = exterior_data(candidate.dstar)
    group = candidate.entry.holonomy_group
    traces = exterior_traces(ext, group, nterms)
    part = positive_part(ext, group, traces)
    return ext, part, _number_sequences(det_table(ext, group, nterms, traces), part)


def check_kmax(kmax: int):
    """Every number sequence runs over k = 1..kmax, so kmax must be >= 1."""
    if kmax < 1:
        raise ConstraintError(f"kmax must be >= 1, got {kmax}")


def _number_sequences(table, part: PositivePart):
    """(L, N, L_+) for k = 1..len(table): the tuples L(f^k), N(f^k) and, for
    index 2, L(f_+^k) (None for index 1), each row averaged by one
    `_average` per number."""
    lef = tuple([_average(sum(nums), den * len(nums), "averaged Lefschetz number")
                 for den, nums in table])
    nie = tuple([_average(sum(map(abs, nums)), den * len(nums), "averaged Nielsen number")
                 for den, nums in table])
    plus = None
    if part.index == 2:
        indices = part.plus_indices
        plus = tuple([_average(sum([nums[i] for i in indices]), den * len(indices),
                               "averaged Lefschetz number") for den, nums in table])
    return lef, nie, plus


def _sign_relations(seqs, kmax: int, ec: EigenClass, index: int) -> SignRelationReport:
    """The parity relations of `check_sign_relations` for k = 1..kmax, on
    the `_number_sequences` seqs."""
    lef, nie, plus = seqs
    p, n = ec.p, ec.n
    sigma, eps = parity_signs(p, n)
    for k in range(1, kmax + 1):
        lef_k, nielsen = lef[k - 1], nie[k - 1]
        expected = eps * sigma ** k * (lef_k if index == 1 else plus[k - 1] - lef_k)
        if nielsen != expected:
            return SignRelationReport(False, kmax, p, n, index, (k, nielsen, expected))
    return SignRelationReport(True, kmax, p, n, index, None)
