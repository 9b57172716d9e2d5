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
form), det(I - z q_j E_j) with q_j its common denominator, and on first
read the factors of det(I - z E_j), factoring charpoly(D) only once; the
first C(n, j) powers of E_j are shared by every holonomy element, every
later term costs C(n, j) multiplications per element, and Lambda^j A is
formed once per holonomy group.  The traces run in integers, and a table
row is (den, nums): the entries' integer numerators over one positive
denominator, so L and N are integer sums.
`lefschetz_number` and `nielsen_number` take the direct route instead (D^k
by binary powering, one determinant per element).

The spectrum of D* is classified exactly, in integers: the counts p of real
eigenvalues > 1 and n < -1 and the modulus split against the unit circle
come from integer Sturm chains and each factor's signs at -1 and 1.  The
positive part F_+, of index 1 or 2, holds the holonomy elements A with
eps_A = det(A on V/W) = +1, W the modulus <= 1 subspace.  With m = dim V/W,

    eps_A = tr(Lambda^m A . p(Lambda^m D)) / tr(p(Lambda^m D)),
    p = x^j charpoly(Lambda^m D) / h,

where h is the minimal polynomial of mu, the product of the expanding
eigenvalues, read off the spectrum's factors, and j < deg h the least that
makes the denominator nonzero (`positive_part`): two integer dot products
with the first C(n, m) terms of the j = m trace sequences.
The parity relations tying N(f^k) to L(f^k) and L(f_+^k) are checked for a
range of iterates.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import comb, isqrt, lcm
from operator import mul

from .catalog import HolonomyGroup, holonomy
from .errors import InfranilError, InvalidCandidateError
from .matrices import (
    QMatrix,
    exterior_integer_form,
    flat_det,
    flat_product,
    integer_form,
    scaled_det_one_minus_z,
)
from .polynomials import (
    IntPoly,
    exact_quotient,
    factor_over_q,
    isolate_real_roots,
    sign_at,
    sturm_count,
)
from .selfmaps import MapCandidate

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


def _classify_real_root(q: IntPoly, lo: Fraction, hi: Fraction) -> str:
    """Sign class of the single root r of q in [lo, hi]: lo == hi == r, or
    q changes sign once, at r, inside the open interval.  r is placed
    against -1 and 1 by the integer signs of q there."""

    def side(t: int) -> int:  # the sign of r - t
        if t < lo or t > hi:
            return 1 if t < lo else -1
        s = q(t)
        return 0 if s == 0 else (-1 if (s > 0) == (sign_at(q, hi) > 0) else 1)

    sides = {(-1, -1): LTM1, (0, -1): MINUS_ONE, (1, -1): INSIDE, (1, 0): ONE, (1, 1): GT1}
    return sides[side(-1), side(1)]


@dataclass(frozen=True)
class FactorRoots:
    """Exact root layout of one irreducible factor of the characteristic
    polynomial: real roots with isolating intervals and sign classes, plus
    the modulus class ('lt', 'eq', 'gt') of the complex pair if present."""

    factor: IntPoly
    multiplicity: int
    real: tuple          # ((lo, hi), sign_class) pairs
    pair_class: str | None

    @property
    def degree(self) -> int:
        return self.factor.degree

    def modulus_counts(self):
        """(lt, eq, gt) root counts of one copy of the factor."""
        lt = sum(1 for _, c in self.real if c == INSIDE)
        eq = sum(1 for _, c in self.real if c in (ONE, MINUS_ONE))
        gt = sum(1 for _, c in self.real if c in (GT1, LTM1))
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


def _analyze_factor(q: IntPoly, mult: int) -> FactorRoots:
    """Root layout of an irreducible factor with positive leading
    coefficient, in integers."""
    c, deg = q.coeffs, q.degree
    if deg == 1:
        root = Fraction(-c[0], c[1])
        return FactorRoots(q, mult, (((root, root), _classify_real_root(q, root, root)),), None)
    if deg not in (2, 3):
        raise InfranilError(f"unexpected factor degree {deg} in spectrum analysis")
    if deg == 2 and c[1] * c[1] < 4 * c[0] * c[2]:
        # |lambda|^2 = c0/c2 for the conjugate pair
        return FactorRoots(q, mult, (), "eq" if c[0] == c[2] else ("gt" if c[0] > c[2] else "lt"))
    intervals = isolate_real_roots(q)
    real = tuple((iv, _classify_real_root(q, *iv)) for iv in intervals)
    pair = None
    if deg == 3 and len(intervals) == 1:
        # theta * |lambda|^2 = -c0/c3, so |lambda| > 1 iff |theta| < |c0/c3|
        bound = abs(Fraction(c[0], c[3]))
        pair = "gt" if sturm_count(q, -bound, bound) == 1 else "lt"
    return FactorRoots(q, mult, real, pair)


@dataclass(frozen=True)
class EigenClass:
    """Exact spectrum classification of a linear part."""

    charpoly: IntPoly    # primitive, positive leading coefficient
    factors: tuple        # (IntPoly, multiplicity) of the nonconstant part
    root_data: tuple      # FactorRoots per factor
    classes: tuple        # per factor: (lt, eq, gt) counts including multiplicity
    p: int                # real eigenvalues > 1, with multiplicity
    n: int                # real eigenvalues < -1, with multiplicity
    dim_gt1: int          # total modulus > 1 count, with multiplicity


def eigen_classify(dstar: QMatrix) -> EigenClass:
    dim = dstar.nrows
    q, (flat,) = integer_form([dstar])
    rev = scaled_det_one_minus_z(flat, dim, q).coeffs  # q^dim det(I - z D)
    cp = IntPoly(reversed(rev + (0,) * (dim + 1 - len(rev)))).primitive()
    factors = factor_over_q(cp)
    data = []
    classes = []
    p = n = gt_total = 0
    for q, mult in factors:
        fr = _analyze_factor(q, mult)
        data.append(fr)
        lt, eq, gt = fr.modulus_counts()
        classes.append((lt * mult, eq * mult, gt * mult))
        gt_total += gt * mult
        p += mult * sum(1 for _, c in fr.real if c == GT1)
        n += mult * sum(1 for _, c in fr.real if c == LTM1)
    ec = EigenClass(cp, tuple(factors), tuple(data), tuple(classes), p, n, gt_total)
    total = sum(lt + eq + gt for lt, eq, gt in classes)
    assert total == cp.degree, "modulus classes must partition the spectrum"
    return ec


# ---------------------------------------------------------------------------
# Averaging
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExteriorData:
    """Lambda^j D for j = 0..n in integer form, with det(I - z q_j Lambda^j D)
    and the exact spectrum of D, formed once per candidate by
    `exterior_data`.  forms[j] = (q_j, flat_j): Lambda^j D = flat_j / q_j,
    flat_j row-major ints; det_polys[j] = det(I - z flat_j), an IntPoly."""

    forms: tuple
    det_polys: tuple
    spectrum: EigenClass

    @cached_property
    def factors(self) -> tuple:
        """factors[j]: the factors, as `factor_over_q` gives them, of
        det(I - z Lambda^j D) = det_polys[j](z / q_j).  Formed on first read,
        so a caller that needs only the determinant table factors nothing.
        For j = 1 they are the spectrum's factors of charpoly(D) reversed,
        less the factors x of its zero eigenvalues, so charpoly(D) is
        factored once."""
        out = [((IntPoly([-1, 1]), 1),)]  # det(I - z Lambda^0 D) = 1 - z
        reversed_d = []
        for q, mult in self.spectrum.factors:
            if q.constant():  # x, a zero eigenvalue, reverses to 1
                sign = 1 if q.constant() > 0 else -1
                reversed_d.append((IntPoly([sign * c for c in reversed(q.coeffs)]), mult))
        out.append(tuple(sorted(reversed_d, key=lambda fm: fm[0].sort_key())))
        for (den, _), poly in zip(self.forms[2:], self.det_polys[2:]):
            d = poly.degree  # den^d poly(z / den) is det(I - z Lambda^j D) up to a constant
            scaled = IntPoly([c * den ** (d - t) for t, c in enumerate(poly.coeffs)])
            out.append(tuple(factor_over_q(scaled)) if d > 0 else ())
        return tuple(out)


def exterior_data(dstar: QMatrix) -> ExteriorData:
    """The exterior data of a candidate's linear part: the spectrum,
    `det_table`, the factor hints and the closed form all read it.  Each
    Lambda^j D is the integer minors of D's integer form; det_polys[1] is
    read off the spectrum's charpoly(D), the others come from
    Faddeev-LeVerrier."""
    spectrum = eigen_classify(dstar)
    n, cp = dstar.nrows, spectrum.charpoly.coeffs
    form = integer_form([dstar])
    forms, det_polys = [], []
    for j in range(n + 1):
        q, (flat,) = exterior_integer_form(form, j)
        forms.append((q, flat))
        det_polys.append(
            IntPoly([cp[n - t] * q ** t // cp[n] for t in range(n + 1)]) if j == 1
            else scaled_det_one_minus_z(flat, comb(n, j), 1)
        )
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
    seqs = []
    for flat in flats:
        s = [sum(map(mul, flat, pt)) for pt in powers_t]
        for k in range(m, kmax + 1):
            s.append(sum(map(mul, rec, s[k - m:])))
        seqs.append(s)
    return r, q, seqs


def det_table(ext: ExteriorData, group: HolonomyGroup, kmax: int):
    """table[k-1] = (den, nums) with det(I - A_i D^k) = nums[i] / den for
    k = 1..kmax, den > 0 and nums ints, where ext is `exterior_data(D)`, by
    the exterior-power trace recurrences of the module docstring."""
    terms = [
        _trace_sequences(group.exterior_powers[j], ext.forms[j], ext.det_polys[j], kmax)
        for j in range(1, len(ext.forms))
    ]
    out = []
    for k in range(1, kmax + 1):
        scales = [r * q ** k for r, q, _ in terms]
        den = lcm(*scales)
        weights = [(-1) ** j * (den // scale) for j, scale in enumerate(scales, start=1)]
        out.append((den, tuple(
            den + sum(w * seqs[i][k] for w, (_, _, seqs) in zip(weights, terms))
            for i in range(group.order)
        )))
    return out


def _direct_row(candidate: MapCandidate, k: int):
    """The `det_table` row for one k, from D^k by binary powering and direct
    integer determinants."""
    n = candidate.entry.dim
    ident, power = QMatrix.identity(n), candidate.dstar.power(k)
    q, flats = integer_form([ident - a * power for a in holonomy(candidate.entry).elements])
    return q ** n, tuple(flat_det(flat, n) for flat in flats)


def _average(total: int, count: int, what: str) -> int:
    value, rem = divmod(total, count)
    if rem:
        raise InvalidCandidateError(f"{what} is not an integer: {Fraction(total, count)}")
    return value


def lefschetz_from_row(row, indices=None) -> int:
    den, nums = row
    vals = nums if indices is None else [nums[i] for i in indices]
    return _average(sum(vals), den * len(vals), "averaged Lefschetz number")


def nielsen_from_row(row, indices=None) -> int:
    den, nums = row
    vals = nums if indices is None else [nums[i] for i in indices]
    return _average(sum(map(abs, vals)), den * len(vals), "averaged Nielsen number")


def lefschetz_number(candidate: MapCandidate, k: int) -> int:
    return lefschetz_from_row(_direct_row(candidate, k))


def nielsen_number(candidate: MapCandidate, k: int) -> int:
    row = _direct_row(candidate, k)
    value = nielsen_from_row(row)
    if value < abs(lefschetz_from_row(row)):
        raise InvalidCandidateError("Nielsen number below |Lefschetz number|")
    return value


# ---------------------------------------------------------------------------
# Positive part
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PositivePart:
    """The subgroup F_+ of holonomy elements A whose sign
    eps_A = det(A on V/W) is +1, W the modulus <= 1 subspace of D, together
    with every element's sign (`positive_part` computes them)."""

    index: int
    det_signs: tuple      # +1/-1 per holonomy element
    plus_indices: tuple   # indices of the kernel F_+
    group: HolonomyGroup

    def plus_subgroup_closed(self) -> bool:
        idx = set(self.plus_indices)
        return all(self.group.table[i][j] in idx for i in idx for j in idx)


def _root_product(f) -> tuple:
    """(num, den): num / den is the product of the roots of the polynomial
    with coefficients f."""
    return (-1) ** (len(f) - 1) * f[0], f[-1]


def positive_part(candidate: MapCandidate, ext: ExteriorData) -> PositivePart:
    """The sign eps_A = det(A on V/W) of every holonomy element, where ext is
    `exterior_data(candidate.dstar)`, and the subgroup F_+ where it is +1.

    Let m = dim V/W, mu the product of the expanding eigenvalues and h its
    minimal polynomial.  W is preserved by every holonomy element, and its
    annihilator's Pluecker line is the mu-eigenline of Lambda^m D^T, on which
    Lambda^m A^T acts by eps_A.  |mu| is strictly the largest modulus in the
    spectrum of Lambda^m D, so mu and its conjugates are simple eigenvalues
    there.  Hence, for p = x^j charpoly(Lambda^m D) / h,

        eps_A = tr(Lambda^m A . p(Lambda^m D)) / tr(p(Lambda^m D)),

    with the least j < deg h that makes the denominator nonzero (p(mu) != 0,
    and the trace form of Q(mu) is nondegenerate).  Both traces are dot
    products with the first C(n, m) terms of `det_table`'s integer trace
    sequences for j = m; the denominator is the identity's (element 0).

    h comes from the spectrum's factors with no comparison of roots, up to a
    constant factor.  With c the product of the roots of the purely
    expanding factors (with multiplicity), h = x - c when no factor
    straddles the unit circle.  A straddling factor f, of degree d, is
    unique and simple for n <= 3; with one expanding root h = c^d f(x / c),
    and with one non-expanding root h = x^d f(c P / x), P the product of
    f's roots.
    """
    global MIXED_CUBIC_COUNTER
    group = holonomy(candidate.entry)
    m = ext.spectrum.dim_gt1
    if m == 0:
        return PositivePart(1, (1,) * group.order, tuple(range(group.order)), group)

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
    g = exact_quotient(IntPoly(reversed(det_poly + (0,) * (size + 1 - len(det_poly)))), h).coeffs
    _, _, seqs = _trace_sequences(group.exterior_powers[m], ext.forms[m], ext.det_polys[m], size - 1)
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
    part = PositivePart(index, tuple(signs), plus, group)
    if not part.plus_subgroup_closed():
        raise InfranilError("positive part is not closed under multiplication")
    return part


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

        index 1:  N(f^k) = (-1)^p L(f^k)            (k odd)
                  N(f^k) = (-1)^(p+n) L(f^k)        (k even)
        index 2:  same signs applied to L(f_+^k) - L(f^k)

    on a table, spectrum and positive part built here; `compute_zeta` runs
    the same check on its own."""
    ext = exterior_data(candidate.dstar)
    part = positive_part(candidate, ext)
    return _sign_relations(det_table(ext, part.group, kmax), ext.spectrum, part)


def _sign_relations(table, ec: EigenClass, part: PositivePart) -> SignRelationReport:
    """The parity relations of `check_sign_relations` for k = 1..len(table)."""
    kmax = len(table)
    p, n = ec.p, ec.n
    for k, row in enumerate(table, start=1):
        nielsen = nielsen_from_row(row)
        lef = lefschetz_from_row(row)
        sign = (-1) ** p if k % 2 == 1 else (-1) ** (p + n)
        if part.index == 1:
            expected = sign * lef
        else:
            lef_plus = lefschetz_from_row(row, part.plus_indices)
            expected = sign * (lef_plus - lef)
        if nielsen != expected:
            return SignRelationReport(False, kmax, p, n, part.index, (k, nielsen, expected))
    return SignRelationReport(True, kmax, p, n, part.index, None)
