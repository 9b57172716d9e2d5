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
index-two "positive part" subgroup is computed from determinants of the
holonomy action on the modulus > 1 block, and the parity relations tying
N(f^k) to L(f^k) and L(f_+^k) are checked for a range of iterates.
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
    charpoly,
    exterior_integer_form,
    flat_det,
    flat_product,
    integer_form,
    scaled_det_one_minus_z,
)
from .numberfield import NumberField, field_det, field_kernel, field_solve_columns
from .polynomials import (
    IntPoly,
    QPoly,
    factor_over_q,
    isolate_real_roots,
    sign_at,
    sturm_count,
)
from .selfmaps import MapCandidate

# Counts the `positive_part` calls that run over Q(theta) because an
# irreducible cubic factor of the spectrum has roots on both sides of the
# unit circle.  Trivial holonomy counts too (random torus-3 maps hit it);
# no catalog family with nontrivial holonomy produces one, so a count from
# such a family is worth investigating.
MIXED_CUBIC_COUNTER = 0

INSIDE = "(-1,1)"
GT1 = ">1"
LTM1 = "<-1"
ONE = "1"
MINUS_ONE = "-1"


def _poly_at_matrix(p: QPoly, m: QMatrix) -> QMatrix:
    n = m.nrows
    acc = QMatrix.zero(n)
    for c in reversed(p.coeffs):
        acc = acc * m + QMatrix.identity(n) * c
    return acc


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

    charpoly: QPoly
    factors: tuple        # (IntPoly, multiplicity) of the nonconstant part
    root_data: tuple      # FactorRoots per factor
    classes: tuple        # per factor: (lt, eq, gt) counts including multiplicity
    p: int                # real eigenvalues > 1, with multiplicity
    n: int                # real eigenvalues < -1, with multiplicity
    dim_gt1: int          # total modulus > 1 count, with multiplicity


def eigen_classify(dstar: QMatrix) -> EigenClass:
    cp = charpoly(dstar)
    factors = factor_over_q(cp.to_int()[0])
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
    n, cp = dstar.nrows, spectrum.charpoly
    form = integer_form([dstar])
    forms, det_polys = [], []
    for j in range(n + 1):
        q, (flat,) = exterior_integer_form(form, j)
        forms.append((q, flat))
        det_polys.append(
            IntPoly([cp[n - t] * q ** t for t in range(n + 1)]) if j == 1
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
    """The subgroup of holonomy elements acting with determinant +1 on the
    modulus > 1 block, together with all the determinant signs."""

    index: int
    det_signs: tuple      # +1/-1 per holonomy element
    plus_indices: tuple   # indices of the kernel F_+
    group: HolonomyGroup

    def plus_subgroup_closed(self) -> bool:
        idx = set(self.plus_indices)
        return all(self.group.table[i][j] in idx for i in idx for j in idx)


def _rational_le_block(ec: EigenClass):
    """Product of the pure modulus <= 1 factors with multiplicity (the
    rational part of the <= 1 invariant subspace)."""
    g = QPoly([1])
    for fr in ec.root_data:
        if fr.side() == "le":
            for _ in range(fr.multiplicity):
                g = g * fr.factor.to_qpoly()
    return g


def _mixed_factor(ec: EigenClass):
    mixed = [fr for fr in ec.root_data if fr.side() == "mixed"]
    if not mixed:
        return None
    if len(mixed) > 1 or mixed[0].multiplicity != 1:
        raise InfranilError("unexpected repeated or multiple mixed-modulus factors")
    return mixed[0]


def _nf_column(field: NumberField, dstar: QMatrix):
    """A nonzero column of adj(D - theta I): an eigenvector for theta."""
    n = dstar.nrows
    theta = field.theta
    m = [[field.elem(dstar[i, j]) - (theta if i == j else field.zero) for j in range(n)]
         for i in range(n)]

    def minor_det(rows, cols):
        sub = [[m[i][j] for j in cols] for i in rows]
        return field_det(sub, field.zero)

    for col in range(n):
        vec = []
        nonzero = False
        for row in range(n):
            rows = [i for i in range(n) if i != col]
            cols = [j for j in range(n) if j != row]
            cof = minor_det(rows, cols)
            if (row + col) % 2 == 1:
                cof = -cof
            vec.append(cof)
            if cof != field.zero:
                nonzero = True
        if nonzero:
            return vec
    raise InfranilError("zero adjugate: defective eigenvalue in mixed factor")


def positive_part(candidate: MapCandidate, ec: EigenClass) -> PositivePart:
    """Split the holonomy by the sign of det on the modulus > 1 block, where
    ec is `eigen_classify(candidate.dstar)`.

    The invariant subspace with modulus <= 1 is preserved by every holonomy
    element, so det on the quotient equals det(A) / det(A restricted).  When
    an irreducible factor straddles the unit circle the restriction involves
    a designated real algebraic number theta; the arithmetic then runs over
    Q(theta) and the resulting determinants still reduce to rational +-1.
    """
    global MIXED_CUBIC_COUNTER
    group = holonomy(candidate.entry)
    n = candidate.entry.dim

    if ec.dim_gt1 == 0:
        signs = tuple(1 for _ in group.elements)
        return PositivePart(1, signs, tuple(range(group.order)), group)

    mixed = _mixed_factor(ec)
    dets = group.dets()

    if mixed is None:
        g = _rational_le_block(ec)
        if g.degree == 0:
            signs_raw = dets
        else:
            basis = _poly_at_matrix(g, candidate.dstar).kernel()
            if len(basis) != n - ec.dim_gt1:
                raise InfranilError("kernel dimension mismatch in modulus split")
            vmat = QMatrix(list(zip(*basis)))
            signs_raw = []
            for a, da in zip(group.elements, dets):
                m = vmat.solve_columns(a * vmat)
                if m is None:
                    raise InfranilError("holonomy does not preserve the <= 1 block")
                signs_raw.append(da / m.det())
    else:
        if mixed.degree == 3:
            MIXED_CUBIC_COUNTER += 1
        signs_raw = _mixed_signs(candidate, group, ec, mixed, dets)

    signs = []
    for s in signs_raw:
        if s == 1:
            signs.append(1)
        elif s == -1:
            signs.append(-1)
        else:
            raise InfranilError(f"determinant sign {s} is not +-1")
    plus = tuple(i for i, s in enumerate(signs) if s == 1)
    index = group.order // len(plus)
    if index not in (1, 2) or group.order % len(plus):
        raise InfranilError(f"positive part has index {group.order / len(plus)}")
    part = PositivePart(index, tuple(signs), plus, group)
    if not part.plus_subgroup_closed():
        raise InfranilError("positive part is not closed under multiplication")
    return part


def _mixed_signs(candidate, group, ec, mixed, dets):
    """Determinant signs when one irreducible factor straddles the circle."""
    dstar = candidate.dstar
    n = candidate.entry.dim
    le_reals = [(iv, c) for iv, c in mixed.real if c in (INSIDE, ONE, MINUS_ONE)]
    gt_reals = [(iv, c) for iv, c in mixed.real if c in (GT1, LTM1)]
    lt, eq, gt = mixed.modulus_counts()
    le_side, gt_side = lt + eq, gt

    field = None
    mixed_basis = []  # columns over Q(theta) spanning the <= 1 part of the factor block
    if le_side == 1:
        (iv, _cls) = le_reals[0]
        field = NumberField(mixed.factor, iv)
        mixed_basis = [_nf_column(field, dstar)]
    elif gt_side == 1:
        (iv, _cls) = gt_reals[0]
        field = NumberField(mixed.factor, iv)
        # <= 1 part of the block: kernel of (D^2 - (e1 - theta) D + e3/theta)
        # where e1, e3 are the sum and product of the factor's roots
        cf = mixed.factor.to_qpoly().monic()
        e1 = -cf[2]
        e3 = -cf[0]
        theta = field.theta
        s23 = field.elem(e1) - theta
        p23 = field.elem(e3) / theta
        d2 = dstar * dstar
        mat = [
            [
                field.elem(d2[i, j]) - s23 * dstar[i, j] + (p23 if i == j else field.zero)
                for j in range(n)
            ]
            for i in range(n)
        ]
        mixed_basis = field_kernel(mat, field.zero, field.one)
        if len(mixed_basis) != 2:
            raise InfranilError("mixed cubic block kernel has wrong dimension")
    else:
        raise InfranilError("mixed factor without a one-dimensional side")

    g = _rational_le_block(ec)
    rational_basis = []
    if g.degree > 0:
        rational_basis = _poly_at_matrix(g, dstar).kernel()

    cols = [[field.elem(v) for v in vec] for vec in mixed_basis]
    cols += [[field.elem(v) for v in vec] for vec in rational_basis]
    d = len(cols)
    bmat = [[cols[j][i] for j in range(d)] for i in range(n)]

    signs = []
    for a, da in zip(group.elements, dets):
        image = [
            [sum(field.elem(a[i, t]) * bmat[t][j] for t in range(n)) for j in range(d)]
            for i in range(n)
        ]
        m = field_solve_columns(bmat, image, field.zero)
        if m is None:
            raise InfranilError("holonomy does not preserve the <= 1 subspace")
        det = field_det(m, field.zero)
        if not det.is_rational():
            raise InfranilError("restricted determinant fails to be rational")
        signs.append(da / det.as_fraction())
    return signs


# ---------------------------------------------------------------------------
# Anosov-relation fast paths and parity relations
# ---------------------------------------------------------------------------


def anosov_fastpath(candidate: MapCandidate) -> str:
    """Return "holds" when one of the sufficient criteria guarantees
    N(f) = |L(f)| for this candidate (and all its iterates); otherwise
    "unknown" (never "fails")."""
    group = holonomy(candidate.entry)
    if group.order == 1:
        return "holds"  # nilmanifold
    ec = eigen_classify(candidate.dstar)
    if ec.dim_gt1 == 0:
        return "holds"  # no expanding block at all
    # expanding block carries the identity representation: every holonomy
    # element moves vectors only inside the <= 1 block
    g = _rational_le_block(ec)
    gd = _poly_at_matrix(g, candidate.dstar)
    ident = QMatrix.identity(candidate.entry.dim)
    if all(gd * (a - ident) == QMatrix.zero(candidate.entry.dim) for a in group.elements):
        return "holds"
    if group.is_cyclic():
        for i in group.cyclic_generators():
            if charpoly(group.elements[i])(Fraction(-1)) != 0:
                return "holds"  # cyclic holonomy, generator without eigenvalue -1
    if not group.has_index_two_subgroup():
        return "holds"
    return "unknown"


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
    part = positive_part(candidate, ext.spectrum)
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
