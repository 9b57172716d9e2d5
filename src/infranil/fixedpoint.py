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
of order C(n, j).  So the first C(n, j) powers of E_j are formed once per
candidate and shared by every holonomy element, every later term costs
C(n, j) multiplications per element, and Lambda^j A is formed once per
holonomy group.  The traces run in integers (Lambda^j A and E_j scaled by
their common denominators) and each table entry becomes one exact Fraction.
`lefschetz_number` and `nielsen_number` take the direct route instead (D^k
by binary powering, one determinant per element).

The spectrum of D* is classified exactly (counts p of real eigenvalues > 1
and n of real eigenvalues < -1, and the modulus split against the unit
circle), the index-two "positive part" subgroup is computed from
determinants of the holonomy action on the modulus > 1 block, and the parity
relations tying N(f^k) to L(f^k) and L(f_+^k) are checked for a range of
iterates.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from operator import mul

from .catalog import HolonomyGroup, holonomy
from .errors import InfranilError, InvalidCandidateError
from .matrices import QMatrix, charpoly, exterior_power
from .numberfield import NumberField, field_det, field_kernel, field_solve_columns
from .polynomials import (
    IntPoly,
    QPoly,
    factor_over_q,
    isolate_real_roots,
    sturm_count,
)
from .selfmaps import MapCandidate

# Exercised only if a mixed-modulus irreducible cubic ever shows up for a
# candidate with nontrivial holonomy; none of the catalog families produce
# one, so a nonzero count is worth investigating.
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


def _classify_real_root(q: QPoly, lo: Fraction, hi: Fraction):
    """Sign class of the single root of q inside the isolating interval,
    refining until the interval clears the points -1 and 1."""
    if lo == hi:
        v = lo
        if v == 1:
            return ONE, (lo, hi)
        if v == -1:
            return MINUS_ONE, (lo, hi)
        if v > 1:
            return GT1, (lo, hi)
        if v < -1:
            return LTM1, (lo, hi)
        return INSIDE, (lo, hi)
    while True:
        if hi <= -1:
            return LTM1, (lo, hi)
        if lo >= 1:
            return GT1, (lo, hi)
        if lo >= -1 and hi <= 1:
            return INSIDE, (lo, hi)
        mid = (lo + hi) / 2
        if q(mid) == 0:
            # rational root: only possible for linear factors, handled upstream
            return _classify_real_root(q, mid, mid)
        if q(lo) * q(mid) < 0:
            hi = mid
        else:
            lo = mid


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
    qq = q.to_qpoly()
    deg = q.degree
    if deg == 1:
        root = -Fraction(q.coeffs[0], q.coeffs[1])
        cls, ival = _classify_real_root(qq, root, root)
        return FactorRoots(q, mult, (((root, root), cls),), None)
    if deg == 2:
        c0, c1, c2 = q.coeffs
        disc = c1 * c1 - 4 * c0 * c2
        if disc < 0:
            mod2 = Fraction(c0, c2)  # |lambda|^2 for the conjugate pair
            pair = "eq" if mod2 == 1 else ("gt" if mod2 > 1 else "lt")
            return FactorRoots(q, mult, (), pair)
        real = tuple(
            (iv, _classify_real_root(qq, *iv)[0]) for iv in isolate_real_roots(qq)
        )
        return FactorRoots(q, mult, real, None)
    if deg == 3:
        intervals = isolate_real_roots(qq)
        real = tuple((iv, _classify_real_root(qq, *iv)[0]) for iv in intervals)
        pair = None
        if len(intervals) == 1:
            # theta * |lambda|^2 = -c0/c3, so |lambda| > 1 iff |theta| < |c0/c3|
            bound = abs(Fraction(q.coeffs[0], q.coeffs[3]))
            inside = sturm_count(qq, -bound, bound)
            pair = "gt" if inside == 1 else "lt"
        return FactorRoots(q, mult, real, pair)
    raise InfranilError(f"unexpected factor degree {deg} in spectrum analysis")


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


def _trace_sequences(blocks, e: QMatrix, kmax: int):
    """(r, q, seqs) with seqs[i][k] = r q^k tr(B_i . e^k), an integer, for
    k = 0..kmax, where blocks = (r, flats) is the integer form of the B_i and
    q clears the denominators of e.  The first m = dim(e) terms come from
    explicit powers of e, the rest from the recurrence of charpoly(q e)
    (Cayley-Hamilton: (qe)^k charpoly(qe) = 0 for every k >= 0)."""
    r, flats = blocks
    m = e.nrows
    q = lcm(*(v.denominator for row in e.rows for v in row))
    # powers of q e, transposed and flattened, so each trace is a dot product
    powers_t = []
    power = QMatrix.identity(m)
    for p in range(min(m, kmax + 1)):
        powers_t.append([int(v * q ** p) for col in zip(*power.rows) for v in col])
        power = power * e
    cp = charpoly(e).coeffs
    rec = [-int(cp[i] * q ** (m - i)) for i in range(m)]
    seqs = []
    for flat in flats:
        s = [sum(map(mul, flat, pt)) for pt in powers_t]
        for k in range(m, kmax + 1):
            s.append(sum(map(mul, rec, s[k - m:])))
        seqs.append(s)
    return r, q, seqs


def det_table(candidate: MapCandidate, group: HolonomyGroup, kmax: int):
    """table[k-1][i] = det(I - A_i D^k) for k = 1..kmax, by the exterior-power
    trace recurrences of the module docstring, in integers over one common
    denominator per row."""
    terms = [
        _trace_sequences(group.exterior_powers[j], exterior_power(candidate.dstar, j), kmax)
        for j in range(1, candidate.entry.dim + 1)
    ]
    out = []
    for k in range(1, kmax + 1):
        scales = [r * q ** k for r, q, _ in terms]
        den = lcm(*scales)
        weights = [(-1) ** j * (den // scale) for j, scale in enumerate(scales, start=1)]
        out.append(tuple(
            Fraction(den + sum(w * seqs[i][k] for w, (_, _, seqs) in zip(weights, terms)), den)
            for i in range(group.order)
        ))
    return out


def _direct_row(candidate: MapCandidate, group: HolonomyGroup, k: int):
    """det(I - A_i D^k) for one k, from D^k by binary powering and direct
    determinants."""
    ident = QMatrix.identity(candidate.entry.dim)
    power = candidate.dstar.power(k)
    return tuple((ident - a * power).det() for a in group.elements)


def _exact_int(value: Fraction, what: str) -> int:
    if value.denominator != 1:
        raise InvalidCandidateError(f"{what} is not an integer: {value}")
    return int(value)


def lefschetz_from_row(row, indices=None) -> int:
    vals = row if indices is None else [row[i] for i in indices]
    return _exact_int(Fraction(sum(vals), len(vals)), "averaged Lefschetz number")


def nielsen_from_row(row, indices=None) -> int:
    vals = row if indices is None else [row[i] for i in indices]
    total = Fraction(sum(abs(v) for v in vals), len(vals))
    return _exact_int(total, "averaged Nielsen number")


def lefschetz_number(candidate: MapCandidate, k: int, group: HolonomyGroup | None = None) -> int:
    row = _direct_row(candidate, group or holonomy(candidate.entry), k)
    return lefschetz_from_row(row)


def nielsen_number(candidate: MapCandidate, k: int, group: HolonomyGroup | None = None) -> int:
    row = _direct_row(candidate, group or holonomy(candidate.entry), k)
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


def positive_part(
    candidate: MapCandidate,
    group: HolonomyGroup | None = None,
    ec: EigenClass | None = None,
) -> PositivePart:
    """Split the holonomy by the sign of det on the modulus > 1 block.

    The invariant subspace with modulus <= 1 is preserved by every holonomy
    element, so det on the quotient equals det(A) / det(A restricted).  When
    an irreducible factor straddles the unit circle the restriction involves
    a designated real algebraic number theta; the arithmetic then runs over
    Q(theta) and the resulting determinants still reduce to rational +-1.
    """
    global MIXED_CUBIC_COUNTER
    group = group or holonomy(candidate.entry)
    ec = ec or eigen_classify(candidate.dstar)
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


def anosov_fastpath(candidate: MapCandidate, group: HolonomyGroup | None = None) -> str:
    """Return "holds" when one of the sufficient criteria guarantees
    N(f) = |L(f)| for this candidate (and all its iterates); otherwise
    "unknown" (never "fails")."""
    group = group or holonomy(candidate.entry)
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


def check_sign_relations(
    candidate: MapCandidate,
    kmax: int = 40,
    group: HolonomyGroup | None = None,
    table=None,
    ec: EigenClass | None = None,
    part: PositivePart | None = None,
) -> SignRelationReport:
    """Verify, for k = 1..kmax, the parity relations

        index 1:  N(f^k) = (-1)^p L(f^k)            (k odd)
                  N(f^k) = (-1)^(p+n) L(f^k)        (k even)
        index 2:  same signs applied to L(f_+^k) - L(f^k)

    The group, determinant table (at least kmax rows), spectrum and positive
    part may be passed in, as `compute_zeta` does with its own; whatever is
    missing is computed here."""
    group = group or holonomy(candidate.entry)
    ec = ec or eigen_classify(candidate.dstar)
    part = part or positive_part(candidate, group, ec)
    table = table or det_table(candidate, group, kmax)
    p, n = ec.p, ec.n
    for k in range(1, kmax + 1):
        row = table[k - 1]
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
