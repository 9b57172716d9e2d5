"""Exact rational matrices and the integer kernels the engine runs on them.

QMatrix is the immutable rational matrix that candidates and catalog
entries carry, its entries admitted by `exprs.exact_number`.  It offers
construction, indexing, the shape, the product of two matrices, powers and
the determinant; scalar products, sums and differences are the callers'.

Sizes stay tiny, so determinants, minors and characteristic polynomials
are formed in integers, on a matrix's integer form (its entries over their
least common denominator).  Every matrix the engine multiplies is at most
3 x 3 (D, the holonomy elements and their Lambda^j, of size C(3, j) <= 3),
so the four integer kernels are written out in closed form for n = 1, 2, 3
only: `flat_product` unrolled, `flat_det` expanded, `exterior_form` as
Lambda^0, Lambda^1, Lambda^n and the nine 2 x 2 minors of a 3 x 3, and
the characteristic polynomial `scaled_det_one_minus_z` from the trace, the
principal 2 x 2 minors and the determinant.  Any other n raises
InfranilError, and so do `charpoly`, `exterior_power` and `QMatrix.det`,
which run on them; the generic forms are the test oracles'.
`numberfield`'s kernels and solves (`kernel_rows`, `solve_rows`) share one
reduced row echelon routine, `rref`, which takes Fraction entries or any
other field's alike.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, gcd, isqrt, lcm

from .errors import InfranilError
from .exprs import exact_number
from .polynomials import IntPoly, QPoly
from .records import Record


# One shared Fraction per small integer: a matrix built from int entries (a
# candidate's linear part, catalog data, identities) holds no Fraction of its
# own, so a search that keeps thousands of candidates keeps less memory.
_SMALL_INTS = {v: Fraction(v) for v in range(-128, 129)}


class QMatrix(Record):
    """Immutable dense matrix of Fractions, row-major; a Fraction entry is
    kept as it is."""

    __slots__ = ("rows",)
    _fields = __slots__

    def __init__(self, rows):
        small = _SMALL_INTS
        data = tuple(
            tuple(v if type(v) is Fraction else small[v] if type(v) is int and v in small
                  else exact_number(v, "QMatrix entry") for v in row)
            for row in rows
        )
        if not data or not data[0]:
            raise InfranilError("matrices must have at least one row and column")
        width = len(data[0])
        if any(len(r) != width for r in data):
            raise InfranilError("ragged rows in matrix")
        object.__setattr__(self, "rows", data)

    @staticmethod
    def identity(n: int) -> "QMatrix":
        return QMatrix([[1 if i == j else 0 for j in range(n)] for i in range(n)])

    @property
    def nrows(self) -> int:
        return len(self.rows)

    @property
    def ncols(self) -> int:
        return len(self.rows[0])

    def is_square(self) -> bool:
        return self.nrows == self.ncols

    def __getitem__(self, ij):
        i, j = ij
        return self.rows[i][j]

    def __mul__(self, other):
        if other.__class__ is not QMatrix:
            return NotImplemented
        if self.ncols != other.nrows:
            raise InfranilError("shape mismatch in matrix product")
        cols = list(zip(*other.rows))
        return QMatrix(
            [[sum(a * b for a, b in zip(row, col)) for col in cols] for row in self.rows]
        )

    def power(self, k: int) -> "QMatrix":
        if not self.is_square() or k < 0:
            raise InfranilError("power requires a square matrix and k >= 0")
        out = QMatrix.identity(self.nrows)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def det(self) -> Fraction:
        if not self.is_square():
            raise InfranilError("determinant of a non-square matrix")
        q, (flat,) = integer_form([self])
        return Fraction(flat_det(flat, self.nrows), q ** self.nrows)

    def __str__(self):
        return "\n".join("[" + ", ".join(str(v) for v in row) + "]" for row in self.rows)

    __repr__ = __str__


def charpoly(M: QMatrix) -> QPoly:
    """det(xI - M), monic: `scaled_det_one_minus_z` of M's integer form, reversed."""
    if not M.is_square():
        raise InfranilError("charpoly of a non-square matrix")
    n = M.nrows
    if n > 3:
        raise InfranilError("charpoly supports n <= 3")
    q, (flat,) = integer_form([M])
    rev = scaled_det_one_minus_z(flat, n, q).coeffs
    rev += (0,) * (n + 1 - len(rev))  # a singular M strips trailing zeros
    return QPoly([Fraction(c, q ** n) for c in reversed(rev)])


def scaled_det_one_minus_z(flat, m: int, scale: int) -> IntPoly:
    """scale^m det(I - z B / scale) for the m x m integer matrix B, given
    row-major as `flat`, m = 1..3, in closed form: the coefficient of z^k
    is (-1)^k e_k scale^(m - k), e_1 the trace, e_2 the sum of the
    principal 2 x 2 minors and e_m the determinant."""
    if m == 3:
        a, b, c, d, e, f, g, h, i = flat
        m01, m02, m12 = a * e - b * d, a * i - c * g, e * i - f * h
        det = a * m12 - b * (d * i - f * g) + c * (d * h - e * g)
        return IntPoly([scale ** 3, -(a + e + i) * scale * scale, (m01 + m02 + m12) * scale, -det])
    if m == 2:
        return IntPoly([scale * scale, -(flat[0] + flat[3]) * scale, flat_det(flat, 2)])
    if m == 1:
        return IntPoly([scale, -flat[0]])
    raise InfranilError(f"scaled_det_one_minus_z supports m = 1..3, not {m}")


def exterior_power(M: QMatrix, j: int) -> QMatrix:
    """j-th exterior (compound) power: entries are j x j minors indexed by
    lexicographic j-subsets of rows/columns.  Lambda^0 = [1], Lambda^n = [det]."""
    if not M.is_square():
        raise InfranilError("exterior_power of a non-square matrix")
    n = M.nrows
    q, (flat,) = integer_form([M])
    minors, m = exterior_form(flat, n, j), comb(n, j)
    return QMatrix([[Fraction(v, q ** j) for v in minors[i * m:(i + 1) * m]] for i in range(m)])


def flat_det(flat, n: int) -> int:
    """Determinant of the n x n integer matrix given row-major as `flat`,
    written out for n = 1, 2, 3."""
    if n == 3:
        a, b, c, d, e, f, g, h, i = flat
        return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)
    if n == 2:
        return flat[0] * flat[3] - flat[1] * flat[2]
    if n == 1:
        return flat[0]
    raise InfranilError(f"flat_det supports n = 1..3, not {n}")


def exterior_form(flat, n: int, j: int) -> tuple:
    """Lambda^j of the n x n integer matrix given row-major as `flat`: its
    j x j minors, row-major, rows and columns indexed by lexicographic
    j-subsets, 0 <= j <= n <= 3.  Lambda^0, Lambda^1, Lambda^n and the nine
    2 x 2 minors of a 3 x 3 are written out."""
    if not 1 <= n <= 3:
        raise InfranilError(f"exterior_form supports n = 1..3, not {n}")
    if j == 0:
        return (1,)
    if j == 1:
        return tuple(flat)
    if j == n:
        return (flat_det(flat, n),)
    if n == 3 and j == 2:  # rows and columns {0, 1}, {0, 2}, {1, 2}
        a, b, c, d, e, f, g, h, i = flat
        return (a * e - b * d, a * f - c * d, b * f - c * e,
                a * h - b * g, a * i - c * g, b * i - c * h,
                d * h - e * g, d * i - f * g, e * i - f * h)
    raise InfranilError(f"exterior power index {j} out of range 0..{n}")


def exterior_integer_form(form, j: int) -> tuple:
    """integer_form of Lambda^j of the matrices whose integer form is
    form = (r, flats): Lambda^j (flat / r) = exterior_form(flat) / r^j,
    reduced to the least common denominator."""
    r, flats = form
    n = isqrt(len(flats[0]))
    minors = [exterior_form(flat, n, j) for flat in flats]
    g = gcd(r ** j, *(v for m in minors for v in m))
    return r ** j // g, tuple(tuple(v // g for v in m) for m in minors)


def integer_form(mats) -> tuple:
    """(r, flats): r is the least common denominator of every entry of the
    matrices, and flats[i] holds the entries of r * mats[i], row-major, as
    ints.  r starts at 1 and takes an lcm only with a denominator other
    than 1; when r stays 1, the flats are the numerators as they are."""
    r = 1
    for m in mats:
        for row in m.rows:
            for v in row:
                d = v.denominator
                if d != 1:
                    r = lcm(r, d)
    if r == 1:
        return 1, tuple(tuple(v.numerator for row in m.rows for v in row) for m in mats)
    return r, tuple(
        tuple(v.numerator * (r // v.denominator) for row in m.rows for v in row) for m in mats
    )


def flat_product(a, b, n: int) -> tuple:
    """Row-major product of two n x n matrices given as flat int sequences,
    written out for n = 1, 2, 3."""
    if n == 3:
        a0, a1, a2, a3, a4, a5, a6, a7, a8 = a
        b0, b1, b2, b3, b4, b5, b6, b7, b8 = b
        return (
            a0 * b0 + a1 * b3 + a2 * b6, a0 * b1 + a1 * b4 + a2 * b7, a0 * b2 + a1 * b5 + a2 * b8,
            a3 * b0 + a4 * b3 + a5 * b6, a3 * b1 + a4 * b4 + a5 * b7, a3 * b2 + a4 * b5 + a5 * b8,
            a6 * b0 + a7 * b3 + a8 * b6, a6 * b1 + a7 * b4 + a8 * b7, a6 * b2 + a7 * b5 + a8 * b8,
        )
    if n == 2:
        a0, a1, a2, a3 = a
        b0, b1, b2, b3 = b
        return (a0 * b0 + a1 * b2, a0 * b1 + a1 * b3, a2 * b0 + a3 * b2, a2 * b1 + a3 * b3)
    if n == 1:
        return (a[0] * b[0],)
    raise InfranilError(f"flat_product supports n = 1..3, not {n}")


def rref(rows):
    """Reduced row echelon form over a field: rows is a list of lists of
    field elements (Fractions, or the tests' Q(theta) elements).  Returns
    (reduced rows, pivot columns)."""
    m = [list(r) for r in rows]
    pivots = []
    for col in range(len(m[0])):
        row = len(pivots)
        if row == len(m):
            break
        pivot = next((r for r in range(row, len(m)) if m[r][col]), None)
        if pivot is None:
            continue
        m[row], m[pivot] = m[pivot], m[row]
        inv = 1 / m[row][col]
        m[row] = [v * inv for v in m[row]]
        for r in range(len(m)):
            if r != row and m[r][col]:
                f = m[r][col]
                m[r] = [a - f * b for a, b in zip(m[r], m[row])]
        pivots.append(col)
    return m, pivots


def kernel_rows(a, zero, one) -> list:
    """Right null space basis of a (lists of lists over a field), as a list
    of coordinate lists."""
    m, pivots = rref(a)
    basis = []
    for f in range(len(a[0])):
        if f in pivots:
            continue
        vec = [zero] * len(a[0])
        vec[f] = one
        for r, p in enumerate(pivots):
            vec[p] = -m[r][f]
        basis.append(vec)
    return basis


def solve_rows(a, rhs, zero):
    """Solve A @ X = RHS over a field, lists of lists; None if inconsistent."""
    c, w = len(a[0]), len(rhs[0])
    m, pivots = rref([list(row) + list(b) for row, b in zip(a, rhs)])
    if pivots and pivots[-1] >= c:  # a pivot in the rhs block
        return None
    x = [[zero] * w for _ in range(c)]
    for r, p in enumerate(pivots):
        x[p] = m[r][c:]
    return x


def det_one_minus_z(M: QMatrix) -> QPoly:
    """det(I - z*M) as a polynomial in z (the reversed characteristic polynomial)."""
    cp = charpoly(M)
    n = M.nrows
    return QPoly([cp[n - i] for i in range(n + 1)])
