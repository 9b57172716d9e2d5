"""Dense exact rational matrices and the operations the engine needs:
determinants, characteristic polynomials, exterior powers.

Sizes stay tiny, so determinants, minors and characteristic polynomials
are formed in integers, on a matrix's integer form (its entries over their
least common denominator): a determinant by cofactor expansion, Lambda^j
from the j x j minors, a characteristic polynomial by Faddeev-LeVerrier.
`numberfield`'s kernels and solves (`kernel_rows`, `solve_rows`) share one
reduced row echelon routine, `rref`, which takes Fraction or number-field
(NFElem) entries alike.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import comb, gcd, isqrt, lcm
from operator import mul

from .errors import InfranilError
from .polynomials import IntPoly, QPoly
from .records import Record


# One shared Fraction per small integer: a matrix built from int entries (a
# candidate's linear part, catalog data, identities) holds no Fraction of its
# own, so a search that keeps thousands of candidates keeps less memory.
_SMALL_INTS = {v: Fraction(v) for v in range(-128, 129)}


class QMatrix(Record):
    """Immutable dense matrix of Fractions, row-major."""

    __slots__ = ("rows",)
    _fields = __slots__

    def __init__(self, rows):
        small = _SMALL_INTS
        data = tuple(
            tuple(small[v] if type(v) is int and v in small else Fraction(v) for v in row)
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

    def __add__(self, other: "QMatrix") -> "QMatrix":
        if self.nrows != other.nrows or self.ncols != other.ncols:
            raise InfranilError("shape mismatch in matrix addition")
        return QMatrix(
            [[a + b for a, b in zip(r1, r2)] for r1, r2 in zip(self.rows, other.rows)]
        )

    def __sub__(self, other: "QMatrix") -> "QMatrix":
        return self + (-other)

    def __neg__(self) -> "QMatrix":
        return QMatrix([[-v for v in row] for row in self.rows])

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return QMatrix([[v * other for v in row] for row in self.rows])
        if isinstance(other, QMatrix):
            if self.ncols != other.nrows:
                raise InfranilError("shape mismatch in matrix product")
            cols = list(zip(*other.rows))
            return QMatrix(
                [[sum(a * b for a, b in zip(row, col)) for col in cols] for row in self.rows]
            )
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self * other
        return NotImplemented

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

    def submatrix(self, row_idx, col_idx) -> "QMatrix":
        return QMatrix([[self.rows[i][j] for j in col_idx] for i in row_idx])

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
    if n > 8:
        raise InfranilError("charpoly supports n <= 8")
    q, (flat,) = integer_form([M])
    rev = scaled_det_one_minus_z(flat, n, q).coeffs
    rev += (0,) * (n + 1 - len(rev))  # a singular M strips trailing zeros
    return QPoly([Fraction(c, q ** n) for c in reversed(rev)])


def scaled_det_one_minus_z(flat, m: int, scale: int) -> IntPoly:
    """scale^m det(I - z B / scale) for the m x m integer matrix B, given
    row-major as `flat`: Faddeev-LeVerrier in integers, where every division
    is exact (the coefficients of charpoly(B) are integers)."""
    ident = tuple(int(i == j) for i in range(m) for j in range(m))
    coeffs, acc = [scale ** m], ident
    for k in range(1, m + 1):
        acc = flat_product(flat, acc, m)
        c = -sum(acc[:: m + 1]) // k
        coeffs.append(c * scale ** (m - k))
        acc = tuple(a + c * i for a, i in zip(acc, ident))
    return IntPoly(coeffs)


def exterior_power(M: QMatrix, j: int) -> QMatrix:
    """j-th exterior (compound) power: entries are j x j minors indexed by
    lexicographic j-subsets of rows/columns.  Lambda^0 = [1], Lambda^n = [det]."""
    if not M.is_square():
        raise InfranilError("exterior_power of a non-square matrix")
    n = M.nrows
    if j < 0 or j > n:
        raise InfranilError(f"exterior power index {j} out of range 0..{n}")
    q, (flat,) = integer_form([M])
    minors, m = exterior_form(flat, n, j), comb(n, j)
    return QMatrix([[Fraction(v, q ** j) for v in minors[i * m:(i + 1) * m]] for i in range(m)])


def flat_det(flat, n: int) -> int:
    """Determinant of the n x n integer matrix given row-major as `flat`, by
    cofactor expansion along the first row."""
    if n == 2:
        return flat[0] * flat[3] - flat[1] * flat[2]
    if n == 0:
        return 1
    return sum(
        (-1) ** c * flat[c]
        * flat_det([flat[r * n + k] for r in range(1, n) for k in range(n) if k != c], n - 1)
        for c in range(n) if flat[c]
    )


def exterior_form(flat, n: int, j: int) -> tuple:
    """Lambda^j of the n x n integer matrix given row-major as `flat`: its
    j x j minors, row-major, rows and columns indexed by lexicographic
    j-subsets."""
    subsets = list(itertools.combinations(range(n), j))
    return tuple(
        flat_det([flat[r * n + c] for r in rows for c in cols], j)
        for rows in subsets for cols in subsets
    )


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
    ints."""
    r = lcm(*(v.denominator for m in mats for row in m.rows for v in row))
    return r, tuple(
        tuple(v.numerator * (r // v.denominator) for row in m.rows for v in row) for m in mats
    )


def flat_product(a, b, n: int) -> tuple:
    """Row-major product of two n x n matrices given as flat int tuples."""
    cols = [b[j::n] for j in range(n)]
    return tuple(sum(map(mul, a[i * n:(i + 1) * n], col)) for i in range(n) for col in cols)


def rref(rows):
    """Reduced row echelon form over a field: rows is a list of lists of
    Fraction or NFElem entries.  Returns (reduced rows, pivot columns)."""
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
