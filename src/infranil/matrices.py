"""Dense exact rational matrices and the operations the engine needs:
determinants, characteristic polynomials, exterior powers, kernels.

Sizes stay tiny (n <= 8), so plain Gaussian elimination over Fraction is
both exact and fast enough.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .errors import InfranilError
from .polynomials import QPoly


@dataclass(frozen=True)
class QMatrix:
    """Immutable dense matrix of Fractions, row-major."""

    rows: tuple

    def __init__(self, rows):
        data = tuple(tuple(Fraction(v) for v in row) for row in rows)
        if not data or not data[0]:
            raise InfranilError("matrices must have at least one row and column")
        width = len(data[0])
        if any(len(r) != width for r in data):
            raise InfranilError("ragged rows in matrix")
        object.__setattr__(self, "rows", data)

    @staticmethod
    def identity(n: int) -> "QMatrix":
        return QMatrix([[1 if i == j else 0 for j in range(n)] for i in range(n)])

    @staticmethod
    def zero(n: int, m: int | None = None) -> "QMatrix":
        m = n if m is None else m
        return QMatrix([[0] * m for _ in range(n)])

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

    def apply(self, vec):
        """Matrix times column vector (tuple)."""
        if len(vec) != self.ncols:
            raise InfranilError("shape mismatch in matrix-vector product")
        return tuple(sum(a * b for a, b in zip(row, vec)) for row in self.rows)

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

    def transpose(self) -> "QMatrix":
        return QMatrix(list(zip(*self.rows)))

    def trace(self) -> Fraction:
        if not self.is_square():
            raise InfranilError("trace of a non-square matrix")
        return sum(self.rows[i][i] for i in range(self.nrows))

    def is_identity(self) -> bool:
        return self.is_square() and self == QMatrix.identity(self.nrows)

    def submatrix(self, row_idx, col_idx) -> "QMatrix":
        return QMatrix([[self.rows[i][j] for j in col_idx] for i in row_idx])

    def det(self) -> Fraction:
        if not self.is_square():
            raise InfranilError("determinant of a non-square matrix")
        n = self.nrows
        m = [list(r) for r in self.rows]
        det = Fraction(1)
        for col in range(n):
            pivot = next((r for r in range(col, n) if m[r][col] != 0), None)
            if pivot is None:
                return Fraction(0)
            if pivot != col:
                m[col], m[pivot] = m[pivot], m[col]
                det = -det
            det *= m[col][col]
            inv = 1 / m[col][col]
            for r in range(col + 1, n):
                if m[r][col]:
                    factor = m[r][col] * inv
                    for c in range(col, n):
                        m[r][c] -= factor * m[col][c]
        return det

    def rref(self):
        """Reduced row echelon form; returns (matrix rows as lists, pivot cols)."""
        m = [list(r) for r in self.rows]
        nr, nc = self.nrows, self.ncols
        pivots = []
        row = 0
        for col in range(nc):
            if row == nr:
                break
            pivot = next((r for r in range(row, nr) if m[r][col] != 0), None)
            if pivot is None:
                continue
            m[row], m[pivot] = m[pivot], m[row]
            inv = 1 / m[row][col]
            m[row] = [v * inv for v in m[row]]
            for r in range(nr):
                if r != row and m[r][col]:
                    factor = m[r][col]
                    m[r] = [a - factor * b for a, b in zip(m[r], m[row])]
            pivots.append(col)
            row += 1
        return m, pivots

    def kernel(self) -> list:
        """Basis of the right null space, as a list of coordinate tuples."""
        m, pivots = self.rref()
        free = [c for c in range(self.ncols) if c not in pivots]
        basis = []
        for f in free:
            vec = [Fraction(0)] * self.ncols
            vec[f] = Fraction(1)
            for r, p in enumerate(pivots):
                vec[p] = -m[r][f]
            basis.append(tuple(vec))
        return basis

    def inverse(self) -> "QMatrix":
        if not self.is_square():
            raise InfranilError("inverse of a non-square matrix")
        n = self.nrows
        aug = QMatrix([list(r) + [1 if i == j else 0 for j in range(n)] for i, r in enumerate(self.rows)])
        m, pivots = aug.rref()
        if pivots != list(range(n)):
            raise InfranilError("matrix is singular")
        return QMatrix([row[n:] for row in m])

    def solve_columns(self, rhs: "QMatrix"):
        """Solve self @ X = rhs, returning X, or None when inconsistent.
        self need not be square; the solution must be exact."""
        n, c = self.nrows, self.ncols
        if rhs.nrows != n:
            raise InfranilError("shape mismatch in solve")
        aug = QMatrix([list(self.rows[i]) + list(rhs.rows[i]) for i in range(n)])
        m, pivots = aug.rref()
        pivots = [p for p in pivots if p < c]
        # inconsistent if a pivot lands in the rhs block
        for row in m:
            if all(v == 0 for v in row[:c]) and any(v != 0 for v in row[c:]):
                return None
        x = [[Fraction(0)] * rhs.ncols for _ in range(c)]
        for r, p in enumerate(pivots):
            for j in range(rhs.ncols):
                x[p][j] = m[r][c + j]
        return QMatrix(x)

    def __str__(self):
        return "\n".join("[" + ", ".join(str(v) for v in row) + "]" for row in self.rows)

    __repr__ = __str__


def charpoly(M: QMatrix) -> QPoly:
    """Characteristic polynomial det(xI - M), monic, by Faddeev-LeVerrier."""
    if not M.is_square():
        raise InfranilError("charpoly of a non-square matrix")
    n = M.nrows
    if n > 8:
        raise InfranilError("charpoly supports n <= 8")
    coeffs = [Fraction(0)] * (n + 1)
    coeffs[n] = Fraction(1)
    acc = QMatrix.identity(n)
    for k in range(1, n + 1):
        acc = M * acc
        c = -acc.trace() / k
        coeffs[n - k] = c
        if k < n:
            acc = acc + QMatrix.identity(n) * c
    return QPoly(coeffs)


def exterior_power(M: QMatrix, j: int) -> QMatrix:
    """j-th exterior (compound) power: entries are j x j minors indexed by
    lexicographic j-subsets of rows/columns.  Lambda^0 = [1], Lambda^n = [det]."""
    if not M.is_square():
        raise InfranilError("exterior_power of a non-square matrix")
    n = M.nrows
    if j < 0 or j > n:
        raise InfranilError(f"exterior power index {j} out of range 0..{n}")
    if j == 0:
        return QMatrix([[1]])
    subsets = list(itertools.combinations(range(n), j))
    return QMatrix(
        [[M.submatrix(ri, ci).det() for ci in subsets] for ri in subsets]
    )


def integer_form(mats) -> tuple:
    """(r, flats): r is the least common denominator of every entry of the
    matrices, and flats[i] holds the entries of r * mats[i], row-major, as
    ints."""
    r = lcm(*(v.denominator for m in mats for row in m.rows for v in row))
    return r, tuple(
        tuple(v.numerator * (r // v.denominator) for row in m.rows for v in row) for m in mats
    )


def det_one_minus_z(M: QMatrix) -> QPoly:
    """det(I - z*M) as a polynomial in z (the reversed characteristic polynomial)."""
    cp = charpoly(M)
    n = M.nrows
    return QPoly([cp[n - i] for i in range(n + 1)])
