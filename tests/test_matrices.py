import random
from fractions import Fraction

import pytest

from infranil.errors import InfranilError
from infranil.matrices import QMatrix, charpoly, det_one_minus_z, exterior_power
from infranil.polynomials import QPoly


def rand_matrix(rng, n, lo=-5, hi=5):
    return QMatrix([[rng.randint(lo, hi) for _ in range(n)] for _ in range(n)])


def test_charpoly_examples():
    assert charpoly(QMatrix([[3, 0], [0, 5]])) == QPoly([15, -8, 1])
    assert charpoly(QMatrix([[2, 1], [1, 1]])) == QPoly([1, -3, 1])
    assert charpoly(QMatrix.zero(3)) == QPoly([0, 0, 0, 1])


def test_charpoly_matches_det_shift():
    rng = random.Random(11)
    for _ in range(20):
        n = rng.randint(1, 4)
        m = rand_matrix(rng, n)
        cp = charpoly(m)
        for x in (Fraction(0), Fraction(2), Fraction(-1, 2)):
            shifted = QMatrix.identity(n) * x - m
            assert cp(x) == shifted.det()


def test_exterior_power_examples():
    m = QMatrix([["1", 2], [3, 4]])
    assert exterior_power(m, 2) == QMatrix([[-2]])
    assert exterior_power(m, 1) == m
    assert exterior_power(QMatrix([[2, 0, 0], [0, 3, 0], [0, 0, 5]]), 2) == QMatrix(
        [[6, 0, 0], [0, 10, 0], [0, 0, 15]]
    )


def test_exterior_power_multiplicative():
    rng = random.Random(5)
    for _ in range(15):
        n = rng.randint(2, 4)
        a = rand_matrix(rng, n, -3, 3)
        b = rand_matrix(rng, n, -3, 3)
        for j in range(n + 1):
            assert exterior_power(a * b, j) == exterior_power(a, j) * exterior_power(b, j)


def test_det_via_exterior_traces():
    # det(I - M) = sum_j (-1)^j trace(Lambda^j M)
    rng = random.Random(13)
    for _ in range(15):
        n = rng.randint(1, 4)
        m = rand_matrix(rng, n, -4, 4)
        lhs = (QMatrix.identity(n) - m).det()
        rhs = sum((-1) ** j * exterior_power(m, j).trace() for j in range(n + 1))
        assert lhs == rhs


def test_det_one_minus_z_roots():
    m = QMatrix([[3, 0], [0, 5]])
    assert det_one_minus_z(m) == QPoly([1, -8, 15])


def test_kernel_and_solve():
    m = QMatrix([[1, 2, 3], [2, 4, 6], [0, 0, 1]])
    basis = m.kernel()
    assert len(basis) == 1
    for vec in basis:
        assert m.apply(vec) == (0, 0, 0)
    rhs = QMatrix([[1], [2], [0]])
    sol = m.solve_columns(rhs)
    assert sol is not None
    assert m * sol == rhs
    assert m.solve_columns(QMatrix([[1], [0], [0]])) is None


def test_inverse():
    m = QMatrix([[2, 1], [1, 1]])
    assert m * m.inverse() == QMatrix.identity(2)
    with pytest.raises(InfranilError):
        QMatrix([[1, 1], [1, 1]]).inverse()


def test_power():
    m = QMatrix([[2, 1], [0, 1]])
    assert m.power(0) == QMatrix.identity(2)
    assert m.power(3) == m * m * m


def test_charpoly_matches_sympy():
    """Integer Faddeev-LeVerrier against sympy, n = 1..8, on entries with
    denominators 1, 2, 3 and 6, singular matrices, and Lambda^2 of
    Heisenberg linear parts with half-integer entries."""
    import sympy

    rng = random.Random(2027)
    dens = (1, 2, 3, 6)
    cases = []
    for n in range(1, 9):
        for _ in range(4):
            cases.append(QMatrix([[Fraction(rng.randint(-9, 9), rng.choice(dens)) for _ in range(n)]
                                  for _ in range(n)]))
        rows = [[Fraction(rng.randint(-4, 4), rng.choice(dens)) for _ in range(n)]
                for _ in range(n - 1)]
        rows.append([sum(col) for col in zip(*rows)] if n > 1 else [0])  # rank < n
        cases.append(QMatrix(rows))
    for _ in range(6):
        a, b, c, d = (rng.randint(-3, 3) for _ in range(4))
        heis = QMatrix([[a * d - b * c, Fraction(rng.randint(-7, 7), 2),
                         Fraction(rng.randint(-7, 7), 2)], [0, a, b], [0, c, d]])
        cases.append(exterior_power(heis, 2))
    assert any(m.det() == 0 for m in cases)
    x = sympy.Symbol("x")
    for m in cases:
        coeffs = sympy.Matrix([[sympy.Rational(v.numerator, v.denominator) for v in row]
                               for row in m.rows]).charpoly(x).all_coeffs()
        want = tuple(Fraction(int(c.p), int(c.q)) for c in reversed(coeffs))
        assert charpoly(m).coeffs == want, m


def test_charpoly_rejects_non_square():
    with pytest.raises(InfranilError):
        charpoly(QMatrix([[1, 2, 3], [4, 5, 6]]))


def test_exterior_power_range():
    with pytest.raises(InfranilError):
        exterior_power(QMatrix.identity(2), 3)
