import random
from fractions import Fraction

import numpy as np
import pytest

from infranil import matrices
from infranil.errors import InfranilError
from infranil.matrices import (
    QMatrix,
    charpoly,
    det_one_minus_z,
    exterior_form,
    exterior_power,
    flat_det,
    flat_product,
    kernel_rows,
    solve_rows,
)
from infranil.polynomials import QPoly
import oracles
from oracles import inverse, sympy_matrix, to_fraction


def rand_matrix(rng, n, lo=-5, hi=5):
    return QMatrix([[rng.randint(lo, hi) for _ in range(n)] for _ in range(n)])


def test_small_integer_entries_share_one_fraction():
    a, b = QMatrix([[2, -128], [0, 129]]), QMatrix([[2, 5], [Fraction(2), np.int64(1)]])
    assert a.rows[0][0] is b.rows[0][0] and a.rows[0][0] == Fraction(2)
    assert a.rows[0][1] == -128 and a.rows[1][1] == 129 and b.rows[1] == (2, 1)
    assert all(type(v) is Fraction for m in (a, b) for row in m.rows for v in row)
    assert a * QMatrix.identity(2) == a and -a.rows[0][0] == -2


def test_charpoly_examples():
    assert charpoly(QMatrix([[3, 0], [0, 5]])) == QPoly([15, -8, 1])
    assert charpoly(QMatrix([[2, 1], [1, 1]])) == QPoly([1, -3, 1])
    assert charpoly(QMatrix([[0] * 3] * 3)) == QPoly([0, 0, 0, 1])


def test_charpoly_matches_det_shift():
    rng = random.Random(11)
    for _ in range(20):
        n = rng.randint(1, 3)
        m = rand_matrix(rng, n)
        cp = charpoly(m)
        for x in (Fraction(0), Fraction(2), Fraction(-1, 2)):
            shifted = QMatrix([[x * (i == j) - m[i, j] for j in range(n)] for i in range(n)])
            assert sum(c * x ** i for i, c in enumerate(cp.coeffs)) == shifted.det()


def test_exterior_power_examples():
    m = QMatrix([[1, 2], [3, 4]])
    assert exterior_power(m, 2) == QMatrix([[-2]])
    assert exterior_power(m, 1) == m
    assert exterior_power(QMatrix([[2, 0, 0], [0, 3, 0], [0, 0, 5]]), 2) == QMatrix(
        [[6, 0, 0], [0, 10, 0], [0, 0, 15]]
    )


def test_exterior_power_multiplicative():
    rng = random.Random(5)
    for _ in range(15):
        n = rng.randint(2, 3)
        a = rand_matrix(rng, n, -3, 3)
        b = rand_matrix(rng, n, -3, 3)
        for j in range(n + 1):
            assert exterior_power(a * b, j) == exterior_power(a, j) * exterior_power(b, j)


def trace(m):
    return sum(m[i, i] for i in range(m.nrows))


def test_det_via_exterior_traces():
    # det(I - M) = sum_j (-1)^j trace(Lambda^j M)
    rng = random.Random(13)
    for _ in range(15):
        n = rng.randint(1, 3)
        m = rand_matrix(rng, n, -4, 4)
        lhs = QMatrix([[(i == j) - m[i, j] for j in range(n)] for i in range(n)]).det()
        rhs = sum((-1) ** j * trace(exterior_power(m, j)) for j in range(n + 1))
        assert lhs == rhs


def test_det_one_minus_z_roots():
    m = QMatrix([[3, 0], [0, 5]])
    assert det_one_minus_z(m) == QPoly([1, -8, 15])


def test_kernel_and_solve():
    m = QMatrix([[1, 2, 3], [2, 4, 6], [0, 0, 1]])
    basis = kernel_rows(m.rows, Fraction(0), Fraction(1))
    assert len(basis) == 1
    for vec in basis:
        assert m * QMatrix([[v] for v in vec]) == QMatrix([[0]] * 3)
    rhs = QMatrix([[1], [2], [0]])
    sol = solve_rows(m.rows, rhs.rows, Fraction(0))
    assert sol is not None
    assert m * QMatrix(sol) == rhs
    assert solve_rows(m.rows, [[1], [0], [0]], Fraction(0)) is None


def test_inverse():
    m = QMatrix([[2, 1], [1, 1]])
    assert m * inverse(m) == QMatrix.identity(2)
    with pytest.raises(InfranilError):
        inverse(QMatrix([[1, 1], [1, 1]]))


def test_integer_kernels_match_generic_reference():
    """flat_product, flat_det and exterior_form at every j against the
    generic forms in tests/oracles.py, n = 1..3: entries in [-3, 3] and up
    to +-2^64, and singular matrices whose last row is a multiple of the
    first (zero when n = 1)."""
    rng = random.Random(2022)
    singular = 0
    for n in range(1, 4):
        for bound in (3, 2 ** 64):
            for shape in ("random", "singular") * 8:
                rows = [[rng.randint(-bound, bound) for _ in range(n)] for _ in range(n)]
                if shape == "singular":
                    c = rng.randint(-3, 3)
                    rows[-1] = [c * v for v in rows[0]] if n > 1 else [0]
                a = tuple(v for row in rows for v in row)
                b = tuple(rng.randint(-bound, bound) for _ in range(n * n))
                assert flat_product(a, b, n) == oracles.flat_product(a, b, n), (a, b)
                det = flat_det(a, n)
                assert det == oracles.flat_det(a, n), a
                singular += shape == "singular" and det == 0
                for j in range(n + 1):
                    assert exterior_form(a, n, j) == oracles.exterior_form(a, n, j), (a, j)
    assert singular == 3 * 2 * 8


def test_integer_form_matches_the_two_pass_reference():
    """integer_form against the two-pass form in tests/oracles.py on seeded
    lists of 1-3 matrices, 1 x 1 to 4 x 4: integral entries, rational
    entries with denominators up to 12, negative entries, 200-bit entries,
    and the empty list.  Both the all-integral case (r = 1) and the
    rational one are reached."""
    rng = random.Random(32)
    big = 2 ** 200
    entries = {
        "integral": lambda: rng.randint(-9, 9),
        "rational": lambda: Fraction(rng.randint(-30, 30), rng.randint(1, 12)),
        "large": lambda: rng.choice((rng.randint(-big, big), Fraction(rng.randint(-big, big),
                                                                       rng.randint(1, 12)))),
        "mixed": lambda: rng.choice((rng.randint(-3, 3), Fraction(rng.randint(-7, 7), 12))),
    }
    assert matrices.integer_form([]) == oracles.integer_form([]) == (1, ())
    scales = set()
    for n in range(1, 5):
        for kind, entry in entries.items():
            for _ in range(8):
                mats = [QMatrix([[entry() for _ in range(n)] for _ in range(n)])
                        for _ in range(rng.randint(1, 3))]
                r, flats = matrices.integer_form(mats)
                assert (r, flats) == oracles.integer_form(mats), (kind, mats)
                assert all(type(v) is int for flat in flats for v in flat)
                scales.add(r == 1)
    assert scales == {True, False}


def test_kernels_reject_n_outside_1_to_3():
    """The integer kernels are written out for n = 1, 2, 3 only: n = 0 and
    n = 4 raise, from the kernels and from what runs on them, at every j.
    A 0 x 0 QMatrix cannot be formed at all."""
    for n in (0, 4):
        flat = tuple(range(1, n * n + 1))
        calls = [lambda: flat_det(flat, n), lambda: flat_product(flat, flat, n)]
        calls += [lambda j=j: exterior_form(flat, n, j) for j in range(n + 1)]
        for call in calls:
            with pytest.raises(InfranilError, match="n = 1..3"):
                call()
    with pytest.raises(InfranilError):
        QMatrix([])
    m = QMatrix([[i + 4 * j for i in range(4)] for j in range(4)])
    calls = [lambda: charpoly(m), m.det] + [lambda j=j: exterior_power(m, j) for j in range(5)]
    for call in calls:
        with pytest.raises(InfranilError):
            call()


def test_power():
    m = QMatrix([[2, 1], [0, 1]])
    assert m.power(0) == QMatrix.identity(2)
    assert m.power(3) == m * m * m


def test_charpoly_matches_sympy():
    """The closed-form integer characteristic polynomial against sympy,
    n = 1..3, on entries with denominators 1, 2, 3 and 6, singular
    matrices, and Lambda^2 of Heisenberg linear parts with half-integer
    entries."""
    import sympy

    rng = random.Random(2027)
    dens = (1, 2, 3, 6)
    cases = []
    for n in range(1, 4):
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
        coeffs = sympy_matrix(m.rows).charpoly(x).all_coeffs()
        want = tuple(to_fraction(c) for c in reversed(coeffs))
        assert charpoly(m).coeffs == want, m


def test_charpoly_rejects_non_square():
    with pytest.raises(InfranilError):
        charpoly(QMatrix([[1, 2, 3], [4, 5, 6]]))


def test_exterior_power_range():
    with pytest.raises(InfranilError):
        exterior_power(QMatrix.identity(2), 3)


def rand_rational_rows(rng, nrows, ncols, shape):
    """Random rows with denominators 1, 2, 3, 6; `shape` "singular" makes the
    last row a combination of the others, "zero-row" zeroes one row."""
    rows = [[Fraction(rng.randint(-9, 9), rng.choice((1, 2, 3, 6))) for _ in range(ncols)]
            for _ in range(nrows)]
    if shape == "singular" and nrows > 1:
        a, b = Fraction(rng.randint(-3, 3), 2), Fraction(rng.randint(-3, 3))
        rows[-1] = [a * u + b * v for u, v in zip(rows[0], rows[rng.randrange(nrows - 1)])]
    elif shape == "zero-row" or shape == "singular":
        rows[rng.randrange(nrows)] = [Fraction(0)] * ncols
    return rows


def test_det_and_exterior_power_match_sympy():
    """QMatrix.det and every exterior_power(M, j) against sympy's
    determinant and j x j minors, n = 1..3: random, singular and zero-row
    rational matrices."""
    import itertools

    rng = random.Random(31)
    singular = 0
    for n in range(1, 4):
        for shape in ("random", "singular", "zero-row") * 4:
            rows = rand_rational_rows(rng, n, n, shape)
            m, sm = QMatrix(rows), sympy_matrix(rows)
            assert m.det() == to_fraction(sm.det()), rows
            singular += m.det() == 0
            for j in range(n + 1):
                subsets = list(itertools.combinations(range(n), j))
                want = [[to_fraction(sm.extract(list(r), list(c)).det()) if j else Fraction(1)
                         for c in subsets] for r in subsets]
                assert exterior_power(m, j) == QMatrix(want), (rows, j)
    assert singular >= 24


def test_row_reduction_matches_sympy():
    """kernel_rows, solve_rows and the oracle inverse built on them (the
    shared row reduction) against sympy's rank on random rational systems of
    every shape up to 4 x 5, and the numberfield entry points against them
    on the same Fraction input."""
    from infranil.numberfield import field_kernel, field_solve_columns

    rng = random.Random(37)
    zero, one = Fraction(0), Fraction(1)
    inconsistent = consistent = singular = 0
    for nrows in range(1, 5):
        for ncols in range(1, 6):
            for shape in ("random", "singular", "zero-row") * 3:
                rows = rand_rational_rows(rng, nrows, ncols, shape)
                m, sm = QMatrix(rows), sympy_matrix(rows)
                rank = sm.rank()
                basis = kernel_rows(m.rows, zero, one)
                assert len(basis) == ncols - rank, rows
                assert all(sum(a * b for a, b in zip(row, vec)) == zero
                           for vec in basis for row in m.rows), rows
                if basis:
                    assert sympy_matrix(basis).rank() == len(basis), rows
                assert field_kernel([list(r) for r in rows], zero, one) == basis
                width = rng.randint(1, 3)
                rhs = QMatrix(rand_rational_rows(rng, nrows, width, "random"))
                if rng.random() < 0.5:  # a right-hand side in the column space
                    rhs = m * QMatrix(rand_rational_rows(rng, ncols, width, "random"))
                sol = solve_rows(m.rows, rhs.rows, zero)
                solvable = sm.row_join(sympy_matrix(rhs.rows)).rank() == rank
                assert (sol is not None) == solvable, (rows, rhs)
                if sol is not None:
                    assert m * QMatrix(sol) == rhs
                consistent += solvable
                inconsistent += not solvable
                field_sol = field_solve_columns(
                    [list(r) for r in rows], [list(r) for r in rhs.rows], zero
                )
                assert field_sol == sol
                if nrows == ncols:
                    if rank < nrows:
                        singular += 1
                        with pytest.raises(InfranilError, match="singular"):
                            inverse(m)
                    else:
                        assert inverse(m) == QMatrix([[to_fraction(v) for v in row]
                                                       for row in sm.inv().tolist()])
    assert min(inconsistent, consistent, singular) >= 10
