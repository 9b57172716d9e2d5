import random
import re
from fractions import Fraction

import pytest
import sympy

from infranil.polynomials import (
    IntPoly,
    QPoly,
    _rational_roots,
    factor_over_q,
)
from infranil.errors import InfranilError
from oracles import sympy_factors


def P(*coeffs):
    return QPoly(coeffs)


@pytest.mark.parametrize("bad", [2.5, 2.0, "7", Fraction(1, 2), None, sympy.Rational(1, 3)])
def test_intpoly_rejects_non_integer_coefficients(bad):
    """A float, a string or a non-integral rational is neither truncated
    nor parsed: the public constructor names it."""
    with pytest.raises(InfranilError, match=re.escape(repr(bad))):
        IntPoly([1, bad, 3])


def test_intpoly_accepts_integers_of_any_integer_type():
    import numpy as np

    p = IntPoly([Fraction(4, 2), np.int64(-3), sympy.Integer(5), 0])
    assert p.coeffs == (2, -3, 5) and all(type(c) is int for c in p.coeffs)
    assert p == IntPoly([2, -3, 5]) and p.degree == 2


def test_basic_arithmetic():
    p = P(1, 2, 1)  # (1+x)^2
    q = P(1, 1)
    assert q * q == p


def test_to_int_primitive():
    p = P(Fraction(1, 2), Fraction(3, 4))
    prim, content = p.to_int()
    assert prim.coeffs == (2, 3)
    assert content == Fraction(1, 4)
    assert prim.to_qpoly() * QPoly([content]) == p


def test_factor_rational_roots():
    # 1 - 4z + 3z^2 = (1-z)(1-3z) up to sign normalization
    fs = factor_over_q(IntPoly([1, -4, 3]))
    polys = sorted(q.coeffs for q, _ in fs)
    assert polys == [(-1, 1), (-1, 3)]
    assert all(m == 1 for _, m in fs)


def test_factor_irreducible_quadratic():
    fs = factor_over_q(IntPoly([1, -3, 1]))
    assert fs == [(IntPoly([1, -3, 1]), 1)]


def test_factor_z_cubed_minus_z():
    fs = factor_over_q(IntPoly([0, -1, 0, 1]))
    polys = sorted(q.coeffs for q, _ in fs)
    assert polys == [(-1, 1), (0, 1), (1, 1)]


def test_factor_with_multiplicities_and_content():
    p = IntPoly([4, 8, 4])  # 4(1+z)^2
    fs = factor_over_q(p)
    assert fs == [(IntPoly([1, 1]), 2)]


def test_factor_quartic_product_of_quadratics():
    # factor_over_q covers degree <= 3 only; a quartic is rejected, not factored
    a = IntPoly([1, -3, 1])
    b = IntPoly([1, 0, 1])
    with pytest.raises(InfranilError):
        factor_over_q(a * b)


def test_factor_reconstruction_random():
    rng = random.Random(3)
    checked = 0
    for _ in range(200):
        deg = rng.randint(1, 3)
        if rng.random() < 0.5:
            coeffs = [rng.randint(-5, 5) for _ in range(deg + 1)]
        else:  # a product of small factors, so that rational roots and repeats occur
            p = IntPoly([1])
            while p.degree < deg:
                k = rng.randint(1, deg - p.degree)
                p = p * IntPoly([rng.randint(-4, 4) for _ in range(k)] + [rng.choice([-3, -1, 1, 2])])
            coeffs = list(p.coeffs)
        p = IntPoly(coeffs)
        if p.degree < 1:
            continue
        fs = factor_over_q(p)  # internal assertion checks reconstruction
        assert fs == sympy_factors(coeffs)
        checked += 1
    assert checked > 150


def divisors(m):
    return [k for k in range(1, abs(m) + 1) if m % k == 0]


def divisor_roots(coeffs):
    """Rational roots by the rational root theorem: every root is 0 or +-n/d
    with n dividing the lowest nonzero coefficient and d the leading one."""
    p = IntPoly(coeffs)
    low = next(c for c in coeffs if c)
    roots = {Fraction(0)} if coeffs[0] == 0 else set()
    for n in divisors(low):
        for d in divisors(coeffs[-1]):
            roots.update(r for r in (Fraction(n, d), Fraction(-n, d)) if p(r) == 0)
    return sorted(roots)


def test_rational_roots_match_divisor_oracle():
    rng = random.Random(17)
    for _ in range(400):
        deg = rng.choice([2, 3])
        if rng.random() < 0.5:
            coeffs = [rng.randint(-30, 30) for _ in range(deg)] + [rng.choice([-6, -2, -1, 1, 3, 4])]
        else:  # product of linear factors times a random remainder
            p = IntPoly([rng.randint(-9, 9), rng.choice([-3, -2, -1, 1, 2, 5])])
            while p.degree < deg:
                p = p * IntPoly([rng.randint(-9, 9), rng.choice([-2, -1, 1, 3])])
            coeffs = list(p.coeffs)
        if coeffs[-1] == 0:
            continue
        assert sorted(_rational_roots(IntPoly(coeffs))) == divisor_roots(coeffs), coeffs


def roots_of(*coeffs):
    return sorted(_rational_roots(IntPoly(coeffs)))


def test_rational_roots_leading_coefficient():
    # -2x^2 - x + 3 = -(2x + 3)(x - 1)
    assert roots_of(3, -1, -2) == [Fraction(-3, 2), 1]
    # (2x - 1)(3x + 2)(x - 5) = 6x^3 - 29x^2 - 7x + 10
    assert roots_of(10, -7, -29, 6) == [Fraction(-2, 3), Fraction(1, 2), 5]
    assert roots_of(-10, 7, 29, -6) == [Fraction(-2, 3), Fraction(1, 2), 5]


def test_rational_roots_monotone_cubic():
    # the derivative has no real root (discriminant < 0) or a double one (= 0)
    assert roots_of(2, 0, 0, 1) == []             # y^3 + 2
    assert roots_of(3, 1, 0, 2) == [-1]           # 2y^3 + y + 3
    assert roots_of(-1, 3, -3, 1) == [1]          # (y - 1)^3
    assert roots_of(-27, 27, -9, 1) == [3]        # (y - 3)^3


def test_rational_roots_at_critical_point_floor():
    # y^2 + y: critical point -1/2, root -1 = its floor
    assert roots_of(0, 1, 1) == [-1, 0]
    # y^3 - 7y + 6 = (y - 1)(y - 2)(y + 3): critical points +-sqrt(7/3), floors -2 and 1
    assert roots_of(6, -7, 0, 1) == [-3, 1, 2]
    # (y - 1)^2 (y + 2): a double root at the critical point 1
    assert roots_of(2, -3, 0, 1) == [-2, 1]


def test_rational_roots_at_cauchy_bound():
    n = 97
    # y^2 - ny: bound 1 + n, root n
    assert roots_of(0, -n, 1) == [0, n]
    # (y -+ n)(y^2 + 1): bound 1 + n, root +-n
    assert roots_of(-n, 1, -n, 1) == [n]
    assert roots_of(n, 1, n, 1) == [-n]


def test_rational_roots_three_integer_roots():
    # (y - 2)(y + 3)(y - 7) = y^3 - 6y^2 - 13y + 42
    assert roots_of(42, -13, -6, 1) == [-3, 2, 7]


def test_rational_roots_large_prime_constant():
    q = 1000000007
    assert roots_of(q, 1, 0, 1) == []                         # y^3 + y + q
    assert roots_of(-q, q - 1, 1) == [-q, 1]                  # (y - 1)(y + q)
    # (3y - q)(y^2 + y + 1)
    assert roots_of(-q, 3 - q, 3 - q, 3) == [Fraction(q, 3)]


def test_factor_zero_rejected():
    with pytest.raises(InfranilError):
        factor_over_q(IntPoly([]))


def test_exact_quotient_in_integers():
    from infranil.polynomials import exact_quotient

    q = IntPoly([1, -3, 2])  # (1 - z)(1 - 2z), primitive, lc 2
    g = IntPoly([5, 0, -7, 4])
    assert exact_quotient(q * g, q) == g
    six = IntPoly([6])
    assert exact_quotient(q * g * six, q) == g * six
    off_by_one = IntPoly([c + (i == 0) for i, c in enumerate((q * g).coeffs)])
    assert exact_quotient(off_by_one, q) is None
    assert exact_quotient(IntPoly([3]), q) is None
    assert exact_quotient(IntPoly([3, 1]), IntPoly([1, 3])) is None
