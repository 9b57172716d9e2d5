from fractions import Fraction

import pytest

from infranil.errors import InfranilError
from infranil.numberfield import field_det, field_kernel, field_solve_columns
from number_field import NumberField, nf_sign
from infranil.polynomials import IntPoly


def sqrt2_field():
    return NumberField(IntPoly([-2, 0, 1]), (1, 2))


def test_nf_sign_examples():
    f = sqrt2_field()
    assert nf_sign(f.zero) == 0
    assert nf_sign(f.theta - 1) == 1  # sqrt(2) > 1
    assert nf_sign(f.theta * f.theta - 3) == -1  # 2 < 3, found symbolically
    assert nf_sign(f.theta * f.theta - 2) == 0


def test_nf_arithmetic():
    f = sqrt2_field()
    t = f.theta
    assert t * t == 2
    inv = (1 + t).inverse()
    assert inv * (1 + t) == 1
    assert (t / t) == 1
    assert ((3 + t) - t).as_fraction() == 3


def test_nf_negative_root_designation():
    f = NumberField(IntPoly([-2, 0, 1]), (-2, -1))  # theta = -sqrt(2)
    assert nf_sign(f.theta) == -1
    assert nf_sign(f.theta + 1) == -1


def test_nf_cubic():
    # theta = real root of x^3 - 2 (about 1.26)
    f = NumberField(IntPoly([-2, 0, 0, 1]), (1, 2))
    t = f.theta
    assert t * t * t == 2
    assert nf_sign(t - Fraction(5, 4)) == 1
    assert nf_sign(t - Fraction(13, 10)) == -1


def test_bad_isolating_interval():
    with pytest.raises(InfranilError):
        NumberField(IntPoly([-2, 0, 1]), (-2, 2))  # two roots inside


def test_field_linear_algebra_over_nf():
    f = sqrt2_field()
    t = f.theta
    one, zero = f.one, f.zero
    a = [[t, one], [one, t]]
    assert field_det(a, zero) == 1  # t^2 - 1 = 1
    sol = field_solve_columns(a, [[t + 1], [t + 1]], zero)
    assert sol is not None
    x = sol[0][0], sol[1][0]
    assert a[0][0] * x[0] + a[0][1] * x[1] == t + 1
    singular = [[one, t], [t, t * t]]
    assert field_det(singular, zero) == zero
    ker = field_kernel(singular, zero, one)
    assert len(ker) == 1
    v = ker[0]
    assert singular[0][0] * v[0] + singular[0][1] * v[1] == zero


def test_field_linear_algebra_over_fractions():
    zero, one = Fraction(0), Fraction(1)
    a = [[Fraction(2), Fraction(1)], [Fraction(1), Fraction(1)]]
    assert field_det(a, zero) == 1
    ker = field_kernel([[Fraction(1), Fraction(2)]], zero, one)
    assert ker == [[Fraction(-2), Fraction(1)]]
