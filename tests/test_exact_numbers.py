"""Every number a caller passes into the library is admitted by one rule,
`exprs.exact_number`: a `numbers.Rational` that is not a bool.  IntPoly
coefficients and product exponents take its integral form.  Each entry
point below refuses a float, NaN, a Decimal, a bool and None with an
InfranilError that names the value, and admits an int, a Fraction and the
numpy and sympy integers and rationals with equal values."""

import re
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
import sympy

from infranil import (
    IntPoly,
    MapCandidate,
    QMatrix,
    QPoly,
    RatFuncProduct,
    catalog_lookup,
    psi_embed,
    validate_selfmap,
)
from infranil.errors import ConstraintError, InfranilError
from infranil.exprs import exact_number, parse_rational

# (name, value -> the number the entry point stored, kind): "rational" and
# "integral" entry points take no text; "text" ones parse it through
# parse_rational, and catalog_lookup's k must also lie in its domain
ENTRY_POINTS = [
    ("QMatrix", lambda v: QMatrix([[1, v]])[0, 1], "rational"),
    ("QPoly", lambda v: QPoly([1, v])[1], "rational"),
    ("IntPoly", lambda v: IntPoly([1, v]).coeffs[1], "integral"),
    ("MapCandidate", lambda v: MapCandidate(catalog_lookup("circle"), (v,),
                                            QMatrix([[1]])).translation[0], "rational"),
    ("psi_embed", lambda v: psi_embed(v, 0, 0, QMatrix.identity(3), 2)[1, 3], "rational"),
    ("catalog_lookup", lambda v: catalog_lookup("heis-I", {"k": v}).k, "lattice"),
    ("parse_rational", parse_rational, "text"),
    ("from_json coefficient",
     lambda v: RatFuncProduct.from_json([{"poly": [1, v], "exp": 1}]).factors[0][0].coeffs[1],
     "integral"),
    ("from_json exponent",
     lambda v: RatFuncProduct.from_json([{"poly": [1, -2], "exp": v}]).factors[0][1],
     "integral"),
]
IDS = [name for name, *_ in ENTRY_POINTS]

REFUSED = [0.5, float("nan"), Decimal("0.5"), True, None]
TWOS = [2, Fraction(2), np.int64(2), sympy.Integer(2), sympy.Rational(4, 2)]
HALVES = [Fraction(1, 2), sympy.Rational(1, 2)]


@pytest.mark.parametrize("name, stored, kind", ENTRY_POINTS, ids=IDS)
def test_entry_points_refuse_inexact_numbers(name, stored, kind):
    text = [] if kind in ("text", "lattice") else ["1/2"]  # those parse text
    for bad in REFUSED + text:
        with pytest.raises(InfranilError, match=re.escape(repr(bad))):
            stored(bad)


@pytest.mark.parametrize("name, stored, kind", ENTRY_POINTS, ids=IDS)
def test_entry_points_admit_exact_numbers(name, stored, kind):
    for good in TWOS:
        value = stored(good)
        assert value == 2 and type(value) is (int if kind == "integral" else Fraction), good
        assert all(type(part) is int for part in (value.numerator, value.denominator))
    for half in HALVES:
        if kind == "integral":
            with pytest.raises(InfranilError, match=re.escape(repr(half))):
                stored(half)
        elif kind == "lattice":
            with pytest.raises(ConstraintError, match="k = 1/2 is not in"):
                stored(half)
        else:
            assert stored(half) == Fraction(1, 2), half


def test_the_rule_itself():
    assert exact_number(-3, integral=True) == -3
    assert exact_number(Fraction(6, 4)) == Fraction(3, 2)
    half = Fraction(1, 2)
    assert exact_number(half) is half  # an admitted Fraction is kept as it is
    with pytest.raises(InfranilError, match=r"^exponent Fraction\(3, 2\) is not an integer$"):
        exact_number(Fraction(3, 2), "exponent", integral=True)
    for bad in (np.float64(2), sympy.Float(2), np.bool_(True), "2", 2j):
        with pytest.raises(InfranilError, match="is not an exact rational"):
            exact_number(bad)


def test_motivating_cases_raise():
    """Each of these was converted, parsed, stored as given or ended in an
    exception other than InfranilError."""
    cases = [
        lambda: QMatrix([[0.1]]),
        lambda: QMatrix([["1/2"]]),
        lambda: QMatrix([[float("nan")]]),
        lambda: catalog_lookup("heis-I", {"k": 2.0}),
        lambda: catalog_lookup("heis-I", {"k": True}),
        lambda: RatFuncProduct.from_json([{"poly": [1, True], "exp": 1}]),
    ]
    for case in cases:
        with pytest.raises(InfranilError):
            case()
    torus = catalog_lookup("torus-2")
    with pytest.raises(InfranilError, match="0.25"):
        validate_selfmap(MapCandidate(torus, (0.25, "1/2"), QMatrix([[1, 0], [0, 1]])))
