"""Real algebraic numbers of small degree, kept as a test oracle: Q(theta)
arithmetic with an isolating interval designating which real root theta is.

Elements are residues mod the minimal polynomial, held as sympy
polynomials over QQ, so the arithmetic is sympy's and not the library's;
equality, arithmetic and inversion are symbolic (extended Euclid), so
exact zero detection never depends on numerics.  Signs are decided by
interval refinement, which terminates because a nonzero residue cannot
vanish at a root of an irreducible minimal polynomial.

The engine needs no number field (`fixedpoint.positive_part` reads the
signs off integer trace sequences).  The modulus split in `modulus_split`
runs its eigenvector, kernel and solve over Q(theta) through the library's
field-generic `numberfield.field_*`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import sympy

from infranil.errors import InfranilError
from infranil.polynomials import IntPoly
from oracles import X, qq_poly, to_fraction
from real_roots import refine_root, sturm_count


class NumberField:
    """Q(theta) for a designated real root theta of an irreducible IntPoly."""

    def __init__(self, minpoly: IntPoly, interval):
        if minpoly.degree < 2:
            raise InfranilError("number fields here have degree >= 2")
        if minpoly.degree > 3:
            raise InfranilError("number fields here have degree <= 3")
        self.minpoly = minpoly
        self.minpoly_q = qq_poly(minpoly).monic()
        lo, hi = Fraction(interval[0]), Fraction(interval[1])
        if sturm_count(minpoly, lo, hi) != 1:
            raise InfranilError("interval does not isolate exactly one root")
        self.interval = (lo, hi)

    def elem(self, rep) -> "NFElem":
        if isinstance(rep, NFElem):
            if rep.field is not self:
                raise InfranilError("element belongs to a different field")
            return rep
        if isinstance(rep, (int, Fraction)):
            rep = qq_poly(rep)
        return NFElem(self, rep.rem(self.minpoly_q))

    @property
    def zero(self) -> "NFElem":
        return self.elem(0)

    @property
    def one(self) -> "NFElem":
        return self.elem(1)

    @property
    def theta(self) -> "NFElem":
        return self.elem(sympy.Poly(X, X, domain=sympy.QQ))

    def refine(self, width: Fraction):
        self.interval = refine_root(self.minpoly, *self.interval, width)

    def __repr__(self):
        lo, hi = self.interval
        return f"Q(theta), theta root of {self.minpoly} in ({lo}, {hi})"


@dataclass(frozen=True)
class NFElem:
    """Residue representing a value of Q(theta) at the designated root."""

    field: NumberField
    rep: sympy.Poly

    def _lift(self, other) -> "NFElem":
        return self.field.elem(other)

    def __add__(self, other):
        o = self._lift(other)
        return NFElem(self.field, (self.rep + o.rep).rem(self.field.minpoly_q))

    __radd__ = __add__

    def __neg__(self):
        return NFElem(self.field, -self.rep)

    def __sub__(self, other):
        return self + (-self._lift(other))

    def __rsub__(self, other):
        return self._lift(other) - self

    def __mul__(self, other):
        o = self._lift(other)
        return NFElem(self.field, (self.rep * o.rep).rem(self.field.minpoly_q))

    __rmul__ = __mul__

    def inverse(self) -> "NFElem":
        if self.rep.is_zero:
            raise ZeroDivisionError("inverse of zero in number field")
        # extended Euclid: a*rep + b*minpoly = gcd = const (minpoly irreducible)
        r0, r1 = self.field.minpoly_q, self.rep
        s0, s1 = qq_poly(0), qq_poly(1)
        while not r1.is_zero:
            q, r = r0.div(r1)
            r0, r1 = r1, r
            s0, s1 = s1, s0 - q * s1
        if r0.degree() != 0:
            raise InfranilError("minimal polynomial is not irreducible")
        inv = s0.quo_ground(r0.LC())
        return NFElem(self.field, inv.rem(self.field.minpoly_q))

    def __truediv__(self, other):
        return self * self._lift(other).inverse()

    def __rtruediv__(self, other):
        return self._lift(other) / self

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.rep == qq_poly(other)
        return isinstance(other, NFElem) and self.field is other.field and self.rep == other.rep

    def __hash__(self):
        return hash((id(self.field), self.rep))

    def __bool__(self):
        return not self.rep.is_zero

    def is_rational(self) -> bool:
        return self.rep.is_ground

    def as_fraction(self) -> Fraction:
        if not self.is_rational():
            raise InfranilError(f"{self.rep.as_expr()} is not rational")
        return to_fraction(self.rep.coeff_monomial(1))

    def __repr__(self):
        return f"NF({self.rep.as_expr()})"


def _interval_eval(p: sympy.Poly, lo: Fraction, hi: Fraction):
    """Exact interval bound for p over [lo, hi] via Horner with interval steps."""
    blo, bhi = Fraction(0), Fraction(0)
    for c in map(to_fraction, p.all_coeffs()):
        cands = (blo * lo, blo * hi, bhi * lo, bhi * hi)
        blo, bhi = min(cands) + c, max(cands) + c
    return blo, bhi


def nf_sign(x: NFElem) -> int:
    """Sign (-1, 0, +1) of the real number x evaluates to at the designated
    root.  Zero is detected symbolically; otherwise the root interval is
    refined until the interval evaluation of the residue excludes zero."""
    if x.rep.is_zero:
        return 0
    if x.is_rational():
        v = x.as_fraction()
        return (v > 0) - (v < 0)
    field = x.field
    while True:
        lo, hi = field.interval
        blo, bhi = _interval_eval(x.rep, lo, hi)
        if blo > 0:
            return 1
        if bhi < 0:
            return -1
        field.refine((hi - lo) / 2)
