"""Univariate integer polynomials with exact factorization over Q, and the
rational polynomial type at the library's boundary.

Coefficients are stored ascending (index i holds the coefficient of x^i),
with trailing zeros stripped, so the zero polynomial has an empty
coefficient tuple and degree -1.  Everything here is exact: IntPoly uses
Python ints, QPoly `fractions.Fraction`.

The engine computes with IntPoly.  QPoly carries rational polynomials
across the boundary (corpus cells, `matrices.charpoly` and
`det_one_minus_z`) and offers only what its readers use: construction,
indexing, `degree` and `is_zero`, products, equality and hashing, `to_int`
(the split into a primitive IntPoly and its content) and printing.

`IntPoly(coeffs)` accepts ints, integral Fractions and other integers that
`operator.index` accepts, and raises InfranilError naming any other
coefficient, so a float or a string from JSON, an oracle or a caller is
never truncated or parsed.  A Python int passes on a type check alone, so
the kernels' own int results cost little more than the strip of trailing
zeros.

Signs run in integers: p(a/b) has the sign of the integer b^d p(a/b).

Complete factorization over Q covers degree <= 3, the most any
det(I - z Lambda^j D) has for n <= 3.  Each rational root y/lc is pulled
out with its multiplicity by repeated exact division, y an integer root of
a monic rescaling, located by integer bisection within the Fujiwara bound
on each piece where that rescaling is monotone.  Whatever is left, of
degree 2 or 3, has no rational root, so it is irreducible, and simple,
since a repeated irrational root needs degree >= 4.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt
from operator import index

from .errors import InfranilError
from .records import Record


def _strip(coeffs):
    n = len(coeffs)
    while n > 0 and coeffs[n - 1] == 0:
        n -= 1
    return tuple(coeffs[:n])


class QPoly(Record):
    """Polynomial with Fraction coefficients, ascending degree."""

    __slots__ = ("coeffs",)
    _fields = __slots__

    def __init__(self, coeffs=()):
        object.__setattr__(self, "coeffs", _strip([Fraction(c) for c in coeffs]))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def __getitem__(self, i: int) -> Fraction:
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else Fraction(0)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return QPoly([c * other for c in self.coeffs])
        other = _coerce(other)
        if self.is_zero() or other.is_zero():
            return QPoly()
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
        return QPoly(out)

    __rmul__ = __mul__

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = QPoly([other])
        return isinstance(other, QPoly) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def to_int(self) -> tuple["IntPoly", Fraction]:
        """Split into (primitive integer polynomial with positive leading
        coefficient, rational content) so that content * primitive == self."""
        if self.is_zero():
            return IntPoly(), Fraction(0)
        den = 1
        for c in self.coeffs:
            den = den * c.denominator // gcd(den, c.denominator)
        ints = [int(c * den) for c in self.coeffs]
        g = 0
        for v in ints:
            g = gcd(g, abs(v))
        sign = -1 if ints[-1] < 0 else 1
        prim = IntPoly([v // (sign * g) for v in ints])
        return prim, Fraction(sign * g, den)

    def __str__(self):
        return _poly_str(self.coeffs)

    __repr__ = __str__


def _coerce(value) -> QPoly:
    if isinstance(value, QPoly):
        return value
    if isinstance(value, IntPoly):
        return value.to_qpoly()
    raise TypeError(f"cannot interpret {value!r} as a polynomial")


def _coefficient(c) -> int:
    """An IntPoly coefficient as an int: an integral Fraction, or a value
    `operator.index` accepts (int, and numpy or sympy integers)."""
    if isinstance(c, Fraction):
        if c.denominator == 1:
            return c.numerator
    else:
        try:
            return index(c)
        except TypeError:
            pass
    raise InfranilError(f"IntPoly coefficient {c!r} is not an integer")


class IntPoly(Record):
    """Polynomial with integer coefficients, ascending degree.  `degree` is
    stored and the hash kept after its first use.

    `IntPoly(coeffs)` validates every coefficient and raises InfranilError
    naming one that is not an integer (a float, a string, a non-integral
    Fraction)."""

    __slots__ = ("coeffs", "degree", "_hash")
    _fields = ("coeffs",)

    def __init__(self, coeffs=()):
        coeffs = _strip([c if type(c) is int else _coefficient(c) for c in coeffs])
        _set_coeffs(self, coeffs)
        _set_degree(self, len(coeffs) - 1)

    def __eq__(self, other):
        if other.__class__ is IntPoly:
            return self.coeffs == other.coeffs
        return NotImplemented

    def __hash__(self):
        try:
            return self._hash
        except AttributeError:  # first use
            h = hash((self.coeffs,))
            _set_hash(self, h)
            return h

    def is_zero(self) -> bool:
        return not self.coeffs

    def leading(self) -> int:
        if self.is_zero():
            raise InfranilError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def constant(self) -> int:
        return self.coeffs[0] if self.coeffs else 0

    def content(self) -> int:
        """gcd of the coefficients (non-negative; 0 only for the zero polynomial)."""
        return gcd(*self.coeffs)

    def primitive(self) -> "IntPoly":
        """self over its content, with positive leading coefficient."""
        g = self.content()
        if self.coeffs and self.coeffs[-1] < 0:
            g = -g
        return IntPoly([c // g for c in self.coeffs]) if g else self

    def __mul__(self, other):
        if isinstance(other, int):
            return IntPoly([c * other for c in self.coeffs])
        if not isinstance(other, IntPoly):
            return NotImplemented
        if self.is_zero() or other.is_zero():
            return IntPoly()
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
        return IntPoly(out)

    __rmul__ = __mul__

    def __call__(self, x):
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def subs_neg_x(self) -> "IntPoly":
        return IntPoly([c if i % 2 == 0 else -c for i, c in enumerate(self.coeffs)])

    def to_qpoly(self) -> QPoly:
        return QPoly(self.coeffs)

    def sort_key(self):
        return (self.degree, self.coeffs)

    def __str__(self):
        return _poly_str(self.coeffs)

    __repr__ = __str__


_set_coeffs = IntPoly.coeffs.__set__
_set_degree = IntPoly.degree.__set__
_set_hash = IntPoly._hash.__set__


def _poly_str(coeffs, var: str = "z") -> str:
    if not coeffs:
        return "0"
    parts = []
    for i, c in enumerate(coeffs):
        if c == 0:
            continue
        if i == 0:
            parts.append(str(c))
            continue
        mag = "" if abs(c) == 1 else f"{abs(c)}*"
        term = f"{mag}{var}" if i == 1 else f"{mag}{var}^{i}"
        if not parts:
            parts.append(term if c > 0 else f"-{term}")
        else:
            parts.append(f"+ {term}" if c > 0 else f"- {term}")
    return " ".join(parts) if parts else "0"


# ---------------------------------------------------------------------------
# Signs and factorization over Q
# ---------------------------------------------------------------------------


def _sign(coeffs, num: int, den: int) -> int:
    """Sign of p(num/den) for den > 0: of the integer den^d p(num/den), by
    homogeneous Horner.  (num, 0) is +infinity for num = 1, -infinity for -1."""
    acc, scale = coeffs[-1], 1
    for c in coeffs[-2::-1]:
        scale *= den
        acc = acc * num + c * scale
    return (acc > 0) - (acc < 0)


def sign_at(p: IntPoly, num: int, den: int = 1) -> int:
    """Sign of p at num / den, den > 0, in integers."""
    return _sign(p.coeffs, num, den)


def _bisect_root(g: IntPoly, lo: int, hi: int):
    """The integer root of g in [lo, hi], where g is strictly monotone, or None."""
    slo, shi = g(lo), g(hi)
    if slo == 0:
        return lo
    if shi == 0:
        return hi
    if (slo > 0) == (shi > 0):
        return None
    while hi - lo > 1:
        mid = (lo + hi) // 2
        v = g(mid)
        if v == 0:
            return mid
        if (v > 0) == (slo > 0):
            lo = mid
        else:
            hi = mid
    return None


def _root_ceil(v: int, k: int) -> int:
    """ceil(v^(1/k)) for an int v >= 0 and k = 1..3, in integers: `isqrt`
    for k = 2, and for k = 3 integer Newton from a power of two above the
    root, which decreases to the floor of the root."""
    if k == 1 or v == 0:
        return v
    if k == 2:
        r = isqrt(v)
    else:
        r = 1 << -(-v.bit_length() // 3)
        while (s := (2 * r + v // (r * r)) // 3) < r:
            r = s
    return r + (r ** k < v)


def _integer_roots(g: IntPoly) -> list:
    """Integer roots of a monic integer polynomial of degree 1..3, ascending.

    The integers are cut at the floors of the real critical points, so g is
    monotone on each piece and holds at most one root there; the Fujiwara
    bound 2 max_i |c_(d-i)|^(1/i) closes the outer pieces, so bisection
    takes about as many steps as the coefficients have bits over d."""
    coeffs, d = g.coeffs, g.degree
    bound = 2 * max(_root_ceil(abs(coeffs[d - i]), i) for i in range(1, d + 1))
    cuts = []
    if d == 2:
        cuts = [-coeffs[1] // 2]
    elif d == 3:
        # g' = 3y^2 + 2by + c has roots (-2b -/+ sqrt(disc)) / 6
        b, c = coeffs[2], coeffs[1]
        disc = 4 * b * b - 12 * c
        if disc > 0:
            s = isqrt(disc)
            ceil_s = s + (s * s < disc)
            cuts = [(-2 * b - ceil_s) // 6, (-2 * b + s) // 6]
    roots = []
    lo = -bound
    for cut in cuts + [bound]:
        hi = min(cut, bound)
        if lo <= hi:
            y = _bisect_root(g, lo, hi)
            if y is not None:
                roots.append(y)
        lo = max(lo, hi + 1)
    return roots


def _rational_roots(p: IntPoly) -> list:
    """Distinct rational roots of an integer polynomial of degree 1..3.

    With a = lc(p) and d = deg p, g(y) = a^(d-1) p(y/a) is monic with integer
    coefficients, so the rational roots of p are y/a for the integer roots y
    of g."""
    a, d = p.leading(), p.degree
    g = IntPoly([c * a ** (d - 1 - i) for i, c in enumerate(p.coeffs[:-1])] + [1])
    return [Fraction(y, a) for y in _integer_roots(g)]


def exact_quotient(p: IntPoly, q: IntPoly):
    """p / q for a primitive q, or None when q does not divide p.

    Long division in integers: by Gauss's lemma the quotient by a primitive
    divisor is integral, so every step's leading coefficient must divide by
    lc(q), and one that does not shows that q does not divide p."""
    d, lead = q.degree, q.leading()
    rem = list(p.coeffs)
    if len(rem) <= d:
        return p if p.is_zero() else None
    quo = [0] * (len(rem) - d)
    for i in range(len(rem) - 1, d - 1, -1):
        c, r = divmod(rem[i], lead)
        if r:
            return None
        if c:
            quo[i - d] = c
            for j, b in enumerate(q.coeffs):
                rem[i - d + j] -= c * b
    return None if any(rem[:d]) else IntPoly(quo)


def factor_over_q(poly: IntPoly) -> list:
    """Complete factorization over Q of a polynomial of degree <= 3 into
    primitive irreducible integer polynomials with positive leading
    coefficients; higher degrees raise InfranilError.

    Returns [(factor, multiplicity), ...].  The product of the factors with
    multiplicity, times the signed content of the input, reproduces the input
    exactly (checked here; InfranilError otherwise).
    """
    if poly.is_zero():
        raise InfranilError("cannot factor the zero polynomial")
    if poly.degree > 3:
        raise InfranilError("factor_over_q supports degree <= 3")
    if poly.degree == 0:
        return []
    prim = rest = poly.primitive()
    out = []
    for r in _rational_roots(prim):
        lin, mult = IntPoly([-r.numerator, r.denominator]), 0
        while (quo := exact_quotient(rest, lin)) is not None:
            rest, mult = quo, mult + 1
        out.append((lin, mult))
    if rest.degree >= 2:
        # no rational root is left, so the quadratic or cubic is irreducible,
        # and simple: a repeated irrational root needs degree >= 4
        out.append((rest, 1))
    out.sort(key=lambda fm: fm[0].sort_key())
    check = IntPoly([1])
    for fac, mult in out:
        for _ in range(mult):
            check = check * fac
    sign = -1 if poly.leading() < 0 else 1
    if check != prim or IntPoly([c * sign * poly.content() for c in prim.coeffs]) != poly:
        raise InfranilError("factorization does not reproduce the input")
    return out
