"""Exact univariate polynomial arithmetic over Q and Z.

Coefficients are stored ascending (index i holds the coefficient of x^i),
with trailing zeros stripped, so the zero polynomial has an empty
coefficient tuple and degree -1.  Everything here is exact: QPoly uses
`fractions.Fraction`, IntPoly uses Python ints.

`IntPoly(coeffs)` accepts ints, integral Fractions and other integers that
`operator.index` accepts, and raises InfranilError naming any other
coefficient, so a float or a string from JSON, an oracle or a caller is
never truncated or parsed.  A Python int passes on a type check alone, so
the kernels' own int results cost little more than the strip of trailing
zeros.

Gcds and real-root counts run in integers: remainder sequences are
pseudo-remainder sequences on IntPoly, each remainder scaled by a positive
constant and divided by its content (so it has the sign of the remainder
over Q everywhere), and p(a/b) has the sign of the integer b^d p(a/b).
`unit_split` counts a squarefree factor's real roots below -1, inside
(-1, 1) and above 1 from the sign variations of one such sequence; the
engine isolates no root.

Complete factorization over Q covers degree <= 3, the most any
det(I - z Lambda^j D) has for n <= 3: an integer Yun squarefree split, then
rational roots y/lc for the integer roots y of a monic rescaling, located
by integer bisection on each piece where that rescaling is monotone.
Whatever is left after the linear factors has no rational root, so it is
irreducible.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import zip_longest
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

    def leading(self) -> Fraction:
        if self.is_zero():
            raise InfranilError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def __getitem__(self, i: int) -> Fraction:
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else Fraction(0)

    def __add__(self, other):
        other = _coerce(other)
        n = max(len(self.coeffs), len(other.coeffs))
        return QPoly([self[i] + other[i] for i in range(n)])

    __radd__ = __add__

    def __neg__(self):
        return QPoly([-c for c in self.coeffs])

    def __sub__(self, other):
        return self + (-_coerce(other))

    def __rsub__(self, other):
        return _coerce(other) + (-self)

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

    def __divmod__(self, other):
        other = _coerce(other)
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        d = other.degree
        lead = other.leading()
        if len(rem) - 1 < d:
            return QPoly(), self
        quo = [Fraction(0)] * (len(rem) - d)
        for i in range(len(rem) - 1, d - 1, -1):
            c = rem[i] / lead
            if c:
                quo[i - d] = c
                for j, b in enumerate(other.coeffs):
                    rem[i - d + j] -= c * b
        return QPoly(quo), QPoly(rem)

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = QPoly([other])
        return isinstance(other, QPoly) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __call__(self, x) -> Fraction:
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def derivative(self) -> "QPoly":
        return QPoly([i * c for i, c in enumerate(self.coeffs)][1:])

    def monic(self) -> "QPoly":
        if self.is_zero():
            return self
        lead = self.leading()
        return QPoly([c / lead for c in self.coeffs])

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
    if isinstance(value, (int, Fraction)):
        return QPoly([value])
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

    def derivative(self) -> "IntPoly":
        return IntPoly([i * c for i, c in enumerate(self.coeffs)][1:])

    def __sub__(self, other: "IntPoly") -> "IntPoly":
        diff = [a - b for a, b in zip_longest(self.coeffs, other.coeffs, fillvalue=0)]
        return IntPoly(diff)

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
# Remainder sequences and sign variations, in integers
# ---------------------------------------------------------------------------


def _neg_rem(a: IntPoly, b: IntPoly) -> IntPoly:
    """-(a mod b) times a positive constant, over its content: pseudo-division
    that scales the remainder by |lc b| at each step lc b does not divide."""
    rem = list(a.coeffs)
    d, lead = b.degree, b.leading()
    for i in range(len(rem) - 1, d - 1, -1):
        top = rem.pop()
        c, r = divmod(top, lead)
        if r:
            rem = [abs(lead) * v for v in rem]
            c = top if lead > 0 else -top
        for j in range(d):
            rem[i - d + j] -= c * b.coeffs[j]
    g = gcd(*rem)
    return IntPoly([-v // g for v in rem]) if g else IntPoly()


def _remainder_sequence(a: IntPoly, b: IntPoly) -> list:
    """a, b (nonzero), then `_neg_rem` of the last two until it vanishes:
    the last member is a gcd of a and b."""
    seq = [a, b]
    while not (r := _neg_rem(seq[-2], seq[-1])).is_zero():
        seq.append(r)
    return seq


def _gcd(a: IntPoly, b: IntPoly) -> IntPoly:
    """Primitive gcd with positive leading coefficient (zero for two zeros)."""
    return (a if b.is_zero() else _remainder_sequence(a, b)[-1]).primitive()


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


def _variations(chain, num: int, den: int) -> int:
    signs = [s for s in (_sign(q.coeffs, num, den) for q in chain) if s]
    return sum(a != b for a, b in zip(signs, signs[1:]))


def unit_split(q: IntPoly) -> tuple:
    """(below, inside, above): the real roots of a squarefree q below -1, in
    (-1, 1) and above 1, from the sign variations of one Sturm chain
    (q, q', ...) at -infinity, -1, 1 and infinity.  A root at -1 or 1
    raises InfranilError."""
    if not (q(1) and q(-1)):
        raise InfranilError(f"{q} has the root 1 or -1")
    chain = _remainder_sequence(q, q.derivative().primitive())
    v = [_variations(chain, num, den) for num, den in ((-1, 0), (-1, 1), (1, 1), (1, 0))]
    return v[0] - v[1], v[1] - v[2], v[2] - v[3]


# ---------------------------------------------------------------------------
# Factorization over Q
# ---------------------------------------------------------------------------


def _yun_squarefree(p: IntPoly) -> list:
    """Yun's algorithm on a primitive p with positive leading coefficient:
    [(g1, 1), (g2, 2), ...] with p = prod gi^i, each gi primitive squarefree
    with positive leading coefficient, pairwise coprime.  Every gcd is
    primitive, so every division is exact in integers."""
    dp = p.derivative()
    g = _gcd(p, dp)
    if g.degree == 0:
        return [(p, 1)]
    w = exact_quotient(p, g)
    y = exact_quotient(dp, g)
    out = []
    i = 1
    while w.degree > 0:
        z = y - w.derivative()
        h = _gcd(w, z)
        if h.degree > 0:
            out.append((h, i))
        w = exact_quotient(w, h)
        y = exact_quotient(z, h)
        i += 1
    return out


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


def _integer_roots(g: IntPoly) -> list:
    """Integer roots of a monic integer polynomial of degree 1..3, ascending.

    The integers are cut at the floors of the real critical points, so g is
    monotone on each piece and holds at most one root there; the Cauchy
    bound closes the outer pieces."""
    coeffs = g.coeffs
    bound = 1 + max(abs(c) for c in coeffs[:-1])
    cuts = []
    if g.degree == 2:
        cuts = [-coeffs[1] // 2]
    elif g.degree == 3:
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


def _factor_squarefree(p: IntPoly) -> list:
    """Irreducible factors of a squarefree primitive integer polynomial of
    degree <= 3 with positive leading coefficient; no multiplicities (all
    are 1)."""
    out = []
    for r in _rational_roots(p):
        lin = IntPoly([-r.numerator, r.denominator])
        p = exact_quotient(p, lin)
        out.append(lin)
    if p.degree >= 2:
        # no rational roots left, so a quadratic or cubic is irreducible
        out.append(p)
    return out


def factor_over_q(poly: IntPoly) -> list:
    """Complete factorization over Q of a polynomial of degree <= 3 into
    primitive irreducible integer polynomials with positive leading
    coefficients; higher degrees raise InfranilError.

    Returns [(factor, multiplicity), ...].  The product of the factors with
    multiplicity, times the signed content of the input, reproduces the input
    exactly (checked here; InfranilError otherwise).
    """
    if isinstance(poly, QPoly):
        poly = poly.to_int()[0]
    if poly.is_zero():
        raise InfranilError("cannot factor the zero polynomial")
    if poly.degree > 3:
        raise InfranilError("factor_over_q supports degree <= 3")
    if poly.degree == 0:
        return []
    prim = poly.primitive()
    out = []
    for sf, mult in _yun_squarefree(prim):
        for fac in _factor_squarefree(sf):
            out.append((fac, mult))
    out.sort(key=lambda fm: fm[0].sort_key())
    check = IntPoly([1])
    for fac, mult in out:
        for _ in range(mult):
            check = check * fac
    sign = -1 if poly.leading() < 0 else 1
    if check != prim or IntPoly([c * sign * poly.content() for c in prim.coeffs]) != poly:
        raise InfranilError("factorization does not reproduce the input")
    return out
