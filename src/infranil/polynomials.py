"""Exact univariate polynomial arithmetic over Q and Z.

Coefficients are stored ascending (index i holds the coefficient of x^i),
with trailing zeros stripped, so the zero polynomial has an empty
coefficient tuple and degree -1.  Everything here is exact: QPoly uses
`fractions.Fraction`, IntPoly uses Python ints.

The module also provides the real-root machinery (Sturm chains, root
isolation) and complete factorization over Q of degree <= 3, the most any
det(I - z Lambda^j D) has for n <= 3.  Rational roots are found in integers
only: y/lc for the integer roots y of a monic rescaling, located by integer
bisection on each piece where that rescaling is monotone.  Whatever is left
after the linear factors has no rational root, so it is irreducible.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, isinf, isqrt

from .errors import InfranilError

Rational = Fraction  # arbitrary-precision rational scalar used across the package


def _strip(coeffs):
    n = len(coeffs)
    while n > 0 and coeffs[n - 1] == 0:
        n -= 1
    return tuple(coeffs[:n])


@dataclass(frozen=True)
class QPoly:
    """Polynomial with Fraction coefficients, ascending degree."""

    coeffs: tuple

    def __init__(self, coeffs=()):
        object.__setattr__(self, "coeffs", _strip([Fraction(c) for c in coeffs]))

    @staticmethod
    def const(c) -> "QPoly":
        return QPoly([Fraction(c)])

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

    def subs_neg_x(self) -> "QPoly":
        """The polynomial p(-x)."""
        return QPoly([c if i % 2 == 0 else -c for i, c in enumerate(self.coeffs)])

    def shift_mul_x(self, m: int = 1) -> "QPoly":
        """Multiply by x^m."""
        if self.is_zero():
            return self
        return QPoly([Fraction(0)] * m + list(self.coeffs))

    def gcd(self, other: "QPoly") -> "QPoly":
        """Monic gcd over Q."""
        a, b = self, _coerce(other)
        while not b.is_zero():
            a, b = b, a % b
        return a.monic() if not a.is_zero() else a

    def squarefree_part(self) -> "QPoly":
        if self.degree <= 0:
            return self.monic()
        g = self.gcd(self.derivative())
        return (self // g).monic()

    def to_int(self) -> tuple["IntPoly", Fraction]:
        """Split into (primitive integer polynomial with positive leading
        coefficient, rational content) so that content * primitive == self."""
        if self.is_zero():
            return IntPoly(()), Fraction(0)
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


@dataclass(frozen=True)
class IntPoly:
    """Polynomial with integer coefficients, ascending degree."""

    coeffs: tuple

    def __init__(self, coeffs=()):
        vals = []
        for c in coeffs:
            if isinstance(c, Fraction):
                if c.denominator != 1:
                    raise InfranilError(f"non-integer coefficient {c} in IntPoly")
                c = c.numerator
            vals.append(int(c))
        object.__setattr__(self, "coeffs", _strip(vals))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

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
        g = 0
        for c in self.coeffs:
            g = gcd(g, abs(c))
        return g

    def __mul__(self, other):
        if isinstance(other, int):
            return IntPoly([c * other for c in self.coeffs])
        if not isinstance(other, IntPoly):
            return NotImplemented
        if self.is_zero() or other.is_zero():
            return IntPoly(())
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
# Sturm chains and real-root counting/isolation
# ---------------------------------------------------------------------------


def _sturm_chain(p: QPoly):
    chain = [p, p.derivative()]
    while not chain[-1].is_zero():
        chain.append(-(chain[-2] % chain[-1]))
    chain.pop()
    return chain


def _sign_at(p: QPoly, x) -> int:
    """Sign of p at a finite rational x or at +/- infinity (float inf)."""
    if p.is_zero():
        return 0
    if isinstance(x, float) and isinf(x):
        lead = p.leading()
        if x > 0:
            return 1 if lead > 0 else -1
        s = 1 if lead > 0 else -1
        return s if p.degree % 2 == 0 else -s
    v = p(x)
    return (v > 0) - (v < 0)


def _variations(chain, x) -> int:
    signs = [s for s in (_sign_at(p, x) for p in chain) if s != 0]
    return sum(1 for a, b in zip(signs, signs[1:]) if a * b < 0)


def sturm_count(poly: QPoly, lo=None, hi=None) -> int:
    """Number of distinct real roots of `poly` in the open interval (lo, hi).

    `lo`/`hi` may be rationals, None, or +/-float('inf'); None means
    unbounded on that side.  Multiplicities are ignored (the squarefree part
    is used), matching the convention that callers account for them via
    squarefree decomposition.
    """
    if poly.is_zero():
        raise InfranilError("sturm_count of the zero polynomial")
    if poly.degree == 0:
        return 0
    lo = float("-inf") if lo is None else lo
    hi = float("inf") if hi is None else hi
    if not isinstance(lo, float):
        lo = Fraction(lo)
    if not isinstance(hi, float):
        hi = Fraction(hi)
    sf = poly.squarefree_part()
    chain = _sturm_chain(sf)
    count = _variations(chain, lo) - _variations(chain, hi)
    # V(lo) - V(hi) counts roots in (lo, hi]; make the right end open.
    if not (isinstance(hi, float) and isinf(hi)) and sf(hi) == 0:
        count -= 1
    return count


def root_bound(poly: QPoly) -> Fraction:
    """Cauchy bound: every real root lies in (-B, B)."""
    lead = abs(poly.leading())
    m = max((abs(c) for c in poly.coeffs[:-1]), default=Fraction(0))
    return Fraction(1) + m / lead


def isolate_real_roots(poly: QPoly) -> list:
    """Disjoint open intervals (lo, hi), each containing exactly one distinct
    real root of `poly`, in increasing order.  Rational roots may be returned
    as degenerate intervals (r, r)."""
    sf = poly.squarefree_part()
    if sf.degree <= 0:
        return []
    chain = _sturm_chain(sf)

    def count_open(a, b):
        c = _variations(chain, a) - _variations(chain, b)
        if sf(b) == 0:
            c -= 1
        return c

    bound = root_bound(sf)
    out = []
    stack = [(-bound, bound, count_open(-bound, bound))]
    while stack:
        lo, hi, cnt = stack.pop()
        if cnt == 0:
            continue
        if cnt == 1 and sf(lo) != 0 and sf(hi) != 0:
            out.append((lo, hi))
            continue
        mid = (lo + hi) / 2
        if sf(mid) == 0:
            out.append((mid, mid))
            eps = (hi - lo) / 4
            while sturm_count(sf, mid - eps, mid + eps) > 1:
                eps /= 2
            stack.append((lo, mid - eps, count_open(lo, mid - eps)))
            stack.append((mid + eps, hi, count_open(mid + eps, hi)))
        else:
            stack.append((lo, mid, count_open(lo, mid)))
            stack.append((mid, hi, count_open(mid, hi)))
    return sorted(out)


def refine_root(poly: QPoly, lo: Fraction, hi: Fraction, width: Fraction):
    """Shrink an isolating interval of a simple root by sign-change bisection
    until hi - lo < width.  Degenerate (exact) intervals pass through."""
    if lo == hi:
        return lo, hi
    sf = poly.squarefree_part()
    slo = _sign_at(sf, lo)
    shi = _sign_at(sf, hi)
    if slo == 0 or shi == 0 or slo == shi:
        raise InfranilError("interval endpoints do not bracket a simple root")
    while hi - lo >= width:
        mid = (lo + hi) / 2
        sm = _sign_at(sf, mid)
        if sm == 0:
            return mid, mid
        if sm == slo:
            lo = mid
        else:
            hi = mid
    return lo, hi


# ---------------------------------------------------------------------------
# Factorization over Q
# ---------------------------------------------------------------------------


def _yun_squarefree(p: QPoly) -> list:
    """Yun's algorithm: [(g1, 1), (g2, 2), ...] with p = lc * prod gi^i,
    each gi monic squarefree, pairwise coprime."""
    p = p.monic()
    dp = p.derivative()
    g = p.gcd(dp)
    out = []
    if g.degree == 0:
        return [(p, 1)]
    w = p // g
    y = dp // g
    i = 1
    while w.degree > 0:
        z = y - w.derivative()
        h = w.gcd(z)
        if h.degree > 0:
            out.append((h.monic(), i))
        w = w // h
        y = z // h
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
    exactly (asserted here).
    """
    if isinstance(poly, QPoly):
        poly = poly.to_int()[0]
    if poly.is_zero():
        raise InfranilError("cannot factor the zero polynomial")
    if poly.degree > 3:
        raise InfranilError("factor_over_q supports degree <= 3")
    if poly.degree == 0:
        return []
    prim, _ = poly.to_qpoly().to_int()
    out = []
    for sf, mult in _yun_squarefree(prim.to_qpoly()):
        sf_int, _ = sf.to_int()
        for fac in _factor_squarefree(sf_int):
            out.append((fac, mult))
    out.sort(key=lambda fm: fm[0].sort_key())
    check = IntPoly([1])
    for fac, mult in out:
        for _ in range(mult):
            check = check * fac
    sign = -1 if poly.leading() < 0 else 1
    assert check == prim and IntPoly([c * sign * poly.content() for c in prim.coeffs]) == poly, (
        "factorization does not reproduce the input"
    )
    return out
