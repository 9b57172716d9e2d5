"""Real-root counting and isolation by Sturm chains in integers, kept as a
test oracle.

The engine classifies a factor's real roots against -1 and 1 in closed
form (`fixedpoint._analyze_factor`: the discriminant, Descartes' rule on
the Taylor shifts to 1 and -1, and signs), so it counts no roots in an
arbitrary interval and forms no isolating interval.  The oracles that do —
the number field of `number_field`, the modulus split in `modulus_split`,
the float comparison of the acceptance criteria, the references of
`test_spectrum` — take them from `sturm_count`, `isolate_real_roots` and
`refine_root` here.  The chains are integer pseudo-remainder sequences,
each member a positive multiple of the Euclidean one over Q, so p(a/b) is
decided by the sign of the integer b^d p(a/b) (`polynomials._sign`).
"""

from fractions import Fraction
from math import gcd

from infranil.errors import InfranilError
from infranil.polynomials import IntPoly, QPoly, _sign, exact_quotient


def _derivative(p: IntPoly) -> IntPoly:
    return IntPoly([i * c for i, c in enumerate(p.coeffs)][1:])


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


def _variations(chain, num: int, den: int) -> int:
    signs = [s for s in (_sign(q.coeffs, num, den) for q in chain) if s]
    return sum(a != b for a, b in zip(signs, signs[1:]))


def _squarefree(poly) -> IntPoly:
    """The primitive squarefree part of a QPoly or IntPoly, with positive
    leading coefficient."""
    p = (poly.to_int()[0] if isinstance(poly, QPoly) else poly).primitive()
    g = _gcd(p, _derivative(p))
    return exact_quotient(p, g) if g.degree > 0 else p


def _point(x, infinity: int):
    """(num, den) of a rational endpoint; None is the infinite end."""
    if x is None:
        return infinity, 0
    if isinstance(x, float):
        raise InfranilError(f"float endpoint {x}: pass a rational, or None for unbounded")
    x = Fraction(x)
    return x.numerator, x.denominator


def _sturm_chain(p) -> list:
    """The Sturm chain g, g', -rem, ... of p's squarefree part g.  Each member
    is a positive multiple of the Euclidean chain's member for the monic
    squarefree part, so the two chains agree in sign at every point."""
    g = _squarefree(p)
    return _remainder_sequence(g, _derivative(g).primitive())


def _count_open(chain, lo, hi) -> int:
    """Distinct roots of chain[0] in the open interval between the points
    lo and hi, given as (num, den): V(lo) - V(hi) counts (lo, hi]."""
    return _variations(chain, *lo) - _variations(chain, *hi) - (_sign(chain[0].coeffs, *hi) == 0)


def sturm_count(poly, lo=None, hi=None) -> int:
    """Number of distinct real roots of `poly` (QPoly or IntPoly) in the open
    interval (lo, hi).

    `lo`/`hi` are rationals, or None for an unbounded side; a float raises
    InfranilError.  Multiplicities are ignored: the squarefree part is used.
    """
    if poly.is_zero():
        raise InfranilError("sturm_count of the zero polynomial")
    lo, hi = _point(lo, -1), _point(hi, 1)
    return _count_open(_sturm_chain(poly), lo, hi) if poly.degree > 0 else 0


def refine_root(poly, lo: Fraction, hi: Fraction, width: Fraction):
    """Shrink an isolating interval of a simple root by sign-change bisection
    until hi - lo < width, on integer numerators over a common denominator.
    Degenerate (exact) intervals pass through."""
    if lo == hi:
        return lo, hi
    g = _squarefree(poly).coeffs
    (a, da), (b, db), (w, dw) = _point(lo, 0), _point(hi, 0), _point(width, 0)
    a, b, den = a * db, b * da, da * db
    slo = _sign(g, a, den)
    if slo * _sign(g, b, den) >= 0:
        raise InfranilError("interval endpoints do not bracket a simple root")
    while (b - a) * dw >= w * den:
        a, mid, b, den = 2 * a, a + b, 2 * b, 2 * den
        sm = _sign(g, mid, den)
        if sm == 0:
            return Fraction(mid, den), Fraction(mid, den)
        a, b = (mid, b) if sm == slo else (a, mid)
    return Fraction(a, den), Fraction(b, den)


def isolate_real_roots(poly) -> list:
    """Disjoint open intervals (lo, hi), each containing exactly one distinct
    real root of `poly`, in increasing order.  Rational roots may be returned
    as degenerate intervals (r, r).

    Bisection in integers: every endpoint is a numerator over lc * 2^e, with
    lc the leading coefficient of the primitive squarefree part g, starting
    from the Cauchy bound 1 + max |g_i| / lc."""
    if poly.degree <= 0:
        return []
    chain = _sturm_chain(poly)
    g = chain[0].coeffs
    bound = g[-1] + max(map(abs, g[:-1]))
    out = []
    stack = [(-bound, bound, g[-1])]
    while stack:
        lo, hi, den = stack.pop()
        cnt = _count_open(chain, (lo, den), (hi, den))
        if cnt == 0:
            continue
        if cnt == 1 and _sign(g, lo, den) and _sign(g, hi, den):
            out.append((Fraction(lo, den), Fraction(hi, den)))
            continue
        lo, mid, hi, den = 2 * lo, lo + hi, 2 * hi, 2 * den
        if _sign(g, mid, den):
            stack += [(lo, mid, den), (mid, hi, den)]
            continue
        out.append((Fraction(mid, den),) * 2)
        # step a quarter of the interval off the root mid, halved until
        # (mid - eps, mid + eps) holds no other root and ends at none
        lo, mid, hi, den = 2 * lo, 2 * mid, 2 * hi, 2 * den
        eps = (hi - lo) // 4
        while (_count_open(chain, (mid - eps, den), (mid + eps, den)) > 1
               or not _sign(g, mid - eps, den) or not _sign(g, mid + eps, den)):
            lo, mid, hi, den = 2 * lo, 2 * mid, 2 * hi, 2 * den
        stack += [(lo, mid - eps, den), (mid + eps, hi, den)]
    return sorted(out)
