"""Real-root isolation by integer bisection, kept as a test oracle.

The engine classifies a factor's real roots against -1 and 1 from sign
variations alone (`polynomials.unit_split`), so it forms no isolating
interval.  The oracles that do need one — the modulus split's number field
in `modulus_split`, the float comparison of the acceptance criteria, the
references of `test_spectrum` — take it from `isolate_real_roots` here.
"""

from fractions import Fraction

from infranil.polynomials import _count_open, _sign, _sturm_chain


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
