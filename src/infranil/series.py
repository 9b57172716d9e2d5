"""Linear-recurrence reconstruction and canonical rational-function products.

A generating series S(z) = sum_{k>=1} c_k z^k built from exact fixed-point
data satisfies a short linear recurrence.  Berlekamp-Massey recovers the
minimal one, and `exponents_from_logderiv` inverts

    S(z) = sum_i e_i * z q_i'(z) / q_i(z)

to the canonical product  prod_i q_i(z)^{e_i}  with integer exponents and
irreducible integer factors normalized to q(0) = 1.  That product is the
zeta function of the sequence, since z (log Z)'(z) = S(z).
"""

from __future__ import annotations

from math import gcd
from operator import mul

from .errors import InfranilError, ReconstructionError
from .exprs import exact_number
from .polynomials import IntPoly, exact_quotient, factor_over_q
from .records import Record


def extend_recurrence(s: list, rec, total: int) -> list:
    """Extend s in place to `total` terms by s_k = rec[0] s_(k-m) + ... +
    rec[m-1] s_(k-1), m = len(rec), and return it; s needs m terms unless
    it is long enough already.  Orders 1-3, every order that n <= 3 gives
    the trace sequences and Newton sums, roll the last m terms in locals;
    a longer recurrence takes a dot product per term."""
    m, count = len(rec), total - len(s)
    if count <= 0:
        return s
    if m == 3:
        a, b, c = rec
        x, y, z = s[-3:]
        for _ in range(count):
            x, y, z = y, z, a * x + b * y + c * z
            s.append(z)
    elif m == 2:
        b, c = rec
        y, z = s[-2:]
        for _ in range(count):
            y, z = z, b * y + c * z
            s.append(z)
    elif m == 1:
        (c,), z = rec, s[-1]
        for _ in range(count):
            z *= c
            s.append(z)
    else:
        for k in range(len(s), total):
            s.append(sum(map(mul, rec, s[k - m:])))
    return s


def berlekamp_massey_q(seq, bound: int):
    """Minimal rational form of S(z) = sum_{k>=1} seq[k-1] z^k, in integers.

    Returns IntPolys (num, den) with den(0) = 1, deg num <= deg den <=
    bound, and the expansion of num/den reproducing every supplied term
    (terms beyond the 2*bound+2 fitting window are held out).  The fit is fraction-free: an
    update scales the connection polynomial by the old discrepancy instead of
    dividing by it, then divides out its content.  A rational power series
    with integer terms has an integral reduced denominator with den(0) = 1
    (Fatou's lemma), so the final primitive polynomial must have constant
    term +-1, and the check (S * den)_k = 0 for every supplied k > L = deg den
    runs in integers.  Raises ReconstructionError on a non-integral term or
    den, on an order above `bound`, and when the check fails.

    The check recomputes (S * den)_k only for k up to the step of the last
    update (the numerator, k <= L, among them) and for the held-out terms.
    Every step after the last update computed its discrepancy, which is
    +-(S * den)_k, with the final connection polynomial and found it 0, so
    those terms are already proved zero.
    """
    try:
        s = [exact_number(c, "term", True) for c in seq]
    except InfranilError as exc:
        raise ReconstructionError(f"the sequence has a non-integral term: {exc}") from None
    window = 2 * bound + 2
    if len(s) < window:
        raise ReconstructionError(
            f"need at least {window} terms for bound {bound}, got {len(s)}"
        )
    # r[t] = s[last - t], so the window r[last - n:last - n + L + 1] is
    # s_n, s_(n-1), ..., s_(n-L), against cur (of degree <= L)
    r, last = s[::-1], len(s) - 1
    cur, prev, L, m, b, updated = [1], [1], 0, 1, 1, -1
    for n in range(window):
        d = sum(map(mul, cur, r[last - n:last - n + L + 1]))
        if d == 0:
            m += 1
            continue
        new = [b * c for c in cur] + [0] * (m + len(prev) - len(cur))
        for i, pv in enumerate(prev):
            new[m + i] -= d * pv
        g = gcd(*new)
        new = [c // g for c in new]
        if 2 * L <= n:
            L, prev, b, m = n + 1 - L, cur, d, 1
        else:
            m += 1
        cur, updated = new, n
    if L > bound:
        raise ReconstructionError(f"recurrence order {L} exceeds bound {bound}")
    if abs(cur[0]) != 1:
        raise ReconstructionError(f"recurrence of order {L} is not integral")
    den = [c * cur[0] for c in cur[: L + 1]]
    # (S * den)_(k+1) for k = 0..updated and k = window..last; S has no
    # constant term, and an update at step n leaves L <= n + 1
    head = [sum(map(mul, den, r[last - k:last - k + L + 1])) for k in range(updated + 1)]
    if any(head[L:]) or any(
        sum(map(mul, den, r[t:t + L + 1])) for t in range(last - window, -1, -1)
    ):
        raise ReconstructionError("reconstructed series does not reproduce the data")
    return IntPoly([0] + head[:L]), IntPoly(den)


def normalize_factor(q: IntPoly) -> IntPoly:
    c0 = q.constant()
    if c0 == 1:
        return q
    if c0 == -1:
        return IntPoly([-c for c in q.coeffs])
    raise ReconstructionError(f"factor {q} cannot be normalized to q(0) = 1")


class RatFuncProduct(Record):
    """Canonical product prod q_i(z)^{e_i}: q_i irreducible primitive integer
    polynomials with q_i(0) = 1, e_i nonzero integers, factors sorted by
    (degree, coefficients).  The empty product is the constant 1."""

    __slots__ = ("factors",)
    _fields = __slots__

    def __init__(self, factors: tuple):
        self._set_fields(factors)

    @staticmethod
    def one() -> "RatFuncProduct":
        return RatFuncProduct(())

    @staticmethod
    def from_irreducibles(pairs) -> "RatFuncProduct":
        """Build from (irreducible IntPoly with q(0)=1, exponent) pairs,
        merging duplicates and dropping zero exponents.  Exponents are
        admitted by `exact_number` as integers."""
        merged = {}
        for q, e in pairs:
            e = exact_number(e, "exponent", True)
            if q.constant() != 1:
                raise ReconstructionError(f"factor {q} does not satisfy q(0) = 1")
            if q.degree < 1:
                if q.coeffs == (1,):
                    continue
                raise ReconstructionError(f"constant factor {q} is not 1")
            merged[q] = merged.get(q, 0) + e
        items = [(q, e) for q, e in merged.items() if e != 0]
        items.sort(key=lambda fe: fe[0].sort_key())
        return RatFuncProduct(tuple(items))

    @staticmethod
    def from_factors(pairs) -> "RatFuncProduct":
        """Build from arbitrary (QPoly, exponent) pairs.  Every polynomial
        must have constant term 1; each is factored over Q and the
        irreducible pieces are normalized to q(0) = 1.  Exponents are
        admitted by `exact_number` as integers."""
        out = []
        for poly, e in pairs:
            e = exact_number(e, "exponent", True)
            if poly.is_zero():
                raise ReconstructionError("zero polynomial in a product")
            if poly[0] != 1:
                raise ReconstructionError(f"product factor {poly} has constant term != 1")
            if poly.degree == 0:
                continue
            for q, mult in factor_over_q(poly.to_int()[0]):
                if q.coeffs == (0, 1):
                    raise ReconstructionError("factor divisible by z cannot appear")
                out.append((normalize_factor(q), mult * e))
        return RatFuncProduct.from_irreducibles(out)

    def __mul__(self, other: "RatFuncProduct") -> "RatFuncProduct":
        return RatFuncProduct.from_irreducibles(list(self.factors) + list(other.factors))

    def reciprocal(self) -> "RatFuncProduct":
        return RatFuncProduct(tuple((q, -e) for q, e in self.factors))

    def __truediv__(self, other: "RatFuncProduct") -> "RatFuncProduct":
        return self * other.reciprocal()

    def subs_neg_z(self) -> "RatFuncProduct":
        return RatFuncProduct.from_irreducibles(
            (q.subs_neg_x(), e) for q, e in self.factors
        )

    def num_den(self):
        """(numerator, denominator) as integer polynomials."""
        num = IntPoly([1])
        den = IntPoly([1])
        for q, e in self.factors:
            for _ in range(abs(e)):
                if e > 0:
                    num = num * q
                else:
                    den = den * q
        return num, den

    def logderiv_series(self, nterms: int):
        """Coefficients c_1..c_nterms of z * d/dz log(self), as ints.  Each
        factor has q(0) = 1, so the series s of z q'/q obeys the integer
        recurrence s_k = k q_k - sum_{i=1..k-1} q_i s_{k-i}: for k > deg q,
        the order deg q recurrence of `extend_recurrence`."""
        out = [0] * nterms
        for q, e in self.factors:
            c, d = q.coeffs, q.degree
            s = []
            for k in range(1, min(d, nterms) + 1):
                s.append(k * c[k] - sum(c[i] * s[k - 1 - i] for i in range(1, k)))
            extend_recurrence(s, [-c[d - t] for t in range(d)], nterms)
            out = [o + e * v for o, v in zip(out, s)]
        return out

    def to_json(self):
        return [{"poly": list(q.coeffs), "exp": e} for q, e in self.factors]

    @staticmethod
    def from_json(data) -> "RatFuncProduct":
        """The product `to_json` wrote.  A coefficient or an exponent that
        is not an integer (a float, a string, a bool) raises InfranilError
        naming it, so a corrupted product is never truncated, parsed or read
        as another one."""
        return RatFuncProduct.from_irreducibles(
            (IntPoly(item["poly"]), item["exp"]) for item in data
        )

    def __str__(self):
        if not self.factors:
            return "1"
        num, den = self.num_den()
        if den.coeffs == (1,):
            return f"({num})"
        return f"({num}) / ({den})"

    __repr__ = __str__


def rfp_equal(a: RatFuncProduct, b: RatFuncProduct) -> bool:
    """Structural equality of canonical products."""
    return a.factors == b.factors


def parity_signs(p: int, n: int):
    """(sigma, eps) = ((-1)^n, (-1)^(p+n)): the parity case table of the
    Nielsen zeta in one rule, N_f(z) = B(sigma z)^eps, with B = L_f on
    index 1 and L_f+/L_f on index 2.  Term by term it reads
    N(f^k) = eps sigma^k (L(f^k), or L(f_+^k) - L(f^k) on index 2)."""
    sigma = -1 if n % 2 else 1
    return sigma, sigma if p % 2 == 0 else -sigma


def factor_with_hints(p: IntPoly, hints):
    """Factor p over a list of known primitive irreducible candidate
    divisors, by exact trial division in integers.  Returns
    [(hint, multiplicity), ...]; a factor of p that no hint divides raises
    ReconstructionError."""
    out = {}
    work = p
    seen = set()
    for h in hints:
        if h in seen or h.degree < 1:
            continue
        seen.add(h)
        while h.degree <= work.degree:
            quo = exact_quotient(work, h)
            if quo is None:
                break
            out[h] = out.get(h, 0) + 1
            work = quo
    if work.degree > 0:
        raise ReconstructionError(f"factor {work} of the denominator is not among the hints")
    return list(out.items())


def _exponent_at(num: IntPoly, term: IntPoly, q: IntPoly) -> int:
    """The e with num = e * term mod q, read from one coefficient.

    q(0) = 1, so division by q in increasing powers of z is exact in
    integers: it takes a polynomial of degree <= d to z^s R mod q, with
    s = d - deg q + 1 and deg R < deg q.  z is a unit mod q, so
    R_num = e R_term."""
    d = max(num.degree, term.degree)
    s = d - q.degree + 1
    rems = []
    for p in (num, term):
        a = list(p.coeffs) + [0] * (d + 1 - len(p.coeffs))
        for k in range(s):
            for j, c in enumerate(q.coeffs[1:], start=k + 1):
                a[j] -= a[k] * c
        rems.append(a[s:])
    r_num, r_term = rems
    i = next((k for k, c in enumerate(r_term) if c), 0)
    if not r_term[i] or r_num[i] % r_term[i]:
        raise ReconstructionError(f"no integer exponent for factor {q}")
    return r_num[i] // r_term[i]


def exponents_from_logderiv(num: IntPoly, den: IntPoly, hints) -> RatFuncProduct:
    """Invert S = num/den (den(0)=1, den squarefree) to the
    canonical product Z with z (log Z)' = S, in integers.  Each factor q_i of
    den has the term z q_i' (den / q_i); every other term is divisible by
    q_i, so its exponent is read from num = e_i z q_i' (den / q_i) mod q_i.
    The result is verified by cross-multiplication, the only arbiter.

    den is factored over `hints`, primitive irreducible integer polynomials
    (`factor_with_hints`; in the engine the factors of det(I - z Lambda^j D)
    and their z -> -z twists), and over nothing else.
    """
    if den.constant() != 1:
        raise ReconstructionError("denominator must satisfy den(0) = 1")
    if num.is_zero():
        return RatFuncProduct.one()
    factors = factor_with_hints(den, hints)
    if any(m > 1 for _, m in factors):
        raise ReconstructionError("denominator is not squarefree")
    # z q' (den / q) per factor, for the read and the check
    terms = {
        q: IntPoly([i * c for i, c in enumerate(q.coeffs)]) * exact_quotient(den, q)
        for q in (normalize_factor(q) for q, _ in factors)
    }
    result = RatFuncProduct.from_irreducibles((q, _exponent_at(num, t, q)) for q, t in terms.items())
    # verify: z (log result)' == num/den exactly
    check = [0] * (den.degree + 1)
    for q, e in result.factors:
        for k, c in enumerate(terms[q].coeffs):
            check[k] += e * c
    if IntPoly(check) != num:
        raise ReconstructionError("reconstructed product does not match the series")
    return result
