import random
import re
from fractions import Fraction

import pytest

from infranil.errors import InfranilError, ReconstructionError
from infranil.polynomials import IntPoly, QPoly, factor_over_q
from infranil.series import (
    RatFuncProduct,
    berlekamp_massey_q,
    exponents_from_logderiv,
    extend_recurrence,
    rfp_equal,
)


def expand_ratfunc(num: IntPoly, den: IntPoly, nterms: int):
    """Coefficients c_1..c_nterms of num/den as a power series (den(0) != 0):
    the Fraction oracle for the integer check of `berlekamp_massey_q`."""
    num, den = num.to_qpoly(), den.to_qpoly()
    if den.is_zero() or den[0] == 0:
        raise ReconstructionError("series expansion needs den(0) != 0")
    inv0 = Fraction(1) / den[0]
    out = []
    prev = []  # c_0..c_{k-1}
    c0 = num[0] * inv0
    prev.append(c0)
    for k in range(1, nterms + 1):
        ck = num[k] - sum(den[i] * prev[k - i] for i in range(1, min(k, den.degree) + 1))
        ck *= inv0
        prev.append(ck)
        out.append(ck)
    return out


def geometric_sum(terms, n):
    """c_k = sum of sign * base^k for (sign, base) pairs."""
    return [sum(s * b ** k for s, b in terms) for k in range(1, n + 1)]


def test_bm_power_sequence():
    # c_k = 3^k - 1  ->  S = 2z / ((1-z)(1-3z))
    seq = geometric_sum([(1, 3), (-1, 1)], 20)
    num, den = berlekamp_massey_q(seq, 4)
    assert den == IntPoly([1, -4, 3])
    assert num == IntPoly([0, 2])
    assert expand_ratfunc(num, den, 30) == geometric_sum([(1, 3), (-1, 1)], 30)


def test_bm_zero_and_geometric():
    num, den = berlekamp_massey_q([0] * 12, 2)
    assert num.is_zero() and den == IntPoly([1])
    num, den = berlekamp_massey_q([1] * 12, 2)
    assert (num, den) == (IntPoly([0, 1]), IntPoly([1, -1]))


def test_bm_bound_violation():
    seq = geometric_sum([(1, 2), (1, 3), (1, 5)], 20)
    with pytest.raises(ReconstructionError):
        berlekamp_massey_q(seq, 2)


def test_bm_needs_enough_terms():
    with pytest.raises(ReconstructionError):
        berlekamp_massey_q([1, 2], 4)


def test_bm_roundtrip_random():
    rng = random.Random(23)
    for _ in range(20):
        terms = [(rng.choice([1, -1]), rng.randint(-4, 4)) for _ in range(rng.randint(1, 3))]
        seq = geometric_sum(terms, 2 * 8 + 12)
        num, den = berlekamp_massey_q(seq, 8)
        assert expand_ratfunc(num, den, len(seq)) == seq


def test_bm_single_corrupted_term_is_caught_or_reproduced():
    """Seeded integer recurrences of orders 1-8 and the zero sequence, bound
    8, with one supplied term changed: in the fitting window up to step
    2L - 1 (where every update happens), in the rest of the window (the
    terms whose check the discrepancies already made), and in the held-out
    tail, its first and last terms included.  Each call raises or returns a
    form that reproduces every supplied term; a held-out change leaves the
    window's fit alone, so it must raise.  A change to the zero sequence
    touches one term of S * den, so a check that skips any held-out term
    fails here."""
    rng = random.Random(31)
    bound, held = 8, 6
    window = 2 * bound + 2
    for order in range(9):
        for _ in range(6):
            rec = [rng.choice([-2, -1, 1, 2])] + [rng.randint(-3, 3) for _ in range(order - 1)]
            rec = rec if order else []
            seq = extend_recurrence([rng.randint(-5, 5) for _ in range(order)], rec, window + held)
            _, den = berlekamp_massey_q(seq, bound)
            fit = 2 * den.degree
            positions = [rng.randrange(fit) if fit else 0, rng.randrange(fit, window),
                         window, rng.randrange(window, len(seq)), len(seq) - 1]
            for pos in positions:
                bad = list(seq)
                bad[pos] += rng.choice([-3, -1, 1, 2])
                try:
                    num, den = berlekamp_massey_q(bad, bound)
                except ReconstructionError:
                    continue
                assert pos < window, (order, rec, pos)
                assert expand_ratfunc(num, den, len(bad)) == bad, (order, rec, pos)


def q_hints(den: IntPoly) -> list:
    """den's factors over Q, as the hints of `exponents_from_logderiv`."""
    return [q for q, _ in factor_over_q(den)]


def test_exponents_klein_bottle_shape():
    # c_k = 3^k - 1 -> (1-z)/(1-3z)
    seq = geometric_sum([(1, 3), (-1, 1)], 20)
    num, den = berlekamp_massey_q(seq, 4)
    rfp = exponents_from_logderiv(num, den, q_hints(den))
    assert rfp.factors == ((IntPoly([1, -3]), -1), (IntPoly([1, -1]), 1))
    assert str(rfp) == "(1 - z) / (1 - 3*z)"


def test_exponents_zero_series():
    rfp = exponents_from_logderiv(IntPoly(), IntPoly([1]), q_hints(IntPoly([1])))
    assert rfp == RatFuncProduct.one()


def test_exponents_two_term_difference():
    # c_k = 15^k - 5^k -> (1-5z)/(1-15z)
    seq = geometric_sum([(1, 15), (-1, 5)], 24)
    num, den = berlekamp_massey_q(seq, 4)
    rfp = exponents_from_logderiv(num, den, q_hints(den))
    assert rfp == RatFuncProduct.from_factors([(QPoly([1, -5]), 1), (QPoly([1, -15]), -1)])


def test_exponents_with_multiplicity_grouping():
    # c_k = 2 * 2^k: exponent -2 on (1-2z)
    seq = geometric_sum([(1, 2), (1, 2)], 20)
    num, den = berlekamp_massey_q(seq, 4)
    rfp = exponents_from_logderiv(num, den, q_hints(den))
    assert rfp.factors == ((IntPoly([1, -2]), -2),)


def test_exponents_non_integer_rejected():
    # c_k = k 2^k has a double pole: not of the product form
    seq = [k * 2 ** k for k in range(1, 21)]
    num, den = berlekamp_massey_q(seq, 4)
    with pytest.raises(ReconstructionError):
        exponents_from_logderiv(num, den, q_hints(den))


def test_logderiv_series_roundtrip():
    rfp = RatFuncProduct.from_factors([(QPoly([1, -5]), 1), (QPoly([1, -15]), -1)])
    assert rfp.logderiv_series(6) == geometric_sum([(1, 15), (-1, 5)], 6)


def generator_logderiv_series(rfp, nterms):
    """The log-derivative series by the per-term generator sum
    s_k = k q_k - sum_{i=1..min(k-1, d)} q_i s_{k-i}: the oracle for the
    dot-product form in `RatFuncProduct.logderiv_series`."""
    out = [0] * nterms
    for q, e in rfp.factors:
        c, d = q.coeffs, q.degree
        s = []
        for k in range(1, nterms + 1):
            v = k * c[k] if k <= d else 0
            s.append(v - sum(c[i] * s[k - 1 - i] for i in range(1, min(k - 1, d) + 1)))
        out = [o + e * v for o, v in zip(out, s)]
    return out


def test_logderiv_series_matches_generator_sum():
    """Seeded random products of degree 1-3 factors with q(0) = 1 and
    exponents of both signs, for nterms 0, 1, below the largest degree and
    well past it."""
    rng = random.Random(41)
    seen = set()
    for _ in range(60):
        pairs = []
        for _ in range(rng.randint(1, 4)):
            d = rng.randint(1, 3)
            coeffs = [1] + [rng.randint(-9, 9) for _ in range(d - 1)] + [rng.choice([-1, 1]) * rng.randint(1, 9)]
            pairs.append((IntPoly(coeffs), rng.choice([-3, -2, -1, 1, 2, 3])))
        rfp = RatFuncProduct.from_irreducibles(pairs)
        seen |= {(q.degree, e < 0) for q, e in rfp.factors}
        top = max((q.degree for q, _ in rfp.factors), default=0)
        for nterms in sorted({0, 1, max(top - 1, 0), top, 25}):
            assert rfp.logderiv_series(nterms) == generator_logderiv_series(rfp, nterms), (rfp, nterms)
    assert seen == {(d, neg) for d in (1, 2, 3) for neg in (False, True)}
    assert RatFuncProduct.one().logderiv_series(3) == [0, 0, 0]


def slice_recurrence(start, rec, total):
    """s_k = rec[0] s_(k-m) + ... + rec[m-1] s_(k-1) by one slice per term:
    the oracle for `extend_recurrence`."""
    s, m = list(start), len(rec)
    for k in range(len(s), total):
        s.append(sum(r * v for r, v in zip(rec, s[k - m:k])))
    return s


def test_extend_recurrence_matches_slices():
    """Orders 1-3 (rolled in locals) and 4 (the dot-product fallback), with
    totals below, at and past the supplied terms."""
    rng = random.Random(14)
    for m in (1, 2, 3, 4):
        for _ in range(25):
            rec = [rng.randint(-9, 9) for _ in range(m)]
            start = [rng.randint(-99, 99) for _ in range(m + rng.randint(0, 2))]
            for total in (0, m - 1, len(start), len(start) + 1, 30):
                s = list(start)
                assert extend_recurrence(s, rec, total) is s
                assert s == slice_recurrence(start, rec, total), (rec, start, total)
        # fewer than m terms is fine while nothing is added
        assert extend_recurrence([5], [1] * m, 1) == [5]


def test_logderiv_series_order_four_fallback():
    """A degree-4 factor takes the fallback of `extend_recurrence`; nterms
    runs from 0, below every factor's degree, to well past it."""
    rfp = RatFuncProduct.from_irreducibles([
        (IntPoly([1, -3, 0, 2, -5]), 2),
        (IntPoly([1, 0, 0, 0, 7]), -1),
        (IntPoly([1, 4, -2, 1]), 1),
        (IntPoly([1, -7]), -3),
    ])
    assert max(q.degree for q, _ in rfp.factors) == 4
    for nterms in list(range(7)) + [25]:
        assert rfp.logderiv_series(nterms) == generator_logderiv_series(rfp, nterms), nterms


def test_rfp_canonical_and_transforms():
    a = RatFuncProduct.from_factors([(QPoly([1, -4, 3]), 1), (QPoly([1, -1]), -1)])
    # (1-z)(1-3z)/(1-z) = (1-3z)
    assert a.factors == ((IntPoly([1, -3]), 1),)
    neg = a.subs_neg_z()
    assert neg.factors == ((IntPoly([1, 3]), 1),)
    assert rfp_equal(neg.subs_neg_z(), a)
    rec = a.reciprocal()
    assert rec.factors == ((IntPoly([1, -3]), -1),)
    assert rfp_equal(rec.reciprocal(), a)
    assert rfp_equal(RatFuncProduct.one().subs_neg_z(), RatFuncProduct.one())


def test_rfp_mul_div():
    a = RatFuncProduct.from_factors([(QPoly([1, -3]), 1), (QPoly([1, -1]), -1)])
    b = RatFuncProduct.from_factors([(QPoly([1, -3]), 1)])
    assert (a / b).factors == ((IntPoly([1, -1]), -1),)
    assert rfp_equal(a / a, RatFuncProduct.one())


def test_rfp_inequality_example():
    a = RatFuncProduct.from_factors([(QPoly([1, -1]), 2), (QPoly([1, -3, 1]), -1)])
    b = a.reciprocal()
    assert not rfp_equal(a, b)


def test_rfp_rejects_bad_constant():
    with pytest.raises(ReconstructionError):
        RatFuncProduct.from_factors([(QPoly([2, -1]), 1)])


def test_rfp_json_roundtrip():
    a = RatFuncProduct.from_factors([(QPoly([1, -5]), 1), (QPoly([1, -15]), -1)])
    assert RatFuncProduct.from_json(a.to_json()) == a


@pytest.mark.parametrize("poly, exp, bad", [
    ([1, -2.7], 1, "-2.7"), ([1, "7"], 1, "'7'"), ([1, -2.0], 1, "-2.0"),
    ([1, -2], 1.5, "1.5"), ([1, -2], "2", "'2'"),
])
def test_rfp_from_json_rejects_non_integers(poly, exp, bad):
    """A corrupted `--json` product raises, naming the coefficient or the
    exponent, instead of reading [1, -2.7] as 1 - 2*z or 1.5 as 1."""
    with pytest.raises(InfranilError, match=re.escape(bad)):
        RatFuncProduct.from_json([{"poly": poly, "exp": exp}])


@pytest.mark.parametrize("data, bad", [
    ([{"poly": [1, -2]}], "{'poly': [1, -2]}"),
    ([{"exp": 1}], "{'exp': 1}"),
    ({"poly": [1, -2], "exp": 1}, "{'poly': [1, -2], 'exp': 1}"),
    ([[1, -2]], "[1, -2]"),
    ([{"poly": 5, "exp": 1}], "{'poly': 5, 'exp': 1}"),
    (None, "None"),
])
def test_rfp_from_json_rejects_malformed_products(data, bad):
    """A product that is not a list of {"poly": list, "exp": ...} items
    raises InfranilError naming what is wrong, not a KeyError or a
    TypeError."""
    with pytest.raises(InfranilError, match=re.escape(bad)):
        RatFuncProduct.from_json(data)


@pytest.mark.parametrize("build, pairs, bad", [
    (RatFuncProduct.from_factors, [(QPoly([1, -2]), 2.9)], "2.9"),
    (RatFuncProduct.from_irreducibles, [(IntPoly([1, -2]), 1.5)], "1.5"),
    (RatFuncProduct.from_factors, [(QPoly([1, -2]), Fraction(2, 3))], "Fraction(2, 3)"),
    (RatFuncProduct.from_irreducibles, [(IntPoly([1]), 0.5)], "0.5"),
])
def test_rfp_constructors_reject_non_integer_exponents(build, pairs, bad):
    """A non-int exponent raises the from_json error, naming it, instead of
    being truncated: 2.9 is not read as 2, nor 1.5 as 1."""
    with pytest.raises(InfranilError, match=re.escape(f"exponent {bad} is not an integer")):
        build(pairs)


def test_bm_heldout_terms_catch_corruption():
    # the fitting window of bound 4 is 10 terms; every later one is held out
    for k in (10, 11, 19):
        seq = geometric_sum([(1, 3), (-1, 1)], 20)
        seq[k] += 1  # corrupt a held-out term
        with pytest.raises(ReconstructionError):
            berlekamp_massey_q(seq, 4)


def test_bm_rejects_non_integral_data():
    seq = geometric_sum([(1, 3), (-1, 1)], 20)
    seq[3] += Fraction(1, 2)
    with pytest.raises(ReconstructionError, match="non-integral term"):
        berlekamp_massey_q(seq, 4)
    # every supplied term follows s_k = s_(k-1) / 2, but a rational series
    # with integer terms has an integral denominator
    with pytest.raises(ReconstructionError, match="not integral"):
        berlekamp_massey_q([32, 16, 8, 4, 2, 1], 2)


def test_rfp_canonicalization_idempotent():
    a = RatFuncProduct.from_factors([(QPoly([1, -5]), 1), (QPoly([1, -15]), -1)])
    again = RatFuncProduct.from_irreducibles(a.factors)
    assert again == a and again.factors == a.factors


def test_exponents_rejects_bad_denominator():
    with pytest.raises(ReconstructionError):
        exponents_from_logderiv(IntPoly([0, 1]), IntPoly([2, -1]), q_hints(IntPoly([2, -1])))
    with pytest.raises(ReconstructionError):
        # squarefree violation: (1 - z)^2
        exponents_from_logderiv(IntPoly([0, 1]), IntPoly([1, -2, 1]), q_hints(IntPoly([1, -2, 1])))


def test_exponents_hints_must_cover_denominator():
    # c_k = 3^k - 1: denominator (1 - z)(1 - 3z)
    num, den = berlekamp_massey_q(geometric_sum([(1, 3), (-1, 1)], 20), 4)
    full = [IntPoly([1, -1]), IntPoly([1, -3])]
    assert (exponents_from_logderiv(num, den, full)
            == exponents_from_logderiv(num, den, q_hints(den)))
    with pytest.raises(ReconstructionError):
        exponents_from_logderiv(num, den, full[1:])
