"""Oracles for the integer spectrum and the per-factor exponent read.

The `Fraction` implementations that the integer code replaced are kept here
as references: the Sturm chain, root isolation, root classification and
factor analysis over QPoly, and the exponent solve by `oracles.solve_columns`.
sympy gives an independent count of real roots and isolating intervals.
"""

import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from infranil import series
from infranil.errors import InfranilError, ReconstructionError
from infranil.fixedpoint import (
    GT1,
    INSIDE,
    LTM1,
    MINUS_ONE,
    ONE,
    EigenClass,
    FactorRoots,
    _analyze_factor,
    _number_sequences,
    det_table,
    eigen_classify,
    exterior_data,
    positive_part,
)
from infranil.matrices import QMatrix, charpoly
from infranil.polynomials import IntPoly, QPoly, factor_over_q
from infranil.selfmaps import family_instantiate, load_corpus, sample_params
from infranil.series import (
    RatFuncProduct,
    berlekamp_massey_q,
    exponents_from_logderiv,
    factor_with_hints,
    normalize_factor,
)
from infranil.zeta import candidate_factor_hints, recurrence_bound, sequence_length
from oracles import solve_columns
from real_roots import isolate_real_roots, sturm_count

F = Fraction
X = sympy.Symbol("x")


# ---------------------------------------------------------------------------
# Reference: the Fraction Sturm machinery and spectrum analysis
# ---------------------------------------------------------------------------


def ref_squarefree_part(p: QPoly) -> QPoly:
    if p.degree <= 0:
        return p.monic()
    a, b = p, p.derivative()
    while not b.is_zero():
        a, b = b, a % b
    return (p // a.monic()).monic()


def ref_sturm_chain(p: QPoly):
    chain = [p, p.derivative()]
    while not chain[-1].is_zero():
        chain.append(-(chain[-2] % chain[-1]))
    chain.pop()
    return chain


def ref_sign_at(p: QPoly, x) -> int:
    if p.is_zero():
        return 0
    if isinstance(x, float):
        s = 1 if p.leading() > 0 else -1
        return s if x > 0 or p.degree % 2 == 0 else -s
    v = p(x)
    return (v > 0) - (v < 0)


def ref_variations(chain, x) -> int:
    signs = [s for s in (ref_sign_at(p, x) for p in chain) if s != 0]
    return sum(1 for a, b in zip(signs, signs[1:]) if a * b < 0)


def ref_sturm_count(poly: QPoly, lo, hi) -> int:
    sf = ref_squarefree_part(poly)
    chain = ref_sturm_chain(sf)
    count = ref_variations(chain, lo) - ref_variations(chain, hi)
    if not isinstance(hi, float) and sf(hi) == 0:
        count -= 1
    return count


def ref_isolate_real_roots(poly: QPoly) -> list:
    sf = ref_squarefree_part(poly)
    if sf.degree <= 0:
        return []
    chain = ref_sturm_chain(sf)

    def count_open(a, b):
        c = ref_variations(chain, a) - ref_variations(chain, b)
        if sf(b) == 0:
            c -= 1
        return c

    bound = 1 + max((abs(c) for c in sf.coeffs[:-1]), default=F(0)) / abs(sf.leading())
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
            while ref_sturm_count(sf, mid - eps, mid + eps) > 1:
                eps /= 2
            stack.append((lo, mid - eps, count_open(lo, mid - eps)))
            stack.append((mid + eps, hi, count_open(mid + eps, hi)))
        else:
            stack.append((lo, mid, count_open(lo, mid)))
            stack.append((mid, hi, count_open(mid, hi)))
    return sorted(out)


def ref_classify_real_root(q: QPoly, lo, hi):
    if lo == hi:
        v = lo
        if v == 1:
            return ONE
        if v == -1:
            return MINUS_ONE
        if v > 1:
            return GT1
        if v < -1:
            return LTM1
        return INSIDE
    while True:
        if hi <= -1:
            return LTM1
        if lo >= 1:
            return GT1
        if lo >= -1 and hi <= 1:
            return INSIDE
        mid = (lo + hi) / 2
        if q(mid) == 0:
            return ref_classify_real_root(q, mid, mid)
        if q(lo) * q(mid) < 0:
            hi = mid
        else:
            lo = mid


def ref_analyze_factor(q: IntPoly, mult: int) -> FactorRoots:
    """The layout by Fraction isolation and bisection against -1 and 1; the
    spectrum keeps only the classes, in the intervals' ascending order."""
    qq = q.to_qpoly()
    deg = q.degree
    if deg == 1:
        root = -F(q.coeffs[0], q.coeffs[1])
        return FactorRoots(q, mult, (ref_classify_real_root(qq, root, root),), None)
    if deg == 2:
        c0, c1, c2 = q.coeffs
        if c1 * c1 - 4 * c0 * c2 < 0:
            mod2 = F(c0, c2)
            return FactorRoots(q, mult, (), "eq" if mod2 == 1 else ("gt" if mod2 > 1 else "lt"))
        real = tuple(ref_classify_real_root(qq, *iv) for iv in ref_isolate_real_roots(qq))
        return FactorRoots(q, mult, real, None)
    intervals = ref_isolate_real_roots(qq)
    real = tuple(ref_classify_real_root(qq, *iv) for iv in intervals)
    pair = None
    if len(intervals) == 1:
        bound = abs(F(q.coeffs[0], q.coeffs[3]))
        pair = "gt" if ref_sturm_count(qq, -bound, bound) == 1 else "lt"
    return FactorRoots(q, mult, real, pair)


def ref_eigen_classify(dstar: QMatrix) -> EigenClass:
    cp = charpoly(dstar).to_int()[0]
    factors = factor_over_q(cp)
    data, classes = [], []
    p = n = gt_total = 0
    for q, mult in factors:
        fr = ref_analyze_factor(q, mult)
        data.append(fr)
        lt, eq, gt = fr.modulus_counts()
        classes.append((lt * mult, eq * mult, gt * mult))
        gt_total += gt * mult
        p += mult * fr.real.count(GT1)
        n += mult * fr.real.count(LTM1)
    return EigenClass(cp, tuple(factors), tuple(data), tuple(classes), p, n, gt_total)


# ---------------------------------------------------------------------------
# Reference: the exponent solve as one rational linear system
# ---------------------------------------------------------------------------


def ref_exponents_from_logderiv(num: IntPoly, den: IntPoly, hints=None) -> RatFuncProduct:
    if num.is_zero():
        return RatFuncProduct.one()
    factors = factor_with_hints(den, hints)
    num, den = num.to_qpoly(), den.to_qpoly()
    assert all(m == 1 for _, m in factors)
    qs = [normalize_factor(q) for q, _ in factors]
    d = den.degree
    basis = {}
    cols = []
    for q in qs:
        qq = q.to_qpoly()
        col = basis[q] = QPoly([0] + list(qq.derivative().coeffs)) * (den // qq)
        cols.append([col[k] for k in range(1, d + 1)])
    rhs = QMatrix([[num[k]] for k in range(1, d + 1)])
    mat = QMatrix([[cols[j][k] for j in range(len(qs))] for k in range(d)])
    sol = solve_columns(mat, rhs)
    assert sol is not None
    exps = [sol[i, 0] for i in range(len(qs))]
    assert all(e.denominator == 1 for e in exps)
    result = RatFuncProduct.from_irreducibles((q, int(e)) for q, e in zip(qs, exps))
    check = QPoly()
    for q, e in result.factors:
        check = check + e * basis[q]
    assert check == num
    return result


# ---------------------------------------------------------------------------
# Candidate sets
# ---------------------------------------------------------------------------


def corpus_candidates():
    return [
        family_instantiate(spec, params)
        for spec in load_corpus().families
        for params in sample_params(spec, 1, 1)
    ]


def random_matrices(rng, count):
    """Integer 2x2 and 3x3 matrices with entries in [-9, 9], and upper
    triangular Heisenberg D* with half-integer top row."""
    out = []
    for _ in range(count):
        n = rng.choice((2, 3))
        out.append(QMatrix([[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]))
    halves = [F(q, 2) for q in range(-9, 10)]
    for _ in range(count // 10):
        a, b, c, d = (rng.randint(-9, 9) for _ in range(4))
        out.append(QMatrix([[a * d - b * c, rng.choice(halves), rng.choice(halves)],
                            [0, a, b], [0, c, d]]))
    return out


# ---------------------------------------------------------------------------
# The integer spectrum against the Fraction reference
# ---------------------------------------------------------------------------


def assert_spectra_match(matrices, label):
    for i, m in enumerate(matrices):
        assert eigen_classify(m) == ref_eigen_classify(m), (label, i, m)


def test_spectrum_matches_fraction_reference_on_corpus():
    cands = corpus_candidates()
    assert len(cands) == 264
    assert_spectra_match([c.dstar for c in cands], "corpus")


def test_spectrum_matches_fraction_reference_on_random_maps(bench_workloads):
    cands = [cand for seed in (1, 2) for cand in bench_workloads.random_maps_instances(seed)]
    assert len(cands) == 600
    assert_spectra_match([c.dstar for c in cands], "random-maps")


def test_spectrum_matches_fraction_reference_on_random_matrices():
    mats = random_matrices(random.Random(8), 2000)
    assert any(v.denominator == 2 for m in mats for row in m.rows for v in row)
    assert_spectra_match(mats, "random")


def test_real_root_machinery_matches_fraction_reference():
    """isolate_real_roots and sturm_count, repeated roots included, against
    the Fraction chain.  Where the reference steps off a rational root onto
    another root it loses that root; the integer isolation halves the step
    once more, so those inputs are checked against the root count instead."""
    rng = random.Random(12)
    lost = 0
    for coeffs in random_polynomials(rng, 300):
        p = QPoly(coeffs)
        expected = ref_isolate_real_roots(p)
        if len(expected) == sturm_count(p):
            assert isolate_real_roots(p) == expected, coeffs
        else:
            lost += 1
            assert len(isolate_real_roots(p)) == sturm_count(p) == len(expected) + 1, coeffs
        a, b = sorted(F(rng.randint(-40, 40), rng.choice((1, 2, 3, 4))) for _ in range(2))
        assert sturm_count(p, a, b) == ref_sturm_count(p, a, b), (coeffs, a, b)
        assert sturm_count(p, None, b) == ref_sturm_count(p, float("-inf"), b), (coeffs, b)
        assert sturm_count(p, a, None) == ref_sturm_count(p, a, float("inf")), (coeffs, a)
    assert 0 < lost < 30
    # -4x(x - 1)(x - 2): the reference steps from the root 0 onto the root 1
    p = QPoly([0, -8, 12, -4])
    assert len(ref_isolate_real_roots(p)) == 2
    ivals = isolate_real_roots(p)
    assert len(ivals) == 3 and all(lo <= r <= hi for (lo, hi), r in zip(ivals, (0, 1, 2)))


# ---------------------------------------------------------------------------
# sympy: real-root counts and isolating intervals
# ---------------------------------------------------------------------------


def random_polynomials(rng, count):
    """Integer polynomials of degree 1-3: a third dense, a third products of
    small linear factors (rational and repeated roots), a third a linear
    factor times a random quadratic."""
    out = []
    while len(out) < count:
        kind = len(out) % 3
        if kind == 0:
            deg = rng.randint(1, 3)
            lead = rng.choice([-5, -2, -1, 1, 3, 7])
            coeffs = [rng.randint(-20, 20) for _ in range(deg)] + [lead]
        elif kind == 1:
            p = IntPoly([1])
            for _ in range(rng.randint(1, 3)):
                p = p * IntPoly([rng.randint(-6, 6), rng.choice([-3, -2, -1, 1, 2, 4])])
            coeffs = list(p.coeffs)
        else:
            lin = IntPoly([rng.randint(-6, 6), rng.choice([1, 2, 3])])
            quad = IntPoly([rng.randint(-9, 9), rng.randint(-9, 9), rng.choice([1, -2])])
            coeffs = list((lin * quad).coeffs)
        if len(IntPoly(coeffs).coeffs) >= 2:
            out.append(coeffs)
    return out


def rat(x):
    return None if x is None else sympy.Rational(x.numerator, x.denominator)


def sympy_open_count(poly: sympy.Poly, lo, hi) -> int:
    """Distinct real roots in the open interval (lo, hi); None is unbounded."""
    count = poly.count_roots(rat(lo), rat(hi))
    for end in (lo, hi):
        if end is not None and poly.eval(rat(end)) == 0:
            count -= 1
    return count


def test_real_roots_against_sympy():
    rng = random.Random(29)
    polys = random_polynomials(rng, 400)
    on_root = 0
    for coeffs in polys:
        sp = sympy.Poly(list(reversed(coeffs)), X)
        p = QPoly(coeffs)
        roots = [F(int(a.p), int(a.q)) for (a, b), _ in sp.intervals() if a == b]
        ends = [None] + [F(rng.randint(-30, 30), rng.choice((1, 2, 3))) for _ in range(3)]
        ends += roots[:1]  # an endpoint on a rational root
        for lo in ends:
            for hi in ends:
                if lo is not None and hi is not None and lo >= hi:
                    continue
                on_root += lo in roots or hi in roots
                assert sturm_count(p, lo, hi) == sympy_open_count(sp, lo, hi), (coeffs, lo, hi)
        ivals = isolate_real_roots(p)
        assert len(ivals) == len(sp.intervals()), coeffs
        for (lo, hi), (lo2, _) in zip(ivals, ivals[1:]):
            assert lo <= hi <= lo2, coeffs  # open intervals, increasing
        for lo, hi in ivals:
            if lo == hi:
                assert sp.eval(rat(lo)) == 0, coeffs
            else:
                assert sympy_open_count(sp, lo, hi) == 1, coeffs
                assert sp.eval(rat(lo)) and sp.eval(rat(hi)), coeffs
    assert on_root > 200


def test_factor_root_classes_against_sympy():
    """Each factor's real roots below -1, inside (-1, 1) and above 1."""
    mats = random_matrices(random.Random(31), 300)
    for m in mats:
        for fr in eigen_classify(m).root_data:
            sp = sympy.Poly(list(reversed(fr.factor.coeffs)), X)
            counts = [fr.real.count(cls) for cls in (LTM1, INSIDE, GT1)]
            expected = [sympy_open_count(sp, None, F(-1)), sympy_open_count(sp, F(-1), F(1)),
                        sympy_open_count(sp, F(1), None)]
            assert counts == expected, (m, fr)


def companion(*coeffs):
    """The companion matrix of the monic polynomial with the given
    coefficients, constant term first (leading 1 left out)."""
    n = len(coeffs)
    return [[int(i == j + 1) for j in range(n - 1)] + [-coeffs[i]] for i in range(n)]


@st.composite
def integer_matrices(draw):
    """2x2 and 3x3 integer matrices, entries up to 2^b for b drawn per
    matrix from 3, 8, 16, 32 and 63: small entries give rational and
    repeated roots, large ones test the integer chains at 64 bits."""
    n = draw(st.sampled_from((2, 3)))
    bound = 2 ** draw(st.sampled_from((3, 8, 16, 32, 63)))
    return [[draw(st.integers(-bound, bound)) for _ in range(n)] for _ in range(n)]


@settings(max_examples=2000, derandomize=True, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(integer_matrices())
@example(companion(1, -3))        # x^2 - 3x + 1: roots 0.38 and 2.62
@example(companion(1, -3, 0))     # x^3 - 3x + 1: roots -1.88, 0.35 and 1.53
@example(companion(-1, -1, 0))    # x^3 - x - 1: the plastic number, a pair inside
@example(companion(-1, 0, 1))     # x^3 + x^2 - 1, its reverse: a pair outside
def test_classification_property(rows):
    """Every factor's layout against the Fraction reference, and its real
    roots below -1, inside (-1, 1) and above 1 against sympy, on integer
    matrices with entries up to 2^63."""
    ec = eigen_classify(QMatrix(rows))
    for (q, mult), fr in zip(ec.factors, ec.root_data):
        assert fr == ref_analyze_factor(q, mult), (rows, q)
        sp = sympy.Poly(list(reversed(q.coeffs)), X)
        expected = [sympy_open_count(sp, None, F(-1)), sympy_open_count(sp, F(-1), F(1)),
                    sympy_open_count(sp, F(1), None)]
        assert [fr.real.count(c) for c in (LTM1, INSIDE, GT1)] == expected, (rows, q)


def test_classification_guard_refuses_reducible_factors():
    """A quadratic or cubic with a root at -1 or 1, or a cubic with a root
    at +-|c0/c3|, is reducible; passed in as a factor, it raises instead of
    being miscounted."""
    for coeffs in ([2, -3, 1],         # (x - 1)(x - 2)
                   [1, 2, 1],          # (x + 1)^2
                   [-6, 1, 4, 1],      # (x - 1)(x + 2)(x + 3)
                   [-2, -1, -1, 1]):   # (x - 2)(x^2 + x + 1): its root is c0/c3
        with pytest.raises(InfranilError):
            _analyze_factor(IntPoly(coeffs), 1)


def test_sturm_count_rejects_float_endpoints():
    p = QPoly([-1, 0, 1])
    assert sturm_count(p, F(1, 2), 2) == 1
    for lo, hi in ((0.5, 2), (None, float("inf")), (float("-inf"), None)):
        with pytest.raises(InfranilError, match="float"):
            sturm_count(p, lo, hi)


# ---------------------------------------------------------------------------
# Per-factor exponents against the linear solve
# ---------------------------------------------------------------------------


def reconstruction_inputs(cand):
    """(num, den, hints) of every reconstruction `compute_zeta` and the
    Lefschetz oracle run for the candidate: N, L, and L_+ on index 2."""
    dim = cand.entry.dim
    ext = exterior_data(cand.dstar)
    part = positive_part(cand, ext)
    table = det_table(ext, cand.entry.holonomy_group, sequence_length(dim))
    lef, nie, plus = _number_sequences(table, part)
    seqs = [nie, lef] + ([plus] if part.index == 2 else [])
    hints = candidate_factor_hints(ext)
    return [berlekamp_massey_q(seq, recurrence_bound(dim)) + (hints,) for seq in seqs]


def assert_exponents_match(cands, label):
    count = 0
    for i, cand in enumerate(cands):
        for num, den, hints in reconstruction_inputs(cand):
            got = exponents_from_logderiv(num, den, hints)
            assert got.factors == ref_exponents_from_logderiv(num, den, hints).factors, (label, i)
            count += bool(got.factors)
    return count


def test_exponents_match_linear_solve_on_corpus():
    assert assert_exponents_match(corpus_candidates(), "corpus") > 500


def test_exponents_match_linear_solve_on_random_maps(bench_workloads):
    assert assert_exponents_match(bench_workloads.random_maps_instances(1), "random-maps") > 500


def test_exponent_off_by_one_is_caught(monkeypatch):
    """A wrong exponent read must be refused by the cross-multiplication
    check, for every factor position."""
    num, den = berlekamp_massey_q([15 ** k - 5 ** k + 2 ** k for k in range(1, 25)], 4)
    assert len(exponents_from_logderiv(num, den).factors) == 3
    read = series._exponent_at
    for target in range(3):
        calls = []

        def bumped(*args):
            calls.append(None)
            return read(*args) + (len(calls) - 1 == target)

        monkeypatch.setattr(series, "_exponent_at", bumped)
        with pytest.raises(ReconstructionError, match="does not match"):
            exponents_from_logderiv(num, den)
        assert len(calls) == 3
