"""Oracles for the integer spectrum and the per-factor exponent read.

The references take every fact they need from sympy, so no fault of the
library's arithmetic can hide in them: each factor's layout from sympy's
real-root counts against -1, 1 and, for a cubic's complex pair, +-|c0/c3|,
and the exponent solve as one rational linear system.
"""

import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from sympy import QQ
from sympy.polys.matrices import DomainMatrix

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
    exterior_traces,
    positive_part,
)
from infranil.matrices import QMatrix, charpoly, scaled_det_one_minus_z
from infranil.polynomials import IntPoly, factor_over_q
from infranil.series import (
    RatFuncProduct,
    berlekamp_massey_q,
    exponents_from_logderiv,
    factor_with_hints,
    normalize_factor,
)
from infranil.zeta import candidate_factor_hints, recurrence_bound, sequence_length
from oracles import X, qq_poly, rational, sympy_factors

F = Fraction


# ---------------------------------------------------------------------------
# Reference: the spectrum from sympy's real-root counts
# ---------------------------------------------------------------------------


def sympy_open_count(poly: sympy.Poly, lo, hi) -> int:
    """Distinct real roots in the open interval (lo, hi); None is unbounded."""
    ends = [None if x is None else rational(x) for x in (lo, hi)]
    return int(poly.count_roots(*ends)) - sum(x is not None and poly.eval(x) == 0 for x in ends)


def unit_counts(poly: sympy.Poly) -> list:
    """sympy's counts of the distinct real roots below -1, inside (-1, 1)
    and above 1."""
    return [sympy_open_count(poly, lo, hi)
            for lo, hi in ((None, F(-1)), (F(-1), F(1)), (F(1), None))]


def ref_classify_rational_root(v: Fraction):
    if v == 1:
        return ONE
    if v == -1:
        return MINUS_ONE
    if v > 1:
        return GT1
    return LTM1 if v < -1 else INSIDE


def ref_analyze_factor(q: IntPoly, mult: int) -> FactorRoots:
    """The layout from sympy's real-root counts.  A linear factor's root is
    classified exactly.  A factor of degree 2 or 3 has no rational root, so
    its real roots below -1, inside (-1, 1) and above 1 fix the classes,
    which ascend with the roots.  A cubic's real root theta has
    theta |lambda|^2 = -c0/c3, so its pair is outside the unit circle
    exactly when theta lies in (-|c0/c3|, |c0/c3|)."""
    if q.degree == 1:
        return FactorRoots(q, mult, (ref_classify_rational_root(-F(q.coeffs[0], q.coeffs[1])),),
                           None)
    sp = qq_poly(q)
    below, inside, above = unit_counts(sp)
    real = (LTM1,) * below + (INSIDE,) * inside + (GT1,) * above
    pair = None
    if q.degree == 2 and not real:
        mod2 = F(q.coeffs[0], q.coeffs[2])
        pair = "eq" if mod2 == 1 else ("gt" if mod2 > 1 else "lt")
    elif q.degree == 3 and len(real) == 1:
        bound = abs(F(q.coeffs[0], q.coeffs[3]))
        pair = "gt" if sympy_open_count(sp, -bound, bound) == 1 else "lt"
    return FactorRoots(q, mult, real, pair)


def ref_eigen_classify(dstar: QMatrix) -> EigenClass:
    cp = charpoly(dstar).to_int()[0]
    data = []
    p = n = gt_total = 0
    for q, mult in factor_over_q(cp):
        fr = ref_analyze_factor(q, mult)
        data.append(fr)
        gt_total += fr.modulus_counts()[2] * mult
        p += mult * fr.real.count(GT1)
        n += mult * fr.real.count(LTM1)
    return EigenClass(cp, tuple(data), p, n, gt_total)


# ---------------------------------------------------------------------------
# Reference: the exponent solve as one rational linear system, in sympy
# ---------------------------------------------------------------------------


def ref_exponents_from_logderiv(num: IntPoly, den: IntPoly, hints) -> RatFuncProduct:
    if num.is_zero():
        return RatFuncProduct.one()
    factors = factor_with_hints(den, hints)
    num, den = qq_poly(num), qq_poly(den)
    assert all(m == 1 for _, m in factors)
    qs = [normalize_factor(q) for q, _ in factors]
    d, m = den.degree(), len(qs)

    def coeffs(p):  # z^1 .. z^d, in QQ
        c = p.rep.to_list()[::-1]
        return (c + [QQ(0)] * d)[1:d + 1]

    basis = {}
    cols = []
    for q in qs:
        qq = qq_poly(q)
        col = basis[q] = sympy.Poly(X, X, domain=QQ) * qq.diff(X) * den.quo(qq)
        cols.append(coeffs(col))
    rows = [[col[k] for col in cols] + [rhs] for k, rhs in enumerate(coeffs(num))]
    reduced, pivots = DomainMatrix(rows, (d, m + 1), QQ).rref(method="GJ")
    assert pivots == tuple(range(m))  # one solution
    exps = [row[m] for row in reduced.to_list()[:m]]
    assert all(e.denominator == 1 for e in exps)
    result = RatFuncProduct.from_irreducibles((q, int(e.numerator)) for q, e in zip(qs, exps))
    check = qq_poly(0)
    for q, e in result.factors:
        check = check + e * basis[q]
    assert check == num
    return result


# ---------------------------------------------------------------------------
# Candidate sets
# ---------------------------------------------------------------------------


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
# The integer spectrum against the sympy reference
# ---------------------------------------------------------------------------


def assert_spectra_match(matrices, label):
    for i, m in enumerate(matrices):
        assert eigen_classify(m) == ref_eigen_classify(m), (label, i, m)


def test_spectrum_matches_sympy_reference_on_corpus(seed1_corpus):
    assert len(seed1_corpus) == 264
    assert_spectra_match([cand.dstar for *_, cand in seed1_corpus], "corpus")


def test_spectrum_matches_sympy_reference_on_random_maps(bench_workloads):
    cands = [cand for seed in (1, 2) for cand in bench_workloads.random_maps_instances(seed)]
    assert len(cands) == 600
    assert_spectra_match([c.dstar for c in cands], "random-maps")


def test_spectrum_matches_sympy_reference_on_random_matrices():
    """The whole classification, each factor's real-root counts below -1,
    inside (-1, 1) and above 1 with it, on 2,000 integer matrices and 200
    Heisenberg D* with a half-integer top row."""
    mats = random_matrices(random.Random(8), 2000)
    assert any(v.denominator == 2 for m in mats for row in m.rows for v in row)
    assert_spectra_match(mats, "random")


# ---------------------------------------------------------------------------
# sympy: real-root counts and factorizations
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


def test_factor_root_classes_against_sympy():
    """Each factor's real roots below -1, inside (-1, 1) and above 1."""
    mats = random_matrices(random.Random(31), 300)
    for m in mats:
        for fr in eigen_classify(m).root_data:
            counts = [fr.real.count(cls) for cls in (LTM1, INSIDE, GT1)]
            assert counts == unit_counts(qq_poly(fr.factor)), (m, fr)


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
    """Every factor's layout against sympy's real-root counts
    (`ref_analyze_factor`), on integer matrices with entries up to 2^63."""
    for fr in eigen_classify(QMatrix(rows)).root_data:
        assert fr == ref_analyze_factor(fr.factor, fr.multiplicity), (rows, fr.factor)


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


# ---------------------------------------------------------------------------
# Per-factor exponents against the linear solve
# ---------------------------------------------------------------------------


def reconstruction_inputs(cand):
    """(num, den, hints) of every reconstruction `compute_zeta` and the
    Lefschetz oracle run for the candidate: N, L, and L_+ on index 2."""
    dim = cand.entry.dim
    ext, group = exterior_data(cand.dstar), cand.entry.holonomy_group
    traces = exterior_traces(ext, group, sequence_length(dim))
    part = positive_part(ext, group, traces)
    table = det_table(ext, group, sequence_length(dim), traces)
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


def test_exponents_match_linear_solve_on_corpus(seed1_corpus):
    assert assert_exponents_match([cand for *_, cand in seed1_corpus], "corpus") > 500


def test_exponents_match_linear_solve_on_random_maps(bench_workloads):
    assert assert_exponents_match(bench_workloads.random_maps_instances(1), "random-maps") > 500


def test_exponent_off_by_one_is_caught(monkeypatch):
    """A wrong exponent read must be refused by the cross-multiplication
    check, for every factor position."""
    num, den = berlekamp_massey_q([15 ** k - 5 ** k + 2 ** k for k in range(1, 25)], 4)
    hints = [q for q, _ in factor_over_q(den)]
    assert len(exponents_from_logderiv(num, den, hints).factors) == 3
    read = series._exponent_at
    for target in range(3):
        calls = []

        def bumped(*args):
            calls.append(None)
            return read(*args) + (len(calls) - 1 == target)

        monkeypatch.setattr(series, "_exponent_at", bumped)
        with pytest.raises(ReconstructionError, match="does not match"):
            exponents_from_logderiv(num, den, hints)
        assert len(calls) == 3



# ---------------------------------------------------------------------------
# The closed-form classification on chosen factors, against sympy
# ---------------------------------------------------------------------------


def assert_layout_matches_oracles(coeffs) -> FactorRoots:
    """The layout of an irreducible factor equals the one read off sympy's
    real-root counts."""
    q = IntPoly(coeffs)
    fr = _analyze_factor(q, 1)
    assert fr == ref_analyze_factor(q, 1), coeffs
    return fr


@pytest.mark.parametrize("coeffs, factors", [
    ([2, -3, 0, 1], [([-1, 1], 2), ([2, 1], 1)]),      # (x - 1)^2 (x + 2)
    ([1, 6, 12, 8], [([1, 2], 3)]),                    # (2x + 1)^3
    ([1, -3, 3, -1], [([-1, 1], 3)]),                  # (1 - x)^3
    ([12, 24, 12], [([1, 1], 2)]),                     # 12 (x + 1)^2
    ([0, 0, 5], [([0, 1], 2)]),                        # 5 x^2
    ([0, 4, 4, 1], [([0, 1], 1), ([2, 1], 2)]),        # x (x + 2)^2
    ([-9, 3, 5, 1], [([-1, 1], 1), ([3, 1], 2)]),      # (x - 1)(x + 3)^2
    ([4, -4, -3, 2], [([-2, 1], 1), ([-2, 1, 2], 1)]),  # (x - 2)(2x^2 + x - 2)
    ([-3, 3, -1], [([3, -3, 1], 1)]),                  # -(x^2 - 3x + 3): content -1
])
def test_factor_over_q_pulls_out_repeated_rational_roots(coeffs, factors):
    """Each rational root comes out with its multiplicity by repeated exact
    division, and the rest is one simple irreducible factor; checked
    against the stated factors and against sympy."""
    want = sorted(((IntPoly(c), m) for c, m in factors), key=lambda fm: fm[0].sort_key())
    assert factor_over_q(IntPoly(coeffs)) == want == sympy_factors(coeffs)


def test_factor_over_q_matches_sympy_on_random_polynomials():
    rng = random.Random(41)
    for coeffs in random_polynomials(rng, 600):
        assert factor_over_q(IntPoly(coeffs)) == sympy_factors(coeffs), coeffs


def test_roots_exactly_at_plus_and_minus_one():
    """A linear factor at 1 or -1 is classed ONE or MINUS_ONE, with its
    multiplicity, and counts in neither p nor n; a quadratic or cubic with
    the root 1 or -1 is reducible and raises."""
    for rows, classes in [([[1, 0], [0, -1]], [(MINUS_ONE,), (ONE,)]),
                          ([[1, 1], [0, 1]], [(ONE,)]),
                          ([[-1, 1, 0], [0, -1, 1], [0, 0, -1]], [(MINUS_ONE,)]),
                          ([[1, 0, 0], [0, 0, -1], [0, 1, 0]], [(ONE,), ()]),
                          ([[3, 0, 0], [0, 1, 0], [0, 0, -1]], [(MINUS_ONE,), (ONE,), (GT1,)])]:
        ec = eigen_classify(QMatrix(rows))
        assert ec == ref_eigen_classify(QMatrix(rows)), rows
        assert sorted(fr.real for fr in ec.root_data) == sorted(classes), rows
        assert ec.n == 0 and ec.p == ((GT1,) in classes), rows
    assert [fr.multiplicity for fr in eigen_classify(QMatrix([[1, 1], [0, 1]])).root_data] == [2]
    ec = eigen_classify(QMatrix([[-1, 1, 0], [0, -1, 1], [0, 0, -1]]))
    assert [(fr.modulus_counts(), fr.multiplicity) for fr in ec.root_data] == [((0, 1, 0), 3)]
    for coeffs in ([-1, 0, 1],          # (x - 1)(x + 1)
                   [-2, 1, 1],          # (x - 1)(x + 2)
                   [2, 1, 0, 1],        # (x + 1)(x^2 - x + 2)
                   [-1, -1, 1, 1]):     # (x - 1)(x + 1)^2
        with pytest.raises(InfranilError, match="has the root 1 or -1"):
            _analyze_factor(IntPoly(coeffs), 1)


@pytest.mark.parametrize("coeffs", [
    [1, -3, 1],         # 0.38, 2.62
    [1, 3, 1],          # -2.62, -0.38
    [-5, 0, 1],         # -2.24, 2.24
    [-1, 1, 1],         # -1.62, 0.62
    [-1, 0, 3],         # -0.58, 0.58
    [-7, 0, 2],         # -1.87, 1.87
    [1, -3, 0, 1],      # -1.88, 0.35, 1.53
    [1, -4, 0, 1],      # -2.11, 0.25, 1.86
    [7, -7, 0, 1],      # -3.05, 1.36, 1.69
    [-7, -7, 0, 1],     # -1.69, -1.36, 3.05
    [1, 0, -7, 4],      # -0.35, 0.44, 1.66
    [-5, 0, 9, -1],     # -(x^3 - 9x^2 + 5): -0.72, 0.78, 8.94
    [3, -10, 0, 2],     # -2.37, 0.31, 2.07
    [1, 0, -3, 1],      # -0.53, 0.65, 2.88
    [1, 7, -6, 1],      # -0.13, 1.80, 4.33
])
def test_real_rooted_factors_on_both_sides_of_plus_minus_one(coeffs):
    """Irreducible quadratics and cubics with only real roots, on both
    sides of 1 and of -1: Descartes' rule on q(1 + y) and q(-1 - y)."""
    q = IntPoly(coeffs).primitive()
    assert factor_over_q(q) == [(q, 1)], coeffs
    fr = assert_layout_matches_oracles(q.coeffs)
    assert len(fr.real) == q.degree and fr.pair_class is None


@pytest.mark.parametrize("coeffs, real, pair", [
    ([-1, -1, 0, 1], GT1, "lt"),      # x^3 - x - 1: 1.32, pair modulus 0.87
    ([1, 0, 0, 3], INSIDE, "lt"),     # 3x^3 + 1: -0.69, pair modulus 0.69
    ([-1, 0, 1, 1], INSIDE, "gt"),    # x^3 + x^2 - 1: 0.75, pair modulus 1.15
    ([7, 7, -6, 1], INSIDE, "gt"),    # -0.63, pair 3.31 +- 0.42i: q(1 + y) has 2 sign changes
    ([-3, 1, 0, 1], GT1, "gt"),       # 1.21, pair modulus 1.57
    ([-10, 0, 0, 1], GT1, "gt"),      # 2.15, pair modulus 2.15
    ([2, 0, 0, 1], LTM1, "gt"),       # -1.26, pair modulus 1.26
    ([5, 3, 1, 1], LTM1, "gt"),       # -1.40, pair modulus 1.89
])
def test_one_real_root_cubics(coeffs, real, pair):
    """An irreducible cubic with negative discriminant: its real root placed
    by the signs of q(1) and q(-1), its complex pair against the unit circle
    by the signs of q(+-|c0/c3|), where Descartes' rule would miscount."""
    q = IntPoly(coeffs)
    assert factor_over_q(q) == [(q, 1)], coeffs
    fr = assert_layout_matches_oracles(coeffs)
    assert (fr.real, fr.pair_class) == ((real,), pair), coeffs


def test_cubic_pair_on_the_unit_circle_is_split_off():
    """A cubic with one real root whose complex pair has modulus 1 is
    reducible (theta |lambda|^2 = -c0/c3 makes theta rational): the
    spectrum splits it into the linear factor and the quadratic, whose pair
    is 'eq', and `_analyze_factor` refuses the cubic itself."""
    q = IntPoly([-1, 3, -3, 2])      # (2x - 1)(x^2 - x + 1)
    assert factor_over_q(q) == [(IntPoly([-1, 2]), 1), (IntPoly([1, -1, 1]), 1)]
    d = QMatrix(companion(F(-1, 2), F(3, 2), F(-3, 2)))
    ec = eigen_classify(d)
    assert ec.charpoly == q and ec == ref_eigen_classify(d)
    assert [(fr.real, fr.pair_class) for fr in ec.root_data] == [((INSIDE,), None), ((), "eq")]
    with pytest.raises(InfranilError, match="rational root"):
        _analyze_factor(q, 1)


def test_zero_discriminant_is_refused():
    """A quadratic or cubic with a repeated root is reducible; passed in as
    a factor with no root at -1 or 1, it raises instead of being counted."""
    for coeffs in ([4, -4, 1],          # (x - 2)^2
                   [12, -8, -1, 1],     # (x - 2)^2 (x + 3)
                   [-8, 12, -6, 1]):    # (x - 2)^3
        with pytest.raises(InfranilError, match="repeated root"):
            _analyze_factor(IntPoly(coeffs), 1)


def test_classification_at_200_bits_runs_in_polynomial_time():
    """Coefficients near 2^200, with rational roots near 2^200 and without:
    every factorization equals sympy's and every layout the one read off
    sympy's root counts, and the library's part takes under 2 s in all
    (0.03 s on a 2-vCPU x86-64 host): bisection within the Fujiwara bound
    takes about as many steps as the coefficients have bits."""
    import time

    rng = random.Random(200)
    big = 2 ** 200
    polys = []
    for _ in range(20):
        a, b = rng.randint(big // 2, big), rng.randint(1, 2 ** 20)
        polys += [
            [rng.randint(-big, big) for _ in range(3)] + [rng.choice((1, 3, big + 1))],
            list((IntPoly([-a, b]) * IntPoly([rng.randint(-9, 9), rng.randint(-9, 9), 1])).coeffs),
            list((IntPoly([a, 1]) * IntPoly([-a, 1]) * IntPoly([rng.randint(-big, big), 1])).coeffs),
            list((IntPoly([-a, 3]) * IntPoly([-a, 3]) * IntPoly([1, 1])).coeffs),
        ]
    start = time.perf_counter()
    results = []
    for coeffs in polys:
        factors = factor_over_q(IntPoly(coeffs))
        results.append((factors, [_analyze_factor(q, m) for q, m in factors]))
    elapsed = time.perf_counter() - start
    for coeffs, (factors, layouts) in zip(polys, results):
        assert factors == sympy_factors(coeffs), coeffs
        assert layouts == [ref_analyze_factor(q, m) for q, m in factors], coeffs
    assert elapsed < 2.0, elapsed


def test_scaled_det_one_minus_z_matches_sympy():
    """The closed form scale^m det(I - z B / scale) from the trace, the
    principal 2 x 2 minors and the determinant, against sympy's
    determinant for m = 1..3, singular B and scales 1, 2, 6 and 2^70
    included; any other m raises."""
    z = sympy.Symbol("z")
    rng = random.Random(33)
    for m in (1, 2, 3):
        for trial in range(40):
            bound = 2 ** 70 if trial % 8 == 0 else 9
            rows = [[rng.randint(-bound, bound) for _ in range(m)] for _ in range(m)]
            if trial % 5 == 0 and m > 1:
                rows[-1] = [2 * v for v in rows[0]]
            scale = rng.choice((1, 2, 6, 2 ** 70))
            flat = tuple(v for row in rows for v in row)
            det = (sympy.eye(m) * scale - z * sympy.Matrix(rows)).det()
            want = [int(c) for c in reversed(sympy.Poly(sympy.expand(det), z).all_coeffs())]
            assert scaled_det_one_minus_z(flat, m, scale) == IntPoly(want), (rows, scale)
    for m in (0, 4):
        with pytest.raises(InfranilError, match="m = 1..3"):
            scaled_det_one_minus_z(tuple(range(m * m)), m, 1)
