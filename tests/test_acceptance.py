"""Acceptance suite: one test per criterion, each printing a pass/fail line.

1. Full table reproduction through the verify-tables front end (3 samples per
   family, exact product equality, zero tolerance).
2. The worked diagonal example on the Klein bottle, exactly.
3. Direct vs structural route equality on >= 150 corpus instances, both
   reproducing the exact Nielsen sequence for k = 1..40.
4. The parity relations tying N(f^k) to L(f^k) and L(f+^k), k = 1..40.
5. Integrality of the averages and N >= |L| on the corpus plus 500 extra
   randomized valid candidates.
6. Exterior-power closed form == recurrence reconstruction on 100 random
   integer matrices over trivial holonomy.
7. Exact spectrum classification against a floating root-finding oracle on
   200 random matrices, plus the unit-circle edge cases.
"""

import math
import random
from fractions import Fraction

import pytest

from infranil.catalog import catalog_lookup
from infranil.cli import main as cli_main
from infranil.fixedpoint import (
    _candidate_sequences,
    check_sign_relations,
    eigen_classify,
)
from infranil.matrices import QMatrix, charpoly
from infranil.selfmaps import MapCandidate, family_instantiate, load_corpus, sample_params
from infranil.series import rfp_equal
from infranil.zeta import compute_zeta
from oracles import exterior_closed_form, qq_poly

F = Fraction
CORPUS = load_corpus()


def report(criterion, ok, detail=""):
    line = f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, line


def corpus_instances(samples_per_family):
    for spec in CORPUS.families:
        for params in sample_params(spec, samples_per_family):
            yield spec, params


def test_criterion_1_table_reproduction(capsys):
    code = cli_main(["verify-tables", "--samples", "3"])
    out = capsys.readouterr().out
    with capsys.disabled():
        report(1, code == 0 and "0 failures" in out,
               "verify-tables --samples 3, every table row exact")


def test_criterion_2_worked_example(capsys):
    entry = catalog_lookup("klein-bottle")
    cand = MapCandidate(entry, (0, 0), QMatrix([[3, 0], [0, 5]]))
    _, _, (lef, _, _) = _candidate_sequences(cand, 40, 40)
    ok = lef == tuple(1 - 3 ** k for k in range(1, 41))
    lf = compute_zeta(cand).lefschetz
    ok = ok and str(lf) == "(1 - 3*z) / (1 - z)"
    with capsys.disabled():
        report(2, ok, "L(f^k) = 1 - 3^k for k = 1..40 and L_f = (1-3z)/(1-z)")


def test_criteria_3_and_4_routes_and_sign_relations(capsys):
    instances = 0
    for spec, params in corpus_instances(2):
        cand = family_instantiate(spec, params)
        res = compute_zeta(cand, kmax=40)
        assert rfp_equal(res.nielsen_direct, res.nielsen_structural), spec.label
        # both routes reproduce the exact sequence via log-derivative expansion
        series = res.nielsen_direct.logderiv_series(40)
        assert tuple(series) == res.nielsen_numbers[:40], spec.label
        rep = check_sign_relations(cand, kmax=40)
        assert rep.ok, (spec.label, rep.first_violation)
        instances += 1
    with capsys.disabled():
        report(3, instances >= 150, f"route equality on {instances} corpus instances, k <= 40")
        report(4, True, f"parity relations exact on {instances} instances, k = 1..40")


def _random_valid_candidates(count):
    """Valid candidates across manifold types with quick validity by
    construction: torus maps (any integer matrix), diagonal odd maps on the
    Klein bottle and Hantzsche-Wendt manifold, and Heisenberg lattice
    endomorphisms."""
    rng = random.Random(2024)
    tori = [catalog_lookup("circle"), catalog_lookup("torus-2"), catalog_lookup("torus-3")]
    kb = catalog_lookup("klein-bottle")
    hw = catalog_lookup("hantzsche-wendt")
    heis = catalog_lookup("heis-I", {"k": 2})
    out = []
    while len(out) < count:
        kind = rng.randrange(6)
        if kind < 3:
            entry = tori[kind]
            n = entry.dim
            m = QMatrix([[rng.randint(-6, 6) for _ in range(n)] for _ in range(n)])
            out.append(MapCandidate(entry, (0,) * n, m))
        elif kind == 3:
            a, b = 2 * rng.randint(-3, 3) + 1, 2 * rng.randint(-3, 3) + 1
            out.append(MapCandidate(kb, (F(rng.randint(-2, 2), 3), F(1, 2)),
                                    QMatrix([[a, 0], [0, b]])))
        elif kind == 4:
            a, b, c = (2 * rng.randint(-3, 3) + 1 for _ in range(3))
            out.append(MapCandidate(hw, (F(1, 2), 0, F(1, 2)),
                                    QMatrix([[a, 0, 0], [0, b, 0], [0, 0, c]])))
        else:
            a, b, c, d = (rng.randint(-3, 3) for _ in range(4))
            m = QMatrix([[a * d - b * c, rng.randint(-3, 3), rng.randint(-3, 3)],
                         [0, a, b], [0, c, d]])
            out.append(MapCandidate(heis, (0, 0, 0), m))
    return out


def test_criterion_5_integrality_and_inequality(capsys):
    checked = 0
    for spec, params in corpus_instances(1):
        cand = family_instantiate(spec, params)
        _, _, (lefs, nies, _) = _candidate_sequences(cand, 40, 40)  # raises unless integral
        for k, (lef, nie) in enumerate(zip(lefs, nies), start=1):
            assert nie >= abs(lef) >= 0, (spec.label, k)
        checked += 1
    randomized = 0
    for cand in _random_valid_candidates(500):
        _, _, (lefs, nies, _) = _candidate_sequences(cand, 10, 10)
        for k, (lef, nie) in enumerate(zip(lefs, nies), start=1):
            assert nie >= abs(lef) >= 0, k
        randomized += 1
    with capsys.disabled():
        report(5, checked >= 88 and randomized == 500,
               f"integrality and N >= |L| on {checked} corpus + {randomized} random candidates")


def test_criterion_6_closed_form_oracle(capsys):
    rng = random.Random(42)
    entries = {n: catalog_lookup(i) for n, i in ((1, "circle"), (2, "torus-2"), (3, "torus-3"))}
    count = 0
    for _ in range(100):
        n = rng.choice((1, 2, 3))
        m = QMatrix([[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)])
        cand = MapCandidate(entries[n], (0,) * n, m)
        # compute_zeta re-checks this internally; assert explicitly as well
        assert compute_zeta(cand).lefschetz == exterior_closed_form(m)
        count += 1
    with capsys.disabled():
        report(6, count == 100, "closed form == reconstruction on 100 random matrices")


def _approx_roots(ec):
    """Float (re, im, modulus-class) triples from the exact classification."""
    out = []
    for fr in ec.root_data:
        q = fr.factor
        deg = q.degree
        reals = []
        for ((lo, hi), _), cls in zip(qq_poly(q).intervals(eps=F(1, 10 ** 13)), fr.real):
            reals.append((float((lo + hi) / 2), cls))
        for root, cls in reals:
            for _ in range(fr.multiplicity):
                out.append((root, 0.0, cls))
        if fr.pair_class is not None:
            if deg == 2:
                c0, c1, c2 = q.coeffs
                re = -c1 / (2 * c2)
                im = math.sqrt(float(4 * c0 * c2 - c1 * c1)) / (2 * c2)
            else:
                c0, _c1, c2, c3 = q.coeffs
                theta = reals[0][0]
                re = (-c2 / c3 - theta) / 2
                mod2 = abs(c0 / c3) / abs(theta)
                im = math.sqrt(max(mod2 - re * re, 0.0))
            for _ in range(fr.multiplicity):
                out.append((float(re), abs(im), fr.pair_class))
                out.append((float(re), -abs(im), fr.pair_class))
    return out


def _class_consistent(cls, modulus):
    if cls in (">1", "<-1", "gt"):
        return modulus > 1 - 1e-7
    if cls in ("(-1,1)", "lt"):
        return modulus < 1 + 1e-7
    return abs(modulus - 1) < 1e-7  # "1", "-1", "eq"


def test_criterion_7_spectrum_vs_float_oracle(capsys):
    np = pytest.importorskip("numpy")
    rng = random.Random(7)
    for _ in range(200):
        n = rng.choice((1, 2, 3))
        m = QMatrix([[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)])
        ec = eigen_classify(m)
        exact = sorted(_approx_roots(ec), key=lambda v: (round(v[0], 6), round(v[1], 6)))
        cp = charpoly(m)
        coeffs = [float(c) for c in cp.coeffs][::-1]
        floats = sorted(
            ((z.real, z.imag) for z in np.roots(coeffs)),
            key=lambda v: (round(v[0], 6), round(v[1], 6)),
        )
        assert len(exact) == len(floats) == n
        for (re, im, cls), (fre, fim) in zip(exact, floats):
            assert abs(re - fre) < 1e-9 and abs(im - fim) < 1e-9, (m, exact, floats)
            assert _class_consistent(cls, math.hypot(fre, fim)), (m, cls, fre, fim)
    # unit-circle edge cases must classify exactly
    edges = [
        (QMatrix([[1]]), (0, 1, 0)),
        (QMatrix([[-1]]), (0, 1, 0)),
        (QMatrix([[0, -1], [1, 0]]), (0, 2, 0)),     # x^2 + 1
        (QMatrix([[0, -1], [1, 1]]), (0, 2, 0)),     # x^2 - x + 1
        (QMatrix([[0, -1], [1, -1]]), (0, 2, 0)),    # x^2 + x + 1
    ]
    for m, expected in edges:
        ec = eigen_classify(m)
        total = tuple(sum(fr.modulus_counts()[i] * fr.multiplicity for fr in ec.root_data)
                      for i in range(3))
        assert total == expected and ec.p == ec.n == 0 and ec.dim_gt1 == 0
    with capsys.disabled():
        report(7, True, "200 random spectra match the float oracle; edge cases exact")
