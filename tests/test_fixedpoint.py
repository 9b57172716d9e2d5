from fractions import Fraction

from infranil.catalog import catalog_ids, catalog_lookup, holonomy
from infranil.fixedpoint import (
    GT1,
    INSIDE,
    check_sign_relations,
    det_table,
    eigen_classify,
    exterior_data,
    lefschetz_number,
    nielsen_number,
    positive_part,
)
from infranil.matrices import QMatrix
from infranil.selfmaps import (
    MapCandidate,
    family_instantiate,
    load_corpus,
    sample_params,
    validate_selfmap,
)
from modulus_split import anosov_fastpath

F = Fraction


def part_of(cand):
    return positive_part(cand, exterior_data(cand.dstar))


def kb(a, b, r=0, s=0):
    entry = catalog_lookup("klein-bottle")
    return MapCandidate(entry, (F(r), F(s)), QMatrix([[a, 0], [0, b]]))


def test_klein_bottle_lefschetz_worked_example():
    cand = kb(3, 5, 0, F(1, 2))
    assert validate_selfmap(cand) is not None
    assert lefschetz_number(cand, 1) == -2  # 1 - 3
    assert lefschetz_number(cand, 2) == -8  # 1 - 9
    for k in range(1, 8):
        assert lefschetz_number(cand, k) == 1 - 3 ** k


def test_klein_bottle_nielsen():
    cand = kb(3, 5, 0, F(1, 2))
    assert nielsen_number(cand, 1) == 10  # (8 + 12) / 2
    # against the closed form 15^k - 5^k
    for k in range(1, 6):
        assert nielsen_number(cand, k) == 15 ** k - 5 ** k


def test_zero_map_numbers():
    cand = kb(0, 0, F(1, 3), F(2, 5))
    assert lefschetz_number(cand, 1) == 1
    assert nielsen_number(cand, 1) == 1


def test_torus_identity_has_zero_nielsen():
    entry = catalog_lookup("torus-2")
    cand = MapCandidate(entry, (0, 0), QMatrix.identity(2))
    assert nielsen_number(cand, 1) == 0
    assert lefschetz_number(cand, 1) == 0


def test_eigen_classify_examples():
    ec = eigen_classify(QMatrix([[3, 0, 0], [0, 5, 0], [0, 0, -7]]))
    assert (ec.p, ec.n, ec.dim_gt1) == (2, 1, 3)
    ec = eigen_classify(QMatrix([[2, 1], [1, 1]]))
    assert (ec.p, ec.n, ec.dim_gt1) == (1, 0, 1)
    ec = eigen_classify(QMatrix([[0, -1], [1, 0]]))
    assert (ec.p, ec.n, ec.dim_gt1) == (0, 0, 0)
    assert ec.classes == ((0, 2, 0),)


def test_eigen_classify_unit_circle_cases():
    # x - 1, x + 1, x^2 + 1, x^2 - x + 1, x^2 + x + 1 all sit on the circle
    mats = [
        QMatrix([[1]]),
        QMatrix([[-1]]),
        QMatrix([[0, -1], [1, 0]]),
        QMatrix([[0, -1], [1, 1]]),
        QMatrix([[0, -1], [1, -1]]),
    ]
    for m in mats:
        ec = eigen_classify(m)
        assert ec.dim_gt1 == 0 and ec.p == 0 and ec.n == 0
        for lt, eq, gt in ec.classes:
            assert lt == 0 and gt == 0


def test_eigen_classify_multiplicity():
    m = QMatrix([[2, 1, 0], [0, 2, 0], [0, 0, 2]])
    ec = eigen_classify(m)
    assert ec.p == 3 and ec.dim_gt1 == 3
    assert ec.factors == ((__import__("infranil.polynomials", fromlist=["IntPoly"]).IntPoly([-2, 1]), 3),)


def test_eigen_classify_mixed_quadratic():
    # x^2 - 3x + 1: roots (3 +- sqrt(5))/2, one each side of the circle
    ec = eigen_classify(QMatrix([[2, 1], [1, 1]]))
    fr = ec.root_data[0]
    assert fr.side() == "mixed"
    classes = sorted(c for _, c in fr.real)
    assert classes == sorted([INSIDE, GT1])


def test_eigen_classify_cubic_complex_pair():
    # companion of x^3 - 2: one real root 2^(1/3), pair of modulus 2^(1/3) > 1
    m = QMatrix([[0, 0, 2], [1, 0, 0], [0, 1, 0]])
    ec = eigen_classify(m)
    assert ec.p == 1 and ec.n == 0 and ec.dim_gt1 == 3
    # companion of x^3 - x - 1 (plastic number): pair has modulus < 1
    m = QMatrix([[0, 0, 1], [1, 0, 1], [0, 1, 0]])
    ec = eigen_classify(m)
    assert ec.p == 1 and ec.dim_gt1 == 1


def test_positive_part_klein_examples():
    part = part_of(kb(3, 5, 0, F(1, 2)))
    assert part.index == 2
    assert part.plus_indices == (0,)
    assert sorted(part.det_signs) == [-1, 1]
    # only one expanding direction, fixed by the holonomy
    part = part_of(kb(3, 1, 0, F(1, 2)))
    assert part.index == 1
    # no expanding directions at all
    part = part_of(kb(1, 1, 0, F(1, 2)))
    assert part.index == 1
    assert all(s == 1 for s in part.det_signs)


def test_positive_part_irrational_split():
    entry = catalog_lookup("flat3-1")
    cand = MapCandidate(entry, (0, 0, 0), QMatrix([[2, 1, 0], [1, 1, 0], [0, 0, 3]]))
    assert validate_selfmap(cand) is not None
    part = part_of(cand)
    assert part.index == 2
    # the rotation diag(-1,-1,1) acts by -1 on the contracting line
    group = holonomy(entry)
    sigma = group.elements.index(QMatrix([[-1, 0, 0], [0, -1, 0], [0, 0, 1]]))
    assert part.det_signs[sigma] == -1


def test_positive_part_iterate_invariance():
    for cand in [kb(3, 5, 0, F(1, 2)), kb(3, 2, 0, F(1, 4)), kb(3, 1, 0, 0)]:
        base = part_of(cand)
        for k in (2, 3):
            it = part_of(cand.iterate(k))
            assert it.index == base.index
            assert it.det_signs == base.det_signs


def test_anosov_fastpath():
    entry = catalog_lookup("heis-I", {"k": 2})
    nil = MapCandidate(entry, (0, 0, 0), QMatrix([[1, 0, 0], [0, 1, 0], [0, 0, 1]]))
    assert anosov_fastpath(nil) == "holds"
    # Z3 holonomy: no index-two subgroup
    entry = catalog_lookup("flat3-7")
    cand = MapCandidate(entry, (0, 0, 0), QMatrix([[1, 0, 0], [0, 1, 0], [0, 0, 4]]))
    assert validate_selfmap(cand) is not None
    assert anosov_fastpath(cand) == "holds"
    # Klein bottle with two expanding directions: no criterion applies
    assert anosov_fastpath(kb(3, 5, 0, F(1, 2))) == "unknown"
    # identity representation on the expanding block
    assert anosov_fastpath(kb(3, 1, 0, 0)) == "holds"


def test_sign_relations_klein():
    rep = check_sign_relations(kb(3, 5, 0, F(1, 2)), kmax=20)
    assert rep.ok and rep.index == 2 and (rep.p, rep.n) == (2, 0)
    rep = check_sign_relations(kb(-3, 5, 0, F(1, 2)), kmax=20)
    assert rep.ok
    rep = check_sign_relations(kb(0, 0, F(1, 7), F(2, 9)), kmax=10)
    assert rep.ok and rep.index == 1


def test_sign_relations_torus():
    entry = catalog_lookup("torus-2")
    cand = MapCandidate(entry, (0, 0), QMatrix([[2, 1], [1, 1]]))
    rep = check_sign_relations(cand, kmax=15)
    assert rep.ok and rep.index == 1 and (rep.p, rep.n) == (1, 0)


def test_sign_relations_heisenberg():
    entry = catalog_lookup("heis-II", {"k": 2})
    cand = MapCandidate(
        entry, (F(1, 2), 0, F(1, 3)), QMatrix([[1, 0, 0], [0, 2, 1], [0, 1, 1]])
    )
    assert validate_selfmap(cand) is not None
    rep = check_sign_relations(cand, kmax=15)
    assert rep.ok


def test_nielsen_geq_abs_lefschetz_randomized():
    import random

    rng = random.Random(99)
    entry = catalog_lookup("torus-3")
    for _ in range(20):
        m = QMatrix([[rng.randint(-4, 4) for _ in range(3)] for _ in range(3)])
        cand = MapCandidate(entry, (0, 0, 0), m)
        for k in (1, 2, 5):
            assert nielsen_number(cand, k) >= abs(lefschetz_number(cand, k))


def test_row_averages_must_be_integral():
    import pytest

    from infranil.errors import InvalidCandidateError
    from infranil.fixedpoint import lefschetz_from_row, nielsen_from_row

    lef, nie = "averaged Lefschetz number", "averaged Nielsen number"
    for row, indices, value in [((1, (1, 2)), None, "3/2"), ((2, (1, 5, 6)), [0, 2], "7/4"),
                                ((1, (-1, 2)), None, "1/2")]:
        with pytest.raises(InvalidCandidateError, match=f"^{lef} is not an integer: {value}$"):
            lefschetz_from_row(row, indices)
    with pytest.raises(InvalidCandidateError, match=f"^{nie} is not an integer: 3/2$"):
        nielsen_from_row((1, (1, 2)))
    with pytest.raises(InvalidCandidateError, match=f"^{nie} is not an integer: 2/3$"):
        nielsen_from_row((3, (2, -2)))
    assert (lefschetz_from_row((3, (2, -2))), nielsen_from_row((2, (3, -5)))) == (0, 2)
    assert lefschetz_from_row((2, (1, 5, 7)), [1, 2]) == 3


# ---------------------------------------------------------------------------
# det_table (trace recurrences) against direct determinants
# ---------------------------------------------------------------------------


def direct_table(cand, group, kmax):
    """det(I - A D^k) from an explicit matrix power and a Gaussian-elimination
    determinant per entry: the oracle for the recurrence table."""
    ident = QMatrix.identity(cand.entry.dim)
    rows = []
    power = ident
    for _ in range(kmax):
        power = power * cand.dstar
        rows.append(tuple((ident - a * power).det() for a in group.elements))
    return rows


def assert_table_matches(cand, kmax, label):
    group = holonomy(cand.entry)
    table = det_table(exterior_data(cand.dstar), group, kmax)
    assert len(table) == kmax, label
    assert all(
        type(den) is int and den > 0 and all(type(v) is int for v in nums) for den, nums in table
    ), label
    exact = [tuple(F(v, den) for v in nums) for den, nums in table]
    assert exact == direct_table(cand, group, kmax), label


def test_det_table_matches_direct_determinants_on_corpus():
    for spec in load_corpus().families:
        for params in sample_params(spec, 1):
            assert_table_matches(family_instantiate(spec, params), 44, spec.label)


def random_heisenberg_half_integer_maps(rng, count):
    """Valid maps on heis-I (k = 1) with half-integer entries allowed in the
    top row of D*; validity is checked, not assumed."""
    entry = catalog_lookup("heis-I", {"k": 1})
    halves = [F(q, 2) for q in range(-7, 8)]
    out = []
    for _ in range(20 * count):
        a, b, c, d = (rng.randint(-3, 3) for _ in range(4))
        m = QMatrix([[a * d - b * c, rng.choice(halves), rng.choice(halves)],
                     [0, a, b], [0, c, d]])
        cand = MapCandidate(entry, (0, 0, 0), m)
        if validate_selfmap(cand) is not None:
            out.append(cand)
            if len(out) == count:
                break
    return out


def test_det_table_matches_direct_determinants_on_random_valid_maps():
    """A seeded parameter draw of every corpus family (so every catalog
    entry) and its second iterate, plus Heisenberg maps with half-integer D*."""
    import random

    candidates = []
    for spec in load_corpus().families:
        cand = family_instantiate(spec, sample_params(spec, 1, seed=2026)[0])
        candidates += [(spec.label, cand), (spec.label + "^2", cand.iterate(2))]
    halves = random_heisenberg_half_integer_maps(random.Random(5), 10)
    assert len(halves) == 10
    candidates += [("heis-I half-integer", cand) for cand in halves]
    assert {cand.entry.id for _, cand in candidates} == set(catalog_ids())
    assert any(
        cand.entry.model == "heisenberg"
        and any(v.denominator != 1 for row in cand.dstar.rows for v in row)
        for _, cand in candidates
    )
    for label, cand in candidates:
        assert_table_matches(cand, 20, label)


def test_det_table_shorter_than_recurrence_order():
    import random

    torus = catalog_lookup("torus-3")
    cases = [
        MapCandidate(torus, (0, 0, 0), QMatrix([[2, 1, 0], [1, 3, 1], [0, 1, -4]])),
        MapCandidate(torus, (0, 0, 0), QMatrix([[0, 0, 0], [1, 0, 0], [0, 1, 0]])),  # singular
        kb(3, 5, 0, F(1, 2)),
        MapCandidate(catalog_lookup("hantzsche-wendt"), (F(1, 2), 0, F(1, 2)),
                     QMatrix([[3, 0, 0], [0, -5, 0], [0, 0, 7]])),
    ] + random_heisenberg_half_integer_maps(random.Random(9), 2)
    for cand in cases:
        for kmax in (1, 2, 3):
            assert_table_matches(cand, kmax, (cand.entry.id, kmax))


def test_exterior_factors_of_d_are_reversed_spectrum_factors():
    """ExteriorData.factors[1] is derived from eigen_classify's factors of
    charpoly(D); it must equal factor_over_q of det(I - z D), singular D
    included."""
    from infranil.matrices import det_one_minus_z
    from infranil.polynomials import factor_over_q

    singular = 0
    cases = [QMatrix([[0, 0], [0, 0]]), QMatrix([[0, 1], [0, 0]]), QMatrix([[2, 0], [0, 0]])]
    for spec in load_corpus().families:
        cases.append(family_instantiate(spec, sample_params(spec, 1, 1)[0]).dstar)
    for m in cases:
        ext = exterior_data(m)
        assert ext.spectrum == eigen_classify(m)
        det_poly = det_one_minus_z(m)
        expected = tuple(factor_over_q(det_poly)) if det_poly.degree > 0 else ()
        assert ext.factors[1] == expected, m
        singular += m.det() == 0
    assert singular >= 10
