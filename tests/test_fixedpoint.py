from fractions import Fraction
from math import comb, lcm

import pytest

from infranil.catalog import catalog_ids, catalog_lookup, holonomy
from infranil.errors import ConstraintError
from infranil.fixedpoint import (
    GT1,
    INSIDE,
    check_sign_relations,
    det_table,
    eigen_classify,
    exterior_data,
    exterior_traces,
    positive_part,
)
from infranil.matrices import QMatrix
from infranil.polynomials import IntPoly
from infranil.selfmaps import (
    MapCandidate,
    family_instantiate,
    load_corpus,
    sample_params,
    validate_selfmap,
)
from modulus_split import anosov_fastpath, part_of
from oracles import (
    direct_table,
    flat_product,
    group_elements,
    kb,
    lefschetz_number,
    nielsen_number,
    sympy_matrix,
)

F = Fraction


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
    assert [(fr.modulus_counts(), fr.multiplicity) for fr in ec.root_data] == [((0, 2, 0), 1)]


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
        for fr in ec.root_data:
            lt, _, gt = fr.modulus_counts()
            assert lt == 0 and gt == 0


def test_eigen_classify_multiplicity():
    m = QMatrix([[2, 1, 0], [0, 2, 0], [0, 0, 2]])
    ec = eigen_classify(m)
    assert ec.p == 3 and ec.dim_gt1 == 3
    assert [(fr.factor, fr.multiplicity) for fr in ec.root_data] == [(IntPoly([-2, 1]), 3)]


def test_eigen_classify_mixed_quadratic():
    # x^2 - 3x + 1: roots (3 +- sqrt(5))/2, one each side of the circle
    ec = eigen_classify(QMatrix([[2, 1], [1, 1]]))
    fr = ec.root_data[0]
    assert fr.side() == "mixed"
    assert fr.real == (INSIDE, GT1)


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
    sigma = group_elements(group).index(QMatrix([[-1, 0, 0], [0, -1, 0], [0, 0, 1]]))
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
    """`_number_sequences` averages each row (den, nums): L and N over every
    element, L_+ over the positive part's.  A non-integral L, N or L_+ raises,
    naming the average."""
    from infranil.errors import InvalidCandidateError
    from infranil.fixedpoint import PositivePart, _number_sequences

    def part(plus=None):
        return PositivePart(1 if plus is None else 2, (), tuple(plus or ()))

    lef, nie = "averaged Lefschetz number", "averaged Nielsen number"
    for row, plus, what, value in [
        ((1, (1, 2)), None, lef, "3/2"),
        ((1, (-1, 2)), None, lef, "1/2"),
        ((2, (-1, 5)), None, nie, "3/2"),
        ((3, (2, -2)), None, nie, "2/3"),
        ((2, (1, 5, 6)), [0, 2], lef, "7/4"),
    ]:
        with pytest.raises(InvalidCandidateError, match=f"^{what} is not an integer: {value}$"):
            _number_sequences([row], part(plus))
    table = [(1, (3, -3, 3)), (2, (0, 3, -3)), (1, (-1, -2, 0))]
    assert _number_sequences(table, part()) == ((1, 0, -1), (3, 1, 1), None)
    assert _number_sequences(table, part([1, 2])) == ((1, 0, -1), (3, 1, 1), (0, 0, -1))
    assert _number_sequences([(3, (3, -3)), (2, (6, -2))], part()) == ((0, 1), (1, 2), None)


# ---------------------------------------------------------------------------
# det_table (trace recurrences) against direct determinants
# ---------------------------------------------------------------------------


def assert_table_matches(cand, kmax, label):
    group = holonomy(cand.entry)
    ext = exterior_data(cand.dstar)
    table = det_table(ext, group, kmax, exterior_traces(ext, group, kmax))
    assert len(table) == kmax, label
    assert all(
        type(den) is int and den > 0 and all(type(v) is int for v in nums) for den, nums in table
    ), label
    for k, ((den, nums), (oracle_den, dets)) in enumerate(
        zip(table, direct_table(cand, kmax)), start=1
    ):
        # nums[i] / den == dets[i] / oracle_den, both denominators positive
        assert len(nums) == len(dets) and all(
            v * oracle_den == d * den for v, d in zip(nums, dets)
        ), (label, k)


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


def mixed_scale_corpus():
    """(label, candidate, scales) for the seed-1 corpus instances whose
    trace sequences do not all share R and Q, the lcms of their r_j and q_j:
    there `det_table` weighs a sequence by R / r_j > 1 or by a list of
    (Q / q_j)^k."""
    out = []
    for spec in load_corpus().families:
        for params in sample_params(spec, 1, seed=1):
            cand = family_instantiate(spec, params)
            traces = exterior_traces(exterior_data(cand.dstar), holonomy(cand.entry), 1)
            scales = tuple((r, q) for r, q, _ in traces)
            big_r, big_q = lcm(*(r for r, _ in scales)), lcm(*(q for _, q in scales))
            if any(r < big_r or q < big_q for r, q in scales):
                out.append((spec.label, cand, scales))
    return out


def test_det_table_matches_direct_determinants_on_mixed_scales():
    """Both weight branches of `det_table` against direct determinants, and
    D's own integer form as Lambda^1 D."""
    from infranil.matrices import exterior_integer_form, integer_form

    cases = mixed_scale_corpus()
    scales = {s for _, _, s in cases}
    assert {((1, 2), (1, 1), (1, 1)), ((2, 1), (2, 1), (1, 1)),
            ((1, 3), (1, 3), (1, 1))} <= scales
    for label, cand, _ in cases:
        form = integer_form([cand.dstar])
        assert exterior_integer_form(form, 1) == form, label
        assert_table_matches(cand, 44, label)


def reference_number_sequences(table, part):
    """`_number_sequences` row by row, through the oracle's row averages."""
    from oracles import lefschetz_from_row, nielsen_from_row

    plus = None
    if part.index == 2:
        plus = tuple(lefschetz_from_row(row, part.plus_indices) for row in table)
    return (tuple(lefschetz_from_row(row) for row in table),
            tuple(nielsen_from_row(row) for row in table), plus)


def test_number_sequences_match_row_averages_on_benchmark_inputs(bench_workloads):
    """Every seed-1 corpus and random-maps candidate, index 2 included."""
    from infranil.fixedpoint import _number_sequences

    candidates = [
        family_instantiate(spec, params)
        for spec in load_corpus().families
        for params in sample_params(spec, 1, seed=1)
    ] + bench_workloads.random_maps_instances(1)
    indices = set()
    for cand in candidates:
        ext, group = exterior_data(cand.dstar), holonomy(cand.entry)
        traces = exterior_traces(ext, group, 40)
        part = positive_part(ext, group, traces)
        table = det_table(ext, group, 40, traces)
        assert _number_sequences(table, part) == reference_number_sequences(table, part)
        indices.add(part.index)
    assert len(candidates) == 564 and indices == {1, 2}


def test_number_sequences_must_be_integral():
    """The exact messages of `_number_sequences` on hand-built tables over
    the Klein bottle's holonomy, F_+ = {element 0}: L, N and L_+ each the
    first to fail."""
    from infranil.errors import InvalidCandidateError
    from infranil.fixedpoint import PositivePart, _number_sequences

    part = PositivePart(2, (1, -1), (0,))
    lef, nie = "averaged Lefschetz number", "averaged Nielsen number"
    for table, message in [([(1, (2, 0)), (1, (1, 2))], f"{lef} is not an integer: 3/2"),
                           ([(2, (5, -1))], f"{nie} is not an integer: 3/2"),
                           ([(2, (4, 0)), (2, (3, 1))], f"{lef} is not an integer: 3/2")]:
        with pytest.raises(InvalidCandidateError) as exc:
            _number_sequences(table, part)
        assert str(exc.value) == message
    assert _number_sequences([(2, (4, 0)), (2, (2, 2))], part) == ((1, 1), (1, 1), (2, 1))


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


def trace_cases():
    """Candidates with an expanding block, so that `positive_part` reads the
    j = m sequences: m = 1 and 2 of n = 2, and m = 1, 2 and 3 of n = 3."""
    torus = catalog_lookup("torus-3")
    return [
        MapCandidate(catalog_lookup("torus-2"), (0, 0), QMatrix([[2, 1], [1, 1]])),
        kb(3, 5, 0, F(1, 2)),
        MapCandidate(torus, (0, 0, 0), QMatrix([[3, 1, 0], [1, 1, 0], [0, 0, 2]])),
        MapCandidate(torus, (0, 0, 0), QMatrix([[2, 0, 0], [0, 1, 1], [0, 0, 1]])),
        MapCandidate(catalog_lookup("hantzsche-wendt"), (F(1, 2), 0, F(1, 2)),
                     QMatrix([[3, 0, 0], [0, -5, 0], [0, 0, 7]])),
    ]


def test_trace_sequences_formed_once_per_exterior_power(monkeypatch):
    """compute_zeta and check_sign_relations each form one trace sequence
    per j = 1..n, which the determinant table and the positive part share."""
    import infranil.fixedpoint as fixedpoint
    from infranil.zeta import compute_zeta

    calls = []
    original = fixedpoint._trace_sequences

    def counting(*args):
        calls.append(args[-1])
        return original(*args)

    monkeypatch.setattr(fixedpoint, "_trace_sequences", counting)
    cases = trace_cases()
    assert [exterior_data(c.dstar).spectrum.dim_gt1 for c in cases] == [1, 2, 2, 1, 3]
    for cand in cases:
        for run in (lambda c: compute_zeta(c, kmax=12), lambda c: check_sign_relations(c, kmax=1)):
            calls.clear()
            run(cand)
            assert len(calls) == cand.entry.dim, cand.dstar


def test_trace_sequences_against_explicit_powers():
    """Each sequence of `_trace_sequences` against tr(B_i' (q E)^k) from
    explicit integer powers, for every j and for kmax below, at and past
    the recurrence order C(n, j), orders 1-3 (nontrivial holonomy and
    rational D included)."""
    from infranil.fixedpoint import _trace_sequences

    rational = MapCandidate(catalog_lookup("torus-3"), (0, 0, 0),
                            QMatrix([[F(1, 2), 1, 0], [0, F(-3, 2), 1], [1, F(2, 3), 2]]))
    for cand in trace_cases() + [rational]:
        n, ext = cand.entry.dim, exterior_data(cand.dstar)
        group = holonomy(cand.entry)
        for j in range(1, n + 1):
            (q, qe), order = ext.forms[j], comb(n, j)
            r, flats = group.exterior_powers[j]
            for kmax in sorted({0, order - 1, order, order + 1, 12}):
                got = _trace_sequences(group.exterior_powers[j], ext.forms[j],
                                       ext.det_polys[j], kmax)
                assert got[:2] == (r, q)
                power = [int(a == b) for a in range(order) for b in range(order)]
                expected = [[] for _ in flats]
                for _ in range(kmax + 1):
                    for seq, flat in zip(expected, flats):
                        seq.append(sum(flat_product(flat, power, order)[t * order + t]
                                       for t in range(order)))
                    power = flat_product(power, qe, order)
                assert got[2] == expected, (cand.dstar, j, kmax)


def test_positive_part_reads_the_shared_traces():
    """The part is the same whether the traces run to kmax 1, shorter than
    the C(n, m) terms it reads, to exactly C(n, m), or to 40."""
    corpus = [
        family_instantiate(spec, params)
        for spec in load_corpus().families
        for params in sample_params(spec, 1, seed=1)
    ]
    for cand in trace_cases() + corpus:
        ext, group = exterior_data(cand.dstar), holonomy(cand.entry)
        expected = part_of(cand)
        for kmax in (comb(cand.entry.dim, ext.spectrum.dim_gt1), 40):
            traces = exterior_traces(ext, group, kmax)
            assert positive_part(ext, group, traces) == expected, (cand.dstar, kmax)
    for cand in trace_cases():
        assert check_sign_relations(cand, kmax=1).ok


@pytest.mark.parametrize("kmax", [0, -5])
def test_kmax_below_one_is_a_constraint_error(kmax):
    from infranil.zeta import compute_zeta

    cand = MapCandidate(catalog_lookup("torus-2"), (0, 0), QMatrix([[2, 1], [1, 1]]))
    with pytest.raises(ConstraintError, match="kmax must be >= 1"):
        compute_zeta(cand, kmax=kmax)
    with pytest.raises(ConstraintError, match="kmax must be >= 1"):
        check_sign_relations(cand, kmax=kmax)
    assert compute_zeta(cand, kmax=1).lefschetz_numbers == (-1,)


def reference_exterior(ext, n):
    """(det_polys, factors) by the route that reads nothing off
    charpoly(D): the characteristic polynomial of each integer form flat_j
    of Lambda^j D, and factor_over_q of q_j^d det(I - z flat_j)(z / q_j)."""
    from infranil.matrices import scaled_det_one_minus_z
    from infranil.polynomials import IntPoly, factor_over_q

    det_polys, factors = [], []
    for j, (q, flat) in enumerate(ext.forms):
        poly = scaled_det_one_minus_z(flat, comb(n, j), 1)
        d = poly.degree
        scaled = IntPoly([c * q ** (d - t) for t, c in enumerate(poly.coeffs)])
        det_polys.append(poly)
        factors.append(tuple(factor_over_q(scaled)) if d > 0 else ())
    return tuple(det_polys), tuple(factors)


def sympy_exterior(m, j):
    """(q_j, ascending coefficients of det(I - z q_j Lambda^j D), sorted
    factor_list of det(I - z Lambda^j D) with primitive positive-leading
    integer factors), all from sympy's minors of D."""
    from itertools import combinations

    import sympy

    z = sympy.Symbol("z")
    dm = sympy_matrix(m.rows)
    subsets = list(combinations(range(m.nrows), j))
    ext = sympy.Matrix(len(subsets), len(subsets),
                       lambda a, b: dm.extract(list(subsets[a]), list(subsets[b])).det())
    q = sympy.ilcm(1, *(v.q for v in ext))
    det = sympy.expand((sympy.eye(len(subsets)) - z * ext).det())
    scaled = sympy.Poly(det.subs(z, q * z), z).all_coeffs()[::-1]
    _, pairs = sympy.factor_list(det, z)
    factors = []
    for f, mult in pairs:
        fc = [int(c) for c in reversed(sympy.Poly(f, z).all_coeffs())]
        factors.append((tuple(-c for c in fc) if fc[-1] < 0 else tuple(fc), mult))
    return int(q), [int(c) for c in scaled], sorted(factors)


def special_matrices():
    """Rank 0, 1 and 2, nilpotent and repeated-eigenvalue linear parts, and
    half-integer Heisenberg D*."""
    import random

    out = [
        QMatrix([[0]]), QMatrix([[0, 0], [0, 0]]), QMatrix([[0, 1], [0, 0]]), QMatrix([[2, 0], [0, 0]]),
        QMatrix([[0] * 3] * 3),
        QMatrix([[1, 2, 3], [2, 4, 6], [F(-1, 2), -1, F(-3, 2)]]),           # rank 1
        QMatrix([[0, 1, 0], [0, 0, 1], [0, 0, 0]]),                          # nilpotent, rank 2
        QMatrix([[1, 2, 3], [4, 5, 6], [5, 7, 9]]),                          # rank 2
        QMatrix([[2, 1, 0], [0, 2, 0], [0, 0, 2]]), QMatrix([[3, 0, 0], [0, 3, 0], [0, 0, 3]]),
        QMatrix([[2, 0, 0], [0, 2, 0], [0, 0, -1]]), QMatrix([[-1, 1, 0], [0, -1, 1], [0, 0, -1]]),
        QMatrix([[0, -1, 0], [1, 0, 0], [0, 0, 0]]), QMatrix([[2, 1], [0, 2]]),
    ]
    out += [cand.dstar for cand in random_heisenberg_half_integer_maps(random.Random(11), 6)]
    return out


def random_rational_matrices(rng, per_size):
    """1 x 1 to 3 x 3 matrices with entries over denominators 1, 2, 3 and 6."""
    return [
        QMatrix([[F(rng.randint(-9, 9), rng.choice((1, 2, 3, 6))) for _ in range(n)] for _ in range(n)])
        for n in (1, 2, 3) for _ in range(per_size)
    ]


def test_exterior_factors_of_d_are_reversed_spectrum_factors(bench_workloads):
    """Every det_polys[j] and factors[j] of `exterior_data` is read off
    charpoly(D) and eigen_classify's factors of it.  They must equal the
    route with a characteristic polynomial and a factorization per j on random rational
    matrices, singular, nilpotent and repeated-eigenvalue ones, half-integer
    Heisenberg D*, and every corpus seed-1 and random-maps seed-1 candidate;
    on all but the catalog runs, also sympy's minors and factor_list."""
    import random

    from test_spectrum import corpus_candidates

    with_sympy = special_matrices() + random_rational_matrices(random.Random(31), 15)
    cases = with_sympy + [cand.dstar for cand in corpus_candidates()]
    cases += [cand.dstar for cand in bench_workloads.random_maps_instances(1)]
    assert len(cases) == len(with_sympy) + 264 + 300
    singular = 0
    for i, m in enumerate(cases):
        n = m.nrows
        ext = exterior_data(m)
        assert ext.spectrum == eigen_classify(m)
        assert (ext.det_polys, ext.factors) == reference_exterior(ext, n), m
        if i < len(with_sympy):
            for j in range(n + 1):
                q, scaled, factors = sympy_exterior(m, j)
                assert ext.forms[j][0] == q and list(ext.det_polys[j].coeffs) == scaled, (m, j)
                assert sorted((f.coeffs, mult) for f, mult in ext.factors[j]) == factors, (m, j)
        singular += m.det() == 0
    assert singular >= 20
