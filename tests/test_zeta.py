import random
from fractions import Fraction
from math import comb

import pytest

from infranil.catalog import catalog_lookup, holonomy
from infranil.fixedpoint import exterior_data
from infranil.matrices import QMatrix
from infranil.polynomials import QPoly
from infranil.selfmaps import MapCandidate, validate_selfmap
from infranil.series import RatFuncProduct, rfp_equal
from infranil.zeta import _structural, compute_zeta
from modulus_split import part_of
from oracles import exterior_closed_form, kb

F = Fraction


def rfp(*pairs):
    return RatFuncProduct.from_factors([(QPoly(c), e) for c, e in pairs])


def test_klein_lefschetz_zeta():
    # L(f^k) = 1 - 3^k  ->  (1 - 3z)/(1 - z)
    assert rfp_equal(compute_zeta(kb(3, 5, 0, F(1, 2))).lefschetz, rfp(([1, -3], 1), ([1, -1], -1)))


def test_klein_nielsen_zeta_both_routes():
    cand = kb(3, 5, 0, F(1, 2))
    expected = rfp(([1, -5], 1), ([1, -15], -1))
    res = compute_zeta(cand)
    assert rfp_equal(res.nielsen_direct, expected)
    assert rfp_equal(res.nielsen_structural, expected)


def test_torus_lefschetz_closed_form():
    entry = catalog_lookup("torus-2")
    cand = MapCandidate(entry, (0, 0), QMatrix([[2, 1], [1, 1]]))
    # (1 - 3z + z^2) / (1 - z)^2
    expected = rfp(([1, -3, 1], 1), ([1, -1], -2))
    res = compute_zeta(cand)
    assert rfp_equal(res.lefschetz, expected)
    assert rfp_equal(exterior_closed_form(cand.dstar), expected)
    # p odd, n even: N_f = 1/L_f
    expected_n = rfp(([1, -3, 1], -1), ([1, -1], 2))
    assert rfp_equal(res.nielsen_direct, expected_n)


def test_zero_map_zeta():
    res = compute_zeta(kb(0, 0, F(1, 5), F(3, 7)))
    assert rfp_equal(res.nielsen_direct, rfp(([1, -1], -1)))
    assert rfp_equal(res.lefschetz, rfp(([1, -1], -1)))


def test_circle_degrees():
    entry = catalog_lookup("circle")
    for d, expected in [
        (2, rfp(([1, -1], 1), ([1, -2], -1))),
        (-2, rfp(([1, 1], 1), ([1, -2], -1))),
        (1, RatFuncProduct.one()),
        (-1, rfp(([1, 1], 1), ([1, -1], -1))),
        (0, rfp(([1, -1], -1))),
    ]:
        cand = MapCandidate(entry, (F(1, 3),), QMatrix([[d]]))
        result = compute_zeta(cand)
        assert rfp_equal(result.nielsen, expected), d


def test_compute_zeta_result_fields():
    res = compute_zeta(kb(3, 5, 0, F(1, 2)))
    assert (res.p, res.n, res.index) == (2, 0, 2)
    assert res.case_label == "Gamma != Gamma+, p even, n even"
    assert res.lefschetz_numbers[:3] == (-2, -8, -26)
    assert res.nielsen_numbers[:3] == (10, 200, 3250)
    assert res.lefschetz_plus is not None
    # L_{f+} = (1-3z)(1-5z) / ((1-z)(1-15z))
    assert rfp_equal(
        res.lefschetz_plus,
        rfp(([1, -3], 1), ([1, -5], 1), ([1, -1], -1), ([1, -15], -1)),
    )
    assert rfp_equal(res.nielsen_direct, res.nielsen_structural)


def test_nielsen_zeta_negative_entries():
    cand = kb(-3, 5, 0, F(1, 2))
    res = compute_zeta(cand)
    # p = 1 (eigenvalue 5), n = 1 (eigenvalue -3): the (odd, odd) cell
    assert (res.p % 2, res.n % 2) == (1, 1)
    assert rfp_equal(res.nielsen_direct, res.nielsen_structural)
    # log-derivative of the product reproduces the Nielsen sequence
    assert tuple(res.nielsen.logderiv_series(20)) == res.nielsen_numbers[:20]


def test_heisenberg_nilmanifold_zeta():
    entry = catalog_lookup("heis-I", {"k": 2})
    dstar = QMatrix([[1, 0, 0], [0, 2, 1], [0, 1, 1]])
    cand = MapCandidate(entry, (0, 0, 0), dstar)
    assert validate_selfmap(cand) is not None
    res = compute_zeta(cand)
    assert res.index == 1
    assert rfp_equal(res.lefschetz, exterior_closed_form(dstar))
    assert tuple(res.nielsen.logderiv_series(15)) == res.nielsen_numbers[:15]


def test_exterior_closed_form_vs_reconstruction_random():
    rng = random.Random(17)
    for entry_id, dim in [("circle", 1), ("torus-2", 2), ("torus-3", 3)]:
        entry = catalog_lookup(entry_id)
        for _ in range(6):
            m = QMatrix([[rng.randint(-9, 9) for _ in range(dim)] for _ in range(dim)])
            cand = MapCandidate(entry, (0,) * dim, m)
            assert rfp_equal(compute_zeta(cand).lefschetz, exterior_closed_form(m))


def written_out_case_table(lef, lef_plus, index, p, n):
    """The parity/index case table as the averaging formula's source writes
    it out, the oracle of the one rule N_f(z) = B(sigma z)^eps:

                      p even, n even   p even, n odd    p odd, n even   p odd, n odd
        index 1: N_f = L_f             1/L_f(-z)        1/L_f(z)        L_f(-z)
        index 2: N_f = L_f+/L_f        L_f(-z)/L_f+(-z) L_f(z)/L_f+(z)  L_f+(-z)/L_f(-z)
    """
    neg_lef, neg_plus = lef.subs_neg_z(), lef_plus.subs_neg_z()
    return {
        (1, 0, 0): lef,
        (1, 0, 1): neg_lef.reciprocal(),
        (1, 1, 0): lef.reciprocal(),
        (1, 1, 1): neg_lef,
        (2, 0, 0): lef_plus / lef,
        (2, 0, 1): neg_lef / neg_plus,
        (2, 1, 0): lef / lef_plus,
        (2, 1, 1): neg_plus / neg_lef,
    }[index, p % 2, n % 2]


def test_structural_route_uses_case_table():
    # Klein bottle with expanding pair: check the quotient identity
    res = compute_zeta(kb(3, 5, 0, F(1, 2)))
    assert rfp_equal(res.nielsen_structural, res.lefschetz_plus / res.lefschetz)
    # every (index, p parity, n parity) cell of the written-out table against
    # the rule, on fixed products with odd and even powers of z in each
    lef = rfp(([1, -3], 1), ([1, 1, 2], -1), ([1, -1], -2))
    lef_plus = rfp(([1, -5, 1], 1), ([1, 2], 1), ([1, -1], -1))
    cells = set()
    for index in (1, 2):
        for p in range(4):
            for n in range(4):
                want = written_out_case_table(lef, lef_plus, index, p, n)
                assert rfp_equal(_structural(lef, lef_plus, index, p, n), want), (index, p, n)
                cells.add(str(want))
    assert len(cells) == 8


def test_hantzsche_wendt_diag_zeta():
    entry = catalog_lookup("hantzsche-wendt")
    cand = MapCandidate(
        entry, (F(1, 2), 0, F(1, 2)), QMatrix([[3, 0, 0], [0, 3, 0], [0, 0, 3]])
    )
    assert validate_selfmap(cand) is not None
    res = compute_zeta(cand)
    # p = 3 odd, n = 0 even, all holonomy determinants +1: N_f = 1/L_f
    assert (res.p, res.n, res.index) == (3, 0, 1)
    assert rfp_equal(res.nielsen, rfp(([1, -1], 1), ([1, -27], -1)))


def test_sign_relations_field_matches_standalone_check():
    from infranil.fixedpoint import check_sign_relations
    from infranil.selfmaps import family_instantiate, load_corpus, sample_params

    seen = {1: 0, 2: 0}
    for spec in load_corpus().families:
        if spec.manifold not in ("klein-bottle", "hantzsche-wendt", "flat3-8", "heis-II"):
            continue
        cand = family_instantiate(spec, sample_params(spec, 1)[0])
        for kmax in (12, 40):
            res = compute_zeta(cand, kmax=kmax)
            assert res.sign_relations == check_sign_relations(cand, kmax=kmax), spec.label
            assert res.sign_relations.ok and res.sign_relations.kmax == kmax
        seen[res.index] += 1
    assert seen[1] >= 2 and seen[2] >= 2, seen


def hw_diag():
    """Hantzsche-Wendt with D = 3I: non-trivial holonomy, index 1."""
    entry = catalog_lookup("hantzsche-wendt")
    return MapCandidate(entry, (F(1, 2), 0, F(1, 2)), QMatrix([[3, 0, 0], [0, 3, 0], [0, 0, 3]]))


def test_compute_zeta_checks_averaged_closed_form(monkeypatch):
    import infranil.zeta as zeta_module
    from infranil.errors import RouteMismatchError

    torus = MapCandidate(catalog_lookup("torus-2"), (0, 0), QMatrix([[2, 1], [1, 1]]))
    cases = [(torus, 1, 1), (hw_diag(), 4, 1), (kb(3, 5, 0, F(1, 2)), 2, 2)]
    closed = zeta_module._averaged_closed_form
    plus_averages = None
    for cand, order, index in cases:
        res = compute_zeta(cand)
        group = holonomy(cand.entry)
        assert (group.order, res.index) == (order, index)
        ext = exterior_data(cand.dstar)
        assert rfp_equal(res.lefschetz, closed(ext, group.exterior_averages()))
        if index == 2:
            plus = part_of(cand).plus_indices
            plus_averages = group.exterior_averages(plus)
            assert rfp_equal(res.lefschetz_plus, closed(ext, plus_averages))
    assert rfp_equal(compute_zeta(kb(3, 5, 0, F(1, 2))).lefschetz, rfp(([1, -3], 1), ([1, -1], -1)))
    wrong = rfp(([1, -2], 1), ([1, -1], -2))
    monkeypatch.setattr(zeta_module, "_averaged_closed_form", lambda ext, averages: wrong)
    for cand, _, _ in cases:
        with pytest.raises(RouteMismatchError):
            compute_zeta(cand)
    # a wrong L_f+ alone is caught as well
    cand = cases[2][0]
    monkeypatch.setattr(
        zeta_module, "_averaged_closed_form",
        lambda ext, averages: wrong if averages is plus_averages else closed(ext, averages),
    )
    with pytest.raises(RouteMismatchError):
        compute_zeta(cand)


@pytest.mark.parametrize("case", ["torus-2", "klein-bottle-off-plus", "klein-bottle-plus"])
def test_corrupted_lefschetz_number_raises(monkeypatch, case):
    """Flipping the sign of one det(I - A D^k) keeps N(f^k) and changes
    L(f^k); at k = 35 it lies past the Nielsen fitting window (28 terms), so
    only the closed-form check on the whole table can catch it."""
    import infranil.fixedpoint as fixedpoint_module
    from infranil.errors import RouteMismatchError

    if case == "torus-2":
        cand = MapCandidate(catalog_lookup("torus-2"), (0, 0), QMatrix([[2, 1], [1, 1]]))
    else:
        cand = kb(3, 5, 0, F(1, 2))
    plus = part_of(cand).plus_indices
    column = 0 if case == "torus-2" else next(
        i for i in range(2) if (i in plus) == (case == "klein-bottle-plus")
    )
    k = 35
    original = fixedpoint_module.det_table

    def corrupted(ext, group, kmax, traces):
        table = original(ext, group, kmax, traces)
        den, nums = table[k - 1]
        nums = list(nums)
        assert nums[column] != 0
        nums[column] = -nums[column]
        table[k - 1] = (den, tuple(nums))
        return table

    assert compute_zeta(cand).nielsen_numbers[k - 1] > 0
    monkeypatch.setattr(fixedpoint_module, "det_table", corrupted)
    with pytest.raises(RouteMismatchError, match=r"f\^35"):
        compute_zeta(cand)


def form_matrix(form) -> QMatrix:
    """The matrix flat / den of an integer form (den, flat), flat row-major."""
    den, flat = form
    m = round(len(flat) ** 0.5)
    return QMatrix([[F(v, den) for v in flat[i * m:(i + 1) * m]] for i in range(m)])


def test_averages_intertwine_exterior_powers_on_corpus():
    """Lambda^j D . P_j = P_phi(F) . Lambda^j D, where phi(F) is the subgroup
    generated by the holonomy images that validation assigns to the
    generators."""
    from infranil.selfmaps import family_instantiate, load_corpus, sample_params

    checked = 0
    for spec in load_corpus().families:
        for params in sample_params(spec, 1, 1):
            cand = family_instantiate(spec, params)
            group = holonomy(cand.entry)
            phi = validate_selfmap(cand)
            image = {0} | {h for _, h, _ in phi.entries}
            while True:
                grown = image | {group.table[a][b] for a in image for b in image}
                if grown == image:
                    break
                image = grown
            ext = exterior_data(cand.dstar)
            full = group.exterior_averages()
            sub = group.exterior_averages(sorted(image))
            for j, form in enumerate(ext.forms):
                power = form_matrix(form)
                p, p_image = form_matrix(full[j]), form_matrix(sub[j])
                assert power * p == p_image * power, (spec.label, params, j)
            checked += 1
    assert checked == 264


def lefschetz_reconstructions(cand):
    """The direct route's reconstruction (Berlekamp-Massey, then the
    exponent read over the candidate's factor hints) on the L and L_+
    sequences of the first sequence_length(dim) rows of the determinant
    table."""
    from infranil.fixedpoint import _number_sequences, det_table, exterior_traces, positive_part
    from infranil.series import berlekamp_massey_q, exponents_from_logderiv
    from infranil.zeta import candidate_factor_hints, recurrence_bound, sequence_length

    dim = cand.entry.dim
    ext, group = exterior_data(cand.dstar), cand.entry.holonomy_group
    traces = exterior_traces(ext, group, sequence_length(dim))
    part = positive_part(ext, group, traces)
    table = det_table(ext, group, sequence_length(dim), traces)
    hints = candidate_factor_hints(ext)

    def reconstruct(seq):
        num, den = berlekamp_massey_q(seq, recurrence_bound(dim))
        return exponents_from_logderiv(num, den, hints)

    lef_seq, _, plus = _number_sequences(table, part)
    if part.index == 1:
        return reconstruct(lef_seq), None
    return reconstruct(lef_seq), reconstruct(plus)


def assert_reconstruction_matches(cand, label):
    res = compute_zeta(cand)
    lef, lef_plus = lefschetz_reconstructions(cand)
    assert rfp_equal(res.lefschetz, lef), label
    if lef_plus is None:
        assert res.lefschetz_plus is None, label
    else:
        assert rfp_equal(res.lefschetz_plus, lef_plus), label
    return res.index


def test_closed_form_matches_lefschetz_reconstruction_on_corpus():
    from infranil.selfmaps import family_instantiate, load_corpus, sample_params

    indices = []
    for spec in load_corpus().families:
        for params in sample_params(spec, 1, 1):
            indices.append(assert_reconstruction_matches(family_instantiate(spec, params), spec.label))
    assert len(indices) == 264 and indices.count(2) > 0


def test_closed_form_matches_lefschetz_reconstruction_on_random_maps(bench_workloads):
    instances = bench_workloads.random_maps_instances(1)
    for i, cand in enumerate(instances):
        assert_reconstruction_matches(cand, i)
    assert len(instances) == 300


def count_calls(monkeypatch, names):
    """Wrap each matrices/polynomials function in `names` at every module
    binding of the package; returns {name: [argument tuples]}."""
    import sys

    calls = {name: [] for name in names}
    modules = [m for n, m in list(sys.modules.items()) if n == "infranil" or n.startswith("infranil.")]
    for name in names:
        module_name, fn_name = name.split(".")
        original = getattr(sys.modules[f"infranil.{module_name}"], fn_name)

        def wrapper(*args, _original=original, _calls=calls[name]):
            _calls.append(args)
            return _original(*args)

        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, wrapper)
    return calls


@pytest.mark.parametrize("manifold", ["flat3-8", "heis-I", "torus-3"])
def test_exterior_data_formed_once_per_candidate(monkeypatch, manifold):
    from infranil.matrices import charpoly, integer_form
    from infranil.selfmaps import family_instantiate, load_corpus, sample_params

    spec = next(f for f in load_corpus().families if f.manifold == manifold)
    cand = family_instantiate(spec, sample_params(spec, 1)[0])
    dim = cand.entry.dim
    cp = charpoly(cand.dstar).to_int()[0]
    forms = exterior_data(cand.dstar).forms
    # Lambda^j A is formed once per holonomy group, not per candidate
    holonomy(cand.entry).exterior_powers
    calls = count_calls(
        monkeypatch, ["matrices.charpoly", "matrices.exterior_power", "polynomials.factor_over_q",
                      "matrices.scaled_det_one_minus_z"]
    )
    compute_zeta(cand)
    # charpoly(D) once, for the spectrum, in closed form on D's integer
    # form, never through the QPoly charpoly, then det(I - z flat_j) once
    # per j from each integer form (the closed form of a nontrivial
    # holonomy's averages follows); every Lambda^j D is formed from the
    # integer minors of D, never through the QMatrix exterior_power
    q, (flat,) = integer_form([cand.dstar])
    formed = calls["matrices.scaled_det_one_minus_z"]
    assert formed[:dim + 2] == [(flat, dim, q)] + [
        (f, comb(dim, j), 1) for j, (_, f) in enumerate(forms)]
    assert formed.count((flat, dim, q)) == 1 + (q == 1)  # j = 1 repeats it when q = 1
    assert calls["matrices.charpoly"] == []
    assert calls["matrices.exterior_power"] == []
    # exactly one factorization, of charpoly(D): the factors of every
    # det(I - z Lambda^j D) are read off it
    assert calls["polynomials.factor_over_q"] == [(cp,)]


def test_identity_average_reads_the_exterior_factors(monkeypatch):
    """Where P_j = I (every j on trivial holonomy, and F_+ = {I} on the Klein
    bottle), the closed form takes ext.factors[j] as it stands: no trial
    division, and still the exterior closed form."""
    cases = [
        MapCandidate(catalog_lookup("torus-3"), (0, 0, 0),
                     QMatrix([[2, 1, 0], [1, 3, 1], [0, 1, -4]])),
        MapCandidate(catalog_lookup("heis-I", {"k": 1}), (0, 0, 0),
                     QMatrix([[-7, F(1, 2), 3], [0, 1, 2], [0, 5, 3]])),
        kb(3, 5, 0, F(1, 2)),
    ]
    assert all(validate_selfmap(cand) is not None for cand in cases)
    for cand in cases:
        calls = count_calls(monkeypatch, ["series.factor_with_hints"])
        res = compute_zeta(cand)
        group = holonomy(cand.entry)
        plus = part_of(cand).plus_indices
        # the Nielsen reconstruction factors one denominator; on the Klein
        # bottle the closed form of L_f divides once per j = 1, 2
        assert len(calls["series.factor_with_hints"]) == 1 + 2 * (group.order > 1)
        assert rfp_equal(res.lefschetz if group.order == 1 else res.lefschetz_plus,
                         exterior_closed_form(cand.dstar))
        assert group.order == 1 or len(plus) == 1
        monkeypatch.undo()
