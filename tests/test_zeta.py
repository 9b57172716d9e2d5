import random
from fractions import Fraction

from infranil.catalog import catalog_lookup
from infranil.matrices import QMatrix
from infranil.polynomials import QPoly
from infranil.selfmaps import MapCandidate, validate_selfmap
from infranil.series import RatFuncProduct, rfp_equal
from infranil.zeta import (
    compute_zeta,
    exterior_closed_form,
    lefschetz_zeta,
    nielsen_zeta_direct,
    nielsen_zeta_structural,
)

F = Fraction


def rfp(*pairs):
    return RatFuncProduct.from_factors([(QPoly(c), e) for c, e in pairs])


def kb(a, b, r=0, s=0):
    entry = catalog_lookup("klein-bottle")
    return MapCandidate(entry, (F(r), F(s)), QMatrix([[a, 0], [0, b]]))


def test_klein_lefschetz_zeta():
    # L(f^k) = 1 - 3^k  ->  (1 - 3z)/(1 - z)
    assert rfp_equal(lefschetz_zeta(kb(3, 5, 0, F(1, 2))), rfp(([1, -3], 1), ([1, -1], -1)))


def test_klein_nielsen_zeta_both_routes():
    cand = kb(3, 5, 0, F(1, 2))
    expected = rfp(([1, -5], 1), ([1, -15], -1))
    assert rfp_equal(nielsen_zeta_direct(cand), expected)
    assert rfp_equal(nielsen_zeta_structural(cand), expected)


def test_torus_lefschetz_closed_form():
    entry = catalog_lookup("torus-2")
    cand = MapCandidate(entry, (0, 0), QMatrix([[2, 1], [1, 1]]))
    # (1 - 3z + z^2) / (1 - z)^2
    expected = rfp(([1, -3, 1], 1), ([1, -1], -2))
    assert rfp_equal(lefschetz_zeta(cand), expected)
    assert rfp_equal(exterior_closed_form(cand.dstar), expected)
    # p odd, n even: N_f = 1/L_f
    expected_n = rfp(([1, -3, 1], -1), ([1, -1], 2))
    assert rfp_equal(nielsen_zeta_direct(cand), expected_n)


def test_zero_map_zeta():
    cand = kb(0, 0, F(1, 5), F(3, 7))
    assert rfp_equal(nielsen_zeta_direct(cand), rfp(([1, -1], -1)))
    assert rfp_equal(lefschetz_zeta(cand), rfp(([1, -1], -1)))


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
            assert rfp_equal(lefschetz_zeta(cand), exterior_closed_form(m))


def test_structural_route_uses_case_table():
    # Klein bottle with expanding pair: check the quotient identity
    cand = kb(3, 5, 0, F(1, 2))
    lef = lefschetz_zeta(cand)
    res = compute_zeta(cand)
    assert rfp_equal(res.nielsen_structural, res.lefschetz_plus / lef)


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
