import random
from fractions import Fraction

import pytest

from infranil.catalog import HEISENBERG, catalog_ids, catalog_lookup, holonomy
from infranil.errors import ConstraintError, CorpusError, InvalidCandidateError
from infranil.matrices import QMatrix, integer_form
from infranil.selfmaps import (
    MapCandidate,
    PhiAssignment,
    _lattice_witness,
    default_corpus_path,
    family_instantiate,
    _domain_values,
    _in_domain,
    heis_endo_check,
    load_corpus,
    sample_params,
    validate_selfmap,
)

F = Fraction


def kb_candidate(a, b, r, s):
    entry = catalog_lookup("klein-bottle")
    return MapCandidate(entry, (F(r), F(s)), QMatrix([[a, 0], [0, b]]))


def test_klein_bottle_diag_3_5():
    phi = validate_selfmap(kb_candidate(3, 5, 0, F(1, 2)))
    assert phi is not None
    # the orientation-reversing generator must map to the nontrivial holonomy class
    assert phi.holonomy_image(0) != 0
    assert phi.holonomy_image(1) == 0


def test_klein_bottle_worked_cases():
    # both odd: s must lie in (1/2) Z
    assert validate_selfmap(kb_candidate(3, 5, F(2, 3), 1)) is not None
    assert validate_selfmap(kb_candidate(3, 5, 0, F(1, 4))) is None
    # a odd, b even: s in (1/4) Z minus (1/2) Z
    assert validate_selfmap(kb_candidate(3, 2, 0, F(1, 4))) is not None
    assert validate_selfmap(kb_candidate(3, 2, 0, F(1, 2))) is None
    # a even diagonal fails regardless
    assert validate_selfmap(kb_candidate(4, 5, 0, F(1, 2))) is None
    # rank-one shape with both entries even is fine
    entry = catalog_lookup("klein-bottle")
    c = MapCandidate(entry, (F(1, 3), F(2, 7)), QMatrix([[2, 0], [4, 0]]))
    assert validate_selfmap(c) is not None
    # same shape with odd corner fails
    c = MapCandidate(entry, (0, 0), QMatrix([[3, 0], [4, 0]]))
    assert validate_selfmap(c) is None


def test_klein_bottle_diag_a_zero_invalid():
    assert validate_selfmap(kb_candidate(3, 0, 0, 0)) is None


def test_identity_is_always_valid():
    for entry_id, params in [
        ("circle", {}),
        ("torus-2", {}),
        ("klein-bottle", {}),
        ("hantzsche-wendt", {}),
        ("flat3-3", {}),
        ("flat3-6", {}),
        ("flat3-7", {}),
        ("heis-I", {"k": 3}),
        ("heis-II", {"k": 2}),
        ("heis-VIII", {"k": 4}),
        ("heis-XVI-c5", {"k": 2}),
    ]:
        entry = catalog_lookup(entry_id, params)
        cand = MapCandidate(
            entry, (0,) * entry.dim, QMatrix.identity(entry.dim)
        )
        group = holonomy(entry)
        phi = validate_selfmap(cand)
        assert phi is not None, entry_id
        # identity map: phi is the identity morphism, so every generator maps
        # to its own holonomy class
        for gi, hi, _ in phi.entries:
            assert group.elements[hi] == entry.generators[gi].holonomy_part()


def test_heis_endo_check():
    assert heis_endo_check(QMatrix.identity(3))
    assert heis_endo_check(QMatrix([[1, 5, 7], [0, 2, 1], [0, 1, 1]]))
    assert not heis_endo_check(QMatrix([[2, 0, 0], [0, 2, 1], [0, 1, 1]]))
    assert not heis_endo_check(QMatrix([[1, 0, 0], [1, 2, 1], [0, 1, 1]]))
    with pytest.raises(InvalidCandidateError):
        heis_endo_check(QMatrix.identity(2))


def heis_nil_candidate(k, block, x, y, r=0, s=0, t=0):
    entry = catalog_lookup("heis-I", {"k": k})
    (a, b), (c, d) = block
    det = a * d - b * c
    dstar = QMatrix([[det, x, y], [0, a, b], [0, c, d]])
    return MapCandidate(entry, (F(r), F(s), F(t)), dstar)


def test_heis_nilmanifold_translation_constraints():
    # d = 0: the self-map condition on the lattice forces
    # x + k*a*c/2 and y + k*b*d/2 integral
    cand = heis_nil_candidate(2, ((2, 1), (1, 1)), x=0, y=0)
    assert validate_selfmap(cand) is not None
    cand = heis_nil_candidate(2, ((2, 1), (1, 1)), x=F(1, 2), y=0)
    assert validate_selfmap(cand) is None
    # k odd makes the parity correction k*a*c/2 genuinely half-integral
    cand = heis_nil_candidate(1, ((1, 0), (1, 1)), x=F(1, 2), y=0)
    assert validate_selfmap(cand) is not None
    cand = heis_nil_candidate(1, ((1, 0), (1, 1)), x=0, y=0)
    assert validate_selfmap(cand) is None
    # nonzero translation shifts the admissible x by k*(a*s - c*r)
    cand = heis_nil_candidate(2, ((2, 1), (1, 1)), x=-1, y=F(-1, 2), r=F(1, 4), s=0)
    assert validate_selfmap(cand) is None
    cand = heis_nil_candidate(2, ((2, 1), (1, 1)), x=F(-1, 2), y=F(-1, 2), r=F(1, 4), s=0)
    assert validate_selfmap(cand) is not None


def test_candidate_rejects_non_endomorphism():
    entry = catalog_lookup("heis-I", {"k": 2})
    with pytest.raises(InvalidCandidateError):
        MapCandidate(entry, (0, 0, 0), QMatrix([[5, 0, 0], [0, 2, 1], [0, 1, 1]]))


def test_iterate_of_valid_map_is_valid():
    cand = kb_candidate(3, 5, F(1, 3), F(1, 2))
    for k in (2, 3):
        it = cand.iterate(k)
        assert it.dstar == cand.dstar.power(k)
        assert validate_selfmap(it) is not None
    heis = heis_nil_candidate(2, ((2, 1), (1, 1)), x=1, y=2, r=F(1, 2), s=0, t=F(1, 3))
    assert validate_selfmap(heis) is not None
    it = heis.iterate(2)
    assert validate_selfmap(it) is not None


def test_hantzsche_wendt_family_example():
    from infranil.selfmaps import family_instantiate, load_corpus

    spec = next(f for f in load_corpus().families if f.label == "hantzsche-wendt#1")
    cand = family_instantiate(
        spec, {"a": "3", "b": "5", "c": "7", "r": "1/2", "s": "0", "t": "1/2"}
    )
    assert cand.dstar == QMatrix([[3, 0, 0], [0, 5, 0], [0, 0, 7]])
    assert validate_selfmap(cand) is not None


def test_klein_family2_constraint_named():
    import pytest as _pytest

    from infranil.errors import ConstraintError
    from infranil.selfmaps import family_instantiate, load_corpus

    spec = next(f for f in load_corpus().families if f.label == "klein-bottle#2")
    with _pytest.raises(ConstraintError) as err:
        family_instantiate(spec, {"a": "3", "b": "5", "r": "0", "s": "1/4"})
    assert "b % 2 == 0" in str(err.value)


def test_every_sampled_value_is_in_its_domain():
    from infranil.exprs import parse_rational

    domains = {d for spec in load_corpus().families for _, d in spec.params}
    assert len(domains) == 29
    for domain in domains:
        for large in (False, True):
            for value in _domain_values(domain, large):
                assert _in_domain(domain, parse_rational(value)), (domain, value)


@pytest.mark.parametrize("domain, value", [
    ("int", F(1, 2)), ("int_nonzero", F(0)), ("int_odd", F(2)), ("int_even", F(-3)),
    ("int_mod:3:1", F(2)), ("int_mod:6:2,4", F(3)), ("int_pos_mod:2:0", F(0)),
    ("int_pos_mod:3:1,2", F(-1)), ("int_multiple:4", F(6)), ("half_int", F(1, 3)),
    ("half_odd", F(1)), ("quarter_odd", F(1, 2)), ("third_int", F(1, 2)),
    ("shift:1/3", F(2, 3)),
])
def test_values_outside_their_domain_are_rejected(domain, value):
    assert not _in_domain(domain, value)


def test_unknown_domain_is_a_corpus_error():
    with pytest.raises(CorpusError, match="unknown parameter domain 'odd'"):
        _in_domain("odd", F(1))


# ---------------------------------------------------------------------------
# The integer rotational filter against the Fraction algorithm it replaced
# ---------------------------------------------------------------------------

QUARTERS = [F(q, 4) for q in range(-16, 17)]


def reference_validate(candidate, group):
    """validate_selfmap as first written: the rotational filter and both
    affine products in Fractions, recomputed for every generator and every
    holonomy element."""
    entry = candidate.entry
    cand = candidate.embedded().matrix
    dstar = candidate.dstar
    found = []
    for gi, gen in enumerate(entry.generators):
        x = cand * gen.matrix
        astar = gen.holonomy_part()
        hit = None
        for hi, (bstar, rep) in enumerate(zip(group.elements, group.representatives)):
            if dstar * astar != bstar * dstar:
                continue
            w = _lattice_witness(entry, x, rep.matrix * cand)
            if w is not None:
                hit = (gi, hi, w)
                break
        if hit is None:
            return None
        found.append(hit)
    return PhiAssignment(tuple(found))


def smallest_entries():
    """Every catalog entry, Heisenberg types at their smallest admissible k."""
    out = []
    for entry_id in catalog_ids():
        if not entry_id.startswith("heis"):
            out.append(catalog_lookup(entry_id))
            continue
        for k in range(1, 25):
            try:
                out.append(catalog_lookup(entry_id, {"k": k}))
                break
            except ConstraintError:
                continue
    return out


def random_linear(rng, n, dense):
    if dense:
        return [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
    perm = list(range(n))
    rng.shuffle(perm)
    rows = [[0] * n for _ in range(n)]
    for i, j in enumerate(perm):
        rows[i][j] = rng.choice((-1, 1)) * rng.randint(1, 3)
    return rows


def random_candidate(rng, entry, dense):
    """Half signed permutation times diagonal, half dense D; translations in
    (1/4)Z."""
    if entry.model == HEISENBERG:
        (a, b), (c, d) = random_linear(rng, 2, dense)
        top = [rng.randint(-3, 3) if dense else 0 for _ in range(2)]
        rows = [[a * d - b * c] + top, [0, a, b], [0, c, d]]
    else:
        rows = random_linear(rng, entry.dim, dense)
    translation = tuple(rng.choice(QUARTERS) for _ in range(entry.dim))
    return MapCandidate(entry, translation, QMatrix(rows))


def assert_same(candidate, group):
    expected = reference_validate(candidate, group)
    got = validate_selfmap(candidate)
    assert got == expected, (candidate.entry.id, candidate.dstar, candidate.translation)
    return got


def test_filter_matches_fraction_reference():
    rng = random.Random(20261018)
    accepted = []
    count = 0
    for entry in smallest_entries():
        group = holonomy(entry)
        for i in range(40):
            cand = random_candidate(rng, entry, dense=i % 2 == 1)
            if assert_same(cand, group) is not None:
                accepted.append(cand)
            count += 1
    assert count == 24 * 40
    # a fair share of both outcomes, on abelian and Heisenberg entries alike
    assert 50 < len(accepted) < count - 50
    assert {c.entry.model for c in accepted} == {"abelian", HEISENBERG}
    for cand in accepted:
        it = cand.iterate(2)
        assert assert_same(it, holonomy(cand.entry)) is not None


def test_filter_matches_fraction_reference_on_corpus():
    for spec in load_corpus().families:
        for params in sample_params(spec, 1, seed=1):
            cand = family_instantiate(spec, params, corpus_check=False)
            assert assert_same(cand, holonomy(cand.entry)) is not None


def test_heisenberg_reject_at_rotation_runs_no_witness(monkeypatch):
    # heis-II: generators a, b, c with identity holonomy, then the rotation
    # diag(1, -1, -1); the top row (1, 0) of D* breaks D A == B D for every
    # holonomy element B, so the candidate is rejected at the rotation alone
    import infranil.selfmaps as sm

    entry = catalog_lookup("heis-II", {"k": 2})
    group = holonomy(entry)
    cand = MapCandidate(entry, (0, 0, 0), QMatrix([[1, 1, 0], [0, 2, 1], [0, 1, 1]]))
    rotation = entry.generators[-1].holonomy_part()
    assert not rotation.is_identity()
    assert all(cand.dstar * rotation != b * cand.dstar for b in group.elements)
    calls = []

    def counting_witness(*args):
        calls.append(args)
        return _lattice_witness(*args)

    monkeypatch.setattr(sm, "_lattice_witness", counting_witness)
    assert validate_selfmap(cand) is None
    assert calls == []
    # an accepted candidate still runs one witness per generator
    assert validate_selfmap(heis_nil_candidate(2, ((2, 1), (1, 1)), x=0, y=0)) is not None
    assert len(calls) == 3


def test_holonomy_integer_elements_match_generators():
    # the filter reads generator gi's holonomy part as
    # elements[generator_indices[gi]] and the elements in integer form
    for entry in smallest_entries():
        group = holonomy(entry)
        for gi, gen in enumerate(entry.generators):
            assert group.elements[group.generator_indices[gi]] == gen.holonomy_part()
        assert group.integer_elements is group.integer_elements
        assert group.integer_elements == integer_form(group.elements)
        assert group.exterior_powers[1] == group.integer_elements


def test_packaged_corpus_parsed_once(tmp_path, monkeypatch):
    monkeypatch.delenv("ZETA_CORPUS", raising=False)
    default = load_corpus()
    assert load_corpus() is default
    path = tmp_path / "families.json"
    path.write_text(default_corpus_path().read_text())
    first = load_corpus(str(path))
    assert first is not default and first == default
    assert load_corpus(str(path)) is not first
    monkeypatch.setenv("ZETA_CORPUS", str(path))
    assert load_corpus() is not default
    assert load_corpus() == default
