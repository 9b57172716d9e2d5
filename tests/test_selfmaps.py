import random
from fractions import Fraction
from importlib import resources

import pytest

from infranil.catalog import HEISENBERG, catalog_ids, catalog_lookup, holonomy
from infranil.errors import ConstraintError, CorpusError, InvalidCandidateError
from infranil.exprs import domain_values, in_domain
from infranil.matrices import QMatrix, flat_product, integer_form
from infranil.selfmaps import (
    MapCandidate,
    PhiAssignment,
    _lattice_witness,
    _translation_column,
    family_instantiate,
    heis_endo_check,
    load_corpus,
    sample_params,
    validate_selfmap,
)
from oracles import (
    close_holonomy,
    decoded_iterate,
    group_elements,
    holonomy_part,
    kb,
    lattice_element,
)

F = Fraction


def test_klein_bottle_diag_3_5():
    phi = validate_selfmap(kb(3, 5, 0, F(1, 2)))
    assert phi is not None
    # the orientation-reversing generator must map to the nontrivial holonomy class
    images = {g: h for g, h, _ in phi.entries}
    assert images[0] != 0
    assert images[1] == 0


def test_klein_bottle_worked_cases():
    # both odd: s must lie in (1/2) Z
    assert validate_selfmap(kb(3, 5, F(2, 3), 1)) is not None
    assert validate_selfmap(kb(3, 5, 0, F(1, 4))) is None
    # a odd, b even: s in (1/4) Z minus (1/2) Z
    assert validate_selfmap(kb(3, 2, 0, F(1, 4))) is not None
    assert validate_selfmap(kb(3, 2, 0, F(1, 2))) is None
    # a even diagonal fails regardless
    assert validate_selfmap(kb(4, 5, 0, F(1, 2))) is None
    # rank-one shape with both entries even is fine
    entry = catalog_lookup("klein-bottle")
    c = MapCandidate(entry, (F(1, 3), F(2, 7)), QMatrix([[2, 0], [4, 0]]))
    assert validate_selfmap(c) is not None
    # same shape with odd corner fails
    c = MapCandidate(entry, (0, 0), QMatrix([[3, 0], [4, 0]]))
    assert validate_selfmap(c) is None


def test_klein_bottle_diag_a_zero_invalid():
    assert validate_selfmap(kb(3, 0, 0, 0)) is None


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
            assert group_elements(group)[hi] == holonomy_part(entry, entry.generators[gi])


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
    cand = kb(3, 5, F(1, 3), F(1, 2))
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
    assert str(err.value) == "klein-bottle#2: parameter b = 5 is not in int_even"


def test_every_sampled_value_is_in_its_domain():
    from infranil.exprs import parse_rational

    domains = {d for spec in load_corpus().families for _, d in spec.params}
    assert len(domains) == 29
    for domain in domains:
        for large in (False, True):
            for value in domain_values(domain, large):
                assert in_domain(domain, parse_rational(value)), (domain, value)


@pytest.mark.parametrize("domain, value", [
    ("int", F(1, 2)), ("int_pos_mod:1:0", F(0)), ("int_odd", F(2)), ("int_even", F(-3)),
    ("int_mod:3:1", F(2)), ("int_mod:6:2,4", F(3)), ("int_pos_mod:2:0", F(0)),
    ("int_pos_mod:3:1,2", F(-1)), ("int_multiple:4", F(6)), ("half_int", F(1, 3)),
    ("half_odd", F(1)), ("quarter_odd", F(1, 2)), ("third_int", F(1, 2)),
    ("shift:1/3", F(2, 3)),
])
def test_values_outside_their_domain_are_rejected(domain, value):
    assert not in_domain(domain, value)


def test_unknown_domain_is_a_corpus_error():
    with pytest.raises(CorpusError, match="unknown parameter domain 'odd'"):
        in_domain("odd", F(1))
    with pytest.raises(CorpusError, match="unknown parameter domain 'odd'"):
        domain_values("odd")


# ---------------------------------------------------------------------------
# validate_selfmap against the Fraction algorithm it replaced
# ---------------------------------------------------------------------------

QUARTERS = [F(q, 4) for q in range(-16, 17)]


def reference_witness(entry, x, y):
    """The lattice witness as first written: solve the translation columns
    for c, then confirm X = L(c) * Y with the embedded lattice element."""
    n = entry.dim
    if entry.model == HEISENBERG:
        k = entry.k
        z1 = x[1, 3] - y[1, 3]
        z2 = x[2, 3] - y[2, 3]
        z3 = x[0, 3] - y[0, 3] - k * z2 / 2 * y[1, 3] + k * z1 / 2 * y[2, 3] + k * z1 * z2 / 2
        coords = (z1, z2, z3)
    else:
        coords = tuple(x[i, n] - y[i, n] for i in range(n))
    if any(c.denominator != 1 for c in coords):
        return None
    if lattice_element(entry, coords) * y != x:
        return None
    return coords


def reference_validate(candidate, group):
    """validate_selfmap as first written, on its own code path: the
    rotational filter and both affine products in Fractions, with
    Y_h = rep_h * cand formed for the identity too, and each witness
    confirmed by a lattice product.  Each product is formed on first need
    and kept for the candidate, and the generators with non-trivial
    holonomy go first, where most candidates are rejected."""
    entry = candidate.entry
    cand = candidate.embedded()
    dstar = candidate.dstar
    elements = group_elements(group)
    b_d, ys = {}, {}
    found = []
    order = sorted(range(len(entry.generators)), key=lambda g: group.generator_indices[g] == 0)
    for gi in order:
        gen = entry.generators[gi]
        d_a = dstar * elements[group.generator_indices[gi]]
        x = hit = None
        for hi, (bstar, rep) in enumerate(zip(elements, group.representatives)):
            if hi not in b_d:
                b_d[hi] = bstar * dstar
            if b_d[hi] != d_a:
                continue
            if x is None:
                x = cand * gen
            if hi not in ys:
                ys[hi] = rep * cand
            w = reference_witness(entry, x, ys[hi])
            if w is not None:
                hit = (gi, hi, w)
                break
        if hit is None:
            return None
        found.append(hit)
    return PhiAssignment(tuple(sorted(found)))


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
    count = 0
    for seed in (1, 2):
        for spec in load_corpus().families:
            for params in sample_params(spec, 1, seed=seed):
                cand = family_instantiate(spec, params)
                assert assert_same(cand, holonomy(cand.entry)) is not None
                count += 1
    assert count == 2 * 264


def test_validate_matches_reference_on_benchmark_inputs(bench_workloads):
    """Every screen candidate of seeds 1-2, mostly rejects, and every
    random-maps candidate of seed 1, all accepts."""
    screen = [c for seed in (1, 2) for c in bench_workloads.screen_instances(seed)]
    accepted = sum(assert_same(c, holonomy(c.entry)) is not None for c in screen)
    assert len(screen) == 6000 and 0 < accepted < len(screen)
    for cand in bench_workloads.random_maps_instances(1):
        assert assert_same(cand, holonomy(cand.entry)) is not None


def test_iterate_matches_decoded_embedded_power(bench_workloads):
    """Every accepted screen candidate of seed 1: `iterate(k)`, which takes
    D^k and decodes only the translation, equals the candidate decoded
    from the embedded power alone, for k = 2 and 3."""
    accepted = [c for c in bench_workloads.screen_instances(1) if validate_selfmap(c) is not None]
    assert len(accepted) > 100
    assert {c.entry.model for c in accepted} == {"abelian", HEISENBERG}
    for cand in accepted:
        for k in (2, 3):
            assert cand.iterate(k) == decoded_iterate(cand, k), (cand.entry.id, cand.dstar, k)


def test_witness_returns_the_lattice_coordinates_it_was_built_from():
    """X = L(c) * rep_h * cand for every holonomy index h of every entry:
    the witness, given the translation columns of X and Y_h, returns exactly
    c, and None once c is shifted off the lattice.  cand's linear part is
    the identity (an odd multiple of it on abelian entries), which commutes
    with every holonomy element, so each pair (X, Y_h) passes the rotational
    filter."""
    rng = random.Random(13)
    count = 0
    for entry in smallest_entries():
        group = holonomy(entry)
        n = entry.dim
        scale = 1 if entry.model == HEISENBERG else rng.choice((1, 3, -1))
        candidate = MapCandidate(
            entry, tuple(rng.choice(QUARTERS) for _ in range(n)),
            QMatrix([[scale * (i == j) for j in range(n)] for i in range(n)])
        )
        cand = candidate.embedded()
        _, (dflat,) = integer_form([candidate.dstar])
        r, aflats = group.form
        for hi, rep in enumerate(group.representatives):
            assert flat_product(dflat, aflats[hi], n) == flat_product(aflats[hi], dflat, n)
            y = rep * cand
            c = tuple(rng.randint(-5, 5) for _ in range(n))
            x = lattice_element(entry, c) * y
            assert _lattice_witness(entry, _translation_column(x), _translation_column(y)) == c, (
                entry.id, hi)
            i = rng.randrange(n)
            off = tuple(v + F(1, rng.choice((2, 3, 4))) * (j == i) for j, v in enumerate(c))
            x = lattice_element(entry, off) * y
            assert _lattice_witness(entry, _translation_column(x), _translation_column(y)) is None, (
                entry.id, hi, off)
            count += 1
    assert count == sum(holonomy(e).order for e in smallest_entries())


def test_heisenberg_witness_rejects_a_shift_in_z3_alone():
    """On every Heisenberg entry with non-trivial holonomy and for every
    non-identity h, X = L(z1, z2, z3 + s) * Y_h with integral z1, z2, z3 and
    s in (0, 1): only the central coordinate is off the lattice, so the
    first two entries of the columns differ by integers.  The witness
    rejects every s != 0 and returns (z1, z2, z3) for s = 0, as the matrix
    reference does, also where the cross terms
    -k z2 y1 / 2 + k z1 y2 / 2 + k z1 z2 / 2 are not integral by themselves
    and the difference of the top entries alone would decide wrongly."""
    rng = random.Random(29)
    entries = [e for e in smallest_entries() if e.model == HEISENBERG and holonomy(e).order > 1]
    assert len(entries) >= 10
    cross_off_lattice = 0
    for entry in entries:
        group = holonomy(entry)
        k = entry.k
        cand = MapCandidate(entry, tuple(rng.choice(QUARTERS) for _ in range(3)),
                            QMatrix.identity(3)).embedded()
        for hi in range(1, group.order):
            y = group.representatives[hi] * cand
            ty = _translation_column(y)
            z1, z2, z3 = (rng.randint(-5, 5) for _ in range(3))
            cross = -k * z2 / 2 * ty[1] + k * z1 / 2 * ty[2] + k * z1 * z2 / 2
            cross_off_lattice += cross.denominator != 1
            for s in (0, F(1, 2), F(1, 3), F(3, 4)):
                x = lattice_element(entry, (z1, z2, z3 + s)) * y
                tx = _translation_column(x)
                assert (tx[1] - ty[1], tx[2] - ty[2]) == (z1, z2)
                expected = (z1, z2, z3) if s == 0 else None
                assert _lattice_witness(entry, tx, ty) == expected, (entry.id, hi, s)
                assert reference_witness(entry, x, y) == expected
    assert cross_off_lattice > 0


def test_accepted_candidate_forms_one_product_per_generator(monkeypatch):
    """An accepted abelian candidate costs exactly one QMatrix product per
    generator, X = cand * gen, with trivial holonomy (Y_0 is cand itself)
    and with non-trivial holonomy alike: Y_h's column is rep_h times cand's
    translation column, so no rep_h * cand is formed, and no lattice element
    is built.  An accepted heis-I candidate forms no product at all: its
    columns are matrix-vector products and psi_embed is a closed form.
    Either way the candidate is the one element embedded."""
    import infranil.selfmaps as sm

    torus = MapCandidate(catalog_lookup("torus-3"), (F(1, 3), 0, F(-1, 4)),
                         QMatrix([[2, 1, 0], [1, 1, 3], [0, -1, 5]]))
    hw = MapCandidate(catalog_lookup("hantzsche-wendt"), (0, 0, 0),
                      QMatrix([[3, 0, 0], [0, 5, 0], [0, 0, -7]]))
    heis = heis_nil_candidate(2, ((2, 1), (1, 1)), x=0, y=0)
    for cand in (torus, hw, heis):
        holonomy(cand.entry)  # built before counting
    assert holonomy(hw.entry).order > 1
    assert all(h != 0 for _, h, _ in validate_selfmap(hw).entries)

    calls, embeds = [], []
    original = QMatrix.__mul__

    def counting_mul(self, other):
        calls.append((self, other))
        return original(self, other)

    def counting(embed):
        def wrapper(*args):
            embeds.append(args)
            return embed(*args)
        return wrapper

    monkeypatch.setattr(sm, "abelian_embed", counting(sm.abelian_embed))
    monkeypatch.setattr(sm, "psi_embed", counting(sm.psi_embed))
    monkeypatch.setattr(QMatrix, "__mul__", counting_mul)
    for cand, gens in ((torus, torus.entry.generators), (hw, hw.entry.generators), (heis, ())):
        calls.clear()
        embeds.clear()
        assert validate_selfmap(cand) is not None
        assert len(embeds) == 1, cand.entry.id
        assert len(calls) == len(gens), cand.entry.id
        embedded = cand.embedded()
        assert sorted(gens.index(g) for _, g in calls) == list(range(len(gens))), cand.entry.id
        assert all(c == embedded for c, _ in calls), cand.entry.id


def test_heisenberg_reject_at_rotation_runs_no_witness(monkeypatch):
    # heis-II: generators a, b, c with identity holonomy, then the rotation
    # diag(1, -1, -1); the top row (1, 0) of D* breaks D A == B D for every
    # holonomy element B, so the candidate is rejected at the rotation alone
    import infranil.selfmaps as sm

    entry = catalog_lookup("heis-II", {"k": 2})
    group = holonomy(entry)
    cand = MapCandidate(entry, (0, 0, 0), QMatrix([[1, 1, 0], [0, 2, 1], [0, 1, 1]]))
    rotation = holonomy_part(entry, entry.generators[-1])
    assert rotation != QMatrix.identity(3)
    assert all(cand.dstar * rotation != b * cand.dstar for b in group_elements(group))
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


def test_holonomy_form_matches_reference_closure():
    # the filter reads the elements as the closure keeps them, group.form,
    # and generator gi's holonomy part at generator_indices[gi]
    for entry in smallest_entries():
        group = holonomy(entry)
        elements = close_holonomy(entry)[0]
        assert group.form == integer_form(elements), entry.id
        for gi, gen in enumerate(entry.generators):
            assert elements[group.generator_indices[gi]] == holonomy_part(entry, gen)
        assert group.exterior_powers[1] is group.form


def test_packaged_corpus_parsed_once(tmp_path, monkeypatch):
    monkeypatch.delenv("ZETA_CORPUS", raising=False)
    default = load_corpus()
    assert load_corpus() is default
    path = tmp_path / "families.json"
    path.write_text(resources.files("infranil.data").joinpath("families.json").read_text())
    first = load_corpus(str(path))
    assert first is not default and first == default
    assert load_corpus(str(path)) is not first
    monkeypatch.setenv("ZETA_CORPUS", str(path))
    assert load_corpus() is not default
    assert load_corpus() == default
