import random
from fractions import Fraction

import pytest

from infranil.catalog import (
    CatalogEntry,
    _raw_catalog,
    abelian_embed,
    catalog_ids,
    catalog_lookup,
    catalog_params,
    holonomy,
    psi_embed,
)
from infranil.errors import CatalogError, ConstraintError
from infranil.exprs import domain_values, eval_rational, in_domain
from infranil.matrices import QMatrix, integer_form
from infranil.selfmaps import _translation_column as translation
from modulus_split import has_index_two_subgroup, is_cyclic
from oracles import (
    close_holonomy,
    group_elements,
    h_coords,
    holonomy_part,
    inverse,
    lattice_element,
    lattice_member,
    unipotent_psi_embed,
)

F = Fraction


def test_catalog_complete():
    ids = catalog_ids()
    abelian = [i for i in ids if not i.startswith("heis")]
    heis = [i for i in ids if i.startswith("heis")]
    assert len(abelian) == 13
    assert len(heis) == 11
    assert "klein-bottle" in abelian and "hantzsche-wendt" in abelian


def test_unknown_id():
    with pytest.raises(CatalogError):
        catalog_lookup("moebius")


def test_param_constraints():
    with pytest.raises(ConstraintError):
        catalog_lookup("heis-VIII", {"k": 2})  # k must be 0 mod 4
    with pytest.raises(ConstraintError):
        catalog_lookup("heis-II", {"k": -2})  # k must be positive
    with pytest.raises(ConstraintError):
        catalog_lookup("heis-I", {})  # k required
    with pytest.raises(ConstraintError):
        catalog_lookup("klein-bottle", {"k": 1})  # no parameters here
    with pytest.raises(ConstraintError):
        catalog_lookup("heis-XIII-c1", {"k": 4})  # k must be 0 mod 3


def test_klein_bottle_generators():
    entry = catalog_lookup("klein-bottle")
    g1, g2 = entry.generators
    assert holonomy_part(entry, g1) == QMatrix([[1, 0], [0, -1]])
    assert translation(g1) == (F(1, 2), F(1, 2))
    # alpha^2 is the pure translation by (1, 0)
    sq = g1 * g1
    assert lattice_member(entry, sq)
    assert translation(sq) == (1, 0)
    assert not lattice_member(entry, g1)
    assert lattice_member(entry, g2)


def test_heis_embedded_matrices():
    # type I generators for k = 2, written out as 4x4 matrices
    entry = catalog_lookup("heis-I", {"k": 2})
    a, b, c = entry.generators
    assert a == QMatrix([[1, 0, -1, 0], [0, 1, 0, 1], [0, 0, 1, 0], [0, 0, 0, 1]])
    assert b == QMatrix([[1, 1, 0, 0], [0, 1, 0, 0], [0, 0, 1, 1], [0, 0, 0, 1]])
    assert c == QMatrix([[1, 0, 0, 1], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])

    alpha = catalog_lookup("heis-II", {"k": 2}).generators[3]
    assert alpha == QMatrix([[1, 0, 0, F(1, 2)], [0, -1, 0, 0], [0, 0, -1, 0], [0, 0, 0, 1]])

    alpha = catalog_lookup("heis-IV", {"k": 4}).generators[3]
    assert alpha == QMatrix([[-1, 0, 1, 0], [0, 1, 0, F(1, 2)], [0, 0, -1, 0], [0, 0, 0, 1]])

    entry = catalog_lookup("heis-VIII", {"k": 4})
    alpha, beta = entry.generators[3], entry.generators[4]
    assert alpha == QMatrix(
        [[1, 2, -2, F(1, 2)], [0, -1, 0, 0], [0, 0, -1, 0], [0, 0, 0, 1]]
    )
    assert beta == QMatrix(
        [[-1, -1, 1, 0], [0, 1, 0, F(1, 2)], [0, 0, -1, F(1, 2)], [0, 0, 0, 1]]
    )

    alpha = catalog_lookup("heis-XVI-c1", {"k": 6}).generators[3]
    assert alpha == QMatrix(
        [[1, -3, 0, F(1, 6)], [0, 1, -1, 0], [0, 1, 0, 0], [0, 0, 0, 1]]
    )


def test_psi_embed_examples():
    ident = QMatrix.identity(3)
    assert psi_embed(0, 0, 1, ident, 2) == QMatrix(
        [[1, 0, 0, 1], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]
    )
    assert psi_embed(0, 0, 0, ident, 2) == QMatrix.identity(4)
    # psi(a) for k = 6
    assert psi_embed(1, 0, 0, ident, 6) == QMatrix(
        [[1, 0, -3, 0], [0, 1, 0, 1], [0, 0, 1, 0], [0, 0, 0, 1]]
    )


def test_psi_embed_matches_the_unipotent_product():
    """psi_embed writes the block out in closed form; it equals the product
    U(x, y, k) phi* that defines it (`oracles.unipotent_psi_embed`) on every
    generator of every Heisenberg entry, at each k of the entry's sample
    grid, read from the catalog data itself, and on seeded rational
    (x, y, z), half-integers among them, with rational phi*, for
    k in {1, 2, 3, 4, 6}."""
    raw = _raw_catalog()
    generators = 0
    for entry_id in catalog_ids():
        if raw[entry_id]["model"] != "heisenberg":
            continue
        ((name, domain),) = catalog_params(entry_id)
        for k in domain_values(domain):
            entry = catalog_lookup(entry_id, {name: k})
            env = dict(entry.params)
            for gen, spec in zip(entry.generators, raw[entry_id]["generators"], strict=True):
                phi = QMatrix([[eval_rational(v, env) for v in row] for row in spec["phi"]])
                x, y, z = (eval_rational(v, env) for v in spec["h"])
                assert gen == unipotent_psi_embed(x, y, z, phi, entry.k), (entry_id, k)
                generators += 1
    assert generators > 100
    rng = random.Random(26)
    values = [F(p, q) for p in range(-5, 6) for q in (1, 2, 3, 4)]
    for k in (1, 2, 3, 4, 6):
        for x, y in ((F(1, 2), F(-3, 2)), (F(-1, 2), 0), (0, F(5, 2))):
            z = rng.choice(values)
            phi = QMatrix([[rng.choice(values) for _ in range(3)] for _ in range(3)])
            assert psi_embed(x, y, z, phi, k) == unipotent_psi_embed(x, y, z, phi, k)
        for _ in range(40):
            x, y, z = (rng.choice(values) for _ in range(3))
            phi = QMatrix([[rng.choice(values) for _ in range(3)] for _ in range(3)])
            assert psi_embed(x, y, z, phi, k) == unipotent_psi_embed(x, y, z, phi, k)


def test_psi_lattice_homomorphism():
    # psi(h1) psi(h2) = psi(h1 * h2) with h(x1,y1,z1) h(x2,y2,z2)
    #   = h(x1+x2, y1+y2, z1+z2+k*y1*x2)
    rng = random.Random(1)
    for k in (1, 2, 3, 4, 6):
        ident = QMatrix.identity(3)
        for _ in range(10):
            x1, y1, z1, x2, y2, z2 = (rng.randint(-4, 4) for _ in range(6))
            lhs = psi_embed(x1, y1, z1, ident, k) * psi_embed(x2, y2, z2, ident, k)
            rhs = psi_embed(x1 + x2, y1 + y2, z1 + z2 + k * y1 * x2, ident, k)
            assert lhs == rhs


def test_heisenberg_commutator_relator():
    # [b, a] = c^k through the embedding
    for k in (1, 2, 4, 6):
        entry = catalog_lookup("heis-I", {"k": k})
        a, b, c = entry.generators
        comm = b * a * inverse(b) * inverse(a)
        assert comm == c.power(k)


def test_heis_torsion_relators():
    cases = [
        ("heis-II", 2, 3, 2, (0, 0, 1)),
        ("heis-IV", 2, 3, 2, (1, 0, 0)),
        ("heis-X-c1", 2, 3, 4, (0, 0, 1)),
        ("heis-X-c3", 4, 3, 4, (0, 0, 3)),
        ("heis-XIII-c1", 3, 3, 3, (0, 0, 1)),
        ("heis-XIII-c2", 3, 3, 3, (0, 0, 2)),
        ("heis-XIII-k3", 1, 3, 3, (0, 0, 1)),
        ("heis-XVI-c1", 6, 3, 6, (0, 0, 1)),
        ("heis-XVI-c5", 6, 3, 6, (0, 0, 5)),
    ]
    for entry_id, k, gen_idx, power, coords in cases:
        entry = catalog_lookup(entry_id, {"k": k})
        g = entry.generators[gen_idx]
        acc = g
        for _ in range(power - 1):
            acc = acc * g
        assert lattice_member(entry, acc), entry_id
        assert h_coords(entry, acc) == coords, entry_id


def test_heis_viii_beta_squares_to_a():
    entry = catalog_lookup("heis-VIII", {"k": 4})
    beta = entry.generators[4]
    sq = beta * beta
    assert lattice_member(entry, sq)
    assert h_coords(entry, sq) == (1, 0, 0)


def test_heis_conjugation_relators():
    # alpha a = a^-1 alpha and alpha b = b^-1 alpha for type II
    entry = catalog_lookup("heis-II", {"k": 2})
    a, b, _, alpha = entry.generators
    assert alpha * a == inverse(a) * alpha
    assert alpha * b == inverse(b) * alpha
    # alpha a = b alpha for type X
    entry = catalog_lookup("heis-X-c1", {"k": 2})
    a, b, _, alpha = entry.generators
    assert alpha * a == b * alpha


def every_entry():
    """Every catalog entry, Heisenberg types at an admissible k."""
    for entry_id in catalog_ids():
        params = {}
        if entry_id.startswith("heis"):
            k = {"heis-VIII": 4, "heis-X-c3": 4, "heis-XIII-c1": 3, "heis-XIII-c2": 3,
                 "heis-XIII-k3": 2, "heis-XVI-c1": 6, "heis-XVI-c5": 6}.get(entry_id, 2)
            params = {"k": k}
        yield catalog_lookup(entry_id, params)


def test_holonomy_orders_match_catalog():
    for entry in every_entry():
        entry_id = entry.id
        group = holonomy(entry)
        assert group.order == entry.holonomy_order, entry_id
        # closed, contains identity, finite order elements
        assert group_elements(group)[0] == QMatrix.identity(entry.dim)
        n = group.order
        assert all(0 <= group.table[i][j] < n for i in range(n) for j in range(n))


def admissible_entries():
    """Every catalog entry, Heisenberg types at their first three admissible
    k."""
    for entry_id in catalog_ids():
        domains = dict(catalog_params(entry_id))
        if domains:
            ks = [k for k in range(1, 25) if in_domain(domains["k"], Fraction(k))][:3]
            yield from (catalog_lookup(entry_id, {"k": k}) for k in ks)
        else:
            yield catalog_lookup(entry_id)


def test_integer_closure_matches_fraction_closure():
    """Every catalog entry, Heisenberg types at their first three admissible
    k: the integer form of the same elements in the same order, and the same
    table, generator indices and coset representatives, as the closure by
    QMatrix products."""
    count = 0
    for entry in admissible_entries():
        elements, table, generator_indices, reps = close_holonomy(entry)
        group = holonomy(entry)
        assert group.form == integer_form(elements), entry
        assert (group.table, group.generator_indices, group.representatives) == (
            table, generator_indices, reps), entry
        count += 1
    assert count == 13 + 3 * 11


def test_generator_order_puts_non_trivial_holonomy_first():
    """On every catalog entry, Heisenberg types at each k of their small and
    large sample grids, `generator_order` is the order validate_selfmap
    once sorted on every call: generators with non-trivial holonomy first,
    each part in catalog order.  It is not a field."""
    count = 0
    for entry_id in catalog_ids():
        domains = dict(catalog_params(entry_id))
        ks = [domain_values(domains["k"], large) for large in (False, True)] if domains else [[None]]
        for k in (k for grid in ks for k in grid):
            entry = catalog_lookup(entry_id, None if k is None else {"k": k})
            group = holonomy(entry)
            expected = sorted(range(len(entry.generators)),
                              key=lambda g: group.generator_indices[g] == 0)
            assert group.generator_order == tuple(expected), (entry_id, k)
            count += 1
    assert count > len(catalog_ids())
    assert "generator_order" not in holonomy(catalog_lookup("klein-bottle"))._fields


def test_linear_parts_are_the_holonomy_parts_of_the_generators():
    """Every catalog entry, Heisenberg types at their first three admissible
    k: the linear parts the entry stores, which the closure reads, are
    those decoded from its embedded generators."""
    count = 0
    for entry in admissible_entries():
        assert len(entry.linear_parts) == len(entry.generators), entry.id
        decoded = tuple(holonomy_part(entry, g) for g in entry.generators)
        assert entry.linear_parts == decoded, (entry.id, entry.k)
        count += 1
    assert count == 13 + 3 * 11


def test_closure_of_an_infinite_group_raises():
    """A unipotent part closes past the cap; diag(1/2, 2) leaves the
    generators' denominator at its square."""
    for rotation, message in (([[1, 1], [0, 1]], "exceeds cap"),
                              ([[F(1, 2), 0], [0, 2]], "off denominator 2")):
        gen = abelian_embed(QMatrix(rotation), (0, 0))
        entry = CatalogEntry("hand-built", 2, "abelian", (gen,), (QMatrix(rotation),), 1, {})
        with pytest.raises(CatalogError, match=message):
            holonomy(entry)


def test_holonomy_structure():
    kb = holonomy(catalog_lookup("klein-bottle"))
    assert kb.order == 2
    assert QMatrix([[1, 0], [0, -1]]) in group_elements(kb)
    hw = holonomy(catalog_lookup("hantzsche-wendt"))
    assert hw.order == 4
    assert not is_cyclic(hw)  # Z2 + Z2
    f6 = holonomy(catalog_lookup("flat3-6"))
    assert is_cyclic(f6)  # Z4
    x = holonomy(catalog_lookup("heis-X-c1", {"k": 2}))
    assert x.order == 4 and is_cyclic(x)  # Z4


def test_index_two_subgroups():
    assert has_index_two_subgroup(holonomy(catalog_lookup("klein-bottle")))
    assert has_index_two_subgroup(holonomy(catalog_lookup("hantzsche-wendt")))
    assert not has_index_two_subgroup(holonomy(catalog_lookup("flat3-7")))  # Z3
    assert has_index_two_subgroup(holonomy(catalog_lookup("flat3-8")))  # Z6


def test_lattice_member_examples():
    torus = catalog_lookup("torus-2")
    t = lattice_element(torus, (1, 0))
    assert lattice_member(torus, t)
    frac = abelian_embed(QMatrix.identity(2), (F(1, 2), 0))
    assert not lattice_member(torus, frac)
    heis = catalog_lookup("heis-I", {"k": 2})
    h = lattice_element(heis, (1, 1, 1))
    assert lattice_member(heis, h)
    assert h_coords(heis, h) == (1, 1, 1)
    h2 = lattice_element(heis, (F(1, 2), 0, 0))
    assert not lattice_member(heis, h2)


def test_coset_representatives():
    entry = catalog_lookup("hantzsche-wendt")
    group = holonomy(entry)
    for elem, rep in zip(group_elements(group), group.representatives):
        assert holonomy_part(entry, rep) == elem


def test_holonomy_memoized_per_id_and_params():
    from infranil import catalog

    hw = holonomy(catalog_lookup("hantzsche-wendt"))
    assert holonomy(catalog_lookup("hantzsche-wendt")) is hw
    x2 = holonomy(catalog_lookup("heis-X-c1", {"k": 2}))
    assert holonomy(catalog_lookup("heis-X-c1", {"k": 2})) is x2
    x4 = holonomy(catalog_lookup("heis-X-c1", {"k": 4}))
    assert x4 is not x2
    # heis-X-c1's representatives are the same matrices at every k; heis-VIII's
    # depend on k, and each group holds those of its own entry
    v4 = holonomy(catalog_lookup("heis-VIII", {"k": 4}))
    v8 = holonomy(catalog_lookup("heis-VIII", {"k": 8}))
    assert v4.representatives != v8.representatives
    maxsize = catalog._catalog_entry.cache_info().maxsize
    assert maxsize is not None and maxsize == catalog.HOLONOMY_CACHE_SIZE > 0


def test_shared_entries_are_immutable():
    entry = catalog_lookup("heis-I", {"k": 2})
    with pytest.raises(TypeError):
        entry.params["k"] = Fraction(4)
    with pytest.raises(TypeError):
        del entry.params["k"]
    assert entry.k == 2 and dict(entry.params) == {"k": 2}
    hand_built = CatalogEntry("x", 1, "abelian", (), (), 1, {"a": 1})
    with pytest.raises(TypeError):
        hand_built.params["a"] = 2


def test_lookup_shares_one_entry_per_parsed_params():
    entry = catalog_lookup("heis-I", {"k": "2"})
    assert catalog_lookup("heis-I", {"k": 2}) is entry
    assert catalog_lookup("heis-I", {"k": Fraction(2)}) is entry
    assert catalog_lookup("heis-I", {"k": " 4/2 "}) is entry
    assert catalog_lookup("heis-I", {"k": 3}) is not entry
    assert catalog_lookup("torus-3") is catalog_lookup("torus-3", {})
    assert holonomy(entry) is holonomy(catalog_lookup("heis-I", {"k": "2"}))


def test_lookup_errors_raise_on_every_call():
    bad = [
        ("heis-I", {"k": "1/2"}, ConstraintError, "parameter k = 1/2 is not in int_pos_mod:1:0"),
        ("heis-I", {"k": 0}, ConstraintError, "parameter k = 0 is not in int_pos_mod:1:0"),
        ("heis-I-bogus", {"k": 2}, CatalogError, "unknown catalog id"),
        ("heis-I", {"k": 2, "q": 1}, ConstraintError, "unknown parameters"),
    ]
    for _ in range(2):
        for entry_id, params, error, message in bad:
            with pytest.raises(error, match=message):
                catalog_lookup(entry_id, params)
        assert catalog_lookup("heis-I", {"k": 2}).k == 2


def test_holonomy_of_hand_built_entry_matches_cached():
    for entry_id, params in (("hantzsche-wendt", {}), ("heis-X-c1", {"k": 2})):
        cached = catalog_lookup(entry_id, params)
        hand_built = CatalogEntry(cached.id, cached.dim, cached.model, cached.generators,
                                  cached.linear_parts, cached.holonomy_order,
                                  dict(cached.params), cached.notes)
        assert hand_built == cached and hand_built is not cached
        group = holonomy(hand_built)
        assert group is not holonomy(cached)
        assert group.form == holonomy(cached).form
        assert group.table == holonomy(cached).table
        assert holonomy(hand_built) is group


def test_exterior_powers_per_holonomy_element():
    from infranil.matrices import exterior_power

    for entry in (catalog_lookup("flat3-6"), catalog_lookup("heis-XIII-c1", {"k": 3})):
        group = holonomy(entry)
        assert group.exterior_powers is group.exterior_powers
        for j, (r, flats) in enumerate(group.exterior_powers):
            for a, flat in zip(group_elements(group), flats):
                assert all(type(v) is int for v in flat)
                assert flat == tuple(v * r for row in exterior_power(a, j).rows for v in row)


def averaged_matrix(average) -> QMatrix:
    den, flat = average
    m = round(len(flat) ** 0.5)
    return QMatrix([[F(v, den) for v in flat[i * m:(i + 1) * m]] for i in range(m)])


def test_exterior_averages_are_idempotent_on_every_group():
    from infranil.matrices import exterior_power

    seen = 0
    for entry in every_entry():
        group = holonomy(entry)
        elements = group_elements(group)
        dets = [a.det() for a in elements]
        subsets = [None, tuple(i for i, d in enumerate(dets) if d == 1)]
        for indices in subsets:
            averages = group.exterior_averages(indices)
            assert group.exterior_averages(indices) is averages
            members = range(group.order) if indices is None else indices
            assert len(averages) == entry.dim + 1
            for j, average in enumerate(averages):
                p = averaged_matrix(average)
                assert p * p == p, (entry.id, indices, j)
                powers = [exterior_power(elements[i], j) for i in members]
                total = QMatrix([[sum(a[r, c] for a in powers) for c in range(p.ncols)]
                                 for r in range(p.nrows)])
                assert [[v * len(members) for v in row] for row in p.rows] == \
                    [list(row) for row in total.rows], (entry.id, indices, j)
                seen += 1
    assert seen >= 2 * 24 * 3
