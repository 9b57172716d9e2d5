"""Corpus-level properties: structure, validity of sampled families,
perturbation soundness of the constraints, and engine consistency checks
driven by corpus instances."""

import pytest

from infranil.catalog import catalog_ids, catalog_lookup, holonomy
from infranil.errors import ConstraintError
from infranil.exprs import eval_rational, parse_rational
from infranil.fixedpoint import (
    check_sign_relations,
    eigen_classify,
    exterior_data,
    positive_part,
)
from infranil.matrices import QMatrix
from infranil.selfmaps import (
    MapCandidate,
    family_instantiate,
    load_corpus,
    resolve_params,
    sample_params,
    validate_selfmap,
)
from modulus_split import anosov_fastpath

CORPUS = load_corpus()


def build_unchecked(spec, raw_params):
    """Instantiate a family's templates without the constraint gate, so the
    validator itself can be probed."""
    env = resolve_params(spec, raw_params)
    entry = catalog_lookup(spec.manifold, {n: env[n] for n, _ in spec.params if n == "k"})
    dstar = QMatrix([[eval_rational(e, env) for e in row] for row in spec.dstar])
    translation = tuple(eval_rational(e, env) for e in spec.translation)
    return MapCandidate(entry, translation, dstar)


def part_of(cand):
    return positive_part(cand, exterior_data(cand.dstar))


def test_every_catalog_entry_has_families():
    manifolds = set(CORPUS.manifolds())
    assert manifolds == set(catalog_ids())
    assert len(CORPUS.families) == 88


def test_sampled_families_instantiate_and_validate():
    for spec in CORPUS.families:
        for params in sample_params(spec, 3):
            cand = family_instantiate(spec, params)  # validates eagerly
            assert validate_selfmap(cand) is not None


def test_constraint_violation_reported_with_condition():
    spec = next(f for f in CORPUS.families if f.label == "klein-bottle#1")
    with pytest.raises(ConstraintError) as err:
        family_instantiate(spec, {"a": "2", "b": "5", "r": "0", "s": "1/2"})
    assert "a % 2 == 1" in str(err.value)


# Per-family spot checks: perturbing this parameter by this amount breaks the
# family's constraint AND leaves the set of self-maps of the manifold (it does
# not merely hop to another family), so validation must reject it.
_PERTURBATIONS = [
    ("klein-bottle#1", "a", "1"),        # even diagonal entry
    ("klein-bottle#2", "s", "1/4"),      # s back into (1/2) Z with b even
    ("klein-bottle#3", "a", "1"),        # odd corner in the rank-one shape
    ("hantzsche-wendt#1", "a", "1"),
    ("hantzsche-wendt#2", "r", "1/4"),
    ("hantzsche-wendt#5", "s", "1/4"),
    ("flat3-1#1", "e", "1"),             # even third axis
    ("flat3-2#1", "c", "1"),             # odd lower-left block entry
    ("flat3-3#1", "b", "1/2"),           # integral half-odd slot
    ("flat3-3#4", "c", "1"),
    ("flat3-4#1", "r", "1/3"),
    ("flat3-4#4", "r", "1/4"),
    ("flat3-5#1", "r", "1/3"),
    ("flat3-6#1", "c", "2"),             # c = 3 mod 4 on the rotation block
    ("flat3-6#3", "c", "2"),
    ("flat3-7#1", "c", "1"),
    ("flat3-7#2", "r", "1/3"),
    ("flat3-8#1", "c", "2"),
    ("flat3-8#6", "r", "1/3"),
    ("heis-I#1", "a", "1/2"),            # fractional lattice endomorphism
    ("heis-II#1", "r", "1/4"),
    ("heis-IV#1", "s", "1/4"),
    ("heis-VIII#1", "t", "1/4"),         # t back into (1/2) Z
    ("heis-VIII#2", "t", "1/4"),
    ("heis-X-c1#1", "r", "1/3"),
    ("heis-X-c3#1", "r", "1/3"),
    ("heis-XIII-c1#1", "s", "1/4"),
    ("heis-XIII-c2#1", "s", "1/4"),
    ("heis-XIII-k3#1", "r", "1/2"),
    ("heis-XVI-c1#1", "r", "1/2"),
    ("heis-XVI-c5#1", "s", "1/2"),
]


def test_perturbation_soundness():
    by_label = {f.label: f for f in CORPUS.families}
    for label, name, delta in _PERTURBATIONS:
        spec = by_label[label]
        base = sample_params(spec, 1)[0]
        perturbed = dict(base)
        perturbed[name] = str(parse_rational(base[name]) + parse_rational(delta))
        cand = build_unchecked(spec, perturbed)
        assert validate_selfmap(cand) is None, (
            f"{label}: perturbing {name} by {delta} should invalidate"
        )


def test_anosov_holds_implies_index_one_on_corpus():
    import infranil.fixedpoint as fp

    for spec in CORPUS.families:
        for params in sample_params(spec, 2):
            cand = family_instantiate(spec, params)
            group = holonomy(cand.entry)
            snapshot = fp.MIXED_CUBIC_COUNTER
            part = part_of(cand)
            if group.order > 1:
                # nontrivial holonomy never needs the mixed-cubic machinery
                assert fp.MIXED_CUBIC_COUNTER == snapshot, spec.label
            if anosov_fastpath(cand) == "holds":
                assert part.index == 1, spec.label
                rep = check_sign_relations(cand, kmax=12)
                assert rep.ok, spec.label


def test_iterates_remain_valid_on_corpus_samples():
    for spec in CORPUS.families[::6]:
        params = sample_params(spec, 1)[0]
        cand = family_instantiate(spec, params)
        for k in (2, 3):
            assert validate_selfmap(cand.iterate(k)) is not None, spec.label


def test_positive_part_index_iterate_invariant_on_corpus():
    for spec in CORPUS.families[::7]:
        params = sample_params(spec, 1)[0]
        cand = family_instantiate(spec, params)
        base = part_of(cand)
        it = part_of(cand.iterate(2))
        assert it.index == base.index, spec.label
        assert it.det_signs == base.det_signs, spec.label


def test_mixed_cubic_counter_reachable_synthetically():
    import infranil.fixedpoint as fp

    entry = catalog_lookup("torus-3")
    # plastic-number companion: one real root > 1, complex pair of modulus < 1
    cand = MapCandidate(entry, (0, 0, 0), QMatrix([[0, 0, 1], [1, 0, 1], [0, 1, 0]]))
    ec = eigen_classify(cand.dstar)
    assert ec.dim_gt1 == 1 and ec.factors[0][0].degree == 3
    before = fp.MIXED_CUBIC_COUNTER
    part = part_of(cand)
    assert part.index == 1
    assert fp.MIXED_CUBIC_COUNTER == before + 1
    # reversed companion: real root inside, expanding complex pair
    cand = MapCandidate(entry, (0, 0, 0), QMatrix([[0, 0, -1], [1, 0, -1], [0, 1, 0]]).inverse())
    assert all(v.denominator == 1 for row in cand.dstar.rows for v in row)
    part = part_of(cand)
    assert part.index == 1


def test_flat34_largest_modulus_guard():
    # |a| = 1 < |b|: the index-two factor pair is (b, b*c)
    from infranil.zeta import compute_zeta
    from infranil.series import RatFuncProduct, rfp_equal
    from infranil.polynomials import QPoly

    spec = next(f for f in CORPUS.families if f.label == "flat3-4#1")
    cand = family_instantiate(
        spec, {"a": "1", "b": "4", "c": "3", "r": "1/2", "s": "0", "t": "2/3"}
    )
    res = compute_zeta(cand)
    assert (res.p, res.n, res.index) == (2, 0, 2)
    expected = RatFuncProduct.from_factors([(QPoly([1, -4]), 1), (QPoly([1, -12]), -1)])
    assert rfp_equal(res.nielsen, expected)
