"""Corpus-level properties: structure, validity of sampled families,
perturbation soundness of the constraints, and engine consistency checks
driven by corpus instances."""

import ast
import itertools
import subprocess
import sys
from importlib import resources
from pathlib import Path

import pytest

from infranil.catalog import catalog_ids, catalog_lookup, holonomy
from infranil.cli import _verify_instance
from infranil.errors import ConstraintError
from infranil.exprs import domain_values, eval_bool, eval_rational, parse_rational
from infranil.fixedpoint import check_sign_relations, eigen_classify
from infranil.matrices import QMatrix
from infranil.selfmaps import (
    MapCandidate,
    family_instance,
    family_instantiate,
    load_corpus,
    resolve_params,
    sample_params,
    validate_selfmap,
)
from modulus_split import anosov_fastpath, part_of
from oracles import inverse

CORPUS = load_corpus()


def build_unchecked(spec, raw_params):
    """Instantiate a family's templates without the constraint gate, so the
    validator itself can be probed."""
    env = resolve_params(spec, raw_params)
    entry = catalog_lookup(spec.manifold, {n: env[n] for n, _ in spec.params if n == "k"})
    dstar = QMatrix([[eval_rational(e, env) for e in row] for row in spec.dstar])
    translation = tuple(eval_rational(e, env) for e in spec.translation)
    return MapCandidate(entry, translation, dstar)


def test_every_catalog_entry_has_families():
    manifolds = {f.manifold for f in CORPUS.families}
    assert manifolds == set(catalog_ids())
    assert len(CORPUS.families) == 88


def test_sampled_families_instantiate_and_validate():
    for spec in CORPUS.families:
        for params in sample_params(spec, 3):
            cand = family_instantiate(spec, params)  # validates eagerly
            assert validate_selfmap(cand) is not None


def test_constraint_violation_reported_with_condition():
    """Domains are checked before constraints: an even `a` in klein-bottle#1
    lies outside its domain `int_odd`, which is named.  heis-II#1 with every
    parameter in its domain names the constraint that fails."""
    by_label = {f.label: f for f in CORPUS.families}
    with pytest.raises(ConstraintError) as err:
        family_instantiate(by_label["klein-bottle#1"], {"a": "2", "b": "5", "r": "0", "s": "1/2"})
    assert str(err.value) == "klein-bottle#1: parameter a = 2 is not in int_odd"
    params = {"k": "2", "a": "2", "b": "0", "c": "0", "d": "2", "r": "0", "s": "0", "t": "0"}
    with pytest.raises(ConstraintError) as err:
        family_instantiate(by_label["heis-II#1"], params)
    assert str(err.value) == "heis-II#1: constraint violated: (a*d - b*c) % 2 == 1"


def test_generator_reproduces_the_packaged_corpus(tmp_path):
    """families.json is the output of tools/gen_corpus.py, byte for byte, so
    every edit to the corpus is made in the generator."""
    out = tmp_path / "families.json"
    tool = Path(__file__).resolve().parents[1] / "tools" / "gen_corpus.py"
    subprocess.run([sys.executable, str(tool), str(out)], check=True, capture_output=True)
    packaged = resources.files("infranil.data").joinpath("families.json")
    assert out.read_bytes() == packaged.read_bytes()


# Products that sample_params(spec, 5) misses, each with a parameter tuple
# that reaches it, found among sample_params(spec, 40): (label, guard
# variant, index) -> parameters.
_REACH_WITNESSES = {
    ("flat3-1#1", 0, 2): {"a": "4", "b": "4", "c": "2", "d": "2", "e": "1",
                          "r": "1", "s": "-1", "t": "2"},
    ("flat3-4#2", 0, 1): {"a": "-1", "c": "3", "r": "-3/4", "s": "3/2", "t": "0"},
    ("flat3-5#1", 0, 1): {"a": "-1", "b": "1", "c": "-5", "r": "3/2", "s": "0", "t": "-1"},
    ("flat3-5#1", 2, 2): {"a": "3", "b": "-1", "c": "5", "r": "0", "s": "0", "t": "1"},
    ("hantzsche-wendt#4", 0, 2): {"a": "-1", "b": "3", "c": "-1",
                                  "r": "3/4", "s": "-1/4", "t": "3/4"},
    ("heis-IV#1", 0, 2): {"k": "2", "a": "-3", "b": "1", "iy": "-5", "it2": "3",
                          "r": "0", "s": "1"},
}

# Products that even sample_params(spec, 40) never reaches.
_UNREACHED = {
    ("hantzsche-wendt#1", 0, 1), ("hantzsche-wendt#1", 1, 1), ("hantzsche-wendt#1", 2, 1),
    ("heis-VIII#2", 0, 1), ("heis-VIII#2", 1, 1),
}


def _reached_product(spec, params):
    """(label, guard variant, index): the stored product that the family's
    instance at params reads, the first variant whose guard holds."""
    env, cand = family_instance(spec, params)
    variant = next(i for i, t in enumerate(spec.zeta)
                   if t.guard is None or eval_bool(t.guard, env))
    return spec.label, variant, part_of(cand).index


def test_every_product_is_reached_or_listed():
    """One stored product stands for four parity cells, so a typo in it
    hides four cells.  Every (family, guard variant, index) product must be
    reached by sample_params(spec, 5) or by a pinned witness that the
    verify-tables check accepts, or be listed as unreached; a listed product
    that becomes reached must leave the lists."""
    products = {(spec.label, v, int(i)) for spec in CORPUS.families
                for v, template in enumerate(spec.zeta) for i in template.products}
    reached = {_reached_product(spec, params)
               for spec in CORPUS.families for params in sample_params(spec, 5)}
    assert reached <= products
    by_label = {spec.label: spec for spec in CORPUS.families}
    for key, params in _REACH_WITNESSES.items():
        assert _reached_product(by_label[key[0]], params) == key
        assert _verify_instance(by_label[key[0]], params) == (True, ""), key
    assert reached.isdisjoint(_REACH_WITNESSES)
    assert products - reached - set(_REACH_WITNESSES) == _UNREACHED
    assert len(products) == 120


def test_no_constraint_restates_a_domain():
    """A constraint that names one or two plain parameters (no derived
    names) must fail for some combination of members of their small and
    large sample grids; one that holds on all of them only restates the
    domains, which `admit_params` checks already."""
    restated = []
    for spec in CORPUS.families:
        domains = dict(spec.params)
        for cond in spec.constraints:
            tree = ast.parse(cond, mode="eval")
            names = sorted({n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
                           - {"abs", "min", "max", "is_int"})
            if not 0 < len(names) <= 2 or not set(names) <= set(domains):
                continue
            grids = [[parse_rational(v) for v in domain_values(domains[n])
                      + domain_values(domains[n], large=True)] for n in names]
            if all(eval_bool(cond, dict(zip(names, values)))
                   for values in itertools.product(*grids)):
                restated.append((spec.label, cond))
    assert restated == []


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
                # nontrivial holonomy never yields an irreducible cubic that
                # straddles the unit circle: on the spectrum itself, and so
                # never in the counter the benchmark reads
                mixed_cubics = [fr for fr in fp.eigen_classify(cand.dstar).root_data
                                if fr.degree == 3 and fr.side() == "mixed"]
                assert mixed_cubics == [], spec.label
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
    assert ec.dim_gt1 == 1 and ec.root_data[0].degree == 3
    before = fp.MIXED_CUBIC_COUNTER
    part = part_of(cand)
    assert part.index == 1
    assert fp.MIXED_CUBIC_COUNTER == before + 1
    # reversed companion: real root inside, expanding complex pair
    cand = MapCandidate(entry, (0, 0, 0), inverse(QMatrix([[0, 0, -1], [1, 0, -1], [0, 1, 0]])))
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
