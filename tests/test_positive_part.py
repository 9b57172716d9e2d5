"""The positive part from the dominant eigenline of Lambda^m D against the
modulus split it replaced (`modulus_split.ref_positive_part`): the same
index, signs and F_+ on every corpus family, on random trivial-holonomy maps
and on factors that straddle the unit circle."""

import random
from fractions import Fraction

from infranil.catalog import catalog_lookup
from infranil.fixedpoint import exterior_data
from infranil.matrices import QMatrix
from infranil.selfmaps import (
    MapCandidate,
    family_instantiate,
    load_corpus,
    sample_params,
    validate_selfmap,
)
from modulus_split import part_of, ref_positive_part
from oracles import inverse

QUARTERS = [Fraction(i, 4) for i in range(-16, 17)]
HALVES = [Fraction(i, 2) for i in range(-8, 9)]


def assert_parts_match(cands, label):
    """Compare both routes on each candidate; return how many have a factor
    straddling the unit circle, and how many of those factors are cubics."""
    straddling = cubics = 0
    for i, cand in enumerate(cands):
        ext = exterior_data(cand.dstar)
        got = part_of(cand)
        ref = ref_positive_part(cand, ext.spectrum)
        assert (got.index, got.det_signs, got.plus_indices) == (
            ref.index, ref.det_signs, ref.plus_indices), (label, i, cand.dstar)
        degrees = [fr.degree for fr in ext.spectrum.root_data if fr.side() == "mixed"]
        straddling += bool(degrees)
        cubics += degrees == [3]
    return straddling, cubics


def random_trivial_holonomy_maps(rng, count):
    """Maps drawn as the random-maps benchmark draws them: torus-2, torus-3
    and heis-I (k = 2) in turn, entries of D in [-40, 40], translations in
    (1/4)Z (x and y in (1/2)Z on heis-I, whose first column is forced)."""
    entries = [catalog_lookup("torus-2"), catalog_lookup("torus-3"),
               catalog_lookup("heis-I", {"k": 2})]
    out = []
    for i in range(count):
        entry = entries[i % len(entries)]
        n = entry.dim
        rows = [[rng.randint(-40, 40) for _ in range(n)] for _ in range(n)]
        translation = tuple(rng.choice(QUARTERS) for _ in range(n))
        if entry.model == "heisenberg":
            rows[0][0] = rows[1][1] * rows[2][2] - rows[1][2] * rows[2][1]
            rows[1][0] = rows[2][0] = 0
            translation = (rng.choice(HALVES), rng.choice(HALVES), translation[2])
        out.append(MapCandidate(entry, translation, QMatrix(rows)))
    return out


def test_positive_part_matches_modulus_split_on_corpus():
    cands = [
        family_instantiate(spec, params)
        for spec in load_corpus().families
        for params in sample_params(spec, 1, 1)
    ]
    assert len(cands) == 264
    straddling, _ = assert_parts_match(cands, "corpus")
    assert straddling > 0


def test_positive_part_matches_modulus_split_on_random_maps():
    cands = random_trivial_holonomy_maps(random.Random(11), 100)
    assert all(validate_selfmap(cand) is not None for cand in cands)
    _, cubics = assert_parts_match(cands, "random maps")
    assert cubics > 0


def test_positive_part_matches_modulus_split_on_straddling_factors():
    torus = catalog_lookup("torus-3")
    plastic = QMatrix([[0, 0, 1], [1, 0, 1], [0, 1, 0]])
    cands = [
        # x^3 - x - 1: one expanding root, then its inverse: one non-expanding root
        MapCandidate(torus, (0, 0, 0), plastic),
        MapCandidate(torus, (0, 0, 0), inverse(plastic)),
        # x^2 - 3x + 1 under the rotation diag(-1, -1, 1)
        MapCandidate(catalog_lookup("flat3-1"), (0, 0, 0),
                     QMatrix([[2, 1, 0], [1, 1, 0], [0, 0, 3]])),
        # x^2 - 2x - 1 and the eigenvalue 1: tr(charpoly(D) / h)(D) = 0, so
        # the signs are read against tr(D (charpoly(D) / h)(D))
        MapCandidate(catalog_lookup("flat3-1"), (0, 0, 0),
                     QMatrix([[0, 1, 0], [1, 2, 0], [0, 0, 1]])),
    ]
    assert all(validate_selfmap(cand) is not None for cand in cands)
    assert [exterior_data(c.dstar).spectrum.root_data[-1].modulus_counts()[2]
            for c in cands[:2]] == [1, 2]
    assert assert_parts_match(cands, "straddling") == (4, 2)
    assert [part_of(c).index for c in cands[2:]] == [2, 2]
