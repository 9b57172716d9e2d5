"""The benchmark's workloads: seeded instance generators, the timed call into
the library, and the correctness gates run on each result outside the timer.

Each workload is a closed loop with one caller: the next instance is sent
only after the previous one has returned.  Library functions are called
through their module attribute (``zeta.compute_zeta``, not a name imported
here) so that the traced run's wrappers see the benchmark's own calls too.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from infranil import catalog, cli, fixedpoint, selfmaps, series, zeta
from infranil.errors import CatalogError, ConstraintError
from infranil.exprs import eval_rational
from infranil.matrices import QMatrix, det_one_minus_z, exterior_power
from infranil.polynomials import QPoly

KMAX = 40
RANDOM_MAPS_COUNT = 300
RANDOM_MAPS_ENTRY = 40
RANDOM_MAPS_POOL = 8
GOLDEN = (5 ** 0.5 - 1) / 2
SCREEN_COUNT = 3000
SCREEN_DENSE_ENTRY = 3
SCREEN_DIAG_MAX = 3
QUARTERS = [Fraction(q, 4) for q in range(-16, 17)]
HALVES = [Fraction(q, 2) for q in range(-8, 9)]


@dataclass(frozen=True)
class Workload:
    """`make(seed)` builds the instance list; `run(instance)` is the timed
    call; `check(instance, outcome)` returns the names of the gates that
    failed (empty when the outcome is correct).  Why each workload exists is
    recorded in BENCHMARK.json and README.md."""

    name: str
    make: Callable
    run: Callable
    check: Callable


# ---------------------------------------------------------------------------
# corpus: every family through the user-facing `zeta compute --json`
# ---------------------------------------------------------------------------


def corpus_instances(seed: int):
    """(family, params) for every family, three parameter tuples each, as
    `zeta verify-tables --samples 1` samples them for this seed, in a seeded
    shuffle so that a run cut short still covers every manifold."""
    corpus = selfmaps.load_corpus()
    out = [
        (spec, params)
        for spec in corpus.families
        for params in selfmaps.sample_params(spec, 1, seed)
    ]
    random.Random(seed).shuffle(out)
    return out


def corpus_argv(spec, params):
    argv = ["compute", "--manifold", spec.manifold, "--family", str(spec.index)]
    for name, value in params.items():
        argv += ["--param", f"{name}={value}"]
    return argv + ["--kmax", str(KMAX), "--json"]


def corpus_run(instance):
    spec, params = instance
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(corpus_argv(spec, params))
    return code, out.getvalue()


def corpus_expected(spec, params, data):
    """The corpus table's Nielsen zeta for the computed (index, p, n) cell,
    or None when the table has no such cell."""
    env = selfmaps.resolve_params(spec, params)
    cell = selfmaps.expected_zeta_cell(spec, env, data["index"], data["p"], data["n"])
    if cell is None:
        return None
    return series.RatFuncProduct.from_factors(
        (QPoly([eval_rational(c, env) for c in f["coeffs"]]), f["exp"]) for f in cell
    )


def corpus_check(instance, outcome):
    spec, params = instance
    code, text = outcome
    if code != 0:
        return ["exit_code"]
    data = json.loads(text)
    failed = []
    if data["sign_relations_ok"] is not True:
        failed.append("sign_relations")
    expected = corpus_expected(spec, params, data)
    got = series.RatFuncProduct.from_json(data["nielsen_zeta"])
    if expected is None or not series.rfp_equal(got, expected):
        failed.append("corpus_cell")
    return failed


# ---------------------------------------------------------------------------
# random-maps: generic integer linear parts on trivial-holonomy manifolds
# ---------------------------------------------------------------------------


def heis_first_column(rows):
    """Force the first column to (det of the lower-right 2x2 block, 0, 0), the
    condition for a Heisenberg Lie algebra endomorphism."""
    rows[0][0] = rows[1][1] * rows[2][2] - rows[1][2] * rows[2][1]
    rows[1][0] = rows[2][0] = 0
    return rows


def random_map(rng, entry):
    n = entry.dim
    rows = [[rng.randint(-RANDOM_MAPS_ENTRY, RANDOM_MAPS_ENTRY) for _ in range(n)]
            for _ in range(n)]
    translation = tuple(rng.choice(QUARTERS) for _ in range(n))
    if entry.model == catalog.HEISENBERG:
        rows = heis_first_column(rows)
        # x and y in (1/2)Z keep conjugation by d inside the k = 2 lattice
        translation = (rng.choice(HALVES), rng.choice(HALVES), translation[2])
    return selfmaps.MapCandidate(entry, translation, QMatrix(rows))


def random_maps_instances(seed: int):
    """Equal shares of torus-2, torus-3 and heis-I (k = 2) with entries of D
    drawn from [-40, 40] and translations from (1/4)Z within [-4, 4], every
    one a valid self-map.

    Cost grows with |det D| (factoring works on divisors of determinants), so
    the heavy tail rests on a few large determinants.  To keep the tail from
    swinging between seeds, each entry's share is a systematic sample: a
    pool of RANDOM_MAPS_POOL times as many random maps is sorted by |det D|
    and the middle map of each run of RANDOM_MAPS_POOL consecutive ones is
    taken.  These are then visited in a golden-ratio order, so any prefix of
    the list, like the whole list, spans the full range of determinants."""
    rng = random.Random(seed)
    entries = [
        catalog.catalog_lookup("torus-2"),
        catalog.catalog_lookup("torus-3"),
        catalog.catalog_lookup("heis-I", {"k": 2}),
    ]
    per_entry = RANDOM_MAPS_COUNT // len(entries)
    columns = []
    for entry in entries:
        pool = sorted((random_map(rng, entry) for _ in range(per_entry * RANDOM_MAPS_POOL)),
                      key=lambda c: abs(c.dstar.det()))
        columns.append([pool[j * RANDOM_MAPS_POOL + RANDOM_MAPS_POOL // 2]
                        for j in range(per_entry)])
    order = sorted(range(per_entry), key=lambda j: (j * GOLDEN) % 1)
    return [column[j] for j in order for column in columns]


def random_maps_run(candidate):
    phi = selfmaps.validate_selfmap(candidate)
    res = zeta.compute_zeta(candidate, kmax=KMAX)
    sign = fixedpoint.check_sign_relations(candidate, kmax=KMAX)
    return phi, res, sign


def random_maps_check(candidate, outcome):
    phi, res, sign = outcome
    failed = []
    if phi is None:
        failed.append("validate")
    if not series.rfp_equal(res.nielsen_direct, res.nielsen_structural):
        failed.append("routes")
    if not sign.ok:
        failed.append("sign_relations")
    if any(n < abs(l) for n, l in zip(res.nielsen_numbers, res.lefschetz_numbers)):
        failed.append("nielsen_ge_abs_lefschetz")
    if res.nielsen.logderiv_series(KMAX) != list(res.nielsen_numbers):
        failed.append("logderiv_series")
    if not matches_closed_form(res.lefschetz, candidate.dstar):
        failed.append("closed_form")
    return failed


def matches_closed_form(product, dstar) -> bool:
    """Whether `product` equals the trivial-holonomy closed form
    prod_j det(I - z Lambda^j D)^((-1)^(j+1)) (as `zeta.exterior_closed_form`
    builds it), checked by cross-multiplying instead of factoring."""
    num, den = (q.to_qpoly() for q in product.num_den())
    for j in range(dstar.nrows + 1):
        factor = det_one_minus_z(exterior_power(dstar, j))
        if j % 2:
            den = den * factor
        else:
            num = num * factor
    return num == den


# ---------------------------------------------------------------------------
# screen: a self-map search over the whole catalog, validation only
# ---------------------------------------------------------------------------


def smallest_k(entry_id: str):
    """The catalog entry at its smallest admissible Heisenberg k."""
    for k in range(1, 25):
        try:
            return catalog.catalog_lookup(entry_id, {"k": k})
        except ConstraintError:
            continue
    raise CatalogError(f"no admissible k below 25 for {entry_id}")


def screen_entries():
    return [
        catalog.catalog_lookup(i) if not i.startswith("heis") else smallest_k(i)
        for i in catalog.catalog_ids()
    ]


def screen_linear(rng, n: int, dense: bool):
    if dense:
        return [[rng.randint(-SCREEN_DENSE_ENTRY, SCREEN_DENSE_ENTRY) for _ in range(n)]
                for _ in range(n)]
    perm = list(range(n))
    rng.shuffle(perm)
    rows = [[0] * n for _ in range(n)]
    for i, j in enumerate(perm):
        rows[i][j] = rng.choice((-1, 1)) * rng.randint(1, SCREEN_DIAG_MAX)
    return rows


def screen_instances(seed: int):
    """Entries in equal shares; linear parts half signed permutations times a
    diagonal with entries up to 3, half dense with entries in [-3, 3];
    translations in (1/4)Z within [-4, 4]."""
    rng = random.Random(seed)
    entries = screen_entries()
    out = []
    for i in range(SCREEN_COUNT):
        entry = entries[i % len(entries)]
        dense = (i // len(entries)) % 2 == 1
        if entry.model == catalog.HEISENBERG:
            block = screen_linear(rng, 2, dense)
            top = [rng.randint(-SCREEN_DENSE_ENTRY, SCREEN_DENSE_ENTRY) if dense else 0
                   for _ in range(2)]
            rows = heis_first_column([[0] + top, [0] + block[0], [0] + block[1]])
        else:
            rows = screen_linear(rng, entry.dim, dense)
        translation = tuple(rng.choice(QUARTERS) for _ in range(entry.dim))
        out.append(selfmaps.MapCandidate(entry, translation, QMatrix(rows)))
    return out


def screen_run(candidate):
    return selfmaps.validate_selfmap(candidate)


def screen_check(candidate, phi):
    if phi is not None and selfmaps.validate_selfmap(candidate.iterate(2)) is None:
        return ["iterate_accepted"]
    return []


WORKLOADS = {
    w.name: w
    for w in (
        Workload("corpus", corpus_instances, corpus_run, corpus_check),
        Workload("random-maps", random_maps_instances, random_maps_run, random_maps_check),
        Workload("screen", screen_instances, screen_run, screen_check),
    )
}
