"""Group presentations of the supported manifolds and the embeddings used to
compute with them.

Abelian (flat) entries store generators as (n+1)x(n+1) affine matrices with
the lattice normalized to Z^n.  Heisenberg entries store generators through
the faithful 4x4 representation

    psi(h(x,y,z), phi) = [[1, k*y/2, -k*x/2, -k*x*y/2 + z],
                          [0, 1,     0,      x],
                          [0, 0,     1,      y],
                          [0, 0,     0,      1]] @ diag(phi*, 1)

where h(x,y,z) are exponential coordinates of the integer lattice generated
by a = h(1,0,0), b = h(0,1,0), c = h(0,0,1) (so [b,a] = c^k), and phi* is the
differential of the automorphism part in the basis {log c, log a, log b}.
Both embeddings turn the self-map equation into exact 4x4 (resp. (n+1)x(n+1))
matrix algebra over Q, so a group element is its embedded `QMatrix`: an
entry's `generators` are those matrices, and everything model-specific
(`model`, `dim`, `k`) is read from the entry.  The entry also keeps each
generator's linear part as the catalog states it (`rotation`, resp. phi*),
which is all the holonomy closure reads.

`holonomy` returns an entry's `HolonomyGroup`, closed once per entry on
integer forms and kept in that form: the averaging formula reads the
group only through its matrices, and its readers (the self-map filter, the
exterior powers) read those as ints.
"""

from __future__ import annotations

import json
from functools import cache, cached_property, lru_cache
from importlib import resources
from math import isqrt
from types import MappingProxyType

from .errors import CatalogError, ConstraintError
from .exprs import eval_rational, exact_number, in_domain, parse_rational
from .matrices import QMatrix, exterior_integer_form, flat_product, integer_form
from .records import Record

HOLONOMY_CAP = 48
HOLONOMY_CACHE_SIZE = 256

ABELIAN = "abelian"
HEISENBERG = "heisenberg"


def abelian_embed(rotation: QMatrix, translation) -> QMatrix:
    """(rotation | translation; 0 | 1) affine matrix."""
    n = rotation.nrows
    rows = [list(rotation.rows[i]) + [translation[i]] for i in range(n)]
    rows.append([0] * n + [1])
    return QMatrix(rows)


def psi_form(e, x, y, z, p0, p1, p2, k) -> tuple:
    """2 e^2 times the first three rows of psi(h(x/e, y/e, z/e), phi), phi*
    of rows p0/e, p1/e, p2/e, with no matrix product: the unipotent factor
    adds (k y/2) phi*_1 - (k x/2) phi*_2 to row 0 of phi*.  Only sums and
    products are taken, so the rows are ints for int arguments (the
    self-map witness); `psi_embed` reads them at e = 1."""
    u, v, w = 2 * e, k * y, -k * x
    return ((*(u * a + v * b + w * c for a, b, c in zip(p0, p1, p2)), w * y + u * z),
            (*(u * b for b in p1), u * x),
            (*(u * c for c in p2), u * y))


def psi_embed(x, y, z, phi_star: QMatrix, k) -> QMatrix:
    """The 4x4 image of (h(x,y,z), phi) under the faithful representation:
    `psi_form` at e = 1, halved.  x, y, z and k are admitted by
    `exact_number`."""
    x, y, z, k = (exact_number(v, "psi_embed argument") for v in (x, y, z, k))
    if phi_star.nrows != 3 or phi_star.ncols != 3:
        raise CatalogError("phi* must be 3x3")
    rows = psi_form(1, x, y, z, *phi_star.rows, k)
    return QMatrix([[v / 2 for v in row] for row in rows] + [[0, 0, 0, 1]])


class CatalogEntry(Record):
    """A group presentation: `generators` are the embedded (n+1)x(n+1)
    matrices, and `linear_parts` the generators' linear parts as the catalog
    states them (`rotation`, resp. `phi*`), in the same order.  Every field
    is read-only (`params` too, a MappingProxyType), so one entry can serve
    every caller."""

    _fields = ("id", "dim", "model", "generators", "linear_parts", "holonomy_order",
               "params", "notes")

    def __init__(self, id: str, dim: int, model: str, generators: tuple, linear_parts: tuple,
                 holonomy_order: int, params, notes: str = ""):
        self._set_fields(id, dim, model, generators, linear_parts, holonomy_order,
                         MappingProxyType(dict(params)), notes)

    @property
    def k(self):
        return self.params.get("k")

    @cached_property
    def holonomy_group(self) -> "HolonomyGroup":
        return _close_holonomy(self.id, self.generators, self.linear_parts)

    @cached_property
    def affine_forms(self) -> tuple:
        """(g, columns, reps) in ints, formed once per entry for the self-map
        witness: g the common denominator of the generators and the coset
        representatives, columns[i] g times generator i's translation column
        with g appended, reps[h] g times the first n rows of representative h."""
        n, m = self.dim, len(self.generators)
        g, flats = integer_form(self.generators + self.holonomy_group.representatives)
        rows = [tuple(f[i:i + n + 1] for i in range(0, n * (n + 1), n + 1)) for f in flats]
        return g, tuple(f[n:n * (n + 1):n + 1] + (g,) for f in flats[:m]), tuple(rows[m:])


class HolonomyGroup(Record):
    """The finite holonomy group in the integer form its readers use:
    form = (r, flats), flats[i] = r * A_i row-major as ints (index 0 = the
    identity, r the least common denominator), the multiplication table
    (table[i][j] = index of A_i A_j), the generators' element indices, and
    one embedded coset representative per element (a product of generators
    whose linear part is A_i, as a QMatrix).  `generator_order` and the
    exterior powers are derived from these fields, once per group, and are
    not fields themselves."""

    _fields = ("form", "table", "generator_indices", "representatives")

    def __init__(self, form: tuple, table: tuple, generator_indices: tuple,
                 representatives: tuple):
        self._set_fields(form, table, generator_indices, representatives)

    @property
    def order(self) -> int:
        return len(self.table)

    @cached_property
    def generator_order(self) -> tuple:
        """The generator positions, those with non-trivial holonomy (index
        other than 0, the identity) first, each part in catalog order: the
        order in which `validate_selfmap` tries them."""
        indices = self.generator_indices
        return tuple(sorted(range(len(indices)), key=lambda g: indices[g] == 0))

    @cached_property
    def exterior_powers(self) -> tuple:
        """exterior_powers[j] = integer_form of Lambda^j of every element, for
        j = 0..dim, from the integer minors of `form` (form itself for
        j = 1): formed once per group and shared by every candidate on it."""
        n = isqrt(len(self.form[1][0]))
        return tuple(self.form if j == 1 else exterior_integer_form(self.form, j)
                     for j in range(n + 1))

    @cached_property
    def _averages(self) -> dict:
        return {}

    def exterior_averages(self, indices=None) -> tuple:
        """averages[j] = (den, flat) with P_j = flat / den (row-major ints),
        P_j = (1/#S) sum_{i in S} Lambda^j A_i, for j = 0..dim and S
        the elements at `indices` (all of them by default).  Summed from the
        integer forms in `exterior_powers`, once per group and index set."""
        key = tuple(range(self.order)) if indices is None else tuple(indices)
        averages = self._averages.get(key)
        if averages is None:
            averages = self._averages[key] = tuple(
                (r * len(key), tuple(map(sum, zip(*(flats[i] for i in key)))))
                for r, flats in self.exterior_powers
            )
        return averages


def holonomy(entry: CatalogEntry) -> HolonomyGroup:
    """The closure of the generators' differentials, in integer form, with
    coset representatives found by breadth-first products of the catalog
    generators.

    The group is computed once per entry, on first use, and carried by it.
    `catalog_lookup` returns one shared, immutable entry per (id, parameter
    values), so every caller of the same lookup gets the same group object."""
    return entry.holonomy_group


def _close_holonomy(entry_id: str, generators: tuple, linear_parts: tuple) -> HolonomyGroup:
    """Breadth-first closure on integer forms: with r the common denominator
    of the generators' linear parts, every element is kept as r times
    itself, row-major, and found by a dict lookup.  r * (a b) is
    flat_product(r a, r b) / r, exact because every element's denominator
    divides r (the closure checks it)."""
    n = linear_parts[0].nrows
    r, gen_flats = integer_form(linear_parts)

    def product(a, b):
        p = flat_product(a, b, n)
        if any(v % r for v in p):
            raise CatalogError(f"holonomy of {entry_id} has an element off denominator {r}")
        return tuple(v // r for v in p)

    flats = [tuple(r * (i == j) for i in range(n) for j in range(n))]
    index = {flats[0]: 0}
    reps = [QMatrix.identity(n + 1)]
    frontier = [0]
    while frontier:
        i = frontier.pop(0)
        for g, gflat in zip(generators, gen_flats):
            prod = product(gflat, flats[i])
            if prod not in index:
                if len(flats) >= HOLONOMY_CAP:
                    raise CatalogError(f"holonomy closure of {entry_id} exceeds cap {HOLONOMY_CAP}")
                index[prod] = len(flats)
                flats.append(prod)
                reps.append(g * reps[i])
                frontier.append(len(flats) - 1)
    table = tuple(tuple(index.get(product(a, b)) for b in flats) for a in flats)
    if any(x is None for row in table for x in row):
        raise CatalogError(f"holonomy of {entry_id} is not closed")
    return HolonomyGroup((r, tuple(flats)), table, tuple(index[f] for f in gen_flats), tuple(reps))


# ---------------------------------------------------------------------------
# Catalog data
# ---------------------------------------------------------------------------


@cache
def _raw_catalog() -> dict:
    with resources.files("infranil.data").joinpath("catalog.json").open() as fh:
        return {entry["id"]: entry for entry in json.load(fh)["entries"]}


def catalog_ids():
    return list(_raw_catalog().keys())


def catalog_params(entry_id: str) -> tuple:
    """The entry's (name, domain) parameter pairs, in the corpus's domain
    language: the lattice parameter k of a Heisenberg type, none otherwise."""
    raw = _raw_catalog().get(entry_id)
    if raw is None:
        raise CatalogError(f"unknown catalog id {entry_id!r}")
    return tuple((p["name"], p["domain"]) for p in raw.get("params", []))


def catalog_lookup(entry_id: str, params=None) -> CatalogEntry:
    """Instantiate a catalog entry; Heisenberg types need their lattice
    parameter k, which must lie in its domain (`in_domain`, as for a family
    parameter).  The parameters are checked on every call; the entry is
    shared, one per (id, parameter values) in a bounded LRU cache, and
    carries its holonomy group."""
    domains = catalog_params(entry_id)
    params = {name: parse_rational(v) for name, v in (params or {}).items()}
    resolved = {}
    for name, domain in domains:
        if name not in params:
            raise ConstraintError(f"{entry_id}: missing required parameter {name!r}")
        if not in_domain(domain, params[name]):
            raise ConstraintError(
                f"{entry_id}: parameter {name} = {params[name]} is not in {domain}")
        resolved[name] = params[name]
    extra = set(params) - set(resolved)
    if extra:
        raise ConstraintError(f"{entry_id}: unknown parameters {sorted(extra)}")
    return _catalog_entry(entry_id, tuple(resolved.items()))


@lru_cache(maxsize=HOLONOMY_CACHE_SIZE)
def _catalog_entry(entry_id: str, resolved: tuple) -> CatalogEntry:
    raw = _raw_catalog()[entry_id]
    env = dict(resolved)
    model = raw["model"]
    dim = raw["dim"]
    gens, parts = [], []
    for g in raw["generators"]:
        if model == ABELIAN:
            rot = QMatrix([[eval_rational(v, env) for v in row] for row in g["rotation"]])
            trans = [eval_rational(v, env) for v in g["translation"]]
            gens.append(abelian_embed(rot, trans))
            parts.append(rot)
        else:
            phi = QMatrix([[eval_rational(v, env) for v in row] for row in g["phi"]])
            x, y, z = (eval_rational(v, env) for v in g["h"])
            gens.append(psi_embed(x, y, z, phi, env["k"]))
            parts.append(phi)
    return CatalogEntry(
        id=entry_id,
        dim=dim,
        model=model,
        generators=tuple(gens),
        linear_parts=tuple(parts),
        holonomy_order=raw["holonomy_order"],
        params=env,
        notes=raw.get("notes", ""),
    )
