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
matrix algebra over Q.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cache, cached_property, lru_cache
from fractions import Fraction
from importlib import resources
from types import MappingProxyType

from .errors import CatalogError, ConstraintError
from .exprs import eval_rational, parse_rational
from .matrices import QMatrix, exterior_integer_form, integer_form

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


def _unipotent(x, y, k) -> QMatrix:
    return QMatrix([[1, k * y / 2, -k * x / 2], [0, 1, 0], [0, 0, 1]])


def psi_embed(x, y, z, phi_star: QMatrix, k) -> QMatrix:
    """The 4x4 image of (h(x,y,z), phi) under the faithful representation."""
    x, y, z, k = Fraction(x), Fraction(y), Fraction(z), Fraction(k)
    if phi_star.nrows != 3 or phi_star.ncols != 3:
        raise CatalogError("phi* must be 3x3")
    block = _unipotent(x, y, k) * phi_star
    rows = [list(block.rows[i]) + [v] for i, v in zip(range(3), (-k * x * y / 2 + z, x, y))]
    rows.append([0, 0, 0, 1])
    return QMatrix(rows)


@dataclass(frozen=True)
class AffineElement:
    """An element of (an embedding of) aff(G), tagged with its model."""

    model: str
    dim: int
    matrix: QMatrix
    k: Fraction | None = None

    def __mul__(self, other: "AffineElement") -> "AffineElement":
        if self.model != other.model or self.dim != other.dim or self.k != other.k:
            raise CatalogError("cannot multiply elements of different models")
        return AffineElement(self.model, self.dim, self.matrix * other.matrix, self.k)

    def rotation_block(self) -> QMatrix:
        """Upper-left block of the affine matrix (not the holonomy part in the
        Heisenberg model, where a unipotent twist sits in front)."""
        n = self.matrix.nrows - 1
        return self.matrix.submatrix(range(n), range(n))

    def translation(self):
        n = self.matrix.nrows - 1
        return tuple(self.matrix[i, n] for i in range(n))

    def holonomy_part(self) -> QMatrix:
        """Differential of the automorphism part: the rotation block in the
        abelian model; the unipotent-corrected block in the Heisenberg one."""
        if self.model == ABELIAN:
            return self.rotation_block()
        x, y = self.matrix[1, 3], self.matrix[2, 3]
        return _unipotent(-x, -y, self.k) * self.rotation_block()

    def h_coords(self):
        """Exponential coordinates (x, y, z) of the translation part in the
        Heisenberg model."""
        if self.model != HEISENBERG:
            raise CatalogError("h_coords only applies to the Heisenberg model")
        x, y = self.matrix[1, 3], self.matrix[2, 3]
        z = self.matrix[0, 3] + self.k * x * y / 2
        return (x, y, z)


def lattice_element(model: str, dim: int, coords, k=None) -> AffineElement:
    """The embedded pure-lattice element with the given integer coordinates."""
    if model == ABELIAN:
        return AffineElement(model, dim, abelian_embed(QMatrix.identity(dim), coords))
    x, y, z = coords
    return AffineElement(model, dim, psi_embed(x, y, z, QMatrix.identity(3), k), Fraction(k))


def lattice_member(elem: AffineElement) -> bool:
    """Is this element a pure translation by a lattice element?  Abelian:
    identity rotation and integral translation.  Heisenberg: identity
    automorphism part and integral h-coordinates."""
    if elem.model == ABELIAN:
        if not elem.rotation_block().is_identity():
            return False
        return all(v.denominator == 1 for v in elem.translation())
    if not elem.holonomy_part().is_identity():
        return False
    return all(v.denominator == 1 for v in elem.h_coords())


@dataclass(frozen=True)
class CatalogEntry:
    """A group presentation: generators as embedded affine elements.  Every
    field is read-only (`params` too), so one entry can serve every caller."""

    id: str
    dim: int
    model: str
    generators: tuple
    holonomy_order: int
    params: MappingProxyType
    notes: str = ""

    def __post_init__(self):
        object.__setattr__(self, "params", MappingProxyType(dict(self.params)))

    @property
    def k(self):
        return self.params.get("k")

    @cached_property
    def holonomy_group(self) -> "HolonomyGroup":
        return _close_holonomy(self.id, self.generators)

    def lattice(self, coords) -> AffineElement:
        return lattice_element(self.model, self.dim, coords, self.k)


@dataclass(frozen=True)
class HolonomyGroup:
    """The finite holonomy group: differentials, a multiplication table, and
    one embedded coset representative per element (index 0 = identity)."""

    elements: tuple          # QMatrix differentials
    table: tuple             # table[i][j] = index of elements[i] * elements[j]
    generator_indices: tuple
    representatives: tuple   # AffineElement with holonomy_part == elements[i]

    @property
    def order(self) -> int:
        return len(self.elements)

    @cached_property
    def integer_elements(self) -> tuple:
        """integer_form of the elements: (r, flats), flats[i] = r * elements[i]
        row-major as ints.  Formed once per group; the self-map filter reads
        it without building the higher exterior powers."""
        return integer_form(self.elements)

    @cached_property
    def exterior_powers(self) -> tuple:
        """exterior_powers[j] = integer_form of Lambda^j of every element, for
        j = 0..dim, from the integer minors of `integer_elements`: formed
        once per group and shared by every candidate on it (ints take far
        less memory than Fractions in the holonomy cache)."""
        n = self.elements[0].nrows
        return tuple(exterior_integer_form(self.integer_elements, j) for j in range(n + 1))

    @cached_property
    def _averages(self) -> dict:
        return {}

    def exterior_averages(self, indices=None) -> tuple:
        """averages[j] = (den, flat) with P_j = flat / den (row-major ints),
        P_j = (1/#S) sum_{i in S} Lambda^j elements[i], for j = 0..dim and S
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
    """Closure of the generators' differentials, with coset representatives
    found by breadth-first products of the catalog generators.

    The group is computed once per entry, on first use, and carried by it.
    `catalog_lookup` returns one shared, immutable entry per (id, parameter
    values), so every caller of the same lookup gets the same group object."""
    return entry.holonomy_group


def _close_holonomy(entry_id: str, generators: tuple) -> HolonomyGroup:
    first = generators[0]
    ident = QMatrix.identity(first.dim)
    elements = [ident]
    reps = [lattice_element(first.model, first.dim, (0,) * first.dim, first.k)]
    gen_parts = [g.holonomy_part() for g in generators]

    def find(mat):
        for i, e in enumerate(elements):
            if e == mat:
                return i
        return None

    frontier = [0]
    while frontier:
        i = frontier.pop(0)
        for g, gpart in zip(generators, gen_parts):
            prod = gpart * elements[i]
            if find(prod) is None:
                if len(elements) >= HOLONOMY_CAP:
                    raise CatalogError(f"holonomy closure of {entry_id} exceeds cap {HOLONOMY_CAP}")
                elements.append(prod)
                reps.append(g * reps[i])
                frontier.append(len(elements) - 1)
    table = tuple(
        tuple(find(a * b) for b in elements) for a in elements
    )
    if any(x is None for row in table for x in row):
        raise CatalogError(f"holonomy of {entry_id} is not closed")
    gen_idx = tuple(find(p) for p in gen_parts)
    return HolonomyGroup(tuple(elements), table, gen_idx, tuple(reps))


# ---------------------------------------------------------------------------
# Catalog data
# ---------------------------------------------------------------------------


@cache
def _raw_catalog() -> dict:
    with resources.files("infranil.data").joinpath("catalog.json").open() as fh:
        return {entry["id"]: entry for entry in json.load(fh)["entries"]}


def catalog_ids():
    return list(_raw_catalog().keys())


def _check_param_spec(spec: dict, value: Fraction, entry_id: str):
    name = spec["name"]
    if value.denominator != 1:
        raise ConstraintError(f"{entry_id}: parameter {name} must be an integer")
    v = int(value)
    if "min" in spec and v < spec["min"]:
        raise ConstraintError(f"{entry_id}: parameter {name} must be >= {spec['min']}")
    if "mod" in spec and v % spec["mod"] not in spec["residues"]:
        allowed = " or ".join(str(r) for r in spec["residues"])
        raise ConstraintError(
            f"{entry_id}: {name} = {v} violates {name} congruent to {allowed} mod {spec['mod']}"
        )


def catalog_lookup(entry_id: str, params=None) -> CatalogEntry:
    """Instantiate a catalog entry; Heisenberg types need their lattice
    parameter k, checked against the type's congruence constraint.  The
    parameters are checked on every call; the entry is shared, one per (id,
    parameter values) in a bounded LRU cache, and carries its holonomy group."""
    raw = _raw_catalog().get(entry_id)
    if raw is None:
        raise CatalogError(f"unknown catalog id {entry_id!r}")
    params = {name: parse_rational(v) for name, v in (params or {}).items()}
    resolved = {}
    for spec in raw.get("params", []):
        name = spec["name"]
        if name not in params:
            raise ConstraintError(f"{entry_id}: missing required parameter {name!r}")
        _check_param_spec(spec, params[name], entry_id)
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
    gens = []
    for g in raw["generators"]:
        if model == ABELIAN:
            rot = QMatrix([[eval_rational(v, env) for v in row] for row in g["rotation"]])
            trans = [eval_rational(v, env) for v in g["translation"]]
            gens.append(AffineElement(model, dim, abelian_embed(rot, trans)))
        else:
            phi = QMatrix([[eval_rational(v, env) for v in row] for row in g["phi"]])
            x, y, z = (eval_rational(v, env) for v in g["h"])
            gens.append(
                AffineElement(model, dim, psi_embed(x, y, z, phi, env["k"]), env["k"])
            )
    return CatalogEntry(
        id=entry_id,
        dim=dim,
        model=model,
        generators=tuple(gens),
        holonomy_order=raw["holonomy_order"],
        params=env,
        notes=raw.get("notes", ""),
    )
