"""Validation of affine self-map candidates and the parametrized map-family
corpus.

A pair (d, D) induces a self-map of the quotient manifold exactly when for
every generator (alpha, A) of the group there is some group element
(beta, B) with

    (d, D)(alpha, A) = (beta, B)(d, D).

Writing X and Y for the embedded sides with (beta, B) split into a lattice
part times a coset representative, the condition becomes "X equals
(lattice element) * Y", which is decided exactly: solve for the unique
lattice coordinates from the translation columns, check integrality, and
confirm the full matrix identity.  The assignment need not be a
homomorphism, so each generator is tested against every holonomy element
independently.

Most pairs (generator, holonomy element) fail already at the differential
level, D A == B D.  That filter runs in integers on the cached integer form
of the holonomy group (`HolonomyGroup.integer_elements`), with each product
formed once per call; the embedded affine products, and the lattice witness
in Fractions, are formed only for the pairs that pass it.
"""

from __future__ import annotations

import json
import os
import random
import zlib
from dataclasses import dataclass
from functools import cache
from importlib import resources

from .catalog import (
    ABELIAN,
    HEISENBERG,
    AffineElement,
    CatalogEntry,
    abelian_embed,
    catalog_lookup,
    holonomy,
    psi_embed,
)
from .errors import ConstraintError, CorpusError, InvalidCandidateError
from .exprs import eval_bool, eval_rational, parse_rational
from .matrices import QMatrix, flat_product, integer_form


def heis_endo_check(dstar: QMatrix) -> bool:
    """A 3x3 matrix in the basis {log c, log a, log b} is the differential of
    an endomorphism of the Heisenberg group iff its first column equals
    (det of the lower-right 2x2 block, 0, 0)."""
    if dstar.nrows != 3 or dstar.ncols != 3:
        raise InvalidCandidateError("Heisenberg differentials are 3x3")
    det = dstar[1, 1] * dstar[2, 2] - dstar[1, 2] * dstar[2, 1]
    return dstar[0, 0] == det and dstar[1, 0] == 0 and dstar[2, 0] == 0


@dataclass(frozen=True)
class MapCandidate:
    """An affine pair (d, D) on the universal cover of a catalog manifold.

    Abelian model: `translation` is the vector d, `dstar` the linear part.
    Heisenberg model: `translation` holds the exponential coordinates
    (r, s, t) of d = h(r, s, t) and `dstar` the differential on the Lie
    algebra in the basis {log c, log a, log b}.
    """

    entry: CatalogEntry
    translation: tuple
    dstar: QMatrix

    def __post_init__(self):
        n = self.entry.dim
        if self.dstar.nrows != n or self.dstar.ncols != n:
            raise InvalidCandidateError(f"linear part must be {n}x{n}")
        if len(self.translation) != n:
            raise InvalidCandidateError(f"translation must have length {n}")
        if self.entry.model == HEISENBERG and not heis_endo_check(self.dstar):
            raise InvalidCandidateError(
                "linear part is not a Heisenberg Lie algebra endomorphism"
            )

    def embedded(self) -> AffineElement:
        if self.entry.model == ABELIAN:
            mat = abelian_embed(self.dstar, self.translation)
        else:
            r, s, t = self.translation
            mat = psi_embed(r, s, t, self.dstar, self.entry.k)
        return AffineElement(self.entry.model, self.entry.dim, mat, self.entry.k)

    def iterate(self, k: int) -> "MapCandidate":
        """The candidate for the k-th iterate (embedded power decomposed back
        into translation and linear data)."""
        if k < 1:
            raise InvalidCandidateError("iterate needs k >= 1")
        power = self.embedded().matrix.power(k)
        elem = AffineElement(self.entry.model, self.entry.dim, power, self.entry.k)
        if self.entry.model == ABELIAN:
            return MapCandidate(self.entry, elem.translation(), elem.rotation_block())
        return MapCandidate(self.entry, elem.h_coords(), elem.holonomy_part())


def _lattice_witness(entry: CatalogEntry, x: QMatrix, y: QMatrix):
    """Solve X = (lattice element) * Y for integral lattice coordinates;
    returns the coordinates or None.  Works for singular linear parts because
    the candidate coordinates are read off the translation columns."""
    n = entry.dim
    if entry.model == ABELIAN:
        coords = tuple(x[i, n] - y[i, n] for i in range(n))
        if any(c.denominator != 1 for c in coords):
            return None
        if entry.lattice(coords).matrix * y != x:
            return None
        return coords
    k = entry.k
    z1 = x[1, 3] - y[1, 3]
    z2 = x[2, 3] - y[2, 3]
    z3 = x[0, 3] - y[0, 3] - k * z2 / 2 * y[1, 3] + k * z1 / 2 * y[2, 3] + k * z1 * z2 / 2
    coords = (z1, z2, z3)
    if any(c.denominator != 1 for c in coords):
        return None
    if entry.lattice(coords).matrix * y != x:
        return None
    return coords


@dataclass(frozen=True)
class PhiAssignment:
    """For each generator, the holonomy index and lattice correction of the
    group element matched on the right-hand side of the self-map equation."""

    entries: tuple  # ((generator_index, holonomy_index, lattice_coords), ...)

    def holonomy_image(self, generator_index: int) -> int:
        for g, h, _ in self.entries:
            if g == generator_index:
                return h
        raise KeyError(generator_index)


def validate_selfmap(candidate: MapCandidate):
    """Decide whether (d, D) induces a self-map; returns a PhiAssignment or
    None.  For each generator every holonomy element is tried (the assignment
    need not be a homomorphism); matches follow catalog order, so the result
    is deterministic.  Each generator's match is independent of the others',
    so the generators with non-trivial holonomy are tried first: most
    rejects fail there, before any lattice witness.

    The rotational filter D A_g == B_h D runs in integers: with q and r the
    common denominators of D and of the holonomy elements, it holds exactly
    when (qD)(rA_g) == (rB_h)(qD).  Each B_h D is formed once per call and
    each D A_g once per generator.  Only where the filter passes are the
    embedded candidate cand (once per call), the affine products
    X = cand * gen (once per generator) and
    Y_h = rep_h * cand (once per h, shared across generators) formed, in
    Fractions, for the exact lattice witness."""
    entry = candidate.entry
    group = holonomy(entry)
    n = entry.dim
    _, (dflat,) = integer_form([candidate.dstar])
    _, aflats = group.integer_elements
    b_d = [flat_product(b, dflat, n) for b in aflats]
    cand = None
    ys = {}
    found = []
    # holonomy index 0 is the identity
    for gi in sorted(range(len(entry.generators)), key=lambda g: group.generator_indices[g] == 0):
        gen, ai = entry.generators[gi], group.generator_indices[gi]
        d_a = flat_product(dflat, aflats[ai], n)
        x = None
        hit = None
        for hi, bd in enumerate(b_d):
            if bd != d_a:
                continue
            if x is None:
                if cand is None:
                    cand = candidate.embedded().matrix
                x = cand * gen.matrix
            y = ys.get(hi)
            if y is None:
                y = ys[hi] = group.representatives[hi].matrix * cand
            w = _lattice_witness(entry, x, y)
            if w is not None:
                hit = (gi, hi, w)
                break
        if hit is None:
            return None
        found.append(hit)
    return PhiAssignment(tuple(sorted(found)))


# ---------------------------------------------------------------------------
# Family corpus
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ZetaTemplate:
    """One guarded table of expected zeta products.  `cells` maps
    "<index>|<pe><ne>" (e.g. "1|eo" for index one, p even, n odd) to a list
    of (coefficient-expression list, exponent) factors."""

    guard: str | None
    cells: dict


@dataclass(frozen=True)
class FamilySpec:
    manifold: str
    index: int
    desc: str
    params: tuple          # (name, domain) pairs, entry params (k) included
    derived: tuple         # (name, expression) pairs, evaluated in order
    constraints: tuple     # boolean expression strings
    dstar: tuple           # rows of coefficient expressions
    translation: tuple
    zeta: tuple            # ZetaTemplate, first matching guard wins

    @property
    def label(self) -> str:
        return f"{self.manifold}#{self.index}"


@dataclass(frozen=True)
class Corpus:
    families: tuple

    def for_manifold(self, manifold: str):
        return [f for f in self.families if f.manifold == manifold]

    def manifolds(self):
        seen = []
        for f in self.families:
            if f.manifold not in seen:
                seen.append(f.manifold)
        return seen


def _packaged_corpus_path():
    return resources.files("infranil.data").joinpath("families.json")


def default_corpus_path():
    override = os.environ.get("ZETA_CORPUS")
    if override:
        return override
    return _packaged_corpus_path()


def load_corpus(path=None) -> Corpus:
    """The family corpus at `path`, else at ZETA_CORPUS, else the packaged
    one.  The packaged corpus is parsed once per process and the same Corpus
    is returned on every call; an explicit path or ZETA_CORPUS is read anew
    each time."""
    if not path and not os.environ.get("ZETA_CORPUS"):
        return _packaged_corpus()
    return _parse_corpus(path or default_corpus_path())


@cache
def _packaged_corpus() -> Corpus:
    return _parse_corpus(_packaged_corpus_path())


def _parse_corpus(src) -> Corpus:
    try:
        if hasattr(src, "open"):
            with src.open() as fh:
                data = json.load(fh)
        else:
            with open(src) as fh:
                data = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise CorpusError(f"cannot load corpus: {exc}") from exc
    families = []
    for block in data["manifolds"]:
        manifold = block["manifold"]
        entry_params = [(p["name"], p["domain"]) for p in block.get("entry_params", [])]
        for fam in block["families"]:
            params = entry_params + [(p["name"], p["domain"]) for p in fam["params"]]
            families.append(
                FamilySpec(
                    manifold=manifold,
                    index=fam["index"],
                    desc=fam.get("desc", ""),
                    params=tuple(params),
                    derived=tuple((d["name"], d["expr"]) for d in fam.get("derived", [])),
                    constraints=tuple(fam.get("constraints", [])),
                    dstar=tuple(tuple(row) for row in fam["dstar"]),
                    translation=tuple(fam["translation"]),
                    zeta=tuple(
                        ZetaTemplate(v.get("guard"), v["cells"]) for v in fam["zeta"]
                    ),
                )
            )
    return Corpus(tuple(families))


def resolve_params(spec: FamilySpec, params: dict) -> dict:
    """Parse the supplied parameters and evaluate derived ones."""
    env = {}
    for name, _domain in spec.params:
        if name not in params:
            raise ConstraintError(f"{spec.label}: missing parameter {name!r}")
        env[name] = parse_rational(params[name])
    extra = set(params) - set(env)
    if extra:
        raise ConstraintError(f"{spec.label}: unknown parameters {sorted(extra)}")
    for name, expr in spec.derived:
        env[name] = eval_rational(expr, env)
    return env


def family_instantiate(spec: FamilySpec, params: dict, corpus_check: bool = True) -> MapCandidate:
    """Build the candidate for a parameter assignment, checking every
    constraint, then every parameter's domain, and validating the result
    eagerly.  A validation failure means the corpus row itself is wrong,
    which is a hard error."""
    env = resolve_params(spec, params)
    for cond in spec.constraints:
        if not eval_bool(cond, env):
            raise ConstraintError(f"{spec.label}: constraint violated: {cond}")
    for name, domain in spec.params:
        if not _in_domain(domain, env[name]):
            raise ConstraintError(f"{spec.label}: parameter {name} = {env[name]} is not in {domain}")
    entry_param_names = [n for n, _ in spec.params if n == "k"]
    entry = catalog_lookup(spec.manifold, {n: env[n] for n in entry_param_names})
    dstar = QMatrix([[eval_rational(e, env) for e in row] for row in spec.dstar])
    translation = tuple(eval_rational(e, env) for e in spec.translation)
    candidate = MapCandidate(entry, translation, dstar)
    if corpus_check and validate_selfmap(candidate) is None:
        raise CorpusError(
            f"{spec.label}: instantiation with {params} fails self-map validation "
            "(corpus encoding bug)"
        )
    return candidate


def expected_zeta_cell(spec: FamilySpec, env: dict, index: int, p: int, n: int):
    """Factor-expression list for the computed (index, p, n) data, from the
    first template whose guard holds; None when the table has no such cell."""
    key = f"{index}|{'e' if p % 2 == 0 else 'o'}{'e' if n % 2 == 0 else 'o'}"
    for template in spec.zeta:
        if template.guard is not None and not eval_bool(template.guard, env):
            continue
        return template.cells.get(key)
    return None


# ---------------------------------------------------------------------------
# Deterministic parameter sampling
# ---------------------------------------------------------------------------

_HALF_INTS = ["-3/2", "-1", "-1/2", "0", "1/2", "1", "3/2"]
_HALF_ODD = ["-3/2", "-1/2", "1/2", "3/2"]
_QUARTER_ODD = ["-3/4", "-1/4", "1/4", "3/4"]
_RATIONALS = ["0", "1", "-1", "1/2", "-2/3", "5/4", "2"]


def _is_int(v) -> bool:
    return v.denominator == 1


def _residue_in(v, arg: str) -> bool:
    m, residues = arg.split(":")
    return v % int(m) in {int(r) for r in residues.split(",")}


# Membership test per domain kind: (value, text after the first ':') -> bool.
_DOMAINS = {
    "int": lambda v, arg: _is_int(v),
    "int_nonzero": lambda v, arg: _is_int(v) and v != 0,
    "int_odd": lambda v, arg: _is_int(v) and v % 2 == 1,
    "int_even": lambda v, arg: _is_int(v) and v % 2 == 0,
    "int_mod": lambda v, arg: _is_int(v) and _residue_in(v, arg),
    "int_pos_mod": lambda v, arg: _is_int(v) and v > 0 and _residue_in(v, arg),
    "int_multiple": lambda v, arg: _is_int(v) and v % int(arg) == 0,
    "rational": lambda v, arg: True,
    "half_int": lambda v, arg: _is_int(2 * v),
    "half_odd": lambda v, arg: _is_int(2 * v) and 2 * v % 2 == 1,
    "quarter_odd": lambda v, arg: _is_int(4 * v) and 4 * v % 2 == 1,
    "third_int": lambda v, arg: _is_int(3 * v),
    "shift": lambda v, arg: _is_int(v - parse_rational(arg)),
}


def _in_domain(domain: str, value) -> bool:
    """Whether a Fraction lies in a family parameter's domain, e.g.
    "int_odd", "int_mod:4:1,3" or "shift:1/3" (`_domain_values` samples
    them)."""
    kind, _, arg = domain.partition(":")
    if kind not in _DOMAINS:
        raise CorpusError(f"unknown parameter domain {domain!r}")
    return _DOMAINS[kind](value, arg)


def _domain_values(domain: str, large: bool = False):
    lo, hi = (-5, 5) if not large else (7, 23)
    ints = list(range(lo, hi + 1))
    if domain == "int":
        return [str(v) for v in ints]
    if domain == "int_nonzero":
        return [str(v) for v in ints if v != 0]
    if domain == "int_odd":
        return [str(v) for v in ints if v % 2 == 1]
    if domain == "int_even":
        return [str(v) for v in ints if v % 2 == 0]
    if domain.startswith("int_mod:"):
        _, m, rs = domain.split(":")
        m = int(m)
        residues = {int(r) for r in rs.split(",")}
        return [str(v) for v in ints if v % m in residues]
    if domain.startswith("int_pos_mod:"):
        _, m, rs = domain.split(":")
        m = int(m)
        residues = {int(r) for r in rs.split(",")}
        base = range(1, 13) if not large else range(max(lo, 1), hi + 13)
        return [str(v) for v in base if v > 0 and v % m in residues]
    if domain.startswith("int_multiple:"):
        m = int(domain.split(":")[1])
        return [str(v) for v in ints if v % m == 0]
    if domain == "rational":
        return list(_RATIONALS) if not large else ["17/3", "-23/4"]
    if domain == "half_int":
        return list(_HALF_INTS) if not large else ["15/2", "-9"]
    if domain == "half_odd":
        return list(_HALF_ODD) if not large else ["17/2", "-15/2"]
    if domain == "quarter_odd":
        return list(_QUARTER_ODD) if not large else ["29/4", "-19/4"]
    if domain == "third_int":
        if large:
            return ["22/3", "-26/3"]
        return ["-4/3", "-1", "-2/3", "-1/3", "0", "1/3", "2/3", "1", "4/3"]
    if domain.startswith("shift:"):
        base = parse_rational(domain.split(":")[1])
        offsets = (-1, 0, 1) if not large else (7, -8)
        return [str(base + o) for o in offsets]
    raise CorpusError(f"unknown sampling domain {domain!r}")


def sample_params(spec: FamilySpec, count: int, seed: int = 0):
    """Deterministic parameter tuples satisfying all constraints: a seeded
    shuffle of a small grid, plus larger values mixed in.  Raises if the grid
    cannot produce `count` samples."""
    rng = random.Random(zlib.crc32(spec.label.encode()) ^ seed)
    names = [n for n, _ in spec.params]
    domains = [d for _, d in spec.params]
    out = []
    seen = set()

    def attempt(values):
        key = tuple(values)
        if key in seen:
            return False
        seen.add(key)
        raw = dict(zip(names, values))
        try:
            env = resolve_params(spec, raw)
        except ConstraintError:
            return False
        if not all(eval_bool(c, env) for c in spec.constraints):
            return False
        out.append(raw)
        return True

    small = [_domain_values(d) for d in domains]
    budget = 4000
    while len(out) < count and budget > 0:
        budget -= 1
        attempt([rng.choice(vals) for vals in small])
    if len(out) < count:
        raise CorpusError(f"{spec.label}: could not sample {count} parameter tuples")
    # a couple of larger values from the same seed, when available
    large = [_domain_values(d, large=True) for d in domains]
    extra = 0
    budget = 400
    while extra < 2 and budget > 0:
        budget -= 1
        mixed = [
            rng.choice(lg if rng.random() < 0.5 else sm)
            for sm, lg in zip(small, large)
        ]
        if attempt(mixed):
            extra += 1
    return out
