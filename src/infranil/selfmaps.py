"""Validation of affine self-map candidates and the parametrized map-family
corpus.

A pair (d, D) induces a self-map of the quotient manifold exactly when for
every generator (alpha, A) of the group there is some group element
(beta, B) with

    (d, D)(alpha, A) = (beta, B)(d, D).

Every group element, the candidate's own included (`MapCandidate.embedded`),
is its embedded QMatrix (`catalog`), and every translation column is read
from one by `_translation_column`.  Writing X and Y for the embedded sides
with (beta, B) split into a lattice part times a coset representative, the
condition becomes "X equals (lattice element) * Y", which is decided
exactly: once the linear parts agree, the identity holds exactly when the
translation columns do, so the unique lattice coordinates are solved from
those columns and checked for integrality (`_lattice_witness`).  The
assignment need not be a homomorphism, so each generator is tested against
every holonomy element independently.

Most pairs (generator, holonomy element) fail already at the differential
level, D A == B D.  That filter runs in integers on the holonomy group as
the closure keeps it (`HolonomyGroup.form`), with each product formed once
per call and none with the identity.  Only for the pairs that pass it are
the translation columns of the two sides formed, in Fractions, and the
lattice witness run on them.  Each coset-side column is a matrix-vector
product with the candidate's translation column, as is X's on Heisenberg
entries, and `psi_embed` is written out in closed form; so a Heisenberg
accept forms no matrix product, and an abelian one forms only
X = cand * gen, once per generator.
"""

from __future__ import annotations

import json
import os
import random
import zlib
from functools import cache
from importlib import resources
from pathlib import Path
from typing import NamedTuple

from .catalog import (
    ABELIAN,
    HEISENBERG,
    CatalogEntry,
    abelian_embed,
    catalog_lookup,
    catalog_params,
    holonomy,
    psi_embed,
)
from .errors import CatalogError, ConstraintError, CorpusError, InvalidCandidateError
from .exprs import (domain_values, eval_bool, eval_rational, exact_number, in_domain,
                    parse_domain, parse_rational)
from .matrices import QMatrix, flat_product, integer_form
from .records import Record
from .series import parity_signs


def heis_endo_check(dstar: QMatrix) -> bool:
    """A 3x3 matrix in the basis {log c, log a, log b} is the differential of
    an endomorphism of the Heisenberg group iff its first column equals
    (det of the lower-right 2x2 block, 0, 0)."""
    if dstar.nrows != 3 or dstar.ncols != 3:
        raise InvalidCandidateError("Heisenberg differentials are 3x3")
    det = dstar[1, 1] * dstar[2, 2] - dstar[1, 2] * dstar[2, 1]
    return dstar[0, 0] == det and dstar[1, 0] == 0 and dstar[2, 0] == 0


class MapCandidate(Record):
    """An affine pair (d, D) on the universal cover of a catalog manifold.

    Abelian model: `translation` is the vector d, `dstar` the linear part.
    Heisenberg model: `translation` holds the exponential coordinates
    (r, s, t) of d = h(r, s, t) and `dstar` the differential on the Lie
    algebra in the basis {log c, log a, log b}.  The translation is stored
    as a tuple of Fractions, each entry admitted by `exact_number`.
    """

    __slots__ = ("entry", "translation", "dstar")
    _fields = __slots__

    def __init__(self, entry: CatalogEntry, translation: tuple, dstar: QMatrix):
        translation = tuple(exact_number(v, "translation entry") for v in translation)
        n = entry.dim
        if dstar.nrows != n or dstar.ncols != n:
            raise InvalidCandidateError(f"linear part must be {n}x{n}")
        if len(translation) != n:
            raise InvalidCandidateError(f"translation must have length {n}")
        if entry.model == HEISENBERG and not heis_endo_check(dstar):
            raise InvalidCandidateError(
                "linear part is not a Heisenberg Lie algebra endomorphism"
            )
        self._set_fields(entry, translation, dstar)

    def embedded(self) -> QMatrix:
        if self.entry.model == ABELIAN:
            return abelian_embed(self.dstar, self.translation)
        r, s, t = self.translation
        return psi_embed(r, s, t, self.dstar, self.entry.k)

    def iterate(self, k: int) -> "MapCandidate":
        """The candidate for the k-th iterate: linear part D^k, translation
        decoded from the embedded power's translation column t (abelian: t
        itself; Heisenberg: the h-coordinates (x, y, t0 + k' x y / 2) with
        (x, y) = (t1, t2) and k' the entry's lattice parameter)."""
        if k < 1:
            raise InvalidCandidateError("iterate needs k >= 1")
        t = _translation_column(self.embedded().power(k))
        if self.entry.model == HEISENBERG:
            x, y = t[1], t[2]
            t = (x, y, t[0] + self.entry.k * x * y / 2)
        return MapCandidate(self.entry, t, self.dstar.power(k))


def _translation_column(mat: QMatrix) -> tuple:
    """The first n entries of the last column of an (n+1)x(n+1) embedded
    matrix."""
    return tuple(row[-1] for row in mat.rows[:-1])


def _lattice_witness(entry: CatalogEntry, tx: tuple, ty: tuple):
    """The integral lattice coordinates c with X = L(c) * Y, or None, where
    L(c) is the embedded lattice element, X = cand * gen and Y = rep_h * cand
    for a pair (generator, holonomy element h) that passed the rotational
    filter D A_g == B_h D, given only the translation columns tx of X and ty
    of Y (their first n entries).

    The filter makes the matrix identity a question about translation
    columns alone.  Abelian: X and L(c) Y = (B_h D | c + t_Y) share the
    linear part B_h D, so X = L(c) Y exactly when c = t_X - t_Y.
    Heisenberg: an embedded element psi(h, phi) is determined by its
    automorphism part phi and its nilpotent part h, and h by the translation
    column t(h) = (-k x y / 2 + z, x, y), which does not depend on phi and is
    injective in h.  X and L(c) Y have the same automorphism part D A_g =
    B_h D, so they are equal exactly when their translation columns are,
    U(c) t_Y + t(c) = t_X with U(c) the unipotent block of L(c).  Its
    unique solution is the (z1, z2, z3) below.  Either way no lattice
    element is formed and no product confirms the solve.  Works for singular
    linear parts too."""
    if entry.model == ABELIAN:
        coords = tuple(a - b for a, b in zip(tx, ty))
    else:
        k = entry.k
        z1 = tx[1] - ty[1]
        z2 = tx[2] - ty[2]
        z3 = tx[0] - ty[0] - k * z2 / 2 * ty[1] + k * z1 / 2 * ty[2] + k * z1 * z2 / 2
        coords = (z1, z2, z3)
    if any(c.denominator != 1 for c in coords):
        return None
    return coords


def _product_column(mat: QMatrix, t: tuple) -> tuple:
    """The translation column of mat * M for an affine matrix M with
    translation column t: mat's linear block times t, plus mat's own
    translation column.  Zero terms are skipped; every entry stays a
    Fraction, as it starts from mat's own."""
    return tuple(sum((a * b for a, b in zip(row, t) if a and b), row[-1])
                 for row in mat.rows[:-1])


class PhiAssignment(NamedTuple):
    """For each generator, the holonomy index and lattice correction of the
    group element matched on the right-hand side of the self-map equation."""

    entries: tuple  # ((generator_index, holonomy_index, lattice_coords), ...)


def validate_selfmap(candidate: MapCandidate):
    """Decide whether (d, D) induces a self-map; returns a PhiAssignment or
    None.  For each generator every holonomy element is tried (the assignment
    need not be a homomorphism); matches follow catalog order, so the result
    is deterministic.  Each generator's match is independent of the others',
    so the generators with non-trivial holonomy are tried first
    (`HolonomyGroup.generator_order`, formed once per group): most rejects
    fail there, before any lattice witness.

    The rotational filter D A_g == B_h D runs in integers: with q and r the
    common denominators of D and of the holonomy elements, it holds exactly
    when (qD)(rA_g) == (rB_h)(qD).  D's integer form is read in one pass
    (`integer_form`).  Each B_h D is formed once per call, with no product
    for h = 0: index 0 is the identity, r I in `group.form`, so B_0 D is r
    times D's integer form.  Each D A_g is formed once per generator tried.
    Only where the filter passes are the embedded candidate cand (once per
    call) and the translation columns of X = cand * gen (once per generator)
    and Y_h = rep_h * cand (once per h, shared across generators) formed, in
    Fractions, for the lattice witness, which reads nothing else.  Y_h's
    column is rep_h times cand's translation column, a matrix-vector
    product, on both models; so is X's on Heisenberg entries (cand times
    gen's column), while abelian entries form the product cand * gen and
    slice its column.  Y_0's column is cand's own (rep_0 is the identity
    matrix) and costs no product."""
    entry = candidate.entry
    group = holonomy(entry)
    n = entry.dim
    _, (dflat,) = integer_form([candidate.dstar])
    r, aflats = group.form
    # index 0 is the identity, r I in group.form, so B_0 D is r D
    b_d = [dflat if r == 1 else tuple(r * v for v in dflat)]
    b_d += [flat_product(b, dflat, n) for b in aflats[1:]]
    heis = entry.model == HEISENBERG
    cand = None
    ys = {}
    found = []
    for gi in group.generator_order:
        gen, ai = entry.generators[gi], group.generator_indices[gi]
        d_a = flat_product(dflat, aflats[ai], n)
        x = None
        hit = None
        for hi, bd in enumerate(b_d):
            if bd != d_a:
                continue
            if x is None:
                if cand is None:
                    cand = candidate.embedded()
                    ys[0] = _translation_column(cand)
                x = _product_column(cand, _translation_column(gen)) if heis else _translation_column(cand * gen)
            y = ys.get(hi)
            if y is None:
                y = ys[hi] = _product_column(group.representatives[hi], ys[0])
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


class ZetaTemplate(NamedTuple):
    """One guarded table of expected zeta products.  `products` maps the
    index ("1" or "2") to the Nielsen zeta for p and n even, a list of
    {"coeffs": coefficient-expression list, "exp": exponent} factors;
    `expected_zeta_cell` derives the other parities from it."""

    guard: str | None
    products: dict


class FamilySpec(NamedTuple):
    manifold: str
    index: int
    desc: str
    params: tuple          # (name, domain) pairs, the catalog entry's (k) first
    derived: tuple         # (name, expression) pairs, evaluated in order
    constraints: tuple     # boolean expression strings
    dstar: tuple           # rows of coefficient expressions
    translation: tuple
    zeta: tuple            # ZetaTemplate, first matching guard wins

    @property
    def label(self) -> str:
        return f"{self.manifold}#{self.index}"


class Corpus(NamedTuple):
    families: tuple

    def for_manifold(self, manifold: str):
        return [f for f in self.families if f.manifold == manifold]


def load_corpus(path=None) -> Corpus:
    """The family corpus at `path`, else at ZETA_CORPUS, else the packaged
    one.  The packaged corpus is parsed once per process and the same Corpus
    is returned on every call; an explicit path or ZETA_CORPUS is read anew
    each time."""
    path = path or os.environ.get("ZETA_CORPUS")
    return _parse_corpus(Path(path)) if path else _packaged_corpus()


@cache
def _packaged_corpus() -> Corpus:
    return _parse_corpus(resources.files("infranil.data").joinpath("families.json"))


def _parse_corpus(src) -> Corpus:
    """The Corpus in `src`, a Path or a package resource."""
    try:
        with src.open() as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise CorpusError(f"cannot load corpus: {exc}") from exc
    try:
        return Corpus(tuple(spec for block in data["manifolds"] for spec in _block_specs(block)))
    except KeyError as exc:
        raise CorpusError(f"malformed corpus: missing key {exc}") from exc
    except (TypeError, AttributeError) as exc:
        raise CorpusError(f"malformed corpus: wrong shape ({exc})") from exc


def _block_specs(block: dict) -> list:
    """The FamilySpecs of one manifold's corpus block; each one's parameters
    start with the catalog entry's (k), and every domain must parse (`parse_domain`)."""
    manifold = block["manifold"]
    try:
        entry_params = catalog_params(manifold)
    except CatalogError as exc:
        raise CorpusError(f"corpus manifold {manifold!r} is not in the catalog") from exc
    for fam in block["families"]:
        for p in fam["params"]:
            try:
                parse_domain(p["domain"])
            except CorpusError as exc:
                raise CorpusError(f"malformed corpus: {manifold}#{fam['index']}: {exc}") from None
    return [
        FamilySpec(
            manifold=manifold,
            index=fam["index"],
            desc=fam.get("desc", ""),
            params=entry_params + tuple((p["name"], p["domain"]) for p in fam["params"]),
            derived=tuple((d["name"], d["expr"]) for d in fam.get("derived", [])),
            constraints=tuple(fam.get("constraints", [])),
            dstar=tuple(tuple(row) for row in fam["dstar"]),
            translation=tuple(fam["translation"]),
            zeta=tuple(_zeta_template(manifold, v) for v in fam["zeta"]),
        )
        for fam in block["families"]
    ]


def _zeta_template(manifold: str, variant: dict) -> ZetaTemplate:
    """One variant, checked when the corpus loads: `guard` is a string or
    absent, and `products` maps "1" and "2" to lists of {"coeffs": list,
    "exp": int} factors (a bool is not an int)."""
    guard, products = variant.get("guard"), variant["products"]
    if not (guard is None or isinstance(guard, str)):
        raise CorpusError(f"malformed corpus: {manifold} has a guard {guard!r}, not a string")
    for key, product in products.items():
        if key not in ("1", "2"):
            raise CorpusError(f"malformed corpus: {manifold} has a product of index {key!r}, not 1 or 2")
        if not (isinstance(product, list) and all(
                isinstance(f, dict) and isinstance(f.get("coeffs"), list)
                and type(f.get("exp")) is int for f in product)):
            raise CorpusError(f"malformed corpus: {manifold} has a product of index {key} that is "
                              'not a list of {"coeffs": list, "exp": int} factors')
    return ZetaTemplate(guard, products)


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


def admit_params(spec: FamilySpec, params: dict) -> dict:
    """The resolved parameters (`resolve_params`) of a tuple the family
    admits: every parameter lies in its domain, then every constraint holds.
    Raises ConstraintError naming the first failure.  This is the one rule
    for which tuples a family admits: instantiation, sampling and the CLI's
    family choice all apply it."""
    env = resolve_params(spec, params)
    for name, domain in spec.params:
        if not in_domain(domain, env[name]):
            raise ConstraintError(f"{spec.label}: parameter {name} = {env[name]} is not in {domain}")
    for cond in spec.constraints:
        if not eval_bool(cond, env):
            raise ConstraintError(f"{spec.label}: constraint violated: {cond}")
    return env


def family_instantiate(spec: FamilySpec, params: dict) -> MapCandidate:
    """The candidate of `family_instance`."""
    return family_instance(spec, params)[1]


def family_instance(spec: FamilySpec, params: dict) -> tuple:
    """(env, candidate) for a parameter assignment the family admits: env
    the resolved parameters (`admit_params`: every parameter's domain, then
    every constraint) and the candidate built from them, validated eagerly.
    A validation failure means the corpus row itself is wrong, which is a
    hard error."""
    env = admit_params(spec, params)
    entry = catalog_lookup(spec.manifold, {n: env[n] for n, _ in catalog_params(spec.manifold)})
    dstar = QMatrix([[eval_rational(e, env) for e in row] for row in spec.dstar])
    translation = tuple(eval_rational(e, env) for e in spec.translation)
    candidate = MapCandidate(entry, translation, dstar)
    if validate_selfmap(candidate) is None:
        raise CorpusError(
            f"{spec.label}: instantiation with {params} fails self-map validation "
            "(corpus encoding bug)"
        )
    return env, candidate


def expected_zeta_cell(spec: FamilySpec, env: dict, index: int, p: int, n: int):
    """Factor-expression list for the computed (index, p, n) data, from the
    first template whose guard holds: its product B of that index, as
    B(sigma z)^eps (`series.parity_signs`), the odd coefficients negated
    when sigma < 0; None when that template has no product of this index."""
    for template in spec.zeta:
        if template.guard is not None and not eval_bool(template.guard, env):
            continue
        product = template.products.get(str(index))
        if product is None:
            return None
        sigma, eps = parity_signs(p, n)
        return [
            {"coeffs": [f"-({c})" if sigma < 0 and j % 2 else c for j, c in enumerate(f["coeffs"])],
             "exp": eps * f["exp"]}
            for f in product
        ]
    return None


# ---------------------------------------------------------------------------
# Deterministic sampling
# ---------------------------------------------------------------------------


def sample_params(spec: FamilySpec, count: int, seed: int = 0):
    """Deterministic parameter tuples the family admits (`admit_params`): a
    seeded shuffle of the domains' small grids, plus larger values mixed in.
    Raises if the grids cannot produce `count` samples."""
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
            admit_params(spec, raw)
        except ConstraintError:
            return False
        out.append(raw)
        return True

    small = [domain_values(d) for d in domains]
    budget = 4000
    while len(out) < count and budget > 0:
        budget -= 1
        attempt([rng.choice(vals) for vals in small])
    if len(out) < count:
        raise CorpusError(f"{spec.label}: could not sample {count} parameter tuples")
    # a couple of larger values from the same seed, when available
    large = [domain_values(d, large=True) for d in domains]
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
