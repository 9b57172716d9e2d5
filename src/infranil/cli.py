"""Command-line front end.

    zeta catalog [--filter S] [--json]
    zeta compute --manifold ID [--family N] [--param a=3 ...] [--kmax 40] [--json]
    zeta verify-tables [--corpus PATH] [--samples N] [--json]

Exit codes: 0 success, 2 invalid map or an argparse usage error (such as
`--kmax abc` or a missing `--manifold`), 3 constraint violation, 4 malformed
corpus or corpus verification failure.  The ZETA_CORPUS environment
variable overrides the default corpus path.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import cache

from .catalog import catalog_ids, catalog_lookup, catalog_params
from .errors import (
    CatalogError,
    ConstraintError,
    CorpusError,
    InfranilError,
    InvalidCandidateError,
    ReconstructionError,
    RouteMismatchError,
)
from .exprs import domain_values, eval_rational, parse_rational
from .polynomials import QPoly
from .selfmaps import (
    admit_params,
    expected_zeta_cell,
    family_instance,
    load_corpus,
    sample_params,
)
from .series import RatFuncProduct, rfp_equal
from .zeta import compute_zeta

EXIT_OK = 0
EXIT_INVALID_MAP = 2
EXIT_CONSTRAINT = 3
EXIT_CORPUS = 4


def _emit(data, as_json: bool, text_lines):
    if as_json:
        print(json.dumps(data, indent=1))
    else:
        for line in text_lines:
            print(line)


def cmd_catalog(args) -> int:
    corpus = load_corpus(args.corpus)
    rows = []
    for entry_id in catalog_ids():
        if args.filter and args.filter not in entry_id:
            continue
        entry = catalog_lookup(entry_id, {n: domain_values(d)[0] for n, d in catalog_params(entry_id)})
        rows.append(
            {
                "id": entry_id,
                "dim": entry.dim,
                "model": entry.model,
                "holonomy_order": entry.holonomy_order,
                "families": len(corpus.for_manifold(entry_id)),
                "notes": entry.notes,
            }
        )
    text = [f"{r['id']:18s} dim {r['dim']}  {r['model']:10s} holonomy {r['holonomy_order']}  "
            f"families {r['families']}  {r['notes']}" for r in rows]
    _emit({"entries": rows}, args.json, text)
    return EXIT_OK


def _with_defaults(spec, params) -> dict:
    """The supplied parameters, each missing one defaulted: a catalog
    parameter (k) to its domain's least member, any other to 0."""
    least = {n: domain_values(d)[0] for n, d in catalog_params(spec.manifold)}
    return {**params, **{n: least.get(n, "0") for n, _ in spec.params if n not in params}}


def _pick_family(corpus, manifold: str, family_index, params):
    """The requested family, or the first that admits the supplied
    parameters (`admit_params`: domains first, then constraints), each of
    its parameters that is missing defaulted (`_with_defaults`).  When none
    admits them, the error names why the first family does not."""
    families = corpus.for_manifold(manifold)
    if not families:
        raise CatalogError(f"no families for manifold {manifold!r}")
    if family_index is not None:
        for f in families:
            if f.index == family_index:
                return f
        raise ConstraintError(f"{manifold} has no family {family_index}")
    first = None
    for f in families:
        try:
            admit_params(f, _with_defaults(f, params))
        except ConstraintError as exc:
            first = first or exc
            continue
        return f
    raise ConstraintError(f"no family of {manifold} accepts parameters {sorted(params)}; {first}")


def cmd_compute(args) -> int:
    params = {}
    for item in args.param or []:
        if "=" not in item:
            raise ConstraintError(f"--param expects name=value, got {item!r}")
        name, value = item.split("=", 1)
        name = name.strip()
        if name in params:
            raise ConstraintError(f"--param {name} given more than once")
        params[name] = parse_rational(value)
    corpus = load_corpus(args.corpus)
    spec = _pick_family(corpus, args.manifold, args.family, params)
    full = _with_defaults(spec, params)
    try:
        env, candidate = family_instance(spec, full)
    except CorpusError as exc:
        raise InvalidCandidateError(str(exc)) from exc
    res = compute_zeta(candidate, kmax=args.kmax)
    sign = res.sign_relations
    data = {
        "manifold": args.manifold,
        "family": spec.index,
        "params": {n: str(v) for n, v in env.items()},
        "kmax": args.kmax,
        "p": res.p,
        "n": res.n,
        "index": res.index,
        "case": res.case_label,
        "anosov_relation": res.index == 1,
        "lefschetz_numbers": list(res.lefschetz_numbers),
        "nielsen_numbers": list(res.nielsen_numbers),
        "lefschetz_zeta": res.lefschetz.to_json(),
        "lefschetz_zeta_plus": res.lefschetz_plus.to_json() if res.lefschetz_plus else None,
        "nielsen_zeta": res.nielsen.to_json(),
        "nielsen_zeta_str": str(res.nielsen),
        "sign_relations_ok": sign.ok,
    }
    if args.json:
        print(json.dumps(data, indent=1))
        return EXIT_OK
    print(f"manifold:        {args.manifold} (family {spec.index}: {spec.desc})")
    print(f"case:            {res.case_label}   (p = {res.p}, n = {res.n}, index = {res.index})")
    print(f"L(f^k) k=1..{min(args.kmax, 10)}:  {list(res.lefschetz_numbers[:10])}")
    print(f"N(f^k) k=1..{min(args.kmax, 10)}:  {list(res.nielsen_numbers[:10])}")
    print(f"Lefschetz zeta:  {res.lefschetz}")
    if res.lefschetz_plus is not None:
        print(f"positive-part:   {res.lefschetz_plus}")
    print(f"Nielsen zeta:    {data['nielsen_zeta_str']}")
    print(f"sign relations:  {'ok' if sign.ok else 'VIOLATED'}")
    return EXIT_OK


def _verify_instance(spec, params):
    env, candidate = family_instance(spec, params)
    res = compute_zeta(candidate)
    cell = expected_zeta_cell(spec, env, res.index, res.p, res.n)
    if cell is None:
        return False, f"no expected cell for (index={res.index}, p={res.p}, n={res.n})"
    expected = RatFuncProduct.from_factors(
        (QPoly([eval_rational(c, env) for c in f["coeffs"]]), f["exp"]) for f in cell
    )
    if not rfp_equal(res.nielsen, expected):
        return False, f"engine {res.nielsen} != table {expected}"
    report = res.sign_relations
    if not report.ok:
        return False, f"sign relation violated at {report.first_violation}"
    return True, ""


def cmd_verify_tables(args) -> int:
    if args.samples < 0:
        raise ConstraintError(f"--samples must be >= 0, got {args.samples}")
    corpus = load_corpus(args.corpus)
    if args.samples == 0:
        print("warning: --samples 0 verifies nothing (vacuous pass)", file=sys.stderr)
        _emit({"families": 0, "instances": 0, "failures": 0, "failing": []}, args.json, [])
        return EXIT_OK
    failures = []
    instances = 0
    rows = []
    for spec in corpus.families:
        try:
            samples = sample_params(spec, args.samples)
        except CorpusError as exc:
            failures.append({"family": spec.label, "params": None, "reason": str(exc)})
            rows.append(f"{spec.label:24s} FAIL (sampling: {exc})")
            continue
        ok_count = 0
        first_bad = None
        for params in samples:
            instances += 1
            try:
                ok, reason = _verify_instance(spec, params)
            except InfranilError as exc:
                ok, reason = False, f"{type(exc).__name__}: {exc}"
            if ok:
                ok_count += 1
            elif first_bad is None:
                first_bad = {"family": spec.label, "params": params, "reason": reason}
        if first_bad is not None:
            failures.append(first_bad)
            rows.append(f"{spec.label:24s} FAIL ({first_bad['reason']}; params {first_bad['params']})")
        else:
            rows.append(f"{spec.label:24s} ok   ({ok_count} instances)")
    summary = {
        "families": len(corpus.families),
        "instances": instances,
        "failures": len(failures),
        "failing": failures,
    }
    text = rows + [
        "",
        f"{len(corpus.families)} family rows, {instances} instances, {len(failures)} failures",
    ]
    _emit(summary, args.json, text)
    return EXIT_OK if not failures else EXIT_CORPUS


@cache
def build_parser() -> argparse.ArgumentParser:
    """Built once per process; `parse_args` returns a fresh namespace."""
    parser = argparse.ArgumentParser(
        prog="zeta",
        description="Exact Nielsen/Lefschetz numbers and zeta functions for "
                    "affine self-maps on flat manifolds and Heisenberg "
                    "infra-nilmanifolds of dimension <= 3.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("catalog", help="list the manifold catalog")
    p.add_argument("--filter", help="substring filter on ids")
    p.add_argument("--json", action="store_true")
    p.add_argument("--corpus", help="corpus path override")
    p.set_defaults(func=cmd_catalog)

    p = sub.add_parser("compute", help="numbers and zeta functions for one map")
    p.add_argument("--manifold", required=True)
    p.add_argument("--family", type=int, help="family index (default: first match)")
    p.add_argument("--param", action="append", metavar="NAME=VALUE",
                   help="exact rational parameter, e.g. a=3 or s=1/2")
    p.add_argument("--kmax", type=int, default=40)
    p.add_argument("--json", action="store_true")
    p.add_argument("--corpus", help="corpus path override")
    p.set_defaults(func=cmd_compute)

    p = sub.add_parser("verify-tables", help="regression-run the whole table corpus")
    p.add_argument("--corpus", help="corpus path override")
    p.add_argument("--samples", type=int, default=3, help="samples per family")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_verify_tables)

    return parser


def main(argv=None) -> int:
    # exact numbers print and parse at any size; the caller's limit comes back on return
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else None
    if limit is not None:
        sys.set_int_max_str_digits(0)
    try:
        return _run(argv)
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)


def _run(argv) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "kmax", 1) < 1 or getattr(args, "kmax", 1) > 200:
        print("error: --kmax must lie in [1, 200]", file=sys.stderr)
        return EXIT_CONSTRAINT
    try:
        return args.func(args)
    except (ConstraintError, CatalogError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONSTRAINT
    except (InvalidCandidateError,) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID_MAP
    except (CorpusError, ReconstructionError, RouteMismatchError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CORPUS
    except InfranilError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_CORPUS


if __name__ == "__main__":
    sys.exit(main())
