"""One SHA-256 per user-visible output of the engine, so that two checkouts
can be compared for identical outputs with one command each.

    python3 tools/outputs_digest.py

Run from the repository root (or anywhere: `src/` and `bench/` are found
next to this file).  It prints eight lines, `<sha256>  <what>`:

  compute   `zeta compute --json` stdout and exit code on every `corpus`
            benchmark instance of seeds 1 and 2 (528 runs);
  verify    `zeta verify-tables --samples 1 --json` stdout and exit code;
  random    the `repr` of `compute_zeta` and `check_sign_relations`
            (kmax 40) on every `random-maps` benchmark instance of seeds 1
            and 2 (600 candidates);
  samples   the `repr` of `sample_params(spec, n, seed)` for every family,
            n in {1, 3} and seeds 0-2: the parameter tuples that the
            `corpus` benchmark, `verify-tables` and most tests draw;
  screen    the `repr` of `validate_selfmap` on every `screen` benchmark
            instance of seeds 1 and 2;
  records   the `repr` of `eigen_classify(D)`, of
            `positive_part(ext, group, exterior_traces(ext, group, 1))`
            (ext = `exterior_data(D)`, group the candidate's
            `entry.holonomy_group`) and of that group, whose indices the
            positive part reads, on every `corpus` and `random-maps`
            benchmark candidate of seeds 1 and 2: the package's records as
            they print, nested ones (FactorRoots, and the QMatrix coset
            representatives) included;
  validate  the `repr` of `validate_selfmap` on every `corpus` and
            `random-maps` benchmark candidate of seeds 1 and 2, all of them
            accepts: their lattice coordinates, which `screen`, mostly
            rejects, seldom reaches.  `family_instantiate` validates each
            corpus candidate once already, so those are validated twice;
  iterates  the `repr` of `validate_selfmap(c.iterate(k))`, k in {2, 3},
            for every accepted `screen` benchmark candidate c of seeds 1
            and 2: accepts whose Heisenberg translations carry the largest
            denominators the benchmark inputs reach.

The instance lists come from `bench/workloads.py`, imported unchanged.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

from infranil import cli, fixedpoint, selfmaps, zeta  # noqa: E402
import workloads  # noqa: E402

SEEDS = (1, 2)


def run_cli(argv) -> bytes:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return f"{code}\n{out.getvalue()}".encode()


def compute_digest() -> str:
    h = hashlib.sha256()
    for seed in SEEDS:
        for spec, params in workloads.corpus_instances(seed):
            h.update(run_cli(workloads.corpus_argv(spec, params)))
    return h.hexdigest()


def verify_digest() -> str:
    return hashlib.sha256(run_cli(["verify-tables", "--samples", "1", "--json"])).hexdigest()


def random_digest() -> str:
    h = hashlib.sha256()
    for seed in SEEDS:
        for cand in workloads.random_maps_instances(seed):
            res = zeta.compute_zeta(cand, kmax=workloads.KMAX)
            sign = fixedpoint.check_sign_relations(cand, kmax=workloads.KMAX)
            h.update(f"{res!r}\n{sign!r}\n".encode())
    return h.hexdigest()


def samples_digest() -> str:
    h = hashlib.sha256()
    for spec in selfmaps.load_corpus().families:
        for n in (1, 3):
            for seed in range(3):
                h.update(f"{selfmaps.sample_params(spec, n, seed)!r}\n".encode())
    return h.hexdigest()


def screen_digest() -> str:
    h = hashlib.sha256()
    for seed in SEEDS:
        for cand in workloads.screen_instances(seed):
            h.update(f"{selfmaps.validate_selfmap(cand)!r}\n".encode())
    return h.hexdigest()


def records_digest() -> str:
    h = hashlib.sha256()
    for seed in SEEDS:
        candidates = [selfmaps.family_instantiate(spec, params)
                      for spec, params in workloads.corpus_instances(seed)]
        for cand in candidates + workloads.random_maps_instances(seed):
            spectrum = fixedpoint.eigen_classify(cand.dstar)
            ext, group = fixedpoint.exterior_data(cand.dstar), cand.entry.holonomy_group
            part = fixedpoint.positive_part(ext, group, fixedpoint.exterior_traces(ext, group, 1))
            h.update(f"{spectrum!r}\n{part!r}\n{cand.entry.holonomy_group!r}\n".encode())
    return h.hexdigest()


def validate_digest() -> str:
    h = hashlib.sha256()
    for seed in SEEDS:
        candidates = [selfmaps.family_instantiate(spec, params)
                      for spec, params in workloads.corpus_instances(seed)]
        for cand in candidates + workloads.random_maps_instances(seed):
            h.update(f"{selfmaps.validate_selfmap(cand)!r}\n".encode())
    return h.hexdigest()


def iterates_digest() -> str:
    h = hashlib.sha256()
    for seed in SEEDS:
        for cand in workloads.screen_instances(seed):
            if selfmaps.validate_selfmap(cand) is not None:
                for k in (2, 3):
                    h.update(f"{selfmaps.validate_selfmap(cand.iterate(k))!r}\n".encode())
    return h.hexdigest()


def main() -> int:
    for name, digest in (("compute", compute_digest), ("verify", verify_digest),
                         ("random", random_digest), ("samples", samples_digest),
                         ("screen", screen_digest), ("records", records_digest),
                         ("validate", validate_digest), ("iterates", iterates_digest)):
        print(f"{digest()}  {name}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
