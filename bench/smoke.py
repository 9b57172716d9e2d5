#!/usr/bin/env python3
"""Smoke test of the benchmark itself (not part of the library's test suite).

    python3 bench/smoke.py

Runs every workload briefly in both modes and checks the output schema
against BENCHMARK.json; checks that each correctness gate trips on a
corrupted value; and checks that the seed alone decides the instance set.
Exits nonzero on the first failed check.
"""

from __future__ import annotations

import dataclasses
import json
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import workloads as W  # noqa: E402
from infranil import selfmaps, series  # noqa: E402
from infranil.polynomials import IntPoly  # noqa: E402

SEED = 7


def expect(condition, what, detail=""):
    if not condition:
        raise SystemExit(f"smoke: FAILED: {what} {detail}")
    print(f"smoke: ok: {what}")


def check_schema():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in spec["workloads"]:
        for trace, group in ((0, "end_to_end"), (1, "per_layer")):
            cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload["name"],
                   "--seed", str(SEED), "--seconds", "0.5", "--trace", str(trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170)
            label = f"{workload['name']} --trace {trace}"
            expect(proc.returncode == 0, f"{label} exits 0", proc.stderr[-2000:])
            lines = proc.stdout.strip().splitlines()
            record, result = json.loads(lines[-2])["record"], json.loads(lines[-1])
            expect(set(result) == {"correct", "attempted", "failed", "metrics"}, f"{label} result keys")
            expect(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
                   f"{label} is correct with no failures")
            units = {m["name"]: m["unit"] for m in spec[group]}
            expect({k: v["unit"] for k, v in result["metrics"].items()} == units,
                   f"{label} prints every {group} metric with its unit")
            expect(all(isinstance(v["value"], (int, float)) for v in result["metrics"].values()),
                   f"{label} metric values are numbers")
            expect(record["seed"] == SEED and record["nproc"] >= 1, f"{label} run record")


def gates(workload, instance, outcome):
    return set(workload.check(instance, outcome))


def check_corpus_gates():
    w = W.WORKLOADS["corpus"]
    instance = w.make(SEED)[0]
    code, text = w.run(instance)
    expect(gates(w, instance, (code, text)) == set(), "corpus: a true outcome passes")
    expect("exit_code" in gates(w, instance, (4, text)), "corpus: nonzero exit trips exit_code")
    data = json.loads(text)
    expect("sign_relations" in gates(w, instance, (0, json.dumps(dict(data, sign_relations_ok=False)))),
           "corpus: a violated sign relation trips sign_relations")
    # the corpus cell with one extra factor (1 - 2z) no longer matches
    original = W.corpus_expected
    W.corpus_expected = lambda *a: original(*a) * series.RatFuncProduct.from_irreducibles(
        [(IntPoly([1, -2]), 1)])
    try:
        expect("corpus_cell" in gates(w, instance, (code, text)),
               "corpus: a corrupted expected cell trips corpus_cell")
    finally:
        W.corpus_expected = original


def check_random_maps_gates():
    w = W.WORKLOADS["random-maps"]
    candidate = w.make(SEED)[0]
    phi, res, sign = w.run(candidate)
    expect(gates(w, candidate, (phi, res, sign)) == set(), "random-maps: a true outcome passes")
    expect("validate" in gates(w, candidate, (None, res, sign)), "random-maps: a rejection trips validate")
    other = series.RatFuncProduct.from_irreducibles([(IntPoly([1, -2]), 1)])
    expect("routes" in gates(w, candidate, (phi, dataclasses.replace(res, nielsen_structural=other), sign)),
           "random-maps: disagreeing routes trip routes")
    expect("sign_relations" in gates(w, candidate, (phi, res, dataclasses.replace(sign, ok=False))),
           "random-maps: a violated sign relation trips sign_relations")
    low = (-abs(res.lefschetz_numbers[0]) - 1,) + res.nielsen_numbers[1:]
    expect("nielsen_ge_abs_lefschetz" in gates(w, candidate, (phi, dataclasses.replace(res, nielsen_numbers=low), sign)),
           "random-maps: N below |L| trips nielsen_ge_abs_lefschetz")
    late = res.nielsen_numbers[:-1] + (res.nielsen_numbers[-1] + 1,)
    expect("logderiv_series" in gates(w, candidate, (phi, dataclasses.replace(res, nielsen_numbers=late), sign)),
           "random-maps: a wrong term past the fitting window trips logderiv_series")
    expect("closed_form" in gates(w, candidate, (phi, dataclasses.replace(res, lefschetz=other), sign)),
           "random-maps: a Lefschetz zeta off the closed form trips closed_form")


def check_screen_gates():
    w = W.WORKLOADS["screen"]
    instances = w.make(SEED)
    accepted = next(c for c in instances if w.run(c) is not None)
    expect(gates(w, accepted, w.run(accepted)) == set(), "screen: a true acceptance passes")
    # claim acceptance for a candidate whose square is rejected
    bad = next(c for c in instances
               if w.run(c) is None and selfmaps.validate_selfmap(c.iterate(2)) is None)
    fake = selfmaps.PhiAssignment(())
    expect("iterate_accepted" in gates(w, bad, fake), "screen: an acceptance whose iterate is rejected trips")


def fingerprint(instances):
    def key(x):
        if isinstance(x, tuple):
            spec, params = x
            return (spec.label, tuple(sorted(params.items())))
        return (x.entry.id, x.translation, x.dstar.rows)
    return [key(x) for x in instances]


def check_seeds():
    for name, w in W.WORKLOADS.items():
        a, again, b = (fingerprint(w.make(s)) for s in (SEED, SEED, SEED + 1))
        expect(a == again, f"{name}: the same seed gives the same instances")
        expect(a != b, f"{name}: another seed gives another instance set")


if __name__ == "__main__":
    check_seeds()
    check_corpus_gates()
    check_random_maps_gates()
    check_screen_gates()
    check_schema()
    print("smoke: all checks passed")
