"""Spans around the library's module-level public functions, recorded from
the benchmark's own files.

Each target function is replaced by a timing wrapper at every module binding
through which it can be called (its defining module, every module that
imported it by name, and the package namespace), so a call made through
`series`' binding of `factor_over_q` is told apart from one made through
`zeta`'s.  Per-arithmetic methods (`QPoly`, `QMatrix`, `Fraction`) are never
wrapped: their call counts would swamp the measurement.

Spans stay in memory while the workload runs and are written out at the end.
A span's self time is its duration minus the durations of its child spans.
Counters are derived outside the library, from the wrapped calls' arguments
and return values; nothing writes to library state.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
from time import perf_counter

# (module, function) pairs wrapped in a traced run.
TARGETS = (
    ("catalog", "holonomy"),
    ("catalog", "catalog_lookup"),
    ("selfmaps", "validate_selfmap"),
    ("selfmaps", "family_instantiate"),
    ("fixedpoint", "det_table"),
    ("fixedpoint", "eigen_classify"),
    ("fixedpoint", "positive_part"),
    ("fixedpoint", "check_sign_relations"),
    ("numberfield", "field_det"),
    ("numberfield", "field_kernel"),
    ("numberfield", "field_solve_columns"),
    ("polynomials", "factor_over_q"),
    ("series", "berlekamp_massey_q"),
    ("series", "exponents_from_logderiv"),
    ("zeta", "compute_zeta"),
    ("zeta", "candidate_factor_hints"),
    ("matrices", "charpoly"),
    ("matrices", "exterior_power"),
    ("cli", "main"),
)

FIELD_OPS = ("numberfield.field_det", "numberfield.field_kernel", "numberfield.field_solve_columns")


def _det_count(args, kwargs, result):
    """det_table(candidate, group, kmax) computes kmax * |F| determinants."""
    group = args[1] if len(args) > 1 else kwargs["group"]
    kmax = args[2] if len(args) > 2 else kwargs["kmax"]
    return kmax * group.order


# Values read from a wrapped call's arguments or result, kept on its span.
NOTES = {
    "fixedpoint.det_table": _det_count,
    "series.berlekamp_massey_q": lambda args, kwargs, result: result[1].degree,
    "selfmaps.validate_selfmap": lambda args, kwargs, result: result is not None,
}


class Tracer:
    """Install with `install()`; spans are recorded only while `active` is
    true, so checks and input generation stay out of the trace."""

    def __init__(self):
        self.active = False
        self.instance = -1
        self.spans = []   # (id, parent, instance, name, binding, start, dur, self_s, note)
        self._stack = []  # [span id, child time] per open span
        self._next_id = 0
        self._restore = []
        self._mixed_cubic_start = 0

    def install(self):
        self._mixed_cubic_start = importlib.import_module("infranil.fixedpoint").MIXED_CUBIC_COUNTER
        modules = [m for n, m in list(sys.modules.items())
                   if n == "infranil" or n.startswith("infranil.")]
        for mod_name, fn_name in TARGETS:
            original = getattr(importlib.import_module(f"infranil.{mod_name}"), fn_name)
            name = f"{mod_name}.{fn_name}"
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        binding = module.__name__.rsplit(".", 1)[-1]
                        setattr(module, attr, self._wrap(name, binding, original))
                        self._restore.append((module, attr, original))

    def uninstall(self):
        for module, attr, original in reversed(self._restore):
            setattr(module, attr, original)
        self._restore.clear()

    def _wrap(self, name, binding, fn):
        note = NOTES.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            span_id = self._next_id
            self._next_id += 1
            parent = self._stack[-1][0] if self._stack else None
            frame = [span_id, 0.0]
            self._stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = perf_counter() - start
                self._stack.pop()
                if self._stack:
                    self._stack[-1][1] += dur
            value = note(args, kwargs, result) if note else None
            self.spans.append(
                (span_id, parent, self.instance, name, binding, start, dur, dur - frame[1], value)
            )
            return result

        return wrapper

    def write(self, path):
        keys = ("id", "parent", "instance", "name", "binding", "start", "dur", "self_s", "note")
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")

    def layer_metrics(self, instances: int) -> dict:
        """Per-layer figures over the traced instances; ratios carry their
        base count as a separate metric."""
        calls, self_s, total_s, notes, via = {}, {}, {}, {}, {}
        for _id, _parent, _inst, name, binding, _start, dur, own, value in self.spans:
            calls[name] = calls.get(name, 0) + 1
            self_s[name] = self_s.get(name, 0.0) + own
            total_s[name] = total_s.get(name, 0.0) + dur
            notes.setdefault(name, []).append(value)
            via[(name, binding)] = via.get((name, binding), 0) + 1

        def ratio(num, den):
            return num / den if den else 0.0

        dets = sum(notes.get("fixedpoint.det_table", []))
        orders = notes.get("series.berlekamp_massey_q", [])
        accepts = notes.get("selfmaps.validate_selfmap", [])
        fp = importlib.import_module("infranil.fixedpoint")
        return {
            "fixedpoint.det_table.calls": calls.get("fixedpoint.det_table", 0),
            "fixedpoint.det_table.self_s": self_s.get("fixedpoint.det_table", 0.0),
            "fixedpoint.det_table.dets": dets,
            "fixedpoint.det_table.dets_per_instance": ratio(dets, instances),
            "catalog.holonomy.calls": calls.get("catalog.holonomy", 0),
            "catalog.holonomy.self_s": self_s.get("catalog.holonomy", 0.0),
            "catalog.holonomy.calls_per_instance": ratio(calls.get("catalog.holonomy", 0), instances),
            "catalog.catalog_lookup.self_s": self_s.get("catalog.catalog_lookup", 0.0),
            "selfmaps.validate_selfmap.calls": calls.get("selfmaps.validate_selfmap", 0),
            "selfmaps.validate_selfmap.self_s": self_s.get("selfmaps.validate_selfmap", 0.0),
            "selfmaps.validate_selfmap.accept_frac": ratio(sum(accepts), len(accepts)),
            "selfmaps.family_instantiate.self_s": self_s.get("selfmaps.family_instantiate", 0.0),
            "polynomials.factor_over_q.calls": calls.get("polynomials.factor_over_q", 0),
            "polynomials.factor_over_q.self_s": self_s.get("polynomials.factor_over_q", 0.0),
            "series.berlekamp_massey_q.calls": calls.get("series.berlekamp_massey_q", 0),
            "series.berlekamp_massey_q.self_s": self_s.get("series.berlekamp_massey_q", 0.0),
            "series.recurrence_order.mean": ratio(sum(orders), len(orders)),
            "series.exponents_from_logderiv.self_s": self_s.get("series.exponents_from_logderiv", 0.0),
            "series.hint_fallbacks": via.get(("polynomials.factor_over_q", "series"), 0),
            "zeta.compute_zeta.self_s": self_s.get("zeta.compute_zeta", 0.0),
            "zeta.candidate_factor_hints.total_s": total_s.get("zeta.candidate_factor_hints", 0.0),
            "fixedpoint.eigen_classify.calls": calls.get("fixedpoint.eigen_classify", 0),
            "fixedpoint.eigen_classify.total_s": total_s.get("fixedpoint.eigen_classify", 0.0),
            "fixedpoint.positive_part.calls": calls.get("fixedpoint.positive_part", 0),
            "fixedpoint.positive_part.self_s": self_s.get("fixedpoint.positive_part", 0.0),
            "fixedpoint.check_sign_relations.self_s": self_s.get("fixedpoint.check_sign_relations", 0.0),
            "fixedpoint.mixed_cubic": fp.MIXED_CUBIC_COUNTER - self._mixed_cubic_start,
            "numberfield.field_ops.calls": sum(calls.get(n, 0) for n in FIELD_OPS),
            "numberfield.field_ops.self_s": sum(self_s.get(n, 0.0) for n in FIELD_OPS),
            "matrices.charpoly.self_s": self_s.get("matrices.charpoly", 0.0),
            "matrices.exterior_power.self_s": self_s.get("matrices.exterior_power", 0.0),
            "cli.main.self_s": self_s.get("cli.main", 0.0),
        }
