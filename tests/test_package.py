import infranil


def test_all_names_resolve_once():
    names = infranil.__all__
    assert len(names) == len(set(names)), sorted(n for n in names if names.count(n) > 1)
    missing = [n for n in names if not hasattr(infranil, n)]
    assert missing == []


def test_removed_zeta_entry_points_stay_gone():
    for name in ("lefschetz_zeta", "nielsen_zeta_direct", "nielsen_zeta_structural"):
        assert name not in infranil.__all__
        assert not hasattr(infranil, name) and not hasattr(infranil.zeta, name)


def test_removed_fixedpoint_entry_points_stay_gone():
    for name in ("anosov_fastpath",):
        assert name not in infranil.__all__
        assert not hasattr(infranil, name) and not hasattr(infranil.fixedpoint, name)


def test_engine_does_not_import_numberfield():
    """Only the package namespace re-exports `numberfield`; no engine module
    imports it, so the zeta computation never runs over Q(theta)."""
    import ast
    from pathlib import Path

    offenders = []
    for path in sorted(Path(infranil.__file__).parent.glob("*.py")):
        if path.name in ("__init__.py", "numberfield.py"):
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom):
                names = [node.module or ""] + [f"{node.module or ''}.{a.name}" for a in node.names]
            elif isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            else:
                continue
            if any(n.strip(".").split(".")[-1] == "numberfield" for n in names):
                offenders.append(path.name)
    assert offenders == []


def test_bench_trace_targets_resolve(monkeypatch):
    """Every (module, function) the benchmark's tracer wraps exists on the
    package, and so does the counter it reads: moving library code must not
    silently break `bench/run.py --trace 1`."""
    import importlib
    import importlib.util
    import sys
    from pathlib import Path

    path = Path(__file__).resolve().parents[1] / "bench" / "spans.py"
    spec = importlib.util.spec_from_file_location("bench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, spans)
    spec.loader.exec_module(spans)
    missing = [
        (mod, fn) for mod, fn in spans.TARGETS
        if not callable(getattr(importlib.import_module(f"infranil.{mod}"), fn, None))
    ]
    assert missing == []
    assert set(spans.FIELD_OPS) <= {f"{mod}.{fn}" for mod, fn in spans.TARGETS}
    assert isinstance(infranil.fixedpoint.MIXED_CUBIC_COUNTER, int)
