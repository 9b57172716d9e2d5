import infranil


def test_all_names_resolve_once():
    names = infranil.__all__
    assert len(names) == len(set(names)), sorted(n for n in names if names.count(n) > 1)
    missing = [n for n in names if not hasattr(infranil, n)]
    assert missing == []


def test_removed_zeta_entry_points_stay_gone():
    for name in ("lefschetz_zeta", "nielsen_zeta_direct", "nielsen_zeta_structural",
                 "exterior_closed_form"):
        assert name not in infranil.__all__
        assert not hasattr(infranil, name) and not hasattr(infranil.zeta, name)


def test_removed_fixedpoint_entry_points_stay_gone():
    """The direct route and lattice membership are test oracles
    (`tests/oracles.py`), not library code."""
    for module, name in [
        (infranil.fixedpoint, "anosov_fastpath"),
        (infranil.fixedpoint, "lefschetz_number"),
        (infranil.fixedpoint, "nielsen_number"),
        (infranil.fixedpoint, "lefschetz_from_row"),
        (infranil.fixedpoint, "nielsen_from_row"),
        (infranil.fixedpoint, "_direct_row"),
        (infranil.catalog, "lattice_member"),
    ]:
        assert name not in infranil.__all__
        assert not hasattr(infranil, name) and not hasattr(module, name)


def test_removed_holonomy_copies_stay_gone():
    """The holonomy group is held once, in the integer form its readers use,
    by its catalog entry: no QMatrix copy of its elements, no integer form
    recomputed from them, and no copy inside the positive part.  The corpus
    path is resolved by `load_corpus` alone.  A group element is its
    embedded QMatrix: the `AffineElement` wrapper and its decoding are gone
    (`tests/oracles.py` keeps the decoding).  No src/ module defines the
    removed names."""
    import ast
    from pathlib import Path

    from infranil.catalog import HolonomyGroup, catalog_lookup
    from infranil.fixedpoint import PositivePart

    group = catalog_lookup("klein-bottle").holonomy_group
    assert HolonomyGroup._fields == ("form", "table", "generator_indices", "representatives")
    assert PositivePart._fields == ("index", "det_signs", "plus_indices")
    for owner, name in [(group, "elements"), (group, "integer_elements"),
                        (PositivePart, "group"), (PositivePart, "plus_subgroup_closed"),
                        (infranil.selfmaps, "default_corpus_path"),
                        (infranil, "AffineElement"), (infranil.catalog, "AffineElement")]:
        assert not hasattr(owner, name), name
        assert name not in infranil.__all__
    removed = {"elements", "integer_elements", "plus_subgroup_closed", "default_corpus_path",
               "AffineElement", "lattice_element", "holonomy_part", "h_coords",
               "rotation_block", "submatrix"}
    defined = [
        (path.name, node.name)
        for path in sorted(Path(infranil.__file__).parent.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name in removed
    ]
    assert defined == []


def test_numberfield_loads_on_first_use():
    """`import infranil` leaves `numberfield` unloaded (no engine module
    needs it); the package's lazy re-export loads it on the first read."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    code = "\n".join([
        "import sys, infranil",
        "assert 'infranil.numberfield' not in sys.modules",
        "assert {'NFElem', 'NumberField', 'nf_sign'} <= set(infranil.__all__)",
        "cls = infranil.NFElem",
        "assert 'infranil.numberfield' in sys.modules",
        "from infranil.numberfield import NFElem, NumberField, nf_sign",
        "assert cls is NFElem and infranil.NumberField is NumberField",
        "assert infranil.nf_sign is nf_sign and infranil.numberfield.NFElem is NFElem",
        "assert not hasattr(infranil, 'no_such_name')",
    ])
    src = str(Path(infranil.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


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


def test_library_has_no_assert_statements():
    """Library checks raise InfranilError: an `assert` vanishes under
    `python -O`, and when it fails the CLI shows a traceback instead of
    exiting 4."""
    import ast
    from pathlib import Path

    offenders = [
        (path.name, node.lineno)
        for path in sorted(Path(infranil.__file__).parent.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Assert)
    ]
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


def test_each_test_runs_under_a_time_limit():
    # conftest's autouse fixture arms SIGALRM for every test on POSIX, so a
    # test that loops fails instead of hanging the suite
    import signal

    import pytest
    from conftest import TEST_TIME_LIMIT_S

    if not hasattr(signal, "SIGALRM"):
        pytest.skip("no SIGALRM on this platform")
    remaining, _ = signal.getitimer(signal.ITIMER_REAL)
    assert 0 < remaining <= TEST_TIME_LIMIT_S
