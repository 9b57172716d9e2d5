import ast
from pathlib import Path

import infranil


def src_trees():
    """(file name, AST) of every module of the package."""
    return [(path.name, ast.parse(path.read_text()))
            for path in sorted(Path(infranil.__file__).parent.glob("*.py"))]


def src_definitions(names) -> list:
    """(file name, name) of every class, function or assigned name in the
    package's modules that is one of `names`."""
    found = []
    for file, tree in src_trees():
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined = [node.name]
            elif isinstance(node, ast.Assign):
                defined = [t.id for t in node.targets if isinstance(t, ast.Name)]
            else:
                continue
            found += [(file, name) for name in defined if name in names]
    return found


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
    assert src_definitions(removed) == []


def test_import_leaves_numberfield_unloaded_and_exports_no_oracle():
    """`import infranil` loads no `numberfield` (no engine module needs it),
    and the package exports none of the test oracles' number field or Sturm
    root counting: those live in tests/number_field.py and
    tests/real_roots.py.  `infranil.numberfield` imports on its own and
    keeps only the field-generic linear algebra."""
    import os
    import subprocess
    import sys

    code = "\n".join([
        "import sys, infranil",
        "assert 'infranil.numberfield' not in sys.modules",
        "for name in ('NFElem', 'NumberField', 'nf_sign', 'sturm_count', 'refine_root',",
        "             'Rational'):",
        "    assert not hasattr(infranil, name) and name not in infranil.__all__, name",
        "assert 'infranil.numberfield' not in sys.modules",
        "import infranil.numberfield as nf",
        "assert {n for n in vars(nf) if not n.startswith('__')} == {",
        "    'kernel_rows', 'solve_rows', 'field_solve_columns', 'field_kernel', 'field_det'}",
    ])
    src = str(Path(infranil.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_test_oracles_stay_out_of_the_library():
    """No src/ module defines the number field or the Sturm root counting
    the oracles use (they live in tests/number_field.py and
    tests/real_roots.py, with the integer remainder sequences behind the
    chains), nor the package's lazy re-export of them: the package has no
    module-level `__getattr__`.  The spectrum is classified in closed form,
    so no Yun squarefree split and no Sturm-chain unit split are left in
    the library either."""
    moved = {"NumberField", "NFElem", "nf_sign", "_interval_eval", "sturm_count",
             "refine_root", "_squarefree", "_point", "_sturm_chain", "_count_open",
             "Rational", "_NUMBERFIELD_NAMES",
             "_yun_squarefree", "_factor_squarefree", "unit_split", "_gcd",
             "_remainder_sequence", "_neg_rem", "_variations"}
    assert src_definitions(moved) == []
    init = dict(src_trees())["__init__.py"]
    assert not any(isinstance(node, ast.FunctionDef) and node.name == "__getattr__"
                   for node in init.body)


def test_boundary_types_define_no_test_only_arithmetic():
    """QPoly and QMatrix carry rational polynomials and matrices across the
    library's boundary and keep only what the engine, the CLI and the
    benchmark read.  The sums, quotients, evaluation and normalization that
    only the test references used are gone; the references run on sympy."""
    from infranil.matrices import QMatrix
    from infranil.polynomials import QPoly

    removed = {
        QPoly: ("leading", "__add__", "__radd__", "__neg__", "__sub__", "__rsub__",
                "__divmod__", "__floordiv__", "__mod__", "__call__", "derivative", "monic"),
        QMatrix: ("__add__", "__sub__", "__neg__", "__rmul__"),
    }
    present = [(cls.__name__, name) for cls, names in removed.items() for name in names
               if any(name in vars(base) for base in cls.__mro__[:-1])]  # all but object
    assert present == []


def test_engine_stages_take_what_they_read():
    """The stages of the zeta chain take the inputs they read, with no
    option to build them again or to skip a check: no parameter of
    `positive_part`, `det_table`, `factor_with_hints`,
    `exponents_from_logderiv`, `family_instance` or `family_instantiate`
    has a default, and no `zeta_from_sequence` wraps the direct route.
    `fixedpoint` does not look a holonomy group up, and the spectrum stores
    each factor once, in its root data."""
    import inspect

    from infranil import fixedpoint, selfmaps, series

    stages = [fixedpoint.positive_part, fixedpoint.det_table, series.factor_with_hints,
              series.exponents_from_logderiv, selfmaps.family_instance,
              selfmaps.family_instantiate]
    optional = [(stage.__name__, name) for stage in stages
                for name, param in inspect.signature(stage).parameters.items()
                if param.default is not param.empty]
    assert optional == []
    assert list(inspect.signature(fixedpoint.positive_part).parameters) == ["ext", "group", "traces"]
    assert not hasattr(fixedpoint, "holonomy")
    assert fixedpoint.EigenClass._fields == ("charpoly", "root_data", "p", "n", "dim_gt1")
    assert src_definitions({"zeta_from_sequence"}) == []


def test_engine_does_not_import_numberfield():
    """No module of the package, `__init__` included, imports `numberfield`,
    so the zeta computation never runs over Q(theta); it is imported only
    on its own, as `infranil.numberfield`."""
    import ast
    from pathlib import Path

    offenders = []
    for path in sorted(Path(infranil.__file__).parent.glob("*.py")):
        if path.name == "numberfield.py":
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
