"""Fixtures shared by the test modules."""

import importlib.util
import sys
from pathlib import Path

import pytest


@pytest.fixture(scope="session")
def bench_workloads():
    """bench/workloads.py, the benchmark's seeded instance generators, loaded
    once per session.  It stays registered in sys.modules while the session
    runs: its dataclass resolves annotations through its module."""
    path = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    with pytest.MonkeyPatch.context() as mp:
        mp.setitem(sys.modules, spec.name, workloads)
        spec.loader.exec_module(workloads)
        yield workloads
