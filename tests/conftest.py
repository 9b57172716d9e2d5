"""Fixtures shared by the test modules."""

import importlib.util
import signal
import sys
import threading
from pathlib import Path

import pytest

# About 13 times the slowest test: a test that loops fails instead of
# hanging the suite.
TEST_TIME_LIMIT_S = 300


@pytest.fixture(autouse=True)
def time_limit():
    """Fail any test that runs longer than TEST_TIME_LIMIT_S.  SIGALRM raises
    pytest's failure in the test's frame, which no `except Exception`
    catches.  POSIX only, and only in the main thread, where a signal
    handler can be set; elsewhere tests run without a limit."""
    if not hasattr(signal, "SIGALRM") or threading.current_thread() is not threading.main_thread():
        yield
        return

    def expire(signum, frame):
        pytest.fail(f"test ran longer than {TEST_TIME_LIMIT_S} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(TEST_TIME_LIMIT_S)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


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


@pytest.fixture(scope="session")
def seed1_corpus():
    """(spec, params, env, candidate) of every corpus family's
    `sample_params(spec, 1, 1)` instance, from `family_instance`, in corpus
    order: the 264 seed-1 instances, built once per session."""
    from infranil.selfmaps import family_instance, load_corpus, sample_params

    return tuple((spec, params, *family_instance(spec, params))
                 for spec in load_corpus().families for params in sample_params(spec, 1, 1))
