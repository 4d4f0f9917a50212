"""Helpers shared by the test modules."""

import importlib.util
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

PERFBENCH_WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


@pytest.fixture
def allocation_peak():
    """A function that runs ``call()`` under tracemalloc and returns the peak,
    in bytes, of what it allocated beyond what it found allocated."""

    def peak(call):
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            call()
            return tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()

    return peak


@pytest.fixture
def all_arms():
    """A function giving the ``arms`` of ``rows`` full reward vectors of a
    measure: every row observes arms 0..n-1, as one zero-stride view."""

    def arms(measure, rows):
        return np.broadcast_to(np.arange(measure.n), (rows, measure.n))

    return arms


@pytest.fixture
def workloads(monkeypatch):
    """The benchmark's named workloads, from ``perfbench/workloads.py``."""
    spec = importlib.util.spec_from_file_location("perfbench_workloads", PERFBENCH_WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # its dataclass looks itself up
    spec.loader.exec_module(module)
    return module.WORKLOADS
