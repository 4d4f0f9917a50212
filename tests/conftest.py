"""Helpers shared by the test modules."""

import tracemalloc

import pytest


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
