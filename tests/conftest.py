"""Shared test helpers."""

import tracemalloc

import pytest


def _traced_peak(fn, *args):
    """fn(*args) and the peak of the heap it traced beyond its start."""
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        out = fn(*args)
        return out, tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()


@pytest.fixture
def traced_peak():
    """The function (fn, *args) -> (fn(*args), the peak of the heap it
    traced beyond its start)."""
    return _traced_peak
