import tracemalloc

import numpy as np
import pytest


@pytest.fixture
def rng():
    return np.random.default_rng(20260823)


@pytest.fixture
def peak_mb():
    """peak_mb(fn, *args): fn's result and its peak traced allocation
    above what was live, in MiB.  tracemalloc runs for the test, unless
    something else runs it."""
    def measure(fn, *args):
        tracemalloc.reset_peak()
        live = tracemalloc.get_traced_memory()[0]
        out = fn(*args)
        return out, (tracemalloc.get_traced_memory()[1] - live) / 2 ** 20

    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    yield measure
    if started:
        tracemalloc.stop()
