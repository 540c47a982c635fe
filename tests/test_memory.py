"""Scratch memory of the tiled passes (``linalg.tiles``): each keeps only
its outputs full size, so its peak stays within the output bytes plus a
few tiles. numpy reports its allocations to tracemalloc."""

import tracemalloc

import numpy as np
import pytest

from liestoch.calculus import increments_from_values
from liestoch.connections import alpha_levi_civita, metric_for
from liestoch.explog import ito_exponential, ito_logarithm
from liestoch.groups import get_group
from liestoch.paths import TimeGrid, brownian_ensemble

SE3 = get_group("se3")
ALPHA = alpha_levi_civita(metric_for(SE3, 1.0))
# Above the outputs. A tile of 4096 se3 matrices is 512 KB; full-size
# temporaries at the shape below were 9.6 MB (steps) and 26 MB (matrices).
SCRATCH_BYTES = 4 * 10**6


@pytest.fixture(scope="module")
def driver():
    return brownian_ensemble(SE3, TimeGrid(1.0, 100), 4, 2000)


@pytest.fixture(scope="module")
def developed(driver):
    return ito_exponential(driver, ALPHA)


def _peak_above_start(fn):
    """``fn()`` and the most memory it held at once beyond what was live."""
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        start = tracemalloc.get_traced_memory()[0]
        out = fn()
        return out, tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()


def _nbytes(out):
    if isinstance(out, np.ndarray):
        return out.nbytes
    return out.values.nbytes + (0 if out.step_logs is None else out.step_logs.nbytes)


@pytest.mark.parametrize("op", ["ito_exponential", "ito_logarithm", "increments_from_values"])
def test_peak_is_output_plus_a_few_tiles(driver, developed, op):
    call = {
        "ito_exponential": lambda: ito_exponential(driver, ALPHA),
        "ito_logarithm": lambda: ito_logarithm(developed, ALPHA),
        "increments_from_values": lambda: increments_from_values(SE3, developed.values),
    }[op]
    out, peak = _peak_above_start(call)
    assert peak <= _nbytes(out) + SCRATCH_BYTES, (peak, _nbytes(out))
