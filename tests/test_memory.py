"""Scratch memory of the tiled and slabbed passes (``linalg.tiles``,
``linalg.slabs``): each keeps only its outputs full size, so its peak
stays within the output bytes plus a few tiles. The path dump formats its
text in chunks of whole rows, and ``martingale-test`` streams replica
chunks into its bucket marks. numpy reports its allocations to
tracemalloc."""

import contextlib
import io
import tracemalloc

import numpy as np
import pytest

from liestoch import campbell, cli, martingale
from liestoch.calculus import increments_from_values
from liestoch.connections import alpha_biinvariant, alpha_levi_civita, metric_for
from liestoch.explog import ito_exponential, ito_logarithm
from liestoch.groups import GROUP_NAMES, get_group
from liestoch.paths import TimeGrid, brownian_ensemble, dump_group_csv

SE3 = get_group("se3")
ALPHA = alpha_levi_civita(metric_for(SE3, 1.0))
OPS = ["ito_exponential", "ito_logarithm", "increments_from_values"]
# Above the outputs. A tile of 4096 se3 matrices is 512 KB; full-size
# temporaries at the shape below were 9.6 MB (steps) and 26 MB (matrices).
# The path dump's chunks of 8192 fields peak at 1.8 MB there (0.9 MB at
# 4096 fields).
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


def _assert_peak_is_output_plus_a_few_tiles(op, driver, alpha, developed):
    spec = driver.group
    call = {
        "ito_exponential": lambda: ito_exponential(driver, alpha),
        "ito_logarithm": lambda: ito_logarithm(developed, alpha),
        "increments_from_values": lambda: increments_from_values(spec, developed.values),
    }[op]
    out, peak = _peak_above_start(call)
    assert peak <= _nbytes(out) + SCRATCH_BYTES, (peak, _nbytes(out))


@pytest.mark.parametrize("op", OPS)
def test_peak_is_output_plus_a_few_tiles(driver, developed, op):
    _assert_peak_is_output_plus_a_few_tiles(op, driver, ALPHA, developed)


# Few replicas, long paths: a develop tile spans 128 (so3) and 512 (se3)
# steps, and a slab 4 replicas.
@pytest.mark.parametrize("op", OPS)
@pytest.mark.parametrize("name, replicas", [("so3", 32), ("se3", 8)])
def test_peak_at_few_replicas_over_long_paths(name, replicas, op):
    spec = get_group(name)
    alpha = alpha_levi_civita(metric_for(spec, 1.0))
    driver = brownian_ensemble(spec, TimeGrid(1.0, 1000), 4, replicas)
    developed = ito_exponential(driver, alpha)
    _assert_peak_is_output_plus_a_few_tiles(op, driver, alpha, developed)


# The export shape on every catalog row: each row's exp kernel keeps to
# a few tiles of scratch.
@pytest.mark.parametrize("name", GROUP_NAMES)
def test_exp_peak_on_every_group_at_eight_replicas_by_1000_steps(name):
    spec = get_group(name)
    alpha = alpha_levi_civita(metric_for(spec, 1.0))
    driver = brownian_ensemble(spec, TimeGrid(1.0, 1000), 4, 8)
    _assert_peak_is_output_plus_a_few_tiles("ito_exponential", driver, alpha, None)


class _Discard:
    """A text file that keeps nothing."""

    def write(self, text):
        return len(text)


def test_dump_scratch_is_a_few_chunks(developed):
    # formatted all at once, this ensemble's text would take about 300 MB
    _, peak = _peak_above_start(lambda: dump_group_csv(developed, _Discard()))
    assert peak <= SCRATCH_BYTES, peak


def test_martingale_test_peak_is_its_marks_plus_a_few_chunks(tmp_path):
    # unstreamed, the developed values alone would be 52 MB at this shape;
    # at one bucket the marks are small and a chunk's pass sets the peak
    replicas, steps = 4000, 100
    rows = max(martingale._MIN_CHUNK_ROWS, martingale._CHUNK_STEPS // steps)
    chunk = rows * (steps + 1) * SE3.algebra_dim * 8  # a chunk's driver
    for buckets in (20, 1):
        argv = ["martingale-test", "--group", "se3", "--connection", "levicivita",
                "--dt", "0.01", "--steps", str(steps), "--replicas", str(replicas),
                "--buckets", str(buckets), "--seed", "4", "--out", str(tmp_path / "m.json")]
        with contextlib.redirect_stdout(io.StringIO()):
            code, peak = _peak_above_start(lambda: cli.main(argv))
        assert code == 0
        marks = replicas * (buckets + 1) * SE3.algebra_dim * 8
        # the drift test's increments and squared deviations are each about
        # the size of the marks; a chunk's pass holds its driver, steps and
        # logarithm, each about a driver's size, and a develop tile's
        # scratch, but no group values
        assert peak <= 3 * marks + 3 * chunk + SCRATCH_BYTES, (buckets, peak, marks, chunk)



# The tracemalloc peak of one rung of each Campbell ladder at the campbell-so3
# benchmark shape, so3 32 replicas x 1000 steps, when each ensemble of a pair
# was developed on its own: measured before the pairs were stacked, after a
# warm-up run. The rung's peak falls where its residual is formed.
CAMPBELL_RUNG_PEAKS = {"ch_ladder": 15_895_969, "log_product_ladder": 12_824_979}


@pytest.mark.parametrize("ladder", sorted(CAMPBELL_RUNG_PEAKS))
def test_campbell_rung_peak_is_that_of_the_separate_develops(ladder):
    spec = get_group("so3")
    replicas, steps = 32, 1000

    def rung():
        getattr(campbell, ladder)(spec, alpha_biinvariant(spec), dts=(1.0 / steps,),
                                  replicas=replicas, base_seed=4)

    rung()  # the first run fills caches of about a driver's size
    _, peak = _peak_above_start(rung)
    # A stacked pair of drivers shares one buffer, dropped once developed.
    # Kept alive through the rung, it would add 1.5 MB, beyond this slack.
    # A stack built by np.concatenate frees its temporaries before the
    # develop's outputs exist, which leaves the peak where it is.
    driver = replicas * (steps + 1) * spec.algebra_dim * 8
    assert peak <= CAMPBELL_RUNG_PEAKS[ladder] + driver // 2, peak
