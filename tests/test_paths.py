import ast
import csv
import io
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liestoch import paths
from liestoch.errors import DimensionError, GridMismatchError, MetricError, NonFiniteError
from liestoch.explog import strat_exponential
from liestoch.groups import GROUP_NAMES, get_group
from liestoch.paths import (
    Ensemble,
    TimeGrid,
    brownian_ensemble,
    derive_rng,
    dump_algebra_csv,
    dump_group_csv,
    normal_quantile,
    null_qv_check,
    quadratic_covariation,
    rung_steps,
    write_table,
)
from liestoch.paths import _csv_lines

SO3 = get_group("so3")


def test_time_grid():
    grid = TimeGrid(2.0, 4)
    assert grid.dt == 0.5
    assert np.allclose(grid.times(), [0, 0.5, 1.0, 1.5, 2.0])
    with pytest.raises(ValueError):
        TimeGrid(0.0, 10)
    with pytest.raises(ValueError):
        TimeGrid(1.0, 0)
    for horizon in (float("nan"), float("inf"), -float("inf")):
        with pytest.raises(ValueError, match="finite"):
            TimeGrid(horizon, 5)


def test_rung_steps():
    assert [rung_steps(1.0, dt) for dt in (4e-3, 2e-3, 1e-3, 0.02, 1.0)] == [
        250, 500, 1000, 50, 1]
    assert rung_steps(0.1, 0.01) == 10  # 0.1 / 0.01 is 10 to rounding
    for dt in (0.3, 0.03, 3.0, 0.0, -0.5, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="dividing the horizon 1.0"):
            rung_steps(1.0, dt)


def test_normal_quantile():
    assert abs(normal_quantile(0.975) - 1.959964) < 1e-5
    assert abs(normal_quantile(0.5)) < 1e-10
    assert abs(normal_quantile(0.995) - 2.575829) < 1e-5


def test_normal_quantile_repeats_are_the_same_float():
    p = 1.0 - 0.01 / 64
    first = normal_quantile(p)
    hits = normal_quantile.cache_info().hits
    assert normal_quantile(p) == first and type(normal_quantile(p)) is float
    assert normal_quantile.cache_info().hits == hits + 2
    normal_quantile.cache_clear()
    assert normal_quantile(p) == first  # recomputed, the same bits
    with pytest.raises(ValueError):
        normal_quantile(1.0)


def test_brownian_seed_determinism():
    grid = TimeGrid(1.0, 100)
    p1 = brownian_ensemble(SO3, grid, 5, 1)
    p2 = brownian_ensemble(SO3, grid, 5, 1)
    p3 = brownian_ensemble(SO3, grid, 6, 1)
    assert np.array_equal(p1.values, p2.values)
    assert not np.array_equal(p1.values, p3.values)
    assert np.array_equal(p1.values[0, 0], np.zeros(3))


def test_brownian_increment_variance():
    # sample variance of increments matches cov * dt within 3 standard errors
    grid = TimeGrid(1.0, 100_000)
    path = brownian_ensemble(SO3, grid, 11, 1)
    inc = np.diff(path.values[0], axis=0)
    var = inc.var(axis=0, ddof=1)
    se = np.sqrt(2.0 / (grid.steps - 1)) * grid.dt
    assert np.all(np.abs(var - grid.dt) < 3.0 * se)


def test_brownian_rejects_bad_covariance():
    grid = TimeGrid(1.0, 10)
    with pytest.raises(MetricError):
        brownian_ensemble(SO3, grid, 0, 1, covariance=np.zeros((3, 3)))
    with pytest.raises(MetricError):
        brownian_ensemble(SO3, grid, 0, 1, covariance=np.eye(4))


def test_brownian_increment_normality():
    # skew and excess kurtosis of 1e6 pooled increments stay small
    grid = TimeGrid(1.0, 500_000)
    values = np.diff(brownian_ensemble(SO3, grid, 21, 2).values, axis=1).reshape(-1, 3)
    z = values / np.sqrt(grid.dt)
    for c in range(3):
        x = z[:, c]
        skew = np.mean(x**3)
        kurt = np.mean(x**4) - 3.0
        assert abs(skew) < 0.05
        assert abs(kurt) < 0.1


def test_drift_driver_cases():
    # the drift adds drift * dt to each Brownian increment; a zero drift
    # keeps the bits
    grid = TimeGrid(2.0, 50)
    b = np.array([0.0, 0.0, 1.0])
    bm = brownian_ensemble(SO3, grid, 3, 2)
    drifted = brownian_ensemble(SO3, grid, 3, 2, drift=b)
    assert np.allclose(drifted.values - bm.values, np.outer(grid.times(), b), atol=1e-12)
    zero = brownian_ensemble(SO3, grid, 3, 2, drift=np.zeros(3))
    assert zero.values.tobytes() == bm.values.tobytes()
    with pytest.raises(DimensionError):
        brownian_ensemble(SO3, grid, 3, 2, drift=np.zeros(4))
    with pytest.raises(ValueError):
        brownian_ensemble(SO3, grid, 3, 2, drift=np.array([0.0, np.inf, 0.0]))
    # a draw that leaves double range is a numerical failure, without a
    # numpy warning (pyproject's filterwarnings)
    with pytest.raises(NonFiniteError, match="double range"):
        brownian_ensemble(SO3, grid, 3, 2, drift=np.array([1e308, 0.0, 0.0]))


def test_ensemble_replica_streams_and_chunking():
    # a replica's stream is its own: a smaller draw is a prefix of a larger
    # one, and each replica is the derive_rng recipe
    grid = TimeGrid(1.0, 64)
    full = brownian_ensemble(SO3, grid, base_seed=77, replicas=10)
    head = brownian_ensemble(SO3, grid, base_seed=77, replicas=4)
    assert np.array_equal(head.values, full.values[:4])
    single = _recipe(77, 3, grid.steps, np.eye(3) * np.sqrt(grid.dt))
    assert np.array_equal(full.values[3, 1:], single)
    assert full.coordinates.base is full.values  # views, not copies


def test_drift_ensemble_chunking():
    grid = TimeGrid(1.0, 32)
    b = np.array([1.0, 0.0, 0.0])
    full = brownian_ensemble(SO3, grid, 5, 6, drift=b)
    part = brownian_ensemble(SO3, grid, 5, 3, drift=b)
    assert np.array_equal(full.values[:3], part.values)


def test_derive_rng_is_order_free():
    a = derive_rng(123, 7).standard_normal(5)
    _ = derive_rng(123, 3).standard_normal(11)
    b = derive_rng(123, 7).standard_normal(5)
    assert np.array_equal(a, b)


SE3 = get_group("se3")
# A non-diagonal SPD matrix: every row of the factor mixes every component.
_MIXING = np.array([[1.0 if i == j else 0.3 / (1 + abs(i - j)) for j in range(6)]
                    for i in range(6)])


def _recipe(seed, replica, steps, factor, shift=None):
    """The documented driver, one replica at a time from ``derive_rng``."""
    dm = derive_rng(seed, replica).standard_normal((steps, factor.shape[0])) @ factor.T
    return np.cumsum(dm if shift is None else shift + dm, axis=0)


def _assert_recipe(ens, seed, factor, shift=None):
    assert ens.values[:, 0].tobytes() == bytes(ens.values[:, 0].nbytes)  # +0.0 rows
    for r in range(ens.replicas):
        expected = _recipe(seed, r, ens.grid.steps, factor, shift)
        assert ens.values[r, 1:].tobytes() == expected.tobytes(), (seed, r)


@pytest.mark.parametrize("seed", [0, 2**32 - 1, 2**32, 2**64 + 1, 2**130 + 3])
def test_bulk_driver_is_the_derive_rng_recipe_bit_for_bit(seed):
    # seeds of 2**32 and above take more entropy words; above 2**128 more
    # words than the hash pool holds
    grid = TimeGrid(1.0, 17)
    root_dt = np.sqrt(grid.dt)
    b = np.linspace(-1.0, 2.0, 6)
    for cov in (None, _MIXING):
        factor = np.linalg.cholesky(np.eye(6) if cov is None else cov) * root_dt
        _assert_recipe(brownian_ensemble(SE3, grid, seed, 3, cov), seed, factor)
        _assert_recipe(brownian_ensemble(SE3, grid, seed, 3, cov, drift=b), seed, factor,
                       shift=b * grid.dt)


@pytest.mark.parametrize("seed, first", [(-1, 0), (3, -1), (-(2**40), 5)])
def test_negative_seed_or_replica_is_refused(seed, first):
    with pytest.raises(ValueError):
        derive_rng(seed, first)
    if seed < 0:
        with pytest.raises(ValueError):
            brownian_ensemble(SO3, TimeGrid(1.0, 4), seed, 2)


@pytest.mark.parametrize("name", ["so3", "se3", "sl2r"])
@pytest.mark.parametrize("seed", [5, 2**130 + 3])
def test_replica_range_is_those_rows_of_the_full_draw(name, seed):
    # martingale_test draws an ensemble range by range; each range must be
    # bit for bit those rows of the one-call draw, under any covariance and
    # drift
    spec = get_group(name)
    n = spec.algebra_dim
    grid = TimeGrid(1.0, 23)
    mixing = np.eye(n) + 0.2 * (np.ones((n, n)) - np.eye(n))
    for cov, drift in ((None, None), (mixing, None), (None, np.linspace(-1.0, 2.0, n))):
        full = brownian_ensemble(spec, grid, seed, 11, cov, drift).values
        for first, count in ((0, 4), (4, 4), (8, 3), (10, 1), (3, 0)):
            part = brownian_ensemble(spec, grid, seed, count, cov, drift, first_replica=first)
            assert part.values.tobytes() == full[first : first + count].tobytes()


def test_replica_indices_stay_in_one_spawn_key_word():
    grid = TimeGrid(1.0, 5)
    last = brownian_ensemble(SE3, grid, 9, 1, first_replica=2**32 - 1)
    expected = _recipe(9, 2**32 - 1, grid.steps, np.eye(6) * np.sqrt(grid.dt))
    assert last.values[0, 1:].tobytes() == expected.tobytes()
    for first, count in ((2**32 - 1, 2), (2**32, 1), (-1, 3)):
        with pytest.raises(ValueError, match="2\\*\\*32"):
            brownian_ensemble(SE3, grid, 9, count, first_replica=first)


def test_importing_the_package_leaves_numpy_random_unloaded():
    # numpy.random costs over 10 ms to import; only drawing a driver needs it
    code = (
        "import importlib, pkgutil, sys, liestoch\n"
        "for m in pkgutil.iter_modules(liestoch.__path__):\n"
        "    importlib.import_module('liestoch.' + m.name)\n"
        "assert 'liestoch.paths' in sys.modules and 'liestoch.cli' in sys.modules\n"
        "print('numpy.random' in sys.modules)\n"
    )
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_quadratic_covariation_consistency():
    grid = TimeGrid(1.0, 10_000)
    p = brownian_ensemble(SO3, grid, 1, 1).values[0]
    qv = quadratic_covariation(p, p)
    # realized variance of each component approximates t within 5%
    for c in range(3):
        assert abs(qv[-1, c, c] - 1.0) < 0.05
    assert np.max(np.abs(qv[0])) == 0.0


def test_quadratic_covariation_smooth_path_vanishes():
    values = []
    for steps in (100, 400):
        grid = TimeGrid(1.0, steps)
        t = grid.times()
        smooth = np.stack([np.sin(t), t**2, t], axis=1)
        bm = brownian_ensemble(SO3, grid, 2, 1).values[0]
        qv = quadratic_covariation(smooth, bm)
        values.append(np.max(np.abs(qv[-1])))
    assert values[0] < 0.05
    assert values[1] < values[0]  # shrinks roughly like dt


def test_quadratic_covariation_independent_paths_band():
    grid = TimeGrid(1.0, 10_000)
    p = brownian_ensemble(SO3, grid, 100, 1).values[0]
    q = brownian_ensemble(SO3, grid, 200, 1).values[0]
    qv = quadratic_covariation(p, q)
    band = 4.0 * np.sqrt(2.0 * grid.horizon * grid.dt)
    assert np.max(np.abs(qv[-1])) < band


def test_quadratic_covariation_converges_to_covariance():
    # realized covariation approaches cov * T; error roughly halves when the
    # step count quadruples
    cov = np.array([[1.0, 0.4, 0.0], [0.4, 1.0, -0.2], [0.0, -0.2, 0.5]])
    errs = []
    for steps in (2_000, 8_000):
        grid = TimeGrid(1.0, steps)
        agg = 0.0
        for p in brownian_ensemble(SO3, grid, 55, 6, cov).values:
            qv = quadratic_covariation(p, p)
            agg += np.max(np.abs(qv[-1] - cov))
        errs.append(agg / 6.0)
    assert errs[1] < 0.75 * errs[0]


def test_quadratic_covariation_grid_mismatch():
    p = brownian_ensemble(SO3, TimeGrid(1.0, 10), 0, 1).values[0]
    q = brownian_ensemble(SO3, TimeGrid(1.0, 20), 0, 1).values[0]
    with pytest.raises(GridMismatchError):
        quadratic_covariation(p, q)
    with pytest.raises(GridMismatchError):
        null_qv_check(p, q)
    with pytest.raises(DimensionError):  # a whole stack is not one path
        null_qv_check(p[None], p[None])


def test_null_qv_trivial_cases():
    grid = TimeGrid(1.0, 5_000)
    p = brownian_ensemble(SO3, grid, 4, 1).values[0]
    assert not null_qv_check(p, p, 0.99).passed
    t = grid.times()
    smooth = np.stack([t, np.sin(t), np.zeros_like(t)], axis=1)
    assert null_qv_check(p, smooth, 0.99).passed


def test_null_qv_calibration():
    # independent replicas pass at the 99% level in >= 95% of trials
    grid = TimeGrid(1.0, 4_000)
    passes = 0
    trials = 40
    for i in range(trials):
        p, q = brownian_ensemble(SO3, grid, 1000 + i, 2).values
        passes += null_qv_check(p, q, 0.99).passed
    assert passes >= int(0.95 * trials) - 1


def _einsum_null_qv(p, q, significance):
    """``null_qv_check``'s terminal, band and verdict with both sums taken by
    step-ordered einsums, and each cell's scale ``Σ|dA_i dB_j|``."""
    da, db = np.diff(p, axis=0), np.diff(q, axis=0)
    terminal = np.einsum("ki,kj->ij", da, db)
    var_hat = np.einsum("ki,kj->ij", da * da, db * db)
    z = normal_quantile(1.0 - (1.0 - significance) / (2.0 * terminal.size))
    floor = 1e-15 * (1.0 + np.sqrt(np.sum(da * da)) * np.sqrt(np.sum(db * db)))
    band = z * np.sqrt(var_hat) + floor
    worst = float(np.max(np.abs(terminal) / band))
    return terminal, band, worst, np.einsum("ki,kj->ij", np.abs(da), np.abs(db))


def test_null_qv_blas_sums_match_the_einsum_oracle():
    rng = np.random.default_rng(77)
    for i in range(400):
        dim = (3, 9)[i % 2]
        steps = int(rng.integers(2, 3000))
        p = np.cumsum(rng.standard_normal((steps + 1, dim)), axis=0)
        q = np.cumsum(rng.standard_normal((steps + 1, dim)), axis=0)
        if i % 4 == 0:  # correlated pairs, so that both verdicts occur
            q += rng.uniform(0.0, 0.2) * p
        res = null_qv_check(p, q, 0.99)
        terminal, band, worst, scale = _einsum_null_qv(p, q, 0.99)
        assert np.all(np.abs(res.terminal - terminal) <= 1e-14 * scale)
        # the band is z sqrt(var_hat) + floor, and var_hat's terms are its scale
        assert np.allclose(res.band, band, rtol=1e-14, atol=0.0)
        assert res.passed == (worst <= 1.0)
        assert abs(res.worst_ratio - worst) <= 1e-14 * np.max(scale / band) + 1e-13 * worst


@pytest.mark.parametrize("which", ["p", "q"])
def test_null_qv_fails_closed_on_a_nan_increment(which):
    grid = TimeGrid(1.0, 400)
    p, q = brownian_ensemble(SO3, grid, 7, 2).values
    assert null_qv_check(p, q, 0.99).passed
    bad = (p if which == "p" else q).copy()
    bad[200, 1] = np.nan
    args = (bad, q) if which == "p" else (p, bad)
    res = null_qv_check(*args, 0.99)
    assert res.passed is False and np.isnan(res.worst_ratio)


def test_coordinate_series_shapes():
    grid = TimeGrid(1.0, 8)
    p = brownian_ensemble(SO3, grid, 0, 1)
    assert p.coordinates.shape == (1, 9, 3)
    ens = brownian_ensemble(SO3, grid, 1, 2)
    g = strat_exponential(ens)
    assert g.coordinates.shape == (2, 9, 9)
    assert np.array_equal(g.coordinates[1, 4], g.values[1, 4].ravel())


def test_csv_dumps():
    grid = TimeGrid(1.0, 3)
    p = brownian_ensemble(SO3, grid, 1, 1)
    buf = io.StringIO()
    dump_algebra_csv(p, buf)
    lines = buf.getvalue().strip().splitlines()
    assert lines[0] == "replica,k,t,c1,c2,c3"
    assert len(lines) == 1 + 4

    ens = brownian_ensemble(SO3, grid, 2, 2)
    buf = io.StringIO()
    dump_group_csv(strat_exponential(ens), buf)
    lines = buf.getvalue().strip().splitlines()
    assert lines[0].startswith("replica,k,t,m11,m12")
    assert len(lines) == 1 + 2 * 4


def _csv_writer_dump(fh, grid, header, stacked):
    """The former csv.writer row-by-row dump, kept as the byte oracle."""
    writer = csv.writer(fh)
    writer.writerow(header)
    times = grid.times()
    for r in range(stacked.shape[0]):
        for k in range(stacked.shape[1]):
            writer.writerow(
                [r, k, repr(float(times[k]))]
                + [repr(float(x)) for x in stacked[r, k]]
            )


def _oracle_bytes(target):
    stacked = target.values
    reps, points = stacked.shape[:2]
    if stacked.ndim == 4:
        d = stacked.shape[-1]
        header = ["replica", "k", "t"] + [f"m{i+1}{j+1}" for i in range(d) for j in range(d)]
    else:
        header = ["replica", "k", "t"] + [f"c{i+1}" for i in range(stacked.shape[-1])]
    buf = io.StringIO()
    _csv_writer_dump(buf, target.grid, header, stacked.reshape(reps, points, -1))
    return buf.getvalue()


def _dump_bytes(dump, target):
    buf = io.StringIO()
    dump(target, buf)
    return buf.getvalue()


def _chunk_ends(target):
    """The rows where the path dump of ``target`` starts a new chunk at the
    current ``paths._CHUNK_VALUES``: those inside a replica, and those on a
    replica's first row."""
    replicas, points = target.values.shape[:2]
    fields = 3 + target.values[0, 0].size
    ends = range(paths._CHUNK_VALUES // fields, replicas * points,
                 paths._CHUNK_VALUES // fields)
    return [e for e in ends if e % points], [e for e in ends if e % points == 0]


def _assert_chunks_end_inside_and_on_replicas(target):
    inside, on = _chunk_ends(target)
    assert inside and on, (inside, on)


# (replicas, steps) per group: with 8192 fields a chunk holds 682 rows of a
# 3x3 group, 431 of se3 and 1170 of sl2r, so each shape spans at least three
# chunks, one starting inside a replica and one on a replica's first row.
_GROUP_DUMP_SHAPES = {"so3": (3, 1022), "se2": (3, 1022), "e11": (3, 1022), "n3": (3, 1022),
                      "se3": (2, 861), "sl2r": (4, 779)}


@pytest.mark.parametrize("name", GROUP_NAMES)
def test_group_csv_matches_csv_writer_bytes(name):
    replicas, steps = _GROUP_DUMP_SHAPES[name]
    grid = TimeGrid(0.7, steps)
    gx = strat_exponential(brownian_ensemble(get_group(name), grid, 11, replicas))
    _assert_chunks_end_inside_and_on_replicas(gx)
    assert _dump_bytes(dump_group_csv, gx) == _oracle_bytes(gx)
    one = Ensemble(gx.group, grid, gx.values[-1][None])
    assert _dump_bytes(dump_group_csv, one) == _oracle_bytes(one)


def test_algebra_csv_matches_csv_writer_bytes():
    # 910 rows of se3's 6 coordinates to a chunk: new chunks start at rows
    # 910 (inside replica 2) and 1820 (replica 5's first row)
    grid = TimeGrid(3.0, 363)
    ens = brownian_ensemble(get_group("se3"), grid, 12, 6)
    _assert_chunks_end_inside_and_on_replicas(ens)
    assert _dump_bytes(dump_algebra_csv, ens) == _oracle_bytes(ens)
    one = ens.with_values(ens.values[5:])
    assert _dump_bytes(dump_algebra_csv, one) == _oracle_bytes(one)
    # 5001 points at dt = 2e-6: chunks start inside a replica, and the times
    # below 1e-4 go to repr
    fine = brownian_ensemble(get_group("so3"), TimeGrid(0.01, 5000), 13, 2)
    assert _chunk_ends(fine)[0]
    assert _dump_bytes(dump_algebra_csv, fine) == _oracle_bytes(fine)


# Floats the path dump must write as repr: the classes it leaves to repr
# (tiny, subnormal, huge), zeros, powers of two, ties at the last digit
# (even up, even down), and every decimal exponent it writes itself.
_EDGE_FLOATS = [
    0.0, -0.0, 5e-324, 2.2250738585072014e-308, 1e-05, 9.999e-05, 2.0**-14, 1e16,
    1.2345e20, 1.7976931348623157e308, 123456789.0, 1 / 3, 0.5, 2.0, 2.0**-13, 2.0**53,
    2.0**53 + 2, 1045350691735047.25, 1042535581692948.75, 166930725145524.125,
    998074298825140.75, 571497785641648.25,
    *(float(f"1.2345678901234567e{e}") for e in range(-4, 16)),
    *(float(f"1e{e}") for e in range(-4, 16)),
]


def test_csv_float_edge_cases_match_csv_writer_bytes():
    values = np.array(_EDGE_FLOATS + [-x for x in _EDGE_FLOATS])
    # every value and its negative, in all four replicas, on a grid with
    # non-terminating times; 1365 rows of 3 coordinates to a chunk, so new
    # chunks start at rows 1365 (inside replica 1) and 2730 (replica 3's first)
    ens = Ensemble(SO3, TimeGrid(1 / 3, 909), np.resize(values, (4, 910, 3)))
    _assert_chunks_end_inside_and_on_replicas(ens)
    text = _dump_bytes(dump_algebra_csv, ens)
    assert text == _oracle_bytes(ens)
    for token in ("-0.0", "5e-324", "1e-05", "9.999e-05", "1e+16", "123456789.0", "0.0001",
                  "1000000000000000.0", "0.00012345678901234567", "1045350691735047.2",
                  "1042535581692948.8", "166930725145524.12", "998074298825140.8",
                  "571497785641648.2", "-1.7976931348623157e+308"):
        assert f",{token}," in text or f",{token}\r\n" in text, token


def _bulk_texts(values):
    """The path dump's text of each float64 of ``values``, in blocks of
    4096 rows ``0,<value>``."""
    x = np.asarray(values, dtype=np.float64)
    texts = []
    for block in np.array_split(x, -(-len(x) // 4096)):
        lines = _csv_lines(np.zeros((len(block), 1), np.int64), block[:, None])
        texts += [line[len("0,"):] for line in lines.split("\r\n")[:-1]]
    return texts


def _ulps_from(x, k):
    return float((np.array([x]).view(np.int64) + k).view(np.float64)[0])


_MAGNITUDES = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.integers(0, 2**64 - 1).map(lambda b: float(np.array([b], np.uint64).view(np.float64)[0]))
    .filter(math.isfinite),
    st.builds(_ulps_from, st.sampled_from([1e-4, 1e15, 1e16]), st.integers(-200, 200)),
    st.integers(-1074, 1023).map(lambda e: math.ldexp(1.0, e)),
    st.builds(math.ldexp, st.integers(1, 2**53), st.integers(-1074, 0)),     # k / 2**m
    st.builds(lambda k, j: k / 10**j, st.integers(1, 10**9), st.integers(0, 25)),
)
_FLOATS = st.builds(lambda x, negative: -x if negative else x, _MAGNITUDES, st.booleans())


@settings(max_examples=300, deadline=None)
@given(st.lists(_FLOATS, min_size=1, max_size=64))
def test_bulk_float_text_is_repr(values):
    assert _bulk_texts(values) == [repr(v) for v in values]


def test_bulk_float_text_is_repr_on_random_bit_patterns():
    rng = np.random.default_rng(2026)
    # any double, and one repr writes positionally (about 1e-5 to 1e17,
    # where a uniform pattern lands once in 30 draws)
    low, high = np.array([1e-5, 1e17]).view(np.int64)
    bits = np.concatenate([rng.integers(-2**63, 2**63 - 1, 10**5), rng.integers(low, high, 10**5)])
    x = bits.view(np.float64)
    x = x[np.isfinite(x)]
    x[1::2] *= -1
    assert _bulk_texts(x) == [repr(v) for v in x.tolist()]


def _csv_writer_table(header, rows):
    """The former CLI writer, kept as the byte oracle: each float converted
    with repr(float(x)), then csv.writer's defaults."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(header)
    writer.writerows(
        [repr(float(x)) if isinstance(x, (float, np.floating)) else x for x in row]
        for row in rows
    )
    return buf.getvalue()


def test_write_table_matches_csv_writer_bytes():
    specials = [0.0, -0.0, 5e-324, 1e-05, 1e16, 1 / 3]
    floats = specials + [-x for x in specials]
    header = ["kind", "n", "py", "np"]
    rows = [("row", i, x, np.float64(x)) for i, x in enumerate(floats)]
    rows.append(("mean", -7, np.float64(2.5), 0.1))
    rows.append(("single", 0, -2.5, np.float32(1 / 3)))  # widened to a double
    buf = io.StringIO()
    write_table(buf, header, rows)
    text = buf.getvalue()
    assert text == _csv_writer_table(header, rows)
    assert "row,1,-0.0,-0.0\r\n" in text
    assert text.endswith("single,0,-2.5,0.3333333432674408\r\n")
    for token in ("5e-324", "1e-05", "1e+16", "0.3333333333333333", "-1e+16"):
        assert f",{token},{token}\r\n" in text


def test_write_table_header_only():
    buf = io.StringIO()
    write_table(buf, ["replica", "terminal_error"], [])
    assert buf.getvalue() == _csv_writer_table(["replica", "terminal_error"], [])
    assert buf.getvalue() == "replica,terminal_error\r\n"


ROOT = Path(__file__).resolve().parent.parent


def _imports_csv(path):
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import) and any(a.name == "csv" for a in node.names):
            return True
        if isinstance(node, ast.ImportFrom) and node.module == "csv":
            return True
    return False


def test_write_table_is_the_only_csv_writer():
    # every table goes through paths.write_table; a module that imports csv
    # would be a second writer of the byte format
    modules = sorted(ROOT.glob("src/liestoch/*.py")) + sorted(ROOT.glob("scripts/*.py"))
    assert len(modules) > 10
    assert [m.name for m in modules if _imports_csv(m)] == []


def test_ensemble_validation():
    grid = TimeGrid(1.0, 4)
    with pytest.raises(Exception):
        Ensemble(SO3, grid, np.zeros((3, 9, 3)))  # wrong steps axis
    # value shape from the group's dims, finite entries, (R, K, n) step logs
    eye = np.broadcast_to(np.eye(3), (2, 5, 3, 3))
    assert Ensemble(SO3, grid, np.zeros((2, 5, 3))).replicas == 2
    assert Ensemble(SO3, grid, eye, step_logs=np.zeros((2, 4, 3))).is_group_valued
    for bad in (np.zeros((2, 5, 4)), np.zeros((2, 5, 4, 4)), np.zeros((5, 3)),
                np.zeros((2, 5, 3, 1))):
        with pytest.raises(DimensionError):
            Ensemble(SO3, grid, bad)
    for logs in (np.zeros((2, 5, 3)), np.zeros((1, 4, 3)), np.zeros((2, 4, 9))):
        with pytest.raises(DimensionError):
            Ensemble(SO3, grid, eye, step_logs=logs)
    for value in (np.nan, np.inf, -np.inf):
        values = np.zeros((2, 5, 3))
        values[1, 3, 2] = value
        with pytest.raises(ValueError, match="non-finite"):
            Ensemble(SO3, grid, values)
        logs = np.zeros((2, 4, 3))
        logs[0, 1, 0] = value
        with pytest.raises(ValueError, match="non-finite"):
            Ensemble(SO3, grid, eye, step_logs=logs)


def test_operators_refuse_the_wrong_kind_or_a_bare_array():
    from liestoch.calculus import mc_increments
    from liestoch.campbell import ad_integral
    from liestoch.connections import alpha_biinvariant
    from liestoch.explog import ito_logarithm, strat_logarithm
    from liestoch.martingale import drift_test, martingale_verdict

    m = brownian_ensemble(SO3, TimeGrid(1.0, 4), 1, 2)
    x = strat_exponential(m)
    cases = [
        (strat_logarithm, x.values, "group"),
        (lambda a: ito_logarithm(a, alpha_biinvariant(SO3)), x.values, "group"),
        (strat_exponential, x, "algebra"), (strat_exponential, m.values, "algebra"),
        (mc_increments, m, "group"), (mc_increments, x.values, "group"),
        (lambda a: ad_integral(x, a), x, "algebra"), (lambda a: ad_integral(a, m), m, "group"),
        (drift_test, x, "algebra"),
        (lambda a: martingale_verdict(a, alpha_biinvariant(SO3)), m, "group"),
        (lambda a: dump_algebra_csv(a, io.StringIO()), x, "algebra"),
        (lambda a: dump_group_csv(a, io.StringIO()), m, "group"),
    ]
    for op, arg, kind in cases:
        with pytest.raises(DimensionError, match=f"expected a {kind}-valued Ensemble"):
            op(arg)


def test_ensemble_step_log_wiring():
    from liestoch.calculus import mc_increments

    grid = TimeGrid(1.0, 20)
    ens = brownian_ensemble(SO3, grid, 31, 3)
    gx = strat_exponential(ens)
    assert gx.step_logs is not None and gx.step_logs.shape == (3, 20, 3)
    # a one-replica slice carries its own slice of the cache
    p1 = Ensemble(SO3, grid, gx.values[1][None], step_logs=gx.step_logs[1][None])
    assert np.array_equal(p1.step_logs[0], gx.step_logs[1])
    assert np.array_equal(mc_increments(p1)[0], gx.step_logs[1])
