import ast
import csv
import io
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from liestoch.errors import GridMismatchError, MetricError
from liestoch.explog import strat_exponential
from liestoch.groups import GROUP_NAMES, get_group
from liestoch.paths import (
    AlgebraPath,
    Ensemble,
    TimeGrid,
    as_ensemble,
    brownian_driver,
    brownian_ensemble,
    coordinate_series,
    derive_rng,
    drift_diffusion_driver,
    drift_diffusion_ensemble,
    dump_algebra_csv,
    dump_group_csv,
    normal_quantile,
    null_qv_check,
    quadratic_covariation,
    write_table,
)

SO3 = get_group("so3")


def test_time_grid():
    grid = TimeGrid(2.0, 4)
    assert grid.dt == 0.5
    assert np.allclose(grid.times(), [0, 0.5, 1.0, 1.5, 2.0])
    with pytest.raises(ValueError):
        TimeGrid(0.0, 10)
    with pytest.raises(ValueError):
        TimeGrid(1.0, 0)


def test_normal_quantile():
    assert abs(normal_quantile(0.975) - 1.959964) < 1e-5
    assert abs(normal_quantile(0.5)) < 1e-10
    assert abs(normal_quantile(0.995) - 2.575829) < 1e-5


def test_brownian_seed_determinism():
    grid = TimeGrid(1.0, 100)
    p1 = brownian_driver(SO3, grid, seed=5)
    p2 = brownian_driver(SO3, grid, seed=5)
    p3 = brownian_driver(SO3, grid, seed=6)
    assert np.array_equal(p1.values, p2.values)
    assert not np.array_equal(p1.values, p3.values)
    assert np.array_equal(p1.values[0], np.zeros(3))


def test_brownian_increment_variance():
    # sample variance of increments matches cov * dt within 3 standard errors
    grid = TimeGrid(1.0, 100_000)
    path = brownian_driver(SO3, grid, seed=11)
    inc = path.increments()
    var = inc.var(axis=0, ddof=1)
    se = np.sqrt(2.0 / (grid.steps - 1)) * grid.dt
    assert np.all(np.abs(var - grid.dt) < 3.0 * se)


def test_brownian_rejects_bad_covariance():
    grid = TimeGrid(1.0, 10)
    with pytest.raises(MetricError):
        brownian_driver(SO3, grid, seed=0, covariance=np.zeros((3, 3)))
    with pytest.raises(MetricError):
        brownian_driver(SO3, grid, seed=0, covariance=np.eye(4))


def test_brownian_increment_normality():
    # skew and excess kurtosis of 1e6 pooled increments stay small
    grid = TimeGrid(1.0, 500_000)
    values = np.concatenate(
        [brownian_driver(SO3, grid, seed=21, replica=r).increments() for r in range(2)]
    )
    z = values / np.sqrt(grid.dt)
    for c in range(3):
        x = z[:, c]
        skew = np.mean(x**3)
        kurt = np.mean(x**4) - 3.0
        assert abs(skew) < 0.05
        assert abs(kurt) < 0.1


def test_drift_diffusion_driver_cases():
    grid = TimeGrid(2.0, 50)
    b = np.array([0.0, 0.0, 1.0])
    line = drift_diffusion_driver(SO3, grid, seed=3, drift=b, diffusion=np.zeros((3, 3)))
    assert np.allclose(line.values, np.outer(grid.times(), b), atol=1e-12)
    flat = drift_diffusion_driver(SO3, grid, seed=3)
    assert np.max(np.abs(flat.values)) == 0.0


def test_drift_diffusion_matches_brownian_moments():
    grid = TimeGrid(1.0, 20_000)
    cov = np.array([[1.0, 0.3, 0.0], [0.3, 1.0, 0.0], [0.0, 0.0, 2.0]])
    factor = np.linalg.cholesky(cov)
    bm = brownian_driver(SO3, grid, seed=9, covariance=cov)
    dd = drift_diffusion_driver(SO3, grid, seed=10, diffusion=factor)
    cb = np.cov(bm.increments().T)
    cd = np.cov(dd.increments().T)
    assert np.max(np.abs(cb - cd)) < 6.0 * grid.dt * np.sqrt(2.0 / grid.steps) * 10


def test_ensemble_replica_streams_and_chunking():
    grid = TimeGrid(1.0, 64)
    full = brownian_ensemble(SO3, grid, base_seed=77, replicas=10)
    head = brownian_ensemble(SO3, grid, base_seed=77, replicas=4)
    tail = brownian_ensemble(SO3, grid, base_seed=77, replicas=6, first_replica=4)
    assert np.array_equal(np.concatenate([head.values, tail.values]), full.values)
    single = brownian_driver(SO3, grid, seed=77, replica=3)
    assert np.array_equal(full.values[3], single.values)
    assert full.path(3).values.base is full.values  # views, not copies


def test_drift_ensemble_chunking():
    grid = TimeGrid(1.0, 32)
    b = np.array([1.0, 0.0, 0.0])
    full = drift_diffusion_ensemble(SO3, grid, 5, 6, drift=b, diffusion=np.eye(3))
    part = drift_diffusion_ensemble(SO3, grid, 5, 3, drift=b, diffusion=np.eye(3), first_replica=3)
    assert np.array_equal(full.values[3:], part.values)


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


def _assert_recipe(ens, seed, first, factor, shift=None):
    assert ens.values[:, 0].tobytes() == bytes(ens.values[:, 0].nbytes)  # +0.0 rows
    for r in range(ens.replicas):
        expected = _recipe(seed, first + r, ens.grid.steps, factor, shift)
        assert ens.values[r, 1:].tobytes() == expected.tobytes(), (seed, first + r)


@pytest.mark.parametrize("seed", [0, 2**32 - 1, 2**32, 2**64 + 1, 2**130 + 3])
@pytest.mark.parametrize("first, replicas", [(0, 3), (2**32 - 2, 4), (2**64 - 1, 2)])
def test_bulk_drivers_are_the_derive_rng_recipe_bit_for_bit(seed, first, replicas):
    # replica indices crossing 2**32 (2**64) lengthen the spawn key to two
    # (three) words; seeds above 2**128 have more words than the hash pool
    grid = TimeGrid(1.0, 17)
    root_dt = np.sqrt(grid.dt)
    for cov in (None, _MIXING):
        ens = brownian_ensemble(SE3, grid, seed, replicas, cov, first_replica=first)
        factor = np.linalg.cholesky(np.eye(6) if cov is None else cov) * root_dt
        _assert_recipe(ens, seed, first, factor)
    b = np.linspace(-1.0, 2.0, 6)
    ens = drift_diffusion_ensemble(SE3, grid, seed, replicas, drift=b, diffusion=_MIXING,
                                   first_replica=first)
    _assert_recipe(ens, seed, first, _MIXING * root_dt, shift=b * grid.dt)


@pytest.mark.parametrize("seed, first", [(-1, 0), (3, -1), (-(2**40), 5)])
def test_negative_seed_or_replica_is_refused(seed, first):
    grid = TimeGrid(1.0, 4)
    with pytest.raises(ValueError):
        brownian_ensemble(SO3, grid, seed, 2, first_replica=first)
    with pytest.raises(ValueError):
        drift_diffusion_ensemble(SO3, grid, seed, 2, first_replica=first)
    with pytest.raises(ValueError):
        derive_rng(seed, first)


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
    p = brownian_driver(SO3, grid, seed=1)
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
        smooth = AlgebraPath(SO3, grid, np.stack([np.sin(t), t**2, t], axis=1))
        bm = brownian_driver(SO3, grid, seed=2)
        qv = quadratic_covariation(smooth, bm)
        values.append(np.max(np.abs(qv[-1])))
    assert values[0] < 0.05
    assert values[1] < values[0]  # shrinks roughly like dt


def test_quadratic_covariation_independent_paths_band():
    grid = TimeGrid(1.0, 10_000)
    p = brownian_driver(SO3, grid, seed=100)
    q = brownian_driver(SO3, grid, seed=200)
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
        for r in range(6):
            p = brownian_driver(SO3, grid, seed=55, replica=r, covariance=cov)
            qv = quadratic_covariation(p, p)
            agg += np.max(np.abs(qv[-1] - cov))
        errs.append(agg / 6.0)
    assert errs[1] < 0.75 * errs[0]


def test_quadratic_covariation_grid_mismatch():
    p = brownian_driver(SO3, TimeGrid(1.0, 10), seed=0)
    q = brownian_driver(SO3, TimeGrid(1.0, 20), seed=0)
    with pytest.raises(GridMismatchError):
        quadratic_covariation(p, q)


def test_null_qv_trivial_cases():
    grid = TimeGrid(1.0, 5_000)
    p = brownian_driver(SO3, grid, seed=4)
    assert not null_qv_check(p, p, 0.99).passed
    t = grid.times()
    smooth = AlgebraPath(SO3, grid, np.stack([t, np.sin(t), np.zeros_like(t)], axis=1))
    assert null_qv_check(p, smooth, 0.99).passed


def test_null_qv_calibration():
    # independent replicas pass at the 99% level in >= 95% of trials
    grid = TimeGrid(1.0, 4_000)
    passes = 0
    trials = 40
    for i in range(trials):
        p = brownian_driver(SO3, grid, seed=1000 + i, replica=0)
        q = brownian_driver(SO3, grid, seed=1000 + i, replica=1)
        passes += null_qv_check(p, q, 0.99).passed
    assert passes >= int(0.95 * trials) - 1


def test_coordinate_series_shapes():
    grid = TimeGrid(1.0, 8)
    p = brownian_driver(SO3, grid, seed=0)
    assert coordinate_series(p).shape == (9, 3)
    ens = brownian_ensemble(SO3, grid, 1, 2)
    from liestoch.explog import strat_exponential

    g = strat_exponential(ens).path(0)
    assert coordinate_series(g).shape == (9, 9)


def test_csv_dumps():
    grid = TimeGrid(1.0, 3)
    p = brownian_driver(SO3, grid, seed=1)
    buf = io.StringIO()
    dump_algebra_csv(p, buf)
    lines = buf.getvalue().strip().splitlines()
    assert lines[0] == "replica,k,t,c1,c2,c3"
    assert len(lines) == 1 + 4

    from liestoch.explog import strat_exponential

    ens = brownian_ensemble(SO3, grid, 2, 2)
    buf = io.StringIO()
    dump_group_csv(strat_exponential(ens), buf)
    lines = buf.getvalue().strip().splitlines()
    assert lines[0].startswith("replica,k,t,m11,m12")
    assert len(lines) == 1 + 2 * 4


def _csv_writer_dump(fh, grid, header, stacked, first_replica):
    """The former csv.writer row-by-row dump, kept as the byte oracle."""
    writer = csv.writer(fh)
    writer.writerow(header)
    times = grid.times()
    for r in range(stacked.shape[0]):
        for k in range(stacked.shape[1]):
            writer.writerow(
                [first_replica + r, k, repr(float(times[k]))]
                + [repr(float(x)) for x in stacked[r, k]]
            )


def _oracle_bytes(target, replica=0):
    stacked = as_ensemble(target).values
    reps, points = stacked.shape[:2]
    if stacked.ndim == 4:
        d = stacked.shape[-1]
        header = ["replica", "k", "t"] + [f"m{i+1}{j+1}" for i in range(d) for j in range(d)]
    else:
        header = ["replica", "k", "t"] + [f"c{i+1}" for i in range(stacked.shape[-1])]
    buf = io.StringIO()
    _csv_writer_dump(buf, target.grid, header, stacked.reshape(reps, points, -1), replica)
    return buf.getvalue()


def _dump_bytes(dump, target, replica=0):
    buf = io.StringIO()
    dump(target, buf, replica=replica)
    return buf.getvalue()


@pytest.mark.parametrize("name", GROUP_NAMES)
def test_group_csv_matches_csv_writer_bytes(name):
    grid = TimeGrid(0.7, 25)
    gx = strat_exponential(brownian_ensemble(get_group(name), grid, 11, 3))
    assert _dump_bytes(dump_group_csv, gx) == _oracle_bytes(gx)
    assert _dump_bytes(dump_group_csv, gx, replica=5) == _oracle_bytes(gx, replica=5)
    one = gx.path(2)
    assert _dump_bytes(dump_group_csv, one) == _oracle_bytes(one)
    assert _dump_bytes(dump_group_csv, one, replica=2) == _oracle_bytes(one, replica=2)


def test_algebra_csv_matches_csv_writer_bytes():
    grid = TimeGrid(3.0, 40)
    ens = brownian_ensemble(get_group("se3"), grid, 12, 4)
    assert _dump_bytes(dump_algebra_csv, ens) == _oracle_bytes(ens)
    assert _dump_bytes(dump_algebra_csv, ens, replica=7) == _oracle_bytes(ens, replica=7)
    one = brownian_driver(SO3, grid, seed=4, replica=3)
    assert _dump_bytes(dump_algebra_csv, one, replica=3) == _oracle_bytes(one, replica=3)


def test_csv_float_edge_cases_match_csv_writer_bytes():
    specials = [0.0, -0.0, 5e-324, 1e-05, 9.999e-05, 1e16, 123456789.0, 1 / 3]
    # every value and its negative, in both replicas, on a grid with
    # non-terminating times
    values = np.resize(np.array(specials + [-x for x in specials]), (2, 8, 3))
    ens = Ensemble(SO3, TimeGrid(1 / 3, 7), 0, values)
    text = _dump_bytes(dump_algebra_csv, ens)
    assert text == _oracle_bytes(ens)
    for token in ("-0.0", "5e-324", "1e-05", "9.999e-05", "1e+16", "123456789.0"):
        assert token in text


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
        Ensemble(SO3, grid, 0, np.zeros((3, 9, 3)))  # wrong steps axis


def test_ensemble_step_log_wiring():
    from liestoch.calculus import mc_increments
    from liestoch.explog import strat_exponential

    grid = TimeGrid(1.0, 20)
    ens = brownian_ensemble(SO3, grid, 31, 3)
    gx = strat_exponential(ens)
    assert gx.step_logs is not None and gx.step_logs.shape == (3, 20, 3)
    # per-replica views carry their own slice of the cache
    p1 = gx.path(1)
    assert np.array_equal(p1.step_logs, gx.step_logs[1])
    assert np.array_equal(mc_increments(p1), gx.step_logs[1])
