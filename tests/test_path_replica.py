"""A single path is a one-replica ensemble: every operator must give a
one-replica slice exactly (bit for bit) what it gives that replica of the
whole ensemble."""

import io

import numpy as np
import pytest

from liestoch.calculus import increments_from_values, mc_increments
from liestoch.cli import main
from liestoch.campbell import ad_integral, ch_residual, log_product_residual, product_path
from liestoch.connections import alpha_biinvariant, alpha_levi_civita, metric_for
from liestoch.explog import (
    ito_exponential,
    ito_logarithm,
    strat_exponential,
    strat_logarithm,
)
from liestoch.groups import GROUP_NAMES, get_group, to_matrix_coords
from liestoch.linalg import _ROW_CHUNK, mat_exp
from liestoch.paths import (
    Ensemble,
    TimeGrid,
    brownian_ensemble,
    dump_algebra_csv,
    dump_group_csv,
)
from test_explog import translate_initial
from test_paths import _recipe

REPLICAS = 3
SO3 = get_group("so3")


def _arrays(out):
    """The arrays a result carries: values (and step logs), or itself."""
    if isinstance(out, np.ndarray):
        return [out]
    logs = getattr(out, "step_logs", None)
    return [out.values] + ([] if logs is None else [logs])


def _assert_bitwise(a, b, what):
    assert a.shape == b.shape and a.tobytes() == b.tobytes(), what


def _replica(ens, r):
    """Replica r of an ensemble, alone, as a one-replica ensemble."""
    logs = None if ens.step_logs is None else ens.step_logs[r:r + 1]
    return ens.with_values(ens.values[r:r + 1], step_logs=logs)


def _assert_path_matches_replicas(op, *ensembles, what, replicas=range(REPLICAS)):
    stacked = _arrays(op(*ensembles))
    for r in replicas:
        single = _arrays(op(*(_replica(e, r) for e in ensembles)))
        assert len(single) == len(stacked), what
        for a, b in zip(single, stacked):
            _assert_bitwise(a, b[r:r + 1], f"{what}, replica {r}")


def _assert_driver_replicas(ens, seed, replicas, cov=None, drift=None):
    """Each of the ``replicas`` of a driver draw of covariance ``cov`` (the
    identity by default) is drawn as if alone: the ``derive_rng`` recipe of
    its index."""
    n = ens.group.algebra_dim
    factor = np.linalg.cholesky(np.eye(n) if cov is None else cov) * np.sqrt(ens.grid.dt)
    shift = None if drift is None else drift * ens.grid.dt
    for r in replicas:
        _assert_bitwise(ens.values[r, 1:], _recipe(seed, r, ens.grid.steps, factor, shift),
                        f"brownian_ensemble, replica {r}")


def _dump_lines(dump, target):
    buf = io.StringIO()
    dump(target, buf)
    return buf.getvalue().splitlines()


@pytest.mark.parametrize("name", GROUP_NAMES)
def test_path_result_is_its_replica_of_the_ensemble_result(name):
    spec = get_group(name)
    n = spec.algebra_dim
    grid = TimeGrid(0.2, 20)
    alpha = alpha_levi_civita(metric_for(spec, 1.0))
    biinv = alpha_biinvariant(spec)

    m = brownian_ensemble(spec, grid, 5, REPLICAS)
    q = brownian_ensemble(spec, grid, 6, REPLICAS)
    drift = np.linspace(-1.0, 1.0, n)
    dd = brownian_ensemble(spec, grid, 7, REPLICAS, 0.25 * np.eye(n), drift=drift)
    _assert_driver_replicas(m, 5, range(REPLICAS))
    _assert_driver_replicas(dd, 7, range(REPLICAS), 0.25 * np.eye(n), drift)

    _assert_path_matches_replicas(strat_exponential, m, what="strat_exponential")
    _assert_path_matches_replicas(lambda a: ito_exponential(a, alpha), m,
                                  what="ito_exponential")

    x = ito_exponential(m, alpha)
    y = ito_exponential(q, alpha)
    # the same group values without step logs force the mat_log readback
    x_bare, y_bare = x.with_values(x.values), y.with_values(y.values)
    for label, gx in (("step logs", x), ("readback", x_bare)):
        _assert_path_matches_replicas(mc_increments, gx, what=f"mc_increments, {label}")
        _assert_path_matches_replicas(strat_logarithm, gx, what=f"strat_logarithm, {label}")
        _assert_path_matches_replicas(lambda a: ito_logarithm(a, alpha), gx,
                                      what=f"ito_logarithm, {label}")

    xi = mat_exp(to_matrix_coords(spec, np.linspace(0.1, 0.3, n)), spec.exp)
    _assert_path_matches_replicas(lambda a: translate_initial(xi, a), x,
                                  what="translate_initial")

    for rule in ("ito", "midpoint"):
        for label, gy in (("step logs", y), ("readback", y_bare)):
            _assert_path_matches_replicas(lambda a, b: ad_integral(a, b, rule=rule), gy, m,
                                          what=f"ad_integral {rule}, {label}")
        _assert_path_matches_replicas(
            lambda a, b: log_product_residual(a, b, biinv, rule=rule,
                                              enforce_hypotheses=False),
            x, y, what=f"log_product_residual {rule}",
        )
        _assert_path_matches_replicas(
            lambda a, b: ch_residual(a, b, biinv, rule=rule, enforce_hypotheses=False),
            m, q, what=f"ch_residual {rule}",
        )
    _assert_path_matches_replicas(product_path, x, y, what="product_path")

    for dump, target in ((dump_algebra_csv, m), (dump_group_csv, x)):
        whole = _dump_lines(dump, target)
        rows = grid.steps + 1
        for r in range(REPLICAS):
            # the slice's one replica is numbered 0
            single = _dump_lines(dump, _replica(target, r))
            block = whole[1 + r * rows : 1 + (r + 1) * rows]
            assert single[0] == whole[0]
            assert single[1:] == ["0" + line[len(str(r)):] for line in block], dump.__name__


def _assert_passes_match_one_replica_runs(name, replicas, steps, checked):
    """Every tiled or slabbed pass on ``replicas`` x ``steps``, replica by
    replica for the ``checked`` replicas (and the first, middle and last)."""
    spec = get_group(name)
    grid = TimeGrid(0.01 * steps, steps)  # dt = 0.01 keeps the readback cheap
    alpha = alpha_levi_civita(metric_for(spec, 1.0))
    biinv = alpha_biinvariant(spec)
    m = brownian_ensemble(spec, grid, 9, replicas)
    q = brownian_ensemble(spec, grid, 10, replicas)
    checked = sorted({0, replicas // 2, replicas - 1} | {r for r in checked if r < replicas})
    _assert_driver_replicas(m, 9, checked)

    x = ito_exponential(m, alpha)
    y = ito_exponential(q, biinv)
    x_bare, y_bare = x.with_values(x.values), y.with_values(y.values)
    cases = [
        (lambda a: ito_exponential(a, alpha), (m,), "ito_exponential"),
        (mc_increments, (x_bare,), "mc_increments, readback"),
        (lambda a: increments_from_values(spec, a.values), (x,), "increments_from_values"),
        (lambda a: ito_logarithm(a, alpha), (x,), "ito_logarithm, step logs"),
        (lambda a: ito_logarithm(a, alpha), (x_bare,), "ito_logarithm, readback"),
        (strat_logarithm, (x,), "strat_logarithm, step logs"),
        (strat_logarithm, (x_bare,), "strat_logarithm, readback"),
        (lambda a, b: ad_integral(a, b, rule="midpoint"), (y_bare, m), "ad_integral"),
        (lambda a, b: log_product_residual(a, b, biinv, rule="midpoint",
                                           enforce_hypotheses=False),
         (y, y_bare), "log_product_residual"),
    ]
    for op, args, what in cases:
        _assert_path_matches_replicas(op, *args, what=what, replicas=checked)

    # a bi-invariant connection has no Ito correction, on every tile and slab
    strat = strat_exponential(q)
    _assert_bitwise(y.values, strat.values, "ito_exponential == strat_exponential")
    _assert_bitwise(ito_logarithm(y_bare, biinv).values, strat_logarithm(y_bare).values,
                    "ito_logarithm == strat_logarithm")


# linalg.tiles runs the develop's product over tiles of at most _ROW_CHUNK
# (4096) matrices: min(R, 4096) replicas by 4096 // rows steps. The shapes
# sit on its edges: replica counts around one tile's rows (one step a
# tile), one replica over more steps than a tile holds, and step counts
# that a tile's columns (1365 and 4) do not divide.
TILE_EDGES = [(1, 4099), (4095, 2), (4096, 2), (4097, 2), (3, 1400), (1000, 10)]


@pytest.mark.parametrize("replicas, steps", TILE_EDGES)
@pytest.mark.parametrize("name", ["so3", "se3"])
def test_tiled_passes_match_one_replica_runs_at_tile_edges(name, replicas, steps):
    assert _ROW_CHUNK == 4096
    # the first and last replica of each tile row block
    _assert_passes_match_one_replica_runs(name, replicas, steps, (4095, 4096))


# linalg.slabs runs the per-step passes (the Ito corrections, the readback,
# the adjoint sum) over slabs of 4096 // K whole replicas, or of 4096 steps
# of one replica when K > 4096. At these shapes the slabs leave a
# remainder: 40 + 1, 4096 + 3 steps, 4 + 4, 32 + 1 and 2048 + 2048 + 1.
SLAB_EDGES = [(41, 100), (1, 4099), (8, 1000), (33, 128), (4097, 2)]


@pytest.mark.parametrize("replicas, steps", SLAB_EDGES)
@pytest.mark.parametrize("name", ["so3", "se3"])
def test_slabbed_passes_match_one_replica_runs_at_slab_edges(name, replicas, steps):
    assert _ROW_CHUNK == 4096
    rows = max(1, _ROW_CHUNK // steps)
    # the first and last replica of each slab
    edges = {b + side for b in range(rows, replicas, rows) for side in (-1, 0)}
    _assert_passes_match_one_replica_runs(name, replicas, steps, edges)
    if steps <= _ROW_CHUNK:
        return
    # a long replica's slabs split its steps: a short path over the split
    # gets the same per-step results
    spec = get_group(name)
    alpha = alpha_levi_civita(metric_for(spec, 1.0))
    m = brownian_ensemble(spec, TimeGrid(0.01 * steps, steps), 9, replicas)
    x = ito_exponential(m, alpha)
    w = slice(_ROW_CHUNK - 3, _ROW_CHUNK + 3)
    short = Ensemble(spec, TimeGrid(0.06, 6), m.values[:, w.start : w.stop + 1])
    _assert_bitwise(ito_exponential(short, alpha).step_logs, x.step_logs[:, w],
                    "Ito-corrected steps across a slab split")
    _assert_bitwise(increments_from_values(spec, x.values[:, w.start : w.stop + 1]),
                    increments_from_values(spec, x.values)[:, w], "readback across a slab split")


def test_readback_switches_log_branch_within_one_tile():
    # so3 steps of 0.3 and 2.0 rad: mat_log takes the closed form below
    # pi/2 and the generic kernel above, interleaved inside one tile
    angles = np.array([[0.3, 2.0, 0.3, 2.0, 2.0, 0.3], [2.0, 0.3, 0.3, 2.0, 0.3, 2.0]])
    axes = np.random.default_rng(4).standard_normal(angles.shape + (3,))
    steps = axes / np.linalg.norm(axes, axis=-1, keepdims=True) * angles[..., None]
    values = np.concatenate([np.zeros((2, 1, 3)), np.cumsum(steps, axis=1)], axis=1)
    x = strat_exponential(Ensemble(SO3, TimeGrid(1.0, 6), values))
    bare = x.with_values(x.values)
    _assert_path_matches_replicas(mc_increments, bare, what="readback", replicas=range(2))
    # below pi the principal log is the step itself, on either branch
    assert np.max(np.abs(increments_from_values(SO3, x.values) - steps)) < 1e-12


# One replica develops in tiles of up to 4096 steps, eight in tiles of 512
# and 4096 in tiles of one step, so replica 0 crosses its tile edges at
# other steps in the two runs.
@pytest.mark.parametrize("replicas, steps", [(8, 5000), (4096, 3)])
@pytest.mark.parametrize("name", GROUP_NAMES)
def test_exp_of_fewer_replicas_is_a_prefix_across_tile_columns(name, replicas, steps,
                                                               tmp_path):
    n = get_group(name).algebra_dim
    drift = ",".join(repr(0.5 - 0.25 * i) for i in range(n))
    lines = {}
    for count in (1, replicas):
        out = tmp_path / f"x{count}.csv"
        assert main(["exp", "--group", name, "--dt", "1e-3", "--steps", str(steps),
                     "--replicas", str(count), "--seed", "5", "--driver", "drift",
                     "--drift", drift, "--out", str(out)]) == 0
        lines[count] = out.read_bytes().split(b"\r\n")
    one = lines[1][:-1]  # the text ends in a line break
    assert len(one) == steps + 2 and lines[replicas][: len(one)] == one
