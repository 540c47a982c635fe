"""A single path is a one-replica ensemble: every operator must give a path
exactly (bit for bit) what it gives the matching replica of an ensemble."""

import io

import numpy as np
import pytest

from liestoch.calculus import mc_increments
from liestoch.campbell import ad_integral, ch_residual, log_product_residual, product_path
from liestoch.connections import alpha_biinvariant, alpha_levi_civita, metric_for
from liestoch.explog import (
    ito_exponential,
    ito_logarithm,
    strat_exponential,
    strat_logarithm,
    translate_initial,
)
from liestoch.groups import GROUP_NAMES, get_group, to_matrix_coords
from liestoch.linalg import mat_exp
from liestoch.paths import (
    TimeGrid,
    brownian_driver,
    brownian_ensemble,
    drift_diffusion_driver,
    drift_diffusion_ensemble,
    dump_algebra_csv,
    dump_group_csv,
)

REPLICAS = 3


def _arrays(out):
    """The arrays a result carries: values (and step logs), or itself."""
    if isinstance(out, np.ndarray):
        return [out]
    logs = getattr(out, "step_logs", None)
    return [out.values] + ([] if logs is None else [logs])


def _assert_bitwise(a, b, what):
    assert a.shape == b.shape and a.tobytes() == b.tobytes(), what


def _assert_path_matches_replicas(op, *ensembles, what):
    stacked = _arrays(op(*ensembles))
    for r in range(REPLICAS):
        single = _arrays(op(*(e.path(r) for e in ensembles)))
        assert len(single) == len(stacked), what
        for a, b in zip(single, stacked):
            _assert_bitwise(a, b[r], f"{what}, replica {r}")


def _dump_lines(dump, target, **kwargs):
    buf = io.StringIO()
    dump(target, buf, **kwargs)
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
    diffusion = 0.5 * np.eye(n)
    dd = drift_diffusion_ensemble(spec, grid, 7, REPLICAS, drift=drift, diffusion=diffusion)
    for r in range(REPLICAS):
        _assert_bitwise(brownian_driver(spec, grid, 5, replica=r).values, m.values[r],
                        "brownian_driver")
        _assert_bitwise(
            drift_diffusion_driver(spec, grid, 7, drift, diffusion, replica=r).values,
            dd.values[r], "drift_diffusion_driver",
        )

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

    xi = mat_exp(to_matrix_coords(spec, np.linspace(0.1, 0.3, n)))
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
            single = _dump_lines(dump, target.path(r), replica=r)
            assert single[0] == whole[0]
            assert single[1:] == whole[1 + r * rows : 1 + (r + 1) * rows], dump.__name__
