import numpy as np
import pytest

from liestoch.calculus import increments_from_values, mc_increments
from liestoch.connections import (
    alpha_biinvariant,
    alpha_levi_civita,
    closed_form_u,
    metric_for,
)
from liestoch.errors import GroupMismatchError
from liestoch.explog import ito_logarithm, strat_exponential, strat_logarithm
from liestoch.groups import get_group, to_matrix_coords
from liestoch.linalg import bilinear, mat_exp
from liestoch.paths import Ensemble, TimeGrid, brownian_ensemble

SO3 = get_group("so3")
SE3 = get_group("se3")
RNG = np.random.default_rng(11)


def line_path(spec, grid, direction):
    values = np.outer(grid.times(), direction)
    return Ensemble(spec, grid, values[None])


def constant_group_path(spec, grid, g):
    values = np.broadcast_to(g, (grid.steps + 1,) + g.shape).copy()
    return Ensemble(spec, grid, values[None])


def test_increments_constant_path():
    grid = TimeGrid(1.0, 16)
    g = mat_exp(to_matrix_coords(SO3, np.array([0.3, -0.1, 0.2])))
    path = constant_group_path(SO3, grid, g)
    assert np.max(np.abs(mc_increments(path))) < 1e-14


def test_increments_one_parameter_subgroup():
    grid = TimeGrid(2.0, 40)
    a = np.array([0.4, 0.2, -0.3])
    values = mat_exp(to_matrix_coords(SO3, np.outer(grid.times(), a)))
    path = Ensemble(SO3, grid, values[None])
    dl = mc_increments(path)[0]
    assert np.max(np.abs(dl - grid.dt * a)) < 1e-12


def test_increments_recover_driver():
    grid = TimeGrid(1.0, 300)
    bm = brownian_ensemble(SO3, grid, 1, 1)
    x = strat_exponential(bm)
    assert np.max(np.abs(np.cumsum(mc_increments(x)[0], axis=0) - bm.values[0, 1:])) < 1e-12
    # recomputation from the matrices agrees with the cached injected steps
    recomputed = increments_from_values(SO3, x.values)
    assert np.max(np.abs(recomputed - x.step_logs)) < 1e-12


# The Stratonovich and Ito integrals of a left-invariant 1-form with
# covector eta are the logarithms contracted with eta.
def strat_integral(eta, x):
    return strat_logarithm(x).values @ eta


def ito_integral(eta, x, alpha):
    return ito_logarithm(x, alpha).values @ eta


def _quadratic_integral(b, x):
    """Running sum of the bilinear ``b(dL_k, dL_k)`` over the increments,
    shape (replicas, steps+1)."""
    dl = mc_increments(x)
    per_step = np.einsum("ij,...ki,...kj->...k", b, dl, dl)
    return np.concatenate([np.zeros(per_step.shape[:-1] + (1,)),
                           np.cumsum(per_step, axis=-1)], axis=-1)


def test_strat_integral_cases():
    grid = TimeGrid(1.5, 30)
    a = np.array([0.5, -0.1, 0.8])
    x = strat_exponential(line_path(SO3, grid, a))
    assert np.max(np.abs(strat_integral(np.zeros(3), x))) == 0.0
    eta = np.array([1.0, 2.0, -1.0])
    running = strat_integral(eta, x)
    assert abs(running[0, -1] - grid.horizon * eta @ a) < 1e-12
    # linearity in the form
    eta2 = RNG.standard_normal(3)
    lhs = strat_integral(eta + 3.0 * eta2, x)
    rhs = strat_integral(eta, x) + 3.0 * strat_integral(eta2, x)
    assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_strat_integral_loop_returns_to_zero():
    # up and back along a one-parameter subgroup: exact form integrates to 0
    grid = TimeGrid(1.0, 20)
    a = np.array([0.3, 0.0, 0.5])
    half = grid.steps // 2
    profile = np.minimum(np.arange(grid.steps + 1), grid.steps - np.arange(grid.steps + 1))
    values = mat_exp(to_matrix_coords(SO3, np.outer(profile * grid.dt, a)))
    loop = Ensemble(SO3, grid, values[None])
    eta = RNG.standard_normal(3)
    running = strat_integral(eta, loop)
    assert abs(running[0, -1]) < 1e-10
    assert abs(running[0, half]) > 0.01  # it does leave zero on the way


def test_ito_equals_strat_for_biinvariant():
    grid = TimeGrid(1.0, 200)
    x = strat_exponential(brownian_ensemble(SO3, grid, 3, 1))
    eta = RNG.standard_normal(3)
    alpha = alpha_biinvariant(SO3)
    assert np.array_equal(ito_integral(eta, x, alpha), strat_integral(eta, x))


def test_ito_minus_strat_vanishes_for_smooth_path():
    alpha = alpha_levi_civita(metric_for("se3", 1.0))
    eta = RNG.standard_normal(6)
    a = RNG.standard_normal(6) / 4.0
    diffs = []
    for steps in (50, 200):
        grid = TimeGrid(1.0, steps)
        x = strat_exponential(line_path(SE3, grid, a))
        diffs.append(abs(ito_integral(eta, x, alpha)[0, -1] - strat_integral(eta, x)[0, -1]))
    assert diffs[1] < diffs[0] / 2.0  # O(dt)


def test_ito_correction_matches_closed_form():
    grid = TimeGrid(1.0, 400)
    bm = brownian_ensemble(SE3, grid, 8, 1)
    x = strat_exponential(bm)
    alpha = alpha_levi_civita(metric_for("se3", 1.0))
    eta = RNG.standard_normal(6)
    correction = ito_integral(eta, x, alpha) - strat_integral(eta, x)
    # recompute independently through the closed cross-product form
    u = closed_form_u("se3", 1.0)
    dl = mc_increments(x)[0]
    per_step = bilinear(u.coeffs, dl, dl) @ eta
    recomputed = np.concatenate([[0.0], 0.5 * np.cumsum(per_step)])[None]
    assert np.max(np.abs(correction - recomputed)) < 1e-10


def test_conversion_identity_every_step():
    grid = TimeGrid(1.0, 250)
    bm = brownian_ensemble(SE3, grid, 12, 1)
    x = strat_exponential(bm)
    alpha = alpha_levi_civita(metric_for("se3", 0.8))
    eta = RNG.standard_normal(6)
    # eta composed with alpha as an (n, n) bilinear
    b = np.einsum("k,kij->ij", eta, alpha.coeffs)
    lhs = ito_integral(eta, x, alpha)
    rhs = strat_integral(eta, x) + 0.5 * _quadratic_integral(b, x)
    assert np.max(np.abs(lhs - rhs)) < 1e-13


def test_conversion_identity_property():
    # holds for every one-form, path, and connection, not just pinned ones
    from hypothesis import given, settings
    from hypothesis import strategies as st

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 2**31 - 1), st.sampled_from(["so3", "se2", "se3", "n3", "sl2r"]))
    def run(seed, name):
        rng = np.random.default_rng(seed)
        spec = get_group(name)
        grid = TimeGrid(0.5, 40)
        x = strat_exponential(brownian_ensemble(spec, grid, seed, 1))
        alpha = alpha_levi_civita(metric_for(name, float(rng.uniform(0.5, 2.0))))
        eta = rng.standard_normal(spec.algebra_dim)
        b = np.einsum("k,kij->ij", eta, alpha.coeffs)
        lhs = ito_integral(eta, x, alpha)
        rhs = strat_integral(eta, x) + 0.5 * _quadratic_integral(b, x)
        assert np.max(np.abs(lhs - rhs)) < 1e-12

    run()


def test_integral_additivity_over_concatenation():
    grid = TimeGrid(1.0, 100)
    bm = brownian_ensemble(SO3, grid, 6, 1)
    x = strat_exponential(bm)
    eta = RNG.standard_normal(3)
    running = strat_integral(eta, x)
    # restriction to the first half, then the second half from its start
    half = 50
    first = Ensemble(SO3, TimeGrid(0.5, half), x.values[0, : half + 1][None])
    second = Ensemble(SO3, TimeGrid(0.5, half), x.values[0, half:][None])
    total = strat_integral(eta, first)[0, -1] + strat_integral(eta, second)[0, -1]
    assert abs(total - running[0, -1]) < 1e-12


def test_group_mismatch_errors():
    grid = TimeGrid(1.0, 10)
    x = strat_exponential(brownian_ensemble(SO3, grid, 0, 1))
    with pytest.raises(GroupMismatchError):
        ito_integral(np.zeros(3), x, alpha_levi_civita(metric_for("se3", 1.0)))
