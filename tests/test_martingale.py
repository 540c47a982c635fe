import numpy as np
import pytest

from liestoch.campbell import product_path
from liestoch.connections import (
    alpha_biinvariant,
    alpha_levi_civita,
    closed_form_u,
    metric_for,
    u_from_metric,
)
from liestoch.errors import DimensionError, PowerError
from liestoch.explog import ito_exponential, ito_logarithm, strat_exponential, strat_logarithm
from liestoch.groups import get_group
from liestoch.linalg import bilinear
from liestoch.martingale import drift_test, martingale_verdict
from liestoch.calculus import mc_increments
from liestoch.paths import Ensemble, TimeGrid, brownian_ensemble

SO3 = get_group("so3")
SE3 = get_group("se3")


def test_drift_test_brownian_null_passes():
    grid = TimeGrid(1.0, 100)
    ens = brownian_ensemble(SO3, grid, 1, 500)
    report = drift_test(ens, buckets=20)
    assert report.passed
    assert report.z.shape == (20, 3)


def test_drift_test_constant_paths_all_zero_z():
    grid = TimeGrid(1.0, 100)
    ens = Ensemble(SO3, grid, np.zeros((200, 101, 3)))
    report = drift_test(ens, buckets=10)
    assert report.passed
    assert np.max(np.abs(report.z)) == 0.0


def test_drift_test_detects_drift():
    grid = TimeGrid(1.0, 100)
    b = np.array([1.0, 0.0, 0.0])
    ens = brownian_ensemble(SO3, grid, 3, 10_000, drift=b)
    report = drift_test(ens, buckets=20)
    assert not report.passed
    assert report.max_abs_z > 10.0


def test_drift_test_power_and_bucket_errors():
    grid = TimeGrid(1.0, 100)
    ens = brownian_ensemble(SO3, grid, 4, 50)
    with pytest.raises(PowerError):
        drift_test(ens)
    ens = brownian_ensemble(SO3, grid, 4, 120)
    with pytest.raises(ValueError, match="must divide"):
        drift_test(ens, buckets=7)
    for buckets in (0, -5):
        with pytest.raises(ValueError, match="positive integer"):
            drift_test(ens, buckets=buckets)


def test_drift_test_null_calibration():
    # false-failure rate under the null stays at or below 5%
    grid = TimeGrid(1.0, 60)
    failures = 0
    for seed in range(100):
        ens = brownian_ensemble(SO3, grid, 10_000 + seed, 200)
        failures += not drift_test(ens, buckets=20).passed
    assert failures <= 5


def test_compensator_biinvariant_is_strat_log():
    grid = TimeGrid(1.0, 150)
    alpha = alpha_biinvariant(SO3)
    x = strat_exponential(brownian_ensemble(SO3, grid, 5, 4))
    comp = ito_logarithm(x, alpha)
    assert np.array_equal(comp.values, strat_logarithm(x).values)


def test_compensator_constant_path_is_zero():
    grid = TimeGrid(1.0, 20)
    alpha = alpha_levi_civita(metric_for("se3", 1.0))
    zero = strat_exponential(Ensemble(SE3, grid, np.zeros((2, 21, 6))))
    comp = ito_logarithm(zero, alpha)
    assert np.max(np.abs(comp.values)) == 0.0


def test_compensator_correction_matches_closed_form():
    # compensator minus plain logarithm equals half the running cross-product
    # quadratic sum, recomputed through the closed cross-product form
    grid = TimeGrid(1.0, 300)
    metric = metric_for("se3", 1.0)
    alpha = alpha_levi_civita(metric)
    x = strat_exponential(brownian_ensemble(SE3, grid, 7, 3))
    comp = ito_logarithm(x, alpha)
    plain = strat_logarithm(x)
    u = closed_form_u("se3", 1.0)
    dl = mc_increments(x)
    quad = bilinear(u.coeffs, dl, dl)
    expected = np.zeros_like(plain.values)
    np.cumsum(0.5 * quad, axis=-2, out=expected[:, 1:, :])
    assert np.max(np.abs(comp.values - plain.values - expected)) < 1e-10


def test_martingale_verdict_matches_drift_test_wiring():
    grid = TimeGrid(1.0, 100)
    alpha = alpha_levi_civita(metric_for("se3", 1.0))
    ens = brownian_ensemble(SE3, grid, 8, 200)
    gx = ito_exponential(ens, alpha)
    verdict = martingale_verdict(gx, alpha)
    direct = drift_test(ito_logarithm(gx, alpha), connection_label=alpha.label)
    assert verdict.passed == direct.passed
    assert np.array_equal(verdict.z, direct.z)


def test_martingale_negative_control_power():
    # reduced-size rendering of the correlated-covariance control: the
    # verdict must fail for every master seed
    metric = metric_for("se3", 1.0)
    alpha = alpha_levi_civita(metric)
    cov = np.eye(6)
    cov[0, 4] = cov[4, 0] = 0.8
    cov[1, 3] = cov[3, 1] = -0.8
    u = u_from_metric(metric).coeffs
    drift = 0.5 * np.einsum("kij,ij->k", u, cov)
    assert np.linalg.norm(drift) > 0.5
    grid = TimeGrid(1.0, 100)
    for seed in range(10):
        ens = brownian_ensemble(SE3, grid, 500 + seed, 2500, covariance=cov)
        report = martingale_verdict(strat_exponential(ens), alpha)
        assert not report.passed


def test_negative_control_drift_matches_prediction():
    # the measured bucket means of the compensator reproduce the predicted
    # drift rate (half the covariance-contracted U table) per unit time
    metric = metric_for("se3", 1.0)
    alpha = alpha_levi_civita(metric)
    cov = np.eye(6)
    cov[0, 4] = cov[4, 0] = 0.8
    cov[1, 3] = cov[3, 1] = -0.8
    u = u_from_metric(metric).coeffs
    predicted = 0.5 * np.einsum("kij,ij->k", u, cov)
    grid = TimeGrid(1.0, 100)
    ens = brownian_ensemble(SE3, grid, 321, 4000, covariance=cov)
    comp = ito_logarithm(strat_exponential(ens), alpha)
    empirical = comp.values[:, -1, :].mean(axis=0) / grid.horizon
    se = comp.values[:, -1, :].std(axis=0, ddof=1) / np.sqrt(ens.replicas)
    assert np.all(np.abs(empirical - predicted) < 4.0 * se + 1e-3)


def test_product_of_martingales_reduced():
    grid = TimeGrid(1.0, 100)
    alpha = alpha_biinvariant(SO3)
    x = ito_exponential(brownian_ensemble(SO3, grid, 21, 2000), alpha)
    y = ito_exponential(brownian_ensemble(SO3, grid, 22, 2000), alpha)
    report = martingale_verdict(product_path(x, y), alpha)
    assert report.passed


def test_verdict_requires_group_ensemble():
    grid = TimeGrid(1.0, 100)
    ens = brownian_ensemble(SO3, grid, 13, 120)
    with pytest.raises(DimensionError):
        martingale_verdict(ens, alpha_biinvariant(SO3))
    with pytest.raises(DimensionError):
        drift_test(strat_exponential(ens))
