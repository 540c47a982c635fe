import contextlib
import warnings

import numpy as np
import pytest

from liestoch.acceptance import NEGATIVE_CONTROL_COV
from liestoch.campbell import product_path
from liestoch.connections import (
    alpha_biinvariant,
    alpha_levi_civita,
    closed_form_u,
    metric_for,
    u_from_metric,
)
from liestoch.errors import (
    DimensionError,
    ExpOverflowError,
    IntegratorDriftError,
    LieStochError,
    NonFiniteError,
    PowerError,
)
from liestoch.explog import (
    check_drift,
    ito_exponential,
    ito_logarithm,
    strat_exponential,
    strat_logarithm,
)
from liestoch.groups import get_group
from liestoch.linalg import bilinear, mat_exp
from liestoch import explog, groups, martingale
from liestoch.martingale import drift_test, martingale_test, martingale_verdict
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


@pytest.mark.parametrize("size", [1e155, 1e307])
def test_drift_test_refuses_cells_that_overflow(size):
    # at 1e155 only the squares of the standard error overflow; at 1e307
    # the replica sum of the mean does too
    grid = TimeGrid(1.0, 10)
    values = np.cumsum(np.full((100, 11, 3), size / 10), axis=1)
    values[::2] *= 0.5  # not constant cells
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(NonFiniteError, match="so3: a bucket's mean or standard error"):
            drift_test(Ensemble(SO3, grid, values), buckets=5)


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


def _unstreamed(spec, alpha, grid, seed, replicas, scheme="ito", covariance=None,
                drift=None, buckets=20):
    driver = brownian_ensemble(spec, grid, seed, replicas, covariance, drift)
    developed = (ito_exponential(driver, alpha) if scheme == "ito"
                 else strat_exponential(driver))
    return martingale_verdict(developed, alpha, buckets=buckets)


def _assert_same_report(got, want):
    for field in ("mean", "stderr", "z"):
        assert getattr(got, field).tobytes() == getattr(want, field).tobytes(), field
    assert (got.passed, got.cells_within, got.connection, got.replicas) == (
        want.passed, want.cells_within, want.connection, want.replicas)


# At 50 steps a chunk holds 655 replicas: 700 is a full chunk and a short
# one, 1400 two and a short one.
@pytest.mark.parametrize("name, replicas, options", [
    ("so3", 700, {}),
    ("se3", 1400, {}),
    ("sl2r", 700, {}),
    ("se3", 700, {"scheme": "strat"}),
    ("so3", 700, {"drift": np.array([0.3, 0.0, -0.2])}),
    ("se3", 700, {"scheme": "strat", "covariance": NEGATIVE_CONTROL_COV}),
])
def test_streamed_verdict_is_the_unstreamed_verdict_bit_for_bit(name, replicas, options):
    spec = get_group(name)
    alpha = alpha_levi_civita(metric_for(spec, 1.0))
    grid = TimeGrid(1.0, 50)
    assert replicas % max(martingale._MIN_CHUNK_ROWS,
                          martingale._CHUNK_STEPS // grid.steps) != 0
    got = martingale_test(spec, alpha, grid, 41, replicas, buckets=10, **options)
    _assert_same_report(got, _unstreamed(spec, alpha, grid, 41, replicas, buckets=10,
                                         **options))


@pytest.mark.parametrize("min_rows, rows", [(1, 1), (32, 32)])
def test_streamed_verdict_over_chunks_smaller_than_a_path(monkeypatch, min_rows, rows):
    # paths longer than a chunk: one replica per chunk, or the floor of
    # rows that keeps the develop's per-step calls stacked
    monkeypatch.setattr(martingale, "_CHUNK_STEPS", 64)
    monkeypatch.setattr(martingale, "_MIN_CHUNK_ROWS", min_rows)
    draws = []
    monkeypatch.setattr(martingale, "brownian_ensemble",
                        lambda *a, **k: draws.append(a[3]) or brownian_ensemble(*a, **k))
    alpha = alpha_levi_civita(metric_for(SE3, 1.0))
    grid = TimeGrid(1.0, 100)
    got = martingale_test(SE3, alpha, grid, 7, 101, buckets=5)
    assert draws == [rows] * (101 // rows) + [101 % rows] * (101 % rows > 0)
    _assert_same_report(got, _unstreamed(SE3, alpha, grid, 7, 101, buckets=5))


def test_streamed_verdict_refuses_before_any_draw(monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("the driver was drawn")

    monkeypatch.setattr(martingale, "brownian_ensemble", never)
    alpha = alpha_biinvariant(SO3)
    grid = TimeGrid(1.0, 100)
    with pytest.raises(PowerError):
        martingale_test(SO3, alpha, grid, 1, 99)
    with pytest.raises(ValueError, match="must divide"):
        martingale_test(SO3, alpha, grid, 1, 200, buckets=7)
    with pytest.raises(ValueError, match="positive integer"):
        martingale_test(SO3, alpha, grid, 1, 200, buckets=0)
    with pytest.raises(ValueError, match="scheme"):
        martingale_test(SO3, alpha, grid, 1, 200, scheme="midpoint")


def test_streamed_verdict_keeps_ito_equal_to_strat_for_a_biinvariant_connection():
    alpha = alpha_biinvariant(SO3)
    grid = TimeGrid(1.0, 40)
    ito = martingale_test(SO3, alpha, grid, 3, 1000)
    strat = martingale_test(SO3, alpha, grid, 3, 1000, scheme="strat")
    _assert_same_report(ito, strat)


# The develop gates each product tile as it is made. At 120 se3 replicas a
# tile is 34 steps, so 100 steps take three tiles, and martingale_test
# draws one chunk: both paths develop the same tiles.
GATE_GRID = TimeGrid(1.0, 100)
GATE_REPLICAS = 120


def _gate_messages(alpha, scheme="ito"):
    """The IntegratorDriftError messages of the value-keeping develop and
    of the streamed verdict on one driver."""
    driver = brownian_ensemble(SE3, GATE_GRID, 5, GATE_REPLICAS)
    develop = ito_exponential if scheme == "ito" else lambda m, alpha: strat_exponential(m)
    with pytest.raises(IntegratorDriftError) as kept:
        develop(driver, alpha)
    with pytest.raises(IntegratorDriftError) as streamed:
        martingale_test(SE3, alpha, GATE_GRID, 5, GATE_REPLICAS, scheme=scheme)
    return str(kept.value), str(streamed.value)


def test_drift_gate_names_the_worst_defect_over_all_tiles(monkeypatch):
    alpha = alpha_levi_civita(metric_for(SE3, 1.0))

    def leaky(a, kernel):
        # every injected step's rotation block leaves the group by a
        # relative 1e-5; its bottom row stays exact, as the catalog exp's
        # does, and the streamed gate's so3 block takes the same scaling
        out = mat_exp(a, kernel)
        out[..., :3, :3] *= 1 + 1e-5
        return out

    monkeypatch.setattr(explog, "mat_exp", leaky)
    with monkeypatch.context() as ungated:
        ungated.setattr(explog, "_check_defect", lambda spec, defect: None)
        values = ito_exponential(brownian_ensemble(SE3, GATE_GRID, 5, GATE_REPLICAS),
                                 alpha).values
    messages = {}
    for name, upto in (("all", None), ("first tile", 35)):
        with pytest.raises(IntegratorDriftError) as full:
            check_drift(SE3, values[:, :upto])
        messages[name] = str(full.value)
    kept, streamed = _gate_messages(alpha)
    assert kept == streamed == messages["all"] != messages["first tile"]
    assert kept.startswith("se3: integrator drifted off the group (membership defect ")


@pytest.mark.parametrize("scheme", ["ito", "strat"])
def test_a_nan_step_fails_closed_on_both_paths(monkeypatch, scheme):
    calls = []

    def nan_in_the_second_tile(a, kernel):
        out = mat_exp(a, kernel)
        calls.append(1)
        if len(calls) % 3 == 2:  # each path makes three tiles
            out[5, 7, 0, 0] = np.nan
        return out

    monkeypatch.setattr(explog, "mat_exp", nan_in_the_second_tile)
    kept, streamed = _gate_messages(alpha_levi_civita(metric_for(SE3, 1.0)), scheme)
    assert kept == streamed == ("se3: integrator drifted off the group (membership defect "
                                "nan > 1.0e-06); use a smaller dt")
    assert len(calls) == 6


@pytest.mark.parametrize("scheme", ["ito", "strat"])
def test_streamed_verdict_keeps_no_group_values(monkeypatch, scheme):
    alpha = alpha_levi_civita(metric_for(SE3, 1.0))
    want = _unstreamed(SE3, alpha, GATE_GRID, 9, GATE_REPLICAS, scheme=scheme)

    def never(spec, steps):
        raise AssertionError("the develop kept group values")

    monkeypatch.setattr(explog, "_develop", never)
    got = martingale_test(SE3, alpha, GATE_GRID, 9, GATE_REPLICAS, scheme=scheme)
    _assert_same_report(got, want)


# 120 replicas: three tiles of 34 steps; 4100 replicas: two replica blocks
# (4096 and 4) of one-step tiles
@pytest.mark.parametrize("replicas, steps", [(120, 100), (4100, 3)])
@pytest.mark.parametrize("sd", [0.1, 0.5, 1.5])
def test_se3_rotation_block_is_the_so3_develop_bit_for_bit(replicas, steps, sd):
    # what lets se3's gate develop its so3 block alone
    coords = np.random.default_rng(int(10 * sd)).normal(0.0, sd, (replicas, steps, 6))
    full = explog._develop(SE3, coords)
    block = explog._develop(SO3, coords[..., :3])
    assert full[..., :3, :3].tobytes() == block.tobytes()
    assert (full[..., 3, :] == [0.0, 0.0, 0.0, 1.0]).all()
    worst = np.max(groups.membership_defect(SE3, full))
    assert worst.tobytes() == np.max(groups.membership_defect(SO3, block)).tobytes()
    assert 0.0 < worst < 1e-12


def _gated_rows(monkeypatch, coords):
    """The rows whose product ``_gate_develop`` ran on se3 steps."""
    rows = []
    tiles = explog._product_tiles
    monkeypatch.setattr(explog, "_product_tiles",
                        lambda spec, *a: rows.append(spec.name) or tiles(spec, *a))
    with contextlib.suppress(LieStochError, ValueError):  # pass or fail, the rows ran
        explog._gate_develop(SE3, coords)
    return rows


def test_gate_develops_the_block_while_the_translations_stay_finite(monkeypatch):
    coords = np.random.default_rng(3).normal(0.0, 0.1, (40, 100, 6))
    coords[7, 20] = 1e101  # 100 steps of 6 such coordinates stay within the bound
    assert _gated_rows(monkeypatch, coords) == ["so3"]
    # a coordinate past it, in the rotation or the translation, or a NaN:
    # the full product
    for coord, value in ((0, 1e102), (4, 1e102), (5, np.nan)):
        big = coords.copy()
        big[7, 20, coord] = value
        assert _gated_rows(monkeypatch, big) == ["se3"]


# se3 drifts with no Ito correction: every driver value is finite and so
# is every step.
@pytest.mark.parametrize("drift, error, message", [
    # each step turns by 100 rad: |w|^2 |u| overflows inside the step's
    # exponential, though a replica's translations sum to only 2e306
    ([1e4, 0, 0, 2e306, 0, 0], ExpOverflowError,
     "mat_exp: result overflowed double precision"),
    # the rotations carry the translation past the largest double
    ([0, 0, 0, 1.5e308, 1.5e308, 1.5e308], IntegratorDriftError,
     "se3: integrator drifted off the group (membership defect nan > 1.0e-06); "
     "use a smaller dt"),
])
@pytest.mark.parametrize("scheme", ["ito", "strat"])
def test_huge_translations_are_refused_as_the_full_develop_refuses(drift, error, message,
                                                                    scheme):
    alpha = alpha_biinvariant(SE3)
    driver = brownian_ensemble(SE3, GATE_GRID, 1, 100, drift=np.array(drift, float))
    develop = ito_exponential if scheme == "ito" else lambda m, alpha: strat_exponential(m)
    with pytest.raises(error) as kept:
        develop(driver, alpha)
    with pytest.raises(error) as streamed:
        martingale_test(SE3, alpha, GATE_GRID, 1, 100, scheme=scheme,
                        drift=np.array(drift, float), buckets=5)
    assert str(kept.value) == str(streamed.value) == message
