import re

import numpy as np
import pytest

from liestoch import campbell, explog
from liestoch.campbell import (
    CHReport,
    ad_integral,
    ch_ladder,
    ch_residual,
    log_product_ladder,
    log_product_residual,
    product_path,
)
from liestoch.connections import alpha_biinvariant, alpha_levi_civita, metric_for
from liestoch.errors import (
    GridMismatchError,
    HypothesisError,
    IntegratorDriftError,
    PowerError,
)
from liestoch.explog import ito_exponential, strat_exponential
from liestoch.groups import adjoint_matrices, get_group
from liestoch.linalg import frobenius_dist, mat_exp
from liestoch.paths import Ensemble, TimeGrid, brownian_ensemble
from test_groups import random_group_element

SO3 = get_group("so3")
SE3 = get_group("se3")
N3 = get_group("n3")
RNG = np.random.default_rng(29)


def line_path(spec, grid, direction):
    return Ensemble(spec, grid, np.outer(grid.times(), direction)[None])


def _replicas(ens):
    """Each replica of an ensemble as a one-replica ensemble."""
    return [ens.with_values(ens.values[r:r + 1]) for r in range(ens.replicas)]


def identity_path(spec, grid):
    return Ensemble(
        spec, grid,
        np.broadcast_to(spec.identity, (grid.steps + 1,) + spec.identity.shape).copy()[None],
    )


def test_ad_integral_identity_path_returns_driver():
    grid = TimeGrid(1.0, 60)
    m = brownian_ensemble(SO3, grid, 1, 1)
    out = ad_integral(identity_path(SO3, grid), m)
    assert np.max(np.abs(out.values - m.values)) < 1e-14


def test_ad_integral_constant_conjugator_on_line():
    grid = TimeGrid(1.0, 50)
    a = np.array([0.7, -0.2, 0.4])
    g = random_group_element(SO3, RNG)
    const = Ensemble(SO3, grid, np.broadcast_to(g, (51, 3, 3)).copy()[None])
    out = ad_integral(const, line_path(SO3, grid, a))
    expected = np.outer(grid.times(), adjoint_matrices(SO3, g) @ a)
    assert np.max(np.abs(out.values[0] - expected)) < 1e-12


def test_ad_integral_linearity_in_driver():
    grid = TimeGrid(1.0, 40)
    y = strat_exponential(brownian_ensemble(SO3, grid, 3, 1))
    m1, m2 = _replicas(brownian_ensemble(SO3, grid, 4, 2))
    combined = Ensemble(SO3, grid, (2.0 * m1.values[0] + m2.values[0])[None])
    lhs = ad_integral(y, combined).values
    rhs = 2.0 * ad_integral(y, m1).values + ad_integral(y, m2).values
    assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_ad_integral_rejects_bad_rule_and_grid():
    grid = TimeGrid(1.0, 10)
    y = strat_exponential(brownian_ensemble(SO3, grid, 0, 1))
    m = brownian_ensemble(SO3, grid, 1, 1)
    with pytest.raises(ValueError):
        ad_integral(y, m, rule="simpson")
    other = brownian_ensemble(SO3, TimeGrid(1.0, 20), 1, 1)
    with pytest.raises(GridMismatchError):
        ad_integral(y, other)


def test_ch_residual_vanishes_when_second_driver_is_zero():
    grid = TimeGrid(1.0, 30)
    alpha = alpha_biinvariant(SO3)
    m = brownian_ensemble(SO3, grid, 5, 1)
    zero = Ensemble(SO3, grid, np.zeros((31, 3))[None])
    res = ch_residual(m, zero, alpha, enforce_hypotheses=False)
    assert np.max(res) < 1e-12


def test_ch_residual_commuting_deterministic_lines():
    # X and Z directions of the nilpotent group commute: the classical
    # identity is exact and the residual is pure roundoff
    grid = TimeGrid(1.0, 25)
    alpha = alpha_biinvariant(N3)
    m = line_path(N3, grid, np.array([0.8, 0.0, 0.0]))
    n = line_path(N3, grid, np.array([0.0, 0.0, -0.5]))
    res = ch_residual(m, n, alpha, enforce_hypotheses=False)
    assert np.max(res) < 1e-10


def test_ch_residual_requires_quadratic_free_alpha():
    grid = TimeGrid(1.0, 20)
    se3 = get_group("se3")
    alpha = alpha_levi_civita(metric_for("se3", 1.0))
    m, n = _replicas(brownian_ensemble(se3, grid, 1, 2))
    with pytest.raises(HypothesisError, match="alpha"):
        ch_residual(m, n, alpha)


def test_ch_residual_requires_null_qv():
    grid = TimeGrid(1.0, 2000)
    alpha = alpha_biinvariant(SO3)
    m = brownian_ensemble(SO3, grid, 2, 1)
    with pytest.raises(HypothesisError, match="quadratic variation"):
        ch_residual(m, m, alpha)
    # override runs anyway
    res = ch_residual(m, m, alpha, enforce_hypotheses=False)
    assert np.all(np.isfinite(res))


def test_ch_residual_deterministic_reproducibility():
    grid = TimeGrid(1.0, 100)
    alpha = alpha_biinvariant(SO3)
    m, n = _replicas(brownian_ensemble(SO3, grid, 6, 2))
    r1 = ch_residual(m, n, alpha, enforce_hypotheses=False)
    r2 = ch_residual(m, n, alpha, enforce_hypotheses=False)
    assert np.array_equal(r1, r2)


def test_ch_ladder_midpoint_beats_leftpoint():
    alpha = alpha_biinvariant(SO3)
    mid = ch_ladder(SO3, alpha, dts=(8e-3, 4e-3), replicas=48, base_seed=100)
    left = ch_ladder(SO3, alpha, dts=(8e-3, 4e-3), replicas=48, base_seed=100, rule="ito")
    assert mid.monotone_within_se()
    assert left.monotone_within_se()
    # left-point converges at order 1/2 only; midpoint is far tighter
    assert mid.mean_terminal[-1] < 0.2 * left.mean_terminal[-1]


def test_log_product_residual_identity_cases():
    grid = TimeGrid(1.0, 40)
    alpha = alpha_biinvariant(SO3)
    x = strat_exponential(brownian_ensemble(SO3, grid, 7, 1))
    e = identity_path(SO3, grid)
    assert np.max(log_product_residual(x, e, alpha, enforce_hypotheses=False)) < 1e-12
    assert np.max(log_product_residual(e, x, alpha, enforce_hypotheses=False)) < 1e-12


def test_log_product_ladder_monotone():
    alpha = alpha_biinvariant(SO3)
    rep = log_product_ladder(SO3, alpha, dts=(8e-3, 4e-3), replicas=48, base_seed=200)
    assert rep.kind == "logarithm-identity"
    assert rep.monotone_within_se()


def test_product_path_cases():
    grid = TimeGrid(1.0, 80)
    x = strat_exponential(brownian_ensemble(SO3, grid, 8, 1))
    e = identity_path(SO3, grid)
    assert np.array_equal(product_path(x, e).values, x.values)
    inv = Ensemble(SO3, grid, np.swapaxes(x.values[0], -1, -2)[None])
    prod = product_path(x, inv)
    assert float(np.max(frobenius_dist(prod.values, np.eye(3)))) < 1e-12


def test_product_path_membership_for_ensembles():
    grid = TimeGrid(1.0, 100)
    ex = strat_exponential(brownian_ensemble(SO3, grid, 1, 8))
    ey = strat_exponential(brownian_ensemble(SO3, grid, 2, 8))
    prod = product_path(ex, ey)
    from liestoch.groups import membership_defect

    assert float(np.max(membership_defect(SO3, prod.values))) < 1e-6


def test_product_path_gate_rejects_nan():
    # an ensemble refuses NaN values, so the product's own NaN comes from
    # overflow: entries near 1e200 multiply to inf, and inf - inf is NaN
    grid = TimeGrid(1.0, 10)
    ex = strat_exponential(brownian_ensemble(SO3, grid, 1, 4))
    values = ex.values.copy()
    values[2, 5, 1, 1] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        ex.with_values(values)
    values[2, 5, 1, 1] = 1e200
    with pytest.raises(IntegratorDriftError):
        product_path(ex.with_values(values), ex.with_values(values))


def _report(mean, maximum):
    return CHReport(
        group="so3", connection="bi", kind="exponential-identity", rule="ito",
        dt_ladder=(1e-2,), mean_terminal=mean, max_terminal=maximum,
        stderr_terminal=(0.01,), replicas=4, base_seed=0,
    )


def test_ch_report_validation():
    with pytest.raises(Exception):
        _report((0.1, 0.2), (0.1,))
    assert _report((0.0,), (0.1,)).monotone_within_se()
    for mean, maximum in [((-0.1,), (0.1,)), ((np.nan,), (0.1,)), ((0.1,), (np.nan,))]:
        with pytest.raises(ValueError, match="non-negative"):
            _report(mean, maximum)


# Oracles for the stacked develop: each ensemble developed on its own.


def _oracle_ch_residual(m, n, alpha, rule):
    lhs = ito_exponential(Ensemble(m.group, m.grid, m.values + n.values), alpha)
    y = ito_exponential(n, alpha)
    x = ito_exponential(ad_integral(y, m, rule=rule), alpha)
    return frobenius_dist(lhs.values, x.values @ y.values)


def _develop_apart(m, n, alpha, summed):
    first = Ensemble(m.group, m.grid, m.values + n.values) if summed else m
    return ito_exponential(first, alpha), ito_exponential(n, alpha)


@pytest.mark.parametrize("rule", ["ito", "midpoint"])
@pytest.mark.parametrize("replicas", [33, 1])
@pytest.mark.parametrize("spec", [SO3, SE3], ids=["so3", "se3"])
def test_ch_residual_stacked_develop_is_bitwise_the_separate_develops(spec, replicas, rule):
    grid = TimeGrid(1.0, 150)
    alpha = alpha_biinvariant(spec)
    m = brownian_ensemble(spec, grid, 11, replicas)
    n = brownian_ensemble(spec, grid, 12, replicas)
    res = ch_residual(m, n, alpha, rule=rule, significance=1 - 1e-6)
    assert res.shape == (replicas, 151)
    assert np.array_equal(res, _oracle_ch_residual(m, n, alpha, rule))


@pytest.mark.parametrize("replicas", [33])
@pytest.mark.parametrize("spec", [SO3, SE3], ids=["so3", "se3"])
def test_ladders_with_the_stacked_develop_equal_the_separate_develops(
        monkeypatch, spec, replicas):
    alpha = alpha_biinvariant(spec)
    kw = dict(dts=(0.02, 0.01), replicas=replicas, base_seed=40, significance=1 - 1e-6)
    stacked = [ch_ladder(spec, alpha, **kw), log_product_ladder(spec, alpha, **kw)]
    monkeypatch.setattr(campbell, "_develop_pair", _develop_apart)
    apart = [ch_ladder(spec, alpha, **kw), log_product_ladder(spec, alpha, **kw)]
    assert repr(stacked) == repr(apart)


@pytest.mark.parametrize("spec", [SO3, SE3], ids=["so3", "se3"])
def test_ladders_refuse_fewer_than_two_replicas(monkeypatch, spec):
    # one replica has no standard error: the ladders used to return a NaN
    # stderr_terminal (np.std(ddof=1) warned); they refuse before any draw,
    # as the CLI's campbell command does
    monkeypatch.setattr(campbell, "brownian_ensemble",
                        lambda *a, **k: pytest.fail("the driver was drawn"))
    alpha = alpha_biinvariant(spec)
    for ladder in (ch_ladder, log_product_ladder):
        for replicas in (1, 0):
            with pytest.raises(PowerError, match=f"at least 2 replicas.*got {replicas}"):
                ladder(spec, alpha, dts=(0.02, 0.01), replicas=replicas)


@pytest.mark.parametrize("dts", [(0.3,), (0.02, 0.03), (3.0,)])
def test_ladders_refuse_a_rung_that_does_not_divide_the_horizon(monkeypatch, dts):
    # 0.3 ran round(1 / 0.3) = 3 steps, i.e. dt = 1/3, and reported 0.3;
    # 3.0 rounded to 0 steps and died in TimeGrid. Every rung is checked
    # before any runs.
    monkeypatch.setattr(campbell, "brownian_ensemble",
                        lambda *a, **k: pytest.fail("the driver was drawn"))
    alpha = alpha_biinvariant(SO3)
    bad = dts[-1]
    for ladder in (ch_ladder, log_product_ladder):
        with pytest.raises(ValueError,
                           match=re.escape(f"rung {bad!r} is not a positive step dividing")):
            ladder(SO3, alpha, dts=dts, replicas=4)


def _jump(ens, size, replica=1, step=10):
    """The ensemble with a jump of ``size`` in its first coordinate."""
    values = ens.values.copy()
    values[replica, step + 1:, 0] += size
    return ens.with_values(values)


def _leave_the_group_on_jumps(monkeypatch):
    """Each develop step as large as a jump leaves the group by 1e-3, and
    forming a residual fails the test."""
    def leaky(a, kernel):
        out = mat_exp(a, kernel)
        out[np.abs(a).max(axis=(-2, -1)) > 3.0] *= 1 + 1e-3
        return out

    def formed(*args, **kwargs):
        pytest.fail("a residual was formed past the membership gate")

    monkeypatch.setattr(explog, "mat_exp", leaky)
    monkeypatch.setattr(campbell, "ad_integral", formed)
    monkeypatch.setattr(campbell, "log_product_residual", formed)


@pytest.mark.parametrize("half", ["sum", "second"])
@pytest.mark.parametrize("spec", [SO3, SE3], ids=["so3", "se3"])
def test_ch_residual_gate_covers_both_halves_of_the_stack(monkeypatch, spec, half):
    grid = TimeGrid(1.0, 100)
    alpha = alpha_biinvariant(spec)
    m = brownian_ensemble(spec, grid, 13, 3)
    n = brownian_ensemble(spec, grid, 14, 3)
    # the jump is in m + n alone, or in n alone (m cancels it in the sum)
    m, n = (_jump(m, 7.0), n) if half == "sum" else (_jump(m, -7.0), _jump(n, 7.0))
    _leave_the_group_on_jumps(monkeypatch)
    with pytest.raises(IntegratorDriftError):
        ch_residual(m, n, alpha, enforce_hypotheses=False)


@pytest.mark.parametrize("side", [0, 1])
@pytest.mark.parametrize("spec", [SO3, SE3], ids=["so3", "se3"])
def test_log_ladder_gate_covers_both_halves_of_the_stack(monkeypatch, spec, side):
    draw = campbell.brownian_ensemble

    def jumpy_draw(group, grid, seed, replicas):
        ens = draw(group, grid, seed, replicas)
        return _jump(ens, 7.0) if seed == 50 + side else ens

    monkeypatch.setattr(campbell, "brownian_ensemble", jumpy_draw)
    _leave_the_group_on_jumps(monkeypatch)
    with pytest.raises(IntegratorDriftError):
        log_product_ladder(spec, alpha_biinvariant(spec), dts=(0.01,), replicas=3, base_seed=50)


def test_product_path_refuses_a_non_finite_product():
    # members whose translations add past the largest double: the product is
    # not scanned for finiteness again, so the gate is what refuses it
    values = np.broadcast_to(np.eye(4), (2, 3, 4, 4)).copy()
    values[1, 2, 0, 3] = 1.5e308
    x = Ensemble(SE3, TimeGrid(1.0, 2), values)
    with pytest.raises(IntegratorDriftError, match=r"^se3: .*membership defect nan"):
        product_path(x, x)
