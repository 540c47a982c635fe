"""Finite-sample martingale verification for group-valued ensembles.

A group path is a martingale for a left-invariant connection exactly when
its compensated logarithm (Stratonovich logarithm plus half the running
alpha-quadratic sum) is a local martingale in the algebra. The finite-
sample rendering used here: split the grid into time buckets and test, per
bucket and per coordinate, that the ensemble mean increment is zero.

The default decision rule: a cell fails when its mean is more than
``z_band = 4`` standard errors from zero, and the ensemble verdict is
"pass" when at least 95% of the buckets-by-components cells are within the
band. This keeps the false-failure rate of a true martingale ensemble well
under 5% at the default shape (20 buckets by 6 components) while flagging
drifts far below visual scale.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .calculus import quadratic_integral
from .connections import ConnectionFunction, MetricSpec
from .errors import DimensionError, HypothesisError, PowerError
from .explog import ito_logarithm
from .paths import Ensemble

DEFAULT_Z_BAND = 4.0
DEFAULT_CELL_FRACTION = 0.95
MIN_REPLICAS = 100


def compensator(x, alpha: ConnectionFunction, algebra_connection=None):
    """Compensated logarithm of a group path or ensemble.

    This is the Ito logarithm with the flat algebra connection unless one
    is supplied: the Stratonovich logarithm plus half the running
    alpha(dL, dL) sum. A group path is a martingale for the connection
    behind ``alpha`` precisely when this object is drift-free.
    """
    return ito_logarithm(x, alpha, algebra_connection)


@dataclass(frozen=True)
class DriftReport:
    """Bucketed zero-drift test summary for an algebra-valued ensemble."""

    group: str
    connection: str
    replicas: int
    buckets: int
    mean: np.ndarray        # (buckets, n) ensemble mean increments
    stderr: np.ndarray      # (buckets, n) standard errors
    z: np.ndarray           # (buckets, n) studentized means
    z_band: float
    min_cell_fraction: float
    cells_within: int
    passed: bool

    def __post_init__(self):
        if self.z.shape != (self.buckets, self.mean.shape[1]):
            raise DimensionError("z table must be buckets x components")

    @property
    def max_abs_z(self):
        return float(np.max(np.abs(self.z)))

    @property
    def fraction_within(self):
        return self.cells_within / self.z.size

    def __bool__(self):
        return self.passed


def drift_test(ensemble: Ensemble, buckets=20, z_band=DEFAULT_Z_BAND,
               min_cell_fraction=DEFAULT_CELL_FRACTION, connection_label="") -> DriftReport:
    """Zero-drift test on an algebra-valued ensemble.

    Increments are pooled into ``buckets`` equal time windows; per window
    and component, the replica mean and its standard error give a z score.
    Constant cells (zero variance, zero mean) count as z = 0. Means are
    reduced with numpy's pairwise summation over the fixed replica order,
    so verdicts do not depend on how replicas were produced or scheduled.
    """
    if ensemble.is_group_valued:
        raise DimensionError("drift_test expects an algebra-valued ensemble")
    if buckets < 1:
        raise ValueError(f"buckets must be a positive integer, got {buckets}")
    steps = ensemble.grid.steps
    if steps % buckets != 0:
        raise ValueError(f"buckets ({buckets}) must divide steps ({steps})")
    r = ensemble.replicas
    if r < MIN_REPLICAS:
        raise PowerError(f"need at least {MIN_REPLICAS} replicas, got {r}")
    edges = np.arange(0, steps + 1, steps // buckets)
    marks = ensemble.values[:, edges, :]          # (R, buckets+1, n)
    inc = np.diff(marks, axis=1)                  # (R, buckets, n)
    mean = inc.mean(axis=0)
    stderr = inc.std(axis=0, ddof=1) / np.sqrt(r)
    z = np.zeros_like(mean)
    nonzero = stderr > 0
    z[nonzero] = mean[nonzero] / stderr[nonzero]
    z[~nonzero & (mean != 0)] = np.inf
    within = int(np.count_nonzero(np.abs(z) <= z_band))
    passed = within >= min_cell_fraction * z.size
    return DriftReport(
        group=ensemble.group.name,
        connection=connection_label,
        replicas=r,
        buckets=buckets,
        mean=mean,
        stderr=stderr,
        z=z,
        z_band=z_band,
        min_cell_fraction=min_cell_fraction,
        cells_within=within,
        passed=bool(passed),
    )


def martingale_verdict(ensemble: Ensemble, alpha: ConnectionFunction,
                       algebra_connection=None, buckets=20,
                       z_band=DEFAULT_Z_BAND,
                       min_cell_fraction=DEFAULT_CELL_FRACTION) -> DriftReport:
    """Drift test applied to the compensators of a group-valued ensemble."""
    if not ensemble.is_group_valued:
        raise DimensionError("martingale_verdict expects a group-valued ensemble")
    comp = compensator(ensemble, alpha, algebra_connection)
    return drift_test(
        comp,
        buckets=buckets,
        z_band=z_band,
        min_cell_fraction=min_cell_fraction,
        connection_label=alpha.label,
    )


@dataclass(frozen=True)
class QVLinearityReport:
    """Brownian trace-condition check: realized metric quadratic integral
    against its linear-growth law n*t."""

    group: str
    lam: float
    replicas: int
    horizon: float
    mean_terminal: float
    expected_terminal: float
    ratio: float
    tolerance: float
    passed: bool

    def __bool__(self):
        return self.passed


def qv_linearity_check(ensemble: Ensemble, metric: MetricSpec, tolerance=0.05,
                       check_driver=True) -> QVLinearityReport:
    """Check that the realized Gram quadratic integral grows like n*t.

    For group paths developed from a Brownian driver whose covariance is
    the inverse Gram matrix (the metric's Brownian motion in left
    trivialization), the quadratic integral of the Gram bilinear must hit
    ``n * horizon`` on average. ``check_driver`` enforces that covariance
    precondition from the ensemble's recorded driver.
    """
    if not ensemble.is_group_valued:
        raise DimensionError("qv_linearity_check expects a group-valued ensemble")
    n = ensemble.group.algebra_dim
    if check_driver:
        if ensemble.driver_covariance is None:
            raise HypothesisError(
                "qv_linearity_check: ensemble does not record a Brownian driver"
            )
        expected_cov = np.linalg.inv(metric.gram)
        if not np.allclose(ensemble.driver_covariance, expected_cov, atol=1e-9):
            raise HypothesisError(
                "qv_linearity_check: driver covariance is not the inverse Gram "
                "matrix of the metric"
            )
    running = quadratic_integral(metric.gram, ensemble)
    terminal = running[..., -1]
    mean_terminal = float(np.mean(terminal))
    expected = n * ensemble.grid.horizon
    ratio = mean_terminal / expected
    return QVLinearityReport(
        group=ensemble.group.name,
        lam=metric.lam,
        replicas=ensemble.replicas,
        horizon=ensemble.grid.horizon,
        mean_terminal=mean_terminal,
        expected_terminal=expected,
        ratio=ratio,
        tolerance=tolerance,
        passed=bool(abs(ratio - 1.0) <= tolerance),
    )
