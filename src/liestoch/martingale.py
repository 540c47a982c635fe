"""Finite-sample martingale verification for group-valued ensembles.

A group path is a martingale for a left-invariant connection exactly when
its compensated logarithm, ``explog.ito_logarithm`` (Stratonovich
logarithm plus half the running alpha-quadratic sum), is a local
martingale in the algebra. The finite-sample rendering used here: split
the grid into time buckets and test, per bucket and per coordinate, that
the ensemble mean increment is zero.

The decision rule: a cell fails when its mean is more than
``z_band = 4`` standard errors from zero, and the ensemble verdict is
"pass" when at least 95% of the buckets-by-components cells are within the
band. This keeps the false-failure rate of a true martingale ensemble well
under 5% at the default shape (20 buckets by 6 components) while flagging
drifts far below visual scale. The law of the metric Brownian motion is
checked through its second moment by
``acceptance.criterion_metric_brownian_law``, not here.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .connections import ConnectionFunction
from .errors import DimensionError, PowerError
from .explog import ito_logarithm
from .paths import Ensemble, expect

DEFAULT_Z_BAND = 4.0
DEFAULT_CELL_FRACTION = 0.95
MIN_REPLICAS = 100


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
               connection_label="") -> DriftReport:
    """Zero-drift test on an algebra-valued ensemble.

    Increments are pooled into ``buckets`` equal time windows; per window
    and component, the replica mean and its standard error give a z score.
    Constant cells (zero variance, zero mean) count as z = 0. Means are
    reduced with numpy's pairwise summation over the fixed replica order,
    so verdicts do not depend on how replicas were produced or scheduled.
    """
    expect(ensemble, group_valued=False)
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
    passed = within >= DEFAULT_CELL_FRACTION * z.size
    return DriftReport(
        group=ensemble.group.name,
        connection=connection_label,
        replicas=r,
        buckets=buckets,
        mean=mean,
        stderr=stderr,
        z=z,
        z_band=z_band,
        min_cell_fraction=DEFAULT_CELL_FRACTION,
        cells_within=within,
        passed=bool(passed),
    )


def martingale_verdict(ensemble: Ensemble, alpha: ConnectionFunction, buckets=20,
                       z_band=DEFAULT_Z_BAND) -> DriftReport:
    """Drift test applied to the compensated logarithms of a group-valued
    ensemble, under the flat algebra connection."""
    expect(ensemble, group_valued=True)
    comp = ito_logarithm(ensemble, alpha)
    return drift_test(comp, buckets=buckets, z_band=z_band, connection_label=alpha.label)
