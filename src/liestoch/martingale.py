"""Finite-sample martingale verification for group-valued ensembles.

A group path is a martingale for a left-invariant connection exactly when
its compensated logarithm, ``explog.ito_logarithm`` (Stratonovich
logarithm plus half the running alpha-quadratic sum), is a local
martingale in the algebra. The finite-sample rendering used here: split
the grid into time buckets and test, per bucket and per coordinate, that
the ensemble mean increment is zero. ``martingale_test`` runs that
verdict on a Brownian driver it draws and develops itself, streamed over
replica chunks so that only the bucket marks are ever full size. A chunk's
develop is gated tile by tile and keeps no group values: the compensated
logarithm is read from the injected steps
(``explog.development_logarithm``). The verdict is thus a function of the
driver and ``explog._ito_correction`` alone; the develop, which on se3
gates only its so3 rotation block, can change it only by raising.

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
from .errors import DimensionError, NonFiniteError, PowerError
from .explog import development_logarithm, ito_logarithm
from .paths import Ensemble, TimeGrid, brownian_ensemble, expect

DEFAULT_Z_BAND = 4.0
DEFAULT_CELL_FRACTION = 0.95
MIN_REPLICAS = 100

# Replica-steps per chunk of ``martingale_test``: on se3 a chunk's driver,
# steps and logarithm take about 4.7 MB. At 10^4 x 100 steps, chunks of
# 8192 replica-steps ran slower than chunks of 16384 or 32768.
# A chunk holds at least _MIN_CHUNK_ROWS replicas, since the develop makes
# one stacked matmul per step of a chunk: at 128 so3 replicas x 10^4 steps,
# chunks of 1 replica took 4.4 s, of 4 1.2 s and of 32 or 128 0.7 s.
_CHUNK_STEPS = 2**15
_MIN_CHUNK_ROWS = 32


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


def _bucket_width(steps, buckets, replicas):
    """The steps in each of ``buckets`` equal time windows; refuses a bucket
    count that does not divide ``steps`` and a test with too few replicas to
    have power."""
    if buckets < 1:
        raise ValueError(f"buckets must be a positive integer, got {buckets}")
    if steps % buckets != 0:
        raise ValueError(f"buckets ({buckets}) must divide steps ({steps})")
    if replicas < MIN_REPLICAS:
        raise PowerError(f"need at least {MIN_REPLICAS} replicas, got {replicas}")
    return steps // buckets


def drift_test(ensemble: Ensemble, buckets=20, z_band=DEFAULT_Z_BAND,
               connection_label="") -> DriftReport:
    """Zero-drift test on an algebra-valued ensemble.

    Increments are pooled into ``buckets`` equal time windows; per window
    and component, the replica mean and its standard error give a z score.
    Constant cells (zero variance, zero mean) count as z = 0. Means are
    reduced with numpy's pairwise summation over the fixed replica order,
    so verdicts do not depend on how replicas were produced or scheduled.
    Increments too large for their mean or standard error to stay finite
    (the squares overflow from about 1e154) raise NonFiniteError, without
    numpy's warnings.
    """
    expect(ensemble, group_valued=False)
    r = ensemble.replicas
    width = _bucket_width(ensemble.grid.steps, buckets, r)
    marks = ensemble.values[:, ::width]           # (R, buckets+1, n), a view
    inc = np.diff(marks, axis=1)                  # (R, buckets, n)
    with np.errstate(over="ignore", invalid="ignore"):  # refused below
        mean = inc.mean(axis=0)
        stderr = inc.std(axis=0, ddof=1) / np.sqrt(r)
    if not (np.isfinite(mean).all() and np.isfinite(stderr).all()):
        raise NonFiniteError(f"{ensemble.group.name}: a bucket's mean or standard error "
                             "overflowed; the increments are too large to test")
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


def chunk_rows(steps, replicas):
    """The replicas of each chunk ``martingale_test`` draws at once over
    ``steps`` steps: ``max(_MIN_CHUNK_ROWS, _CHUNK_STEPS // steps)``, at
    most ``replicas``."""
    return min(replicas, max(_MIN_CHUNK_ROWS, _CHUNK_STEPS // steps))


def martingale_test(spec, alpha: ConnectionFunction, grid, seed, replicas, scheme="ito",
                    covariance=None, drift=None, buckets=20,
                    z_band=DEFAULT_Z_BAND) -> DriftReport:
    """``martingale_verdict`` of the ``scheme`` ("ito" or "strat")
    development of ``brownian_ensemble(spec, grid, seed, replicas,
    covariance, drift)``, streamed over replica chunks.

    The bucket and power checks run before any draw. Then each chunk of
    ``chunk_rows(steps, replicas)`` replicas, in replica order, is drawn
    (``brownian_ensemble``'s ``first_replica``), developed and gated tile
    by tile without keeping group values, and read back from its steps
    (``explog.development_logarithm``); only its
    (rows, buckets+1, n) bucket marks are kept, so memory is
    O(replicas x buckets x n) plus one chunk's algebra coordinates.
    Every stage treats each replica on its own, and ``drift_test`` reduces
    the stacked marks once, so the report is bit for bit that of the
    unstreamed verdict. A numerical failure in any chunk raises, the gate's
    message naming that chunk's worst defect.
    """
    if scheme not in ("ito", "strat"):
        raise ValueError(f"scheme must be 'ito' or 'strat', got {scheme!r}")
    width = _bucket_width(grid.steps, buckets, replicas)
    marks = np.empty((replicas, buckets + 1, spec.algebra_dim))
    rows = chunk_rows(grid.steps, replicas)
    for start in range(0, replicas, rows):
        driver = brownian_ensemble(spec, grid, seed, min(rows, replicas - start),
                                   covariance=covariance, drift=drift, first_replica=start)
        comp = development_logarithm(driver, alpha, scheme)
        marks[start : start + rows] = comp.values[:, ::width]
        del driver, comp  # not live while the next chunk is drawn
    bucketed = Ensemble(spec, TimeGrid(grid.horizon, buckets), marks)
    return drift_test(bucketed, buckets=buckets, z_band=z_band, connection_label=alpha.label)
