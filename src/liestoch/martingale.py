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
logarithm is read from the injected steps (``explog.injected_steps``, then
``explog.step_logarithm``). The verdict is thus a function of the driver
and ``explog._ito_correction`` alone; the develop, which on se3 gates only
its so3 rotation block, can change it only by raising. With ``workers`` of
2 or more, a forked producer process draws each chunk and takes its
injected steps while the calling process gates and reads back the one
before, byte for byte the serial run.

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

import math
import mmap
import os
import signal
import sys
from dataclasses import dataclass

import numpy as np

from .connections import ConnectionFunction
from .errors import DimensionError, NonFiniteError, PowerError
from .explog import injected_steps, ito_logarithm, step_logarithm
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

# The chunks a pipelined ``martingale_test`` holds at once: the ring's two
# slots, the chunk the producer is drawing and the chunk being read back.
PIPELINE_CHUNKS = 4
# The pipeline runs from this many chunks' worth of replicas: a pipeline
# call costs about 8 ms more than the serial run (fork, ring faults, reap;
# measured with empty stages), and it saves about the producer's share of
# each chunk after the first. Pipeline over serial wall time, in process,
# medians of 9 to 21 alternating calls on a 2-CPU host, at 100 steps
# (chunks of 327 replicas):
#   chunks   so3          se3          sl2r         n3
#   2        1.03         1.08         1.15         1.12
#   3        1.00         0.90-0.95    0.94         1.02
#   4        0.86-1.00    0.77-0.82    0.91-1.02    0.86-0.87
#   5        0.85-0.91    0.74-0.79    0.86         0.89
# and at 5 chunks se2 0.85, e11 0.95, se3 at 1000 steps 0.98, so3 at 20
# steps 0.93. Below it the fixed cost loses or only ties.
PIPELINE_MIN_CHUNKS = 5
# From Python 3.12, os.fork warns in a process with other OS threads.
_FORK_WARNS_WITH_THREADS = sys.version_info >= (3, 12)


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


def chunks_held(steps, replicas, workers):
    """The chunks of ``chunk_rows(steps, replicas)`` replicas that
    ``martingale_test`` may hold at once: ``PIPELINE_CHUNKS`` when its
    ``workers`` may run it as a pipeline (at least 2 workers, and replicas
    for at least ``PIPELINE_MIN_CHUNKS`` whole chunks), else 1. It does not
    ask the host, so a size check built on it accepts or refuses a run alike
    on every host."""
    if workers >= 2 and replicas >= PIPELINE_MIN_CHUNKS * chunk_rows(steps, replicas):
        return PIPELINE_CHUNKS
    return 1


def martingale_test(spec, alpha: ConnectionFunction, grid, seed, replicas, scheme="ito",
                    covariance=None, drift=None, buckets=20,
                    z_band=DEFAULT_Z_BAND, workers=1) -> DriftReport:
    """``martingale_verdict`` of the ``scheme`` ("ito" or "strat")
    development of ``brownian_ensemble(spec, grid, seed, replicas,
    covariance, drift)``, streamed over replica chunks.

    The bucket and power checks run before any draw. Then each chunk of
    ``chunk_rows(steps, replicas)`` replicas, in replica order, is drawn
    (``brownian_ensemble``'s ``first_replica``), its injected steps taken
    (``explog.injected_steps``), developed and gated tile by tile without
    keeping group values, and read back from its steps
    (``explog.step_logarithm``); only its (rows, buckets+1, n) bucket marks
    are kept, so memory is O(replicas x buckets x n) plus one chunk's
    algebra coordinates. Every stage treats each replica on its own, and
    ``drift_test`` reduces the stacked marks once, so the report is bit for
    bit that of the unstreamed verdict. A numerical failure in any chunk
    raises, the gate's message naming that chunk's worst defect.

    With ``workers`` of 2 or more and replicas for at least
    ``PIPELINE_MIN_CHUNKS`` whole chunks (below that the pipeline's fixed
    cost does not pay), the chunks run through a two-process pipeline
    (``_pipeline``): a forked producer draws each chunk and takes its
    injected steps, while this process gates, reads back and keeps the
    marks, so every ``linalg.mat_exp`` call stays here. The pipeline holds ``PIPELINE_CHUNKS`` chunks at once, and its
    report and its errors are those of the serial run. It runs in this
    process alone where ``os.fork`` is missing or fails, where the process
    may run on one CPU only, and from Python 3.12 where the process has
    other OS threads (a BLAS pool, say), or where it cannot count them,
    since ``os.fork`` then warns.
    """
    if scheme not in ("ito", "strat"):
        raise ValueError(f"scheme must be 'ito' or 'strat', got {scheme!r}")
    width = _bucket_width(grid.steps, buckets, replicas)
    marks = np.empty((replicas, buckets + 1, spec.algebra_dim))
    rows = chunk_rows(grid.steps, replicas)
    starts = range(0, replicas, rows)

    def produce(start):
        driver = brownian_ensemble(spec, grid, seed, min(rows, replicas - start),
                                   covariance=covariance, drift=drift, first_replica=start)
        return injected_steps(driver, alpha, scheme)

    def consume(start, steps):
        comp = step_logarithm(spec, grid, steps, alpha)
        marks[start : start + rows] = comp.values[:, ::width]

    done = 0
    if chunks_held(grid.steps, replicas, workers) > 1 and _may_fork():
        done = _pipeline(produce, consume, starts, (grid.steps, spec.algebra_dim))
    for start in starts[done:]:
        consume(start, produce(start))
    bucketed = Ensemble(spec, TimeGrid(grid.horizon, buckets), marks)
    return drift_test(bucketed, buckets=buckets, z_band=z_band, connection_label=alpha.label)


def _may_fork():
    """Whether a forked producer can run beside this process: ``os.fork``
    exists, the process may run on two CPUs or more, and the fork would not
    warn (from Python 3.12, ``os.fork`` warns in a process with other OS
    threads)."""
    if not hasattr(os, "fork"):
        return False
    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)
    return cpus >= 2 and (not _FORK_WARNS_WITH_THREADS or _os_threads() == 1)


def _os_threads():
    """The OS threads of this process; 2 where the OS does not list them,
    since Python's own count misses a BLAS pool, so that from Python 3.12 a
    process whose threads are unknown does not fork."""
    try:
        return len(os.listdir("/proc/self/task"))
    except OSError:
        return 2


def _pipeline(produce, consume, starts, tail):
    """Run ``consume(start, produce(start))`` for the chunk starts of
    ``starts`` in order, ``produce`` in a forked producer process and
    ``consume`` here, as far as the producer goes; returns the number of
    chunks consumed, for the caller to run the rest itself.

    ``starts`` is ``range(0, replicas, rows)``, and ``produce(start)``
    returns a chunk's (rows, ``*tail``) float array, the last chunk's rows
    those left over. The producer writes each chunk into one of the two
    slots of a shared anonymous ``mmap`` ring, the slots taken in turn, and
    sends a byte down the ready pipe; before it reuses a slot it waits for
    a byte up the free pipe, which this process sends once ``consume`` has
    read the slot's chunk in place and returned. A producer whose
    ``produce`` raises, or that dies, stops there and closes the ready
    pipe: the chunk it did not hand over is then the caller's to run, so
    its error is raised in this process, class, message and traceback, in
    the serial run's order. A ``fork`` that fails returns 0. The producer
    always ends in ``os._exit``; this process kills and reaps it before it
    returns or raises.
    """
    slot_bytes = -(-starts.step * math.prod(tail) * 8 // mmap.PAGESIZE) * mmap.PAGESIZE
    ring = mmap.mmap(-1, 2 * slot_bytes)
    ready_r, ready_w = os.pipe()
    free_r, free_w = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        pid = None
    if pid == 0:  # the producer
        try:
            os.close(ready_r)
            os.close(free_w)
            _produce_chunks(produce, starts, ring, slot_bytes, ready_w, free_r)
        finally:
            os._exit(0)
    os.close(ready_w)
    os.close(free_r)
    done = 0
    try:
        while pid is not None and done < len(starts) and os.read(ready_r, 1):
            start = starts[done]
            steps = _slot_view(ring, done, slot_bytes,
                               (min(starts.step, starts.stop - start), *tail))
            consume(start, steps)
            del steps
            done += 1
            if done + 1 < len(starts):  # the producer will reuse the slot
                try:
                    os.write(free_w, b"\x01")
                except BrokenPipeError:  # the producer is gone; the next read says so
                    pass
    finally:
        os.close(ready_r)
        os.close(free_w)
        if pid is not None:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    ring.close()  # every view is gone; on an error the traceback's views keep it mapped
    return done


def _produce_chunks(produce, starts, ring, slot_bytes, ready, free):
    """The producer of ``_pipeline``: each chunk into its slot, in order,
    and a byte down ``ready`` for it. It returns at the first chunk whose
    ``produce`` raises, or when ``free`` or ``ready`` is closed."""
    for i, start in enumerate(starts):
        try:
            steps = produce(start)
        except Exception:  # the caller runs this chunk again and raises its error
            return
        if i >= 2 and not os.read(free, 1):
            return
        np.copyto(_slot_view(ring, i, slot_bytes, steps.shape), steps)
        del steps
        os.write(ready, b"\x01")


def _slot_view(ring, chunk, slot_bytes, shape):
    """The ``shape`` float array at the start of ``chunk``'s slot of the
    ring, a view into it."""
    return np.frombuffer(ring, count=math.prod(shape),
                         offset=(chunk % 2) * slot_bytes).reshape(shape)
