"""Discrete-time path model, seeded stochastic drivers, covariation tests.

Paths live on uniform grids and are always replica-stacked: an
``Ensemble`` holds algebra coordinates of shape (replicas, steps+1, n) or
group matrices of shape (replicas, steps+1, d, d), and a single path is a
one-replica ensemble. Every operator takes and returns ensembles;
``expect`` is the operand check they share. The covariation tests compare
two paths as (steps+1, m) coordinate arrays (``Ensemble.coordinates[r]``).

Seeding: replica r of base seed s draws from
``PCG64(SeedSequence(entropy=s, spawn_key=(r,)))``; ``derive_rng`` is that
definition. Each replica owns an independent stream derived only from
(s, r), so ensembles are reproducible bit-for-bit under any execution
order. The driver computes the same derivation in bulk: one vectorised pass
of SeedSequence's hash gives every replica's PCG64 seed words, each
replica's normals land in one stacked buffer, and the covariance factor,
drift and running sum are applied to the whole stack at once. A draw that
leaves double range is caught by the Ensemble's own finiteness check and
raised as NonFiniteError.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import erf, isfinite, sqrt

import numpy as np

from .errors import DimensionError, GridMismatchError, MetricError, NonFiniteError
from .groups import GroupSpec
from .linalg import spd_cholesky


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid 0 = t_0 < ... < t_steps = horizon."""

    horizon: float
    steps: int

    def __post_init__(self):
        if not (self.horizon > 0 and isfinite(self.horizon)) or self.steps <= 0:
            raise ValueError("horizon must be positive and finite, steps positive")

    @property
    def dt(self):
        return self.horizon / self.steps

    def times(self):
        return np.linspace(0.0, self.horizon, self.steps + 1)


def _check_values(values, expected_shape, what):
    values = np.asarray(values, dtype=np.float64)
    if values.shape != expected_shape:
        raise DimensionError(f"{what}: expected shape {expected_shape}, got {values.shape}")
    if not np.all(np.isfinite(values)):
        raise NonFiniteError(f"{what}: non-finite entries")
    return values


@dataclass(frozen=True)
class Ensemble:
    """Replica-stacked paths sharing one grid; a single path is one replica.

    ``values`` has shape (replicas, steps+1, n) for algebra ensembles or
    (replicas, steps+1, d, d) for group ensembles, every entry finite.
    Solvers attach ``step_logs``, the (replicas, steps, n) left-trivialized
    step vectors they injected, making log-type readbacks and left
    translation exact rather than asymptotic. The membership-defect gate is
    enforced by the solvers, not here.
    """

    group: GroupSpec
    grid: TimeGrid
    values: np.ndarray
    step_logs: np.ndarray | None = None

    def __post_init__(self):
        values = np.asarray(self.values)
        n, d = self.group.algebra_dim, self.group.matrix_dim
        lead = (values.shape[0] if values.ndim else 0, self.grid.steps + 1)
        shape = lead + ((d, d) if values.ndim == 4 else (n,))
        object.__setattr__(self, "values", _check_values(values, shape, "Ensemble"))
        if self.step_logs is not None:
            logs = _check_values(self.step_logs, (lead[0], self.grid.steps, n),
                                 "Ensemble.step_logs")
            object.__setattr__(self, "step_logs", logs)

    @property
    def replicas(self):
        return self.values.shape[0]

    @property
    def is_group_valued(self):
        return self.values.ndim == 4

    @property
    def coordinates(self):
        """(replicas, steps+1, m) real components: the basis coordinates of
        an algebra ensemble, the row-major matrix entries of a group one."""
        return self.values.reshape(self.values.shape[:2] + (-1,))

    def with_values(self, values, step_logs=None):
        """Derived ensemble on the same group and grid."""
        return Ensemble(self.group, self.grid, values, step_logs)


def expect(x, group_valued):
    """Refuse an operand that is not an ensemble of the given value kind."""
    if not isinstance(x, Ensemble) or x.is_group_valued != group_valued:
        kind = "group" if group_valued else "algebra"
        raise DimensionError(f"expected a {kind}-valued Ensemble")


def derive_rng(base_seed, replica):
    """Documented seed derivation: independent stream per (seed, replica).

    The driver reproduces this stream in bulk (``_standard_normals``); this
    function is its definition and the oracle it is tested against.
    """
    seq = np.random.SeedSequence(entropy=int(base_seed), spawn_key=(int(replica),))
    return np.random.Generator(np.random.PCG64(seq))


# SeedSequence's hash constants (numpy.random.bit_generator), pool size 4.
_MASK32 = 0xFFFFFFFF
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715


def _uint32_words(n):
    """Little-endian 32-bit words of a non-negative int, at least one."""
    if n < 0:
        raise ValueError(f"seeds must be non-negative, got {n}")
    words = [n & _MASK32]
    while n > _MASK32:
        n >>= 32
        words.append(n & _MASK32)
    return words


def _pcg64_seed_words(entropy):
    """``SeedSequence.generate_state(4, uint64)`` for a batch of entropies.

    ``entropy`` lists the assembled entropy words, at least the pool's
    four, each a uint32 array of shape (m,) or (1,) for a word the batch
    shares. Returns (m, 4) uint64.
    Array arithmetic on uint32 wraps modulo 2**32 without a warning, which
    is the hash's own arithmetic.
    """
    hash_const = _INIT_A

    def hashmix(value):
        nonlocal hash_const
        value = value ^ hash_const
        hash_const = hash_const * _MULT_A & _MASK32
        value = value * hash_const
        return value ^ (value >> 16)

    def mix(x, y):
        result = x * _MIX_MULT_L - y * _MIX_MULT_R
        return result ^ (result >> 16)

    pool = [hashmix(word) for word in entropy[:_POOL_SIZE]]
    for i_src in range(_POOL_SIZE):
        for i_dst in range(_POOL_SIZE):
            if i_src != i_dst:
                pool[i_dst] = mix(pool[i_dst], hashmix(pool[i_src]))
    for word in entropy[_POOL_SIZE:]:
        for i_dst in range(_POOL_SIZE):
            pool[i_dst] = mix(pool[i_dst], hashmix(word))

    state = np.empty((len(pool[0]), 8), dtype=np.uint32)
    hash_const = _INIT_B
    for i in range(8):
        value = pool[i % _POOL_SIZE] ^ hash_const
        hash_const = hash_const * _MULT_B & _MASK32
        value = value * hash_const
        state[:, i] = value ^ (value >> 16)
    return state.astype("<u4").view("<u8").astype(np.uint64)


def _standard_normals(base_seed, replicas, shape):
    """(replicas, *shape) standard normals; replica r's block is
    ``derive_rng(base_seed, r).standard_normal(shape)``.

    The seed's words, padded to the pool size, are the entropy every
    replica shares, and its index r is its one spawn-key word: an ensemble
    of 2**32 replicas or more could not be held in memory.
    """
    from numpy.random import PCG64, Generator
    from numpy.random.bit_generator import ISeedSequence

    class _SeedWords(ISeedSequence):
        """Precomputed output of a SeedSequence's ``generate_state``; PCG64
        asks for exactly its four uint64 seed words."""

        def __init__(self, words):
            self.words = words

        def generate_state(self, n_words, dtype=np.uint32):
            return self.words

    entropy = _uint32_words(int(base_seed))
    entropy += [0] * (_POOL_SIZE - len(entropy))
    seed_words = _pcg64_seed_words([np.array([w], dtype=np.uint32) for w in entropy]
                                   + [np.arange(replicas, dtype=np.uint32)])
    z = np.empty((replicas,) + tuple(shape))
    for words, out in zip(seed_words, z):
        Generator(PCG64(_SeedWords(words))).standard_normal(out=out)
    return z


def brownian_ensemble(group, grid, base_seed, replicas, covariance=None,
                      drift=None) -> Ensemble:
    """Independent Brownian replicas, replica r seeded by
    ``derive_rng(base_seed, r)``.

    Each increment is ``drift * dt + L dW``, for the Cholesky factor L of
    ``covariance`` (the identity by default) and a standard dW of variance
    dt. With a nonzero drift the replicas are not martingales: that is the
    negative-control driver. The increments are written into the values
    buffer and summed there in place, so the normals are the only transient
    of the value array's size. A draw that leaves double range raises
    NonFiniteError.
    """
    n = group.algebra_dim
    cov = np.eye(n) if covariance is None else np.asarray(covariance, dtype=np.float64)
    if cov.shape != (n, n):
        raise MetricError(f"covariance must be {n}x{n}")
    if drift is not None:
        drift = _check_values(drift, (n,), "drift")
    values = np.zeros((replicas, grid.steps + 1, n))
    dm = values[:, 1:]
    # a draw that leaves double range turns into inf or NaN, which the
    # Ensemble's finiteness check refuses; numpy need not warn first
    with np.errstate(over="ignore", invalid="ignore"):
        factor = spd_cholesky(cov, what="covariance") * sqrt(grid.dt)
        np.matmul(_standard_normals(base_seed, replicas, (grid.steps, n)), factor.T, out=dm)
        if drift is not None:
            dm += drift * grid.dt
        np.cumsum(dm, axis=1, out=dm)
    try:
        return Ensemble(group, grid, values)
    except NonFiniteError as exc:
        raise NonFiniteError(f"{group.name}: the driver left double range; "
                             "the drift or the horizon is too large") from exc


def _coordinate_increments(p, q):
    """Step increments of two (steps+1, m) coordinate arrays on one grid."""
    a = np.asarray(p, dtype=np.float64)
    b = np.asarray(q, dtype=np.float64)
    if a.ndim != 2 or b.ndim != 2:
        raise DimensionError("expected two (steps+1, m) coordinate arrays")
    if a.shape[0] != b.shape[0]:
        raise GridMismatchError("paths have different numbers of grid points")
    return np.diff(a, axis=0), np.diff(b, axis=0)


def quadratic_covariation(p, q):
    """Running realized covariation sum_{m<k} dP^i_m dQ^j_m of two
    (steps+1, m) coordinate arrays, such as rows of ``Ensemble.coordinates``.

    Returns shape (steps+1, n_p, n_q); entry 0 is zero.
    """
    da, db = _coordinate_increments(p, q)
    prods = np.einsum("ki,kj->kij", da, db)
    out = np.zeros((da.shape[0] + 1,) + prods.shape[1:])
    np.cumsum(prods, axis=0, out=out[1:])
    return out


@lru_cache(maxsize=None)
def normal_quantile(p):
    """Inverse standard normal CDF (bisection on erf; no scipy needed).

    Memoised: the Campbell checks ask for the same few quantiles once per
    replica.
    """
    if not 0.0 < p < 1.0:
        raise ValueError("quantile probability must be in (0, 1)")
    lo, hi = -1e2, 1e2
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if 0.5 * (1.0 + erf(mid / sqrt(2.0))) < p:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


@dataclass(frozen=True)
class NullQVResult:
    """Outcome of the null-quadratic-variation test."""

    passed: bool
    significance: float
    terminal: np.ndarray        # terminal cross-covariations, (m1, m2)
    band: np.ndarray            # per-cell acceptance band
    cells: int
    worst_ratio: float          # max |terminal| / band

    def __bool__(self):
        return self.passed


def null_qv_check(p, q, significance=0.99) -> NullQVResult:
    """Test whether two paths, given as (steps+1, m) coordinate arrays, have
    vanishing cross quadratic variation.

    Self-normalized CLT band per cell: the variance of the terminal
    realized cross-covariation is estimated by the running sum of squared
    increment products, and each cell must satisfy
    ``|C_T| <= z * sqrt(Vhat) + floor`` with z Bonferroni-adjusted across
    cells so that the whole check has the requested significance.
    """
    da, db = _coordinate_increments(p, q)
    terminal = np.einsum("ki,kj->ij", da, db)
    var_hat = np.einsum("ki,kj->ij", da * da, db * db)
    cells = terminal.size
    z = normal_quantile(1.0 - (1.0 - significance) / (2.0 * cells))
    floor = 1e-15 * (1.0 + np.sqrt(np.sum(da * da)) * np.sqrt(np.sum(db * db)))
    band = z * np.sqrt(var_hat) + floor
    ratio = np.abs(terminal) / band
    worst = float(np.max(ratio))
    return NullQVResult(
        passed=bool(worst <= 1.0),
        significance=significance,
        terminal=terminal,
        band=band,
        cells=cells,
        worst_ratio=worst,
    )


def _field(x):
    return repr(float(x)) if isinstance(x, (float, np.floating)) else str(x)


def write_table(fh, header, rows):
    """Write a CSV table in the one byte format of every liestoch output.

    That is what ``csv.writer`` writes by default, byte for byte: CRLF line
    ends and no quoting (no field holds a comma, quote or line break). A
    float, numpy's included, is written as its shortest round-trip ``repr``
    and anything else as ``str``.
    """
    fh.write("".join(",".join(map(_field, row)) + "\r\n" for row in [header, *rows]))


def _dump_rows(fh, grid, header, stacked):
    """stacked: (replicas, steps+1, m) flattened component values.

    The body is ``write_table``'s format written in bulk, every float
    already a Python float. One write per replica keeps memory at one
    replica's text.
    """
    write_table(fh, header, [])
    prefixes = [f"{k},{t!r}," for k, t in enumerate(grid.times().tolist())]
    for r in range(stacked.shape[0]):
        rid = f"{r},"
        fh.write("".join(
            rid + prefix + ",".join(map(repr, row)) + "\r\n"
            for prefix, row in zip(prefixes, stacked[r].tolist())
        ))


def dump_algebra_csv(ens, fh):
    """CSV dump ``replica,k,t,c1..cn`` of every replica of an algebra ensemble."""
    expect(ens, group_valued=False)
    header = ["replica", "k", "t"] + [f"c{i+1}" for i in range(ens.values.shape[-1])]
    _dump_rows(fh, ens.grid, header, ens.values)


def dump_group_csv(ens, fh):
    """CSV dump ``replica,k,t,m11..mdd`` (row-major matrix entries)."""
    expect(ens, group_valued=True)
    d = ens.values.shape[-1]
    header = ["replica", "k", "t"] + [f"m{i+1}{j+1}" for i in range(d) for j in range(d)]
    _dump_rows(fh, ens.grid, header, ens.coordinates)
