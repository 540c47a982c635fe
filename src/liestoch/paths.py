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

from copy import copy
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


def rung_steps(horizon, dt):
    """The step count of a ladder rung of step ``dt`` to ``horizon``: ValueError
    unless ``dt`` > 0 divides ``horizon`` to 1e-9 relative, as a rung must."""
    ratio = horizon / dt if dt > 0 else 0.0
    if not isfinite(ratio):
        raise ValueError(f"rung {dt!r} is too small a step for the horizon {horizon!r}: "
                         "its step count is past double range")
    steps = round(ratio)
    if not abs(steps * dt - horizon) <= 1e-9 * horizon:  # NaN fails
        raise ValueError(f"rung {dt!r} is not a positive step dividing the horizon {horizon!r}")
    return steps


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

    def with_gated_values(self, values, step_logs=None):
        """``with_values`` without its checks, for float64 arrays of the
        right shapes whose finiteness is already known: values and step
        logs that a solver's membership gate has read, or blocks of a
        checked ensemble."""
        derived = copy(self)  # a frozen dataclass copied field by field, unchecked
        object.__setattr__(derived, "values", values)
        object.__setattr__(derived, "step_logs", step_logs)
        return derived

    def split(self, parts):
        """The replicas cut into ``parts`` equal consecutive blocks, each an
        ensemble of views into this one's values and step logs. They were
        checked when this ensemble was made, so the blocks are not checked
        again."""
        values = np.split(self.values, parts)
        logs = [None] * parts if self.step_logs is None else np.split(self.step_logs, parts)
        return [self.with_gated_values(v, l) for v, l in zip(values, logs)]


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


def _standard_normals(base_seed, replicas, shape, first_replica):
    """(replicas, *shape) standard normals; block b is
    ``derive_rng(base_seed, first_replica + b).standard_normal(shape)``.

    The seed's words, padded to the pool size, are the entropy every
    replica shares, and its index r is its one spawn-key word, so r stays
    below 2**32.
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
                                   + [np.arange(first_replica, first_replica + replicas,
                                                dtype=np.uint32)])
    z = np.empty((replicas,) + tuple(shape))
    for words, out in zip(seed_words, z):
        Generator(PCG64(_SeedWords(words))).standard_normal(out=out)
    return z


def brownian_ensemble(group, grid, base_seed, replicas, covariance=None,
                      drift=None, first_replica=0) -> Ensemble:
    """Independent Brownian replicas ``first_replica`` to
    ``first_replica + replicas - 1``, replica r seeded by
    ``derive_rng(base_seed, r)``.

    Seeding contract: replica r's path depends on (base_seed, r), the grid,
    the covariance and the drift alone, so a draw of a replica range is bit
    for bit those rows of the full ensemble's draw, and an ensemble can be
    drawn, and consumed, range by range (``martingale.martingale_test``).
    Replica indices stay below 2**32, the range of one spawn-key word.

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
    if not 0 <= first_replica <= first_replica + replicas <= 2**32:
        raise ValueError(f"replicas {first_replica} to {first_replica + replicas - 1} "
                         "are outside 0 to 2**32 - 1")
    values = np.zeros((replicas, grid.steps + 1, n))
    dm = values[:, 1:]
    # a draw that leaves double range turns into inf or NaN, which the
    # Ensemble's finiteness check refuses; numpy need not warn first
    with np.errstate(over="ignore", invalid="ignore"):
        factor = spd_cholesky(cov, what="covariance") * sqrt(grid.dt)
        normals = _standard_normals(base_seed, replicas, (grid.steps, n), first_replica)
        np.matmul(normals, factor.T, out=dm)
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


def null_qv_check(p, q, significance=0.99) -> NullQVResult:
    """Test whether two paths, given as (steps+1, m) coordinate arrays, have
    vanishing cross quadratic variation.

    Self-normalized CLT band per cell: the variance of the terminal
    realized cross-covariation is estimated by the running sum of squared
    increment products, and each cell must satisfy
    ``|C_T| <= z * sqrt(Vhat) + floor`` with z Bonferroni-adjusted across
    cells so that the whole check has the requested significance.

    Both sums over the steps are matrix products, which BLAS takes: the
    terminal covariation ``daᵀ db`` and the variance estimate
    ``(da²)ᵀ (db²)``. Their rounding differs from a step-ordered sum (such
    as ``np.einsum("ki,kj->ij", ...)``) by a few ulps of ``Σ|da_i db_j|``
    per cell, so a verdict can move only on a cell whose ratio is that
    close to 1. A NaN increment makes the worst ratio NaN, and the check
    fails.
    """
    da, db = _coordinate_increments(p, q)
    da2, db2 = da * da, db * db
    terminal = da.T @ db
    var_hat = da2.T @ db2
    cells = terminal.size
    z = normal_quantile(1.0 - (1.0 - significance) / (2.0 * cells))
    floor = 1e-15 * (1.0 + np.sqrt(np.sum(da2)) * np.sqrt(np.sum(db2)))
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


# Path CSV text in bulk. Each field owns a 48-byte slot of twelve uint32
# words: bytes 0-10 hold its leading separator, sign and "0.000" prefix,
# right-aligned; its 17 digits fill bytes 11-27; byte 31 is '.' and bytes
# 32-47 repeat the digits but the first. One row of _SHOWN per kind of field
# picks the bytes its text keeps, in one run (two when digits precede the
# '.'); a text from repr overwrites the slot's first bytes instead.
_SLOT = 48
_FIRST = 11                         # the first digit's byte
_POINT = 31                         # '.', then digit j at byte 31 + j
_POW10 = 10.0 ** np.arange(22)      # exact doubles
_POW10_INT = 10 ** np.arange(18)
_SPLIT = 134217729.0                # 2**27 + 1, Veltkamp's splitting constant
# Fields formatted at once. A chunk costs about 100 numpy calls whatever its
# size, so it must be large enough to cover them; past 2**13 its scratch
# (1.8 MB at 2**13) likely outgrows the L2 cache. In-process at 8 replicas x
# 1000 steps on the six groups, 2**13 dumped 14% faster than 2**12, and
# 1.5 * 2**13 and 2**14 17% slower than 2**12.
_CHUNK_VALUES = 1 << 13
# 4 ASCII digits of each of 0..9999, as one uint32 in memory order, and
# their trailing zeros
_DIGITS4 = (np.arange(10**4, dtype=np.uint16)[:, None] // np.array([1000, 100, 10, 1], np.uint16)
            % 10 + 48).astype(np.uint8).view(np.uint32).ravel()
_ZEROS4 = sum(np.arange(10**4, dtype=np.uint16) % 10**k == 0 for k in range(1, 5)).astype(np.int8)
# Prefix classes: ``sign * 20 + e10 + 4`` for a float after a ',' with a
# decimal exponent e10 in [-4, 15]; then an int after nothing, ',' or "\r\n"
_NONE, _COMMA, _CRLF = 40, 41, 42
_POINT_WORD = int(np.frombuffer(b"   .", np.uint32)[0])


def _prefix_words():
    """Words 0-1 of each class's slot, and word 2 by class * 10 + first
    digit: the separator, then for a float its '-' and, when e10 < 0, "0."
    and -e10 - 1 zeros, right-aligned before the first digit."""
    col = np.arange(_FIRST)
    sign = np.arange(2)[:, None, None]
    e10 = np.arange(-4, 16)[:, None]
    rel = col - (_FIRST - 1 - sign - np.where(e10 < 0, 1 - e10, 0))
    body = rel - 1 - sign
    floats = np.where(rel < 0, ord(" "), np.where(rel == 0, ord(","), np.where(
        body < 0, ord("-"), np.where(body == 1, ord("."), ord("0")))))
    ints = np.frombuffer(b" " * 21 + b"," + b" " * 9 + b"\r\n", np.uint8)
    prefix = np.concatenate([floats.reshape(40, _FIRST), ints.reshape(3, _FIRST)])
    lead = np.empty((len(prefix), 10, 4), np.uint8)
    lead[..., :3] = prefix[:, None, 8:]
    lead[..., 3] = np.arange(48, 58)
    return prefix[:, :8].astype(np.uint8).view(np.uint32), lead.view(np.uint32).ravel()


def _shown_table():
    """_SHOWN's rows, by code: ``class * 17 + n - 1`` for a float of ``n``
    significant digits written positionally, ``_TEXT + L`` for a text of L
    bytes, and ``_INTS + (class - _NONE) * 18 + L`` for an int of L digits."""
    col = np.arange(_SLOT)
    sign = np.arange(2)[:, None, None, None]
    e10 = np.arange(-4, 16)[:, None, None]
    n = np.arange(1, 18)[:, None]
    start = _FIRST - 1 - sign - np.where(e10 < 0, 1 - e10, 0)
    # 0.0012: its prefix then the digits. 123.45 and 1200.0: the digits to
    # the point, '.', then the rest or one '0'.
    fraction = (col >= start) & (col < _FIRST + n)
    whole = ((col >= start) & (col <= _FIRST + e10)) | (col == _POINT) | (
        (col > _POINT + e10) & (col <= _POINT + np.maximum(n - 1, e10 + 1)))
    positional = np.where(e10 < 0, fraction, whole).reshape(-1, _SLOT)
    text = col < np.arange(26)[:, None]
    ints = ((col >= _FIRST - np.arange(3)[:, None, None])
            & (col < _FIRST + np.arange(18)[:, None])).reshape(-1, _SLOT)
    return np.concatenate([positional, text, ints])


_PREFIX, _LEAD = _prefix_words()
_SHOWN = _shown_table()
_TEXT = 40 * 17
_INTS = _TEXT + 26


def _split(a):
    """Veltkamp's split: a == hi + lo exactly, each of at most 26 bits."""
    c = a * _SPLIT
    hi = c - (c - a)
    return hi, a - hi


_POW10_HI, _POW10_LO = _split(_POW10)


def _scaled(a, s):
    """a * 10**s exactly, as the unevaluated sum hi + lo: Dekker's
    error-free product, exact because 10**s is a double for s <= 21."""
    hi = a * _POW10[s]
    a_hi, a_lo = _split(a)
    p_hi, p_lo = _POW10_HI[s], _POW10_LO[s]
    return hi, ((a_hi * p_hi - hi) + a_hi * p_lo + a_lo * p_hi) + a_lo * p_lo


def _divmod(a, b):
    q = a // b    # numpy's divmod does not use the fast scalar division
    return q, a - q * b


def _shortest_digits(x):
    """repr's digits of each float64 of 1-D ``x`` that repr writes
    positionally: ``(digits, e10, done)``, with ``digits`` the int64 of its
    significant digits padded to 17 by trailing zeros and ``x`` equal to
    ``digits * 10**(e10 - 16)`` to that precision. Where ``done`` is false
    (0 < |x| < 1e-4, |x| >= 1e16, not finite) both are meaningless."""
    a = np.abs(x)
    zero = a == 0
    positional = (a >= 1e-4) & (a < 1e16)
    a = np.where(positional, a, 1.0)
    e10 = np.floor(np.log10(a)).astype(np.int64)
    hi, lo = _scaled(a, 16 - e10)
    # log10 may round across a power of ten; then move y = hi + lo into
    # [1e16, 1e17)
    low = (hi - 1e16) + lo < 0
    high = (hi - 1e17) + lo >= 0
    moved = np.flatnonzero(low | high)
    if moved.size:
        e10[moved] += high[moved].astype(np.int64) - low[moved]
        hi[moved], lo[moved] = _scaled(a[moved], 16 - e10[moved])
    # y = whole + frac exactly: hi is an integer and |lo| <= 8
    lo_floor = np.floor(lo)
    whole = hi.astype(np.int64) + lo_floor.astype(np.int64)
    frac = lo - lo_floor
    # A decimal nearer than half an ulp of x (``half``, at y's scale) reads
    # back as x, and ``half`` > 1/2. repr's two other cases change no digit
    # here: a power of two (half the gap below) has an exact decimal of at
    # most 16 digits, and a decimal exactly half an ulp away is never the
    # nearest candidate (for x < 2**53 it has over 16 digits, and beyond,
    # x itself is a 16-digit integer).
    bits = a.view(np.int64)
    half = _POW10[16 - e10] * ((bits >> 52) - 53 << 52).view(np.float64)
    # 17 digits: the nearest integer. 16: the nearest multiple of 10, if
    # it reads back. 15 or fewer: the interval (< 23 wide) holds at most one
    # multiple of 100, and the fewest digits are its own. Ties go to the
    # even last digit, as in repr (hi is even). ``step`` is digits - whole.
    step = (np.rint(lo) - lo_floor).astype(np.int64)
    for unit in (10, 100):
        q = whole // unit
        rem = whole - q * unit
        down = rem + frac          # exact: rem < 100, frac's bits >= 2**-46
        up = unit - down
        nearer_up = (up < down) | ((up == down) & (q & 1 == 1))
        step = np.where(np.minimum(down, up) < half,
                        np.where(nearer_up, unit - rem, -rem), step)
    # digits < 1e17: x < 10**(e10 + 1), and a power of ten from 1e-3 to
    # 1e16 reads back as no double below it (0.1, 0.01, 0.001 round up)
    digits = whole + step
    digits[zero] = 0
    return digits, e10, positional | zero


def _csv_lines(ints, floats):
    """CSV lines, each the ``ints`` (non-negative int64, at least one) then
    the ``floats`` (float64) of one row: ints in decimal, floats as repr."""
    rows, n_int = ints.shape
    x = floats.ravel()
    d, e10, done = _shortest_digits(x)
    width = 1 + np.searchsorted(_POW10_INT[1:], ints, side="right")
    # a line but the first begins with the "\r\n" ending the one before
    classes = np.full((rows, n_int + floats.shape[1]), _COMMA)
    classes[:, 0] = _CRLF
    classes[0, 0] = _NONE
    classes[:, n_int:] = (np.signbit(x) * 20 + e10 + 4).reshape(floats.shape)
    # an int's digits start where a float's do
    digits = np.concatenate([ints * _POW10_INT[17 - width], d.reshape(floats.shape)], axis=1)
    top, low = _divmod(digits, 10**8)
    lead, top = _divmod(top, 10**8)
    groups = [*_divmod(top, 10**4), *_divmod(low, 10**4)]    # digits 1-4, ..., 13-16
    words = np.empty(digits.shape + (_SLOT // 4,), np.uint32)
    words[..., :2] = np.take(_PREFIX, classes, axis=0)
    words[..., 2] = np.take(_LEAD, classes * 10 + lead)
    words[..., 7] = _POINT_WORD
    zeros = 16         # trailing zeros of the 17 digits, past the last nonzero group
    for i, group in enumerate(groups):
        words[..., 3 + i] = words[..., 8 + i] = np.take(_DIGITS4, group)
        zeros = np.where(group != 0, 12 - 4 * i + np.take(_ZEROS4, group), zeros)
    codes = np.empty_like(classes)
    codes[:, :n_int] = _INTS + (classes[:, :n_int] - _NONE) * 18 + width
    codes[:, n_int:] = classes[:, n_int:] * 17 + 16 - zeros[:, n_int:]
    slots = words.view(np.uint8)
    fallback = np.flatnonzero(~done)
    if fallback.size:
        # repr once per bit pattern
        patterns, which = np.unique(x[fallback].view(np.int64), return_inverse=True)
        texts = ["," + repr(v) for v in patterns.view(np.float64).tolist()]
        raw = np.frombuffer("".join(t.ljust(25) for t in texts).encode("ascii"), np.uint8)
        row, col = _divmod(fallback, floats.shape[1])
        slots[row, n_int + col, :25] = raw.reshape(len(texts), 25)[which]
        codes[row, n_int + col] = (_TEXT + np.array([len(t) for t in texts]))[which]
    return slots[np.take(_SHOWN, codes, axis=0)].tobytes().decode("ascii") + "\r\n"


def _dump_rows(fh, grid, header, stacked):
    """stacked: (replicas, steps+1, m) flattened component values.

    The body is ``write_table``'s bytes, formatted in chunks of whole rows
    of at most ``_CHUNK_VALUES`` (8192) fields, so its scratch does not grow
    with the ensemble (1.8 MB by tracemalloc on se3 at 2000 x 100); a chunk
    may end inside a replica. Each float's repr is found in bulk
    and exactly: for 1e-4 <= |x| < 1e16, y = |x| * 10**s with s = 16 -
    floor(log10|x|) lies in [1e16, 1e17), and both y and half an ulp of x
    at that scale (over 1/2) are exact sums of doubles, by Dekker's
    error-free product, as 10**s is a double. repr's digits are then the
    nearest multiple of the largest power of ten within that half ulp of y,
    ties to even, found by integer comparisons as in Ryu. 0 is "0.0", and
    any other value goes to repr once per bit pattern.
    """
    write_table(fh, header, [])
    replicas, points, m = stacked.shape
    values = stacked.reshape(replicas * points, m)
    times = grid.times()
    rows = max(1, _CHUNK_VALUES // (m + 3))
    for start in range(0, len(values), rows):
        block = values[start:start + rows]
        r, k = _divmod(np.arange(start, start + len(block)), points)
        floats = np.empty((len(block), m + 1))
        floats[:, 0] = times[k]
        floats[:, 1:] = block
        fh.write(_csv_lines(np.stack([r, k], axis=1), floats))


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
