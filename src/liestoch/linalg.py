"""Dense small-matrix kernels: exponential, logarithm, solves, norms, and
the bilinear contraction of coordinate vectors with a (k, i, j) table.

Everything here accepts stacked operands: an array of shape (..., n, n) is
treated as a batch of matrices over the leading axes. Each matrix is
processed independently of the rest of the batch (scaling levels, square
roots and stopping decisions are made per matrix), so results are identical
no matter how a batch is chunked. That property is what lets
``map_stacked`` run a kernel over cache-sized blocks, and the passes of
``explog``, ``calculus`` and ``campbell`` run over the cache-sized tiles of
``tiles``, without changing a bit.

``mat_exp`` and ``mat_log`` pick a kernel for each matrix from its own
entries, never from a group label:

- exp of an exactly skew 3x3 matrix: Rodrigues' formula;
- exp of a 4x4 ``[[W, u], [0, 0]]`` with W exactly skew: the rigid-motion
  closed form ``[[R, V u], [0, 1]]``;
- log of a 3x3 rotation (orthogonal to 1e-12) by an angle below pi/2:
  ``S / sinc(theta)`` with S the skew part;
- every other matrix: the generic ``_taylor_exp`` (scaling-and-squaring)
  and ``_generic_log`` (inverse scaling-and-squaring).

The generic paths are the oracle the closed forms are tested against, and
a batch that mixes kinds gives each matrix the result it gets alone.

Matrices are plain float64 numpy arrays; higher-level modules enforce the
"entries finite" contract by calling these kernels.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionError,
    ExpOverflowError,
    LogRangeError,
    MetricError,
    SingularMatrixError,
)

# Norm thresholds below which the truncated exp/log series reach double
# precision, and the series orders that achieve it.
_EXP_RADIUS = 0.5   # degree-15 Taylor truncates below 1e-18 here
_LOG_RADIUS = 0.25  # Gregory series with odd powers up to 17
_LOG_GREGORY_TERMS = 9
_MAX_SQRT_LEVELS = 40
_SQRT_MAX_ITER = 60
_COND_LIMIT = 1e13

# Matrices per block of ``map_stacked`` (the entry-row kernels in
# ``groups``) and per tile of ``tiles`` (the develop, readback and adjoint
# passes): 4096 4x4 matrices are 512 KB of entry rows, which stay in cache
# through a kernel's passes. Whole-batch rows do not: on 2x10^5 se3
# matrices exp ran 2x slower in one block, and the so3 and se3 defects
# 1.3-3x slower on 10^5. Blocks of 8192 were up to 1.25x faster for the
# defects but held more memory (export-sixgroups peak RSS +1%). The bound
# also caps the scratch of a tiled pass: on se3 at 2000 x 100 steps,
# ``ito_exponential`` holds 3.2 MB above its 35.5 MB of output, where
# full-size temporaries of every stage held 61 MB (by tracemalloc).
_ROW_CHUNK = 4096

_EXP_COEFFS = np.cumprod([1.0] + [1.0 / k for k in range(1, 16)])  # 1/k!, k=0..15


@dataclass(frozen=True)
class Tolerance:
    """Absolute/relative tolerance pair used by residual checks.

    ``bound(scale)`` gives the acceptance threshold for a residual whose
    natural scale (typically a Frobenius norm) is ``scale``.
    """

    abs_tol: float = 1e-12
    rel_tol: float = 1e-9

    def __post_init__(self):
        if self.abs_tol < 0 or self.rel_tol < 0:
            raise ValueError("tolerances must be non-negative")
        if self.abs_tol == 0 and self.rel_tol == 0:
            raise ValueError("at least one tolerance must be strictly positive")

    def bound(self, scale):
        return self.abs_tol + self.rel_tol * np.asarray(scale)


DEFAULT_TOLERANCE = Tolerance()


def _as_square(a, op):
    a = np.asarray(a, dtype=np.float64)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise DimensionError(f"{op}: expected square matrices, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError(f"{op}: input contains non-finite entries")
    return a


def frobenius_norm(a):
    """Frobenius norm over the last two axes; returns shape (...,)."""
    a = np.asarray(a, dtype=np.float64)
    return np.sqrt(np.einsum("...ij,...ij->...", a, a))


def frobenius_dist(a, b):
    """Frobenius distance between equal-shaped matrices (batched)."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape[-2:] != b.shape[-2:]:
        raise DimensionError(f"frobenius_dist: shape mismatch {a.shape} vs {b.shape}")
    return frobenius_norm(a - b)


def _eye_like(flat):
    n = flat.shape[-1]
    return np.broadcast_to(np.eye(n), flat.shape)


def _taylor_exp(a):
    """Matrix exponential by per-matrix scaling-and-squaring.

    Each matrix is scaled by an exact power of two until its Frobenius norm
    is at most 0.5, run through the degree-15 Taylor polynomial in
    Paterson-Stockmeyer form (six matrix products), then squared back up.
    The truncation error at radius 0.5 is below 1e-18, so results are
    accurate to roundoff.
    """
    a = _as_square(a, "mat_exp")
    shape = a.shape
    n = shape[-1]
    flat = a.reshape(-1, n, n)

    norm = frobenius_norm(flat)
    need = norm > _EXP_RADIUS
    s = np.zeros(norm.shape, dtype=np.int64)
    if np.any(need):
        s[need] = np.ceil(np.log2(norm[need] / _EXP_RADIUS)).astype(np.int64)
    a1 = flat * (0.5 ** s)[:, None, None]

    a2 = a1 @ a1
    a3 = a2 @ a1
    a4 = a2 @ a2
    c = _EXP_COEFFS
    diag = np.arange(n)

    def fill_block(buf, j):
        np.multiply(a3, c[4 * j + 3], out=buf)
        buf += c[4 * j + 2] * a2
        buf += c[4 * j + 1] * a1
        buf[..., diag, diag] += c[4 * j]

    out = np.empty_like(a1)
    tmp = np.empty_like(a1)
    fill_block(out, 3)
    for j in (2, 1, 0):
        np.matmul(out, a4, out=tmp)
        fill_block(out, j)
        out += tmp

    remaining = s.copy()
    while remaining.max(initial=0) > 0:
        mask = remaining > 0
        sub = out[mask]
        out[mask] = sub @ sub
        remaining[mask] -= 1
    if not np.all(np.isfinite(out)):
        raise ExpOverflowError("mat_exp: result overflowed double precision")
    return out.reshape(shape)


def _denman_beavers_sqrt(m):
    """Principal square root of a batch, Denman-Beavers iteration.

    Per-matrix stopping: a matrix freezes once its own update stagnates, so
    its result never depends on the rest of the batch. The iterate is built
    in ``m`` itself, so the caller passes a batch it no longer needs.
    """
    y = m
    z = _eye_like(m).copy()
    active = np.ones(m.shape[0], dtype=bool)
    for _ in range(_SQRT_MAX_ITER):
        if not active.any():
            break
        ya, za = y[active], z[active]
        try:
            yinv = np.linalg.inv(ya)
            zinv = np.linalg.inv(za)
        except np.linalg.LinAlgError as exc:
            raise LogRangeError(
                "matrix square root iteration hit a singular iterate; "
                "input is outside the admissible region (use a smaller dt)"
            ) from exc
        # each temporary is dropped once used, which keeps a tile's log
        # within 4 MB of scratch on se3
        ynew = 0.5 * (ya + zinv)
        del zinv
        step = frobenius_norm(ynew - ya)
        scale = frobenius_norm(ynew)
        del ya
        y[active] = ynew
        del ynew
        z[active] = 0.5 * (za + yinv)
        del za, yinv
        sub_done = step <= 1e-14 * np.maximum(scale, 1.0)
        idx = np.flatnonzero(active)
        active[idx[sub_done]] = False
    if active.any():
        raise LogRangeError(
            "matrix square root did not converge; spectrum too close to the "
            "negative real axis (use a smaller dt)"
        )
    return y


def _generic_log(m):
    """Principal matrix logarithm by inverse scaling-and-squaring.

    Square roots are taken per matrix until ``||M - I|| <= 0.25``, then the
    Gregory series ``log M = 2 * sum z^(2k+1)/(2k+1)`` with
    ``z = (M - I)(M + I)^-1`` finishes the job. Intended regime: one-step
    group increments, which are near the identity by construction.
    """
    m = _as_square(m, "mat_log")
    shape = m.shape
    n = shape[-1]
    flat = m.reshape(-1, n, n).copy()

    det = np.linalg.det(flat)
    if np.any(np.abs(det) < 1e-250):
        raise SingularMatrixError("mat_log: singular input")

    eye = _eye_like(flat)
    s = np.zeros(flat.shape[0], dtype=np.int64)
    for _ in range(_MAX_SQRT_LEVELS):
        far = frobenius_dist(flat, eye) > _LOG_RADIUS
        if not far.any():
            break
        flat[far] = _denman_beavers_sqrt(flat[far])
        s[far] += 1
    if np.any(frobenius_dist(flat, eye) > _LOG_RADIUS):
        raise LogRangeError(
            "mat_log: input stayed far from the identity after "
            f"{_MAX_SQRT_LEVELS} square roots (use a smaller dt)"
        )

    try:
        z = np.linalg.solve(flat + eye, flat - eye)
    except np.linalg.LinAlgError as exc:
        raise LogRangeError("mat_log: I + M^(1/2^s) is singular") from exc
    del flat  # the series does not read it; one batch less at its peak
    z2 = z @ z
    term = z
    acc = z.copy()
    for k in range(1, _LOG_GREGORY_TERMS):
        term = term @ z2
        acc += term / (2 * k + 1)
    out = (2.0 * (2.0 ** s))[:, None, None] * acc
    return out.reshape(shape)


# Closed forms for rotation and rigid-motion matrices. The kernels work on
# entry rows: row n*i + j holds entry (i, j) of every matrix in the batch,
# contiguous, so each formula is a handful of elementwise operations with no
# stacked matmul. A matrix's result therefore does not depend on the batch
# it arrives in, and the branch it takes is decided from its own entries.

_ROTATION_LOG_GATE = 1e-12  # ||M^T M - I||_F above this: generic log
_SERIES_ANGLE = 0.5         # below it (theta - sin theta)/theta^3 is a series
# (-1)^k / (2k+3)!, k = 0..6: the first omitted term is below 2e-19 at 0.5
_V_SERIES = tuple((-1) ** k / math.factorial(2 * k + 3) for k in range(7))

_TRANSPOSE3 = np.arange(9).reshape(3, 3).T.ravel()  # entry row of (j, i)
_DIAG3 = np.array([0, 4, 8])
_VEE3 = np.array([7, 2, 3])                          # A21, A02, A10
_BLOCK4 = np.array([0, 1, 2, 4, 5, 6, 8, 9, 10])     # top-left 3x3 of a 4x4
_TRANSLATION4 = np.array([3, 7, 11])
_BOTTOM4 = np.array([12, 13, 14, 15])


def _entries(flat):
    """(m, n, n) stack -> (n*n, m) entry rows."""
    return flat.reshape(-1, flat.shape[-1] ** 2).T.copy()


def _stack(entries, n):
    """(n*n, m) entry rows -> (m, n, n) stack."""
    return np.ascontiguousarray(entries.T).reshape(-1, n, n)


def _orthogonality_defect(e, n=3, k=3):
    """``||R^T R - I||_F`` of the top-left k x k block R of n x n entry rows."""
    def gram(i, j):  # (R^T R)_ij: columns i and j dotted
        out = e[i] * e[j]
        for r in range(1, k):
            out += e[n * r + i] * e[n * r + j]
        return out

    diag = [(gram(i, i) - 1.0) ** 2 for i in range(k)]
    off = [gram(i, j) ** 2 for i in range(k) for j in range(i + 1, k)]
    return np.sqrt(sum(diag[1:], diag[0]) + 2.0 * sum(off[1:], off[0]))


def _cos_angle(e):
    """``(tr M - 1)/2``: the cosine of a 3x3 rotation's angle."""
    return 0.5 * (e[0] + e[4] + e[8] - 1.0)


def _squared_norm(v):
    """Squared length of 3-vectors stored as three rows."""
    return v[0] * v[0] + v[1] * v[1] + v[2] * v[2]


def _rodrigues_coefficients(theta):
    """``sin(theta)/theta`` and ``(1 - cos(theta))/theta^2``, exact at 0."""
    half = np.sinc(theta / (2.0 * np.pi))
    return np.sinc(theta / np.pi), 0.5 * half * half


def _v_coefficient(theta):
    """``(theta - sin(theta))/theta^3``, from its Taylor series below 0.5."""
    small = theta < _SERIES_ANGLE
    t = np.where(small, 1.0, theta)
    direct = (t - np.sin(t)) / (t * t * t)
    theta2 = theta * theta
    series = np.full_like(theta, _V_SERIES[-1])
    for coeff in _V_SERIES[-2::-1]:
        series = series * theta2 + coeff
    return np.where(small, series, direct)


def _rotation(skew, w, theta2, a, b):
    """``I + a W + b W^2`` with ``W^2 = w w^T - theta^2 I``, entry by entry."""
    out = (w[:, None] * w[None, :]).reshape(9, -1)
    out *= b
    out += a * skew
    out[_DIAG3] += 1.0 - b * theta2
    return out


def _rotation_exp(e):
    """Rodrigues' formula for exactly skew 3x3 matrices."""
    w = e[_VEE3]
    theta2 = _squared_norm(w)
    a, b = _rodrigues_coefficients(np.sqrt(theta2))
    return _rotation(e, w, theta2, a, b)


def _rigid_exp(e):
    """``[[R, V u], [0, 1]]`` for 4x4 ``[[W, u], [0, 0]]`` with W skew."""
    skew = e[_BLOCK4]
    w = skew[_VEE3]
    u = e[_TRANSLATION4]
    theta2 = _squared_norm(w)
    theta = np.sqrt(theta2)
    a, b = _rodrigues_coefficients(theta)
    c = _v_coefficient(theta)
    # V u = u + b (w x u) + c (w (w . u) - theta^2 u)
    w_cross_u = np.stack([
        w[1] * u[2] - w[2] * u[1],
        w[2] * u[0] - w[0] * u[2],
        w[0] * u[1] - w[1] * u[0],
    ])
    w_dot_u = w[0] * u[0] + w[1] * u[1] + w[2] * u[2]
    out = np.zeros_like(e)
    out[_BLOCK4] = _rotation(skew, w, theta2, a, b)
    out[_TRANSLATION4] = u + b * w_cross_u + c * (w * w_dot_u - theta2 * u)
    out[15] = 1.0
    return out


def _rotation_log(e):
    """``S / sinc(theta)`` with ``S = (M - M^T)/2``, for rotations below pi/2."""
    s = 0.5 * (e - e[_TRANSPOSE3])
    theta = np.arctan2(np.sqrt(_squared_norm(s[_VEE3])), _cos_angle(e))
    return s / np.sinc(theta / np.pi)


def _is_skew(e):
    return ~np.any(e + e[_TRANSPOSE3], axis=0)


def _is_rigid_algebra(e):
    return _is_skew(e[_BLOCK4]) & ~np.any(e[_BOTTOM4], axis=0)


def _is_rotation_below_half_turn(e):
    return (_orthogonality_defect(e) <= _ROTATION_LOG_GATE) & (_cos_angle(e) > 0.0)


def _by_structure(flat, test, closed_form, generic):
    """``closed_form`` on the matrices ``test`` accepts, ``generic`` on the rest.

    ``test`` and ``closed_form`` take and give entry rows; ``generic``
    takes and gives a stack.
    """
    n = flat.shape[-1]
    e = _entries(flat)
    take = test(e)
    if take.all():
        return _stack(closed_form(e), n)
    if not take.any():
        return generic(flat)
    out = np.empty_like(flat)
    out[take] = _stack(closed_form(e[:, take]), n)
    out[~take] = generic(flat[~take])
    return out


def mat_exp(a):
    """Matrix exponential, closed form where a matrix's entries allow one.

    - 3x3 with ``A + A^T == 0`` exactly: Rodrigues' formula
      ``I + sin(t)/t W + (1 - cos t)/t^2 W^2``.
    - 4x4 whose top-left 3x3 block is exactly skew and whose bottom row is
      exactly zero: ``[[R, V u], [0, 1]]`` with
      ``V = I + (1 - cos t)/t^2 W + (t - sin t)/t^3 W^2``.
    - Everything else: ``_taylor_exp`` (per-matrix scaling-and-squaring),
      which is also the oracle the closed forms are tested against.

    The choice is made per matrix, so a batch may mix branches and each
    result is the same as for that matrix alone. The kernels run with
    numpy's overflow warnings off: a non-finite result raises
    ``ExpOverflowError`` instead.
    """
    a = _as_square(a, "mat_exp")
    n = a.shape[-1]
    flat = a.reshape(-1, n, n)
    with np.errstate(over="ignore", invalid="ignore"):
        if n == 3:
            out = _by_structure(flat, _is_skew, _rotation_exp, _taylor_exp)
        elif n == 4:
            out = _by_structure(flat, _is_rigid_algebra, _rigid_exp, _taylor_exp)
        else:
            out = _taylor_exp(flat)
    if not np.all(np.isfinite(out)):
        raise ExpOverflowError("mat_exp: result overflowed double precision")
    return out.reshape(a.shape)


def mat_log(m):
    """Principal matrix logarithm, closed form for near-identity rotations.

    - 3x3 with ``||M^T M - I||_F <= 1e-12`` and ``cos t = (tr M - 1)/2 > 0``:
      ``S / sinc(t)`` with ``S = (M - M^T)/2`` and
      ``t = atan2(|vee S|, cos t)``.
    - Everything else, rotations at ``t >= pi/2`` included: ``_generic_log``
      (inverse scaling-and-squaring), which is also the oracle the closed
      form is tested against and raises ``LogRangeError`` near ``t = pi``.

    The choice is made per matrix, as in ``mat_exp``.
    """
    m = _as_square(m, "mat_log")
    n = m.shape[-1]
    if n != 3:
        return _generic_log(m)
    out = _by_structure(
        m.reshape(-1, n, n), _is_rotation_below_half_turn, _rotation_log, _generic_log
    )
    return out.reshape(m.shape)


def map_stacked(fn, stack):
    """Apply a per-matrix kernel over a (..., d, d) stack in cache-sized blocks.

    The kernel may return matrices or per-matrix scalars; leading axes are
    restored either way. Blocks of ``_ROW_CHUNK`` matrices are written into
    one preallocated output. Blocking is bitwise-neutral because the kernels
    treat each matrix independently.
    """
    d = stack.shape[-1]
    flat = stack.reshape(-1, d, d)
    out = fn(flat[:_ROW_CHUNK])
    if len(flat) > _ROW_CHUNK:
        first = out
        out = np.empty((len(flat),) + first.shape[1:], dtype=first.dtype)
        out[:_ROW_CHUNK] = first
        for i in range(_ROW_CHUNK, len(flat), _ROW_CHUNK):
            out[i : i + _ROW_CHUNK] = fn(flat[i : i + _ROW_CHUNK])
    return out.reshape(stack.shape[:-2] + out.shape[1:])


def tiles(replicas, steps):
    """Tiles of a (replicas, steps) grid of matrices, as index slice pairs.

    A tile holds ``rows = min(replicas, _ROW_CHUNK)`` replicas by
    ``cols = max(1, _ROW_CHUNK // rows)`` steps, so at most ``_ROW_CHUNK``
    matrices, and a pass over the tiles keeps only its outputs full size.
    Tiles come replica block by replica block, each block's steps in order,
    so a per-replica recursion over steps may run across them; with up to
    ``_ROW_CHUNK`` replicas there is one block and a step costs one stacked
    call. Both slices stop inside the grid. Tiling is bitwise-neutral for
    the kernels of this package, which treat each matrix independently.
    """
    rows = max(1, min(replicas, _ROW_CHUNK))
    cols = max(1, _ROW_CHUNK // rows)
    for r in range(0, replicas, rows):
        for k in range(0, steps, cols):
            yield slice(r, min(r + rows, replicas)), slice(k, min(k + cols, steps))


def bilinear(table, x, y):
    """``out[..., k] = sum_ij table[k, i, j] x[..., i] y[..., j]``, bit for bit
    what ``np.einsum`` gives for subscripts ``kij,...i,...j->...k`` on finite
    inputs.

    Only the nonzero entries of ``table`` are visited, in row-major order,
    each term as ``(table[k, i, j] * x[..., i]) * y[..., j]`` added to a
    +0.0 start: einsum's own order. A skipped entry's term is a signed zero,
    which leaves the sum unchanged, so the result keeps einsum's bits. The
    quadratic tables of this package (structure constants, connection
    coefficients) are mostly zeros: se3's Levi-Civita table at lambda = 1
    has 12 nonzero entries of 216.

    Raises DimensionError unless ``x`` ends in ``table.shape[1]`` and ``y``
    in ``table.shape[2]`` entries, as the einsum does.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape[-1:] != table.shape[1:2] or y.shape[-1:] != table.shape[2:3]:
        raise DimensionError(
            f"bilinear: table {table.shape} does not take operands {x.shape}, {y.shape}"
        )
    out = np.zeros(np.broadcast_shapes(x.shape[:-1], y.shape[:-1]) + (len(table),))
    for k, i, j in zip(*np.nonzero(table)):
        out[..., k] += (table[k, i, j] * x[..., i]) * y[..., j]
    return out


def solve_linear(a, b):
    """Solve ``A x = b`` with a conditioning guard.

    Raises SingularMatrixError when A is singular or its condition number
    exceeds 1e13 (the residual guarantee would be meaningless beyond that).
    """
    a = _as_square(a, "solve_linear")
    b = np.asarray(b, dtype=np.float64)
    try:
        x = np.linalg.solve(a, b)
    except np.linalg.LinAlgError as exc:
        raise SingularMatrixError("solve_linear: singular matrix") from exc
    if np.max(np.linalg.cond(a)) > _COND_LIMIT:
        raise SingularMatrixError("solve_linear: matrix too ill-conditioned")
    return x


def spd_cholesky(mat, what="matrix"):
    """Cholesky factor of a symmetric positive definite matrix.

    Raises MetricError when the input is not symmetric within 1e-12 (scaled)
    or not positive definite.
    """
    mat = _as_square(mat, "spd_cholesky")
    scale = max(float(np.max(np.abs(mat))), 1.0)
    if np.max(np.abs(mat - np.swapaxes(mat, -1, -2))) > 1e-12 * scale:
        raise MetricError(f"{what} is not symmetric")
    try:
        return np.linalg.cholesky(mat)
    except np.linalg.LinAlgError as exc:
        raise MetricError(f"{what} is not positive definite") from exc
