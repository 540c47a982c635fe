"""Dense small-matrix kernels: exponential, logarithm, solves, norms, and
the bilinear contraction of coordinate vectors with a (k, i, j) table.

Everything here accepts stacked operands: an array of shape (..., n, n) is
treated as a batch of matrices over the leading axes. Each matrix is
processed independently of the rest of the batch (square roots and
stopping decisions are made per matrix), so results are identical
no matter how a batch is chunked. That property is what lets
``map_stacked`` run a kernel over cache-sized blocks, the develop of
``explog`` run over the cache-sized tiles of ``tiles``, and the per-step
passes of ``explog``, ``calculus`` and ``campbell`` run over the contiguous
slabs of ``slabs``, without changing a bit.

``mat_exp`` and ``mat_log`` check a stack and run the kernel that the caller
passes from a group's catalog row (``GroupSpec.exp`` or ``GroupSpec.log``) on
it as it lies: the view of entry rows that ``groups.to_matrix_coords`` returns
reaches the exp kernel uncopied, and no kernel writes into its input. Nothing
here knows a group: the row kernels and their entry-row helpers live in
``groups``. The one generic kernel here, ``generic_log`` (inverse
scaling-and-squaring), is the log of the rows that have no closed form for it.

Matrices are plain float64 numpy arrays; higher-level modules enforce the
"entries finite" contract by calling these kernels.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionError,
    ExpOverflowError,
    LogRangeError,
    MetricError,
    SingularMatrixError,
)

# Norm threshold below which the truncated log series reaches double
# precision, and the series order that achieves it.
_LOG_RADIUS = 0.25  # Gregory series with odd powers up to 17
_LOG_GREGORY_TERMS = 9
_MAX_SQRT_LEVELS = 40
_SQRT_MAX_ITER = 60
_COND_LIMIT = 1e13

# Matrices per block of ``map_stacked`` (the entry-row kernels in
# ``groups``), per tile of ``tiles`` (the develop's product) and per slab of
# ``slabs`` (the other per-step passes): 4096 4x4 matrices are 512 KB of
# entry rows, which stay in cache through a kernel's passes. Whole-batch
# rows do not: on 2x10^5 se3 matrices exp ran 2x slower in one block, and
# the so3 and se3 defects 1.3-3x slower on 10^5. Blocks of 8192 were up to
# 1.25x faster for the defects but held more memory (export-sixgroups peak
# RSS +1%). The bound also caps the scratch of a pass: on se3 at 2000 x 100
# steps (by tracemalloc), ``ito_exponential`` holds 3.2 MB above its
# 35.5 MB of output, ``ito_logarithm`` 1.2 MB above 9.7 MB and the readback
# 3.5 MB above 9.6 MB.
_ROW_CHUNK = 4096


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


def generic_log(m):
    """Principal matrix logarithm by inverse scaling-and-squaring.

    Square roots are taken per matrix until ``||M - I|| <= 0.25``, then the
    Gregory series ``log M = 2 * sum z^(2k+1)/(2k+1)`` with
    ``z = (M - I)(M + I)^-1`` finishes the job. Intended regime: one-step
    group increments, which are near the identity by construction. It is
    the se2, se3, e11 and n3 rows' log, the fallback of the so3 and sl2r
    logs, and the oracle that their closed forms are tested against. Like
    every row kernel it takes an (m, d, d) stack that ``mat_log`` has
    already checked.
    """
    flat = m.copy()

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
    return (2.0 * (2.0 ** s))[:, None, None] * acc


def mat_exp(a, kernel):
    """Matrix exponential of a stack by ``kernel``, a catalog row's exp
    (``GroupSpec.exp``).

    The kernel maps an (m, d, d) stack of that group's algebra elements to
    group elements, and the caller vouches that ``a`` lies in that algebra.
    The stack is ``a`` reshaped, a view of it wherever numpy can make one
    (``to_matrix_coords`` output): the kernel reads it and writes nothing
    into it.
    It runs with numpy's overflow warnings off: a non-finite result raises
    ``ExpOverflowError`` instead.
    """
    a = _as_square(a, "mat_exp")
    n = a.shape[-1]
    with np.errstate(over="ignore", invalid="ignore"):
        out = kernel(a.reshape(-1, n, n))
    if not np.all(np.isfinite(out)):
        raise ExpOverflowError("mat_exp: result overflowed double precision")
    return out.reshape(a.shape)


def mat_log(m, kernel):
    """Principal matrix logarithm of a stack by ``kernel``, a catalog row's
    log (``GroupSpec.log``), which maps an (m, d, d) stack of that group's
    elements to algebra elements.
    """
    m = _as_square(m, "mat_log")
    n = m.shape[-1]
    return kernel(m.reshape(-1, n, n)).reshape(m.shape)


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


def _grid(replicas, steps, rows, cols):
    for r in range(0, replicas, rows):
        for k in range(0, steps, cols):
            yield slice(r, min(r + rows, replicas)), slice(k, min(k + cols, steps))


def tiles(replicas, steps):
    """Tiles of a (replicas, steps) grid of matrices, as index slice pairs,
    for a per-replica recursion over steps (the develop's product).

    A tile holds ``rows = min(replicas, _ROW_CHUNK)`` replicas by
    ``cols = max(1, _ROW_CHUNK // rows)`` steps, so at most ``_ROW_CHUNK``
    matrices. Tiles come replica block by replica block, each block's steps
    in order, so the recursion may run across them; with up to
    ``_ROW_CHUNK`` replicas there is one block and a step costs one stacked
    call. The first tile is the largest. Both slices stop inside the grid.
    """
    rows = max(1, min(replicas, _ROW_CHUNK))
    return _grid(replicas, steps, rows, max(1, _ROW_CHUNK // rows))


def slabs(replicas, steps):
    """Slabs of a (replicas, steps) grid of matrices, as index slice pairs,
    for a pass that treats each step on its own.

    A slab holds ``max(1, _ROW_CHUNK // steps)`` whole replicas, or, when a
    replica has more than ``_ROW_CHUNK`` steps, ``_ROW_CHUNK`` steps of one
    replica: at most ``_ROW_CHUNK`` matrices that lie together in a
    C-ordered (replicas, steps, ...) array, so a slab of it is a contiguous
    view. Slabs come in memory order and stop inside the grid. Like
    tiling, slabbing is bitwise-neutral for the kernels of this package,
    which treat each matrix independently.
    """
    cols = max(1, min(steps, _ROW_CHUNK))
    return _grid(replicas, steps, max(1, _ROW_CHUNK // cols), cols)


def bilinear(table, x, y):
    """``out[..., k] = sum_ij table[k, i, j] x[..., i] y[..., j]``, bit for bit
    what ``np.einsum`` gives for subscripts ``kij,...i,...j->...k`` on finite
    inputs.

    Only the nonzero entries of ``table`` are visited, in row-major order,
    each term as ``(table[k, i, j] * x[..., i]) * y[..., j]`` added to a
    +0.0 start: einsum's own order. A skipped entry's term is a signed zero,
    which leaves the sum unchanged, so the result keeps einsum's bits. The
    terms run on coordinate-major contiguous copies of ``x`` and ``y`` (one
    copy when they are the same array), and the (k, ...) sums are returned
    as a (..., k) view, not copied back: the callers use the result
    elementwise, and the copy took about a quarter of an se3 slab's call.
    An all-zero table, the symmetric part of a bi-invariant connection,
    returns +0.0 zeros at once. The quadratic
    tables of this package (structure constants, connection coefficients)
    are mostly zeros: se3's Levi-Civita table at lambda = 1 has 12 nonzero
    entries of 216.

    Raises DimensionError unless ``x`` ends in ``table.shape[1]`` and ``y``
    in ``table.shape[2]`` entries, as the einsum does.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape[-1:] != table.shape[1:2] or y.shape[-1:] != table.shape[2:3]:
        raise DimensionError(
            f"bilinear: table {table.shape} does not take operands {x.shape}, {y.shape}"
        )
    lead = np.broadcast_shapes(x.shape[:-1], y.shape[:-1])
    terms = np.nonzero(table)
    if not len(terms[0]):
        return np.zeros(lead + (len(table),))
    xt = np.moveaxis(x, -1, 0).copy()
    yt = xt if y is x else np.moveaxis(y, -1, 0).copy()
    sums = np.zeros((len(table),) + lead)
    term = np.empty(lead)
    for k, i, j in zip(*terms):
        np.multiply(xt[i], table[k, i, j], out=term)
        term *= yt[j]
        sums[k] += term
    return np.moveaxis(sums, 0, -1)


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
