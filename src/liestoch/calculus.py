"""Left-trivialized increments of group paths and their quadratic integrals.

Everything here is driven by the one-step increments
``dL_k = log(X_k^-1 X_{k+1})`` of a group path, projected onto the algebra
basis: ``mc_increments`` returns them and ``quadratic_integral`` sums
``b(dL_k, dL_k)`` for a bilinear b. Line integrals of a left-invariant
1-form with covector eta need no function of their own: they are the
contracted logarithms ``explog.strat_logarithm(x).values @ eta`` and
``explog.ito_logarithm(x, alpha).values @ eta``, so the conversion identity
(Ito = Stratonovich + half the quadratic integral of ``eta . alpha``) holds
at every step up to roundoff.

Group values are (R, K+1, d, d) arrays and increments (R, K, n); the
readback from values runs over the contiguous replica slabs of
``linalg.slabs``.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionError
from .groups import from_matrix_coords, group_inverse
from .linalg import mat_log, slabs
from .paths import expect


def increments_from_values(spec, values):
    """Left-trivialized increments of stacked group values.

    values: (R, K+1, d, d) -> coordinates (R, K, n), read back slab by slab
    (``linalg.slabs``): inverse, product, ``mat_log`` and projection.
    """
    replicas, count = values.shape[0], values.shape[1] - 1
    out = np.empty((replicas, count, spec.algebra_dim))
    for r, k in slabs(replicas, count):
        left = values[r, k]
        right = values[r, k.start + 1 : k.stop + 1]
        out[r, k] = from_matrix_coords(spec, mat_log(group_inverse(spec, left) @ right))
    return out


def mc_increments(x):
    """Per-step left-trivialized increments of a group ensemble, shape
    (replicas, steps, n).

    Solver-built ensembles carry their injected step vectors and return
    them directly (developing and reading back are then exact inverses);
    values built by hand are logged and projected.
    """
    expect(x, group_valued=True)
    if x.step_logs is not None:
        return x.step_logs
    return increments_from_values(x.group, x.values)


def quadratic_integral(b, x):
    """Running quadratic integral of an (n, n) bilinear along a group
    ensemble, shape (replicas, steps+1)."""
    expect(x, group_valued=True)
    b = np.asarray(b, dtype=np.float64)
    n = x.group.algebra_dim
    if b.shape != (n, n):
        raise DimensionError(f"bilinear table must be {n}x{n}, got {b.shape}")
    dl = mc_increments(x)
    per_step = np.einsum("ij,...ki,...kj->...k", b, dl, dl)
    out = np.zeros(per_step.shape[:-1] + (per_step.shape[-1] + 1,))
    np.cumsum(per_step, axis=-1, out=out[..., 1:])
    return out
