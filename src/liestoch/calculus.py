"""Left-trivialized increments of group paths.

Everything here is driven by the one-step increments
``dL_k = log(X_k^-1 X_{k+1})`` of a group path in algebra coordinates,
which ``mc_increments`` returns. Line integrals of a left-invariant
1-form with covector eta need no function of their own: they are the
contracted logarithms ``explog.strat_logarithm(x).values @ eta`` and
``explog.ito_logarithm(x, alpha).values @ eta``, so the conversion identity
(Ito = Stratonovich + half the running sum of ``eta . alpha(dL_k, dL_k)``)
holds at every step up to roundoff.

Group values are (R, K+1, d, d) arrays and increments (R, K, n); the
readback from values runs ``mat_log`` by the group's readback kernel
(``GroupSpec.readback``) over the contiguous replica slabs of ``linalg.slabs``.
"""

from __future__ import annotations

import numpy as np

from .groups import group_inverse
from .linalg import mat_log, slabs
from .paths import expect


def increments_from_values(spec, values):
    """Left-trivialized increments of stacked group values.

    values: (R, K+1, d, d) -> coordinates (R, K, n), read back slab by slab
    (``linalg.slabs``): inverse, product, and ``mat_log`` by the group's
    readback (``GroupSpec.readback``), which writes coordinates.
    """
    replicas, count = values.shape[0], values.shape[1] - 1
    out = np.empty((replicas, count, spec.algebra_dim))
    for r, k in slabs(replicas, count):
        left = values[r, k]
        right = values[r, k.start + 1 : k.stop + 1]
        out[r, k] = mat_log(group_inverse(spec, left) @ right, spec.readback)
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
