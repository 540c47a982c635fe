"""Stochastic line integrals along group paths, in left trivialization.

Every integral here is driven by the left-trivialized one-step increments
``dL_k = log(X_k^-1 X_{k+1})`` of a group path, projected onto the algebra
basis. For a left-invariant 1-form eta:

* Stratonovich integral: running sum of ``eta(dL_k)``;
* Ito integral w.r.t. a connection function alpha: running sum of
  ``eta(dL_k + 1/2 alpha(dL_k, dL_k))``;
* quadratic integral of a bilinear b: running sum of ``b(dL_k, dL_k)``.

The conversion identity (Ito = Stratonovich + half the alpha-contracted
quadratic integral) then holds at every step by construction, up to
floating-point roundoff.

Group values are (R, K+1, d, d) arrays and increments (R, K, n); the
readback from values runs over the tiles of ``linalg.tiles``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .connections import ConnectionFunction
from .errors import DimensionError, GroupMismatchError
from .groups import GroupSpec, from_matrix_coords, group_inverse
from .linalg import bilinear, mat_log, tiles
from .paths import expect


@dataclass(frozen=True)
class LeftInvariantOneForm:
    """Left-invariant 1-form, given by its covector on the algebra basis."""

    group: GroupSpec
    covector: np.ndarray

    def __post_init__(self):
        cov = np.asarray(self.covector, dtype=np.float64)
        if cov.shape != (self.group.algebra_dim,):
            raise DimensionError(
                f"covector must have shape ({self.group.algebra_dim},), got {cov.shape}"
            )
        if not np.all(np.isfinite(cov)):
            raise ValueError("covector must be finite")
        object.__setattr__(self, "covector", cov)


def increments_from_values(spec, values):
    """Left-trivialized increments of stacked group values.

    values: (R, K+1, d, d) -> coordinates (R, K, n), read back tile by tile
    (``linalg.tiles``): inverse, product, ``mat_log`` and projection.
    """
    replicas, count = values.shape[0], values.shape[1] - 1
    out = np.empty((replicas, count, spec.algebra_dim))
    for r, k in tiles(replicas, count):
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


def _require_group(form_or_conn, path):
    if form_or_conn.group != path.group:
        raise GroupMismatchError(
            f"{form_or_conn.group.name} object applied to a {path.group.name} path"
        )


def _running_sum(per_step):
    out = np.zeros(per_step.shape[:-1] + (per_step.shape[-1] + 1,))
    np.cumsum(per_step, axis=-1, out=out[..., 1:])
    return out


def strat_integral(eta: LeftInvariantOneForm, x):
    """Stratonovich integral of a left-invariant 1-form along a group
    ensemble: the running values on the grid, shape (replicas, steps+1).
    """
    expect(x, group_valued=True)
    _require_group(eta, x)
    dl = mc_increments(x)
    return _running_sum(dl @ eta.covector)


def ito_integral(eta: LeftInvariantOneForm, x, alpha: ConnectionFunction):
    """Ito integral of a left-invariant 1-form w.r.t. a connection function.

    Equals the Stratonovich integral plus half the running quadratic
    correction ``eta(alpha(dL, dL))``. Only the symmetric part of alpha
    contributes; it is contracted as such, so a bi-invariant alpha gives
    the Stratonovich integral back exactly.
    """
    expect(x, group_valued=True)
    _require_group(eta, x)
    _require_group(alpha, x)
    dl = mc_increments(x)
    correction = bilinear(alpha.symmetric_part(), dl, dl)
    return _running_sum((dl + 0.5 * correction) @ eta.covector)


def quadratic_integral(b, x):
    """Running quadratic integral of an (n, n) bilinear along a group
    ensemble, shape (replicas, steps+1)."""
    expect(x, group_valued=True)
    b = np.asarray(b, dtype=np.float64)
    n = x.group.algebra_dim
    if b.shape != (n, n):
        raise DimensionError(f"bilinear table must be {n}x{n}, got {b.shape}")
    dl = mc_increments(x)
    return _running_sum(np.einsum("ij,...ki,...kj->...k", b, dl, dl))
