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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .connections import ConnectionFunction
from .errors import DimensionError, GroupMismatchError
from .groups import GroupSpec, from_matrix_coords, group_inverse
from .linalg import DEFAULT_TOLERANCE, bilinear, map_stacked, mat_log
from .paths import as_ensemble, like


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


def increments_from_values(spec, values, tol=DEFAULT_TOLERANCE):
    """Left-trivialized increments of stacked group values.

    values: (..., steps+1, d, d) -> coordinates (..., steps, n).
    """
    left = values[..., :-1, :, :]
    right = values[..., 1:, :, :]
    steps_mats = group_inverse(spec, left) @ right
    logs = map_stacked(mat_log, steps_mats)
    return from_matrix_coords(spec, logs, tol)


def mc_increments(x, tol=DEFAULT_TOLERANCE):
    """Per-step left-trivialized increments of a group path or ensemble.

    Returns an array of shape (steps, n) for a path, (replicas, steps, n)
    for an ensemble. Solver-built paths carry their injected step vectors
    and return them directly (developing and reading back are then exact
    inverses); paths built by hand are logged and projected.
    """
    ens = as_ensemble(x, group_valued=True)
    dl = ens.step_logs
    if dl is None:
        dl = increments_from_values(ens.group, ens.values, tol)
    return like(x, dl)


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
    """Stratonovich integral of a left-invariant 1-form along a group path.

    Returns the running values on the grid, shape (steps+1,) per path.
    """
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
    _require_group(eta, x)
    _require_group(alpha, x)
    dl = mc_increments(x)
    correction = bilinear(alpha.symmetric_part(), dl, dl)
    return _running_sum((dl + 0.5 * correction) @ eta.covector)


def quadratic_integral(b, x):
    """Running quadratic integral of an (n, n) bilinear along a group path."""
    b = np.asarray(b, dtype=np.float64)
    n = x.group.algebra_dim
    if b.shape != (n, n):
        raise DimensionError(f"bilinear table must be {n}x{n}, got {b.shape}")
    dl = mc_increments(x)
    return _running_sum(np.einsum("ij,...ki,...kj->...k", b, dl, dl))
