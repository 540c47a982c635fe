"""Stochastic exponentials and logarithms between the algebra and the group.

Four operators connect algebra-valued driving paths M to group-valued
paths X, all built on McKean-Gangolli injection (every step multiplies by
the matrix exponential of an algebra element, so group membership is
structural, not approximate):

* ``strat_exponential``: X_{k+1} = X_k exp(dM_k) -- the midpoint-type
  development, inverse of ``strat_logarithm`` (cumulative log increments).
* ``ito_exponential`` w.r.t. a connection function alpha on the group side
  and an optional algebra connection: each injected step is
  ``dM + 1/2 Gamma(dM, dM) - 1/2 alpha(dM, dM)``, i.e. the left-point
  reading with its quadratic-variation compensation placed inside the
  exponent. ``ito_logarithm`` applies the reverse correction
  ``dL + 1/2 alpha(dL, dL) - 1/2 Gamma(dL, dL)`` to the log increments.

With a quadratic-free alpha (alpha(A, A) = 0, e.g. bi-invariant) the
corrections are exactly zero arrays, so the Ito and Stratonovich operators
coincide bit for bit. The algebra connection defaults to flat (all
Christoffels zero), under which algebra martingales are coordinate local
martingales.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .calculus import mc_increments
from .connections import ConnectionFunction
from .errors import (
    DimensionError,
    GroupMismatchError,
    IntegratorDriftError,
    MembershipError,
)
from .groups import MEMBERSHIP_GATE, GroupSpec, membership_defect, to_matrix_coords
from .linalg import bilinear, map_stacked, mat_exp
from .paths import as_ensemble, like


@dataclass(frozen=True)
class AlgebraConnection:
    """Constant-coefficient symmetric connection on the algebra.

    ``christoffels[k, i, j]`` are the coefficients of Gamma(e_i, e_j); the
    default (zero) table is the flat connection.
    """

    group: GroupSpec
    christoffels: np.ndarray | None = None

    def __post_init__(self):
        n = self.group.algebra_dim
        gamma = self.christoffels
        gamma = np.zeros((n, n, n)) if gamma is None else np.asarray(gamma, dtype=np.float64)
        if gamma.shape != (n, n, n):
            raise DimensionError(f"christoffels must be {n}x{n}x{n}, got {gamma.shape}")
        if np.max(np.abs(gamma - np.swapaxes(gamma, 1, 2))) > 1e-12:
            raise ValueError("christoffels must be symmetric in the lower indices")
        gamma = gamma.copy()
        gamma.setflags(write=False)
        object.__setattr__(self, "christoffels", gamma)

    @property
    def is_flat(self):
        return not np.any(self.christoffels)


def flat_connection(spec) -> AlgebraConnection:
    return AlgebraConnection(spec)


def _develop(spec, step_vectors):
    """Cumulative product of exp(step vectors): (..., K, n) -> (..., K+1, d, d)."""
    mats = to_matrix_coords(spec, step_vectors)
    exps = map_stacked(mat_exp, mats)
    lead = step_vectors.shape[:-2]
    steps = step_vectors.shape[-2]
    d = spec.matrix_dim
    out = np.empty(lead + (steps + 1, d, d))
    out[..., 0, :, :] = np.eye(d)
    cur = np.broadcast_to(np.eye(d), lead + (d, d))
    for k in range(steps):
        cur = cur @ exps[..., k, :, :]
        out[..., k + 1, :, :] = cur
    return out


def _gate_membership(spec, values):
    defect = map_stacked(lambda m: membership_defect(spec, m), values)
    worst = float(np.max(defect))
    if not worst <= MEMBERSHIP_GATE:  # NaN fails too
        raise IntegratorDriftError(
            f"{spec.name}: integrator drifted off the group "
            f"(membership defect {worst:.3e} > {MEMBERSHIP_GATE:.1e}); "
            "use a smaller dt"
        )


def _ito_correction(spec, v, alpha, algebra_connection):
    """Quadratic Ito correction ``1/2 Gamma(v,v) - 1/2 alpha(v,v)`` per step.

    The exponential adds it to the driver increments; the logarithm
    subtracts it from the log increments.
    """
    if alpha.group != spec:
        raise GroupMismatchError(
            f"connection on {alpha.group.name} used with {spec.name} paths"
        )
    conn = algebra_connection or flat_connection(spec)
    if conn.group != spec:
        raise GroupMismatchError("algebra connection group mismatch")
    correction = -0.5 * bilinear(alpha.symmetric_part(), v, v)
    if not conn.is_flat:
        correction = correction + 0.5 * bilinear(conn.christoffels, v, v)
    return correction


def _cumulative(increments):
    out = np.zeros(increments.shape[:-2] + (increments.shape[-2] + 1, increments.shape[-1]))
    np.cumsum(increments, axis=-2, out=out[..., 1:, :])
    return out


def _developed(ens, steps):
    """Ensemble developed from its identity start by the given step vectors."""
    values = _develop(ens.group, steps)
    _gate_membership(ens.group, values)
    return ens.with_values(values, step_logs=steps)


def strat_exponential(m):
    """Development of an algebra path into the group (identity start).

    Accepts an AlgebraPath or an algebra Ensemble and returns the
    corresponding group-valued object, step logs attached.
    """
    ens = as_ensemble(m, group_valued=False)
    return like(m, _developed(ens, np.diff(ens.values, axis=-2)))


def strat_logarithm(x):
    """Cumulative left-trivialized increments of a group path (starts at 0)."""
    ens = as_ensemble(x, group_valued=True)
    return like(x, ens.with_values(_cumulative(mc_increments(ens))))


def ito_exponential(m, alpha: ConnectionFunction, algebra_connection=None):
    """Solve the Ito development equation for a driving algebra path.

    One-step scheme: inject ``exp(dM + 1/2 Gamma(dM,dM) - 1/2 alpha(dM,dM))``.
    The group-side correction makes the compensated logarithm of the output
    a drift-free readback of M (strong order 1/2 in general, exact when
    alpha is quadratic-free). Only the symmetric part of alpha enters the
    quadratic correction, so the scheme is insensitive to the torsion
    normalization of the connection table.
    """
    ens = as_ensemble(m, group_valued=False)
    dm = np.diff(ens.values, axis=-2)
    v = dm + _ito_correction(ens.group, dm, alpha, algebra_connection)
    return like(m, _developed(ens, v))


def ito_logarithm(x, alpha: ConnectionFunction, algebra_connection=None):
    """Compensated logarithm of a group path (starts at 0).

    Returns the cumulative sum of ``dL + 1/2 alpha(dL,dL) - 1/2 Gamma(dL,dL)``
    over the left-trivialized increments dL; with the flat algebra
    connection this is exactly the Stratonovich logarithm plus half the
    running alpha-quadratic sum.
    """
    ens = as_ensemble(x, group_valued=True)
    dl = mc_increments(ens)
    corrected = dl - _ito_correction(ens.group, dl, alpha, algebra_connection)
    return like(x, ens.with_values(_cumulative(corrected)))


def roundtrip_errors(m, alpha: ConnectionFunction):
    """Terminal round-trip error ``|log(exp(M)) - M|`` of the Ito pair, one
    per replica (a number for a single path)."""
    ens = as_ensemble(m, group_valued=False)
    back = ito_logarithm(ito_exponential(ens, alpha), alpha)
    return like(m, np.linalg.norm(back.values[:, -1] - ens.values[:, -1], axis=-1))


def translate_initial(xi, x):
    """Left-translate a group path (or ensemble) by a fixed group element.

    The left-trivialized increments are unchanged, so every log-type
    operator returns identical output for the translated path.
    """
    ens = as_ensemble(x, group_valued=True)
    spec = ens.group
    xi = np.asarray(xi, dtype=np.float64)
    defect = float(np.max(membership_defect(spec, xi)))
    if not defect <= MEMBERSHIP_GATE:  # NaN fails too
        raise MembershipError(
            f"{spec.name}: translation element defect {defect:.3e} exceeds gate"
        )
    return like(x, ens.with_values(xi @ ens.values, step_logs=ens.step_logs))
