"""Stochastic Campbell-Hausdorff identities, checked by shared-noise runs.

For a quadratic-free connection function (alpha(A, A) = 0) and two driving
semimartingales M, N with vanishing cross quadratic variation, the group
exponential factorizes:

    exp(M + N) = exp( int Ad(exp(N)) dM ) * exp(N)

and, equivalently on the logarithm side, for group paths X, Y:

    log(X Y) = int Ad(Y^-1) d log(X) + log(Y).

Both identities hold in the simultaneous-limit sense; discretized, the two
sides are computed from one shared increment stream and compared pathwise.
The adjoint-weighted integral supports two discretizations:

* ``rule="ito"`` (left point): evaluates Ad at the step's left endpoint.
  Its residual converges at strong order 1/2 (the defect is half the
  realized bracket of the increments, a zero-mean sum of order sqrt(dt)).
* ``rule="midpoint"``: evaluates Ad at the geometric midpoint
  ``Y_k exp(log(Y_k^-1 Y_{k+1}) / 2)``, which cancels the symmetric part
  of the defect and converges at strong order 1.

The exponential-identity checker defaults to the midpoint rule; the
left-point rule is kept for the slow-convergence comparison experiment.

Two develops that do not depend on each other run as one: ``exp(M+N)`` and
``exp(N)`` in the exponential identity, X and Y in the logarithm ladder.
Their drivers are written into one (2R, K+1, n) buffer, developed as one
ensemble of 2R replicas and split back into halves (``Ensemble.split``).
Each replica still goes through the same matmuls as when developed alone,
so every bit is what the two develops would give; the stack halves the
develop's per-step calls. The membership gate covers both halves, so a
driver that leaves the group in either one raises before any residual is
formed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .calculus import mc_increments
from .errors import (
    DimensionError,
    GridMismatchError,
    GroupMismatchError,
    HypothesisError,
    PowerError,
)
from .explog import check_drift, ito_exponential, ito_logarithm
from .groups import adjoint_matrices, group_inverse, to_matrix_coords
from .linalg import frobenius_dist, mat_exp, slabs
from .paths import Ensemble, TimeGrid, brownian_ensemble, expect, null_qv_check, rung_steps

AD_RULES = ("ito", "midpoint")

HORIZON = 1.0  # the terminal time of every rung of the ladders


def _check_pair(x, y, x_group, y_group):
    """Check that both ensembles have the given value kinds and share
    group, grid and replica count."""
    expect(x, x_group)
    expect(y, y_group)
    if x.group != y.group:
        raise GroupMismatchError(f"mixed groups: {x.group.name} vs {y.group.name}")
    if x.grid != y.grid:
        raise GridMismatchError("operands live on different time grids")
    if x.replicas != y.replicas:
        raise DimensionError("ensembles have different replica counts")


def _adjoint_sum(y, values, rule, inverse):
    """Running sum of ``Ad(Y_k) dV_k`` (of ``Ad(Y_k^-1)`` when ``inverse``).

    ``y`` is a group ensemble and ``values`` stacked algebra coordinates on
    its grid. The left-point rule takes Ad at Y_k; the midpoint rule at the
    geometric midpoint ``Y_k exp(dL_k / 2)`` of each step (whose inverse is
    ``exp(-dL_k / 2) Y_k^-1``). The half-step exponential, the adjoint and
    the contraction run slab by slab (``linalg.slabs``), each step on its
    own; only the running sum crosses steps.
    """
    if rule not in AD_RULES:
        raise ValueError(f"rule must be one of {AD_RULES}")
    spec = y.group
    dl = mc_increments(y) if rule == "midpoint" else None
    sign = -0.5 if inverse else 0.5
    out = np.zeros(values.shape)
    steps = out[:, 1:]
    for r, k in slabs(y.replicas, y.grid.steps):
        base = y.values[r, k]
        if inverse:
            base = group_inverse(spec, base)
        if dl is not None:
            half = mat_exp(to_matrix_coords(spec, sign * dl[r, k]), spec.exp)
            base = half @ base if inverse else base @ half
        admats = adjoint_matrices(spec, base)
        dv = values[r, k.start + 1 : k.stop + 1] - values[r, k]
        steps[r, k] = np.einsum("...kij,...kj->...ki", admats, dv)
    np.cumsum(steps, axis=1, out=steps)
    return out


def ad_integral(y, m, rule="ito"):
    """Adjoint-weighted integral ``int Ad(Y) dM`` along the grid.

    ``y`` is a group ensemble, ``m`` an algebra ensemble on the same grid.
    The left-point rule sums ``Ad(Y_k) dM_k``; the midpoint rule evaluates
    Ad at the geometric midpoint of each step of Y. Returns an algebra
    ensemble (starts at 0).
    """
    _check_pair(y, m, True, False)
    return m.with_values(_adjoint_sum(y, m.values, rule, inverse=False))


def _check_hypotheses(alpha, p, q, significance, what):
    """Raise HypothesisError unless alpha is quadratic-free and every replica
    pair of the stacked ``p``, ``q`` passes the null quadratic variation
    check."""
    if not alpha.is_quadratic_free():
        raise HypothesisError(
            f"{what}: hypothesis violated: alpha(A, A) != 0 "
            f"(connection {alpha.label!r} has a symmetric part)"
        )
    # Bonferroni across replicas keeps the ensemble-level false-alarm
    # rate at the requested significance.
    adj = 1.0 - (1.0 - significance) / p.replicas
    for r, (pr, qr) in enumerate(zip(p.coordinates, q.coordinates)):
        res = null_qv_check(pr, qr, adj)
        if not res.passed:
            raise HypothesisError(
                f"{what}: hypothesis violated: replica {r} fails the null "
                f"quadratic variation check (worst ratio {res.worst_ratio:.2f})"
            )


def ch_residual(m, n, alpha, rule="midpoint", significance=0.99, enforce_hypotheses=True):
    """Pathwise defect of the exponential Campbell-Hausdorff identity.

    Both sides are driven by the same increments of (m, n). Returns the
    running Frobenius distance between ``exp(M+N)`` and
    ``exp(int Ad(exp(N)) dM) exp(N)``, shape (replicas, steps+1).

    Preconditions (checked unless ``enforce_hypotheses=False``): alpha is
    quadratic-free and (m, n) pass the null quadratic variation test.
    """
    _check_pair(m, n, False, False)
    if enforce_hypotheses:
        _check_hypotheses(alpha, m, n, significance, "ch_residual")
    lhs, y = _develop_pair(m, n, alpha, summed=True)
    x = ito_exponential(ad_integral(y, m, rule=rule), alpha)
    return frobenius_dist(lhs.values, x.values @ y.values)


def _develop_pair(m, n, alpha, summed):
    """``ito_exponential`` of the drivers ``m`` (``m + n`` when ``summed``)
    and ``n`` as one ensemble of 2R replicas, returned as its two halves:
    bit for bit the two develops run apart.

    Both drivers are written straight into one buffer, the sum included,
    which is dropped once developed.
    """
    drivers = np.empty((2,) + n.values.shape)
    if summed:
        np.add(m.values, n.values, out=drivers[0])
    else:
        drivers[0] = m.values
    drivers[1] = n.values
    stacked = Ensemble(m.group, m.grid, drivers.reshape((-1,) + drivers.shape[2:]))
    return ito_exponential(stacked, alpha).split(2)


def log_product_residual(x, y, alpha, rule="ito", significance=0.99, enforce_hypotheses=True):
    """Pathwise defect of the logarithm Campbell-Hausdorff identity.

    Compares ``log(X Y)`` with ``int Ad(Y^-1) d log(X) + log(Y)`` in
    coordinates; returns the running coordinate 2-norm of the difference,
    shape (replicas, steps+1).
    """
    _check_pair(x, y, True, True)
    if enforce_hypotheses:
        _check_hypotheses(alpha, x, y, significance, "log_product_residual")
    rhs = _adjoint_sum(y, ito_logarithm(x, alpha).values, rule, inverse=True)
    rhs += ito_logarithm(y, alpha).values
    diff = ito_logarithm(product_path(x, y), alpha).values - rhs
    return np.sqrt(np.einsum("...ki,...ki->...k", diff, diff))


def product_path(x, y):
    """Pointwise product of two group ensembles on one grid, gated and not
    scanned for finiteness again: the gate refuses a non-finite value."""
    _check_pair(x, y, True, True)
    with np.errstate(over="ignore", invalid="ignore"):  # the gate reports it
        values = x.values @ y.values
    check_drift(x.group, values)
    return x.with_gated_values(values)


@dataclass(frozen=True)
class CHReport:
    """Convergence-ladder record for one Campbell-Hausdorff experiment."""

    group: str
    connection: str
    kind: str                 # "exponential-identity" or "logarithm-identity"
    rule: str
    dt_ladder: tuple
    mean_terminal: tuple
    max_terminal: tuple
    stderr_terminal: tuple
    replicas: int
    base_seed: int

    def __post_init__(self):
        k = len(self.dt_ladder)
        if not (len(self.mean_terminal) == len(self.max_terminal) == len(self.stderr_terminal) == k):
            raise DimensionError("residual lists must match the dt ladder")
        if not all(v >= 0 for v in self.mean_terminal + self.max_terminal):
            raise ValueError("residuals must be non-negative numbers")

    def monotone_within_se(self):
        """True when mean residuals decrease along the ladder, allowing one
        standard error of slack per comparison."""
        m, se = self.mean_terminal, self.stderr_terminal
        return all(
            m[i + 1] <= m[i] + np.hypot(se[i], se[i + 1]) for i in range(len(m) - 1)
        )


def _ladder(kind, group, alpha, dts, replicas, base_seed, rule, significance):
    if replicas < 2:  # each rung reports a standard error
        raise PowerError(f"need at least 2 replicas for a standard error, got {replicas}")
    counts = [rung_steps(HORIZON, dt) for dt in dts]  # checks every rung before any runs
    means, maxes, ses = [], [], []
    for idx, steps in enumerate(counts):
        grid = TimeGrid(HORIZON, steps)
        # disjoint seed blocks per rung and per side of the pair
        m_ens = brownian_ensemble(group, grid, base_seed + 2 * idx, replicas)
        n_ens = brownian_ensemble(group, grid, base_seed + 2 * idx + 1, replicas)
        if kind == "exponential-identity":
            res = ch_residual(m_ens, n_ens, alpha, rule=rule, significance=significance)
        else:
            x, y = _develop_pair(m_ens, n_ens, alpha, summed=False)
            res = log_product_residual(x, y, alpha, rule=rule, significance=significance)
        terminal = res[:, -1]
        means.append(float(np.mean(terminal)))
        maxes.append(float(np.max(terminal)))
        ses.append(float(np.std(terminal, ddof=1) / np.sqrt(replicas)))
    return CHReport(
        group=group.name,
        connection=alpha.label,
        kind=kind,
        rule=rule,
        dt_ladder=tuple(float(dt) for dt in dts),
        mean_terminal=tuple(means),
        max_terminal=tuple(maxes),
        stderr_terminal=tuple(ses),
        replicas=replicas,
        base_seed=int(base_seed),
    )


def ch_ladder(group, alpha, dts=(4e-3, 2e-3, 1e-3), replicas=256, base_seed=0,
              rule="midpoint", significance=0.99):
    """Exponential-identity residual ladder over a list of step sizes."""
    return _ladder("exponential-identity", group, alpha, dts, replicas, base_seed,
                   rule, significance)


def log_product_ladder(group, alpha, dts=(4e-3, 2e-3, 1e-3), replicas=256, base_seed=0,
                       rule="ito", significance=0.99):
    """Logarithm-identity residual ladder over a list of step sizes."""
    return _ladder("logarithm-identity", group, alpha, dts, replicas, base_seed,
                   rule, significance)
