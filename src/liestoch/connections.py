"""Left-invariant connections as bilinear tables on the algebra.

A left-invariant affine connection is encoded by its connection function, a
bilinear map on the algebra stored densely as a rank-3 coefficient table
``coeffs[k, i, j]`` meaning ``alpha(e_i, e_j) = sum_k coeffs[k, i, j] e_k``;
on (..., n) coordinate arrays, ``alpha(x, y)`` is
``linalg.bilinear(conn.coeffs, x, y)``. Two constructions are provided:

* the torsion-free bi-invariant connection, ``alpha = 1/2 [.,.]``;
* the Levi-Civita connection of a left-invariant metric,
  ``alpha = 1/2 [.,.] + U``, with U the symmetric bilinear solving
  ``2 <U(A,B), C> = <A, [C,B]> + <[C,A], B>`` for every basis C.

The catalog metric (``metric_for``) is diagonal in the declared basis,
with the weights named by each group's catalog row. For the non-compact
catalog groups the diagonal U(L, L) also has known closed forms, one table
``_U_DISPLAYS`` keyed by group and then by reading; ``closed_form_u``
encodes the primary one as printed (by polarization) and
``regress_closed_forms`` compares every reading against the metric solve,
flagging disagreements instead of patching them.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import MetricError, UnsupportedGroupError
from .groups import GroupSpec, get_group, structure_constants
from .linalg import solve_linear, spd_cholesky

# Agreement threshold between closed forms and the metric solve.
REGRESSION_TOL = 1e-10
# Metric scales at which the closed forms are compared with the solve.
REGRESSION_LAMBDAS = (0.5, 1.0, 2.0)


@dataclass(frozen=True)
class MetricSpec:
    """Left-invariant metric as the Gram matrix of the declared basis."""

    group: GroupSpec
    gram: np.ndarray
    lam: float = 1.0

    def __post_init__(self):
        gram = np.asarray(self.gram, dtype=np.float64)
        n = self.group.algebra_dim
        if gram.shape != (n, n):
            raise MetricError(f"gram must be {n}x{n}, got {gram.shape}")
        spd_cholesky(gram, what="gram matrix")  # validates symmetry + SPD
        gram = gram.copy()
        gram.setflags(write=False)
        object.__setattr__(self, "gram", gram)


@dataclass(frozen=True)
class ConnectionFunction:
    """Bilinear connection function as a dense coefficient table."""

    group: GroupSpec
    coeffs: np.ndarray
    label: str = ""

    def __post_init__(self):
        coeffs = np.asarray(self.coeffs, dtype=np.float64)
        n = self.group.algebra_dim
        if coeffs.shape != (n, n, n):
            raise MetricError(f"coeffs must be {n}x{n}x{n}, got {coeffs.shape}")
        coeffs = coeffs.copy()
        coeffs.setflags(write=False)
        object.__setattr__(self, "coeffs", coeffs)

    def symmetric_part(self):
        """Table of the symmetric part in (i, j).

        This is the only part that enters quadratic corrections
        ``alpha(v, v)``; for an exactly antisymmetric table (bi-invariant
        case) it is exactly zero, which is what makes the Ito and
        Stratonovich solvers coincide to the bit there.
        """
        return 0.5 * (self.coeffs + np.swapaxes(self.coeffs, 1, 2))

    def antisymmetric_part(self):
        return 0.5 * (self.coeffs - np.swapaxes(self.coeffs, 1, 2))

    def is_quadratic_free(self):
        """True when alpha(A, A) = 0 identically (symmetric part vanishes)."""
        return float(np.max(np.abs(self.symmetric_part()))) <= 1e-12


def metric_for(group, lam=1.0) -> MetricSpec:
    """Catalog metric, diagonal in the declared basis: weight lam^2 on the
    directions that the group's catalog row names (``GroupSpec.lam_weighted``,
    the translation-like block) and 1 elsewhere (the rotation or H block)."""
    spec = group if isinstance(group, GroupSpec) else get_group(group)
    if lam <= 0:
        raise MetricError("lam must be positive")
    diag = np.ones(spec.algebra_dim)
    diag[list(spec.lam_weighted)] = lam**2
    return MetricSpec(spec, np.diag(diag), lam)


def u_from_metric(metric: MetricSpec) -> ConnectionFunction:
    """Symmetric U bilinear of the Levi-Civita connection, by direct solve.

    For every basis pair (i, j) the coordinates of U(e_i, e_j) solve the
    Gram system ``2 G u = r`` with
    ``r_k = <e_i, [e_k, e_j]> + <[e_k, e_i], e_j>``.
    """
    spec = metric.group
    n = spec.algebra_dim
    c = structure_constants(spec)  # c[k, i, j]
    g = metric.gram
    # rhs[k, i, j] = <e_i, [e_k, e_j]> + <[e_k, e_i], e_j>
    rhs = np.einsum("im,mkj->kij", g, c) + np.einsum("mki,mj->kij", c, g)
    coords = solve_linear(2.0 * g, rhs.reshape(n, n * n))
    table = coords.reshape(n, n, n)
    return ConnectionFunction(spec, table, label=f"levi-civita-u lam={metric.lam:g}")


def alpha_levi_civita(metric: MetricSpec) -> ConnectionFunction:
    """Connection function 1/2 [.,.] + U of the metric's Levi-Civita
    connection."""
    spec = metric.group
    half_bracket = 0.5 * structure_constants(spec)
    u = u_from_metric(metric)
    return ConnectionFunction(
        spec, half_bracket + u.coeffs, label=f"levi-civita lam={metric.lam:g}"
    )


def alpha_biinvariant(group) -> ConnectionFunction:
    """Connection function 1/2 [.,.]; alpha(A, A) = 0 identically."""
    spec = group if isinstance(group, GroupSpec) else get_group(group)
    return ConnectionFunction(
        spec, 0.5 * structure_constants(spec), label="bi-invariant"
    )


def _polarize(spec, diagonal_map, lam) -> np.ndarray:
    """Symmetric bilinear table from its diagonal ``f(v, lam)``, u(A,B) =
    1/4 (f(A+B) - f(A-B))."""
    n = spec.algebra_dim
    table = np.zeros((n, n, n))
    eye = np.eye(n)
    for i in range(n):
        for j in range(n):
            table[:, i, j] = 0.25 * (
                diagonal_map(eye[i] + eye[j], lam) - diagonal_map(eye[i] - eye[j], lam)
            )
    return table


# The printed displays of the diagonal U(v, v), by group and then by reading,
# each a function of (v, lam). A group's first reading is its primary
# (as-printed) form. Groups whose sources print two conflicting displays, or
# whose notation admits two readings, have one entry per reading. so3 has
# none: its U vanishes.
_U_DISPLAYS = {
    "se3": {"cross-product": lambda v, lam: np.concatenate([np.zeros(3), np.cross(v[:3], v[3:])])},
    "se2": {"rotation-action": lambda v, lam: np.array([0.0, -v[0] * v[2], v[0] * v[1]])},
    "e11": {
        "pseudo-norm-as-printed": lambda v, lam: np.array(
            [lam * lam * (v[1] ** 2 - v[2] ** 2), -v[0] * v[1], v[0] * v[2]]),
        "euclidean-norm-reading": lambda v, lam: np.array(
            [lam * lam * (v[1] ** 2 + v[2] ** 2), -v[0] * v[1], v[0] * v[2]]),
    },
    "n3": {
        "u-display": lambda v, lam: np.array(
            [lam * lam * v[1] * v[2], lam * lam * v[0] * v[2], 0.0]),
        "compensator-display": lambda v, lam: np.array(
            [-lam * lam * v[1] * v[2], lam * lam * v[0] * v[2], 0.0]),
    },
    "sl2r": {
        "as-printed": lambda v, lam: np.array([
            (2.0 / (lam * lam)) * (v[1] * v[1] - v[2] * v[2]),
            -2.0 * v[0] * v[1] + v[0] * v[2] * lam,
            -v[0] * v[1] * lam + 2.0 * v[0] * v[2]]),
    },
}


def closed_form_u_variants(name, lam=1.0):
    """All closed-form encodings of U for one group, one per reading in
    ``_U_DISPLAYS``.

    Returns an ordered dict label -> ConnectionFunction. The first entry is
    the primary (as-printed) form returned by ``closed_form_u``; the
    regression report compares each against the metric solve.
    """
    key = str(name).lower()
    spec = get_group(key)
    if lam <= 0:
        raise MetricError("lam must be positive")
    if key not in _U_DISPLAYS:
        raise UnsupportedGroupError(
            f"no closed-form U for group {name!r} (supported: {', '.join(_U_DISPLAYS)})"
        )
    return {
        label: ConnectionFunction(spec, _polarize(spec, f, lam), label=f"closed-u {label}")
        for label, f in _U_DISPLAYS[key].items()
    }


def closed_form_u(name, lam=1.0) -> ConnectionFunction:
    """Primary (as-printed) closed-form U table for one group."""
    variants = closed_form_u_variants(name, lam)
    return next(iter(variants.values()))


@dataclass(frozen=True)
class RegressionRow:
    group: str
    lam: float
    variant: str
    max_abs_diff: float
    worst_entry: tuple
    flagged: bool


@dataclass(frozen=True)
class RegressionReport:
    rows: list = field(default_factory=list)
    tol: float = REGRESSION_TOL

    @property
    def flagged_rows(self):
        return [r for r in self.rows if r.flagged]

    def max_diff(self, group, lam=None, variant=None):
        sel = [
            r.max_abs_diff
            for r in self.rows
            if r.group == group
            and (lam is None or r.lam == lam)
            and (variant is None or r.variant == variant)
        ]
        return float(np.max(sel)) if sel else None  # NaN if any row is NaN


def regress_closed_forms(closed_form_provider=closed_form_u_variants):
    """Compare every closed-form U variant against the metric solve.

    Disagreements are reported as data (flagged rows), never patched: the
    point of the report is to make the known sign and lambda-placement
    conflicts between the printed displays visible next to the
    authoritative solve. ``closed_form_provider(name, lam)`` returns the
    variants by label. Every group of ``_U_DISPLAYS`` is compared at each of
    ``REGRESSION_LAMBDAS``.
    """
    rows = []
    for name in _U_DISPLAYS:
        for lam in REGRESSION_LAMBDAS:
            oracle = u_from_metric(metric_for(name, lam)).coeffs
            for label, conn in closed_form_provider(name, lam).items():
                diff = np.abs(conn.coeffs - oracle)
                worst = np.unravel_index(int(np.argmax(diff)), diff.shape)
                rows.append(
                    RegressionRow(
                        group=name,
                        lam=float(lam),
                        variant=label,
                        max_abs_diff=float(diff[worst]),
                        worst_entry=tuple(int(w) for w in worst),
                        flagged=not diff[worst] <= REGRESSION_TOL,  # NaN is flagged
                    )
                )
    return RegressionReport(rows=rows)
