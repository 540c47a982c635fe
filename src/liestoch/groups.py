"""Catalog of matrix Lie groups and their algebras.

Six groups are supported, each stored through its defining matrix embedding:

==========  ==========  ===========  ==============================
name        matrices    algebra dim  basis
==========  ==========  ===========  ==============================
``so3``     3x3         3            E1, E2, E3 (rotation generators)
``se2``     3x3         3            H (rotation), e1, e2 (translations)
``se3``     4x4         6            E1, E2, E3, e1, e2, e3
``e11``     3x3         3            H = diag(1,-1,0), e1, e2
``n3``      3x3         3            X, Y, Z (upper-triangular slots)
``sl2r``    2x2         3            H, E+, E-
==========  ==========  ===========  ==============================

Homogeneous groups (se2, se3, e11, n3) use the affine convention: algebra
elements carry 0 in the bottom-right slot so that exp maps the algebra into
the group.

Coordinates: an algebra element is an array of shape (..., n) holding its
coefficients in the basis above; the bracket is ``bracket_coords`` and the
adjoint action ``adjoint_matrices(spec, g) @ x``. Conversion to and from
matrices goes through a least-squares projection onto the vectorized basis
with a residual check, which catches corrupted inputs uniformly across
groups.

Each group is one row of ``_CATALOG``, keyed by name: its basis builder,
the basis directions that the catalog metric weights by lambda^2, and its
closed-form defect, inverse and adjoint kernels, all carried by its
``GroupSpec``. ``membership_defect``, ``group_inverse`` and the so3
``adjoint_matrices`` call the spec's kernels; the other groups' adjoint
conjugates and projects.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field
from functools import lru_cache, partial

import numpy as np

from .errors import (
    ClosureError,
    DimensionError,
    MembershipError,
    NotInAlgebraError,
    UnsupportedGroupError,
)
from .linalg import (
    DEFAULT_TOLERANCE,
    Tolerance,
    _entries,
    _orthogonality_defect,
    _stack,
    bilinear,
    frobenius_norm,
    map_stacked,
    mat_exp,
)

# Maximum membership defect tolerated for matrices claiming to be group
# elements (integrator health gate).
MEMBERSHIP_GATE = 1e-6

# Residual gate for basis closure under the bracket.
_CLOSURE_TOL = 1e-10
_CLOSURE_TOLERANCE = Tolerance(abs_tol=_CLOSURE_TOL, rel_tol=0.0)


@dataclass(frozen=True)
class GroupSpec:
    """Immutable description of one catalog group, built from its
    ``_CATALOG`` row.

    ``basis`` has shape (algebra_dim, matrix_dim, matrix_dim). The derived
    projector turns a vectorized matrix into basis coordinates (pseudo-
    inverse of the vectorized basis). ``lam_weighted`` holds the indices of
    the basis directions that the catalog metric weights by lambda^2. The
    kernels: ``defect`` maps entry rows (d*d, m) to (m,), ``inverse`` a
    stack to a stack, and ``adjoint`` entry rows of members to (m, n, n) Ad
    matrices, or is None for the generic conjugate-and-project path with
    its closure check.
    """

    name: str
    matrix_dim: int
    algebra_dim: int
    basis: np.ndarray
    _projector: np.ndarray = field(repr=False, compare=False)
    lam_weighted: tuple = field(repr=False, compare=False)
    defect: Callable = field(repr=False, compare=False)
    inverse: Callable = field(repr=False, compare=False)
    adjoint: Callable | None = field(repr=False, compare=False)

    def __post_init__(self):
        self.basis.setflags(write=False)
        self._projector.setflags(write=False)

    @property
    def identity(self):
        return np.eye(self.matrix_dim)

    def __hash__(self):
        return hash(self.name)

    def __eq__(self, other):
        return isinstance(other, GroupSpec) and self.name == other.name


def _so3_basis():
    e1 = np.array([[0, 0, 0], [0, 0, -1.0], [0, 1.0, 0]])
    e2 = np.array([[0, 0, 1.0], [0, 0, 0], [-1.0, 0, 0]])
    e3 = np.array([[0, -1.0, 0], [1.0, 0, 0], [0, 0, 0]])
    return np.stack([e1, e2, e3])


def _se3_basis():
    basis = np.zeros((6, 4, 4))
    basis[:3, :3, :3] = _so3_basis()
    for i in range(3):
        basis[3 + i, i, 3] = 1.0
    return basis


def _se2_basis():
    h = np.zeros((3, 3))
    h[0, 1], h[1, 0] = -1.0, 1.0
    e1 = np.zeros((3, 3))
    e1[0, 2] = 1.0
    e2 = np.zeros((3, 3))
    e2[1, 2] = 1.0
    return np.stack([h, e1, e2])


def _e11_basis():
    h = np.diag([1.0, -1.0, 0.0])
    e1 = np.zeros((3, 3))
    e1[0, 2] = 1.0
    e2 = np.zeros((3, 3))
    e2[1, 2] = 1.0
    return np.stack([h, e1, e2])


def _n3_basis():
    x = np.zeros((3, 3))
    x[0, 1] = 1.0
    y = np.zeros((3, 3))
    y[1, 2] = 1.0
    z = np.zeros((3, 3))
    z[0, 2] = 1.0
    return np.stack([x, y, z])


def _sl2r_basis():
    h = np.array([[1.0, 0.0], [0.0, -1.0]])
    ep = np.array([[0.0, 1.0], [0.0, 0.0]])
    em = np.array([[0.0, 0.0], [1.0, 0.0]])
    return np.stack([h, ep, em])


def get_group(name) -> GroupSpec:
    """Look up a catalog group by name (case-insensitive)."""
    key = str(name).lower()
    if key not in _CATALOG:
        raise UnsupportedGroupError(
            f"unknown group {name!r}; supported: {', '.join(GROUP_NAMES)}"
        )
    return _build_group(key)


@lru_cache(maxsize=None)
def _build_group(key) -> GroupSpec:
    build, lam_weighted, defect, inverse, adjoint = _CATALOG[key]
    basis = build()
    n, d, _ = basis.shape
    vec = basis.reshape(n, d * d)
    # least-squares projector via the normal equations; the catalog bases
    # have diagonal Gram matrices with entries 1 and 2, so the projector
    # entries come out exact (unlike an SVD pseudo-inverse)
    projector = np.linalg.inv(vec @ vec.T) @ vec  # (n, d*d)
    return GroupSpec(
        name=key, matrix_dim=d, algebra_dim=n, basis=basis, _projector=projector,
        lam_weighted=lam_weighted, defect=defect, inverse=inverse, adjoint=adjoint,
    )


def to_matrix_coords(spec, coords):
    """Batched coordinates -> matrices, shape (..., n) -> (..., d, d)."""
    coords = np.asarray(coords, dtype=np.float64)
    if coords.shape[-1] != spec.algebra_dim:
        raise DimensionError(
            f"{spec.name}: expected {spec.algebra_dim} coordinates, got {coords.shape}"
        )
    return np.einsum("...n,nij->...ij", coords, spec.basis)


def from_matrix_coords(spec, mats, tol=DEFAULT_TOLERANCE):
    """Batched matrices -> coordinates with a span residual check.

    Raises NotInAlgebraError when any matrix is farther from the basis span
    than ``tol.bound(||M||)``.
    """
    mats = np.asarray(mats, dtype=np.float64)
    d = spec.matrix_dim
    if mats.shape[-2:] != (d, d):
        raise DimensionError(
            f"{spec.name}: expected {d}x{d} matrices, got {mats.shape}"
        )
    vec = mats.reshape(mats.shape[:-2] + (d * d,))
    # einsum keeps per-matrix results independent of batch size (a plain
    # GEMM does not), which the reproducibility contract relies on
    coords = np.einsum("...p,np->...n", vec, spec._projector)
    recon = np.einsum("...n,np->...p", coords, spec.basis.reshape(spec.algebra_dim, d * d))
    residual = np.sqrt(np.einsum("...p,...p->...", vec - recon, vec - recon))
    bound = tol.bound(frobenius_norm(mats))
    if not np.all(residual <= bound):  # NaN fails closed
        raise NotInAlgebraError(
            f"{spec.name}: matrix outside the algebra span "
            f"(residual {float(np.max(residual)):.3e})"
        )
    return coords


@lru_cache(maxsize=None)
def structure_constants(spec) -> np.ndarray:
    """Table c[k, i, j] with [e_i, e_j] = sum_k c[k, i, j] e_k.

    Built by projecting the basis commutators ``e_i e_j - e_j e_i`` onto
    the basis. The projection of an exactly negated commutator is an
    exactly negated coordinate vector, hence the table is antisymmetric in
    (i, j) to the bit.
    """
    a, b = spec.basis[:, None], spec.basis[None, :]
    n = spec.algebra_dim
    comms = a @ b - b @ a  # (n, n, d, d)
    coords = from_matrix_coords(
        spec, comms.reshape(n * n, spec.matrix_dim, spec.matrix_dim),
        _CLOSURE_TOLERANCE,
    ).reshape(n, n, n)
    table = np.transpose(coords, (2, 0, 1))  # -> c[k, i, j]
    if np.max(np.abs(table + np.swapaxes(table, 1, 2))) > _CLOSURE_TOL:
        raise ClosureError(f"{spec.name}: structure constants not antisymmetric")
    table.setflags(write=False)
    return table


def bracket_coords(spec, x, y):
    """Batched bracket in coordinates via the structure-constant table."""
    return bilinear(structure_constants(spec), x, y)


# Closed-form group kernels, one catalog row per group. Defect and adjoint
# kernels work on entry rows (row d*i + j holds entry (i, j) of every
# matrix, as in ``linalg``), so each is a few dozen elementwise operations
# with no stacked matmul or LU; inverse kernels read and write the stack
# entry by entry. Either way a matrix's result does not depend on the batch
# it arrives in, and ``linalg.map_stacked`` runs the entry-row kernels one
# cache-sized block at a time.

def _cofactor(e, d, i, j):
    """Signed (i, j) cofactor of the top-left 3x3 block of d x d entry rows."""
    i1, i2, j1, j2 = (i + 1) % 3, (i + 2) % 3, (j + 1) % 3, (j + 2) % 3
    return e[d * i1 + j1] * e[d * i2 + j2] - e[d * i1 + j2] * e[d * i2 + j1]


def _rotation_defect(e, d, k):
    """``||R^T R - I||_F + |det R - 1|`` of the top-left k x k block R (k = 2, 3)."""
    if k == 2:
        det = e[0] * e[d + 1] - e[1] * e[d]
    else:
        det = e[0] * _cofactor(e, d, 0, 0) + e[1] * _cofactor(e, d, 0, 1)
        det += e[2] * _cofactor(e, d, 0, 2)
    return _orthogonality_defect(e, d, k) + np.abs(det - 1.0)


def _rigid_defect(e, d):
    """Rotation block defect plus the distance of the bottom row from e_d."""
    last = d * (d - 1)
    bottom = (e[d * d - 1] - 1.0) ** 2
    for j in range(d - 1):
        bottom += e[last + j] ** 2
    return _rotation_defect(e, d, d - 1) + np.sqrt(bottom)


def _e11_defect(e):
    p, q = e[0], e[4]
    offblock = np.abs(e[1]) + np.abs(e[3])
    bottom = np.abs(e[6]) + np.abs(e[7]) + np.abs(e[8] - 1.0)
    positivity = np.maximum(0.0, -p) + np.maximum(0.0, -q)
    return np.abs(p * q - 1.0) + offblock + bottom + positivity


def _n3_defect(e):
    pattern = np.abs(e[0] - 1.0) + np.abs(e[4] - 1.0) + np.abs(e[8] - 1.0)
    lower = np.abs(e[3]) + np.abs(e[6]) + np.abs(e[7])
    return pattern + lower


def _sl2r_defect(e):
    return np.abs(e[0] * e[3] - e[1] * e[2] - 1.0)


def _so3_inverse(g):
    return np.swapaxes(g, -1, -2)


def _rigid_inverse(g):
    """``[[R^T, -R^T t], [0, 1]]``."""
    k = g.shape[-1] - 1
    out = np.zeros_like(g)
    rt = np.swapaxes(g[..., :k, :k], -1, -2)
    out[..., :k, :k] = rt
    for i in range(k):
        moved = rt[..., i, 0] * g[..., 0, k]
        for j in range(1, k):
            moved += rt[..., i, j] * g[..., j, k]
        out[..., i, k] = -moved
    out[..., k, k] = 1.0
    return out


def _e11_inverse(g):
    out = np.zeros_like(g)
    p = g[..., 0, 0]
    q = g[..., 1, 1]
    out[..., 0, 0] = 1.0 / p
    out[..., 1, 1] = 1.0 / q
    out[..., 0, 2] = -g[..., 0, 2] / p
    out[..., 1, 2] = -g[..., 1, 2] / q
    out[..., 2, 2] = 1.0
    return out


def _n3_inverse(g):
    out = np.zeros_like(g)
    x, y, z = g[..., 0, 1], g[..., 1, 2], g[..., 0, 2]
    out[..., 0, 0] = out[..., 1, 1] = out[..., 2, 2] = 1.0
    out[..., 0, 1] = -x
    out[..., 1, 2] = -y
    out[..., 0, 2] = x * y - z
    return out


def _sl2r_inverse(g):
    """Adjugate over ``ad - bc``."""
    det = g[..., 0, 0] * g[..., 1, 1] - g[..., 0, 1] * g[..., 1, 0]
    out = np.empty_like(g)
    out[..., 0, 0] = g[..., 1, 1] / det
    out[..., 1, 1] = g[..., 0, 0] / det
    out[..., 0, 1] = -g[..., 0, 1] / det
    out[..., 1, 0] = -g[..., 1, 0] / det
    return out


def _so3_adjoint(e):
    """``Ad(R) = cof(R)``, the cofactor matrix, from entry rows.

    ``R hat(v) R^T = hat(cof(R) v)`` holds for every 3x3 R. The generic
    path conjugates with the structural inverse ``R^T``, so it computes
    ``cof(R)`` up to roundoff and its span residual is roundoff: its
    ClosureError cannot fire on finite so3 input, and skipping the
    projection drops no check. The membership gate still runs first.
    """
    cof = np.stack([_cofactor(e, 3, i, j) for i in range(3) for j in range(3)])
    return _stack(cof, 3)


# One row per group, in catalog order: (basis builder, lambda^2-weighted
# basis directions, defect, inverse, adjoint or None); see ``GroupSpec``.
_CATALOG = {
    "so3": (_so3_basis, (), partial(_rotation_defect, d=3, k=3), _so3_inverse, _so3_adjoint),
    "se2": (_se2_basis, (1, 2), partial(_rigid_defect, d=3), _rigid_inverse, None),
    "se3": (_se3_basis, (3, 4, 5), partial(_rigid_defect, d=4), _rigid_inverse, None),
    "e11": (_e11_basis, (1, 2), _e11_defect, _e11_inverse, None),
    "n3": (_n3_basis, (1, 2), _n3_defect, _n3_inverse, None),
    "sl2r": (_sl2r_basis, (1, 2), _sl2r_defect, _sl2r_inverse, None),
}

GROUP_NAMES = tuple(_CATALOG)


def _group_matrices(spec, g):
    g = np.asarray(g, dtype=np.float64)
    d = spec.matrix_dim
    if g.shape[-2:] != (d, d):
        raise DimensionError(f"{spec.name}: expected {d}x{d} matrices, got {g.shape}")
    return g


def membership_defect(spec, g):
    """Non-negative structural defect of (batched) candidate group elements.

    Zero for exact members and NaN for matrices with a non-finite entry;
    solvers gate on ``MEMBERSHIP_GATE`` and reject NaN.
    """
    g = _group_matrices(spec, g)
    def finite_defect(flat):
        e = _entries(flat)
        defect = spec.defect(e)
        # the kernels skip free entries (translations, the n3 upper triangle)
        defect[~np.isfinite(e).all(axis=0)] = np.nan
        return defect

    # huge or non-finite entries give an inf or NaN defect, which every gate
    # rejects; numpy need not warn first
    with np.errstate(over="ignore", invalid="ignore"):
        return map_stacked(finite_defect, g)[()]  # a scalar for one matrix


def group_inverse(spec, g):
    """Structural inverse of (batched) group elements.

    Uses each group's block structure instead of a generic LU solve; exact
    members get exact inverses up to one rounding, which keeps membership
    defects flat along long paths.
    """
    return spec.inverse(_group_matrices(spec, g))


def adjoint_matrices(spec, g):
    """Batched adjoint action as coordinate matrices, shape (..., n, n).

    ``out[..., :, j]`` are the basis coordinates of ``g e_j g^-1``. Raises
    MembershipError for non-members (NaN included) and ClosureError when
    conjugation leaves the basis span.
    """
    g = np.asarray(g, dtype=np.float64)
    defect = membership_defect(spec, g)
    if not np.all(defect <= MEMBERSHIP_GATE):
        raise MembershipError(
            f"{spec.name}: membership defect {float(np.max(defect)):.3e} "
            f"exceeds gate {MEMBERSHIP_GATE:.1e}"
        )
    if spec.adjoint is not None:
        return map_stacked(lambda flat: spec.adjoint(_entries(flat)), g)
    ginv = group_inverse(spec, g)
    conj = np.einsum("...ab,nbc,...cd->...nad", g, spec.basis, ginv)
    try:
        coords = from_matrix_coords(spec, conj)  # (..., n, n): [j, k]
    except NotInAlgebraError as exc:
        raise ClosureError(
            f"{spec.name}: adjoint image left the basis span"
        ) from exc
    # out[..., k, j], contiguous: einsum rounds a transposed view differently
    return np.ascontiguousarray(np.swapaxes(coords, -1, -2))


def random_group_element(spec, rng):
    """exp of a random small algebra element (always a member)."""
    return mat_exp(to_matrix_coords(spec, 0.5 * rng.standard_normal(spec.algebra_dim)))
