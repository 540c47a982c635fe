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
kernels (defect, inverse, adjoint, exp and log), all carried by its
``GroupSpec``. ``membership_defect``, ``group_inverse`` and
``adjoint_matrices`` call the spec's kernels, and callers hand ``spec.exp``
and ``spec.log`` (or ``spec.readback``, the log in coordinates) to
``linalg.mat_exp`` and ``linalg.mat_log``, which run only that kernel. An
adjoint of None takes the generic path: conjugate and project. The se2,
se3, e11 and n3 rows name ``linalg.generic_log`` as their log. Every row
has a closed-form exp: Rodrigues'
formula (so3), the rigid-motion exps with their V-matrices (se2 and se3;
Sola, Deray and Atchuthan, arXiv:1812.01537), ``diag(e^h, e^-h)`` with
``expm1(h)/h`` translations (e11), the series ``I + A + A^2/2`` that ends
there (n3), and ``C I + S A`` by Cayley-Hamilton (sl2r). so3 also has the
cofactor adjoint and the rotation log, which hands each matrix past pi/2
or off orthogonality to the generic log, and sl2r a log that refuses a
trace below -2. The solvable rows n3, e11 and se2 name a tile product, the
develop's product of step exponentials by running sums along the steps
(Chen's relation); the other rows develop by one stacked matmul a step.
``check_membership`` is the one membership gate.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, field
from functools import lru_cache, partial

import numpy as np

from .errors import (
    ClosureError,
    DimensionError,
    LogRangeError,
    MembershipError,
    NotInAlgebraError,
    UnsupportedGroupError,
)
from .linalg import (
    DEFAULT_TOLERANCE,
    Tolerance,
    bilinear,
    frobenius_norm,
    generic_log,
    map_stacked,
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
    inverse of the vectorized basis). ``_embedding`` and ``_projection``
    list the nonzero entries of the vectorized basis and of the projector
    as ``(k, p, value)``, coordinate k by entry p of the row-major
    vectorized matrix, in row-major order. ``lam_weighted`` holds the indices of
    the basis directions that the catalog metric weights by lambda^2. The
    kernels: ``defect`` maps entry rows (d*d, m) to (m,) and ``inverse`` a
    stack to a stack. ``adjoint`` maps an (m, d, d) stack of members to
    (m, n, n) Ad matrices, ``exp`` an (m, d, d) stack of algebra elements
    to group elements and ``log`` a stack of group elements to algebra
    elements. ``adjoint`` is None for the generic path: conjugate and
    project with a closure check. Every row names its ``exp`` and its
    ``log``, which is ``linalg.generic_log`` where the row has no closed
    form for it. Callers pass ``exp`` and ``log`` to ``linalg.mat_exp`` and
    ``linalg.mat_log``, which run nothing else. No kernel writes into its
    input: the stack handed to ``exp`` is often ``to_matrix_coords``'s
    view of its entry rows, which the kernel reads in place.
    ``readback`` maps members (m, d, d) to the (m, n) coordinates of their
    log, ``from_matrix_coords`` of ``log`` bit for bit, by the kernel
    ``_readback(spec, flat)`` where the row names one (so3).
    Precondition, not checked: the input of ``exp`` lies in the algebra
    (``to_matrix_coords`` output, say) and that of ``log`` in the group; off
    them the closed forms return wrong matrices. ``gate_block`` is None, or
    ``(block, k)`` for a row whose develop the membership gate may read through
    its rotation block alone: ``block`` is the spec of the rotation row, whose
    develop of the first ``k`` coordinates is bit for bit the block of this
    row's develop, with the same worst defect. The other coordinates are
    translations, which the rotations carry without stretching
    (``explog._gate_develop``). ``product`` is None for the develop's
    stacked-matmul loop, or the row's tile product
    ``product(prod, exps, coords, state)``: it fills ``prod[1:]`` of a
    tile's (cols+1, rows, d, d) step-major products from the carry
    ``prod[0]``, the (cols, rows, d, d) step exponentials and the
    (cols, rows, n) step coordinates, and returns the state the replica
    block's next tile takes (None on a block's first tile): se2's running
    angle, None for n3 and e11 (``explog._product_tiles``).
    """

    name: str
    matrix_dim: int
    algebra_dim: int
    basis: np.ndarray
    _projector: np.ndarray = field(repr=False, compare=False)
    _embedding: tuple = field(repr=False, compare=False)
    _projection: tuple = field(repr=False, compare=False)
    lam_weighted: tuple = field(repr=False, compare=False)
    defect: Callable = field(repr=False, compare=False)
    inverse: Callable = field(repr=False, compare=False)
    adjoint: Callable | None = field(repr=False, compare=False)
    exp: Callable = field(repr=False, compare=False)
    log: Callable = field(repr=False, compare=False)
    gate_block: tuple | None = field(repr=False, compare=False)
    product: Callable | None = field(repr=False, compare=False)
    _readback: Callable | None = field(repr=False, compare=False)

    def __post_init__(self):
        self.basis.setflags(write=False)
        self._projector.setflags(write=False)

    @property
    def identity(self):
        return np.eye(self.matrix_dim)

    def readback(self, flat):
        """The log of members in coordinates; see the class docstring."""
        if self._readback is None:
            return from_matrix_coords(self, self.log(flat))
        return self._readback(self, flat)

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
    (build, lam_weighted, defect, inverse, adjoint, exp, log, gate_block, product,
     readback) = _CATALOG[key]
    basis = build()
    n, d, _ = basis.shape
    vec = basis.reshape(n, d * d)
    # least-squares projector via the normal equations; the catalog bases
    # have diagonal Gram matrices with entries 1 and 2, so the projector
    # entries come out exact (unlike an SVD pseudo-inverse)
    projector = np.linalg.inv(vec @ vec.T) @ vec  # (n, d*d)
    # what the sparse conversions rely on to keep the einsums' bits: every
    # matrix entry belongs to at most one basis element, and no coordinate
    # reads more than two entries, whose sum is the same in either order
    if np.any(np.count_nonzero(vec, axis=0) > 1) or np.any(
            np.count_nonzero(projector, axis=1) > 2):
        raise ClosureError(f"{key}: a matrix entry is shared between basis elements, "
                           "or an element has more than two")
    return GroupSpec(
        name=key, matrix_dim=d, algebra_dim=n, basis=basis, _projector=projector,
        _embedding=_nonzero_terms(vec), _projection=_nonzero_terms(projector),
        lam_weighted=lam_weighted, defect=defect, inverse=inverse, adjoint=adjoint,
        exp=exp, log=log, product=product, _readback=readback,
        gate_block=None if gate_block is None else (_build_group(gate_block[0]),
                                                    gate_block[1]),
    )


def _nonzero_terms(table):
    """``(k, p, table[k, p])`` for each nonzero entry of an (n, m) table,
    in row-major order."""
    return tuple((int(k), int(p), float(table[k, p])) for k, p in zip(*np.nonzero(table)))


def _embed(spec, coords, rows):
    """Writes (..., n) coordinates into ``rows``, zeros viewed as (d*d, ...)
    entry rows: row p is entry p of the row-major vectorized matrices, in
    whatever layout the caller keeps them.

    An entry of no basis element stays +0.0, and the entry of element k is
    ``coords[..., k]`` times its basis value; ``+= 0.0`` turns a -0.0
    product into +0.0. That is the einsum ``...n,np->...p`` over the
    vectorized basis bit for bit on finite coordinates, since its sum
    starts at +0.0 and an entry has at most one nonzero term.
    """
    for k, p, value in spec._embedding:
        np.multiply(coords[..., k], value, out=rows[p, ...])
    rows += 0.0


def to_matrix_coords(spec, coords):
    """Batched coordinates -> matrices, shape (..., n) -> (..., d, d).

    Each coordinate is written into the entries of its one basis element
    (``_embed``), bit for bit the dense contraction with the basis on
    finite coordinates. The matrices are a view of contiguous entry rows,
    which the row kernels of ``mat_exp`` read without a copy
    (``_entries``); ``np.ascontiguousarray`` gives the stack's usual
    layout.
    """
    coords = np.asarray(coords, dtype=np.float64)
    if coords.shape[-1] != spec.algebra_dim:
        raise DimensionError(
            f"{spec.name}: expected {spec.algebra_dim} coordinates, got {coords.shape}"
        )
    d, lead = spec.matrix_dim, coords.shape[:-1]
    rows = np.zeros((d * d,) + lead)
    _embed(spec, coords, rows)
    return np.moveaxis(rows.reshape((d, d) + lead), (0, 1), (-2, -1))


def from_matrix_coords(spec, mats, tol=DEFAULT_TOLERANCE):
    """Batched matrices -> coordinates with a span residual check.

    Projection and reconstruction visit only the nonzero projector and
    basis entries. A coordinate is the sum of at most two weighted entries
    from +0.0, which any order rounds alike, so the coordinates are the
    einsum over the dense projector bit for bit, and each matrix's result
    does not depend on its batch. Raises NotInAlgebraError when any matrix
    is farther from the basis span than ``tol.bound(||M||)``.
    """
    mats = np.asarray(mats, dtype=np.float64)
    d = spec.matrix_dim
    if mats.shape[-2:] != (d, d):
        raise DimensionError(
            f"{spec.name}: expected {d}x{d} matrices, got {mats.shape}"
        )
    vec = mats.reshape(mats.shape[:-2] + (d * d,))
    coords = np.zeros(vec.shape[:-1] + (spec.algebra_dim,))
    for k, p, weight in spec._projection:
        coords[..., k] += vec[..., p] * weight
    recon = np.zeros(vec.shape)
    _embed(spec, coords, np.moveaxis(recon, -1, 0))
    diff = vec - recon
    residual = np.sqrt(np.einsum("...p,...p->...", diff, diff))
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


# Closed-form group kernels, one catalog row per group. Defect, adjoint, exp
# and log kernels work on entry rows: row d*i + j holds entry (i, j) of every
# matrix in the batch, contiguous, so each kernel is a handful of elementwise
# operations with no stacked matmul or LU. They read those rows in place
# (``to_matrix_coords`` output needs no copy) and never write them. Inverse
# kernels read and write the stack entry by entry. Either way a matrix's result
# does not depend on the batch it arrives in, and ``linalg.map_stacked`` runs
# the defect and adjoint kernels one cache-sized block at a time.

_ROTATION_LOG_GATE = 1e-12  # ||M^T M - I||_F above this: generic log
_ROTATION_VECTOR = (7, 2, 3)  # entries A21, A02, A10 of a skew 3x3 A
_SERIES_ANGLE = 0.5         # below it (theta - sin theta)/theta^3 is a series
# (-1)^k / (2k+3)!, k = 0..6: the first omitted term is below 2e-19 at 0.5
_V_SERIES = tuple((-1) ** k / math.factorial(2 * k + 3) for k in range(7))
_SL2R_SERIES = 0.25         # |s^2| below it: sl2r's exp coefficients are series
# 1/(2k)! and 1/(2k+1)!, k = 0..7, in powers of s^2: the first omitted
# terms are below 1e-18 at |s^2| = 0.25
_COSH_SERIES = tuple(1.0 / math.factorial(2 * k) for k in range(8))
_SINHC_SERIES = tuple(1.0 / math.factorial(2 * k + 1) for k in range(8))


def _entries(flat):
    """(m, n, n) stack -> (n*n, m) entry rows: a view of ``flat`` when its
    entries already lie that way (``to_matrix_coords`` output), else a
    copy. Either way no kernel writes into them."""
    return np.ascontiguousarray(flat.reshape(-1, flat.shape[-1] ** 2).T)


def _stack(entries, n):
    """(n*n, m) entry rows -> (m, n, n) stack."""
    return np.ascontiguousarray(entries.T).reshape(-1, n, n)


def _orthogonality_defect(e, n=3, k=3):
    """``||R^T R - I||_F`` of the top-left k x k block R of n x n entry rows:
    the squares ``((R^T R)_ii - 1)^2`` summed over i, plus twice the
    squares ``(R^T R)_ij^2`` summed over i < j, in row-major order."""
    tmp = np.empty(e.shape[1:])

    def squares(pairs, shift):  # sum of ((R^T R)_ij - shift)^2 over the pairs
        total, term = np.empty_like(tmp), np.empty_like(tmp)
        for index, (i, j) in enumerate(pairs):
            gram = term if index else total  # columns i and j dotted
            np.multiply(e[i], e[j], out=gram)
            for r in range(1, k):
                gram += np.multiply(e[n * r + i], e[n * r + j], out=tmp)
            if shift:
                gram -= shift
            np.square(gram, out=gram)
            if index:
                total += gram
        return total

    out = squares([(i, i) for i in range(k)], 1.0)
    off = squares([(i, j) for i in range(k) for j in range(i + 1, k)], 0.0)
    off *= 2.0
    out += off
    return np.sqrt(out, out=out)


def _cos_angle(e):
    """``(tr M - 1)/2``: the cosine of a 3x3 rotation's angle."""
    return 0.5 * (e[0] + e[4] + e[8] - 1.0)


def _squared_norm(v):
    """Squared length of 3-vectors stored as three rows."""
    return v[0] * v[0] + v[1] * v[1] + v[2] * v[2]


def _sinc(x):
    """``np.sinc(x)`` by its own operations, in place on ``x``."""
    x *= np.pi
    np.copyto(x, np.finfo(x.dtype).eps, where=x == 0)
    out = np.sin(x)
    out /= x
    return out


def _rodrigues_coefficients(theta):
    """``sin(theta)/theta`` and ``(1 - cos(theta))/theta^2``, exact at 0."""
    half = _sinc(theta / (2.0 * np.pi))
    b = 0.5 * half
    b *= half
    return _sinc(theta / np.pi), b


def _horner(coeffs, x):
    """``sum_k coeffs[k] x^k`` by Horner's rule."""
    series = np.full_like(x, coeffs[-1])
    for coeff in coeffs[-2::-1]:
        series *= x
        series += coeff
    return series


def _v_series(theta):
    """The Taylor series of ``(theta - sin(theta))/theta^3``."""
    return _horner(_V_SERIES, theta * theta)


def _v_coefficient(theta):
    """``(theta - sin(theta))/theta^3``, from its Taylor series below 0.5.

    Each branch runs only on the angles that take it.
    """
    small = theta < _SERIES_ANGLE
    if small.all():
        return _v_series(theta)
    out = np.empty_like(theta)
    big = ~small  # NaN included
    t = theta[big]
    out[big] = (t - np.sin(t)) / (t * t * t)
    out[small] = _v_series(theta[small])
    return out


def _rotation_rows(out, e, d):
    """Rodrigues' formula ``I + a W + b W^2``, with ``W^2 = w w^T - theta^2 I``,
    for the skew top-left 3x3 block W of the d x d entry rows ``e``, written
    into the same block of ``out``.

    Each ``w_i w_j b`` is formed once and mirrored, then ``a W_ij`` is
    added to every entry and ``1 - b theta^2`` to the diagonal. Returns w
    (views of its entry rows), theta^2, theta and b.
    """
    w = (e[2 * d + 1], e[2], e[d])  # A21, A02, A10
    theta2 = _squared_norm(w)
    theta = np.sqrt(theta2)
    a, b = _rodrigues_coefficients(theta)
    for i in range(3):
        for j in range(i, 3):
            row = out[d * i + j]
            np.multiply(w[i], w[j], out=row)
            row *= b
            if j > i:
                out[d * j + i] = row
    tmp = np.empty_like(theta)
    for i in range(3):
        for j in range(3):
            out[d * i + j] += np.multiply(a, e[d * i + j], out=tmp)
    diag = b * theta2
    np.subtract(1.0, diag, out=diag)
    out[: 3 * d : d + 1] += diag
    return w, theta2, theta, b


def _rotation_exp(e):
    """Rodrigues' formula for exactly skew 3x3 matrices."""
    out = np.empty_like(e)
    _rotation_rows(out, e, 3)
    return out


def _rigid_exp(e):
    """``[[R, V u], [0, 1]]`` for 4x4 ``[[W, u], [0, 0]]`` with W skew.

    R is ``_rotation_rows``. Reads u as views of its entry rows and writes
    each translation entry row in place, in the operation order of
    ``u + b (w x u) + c (w (w . u) - theta^2 u)``.
    """
    out = np.empty_like(e)
    w, theta2, theta, b = _rotation_rows(out, e, 4)
    u = (e[3], e[7], e[11])
    c = _v_coefficient(theta)
    tmp = np.empty_like(theta)
    w_dot_u = w[0] * u[0]
    w_dot_u += np.multiply(w[1], u[1], out=tmp)
    w_dot_u += np.multiply(w[2], u[2], out=tmp)
    for i in range(3):
        j, k = (i + 1) % 3, (i + 2) % 3
        row = out[4 * i + 3]
        np.multiply(w[j], u[k], out=row)  # (w x u)_i
        row -= np.multiply(w[k], u[j], out=tmp)
        row *= b
        row += u[i]
        cross = np.multiply(w[i], w_dot_u, out=tmp)
        cross -= theta2 * u[i]
        cross *= c
        row += cross
    out[12:15] = 0.0
    out[15] = 1.0
    return out


def _se2_exp(e):
    """``[[R, V u], [0, 1]]`` for 3x3 ``[[0, -theta, x], [theta, 0, y], 0]``:
    R the rotation by theta and ``V = a I + b theta J``, J the quarter turn."""
    theta = e[3]
    x, y = e[2], e[5]
    a, b = _rodrigues_coefficients(theta)
    b *= theta
    out = np.zeros_like(e)
    np.cos(theta, out=out[0])
    out[4] = out[0]
    np.sin(theta, out=out[3])
    np.negative(out[3], out=out[1])
    out[2] = a * x - b * y
    out[5] = b * x + a * y
    out[8] = 1.0
    return out


def _expm1_ratio(h):
    """``expm1(h)/h``, exactly 1 at h = 0."""
    return np.divide(np.expm1(h), h, out=np.ones_like(h), where=h != 0)


def _e11_exp(e):
    """``diag(e^h, e^-h, 1)`` with translations ``x expm1(h)/h`` and
    ``y expm1(-h)/(-h)``, for 3x3 ``[[h, 0, x], [0, -h, y], 0]``."""
    h = e[0]
    out = np.zeros_like(e)
    np.exp(h, out=out[0])
    np.exp(e[4], out=out[4])
    out[2] = e[2] * _expm1_ratio(h)
    out[5] = e[5] * _expm1_ratio(e[4])
    out[8] = 1.0
    return out


def _n3_exp(e):
    """``I + A + A^2/2`` for 3x3 ``[[0, x, z], [0, 0, y], 0]``, as ``A^3 = 0``."""
    out = e.copy()
    out[2] += 0.5 * (e[1] * e[5])
    out[::4] = 1.0
    return out


# The tile products of the solvable rows: each fills ``prod[1:]`` of a tile's
# (cols+1, rows, d, d) step-major products from the carry ``prod[0]`` and the
# tile's (cols, rows, d, d) step exponentials, by running sums along the step
# axis (Chen's relation). It starts from a copy of the exponentials, whose
# fixed entries (the unit diagonal, zeros, the bottom row) are the product's,
# and overwrites the entries the product moves. A running sum adds in step
# order from the carry (``_running``), so the result does not depend on the
# tiling.

# Up to this many steps a tile, a running sum is a call per step. Both paths
# of the whole kernel on full tiles of 4096 // cols replicas (numpy 2.4, one
# thread, best of 7 x 200), loop against accumulate in us, n3 / e11: 1 step
# 43/185 and 55/248, 2 steps 47/137 and 59/179, 4 steps 52/93 and 66/126,
# 8 steps 62/79 and 79/103, 12 steps 72/72 and 92/98, 13 steps 75/71 and
# 96/92, 16 steps 81/70 and 104/91: they cross at 12 to 13 steps.
_FEW_STEPS = 12


def _running(op, a):
    """``op.accumulate(a, axis=0)`` in place: ``a[j] = op(a[j-1], a[j])``,
    step after step. numpy accumulates each column on its own, which costs
    more than a call per step when a tile has few steps and many replicas;
    either way the operations and their order are the same."""
    if len(a) > _FEW_STEPS:
        op.accumulate(a, axis=0, out=a)
        return
    for j in range(1, len(a)):
        op(a[j - 1], a[j], out=a[j])


def _n3_product(prod, exps, coords, carry):
    """``X01`` and ``X12`` are running sums of the steps' entries, and ``X02``
    the running sum of ``E02_k + X01_{k-1} E12_k``: the stacked matmul's
    unfused sums."""
    np.copyto(prod[1:], exps)
    _running(np.add, prod[:, :, 0, 1])
    _running(np.add, prod[:, :, 1, 2])
    prod[1:, :, 0, 2] += prod[:-1, :, 0, 1] * exps[:, :, 1, 2]
    _running(np.add, prod[:, :, 0, 2])


def _e11_product(prod, exps, coords, carry):
    """The diagonal is a running product, and each translation the running
    sum of ``P_{k-1} E_k``, P the diagonal entry of its row: the stacked
    matmul's products and sums, bit for bit."""
    np.copyto(prod[1:], exps)
    for i in (0, 1):
        _running(np.multiply, prod[:, :, i, i])
        prod[1:, :, i, 2] *= prod[:-1, :, i, i]
        _running(np.add, prod[:, :, i, 2])


def _se2_product(prod, exps, coords, angle):
    """The rotation by the running angle, and the translation the running
    sum of ``R_{k-1} t_k``, t_k the step's translation column.

    The angle is the running sum of the steps' angles, ``coords[..., 0]``,
    from ``angle``, where the previous tile of the replica block ended (None
    on its first tile: 0); returns where this tile ends. It is carried
    exactly: one read back from the carry's rotation would move bits at
    tile edges."""
    theta = np.empty((len(coords) + 1, coords.shape[1]))
    theta[0] = 0.0 if angle is None else angle
    theta[1:] = coords[..., 0]
    _running(np.add, theta)
    np.copyto(prod[1:], exps)
    np.cos(theta[1:], out=prod[1:, :, 0, 0])
    np.sin(theta[1:], out=prod[1:, :, 1, 0])
    prod[1:, :, 1, 1] = prod[1:, :, 0, 0]
    np.negative(prod[1:, :, 1, 0], out=prod[1:, :, 0, 1])
    for i in (0, 1):
        moved = prod[1:, :, i, 2]
        np.multiply(prod[:-1, :, i, 0], exps[:, :, 0, 2], out=moved)
        moved += prod[:-1, :, i, 1] * exps[:, :, 1, 2]
        _running(np.add, prod[:, :, i, 2])
    return theta[-1]


def _sl2r_coefficients(s2):
    """C and S with ``exp A = C I + S A`` for A in sl(2,R) and s^2 = -det A:
    ``cosh s`` and ``sinh(s)/s`` for s^2 > 0, ``cos t`` and ``sin(t)/t``
    with t^2 = -s^2 for s^2 < 0, and their Taylor series in s^2 for |s^2|
    below 0.25. Each branch runs only on the matrices that take it."""
    small = np.abs(s2) < _SL2R_SERIES
    if small.all():
        return _horner(_COSH_SERIES, s2), _horner(_SINHC_SERIES, s2)
    c, s = np.empty_like(s2), np.empty_like(s2)
    c[small], s[small] = _horner(_COSH_SERIES, s2[small]), _horner(_SINHC_SERIES, s2[small])
    hyperbolic = s2 >= _SL2R_SERIES
    r = np.sqrt(s2[hyperbolic])
    c[hyperbolic], s[hyperbolic] = np.cosh(r), np.sinh(r) / r
    elliptic = ~(small | hyperbolic)  # NaN included
    t = np.sqrt(-s2[elliptic])
    c[elliptic], s[elliptic] = np.cos(t), np.sin(t) / t
    return c, s


def _sl2r_exp(e):
    """``C I + S A`` for 2x2 ``A = [[h, p], [q, -h]]``, by Cayley-Hamilton:
    ``A^2 = -det A I = s^2 I``."""
    s2 = e[0] * e[0] + e[1] * e[2]
    c, s = _sl2r_coefficients(s2)
    out = s * e
    out[0] += c
    out[3] += c
    return out


def _rotation_log(e, cos, entries=range(9)):
    """Entry rows ``entries`` of ``S / sinc(theta)``, ``S = (M - M^T)/2``, for
    rotations below pi/2 of cosines ``cos``, each entry of S the difference of
    two entry rows; ``entries`` holds the rotation vector, read for theta."""
    out = np.empty((len(entries),) + cos.shape)
    for row, p in zip(out, entries):
        np.subtract(e[p], e[3 * (p % 3) + p // 3], out=row)
    out *= 0.5
    w = [out[entries.index(p)] for p in _ROTATION_VECTOR]
    theta = np.arctan2(np.sqrt(_squared_norm(w)), cos)
    out /= _sinc(theta / np.pi)
    return out


def _rotation_coords(e, cos):
    """(m, 3) coordinates of ``_rotation_log``, its projection bit for bit:
    ``(0.0 + A_p c_p) + A_q c_q`` with ``c_p = -c_q`` and A exactly skew is
    ``(h + 0.0) + h``, h half the rotation vector's entry."""
    h = _rotation_log(e, cos, _ROTATION_VECTOR).T
    h *= 0.5
    out = np.add(h, 0.0, order="C")
    out += h
    return out


def _rowwise(kernel, flat):
    """An entry-row kernel on an (m, d, d) stack, giving a stack."""
    return _stack(kernel(_entries(flat)), flat.shape[-1])


def _so3_branches(flat, rotation, other):
    """``rotation(e, cos)`` on the entry rows and cosines of the rotations
    (orthogonal to 1e-12) by an angle below pi/2, ``other`` on the stack of
    the other matrices: a batch that mixes them gives each its result alone."""
    e = _entries(flat)
    cos = _cos_angle(e)
    take = (_orthogonality_defect(e) <= _ROTATION_LOG_GATE) & (cos > 0.0)
    if take.all():
        return rotation(e, cos)
    near = rotation(e[:, take], cos[take])
    out = np.empty((len(flat),) + near.shape[1:])
    out[take] = near
    out[~take] = other(flat[~take])
    return out


_so3_log = partial(_so3_branches, rotation=lambda e, cos: _stack(_rotation_log(e, cos), 3),
                   other=generic_log)


def _so3_readback(spec, flat):
    """``_rotation_coords``, or ``generic_log`` projected. The closed form
    needs no residual check: its input is finite (``mat_log`` refuses others)
    with theta below pi/2, so ``sinc(theta) >= 2/pi``, and A is exactly skew."""
    return _so3_branches(flat, _rotation_coords,
                         lambda m: from_matrix_coords(spec, generic_log(m)))


def _sl2r_log(flat):
    """``linalg.generic_log``, after refusing a trace below -2: such an
    element's eigenvalues are negative reals, so it has no real logarithm
    and no smaller step can give it one."""
    if np.any(flat[:, 0, 0] + flat[:, 1, 1] < -2.0):
        raise LogRangeError(
            "sl2r: an SL(2,R) element with trace below -2 has no real logarithm"
        )
    return generic_log(flat)


def _cofactor(e, d, i, j, out, tmp):
    """Signed (i, j) cofactor of the top-left 3x3 block of d x d entry rows,
    into ``out``, with ``tmp`` as scratch."""
    i1, i2, j1, j2 = (i + 1) % 3, (i + 2) % 3, (j + 1) % 3, (j + 2) % 3
    out = np.multiply(e[d * i1 + j1], e[d * i2 + j2], out=out)
    out -= np.multiply(e[d * i1 + j2], e[d * i2 + j1], out=tmp)
    return out


def _rotation_defect(e, d, k):
    """``||R^T R - I||_F + |det R - 1|`` of the top-left k x k block R (k = 2, 3)."""
    if k == 2:
        det = e[0] * e[d + 1] - e[1] * e[d]
    else:
        cof, tmp = np.empty(e.shape[1:]), np.empty(e.shape[1:])
        det = e[0] * _cofactor(e, d, 0, 0, cof, tmp)
        for j in (1, 2):
            det += np.multiply(e[j], _cofactor(e, d, 0, j, cof, tmp), out=cof)
    det -= 1.0
    out = _orthogonality_defect(e, d, k)
    out += np.abs(det, out=det)
    return out


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
    out = np.empty_like(e)
    tmp = np.empty(e.shape[1:])
    for i in range(3):
        for j in range(3):
            _cofactor(e, 3, i, j, out[3 * i + j], tmp)
    return out


# One row per group, in catalog order: (basis builder, lambda^2-weighted
# basis directions, defect, inverse, adjoint, exp, log, gate block, tile
# product, readback); adjoint None for the generic path, the gate block a
# rotation row and how many leading coordinates it develops, or None, tile
# product None for the matmul loop, readback None for the projected log.
_CATALOG = {
    "so3": (_so3_basis, (), partial(_rotation_defect, d=3, k=3), _so3_inverse,
            partial(_rowwise, _so3_adjoint), partial(_rowwise, _rotation_exp), _so3_log,
            None, None, _so3_readback),
    "se2": (_se2_basis, (1, 2), partial(_rigid_defect, d=3), _rigid_inverse, None,
            partial(_rowwise, _se2_exp), generic_log, None, _se2_product, None),
    "se3": (_se3_basis, (3, 4, 5), partial(_rigid_defect, d=4), _rigid_inverse, None,
            partial(_rowwise, _rigid_exp), generic_log, ("so3", 3), None, None),
    "e11": (_e11_basis, (1, 2), _e11_defect, _e11_inverse, None,
            partial(_rowwise, _e11_exp), generic_log, None, _e11_product, None),
    "n3": (_n3_basis, (1, 2), _n3_defect, _n3_inverse, None, partial(_rowwise, _n3_exp),
           generic_log, None, _n3_product, None),
    "sl2r": (_sl2r_basis, (1, 2), _sl2r_defect, _sl2r_inverse, None,
             partial(_rowwise, _sl2r_exp), _sl2r_log, None, None, None),
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


def check_membership(spec, defect, error=MembershipError,
                     message="membership defect {defect:.3e} exceeds gate {gate:.1e}"):
    """Raise ``error`` unless every entry of ``defect`` (``membership_defect``
    output) is at most ``MEMBERSHIP_GATE``; NaN fails.

    The message is the group's name, then ``message`` formatted with the
    worst defect and the gate.
    """
    worst = float(np.max(defect, initial=-np.inf))  # an empty batch passes
    if not worst <= MEMBERSHIP_GATE:
        raise error(f"{spec.name}: " + message.format(defect=worst, gate=MEMBERSHIP_GATE))


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
    check_membership(spec, membership_defect(spec, g))
    if spec.adjoint is not None:
        return map_stacked(spec.adjoint, g)
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
