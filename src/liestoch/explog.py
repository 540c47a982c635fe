"""Stochastic exponentials and logarithms between the algebra and the group.

Four operators connect algebra-valued driving paths M to group-valued
paths X, all built on McKean-Gangolli injection (every step multiplies by
the matrix exponential of an algebra element, so group membership is
structural, not approximate):

* ``strat_exponential``: X_{k+1} = X_k exp(dM_k) -- the midpoint-type
  development, inverse of ``strat_logarithm`` (cumulative log increments).
* ``ito_exponential`` w.r.t. a connection function alpha on the group
  side: each injected step is ``dM - 1/2 alpha(dM, dM)``, i.e. the
  left-point reading with its quadratic-variation compensation placed
  inside the exponent. ``ito_logarithm`` applies the reverse correction
  ``dL + 1/2 alpha(dL, dL)`` to the log increments.

With a quadratic-free alpha (alpha(A, A) = 0, e.g. bi-invariant) the
corrections are exactly zero arrays, so the Ito and Stratonovich operators
coincide bit for bit. The algebra carries the flat connection, under which
algebra martingales are coordinate local martingales; that is what makes
the coordinate zero-mean test of ``martingale`` the right criterion. The
Ito or Stratonovich integral of a left-invariant 1-form with covector
``eta`` is the contracted logarithm ``ito_logarithm(x, alpha).values @ eta``
or ``strat_logarithm(x).values @ eta``.

Every operator takes and returns ``paths.Ensemble`` objects, one path per
replica; a single path is a one-replica ensemble. Values are
(R, K+1, d, d) group matrices or (R, K+1, n) coordinates, and step vectors
(R, K, n). Each per-step stage writes into one preallocated output, so
only outputs are ever full size. The develop's product recursion runs over
the tiles of ``linalg.tiles`` in step-major order; the passes that treat
each step on its own (both Ito corrections, the logarithms' increments)
run over the contiguous replica slabs of ``linalg.slabs``. The membership
gate reads the full values.
"""

from __future__ import annotations

import numpy as np

from .calculus import mc_increments
from .connections import ConnectionFunction
from .errors import ExpOverflowError, GroupMismatchError, IntegratorDriftError, MembershipError
from .groups import MEMBERSHIP_GATE, membership_defect, to_matrix_coords
from .linalg import bilinear, mat_exp, slabs, tiles
from .paths import expect


def _develop(spec, steps):
    """Cumulative product of exp(step vectors): (R, K, n) -> (R, K+1, d, d).

    Tile by tile (``linalg.tiles``), in step-major order: a tile's steps
    are exponentiated as a (cols, rows) stack, and the product recursion
    runs in one contiguous (cols+1, rows, d, d) scratch, one stacked matmul
    per step, before the finished tile is copied into the replica-major
    output. The scratch is allocated once per call.
    """
    replicas, count, n = steps.shape
    d = spec.matrix_dim
    out = np.empty((replicas, count + 1, d, d))
    out[:, 0] = np.eye(d)
    coords_buf = prod_buf = None
    for r, k in tiles(replicas, count):
        rows, cols = r.stop - r.start, k.stop - k.start
        if prod_buf is None:  # the first tile is the largest
            coords_buf = np.empty(cols * rows * n)
            prod_buf = np.empty((cols + 1) * rows * d * d)
        coords = coords_buf[: cols * rows * n].reshape(cols, rows, n)
        prod = prod_buf[: (cols + 1) * rows * d * d].reshape(cols + 1, rows, d, d)
        np.copyto(coords, steps[r, k].transpose(1, 0, 2))
        exps = mat_exp(to_matrix_coords(spec, coords))
        # a block's first tile starts at the identity, the others where
        # the previous tile ended
        prod[0] = np.eye(d) if k.start == 0 else carry
        # an overflowing product turns into inf or NaN, which the membership
        # gate reports as a numerical failure; numpy need not warn first
        with np.errstate(over="ignore", invalid="ignore"):
            for j in range(cols):
                np.matmul(prod[j], exps[j], out=prod[j + 1])
        out[r, k.start + 1 : k.stop + 1] = prod[1:].transpose(1, 0, 2, 3)
        carry = prod[cols]
        del exps  # not live while the next tile's are made
    return out


def _gate_membership(spec, values):
    worst = float(np.max(membership_defect(spec, values)))
    if not worst <= MEMBERSHIP_GATE:  # NaN fails too
        raise IntegratorDriftError(
            f"{spec.name}: integrator drifted off the group "
            f"(membership defect {worst:.3e} > {MEMBERSHIP_GATE:.1e}); "
            "use a smaller dt"
        )


def _ito_correction(spec, alpha):
    """The quadratic Ito correction ``v -> -1/2 alpha(v,v)`` per step, its
    table checked and built once per operator call.

    The exponential adds it to the driver increments; the logarithm
    subtracts it from the log increments.
    """
    if alpha.group != spec:
        raise GroupMismatchError(
            f"connection on {alpha.group.name} used with {spec.name} paths"
        )
    alpha_sym = alpha.symmetric_part()
    return lambda v: -0.5 * bilinear(alpha_sym, v, v)


def _logarithm(x, dl, correction=None):
    """Cumulative sum of the log increments ``dl`` of ``x`` (starts at 0),
    each less ``correction(dl)`` when one is given, slab by slab
    (``linalg.slabs``)."""
    replicas, count, n = dl.shape
    out = np.zeros((replicas, count + 1, n))
    steps = out[:, 1:]
    if correction is not None:
        for slab in slabs(replicas, count):
            v = dl[slab]
            np.subtract(v, correction(v), out=steps[slab])
        dl = steps
    np.cumsum(dl, axis=1, out=steps)
    return x.with_values(out)


def _developed(ens, steps):
    """Ensemble developed from its identity start by the given step vectors."""
    values = _develop(ens.group, steps)
    _gate_membership(ens.group, values)
    return ens.with_values(values, step_logs=steps)


def strat_exponential(m):
    """Development of an algebra ensemble into the group (identity start),
    step logs attached."""
    expect(m, group_valued=False)
    return _developed(m, np.diff(m.values, axis=-2))


def strat_logarithm(x):
    """Cumulative left-trivialized increments of a group ensemble (starts at 0)."""
    return _logarithm(x, mc_increments(x))


def ito_exponential(m, alpha: ConnectionFunction):
    """Solve the Ito development equation for a driving algebra ensemble.

    One-step scheme: inject ``exp(dM - 1/2 alpha(dM,dM))``.
    The group-side correction makes the compensated logarithm of the output
    a drift-free readback of M (strong order 1/2 in general, exact when
    alpha is quadratic-free). Only the symmetric part of alpha enters the
    quadratic correction, so the scheme is insensitive to the torsion
    normalization of the connection table. A corrected step that overflows
    raises ExpOverflowError.
    """
    expect(m, group_valued=False)
    correction = _ito_correction(m.group, alpha)
    dm = np.diff(m.values, axis=-2)
    # a huge step's quadratic overflows to inf or NaN, refused below; numpy
    # need not warn first
    with np.errstate(over="ignore", invalid="ignore"):
        for slab in slabs(*dm.shape[:2]):
            dm[slab] += correction(dm[slab])
    if not np.isfinite(dm).all():
        raise ExpOverflowError(f"{m.group.name}: an Ito-corrected step overflowed; "
                               "the step or the drift is too large")
    return _developed(m, dm)


def ito_logarithm(x, alpha: ConnectionFunction):
    """Compensated logarithm of a group ensemble (starts at 0).

    Returns the cumulative sum of ``dL + 1/2 alpha(dL,dL)`` over the
    left-trivialized increments dL: the Stratonovich logarithm plus half the
    running alpha-quadratic sum.
    """
    dl = mc_increments(x)
    return _logarithm(x, dl, _ito_correction(x.group, alpha))


def roundtrip_errors(m, alpha: ConnectionFunction):
    """Terminal round-trip error ``|log(exp(M)) - M|`` of the Ito pair, one
    per replica."""
    back = ito_logarithm(ito_exponential(m, alpha), alpha)
    return np.linalg.norm(back.values[:, -1] - m.values[:, -1], axis=-1)


def translate_initial(xi, x):
    """Left-translate a group ensemble by a fixed group element.

    The left-trivialized increments are unchanged, so every log-type
    operator returns identical output for the translated ensemble.
    """
    expect(x, group_valued=True)
    spec = x.group
    xi = np.asarray(xi, dtype=np.float64)
    defect = float(np.max(membership_defect(spec, xi)))
    if not defect <= MEMBERSHIP_GATE:  # NaN fails too
        raise MembershipError(
            f"{spec.name}: translation element defect {defect:.3e} exceeds gate"
        )
    return x.with_values(xi @ x.values, step_logs=x.step_logs)
