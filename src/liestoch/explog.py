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
the tiles of ``linalg.tiles`` in step-major order, and the membership gate
runs on each finished tile while it is in cache; the passes that treat
each step on its own (both Ito corrections, the logarithms' increments)
run over the contiguous replica slabs of ``linalg.slabs``. A tile's product
is the row's tile product where its catalog entry names one (n3, e11 and
se2: a few running sums along the tile's steps, by Chen's relation), and
otherwise one stacked matmul per step (so3, se3 and sl2r).
``development_logarithm`` drives the same gate with no output: the
compensated logarithm of a development, read from its steps, with no group
values kept. Its two halves are public, so that a caller can run them
apart (``martingale.martingale_test`` does, in two processes):
``injected_steps`` of a driver, and ``step_logarithm``, the gated
logarithm of given steps. Where the row's catalog entry names a gate block
(se3: so3), that gate develops only the rotation block, which is all the
row's defect reads while the translations stay finite (``_gate_develop``).
"""

from __future__ import annotations

import numpy as np

from .calculus import mc_increments
from .connections import ConnectionFunction
from .errors import ExpOverflowError, GroupMismatchError, IntegratorDriftError
from .groups import check_membership, membership_defect, to_matrix_coords
from .linalg import bilinear, mat_exp, slabs, tiles
from .paths import Ensemble, expect


def _product_tiles(spec, steps, owner=None):
    """The develop's cumulative product of exp(step vectors), gated tile by
    tile: yields each tile's slices ``(r, k)`` and its finished
    (cols, rows, d, d) step-major products, valid until the next tile.

    Tile by tile (``linalg.tiles``), in step-major order: a tile's steps
    are exponentiated as a (cols, rows) stack, and the product recursion
    runs in one contiguous (cols+1, rows, d, d) scratch, allocated once per
    call: by the row's tile product (``GroupSpec.product``), which fills
    the tile in a few calls from the carry, the exponentials and the step
    coordinates, and carries its own state to the replica block's next
    tile (se2: its running angle), or else by one stacked matmul per step.
    Each finished tile's membership defects are taken while it is in cache,
    the worst over all tiles is kept (NaN propagates), and once the last
    tile is out the gate raises as ``check_drift`` would on the full
    values: its message and worst defect do not depend on the tiling. The
    message names ``owner``, ``spec`` by default: the row whose develop is
    gated through ``spec``'s block.
    """
    replicas, count, n = steps.shape
    d = spec.matrix_dim
    worst = -np.inf
    coords_buf = prod_buf = None
    for r, k in tiles(replicas, count):
        rows, cols = r.stop - r.start, k.stop - k.start
        if prod_buf is None:  # the first tile is the largest
            coords_buf = np.empty(cols * rows * n)
            prod_buf = np.empty((cols + 1) * rows * d * d)
        coords = coords_buf[: cols * rows * n].reshape(cols, rows, n)
        prod = prod_buf[: (cols + 1) * rows * d * d].reshape(cols + 1, rows, d, d)
        np.copyto(coords, steps[r, k].transpose(1, 0, 2))
        exps = mat_exp(to_matrix_coords(spec, coords), spec.exp)
        # a block's first tile starts at the identity, the others where
        # the previous tile ended
        prod[0] = np.eye(d) if k.start == 0 else carry
        # an overflowing product turns into inf or NaN, which the membership
        # gate reports as a numerical failure; numpy need not warn first
        with np.errstate(over="ignore", invalid="ignore"):
            if spec.product is None:
                for j in range(cols):
                    np.matmul(prod[j], exps[j], out=prod[j + 1])
            else:
                state = spec.product(prod, exps, coords, None if k.start == 0 else state)
        del exps  # not live while the next tile's are made
        worst = np.maximum(worst, np.max(membership_defect(spec, prod[1:])))
        yield r, k, prod[1:]
        carry = prod[cols]
    _check_defect(owner or spec, worst)


def _develop(spec, steps):
    """Cumulative product of exp(step vectors), gated: (R, K, n) ->
    (R, K+1, d, d), each tile of ``_product_tiles`` copied into the
    replica-major output once."""
    replicas, count, _ = steps.shape
    d = spec.matrix_dim
    out = np.empty((replicas, count + 1, d, d))
    out[:, 0] = np.eye(d)
    for r, k, prod in _product_tiles(spec, steps):
        out[r, k.start + 1 : k.stop + 1] = prod.transpose(1, 0, 2, 3)
    return out


# The largest estimate of a replica's translation sum that
# ``_translations_stay_finite`` accepts: twice it, which bounds every
# translation entry, is a quarter of the largest double, and the rest is
# spare for rounding.
_TRANSLATION_BOUND = np.finfo(float).max / 8


def _gate_develop(spec, steps):
    """The gate of ``_develop`` alone, keeping no group values: it raises
    exactly when ``_develop`` would, with the same message.

    A row with a gate block (se3: the so3 block) develops only its rotation
    block while ``_translations_stay_finite``. That block is bit for bit
    the block of the full product. The row's defect is the block's defect
    plus the distance of the bottom row from ``e_d``, and the bottom row
    stays exact while the translations are finite, so the worst defect is
    the same too. Any other steps, and any other row, take the full gated
    product recursion, which on n3, e11 and se2 is their tile product: a
    few calls a tile, not one a step.
    """
    if spec.gate_block is not None and _translations_stay_finite(steps):
        block, k = spec.gate_block
        tiles = _product_tiles(block, steps[..., :k], spec)
    else:
        tiles = _product_tiles(spec, steps)
    for _ in tiles:
        pass


def _translations_stay_finite(steps):
    """Whether every translation entry of the full develop of ``steps`` on
    a row with a gate block, exponentials included, is certainly finite.

    For a replica with rotations ``w_j`` and translations ``u_j``, twice
    ``sum_j |u_j| (1 + |w_j|)^2`` bounds every such entry. Since
    ``|R V| <= 1``, a product's translation is at most ``sum_j |u_j|``. A
    step's exponential forms terms up to ``2 |w|^2 |u|`` on the way to
    ``V u``, and each product adds three entries of ``V u``, weighted by
    rotation entries, to the translation so far. With the largest step
    coordinate ``s`` over n coordinates and K steps, that sum is at most
    ``K n s (1 + n s)^2``, which must be within ``_TRANSLATION_BOUND``.
    A NaN step fails.
    """
    count, n = steps.shape[1:]
    size = float(np.maximum(steps.max(), -steps.min()))
    return count * n * size * (1.0 + n * size) * (1.0 + n * size) <= _TRANSLATION_BOUND


def _check_defect(spec, defect):
    """Raise IntegratorDriftError unless the worst of ``defect`` is within
    ``groups.MEMBERSHIP_GATE``; NaN fails."""
    check_membership(
        spec, defect, IntegratorDriftError,
        "integrator drifted off the group (membership defect {defect:.3e} > {gate:.1e}); "
        "use a smaller dt",
    )


def check_drift(spec, values):
    """Raise IntegratorDriftError unless every value is a member of the
    group to ``groups.MEMBERSHIP_GATE``."""
    _check_defect(spec, membership_defect(spec, values))


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


def _logarithm(spec, grid, dl, correction=None):
    """Ensemble on ``spec`` and ``grid`` of the cumulative sum of the log
    increments ``dl`` (starts at 0), each less ``correction(dl)`` when one
    is given, slab by slab (``linalg.slabs``)."""
    replicas, count, n = dl.shape
    out = np.zeros((replicas, count + 1, n))
    steps = out[:, 1:]
    if correction is not None:
        for slab in slabs(replicas, count):
            v = dl[slab]
            np.subtract(v, correction(v), out=steps[slab])
        dl = steps
    np.cumsum(dl, axis=1, out=steps)
    return Ensemble(spec, grid, out)


def _developed(ens, steps):
    """Ensemble developed from its identity start by the given step vectors.

    Not scanned for finiteness again: the membership gate has read every
    value, and every step through its exponential, and refuses a non-finite
    one (``groups.membership_defect``)."""
    return ens.with_gated_values(_develop(ens.group, steps), step_logs=steps)


def strat_exponential(m):
    """Development of an algebra ensemble into the group (identity start),
    step logs attached."""
    expect(m, group_valued=False)
    return _developed(m, np.diff(m.values, axis=-2))


def strat_logarithm(x):
    """Cumulative left-trivialized increments of a group ensemble (starts at 0)."""
    dl = mc_increments(x)  # refuses a wrong kind before x.group is read
    return _logarithm(x.group, x.grid, dl)


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
    return _developed(m, _ito_steps(m, _ito_correction(m.group, alpha)))


def _ito_steps(m, correction):
    """The injected steps ``dM - 1/2 alpha(dM,dM)`` of a driving algebra
    ensemble, corrected in place slab by slab (``linalg.slabs``); a step
    that overflows raises ExpOverflowError."""
    dm = np.diff(m.values, axis=-2)
    # a huge step's quadratic overflows to inf or NaN, refused below; numpy
    # need not warn first
    with np.errstate(over="ignore", invalid="ignore"):
        for slab in slabs(*dm.shape[:2]):
            dm[slab] += correction(dm[slab])
    if not np.isfinite(dm).all():
        raise ExpOverflowError(f"{m.group.name}: an Ito-corrected step overflowed; "
                               "the step or the drift is too large")
    return dm


def ito_logarithm(x, alpha: ConnectionFunction):
    """Compensated logarithm of a group ensemble (starts at 0).

    Returns the cumulative sum of ``dL + 1/2 alpha(dL,dL)`` over the
    left-trivialized increments dL: the Stratonovich logarithm plus half the
    running alpha-quadratic sum.
    """
    dl = mc_increments(x)
    return _logarithm(x.group, x.grid, dl, _ito_correction(x.group, alpha))


def injected_steps(m, alpha: ConnectionFunction, scheme="ito"):
    """The (R, K, n) steps that the ``scheme`` ("ito" or "strat")
    development of a driving algebra ensemble injects: ``dM - 1/2
    alpha(dM,dM)`` (``ito_exponential``'s, an overflow raising
    ExpOverflowError) or the plain driver increments
    (``strat_exponential``'s). ``alpha`` is checked against the group
    either way, since the logarithm of the steps reads it."""
    expect(m, group_valued=False)
    if scheme not in ("ito", "strat"):
        raise ValueError(f"scheme must be 'ito' or 'strat', got {scheme!r}")
    correction = _ito_correction(m.group, alpha)
    return _ito_steps(m, correction) if scheme == "ito" else np.diff(m.values, axis=-2)


def step_logarithm(spec, grid, steps, alpha: ConnectionFunction):
    """Compensated logarithm, an algebra ensemble on ``spec`` and ``grid``,
    of the development of the (R, K, n) ``steps``, keeping no group values.

    The steps run through the develop's gate first (``_gate_develop``,
    which drops each tile once it is gated), so this raises exactly when
    the develop would; then the logarithm is read from the steps
    themselves. ``steps`` is only read.
    """
    correction = _ito_correction(spec, alpha)
    _gate_develop(spec, steps)
    return _logarithm(spec, grid, steps, correction)


def development_logarithm(m, alpha: ConnectionFunction, scheme="ito"):
    """``ito_logarithm`` of the ``scheme`` ("ito" or "strat") development of
    a driving algebra ensemble, keeping no group values:
    ``step_logarithm`` of its ``injected_steps``.

    Bit for bit ``ito_logarithm(ito_exponential(m, alpha), alpha)`` (or of
    ``strat_exponential(m)``), and gated as they are.
    """
    return step_logarithm(m.group, m.grid, injected_steps(m, alpha, scheme), alpha)


def roundtrip_errors(m, alpha: ConnectionFunction):
    """Terminal round-trip error ``|log(exp(M)) - M|`` of the Ito pair, one
    per replica, the log read from the steps (``development_logarithm``)."""
    back = development_logarithm(m, alpha)
    return np.linalg.norm(back.values[:, -1] - m.values[:, -1], axis=-1)
