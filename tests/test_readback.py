"""Readback invariant: logging a solver path's values recovers its step logs.

Solver-built paths carry the step vectors they were developed from, so
``mc_increments`` never reads them back. These tests read them back anyway,
through ``group_inverse``, ``mat_log`` and the basis projection, so an error
in the exponential, the logarithm or the basis of any group shows up here.
"""

import numpy as np
import pytest

from liestoch import calculus, groups, linalg
from liestoch.calculus import increments_from_values
from liestoch.connections import alpha_levi_civita, metric_for
from liestoch.explog import ito_exponential
from liestoch.groups import GROUP_NAMES, get_group, to_matrix_coords
from liestoch.linalg import mat_exp, mat_log
from liestoch.paths import TimeGrid, brownian_ensemble

READBACK_TOL = 1e-12


def _solved(name, steps, replicas=64, seed=11):
    spec = get_group(name)
    drivers = brownian_ensemble(spec, TimeGrid(1.0, steps), seed, replicas)
    return ito_exponential(drivers, alpha_levi_civita(metric_for(spec, 1.0)))


def readback_error(x):
    return float(np.max(np.abs(increments_from_values(x.group, x.values) - x.step_logs)))


@pytest.mark.parametrize("steps", [100, 1000])
@pytest.mark.parametrize("name", GROUP_NAMES)
def test_readback_recovers_step_logs(name, steps):
    assert readback_error(_solved(name, steps)) <= READBACK_TOL


def test_readback_catches_a_perturbed_closed_form(monkeypatch):
    # the se3 V-matrix coefficient moves only the translation column, so the
    # membership gate cannot see it; the readback must
    original = groups._v_coefficient
    monkeypatch.setattr(groups, "_v_coefficient", lambda theta: original(theta) * (1 + 1e-6))
    assert readback_error(_solved("se3", 100)) > READBACK_TOL


def _oracle_readback(spec, m):
    """The row's matrix log, projected: what the readback must give."""
    return groups.from_matrix_coords(spec, mat_log(m, spec.log))


def _so3_edge_members(rng):
    """so3 members the readback must read as its oracle does: identities
    with signed-zero entries, rotations at a subnormal angle, 1e-8, 0.3,
    just below and past pi/2, and rotations off orthogonality by more than
    the closed form's 1e-12 but within the membership gate."""
    spec = get_group("so3")
    signed = np.tile(np.eye(3), (6, 1, 1))
    off = np.flatnonzero(~np.eye(3, dtype=bool).reshape(-1))
    for mat, zeros in zip(signed.reshape(6, 9), ([], off[:2], off[2:5], off, off[::2], off[1::3])):
        mat[zeros] = -0.0
    angles = np.array([1e-310, 1e-8, 0.3, np.pi / 2 - 1e-9, np.pi / 2 + 1e-9, 2.5])
    axes = rng.standard_normal((len(angles), 8, 3))
    axes /= np.linalg.norm(axes, axis=-1, keepdims=True)
    rotations = mat_exp(to_matrix_coords(spec, angles[:, None, None] * axes), spec.exp)
    noisy = rotations[2] + 1e-10 * rng.standard_normal((8, 3, 3))
    defect = groups.membership_defect(spec, noisy)
    assert np.all((defect > 1e-12) & (defect < groups.MEMBERSHIP_GATE))
    return np.concatenate([signed, rotations.reshape(-1, 3, 3), noisy])


@pytest.mark.parametrize("name", GROUP_NAMES)
def test_readback_is_the_projected_log_bit_for_bit(name):
    rng = np.random.default_rng(33)
    spec = get_group(name)
    coords = rng.standard_normal((3, 40, spec.algebra_dim)) * np.array([1e-6, 0.05, 0.4])[:, None, None]
    members = mat_exp(to_matrix_coords(spec, coords.reshape(-1, spec.algebra_dim)), spec.exp)
    if name == "so3":
        members = np.concatenate([members, _so3_edge_members(rng)])
    got = mat_log(members, spec.readback)
    assert got.shape == (len(members), spec.algebra_dim)
    assert got.tobytes() == _oracle_readback(spec, members).tobytes()
    assert mat_log(members[0], spec.readback).shape == (spec.algebra_dim,)


@pytest.mark.parametrize("chunk", [7, 64, 4096])
def test_so3_readback_of_a_mixed_path_across_slab_edges(chunk, monkeypatch):
    """An R x K path whose increments alternate between each edge member
    and its inverse, read back slab by slab: every increment passes through
    ``calculus.mat_log`` once, and the coordinates are the oracle's, taken
    on the whole path at once."""
    spec = get_group("so3")
    rng = np.random.default_rng(34)
    edges = _so3_edge_members(rng)
    picks = rng.integers(0, len(edges), (5, 700))
    values = np.tile(np.eye(3), (5, 1401, 1, 1))
    values[:, 1::2] = edges[picks]  # X_k^-1 X_k+1: an edge member, then its inverse
    seen = []
    counted = lambda m, kernel: seen.append(m.shape[:-2]) or mat_log(m, kernel)  # noqa: E731
    monkeypatch.setattr(calculus, "mat_log", counted)
    monkeypatch.setattr(linalg, "_ROW_CHUNK", chunk)
    got = increments_from_values(spec, values)
    assert sum(int(np.prod(shape)) for shape in seen) == 5 * 1400
    want = _oracle_readback(spec, groups.group_inverse(spec, values[:, :-1]) @ values[:, 1:])
    assert got.tobytes() == want.tobytes()
