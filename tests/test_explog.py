from dataclasses import replace

import numpy as np
import pytest

from liestoch import explog, linalg
from liestoch.calculus import increments_from_values
from liestoch.connections import alpha_biinvariant, alpha_levi_civita, metric_for
from liestoch.errors import DimensionError, IntegratorDriftError, MembershipError
from liestoch.explog import (
    check_drift,
    ito_exponential,
    ito_logarithm,
    roundtrip_errors,
    strat_exponential,
    strat_logarithm,
)
from liestoch.groups import (
    GROUP_NAMES,
    adjoint_matrices,
    check_membership,
    get_group,
    membership_defect,
    to_matrix_coords,
)
from liestoch.linalg import frobenius_dist, mat_exp
from liestoch.paths import Ensemble, TimeGrid, brownian_ensemble, expect
from test_groups import random_group_element

SO3 = get_group("so3")
SE3 = get_group("se3")
RNG = np.random.default_rng(23)


def line_path(spec, grid, direction):
    return Ensemble(spec, grid, np.outer(grid.times(), direction)[None])


def test_strat_exponential_of_zero_is_identity_path():
    grid = TimeGrid(1.0, 12)
    zero = Ensemble(SO3, grid, np.zeros((13, 3))[None])
    x = strat_exponential(zero)
    assert np.array_equal(x.values[0], np.broadcast_to(np.eye(3), (13, 3, 3)))


def test_strat_exponential_line_is_one_parameter_subgroup():
    grid = TimeGrid(2.0, 16)
    a = np.array([0.2, -0.4, 0.1])
    x = strat_exponential(line_path(SO3, grid, a))
    expected = mat_exp(to_matrix_coords(SO3, np.outer(grid.times(), a)), SO3.exp)
    assert np.max(np.abs(x.values[0] - expected)) < 1e-12


def test_strat_operators_are_inverse():
    grid = TimeGrid(1.0, 500)
    bm = brownian_ensemble(SO3, grid, 7, 1)
    back = strat_logarithm(strat_exponential(bm))
    assert np.max(np.abs(back.values - bm.values)) < 1e-12


def test_strat_logarithm_of_identity_and_line():
    grid = TimeGrid(1.0, 10)
    x = strat_exponential(Ensemble(SO3, grid, np.zeros((11, 3))[None]))
    assert np.max(np.abs(strat_logarithm(x).values)) == 0.0
    a = np.array([0.3, 0.1, -0.2])
    lx = strat_logarithm(strat_exponential(line_path(SO3, grid, a)))
    assert np.max(np.abs(lx.values[0] - np.outer(grid.times(), a))) < 1e-12


def test_membership_gate_on_solver_outputs():
    grid = TimeGrid(1.0, 200)
    for name in ("so3", "se2", "se3", "e11", "n3", "sl2r"):
        spec = get_group(name)
        x = strat_exponential(brownian_ensemble(spec, grid, 3, 1))
        assert float(np.max(membership_defect(spec, x.values))) < 1e-6


def test_ito_exponential_biinvariant_coincides_bitwise():
    grid = TimeGrid(1.0, 300)
    for name in ("so3", "se2", "se3", "e11", "n3", "sl2r"):
        spec = get_group(name)
        bm = brownian_ensemble(spec, grid, 5, 1)
        alpha = alpha_biinvariant(spec)
        assert np.max(np.abs(alpha.symmetric_part())) == 0.0
        x = strat_exponential(bm)
        assert np.array_equal(ito_exponential(bm, alpha).values, x.values)
        assert np.array_equal(ito_logarithm(x, alpha).values, strat_logarithm(x).values)


def test_ito_exponential_of_zero_driver():
    grid = TimeGrid(1.0, 8)
    alpha = alpha_levi_civita(metric_for("se3", 1.0))
    zero = Ensemble(SE3, grid, np.zeros((9, 6))[None])
    x = ito_exponential(zero, alpha)
    assert np.array_equal(x.values[0], np.broadcast_to(np.eye(4), (9, 4, 4)))


def test_ito_roundtrip_converges():
    alpha = alpha_levi_civita(metric_for("se3", 1.0))
    means = []
    for dt in (4e-3, 2e-3, 1e-3):
        steps = int(round(1.0 / dt))
        ens = brownian_ensemble(SE3, TimeGrid(1.0, steps), 99, 16)
        back = ito_logarithm(ito_exponential(ens, alpha), alpha)
        err = np.linalg.norm(back.values[:, -1] - ens.values[:, -1], axis=-1)
        means.append(float(np.mean(err)))
    assert means[0] > means[1] > means[2]
    assert means[2] < 0.05


def test_roundtrip_defect_is_cubic_in_step():
    # single deterministic step: defect of log(exp-step) compensation scales
    # like the cube of the increment size
    alpha = alpha_levi_civita(metric_for("se3", 1.0))
    base = RNG.standard_normal(6)
    errs = []
    for h in (0.2, 0.1, 0.05):
        grid = TimeGrid(1.0, 1)
        m = Ensemble(SE3, grid, np.stack([np.zeros(6), h * base])[None])
        back = ito_logarithm(ito_exponential(m, alpha), alpha)
        errs.append(np.linalg.norm(back.values[0, -1] - m.values[0, -1]))
    assert errs[0] / errs[1] > 6.0  # ratio 8 expected for cubic order
    assert errs[1] / errs[2] > 6.0


def test_reverse_roundtrip_exp_of_log():
    alpha = alpha_levi_civita(metric_for("se3", 1.0))
    worst = []
    for steps in (250, 500, 1000):
        grid = TimeGrid(1.0, steps)
        x = strat_exponential(brownian_ensemble(SE3, grid, 31, 1))
        rebuilt = ito_exponential(ito_logarithm(x, alpha), alpha)
        worst.append(float(np.max(frobenius_dist(rebuilt.values, x.values))))
    # compensation applied then removed: distance shrinks with the step
    assert worst[0] > worst[1] > worst[2]
    assert worst[2] < 0.05


def test_roundtrip_all_groups_smoke():
    # every catalog group survives a Levi-Civita round trip at moderate dt
    for name in ("so3", "se2", "se3", "e11", "n3", "sl2r"):
        spec = get_group(name)
        alpha = alpha_levi_civita(metric_for(name, 1.3))
        grid = TimeGrid(1.0, 500)
        bm = brownian_ensemble(spec, grid, 47, 1)
        back = ito_logarithm(ito_exponential(bm, alpha), alpha)
        err = np.linalg.norm(back.values[0, -1] - bm.values[0, -1])
        assert err < 0.1, (name, err)


def test_ito_logarithm_deterministic_line_bound():
    alpha = alpha_levi_civita(metric_for("se3", 1.0))
    a = RNG.standard_normal(6)
    grid = TimeGrid(1.0, 500)
    x = strat_exponential(line_path(SE3, grid, a))
    lx = ito_logarithm(x, alpha)
    # bounded-variation path: quadratic correction is O(dt), vanishing in the limit
    alpha_aa = np.linalg.norm(
        np.einsum("kij,i,j->k", alpha.symmetric_part(), a, a)
    )
    deviation = np.linalg.norm(lx.values[0, -1] - a)
    assert deviation <= 2.0 * grid.dt * grid.horizon * max(alpha_aa, 1e-12) + 1e-12


def test_compensator_identity_exact_per_step():
    grid = TimeGrid(1.0, 300)
    alpha = alpha_levi_civita(metric_for("se3", 1.0))
    x = strat_exponential(brownian_ensemble(SE3, grid, 17, 1))
    lhs = ito_logarithm(x, alpha)
    dl = np.diff(strat_logarithm(x).values[0], axis=0)
    quad = np.einsum("kij,si,sj->sk", alpha.symmetric_part(), dl, dl)
    rhs = strat_logarithm(x).values[0].copy()
    rhs[1:] += 0.5 * np.cumsum(quad, axis=0)
    assert np.max(np.abs(lhs.values[0] - rhs)) < 1e-14


def translate_initial(xi, x):
    """Left-translate a group ensemble by a fixed group element.

    The left-trivialized increments are unchanged, so every log-type
    operator returns identical output for the translated ensemble.
    """
    expect(x, group_valued=True)
    spec = x.group
    xi = np.asarray(xi, dtype=np.float64)
    check_membership(spec, membership_defect(spec, xi),
                     message="translation element defect {defect:.3e} exceeds gate")
    return x.with_values(xi @ x.values, step_logs=x.step_logs)


def test_translate_initial_identity_and_bitwise_invariance():
    grid = TimeGrid(1.0, 120)
    alpha = alpha_levi_civita(metric_for("se3", 1.0))
    x = ito_exponential(brownian_ensemble(SE3, grid, 13, 1), alpha)
    same = translate_initial(np.eye(4), x)
    assert np.array_equal(same.values, x.values)
    xi = random_group_element(SE3, RNG)
    moved = translate_initial(xi, x)
    assert np.array_equal(
        ito_logarithm(moved, alpha).values, ito_logarithm(x, alpha).values
    )
    assert float(np.max(membership_defect(SE3, moved.values))) < 1e-6


@pytest.mark.parametrize("name", GROUP_NAMES)
def test_translate_initial_keeps_the_increments_read_back_from_values(name):
    """Left translation leaves every X_k^-1 X_{k+1} unchanged, so the
    increments read back from the translated values (inverse, product,
    ``mat_log``) are the injected step logs. Measured at most 1.9e-15, and
    1.9e-14 on sl2r."""
    spec = get_group(name)
    alpha = alpha_levi_civita(metric_for(name, 1.0))
    x = ito_exponential(brownian_ensemble(spec, TimeGrid(1.0, 200), 29, 16), alpha)
    moved = translate_initial(random_group_element(spec, RNG), x)
    readback = increments_from_values(spec, moved.values)
    assert np.max(np.abs(readback - x.step_logs)) < 1e-12

def test_translate_initial_rejects_non_member():
    grid = TimeGrid(1.0, 4)
    x = strat_exponential(brownian_ensemble(SE3, grid, 2, 1))
    with pytest.raises(MembershipError):
        translate_initial(2.0 * np.eye(4), x)


def test_translate_initial_rejects_nan():
    grid = TimeGrid(1.0, 4)
    x = strat_exponential(brownian_ensemble(SE3, grid, 2, 1))
    xi = np.eye(4)
    xi[0, 3] = np.nan  # a translation: the defect formula does not read it
    with pytest.raises(MembershipError):
        translate_initial(xi, x)


def test_solver_rejects_wrong_value_kind():
    grid = TimeGrid(1.0, 5)
    ens = brownian_ensemble(SO3, grid, 1, 2)
    x = strat_exponential(ens)
    with pytest.raises(DimensionError):
        strat_exponential(x)
    with pytest.raises(DimensionError):
        ito_exponential(x, alpha_biinvariant(SO3))
    # bare arrays are not paths
    for op in (strat_exponential, strat_logarithm):
        with pytest.raises(DimensionError):
            op(x.values[0])
    with pytest.raises(DimensionError):
        strat_logarithm(ens)


def test_integrator_drift_error_message():
    # corrupt a path by hand and check the gate trips
    bad = 2.0 * np.eye(3)  # defect ||4I - I||_F + |8 - 1| = 12.196
    with pytest.raises(IntegratorDriftError, match=r"^so3: integrator drifted off the group "
                       r"\(membership defect 1\.220e\+01 > 1\.0e-06\); use a smaller dt$"):
        check_drift(SO3, np.stack([np.eye(3), bad]))


def test_member_checks_keep_their_errors_and_messages():
    # the translation check and the adjoint's member check share the
    # develop's gate, groups.check_membership
    bad = 2.0 * np.eye(3)
    x = strat_exponential(brownian_ensemble(SO3, TimeGrid(1.0, 2), 1, 1))
    with pytest.raises(MembershipError,
                       match=r"^so3: translation element defect 1\.220e\+01 exceeds gate$"):
        translate_initial(bad, x)
    with pytest.raises(MembershipError,
                       match=r"^so3: membership defect nan exceeds gate 1\.0e-06$"):
        adjoint_matrices(SO3, np.stack([np.eye(3), np.full((3, 3), np.nan)]))
    assert adjoint_matrices(SO3, np.zeros((0, 3, 3))).shape == (0, 3, 3)


def test_roundtrip_errors_per_replica():
    alpha = alpha_levi_civita(metric_for("se3", 1.0))
    ens = brownian_ensemble(SE3, TimeGrid(1.0, 100), 5, 4)
    err = roundtrip_errors(ens, alpha)
    back = ito_logarithm(ito_exponential(ens, alpha), alpha)
    assert np.array_equal(err, np.linalg.norm(back.values[:, -1] - ens.values[:, -1], axis=-1))
    assert err.shape == (4,) and np.all(err > 0)
    one = ens.with_values(ens.values[2:3])
    assert np.array_equal(roundtrip_errors(one, alpha), err[2:3])
    # a quadratic-free connection reads the driver back to rounding
    assert np.max(roundtrip_errors(ens, alpha_biinvariant(SE3))) < 1e-12


@pytest.mark.parametrize("name", ["so3", "se3", "e11"])
def test_roundtrip_errors_build_no_group_values(monkeypatch, name):
    spec = get_group(name)
    alpha = alpha_levi_civita(metric_for(name, 2.0))
    ens = brownian_ensemble(spec, TimeGrid(1.0, 200), 6, 7)
    back = ito_logarithm(ito_exponential(ens, alpha), alpha)
    want = np.linalg.norm(back.values[:, -1] - ens.values[:, -1], axis=-1)

    def never(spec, steps):
        raise AssertionError("group values were built")

    monkeypatch.setattr(explog, "_develop", never)
    assert roundtrip_errors(ens, alpha).tobytes() == want.tobytes()


def _matmul_develop(spec, steps):
    """The develop by the stacked-matmul loop, one ``np.matmul`` a step: the
    oracle of a row's tile product, run on the row without one."""
    return explog._develop(replace(spec, product=None), steps)


# At a chunk of 7 or 64 matrices these shapes tile into blocks of steps and
# of replicas with remainders, one step a tile included; at 4096 each is one
# tile. A tile of up to 12 steps takes ``groups._running``'s call per step,
# a longer one numpy's accumulate.
@pytest.mark.parametrize("name", ["n3", "e11", "se2"])
@pytest.mark.parametrize("replicas, steps", [(3, 50), (10, 40), (100, 9)])
def test_tile_products_match_the_matmul_develop(name, replicas, steps, monkeypatch):
    spec = get_group(name)
    assert spec.product is not None
    drift = np.linspace(0.5, -0.5, spec.algebra_dim)
    m = brownian_ensemble(spec, TimeGrid(0.1 * steps, steps), 19, replicas, drift=drift)
    dm = np.diff(m.values, axis=1)
    oracle = _matmul_develop(spec, dm)
    runs = {}
    for chunk in (7, 64, 4096):
        monkeypatch.setattr(linalg, "_ROW_CHUNK", chunk)
        runs[chunk] = explog._develop(spec, dm)
    # no bit moves with the tiling: se2 carries its running angle exactly
    for chunk in (7, 64):
        assert runs[chunk].tobytes() == runs[4096].tobytes(), chunk
    if name == "e11":  # the matmul's products and sums, in its order
        assert runs[4096].tobytes() == oracle.tobytes()
    else:  # n3's sums unfused, se2's rotations by the running angle
        bound = steps * np.finfo(float).eps * max(1.0, np.max(np.abs(oracle)))
        assert np.max(np.abs(runs[4096] - oracle)) <= bound
