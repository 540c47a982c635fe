import re
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from liestoch.errors import (
    DimensionError,
    ExpOverflowError,
    LieStochError,
    LogRangeError,
    SingularMatrixError,
)
from liestoch.connections import alpha_levi_civita, metric_for
from liestoch.groups import (
    GROUP_NAMES,
    bracket_coords,
    get_group,
    membership_defect,
    structure_constants,
    to_matrix_coords,
)
from liestoch import linalg
from liestoch.linalg import (
    Tolerance,
    _generic_log,
    _taylor_exp,
    bilinear,
    frobenius_dist,
    frobenius_norm,
    map_stacked,
    mat_exp,
    mat_log,
    solve_linear,
    spd_cholesky,
    tiles,
)
from liestoch.errors import MetricError

RNG = np.random.default_rng(20260810)
SO3 = get_group("so3")
SE3 = get_group("se3")
CLOSED_RNG = np.random.default_rng(20261018)  # closed-form cases; leaves RNG's stream alone


def test_tolerance_validation():
    Tolerance(1e-12, 1e-9)
    Tolerance(0.0, 1e-9)
    with pytest.raises(ValueError):
        Tolerance(-1e-12, 1e-9)
    with pytest.raises(ValueError):
        Tolerance(0.0, 0.0)


def test_exp_zero_is_identity():
    assert np.array_equal(mat_exp(np.zeros((3, 3))), np.eye(3))


def test_exp_nilpotent_terminates():
    # strictly upper-triangular 3x3: series ends at the quadratic term
    a = np.array([[0.0, 1.3, -0.4], [0.0, 0.0, 2.1], [0.0, 0.0, 0.0]])
    exact = np.eye(3) + a + a @ a / 2.0
    assert np.max(np.abs(mat_exp(a) - exact)) < 1e-15


def test_exp_rotation_matches_rodrigues():
    e3 = get_group("so3").basis[2]
    for theta in (0.1, 0.9, 2.5):
        rodrigues = np.eye(3) + np.sin(theta) * e3 + (1 - np.cos(theta)) * (e3 @ e3)
        assert np.max(np.abs(mat_exp(theta * e3) - rodrigues)) < 1e-13


def test_exp_inverse_property():
    for _ in range(20):
        a = RNG.standard_normal((4, 4))
        a *= RNG.uniform(0, 1.0) / max(frobenius_norm(a), 1e-9)
        prod = mat_exp(a) @ mat_exp(-a)
        assert frobenius_dist(prod, np.eye(4)) < 1e-10


def test_exp_rejects_non_square():
    with pytest.raises(DimensionError):
        mat_exp(np.zeros((2, 3)))


def test_exp_rejects_non_finite():
    bad = np.full((2, 2), np.nan)
    with pytest.raises(ValueError):
        mat_exp(bad)


def test_exp_overflow_is_a_package_error():
    # a library error maps to CLI exit 4. e^800 is past the largest double
    # in the generic exp; a rigid motion whose translation is near the
    # largest double overflows in the se3 closed form, outside _taylor_exp
    assert issubclass(ExpOverflowError, LieStochError)
    huge = np.diag([800.0, -800.0, 0.0])
    rigid = np.zeros((4, 4))
    rigid[0, 1], rigid[1, 0] = -1.0, 1.0
    rigid[:2, 3] = 1.7e308
    with np.errstate(over="ignore", invalid="ignore"):
        for exp, a in ((mat_exp, huge), (_taylor_exp, huge), (mat_exp, rigid)):
            with pytest.raises(ExpOverflowError, match="overflowed"):
                exp(a)


def test_exp_overflow_raises_without_a_numpy_warning():
    # the kernels run under np.errstate, so with warnings as errors the
    # caller still sees only the package error
    huge = np.diag([800.0, -800.0, 0.0])
    rigid = np.zeros((4, 4))
    rigid[0, 1], rigid[1, 0] = -1.0, 1.0
    rigid[:2, 3] = 1.7e308
    with np.errstate(over="warn", invalid="warn"), warnings.catch_warnings():
        warnings.simplefilter("error")
        for a in (huge, np.diag([800.0, 0.0]), rigid):
            with pytest.raises(ExpOverflowError, match="overflowed"):
                mat_exp(a)


def test_exp_batch_composition_does_not_change_results():
    a = 0.3 * RNG.standard_normal((6, 3, 3))
    big = 50.0 * RNG.standard_normal((2, 3, 3))
    alone = mat_exp(a)
    mixed = mat_exp(np.concatenate([a, big]))
    assert np.array_equal(alone, mixed[:6])
    # closed-form matrices shuffled in with generic ones of the same size
    skew = to_matrix_coords(SO3, 0.7 * CLOSED_RNG.standard_normal((7, 3)))
    rigid = to_matrix_coords(SE3, CLOSED_RNG.standard_normal((7, 6)))
    for closed, generic in ((skew, 0.3 * CLOSED_RNG.standard_normal((5, 3, 3))),
                            (rigid, 0.3 * CLOSED_RNG.standard_normal((5, 4, 4)))):
        assert_split_invariant(mat_exp, _taylor_exp, closed, generic)


def assert_split_invariant(kernel, oracle, closed, generic, rng=CLOSED_RNG):
    """``kernel`` on a shuffled mix equals ``kernel`` on each part, bit for bit."""
    batch = np.concatenate([closed, generic])
    is_closed = np.arange(len(batch)) < len(closed)
    order = rng.permutation(len(batch))
    batch, is_closed = batch[order], is_closed[order]
    out = kernel(batch)
    assert np.array_equal(out[is_closed], kernel(batch[is_closed]))
    assert np.array_equal(out[~is_closed], kernel(batch[~is_closed]))
    assert np.array_equal(out[~is_closed], oracle(batch[~is_closed]))


def test_log_batch_composition_does_not_change_results():
    rotations = mat_exp(to_matrix_coords(SO3, 0.4 * CLOSED_RNG.standard_normal((7, 3))))
    others = np.concatenate([
        mat_exp(to_matrix_coords(get_group(name), 0.4 * CLOSED_RNG.standard_normal((4, 3))))
        for name in ("n3", "e11")
    ])
    assert_split_invariant(mat_log, _generic_log, rotations, others)


def test_log_identity_is_zero():
    assert np.max(np.abs(mat_log(np.eye(4)))) == 0.0


def test_log_exp_roundtrip_on_ball():
    for _ in range(30):
        a = RNG.standard_normal((4, 4))
        a *= RNG.uniform(0.01, 0.5) / frobenius_norm(a)
        assert np.max(np.abs(mat_log(mat_exp(a)) - a)) < 1e-10


def test_log_unipotent_matches_terminating_series():
    m = np.array([[1.0, 0.7, -0.3], [0.0, 1.0, 0.5], [0.0, 0.0, 1.0]])
    n = m - np.eye(3)
    exact = n - n @ n / 2.0  # n^3 = 0
    assert np.max(np.abs(mat_log(m) - exact)) < 1e-14


def test_log_rejects_singular():
    m = np.eye(3)
    m[0, 0] = 0.0
    with pytest.raises(SingularMatrixError):
        mat_log(m)


def test_log_range_error_near_negative_axis():
    # rotation by pi: -1 eigenvalue pair, no real logarithm
    with pytest.raises(LogRangeError):
        mat_log(np.diag([-1.0, -1.0, 1.0]))


def test_det_exp_equals_exp_trace_on_catalog_algebras():
    for name in ("so3", "se2", "se3", "e11", "n3", "sl2r"):
        spec = get_group(name)
        coords = RNG.standard_normal((10, spec.algebra_dim))
        mats = to_matrix_coords(spec, coords)
        dets = np.linalg.det(mat_exp(mats))
        traces = np.trace(mats, axis1=-2, axis2=-1)
        assert np.max(np.abs(dets - np.exp(traces))) < 1e-8


def test_solve_identity_and_diagonal():
    b = np.array([3.0, -2.0])
    assert np.array_equal(solve_linear(np.eye(2), b), b)
    x = solve_linear(np.diag([2.0, 4.0]), np.array([2.0, 8.0]))
    assert np.allclose(x, [1.0, 2.0], atol=1e-14)


def test_solve_random_system_residual():
    for _ in range(10):
        a = RNG.standard_normal((6, 6)) + 3.0 * np.eye(6)
        b = RNG.standard_normal(6)
        x = solve_linear(a, b)
        assert np.linalg.norm(a @ x - b) < 1e-10


def test_solve_rejects_singular():
    with pytest.raises(SingularMatrixError):
        solve_linear(np.zeros((2, 2)), np.ones(2))


def test_frobenius_examples():
    a = RNG.standard_normal((3, 3))
    assert frobenius_dist(a, a) == 0.0
    assert abs(frobenius_dist(np.eye(2), np.zeros((2, 2))) - np.sqrt(2)) < 1e-15
    with pytest.raises(DimensionError):
        frobenius_dist(np.eye(2), np.eye(3))


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_frobenius_symmetry(seed):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((3, 3))
    b = rng.standard_normal((3, 3))
    assert frobenius_dist(a, b) == frobenius_dist(b, a)


def test_spd_cholesky_errors():
    with pytest.raises(MetricError):
        spd_cholesky(np.array([[1.0, 0.5], [0.4, 1.0]]))  # not symmetric
    with pytest.raises(MetricError):
        spd_cholesky(np.array([[1.0, 2.0], [2.0, 1.0]]))  # indefinite


# Closed-form branches against the generic oracles.

ORACLE_TOL = 1e-14
LOG10_NORMS = st.floats(min_value=-9.0, max_value=float(np.log10(4.0)))
SEEDS = st.integers(0, 2**32 - 1)


def _scaled_direction(seed, dim, norm):
    v = np.random.default_rng(seed).standard_normal(dim)
    return norm * v / np.linalg.norm(v)


def _oracle_gap(a, got, want):
    return np.max(np.abs(got - want)) / max(1.0, float(frobenius_norm(a)))


@settings(max_examples=200, deadline=None)
@given(SEEDS, LOG10_NORMS)
def test_so3_exp_matches_taylor_oracle(seed, log_norm):
    a = to_matrix_coords(SO3, _scaled_direction(seed, 3, 10.0**log_norm))
    assert _oracle_gap(a, mat_exp(a), _taylor_exp(a)) <= ORACLE_TOL


@settings(max_examples=200, deadline=None)
@given(SEEDS, LOG10_NORMS, LOG10_NORMS)
@example(7, float(np.log10(0.5 - 1e-9)), 0.0)
@example(7, float(np.log10(0.5)), 0.0)
@example(7, float(np.log10(0.5 + 1e-9)), 0.0)
def test_se3_exp_matches_taylor_oracle(seed, log_angle, log_shift):
    # angle and translation drawn apart, so theta lands on both sides of the
    # 0.5 switch between the series and the direct (theta - sin)/theta^3
    coords = np.concatenate([
        _scaled_direction(seed, 3, 10.0**log_angle),
        _scaled_direction(seed + 1, 3, 10.0**log_shift),
    ])
    a = to_matrix_coords(SE3, coords)
    assert _oracle_gap(a, mat_exp(a), _taylor_exp(a)) <= ORACLE_TOL


@settings(max_examples=200, deadline=None)
@given(SEEDS, st.floats(min_value=-9.0, max_value=float(np.log10(np.pi / 2 - 1e-6))))
def test_so3_log_matches_generic_oracle(seed, log_angle):
    a = to_matrix_coords(SO3, _scaled_direction(seed, 3, 10.0**log_angle))
    rotation = _taylor_exp(a)
    assert linalg._is_rotation_below_half_turn(linalg._entries(rotation[None]))[0]
    assert _oracle_gap(a, mat_log(rotation), _generic_log(rotation)) <= ORACLE_TOL


def test_log_outside_the_closed_form_is_the_generic_log_bit_for_bit():
    axis = _scaled_direction(3, 3, 1.0)
    rotation = _taylor_exp(to_matrix_coords(SO3, 0.8 * axis))
    skewed = rotation + 1e-10 * CLOSED_RNG.standard_normal((3, 3))  # defect above 1e-12
    past_quarter = _taylor_exp(to_matrix_coords(SO3, (np.pi / 2 + 1e-3) * axis))
    for m in (skewed, past_quarter):
        assert not linalg._is_rotation_below_half_turn(linalg._entries(m[None]))[0]
        assert np.array_equal(mat_log(m), _generic_log(m))


def test_exp_outside_the_closed_forms_is_the_taylor_exp_bit_for_bit():
    nearly_skew = to_matrix_coords(SO3, [0.3, -0.2, 0.9])
    nearly_skew[0, 0] = 1e-300
    rigid_with_bottom_row = to_matrix_coords(SE3, CLOSED_RNG.standard_normal(6))
    rigid_with_bottom_row[3, 0] = 1e-12
    for a in (nearly_skew, rigid_with_bottom_row, to_matrix_coords(get_group("n3"), [1, 2, 3])):
        assert np.array_equal(mat_exp(a), _taylor_exp(a))


QUADRATIC = "kij,...i,...j->...k"


def _quadratic_tables(name, rng):
    """Structure constants, then Levi-Civita coefficients and their symmetric
    part at lambda 0.5, 1, 2: every table the package builds. Their entries
    are powers of two, so the last table is sparse with arbitrary entries,
    as a user's connection table may be, where the order of the two
    products shows."""
    spec = get_group(name)
    tables = [structure_constants(spec)]
    for lam in (0.5, 1.0, 2.0):
        alpha = alpha_levi_civita(metric_for(spec, lam))
        tables += [alpha.coeffs, alpha.symmetric_part()]
    n = spec.algebra_dim
    tables.append(np.where(rng.random((n, n, n)) < 0.2, rng.standard_normal((n, n, n)), 0.0))
    return tables


def _coordinates(rng, lead, n, log_scale, strided, zeros):
    shape = lead + (n,)
    x = 10.0**log_scale * rng.standard_normal(shape)
    if zeros:  # signed zeros where the table's terms would be signed zeros too
        hit = rng.random(shape) < 0.3
        x[hit] = np.where(rng.random(shape) < 0.5, 0.0, -0.0)[hit]
    if strided:  # every other component of a wider buffer
        wide = np.empty(lead + (2 * n,))
        wide[..., ::2] = x
        x = wide[..., ::2]
    return x


@settings(max_examples=300, deadline=None)
@given(SEEDS, st.sampled_from(GROUP_NAMES), st.integers(0, 7),
       st.sampled_from([(), (5,), (3, 4)]), st.booleans(), st.booleans(), st.booleans(),
       st.floats(min_value=-6.0, max_value=6.0))
def test_bilinear_is_the_einsum_bit_for_bit(seed, name, which, lead, same, strided, zeros,
                                            log_scale):
    rng = np.random.default_rng(seed)
    table = _quadratic_tables(name, rng)[which]
    n = table.shape[0]
    x = _coordinates(rng, lead, n, log_scale, strided, zeros)
    y = x if same else _coordinates(rng, lead, n, 0.0, not strided, zeros)
    want = np.einsum(QUADRATIC, table, x, y)
    got = bilinear(table, x, y)
    assert got.shape == want.shape and got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


def test_bilinear_of_a_zero_table_is_positive_zero():
    x = np.array([[-1.0, 2.0, -0.0], [3.0, -4.0, 5.0]])
    out = bilinear(np.zeros((3, 3, 3)), x, x)
    assert out.tobytes() == np.zeros((2, 3)).tobytes()


def test_bilinear_refuses_operands_the_table_does_not_take():
    # the einsum refuses them too; an so3 bracket of two 4-vectors used to
    # drop their 4th entries and return [0, 0, 1]
    four, three = np.array([1.0, 0.0, 0.0, 5.0]), np.ones(3)
    so3 = structure_constants(SO3)
    wide = np.ones((2, 3, 4))  # takes a 3-vector and a 4-vector
    cases = [(so3, four, [0.0, 1.0, 0.0, 7.0]), (so3, four, three), (so3, three, four),
             (so3, np.float64(1.0), three), (wide, three, three), (wide, four, four)]
    for table, x, y in cases:
        with pytest.raises(ValueError):
            np.einsum(QUADRATIC, table, x, y)
        with pytest.raises(DimensionError):
            bilinear(table, x, y)
    with pytest.raises(DimensionError):
        bracket_coords(SO3, four, [0.0, 1.0, 0.0, 7.0])
    assert bilinear(wide, three, np.ones(4)).shape == (2,)


def test_no_module_contracts_the_quadratic_with_einsum():
    # linalg.bilinear is the one kernel for table[k, i, j] x_i y_j; an
    # einsum over the dense table is 18x the work on se3
    root = Path(__file__).resolve().parent.parent
    literal = re.compile("[\"']" + re.escape(QUADRATIC) + "[\"']")
    modules = sorted(root.glob("src/liestoch/*.py"))
    assert len(modules) > 10
    assert [m.name for m in modules if literal.search(m.read_text())] == []


def test_map_stacked_blocks_match_one_call_bit_for_bit():
    # three full blocks and a short one; closed-form and generic matrices mixed
    rng = np.random.default_rng(7)
    m = 3 * linalg._ROW_CHUNK + 17
    skew = to_matrix_coords(SO3, 0.5 * rng.standard_normal((m, 3)))
    rigid = to_matrix_coords(SE3, 0.5 * rng.standard_normal((m, 6)))
    for closed in (skew, rigid):
        d = closed.shape[-1]
        take = rng.random(m) < 0.6
        batch = np.where(take[:, None, None], closed, 0.3 * rng.standard_normal((m, d, d)))
        exps = mat_exp(batch)
        assert map_stacked(mat_exp, batch).tobytes() == exps.tobytes()
        assert map_stacked(mat_log, exps).tobytes() == mat_log(exps).tobytes()


def test_map_stacked_restores_leading_axes_of_per_matrix_scalars():
    coords = np.random.default_rng(8).standard_normal((3, linalg._ROW_CHUNK + 3, 3))
    stack = mat_exp(to_matrix_coords(SO3, coords))
    defect = map_stacked(lambda g: membership_defect(SO3, g), stack)
    assert defect.shape == coords.shape[:-1]
    assert defect.tobytes() == membership_defect(SO3, stack).tobytes()


@pytest.mark.parametrize("replicas, steps",
                         [(1, 4099), (4095, 3), (4096, 2), (4097, 2), (3, 1400), (0, 4), (5, 0)])
def test_tiles_cover_the_grid_once_in_step_order(replicas, steps):
    seen = np.zeros((replicas, steps), dtype=int)
    last_stop = {}
    for r, k in tiles(replicas, steps):
        assert (r.stop - r.start) * (k.stop - k.start) <= linalg._ROW_CHUNK
        # a replica block's steps come in order, so a recursion can run on
        assert last_stop.get(r.start, 0) == k.start
        last_stop[r.start] = k.stop
        seen[r, k] += 1
    assert np.all(seen == 1)
    if steps and 0 < replicas <= linalg._ROW_CHUNK:
        assert list(last_stop) == [0]  # one block: one stacked product per step
