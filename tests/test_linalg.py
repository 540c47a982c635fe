import ast
import re
import warnings
from functools import partial
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
from liestoch import groups, linalg
from liestoch.acceptance import _taylor_exp
from liestoch.linalg import (
    Tolerance,
    bilinear,
    frobenius_dist,
    frobenius_norm,
    generic_log,
    map_stacked,
    mat_exp,
    mat_log,
    solve_linear,
    slabs,
    spd_cholesky,
    tiles,
)
from liestoch.errors import MetricError

RNG = np.random.default_rng(20260810)
SO3 = get_group("so3")
SE3 = get_group("se3")
SE2 = get_group("se2")
E11 = get_group("e11")
N3 = get_group("n3")
SL2R = get_group("sl2r")
CLOSED_RNG = np.random.default_rng(20261018)  # closed-form cases; leaves RNG's stream alone


def test_tolerance_validation():
    Tolerance(1e-12, 1e-9)
    Tolerance(0.0, 1e-9)
    with pytest.raises(ValueError):
        Tolerance(-1e-12, 1e-9)
    with pytest.raises(ValueError):
        Tolerance(0.0, 0.0)


def test_exp_zero_is_identity():
    assert np.array_equal(mat_exp(np.zeros((3, 3)), SO3.exp), np.eye(3))


def test_exp_nilpotent_terminates():
    # strictly upper-triangular 3x3: series ends at the quadratic term
    a = np.array([[0.0, 1.3, -0.4], [0.0, 0.0, 2.1], [0.0, 0.0, 0.0]])
    exact = np.eye(3) + a + a @ a / 2.0
    assert np.max(np.abs(mat_exp(a, N3.exp) - exact)) < 1e-15


def test_exp_rotation_matches_rodrigues():
    e3 = get_group("so3").basis[2]
    for theta in (0.1, 0.9, 2.5):
        rodrigues = np.eye(3) + np.sin(theta) * e3 + (1 - np.cos(theta)) * (e3 @ e3)
        assert np.max(np.abs(mat_exp(theta * e3, SO3.exp) - rodrigues)) < 1e-13


def _algebra_elements(spec, rng, count, scale):
    """``count`` elements of ``spec``'s algebra, each of Frobenius norm up to
    ``scale``."""
    a = to_matrix_coords(spec, rng.standard_normal((count, spec.algebra_dim)))
    return a * (rng.uniform(0.0, scale, count) / frobenius_norm(a))[:, None, None]


def test_exp_inverse_property():
    # each row's own exp: exp(A) exp(-A) = I on its algebra
    rng = np.random.default_rng(83)
    for name in GROUP_NAMES:
        spec = get_group(name)
        a = _algebra_elements(spec, rng, 20, 1.0)
        prod = mat_exp(a, spec.exp) @ mat_exp(-a, spec.exp)
        assert np.max(frobenius_dist(prod, np.eye(spec.matrix_dim))) < 1e-10, name


def test_exp_rejects_non_square():
    with pytest.raises(DimensionError):
        mat_exp(np.zeros((2, 3)), SO3.exp)


def test_exp_rejects_non_finite():
    bad = np.full((2, 2), np.nan)
    with pytest.raises(ValueError):
        mat_exp(bad, SL2R.exp)


def test_exp_overflow_is_a_package_error():
    # a library error maps to CLI exit 4. e^800 is past the largest double
    # in the e11 exp; a rigid motion whose translation is near the largest
    # double overflows in the se3 exp
    assert issubclass(ExpOverflowError, LieStochError)
    huge = np.diag([800.0, -800.0, 0.0])
    rigid = np.zeros((4, 4))
    rigid[0, 1], rigid[1, 0] = -1.0, 1.0
    rigid[:2, 3] = 1.7e308
    with np.errstate(over="ignore", invalid="ignore"):
        for a, kernel in ((huge, E11.exp), (rigid, SE3.exp)):
            with pytest.raises(ExpOverflowError, match="overflowed"):
                mat_exp(a, kernel)


def test_exp_overflow_raises_without_a_numpy_warning():
    # the kernels run under np.errstate, so with warnings as errors the
    # caller still sees only the package error
    huge = np.diag([800.0, -800.0, 0.0])
    rigid = np.zeros((4, 4))
    rigid[0, 1], rigid[1, 0] = -1.0, 1.0
    rigid[:2, 3] = 1.7e308
    with np.errstate(over="warn", invalid="warn"), warnings.catch_warnings():
        warnings.simplefilter("error")
        for a, kernel in ((rigid, SE3.exp), (huge, E11.exp), (-huge, E11.exp),
                          (np.diag([800.0, -800.0]), SL2R.exp),
                          (np.array([[0.0, 800.0], [800.0, 0.0]]), SL2R.exp)):
            with pytest.raises(ExpOverflowError, match="overflowed"):
                mat_exp(a, kernel)


def test_exp_batch_composition_does_not_change_results():
    # a row's exp of a matrix does not depend on the batch it arrives in,
    # even next to elements 150x larger
    rng = np.random.default_rng(133)
    for name in GROUP_NAMES:
        spec = get_group(name)
        small = _algebra_elements(spec, rng, 6, 0.3)
        big = _algebra_elements(spec, rng, 2, 50.0)
        alone = mat_exp(small, spec.exp)
        mixed = mat_exp(np.concatenate([big[:1], small, big[1:]]), spec.exp)
        assert alone.tobytes() == mixed[1:7].tobytes(), name


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


def _rotations(angles, rng=CLOSED_RNG):
    """so3 members by the given angles about random axes."""
    axes = rng.standard_normal((len(angles), 3))
    axes *= np.asarray(angles)[:, None] / np.linalg.norm(axes, axis=-1, keepdims=True)
    return mat_exp(to_matrix_coords(SO3, axes), SO3.exp)


def test_log_batch_composition_does_not_change_results():
    # so3 rotations below pi/2 shuffled in with rotations past it, which
    # the row's log hands to the generic log
    below = _rotations(CLOSED_RNG.uniform(0.0, 1.5, 7))
    past = _rotations(CLOSED_RNG.uniform(1.6, 3.0, 5))
    assert_split_invariant(partial(mat_log, kernel=SO3.log), generic_log, below, past)


def test_log_identity_is_zero():
    assert np.max(np.abs(mat_log(np.eye(4), SE3.log))) == 0.0


def test_log_exp_roundtrip_on_ball():
    for _ in range(30):
        a = RNG.standard_normal((4, 4))
        a *= RNG.uniform(0.01, 0.5) / frobenius_norm(a)
        assert np.max(np.abs(mat_log(_taylor_exp(a), generic_log) - a)) < 1e-10


def test_log_unipotent_matches_terminating_series():
    m = np.array([[1.0, 0.7, -0.3], [0.0, 1.0, 0.5], [0.0, 0.0, 1.0]])
    n = m - np.eye(3)
    exact = n - n @ n / 2.0  # n^3 = 0
    assert np.max(np.abs(mat_log(m, N3.log) - exact)) < 1e-14


def test_log_rejects_singular():
    m = np.eye(3)
    m[0, 0] = 0.0
    with pytest.raises(SingularMatrixError):
        mat_log(m, generic_log)


def test_log_range_error_near_negative_axis():
    # rotation by pi: -1 eigenvalue pair, no real logarithm
    with pytest.raises(LogRangeError):
        mat_log(np.diag([-1.0, -1.0, 1.0]), SO3.log)


def test_det_exp_equals_exp_trace_on_catalog_algebras():
    for name in ("so3", "se2", "se3", "e11", "n3", "sl2r"):
        spec = get_group(name)
        coords = RNG.standard_normal((10, spec.algebra_dim))
        mats = to_matrix_coords(spec, coords)
        dets = np.linalg.det(mat_exp(mats, spec.exp))
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
    assert _oracle_gap(a, mat_exp(a, SO3.exp), _taylor_exp(a)) <= ORACLE_TOL


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
    assert _oracle_gap(a, mat_exp(a, SE3.exp), _taylor_exp(a)) <= ORACLE_TOL


@settings(max_examples=200, deadline=None)
@given(SEEDS, st.floats(min_value=-9.0, max_value=float(np.log10(np.pi / 2 - 1e-6))))
def test_so3_log_matches_generic_oracle(seed, log_angle):
    a = to_matrix_coords(SO3, _scaled_direction(seed, 3, 10.0**log_angle))
    rotation = _taylor_exp(a)
    assert _takes_rotation_log(rotation)
    want = mat_log(rotation, generic_log)
    assert _oracle_gap(a, mat_log(rotation, SO3.log), want) <= ORACLE_TOL


def _takes_rotation_log(m):
    e = groups._entries(m[None])
    return (groups._orthogonality_defect(e)[0] <= groups._ROTATION_LOG_GATE
            and groups._cos_angle(e)[0] > 0.0)


def test_log_outside_the_closed_form_is_the_generic_log_bit_for_bit():
    axis = _scaled_direction(3, 3, 1.0)
    rotation = _taylor_exp(to_matrix_coords(SO3, 0.8 * axis))
    skewed = rotation + 1e-10 * CLOSED_RNG.standard_normal((3, 3))  # defect above 1e-12
    past_quarter = _taylor_exp(to_matrix_coords(SO3, (np.pi / 2 + 1e-3) * axis))
    for m in (skewed, past_quarter):
        assert not _takes_rotation_log(m)
        assert np.array_equal(mat_log(m, SO3.log), mat_log(m, generic_log))


ROW_NORMS = st.floats(min_value=-9.0, max_value=float(np.log10(1.5)))


@settings(max_examples=200, deadline=None)
@given(SEEDS, st.sampled_from(GROUP_NAMES), ROW_NORMS)
def test_catalog_row_kernels_match_the_generic_kernels(seed, name, log_norm):
    # every row's exp and log against the oracles, the Taylor exp and the
    # generic log; at norms up to 1.5 an so3 log stays below pi/2
    spec = get_group(name)
    coords = np.random.default_rng(seed).standard_normal((4, spec.algebra_dim))
    coords *= 10.0**log_norm / np.linalg.norm(coords, axis=-1, keepdims=True)
    a = to_matrix_coords(spec, coords)
    bound = ORACLE_TOL * np.maximum(1.0, frobenius_norm(a))[:, None, None]
    assert np.all(np.abs(mat_exp(a, spec.exp) - _taylor_exp(a)) <= bound)
    m = _taylor_exp(a)
    assert np.all(np.abs(mat_log(m, spec.log) - generic_log(m)) <= bound)


def test_every_catalog_row_has_an_exp_kernel():
    # mat_exp and mat_log run only the kernel they are given: every row
    # names both, and the rows without a closed-form log name the generic one
    for name in GROUP_NAMES:
        spec = get_group(name)
        assert callable(spec.exp) and callable(spec.log), name
        assert (spec.log is generic_log) == (name in ("se2", "se3", "e11", "n3")), name


def _sl2r(h, p, q):
    return np.array([[h, p], [q, -h]])


# s^2 = h^2 + pq on each side of the series threshold, exactly: 0.25 - 2^-54
# and -0.25 + 2^-55 are doubles
SL2R_SWITCH = [_sl2r(0.5, 0.0, 0.0), _sl2r(0.5, 1.0, -2.0**-54),
               _sl2r(0.0, 0.5, -0.5), _sl2r(0.0, 0.5, -0.5 + 2.0**-54)]


def test_sl2r_exp_at_a_nilpotent_element_is_one_plus_it():
    # s^2 = 0: the series gives C = S = 1 exactly
    for a in (_sl2r(0.0, 1.0, 0.0), _sl2r(0.0, 0.0, -3.0), _sl2r(1.0, 1.0, -1.0)):
        assert np.array_equal(mat_exp(a, SL2R.exp), np.eye(2) + a)


def test_sl2r_exp_is_continuous_across_the_series_threshold():
    s2 = [a[0, 0] ** 2 + a[0, 1] * a[1, 0] for a in SL2R_SWITCH]
    assert s2 == [0.25, 0.25 - 2.0**-54, -0.25, -0.25 + 2.0**-55]
    for a in SL2R_SWITCH:
        assert np.max(np.abs(mat_exp(a, SL2R.exp) - _taylor_exp(a))) <= ORACLE_TOL
    # C and S one ulp of s^2 apart, by the closed form and by the series
    c, s = groups._sl2r_coefficients(np.array(s2))
    assert np.max(np.abs(c[[0, 2]] - c[[1, 3]])) <= 4e-16
    assert np.max(np.abs(s[[0, 2]] - s[[1, 3]])) <= 4e-16


@pytest.mark.parametrize("s", [0.75, 3.0, 20.0])
def test_sl2r_exp_in_the_hyperbolic_and_elliptic_regimes(s):
    # diag(e^s, e^-s) and the rotation by s, each to a few ulps of its
    # largest entry: e^-s is cosh s - sinh s
    want = np.diag([np.exp(s), np.exp(-s)])
    assert np.max(np.abs(mat_exp(_sl2r(s, 0.0, 0.0), SL2R.exp) - want)) <= 8e-16 * want[0, 0]
    c, n = np.cos(s), np.sin(s)
    got = mat_exp(_sl2r(0.0, s, -s), SL2R.exp)
    assert np.max(np.abs(got - np.array([[c, n], [-n, c]]))) <= 8e-16 * s


@pytest.mark.parametrize("h", [0.0, -0.0, 5e-324, -5e-324])
def test_e11_exp_at_a_vanishing_boost_is_one_plus_the_translation(h):
    # expm1(h)/h is exactly 1 at h = 0 and at the smallest subnormals
    a = to_matrix_coords(E11, [h, 0.7, -1.3])
    assert np.array_equal(mat_exp(a, E11.exp), [[1.0, 0.0, 0.7], [0.0, 1.0, -1.3], [0, 0, 1]])


@pytest.mark.parametrize("theta", [0.0, np.pi, -np.pi])
def test_se2_exp_at_no_turn_and_at_a_half_turn(theta):
    a = to_matrix_coords(SE2, [theta, 0.7, -1.3])
    got = mat_exp(a, SE2.exp)
    if theta == 0.0:
        assert np.array_equal(got, np.eye(3) + a)
    # V = (sin t / t) I + ((1 - cos t) / t) J, J the quarter turn
    c, n = np.cos(theta), np.sin(theta)
    v = np.array([[n, c - 1.0], [1.0 - c, n]]) / theta if theta else np.eye(2)
    want = np.eye(3)
    want[:2, :2] = [[c, -n], [n, c]]
    want[:2, 2] = v @ [0.7, -1.3]
    assert np.max(np.abs(got - want)) <= 4e-16
    assert np.max(np.abs(got - _taylor_exp(a))) <= ORACLE_TOL * frobenius_norm(a)


def test_n3_exp_is_the_terminating_series_bit_for_bit():
    # dyadic entries: I + A + A^2/2 has no rounding, and neither may the kernel
    coords = CLOSED_RNG.integers(-2**20, 2**20, (200, 3)) / 2.0**12
    a = to_matrix_coords(N3, coords)
    assert np.array_equal(mat_exp(a, N3.exp), np.eye(3) + a + (a @ a) / 2.0)


def test_row_exp_batch_composition_does_not_change_results():
    # each batch mixes every branch of its row's exp: sl2r's series,
    # hyperbolic and elliptic forms, e11 and se2 at and off zero
    batches = {
        SL2R: np.concatenate([SL2R_SWITCH, [_sl2r(0.0, 1.0, 0.0), _sl2r(3.0, 0.1, 0.2),
                                            _sl2r(0.1, 3.0, -2.0)]]),
        E11: to_matrix_coords(E11, [[0.0, 1.0, 2.0], [5e-324, 1.0, 2.0], [0.3, -1.0, 0.5]]),
        SE2: to_matrix_coords(SE2, [[0.0, 1.0, 2.0], [np.pi, 1.0, 2.0], [0.3, -1.0, 0.5]]),
        N3: to_matrix_coords(N3, CLOSED_RNG.standard_normal((3, 3))),
    }
    for spec, batch in batches.items():
        batch = batch[CLOSED_RNG.permutation(len(batch))]
        mixed = mat_exp(batch, spec.exp)
        for a, got in zip(batch, mixed):
            assert np.array_equal(got, mat_exp(a, spec.exp)), spec.name


def test_sl2r_log_refuses_a_trace_below_minus_two():
    # det 1 and eigenvalues -2 and -0.5: no real logarithm, at any dt
    m = np.array([[-2.0, 0.0], [0.0, -0.5]])
    with pytest.raises(LogRangeError, match=r"^sl2r: an SL\(2,R\) element with trace below -2 "
                                            r"has no real logarithm$"):
        mat_log(m, get_group("sl2r").log)


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


def test_no_module_imports_another_modules_private_name():
    # each module's internals, such as the entry-row format of the catalog
    # kernels in groups, stay behind that module's public functions
    root = Path(__file__).resolve().parent.parent
    found = []
    for path in sorted(root.glob("src/liestoch/*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and (
                    node.level or (node.module or "").startswith("liestoch")):
                found += [f"{path.name}: {a.name}" for a in node.names if a.name.startswith("_")]
    assert found == []


def test_map_stacked_blocks_match_one_call_bit_for_bit():
    # three full blocks and a short one, through the so3 and se3 rows; the
    # so3 rotations lie on both sides of pi/2, so the log's blocks mix its
    # closed form with the generic log
    rng = np.random.default_rng(7)
    m = 3 * linalg._ROW_CHUNK + 17
    for spec in (SO3, SE3):
        coords = rng.standard_normal((m, spec.algebra_dim))
        coords *= rng.uniform(0.0, 2.5, (m, 1)) / np.linalg.norm(coords, axis=-1, keepdims=True)
        exp = partial(mat_exp, kernel=spec.exp)
        log = partial(mat_log, kernel=spec.log)
        algebra = to_matrix_coords(spec, coords)
        exps = exp(algebra)
        assert map_stacked(exp, algebra).tobytes() == exps.tobytes()
        assert map_stacked(log, exps).tobytes() == log(exps).tobytes()


def test_map_stacked_restores_leading_axes_of_per_matrix_scalars():
    coords = np.random.default_rng(8).standard_normal((3, linalg._ROW_CHUNK + 3, 3))
    stack = mat_exp(to_matrix_coords(SO3, coords), SO3.exp)
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


@pytest.mark.parametrize("replicas, steps",
                         [(1, 4099), (41, 100), (8, 1000), (33, 128), (4097, 2), (0, 4), (5, 0)])
def test_slabs_cover_the_grid_once_in_memory_order(replicas, steps):
    seen = np.zeros((replicas, steps), dtype=int)
    flat = np.arange(replicas * steps).reshape(replicas, steps)
    stop = 0
    for r, k in slabs(replicas, steps):
        slab = flat[r, k]
        assert 0 < slab.size <= linalg._ROW_CHUNK
        # whole replicas, or one replica's steps: a contiguous run of the grid
        assert r.stop - r.start == 1 or (k.start, k.stop) == (0, steps)
        assert np.array_equal(slab.ravel(), np.arange(stop, stop + slab.size))
        stop += slab.size
        seen[r, k] += 1
    assert np.all(seen == 1)


def _v_coefficient_two_branch(theta):
    """``groups._v_coefficient`` as first written: both branches on every
    angle, picked by ``np.where``."""
    small = theta < groups._SERIES_ANGLE
    t = np.where(small, 1.0, theta)
    direct = (t - np.sin(t)) / (t * t * t)
    theta2 = theta * theta
    series = np.full_like(theta, groups._V_SERIES[-1])
    for coeff in groups._V_SERIES[-2::-1]:
        series = series * theta2 + coeff
    return np.where(small, series, direct)


HALF = groups._SERIES_ANGLE
ANGLES = st.one_of(
    st.sampled_from([0.0, 5e-324, 2.2e-308, np.nextafter(HALF, 0.0), HALF,
                     np.nextafter(HALF, 1.0), 4.0]),
    st.floats(min_value=0.0, max_value=4.0),
)


@settings(max_examples=200, deadline=None)
@given(st.lists(ANGLES, min_size=1, max_size=12))
@example([0.0, 5e-324, np.nextafter(HALF, 0.0), HALF, np.nextafter(HALF, 1.0), 4.0])
@example([0.1, 0.2])  # every angle on the series branch
@example([1.0, 4.0])  # every angle on the direct branch
def test_v_coefficient_is_the_two_branch_form_bit_for_bit(angles):
    theta = np.array(angles)
    assert groups._v_coefficient(theta).tobytes() == _v_coefficient_two_branch(theta).tobytes()
