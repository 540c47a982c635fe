import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liestoch import groups
from liestoch.errors import (
    ClosureError,
    DimensionError,
    MembershipError,
    NotInAlgebraError,
    UnsupportedGroupError,
)
from liestoch.groups import (
    GROUP_NAMES,
    MEMBERSHIP_GATE,
    adjoint_matrices,
    bracket_coords,
    from_matrix_coords,
    get_group,
    group_inverse,
    membership_defect,
    random_group_element,
    structure_constants,
    to_matrix_coords,
)
from liestoch.linalg import frobenius_dist, mat_exp, mat_log
from test_linalg import assert_split_invariant

RNG = np.random.default_rng(42)
KERNEL_RNG = np.random.default_rng(20261019)  # kernel-table cases; leaves RNG's stream alone


def test_group_lookup_case_insensitive_and_unknown():
    assert get_group("SO3") is get_group("so3")
    with pytest.raises(UnsupportedGroupError):
        get_group("su2")


def test_basis_shapes():
    dims = {"so3": (3, 3), "se2": (3, 3), "se3": (6, 4), "e11": (3, 3),
            "n3": (3, 3), "sl2r": (3, 2)}
    for name, (n, d) in dims.items():
        spec = get_group(name)
        assert spec.algebra_dim == n and spec.matrix_dim == d
        assert spec.basis.shape == (n, d, d)


def test_bracket_so3_cyclic():
    spec = get_group("so3")
    e = np.eye(3)
    for i in range(3):
        j, k = (i + 1) % 3, (i + 2) % 3
        assert np.allclose(bracket_coords(spec, e[i], e[j]), e[k], atol=1e-14)


def test_bracket_sl2r_relations():
    spec = get_group("sl2r")
    h, ep, em = np.eye(3)
    assert np.allclose(bracket_coords(spec, h, ep), [0, 2, 0], atol=1e-14)
    assert np.allclose(bracket_coords(spec, h, em), [0, 0, -2], atol=1e-14)
    assert np.allclose(bracket_coords(spec, ep, em), [1, 0, 0], atol=1e-14)


def test_bracket_antisymmetry_and_self():
    # the table is antisymmetric to the bit, but the sum over its entries
    # runs in table order, so the swapped bracket agrees to roundoff only
    for name in GROUP_NAMES:
        spec = get_group(name)
        a = RNG.standard_normal(spec.algebra_dim)
        b = RNG.standard_normal(spec.algebra_dim)
        assert np.max(np.abs(bracket_coords(spec, a, a))) <= 1e-14
        assert np.max(np.abs(bracket_coords(spec, a, b) + bracket_coords(spec, b, a))) <= 1e-14


def test_structure_constants_oracles():
    c = structure_constants(get_group("n3"))
    expected = np.zeros((3, 3, 3))
    expected[2, 0, 1] = 1.0  # [X, Y] = Z
    expected[2, 1, 0] = -1.0
    assert np.max(np.abs(c - expected)) < 1e-12

    c = structure_constants(get_group("se2"))
    # [H, e1] = e2, [H, e2] = -e1, [e1, e2] = 0
    assert abs(c[2, 0, 1] - 1.0) < 1e-12
    assert abs(c[1, 0, 2] + 1.0) < 1e-12
    assert np.max(np.abs(c[:, 1, 2])) < 1e-12

    c = structure_constants(get_group("e11"))
    # [H, e1] = e1, [H, e2] = -e2
    assert abs(c[1, 0, 1] - 1.0) < 1e-12
    assert abs(c[2, 0, 2] + 1.0) < 1e-12


def test_bracket_coords_is_the_projected_commutator():
    rng = np.random.default_rng(11)  # leaves RNG's stream alone
    for name in GROUP_NAMES:
        spec = get_group(name)
        n = spec.algebra_dim
        # on basis pairs the table column is the projected commutator
        e = np.eye(n)
        for i in range(n):
            for j in range(n):
                a, b = spec.basis[i], spec.basis[j]
                projected = from_matrix_coords(spec, a @ b - b @ a)
                assert np.array_equal(bracket_coords(spec, e[i], e[j]), projected)
        x, y = rng.standard_normal((2, 50, n))
        a, b = to_matrix_coords(spec, x), to_matrix_coords(spec, y)
        projected = from_matrix_coords(spec, a @ b - b @ a)
        assert np.max(np.abs(bracket_coords(spec, x, y) - projected)) <= 1e-13


def test_jacobi_identity_all_groups():
    for name in GROUP_NAMES:
        spec = get_group(name)
        for _ in range(10):
            a, b, c = (RNG.standard_normal(spec.algebra_dim) for _ in range(3))
            total = (
                bracket_coords(spec, a, bracket_coords(spec, b, c))
                + bracket_coords(spec, b, bracket_coords(spec, c, a))
                + bracket_coords(spec, c, bracket_coords(spec, a, b))
            )
            assert np.max(np.abs(total)) < 1e-10


def test_matrix_roundtrip():
    for name in GROUP_NAMES:
        spec = get_group(name)
        assert np.max(np.abs(to_matrix_coords(spec, np.zeros(spec.algebra_dim)))) == 0.0
        coords = RNG.standard_normal(spec.algebra_dim)
        back = from_matrix_coords(spec, to_matrix_coords(spec, coords))
        assert np.max(np.abs(back - coords)) < 1e-12


def _signed_zeros(rng, x):
    """``x`` with about a third of its entries set to +0.0 or -0.0."""
    hit = rng.random(x.shape) < 0.3
    x[hit] = np.where(rng.random(x.shape) < 0.5, 0.0, -0.0)[hit]
    return x


@pytest.mark.parametrize("name", GROUP_NAMES)
@pytest.mark.parametrize("lead", [(), (7,), (5, 4)])
@pytest.mark.parametrize("strided", [False, True])
def test_sparse_conversions_are_the_einsums_bit_for_bit(name, lead, strided):
    # to_matrix_coords writes each coordinate into its basis entries and
    # from_matrix_coords visits the nonzero projector and basis entries;
    # both must keep the dense contractions' bits, signed zeros included
    spec = get_group(name)
    n, d = spec.algebra_dim, spec.matrix_dim
    rng = np.random.default_rng(sum(map(ord, name)) + len(lead))
    coords = _signed_zeros(rng, rng.standard_normal(lead + (2 * n,)))
    coords = coords[..., ::2] if strided else coords[..., :n]
    mats = to_matrix_coords(spec, coords)
    want = np.einsum("...n,nij->...ij", coords, spec.basis)
    assert mats.shape == want.shape and mats.tobytes() == want.tobytes()
    # matrices in the span: roundoff on half the entries, a random sign on
    # the zeros
    noisy = mats + np.where(rng.random(mats.shape) < 0.5, 1e-15, 0.0) * rng.standard_normal(
        mats.shape)
    noisy[(noisy == 0) & (rng.random(mats.shape) < 0.5)] = -0.0
    vec = noisy.reshape(lead + (d * d,))
    want = np.einsum("...p,np->...n", vec, spec._projector)
    got = from_matrix_coords(spec, noisy)
    assert got.shape == want.shape and got.tobytes() == want.tobytes()


def test_from_matrix_rejects_off_span():
    spec = get_group("so3")
    mat = to_matrix_coords(spec, np.array([0.3, -0.2, 0.9]))
    mat = mat + 0.01 * np.eye(3)  # symmetric contamination
    with pytest.raises(NotInAlgebraError):
        from_matrix_coords(spec, mat)


@pytest.mark.parametrize("name", GROUP_NAMES)
def test_from_matrix_rejects_nan(name):
    spec = get_group(name)
    with pytest.raises(NotInAlgebraError):
        from_matrix_coords(spec, np.full((spec.matrix_dim,) * 2, np.nan))


def test_membership_defects():
    for name in GROUP_NAMES:
        spec = get_group(name)
        assert membership_defect(spec, spec.identity) == 0.0
        coords = RNG.standard_normal(spec.algebra_dim)
        coords /= max(np.linalg.norm(coords), 1.0)
        g = mat_exp(to_matrix_coords(spec, coords), spec.exp)
        assert membership_defect(spec, g) < 1e-10


def test_membership_defect_sl2r_example():
    assert abs(membership_defect(get_group("sl2r"), 2.0 * np.eye(2)) - 3.0) < 1e-14


def test_membership_defect_wrong_dimension():
    with pytest.raises(DimensionError):
        membership_defect(get_group("so3"), np.eye(4))


def test_group_inverse_structural():
    for name in GROUP_NAMES:
        spec = get_group(name)
        g = random_group_element(spec, RNG)
        gi = group_inverse(spec, g)
        assert np.max(np.abs(g @ gi - spec.identity)) < 1e-12
        assert membership_defect(spec, gi) < 1e-10


def test_ad_identity_and_inverse_composition():
    for name in GROUP_NAMES:
        spec = get_group(name)
        v = RNG.standard_normal(spec.algebra_dim)
        assert np.max(np.abs(adjoint_matrices(spec, spec.identity) @ v - v)) < 1e-14
        g = random_group_element(spec, RNG)
        forward = adjoint_matrices(spec, g)
        backward = adjoint_matrices(spec, group_inverse(spec, g))
        assert np.max(np.abs(forward @ backward - np.eye(spec.algebra_dim))) < 1e-10


def test_ad_composition():
    # Ad(g h) = Ad(g) Ad(h)
    for name in GROUP_NAMES:
        spec = get_group(name)
        g = random_group_element(spec, RNG)
        h = random_group_element(spec, RNG)
        combined = adjoint_matrices(spec, g @ h)
        composed = adjoint_matrices(spec, g) @ adjoint_matrices(spec, h)
        assert np.max(np.abs(combined - composed)) < 1e-10


def test_ad_so3_rotation_action():
    spec = get_group("so3")
    theta = 0.8
    g = mat_exp(theta * spec.basis[2], spec.exp)
    adm = adjoint_matrices(spec, g)
    rot = np.array(
        [[np.cos(theta), -np.sin(theta), 0.0],
         [np.sin(theta), np.cos(theta), 0.0],
         [0.0, 0.0, 1.0]]
    )
    assert np.max(np.abs(adm - rot)) < 1e-12


def test_ad_rejects_non_member():
    with pytest.raises(MembershipError):
        adjoint_matrices(get_group("so3"), 2.0 * np.eye(3))


def test_ad_derivative_is_bracket():
    # d/dt Ad(exp(tA)) B at t = 0 equals [A, B]
    step = 1e-5
    for name in GROUP_NAMES:
        spec = get_group(name)
        a = RNG.standard_normal(spec.algebra_dim)
        b = RNG.standard_normal(spec.algebra_dim)
        plus = adjoint_matrices(spec, mat_exp(to_matrix_coords(spec, step * a), spec.exp)) @ b
        minus = adjoint_matrices(spec, mat_exp(to_matrix_coords(spec, -step * a), spec.exp)) @ b
        fd = (plus - minus) / (2.0 * step)
        assert np.max(np.abs(fd - bracket_coords(spec, a, b))) < 1e-6


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from(GROUP_NAMES))
def test_bracket_bilinearity(seed, name):
    rng = np.random.default_rng(seed)
    spec = get_group(name)
    a, b, c = (rng.standard_normal(spec.algebra_dim) for _ in range(3))
    s = float(rng.uniform(-2, 2))
    left = bracket_coords(spec, s * a + b, c)
    right = s * bracket_coords(spec, a, c) + bracket_coords(spec, b, c)
    assert np.max(np.abs(left - right)) < 1e-12


# Oracles for the closed-form group kernels: the stacked formulas they
# replaced (``R^T R`` by matmul, ``det`` by LU, conjugate and project).


def _stacked_defect(spec, g):
    def rot_defect(r):
        rtr = np.swapaxes(r, -1, -2) @ r
        return frobenius_dist(rtr, np.eye(r.shape[-1])) + np.abs(np.linalg.det(r) - 1.0)

    d = spec.matrix_dim
    if spec.name == "so3":
        return rot_defect(g)
    if spec.name == "sl2r":
        return np.abs(np.linalg.det(g) - 1.0)
    if spec.name in ("se2", "se3"):
        bottom = np.zeros(d)
        bottom[-1] = 1.0
        return rot_defect(g[..., :-1, :-1]) + np.sqrt(
            np.sum((g[..., -1, :] - bottom) ** 2, axis=-1)
        )
    if spec.name == "n3":
        pattern = np.abs(g[..., 0, 0] - 1.0) + np.abs(g[..., 1, 1] - 1.0) + np.abs(
            g[..., 2, 2] - 1.0
        )
        lower = np.abs(g[..., 1, 0]) + np.abs(g[..., 2, 0]) + np.abs(g[..., 2, 1])
        return pattern + lower
    p, q = g[..., 0, 0], g[..., 1, 1]  # e11
    offblock = np.abs(g[..., 0, 1]) + np.abs(g[..., 1, 0])
    bottom = np.abs(g[..., 2, 0]) + np.abs(g[..., 2, 1]) + np.abs(g[..., 2, 2] - 1.0)
    positivity = np.maximum(0.0, -p) + np.maximum(0.0, -q)
    return np.abs(p * q - 1.0) + offblock + bottom + positivity


def _conjugate_and_project(spec, g):
    conj = np.einsum("...ab,nbc,...cd->...nad", g, spec.basis, group_inverse(spec, g))
    return np.swapaxes(from_matrix_coords(spec, conj), -1, -2)


def _members(spec, rng, count):
    """exp of algebra elements with coordinate norms spread over (0, 1]."""
    coords = rng.standard_normal((count, spec.algebra_dim))
    coords *= rng.uniform(1e-6, 1.0, (count, 1)) / np.linalg.norm(coords, axis=1, keepdims=True)
    return mat_exp(to_matrix_coords(spec, coords), spec.exp)


def _one_at_a_time(kernel):
    return lambda batch: np.stack([kernel(m) for m in batch])


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from(GROUP_NAMES),
       st.sampled_from((0.0, 1e-9, 1e-6, 1e-3)))
def test_membership_defect_matches_stacked_oracle(seed, name, scale):
    rng = np.random.default_rng(seed)
    spec = get_group(name)
    g = _members(spec, rng, 16)
    g = g + scale * rng.standard_normal(g.shape)
    assert np.max(np.abs(membership_defect(spec, g) - _stacked_defect(spec, g))) <= 1e-14


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from((0.0, 1e-9, 1e-8, 1e-7)))
def test_so3_adjoint_matches_conjugate_and_project(seed, scale):
    rng = np.random.default_rng(seed)
    spec = get_group("so3")
    g = _members(spec, rng, 32)
    g = g + scale * rng.standard_normal(g.shape)
    g = g[membership_defect(spec, g) <= MEMBERSHIP_GATE]  # up to the gate
    assert len(g) > 0
    assert np.max(np.abs(adjoint_matrices(spec, g) - _conjugate_and_project(spec, g))) <= 1e-15


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from(GROUP_NAMES))
def test_group_inverse_is_a_left_inverse(seed, name):
    spec = get_group(name)
    g = _members(spec, np.random.default_rng(seed), 16)
    assert np.max(np.abs(group_inverse(spec, g) @ g - spec.identity)) < 1e-12


@pytest.mark.parametrize("name", GROUP_NAMES)
def test_group_kernels_split_invariant(name):
    spec = get_group(name)
    members = _members(spec, KERNEL_RNG, 9)
    perturbed = members + 1e-3 * KERNEL_RNG.standard_normal(members.shape)
    for kernel in (lambda g: membership_defect(spec, g), lambda g: group_inverse(spec, g)):
        assert_split_invariant(kernel, _one_at_a_time(kernel), members, perturbed, KERNEL_RNG)


def test_so3_adjoint_split_invariant():
    spec = get_group("so3")
    members = _members(spec, KERNEL_RNG, 9)
    near = members + 1e-8 * KERNEL_RNG.standard_normal(members.shape)
    near = near[membership_defect(spec, near) <= MEMBERSHIP_GATE]
    adjoint = lambda g: adjoint_matrices(spec, g)  # noqa: E731
    assert_split_invariant(adjoint, _one_at_a_time(adjoint), members, near, KERNEL_RNG)


def test_generic_adjoint_keeps_its_closure_check():
    # an se2 matrix within the membership gate whose conjugates leave the span
    spec = get_group("se2")
    g = spec.identity
    g[2, 0] = 1e-7
    assert membership_defect(spec, g) <= MEMBERSHIP_GATE
    with pytest.raises(ClosureError):
        adjoint_matrices(spec, g)


@pytest.mark.parametrize("name", GROUP_NAMES)
def test_adjoint_is_contiguous_and_contracts_like_a_copy(name):
    # einsum rounds a transposed view differently from a contiguous array,
    # so a caller's bits must not depend on the adjoint's memory layout
    spec = get_group(name)
    rng = np.random.default_rng(23)
    n = spec.algebra_dim
    g = mat_exp(to_matrix_coords(spec, 0.5 * rng.standard_normal((8, 16, n))), spec.exp)
    v = rng.standard_normal((8, 16, n))
    ad = adjoint_matrices(spec, g)
    assert ad.flags.c_contiguous
    contract = "...kij,...kj->...ki"
    assert np.array_equal(np.einsum(contract, ad, v), np.einsum(contract, ad.copy(), v))


@pytest.mark.parametrize("name, entry", [("so3", None), ("se3", (0, 3)), ("n3", (0, 2))])
def test_adjoint_rejects_non_finite_input(name, entry):
    spec = get_group(name)
    g = np.full((spec.matrix_dim,) * 2, np.nan)
    if entry is not None:  # NaN only in an entry the defect formula does not read
        g = spec.identity
        g[entry] = np.nan
    with pytest.raises(MembershipError):
        adjoint_matrices(spec, g)


@pytest.mark.parametrize("name", GROUP_NAMES)
def test_group_kernels_accept_an_empty_batch(name):
    spec = get_group(name)
    d, n = spec.matrix_dim, spec.algebra_dim
    empty = np.zeros((0, d, d))
    assert membership_defect(spec, empty).shape == (0,)
    assert group_inverse(spec, empty).shape == (0, d, d)
    assert adjoint_matrices(spec, empty).shape == (0, n, n)
    assert mat_exp(to_matrix_coords(spec, np.zeros((0, n))), spec.exp).shape == (0, d, d)


@pytest.mark.parametrize("t", [0.0, 40.0, -40.0, 690.0, -690.0])
def test_e11_positivity_near_its_boundary(t):
    # exp(t H + translations) = [[e^t, 0, x], [0, e^-t, y], [0, 0, 1]]: at
    # |t| = 690 one diagonal entry is ~1e-300, next to the p, q > 0 boundary
    spec = get_group("e11")
    g = mat_exp(to_matrix_coords(spec, [t, 0.5, -0.5]), spec.exp)
    p, q = g[0, 0], g[1, 1]
    assert p > 0.0 and q > 0.0
    assert membership_defect(spec, g) <= MEMBERSHIP_GATE
    adjoint_matrices(spec, g)  # a member: no MembershipError
    # the reflection diag(-p, -q, 1) keeps pq = 1 and det = 1 but lies in
    # the other component; positivity alone rejects it
    reflected = g * np.array([-1.0, -1.0, 1.0])[:, None]
    assert abs(reflected[0, 0] * reflected[1, 1] - 1.0) <= MEMBERSHIP_GATE
    assert membership_defect(spec, reflected) > MEMBERSHIP_GATE
    with pytest.raises(MembershipError):
        adjoint_matrices(spec, reflected)


@pytest.mark.parametrize("eps", [1e-4, 1e-8, 1e-10])
@pytest.mark.parametrize("regime", [1.0, -1.0])  # hyperbolic, elliptic
def test_sl2r_regimes_near_the_parabolic_boundary(eps, regime):
    # A = E+ + regime * eps E- has A^2 = regime * eps I: parabolic at eps = 0
    spec = get_group("sl2r")
    a = to_matrix_coords(spec, [0.0, 1.0, regime * eps])
    r = np.sqrt(eps)
    if regime > 0:
        even, odd = np.cosh(r), np.sinh(r) / r
    else:
        even, odd = np.cos(r), np.sin(r) / r
    g = mat_exp(a, spec.exp)
    assert np.max(np.abs(g - (even * np.eye(2) + odd * a))) <= 1e-15
    assert membership_defect(spec, g) <= 1e-15 < MEMBERSHIP_GATE
    # |tr| > 2 is hyperbolic, |tr| < 2 elliptic: the regime survives exp
    assert np.sign(np.trace(g) - 2.0) == regime
    assert np.max(np.abs(mat_log(g, spec.log) - a)) <= 1e-12


def test_only_se3_names_a_gate_block():
    # se3's gate develops the so3 block of its first three coordinates: the
    # same basis matrices, embedded in the top-left corner
    so3, se3 = get_group("so3"), get_group("se3")
    block, k = se3.gate_block
    assert block is so3 and k == 3
    assert np.array_equal(se3.basis[:k, :3, :3], so3.basis)
    assert not se3.basis[:k, 3].any() and not se3.basis[:k, :, 3].any()
    assert [name for name in GROUP_NAMES if get_group(name).gate_block] == ["se3"]


@pytest.mark.parametrize("turn", [0.0, 1e-9, 0.3, 3.0, 40.0])
@pytest.mark.parametrize("shift", [1.0, 1e150, 1e300])
def test_rigid_exp_keeps_the_bottom_row_exact(turn, shift):
    # the se3 gate reads the rotation block alone because the bottom row of
    # every step, and so of every product, is exactly e_4
    spec = get_group("se3")
    coords = np.random.default_rng(7).standard_normal((50, 6))
    coords[:, :3] *= turn
    coords[:, 3:] *= shift
    exps = mat_exp(to_matrix_coords(spec, coords), spec.exp)
    assert np.isfinite(exps).all()
    assert (exps[:, 3] == [0.0, 0.0, 0.0, 1.0]).all()
    assert not np.signbit(exps[:, 3]).any()
    prods = exps[:, None] @ exps[None, :]
    assert (prods[..., 3, :] == [0.0, 0.0, 0.0, 1.0]).all()


# Bitwise oracles for the so3 entry-row kernels: each as it was before it
# read and wrote entry rows without layout round trips (Rodrigues' formula
# by 2-D broadcasts and a fancy-indexed diagonal, the log through the
# transposed entry rows, the defect by lists of Gram terms).
_TRANSPOSE3 = np.arange(9).reshape(3, 3).T.ravel()  # entry row of (j, i)
_VEE3 = [7, 2, 3]                                     # A21, A02, A10


def _oracle_rotation_exp(e):
    w = e[_VEE3]
    theta2 = w[0] * w[0] + w[1] * w[1] + w[2] * w[2]
    a, b = groups._rodrigues_coefficients(np.sqrt(theta2))
    out = (w[:, None] * w[None, :]).reshape(9, -1)
    out *= b
    out += a * e
    out[[0, 4, 8]] += 1.0 - b * theta2
    return out


def _oracle_rotation_log(e):
    s = 0.5 * (e - e[_TRANSPOSE3])
    w = s[_VEE3]
    cos = 0.5 * (e[0] + e[4] + e[8] - 1.0)
    theta = np.arctan2(np.sqrt(w[0] * w[0] + w[1] * w[1] + w[2] * w[2]), cos)
    return s / groups._sinc(theta / np.pi)


def _oracle_orthogonality_defect(e, n=3, k=3):
    def gram(i, j):
        out = e[i] * e[j]
        for r in range(1, k):
            out += e[n * r + i] * e[n * r + j]
        return out

    diag = [(gram(i, i) - 1.0) ** 2 for i in range(k)]
    off = [gram(i, j) ** 2 for i in range(k) for j in range(i + 1, k)]
    return np.sqrt(sum(diag[1:], diag[0]) + 2.0 * sum(off[1:], off[0]))


def _oracle_rotation_defect(e):
    def cofactor(j):
        j1, j2 = (j + 1) % 3, (j + 2) % 3
        return e[3 + j1] * e[6 + j2] - e[3 + j2] * e[6 + j1]

    det = e[0] * cofactor(0) + e[1] * cofactor(1)
    det += e[2] * cofactor(2)
    return _oracle_orthogonality_defect(e) + np.abs(det - 1.0)


ORACLE_ANGLES = (0.0, 1e-300, 1e-9, 0.3, np.pi / 2 - 1e-9, np.pi / 2 + 1e-9, np.pi - 1e-6, 3.0)


def _oracle_coordinates(rng):
    """so3 coordinates: 64 random axes at each of ``ORACLE_ANGLES``, then
    signed zeros, then rows with a NaN or an infinite coordinate."""
    axes = rng.standard_normal((len(ORACLE_ANGLES), 64, 3))
    axes /= np.linalg.norm(axes, axis=-1, keepdims=True)
    coords = (np.array(ORACLE_ANGLES)[:, None, None] * axes).reshape(-1, 3)
    signed = _signed_zeros(rng, 0.5 * rng.standard_normal((200, 3)))
    signed[:8] = [[0.0, 0.0, 0.0], [-0.0, -0.0, -0.0], [0.3, -0.0, 0.0], [-0.0, 0.3, -0.0],
                  [0.0, -0.0, -3.0], [-1e-300, 0.0, -0.0], [2.0, -0.0, 2.0], [-0.0, 3.0, 0.0]]
    bad = rng.standard_normal((3 * 3 * 2, 3))
    for row, (value, k) in enumerate((v, k) for v in (np.nan, np.inf, -np.inf)
                                     for k in range(3) for _ in range(2)):
        bad[row, k] = value
    return np.concatenate([coords, signed, bad])


def _non_finite_rows(rng, e):
    """``e`` with NaN, inf or -inf put in one entry row of some matrices."""
    e = e.copy()
    for value in (np.nan, np.inf, -np.inf):
        for p in range(len(e)):
            e[p, rng.integers(0, e.shape[1], 3)] = value
    return e


def test_so3_entry_row_kernels_match_their_oracles_bit_for_bit():
    rng = np.random.default_rng(2027)
    spec = get_group("so3")
    algebra = to_matrix_coords(spec, _oracle_coordinates(rng))
    e = groups._entries(algebra)
    with np.errstate(all="ignore"):
        rotations = _oracle_rotation_exp(e)
        assert groups._rotation_exp(e).tobytes() == rotations.tobytes()
        # the mirrored pair (+0.0 below, -0.0 above the diagonal) keeps its
        # signs, as (M - M^T)/2 gives them
        mirrored = np.eye(3)
        mirrored[1, 2] = -0.0
        logs_of = np.concatenate([rotations, _non_finite_rows(rng, rotations),
                                  groups._entries(mirrored[None])], axis=1)
        got = groups._rotation_log(logs_of, groups._cos_angle(logs_of))
        assert got.tobytes() == _oracle_rotation_log(logs_of).tobytes()
        noisy = rotations + 1e-9 * rng.standard_normal(rotations.shape)
        for g in (rotations, noisy, _non_finite_rows(rng, noisy)):
            assert spec.defect(g).tobytes() == _oracle_rotation_defect(g).tobytes()
    finite = np.isfinite(algebra).all(axis=(1, 2))
    stack = mat_exp(algebra[finite], spec.exp)
    assert stack.tobytes() == groups._stack(rotations[:, finite], 3).tobytes()


@pytest.mark.parametrize("n, k", [(3, 3), (4, 3), (3, 2)])
def test_orthogonality_defect_matches_its_oracle_bit_for_bit(n, k):
    rng = np.random.default_rng(n + 10 * k)
    e = rng.standard_normal((n * n, 500))
    e[:, :100] = 0.0
    e[: n * n : n + 1, :100] = 1.0  # identities, then roundoff away from them
    e[:, 100:200] = e[:, :100] + 1e-12 * rng.standard_normal((n * n, 100))
    e = np.concatenate([e, _non_finite_rows(rng, e)], axis=1)
    with np.errstate(all="ignore"):
        got = groups._orthogonality_defect(e, n, k)
        assert got.tobytes() == _oracle_orthogonality_defect(e, n, k).tobytes()


def test_se3_rotation_block_is_the_so3_oracle_bit_for_bit():
    # se3's exp writes its rotation block with so3's Rodrigues writer
    rng = np.random.default_rng(41)
    rotation = _oracle_coordinates(rng)
    coords = np.concatenate([rotation, rng.standard_normal(rotation.shape)], axis=1)
    with np.errstate(all="ignore"):
        block = groups._rigid_exp(groups._entries(to_matrix_coords(get_group("se3"), coords)))
        want = _oracle_rotation_exp(groups._entries(to_matrix_coords(get_group("so3"),
                                                                     rotation)))
    assert block[[0, 1, 2, 4, 5, 6, 8, 9, 10]].tobytes() == want.tobytes()


def _row_backed(stack):
    """The same matrices as a view of their entry rows, which
    ``groups._entries`` hands to a kernel without a copy."""
    m, d = len(stack), stack.shape[-1]
    rows = np.ascontiguousarray(stack.reshape(m, d * d).T)
    return np.moveaxis(rows.reshape(d, d, m), (0, 1), (1, 2))


@pytest.mark.parametrize("name", GROUP_NAMES)
def test_catalog_kernels_leave_their_input_unchanged(name):
    spec = get_group(name)
    coords = 0.3 * np.random.default_rng(31).standard_normal((64, spec.algebra_dim))
    algebra = to_matrix_coords(spec, coords)
    members = _row_backed(mat_exp(algebra, spec.exp))
    for stack in (algebra, members):  # the kernels read them in place
        assert np.shares_memory(groups._entries(stack), stack)
    adjoint = spec.adjoint or (lambda g: adjoint_matrices(spec, g))
    kernels = ((spec.exp, algebra), (lambda g: spec.defect(groups._entries(g)), members),
               (adjoint, members), (spec.log, members))
    for kernel, stack in kernels:
        before = stack.tobytes()
        kernel(stack)
        assert stack.tobytes() == before
