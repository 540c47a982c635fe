import dataclasses
import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liestoch.connections import (
    ConnectionFunction,
    MetricSpec,
    RegressionReport,
    RegressionRow,
    alpha_biinvariant,
    alpha_levi_civita,
    closed_form_u,
    closed_form_u_variants,
    metric_for,
    regress_closed_forms,
    u_from_metric,
)
from liestoch.errors import MetricError, UnsupportedGroupError
from liestoch.groups import GROUP_NAMES, get_group, structure_constants
from liestoch.linalg import bilinear

RNG = np.random.default_rng(7)
NONCOMPACT = ("se3", "se2", "e11", "n3", "sl2r")


def test_metric_spec_validation():
    spec = get_group("so3")
    with pytest.raises(MetricError):
        MetricSpec(spec, np.array([[1.0, 0.5], [0.5, 1.0]]))  # wrong size
    with pytest.raises(MetricError):
        MetricSpec(spec, -np.eye(3))  # not SPD
    with pytest.raises(MetricError):
        metric_for("so3", 0.0)


def test_u_defining_identity_all_groups():
    # 2 <U(ei, ej), ek> = <ei, [ek, ej]> + <[ek, ei], ej> at every triple
    for name in GROUP_NAMES:
        for lam in (0.5, 1.0, 2.0):
            metric = metric_for(name, lam)
            u = u_from_metric(metric).coeffs
            c = structure_constants(metric.group)
            g = metric.gram
            lhs = 2.0 * np.einsum("mij,mk->kij", u, g)
            rhs = np.einsum("im,mkj->kij", g, c) + np.einsum("mki,mj->kij", c, g)
            assert np.max(np.abs(lhs - rhs)) < 1e-10


def test_u_is_symmetric():
    for name in GROUP_NAMES:
        u = u_from_metric(metric_for(name, 1.3)).coeffs
        assert np.max(np.abs(u - np.swapaxes(u, 1, 2))) < 1e-10


def test_u_biinvariant_so3_vanishes():
    assert np.max(np.abs(u_from_metric(metric_for("so3", 1.0)).coeffs)) < 1e-12


def test_levi_civita_decomposition():
    for name in GROUP_NAMES:
        metric = metric_for(name, 0.7)
        alpha = alpha_levi_civita(metric)
        u = u_from_metric(metric)
        # torsion-free: antisymmetric part is half the bracket
        anti = alpha.antisymmetric_part()
        assert np.max(np.abs(anti - 0.5 * structure_constants(metric.group))) < 1e-12
        # symmetric part is U
        assert np.max(np.abs(alpha.symmetric_part() - u.coeffs)) < 1e-10


def test_levi_civita_metric_compatibility():
    # parallel metric in left trivialization: for left-invariant fields,
    # <alpha(C,A), B> + <A, alpha(C,B)> = 0 at every basis triple
    for name in GROUP_NAMES:
        metric = metric_for(name, 1.4)
        alpha = alpha_levi_civita(metric).coeffs
        g = metric.gram
        total = np.einsum("mca,mb->cab", alpha, g) + np.einsum("am,mcb->cab", g, alpha)
        assert np.max(np.abs(total)) < 1e-9


def test_biinvariant_alpha():
    spec = get_group("so3")
    alpha = alpha_biinvariant(spec)
    e1, e2, _ = np.eye(3)
    assert np.allclose(bilinear(alpha.coeffs, e1, e2), [0, 0, 0.5], atol=1e-14)
    assert alpha.is_quadratic_free()
    assert np.max(np.abs(alpha.symmetric_part())) == 0.0
    for _ in range(100):
        v = RNG.standard_normal(3)
        assert np.max(np.abs(bilinear(alpha.coeffs, v, v))) < 1e-15
    a = RNG.standard_normal(3)
    b = RNG.standard_normal(3)
    assert np.allclose(
        bilinear(alpha.coeffs, a, b), -bilinear(alpha.coeffs, b, a), atol=1e-14
    )


def test_eval_alpha_zero_and_linearity():
    spec = get_group("se3")
    alpha = alpha_levi_civita(metric_for("se3", 1.0))
    zero = np.zeros(spec.algebra_dim)
    b = RNG.standard_normal(6)
    assert np.max(np.abs(bilinear(alpha.coeffs, zero, b))) == 0.0
    a = RNG.standard_normal(6)
    assert np.allclose(
        bilinear(alpha.coeffs, 2.0 * a, b),
        2.0 * bilinear(alpha.coeffs, a, b),
        atol=1e-12,
    )


def test_se3_cross_product_diagonal():
    # U(L, L) with rotation part x, translation part y is x cross y
    u = closed_form_u("se3", 1.0)
    ell = np.zeros(6)
    ell[0] = 1.0  # x = (1, 0, 0)
    ell[4] = 1.0  # y = (0, 1, 0)
    diag = bilinear(u.coeffs, ell, ell)
    assert np.allclose(diag, [0, 0, 0, 0, 0, 1.0], atol=1e-14)


def test_se3_closed_form_matches_oracle_for_all_lambda():
    for lam in (0.5, 1.0, 2.0):
        oracle = u_from_metric(metric_for("se3", lam)).coeffs
        assert np.max(np.abs(closed_form_u("se3", lam).coeffs - oracle)) < 1e-10


def test_se2_closed_form_values():
    u = closed_form_u("se2", 1.0)
    # pure rotation coefficient: vanishing translation part gives zero
    assert np.max(np.abs(bilinear(u.coeffs, np.array([1.0, 0, 0]), np.array([1.0, 0, 0])))) == 0.0
    # a = a1 = 1: U(L, L) = a(-a2 e1 + a1 e2) = e2
    ell = np.array([1.0, 1.0, 0.0])
    assert np.allclose(bilinear(u.coeffs, ell, ell), [0.0, 0.0, 1.0], atol=1e-14)
    oracle = u_from_metric(metric_for("se2", 1.0)).coeffs
    assert np.max(np.abs(u.coeffs - oracle)) < 1e-10
    lc = alpha_levi_civita(metric_for("se2", 1.0))
    assert np.allclose(
        bilinear(lc.coeffs, ell, ell), bilinear(u.coeffs, ell, ell), atol=1e-12
    )


def test_sl2r_hand_solved_values():
    # direct solve of the 3x3 Gram system: U(E+, E+) = 2 lam^2 H
    for lam in (0.5, 1.0, 2.0):
        u = u_from_metric(metric_for("sl2r", lam)).coeffs
        expected = np.zeros(3)
        expected[0] = 2.0 * lam**2
        assert np.allclose(u[:, 1, 1], expected, atol=1e-12)
    # at lam = 1 the printed coefficient 2/lam^2 agrees with the solve
    printed = closed_form_u("sl2r", 1.0).coeffs
    oracle = u_from_metric(metric_for("sl2r", 1.0)).coeffs
    assert np.max(np.abs(printed - oracle)) < 1e-12


def test_n3_oracle_diagonal_and_variant_conflicts():
    lam = 1.0
    oracle = u_from_metric(metric_for("n3", lam))
    # hand-derived: U(L, L) = lam^2 b c X - a c Y for L = aX + bY + cZ
    ell = np.array([0.0, 1.0, 1.0])  # b = c = 1, a = 0
    assert np.allclose(bilinear(oracle.coeffs, ell, ell), [lam**2, 0.0, 0.0], atol=1e-12)
    ell = np.array([1.0, 0.0, 1.0])  # a = c = 1, b = 0
    assert np.allclose(bilinear(oracle.coeffs, ell, ell), [0.0, -1.0, 0.0], atol=1e-12)
    # the printed u-display agrees on X but not on Y; the alternative
    # display flips the X sign; both are reported, neither patched
    variants = closed_form_u_variants("n3", lam)
    u_display = variants["u-display"]
    assert np.allclose(
        bilinear(u_display.coeffs, np.array([0.0, 1, 1]), np.array([0.0, 1, 1])),
        [lam**2, 0.0, 0.0], atol=1e-14,
    )
    comp_display = variants["compensator-display"]
    assert np.max(np.abs(u_display.coeffs[0] + comp_display.coeffs[0])) >= 0.0
    assert np.max(np.abs(u_display.coeffs - oracle.coeffs)) > 1e-3
    assert np.max(np.abs(comp_display.coeffs - oracle.coeffs)) > 1e-3


def test_e11_literal_matches_oracle_euclidean_reading_does_not():
    for lam in (0.5, 1.0, 2.0):
        oracle = u_from_metric(metric_for("e11", lam)).coeffs
        variants = closed_form_u_variants("e11", lam)
        assert np.max(np.abs(variants["pseudo-norm-as-printed"].coeffs - oracle)) < 1e-12
        assert np.max(np.abs(variants["euclidean-norm-reading"].coeffs - oracle)) > 1e-3


def test_closed_form_unsupported_group():
    with pytest.raises(UnsupportedGroupError):
        closed_form_u("so3", 1.0)


def test_regression_report_flags():
    report = regress_closed_forms()
    assert report.max_diff("se3") < 1e-10
    assert report.max_diff("se2") < 1e-10
    flagged = {(r.group, r.variant) for r in report.flagged_rows}
    assert ("n3", "u-display") in flagged
    assert ("n3", "compensator-display") in flagged
    assert ("e11", "euclidean-norm-reading") in flagged
    assert ("e11", "pseudo-norm-as-printed") not in flagged
    # sl2r printed form only matches at lam = 1
    sl2r_lam1 = report.max_diff("sl2r", lam=1.0)
    assert sl2r_lam1 < 1e-10
    assert report.max_diff("sl2r", lam=2.0) > 1e-3


def test_regression_flags_a_nan_table():
    def nan_se3(name, lam):
        variants = closed_form_u_variants(name, lam)
        if name != "se3":
            return variants
        return {label: dataclasses.replace(conn, coeffs=np.full_like(conn.coeffs, np.nan))
                for label, conn in variants.items()}

    report = regress_closed_forms(closed_form_provider=nan_se3)
    se3_rows = [r for r in report.rows if r.group == "se3"]
    assert len(se3_rows) == 3
    assert all(r.flagged and math.isnan(r.max_abs_diff) for r in se3_rows)
    assert math.isnan(report.max_diff("se3"))
    assert report.max_diff("se2") < 1e-10


def test_regression_max_diff_propagates_nan():
    rows = [RegressionRow("se3", lam, "as-printed", diff, (0, 0, 0), False)
            for lam, diff in ((0.5, 1.0), (1.0, float("nan")))]
    report = RegressionReport(rows=rows)
    assert math.isnan(report.max_diff("se3"))
    assert report.max_diff("se3", lam=0.5) == 1.0
    assert report.max_diff("so3") is None


def test_connection_function_validation():
    spec = get_group("so3")
    with pytest.raises(MetricError):
        ConnectionFunction(spec, np.zeros((2, 3, 3)))


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from(NONCOMPACT))
def test_closed_forms_are_symmetric_bilinears(seed, name):
    rng = np.random.default_rng(seed)
    for conn in closed_form_u_variants(name, 1.0).values():
        a = rng.standard_normal(conn.group.algebra_dim)
        b = rng.standard_normal(conn.group.algebra_dim)
        ab = bilinear(conn.coeffs, a, b)
        ba = bilinear(conn.coeffs, b, a)
        assert np.max(np.abs(ab - ba)) < 1e-12


# Metric scales of the library digest: the regression's and four off-grid ones.
DIGEST_LAMBDAS = (0.5, 0.7, 1.0, 1.3, 1.4, 2.0, 3.7)


def _library_digest():
    """sha256 over every catalog table: per group the basis, projector and
    structure constants; per group and scale the metric Gram, U, alpha and
    each closed-form U table with its label; and the regression report."""
    h = hashlib.sha256()

    def add(*items):
        for item in items:
            if isinstance(item, np.ndarray):
                h.update(repr(item.shape).encode())
                item = np.ascontiguousarray(item).tobytes()
            h.update(item if isinstance(item, bytes) else repr(item).encode())

    for name in GROUP_NAMES:
        spec = get_group(name)
        add(name, spec.basis, spec._projector, structure_constants(spec))
        for lam in DIGEST_LAMBDAS:
            metric = metric_for(name, lam)
            u, alpha = u_from_metric(metric), alpha_levi_civita(metric)
            add(lam, metric.gram, u.label, u.coeffs, alpha.label, alpha.coeffs)
            try:
                variants = closed_form_u_variants(name, lam)
            except UnsupportedGroupError as exc:
                add(str(exc))
                continue
            for label, conn in variants.items():
                add(label, conn.label, conn.coeffs)
    add(regress_closed_forms())
    return h.hexdigest()


def test_catalog_tables_are_pinned():
    """The bits of every basis, metric and U table, and the regression
    report, taken with numpy 2.4.6: the contract that a refactor of the
    catalog tables must keep."""
    assert _library_digest() == (
        "7978772b381782c0635aa09ef0d751370829139afe32a05363cec2203bba8f26")
