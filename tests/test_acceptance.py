"""Verification battery: one test per criterion, pinned seeds throughout.

Each test prints its pass/fail line so a bare ``pytest -s tests/test_acceptance.py``
doubles as the human-readable acceptance report. The same functions back the
``liestoch regress`` subcommand.
"""

import dataclasses

import numpy as np

from liestoch import acceptance, groups
from liestoch.connections import closed_form_u_variants


def _run(fn, *args):
    result = fn(*args)
    print(result.line(), result.details)
    assert result.passed, result.details
    return result


def test_criterion_1_u_oracle_regression():
    result = _run(acceptance.criterion_u_regression)
    assert result.details["se3_max_abs_diff"] < 1e-10
    assert result.details["e11_literal_matches_oracle"]
    assert result.seconds < 1.0


def test_criterion_1_tampered_table_is_caught():
    def tampered(name, lam):
        variants = closed_form_u_variants(name, lam)
        if name == "se3":
            broken = {}
            for label, conn in variants.items():
                coeffs = conn.coeffs.copy()
                coeffs[5, 0, 4] += 1e-6  # corrupt one cross-product entry
                broken[label] = type(conn)(conn.group, coeffs, label=conn.label)
            return broken
        return variants

    result = acceptance.criterion_u_regression(tampered)
    print(result.line())
    assert not result.passed


def test_criterion_2_roundtrip():
    result = _run(acceptance.criterion_roundtrip)
    means = result.details["mean_terminal_error"]
    assert means[0] > means[1] > means[2]
    assert means[2] < 0.05
    assert result.seconds < 30.0


def test_criterion_3_biinvariant_degeneration():
    result = _run(acceptance.criterion_biinvariant_degeneration)
    assert result.seconds < 5.0


def test_criterion_4_campbell_hausdorff():
    result = _run(acceptance.criterion_campbell)
    assert result.details["exp_identity_mean"][-1] < 0.05
    assert result.seconds < 120.0


def test_criterion_4_transposed_so3_adjoint_is_caught(monkeypatch):
    kernels = groups._KERNELS["so3"]
    transposed = lambda g: np.swapaxes(kernels.adjoint(g), -1, -2)  # noqa: E731  Ad(R^-1)
    monkeypatch.setitem(groups._KERNELS, "so3", dataclasses.replace(kernels, adjoint=transposed))
    result = acceptance.criterion_campbell()
    print(result.line(), result.details)
    assert not result.passed


def test_criterion_5_martingale_positive_control():
    result = _run(acceptance.criterion_martingale_positive)
    assert result.details["false_failures"] <= 1
    assert result.seconds < 300.0


def test_criterion_6_martingale_negative_control():
    result = _run(acceptance.criterion_martingale_negative)
    assert result.details["max_abs_z"] > 10.0
    drift = np.array(result.details["compensator_drift_rate"])
    assert np.linalg.norm(drift) > 0.5
    assert result.seconds < 300.0


def test_criterion_7_product_of_martingales():
    result = _run(acceptance.criterion_product_of_martingales)
    assert result.seconds < 300.0


def test_criterion_8_null_qv_preservation():
    result = _run(acceptance.criterion_null_qv_preservation)
    assert result.details["seeds_passing_both_levels"] >= 19
    assert result.seconds < 120.0


def test_criterion_9_trace_condition():
    result = _run(acceptance.criterion_trace_condition)
    for name, ratio in result.details["terminal_ratio"].items():
        assert abs(ratio - 1.0) <= 0.05, name
    assert result.seconds < 60.0
