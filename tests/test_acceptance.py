"""Verification battery: one test per criterion, pinned seeds throughout.

Each test prints its pass/fail line so a bare ``pytest -s tests/test_acceptance.py``
doubles as the human-readable acceptance report. The same functions back the
``liestoch regress`` subcommand.
"""

import dataclasses

import numpy as np
import pytest

from liestoch import acceptance, explog, groups
from liestoch.connections import alpha_levi_civita, closed_form_u_variants, metric_for


def _run(fn, *args):
    result = fn(*args)
    print(result.line(), result.details)
    assert result.passed, result.details
    return result


def test_criteria_keep_their_names():
    # the timing wrapper keeps each criterion's name, which
    # scripts/bench_pairs.py's battery metrics are named by
    for fn in acceptance.ALL_CRITERIA:
        assert fn.__name__.startswith("criterion_")
        assert getattr(acceptance, fn.__name__) is fn


def test_criterion_1_u_oracle_regression():
    result = _run(acceptance.criterion_u_regression)
    assert result.details["se3_max_abs_diff"] < 1e-10
    assert result.details["e11_literal_matches_oracle"]
    assert result.seconds < 1.0


def test_criterion_1_tampered_table_is_caught(monkeypatch):
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

    monkeypatch.setattr("liestoch.connections.closed_form_u_variants", tampered)
    result = acceptance.criterion_u_regression()
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
    so3 = groups.get_group("so3")
    transposed = lambda e: np.swapaxes(so3.adjoint(e), -1, -2)  # noqa: E731  Ad(R^-1)
    mutant = dataclasses.replace(so3, adjoint=transposed)
    build = groups._build_group
    monkeypatch.setattr(groups, "_build_group", lambda key: mutant if key == "so3" else build(key))
    result = acceptance.criterion_campbell()
    print(result.line(), result.details)
    assert not result.passed


def test_criterion_5_martingale_positive_control():
    result = _run(acceptance.criterion_martingale_positive)
    assert result.details["false_failures"] <= 1
    assert result.seconds < 300.0


_ITO_STEPS = explog._ito_steps


# Mutants of the injected Ito step dM - 1/2 alpha(dM, dM), each with the max
# |z| it reads on criterion 5's first master seed. Dropped, the Ito
# development is the Stratonovich one.
@pytest.mark.parametrize("mutant", [
    lambda m, correction: np.diff(m.values, axis=-2),                      # dropped: 19.5
    lambda m, correction: _ITO_STEPS(m, lambda v: 2.0 * correction(v)),    # doubled: 19.9
    lambda m, correction: _ITO_STEPS(m, lambda v: -correction(v)),         # flipped: 37.0
], ids=["dropped", "doubled", "flipped"])
def test_criterion_5_catches_a_wrong_ito_correction(mutant, monkeypatch):
    monkeypatch.setattr(explog, "_ito_steps", mutant)
    rep = acceptance._positive_control_verdict(acceptance.SEEDS["martingale"])
    assert not rep.passed and rep.max_abs_z > 10.0


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


def test_criterion_9_metric_brownian_law():
    result = _run(acceptance.criterion_metric_brownian_law)
    assert result.details["cells"] == 362
    assert max(result.details["max_abs_z"].values()) <= result.details["z_star"]
    assert result.details["max_constant_cell_error"] <= 1e-12
    assert result.seconds < 30.0


def test_criterion_9_roundoff_cells_take_the_constant_cell_check(monkeypatch):
    # e11's X_00 X_11 is e^h e^-h = 1 in law; on replicas it is off 1 by
    # roundoff of sd ~1e-15, and at seed 102 its mean rounds 2.2e-16 low,
    # which read as |z| ~15 on correct code when the cell took a z-score
    monkeypatch.setitem(acceptance.SEEDS, "metric_bm", 102)
    monkeypatch.setattr(acceptance, "GROUP_NAMES", ("e11",))
    result = _run(acceptance.criterion_metric_brownian_law)
    assert result.details["max_constant_cell_error"] <= 1e-12


@pytest.mark.parametrize("lam", [0.5, 2.0])
@pytest.mark.parametrize("name", groups.GROUP_NAMES)
def test_criterion_9_law_has_no_drift_term(name, lam):
    # every catalog group is unimodular, so sum_k U(f_k, f_k) = 0 over a
    # G-orthonormal basis f: the metric Brownian motion's generator keeps
    # only its diffusion term
    metric = metric_for(name, lam)
    alpha = alpha_levi_civita(metric)
    contraction = np.einsum("kij,ij->k", alpha.symmetric_part(), np.linalg.inv(metric.gram))
    assert np.all(contraction == 0.0)


def test_criterion_9_scaled_se3_basis_coordinate_is_caught(monkeypatch):
    # the develop reads se3's E1 coordinate 5% too large: every step stays
    # on the group, so only the law of X_T can tell
    to_matrix = explog.to_matrix_coords

    def scaled(spec, coords):
        if spec.name == "se3":
            coords = coords * np.array([1.05, 1.0, 1.0, 1.0, 1.0, 1.0])
        return to_matrix(spec, coords)

    monkeypatch.setattr(explog, "to_matrix_coords", scaled)
    result = acceptance.criterion_metric_brownian_law()
    print(result.line(), result.details)
    assert not result.passed
    assert result.details["max_abs_z"]["se3"] > result.details["z_star"]
