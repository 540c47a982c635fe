"""One-shot verification suite with pinned seeds.

Each criterion function runs one end-to-end check at its pinned
tolerance and returns a CriterionResult; ``run_all`` executes the whole
battery. The CLI ``regress`` subcommand and the test suite both call into
this module, so the gate is identical everywhere.

Seeds are fixed constants: every criterion is a deterministic computation
whose pass/fail outcome is reproducible bit for bit.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from . import campbell, explog, martingale
from .connections import (
    alpha_biinvariant,
    alpha_levi_civita,
    closed_form_u_variants,
    metric_for,
    regress_closed_forms,
    u_from_metric,
)
from .groups import GROUP_NAMES, get_group
from .paths import TimeGrid, brownian_ensemble, normal_quantile, null_qv_check

SEEDS = {
    "roundtrip": 20260810,
    "bitwise": 31415926,
    "campbell": 27182818,
    "martingale": 16180339,
    "negative": 14142135,
    "product_x": 17320508,
    "product_y": 22360679,
    "nullqv": 12345678,
    "metric_bm": 100,
}

# Correlated SE(3) covariance whose compensator drift is 0.8 along e3:
# couples (E1, e2) at +0.8 and (E2, e1) at -0.8 on a unit diagonal.
NEGATIVE_CONTROL_COV = np.eye(6)
NEGATIVE_CONTROL_COV[0, 4] = NEGATIVE_CONTROL_COV[4, 0] = 0.8
NEGATIVE_CONTROL_COV[1, 3] = NEGATIVE_CONTROL_COV[3, 1] = -0.8
NEGATIVE_CONTROL_COV.setflags(write=False)


@dataclass
class CriterionResult:
    name: str
    passed: bool
    details: dict = field(default_factory=dict)
    seconds: float = 0.0

    def line(self):
        status = "PASS" if self.passed else "FAIL"
        return f"[{status}] {self.name} ({self.seconds:.1f}s)"


def _timed(fn):
    def wrapper(*args, **kwargs):
        t0 = time.perf_counter()
        result = fn(*args, **kwargs)
        result.seconds = time.perf_counter() - t0
        return result

    return wrapper


@_timed
def criterion_u_regression(closed_form_provider=closed_form_u_variants) -> CriterionResult:
    """U tables: metric solve agrees with the cross-product form on se3 for
    every lambda in {0.5, 1, 2}; the known n3 and e11 conflicts are flagged
    in the report rather than hidden."""
    report = regress_closed_forms(closed_form_provider=closed_form_provider)
    se3_max = report.max_diff("se3")
    flagged = {(r.group, r.variant) for r in report.flagged_rows}
    n3_flagged = any(g == "n3" for g, _ in flagged)
    e11_flagged = ("e11", "euclidean-norm-reading") in flagged
    e11_literal_clean = report.max_diff("e11", variant="pseudo-norm-as-printed") <= report.tol
    passed = se3_max < 1e-10 and n3_flagged and e11_flagged
    return CriterionResult(
        name="u-oracle regression (se3 agreement, n3/e11 flags)",
        passed=bool(passed),
        details={
            "se3_max_abs_diff": se3_max,
            "flagged_variants": sorted(f"{g}:{v}" for g, v in flagged),
            "e11_literal_matches_oracle": bool(e11_literal_clean),
        },
    )


@_timed
def criterion_roundtrip() -> CriterionResult:
    """log(exp(M)) - M on se3 Levi-Civita: terminal error decreasing in dt
    and below 0.05 at dt = 1e-3."""
    spec = get_group("se3")
    alpha = alpha_levi_civita(metric_for("se3", 1.0))
    means = []
    for dt in (4e-3, 2e-3, 1e-3):
        steps = int(round(1.0 / dt))
        ens = brownian_ensemble(spec, TimeGrid(1.0, steps), SEEDS["roundtrip"], 64)
        means.append(float(np.mean(explog.roundtrip_errors(ens, alpha))))
    monotone = means[0] > means[1] > means[2]
    passed = monotone and means[-1] < 0.05
    return CriterionResult(
        name="ito round-trip convergence (se3 levi-civita)",
        passed=bool(passed),
        details={"dt_ladder": [4e-3, 2e-3, 1e-3], "mean_terminal_error": means},
    )


@_timed
def criterion_biinvariant_degeneration() -> CriterionResult:
    """With alpha = 1/2 [.,.] the Ito and Stratonovich operators coincide
    bit for bit on pinned Brownian paths."""
    spec = get_group("so3")
    alpha = alpha_biinvariant(spec)
    ens = brownian_ensemble(spec, TimeGrid(1.0, 500), SEEDS["bitwise"], 16)
    strat_x = explog.strat_exponential(ens)
    ito_x = explog.ito_exponential(ens, alpha)
    exp_equal = np.array_equal(strat_x.values, ito_x.values)
    strat_l = explog.strat_logarithm(strat_x)
    ito_l = explog.ito_logarithm(strat_x, alpha)
    log_equal = np.array_equal(strat_l.values, ito_l.values)
    return CriterionResult(
        name="bi-invariant degeneration (bitwise ito == strat)",
        passed=bool(exp_equal and log_equal),
        details={"exponentials_equal": bool(exp_equal), "logarithms_equal": bool(log_equal)},
    )


@_timed
def criterion_campbell() -> CriterionResult:
    """Campbell-Hausdorff ladders on so3: exponential identity below 0.05
    at dt = 1e-3 and monotone; logarithm identity monotone."""
    spec = get_group("so3")
    alpha = alpha_biinvariant(spec)
    exp_rep = campbell.ch_ladder(
        spec, alpha, dts=(4e-3, 2e-3, 1e-3), replicas=256, base_seed=SEEDS["campbell"]
    )
    log_rep = campbell.log_product_ladder(
        spec, alpha, dts=(4e-3, 2e-3, 1e-3), replicas=256, base_seed=SEEDS["campbell"] + 100
    )
    passed = (
        exp_rep.mean_terminal[-1] < 0.05
        and exp_rep.monotone_within_se()
        and log_rep.monotone_within_se()
    )
    return CriterionResult(
        name="campbell-hausdorff ladders (so3 bi-invariant)",
        passed=bool(passed),
        details={
            "exp_identity_mean": list(exp_rep.mean_terminal),
            "exp_identity_rule": exp_rep.rule,
            "log_identity_mean": list(log_rep.mean_terminal),
            "log_identity_rule": log_rep.rule,
        },
    )


def _positive_control_verdict(master_seed):
    spec = get_group("se3")
    alpha = alpha_levi_civita(metric_for("se3", 1.0))
    ens = brownian_ensemble(spec, TimeGrid(1.0, 100), master_seed, 10_000)
    gx = explog.ito_exponential(ens, alpha)
    return martingale.martingale_verdict(gx, alpha)


@_timed
def criterion_martingale_positive() -> CriterionResult:
    """Positive control: developed Brownian ensembles pass the drift
    verdict, with at most one false failure over 20 master seeds.

    This criterion cannot tell Ito development from Stratonovich: at the
    identity driver covariance ``sum_i alpha_sym(e_i, e_i) = 0`` for
    Levi-Civita at lambda = 1 on all six catalog groups, so the Ito
    correction has zero mean. On the first three master seeds
    ``strat_exponential`` passes too, with max |z| 2.35, 2.74 and 2.98
    (``ito_exponential``: 2.36, 2.74, 2.98)."""
    failures = 0
    max_z = 0.0
    for i in range(20):
        rep = _positive_control_verdict(SEEDS["martingale"] + i)
        failures += not rep.passed
        max_z = max(max_z, rep.max_abs_z)
    return CriterionResult(
        name="martingale positive control (se3, 20 master seeds)",
        passed=bool(failures <= 1),
        details={"false_failures": failures, "max_abs_z": max_z},
    )


@_timed
def criterion_martingale_negative() -> CriterionResult:
    """Negative control: correlated rotation/translation covariance gives
    the compensator a nonzero drift; the verdict must fail loudly."""
    spec = get_group("se3")
    metric = metric_for("se3", 1.0)
    alpha = alpha_levi_civita(metric)
    u = u_from_metric(metric).coeffs
    drift_rate = 0.5 * np.einsum("kij,ij->k", u, NEGATIVE_CONTROL_COV)
    ens = brownian_ensemble(
        spec, TimeGrid(1.0, 100), SEEDS["negative"], 10_000,
        covariance=NEGATIVE_CONTROL_COV,
    )
    gx = explog.strat_exponential(ens)
    rep = martingale.martingale_verdict(gx, alpha)
    passed = (
        float(np.linalg.norm(drift_rate)) > 1e-6
        and not rep.passed
        and rep.max_abs_z > 10.0
    )
    return CriterionResult(
        name="martingale negative control (se3, correlated covariance)",
        passed=bool(passed),
        details={
            "compensator_drift_rate": [float(v) for v in drift_rate],
            "verdict_passed": rep.passed,
            "max_abs_z": rep.max_abs_z,
        },
    )


@_timed
def criterion_product_of_martingales() -> CriterionResult:
    """Product of independent so3 martingale ensembles stays a martingale."""
    spec = get_group("so3")
    alpha = alpha_biinvariant(spec)
    grid = TimeGrid(1.0, 200)
    x = explog.ito_exponential(
        brownian_ensemble(spec, grid, SEEDS["product_x"], 10_000), alpha
    )
    y = explog.ito_exponential(
        brownian_ensemble(spec, grid, SEEDS["product_y"], 10_000), alpha
    )
    rep = martingale.martingale_verdict(campbell.product_path(x, y), alpha)
    return CriterionResult(
        name="product of martingales (so3 bi-invariant)",
        passed=bool(rep.passed),
        details={"max_abs_z": rep.max_abs_z, "fraction_within": rep.fraction_within},
    )


@_timed
def criterion_null_qv_preservation() -> CriterionResult:
    """Independent developed Brownian paths keep the null quadratic
    variation property at both the group-coordinate level and after the
    compensated logarithm, in at least 19 of 20 master seeds."""
    spec = get_group("so3")
    alpha = alpha_biinvariant(spec)
    grid = TimeGrid(1.0, 2000)
    both = 0
    for i in range(20):
        # the seed's replicas 0 and 1 are the independent pair
        g = explog.strat_exponential(brownian_ensemble(spec, grid, SEEDS["nullqv"] + i, 2))
        gx, gy = g.coordinates
        lx, ly = explog.ito_logarithm(g, alpha).coordinates
        both += bool(null_qv_check(gx, gy, 0.99).passed and null_qv_check(lx, ly, 0.99).passed)
    return CriterionResult(
        name="null-qv preservation (so3, 20 master seeds)",
        passed=bool(both >= 19),
        details={"seeds_passing_both_levels": both},
    )


def _expm(a):
    """exp(a) by scaling and squaring a 20-term Taylor sum: criterion 9's
    oracle, written apart from ``linalg.mat_exp``."""
    norm = float(np.max(np.sum(np.abs(a), axis=0)))  # the 1-norm
    squarings = max(0, math.frexp(norm)[1] + 1)  # scaled norm below 1/2
    a = a / 2.0**squarings
    out = term = np.eye(len(a))
    for k in range(1, 21):
        term = term @ a / k
        out = out + term
    for _ in range(squarings):
        out = out @ out
    return out


def _second_moment_law(spec, cov, alpha, horizon):
    """``E[X_T (x) X_T]`` for the Ito development X of a Brownian motion of
    covariance C, and the drift ``alpha_sym : C`` it contains.

    X ⊗ X is driven by the K_j = L_j ⊗ I + I ⊗ L_j of the basis matrices
    L_j; its left-invariant generator (M. Liao, *Levy Processes in Lie
    Groups*, 2004) is
    ``A = 1/2 sum_jk C_jk K_j K_k - 1/2 sum_k (alpha_sym : C)_k K_k``, so
    ``E[X_T (x) X_T] = exp(T A)`` up to a bias of first order in dt.
    """
    eye = np.eye(spec.matrix_dim)
    k = np.array([np.kron(m, eye) + np.kron(eye, m) for m in spec.basis])
    drift = np.einsum("kij,ij->k", alpha.symmetric_part(), cov)
    gen = (0.5 * np.einsum("jk,jab,kbc->ac", cov, k, k)
           - 0.5 * np.einsum("k,kab->ab", drift, k))
    return _expm(horizon * gen), drift


@_timed
def criterion_metric_brownian_law() -> CriterionResult:
    """On all six groups, the catalog metric's Brownian motion at lambda = 2
    (covariance C = G^-1), developed by ``ito_exponential`` under the
    Levi-Civita connection, has the second moment of ``_second_moment_law``.

    A cell of ``kron(X_T, X_T)`` with zero sample variance must equal the
    law to 1e-12, and every other cell's |z| must stay within the
    Bonferroni band of family significance 0.01 over all groups' cells.
    Every catalog group is unimodular, so ``alpha_sym : G^-1`` is exactly
    zero; the law keeps the term and reports its largest entry. The second
    moment sees lambda (the first does not: lambda's directions square to
    zero and C is diagonal), the basis, ``mat_exp`` and the product order,
    but not per-step terms of order dt^(3/2).
    """
    grid = TimeGrid(1.0, 100)
    cells, max_z, const_err, max_drift = 0, {}, 0.0, 0.0
    for name in GROUP_NAMES:
        spec, metric = get_group(name), metric_for(name, 2.0)
        cov, alpha = np.linalg.inv(metric.gram), alpha_levi_civita(metric)
        law, drift = _second_moment_law(spec, cov, alpha, grid.horizon)
        ens = brownian_ensemble(spec, grid, SEEDS["metric_bm"], 10_000, covariance=cov)
        xt = explog.ito_exponential(ens, alpha).values[:, -1]
        kron = np.einsum("rab,rcd->racbd", xt, xt).reshape(len(xt), -1)
        sd, diff = kron.std(axis=0, ddof=1), kron.mean(axis=0) - law.reshape(-1)
        const_err = max(const_err, float(np.max(np.abs(diff[sd == 0]), initial=0.0)))
        z = diff[sd > 0] / (sd[sd > 0] / np.sqrt(len(xt)))
        cells += z.size
        max_z[name] = float(np.max(np.abs(z)))
        max_drift = max(max_drift, float(np.max(np.abs(drift))))
    z_star = normal_quantile(1.0 - 0.01 / (2.0 * cells))
    passed = const_err <= 1e-12 and max(max_z.values()) <= z_star
    return CriterionResult(
        name="metric brownian motion second moment (all six groups, lambda = 2)",
        passed=bool(passed),
        details={
            "cells": cells,
            "z_star": z_star,
            "max_abs_z": max_z,
            "max_constant_cell_error": const_err,
            "max_abs_alpha_sym_contraction": max_drift,
        },
    )


ALL_CRITERIA = (
    criterion_u_regression,
    criterion_roundtrip,
    criterion_biinvariant_degeneration,
    criterion_campbell,
    criterion_martingale_positive,
    criterion_martingale_negative,
    criterion_product_of_martingales,
    criterion_null_qv_preservation,
    criterion_metric_brownian_law,
)


def run_all():
    """Run every criterion, printing one pass/fail line each."""
    results = []
    for fn in ALL_CRITERIA:
        result = fn()
        results.append(result)
        print(result.line())
    return results
