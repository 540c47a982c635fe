#!/usr/bin/env python3
"""Positive and negative martingale controls on se3, side by side.

Positive control: the Ito exponential of a flat Brownian driver is a
martingale for the Levi-Civita connection, so its compensated logarithm
shows no drift. Negative control: a Stratonovich exponential driven with a
covariance that couples rotation and translation components acquires a
compensator drift of rate 0.8 along e3, which the drift test flags with
very large z scores.

Exits 1 when either control gives the wrong verdict.
"""

import argparse
import sys

import numpy as np

from liestoch import explog, martingale
from liestoch.acceptance import NEGATIVE_CONTROL_COV
from liestoch.connections import alpha_levi_civita, metric_for, u_from_metric
from liestoch.groups import get_group
from liestoch.paths import TimeGrid, brownian_ensemble


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--replicas", type=int, default=10_000)
    parser.add_argument("--steps", type=int, default=100)
    parser.add_argument("--seed", type=int, default=16180339)
    args = parser.parse_args()

    spec = get_group("se3")
    metric = metric_for("se3", 1.0)
    alpha = alpha_levi_civita(metric)
    grid = TimeGrid(1.0, args.steps)
    buckets = max(b for b in range(1, 21) if args.steps % b == 0)

    ens = brownian_ensemble(spec, grid, args.seed, args.replicas)
    pos = martingale.martingale_verdict(
        explog.ito_exponential(ens, alpha), alpha, buckets=buckets
    )
    print(f"positive control: {'pass' if pos.passed else 'FAIL'} "
          f"(max |z| = {pos.max_abs_z:.2f})")

    u = u_from_metric(metric).coeffs
    drift = 0.5 * np.einsum("kij,ij->k", u, NEGATIVE_CONTROL_COV)
    print(f"negative-control compensator drift rate: {np.round(drift, 6)}")
    ens = brownian_ensemble(spec, grid, args.seed + 1, args.replicas,
                            covariance=NEGATIVE_CONTROL_COV)
    neg = martingale.martingale_verdict(
        explog.strat_exponential(ens), alpha, buckets=buckets
    )
    print(f"negative control: {'fail (expected)' if not neg.passed else 'PASSED (unexpected!)'} "
          f"(max |z| = {neg.max_abs_z:.2f})")
    return 0 if pos.passed and not neg.passed else 1


if __name__ == "__main__":
    sys.exit(main())
