"""Readback invariant: logging a solver path's values recovers its step logs.

Solver-built paths carry the step vectors they were developed from, so
``mc_increments`` never reads them back. These tests read them back anyway,
through ``group_inverse``, ``mat_log`` and the basis projection, so an error
in the exponential, the logarithm or the basis of any group shows up here.
"""

import numpy as np
import pytest

from liestoch import groups
from liestoch.calculus import increments_from_values
from liestoch.connections import alpha_levi_civita, metric_for
from liestoch.explog import ito_exponential
from liestoch.groups import GROUP_NAMES, get_group
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
