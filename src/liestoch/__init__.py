"""Stochastic calculus on matrix Lie groups.

Drive semimartingales in the Lie algebra of a catalog matrix group,
develop them into the group through Stratonovich or connection-aware Ito
exponentials, take stochastic logarithms back, and verify the martingale
and Campbell-Hausdorff structure by seeded Monte Carlo simulation.
"""

from .connections import (
    ConnectionFunction,
    MetricSpec,
    alpha_biinvariant,
    alpha_levi_civita,
    closed_form_u,
    closed_form_u_variants,
    metric_for,
    regress_closed_forms,
    u_from_metric,
)
from .explog import (
    ito_exponential,
    ito_logarithm,
    strat_exponential,
    strat_logarithm,
)
from .groups import (
    GROUP_NAMES,
    GroupSpec,
    get_group,
    membership_defect,
    structure_constants,
)
from .linalg import Tolerance, frobenius_dist, mat_exp, mat_log, solve_linear
from .paths import (
    Ensemble,
    TimeGrid,
    brownian_ensemble,
    null_qv_check,
    quadratic_covariation,
)

__version__ = "0.1.0"
