"""Moment gates and CLT diagnostics for case-deletion importance sampling.

The package decides analytically how many moments the case-deletion
importance-sampling weight has for Bayesian linear, Michaelis-Menten, and
logistic regression models, gates influence-measure estimators by CLT
validity, computes the gated estimates from posterior draws, and verifies
the analytic verdicts empirically with tail-index and variance-scaling
diagnostics.
"""

from .core_model import (
    LogitData,
    MMData,
    MomentIndexReport,
    MomentVerdict,
    RegressionData,
    VerdictTag,
    load_csv,
)
from .linear_gate import LinearPrior

__all__ = [
    "LinearPrior",
    "LogitData",
    "MMData",
    "MomentIndexReport",
    "MomentVerdict",
    "RegressionData",
    "VerdictTag",
    "load_csv",
]

__version__ = "0.1.0"
