"""One record per model family: what differs between the linear,
Michaelis-Menten (MM) and logit models once data and prior are loaded.

The case-deleted weight is the inverse of the deleted cases' likelihood:
log w = -loglik - I * log_weight_constant for I deleted cases. The constant
is dropped because every estimate is invariant to a constant shift of the
log weights. A family's prior is a `LinearPrior` (linear), an `MMPrior` (MM)
or the Laplace rate epsilon (logit). The records reach the samplers and gate
kernels through this module's global names, so that a wrapper installed at
those names sees every call.
"""

import math
from dataclasses import dataclass
from itertools import combinations
from typing import Callable

import numpy as np

from .core_model import LogitData, MMData, RegressionData, deletion_set
from .linear_gate import indices_and_verdicts as linear_indices_and_verdicts
from .linear_gate import moment_index_linear
from .logit_gate import indices_and_verdicts as logit_indices_and_verdicts
from .logit_gate import moment_index_logit
from .mm_gate import KappaPriorSpec, kappa_profile, moment_index_mm, theorem41_verdict
from .prior_tails import ThetaPriorSpec
from .samplers import sample_linear_conjugate, sample_linear_noninformative, sample_logit, sample_mm

_HALF_LOG_2PI = 0.5 * math.log(2.0 * math.pi)


@dataclass(frozen=True)
class MMPrior:
    """The kappa prior the MM sampler draws under, and the size of the
    kappa grid on which the moment index scans the Thm 4.1 conditions."""

    kappa: KappaPriorSpec
    grid_size: int


@dataclass(frozen=True)
class Family:
    """The per-model pieces:

    - columns(draw width) -> draw column names; draw_width(data) -> int;
    - log_likelihood(draws, data, 0-based deleted indices) -> one value per draw;
    - sample(data, prior, SamplerConfig) -> SampleResult;
    - moment_index(data, nonempty DeletionSet, prior) -> MomentIndexReport;
    - gate_rows(data, prior, sets, r_values) -> (indices, r, verdict, report)
      per set and r; `sets` is a list of index tuples of one size I >= 1, or
      the int I for every subset of size I in lexicographic order.
    """

    name: str
    data_type: type
    columns: Callable
    draw_width: Callable
    log_likelihood: Callable
    log_weight_constant: float
    sample: Callable
    moment_index: Callable
    gate_rows: Callable

    def log_weight(self, log_likelihood, cardinality: int):
        """Log deletion weight from the deleted cases' log-likelihood."""
        return -log_likelihood - cardinality * self.log_weight_constant


def family(model: str) -> Family:
    try:
        return FAMILIES[model]
    except KeyError:
        raise ValueError(f"unknown model tag {model!r}") from None


def _gaussian_log_likelihood(y, mean, sigma2):
    """Normal log-likelihood of responses y (I,) at means (M, I), variances (M,)."""
    if np.any(sigma2 <= 0):
        raise ValueError("sigma2 must be positive")
    res = y[None, :] - mean
    return (-0.5 * y.size * np.log(2.0 * np.pi * sigma2)
            - np.sum(res * res, axis=1) / (2.0 * sigma2))


def _linear_log_likelihood(draws, data, idx):
    k = data.k
    mean = draws[:, :k] @ data.design[idx].T
    return _gaussian_log_likelihood(data.response[idx], mean, draws[:, k])


def _mm_log_likelihood(draws, data, idx):
    m, sigma2, kappa = draws[:, 0], draws[:, 1], draws[:, 2]
    c = data.concentration[idx]
    x = c[None, :] / (kappa[:, None] + c[None, :])
    return _gaussian_log_likelihood(data.velocity[idx], m[:, None] * x, sigma2)


def _logit_log_likelihood(draws, data, idx):
    z = draws @ data.design[idx].T
    return np.sum(z * data.outcome[idx][None, :] - np.logaddexp(0.0, z), axis=1)


def _sample_linear(data, prior, config):
    if prior.is_noninformative:
        return sample_linear_noninformative(data, config)
    return sample_linear_conjugate(data, config, prior)


def _sample_logit(data, epsilon, config):
    return sample_logit(data, config, ThetaPriorSpec.laplace(np.zeros(data.k), 1.0 / epsilon))


def _linear_gate_rows(data, prior, sets, r_values):
    """One spectral pass gives the cut-offs and the verdicts of every set and r."""
    result, verdicts = linear_indices_and_verdicts(data, sets, r_values, prior)
    for i, per_r in enumerate(verdicts):
        rep = result.report(i)
        for r, verdict in zip(r_values, per_r):
            yield result.subsets[i], r, verdict, rep


def _each_set(sets, n: int):
    return combinations(range(n), sets) if isinstance(sets, int) else sets


def _mm_gate_rows(data, prior, sets, r_values):
    """One kappa profile per set serves its index and every r."""
    for indices in _each_set(sets, data.n):
        profile = kappa_profile(data, deletion_set(indices, data.n), prior.grid_size)
        rep = profile.moment_index()
        for r in r_values:
            yield indices, r, theorem41_verdict(data, profile.dels, r, profile.scan(r)), rep


def _logit_gate_rows(data, epsilon, sets, r_values):
    """One vertex table gives the index and the verdicts of every set and r."""
    sets = list(_each_set(sets, data.n))
    reports, verdicts = logit_indices_and_verdicts(data, sets, r_values, epsilon)
    for indices, rep, per_r in zip(sets, reports, verdicts):
        for r, verdict in zip(r_values, per_r):
            yield indices, r, verdict, rep


FAMILIES = {
    "linear": Family(
        "linear", RegressionData,
        columns=lambda d: [f"theta_{j}" for j in range(d - 1)] + ["sigma2"],
        draw_width=lambda data: data.k + 1,
        log_likelihood=_linear_log_likelihood,
        log_weight_constant=_HALF_LOG_2PI,
        sample=_sample_linear,
        moment_index=lambda data, dels, prior: moment_index_linear(data, dels, prior),
        gate_rows=_linear_gate_rows,
    ),
    "mm": Family(
        "mm", MMData,
        columns=lambda d: ["m", "sigma2", "kappa"],
        draw_width=lambda data: 3,
        log_likelihood=_mm_log_likelihood,
        log_weight_constant=_HALF_LOG_2PI,
        sample=lambda data, prior, config: sample_mm(data, config, prior.kappa),
        moment_index=lambda data, dels, prior: moment_index_mm(data, dels, prior.grid_size),
        gate_rows=_mm_gate_rows,
    ),
    "logit": Family(
        "logit", LogitData,
        columns=lambda d: [f"beta_{j}" for j in range(d)],
        draw_width=lambda data: data.k,
        log_likelihood=_logit_log_likelihood,
        log_weight_constant=0.0,
        sample=_sample_logit,
        moment_index=lambda data, dels, epsilon: moment_index_logit(data, dels, epsilon),
        gate_rows=_logit_gate_rows,
    ),
}
