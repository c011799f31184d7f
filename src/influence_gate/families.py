"""One record per model family: everything that differs between the linear,
Michaelis-Menten (MM) and logit models, from the config to the report.

The model is chosen once, when the CLI looks up `FAMILIES[cfg["model"]]`;
from then on the record carries it, and no other module decodes the model
name. A record turns a parsed config into the model's inputs in two steps.
`csv_columns(cfg)` checks the config keys the model needs and names the CSV
columns it reads, so every config error comes before the data file is read.
`inputs(cfg, columns)` then builds the data and the prior from the loaded
columns, a name -> array mapping. The prior is a `LinearPrior` (linear), an
`MMPrior` (MM) or the Laplace rate epsilon (logit).

The case-deleted weight is the inverse of the deleted cases' likelihood:
log w = -loglik - I * log_weight_constant for I deleted cases. The constant
is dropped because every estimate is invariant to a constant shift of the
log weights. The records reach the samplers and gate kernels through this
module's global names, so that a wrapper installed at those names sees
every call.
"""

import math
from dataclasses import dataclass
from itertools import combinations
from typing import Callable

import numpy as np

from .core_model import LogitData, MMData, RegressionData, deletion_set
from .errors import ConfigError, DataError
from .linear_gate import LinearPrior
from .linear_gate import indices_and_verdicts as linear_indices_and_verdicts
from .linear_gate import moment_index_linear
from .logit_gate import indices_and_verdicts as logit_indices_and_verdicts
from .logit_gate import moment_index_logit
from .mm_gate import KappaPriorSpec, kappa_profile, moment_index_mm, theorem41_verdict
from .samplers import sample_linear_conjugate, sample_linear_noninformative, sample_logit, sample_mm

@dataclass(frozen=True)
class MMPrior:
    """The kappa prior the MM sampler draws under, and the size of the
    kappa grid on which the moment index scans the Thm 4.1 conditions."""

    kappa: KappaPriorSpec
    grid_size: int


@dataclass(frozen=True)
class Family:
    """The per-model pieces:

    - csv_columns(cfg) -> the CSV columns to read, in reading order; raises
      ConfigError first if a key the model needs is unset;
    - inputs(cfg, {column: array}) -> (data, prior);
    - columns(data) -> the names of a draw's parameters, one per draw column;
    - log_likelihood(draws, data, 0-based deleted indices) -> one value per draw;
    - sample(data, prior, SamplerConfig) -> SampleResult;
    - moment_index(data, nonempty DeletionSet, prior) -> MomentIndexReport;
    - gate_rows(data, prior, sets, r_values) -> (indices, r, verdict, report)
      per set and r; `sets` is a list of index tuples of one size I >= 1, or
      the int I for every subset of size I in lexicographic order.
    """

    csv_columns: Callable
    inputs: Callable
    columns: Callable
    log_likelihood: Callable
    log_weight_constant: float
    sample: Callable
    moment_index: Callable
    gate_rows: Callable

    def log_weight(self, log_likelihood, cardinality: int):
        """Log deletion weight from the deleted cases' log-likelihood."""
        return -log_likelihood - cardinality * self.log_weight_constant


# --- config to inputs ------------------------------------------------------------

_CONJUGATE_KEYS = ("prior.alpha", "prior.beta", "prior.theta.mean", "prior.theta.cov_diag")


def _covariates(cfg: dict, model: str) -> tuple:
    if cfg["data.covariates"] is None:
        raise ConfigError(f"data.covariates is required by the {model} model")
    return cfg["data.covariates"]


def _design(cfg: dict, columns: dict, n: int) -> np.ndarray:
    """Intercept column first when `data.intercept` is set, then the
    covariates in config order."""
    pieces = [np.ones(n)] if cfg["data.intercept"] else []
    pieces += [columns[name] for name in cfg["data.covariates"]]
    if not pieces:
        raise DataError("no design columns: data.covariates is empty and data.intercept is false")
    return np.column_stack(pieces)


def _linear_csv_columns(cfg: dict) -> tuple:
    covariates = _covariates(cfg, "linear")
    missing = [name for name in _CONJUGATE_KEYS if cfg[name] is None]
    if cfg["prior.kind"] == "conjugate" and missing:
        raise ConfigError(f"{missing[0]} is required by prior.kind = conjugate")
    return (*covariates, cfg["data.response"])


def _linear_inputs(cfg: dict, columns: dict):
    response = columns[cfg["data.response"]]
    data = RegressionData(design=_design(cfg, columns, response.size), response=response)
    if cfg["prior.kind"] == "noninformative":
        if data.n <= data.k:
            raise DataError(f"the flat prior gives an improper posterior unless n > k; "
                            f"got n={data.n}, k={data.k}")
        return data, LinearPrior.noninformative()
    for name in ("prior.theta.mean", "prior.theta.cov_diag"):
        if len(cfg[name]) != data.k:
            raise ConfigError(f"{name} must list {data.k} values, one per design column, "
                              f"got {len(cfg[name])}")
    prior = LinearPrior.conjugate(cfg["prior.alpha"], cfg["prior.beta"],
                                  cfg["prior.theta.mean"], np.diag(cfg["prior.theta.cov_diag"]))
    return data, prior


def _mm_inputs(cfg: dict, columns: dict):
    data = MMData(concentration=columns[cfg["data.concentration"]],
                  velocity=columns[cfg["data.velocity"]])
    prior = MMPrior(kappa=KappaPriorSpec(scale=cfg["prior.kappa.scale"]),
                    grid_size=cfg["scan.grid_size"])
    return data, prior


def _logit_inputs(cfg: dict, columns: dict):
    outcome = columns[cfg["data.outcome"]]
    return LogitData(design=_design(cfg, columns, outcome.size), outcome=outcome), cfg["prior.epsilon"]


# --- likelihoods, samplers and gates ------------------------------------------------

_HALF_LOG_2PI = 0.5 * math.log(2.0 * math.pi)


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
        csv_columns=_linear_csv_columns,
        inputs=_linear_inputs,
        columns=lambda data: [f"theta_{j}" for j in range(data.k)] + ["sigma2"],
        log_likelihood=_linear_log_likelihood,
        log_weight_constant=_HALF_LOG_2PI,
        sample=_sample_linear,
        moment_index=lambda data, dels, prior: moment_index_linear(data, dels, prior),
        gate_rows=_linear_gate_rows,
    ),
    "mm": Family(
        csv_columns=lambda cfg: (cfg["data.concentration"], cfg["data.velocity"]),
        inputs=_mm_inputs,
        columns=lambda data: ["m", "sigma2", "kappa"],
        log_likelihood=_mm_log_likelihood,
        log_weight_constant=_HALF_LOG_2PI,
        sample=lambda data, prior, config: sample_mm(data, config, prior.kappa),
        moment_index=lambda data, dels, prior: moment_index_mm(data, dels, prior.grid_size),
        gate_rows=_mm_gate_rows,
    ),
    "logit": Family(
        csv_columns=lambda cfg: (*_covariates(cfg, "logit"), cfg["data.outcome"]),
        inputs=_logit_inputs,
        columns=lambda data: [f"beta_{j}" for j in range(data.k)],
        log_likelihood=_logit_log_likelihood,
        log_weight_constant=0.0,
        sample=lambda data, epsilon, config: sample_logit(data, config, epsilon),
        moment_index=lambda data, dels, epsilon: moment_index_logit(data, dels, epsilon),
        gate_rows=_logit_gate_rows,
    ),
}
