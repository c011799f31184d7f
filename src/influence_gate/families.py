"""One record per model family: everything that differs between the linear,
Michaelis-Menten (MM) and logit models, from the config to the report.

The model is chosen when the CLI looks up `FAMILIES[cfg["model"]]`; from
then on the record carries it. The only other readers of the model name
are `cli.cmd_scan` and `cli.cmd_kfold_audit`, which refuse every model but
the linear one. A record turns a parsed config into the model's inputs in
two steps. `csv_columns(cfg)` checks the config keys the model needs and
names the CSV columns it reads, so every config error comes before the data
file is read. `inputs(cfg, columns)` then builds the data and the prior from
the loaded columns, a name -> array mapping. The prior is a `LinearPrior` (linear),
the scale of the half-t kappa prior (MM) or the Laplace rate epsilon
(logit). The MM moment index does not read its prior; the sampler does.

The records reach the samplers and gate kernels through this module's
global names, so that a wrapper installed at those names sees every call.
"""

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .core_model import (
    BLOCK_ELEMENTS,
    RANK_TOLERANCE,
    LogitData,
    MMData,
    MomentIndexReport,
    MomentVerdict,
    RegressionData,
    singular_value_ratio,
)
from .errors import ConfigError, DataError
from .linear_gate import LinearPrior, moment_index_linear
from .logit_gate import moment_index_logit
from .mm_gate import moment_index_mm
from .samplers import (
    linear_noninformative_blocks,
    sample_linear_conjugate,
    sample_linear_noninformative,
    sample_logit,
    sample_mm,
)

_EMPTY_VERDICT = MomentVerdict.finite("empty deletion: weight is constant")


@dataclass(frozen=True)
class Family:
    """The per-model pieces:

    - csv_columns(cfg) -> the CSV columns to read, in reading order; raises
      ConfigError first if a key the model needs is unset;
    - inputs(cfg, {column: array}) -> (data, prior);
    - columns(data) -> the names of a draw's parameters, one per draw column;
    - log_likelihood(draws, data, 0-based deleted indices) -> one value per draw,
      the exact log density with its constants, whose negation is the log
      deletion weight;
    - sample(data, prior, SamplerConfig) -> SampleResult;
    - stream(data, prior, SamplerConfig) -> an iterator of row blocks of
      the draws, in draw order, from a sampler that never holds the whole
      (M, width) table, or None where the model's sampler holds its chain;
    - kernel(data, prior, sets, r_values) -> (MomentIndexReport, verdict
      lists): the model's batched moment-index kernel, `moment_index_linear`,
      `moment_index_mm` or `moment_index_logit` of its gate module, for
      nonempty deletion sets; `index` is its one entry.
    """

    csv_columns: Callable
    inputs: Callable
    columns: Callable
    log_likelihood: Callable
    sample: Callable
    stream: Callable
    kernel: Callable

    def draw_blocks(self, data, prior, config):
        """(row blocks of the config.draws posterior draws, in draw order;
        acceptance rate). A model that can `stream` its draws yields fresh
        blocks and never holds the whole table; any other model's chain is
        drawn whole by `sample`, and its blocks are row views of it, of
        BLOCK_ELEMENTS // width rows each."""
        blocks = self.stream(data, prior, config)
        if blocks is not None:
            return blocks, 1.0
        result = self.sample(data, prior, config)
        draws = result.draws
        rows = max(1, BLOCK_ELEMENTS // draws.shape[1])
        views = (draws[start:start + rows] for start in range(0, len(draws), rows))
        return views, result.acceptance_rate

    def index(self, data, prior, sets: np.ndarray, r_values):
        """Moment index of each row of `sets`, an (N, I) array of 0-based
        deletion sets, each row sorted and distinct as `all_subsets`, the
        CLI and the k-fold folds give them, and its verdicts at each order r
        in `r_values`:
        (MomentIndexReport, one verdict list per set ordered as
        `r_values`); with no r_values only the report is meant to be read.

        Deleting no case leaves the weight constant, with every moment
        finite: the empty set gets no cut-off and a finite verdict at every
        r, and the kernel is not called.
        """
        if sets.shape[1] == 0:
            never = np.full(len(sets), math.inf)
            binding = np.full(len(sets), "empty deletion", dtype=object)
            return (MomentIndexReport(sets, never, never, never, binding),
                    [[_EMPTY_VERDICT] * len(r_values) for _ in sets])
        return self.kernel(data, prior, sets, r_values)


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
        if singular_value_ratio(np.column_stack([data.design, data.response])) <= RANK_TOLERANCE:
            raise DataError("the flat prior gives an improper posterior when the design fits "
                            "the response exactly (RSS = 0)")
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
    return data, cfg["prior.kappa.scale"]


def _logit_inputs(cfg: dict, columns: dict):
    outcome = columns[cfg["data.outcome"]]
    return LogitData(design=_design(cfg, columns, outcome.size), outcome=outcome), cfg["prior.epsilon"]


# --- likelihoods, samplers and gates ------------------------------------------------

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


def _stream_linear(data, prior, config):
    return linear_noninformative_blocks(data, config) if prior.is_noninformative else None


FAMILIES = {
    "linear": Family(
        csv_columns=_linear_csv_columns,
        inputs=_linear_inputs,
        columns=lambda data: [f"theta_{j}" for j in range(data.k)] + ["sigma2"],
        log_likelihood=_linear_log_likelihood,
        sample=_sample_linear,
        stream=_stream_linear,
        kernel=lambda data, prior, sets, r: moment_index_linear(data, sets, r, prior),
    ),
    "mm": Family(
        csv_columns=lambda cfg: (cfg["data.concentration"], cfg["data.velocity"]),
        inputs=_mm_inputs,
        columns=lambda data: ["m", "sigma2", "kappa"],
        log_likelihood=_mm_log_likelihood,
        sample=lambda data, kappa_scale, config: sample_mm(data, config, kappa_scale),
        stream=lambda data, kappa_scale, config: None,
        kernel=lambda data, kappa_scale, sets, r: moment_index_mm(data, sets, r),
    ),
    "logit": Family(
        csv_columns=lambda cfg: (*_covariates(cfg, "logit"), cfg["data.outcome"]),
        inputs=_logit_inputs,
        columns=lambda data: [f"beta_{j}" for j in range(data.k)],
        log_likelihood=_logit_log_likelihood,
        sample=lambda data, epsilon, config: sample_logit(data, config, epsilon),
        stream=lambda data, epsilon, config: None,
        kernel=lambda data, epsilon, sets, r: moment_index_logit(data, sets, r, epsilon),
    ),
}
