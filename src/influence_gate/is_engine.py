"""Deletion weights, self-normalized estimation, and gated influence measures.

All weight arithmetic happens in log space with a single max-shift pass;
every measure below is a function of the normalized weights w_m / R_hat, so
estimates are invariant to constant shifts of the log weights (CPO is the
exception: it needs the exact deleted-case likelihood).
"""

import math
from dataclasses import dataclass

import numpy as np

from .core_model import DeletionSet
from .errors import SamplerError

MEASURES = ("kl", "hellinger", "chisq", "cpo")

# Weight moments needed for a CLT per measure; strict excess is required.
# The KL entry carries the "two plus a little" convention explicitly.
KL_DELTA = 1e-6
REQUIRED_MOMENTS = {"kl": 2.0 + KL_DELTA, "hellinger": 2.0, "chisq": 4.0, "cpo": 2.0}

SE_BATCHES = 32


@dataclass(frozen=True)
class InfluenceEstimate:
    measure: str
    value: float
    gate_passed: bool
    required_moments: float
    available_r_star: float
    standard_error: float | None
    flags: tuple = ()

    def __post_init__(self):
        if self.standard_error is not None and not self.gate_passed:
            raise ValueError("standard error may be reported only when the gate passed")


# --- log weights --------------------------------------------------------------


def log_weight(family, draws: np.ndarray, data, dels: DeletionSet) -> np.ndarray:
    """Log of the unnormalized deletion weight at each draw, one per row:
    the negated deleted-case log-likelihood, less the family's constant per
    deleted case. `family` is the model's `families.Family` record."""
    loglik = deleted_log_likelihood(family, draws, data, dels)
    return family.log_weight(loglik, dels.cardinality)


def deleted_log_likelihood(family, draws: np.ndarray, data, dels: DeletionSet):
    """Exact log likelihood of the deleted cases at each draw."""
    draws = np.atleast_2d(np.asarray(draws, dtype=float))
    if dels.cardinality == 0:
        return np.zeros(draws.shape[0])
    return family.log_likelihood(draws, data, dels.index_array())


# --- estimation ---------------------------------------------------------------


def _weight_parts(log_weights: np.ndarray):
    """Normalized weights w/R_hat and log(R_hat), via one max shift."""
    lw = np.asarray(log_weights, dtype=float).ravel()
    if lw.size == 0:
        raise SamplerError("no draws")
    m = np.max(lw)
    if not np.isfinite(m):
        raise SamplerError("all log weights are -inf or non-finite")
    u = np.exp(lw - m)
    mean_u = float(np.mean(u))
    if not mean_u > 0:
        raise SamplerError("weights underflowed to zero")
    return u / mean_u, float(m) + math.log(mean_u)


def self_normalized_estimate(log_weights: np.ndarray, g_values) -> float:
    """Weighted mean sum(w g)/sum(w), computed stably in log space."""
    g = np.asarray(g_values, dtype=float).ravel()
    w = _weight_parts(log_weights)[0]
    if w.shape != g.shape:
        raise ValueError("g_values length must match the number of draws")
    return float(np.sum(w * g) / np.sum(w))


def _logsumexp(a: np.ndarray) -> np.float64:
    """log(sum(exp(a))) of a 1-d array by the shifted form of Blanchard,
    Higham & Higham (2021, IMA J. Numer. Anal. 41(4)): the maximal terms
    (all m ties) are taken out of the shifted sum s and added back as
    log1p(s/m) + log(m) + a_max. They stay in the array as zeros, so the
    pairwise sum groups its terms as a sum over the whole array does. The
    direct log(sum(exp(a))) is taken only where that form is not finite
    (all entries -inf, or one +inf or NaN). tests/test_is_engine.py pins
    the result bit for bit."""
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        a_max = np.max(a)
        top = a == a_max
        m = np.count_nonzero(top)
        s = np.sum(np.exp(np.where(top, -np.inf, a) - a_max))
        out = np.log1p(s / m) + np.log(m) + a_max
        if not np.isfinite(out):
            out = np.log(np.sum(np.exp(a)))
    return out


def _measure_value(measure, lw, deleted_log_lik):
    w, log_r_hat = _weight_parts(lw)
    flags = []
    if measure == "kl":
        value = float(np.mean(w * lw) - log_r_hat)
    elif measure == "hellinger":
        value = float(2.0 - 2.0 * np.mean(np.sqrt(w)))
        if not -1e-12 <= value <= 2.0 + 1e-12:
            flags.append("hellinger-outside-[0,2]")
    elif measure == "chisq":
        value = float(np.mean((w - 1.0) ** 2))
    elif measure == "cpo":
        if deleted_log_lik is None:
            raise ValueError("cpo needs deleted_log_lik (exact deleted-case likelihood)")
        ll = np.asarray(deleted_log_lik, dtype=float).ravel()
        value = float(np.exp(math.log(w.shape[0]) - _logsumexp(-ll)))
    else:
        raise ValueError(f"unknown measure {measure!r}")
    return value, flags


def estimate_measure(
    log_weights: np.ndarray,
    measure: str,
    r_star: float,
    deleted_log_lik: np.ndarray | None = None,
) -> InfluenceEstimate:
    """One influence measure with its CLT gate.

    `log_weights` are the unnormalized log deletion weights of a posterior
    sample, one per draw, all finite; `r_star` is the analytic moment index
    of the deletion weight;
    `deleted_log_lik` is the exact deleted-case log-likelihood at each draw,
    which CPO needs. The estimate itself is always computed; the gate
    decides whether a standard error accompanies it. The gate passes when
    r_star strictly exceeds the measure's requirement.
    """
    if measure not in MEASURES:
        raise ValueError(f"unknown measure {measure!r}; known: {MEASURES}")
    lw = np.asarray(log_weights, dtype=float).ravel()
    if not np.all(np.isfinite(lw)):
        raise ValueError("log weights must be finite")
    value, flags = _measure_value(measure, lw, deleted_log_lik)
    required = REQUIRED_MOMENTS[measure]
    passed = r_star > required
    se = _batch_means_se(lw, measure, deleted_log_lik) if passed else None
    return InfluenceEstimate(
        measure=measure,
        value=value,
        gate_passed=passed,
        required_moments=required,
        available_r_star=float(r_star),
        standard_error=se,
        flags=tuple(flags),
    )


def _batch_means_se(log_weights: np.ndarray, measure: str, deleted_log_lik) -> float:
    """Batch-means standard error: the estimator recomputed on consecutive
    batches, spread of the batch values scaled by sqrt(B). Valid for both
    i.i.d. draws and ergodic chains. Every batch holds two draws at least,
    since a one-draw batch has normalized weight 1 and reads 0 for every
    divergence."""
    M = log_weights.size
    if M < 4:
        raise ValueError(f"the batch-means standard error needs at least 4 draws, got {M}")
    B = min(SE_BATCHES, M // 2)
    edges = np.linspace(0, M, B + 1, dtype=int)
    vals = []
    for b in range(B):
        sl = slice(edges[b], edges[b + 1])
        ll = None if deleted_log_lik is None else np.asarray(deleted_log_lik)[sl]
        v, _ = _measure_value(measure, log_weights[sl], ll)
        vals.append(v)
    vals = np.asarray(vals)
    return float(np.std(vals, ddof=1) / math.sqrt(B))
