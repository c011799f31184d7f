"""Deletion weights, self-normalized estimation, and gated influence measures.

The deletion weight of a draw is exactly w = 1/L_I, the inverse of the
deleted cases' likelihood, so its posterior mean R = p(y_-I)/p(y) is the
reciprocal of the conditional predictive ordinate: CPO = 1/R. Every measure
reads the one max-shift normalizer `_weight_parts`: kl, hellinger and chisq
are functions of the normalized weights w_m / R_hat, and CPO is 1/R_hat.
"""

import math
from dataclasses import dataclass

import numpy as np

from .core_model import BLOCK_ELEMENTS
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


def log_weight(family, blocks, data, dels: np.ndarray, size: int) -> np.ndarray:
    """Log of the deletion weight w = 1/L_I at each of `size` draws, given
    as the row blocks `blocks` as `deleted_log_likelihood` takes them: that
    log-likelihood, negated in place. `family` is the model's
    `families.Family` record and `dels` the sorted, distinct 0-based
    deleted cases."""
    out = deleted_log_likelihood(family, blocks, data, dels, size)
    return np.negative(out, out=out)


def deleted_log_likelihood(family, blocks, data, dels: np.ndarray, size: int) -> np.ndarray:
    """Exact log likelihood of the deleted cases `dels` at each of `size`
    draws, given in draw order as the row blocks `blocks`, which are read
    once, so they may come from a generator that never holds all the draws.

    `family.log_likelihood` runs on row blocks of BLOCK_ELEMENTS // |I|
    draws (one row at least) within each given block and writes into one
    preallocated M-vector, so its (rows, |I|) temporaries stay about
    BLOCK_ELEMENTS entries whatever M and |I| are. Every family's
    likelihood is a row-wise function of the draws, so the result equals
    one call on all draws, bit for bit, wherever the BLAS product of a row
    block equals those rows of the whole product."""
    out = np.zeros(size)
    start = 0
    for block in blocks:
        stop = start + len(block)
        if dels.size:
            rows = max(1, BLOCK_ELEMENTS // dels.size)
            for lo in range(start, stop, rows):
                hi = min(lo + rows, stop)
                out[lo:hi] = family.log_likelihood(block[lo - start:hi - start], data, dels)
        start = stop
    if start != size:
        raise ValueError(f"the blocks hold {start} draws, not {size}")
    return out


# --- estimation ---------------------------------------------------------------


def _weight_parts(log_weights: np.ndarray):
    """Normalized weights w/R_hat and log(R_hat), via one max shift; R_hat
    is the mean weight, so exp(-log(R_hat)) estimates the CPO."""
    lw = np.asarray(log_weights, dtype=float).ravel()
    if lw.size == 0:
        raise SamplerError("no draws")
    m = np.max(lw)
    if not np.isfinite(m):
        raise SamplerError("all log weights are -inf or non-finite")
    w = lw - m
    np.exp(w, out=w)
    mean_u = float(np.mean(w))
    if not mean_u > 0:
        raise SamplerError("weights underflowed to zero")
    w /= mean_u
    return w, float(m) + math.log(mean_u)


def self_normalized_estimate(log_weights: np.ndarray, g_values) -> float:
    """Weighted mean sum(w g)/sum(w), computed stably in log space."""
    g = np.asarray(g_values, dtype=float).ravel()
    w = _weight_parts(log_weights)[0]
    if w.shape != g.shape:
        raise ValueError("g_values length must match the number of draws")
    return float(np.sum(w * g) / np.sum(w))


def _measure_value(measure, lw):
    """(value, flags) of `measure` on the log weights `lw`. Each measure
    works its normalized weights in place, so it holds one M-vector beside
    its input."""
    flags = []
    w, log_r_hat = _weight_parts(lw)
    if measure == "cpo":
        value = float(np.exp(-log_r_hat))
    elif measure == "kl":
        w *= lw
        value = float(np.mean(w) - log_r_hat)
    elif measure == "hellinger":
        value = float(2.0 - 2.0 * np.mean(np.sqrt(w, out=w)))
        if not -1e-12 <= value <= 2.0 + 1e-12:
            flags.append("hellinger-outside-[0,2]")
    elif measure == "chisq":
        w -= 1.0
        w *= w
        value = float(np.mean(w))
    else:
        raise ValueError(f"unknown measure {measure!r}")
    return value, flags


def estimate_measure(log_weights: np.ndarray, measure: str, r_star: float) -> InfluenceEstimate:
    """One influence measure with its CLT gate.

    `log_weights` are the log deletion weights -log L_I of a posterior
    sample, one per draw, all finite, as `log_weight` makes them; kl,
    hellinger and chisq would read the same from any constant shift of
    them, CPO only from these. `r_star` is the analytic moment index of the
    deletion weight. The estimate itself is always computed; the gate
    decides whether a standard error accompanies it. The gate passes when
    r_star strictly exceeds the measure's requirement.
    """
    if measure not in MEASURES:
        raise ValueError(f"unknown measure {measure!r}; known: {MEASURES}")
    lw = np.asarray(log_weights, dtype=float).ravel()
    if not np.all(np.isfinite(lw)):
        raise ValueError("log weights must be finite")
    value, flags = _measure_value(measure, lw)
    required = REQUIRED_MOMENTS[measure]
    passed = r_star > required
    se = _batch_means_se(lw, measure) if passed else None
    return InfluenceEstimate(
        measure=measure,
        value=value,
        gate_passed=passed,
        required_moments=required,
        available_r_star=float(r_star),
        standard_error=se,
        flags=tuple(flags),
    )


def _batch_means_se(log_weights: np.ndarray, measure: str) -> float:
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
    vals = [_measure_value(measure, log_weights[edges[b]:edges[b + 1]])[0] for b in range(B)]
    return float(np.std(vals, ddof=1) / math.sqrt(B))
