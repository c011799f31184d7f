"""Empirical verification of analytic moment verdicts.

Two instruments: tail-index estimation of realized weights (Hill plus a
log-survival regression) checked against the analytic moment index, and a
variance-scaling audit that checks whether an estimator's replication
variance decays like 1/M (the CLT rate) or slower.
"""

import math
from dataclasses import dataclass

import numpy as np

TOP_FRACTION = 0.01
MIN_EXCEEDANCES = 50
REGRESSION_POINTS = 25

# Tail-index estimators converge slowly; the audit accepts the analytic value
# within this relative band, and passes no judgment when the tail is too thin
# to estimate (moment index above AGREEMENT_MAX_INDEX).
AGREEMENT_REL_TOL = 0.25
AGREEMENT_MAX_INDEX = 6.0


@dataclass(frozen=True)
class TailReport:
    hill_estimate: float
    regression_index: float
    agreement: bool | None
    degenerate: bool = False
    # (threshold, exceedances, running estimate) per regression threshold
    survival: tuple = ()


@dataclass(frozen=True)
class ScalingReport:
    variance_at_m: tuple
    loglog_slope: float | None


def _hill(w: np.ndarray, k: int) -> float:
    """Hill estimate from the k largest of the descending weights w: the
    inverse mean log-excess over the threshold w[k], +infinity when that
    mean is not positive."""
    mean_excess = float(np.mean(np.log(w[:k]) - math.log(w[k])))
    if mean_excess <= 0:
        return math.inf
    return 1.0 / mean_excess


def hill_tail_index(weights_descending: np.ndarray) -> float:
    """Hill estimator from the largest TOP_FRACTION of the order statistics.

    Input must be sorted descending. Constant tails give +infinity
    (degenerate, flagged by the caller).
    """
    w = np.asarray(weights_descending, dtype=float).ravel()
    if w.size < 2 or w[0] < w[-1]:
        raise ValueError("weights must be sorted in descending order")
    k = int(math.floor(TOP_FRACTION * w.size))
    if k < MIN_EXCEEDANCES:
        raise ValueError(
            f"need at least {MIN_EXCEEDANCES} exceedances; top fraction {TOP_FRACTION} "
            f"of {w.size} gives {k}"
        )
    if w[k] <= 0:
        raise ValueError("weights must be positive")
    return _hill(w, k)


def survival_regression_index(weights_descending: np.ndarray) -> tuple:
    """Slope of log P(W > t) against log(1/t) over REGRESSION_POINTS
    upper-tail thresholds.

    Returns (slope, rows) where rows hold (threshold, exceedances, running
    Hill estimate) for export.
    """
    w = np.asarray(weights_descending, dtype=float).ravel()
    M = w.size
    # The distinct ranks, sorted as a set: np.unique's first call imports numpy.ma.
    grid = np.geomspace(max(int(0.0005 * M), 10), int(0.1 * M), REGRESSION_POINTS)
    ranks = np.array(sorted(set(grid.astype(int).tolist())), dtype=int)
    ranks = ranks[(ranks >= 5) & (ranks < M)]
    if ranks.size < 20:
        raise ValueError("not enough draws for the survival regression (need >= 20 thresholds)")
    thresholds = w[ranks]
    if np.any(thresholds <= 0) or thresholds[0] == thresholds[-1]:
        return math.inf, []
    log_p = np.log(ranks / M)
    log_inv_t = -np.log(thresholds)
    slope = float(np.polyfit(log_inv_t, log_p, 1)[0])
    rows = [(float(t), rank, _hill(w, rank)) for t, rank in zip(thresholds, ranks.tolist())]
    return slope, rows


def verify_moment_index(log_weights: np.ndarray, r_star: float) -> TailReport:
    """Estimate the tail index of the weights whose logs are `log_weights`,
    one per posterior draw, both ways, and compare it with the analytic
    moment index `r_star`.

    Agreement is judged only when the analytic index is at most 6 (thinner
    tails are not estimable at these sample sizes): the Hill estimate must
    sit within 25% of the analytic value. Constant weights (for instance an
    empty deletion) short-circuit to a degenerate report.
    """
    lw = np.asarray(log_weights, dtype=float).ravel()
    r_star = float(r_star)
    if float(np.max(lw) - np.min(lw)) < 1e-12:
        return TailReport(
            hill_estimate=math.inf,
            regression_index=math.inf,
            agreement=None,
            degenerate=True,
        )
    w = lw - np.max(lw)
    np.exp(w, out=w)
    w.sort()
    w = w[::-1]
    hill = hill_tail_index(w)
    slope, rows = survival_regression_index(w)
    if math.isfinite(r_star) and r_star <= AGREEMENT_MAX_INDEX and math.isfinite(hill):
        agreement = abs(hill - r_star) / r_star < AGREEMENT_REL_TOL
    else:
        agreement = None
    return TailReport(
        hill_estimate=hill,
        regression_index=slope,
        agreement=agreement,
        survival=tuple(rows),
    )


def clt_scaling_audit(estimator, m_grid, replications: int, seed: int) -> ScalingReport:
    """Replication variance of an estimator across sample sizes.

    `estimator(m, rng)` must return one estimate from m draws. Replications
    use derived, independent seeds. The log-log slope of variance against m
    is -1 under a CLT; heavy-tailed weights flatten it.
    """
    m_grid = tuple(int(m) for m in m_grid)
    if len(m_grid) < 1 or any(b <= a for a, b in zip(m_grid, m_grid[1:])):
        raise ValueError("m_grid must be strictly increasing")
    children = np.random.SeedSequence(seed).spawn(len(m_grid) * replications)
    variances = []
    for i, m in enumerate(m_grid):
        vals = np.empty(replications)
        for rep in range(replications):
            rng = np.random.default_rng(children[i * replications + rep])
            vals[rep] = estimator(m, rng)
        variances.append(float(np.var(vals, ddof=1)))
    if len(m_grid) < 2 or all(v == 0.0 for v in variances):
        slope = None
    else:
        slope = float(np.polyfit(np.log(m_grid), np.log(variances), 1)[0])
    return ScalingReport(variance_at_m=tuple(variances), loglog_slope=slope)
