"""Tail-index estimators and the variance-scaling audit of `tail_verifier`."""

import math

import numpy as np
import pytest

from influence_gate.tail_verifier import (
    TOP_FRACTION,
    clt_scaling_audit,
    hill_tail_index,
    survival_regression_index,
    verify_moment_index,
)


def pareto_descending(alpha: float, size: int, seed: int) -> np.ndarray:
    """Exact Pareto(alpha) draws on [1, inf), P(W > t) = t^-alpha, sorted
    descending."""
    u = np.random.default_rng(seed).random(size)
    return np.sort((1.0 - u) ** (-1.0 / alpha))[::-1]


def test_hill_recovers_pareto_index():
    alpha = 3.0
    w = pareto_descending(alpha, 40_000, seed=7)
    k = int(TOP_FRACTION * w.size)
    assert abs(hill_tail_index(w) - alpha) < 3.0 * alpha / math.sqrt(k)


def test_survival_rows_are_the_hill_estimate_at_each_rank():
    w = pareto_descending(3.0, 20_000, seed=11)
    _, rows = survival_regression_index(w)
    assert len(rows) >= 20
    for threshold, rank, estimate in rows:
        mean_excess = float(np.mean(np.log(w[:rank]) - math.log(w[rank])))
        assert threshold == w[rank]
        assert estimate == 1.0 / mean_excess


def test_constant_log_weights_give_a_degenerate_report():
    tail = verify_moment_index(np.full(200, -1.5), 4.6)
    assert tail.degenerate is True
    assert tail.agreement is None
    assert tail.hill_estimate == math.inf and tail.survival == ()


@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize("r_star, agreement", [(3.0, True), (6.0, False), (7.0, None)])
def test_agreement_rule_on_exact_pareto_log_weights(seed, r_star, agreement):
    # Pareto(3) weights have moment index 3. The Hill estimate lands within
    # 25% of an analytic 3 and outside 25% of 6; an analytic index above 6
    # is not judged. The draws are shuffled: the input need not be sorted.
    w = pareto_descending(3.0, 40_000, seed)
    np.random.default_rng(seed).shuffle(w)
    tail = verify_moment_index(np.log(w), r_star)
    assert tail.degenerate is False
    assert tail.agreement is agreement


def test_scaling_audit_of_an_iid_mean_has_slope_minus_one():
    report = clt_scaling_audit(lambda m, rng: rng.standard_normal(m).mean(),
                               (100, 400, 1600, 6400), replications=200, seed=5)
    assert abs(report.loglog_slope + 1.0) < 0.2
    flat = clt_scaling_audit(lambda m, rng: 0.0, (100, 400), replications=3, seed=5)
    assert flat.variance_at_m == (0.0, 0.0)
    assert flat.loglog_slope is None
