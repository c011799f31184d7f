import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from influence_gate.core_model import (
    BLOCK_ELEMENTS,
    LogitData,
    MMData,
    RegressionData,
)
from influence_gate.errors import SamplerError
from influence_gate.families import FAMILIES
from influence_gate.is_engine import (
    _weight_parts,
    deleted_log_likelihood,
    estimate_measure,
    log_weight,
    self_normalized_estimate,
)

from conftest import deleted, feigl_zelen


def weights_of(model, draws, data, dels):
    """log_weight of the draws given as one row block."""
    draws = np.atleast_2d(np.asarray(draws, dtype=float))
    return log_weight(FAMILIES[model], (draws,), data, dels, len(draws))


class TestLogWeight:
    def test_empty_deletion_is_zero(self):
        rng = np.random.default_rng(0)
        data = RegressionData(design=np.ones((4, 1)), response=[0.0, 1.0, -1.0, 2.0])
        draws = np.column_stack([rng.standard_normal(10), np.abs(rng.standard_normal(10)) + 0.1])
        lw = weights_of("linear", draws, data, deleted([]))
        assert np.all(lw == 0.0)

    def test_linear_zero_residual_value(self):
        data = RegressionData(design=np.ones((4, 1)), response=[0.0, 1.0, -1.0, 2.0])
        dels = deleted([3])
        sigma2 = 0.7
        draw = np.array([[2.0, sigma2]])  # theta equals the deleted response
        assert weights_of("linear", draw, data, dels)[0] == pytest.approx(
            0.5 * math.log(2.0 * math.pi * sigma2), abs=1e-14
        )

    def test_mm_matches_linear_form(self, puromycin):
        dels = deleted([4])
        m, s2, kappa = 160.0, 25.0, 0.5
        x = puromycin.concentration[4] / (kappa + puromycin.concentration[4])
        res = puromycin.velocity[4] - m * x
        expect = 0.5 * math.log(2.0 * math.pi * s2) + res * res / (2 * s2)
        lw = weights_of("mm", [[m, s2, kappa]], puromycin, dels)
        assert lw[0] == pytest.approx(expect, rel=1e-12)

    def test_nonpositive_sigma2_rejected(self):
        data = RegressionData(design=np.ones((3, 1)), response=[0.0, 1.0, 2.0])
        with pytest.raises(ValueError):
            weights_of("linear", [[0.0, -1.0]], data, deleted([0]))

    def test_logit_weight_nonnegative_and_exact(self):
        data = LogitData(design=[[1.0], [2.0]], outcome=[1, 0])
        dels = deleted([0])
        beta = np.array([[-3.0]])
        expect = math.log1p(math.exp(-3.0)) - (-3.0)
        lw = weights_of("logit", beta, data, dels)[0]
        assert lw == pytest.approx(expect, rel=1e-12)
        assert lw >= 0


def random_draws(rng, model, M, k):
    """M finite draws of the model's parameters with positive variances
    (and MM kappa)."""
    draws = rng.standard_normal((M, k))
    if model != "logit":
        positive = [k - 1] if model == "linear" else [1, 2]
        draws[:, positive] = np.exp(draws[:, positive])
    return draws


class TestBlockedLogLikelihood:
    @pytest.mark.parametrize("model", ["linear", "mm", "logit"])
    @pytest.mark.parametrize("size", [1, 8])
    def test_blocks_equal_one_call_bit_for_bit(self, puromycin, model, size):
        """One block of BLOCK_ELEMENTS // |I| rows and 17 rows more, given
        as one block of draws and as blocks of 5,000 rows, as a generator."""
        data = puromycin if model == "mm" else feigl_zelen(model)
        family = FAMILIES[model]
        k = len(family.columns(data))
        dels = deleted([0, 1, 2, 4, 5, 6, 8, 10][:size] if model == "mm"
                       else [0, 1, 2, 14, 15, 16, 31, 32][:size])
        M = BLOCK_ELEMENTS // size + 17
        draws = random_draws(np.random.default_rng(size), model, M, k)
        whole = family.log_likelihood(draws, data, dels).tobytes()
        assert deleted_log_likelihood(family, (draws,), data, dels, M).tobytes() == whole
        blocks = (draws[start:start + 5000] for start in range(0, M, 5000))
        assert deleted_log_likelihood(family, blocks, data, dels, M).tobytes() == whole


class TestSelfNormalizedEstimate:
    def test_empty_deletion_plain_mean(self):
        g = np.array([1.0, 2.0, 3.0, 4.0])
        assert self_normalized_estimate(np.zeros(4), g) == pytest.approx(2.5, abs=0)

    def test_two_point_hand_value(self):
        lw = np.array([0.0, math.log(3.0)])
        g = np.array([1.0, 5.0])
        assert self_normalized_estimate(lw, g) == pytest.approx(4.0, rel=1e-14)

    def test_shift_invariance_bit_exact_dyadic(self):
        lw = np.array([0.5, -1.25, 3.0, 0.0])
        g = np.array([1.0, -2.0, 0.25, 4.0])
        base = self_normalized_estimate(lw, g)
        for c in (2.0, -4.5, 1024.0):
            assert self_normalized_estimate(lw + c, g) == base

    @given(
        st.lists(st.floats(-30, 30), min_size=2, max_size=40),
        st.floats(-100, 100),
    )
    @settings(max_examples=100, deadline=None)
    def test_shift_invariance_loose(self, lw_list, c):
        lw = np.array(lw_list)
        g = np.linspace(-1.0, 1.0, lw.size)
        a = self_normalized_estimate(lw, g)
        b = self_normalized_estimate(lw + c, g)
        assert b == pytest.approx(a, rel=1e-10, abs=1e-10)

    def test_degenerate_sample_error(self):
        with pytest.raises(SamplerError):
            self_normalized_estimate(np.array([-math.inf, -math.inf]), np.array([1.0, 2.0]))


class TestEstimateMeasure:
    def _log_weights(self, seed=0, M=4096, const=False):
        rng = np.random.default_rng(seed)
        return np.zeros(M) if const else rng.standard_normal(M) * 0.5

    def test_empty_deletion_exact_zeros(self):
        lw = self._log_weights(const=True)
        for measure in ("kl", "chisq", "hellinger"):
            est = estimate_measure(lw, measure, math.inf)
            assert est.value == 0.0
            assert est.gate_passed

    def test_kl_shift_invariant(self):
        lw = self._log_weights(seed=3)
        base = estimate_measure(lw, "kl", 5.0).value
        assert estimate_measure(lw + 7.5, "kl", 5.0).value == pytest.approx(base, rel=1e-12)

    def test_kl_nonnegative_as_divergence(self):
        lw = self._log_weights(seed=5)
        assert estimate_measure(lw, "kl", 5.0).value >= -1e-12

    def test_chisq_nonnegative(self):
        lw = self._log_weights(seed=4)
        assert estimate_measure(lw, "chisq", 5.0).value >= -1e-12

    def test_gate_blocked_no_se(self):
        lw = self._log_weights(seed=6)
        est = estimate_measure(lw, "chisq", 3.0)  # needs 4 moments
        assert not est.gate_passed
        assert est.standard_error is None
        est2 = estimate_measure(lw, "kl", 3.0)  # needs 2 + delta
        assert est2.gate_passed
        assert est2.standard_error is not None and est2.standard_error > 0

    def test_kl_gate_needs_strict_excess(self):
        lw = self._log_weights(seed=7)
        est = estimate_measure(lw, "kl", 2.0)
        assert not est.gate_passed

    def test_cpo_harmonic_mean_identity(self):
        rng = np.random.default_rng(11)
        data = RegressionData(design=np.ones((5, 1)), response=[0.0, 1.0, 2.0, 3.0, 4.0])
        dels = deleted([2])
        draws = np.column_stack([rng.standard_normal(10) + 2.0, np.abs(rng.standard_normal(10)) + 0.5])
        est = estimate_measure(weights_of("linear", draws, data, dels), "cpo", 5.0)
        theta, sigma2 = draws.T
        lik = np.exp(-(2.0 - theta) ** 2 / (2 * sigma2)) / np.sqrt(2 * math.pi * sigma2)
        assert est.value == pytest.approx(10.0 / np.sum(1.0 / lik), rel=1e-12)

    def test_unknown_measure_rejected(self):
        with pytest.raises(ValueError):
            estimate_measure(self._log_weights(), "wasserstein", 3.0)

    def test_nonfinite_log_weights_rejected(self):
        with pytest.raises(ValueError):
            estimate_measure([0.0, math.nan], "kl", 5.0)

    @pytest.mark.parametrize("M", [2, 3])
    def test_standard_error_needs_four_draws(self, M):
        lw = self._log_weights(seed=8, M=M)
        with pytest.raises(ValueError, match="at least 4 draws"):
            estimate_measure(lw, "kl", 5.0)
        assert estimate_measure(lw, "chisq", 3.0).standard_error is None  # blocked: no SE

    @pytest.mark.parametrize("measure", ["kl", "hellinger", "chisq"])
    def test_four_draws_make_two_batches_of_two(self, measure):
        lw = self._log_weights(seed=8, M=4)
        halves = [estimate_measure(lw[:2], measure, 1.0).value,
                  estimate_measure(lw[2:], measure, 1.0).value]
        se = estimate_measure(lw, measure, 5.0).standard_error
        assert se > 0
        # std (ddof 1) of two batch values over sqrt(2) is half their distance
        assert se == pytest.approx(abs(halves[0] - halves[1]) / 2, rel=1e-12)


def _lse_input(n, scale, shifted=False):
    """scale * standard_normal(n) drawn with seed n, shifted to a maximum of
    0 where `shifted` is set."""
    a = scale * np.random.default_rng(n).standard_normal(n)
    return a - a.max() if shifted else a


def _tied_input():
    """2000 standard normals with the maximum copied into every 100th entry
    (20 ties)."""
    a = np.random.default_rng(160).standard_normal(2000)
    a[::100] = a.max()
    return a


@pytest.mark.parametrize("a", [_lse_input(n, scale) for n in (1, 2, 17, 300, 2000)
                               for scale in (1e-3, 1.0, 30.0, 700.0)]
                         + [_lse_input(n, scale, shifted=True) for n in (2, 17, 300, 2000)
                            for scale in (30.0, 700.0)]
                         + [_tied_input()])
def test_log_r_hat_matches_fsum_reference(a):
    """log R_hat, the log of the mean weight, within a few ulps of the log
    of the exactly rounded sum."""
    a_max = float(np.max(a))
    ref = a_max + math.log(math.fsum(math.exp(x - a_max) for x in a) / a.size)
    assert abs(_weight_parts(a)[1] - ref) <= 8 * np.finfo(float).eps * max(1.0, abs(ref))
