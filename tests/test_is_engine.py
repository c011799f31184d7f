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
    _logsumexp,
    deleted_log_likelihood,
    estimate_measure,
    log_weight,
    self_normalized_estimate,
)
from influence_gate.samplers import SamplerConfig, sample_mm

from conftest import deleted, feigl_zelen


class TestLogWeight:
    def test_empty_deletion_is_zero(self):
        rng = np.random.default_rng(0)
        data = RegressionData(design=np.ones((4, 1)), response=[0.0, 1.0, -1.0, 2.0])
        draws = np.column_stack([rng.standard_normal(10), np.abs(rng.standard_normal(10)) + 0.1])
        lw = log_weight(FAMILIES["linear"], draws, data, deleted([]))
        assert np.all(lw == 0.0)

    def test_linear_zero_residual_value(self):
        data = RegressionData(design=np.ones((4, 1)), response=[0.0, 1.0, -1.0, 2.0])
        dels = deleted([3])
        sigma2 = 0.7
        draw = np.array([[2.0, sigma2]])  # theta equals the deleted response
        assert log_weight(FAMILIES["linear"], draw, data, dels)[0] == pytest.approx(
            0.5 * math.log(sigma2), abs=1e-14
        )

    def test_mm_matches_linear_form(self, puromycin):
        dels = deleted([4])
        m, s2, kappa = 160.0, 25.0, 0.5
        x = puromycin.concentration[4] / (kappa + puromycin.concentration[4])
        res = puromycin.velocity[4] - m * x
        expect = 0.5 * math.log(s2) + res * res / (2 * s2)
        lw = log_weight(FAMILIES["mm"], np.array([[m, s2, kappa]]), puromycin, dels)
        assert lw[0] == pytest.approx(expect, rel=1e-12)

    def test_nonpositive_sigma2_rejected(self):
        data = RegressionData(design=np.ones((3, 1)), response=[0.0, 1.0, 2.0])
        with pytest.raises(ValueError):
            log_weight(FAMILIES["linear"], np.array([[0.0, -1.0]]), data, deleted([0]))

    def test_logit_weight_nonnegative_and_exact(self):
        data = LogitData(design=[[1.0], [2.0]], outcome=[1, 0])
        dels = deleted([0])
        beta = np.array([[-3.0]])
        expect = math.log1p(math.exp(-3.0)) - (-3.0)
        lw = log_weight(FAMILIES["logit"], beta, data, dels)[0]
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
        lw = log_weight(FAMILIES["linear"], draws, data, dels)
        ll = deleted_log_likelihood(FAMILIES["linear"], (draws,), data, dels, len(draws))
        est = estimate_measure(lw, "cpo", 5.0, ll)
        direct = 10.0 / np.sum(1.0 / np.exp(ll))
        assert est.value == pytest.approx(direct, rel=1e-12)

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


# log(sum(exp(a))) of a = scale * standard_normal(n) drawn with seed n, as
# float.hex of the value SciPy 1.17.1's scipy.special.logsumexp returns. The
# values are pinned rather than compared with a live SciPy, whose older
# releases use another formula.
LSE_GOLDEN = {
    (1, 1e-3): "0x1.6a5f0cd8d01abp-12",
    (1, 1.0): "0x1.61e0d28bbb3a1p-2",
    (1, 30.0): "0x1.4bc2c562ff867p+3",
    (1, 700.0): "0x1.e3d15fdb09f96p+7",
    (2, 1e-3): "0x1.62ce53964b816p-1",
    (2, 1.0): "0x1.2d3ac050cde9ap-1",
    (2, 30.0): "0x1.6afb84aa95055p+2",
    (2, 700.0): "0x1.08acbb66a1ff3p+7",
    (17, 1e-3): "0x1.6a9e909a85e14p+1",
    (17, 1.0): "0x1.996995968219ep+1",
    (17, 30.0): "0x1.be4f4e3c79ae6p+5",
    (17, 700.0): "0x1.456f28f9e7768p+10",
    (300, 1e-3): "0x1.6d0ac1ce7ebe9p+2",
    (300, 1.0): "0x1.87fca5d03ac2ep+2",
    (300, 30.0): "0x1.5e266e4bb01b0p+6",
    (300, 700.0): "0x1.fea27eb7d0b56p+10",
    (2000, 1e-3): "0x1.e67555103cf4bp+2",
    (2000, 1.0): "0x1.03f4c18277568p+3",
    (2000, 30.0): "0x1.b18e3cfafa2efp+6",
    (2000, 700.0): "0x1.3ab0927161b10p+11",
}

# The same inputs shifted to a maximum of 0, so the shifted sum s of the
# other terms is small: here log1p(s) and log(1 + s) differ in their last
# bits, and the form without log1p gives other values.
LSE_SHIFTED_GOLDEN = {
    (2, 30.0): "0x1.249086ae00667p-31",
    (2, 700.0): "0x1.1e35a0325189fp-719",
    (17, 30.0): "0x1.8f31a85a9cbd4p-23",
    (17, 700.0): "0x1.33922b736986ap-522",
    (300, 30.0): "0x1.30414271483c3p-13",
    (300, 700.0): "0x1.a10b1880a504ep-300",
    (2000, 30.0): "0x1.fb2b4edb8520ap-2",
    (2000, 700.0): "0x1.c9affef7e89e0p-16",
}


def _lse_input(n, scale, shifted=False):
    a = scale * np.random.default_rng(n).standard_normal(n)
    return a - a.max() if shifted else a


def _tied_input():
    """2000 standard normals with the maximum copied into every 100th entry
    (20 ties). At seed 160, summing the array without the tied entries,
    instead of with zeros in their places, changes the last bit."""
    a = np.random.default_rng(160).standard_normal(2000)
    a[::100] = a.max()
    return a


class TestLogSumExp:
    @pytest.mark.parametrize("n, scale", LSE_GOLDEN)
    def test_golden(self, n, scale):
        assert _logsumexp(_lse_input(n, scale)).hex() == LSE_GOLDEN[n, scale]

    @pytest.mark.parametrize("n, scale", LSE_SHIFTED_GOLDEN)
    def test_shifted_golden(self, n, scale):
        assert _logsumexp(_lse_input(n, scale, shifted=True)).hex() == LSE_SHIFTED_GOLDEN[n, scale]

    def test_tied_maxima_golden(self):
        assert _logsumexp(_tied_input()).hex() == "0x1.064efd16c6e7bp+3"

    def test_mm_case_11_cpo_input_golden(self, puromycin):
        draws = sample_mm(puromycin, SamplerConfig(seed=1, draws=5000, burn_in=1000),
                          1.0).draws
        ll = deleted_log_likelihood(FAMILIES["mm"], (draws,), puromycin, deleted([10]), len(draws))
        assert _logsumexp(-ll).hex() == "0x1.7fe130db476a2p+3"
        assert _logsumexp(ll, negate=True).hex() == "0x1.7fe130db476a2p+3"

    @pytest.mark.parametrize("x", [-3.7, 0.0, 1e300, -1e300])
    def test_single_element_is_itself(self, x):
        assert _logsumexp(np.array([x])) == x

    def test_all_minus_infinity(self):
        assert _logsumexp(np.full(4, -math.inf)) == -math.inf

    def test_one_plus_infinity(self):
        assert _logsumexp(np.array([1.0, math.inf, -2.0])) == math.inf

    @pytest.mark.parametrize("a", [_lse_input(n, s) for n, s in LSE_GOLDEN]
                             + [_lse_input(n, s, shifted=True) for n, s in LSE_SHIFTED_GOLDEN]
                             + [_tied_input()])
    def test_matches_fsum_reference(self, a):
        a_max = float(np.max(a))
        ref = a_max + math.log(math.fsum(math.exp(x - a_max) for x in a))
        assert abs(_logsumexp(a) - ref) <= 4 * np.finfo(float).eps * max(1.0, abs(ref))
