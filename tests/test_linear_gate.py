import math
from itertools import combinations

import numpy as np
import pytest
from scipy.optimize import brentq

from influence_gate import linear_gate
from influence_gate.core_model import (
    MomentIndexReport,
    MomentVerdict,
    RegressionData,
    VerdictTag,
    all_subsets,
)
from influence_gate.linear_gate import (
    LinearPrior,
    fold_moment_indices,
    leverage_minor,
    moment_index_linear,
    scan_deletion_subsets,
    theorem31_verdict,
)

from conftest import deleted, feigl_zelen, one_set, random_regression, report_rows, use_cpus

NONINF = LinearPrior.noninformative()


def conj(alpha, beta):
    return LinearPrior.conjugate(alpha, beta, [0.0], [[1.0]])


class TestLinearPrior:
    def test_conjugate_holds_its_normal_coefficient_prior(self):
        prior = LinearPrior.conjugate(2, 1, [0.5, -1], np.diag([4, 9]))
        assert prior.theta_mean.dtype == float and list(prior.theta_mean) == [0.5, -1.0]
        assert np.array_equal(prior.theta_cov, np.diag([4.0, 9.0]))
        assert prior.rss_threshold == -2.0

    @pytest.mark.parametrize("cov", [[[1.0, 2.0], [2.0, 1.0]], [[0.0, 0.0], [0.0, 1.0]]],
                             ids=["indefinite", "singular"])
    def test_conjugate_needs_positive_definite_covariance(self, cov):
        with pytest.raises(ValueError, match="positive definite"):
            LinearPrior.conjugate(2.0, 1.0, [0.0, 0.0], cov)


# --- oracles -------------------------------------------------------------------


def refit_rss(data: RegressionData, dels) -> float:
    """Independent oracle: least squares on the case-deleted rows."""
    keep = [i for i in range(data.n) if i not in dels]
    X, y = data.design[keep], data.response[keep]
    coef, *_ = np.linalg.lstsq(X, y, rcond=None)
    r = y - X @ coef
    return float(r @ r)


def least_squares_parts(data: RegressionData):
    """(Q, e, RSS) of `least_squares` in the response's units: its scaled
    residuals times 2^p, which is exact."""
    Q, _, _, e, p = linear_gate.least_squares(data)
    e = np.ldexp(e, p)
    return Q, e, float(e @ e)


def explicit_hat(data: RegressionData) -> np.ndarray:
    X = data.design
    return X @ np.linalg.inv(X.T @ X) @ X.T


def leverage_reference(data: RegressionData, dels):
    """Independent oracle: leverage minor from the explicit hat matrix, and
    residuals and RSS from a least-squares solve."""
    idx = dels.tolist()
    coef, *_ = np.linalg.lstsq(data.design, data.response, rcond=None)
    e = data.response - data.design @ coef
    return explicit_hat(data)[np.ix_(idx, idx)], e[idx], float(e @ e)


def rss_star_reference(data: RegressionData, dels, r: float) -> float:
    """Independent oracle: rss - r e_del'(I - r H_del)^{-1} e_del from the
    explicit hat block."""
    minor, e_del, rss = leverage_reference(data, dels)
    return float(rss - r * e_del @ np.linalg.solve(np.eye(dels.size) - r * minor, e_del))


def spectrum(data: RegressionData, dels) -> np.ndarray:
    """Ascending leverage spectrum of one set, as the kernel computes it."""
    Q, e, _ = least_squares_parts(data)
    return leverage_minor(Q, e, one_set(dels))[0][0]


def index_of(data: RegressionData, dels, prior):
    """The kernel's moment-index report of one set, as one report row."""
    [row] = report_rows(moment_index_linear(data, one_set(dels), (), prior)[0])
    return row


def verdict_at(data: RegressionData, dels, r: float, prior):
    """The kernel's Thm 3.1 verdict of one set at order r."""
    return moment_index_linear(data, one_set(dels), [r], prior)[1][0][0]


def kernel_rss_star(data: RegressionData, dels, r: float) -> float:
    """rss_star of one set as the kernel computes it: its spectra, then
    `_rss_star`."""
    Q, e, rss = least_squares_parts(data)
    lam, u2 = leverage_minor(Q, e, one_set(dels))
    return float(linear_gate._rss_star(rss, lam[0], u2[0], r))


def rc_reference(data, dels, prior, tol=1e-12) -> float:
    """Bisection oracle on the raw definition of rss_star."""
    minor, e_del, rss = leverage_reference(data, dels)
    lam_max = np.linalg.eigvalsh(minor)[-1]
    r_hi = (1.0 / lam_max if lam_max > 1e-14 else 1e9) - 1e-9
    thr = prior.rss_threshold

    def value(r):
        M = np.eye(dels.size) - r * minor
        return rss - r * e_del @ np.linalg.solve(M, e_del)

    if value(r_hi) > thr:
        return 1.0 / lam_max if lam_max > 1e-14 else math.inf
    lo, hi = 0.0, r_hi
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if value(mid) > thr:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


# --- leverage / rss_star ---------------------------------------------------------


class TestLeverageMinor:
    def test_intercept_only_single_case(self):
        data = RegressionData(design=np.ones((4, 1)), response=[1.0, 2.0, 3.0, 4.0])
        assert spectrum(data, deleted([0]))[0] == pytest.approx(0.25, abs=1e-12)

    def test_singleton_matches_hat_diagonal(self):
        rng = np.random.default_rng(11)
        data = random_regression(rng, 10, 3)
        H = explicit_hat(data)
        for i in range(10):
            assert spectrum(data, deleted([i]))[0] == pytest.approx(H[i, i], abs=1e-10)

    def test_empty_deletion_rejected(self, derived_linear):
        with pytest.raises(ValueError):
            spectrum(derived_linear, deleted([]))

    def test_qr_path_matches_direct(self):
        rng = np.random.default_rng(7)
        data = random_regression(rng, 80, 4)
        H = explicit_hat(data)
        idx = deleted([5, 40, 79])
        Q_del = least_squares_parts(data)[0][idx]
        assert Q_del @ Q_del.T == pytest.approx(H[np.ix_(idx, idx)], abs=1e-10)
        assert spectrum(data, idx) == pytest.approx(
            np.linalg.eigvalsh(H[np.ix_(idx, idx)]), abs=1e-10)

    def test_more_cases_than_columns_match_the_minor_spectrum(self):
        # I = 5 > k = 3: the spectrum comes from the Gram side, padded with zeros
        rng = np.random.default_rng(12)
        data = random_regression(rng, 20, 3)
        dels = deleted([0, 3, 7, 11, 19])
        Q_del = least_squares_parts(data)[0][dels]
        minor = Q_del @ Q_del.T
        lam = spectrum(data, dels)
        assert minor.shape == (5, 5)
        assert np.allclose(lam, np.linalg.eigvalsh(minor), rtol=0.0, atol=1e-12)
        assert np.all(lam[:2] == 0.0)


class TestRssStar:
    def test_derived_example_formula(self, derived_linear, delete_last_of_4):
        # rss_star(r) = 5 - 2.25 r / (1 - 0.25 r)
        for r in (0.5, 1.2, 2.0, 3.0):
            expect = 5.0 - 2.25 * r / (1.0 - 0.25 * r)
            for rss_star in (kernel_rss_star, rss_star_reference):
                assert rss_star(derived_linear, delete_last_of_4, r) == pytest.approx(
                    expect, abs=1e-12)

    def test_refit_identity_at_r1(self, derived_linear, delete_last_of_4):
        val = kernel_rss_star(derived_linear, delete_last_of_4, 1.0)
        assert val == pytest.approx(2.0, abs=1e-12)
        assert val == pytest.approx(refit_rss(derived_linear, delete_last_of_4), rel=1e-12)

    def test_zero_deleted_residual_constant(self):
        # case 4 fits exactly: response equals the deleted-point prediction
        data = RegressionData(design=np.ones((4, 1)), response=[1.0, 2.0, 3.0, 2.0])
        dels = deleted([3])
        base = kernel_rss_star(data, dels, 0.0)
        for r in (0.5, 1.0, 2.0, 3.0):
            assert kernel_rss_star(data, dels, r) == pytest.approx(base, abs=1e-12)

    def test_r_zero_is_rss(self, derived_linear, delete_last_of_4):
        assert kernel_rss_star(derived_linear, delete_last_of_4, 0.0) == pytest.approx(
            5.0, abs=1e-12)

    def test_kernel_matches_explicit_hat_oracle(self):
        rng = np.random.default_rng(22)
        for _ in range(20):
            data = random_regression(rng, 12, 3)
            I = int(rng.integers(1, 6))  # sets of more than k = 3 cases take the Gram side
            dels = deleted(rng.choice(12, size=I, replace=False))
            r_a = 1.0 / spectrum(data, dels)[-1]
            for r in rng.uniform(0.0, 0.95 * r_a, 5):
                want = rss_star_reference(data, dels, float(r))
                assert kernel_rss_star(data, dels, float(r)) == pytest.approx(
                    want, rel=1e-9, abs=1e-10)

    def test_monotone_decreasing_in_r(self):
        rng = np.random.default_rng(21)
        for _ in range(10):
            data = random_regression(rng, 12, 3)
            dels = deleted(rng.choice(12, size=2, replace=False))
            r_hi = 1.0 / spectrum(data, dels)[-1]
            grid = np.linspace(0.01, r_hi * 0.98, 40)
            vals = [kernel_rss_star(data, dels, float(r)) for r in grid]
            diffs = np.diff(vals)
            assert np.all(diffs <= 1e-9)
            if np.linalg.norm(leverage_reference(data, dels)[1]) > 1e-8:
                assert np.all(diffs < 0)


class TestRefitIdentityPropertySuite:
    def test_refit_and_pd_equivalence_random(self):
        """rss_star(1) equals case-deleted least-squares RSS, and the two
        positive-definiteness tests agree, over many random instances."""
        rng = np.random.default_rng(915)
        checked = 0
        while checked < 250:
            n = int(rng.integers(4, 31))
            k = int(rng.integers(1, min(6, n - 1)))
            I = int(rng.integers(1, 4))
            if n - I <= k:
                continue
            data = random_regression(rng, n, k)
            dels = deleted(rng.choice(n, size=I, replace=False))
            lam_max = spectrum(data, dels)[-1]
            if lam_max > 1.0 - 1e-6:
                continue
            val = kernel_rss_star(data, dels, 1.0)
            oracle = refit_rss(data, dels)
            assert val == pytest.approx(oracle, rel=1e-8, abs=1e-10)
            # spectrum-based vs tilted-Gram positive definiteness
            r = float(rng.uniform(1.01, 3.0))
            Xi = data.design[dels]
            G = data.design.T @ data.design - r * Xi.T @ Xi
            lam_G = np.linalg.eigvalsh((G + G.T) / 2.0)
            pd_via_minor = lam_max < 1.0 / r
            if abs(lam_max - 1.0 / r) > 1e-9:
                assert pd_via_minor == bool(lam_G[0] > 0)
            checked += 1

    def test_hat_trace_and_eigen_range(self):
        rng = np.random.default_rng(34)
        for _ in range(25):
            n = int(rng.integers(3, 31))
            k = int(rng.integers(1, min(6, n)))
            data = random_regression(rng, n, k)
            H = explicit_hat(data)
            assert np.trace(H) == pytest.approx(k, abs=1e-10)
            I = int(rng.integers(1, min(4, n + 1)))
            dels = deleted(rng.choice(n, size=I, replace=False))
            lam = spectrum(data, dels)
            assert np.all(lam >= -1e-12)
            assert np.all(lam <= 1.0 + 1e-12)


# --- verdicts ---------------------------------------------------------------------


class TestTheorem31Verdict:
    def test_derived_finite_at_1p2(self, derived_linear, delete_last_of_4):
        v = verdict_at(derived_linear, delete_last_of_4, 1.2, NONINF)
        assert v.is_finite

    def test_derived_infinite_at_2(self, derived_linear, delete_last_of_4):
        v = verdict_at(derived_linear, delete_last_of_4, 2.0, NONINF)
        assert v.tag is VerdictTag.INFINITE
        assert "rss_star" in v.detail

    def test_leverage_dominates_residual(self):
        rng = np.random.default_rng(8)
        # single high-leverage point: duplicate direction with one far x
        X = np.vstack([rng.standard_normal((9, 2)), [50.0, 0.0]])
        y = X @ [1.0, -1.0] + rng.standard_normal(10)
        data = RegressionData(design=X, response=y)
        dels = deleted([9])
        lam = spectrum(data, dels)[-1]
        r = 2.0 / lam  # guarantees lambda > 1/r
        v = verdict_at(data, dels, r, NONINF)
        assert v.tag is VerdictTag.INFINITE
        assert "leverage" in v.detail

    def test_sample_size_equality_is_infinite(self):
        # conjugate: n/2 + alpha == r I/2 must land infinite, not boundary;
        # the deleted case carries negligible leverage so the size condition
        # is the one that fires
        data = RegressionData(design=[[1.0], [2.0], [3.0], [0.01]],
                              response=[1.0, 2.0, 3.0, 0.0])
        dels = deleted([3])
        prior = conj(1.0, 1e6)
        r = (4 + 2 * 1.0) / 1  # n/2 + alpha = rI/2 exactly
        v = verdict_at(data, dels, r, prior)
        assert v.tag is VerdictTag.INFINITE
        assert "sample size" in v.detail

    def test_boundary_at_leverage(self, derived_linear, delete_last_of_4):
        v = verdict_at(derived_linear, delete_last_of_4, 4.0, NONINF)
        assert v.tag.value == "boundary"

    def test_boundary_band_at_residual(self, derived_linear, delete_last_of_4):
        # rss_star(r) = 5 - 2.25 r / (1 - 0.25 r) crosses 0 at r = 10/7 with
        # slope about -5.4: 2e-11 away it is ~1e-10 from 0, inside the
        # 1e-9 * RSS band; 1e-6 away it is outside
        root = 10.0 / 7.0
        for r in (root - 2e-11, root, root + 2e-11):
            v = verdict_at(derived_linear, delete_last_of_4, r, NONINF)
            assert (v.tag.value, v.detail) == ("boundary", "rss_star at the prior threshold")
        assert verdict_at(derived_linear, delete_last_of_4, root - 1e-6, NONINF).is_finite
        v = verdict_at(derived_linear, delete_last_of_4, root + 1e-6, NONINF)
        assert v.tag is VerdictTag.INFINITE

    def test_verdict_monotone_in_r(self):
        rng = np.random.default_rng(99)
        for _ in range(8):
            data = random_regression(rng, 12, 2)
            dels = deleted(rng.choice(12, size=2, replace=False))
            seen_infinite = False
            for r in np.linspace(1.05, 5.0, 30):
                v = verdict_at(data, dels, float(r), NONINF)
                if seen_infinite and v.tag is not VerdictTag.INFINITE:
                    pytest.fail(f"verdict flipped back to {v.tag} at r={r}")
                seen_infinite = seen_infinite or v.tag is VerdictTag.INFINITE


class TestMomentIndexLinear:
    def test_derived_cutoffs(self, derived_linear, delete_last_of_4):
        rep = index_of(derived_linear, delete_last_of_4, NONINF)
        assert rep.r_a == pytest.approx(4.0, abs=1e-10)
        assert rep.r_b == pytest.approx(3.0, abs=1e-12)
        assert rep.r_c == pytest.approx(10.0 / 7.0, abs=1e-9)
        assert rep.r_star == pytest.approx(10.0 / 7.0, abs=1e-9)
        assert rep.binding == "residual"

    def test_bisection_matches_reference(self):
        rng = np.random.default_rng(17)
        for _ in range(10):
            data = random_regression(rng, 15, 3)
            dels = deleted(rng.choice(15, size=2, replace=False))
            for prior in (NONINF, conj(0.5, 2.0)):
                rep = index_of(data, dels, prior)
                assert rep.r_c == pytest.approx(rc_reference(data, dels, prior), abs=1e-6)

    def test_zero_leverage_residual_root(self):
        # the deleted row is zero, so H_del = 0 and rss_star(r) = rss - r e^2
        # is linear in r: r_c is its root rss / e^2
        X = np.array([[1.0], [2.0], [3.5], [0.0]])
        y = np.array([1.0, 2.0, 3.0, 2.0])
        data = RegressionData(design=X, response=y)
        coef, *_ = np.linalg.lstsq(X, y, rcond=None)
        e = y - X @ coef
        rep = index_of(data, deleted([3]), NONINF)
        assert math.isinf(rep.r_a)
        assert rep.r_c == pytest.approx(float(e @ e) / e[3] ** 2, rel=1e-12)
        assert rep.r_c < rep.r_b
        assert rep.binding == "residual"

    def test_zero_leverage_zero_residual(self):
        # deleted case with zero covariate row and exact-zero residual:
        # only the sample-size cut-off binds
        X = np.array([[1.0], [2.0], [3.0], [0.0]])
        y = np.array([1.0, 2.0, 3.0, 0.0])
        data = RegressionData(design=X, response=y)
        dels = deleted([3])
        rep = index_of(data, dels, NONINF)
        assert math.isinf(rep.r_a)
        assert math.isinf(rep.r_c)
        assert rep.r_star == rep.r_b
        assert rep.binding == "sample-size"
        # r_c = inf is no boundary, however far r lies below it
        assert verdict_at(data, dels, 2.0, NONINF) == MomentVerdict.finite()
        assert verdict_at(data, dels, 3.0, NONINF).detail == "sample size: n <= r*I + k"

    def test_huge_beta_approaches_noninformative(self, derived_linear, delete_last_of_4):
        base = index_of(derived_linear, delete_last_of_4, NONINF).r_c
        last = None
        for beta in (1e3, 1e6):
            rc = index_of(derived_linear, delete_last_of_4, conj(1e-9, beta)).r_c
            assert rc > base  # threshold -2/beta < 0 always lets r_c exceed the flat case
            if last is not None:
                assert abs(rc - base) < abs(last - base)
            last = rc
        assert last == pytest.approx(base, abs=1e-4)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(44)
        data = random_regression(rng, 12, 3)
        dels = deleted([1, 5, 8])
        rep = index_of(data, dels, NONINF)
        perm = rng.permutation(12)
        data2 = RegressionData(design=data.design[perm], response=data.response[perm])
        mapped = [int(np.where(perm == i)[0][0]) for i in (1, 5, 8)]
        rep2 = index_of(data2, deleted(mapped), NONINF)
        for field in ("r_a", "r_b", "r_c", "r_star"):
            assert getattr(rep, field) == pytest.approx(getattr(rep2, field), abs=1e-12)

    def test_response_scaling_noninformative(self):
        rng = np.random.default_rng(45)
        data = random_regression(rng, 10, 2)
        dels = deleted([0, 4])
        rep = index_of(data, dels, NONINF)
        for c in (0.5, 3.0, 100.0):
            scaled = RegressionData(design=data.design, response=c * data.response)
            rep2 = index_of(scaled, dels, NONINF)
            assert rep2.r_a == pytest.approx(rep.r_a, rel=1e-10)
            assert rep2.r_b == rep.r_b
            assert rep2.r_c == pytest.approx(rep.r_c, rel=1e-7)

    def test_response_scaling_conjugate_moves_rc_only(self):
        rng = np.random.default_rng(46)
        data = random_regression(rng, 10, 2)
        dels = deleted([3])
        prior = conj(1.0, 0.5)
        rep = index_of(data, dels, prior)
        scaled = RegressionData(design=data.design, response=10.0 * data.response)
        rep2 = index_of(scaled, dels, prior)
        assert rep2.r_a == pytest.approx(rep.r_a, rel=1e-10)
        assert rep2.r_b == rep.r_b
        assert rep2.r_c != pytest.approx(rep.r_c, rel=1e-6)


# --- the r_c root finder on synthetic spectra ---------------------------------------


def rc_brentq(lam, u2, rss, thr) -> float:
    """Independent oracle for r_c of one spectrum: Brent's method on the raw
    rss_star(r) - threshold, summed with math.fsum, on (0, hi] below r_a."""
    def excess(r):
        return rss - r * math.fsum(u2 / (1.0 - r * lam)) - thr

    if lam[-1] <= 1e-14:
        if u2.sum() <= 1e-24 * max(1.0, rss):
            return math.inf
        hi = 2.0 * (rss - thr) / u2.sum()  # rss_star is close to linear in r
    else:
        r_a = 1.0 / lam[-1]
        hi = min(r_a - 1e-9, r_a * (1.0 - 1e-12))
        if u2.sum() <= 1e-24 * max(1.0, rss) or excess(hi) > 0:
            return r_a
    return brentq(excess, 0.0, hi, xtol=1e-300, rtol=4.0 * np.finfo(float).eps, maxiter=500)


def bisection_cutoff(lam, u2, rss, thr):
    """The vectorized 100-step bisection that r_c was found with before, kept
    as an oracle: r_c of every set whose root lies below r_a."""
    r_a = 1.0 / lam[:, -1]
    lo, hi = np.zeros(len(lam)), np.minimum(r_a - 1e-9, r_a * (1.0 - 1e-12))
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        above = rss - mid * np.sum(u2 / (1.0 - mid[:, None] * lam), axis=1) - thr > 0
        lo, hi = np.where(above, mid, lo), np.where(above, hi, mid)
    return 0.5 * (lo + hi)


def synthetic_spectra(rng, case: str, N: int = 400, I: int = 4):
    """(lam, u2, rss) for N sets of I deletions; `case` shapes the top of
    the spectrum."""
    lam = np.sort(rng.uniform(0.0, 0.95, (N, I)) ** rng.uniform(0.3, 3.0, (N, 1)), axis=1)
    rss = 50.0
    u2 = rss * rng.dirichlet(np.ones(I), N) * rng.uniform(0.05, 1.0, (N, 1))
    if case == "tiny top u2":
        u2[:, -1] *= 10.0 ** rng.uniform(-24, -8, N)
    elif case == "zero top u2":
        u2[:, -1] = 0.0
    elif case == "repeated eigenvalues":
        lam[:, -2] = lam[:, -1]
        lam[: N // 2, 0] = lam[: N // 2, 1]
    elif case == "r_a infinite":
        lam[:] = 0.0
        lam[: N // 2, -1] = 10.0 ** rng.uniform(-18, -14.5, N // 2)
    return lam, u2, rss


ROOT_CASES = ["generic", "tiny top u2", "zero top u2", "repeated eigenvalues", "r_a infinite"]


class TestCutoffRoot:
    @pytest.mark.parametrize("case", ROOT_CASES)
    @pytest.mark.parametrize("prior", [NONINF, conj(0.5, 0.2)], ids=["flat", "conjugate"])
    def test_matches_brent_oracle(self, case, prior):
        # a run that reached the sweep limit would have raised
        rng = np.random.default_rng(ROOT_CASES.index(case))
        lam, u2, rss = synthetic_spectra(rng, case)
        r_a, _, r_c = linear_gate._cutoffs(lam, u2, rss, 40, 3, prior)
        thr = prior.rss_threshold
        expected = np.array([rc_brentq(lam[i], u2[i], rss, thr) for i in range(len(lam))])
        assert np.all((r_c == expected) | (np.abs(r_c - expected) <= 1e-10 * expected))
        if case != "r_a infinite":
            assert np.mean(r_c < r_a) > 0.4  # the root search is reached, not only r_a

    @pytest.mark.parametrize("case", ROOT_CASES[:4])
    def test_r_c_sits_at_the_computed_sign_change(self, case):
        rng = np.random.default_rng(10 + ROOT_CASES.index(case))
        lam, u2, rss = synthetic_spectra(rng, case)
        r_a, _, r_c = linear_gate._cutoffs(lam, u2, rss, 40, 3, NONINF)
        root = r_c < r_a
        lam, u2, r_c = lam[root], u2[root], r_c[root]

        def above(r):
            return rss - r * np.sum(u2 / (1.0 - r[:, None] * lam), axis=1) > 0

        # r_c is one of the two adjacent floats around the sign change
        at_lo = above(r_c) & ~above(np.nextafter(r_c, np.inf))
        at_hi = above(np.nextafter(r_c, 0.0)) & ~above(r_c)
        assert np.all(at_lo | at_hi)

    @pytest.mark.parametrize("prior", [NONINF, conj(2.0, 0.001)], ids=["flat", "conjugate"])
    def test_equals_old_bisection_on_feigl_zelen_triples(self, prior):
        data = feigl_zelen("linear")
        Q, e, rss = least_squares_parts(data)
        lam, u2 = leverage_minor(Q, e, np.array(list(combinations(range(33), 3))))
        r_a, _, r_c = linear_gate._cutoffs(lam, u2, rss, data.n, data.k, prior)
        root = r_c < r_a
        assert root.sum() > 1000
        old = bisection_cutoff(lam[root], u2[root], rss, prior.rss_threshold)
        assert np.array_equal(r_c[root], old)

    def test_sweep_limit_raises(self, monkeypatch):
        lam, u2, rss = synthetic_spectra(np.random.default_rng(3), "tiny top u2")
        monkeypatch.setattr(linear_gate, "_ROOT_MAX_SWEEPS", 1)
        with pytest.raises(RuntimeError, match="did not settle"):
            linear_gate._cutoffs(lam, u2, rss, 40, 3, NONINF)


# --- the spectra from the Gram side -------------------------------------------------


def minor_spectra(Q, e, idx):
    """The I x I form of the spectra, kept as an oracle for the Gram side:
    eigenpairs of the symmetrised minors Q_del Q_del' and the squared deleted
    residuals in each eigenbasis."""
    Q_del = Q[idx]
    minors = Q_del @ np.swapaxes(Q_del, 1, 2)
    minors = (minors + np.swapaxes(minors, 1, 2)) / 2.0
    lam, V = np.linalg.eigh(minors)
    return lam, np.einsum("nij,ni->nj", V, e[idx]) ** 2


def assert_matches_minor_oracle(data, idx, prior):
    """r_a and r_c from the spectra agree with those from the I x I oracle
    within 1e-12 relative, r_b exactly, and so do the Thm 3.1 verdicts."""
    Q, e, rss = least_squares_parts(data)
    n, k = data.n, data.k
    lam, u2 = leverage_minor(Q, e, idx)
    lam_o, u2_o = minor_spectra(Q, e, idx)
    assert lam.shape == u2.shape == idx.shape
    got = linear_gate._cutoffs(lam, u2, rss, n, k, prior)
    want = linear_gate._cutoffs(lam_o, u2_o, rss, n, k, prior)
    for name, g, w in zip(("r_a", "r_b", "r_c"), got, want):
        assert np.array_equal(np.isinf(g), np.isinf(w)), name
        fin = np.isfinite(w)
        assert np.all(np.abs(g[fin] - w[fin]) <= 1e-12 * np.abs(w[fin])), name
    assert np.array_equal(got[1], want[1])
    for r in (1.5, 2.0, 3.0):
        assert (theorem31_verdict(MomentIndexReport.of(idx, *got), r, prior)
                == theorem31_verdict(MomentIndexReport.of(idx, *want), r, prior))


class TestGramSpectra:
    @pytest.mark.parametrize("prior", [NONINF, conj(2.0, 0.001)], ids=["flat", "conjugate"])
    def test_matches_minor_oracle_on_feigl_zelen(self, prior):
        data = feigl_zelen("linear")
        rng = np.random.default_rng(13)
        assert_matches_minor_oracle(data, np.array(list(combinations(range(33), 4))), prior)
        for size in (5, 6):
            idx = np.sort(np.argsort(rng.random((2000, 33)), axis=1)[:, :size], axis=1)
            assert_matches_minor_oracle(data, idx, prior)

    @pytest.mark.parametrize("size", [1, 2, 3])
    def test_at_most_k_cases_is_the_minor_arithmetic(self, size):
        # gate, estimate and verify outputs for these sets stay byte-identical
        data = feigl_zelen("linear")
        Q, e, _ = least_squares_parts(data)
        idx = np.array(list(combinations(range(33), size)))
        lam, u2 = leverage_minor(Q, e, idx)
        lam_o, u2_o = minor_spectra(Q, e, idx)
        assert np.array_equal(lam, lam_o) and np.array_equal(u2, u2_o)

    @pytest.mark.parametrize("prior", [NONINF, conj(2.0, 0.001)], ids=["flat", "conjugate"])
    def test_rank_deficient_feigl_zelen_set(self, prior):
        # cases 15, 16, 17, 32 and 33 all have wbc = 100: their design rows
        # span 2 of 3 dimensions, so the Gram matrix of the set and of each
        # of its 4-subsets is singular
        data = feigl_zelen("linear")
        cases = np.array([15, 16, 17, 32, 33]) - 1
        assert np.all(data.design[cases, 1] == data.design[cases[0], 1])
        Q, e, _ = least_squares_parts(data)
        with np.errstate(all="raise"):
            lam, _ = leverage_minor(Q, e, cases[None, :])
            assert np.count_nonzero(lam) == 2
            assert_matches_minor_oracle(data, cases[None, :], prior)
            assert_matches_minor_oracle(data, np.array(list(combinations(cases, 4))), prior)

    def test_rank_one_deletion_set(self):
        # every deleted row is the same, so Q_del has rank 1
        rng = np.random.default_rng(14)
        X = rng.standard_normal((15, 3))
        X[[2, 5, 8, 9, 13]] = X[2]
        data = RegressionData(design=X, response=X @ [1.0, -2.0, 0.5] + rng.standard_normal(15))
        idx = np.array([[2, 5, 8, 9, 13]])
        Q, e, _ = least_squares_parts(data)
        with np.errstate(all="raise"):
            lam, _ = leverage_minor(Q, e, idx)
            assert np.count_nonzero(lam) == 1
            for prior in (NONINF, conj(2.0, 0.001)):
                assert_matches_minor_oracle(data, idx, prior)


def reference_cutoffs(data, dels, prior):
    """(r_a, r_b, r_c) from the independent oracles."""
    minor, _, _ = leverage_reference(data, dels)
    r_a = 1.0 / np.linalg.eigvalsh(minor)[-1]
    I = dels.size
    r_b = (data.n - data.k) / I if prior.is_noninformative else (data.n + 2 * prior.alpha) / I
    return r_a, r_b, rc_reference(data, dels, prior)


class TestSubsetScan:
    def test_matches_per_subset_reports(self):
        rng = np.random.default_rng(77)
        data = random_regression(rng, 12, 3)
        for prior in (NONINF, conj(0.5, 2.0)):
            result = scan_deletion_subsets(data, 2, prior)
            assert result.count == math.comb(12, 2)
            assert [tuple(s) for s in result.subsets] == list(combinations(range(12), 2))
            pick = rng.choice(result.count, size=12, replace=False)
            for i in pick:
                dels = deleted(result.subsets[i])
                r_a, r_b, r_c = reference_cutoffs(data, dels, prior)
                assert result.r_a[i] == pytest.approx(r_a, rel=1e-9)
                assert result.r_b[i] == r_b
                assert result.r_c[i] == pytest.approx(r_c, abs=1e-6)
                assert result.r_star[i] == min(result.r_a[i], result.r_b[i], result.r_c[i])
                # rss_star is decreasing and equals the refit RSS at r = 1
                assert (result.r_c[i] > 1.0) == (refit_rss(data, dels) > prior.rss_threshold)
        for size in (0, 13):
            with pytest.raises(ValueError, match="subset size must be in"):
                scan_deletion_subsets(data, size, NONINF)

    @pytest.mark.parametrize("n", [9, 10])
    def test_all_subsets_are_combinations_in_order(self, n):
        for size in range(n + 1):
            sets = all_subsets(n, size)
            assert sets.shape == (math.comb(n, size), size)
            assert sets.dtype == np.min_scalar_type(n)
            assert [tuple(row) for row in sets.tolist()] == list(combinations(range(n), size))

    def test_chunked_kernel_equals_one_chunk(self, monkeypatch):
        # Sizes 1 to 3 diagonalise the I x I minor, 4 and 5 the k x k Gram
        # side; C(12, I) is not a multiple of the chunk size 7 for any I. On
        # two CPUs every chunk, verdict lists included, comes back pickled
        # from a worker process.
        rng = np.random.default_rng(80)
        data = random_regression(rng, 12, 3)
        r_values = (1.5, 2.0, 3.5)
        for prior in (NONINF, conj(0.5, 2.0)):
            for size in range(1, 6):
                sets = all_subsets(12, size)
                whole, whole_verdicts = moment_index_linear(data, sets, r_values, prior)
                for cpus in (1, 2):
                    with monkeypatch.context() as m:
                        m.setattr(linear_gate, "_SCAN_CHUNK", 7)
                        use_cpus(m, cpus)
                        chunked, verdicts = moment_index_linear(data, sets, r_values, prior)
                    for name in ("r_a", "r_b", "r_c"):
                        assert getattr(chunked, name).tobytes() == getattr(whole, name).tobytes()
                    assert chunked.binding.tolist() == whole.binding.tolist()
                    assert verdicts == whole_verdicts and len(verdicts) == len(sets)

    def test_fold_indices_unequal_sizes(self):
        # n = 33 in 5 folds gives sizes 7, 7, 7, 6, 6: one kernel call per size
        rng = np.random.default_rng(79)
        data = random_regression(rng, 33, 3)
        perm = rng.permutation(33)
        folds = [sorted(perm[f::5].tolist()) for f in range(5)]
        assert [len(f) for f in folds] == [7, 7, 7, 6, 6]
        vals = fold_moment_indices(data, folds, NONINF)
        for fold, val in zip(folds, vals):
            dels = deleted(fold)
            assert val == pytest.approx(min(reference_cutoffs(data, dels, NONINF)), abs=1e-6)
            assert val == pytest.approx(index_of(data, dels, NONINF).r_star, abs=1e-12)

    def test_fold_indices_match_singletons(self):
        rng = np.random.default_rng(78)
        data = random_regression(rng, 9, 2)
        folds = [[i] for i in range(9)]
        vals = fold_moment_indices(data, folds, NONINF)
        for i in range(9):
            rep = index_of(data, deleted([i]), NONINF)
            assert vals[i] == pytest.approx(rep.r_star, abs=1e-10)
