import itertools
import math

import numpy as np
import pytest
from scipy import stats

from influence_gate import samplers
from influence_gate.cli import _table_text, write_csv_report
from influence_gate.core_model import BLOCK_ELEMENTS, LogitData, RegressionData
from influence_gate.errors import SamplerError
from influence_gate.families import FAMILIES
from influence_gate.linear_gate import LinearPrior
from influence_gate.samplers import (
    SamplerConfig,
    linear_noninformative_blocks,
    random_walk_metropolis,
    sample_linear_conjugate,
    sample_linear_noninformative,
    sample_logit,
    sample_mm,
)

from conftest import feigl_zelen, random_regression


@pytest.fixture(scope="module")
def lin_data():
    rng = np.random.default_rng(100)
    return random_regression(rng, 25, 3)


def on_tuples(log_density):
    """A log density of an array as the core calls it, on a tuple of floats."""
    return lambda p: log_density(np.array(p))


def _ls_quantities(data):
    X, y = data.design, data.response
    G = np.linalg.inv(X.T @ X)
    theta_hat = G @ (X.T @ y)
    rss = float(np.sum((y - X @ theta_hat) ** 2))
    return G, theta_hat, rss


class TestNoninformativeSampler:
    def test_posterior_mean_matches_ls(self, lin_data):
        res = sample_linear_noninformative(lin_data, SamplerConfig(seed=1, draws=10_000))
        G, theta_hat, rss = _ls_quantities(lin_data)
        n, k = lin_data.n, lin_data.k
        # theta | y has mean theta_hat; 4 MC standard errors of slack
        sigma2_mean = (rss / 2) / ((n - k) / 2 - 1)
        for j in range(k):
            se = math.sqrt(sigma2_mean * G[j, j] / res.draws.shape[0])
            err = abs(res.draws[:, j].mean() - theta_hat[j])
            assert err < 4 * se * 1.6  # t-tail slack on top of the normal SE

    def test_sigma2_mean_matches_inverse_gamma(self, lin_data):
        M = 10_000
        res = sample_linear_noninformative(lin_data, SamplerConfig(seed=2, draws=M))
        n, k = lin_data.n, lin_data.k
        _, _, rss = _ls_quantities(lin_data)
        a, b = (n - k) / 2, rss / 2
        mean = b / (a - 1)
        var = b * b / ((a - 1) ** 2 * (a - 2))
        err = abs(res.draws[:, k].mean() - mean)
        assert err < 4 * math.sqrt(var / M)

    def test_blocked_draws_equal_the_closed_form_bit_for_bit(self):
        """One block of normals and 17 rows more: the in-place, blocked
        fill equals the closed form over all draws from the same stream,
        with theta_hat, the RSS and L = chol((X'X)^{-1}) from X = QR."""
        data = feigl_zelen("linear")
        X, y, n, k = data.design, data.response, data.n, data.k
        M = BLOCK_ELEMENTS // k + 17
        got = sample_linear_noninformative(data, SamplerConfig(seed=7, draws=M)).draws
        Q, R = np.linalg.qr(X)
        theta_hat = np.linalg.solve(R, Q.T @ y)
        e = y - Q @ (Q.T @ y)
        rss = float(e @ e)
        F = np.linalg.qr(np.linalg.solve(R, np.eye(k)).T, mode="r")
        L = (F * np.sign(np.diag(F))[:, None]).T
        np.testing.assert_allclose(L @ L.T, np.linalg.inv(X.T @ X), rtol=1e-12)
        rng = samplers._rng(7)
        sigma2 = (rss / 2.0) / rng.gamma((n - k) / 2.0, 1.0, size=M)
        z = rng.standard_normal((M, k))
        theta = theta_hat + np.sqrt(sigma2)[:, None] * (z @ L.T)
        assert got.shape == (M, k + 1)
        assert got[:, :k].tobytes() == theta.tobytes()
        assert got[:, k].tobytes() == sigma2.tobytes()

    def test_sampled_draws_are_the_streamed_blocks(self):
        """One block of BLOCK_ELEMENTS // k rows and 17 rows more: the
        filled (M, k+1) table equals the streamed blocks joined, bit for bit."""
        data = feigl_zelen("linear")
        config = SamplerConfig(seed=7, draws=BLOCK_ELEMENTS // data.k + 17)
        blocks = list(linear_noninformative_blocks(data, config))
        assert [len(block) for block in blocks] == [BLOCK_ELEMENTS // data.k, 17]
        draws = sample_linear_noninformative(data, config).draws
        assert draws.tobytes() == np.concatenate(blocks).tobytes()

    def test_seed_determinism(self, lin_data):
        cfg = SamplerConfig(seed=77, draws=500)
        a = sample_linear_noninformative(lin_data, cfg).draws
        b = sample_linear_noninformative(lin_data, cfg).draws
        assert np.array_equal(a, b)

    def test_studentized_marginal_ks(self, lin_data):
        """Each studentized coefficient marginal follows its exact posterior
        t distribution; KS at the 1% level with 1e4 draws."""
        M = 10_000
        res = sample_linear_noninformative(lin_data, SamplerConfig(seed=3, draws=M))
        G, theta_hat, rss = _ls_quantities(lin_data)
        n, k = lin_data.n, lin_data.k
        s2 = rss / (n - k)
        for j in range(k):
            t = (res.draws[:, j] - theta_hat[j]) / math.sqrt(s2 * G[j, j])
            stat = stats.kstest(t, stats.t(df=n - k).cdf).statistic
            crit = 1.628 / math.sqrt(M)  # 1% asymptotic KS critical value
            assert stat < crit

    def test_needs_n_above_k(self):
        rng = np.random.default_rng(4)
        data = RegressionData(design=rng.standard_normal((3, 3)), response=rng.standard_normal(3))
        with pytest.raises(SamplerError):
            sample_linear_noninformative(data, SamplerConfig(seed=0, draws=10))


class TestConjugateSampler:
    def test_weak_prior_limit_matches_noninformative(self, lin_data):
        """Vanishing prior precision and alpha -> 0, beta -> inf reproduce
        the flat-prior marginals (two-sample KS below the 1% critical)."""
        M = 10_000
        prior = LinearPrior.conjugate(1e-9, 1e9, np.zeros(lin_data.k), np.eye(lin_data.k) * 1e8)
        gibbs = sample_linear_conjugate(
            lin_data, SamplerConfig(seed=5, draws=M, burn_in=200, thin=5), prior
        )
        iid = sample_linear_noninformative(lin_data, SamplerConfig(seed=6, draws=M))
        k = lin_data.k
        crit = 1.628 * math.sqrt(2.0 / M)
        for j in (0, k):  # first coefficient and sigma2
            stat = stats.ks_2samp(gibbs.draws[:, j], iid.draws[:, j]).statistic
            assert stat < crit

    def test_degenerate_data_concentrates_sigma2(self):
        X = np.column_stack([np.ones(12), np.arange(12.0)])
        theta0 = np.array([1.0, 2.0])
        data = RegressionData(design=X, response=X @ theta0)
        prior = LinearPrior.conjugate(2.0, 1e4, np.zeros(2), np.eye(2) * 100.0)
        res = sample_linear_conjugate(data, SamplerConfig(seed=7, draws=2000, burn_in=100), prior)
        prior_median = 1.0 / (1e4 * stats.gamma(2.0).ppf(0.5))
        assert np.median(res.draws[:, 2]) < prior_median

    def test_seed_determinism(self, lin_data):
        prior = LinearPrior.conjugate(1.0, 1.0, np.zeros(lin_data.k), np.eye(lin_data.k))
        cfg = SamplerConfig(seed=8, draws=200, burn_in=50)
        a = sample_linear_conjugate(lin_data, cfg, prior).draws
        b = sample_linear_conjugate(lin_data, cfg, prior).draws
        assert np.array_equal(a, b)


class TestMHCore:
    def test_detailed_balance_smoke_standard_normal(self):
        rng = np.random.default_rng(9)

        def log_density(x):
            return -0.5 * float(x @ x)

        chain, accepted = random_walk_metropolis(
            on_tuples(log_density), np.zeros(1), np.array([2.4]), 20_000, rng
        )
        xs = chain[2000:, 0]
        B = 32
        batches = np.array_split(xs, B)
        bm = np.array([b.mean() for b in batches])
        se = bm.std(ddof=1) / math.sqrt(B)
        assert abs(xs.mean()) < 4 * se
        assert abs(xs.var() - 1.0) < 0.08
        assert 0.15 < accepted / 20_000 < 0.6

    def test_zero_density_start_rejected(self):
        rng = np.random.default_rng(10)

        def log_density(x):
            return -math.inf

        with pytest.raises(SamplerError):
            random_walk_metropolis(on_tuples(log_density), np.zeros(1), np.array([1.0]), 10, rng)


class TestMMChain:
    @pytest.fixture(scope="class")
    def chain(self, puromycin):
        cfg = SamplerConfig(seed=11, draws=6000, burn_in=2000, thin=2)
        return sample_mm(puromycin, cfg, 1.0)

    def test_sanity_bands(self, chain):
        # plateau velocity near the largest observations; half-saturation
        # where the curve passes through the data (v ~ m/2 at c ~ 0.06)
        m_mean = chain.draws[:, 0].mean()
        kappa_mean = chain.draws[:, 2].mean()
        assert 140.0 <= m_mean <= 220.0
        assert 0.02 <= kappa_mean <= 0.2
        assert np.all(chain.draws[:, 1] > 0)
        assert np.all(chain.draws[:, 2] > 0)

    def test_fitted_curve_tracks_data(self, chain, puromycin):
        m_mean = chain.draws[:, 0].mean()
        kappa_mean = chain.draws[:, 2].mean()
        fitted = m_mean * puromycin.concentration / (kappa_mean + puromycin.concentration)
        rel = np.abs(fitted - puromycin.velocity) / puromycin.velocity
        assert np.median(rel) < 0.2

    def test_acceptance_recorded(self, chain):
        assert 0.05 < chain.acceptance_rate < 0.9

    def test_seed_determinism(self, puromycin):
        cfg = SamplerConfig(seed=12, draws=300, burn_in=200)
        a = sample_mm(puromycin, cfg, 1.0).draws
        b = sample_mm(puromycin, cfg, 1.0).draws
        assert np.array_equal(a, b)

    def test_kappa_scale_must_be_positive(self, puromycin):
        for kappa_scale in (-1.0, 0.0, math.nan):
            with pytest.raises(ValueError):
                sample_mm(puromycin, SamplerConfig(seed=12, draws=10), kappa_scale)

    def test_doubling_scale_lowers_acceptance(self, puromycin):
        base = np.array([5.0, 0.3, 0.3])
        rates = []
        for mult in (1.0, 2.0, 4.0):
            cfg = SamplerConfig(
                seed=13, draws=2000, burn_in=500, proposal_scale=tuple(base * mult)
            )
            rates.append(sample_mm(puromycin, cfg, 1.0).acceptance_rate)
        assert rates[0] > rates[1] > rates[2]


class TestLogitChain:
    def test_prior_dominates_without_information(self):
        # one nearly flat observation: the posterior is close to the Laplace
        # prior of rate 2, centred at 0 with mean absolute value 1/2
        data = LogitData(design=[[0.001]], outcome=[1])
        res = sample_logit(data, SamplerConfig(seed=14, draws=8000, burn_in=2000), 2.0)
        se = math.sqrt(0.5 / 8000) * 6  # prior variance 2/rate^2; autocorrelation slack
        assert abs(res.draws[:, 0].mean()) < 4 * se
        assert abs(np.abs(res.draws[:, 0]).mean() - 0.5) < 0.05

    def test_1d_posterior_mean_matches_quadrature(self):
        from scipy.integrate import quad

        data = LogitData(design=[[1.0], [1.0], [1.0]], outcome=[1, 0, 1])
        epsilon = 0.7

        def unnorm(b):
            ll = 2 * (b - math.log1p(math.exp(b))) - math.log1p(math.exp(b))
            return math.exp(ll - epsilon * abs(b))

        z0, _ = quad(unnorm, -30, 30, points=[0.0], limit=300)
        z1, _ = quad(lambda b: b * unnorm(b), -30, 30, points=[0.0], limit=300)
        target = z1 / z0
        res = sample_logit(data, SamplerConfig(seed=15, draws=20_000, burn_in=3000), epsilon)
        bm = np.array([c.mean() for c in np.array_split(res.draws[:, 0], 32)])
        se = bm.std(ddof=1) / math.sqrt(32)
        assert abs(res.draws[:, 0].mean() - target) < 4 * se

    def test_separable_with_proper_prior_stable(self):
        data = LogitData(design=[[-1.0], [1.0]], outcome=[0, 1])
        res = sample_logit(data, SamplerConfig(seed=16, draws=5000, burn_in=1000), 0.5)
        assert np.all(np.isfinite(res.draws))
        assert abs(res.draws[:, 0].mean()) < 20.0

    def test_seed_determinism(self):
        data = LogitData(design=[[1.0], [-0.5], [0.25]], outcome=[1, 0, 1])
        cfg = SamplerConfig(seed=17, draws=400, burn_in=100)
        assert np.array_equal(
            sample_logit(data, cfg, 0.5).draws, sample_logit(data, cfg, 0.5).draws
        )


class TestDrawExport:
    def test_csv_roundtrip_columns(self, tmp_path, puromycin):
        res = sample_mm(puromycin, SamplerConfig(seed=18, draws=50, burn_in=100), 1.0)
        out = tmp_path / "draws.csv"
        names = FAMILIES["mm"].columns(puromycin)
        # Column blocks, as `estimate` writes draws.csv.
        write_csv_report(out, names, [_table_text(names, list(res.draws.T))[0]])
        header = out.read_text().splitlines()[0]
        assert header == "m,sigma2,kappa"
        body = np.loadtxt(out, delimiter=",", skiprows=1)
        assert np.array_equal(body, res.draws)


# --- bit-identity against the per-step Metropolis loop ------------------------------
#
# The oracles below are the straightforward forms of the sampler's hot path:
# a loop that indexes the pre-drawn noise and uniforms and writes one chain row
# per step, and numpy log densities that rebuild every constant and prior array
# on each call. The lean core must reproduce the loop bit for bit, and the
# samplers' chains must be those of the loop run on the oracle densities.


def oracle_random_walk_metropolis(log_density, x0, scale, steps, rng):
    x = np.array(x0, dtype=float)
    d = x.shape[0]
    lp = log_density(x)
    if not np.isfinite(lp):
        raise SamplerError("initial point has zero density")
    chain = np.empty((steps, d))
    accepted = 0
    noise = rng.standard_normal((steps, d)) * scale
    logu = np.log(rng.random(steps))
    for i in range(steps):
        prop = x + noise[i]
        lp_prop = log_density(prop)
        if lp_prop - lp > logu[i]:
            x, lp = prop, lp_prop
            accepted += 1
        chain[i] = x
    return chain, accepted


def oracle_mm_density(data, kappa_scale):
    c, v = data.concentration, data.velocity
    half_dof, half_scale = 3.0, kappa_scale
    n = data.n

    def log_density(p):
        m, u, w = p
        if m <= 0:
            return -math.inf
        sigma2 = math.exp(u)
        kappa = math.exp(w)
        x = c / (kappa + c)
        res = v - m * x
        loglik = -0.5 * n * (math.log(2.0 * math.pi) + u) - float(res @ res) / (2.0 * sigma2)
        log_kappa_prior = (
            -0.5 * (half_dof + 1.0) * math.log1p((kappa / half_scale) ** 2 / half_dof) + w
        )
        return loglik + log_kappa_prior

    return log_density


def oracle_logit_density(data, epsilon):
    X, y = data.design, data.outcome

    def log_density(beta):
        z = X @ beta
        loglik = float(np.sum(z * y - np.logaddexp(0.0, z)))
        # the Laplace log density of location 0 and scale 1/epsilon
        return loglik - float(np.sum(np.abs(beta))) / (1.0 / epsilon)

    return log_density


# Laplace prior rates; 0.7 is one where dividing by the scale 1/epsilon and
# multiplying by epsilon give different last bits.
LAPLACE_RATES = (1.0, 0.7, 0.3, 2.0, 0.4)
LAPLACE_IDS = [f"laplace-{i}" for i in range(len(LAPLACE_RATES))]
CHAIN_CONFIGS = {
    "adaptive": dict(draws=1500),
    "fixed-scale": dict(draws=1500, burn_in=100),
    "burn-in-thin": dict(draws=500, burn_in=333, thin=3),
}
FIXED_SCALES = {"mm": (5.0, 0.3, 0.3), "logit": (0.5, 0.3, 0.4)}


@pytest.fixture(scope="module")
def fz_logit():
    return feigl_zelen("logit")


def run_with_oracles(monkeypatch, oracle_density, sample, *args):
    """`sample(*args)` with the per-step loop and the oracle density in
    place of the sampler's own; the start point and the warm-up are shared."""
    run_mh = samplers._run_mh
    with monkeypatch.context() as patch:
        patch.setattr(samplers, "random_walk_metropolis", oracle_random_walk_metropolis)
        patch.setattr(samplers, "_run_mh", lambda _density, x0, config, dim:
                      run_mh(oracle_density, x0, config, dim))
        return sample(*args)


class _Target(Exception):
    pass


def mh_target(sample, *args):
    """The log density that `sample(*args)` hands to the core."""
    def capture(density, *_):
        raise _Target(density)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(samplers, "_run_mh", capture)
        with pytest.raises(_Target) as caught:
            sample(*args)
    return caught.value.args[0]


def assert_same_chain(result, oracle):
    assert np.array_equal(result.draws, oracle.draws)
    assert result.acceptance_rate == oracle.acceptance_rate
    assert np.array_equal(result.proposal_scale, oracle.proposal_scale)


def chain_config(model, seed, name):
    scale = FIXED_SCALES[model] if name == "fixed-scale" else None
    return SamplerConfig(seed=seed, proposal_scale=scale, **CHAIN_CONFIGS[name])


class TestMetropolisBitIdentity:
    @pytest.mark.parametrize("name", CHAIN_CONFIGS)
    @pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
    def test_mm_chain_equals_per_step_loop(self, monkeypatch, puromycin, seed, name):
        kappa_scale = 0.7
        config = chain_config("mm", seed, name)
        oracle = run_with_oracles(monkeypatch, oracle_mm_density(puromycin, kappa_scale),
                                  sample_mm, puromycin, config, kappa_scale)
        assert_same_chain(sample_mm(puromycin, config, kappa_scale), oracle)

    @pytest.mark.parametrize("name", CHAIN_CONFIGS)
    @pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
    def test_logit_chain_equals_per_step_loop(self, monkeypatch, fz_logit, seed, name):
        epsilon = LAPLACE_RATES[seed % 3]
        config = chain_config("logit", seed, name)
        oracle = run_with_oracles(monkeypatch, oracle_logit_density(fz_logit, epsilon),
                                  sample_logit, fz_logit, config, epsilon)
        assert_same_chain(sample_logit(fz_logit, config, epsilon), oracle)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_core_equals_loop_on_a_half_space_support(self, seed):
        def log_density(x):
            return -0.5 * float(x @ x) if x[0] > 0 else -math.inf

        args = (log_density, np.array([1.0, 0.0]), np.array([1.5, 0.7]), 3000)
        chain, accepted = random_walk_metropolis(
            on_tuples(log_density), *args[1:], np.random.default_rng(seed))
        expected, expected_accepted = oracle_random_walk_metropolis(
            *args, np.random.default_rng(seed))
        assert np.array_equal(chain, expected)
        assert accepted == expected_accepted
        assert 0 < accepted < 3000 and np.all(chain[:, 0] > 0)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_core_rejects_a_nan_density_as_the_loop_does(self, seed):
        """A density that is NaN where x[0] < -0.5 (as 0 * inf is) rejects
        every proposal there."""
        def log_density(x):
            return -0.5 * float(x @ x) if x[0] >= -0.5 else math.nan

        args = (log_density, np.array([1.0, 0.0]), np.array([1.5, 0.7]), 3000)
        noise = np.random.default_rng(seed).standard_normal((3000, 2)) * args[2]
        chain, accepted = random_walk_metropolis(
            on_tuples(log_density), *args[1:], np.random.default_rng(seed))
        expected, expected_accepted = oracle_random_walk_metropolis(
            *args, np.random.default_rng(seed))
        assert np.array_equal(chain, expected)
        assert accepted == expected_accepted
        assert 0 < accepted < 3000 and np.all(chain[:, 0] >= -0.5)
        # Proposals from the held states into the NaN region: all rejected.
        held = np.vstack([args[1], chain[:-1]])
        assert np.sum((held + noise)[:, 0] < -0.5) > 100

    def test_core_equals_loop_without_an_acceptance(self):
        def log_density(x):
            return 0.0 if x[0] == 1.0 else -math.inf

        args = (log_density, np.array([1.0, 2.0]), np.array([1.0, 1.0]), 500)
        chain, accepted = random_walk_metropolis(
            on_tuples(log_density), *args[1:], np.random.default_rng(6))
        expected, _ = oracle_random_walk_metropolis(*args, np.random.default_rng(6))
        assert accepted == 0
        assert np.array_equal(chain, expected)
        assert np.array_equal(chain, np.tile([1.0, 2.0], (500, 1)))

    @pytest.mark.parametrize("epsilon", LAPLACE_RATES, ids=LAPLACE_IDS)
    def test_prior_closure_equals_per_call_prior(self, fz_logit, epsilon):
        """The sampler's log density, with its prior scale made once, equals
        one that makes the scale on each call, bit for bit, at points far off
        any chain."""
        density = mh_target(sample_logit, fz_logit, SamplerConfig(seed=7, draws=1), epsilon)
        X = fz_logit.design
        xty = (X.T @ fz_logit.outcome).tolist()

        def per_call(beta):
            log_sum = float(np.add.reduce(np.logaddexp(0.0, X @ beta)))
            linear = l1 = 0.0
            for b, column in zip(beta, xty):
                linear += b * column
                l1 += abs(b)
            return linear - log_sum - l1 / (1.0 / epsilon)

        for beta in LOGIT_SPREAD:
            assert density(np.array(beta)) == per_call(np.array(beta))


# --- the densities against the numpy oracles ------------------------------------------
#
# Each sampler's log density sums in Python floats where its oracle calls numpy,
# so the two differ by rounding. The bounds below are proven ones for that
# difference, with a factor of two to spare; u = eps / 2 is the unit roundoff.

EPS = np.finfo(float).eps


def mm_bound(data, kappa_scale, p) -> float:
    """(2n + 8) eps M, M = |A| + B + |C|, for A = -n/2 (log 2 pi + u),
    B = rss / (2 sigma2) and C the kappa-prior term. Both densities compute
    the same r_i, A and C; each sum of the n nonnegative r_i^2, in any order
    and with or without FMA, is within gamma_n = n u / (1 - n u) of the true
    sum, and the two roundings of (A - B) + C add at most 2 u M to each, so
    the densities differ by at most (n + 3) eps M to first order."""
    m, u, w = p
    c, v = data.concentration, data.velocity
    res = v - m * (c / (math.exp(w) + c))
    a = -0.5 * data.n * (math.log(2.0 * math.pi) + u)
    b = float(res @ res) / (2.0 * math.exp(u))
    prior = -2.0 * math.log1p((math.exp(w) / kappa_scale) ** 2 / 3.0) + w
    return (2 * data.n + 8) * EPS * (abs(a) + b + abs(prior))


def logit_bound(data, epsilon, beta) -> float:
    """2 (n + 2k + 7) eps (M + L + P), M = sum_j |beta_j| sum_i |x_ij|, L the
    log-sum and P the prior term. Any order of computing z = X beta is within
    gamma_k of it per row, which moves sum z_i y_i (y is 0/1) and, log(1 + e^z)
    being 1-Lipschitz, L by at most k u M each; X'y is within gamma_n per
    column, its dot with beta adds k u M; each logaddexp is within 4 u of its
    value, each sum of n terms within gamma_n of its absolute sum, and
    |beta|_1 / scale within (k + 1) u P."""
    X = data.design
    n, k = X.shape
    beta = np.asarray(beta)
    mass = float(np.abs(beta) @ np.abs(X).sum(axis=0))
    log_sum = float(np.sum(np.logaddexp(0.0, X @ beta)))
    prior = float(np.sum(np.abs(beta))) / (1.0 / epsilon)
    return 2 * (n + 2 * k + 7) * EPS * (mass + log_sum + prior)


def evaluated_points(monkeypatch, sample, *args) -> list:
    """(point, density value) at every point the chain's log density sees."""
    run_mh = samplers._run_mh
    seen = []

    def recording(density):
        def recorded(p):
            value = density(p)
            seen.append((p, value))
            return value

        return recorded

    with monkeypatch.context() as patch:
        patch.setattr(samplers, "_run_mh", lambda density, *rest:
                      run_mh(recording(density), *rest))
        sample(*args)
    return seen


def assert_within_bound(point, value, bound, exact):
    if exact == -math.inf:
        assert value == -math.inf, point
    else:
        assert abs(value - exact) <= bound, point


def mm_expected(oracle, density, p):
    """The oracle density at p; where the oracle raises (exp or the kappa
    prior's square overflows, or sigma2 underflows to 0), the sampler's
    density must give -inf."""
    try:
        return oracle(np.array(p))
    except (OverflowError, ZeroDivisionError):
        assert density(p) == -math.inf, p
        return -math.inf


def assert_mm_within_bound(data, kappa_scale, p, value, expected):
    bound = 0.0 if expected == -math.inf else mm_bound(data, kappa_scale, p)
    assert_within_bound(p, value, bound, expected)


MM_EXTREMES = list(itertools.product(
    (-1.0, 0.0, 1e-300, 160.0, 1e6),
    (-744.0, -700.0, -50.0, 0.0, 4.6, 50.0, 700.0, 709.5),
    (-744.0, -700.0, -3.0, 0.0, 300.0, 354.0, 355.0, 700.0),
))
LOGIT_EXTREMES = list(itertools.product(
    (0.0, -1e-8, 3.0, -40.0, 1e3), (0.0, 1e-8, -3.0, 40.0, -1e3), (0.0, -3.0, 40.0, 1e3)))
# Points far off any chain, on scales that differ by a factor of 50.
LOGIT_SPREAD = [tuple(beta) for beta in
                np.random.default_rng(7).standard_normal((200, 3)) * np.array([1.0, 5.0, 0.1])]


class TestScreenBound:
    """Each density is held to the error bound its float-level form carried
    when it screened the numpy density: within the bound of the oracle on a
    chain and at extreme points, and -inf wherever the oracle is."""

    @pytest.mark.parametrize("kappa_scale", [0.7, 2.0])
    def test_mm_screen_within_bound_on_a_chain(self, monkeypatch, puromycin, kappa_scale):
        config = SamplerConfig(seed=1, draws=5000, proposal_scale=(60.0, 1.0, 1.0))
        density = mh_target(sample_mm, puromycin, config, kappa_scale)
        oracle = oracle_mm_density(puromycin, kappa_scale)
        seen = evaluated_points(monkeypatch, sample_mm, puromycin, config, kappa_scale)
        assert len(seen) == 1 + config.draws
        for p, value in seen:
            assert_mm_within_bound(puromycin, kappa_scale, p, value,
                                   mm_expected(oracle, density, p))

    @pytest.mark.parametrize("kappa_scale", [0.7, 2.0])
    def test_mm_screen_within_bound_at_extreme_points(self, puromycin, kappa_scale):
        density = mh_target(sample_mm, puromycin, SamplerConfig(seed=1, draws=1), kappa_scale)
        oracle = oracle_mm_density(puromycin, kappa_scale)
        for p in MM_EXTREMES:
            assert_mm_within_bound(puromycin, kappa_scale, p, density(p),
                                   mm_expected(oracle, density, p))

    @pytest.mark.parametrize("p", [(100.0, 800.0, 0.0), (100.0, -800.0, 0.0), (100.0, 0.0, 800.0)])
    def test_mm_density_is_minus_inf_beyond_the_float_range(self, puromycin, p):
        """exp(800) overflows and exp(-800) is 0; the density tends to -inf
        along each axis, so the step is rejected rather than raising."""
        density = mh_target(sample_mm, puromycin, SamplerConfig(seed=1, draws=1), 1.0)
        assert density(p) == -math.inf

    @pytest.mark.parametrize("epsilon", LAPLACE_RATES, ids=LAPLACE_IDS)
    def test_logit_screen_within_bound_on_a_chain(self, monkeypatch, fz_logit, epsilon):
        config = SamplerConfig(seed=4, draws=2000, proposal_scale=(2.0, 1e-4, 1.0))
        oracle = oracle_logit_density(fz_logit, epsilon)
        seen = evaluated_points(monkeypatch, sample_logit, fz_logit, config, epsilon)
        assert len(seen) == 1 + config.draws
        for p, value in seen:
            assert_within_bound(p, value, logit_bound(fz_logit, epsilon, p),
                                oracle(np.array(p)))

    @pytest.mark.parametrize("epsilon", LAPLACE_RATES, ids=LAPLACE_IDS)
    def test_logit_screen_within_bound_at_extreme_points(self, fz_logit, epsilon):
        density = mh_target(sample_logit, fz_logit, SamplerConfig(seed=1, draws=1), epsilon)
        oracle = oracle_logit_density(fz_logit, epsilon)
        for p in LOGIT_EXTREMES + LOGIT_SPREAD:
            assert_within_bound(p, density(p), logit_bound(fz_logit, epsilon, p),
                                oracle(np.array(p)))
