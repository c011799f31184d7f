"""Posterior draw generation for the three model families.

The linear samplers are exact (i.i.d. composition or Gibbs with exact full
conditionals); the nonlinear models use a shared random-walk Metropolis core
with a short adaptive warm-up that freezes the proposal scales before any
retained draw.

Each Metropolis target is a pair: the exact log density and a screen,
`screen(p) -> (value, bound)`, a cheaper evaluation in Python floats with a
proven |value - exact(p)| <= bound. The core decides each step from the
screen values and calls the exact density, at both points, only when the
screened difference lies within the two bounds of the log-uniform. Every
accept/reject decision is therefore the one the exact density alone gives,
and so is every draw; this is the exact form of the cheap first stage of
delayed-acceptance MCMC (Christen & Fox 2005, JCGS 14), which leaves the
chain unchanged.

Determinism is per seed on a single platform. The exact MM density's
`res @ res` follows the BLAS kernel's summation order and use of FMA, so
draws are reproducible per platform, as before.
"""

import math
import operator
from dataclasses import dataclass

import numpy as np

from .core_model import LogitData, MMData, RegressionData
from .errors import SamplerError
from .linear_gate import LinearPrior

# Adaptive warm-up targets this acceptance rate, +/- 0.1.
TARGET_ACCEPTANCE = 0.3
_WARMUP_BLOCKS = 30
_WARMUP_BLOCK_SIZE = 100
# Rows of pre-drawn noise turned into Python floats at a time.
_BLOCK_ROWS = 64
_EPS = 2.0 ** -52  # float64 machine epsilon

# Degrees of freedom of the half-t prior on MM kappa; 3 gives it a finite mean.
KAPPA_PRIOR_DOF = 3.0


@dataclass(frozen=True)
class SamplerConfig:
    seed: int
    draws: int
    burn_in: int = 0
    thin: int = 1
    proposal_scale: tuple | None = None

    def __post_init__(self):
        if self.draws < 1:
            raise ValueError("draws must be at least 1")
        if self.thin < 1:
            raise ValueError("thin must be at least 1")
        if self.burn_in < 0:
            raise ValueError("burn_in must be nonnegative")


@dataclass(frozen=True)
class SampleResult:
    draws: np.ndarray
    acceptance_rate: float
    proposal_scale: np.ndarray | None = None


def _rng(seed: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(0,)))


def sample_linear_noninformative(data: RegressionData, config: SamplerConfig) -> SampleResult:
    """i.i.d. draws from the flat-prior posterior.

    sigma2 is inverse gamma with shape (n-k)/2 and rate RSS/2; theta given
    sigma2 is normal around the least-squares solution with covariance
    sigma2 (X'X)^{-1}. Being i.i.d., burn_in and thin are ignored.
    """
    n, k = data.n, data.k
    if n <= k:
        raise SamplerError(f"flat prior needs n > k; got n={n}, k={k}")
    X, y = data.design, data.response
    G = np.linalg.inv(X.T @ X)
    theta_hat = G @ (X.T @ y)
    yy = float(y @ y)
    rss = yy - float(theta_hat @ (X.T @ y))
    if not rss > 4.0 * n * np.finfo(float).eps * yy:  # within the subtraction's rounding error
        raise SamplerError(f"flat prior: RSS {rss:.3g} is within rounding error of 0 "
                           f"(y'y = {yy:.6g}); the design fits the response almost exactly")
    rng = _rng(config.seed)
    M = config.draws
    shape, rate = (n - k) / 2.0, rss / 2.0
    sigma2 = rate / rng.gamma(shape, 1.0, size=M)
    L = np.linalg.cholesky(G)
    z = rng.standard_normal((M, k))
    theta = theta_hat[None, :] + np.sqrt(sigma2)[:, None] * (z @ L.T)
    return SampleResult(draws=np.column_stack([theta, sigma2]), acceptance_rate=1.0)


def sample_linear_conjugate(
    data: RegressionData, config: SamplerConfig, prior: LinearPrior
) -> SampleResult:
    """Gibbs chain with exact full conditionals under a normal-theta,
    inverse-gamma-sigma2 prior (beta is the inverse rate, matching the
    -2/beta residual threshold)."""
    if prior.is_noninformative:
        raise ValueError("use sample_linear_noninformative for the flat prior")
    X, y = data.design, data.response
    n, k = data.n, data.k
    prec0 = np.linalg.inv(np.atleast_2d(prior.theta_cov))
    prec0_mu0 = prec0 @ prior.theta_mean.ravel()
    XtX, Xty = X.T @ X, X.T @ y
    rng = _rng(config.seed)
    theta_hat = np.linalg.solve(XtX, Xty)
    sigma2 = float(np.sum((y - X @ theta_hat) ** 2) / max(n - k, 1))
    if sigma2 <= 0:
        sigma2 = 1.0
    theta = theta_hat.copy()
    total = config.burn_in + config.draws * config.thin
    out = np.empty((config.draws, k + 1))
    kept = 0
    prior_rate = 1.0 / prior.beta
    for it in range(total):
        prec = XtX / sigma2 + prec0
        L = np.linalg.cholesky(prec)
        mean = np.linalg.solve(prec, Xty / sigma2 + prec0_mu0)
        z = rng.standard_normal(k)
        theta = mean + np.linalg.solve(L.T, z)
        resid = y - X @ theta
        shape = prior.alpha + n / 2.0
        rate = prior_rate + float(resid @ resid) / 2.0
        sigma2 = rate / rng.gamma(shape, 1.0)
        if it >= config.burn_in and (it - config.burn_in) % config.thin == 0:
            out[kept, :k] = theta
            out[kept, k] = sigma2
            kept += 1
    return SampleResult(draws=out[:kept], acceptance_rate=1.0)


def random_walk_metropolis(log_density, screen, x0, scale, steps, rng) -> tuple:
    """Shared RW-Metropolis core; returns (chain, acceptance count).

    Every proposal increment and every uniform is drawn from `rng` up front,
    so the random stream does not depend on which proposals are accepted.
    The loop therefore only decides; chain row i is the state held after
    step i, exactly as a loop writing one row per step would leave it. A
    held state is written once, as one slice, when it is left and at the end.

    The state is a tuple of Python floats, and the noise and log-uniforms
    are turned into lists `_BLOCK_ROWS` rows at a time. A step is accepted
    when exact(prop) - exact(x) > log_u. With screen values v', v and bounds
    b', b, let diff = (v' - v) - log_u as computed. If diff > b' + b the
    step is accepted and if diff < -(b' + b) rejected; otherwise, and
    whenever diff or the bounds are NaN, the exact density decides at both
    points. The screens' bounds include the rounding of diff and of the
    exact test itself, so each decision is the exact one, and with the same
    noise and uniforms the chain is, bit for bit, the one the exact density
    alone gives. A screen value of -inf (bound 0) rejects, as the exact -inf
    does.
    """
    x = tuple(np.asarray(x0, dtype=float).tolist())
    d = len(x)
    lp, bound = screen(x)
    if not math.isfinite(lp):
        raise SamplerError("initial point has zero density")
    chain = np.empty((steps, d))
    accepted = held = 0
    noise = rng.standard_normal((steps, d)) * scale
    logu = np.log(rng.random(steps))
    for start in range(0, steps, _BLOCK_ROWS):
        stop = start + _BLOCK_ROWS
        block = zip(range(start, steps), noise[start:stop].tolist(), logu[start:stop].tolist())
        for i, step, log_u in block:
            prop = tuple(map(operator.add, x, step))
            lp_prop, bound_prop = screen(prop)
            diff = lp_prop - lp - log_u
            margin = bound_prop + bound
            # Beyond the margin the screen decides; within it, or on a NaN,
            # the exact density does.
            if diff > margin or (not diff < -margin and (
                    log_density(np.array(prop)) - log_density(np.array(x)) > log_u)):
                chain[held:i] = x
                x, lp, bound, held = prop, lp_prop, bound_prop, i
                accepted += 1
    chain[held:] = x
    return chain, accepted


def _adaptive_scale(log_density, screen, x0, init_scale, rng):
    """Short warm-up tuning per-coordinate scales toward 0.3 acceptance."""
    scale = np.array(init_scale, dtype=float)
    x = np.array(x0, dtype=float)
    for _ in range(_WARMUP_BLOCKS):
        chain, acc = random_walk_metropolis(
            log_density, screen, x, scale, _WARMUP_BLOCK_SIZE, rng)
        x = chain[-1]
        rate = acc / _WARMUP_BLOCK_SIZE
        scale *= math.exp(min(max(rate - TARGET_ACCEPTANCE, -0.5), 0.5))
        if abs(rate - TARGET_ACCEPTANCE) <= 0.1:
            break
    return scale, x


def _run_mh(log_density, screen, x0, config: SamplerConfig, dim: int) -> SampleResult:
    rng = _rng(config.seed)
    if config.proposal_scale is not None:
        scale = np.asarray(config.proposal_scale, dtype=float)
        if scale.shape != (dim,):
            raise ValueError(f"proposal_scale must have length {dim}")
        if np.any(scale <= 0):
            raise ValueError("proposal scales must be positive")
        start = np.array(x0, dtype=float)
    else:
        scale, start = _adaptive_scale(log_density, screen, x0, np.full(dim, 0.5), rng)
    total = config.burn_in + config.draws * config.thin
    chain, accepted = random_walk_metropolis(log_density, screen, start, scale, total, rng)
    if total >= 10_000 and accepted == 0:
        raise SamplerError("zero acceptance over 10^4 proposals; retune proposal scales")
    kept = chain[config.burn_in::config.thin][: config.draws]
    return SampleResult(
        draws=kept, acceptance_rate=accepted / total, proposal_scale=scale
    )


def sample_mm(data: MMData, config: SamplerConfig, kappa_scale: float) -> SampleResult:
    """Random-walk Metropolis on (m, log sigma2, log kappa).

    The target is the flat 1/sigma2 prior on (m, sigma2) restricted to
    positives, times a half-t prior on kappa (KAPPA_PRIOR_DOF degrees of
    freedom, scale `kappa_scale` > 0), times the Gaussian likelihood;
    the log transforms carry their Jacobians so the chain moves on an
    unconstrained scale for the two positive nuisance axes. Where exp(u) or
    exp(w) overflows, sigma2 underflows to 0 or the kappa prior's square
    overflows, the point lies far out in a tail along which the density
    tends to -inf (u -> +-inf, w -> +inf); both the density and its screen
    return -inf there, so the step is rejected.

    The screen repeats the density's per-element operations exactly
    (kappa + c, c / (...), m * x, v - ...) and differs only in summing r^2
    sequentially in Python where `res @ res` runs a BLAS dot. With
    A = -n/2 (log 2 pi + u), B = rss / (2 sigma2), C the kappa-prior term,
    M = |A| + B + |C| and u = eps/2: each sum of the n nonnegative r^2, in
    any order and with or without FMA, is within gamma_n = n u / (1 - n u)
    of the true sum; 2 sigma2 is exact, so the two Bs differ by at most
    2 (n + 1) u B to first order. A, C and the r_i are the same floats in
    both; the two roundings of (A - B) + C add at most 2 u M to each. So
    |screen - exact| <= (n + 3) eps M. The accept test compares
    diff = fl(fl(v' - v) - log_u) with the bounds, while the exact test is
    fl(L' - L) > log_u; these roundings add at most eps M per point (the
    one of diff is relative to diff itself, so the size of log_u does not
    enter).
    The bound (2n + 8) eps M doubles the first-order total of (n + 4) eps M,
    which covers the second-order terms and the rounding of the bound.
    """
    if not kappa_scale > 0:
        raise ValueError("kappa_scale must be positive")
    if data.n < 3:
        raise SamplerError("need at least 3 observations")
    c, v = data.concentration, data.velocity
    half_dof, half_scale = KAPPA_PRIOR_DOF, kappa_scale
    n = data.n

    log_2pi = math.log(2.0 * math.pi)
    kappa_power = -0.5 * (half_dof + 1.0)
    exp, log1p = math.exp, math.log1p
    half_n = -0.5 * n
    pairs = tuple(zip(c.tolist(), v.tolist()))
    slack = (2 * n + 8) * _EPS

    def log_density(p):
        m, u, w = p.tolist()
        if m <= 0:
            return -math.inf
        try:
            sigma2 = exp(u)
            kappa = exp(w)
            x = c / (kappa + c)
            res = v - m * x
            loglik = -0.5 * n * (log_2pi + u) - float(res @ res) / (2.0 * sigma2)
            # 1/sigma2 prior plus the d(sigma2)/du Jacobian cancel; kappa keeps
            # the half-t density and its Jacobian.
            return loglik + (kappa_power * log1p((kappa / half_scale) ** 2 / half_dof) + w)
        except (OverflowError, ZeroDivisionError):
            return -math.inf

    def screen(p):
        m, u, w = p
        if m <= 0:
            return -math.inf, 0.0
        try:
            sigma2 = exp(u)
            kappa = exp(w)
            rss = 0.0
            for ci, vi in pairs:
                r = vi - m * (ci / (kappa + ci))
                rss += r * r
            a = half_n * (log_2pi + u)
            b = rss / (2.0 * sigma2)
            prior = kappa_power * log1p((kappa / half_scale) ** 2 / half_dof) + w
        except (OverflowError, ZeroDivisionError):
            return -math.inf, 0.0
        return a - b + prior, slack * (abs(a) + b + abs(prior))

    m0 = float(np.max(v)) * 1.1
    kappa0 = float(np.median(c))
    x0 = c / (kappa0 + c)
    res0 = v - m0 * x0
    s0 = max(float(res0 @ res0) / n, 1e-6)
    start = np.array([m0, math.log(s0), math.log(kappa0)])
    result = _run_mh(log_density, screen, start, config, 3)
    draws = result.draws.copy()
    draws[:, 1] = np.exp(draws[:, 1])
    draws[:, 2] = np.exp(draws[:, 2])
    return SampleResult(
        draws=draws,
        acceptance_rate=result.acceptance_rate,
        proposal_scale=result.proposal_scale,
    )


def sample_logit(data: LogitData, config: SamplerConfig, epsilon: float) -> SampleResult:
    """Random-walk Metropolis on beta under the zero-centred Laplace prior
    of rate epsilon, the density exp(-epsilon * |beta|_1) up to a constant.

    The screen is beta . (X'y) - sum_i log(1 + e^{z_i}) - |beta|_1 / scale
    with z = X beta: three numpy calls where the density makes seven. With
    M = sum_j |beta_j| sum_i |x_ij|, L the log-sum and P the prior term, and
    u = eps/2: any order of computing z is within gamma_k of X beta per row,
    which moves sum z_i y_i (y is 0/1) and, log(1 + e^z) being 1-Lipschitz,
    L by at most k u M each; X'y is within gamma_n per column, the dot with
    beta adds k u M; each logaddexp is within 4 u of its value, each sum of
    n terms within gamma_n of its absolute sum, and |beta|_1 / scale within
    (k + 1) u P. Summed over density and screen, with their final
    subtractions, |screen - exact| <= (n + 2k + 6) eps (M + L + P) to first
    order; the decision's roundings add eps (M + L + P) per point (see
    `sample_mm`). The bound 2 (n + 2k + 7) eps (M + L + P) doubles that.
    """
    X, y = data.design, data.outcome
    n, k = X.shape
    # Divided by the scale 1/epsilon, not multiplied by epsilon: at some
    # rates (0.7) the two differ in the last bit, and the seeded outputs in
    # perfbench/reference were recorded with the division.
    scale = 1.0 / epsilon
    add, logaddexp, absolute = np.add.reduce, np.logaddexp, np.abs

    def log_density(beta):
        z = X @ beta
        return float(add(z * y - logaddexp(0.0, z))) - float(add(absolute(beta))) / scale

    columns = tuple(zip((X.T @ y).tolist(), absolute(X).sum(axis=0).tolist()))
    slack = 2 * (n + 2 * k + 7) * _EPS
    softplus = np.empty(n)

    def screen(beta):
        log_sum = float(add(logaddexp(0.0, X @ beta, out=softplus)))
        linear = l1 = mass = 0.0
        for b, (xty, col_abs) in zip(beta, columns):
            linear += b * xty
            size = abs(b)
            l1 += size
            mass += size * col_abs
        prior = l1 / scale
        return linear - log_sum - prior, slack * (mass + log_sum + prior)

    start = np.zeros(k)
    return _run_mh(log_density, screen, start, config, k)
