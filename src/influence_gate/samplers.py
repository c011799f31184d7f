"""Posterior draw generation for the three model families.

The linear samplers are exact (i.i.d. composition or Gibbs with exact full
conditionals); the nonlinear models use a shared random-walk Metropolis core
with a short adaptive warm-up that freezes the proposal scales before any
retained draw.

Each Metropolis target is one log density of a tuple of Python floats,
evaluated in Python floats where numpy calls would cost more than the
arithmetic: the MM density calls no BLAS, and logit's `X @ beta` is its one
BLAS call. Determinism is per seed on a single platform, since that product
follows the BLAS kernel's summation order and use of FMA.
"""

import math
import operator
from dataclasses import dataclass

import numpy as np

from .core_model import BLOCK_ELEMENTS, LogitData, MMData, RegressionData
from .errors import SamplerError
from .linear_gate import LinearPrior, least_squares

# Adaptive warm-up targets this acceptance rate, +/- 0.1.
TARGET_ACCEPTANCE = 0.3
_WARMUP_BLOCKS = 30
_WARMUP_BLOCK_SIZE = 100
# Rows of pre-drawn noise turned into Python floats at a time.
_BLOCK_ROWS = 64

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


def linear_noninformative_blocks(data: RegressionData, config: SamplerConfig):
    """i.i.d. draws from the flat-prior posterior, as an iterator of row
    blocks of (theta, sigma2), in draw order.

    sigma2 is inverse gamma with shape (n-k)/2 and rate RSS/2; theta given
    sigma2 is normal around the least-squares solution with covariance
    sigma2 (X'X)^{-1}. Being i.i.d., burn_in and thin are ignored.

    The set-up runs on the call: the fit X = QR (`least_squares`) and all M
    gammas, drawn into one M-vector and turned into sigma2 in place. The
    normals then follow as the iterator is read, one fresh (rows, k+1)
    block of BLOCK_ELEMENTS // k rows at a time, with each block's
    theta_hat + sqrt(sigma2) * (z @ L.T) made in place; the sigma2 vector is
    freed with the iterator. The stream order is that of one (M, k) normal
    draw after the gammas. L is the Cholesky factor of (X'X)^{-1} =
    R^{-1}R^{-T}, the transposed R factor of qr(R^{-T}) with its columns
    signed to a positive diagonal, so X'X is never formed.

    An RSS that is not a positive normal float is a SamplerError.
    """
    n, k = data.n, data.k
    if n <= k:
        raise SamplerError(f"flat prior needs n > k; got n={n}, k={k}")
    _, R, theta_hat, e, p = least_squares(data)
    scaled = float(e @ e)
    with np.errstate(over="ignore"):
        rss = float(np.ldexp(scaled, 2 * p))
    if not np.finfo(float).tiny <= rss < math.inf:
        way = "underflows" if rss < 1.0 else "overflows"
        raise SamplerError(f"flat prior: the RSS {scaled!r} x 2^{2 * p} {way} the normal float "
                           "range in the response's units, so sigma2 cannot be drawn")
    F = np.linalg.qr(np.linalg.solve(R, np.eye(k)).T, mode="r")
    L = (F * np.copysign(1.0, np.diag(F))[:, None]).T
    rng = _rng(config.seed)
    sigma2 = rng.gamma((n - k) / 2.0, 1.0, size=config.draws)
    np.divide(rss / 2.0, sigma2, out=sigma2)
    return _normal_blocks(rng, sigma2, theta_hat, L)


def _normal_blocks(rng, sigma2, theta_hat, L):
    k = theta_hat.size
    rows = max(1, BLOCK_ELEMENTS // k)
    for start in range(0, sigma2.size, rows):
        scale = sigma2[start:start + rows]
        block = np.empty((scale.size, k + 1))
        theta = rng.standard_normal((scale.size, k)) @ L.T
        theta *= np.sqrt(scale)[:, None]
        theta += theta_hat
        block[:, :k] = theta
        block[:, k] = scale
        yield block


def sample_linear_noninformative(data: RegressionData, config: SamplerConfig) -> SampleResult:
    """The (M, k+1) draws of `linear_noninformative_blocks`, filled a block
    at a time into one array allocated up front."""
    draws = np.empty((config.draws, data.k + 1))
    start = 0
    for block in linear_noninformative_blocks(data, config):
        draws[start:start + len(block)] = block
        start += len(block)
    return SampleResult(draws=draws, acceptance_rate=1.0)


def sample_linear_conjugate(
    data: RegressionData, config: SamplerConfig, prior: LinearPrior
) -> SampleResult:
    """Gibbs chain with exact full conditionals under a normal-theta,
    inverse-gamma-sigma2 prior (beta is the inverse rate, matching the
    -2/beta residual threshold).

    The chain starts at sigma2 = RSS/(n - k) of `least_squares` (1 if 0).
    An X'X or X'y that overflows, or a precision with no Cholesky factor,
    is a SamplerError."""
    if prior.is_noninformative:
        raise ValueError("use sample_linear_noninformative for the flat prior")
    X, y = data.design, data.response
    n, k = data.n, data.k
    prec0 = np.linalg.inv(np.atleast_2d(prior.theta_cov))
    prec0_mu0 = prec0 @ prior.theta_mean.ravel()
    with np.errstate(over="ignore", invalid="ignore"):
        XtX, Xty = X.T @ X, X.T @ y
    if not (np.all(np.isfinite(XtX)) and np.all(np.isfinite(Xty))):
        raise SamplerError("conjugate prior: X'X or X'y overflows the float range")
    rng = _rng(config.seed)
    _, _, _, e, p = least_squares(data)
    with np.errstate(over="ignore"):
        sigma2 = float(np.ldexp(float(e @ e), 2 * p)) / max(n - k, 1) or 1.0
    total = config.burn_in + config.draws * config.thin
    out = np.empty((config.draws, k + 1))
    kept = 0
    prior_rate = 1.0 / prior.beta
    for it in range(total):
        prec = XtX / sigma2 + prec0
        try:
            L = np.linalg.cholesky(prec)
        except np.linalg.LinAlgError as exc:
            raise SamplerError(f"conjugate prior: X'X/sigma2 + the prior precision: {exc}") from None
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


def random_walk_metropolis(log_density, x0, scale, steps, rng) -> tuple:
    """Shared RW-Metropolis core; returns (chain, acceptance count).

    Every proposal increment and every uniform is drawn from `rng` up front,
    so the random stream does not depend on which proposals are accepted.
    The loop therefore only decides; chain row i is the state held after
    step i, exactly as a loop writing one row per step would leave it. A
    held state is written once, as one slice, when it is left and at the end.

    The state is a tuple of Python floats, and the noise and log-uniforms
    are turned into lists `_BLOCK_ROWS` rows at a time. A step is accepted
    iff log_density(prop) - log_density(x) > log_u, so a proposal whose
    density is -inf or NaN is rejected.
    """
    x = tuple(np.asarray(x0, dtype=float).tolist())
    d = len(x)
    lp = log_density(x)
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
            lp_prop = log_density(prop)
            if lp_prop - lp > log_u:
                chain[held:i] = x
                x, lp, held = prop, lp_prop, i
                accepted += 1
    chain[held:] = x
    return chain, accepted


def _adaptive_scale(log_density, x0, init_scale, rng):
    """Short warm-up tuning the proposal scales toward 0.3 acceptance:
    (scales, last warm-up state). After each block of _WARMUP_BLOCK_SIZE
    steps, one common factor, exp of the acceptance gap clamped to
    [-0.5, 0.5], multiplies every coordinate's scale, so the ratios of
    `init_scale` are kept; it stops once the block's acceptance is within
    0.1 of the target or after _WARMUP_BLOCKS blocks."""
    scale = np.array(init_scale, dtype=float)
    x = np.array(x0, dtype=float)
    for _ in range(_WARMUP_BLOCKS):
        chain, acc = random_walk_metropolis(log_density, x, scale, _WARMUP_BLOCK_SIZE, rng)
        x = chain[-1]
        rate = acc / _WARMUP_BLOCK_SIZE
        scale *= math.exp(min(max(rate - TARGET_ACCEPTANCE, -0.5), 0.5))
        if abs(rate - TARGET_ACCEPTANCE) <= 0.1:
            break
    return scale, x


def _run_mh(log_density, x0, config: SamplerConfig, dim: int) -> SampleResult:
    rng = _rng(config.seed)
    if config.proposal_scale is not None:
        scale = np.asarray(config.proposal_scale, dtype=float)
        if scale.shape != (dim,):
            raise ValueError(f"proposal_scale must have length {dim}")
        if np.any(scale <= 0):
            raise ValueError("proposal scales must be positive")
        start = np.array(x0, dtype=float)
    else:
        scale, start = _adaptive_scale(log_density, x0, np.full(dim, 0.5), rng)
    total = config.burn_in + config.draws * config.thin
    chain, accepted = random_walk_metropolis(log_density, start, scale, total, rng)
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
    tends to -inf (u -> +-inf, w -> +inf); the density returns -inf there,
    so the step is rejected. The residual sum of squares is summed over the
    n cases in order, in Python floats.
    """
    if not kappa_scale > 0:
        raise ValueError("kappa_scale must be positive")
    c, v = data.concentration, data.velocity
    half_dof, half_scale = KAPPA_PRIOR_DOF, kappa_scale
    n = data.n

    log_2pi = math.log(2.0 * math.pi)
    kappa_power = -0.5 * (half_dof + 1.0)
    exp, log1p = math.exp, math.log1p
    half_n = -0.5 * n
    pairs = tuple(zip(c.tolist(), v.tolist()))

    def log_density(p):
        m, u, w = p
        if m <= 0:
            return -math.inf
        try:
            sigma2 = exp(u)
            kappa = exp(w)
            rss = 0.0
            for ci, vi in pairs:
                r = vi - m * (ci / (kappa + ci))
                rss += r * r
            loglik = half_n * (log_2pi + u) - rss / (2.0 * sigma2)
            # 1/sigma2 prior plus the d(sigma2)/du Jacobian cancel; kappa keeps
            # the half-t density and its Jacobian.
            return loglik + (kappa_power * log1p((kappa / half_scale) ** 2 / half_dof) + w)
        except (OverflowError, ZeroDivisionError):
            return -math.inf

    m0 = float(np.max(v)) * 1.1
    kappa0 = float(np.median(c))
    x0 = c / (kappa0 + c)
    res0 = v - m0 * x0
    s0 = max(float(res0 @ res0) / n, 1e-6)
    start = np.array([m0, math.log(s0), math.log(kappa0)])
    result = _run_mh(log_density, start, config, 3)
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

    The log density is beta . (X'y) - sum_i log(1 + e^{z_i}) - |beta|_1 / scale
    with z = X beta and X'y made once. Only z and the sum over the n cases
    run in numpy; the two sums over the k coefficients run in Python floats.
    """
    X, y = data.design, data.outcome
    k = X.shape[1]
    # Divided by the scale 1/epsilon, not multiplied by epsilon: at some
    # rates (0.7) the two differ in the last bit, and the seeded outputs in
    # perfbench/reference were recorded with the division.
    scale = 1.0 / epsilon
    add, logaddexp = np.add.reduce, np.logaddexp
    xty = (X.T @ y).tolist()
    softplus = np.empty(X.shape[0])

    def log_density(beta):
        log_sum = float(add(logaddexp(0.0, X @ beta, out=softplus)))
        linear = l1 = 0.0
        for b, column in zip(beta, xty):
            linear += b * column
            l1 += abs(b)
        return linear - log_sum - l1 / scale

    start = np.zeros(k)
    return _run_mh(log_density, start, config, k)
