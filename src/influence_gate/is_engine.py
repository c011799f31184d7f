"""Deletion weights, self-normalized estimation, and gated influence measures.

All weight arithmetic happens in log space with a single max-shift pass;
every measure below is a function of the normalized weights w_m / R_hat, so
estimates are invariant to constant shifts of the log weights (CPO is the
exception: it needs the exact deleted-case likelihood).
"""

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import logsumexp

from .core_model import DeletionSet, MomentIndexReport
from .errors import DegenerateSampleError
from .families import FAMILIES, family
from .prior_tails import ThetaPriorSpec

MEASURES = ("kl", "l1", "l2", "delta1", "delta2", "hellinger", "chisq", "cpo", "bdd")

# Weight moments needed for a CLT per measure; strict excess is required.
# The KL entry carries the "two plus a little" convention explicitly.
KL_DELTA = 1e-6
REQUIRED_MOMENTS = {
    "kl": 2.0 + KL_DELTA,
    "l1": 2.0,
    "l2": 4.0,
    "delta1": 2.0,
    "delta2": 2.0,
    "hellinger": 2.0,
    "chisq": 4.0,
    "cpo": 2.0,
    "bdd": 2.0,
}
# Measures whose CLT additionally needs the function-adjusted prior to be
# integrable.
ADJUSTED_REQUIRED = frozenset({"l1", "l2", "delta1", "delta2"})

SE_BATCHES = 32


@dataclass(frozen=True)
class WeightedSample:
    """Posterior draws with unnormalized log deletion weights; the draw
    columns are the ones `families.FAMILIES[model].columns` names."""

    model: str
    draws: np.ndarray
    log_weights: np.ndarray

    def __post_init__(self):
        draws = np.atleast_2d(np.asarray(self.draws, dtype=float))
        lw = np.asarray(self.log_weights, dtype=float).ravel()
        if draws.shape[0] != lw.shape[0]:
            raise ValueError("draws and log_weights must have equal length")
        if not np.all(np.isfinite(lw)):
            raise ValueError("log weights must be finite")
        if self.model not in FAMILIES:
            raise ValueError(f"unknown model tag {self.model!r}")
        object.__setattr__(self, "draws", draws)
        object.__setattr__(self, "log_weights", lw)

    @property
    def size(self) -> int:
        return self.log_weights.shape[0]


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


@dataclass(frozen=True)
class CombinedBound:
    """Moment guarantee for products of prior-swap and deletion weights."""

    r_prior: float
    r_deletion: float
    bound: float = field(default=math.nan)

    def __post_init__(self):
        if not (self.r_prior > 0 and self.r_deletion > 0):
            raise ValueError("both moment counts must be positive")
        expected = combined_bound_value(self.r_prior, self.r_deletion)
        if math.isnan(self.bound):
            object.__setattr__(self, "bound", expected)


def combined_bound_value(r_prior: float, r_deletion: float) -> float:
    if math.isinf(r_prior) and math.isinf(r_deletion):
        return math.inf
    if math.isinf(r_prior):
        return r_deletion
    if math.isinf(r_deletion):
        return r_prior
    return 1.0 / (1.0 / r_prior + 1.0 / r_deletion)


def combined_moment_bound(r_prior: float, r_deletion: float) -> CombinedBound:
    """Harmonic-form lower bound on the moments of the combined weights."""
    return CombinedBound(r_prior=float(r_prior), r_deletion=float(r_deletion))


# --- log weights --------------------------------------------------------------


def log_weight(model: str, draw: np.ndarray, data, dels: DeletionSet):
    """Log of the unnormalized deletion weight at one draw or a batch: the
    negated deleted-case log-likelihood, less the family's constant per
    deleted case.

    Accepts a single parameter point (1-d) or a batch (2-d, one draw per
    row); returns a scalar or a vector accordingly.
    """
    arr = np.asarray(draw, dtype=float)
    loglik = deleted_log_likelihood(model, arr, data, dels)
    out = family(model).log_weight(loglik, dels.cardinality)
    return float(out[0]) if arr.ndim == 1 else out


def deleted_log_likelihood(model: str, draws: np.ndarray, data, dels: DeletionSet):
    """Exact log likelihood of the deleted cases at each draw."""
    fam = family(model)
    if not isinstance(data, fam.data_type):
        raise TypeError(f"{model} model needs {fam.data_type.__name__}")
    draws = np.atleast_2d(np.asarray(draws, dtype=float))
    if dels.cardinality == 0:
        return np.zeros(draws.shape[0])
    return fam.log_likelihood(draws, data, dels.index_array())


# --- estimation ---------------------------------------------------------------


def _weight_parts(log_weights: np.ndarray):
    """Normalized weights w/R_hat and log(R_hat), via one max shift."""
    lw = np.asarray(log_weights, dtype=float).ravel()
    if lw.size == 0:
        raise DegenerateSampleError("no draws")
    m = np.max(lw)
    if not np.isfinite(m):
        raise DegenerateSampleError("all log weights are -inf or non-finite")
    u = np.exp(lw - m)
    mean_u = float(np.mean(u))
    if not mean_u > 0:
        raise DegenerateSampleError("weights underflowed to zero")
    return u / mean_u, float(m) + math.log(mean_u)


def _normalized_weights(log_weights: np.ndarray) -> np.ndarray:
    return _weight_parts(log_weights)[0]


def self_normalized_estimate(sample, g_values) -> float:
    """Weighted mean sum(w g)/sum(w), computed stably in log space."""
    lw = sample.log_weights if isinstance(sample, WeightedSample) else sample
    g = np.asarray(g_values, dtype=float).ravel()
    w = _normalized_weights(lw)
    if w.shape != g.shape:
        raise ValueError("g_values length must match the number of draws")
    return float(np.sum(w * g) / np.sum(w))


@dataclass(frozen=True)
class MeasureAux:
    """Caller-supplied pieces some measures need.

    c_hat and log_q feed the integrated-loss measures; coord picks the
    parameter column for the moment-change measures; g_values is the
    bounded-function payload; deleted_log_lik is the exact deleted-case
    log-likelihood at each draw that CPO needs.
    """

    c_hat: float | None = None
    log_q: np.ndarray | None = None
    coord: int | None = None
    g_values: np.ndarray | None = None
    deleted_log_lik: np.ndarray | None = None


@dataclass(frozen=True)
class GateInputs:
    report: MomentIndexReport
    adjusted_ok: bool | None = None


def _measure_value(measure, lw, draws, aux: MeasureAux):
    w, log_r_hat = _weight_parts(lw)
    M = w.shape[0]
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
        if aux.deleted_log_lik is None:
            raise ValueError("cpo needs aux.deleted_log_lik (exact deleted-case likelihood)")
        ll = np.asarray(aux.deleted_log_lik, dtype=float).ravel()
        value = float(np.exp(math.log(M) - logsumexp(-ll)))
    elif measure == "delta1" or measure == "delta2":
        if aux.coord is None:
            raise ValueError(f"{measure} needs aux.coord (parameter column)")
        th = draws[:, aux.coord]
        power = 1 if measure == "delta1" else 2
        value = float(np.mean((th ** power) * (w - 1.0)))
    elif measure == "l1" or measure == "l2":
        if aux.c_hat is None:
            raise ValueError(f"{measure} needs aux.c_hat (normalizing-constant estimate)")
        if aux.log_q is None:
            raise ValueError(f"{measure} needs aux.log_q (unnormalized posterior at draws)")
        q = np.exp(np.asarray(aux.log_q, dtype=float).ravel())
        if measure == "l1":
            value = float(np.mean(q * w * np.abs(w - 1.0)) / aux.c_hat)
        else:
            value = float(np.mean(q * q * (w - 1.0) ** 2 * w) / aux.c_hat ** 2)
    elif measure == "bdd":
        if aux.g_values is None:
            raise ValueError("bdd needs aux.g_values")
        g = np.asarray(aux.g_values, dtype=float).ravel()
        value = float(np.mean(w * g))
    else:
        raise ValueError(f"unknown measure {measure!r}")
    return value, flags


def estimate_measure(
    sample: WeightedSample,
    measure: str,
    gate_inputs: GateInputs,
    aux: MeasureAux | None = None,
) -> InfluenceEstimate:
    """One influence measure with its CLT gate.

    The estimate itself is always computed; the gate decides whether a
    standard error accompanies it. The gate passes when the analytic moment
    index strictly exceeds the measure's requirement and, for the measures
    with a function-adjusted prior column, the integrability check passed.
    """
    if measure not in MEASURES:
        raise ValueError(f"unknown measure {measure!r}; known: {MEASURES}")
    aux = aux or MeasureAux()
    lw = sample.log_weights
    value, flags = _measure_value(measure, lw, sample.draws, aux)
    required = REQUIRED_MOMENTS[measure]
    r_star = gate_inputs.report.r_star
    passed = r_star > required
    if measure in ADJUSTED_REQUIRED:
        if gate_inputs.adjusted_ok is None:
            passed = False
            flags.append("adjusted-prior-check-missing")
        elif not gate_inputs.adjusted_ok:
            passed = False
            flags.append("adjusted-prior-check-failed")
    se = _batch_means_se(sample, measure, aux) if passed else None
    return InfluenceEstimate(
        measure=measure,
        value=value,
        gate_passed=passed,
        required_moments=required,
        available_r_star=float(r_star),
        standard_error=se,
        flags=tuple(flags),
    )


def _batch_means_se(sample: WeightedSample, measure: str, aux: MeasureAux) -> float:
    """Batch-means standard error: the estimator recomputed on consecutive
    batches, spread of the batch values scaled by sqrt(B). Valid for both
    i.i.d. draws and ergodic chains."""
    M = sample.size
    B = min(SE_BATCHES, max(2, M // 2))
    edges = np.linspace(0, M, B + 1, dtype=int)
    vals = []
    for b in range(B):
        sl = slice(edges[b], edges[b + 1])
        sub_aux = MeasureAux(
            c_hat=aux.c_hat,
            log_q=None if aux.log_q is None else np.asarray(aux.log_q)[sl],
            coord=aux.coord,
            g_values=None if aux.g_values is None else np.asarray(aux.g_values)[sl],
            deleted_log_lik=(
                None if aux.deleted_log_lik is None else np.asarray(aux.deleted_log_lik)[sl]
            ),
        )
        v, _ = _measure_value(measure, sample.log_weights[sl], sample.draws[sl], sub_aux)
        vals.append(v)
    vals = np.asarray(vals)
    return float(np.std(vals, ddof=1) / math.sqrt(B))


# --- prior/bounding checks -----------------------------------------------------


@dataclass(frozen=True)
class PolynomialAdjustment:
    """g^2 is a polynomial of the given (even) degree in one coordinate."""

    degree: int

    def __post_init__(self):
        if self.degree <= 0:
            raise ValueError("degree must be positive")


@dataclass(frozen=True)
class LikelihoodPowerAdjustment:
    """g^2 is a power of prior times deleted-likelihood; integrability holds
    exactly when that product is bounded, which the caller declares."""

    bounded: bool


@dataclass(frozen=True)
class BoundedAdjustment:
    pass


def _poly_moment_finite(spec: ThetaPriorSpec, degree: int) -> bool:
    if spec.family in ("normal", "laplace", "quartic_exponential", "bounded_uniform"):
        return True
    if spec.family == "student_t":
        return spec.dof > degree
    raise ValueError(
        f"no polynomial-moment rule for prior family {spec.family!r}"
    )


def adjusted_prior_check(model: str, g_spec, prior_specs) -> bool:
    """Is (1 + g^2) integrable against the prior?

    Catalog rule: polynomial adjustments need the prior's polynomial moments
    up to the stated degree (all finite for normal/laplace mixtures, degree
    < dof for t components); bounded g is always integrable; likelihood-power
    adjustments reduce to the declared boundedness flag.
    """
    if isinstance(g_spec, BoundedAdjustment):
        return True
    if isinstance(g_spec, LikelihoodPowerAdjustment):
        return bool(g_spec.bounded)
    if isinstance(g_spec, PolynomialAdjustment):
        specs = prior_specs if isinstance(prior_specs, (list, tuple)) else [prior_specs]
        return all(_poly_moment_finite(s, g_spec.degree) for s in specs)
    raise ValueError(f"unsupported g-spec {type(g_spec).__name__}")


def bounding_moment_check(model: str, report: MomentIndexReport | None = None,
                          criterion=None) -> bool:
    """Whether the bounding-function route certifies polynomial-g CLTs.

    Logistic: a strictly negative criterion maximum at r = 2 gives a moment
    generating function bound on an open neighborhood of zero, covering all
    polynomial g. Linear/MM: a moment index strictly above 2 covers the
    squared-log bound used for the divergence measures.
    """
    if model == "logit":
        if criterion is None:
            raise ValueError("logit check needs the r=2 criterion")
        return criterion.max_value < 0.0
    if model in ("linear", "mm"):
        if report is None:
            raise ValueError("linear/mm check needs a MomentIndexReport")
        return report.r_star > 2.0 + KL_DELTA
    raise ValueError(f"unknown model tag {model!r}")
