"""Analytic moment conditions and moment index for the Bayesian linear model.

Everything here is a pure function of the data, the deletion set, and the
prior. The weight obtained by deleting a set of cases has its moments
controlled by three quantities: the largest eigenvalue of the leverage minor
H_del, the sample size relative to r times the number of deletions, and the
adjusted residual sum of squares

    rss_star(r) = RSS - r * e_del' (I - r H_del)^{-1} e_del,

which at r = 1 equals the refit RSS of the case-deleted least-squares fit.
"""

from dataclasses import dataclass, replace

import numpy as np

from .core_model import MomentIndexReport, RegressionData, all_subsets, binary_exponent
from .parallel import ordered_map

# A leverage eigenvalue at or below this counts as zero: it gives r_a = inf,
# and on the Gram side (deleted design rows spanning fewer than k dimensions)
# the residual mass along its eigenvector joins the null-space slot instead
# of being divided by it.
_NULL_EIGENVALUE = 1e-14

# Deletion sets per spectral pass of the kernel; bounds the memory that the
# stacked matrices and eigenvectors hold beside the whole set array and the
# cut-off arrays. The chunks run on the CPUs the process may use
# (`ordered_map`): on more than one, each worker process holds one chunk's
# temporaries and the calling process only gathers the cut-offs. Run in
# one process, on all 237,336 Feigl-Zelen 5-subsets, the kernel's traced
# allocation peak is ~11 MB at this size (~9 MB of it the report it
# returns), ~22 MB at 32768 and ~37 MB at 65536. At or above C(33, 3) =
# 5,456, the Feigl-Zelen triples stay one chunk and their `gate` forks
# nothing.
_SCAN_CHUNK = 8192

# The r_c Newton iteration stops for a set once its step is below this
# relative size (a few ulps). Every Feigl-Zelen 5-subset settles within 17
# Newton sweeps and 5 ulp steps, so reaching the limit is a fault and raises.
_ROOT_RTOL = 4.0 * np.finfo(float).eps
_ROOT_MAX_SWEEPS = 64


@dataclass(frozen=True)
class LinearPrior:
    """Either the conjugate prior (inverse-gamma sigma2 with shape alpha and
    inverse rate beta, normal theta with mean theta_mean and positive
    definite covariance theta_cov) or the flat 1/sigma2 reference prior."""

    kind: str
    alpha: float | None = None
    beta: float | None = None
    theta_mean: np.ndarray | None = None
    theta_cov: np.ndarray | None = None

    def __post_init__(self):
        if self.kind not in ("conjugate", "noninformative"):
            raise ValueError(f"unknown prior kind {self.kind!r}")
        if self.kind == "conjugate":
            if not (self.alpha and self.alpha > 0 and self.beta and self.beta > 0):
                raise ValueError("conjugate prior needs alpha > 0 and beta > 0")
            if self.theta_mean is None or self.theta_cov is None:
                raise ValueError("conjugate prior needs a theta mean and covariance")
            cov = np.atleast_2d(self.theta_cov)
            if np.any(np.linalg.eigvalsh((cov + cov.T) / 2.0) <= 0):
                raise ValueError("covariance must be positive definite")

    @staticmethod
    def noninformative() -> "LinearPrior":
        return LinearPrior("noninformative")

    @staticmethod
    def conjugate(alpha: float, beta: float, theta_mean, theta_cov) -> "LinearPrior":
        return LinearPrior("conjugate", alpha=float(alpha), beta=float(beta),
                           theta_mean=np.asarray(theta_mean, float),
                           theta_cov=np.asarray(theta_cov, float))

    @property
    def is_noninformative(self) -> bool:
        return self.kind == "noninformative"

    @property
    def rss_threshold(self) -> float:
        return 0.0 if self.is_noninformative else -2.0 / self.beta


# --- the batched kernel -----------------------------------------------------------
#
# One thin QR of the design, X = QR, gives the residuals e and the RSS; the
# leverage minor of a deletion set is H_del = Q_del Q_del', so the n x n hat
# matrix is never formed. For N deletion sets of a common size I,
# `leverage_minor` gives the ascending eigenvalues lam of each H_del and the
# squared deleted residuals u2 in its eigenbasis. H_del has rank at most k:
# sets of I > k cases are diagonalised on the k x k Gram side Q_del' Q_del,
# with the residual mass outside its range in one lam = 0 slot, and only
# sets of at most k cases diagonalise the I x I minor. The cut-offs
# (`_cutoffs`) are read off (lam, u2, rss): r_a = 1/lam_max, r_b from the
# sample size alone, and in the eigenbasis
# rss_star(r) = rss - sum_i r u2_i / (1 - r lam_i),
# so with s = 1/r the residual cut-off r_c is the root of the secular
# equation sum_i u2_i / (s - lam_i) = rss - threshold beyond the largest
# eigenvalue (Bunch, Nielsen & Sorensen 1978), found by a safeguarded
# Newton iteration vectorized across sets. The Thm 3.1 verdicts are read
# off the three cut-offs (`theorem31_verdict`), not off the spectra.


def least_squares(data: RegressionData):
    """The linear model's one least-squares fit, by the thin QR X = QR, for
    the gate and both linear samplers: (Q, R, theta_hat = R^{-1}Q'y, e, p),
    e the residuals y - QQ'y over 2^p (`binary_exponent`). e'e is the RSS
    over 4^p, exactly, and in range in any units of the response."""
    Q, R = np.linalg.qr(data.design)
    qty = Q.T @ data.response
    e = data.response - Q @ qty
    p = binary_exponent(e)
    return Q, R, np.linalg.solve(R, qty), np.ldexp(e, -p), p


def leverage_minor(Q, e, idx: np.ndarray):
    """Ascending spectra lam of the leverage minors H_del of an (N, I) index
    array and the squared deleted residuals u2 in each eigenbasis, both (N, I).

    Sets of at most k cases diagonalise the I x I minor. For I > k only the
    k x k Gram matrix A = Q_del' Q_del = W diag(mu) W' is diagonalised: its
    eigenvalues mu are the nonzero ones of H_del, and with b = Q_del' e_del
    the residual mass along each is (W_j' b)^2 / mu_j. The I - k leading
    columns are lam = 0 slots; the first holds the null-space mass
    |e_del|^2 - sum_j u2_j, clamped at 0. A mu_j at or below
    _NULL_EIGENVALUE (the deleted rows span fewer than k dimensions) is
    zeroed and its mass left to that slot instead of being divided by mu_j.
    """
    if idx.ndim != 2 or idx.shape[1] < 1:
        raise ValueError("deletion sets must form an (N, I) array with I >= 1")
    N, I = idx.shape
    k = Q.shape[1]
    Q_del, e_del = Q[idx], e[idx]
    if I <= k:
        minors = Q_del @ np.swapaxes(Q_del, 1, 2)
        minors = (minors + np.swapaxes(minors, 1, 2)) / 2.0
        lam, V = np.linalg.eigh(minors)
        return lam, np.einsum("nij,ni->nj", V, e_del) ** 2
    mu, W = np.linalg.eigh(np.swapaxes(Q_del, 1, 2) @ Q_del)
    b = e_del[:, None, :] @ Q_del
    null = mu <= _NULL_EIGENVALUE
    lam = np.zeros((N, I))
    u2 = np.zeros((N, I))
    lam[:, I - k:] = np.where(null, 0.0, mu)
    u2[:, I - k:] = np.where(null, 0.0, (b @ W)[:, 0, :] ** 2 / np.where(null, 1.0, mu))
    u2[:, 0] = np.maximum(np.einsum("ni,ni->n", e_del, e_del) - u2.sum(axis=1), 0.0)
    return lam, u2


def _rss_star(rss, lam, u2, r):
    """rss_star(r) = rss - r sum_i u2_i / (1 - r lam_i), summed over the
    last axis of the spectra lam and u2; r is one order, or one per row."""
    r = np.asarray(r)
    return rss - r * np.sum(u2 / (1.0 - r[..., None] * lam), axis=-1)


def _secular_root(lam, u2, C: float, s_lo):
    """Root s > lam_max of psi(s) = sum_i u2_i / (s - lam_i) = C > 0 for each
    row, given a point s_lo at or left of it.

    psi is convex and decreasing there and 1/psi is concave (Cauchy-Schwarz),
    so from a point left of the root a Newton step on either stays left of
    it. The step on 1/psi is the step on psi times psi/C > 1, so it is the
    one taken. Iterates rise from max(s_lo, max_i lam_i + u2_i/C), left of
    the root because psi exceeds each of its terms, and are capped at
    lam_max + sum u2 / C, right of it because psi(s) <= sum u2 / (s - lam_max).
    A row drops out once its step is within a few ulps. The step never
    forms the RSS squared, which overflows once the RSS passes ~1e154.
    """
    s = np.maximum(s_lo, np.max(lam + u2 / C, axis=1))
    cap = lam[:, -1] + u2.sum(axis=1) / C
    todo = np.arange(s.size)
    for _ in range(_ROOT_MAX_SWEEPS):
        st = s[todo]
        d = 1.0 / (st[:, None] - lam[todo])
        t = u2[todo] * d
        psi = t.sum(axis=1)
        step = (psi - C) / (t * d).sum(axis=1) * (psi / C)
        s[todo] = np.minimum(st + np.maximum(step, 0.0), cap[todo])
        todo = todo[s[todo] - st > _ROOT_RTOL * st]
        if todo.size == 0:
            return s
    raise RuntimeError(f"r_c root iteration did not settle in {_ROOT_MAX_SWEEPS} sweeps "
                       f"for {todo.size} deletion sets")


def _ulp_crossing(excess, r):
    """For each start r, the rounded midpoint of the adjacent floats around
    the nearest sign change of the computed `excess(r, rows)` (positive
    below it): the point a bisection run to convergence returns. The walk
    steps one ulp at a time from r toward the change."""
    r = r.copy()
    out = np.empty_like(r)
    rows = np.arange(r.size)
    above = excess(r, rows) > 0
    for _ in range(_ROOT_MAX_SWEEPS):
        nxt = np.nextafter(r[rows], np.where(above, np.inf, 0.0))
        crossed = (excess(nxt, rows) > 0) != above
        mid = 0.5 * (r[rows] + nxt)
        out[rows[crossed]] = mid[crossed]
        r[rows] = nxt
        rows, above = rows[~crossed], above[~crossed]
        if rows.size == 0:
            return out
    raise RuntimeError(f"r_c sign change not found within {_ROOT_MAX_SWEEPS} ulps "
                       f"for {rows.size} deletion sets")


def _cutoffs(lam, u2, rss, n, k, prior: LinearPrior):
    """(r_a, r_b, r_c) arrays for N deletion sets of a common size.

    r_c is the largest r in (0, r_a) with rss_star(r) above the prior
    threshold. rss_star is non-increasing in r on that interval; with
    s = 1/r its root solves psi(s) = rss - threshold, with psi as in
    `_secular_root`, which solves it for every set at once to a few ulps.
    r_c is then the float at which the computed rss_star crosses the
    threshold (`_ulp_crossing`), so it does not depend on how the root was
    approached. Residuals orthogonal to the spectrum (or exactly zero) leave
    rss_star above the threshold everywhere, and then the leverage cut-off
    binds: r_c = r_a. With every eigenvalue zero rss_star is linear in r and
    r_c is its root.
    """
    N, I = lam.shape
    lam_max = lam[:, -1]
    with np.errstate(divide="ignore"):
        r_a = np.where(lam_max > _NULL_EIGENVALUE, 1.0 / np.maximum(lam_max, 1e-300), np.inf)
    size = n - k if prior.is_noninformative else n + 2.0 * prior.alpha
    r_b = np.full(N, size / I)
    threshold = prior.rss_threshold

    def excess(r, rows):
        return _rss_star(rss, lam[rows], u2[rows], r) - threshold

    sum_u2 = u2.sum(axis=1)
    degenerate = sum_u2 <= 1e-24 * rss
    linear = np.isinf(r_a) & ~degenerate
    # rss_star is tested just below r_a, where every 1 - r lam_i is positive;
    # the relative margin matters only for large r_a, where r_a - 1e-9
    # rounds to r_a. Sets with r_a = inf take the linear root below.
    hi = np.where(np.isinf(r_a), 1.0, np.minimum(r_a - 1e-9, r_a * (1.0 - 1e-12)))
    settled = degenerate | (excess(hi, slice(None)) > 0)
    r_c = np.where(settled, r_a, np.nan)
    root = np.flatnonzero(~settled & ~linear)
    s = _secular_root(lam[root], u2[root], rss - threshold, 1.0 / hi[root])
    r_c[root] = _ulp_crossing(lambda r, rows: excess(r, root[rows]), 1.0 / s)
    return r_a, r_b, np.where(linear, (rss - threshold) / np.maximum(sum_u2, 1e-300), r_c)


def theorem31_verdict(report: MomentIndexReport, r: float, prior: LinearPrior) -> list:
    """Thm 3.1 verdict at order r of each set of `report`, read off its
    cut-offs (`MomentIndexReport.verdicts`); the prior only names the
    sample-size condition. The largest leverage eigenvalue exceeds 1/r
    beyond r_a, the sample size fails from r_b on (equality included), and
    rss_star falls below the prior threshold beyond r_c."""
    sample_size = ("sample size: n <= r*I + k" if prior.is_noninformative
                   else "sample size: n/2 + alpha <= r*I/2")
    return report.verdicts(r, {
        "leverage": ("leverage eigenvalue equals 1/r", "leverage above 1/r"),
        "sample-size": (sample_size, sample_size),
        "residual": ("rss_star at the prior threshold", "rss_star below the prior threshold"),
    })


def moment_index_linear(data: RegressionData, sets: np.ndarray, r_values, prior: LinearPrior):
    """Cut-offs r_a, r_b, r_c of each row of `sets`, an (N, I) array of
    0-based deletion sets of a common size I >= 1, each row sorted and
    distinct as `all_subsets` gives them, from one spectral pass,
    _SCAN_CHUNK sets at a time, and their Thm 3.1 verdicts at each order r
    in `r_values` (all above 1), read off the cut-offs (`theorem31_verdict`).

    The chunks are independent and run on the CPUs the process may use
    (`ordered_map`): each returns its cut-offs only, written into one (3, N)
    array allocated up front, whose rows are the report's r_a, r_b and r_c,
    so the result is the same for any CPU count.

    The RSS and u2 come from the scaled residuals of `least_squares`, and
    -2/beta is scaled with them: the result does not depend on units.

    Returns (MomentIndexReport, one verdict list per set, ordered as
    `r_values`); with no r_values the verdict list is empty.
    """
    r_values = [float(r) for r in r_values]
    if not all(r > 1 for r in r_values):
        raise ValueError("moment order r must exceed 1")
    Q, _, _, e, p = least_squares(data)
    rss = float(e @ e)
    if not prior.is_noninformative:  # out of range, -2/beta reads -inf or -0
        with np.errstate(over="ignore"):
            prior = replace(prior, beta=max(float(np.ldexp(prior.beta, 2 * p)), 5e-324))

    def chunk(start):
        lam, u2 = leverage_minor(Q, e, sets[start:start + _SCAN_CHUNK])
        return _cutoffs(lam, u2, rss, data.n, data.k, prior)

    starts = range(0, sets.shape[0], _SCAN_CHUNK)
    cuts = np.empty((3, sets.shape[0]))
    for start, chunk_cuts in zip(starts, ordered_map(chunk, starts)):
        cuts[:, start:start + _SCAN_CHUNK] = chunk_cuts
    report = MomentIndexReport.of(sets, *cuts)
    per_r = [theorem31_verdict(report, r, prior) for r in r_values]
    return report, list(map(list, zip(*per_r)))


# --- subset scans and k-fold audits --------------------------------------------


def scan_deletion_subsets(
    data: RegressionData, subset_size: int, prior: LinearPrior
) -> MomentIndexReport:
    """Cut-offs for every deletion subset of the given size, in
    lexicographic order."""
    if not 1 <= subset_size <= data.n:
        raise ValueError("subset size must be in [1, n]")
    return moment_index_linear(data, all_subsets(data.n, subset_size), (), prior)[0]


def fold_moment_indices(data: RegressionData, folds: list, prior: LinearPrior) -> np.ndarray:
    """r_star for each fold, treating each fold, a sorted list of distinct
    0-based cases, as the deletion set.

    Folds of equal size share one kernel call, so a list of folds from many
    partitions costs one call per distinct fold size.
    """
    out = np.empty(len(folds))
    for size in sorted(set(map(len, folds))):
        rows = [i for i, fold in enumerate(folds) if len(fold) == size]
        idx = np.array([folds[i] for i in rows], dtype=int)
        out[rows] = moment_index_linear(data, idx, (), prior)[0].r_star
    return out
