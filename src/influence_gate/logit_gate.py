"""Moment conditions for logistic regression via a piecewise-linear criterion.

The deletion weight for logistic regression is a product of factors
(1 + exp(beta'x_i)) / exp(beta'x_i y_i) over deleted cases, each at least 1.
Along a ray the log of (weight^r * likelihood * exponential prior) grows at
rate h(beta, r, eps); the r-th weight moment is finite when h < 0 on the
whole L1 unit sphere and infinite when h > 0 somewhere on it. h is
positively homogeneous and piecewise linear on the central hyperplane
arrangement {beta'x_i = 0} union {beta_j = 0}, so its maximum over the
sphere is attained at an arrangement vertex; the solver enumerates the null
directions of all (k-1)-subsets of arrangement normals.
"""

import math

import numpy as np

from .core_model import LogitData, MomentIndexReport, MomentVerdict, all_subsets, binary_exponent
from .errors import BudgetError

# Candidate budget for exact vertex enumeration.
CANDIDATE_BUDGET = 10_000_000
MAX_K = 6
MAX_N = 200

# |max h| below this band is a boundary verdict: the exact zero case needs
# conditions the sign test cannot supply.
BOUNDARY_BAND = 1e-9

R_STAR_CAP = 64.0


class VertexTable:
    """Directions beta (rows) with what h needs of them that depends on
    neither the deletion set nor epsilon: the per-case contributions
    beta'x_i y_i - max(0, beta'x_i) and the L1 norms."""

    def __init__(self, data: LogitData, betas: np.ndarray):
        Z = betas @ data.design.T
        self.betas = betas
        self.contrib = Z * data.outcome[None, :] - np.maximum(Z, 0.0)
        self.l1 = np.abs(betas).sum(axis=1)

    def parts(self, dels: np.ndarray, epsilon: float):
        """h(beta, r, eps) = h0(beta) + (r-1) * slope(beta) for every row,
        with `dels` the sorted, distinct deleted cases.

        slope = sum over deleted cases of max(0, beta'x_i) - beta'x_i y_i >= 0,
        so h is affine and nondecreasing in r for every direction. Both sums
        gather their columns by an int index: the copy that deleting columns
        from `contrib` makes is laid out otherwise, and its sums round
        differently in the last bit.
        """
        kept = np.delete(np.arange(self.contrib.shape[1]), dels)
        h0 = self.contrib[:, kept].sum(axis=1) - epsilon * self.l1
        return h0, (-self.contrib[:, dels]).sum(axis=1)


def _candidate_directions(data: LogitData):
    """L1-normalized null directions of all (k-1)-subsets of arrangement normals.

    Normals are the covariate rows (scaled per column to unit max-abs for
    conditioning) plus the coordinate axes. Directions are mapped back to the
    original coordinates before normalization, so epsilon keeps its meaning.
    """
    X = data.design
    n, k = X.shape
    if k == 1:
        return np.array([[1.0], [-1.0]])
    scales = np.maximum(np.max(np.abs(X), axis=0), 1e-300)
    Xs = X / scales
    normals = np.vstack([Xs, np.eye(k)])
    m = normals.shape[0]
    count = math.comb(m, k - 1) * 2
    if count > CANDIDATE_BUDGET:
        raise BudgetError(
            f"vertex enumeration needs {count} candidates (> {CANDIDATE_BUDGET}); "
            "use fewer covariates or cases"
        )
    subsets = all_subsets(m, k - 1)
    dirs = []
    chunk = 65536
    for start in range(0, subsets.shape[0], chunk):
        block = normals[subsets[start:start + chunk]]  # (B, k-1, k)
        _, sv, vh = np.linalg.svd(block)
        ok = sv[:, -1] > 1e-10 * np.maximum(sv[:, 0], 1e-300)
        dirs.append(vh[ok, -1, :])
    d_scaled = np.concatenate(dirs, axis=0)
    d = d_scaled / scales[None, :]
    d = np.concatenate([d, -d], axis=0)
    norms = np.abs(d).sum(axis=1)
    return d[norms > 0] / norms[norms > 0, None]


def _require_exact(data: LogitData, epsilon: float) -> None:
    if data.k > MAX_K or data.n > MAX_N:
        raise BudgetError(
            f"exact maximization supports k <= {MAX_K} and n <= {MAX_N}; "
            f"got k={data.k}, n={data.n}"
        )
    if epsilon < 0:
        raise ValueError("epsilon must be nonnegative")


def max_h_l1_sphere(betas: np.ndarray, values: np.ndarray):
    """Maximum of h over the L1 unit sphere, given h at every vertex (the
    rows of `betas`): (max value, lexicographically smallest argmax among
    ties). An infinite max makes the tolerance NaN, so values equal to it
    count as tied on their own."""
    top = float(np.max(values))
    tied = np.nonzero((values >= top - 1e-15 * max(1.0, abs(top))) | (values == top))[0]
    order = np.lexsort(betas[tied].T[::-1])
    pick = tied[order[0]]
    return float(values[pick]), betas[pick]


def theorem51_verdict(betas: np.ndarray, values: np.ndarray) -> MomentVerdict:
    """Sign of the sphere maximum of h, given h at every vertex, decides the
    r-th weight moment."""
    best, arg = max_h_l1_sphere(betas, values)
    if abs(best) <= BOUNDARY_BAND:
        return MomentVerdict.boundary("criterion maximum at zero")
    if best > 0:
        return MomentVerdict.infinite(
            f"criterion positive at direction {np.round(arg, 6).tolist()}"
        )
    return MomentVerdict.finite()


def _index_cutoff(betas: np.ndarray, h0: np.ndarray, slope: np.ndarray) -> tuple:
    """(r*, binding): r* = min over vertices of the root of h0 + (r-1)*slope,
    and the first vertex attaining it binds. Every per-case contribution is
    <= 0, so with epsilon >= 0 h0 <= 0 and each root is at least 1."""
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        roots = np.where(slope > 1e-12, 1.0 - h0 / slope, math.inf)
    i = int(np.argmin(roots))
    if roots[i] > R_STAR_CAP:
        return math.inf, f"criterion negative up to the r cap {R_STAR_CAP:g}"
    return float(roots[i]), "criterion vertex " + str(np.round(betas[i], 9).tolist())


def _unit_free(data: LogitData, epsilon: float):
    """X and epsilon divided by 2^p (`binary_exponent` of X), exactly: h
    scales by 2^-p, and the absolute bounds on it read max |x_ij| in [1, 2)."""
    p = binary_exponent(data.design)
    with np.errstate(over="ignore"):
        return LogitData(np.ldexp(data.design, -p), data.outcome), float(np.ldexp(epsilon, -p))


def moment_index_logit(data: LogitData, sets: np.ndarray, r_values, epsilon: float):
    """Moment index of each row of `sets`, an (N, I) array of 0-based
    deletion sets, each row sorted and distinct as `all_subsets` gives them,
    and its Thm 5.1 verdicts at each order r in `r_values`:
    (MomentIndexReport, one verdict list per set ordered as `r_values`).

    For each candidate vertex h(r) = h0 + (r-1)*slope with slope >= 0, so the
    sphere maximum is a nondecreasing piecewise-affine envelope in r and its
    zero crossing is exact: r* = min over vertices of the per-vertex root.
    Indices above the cap report as +infinity. The leverage and sample-size
    fields do not apply to this model and are +infinity. The vertex table
    depends only on the data and is built once for all sets and r, within
    the exact-enumeration limits on k, n and the candidate count. X and
    epsilon are read `_unit_free`: scaling both by one factor is the same
    model (beta -> beta / factor), and changes no verdict.
    """
    _require_exact(data, epsilon)
    data, epsilon = _unit_free(data, epsilon)
    table = VertexTable(data, _candidate_directions(data))
    cuts, verdicts = [], []
    for dels in sets:
        h0, slope = table.parts(dels, epsilon)
        cuts.append(_index_cutoff(table.betas, h0, slope))
        # At huge r the criterion overflows to +-inf, which keeps its sign.
        with np.errstate(over="ignore"):
            verdicts.append([theorem51_verdict(table.betas, h0 + (r - 1.0) * slope)
                             for r in r_values])
    r_c, binding = zip(*cuts)
    never = np.full(len(cuts), math.inf)
    return MomentIndexReport(sets, never, never, np.array(r_c),
                             np.array(binding, dtype=object)), verdicts
