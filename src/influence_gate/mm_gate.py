"""Moment conditions and moment index for the Michaelis-Menten model.

Conditional on the half-saturation parameter kappa the model is a
no-intercept linear regression of velocity on x_i(kappa) = c_i/(kappa+c_i),
so the linear-model conditions apply pointwise in kappa; finiteness of a
weight moment needs them uniformly over the kappa axis. Everything reduces
to four scalar functions of kappa:

    A = sum_out x_i^2 - (r-1) sum_del x_i^2      (leverage condition)
    B = sum_out x_i v_i - (r-1) sum_del x_i v_i  (slope-sign condition)
    C = sum_out v_i^2 - (r-1) sum_del v_i^2      (kappa-free)
    rss_star = C - B^2/A                          (residual condition)

with leverage l = sum_del x_i^2 / sum_all x_i^2 and
g = sum_del x_i v_i / sum_all x_i v_i. A < 0 iff l > 1/r and B > 0 iff
g < 1/r, which is how violations are detected on the scan grid.

The kappa-sums (sum x^2, sum_del x^2, sum x v, sum_del x v), l and g do not
depend on r: a `KappaProfile` holds them once per deletion set, on a fixed
log grid of GRID_SIZE points and at the endpoint limits. `_refined_extremum`
refines each extremum over kappa (sup l, inf g, inf rss_star) from there by
a log-zoom over arrays of kappa with a relative stop, so in any units.
`theorem41_verdict(profile, r)` reads the r part in the order of Thm 4.1
and stops at the first check that decides: the sample size (no kappa scan),
the violation intervals of `scan_kappa(profile, r)`, sup l, the slope pair
(C and inf g), and last the refined infimum of rss_star.
`KappaProfile.moment_index` bisects on r with every probe judging that one
profile. At r = 0 rss_star is the RSS of the fit of v on x, and
`min_fit_rss_fraction` reads its least value to tell an exact curve.
Nothing here depends on the kappa prior, which only the sampler reads.
"""

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .core_model import MMData, MomentIndexReport, MomentVerdict, binary_exponent
from .errors import DataError

# Log-spaced kappa points of the scan.
GRID_SIZE = 4096
# Log-spaced kappa points per bracket in each round of the refinement, and
# the relative bracket width hi/lo - 1 at which it stops.
ZOOM_POINTS = 129
ZOOM_RTOL = 1e-9

# A kappa-interval counts as non-negligible when a strict violation holds at
# three consecutive scan points spanning more than this fraction of kappa;
# measure-zero touching must not trigger an infinite verdict.
NEGLIGIBLE_INTERVAL_FRACTION = 1e-6

# Width at which the bisection on r for the residual cut-off r_c stops.
R_TOL = 5e-4


@dataclass(frozen=True)
class Extremum:
    value: float
    kappa: float


def _kappa_sums(x: np.ndarray, v: np.ndarray, dels: np.ndarray) -> tuple:
    """(sum x^2, sum_del x^2, sum x v, sum_del x v) over the cases, the first
    axis of x and v, with `dels` the deleted cases; further axes of x run
    over kappa values."""
    x2, xv = x * x, x * v
    return x2.sum(axis=0), x2[dels].sum(axis=0), xv.sum(axis=0), xv[dels].sum(axis=0)


def _sums_on(data: MMData, dels: np.ndarray, kappa) -> tuple:
    """The kappa-sums at each kappa of an array of any shape, with x_i =
    c_i/(kappa + c_i); each sum has the shape of kappa."""
    shape = (-1,) + (1,) * np.ndim(kappa)
    c = data.concentration.reshape(shape)
    return _kappa_sums(c / (kappa + c), data.velocity.reshape(shape), dels)


def _abc(sums, v2, r: float, tol=None) -> tuple:
    """A, B, C and rss_star = C - B^2/A from the kappa-sums and v2 =
    (sum v^2, sum_del v^2); rss_star is NaN where |A| <= tol, by default
    1e-14 max(1, sum x^2)."""
    sum_x2, del_x2, sum_xv, del_xv = sums
    a, b, c = sum_x2 - r * del_x2, sum_xv - r * del_xv, v2[0] - r * v2[1]
    defined = np.abs(a) > (1e-14 * np.maximum(1.0, sum_x2) if tol is None else tol)
    with np.errstate(divide="ignore", invalid="ignore"):
        return a, b, c, np.where(defined, c - b * b / np.where(defined, a, 1.0), np.nan)


def _local_extrema_indices(values: np.ndarray, find_min: bool) -> list:
    """Interior grid points no worse than both neighbours (none of the three
    NaN), ascending, then the global best if it is not among them."""
    v = values if find_min else -values
    mid = v[1:-1]
    idx = (np.flatnonzero((mid <= v[:-2]) & (mid <= v[2:])) + 1).tolist()
    best = int(np.nanargmin(v))
    if best not in idx:
        idx.append(best)
    return idx


def _refined_extremum(grid, values, f, find_min, limits) -> Extremum:
    """Best of the (value, kappa) `limits` and a log-zoom around the best
    GRID_SIZE // ZOOM_POINTS grid extrema of `values`, f on `grid`. f maps
    an array of kappa to values of its shape, NaN (counted worst) where
    undefined. Each round evaluates f at ZOOM_POINTS log-spaced kappa across
    every bracket, at most GRID_SIZE in all, and shrinks each bracket to its
    best point's two neighbours, until all have hi/lo - 1 < ZOOM_RTOL. The
    first best candidate wins ties."""
    sgn = 1.0 if find_min else -1.0
    idx = np.array(_local_extrema_indices(values, find_min))
    idx = idx[np.sort(np.argsort(sgn * values[idx], kind="stable")[:GRID_SIZE // ZOOM_POINTS])]
    lo, hi = np.log(grid[np.clip(idx[:, None] + [-1, 1], 0, grid.size - 1)]).T
    t = np.linspace(0.0, 1.0, ZOOM_POINTS)
    while True:
        kappa = np.exp(lo[:, None] + (hi - lo)[:, None] * t)
        vals = sgn * f(kappa)
        vals[np.isnan(vals)] = np.inf
        best = vals.argmin(axis=1)
        lo, hi = (lo + (hi - lo) * t[np.maximum(best - 1, 0)],
                  lo + (hi - lo) * t[np.minimum(best + 1, ZOOM_POINTS - 1)])
        if np.all(np.expm1(hi - lo) < ZOOM_RTOL):
            break
    rows = np.arange(idx.size)
    cands = [*zip(vals[rows, best].tolist(), kappa[rows, best].tolist()),
             *((sgn * value, at) for value, at in limits)]
    value, at = min(cands, key=lambda cand: cand[0])
    return Extremum(value=float(sgn * value), kappa=float(at))


@dataclass(frozen=True)
class KappaProfile:
    """The r-free part of the kappa scan of one deletion set `dels`, a
    sorted row of distinct cases: GRID_SIZE log-spaced kappa from
    1e-4 min(c) to 1e4 max(c), the kappa-sums on them, as kappa -> 0
    (`zero`, x_i = 1) and the coefficients as kappa -> infinity (`inf`,
    x_i ~ c_i/kappa), and v2 = (sum v^2, sum_del v^2), the first two
    kappa-sums with v in place of x. The supremum of leverage and the
    infimum of g are refined when first read."""

    data: MMData
    dels: np.ndarray
    grid: np.ndarray
    sums: tuple
    zero: list
    inf: list
    v2: list

    @classmethod
    def of(cls, data: MMData, dels: np.ndarray) -> "KappaProfile":
        """The profile of `dels` without the checks of `kappa_profile`."""
        c, v = data.concentration, data.velocity
        grid = np.geomspace(1e-4 * float(c.min()), 1e4 * float(c.max()), GRID_SIZE)
        zero, inf, v2 = ([float(s) for s in _kappa_sums(x, v, dels)]
                         for x in (np.ones_like(c), c, v))
        return cls(data, dels, grid, _sums_on(data, dels, grid), zero, inf, v2[:2])

    @cached_property
    def sup_leverage(self) -> Extremum:
        return self._refined(0, False)

    @cached_property
    def inf_g(self) -> Extremum:
        return self._refined(2, True)

    def _refined(self, k: int, find_min: bool) -> Extremum:
        """The extremum of leverage (k = 0) or g (k = 2), kappa-sum k + 1
        over kappa-sum k, on the grid and at both limits, refined."""
        def f(kappa):
            s = _sums_on(self.data, self.dels, kappa)
            return s[k + 1] / s[k]

        limits = [(self.zero[k + 1] / self.zero[k], 0.0), (self.inf[k + 1] / self.inf[k], math.inf)]
        return _refined_extremum(self.grid, self.sums[k + 1] / self.sums[k], f, find_min, limits)

    def moment_index(self) -> tuple:
        """Cut-offs (r_a, r_b, r_c) by bisection on r, each probe judging
        this profile.

        Bisection is valid because moment finiteness of the nonnegative
        weight is monotone in r. The leverage cut-off
        r_a = 1/sup_kappa(leverage) and the sample-size cut-off
        r_b = (n-1)/I do not depend on the residual scan, so bisection runs
        inside (1, min(r_a, r_b)].
        """
        sup_lev = self.sup_leverage.value
        r_a = math.inf if sup_lev <= 1e-14 else 1.0 / sup_lev
        r_b = (self.data.n - 1.0) / self.dels.size

        def finite_at(r):
            return theorem41_verdict(self, r).is_finite

        lo = 1.0 + 1e-9
        if not finite_at(lo):
            return r_a, r_b, lo
        hi_probe = min(r_a, r_b) - 1e-9
        if finite_at(hi_probe):
            return r_a, r_b, math.inf
        a, b = lo, hi_probe
        while b - a > R_TOL:
            mid = 0.5 * (a + b)
            if finite_at(mid):
                a = mid
            else:
                b = mid
        r_c = 0.5 * (a + b)
        # The residual condition failed only at the leverage/sample cap.
        return r_a, r_b, math.inf if r_c >= hi_probe - 2 * R_TOL else r_c


def kappa_profile(data: MMData, dels: np.ndarray) -> KappaProfile:
    """The `KappaProfile` of a nonempty deletion set; DataError unless sum x v
    is positive on the grid and at both limits."""
    if dels.size < 1:
        raise ValueError("deletion set must be nonempty")
    profile = KappaProfile.of(data, dels)
    # "B > 0 iff g < 1/r" divides by sum x v, so it must be positive.
    if not min(profile.zero[2], profile.inf[2], float(profile.sums[2].min())) > 0:
        raise DataError("the MM gate needs sum_i v_i c_i/(kappa + c_i) > 0 at every kappa; "
                        "these velocities make it zero or negative")
    return profile


def _abc_on(profile: KappaProfile, r: float) -> tuple:
    """`_abc` at order r on the grid, as kappa -> 0 and as kappa -> infinity."""
    return (_abc(profile.sums, profile.v2, r), _abc(profile.zero, profile.v2, r, 1e-14),
            _abc(profile.inf, profile.v2, r, 1e-12 * max(1.0, profile.inf[0])))


def scan_kappa(profile: KappaProfile, r: float) -> list:
    """The violation intervals of a kappa profile at order r: A, B, C and
    rss_star on the grid and at the endpoint limits, through
    `_violation_intervals`."""
    (A, B, C, rss), (a0, b0, _, rss0), (a1, b1, _, rss1) = _abc_on(profile, r)
    return _violation_intervals(profile.grid, A, B, C, rss, (a0, b0, rss0), (a1, b1, rss1),
                                profile.v2[0])


def _inf_rss_star(profile: KappaProfile, r: float) -> Extremum:
    """Infimum of rss_star at order r, refined from its grid values and limits."""
    (*_, rss), (*_, rss0), (*_, rss1) = _abc_on(profile, r)
    rss_limits = [(float(val), kappa) for val, kappa in ((rss0, 0.0), (rss1, math.inf))
                  if not np.isnan(val)]
    if np.all(np.isnan(rss)) and not rss_limits:
        return Extremum(value=-math.inf, kappa=float(profile.grid[0]))

    def f(kappa):
        return _abc(_sums_on(profile.data, profile.dels, kappa), profile.v2, r)[3]

    return _refined_extremum(profile.grid, rss, f, True, rss_limits)


def _runs(mask: np.ndarray) -> list:
    """Start/end index pairs of runs of True."""
    edges = np.diff(np.concatenate(([0], np.asarray(mask, dtype=np.int8), [0])))
    return list(zip(np.flatnonzero(edges == 1).tolist(), (np.flatnonzero(edges == -1) - 1).tolist()))


def _violation_intervals(grid, A, B, C, rss, zero, infinity, sum_v2):
    """Kappa-intervals where an infinite-moment condition holds strictly.

    Two families: 'leverage' where A < 0 (leverage above 1/r) and
    'residual' where rss_star < 0 together with C < 0 or g < 1/r (B > 0).
    A run needs three consecutive grid points and non-negligible width.
    Endpoint regimes extend beyond the grid and are recorded with 0 or inf
    endpoints; `zero` and `infinity` are the (A, B, rss_star) limits, as
    coefficients of kappa^-2, kappa^-1 and 1 at infinity. The tolerances
    on C, rss_star and B scale with sum_v2 = sum v^2, as those values do.
    """
    tol = 1e-9 * max(1e-9 * sum_v2, abs(C))
    b_tol = 1e-12 * math.sqrt(sum_v2)
    intervals = []

    lev_mask = A < -1e-12 * np.maximum(1.0, np.abs(A).max())
    res_mask = (rss < -tol) & ((C < -tol) | (B > b_tol))
    for name, mask in (("leverage", lev_mask), ("residual", res_mask)):
        for i0, i1 in _runs(mask):
            if i1 - i0 + 1 < 3:
                continue
            mid = grid[(i0 + i1) // 2]
            if grid[i1] - grid[i0] > NEGLIGIBLE_INTERVAL_FRACTION * mid:
                intervals.append((name, float(grid[i0]), float(grid[i1])))

    # kappa -> infinity regime: A < 0 for all large kappa when the
    # concentration coefficient is negative.
    a1, b1, rss1 = infinity
    if a1 < -1e-12:
        intervals.append(("leverage", float(grid[-1]), math.inf))
    elif a1 > 1e-12 and rss1 < -tol and (C < -tol or b1 > b_tol):
        intervals.append(("residual", float(grid[-1]), math.inf))
    # kappa -> 0 regime.
    a0, b0, rss0 = zero
    if a0 < -1e-12:
        intervals.append(("leverage", 0.0, float(grid[0])))
    elif rss0 < -tol and (C < -tol or b0 > b_tol):
        intervals.append(("residual", 0.0, float(grid[0])))
    return intervals


def theorem41_verdict(profile: KappaProfile, r: float) -> MomentVerdict:
    """Uniform-in-kappa finite/infinite decision at moment order r.

    Finite: leverage below 1/r uniformly, n > r*I + 1, and either rss_star
    positive uniformly or (C > 0 with g above 1/r uniformly). Infinite: a
    non-negligible kappa set violating leverage or the residual pair, or a
    sample size failure. Anything else is a boundary case. The checks run
    in the order the module docstring gives, cheapest first.
    """
    if not r > 1:
        raise ValueError("moment order r must exceed 1")
    if profile.data.n <= r * profile.dels.size + 1:
        return MomentVerdict.infinite("sample size: n <= r*I + 1")
    intervals = scan_kappa(profile, r)
    if intervals:
        kinds = sorted({name for name, _, _ in intervals})
        return MomentVerdict.infinite("violation on a non-negligible kappa set: "
                                      + ", ".join(kinds))
    inv_r = 1.0 / r
    lev_tol = 1e-9
    if profile.sup_leverage.value > inv_r + lev_tol:
        # The supremum exceeds 1/r but no non-negligible interval was found:
        # the violation is confined to a vanishing set.
        return MomentVerdict.boundary("leverage touches 1/r on a negligible set")
    if profile.sup_leverage.value >= inv_r - lev_tol:
        return MomentVerdict.boundary("supremum of leverage at 1/r")
    c_val = profile.v2[0] - r * profile.v2[1]
    rss_tol = 1e-9 * max(1e-9 * profile.v2[0], abs(c_val))
    if c_val > rss_tol and profile.inf_g.value > inv_r + lev_tol:
        return MomentVerdict.finite()
    if _inf_rss_star(profile, r).value > rss_tol:
        return MomentVerdict.finite()
    return MomentVerdict.boundary("infimum of rss_star at zero")


def _unit_free(data: MMData) -> MMData:
    """c and v each divided by 2^p (`binary_exponent`), which is exact, so
    that no kappa-sum leaves the float range."""
    return MMData(*(np.ldexp(a, -binary_exponent(a)) for a in (data.concentration, data.velocity)))


def min_fit_rss_fraction(data: MMData) -> float:
    """The minimum over kappa in [0, inf] of S(kappa) = sum v^2 -
    (sum x v)^2/sum x^2, the RSS of the least-squares fit of v = m x(kappa),
    as a fraction of sum v^2, in any units: rss_star at r = 0, which reads
    no deleted case. At rounding level, m c/(kappa + c) fits v exactly."""
    profile = KappaProfile.of(_unit_free(data), np.arange(0))
    # Rescaled, sum v^2 >= 1 unless every v is 0, which m = 0 fits exactly.
    return _inf_rss_star(profile, 0.0).value / max(profile.v2[0], 1.0)


def moment_index_mm(data: MMData, sets: np.ndarray, r_values):
    """Moment index of each row of `sets`, an (N, I) array of nonempty
    0-based deletion sets, each row sorted and distinct as `all_subsets`
    gives them, and its Thm 4.1 verdicts at each order r in `r_values`:
    (MomentIndexReport, one verdict list per set ordered as `r_values`). One
    kappa profile per set serves its index and every r. The profiles read c
    and v `_unit_free`, so the verdicts are the same in any units."""
    data = _unit_free(data)
    cuts, verdicts = [], []
    for dels in sets:
        profile = kappa_profile(data, dels)
        cuts.append(profile.moment_index())
        verdicts.append([theorem41_verdict(profile, r) for r in r_values])
    return MomentIndexReport.of(sets, *np.array(cuts).T), verdicts
