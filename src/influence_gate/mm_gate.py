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
depend on r: `kappa_profile` computes them once per deletion set, on a fixed
log grid of GRID_SIZE points, at the endpoint limits and in the refinement
of sup l and inf g. `theorem41_verdict(profile, r)` reads the r part in the
order of Thm 4.1 and stops at the first check that decides: the sample size
(no kappa scan), the violation intervals of `scan_kappa(profile, r)`, sup l,
the slope pair (C and inf g), and last the refined infimum of rss_star.
`KappaProfile.moment_index` bisects on r with every probe judging that one
profile. Nothing here depends on the kappa prior, which only the sampler
reads.
"""

import math
from dataclasses import dataclass

import numpy as np

from .core_model import MMData, MomentIndexReport, MomentVerdict, binary_exponent
from .errors import DataError

# Log-spaced kappa points of the scan.
GRID_SIZE = 4096
GOLDEN_XTOL = 1e-8
_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0

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
    axis of x and v, with `dels` the deleted cases; a second axis of x runs
    over kappa values."""
    x2, xv = x * x, x * v
    return x2.sum(axis=0), x2[dels].sum(axis=0), xv.sum(axis=0), xv[dels].sum(axis=0)


def _sums_at(data: MMData, dels: np.ndarray, kappa: float) -> tuple:
    """The kappa-sums at one kappa as Python floats, each bit-identical to
    the `_kappa_sums` sum over the 1-D arrays: one row sum per quantity."""
    c = data.concentration
    x = c / (kappa + c)
    w = x * (x, data.velocity)
    (sum_x2, sum_xv), (del_x2, del_xv) = w.sum(axis=1).tolist(), w[:, dels].sum(axis=1).tolist()
    return sum_x2, del_x2, sum_xv, del_xv


def _abc(sums, v2, r: float, tol=None) -> tuple:
    """A, B, C and rss_star = C - B^2/A from the kappa-sums and v2 =
    (sum v^2, sum_del v^2); rss_star is NaN where |A| <= tol, by default
    1e-14 max(1, sum x^2)."""
    sum_x2, del_x2, sum_xv, del_xv = sums
    a, b, c = sum_x2 - r * del_x2, sum_xv - r * del_xv, v2[0] - r * v2[1]
    defined = np.abs(a) > (1e-14 * np.maximum(1.0, sum_x2) if tol is None else tol)
    with np.errstate(divide="ignore", invalid="ignore"):
        return a, b, c, np.where(defined, c - b * b / np.where(defined, a, 1.0), np.nan)


def _rss_star_at(data: MMData, dels: np.ndarray, v2, r: float):
    """rss_star at order r as a function of one kappa, on Python floats: the
    value `_abc(_sums_at(...), v2, r)[3]` gives, inf where that is NaN."""
    c = v2[0] - r * v2[1]

    def f(kappa):
        sum_x2, del_x2, sum_xv, del_xv = _sums_at(data, dels, kappa)
        a = sum_x2 - r * del_x2
        if not abs(a) > 1e-14 * max(1.0, sum_x2):
            return math.inf
        b = sum_xv - r * del_xv
        val = c - b * b / a
        return math.inf if math.isnan(val) else val

    return f


def _v2(data: MMData, dels: np.ndarray) -> list:
    """(sum v^2, sum_del v^2): the first two kappa-sums with v in place of x."""
    v = data.velocity
    return [float(s) for s in _kappa_sums(v, v, dels)[:2]]


def _golden_section(f, lo, hi, minimize=True):
    """Golden-section search on [lo, hi]; returns (x, f(x)). The bracket
    stops GOLDEN_XTOL wide, or 4 ulps wide where floats lie further apart."""
    sgn = 1.0 if minimize else -1.0
    a, b = lo, hi
    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    fc, fd = sgn * f(c), sgn * f(d)
    while b - a > max(GOLDEN_XTOL, 4 * math.ulp(b)):
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - _INVPHI * (b - a)
            fc = sgn * f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INVPHI * (b - a)
            fd = sgn * f(d)
    x = 0.5 * (a + b)
    return x, f(x)


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


def _refined_extremum(grid, values, f, find_min, limit_candidates) -> Extremum:
    """Best of a golden-section refinement around each grid extremum and the
    (value, kappa) endpoint candidates; the first best candidate wins ties."""
    cands = []
    for i in _local_extrema_indices(values, find_min):
        x, fx = _golden_section(f, grid[max(i - 1, 0)], grid[min(i + 1, len(grid) - 1)],
                                minimize=find_min)
        cands.append((fx, x))
    cands.extend(limit_candidates)
    fx, x = (min if find_min else max)(cands, key=lambda t: t[0])
    return Extremum(value=float(fx), kappa=float(x))


@dataclass(frozen=True)
class KappaProfile:
    """The r-free part of the kappa scan of one deletion set `dels`, a
    sorted row of distinct cases: the kappa-sums on the grid, as kappa -> 0 (`zero`, x_i = 1) and the coefficients as
    kappa -> infinity (`inf`, x_i ~ c_i/kappa), v2 = (sum v^2, sum_del v^2),
    and the refined supremum of leverage and infimum of g."""

    data: MMData
    dels: np.ndarray
    grid: np.ndarray
    sums: tuple
    zero: list
    inf: list
    v2: list
    sup_leverage: Extremum
    inf_g: Extremum

    def moment_index(self) -> tuple:
        """Cut-offs (r_a, r_b, r_c) by bisection on r, each probe judging
        this profile.

        Bisection is valid because moment finiteness of the nonnegative
        weight is monotone in r. The leverage cut-off
        r_a = 1/sup_kappa(leverage) and the sample-size cut-off
        r_b = (n-1)/I do not depend on the residual scan, so bisection runs
        inside (1, min(r_a, r_b)].
        """
        data, dels = self.data, self.dels
        sup_lev = self.sup_leverage.value
        r_a = math.inf if sup_lev <= 1e-14 else 1.0 / sup_lev
        r_b = (data.n - 1.0) / dels.size
        hi = min(r_a, r_b)

        def finite_at(r):
            return theorem41_verdict(self, r).is_finite

        lo = 1.0 + 1e-9
        if not finite_at(lo):
            return r_a, r_b, lo
        hi_probe = hi - 1e-9
        if finite_at(hi_probe):
            r_c = math.inf
        else:
            a, b = lo, hi_probe
            while b - a > R_TOL:
                mid = 0.5 * (a + b)
                if finite_at(mid):
                    a = mid
                else:
                    b = mid
            r_c = 0.5 * (a + b)
            if r_c >= hi_probe - 2 * R_TOL:
                # The residual condition failed only at the leverage/sample cap.
                r_c = math.inf
        return r_a, r_b, r_c


def kappa_profile(data: MMData, dels: np.ndarray) -> KappaProfile:
    """The r-free part of the kappa scan: GRID_SIZE log-spaced kappa from
    1e-4 min(c) to 1e4 max(c) and the kappa-sums on them and at the
    endpoint limits, with golden-section refinement around each grid
    maximum of leverage and minimum of g and the limits folded into the
    reported extrema, so they cover the full half-line. Raises DataError
    unless sum x v is positive on the grid and at both limits."""
    if dels.size < 1:
        raise ValueError("deletion set must be nonempty")
    c, v = data.concentration, data.velocity
    grid = np.geomspace(1e-4 * float(c.min()), 1e4 * float(c.max()), GRID_SIZE)
    sums = _kappa_sums(c[:, None] / (grid + c[:, None]), v[:, None], dels)
    zero, inf = ([float(s) for s in _kappa_sums(x, v, dels)] for x in (np.ones_like(c), c))
    # "B > 0 iff g < 1/r" divides by sum x v, so it must be positive.
    if not min(zero[2], inf[2], float(sums[2].min())) > 0:
        raise DataError("the MM gate needs sum_i v_i c_i/(kappa + c_i) > 0 at every kappa; "
                        "these velocities make it zero or negative")

    def refined(k, find_min):
        """Refined extremum of leverage (k = 0) or g (k = 2), sums[k+1]/sums[k]."""
        def f(kappa):
            s = _sums_at(data, dels, kappa)
            return s[k + 1] / s[k]

        limits = [(zero[k + 1] / zero[k], 0.0), (inf[k + 1] / inf[k], math.inf)]
        return _refined_extremum(grid, sums[k + 1] / sums[k], f, find_min, limits)

    return KappaProfile(data=data, dels=dels, grid=grid, sums=sums, zero=zero, inf=inf,
                        v2=_v2(data, dels), sup_leverage=refined(0, False),
                        inf_g=refined(2, True))


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
    f_rss = _rss_star_at(profile.data, profile.dels, profile.v2, r)
    return _refined_extremum(profile.grid, rss, f_rss, True, rss_limits)


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
    cheapest first, and the first that decides returns: the sample size
    (no kappa scan), the violation intervals of `scan_kappa`, sup leverage,
    the slope pair, and last the refined infimum of rss_star.
    """
    if not r > 1:
        raise ValueError("moment order r must exceed 1")
    if profile.data.n <= r * profile.dels.size + 1:
        return MomentVerdict.infinite("sample size: n <= r*I + 1")
    intervals = scan_kappa(profile, r)
    if intervals:
        kinds = sorted({name for name, _, _ in intervals})
        return MomentVerdict.infinite(
            "violation on a non-negligible kappa set: " + ", ".join(kinds)
        )
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


def moment_index_mm(data: MMData, sets: np.ndarray, r_values):
    """Moment index of each row of `sets`, an (N, I) array of nonempty
    0-based deletion sets, each row sorted and distinct as `all_subsets`
    gives them, and its Thm 4.1 verdicts at each order r in `r_values`:
    (MomentIndexReport, one verdict list per set ordered as `r_values`). One
    kappa profile per set serves its index and every r. The profiles read c
    and v each divided by 2^p (`binary_exponent`), so that no kappa-sum
    leaves the float range and the verdicts are the same in any units."""
    data = MMData(*(np.ldexp(a, -binary_exponent(a)) for a in (data.concentration, data.velocity)))
    cuts, verdicts = [], []
    for dels in sets:
        profile = kappa_profile(data, dels)
        cuts.append(profile.moment_index())
        verdicts.append([theorem41_verdict(profile, r) for r in r_values])
    return MomentIndexReport.of(sets, *np.array(cuts).T), verdicts
