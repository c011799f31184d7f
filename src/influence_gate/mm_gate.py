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
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .core_model import DeletionSet, MMData, MomentIndexReport, MomentVerdict

DEFAULT_GRID_SIZE = 4096
MIN_GRID_SIZE = 16
GOLDEN_XTOL = 1e-8
_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0

# A kappa-interval counts as non-negligible when a strict violation holds at
# three consecutive scan points spanning more than this fraction of kappa;
# measure-zero touching must not trigger an infinite verdict.
NEGLIGIBLE_INTERVAL_FRACTION = 1e-6


@dataclass(frozen=True)
class KappaPriorSpec:
    """Proper prior on kappa; the default is a half-t with 3 degrees of
    freedom, which has a finite mean (declared, not verified numerically)."""

    dof: float = 3.0
    scale: float = 1.0
    integrable_mean: bool = True

    def __post_init__(self):
        if not (self.dof > 0 and self.scale > 0):
            raise ValueError("dof and scale must be positive")


@dataclass(frozen=True)
class MMEval:
    """Pointwise-in-kappa quantities; rss_star is None where A vanishes
    (a finite set of kappa values, so no error)."""

    kappa: float
    x: np.ndarray
    a_val: float
    b_val: float
    c_val: float
    leverage: float
    g_val: float
    rss_star: float | None

    @property
    def rss_star_defined(self) -> bool:
        return self.rss_star is not None


@dataclass(frozen=True)
class Extremum:
    value: float
    kappa: float


@dataclass(frozen=True)
class KappaScan:
    """Grid scan of the kappa axis with refined extrema and endpoint limits.

    Endpoint behavior is appended analytically: at kappa -> 0 every x_i
    tends to 1, and at kappa -> infinity the sign of A is governed by the
    quadratic concentration coefficient stored in `asymptotic_coefficient`.
    """

    grid: np.ndarray
    r: float
    c_val: float
    sup_leverage: Extremum
    inf_rss_star: Extremum
    sup_g: Extremum
    inf_g: Extremum
    sign_change_intervals: tuple
    asymptotic_coefficient: float
    limit_zero: dict
    limit_infinity: dict
    terminal_regime: bool
    refinements: tuple = field(default=())
    rss_star_all_defined: bool = True


def mm_eval(data: MMData, dels: DeletionSet, r: float, kappa: float) -> MMEval:
    """All pointwise quantities at one kappa."""
    if kappa <= 0:
        raise ValueError("kappa must be positive")
    c, v = data.concentration, data.velocity
    x = c / (kappa + c)
    mask = dels.mask()
    x2 = x * x
    xv = x * v
    sum_x2 = float(x2.sum())
    sum_xv = float(xv.sum())
    a = sum_x2 - r * float(x2[mask].sum())
    b = sum_xv - r * float(xv[mask].sum())
    cval = float((v * v).sum()) - r * float((v[mask] * v[mask]).sum())
    lev = float(x2[mask].sum()) / sum_x2
    g = float(xv[mask].sum()) / sum_xv
    tol_a = 1e-14 * max(1.0, sum_x2)
    rss = None if abs(a) < tol_a else cval - b * b / a
    return MMEval(
        kappa=float(kappa), x=x, a_val=a, b_val=b, c_val=cval,
        leverage=lev, g_val=g, rss_star=rss,
    )


def _golden_section(f, lo, hi, minimize=True, xtol=GOLDEN_XTOL):
    """Golden-section search on [lo, hi]; returns (x, f(x))."""
    sgn = 1.0 if minimize else -1.0
    a, b = lo, hi
    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    fc, fd = sgn * f(c), sgn * f(d)
    while b - a > xtol:
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


def _grid_quantities(data: MMData, dels: DeletionSet, r: float, grid: np.ndarray):
    c, v = data.concentration, data.velocity
    mask = dels.mask()
    x = c[:, None] / (grid[None, :] + c[:, None])  # (n, G)
    x2 = x * x
    xv = x * v[:, None]
    sum_x2 = x2.sum(axis=0)
    sum_xv = xv.sum(axis=0)
    del_x2 = x2[mask].sum(axis=0)
    del_xv = xv[mask].sum(axis=0)
    A = sum_x2 - r * del_x2
    B = sum_xv - r * del_xv
    C = float((v * v).sum()) - r * float((v[mask] * v[mask]).sum())
    lev = del_x2 / sum_x2
    g = del_xv / sum_xv
    defined = np.abs(A) > 1e-14 * np.maximum(1.0, sum_x2)
    with np.errstate(divide="ignore", invalid="ignore"):
        rss = np.where(defined, C - B * B / np.where(defined, A, 1.0), np.nan)
    return A, B, C, lev, g, rss, defined


def _limit_values(data: MMData, dels: DeletionSet, r: float):
    """Analytic endpoint limits of the scan functions."""
    c, v = data.concentration, data.velocity
    mask = dels.mask()
    n, I = data.n, dels.cardinality
    C = float((v * v).sum()) - r * float((v[mask] * v[mask]).sum())
    # kappa -> 0: every x_i -> 1.
    a0 = n - r * I
    b0 = float(v.sum()) - r * float(v[mask].sum())
    zero = {
        "leverage": I / n,
        "g": float(v[mask].sum()) / float(v.sum()),
        "a": float(a0),
        "b": b0,
        "rss_star": C - b0 * b0 / a0 if abs(a0) > 1e-14 else None,
    }
    # kappa -> infinity: x_i ~ c_i/kappa, so kappa^2 A -> a1 and kappa B -> b1.
    c2 = c * c
    cv = c * v
    a1 = float(c2.sum()) - r * float(c2[mask].sum())
    b1 = float(cv.sum()) - r * float(cv[mask].sum())
    inf_lim = {
        "leverage": float(c2[mask].sum()) / float(c2.sum()),
        "g": float(cv[mask].sum()) / float(cv.sum()),
        "a_coefficient": a1,
        "b_coefficient": b1,
        "rss_star": C - b1 * b1 / a1 if abs(a1) > 1e-12 * max(1.0, float(c2.sum())) else None,
    }
    return C, zero, inf_lim


def _local_extrema_indices(values: np.ndarray, find_min: bool) -> list:
    v = values if find_min else -values
    idx = []
    for i in range(1, len(v) - 1):
        if np.isnan(v[i - 1]) or np.isnan(v[i]) or np.isnan(v[i + 1]):
            continue
        if v[i] <= v[i - 1] and v[i] <= v[i + 1]:
            idx.append(i)
    best = int(np.nanargmin(v))
    if best not in idx:
        idx.append(best)
    return idx


def scan_kappa(
    data: MMData,
    dels: DeletionSet,
    r: float,
    kmin: float | None = None,
    kmax: float | None = None,
    grid_size: int = DEFAULT_GRID_SIZE,
) -> KappaScan:
    """Scan the kappa axis for extrema of leverage, g, and rss_star.

    Log-spaced grid plus golden-section refinement around each interior
    extremum; analytic endpoint limits are folded into the reported extrema
    so the scan covers the full half-line, not just the grid window.
    """
    if dels.cardinality < 1:
        raise ValueError("deletion set must be nonempty")
    if grid_size < MIN_GRID_SIZE:
        raise ValueError(f"grid_size must be at least {MIN_GRID_SIZE}")
    c = data.concentration
    if kmin is None:
        kmin = 1e-4 * float(c.min())
    if kmax is None:
        kmax = 1e4 * float(c.max())
    if not 0 < kmin < kmax:
        raise ValueError("need 0 < kmin < kmax")
    grid = np.geomspace(kmin, kmax, grid_size)
    A, B, C, lev, g, rss, defined = _grid_quantities(data, dels, r, grid)
    _, zero, inf_lim = _limit_values(data, dels, r)

    def f_lev(kappa):
        return mm_eval(data, dels, r, kappa).leverage

    def f_g(kappa):
        return mm_eval(data, dels, r, kappa).g_val

    def f_rss(kappa):
        val = mm_eval(data, dels, r, kappa).rss_star
        return math.inf if val is None else val

    refinements = []

    def refined_extremum(values, f, find_min, limit_candidates):
        cands = []
        for i in _local_extrema_indices(values, find_min):
            x, fx = _golden_section(f, grid[max(i - 1, 0)], grid[min(i + 1, len(grid) - 1)],
                                    minimize=find_min)
            cands.append((fx, x))
            refinements.append((f.__name__ if hasattr(f, "__name__") else "f", x, fx))
        cands.extend(limit_candidates)
        if find_min:
            fx, x = min(cands, key=lambda t: t[0])
        else:
            fx, x = max(cands, key=lambda t: t[0])
        return Extremum(value=float(fx), kappa=float(x))

    sup_leverage = refined_extremum(
        lev, f_lev, find_min=False,
        limit_candidates=[(zero["leverage"], 0.0), (inf_lim["leverage"], math.inf)],
    )
    sup_g = refined_extremum(
        g, f_g, find_min=False,
        limit_candidates=[(zero["g"], 0.0), (inf_lim["g"], math.inf)],
    )
    inf_g = refined_extremum(
        g, f_g, find_min=True,
        limit_candidates=[(zero["g"], 0.0), (inf_lim["g"], math.inf)],
    )
    rss_limits = []
    if zero["rss_star"] is not None:
        rss_limits.append((zero["rss_star"], 0.0))
    if inf_lim["rss_star"] is not None:
        rss_limits.append((inf_lim["rss_star"], math.inf))
    rss_for_min = np.where(defined, rss, np.nan)
    if np.all(np.isnan(rss_for_min)) and not rss_limits:
        inf_rss_star = Extremum(value=-math.inf, kappa=float(grid[0]))
    else:
        inf_rss_star = refined_extremum(rss_for_min, f_rss, find_min=True,
                                        limit_candidates=rss_limits)

    intervals = _violation_intervals(grid, A, B, C, rss, defined, zero, inf_lim, r)

    a1 = inf_lim["a_coefficient"]
    tail_ok = True
    if abs(a1) > 1e-12:
        tail_ok = abs(kmax * kmax * A[-1] - a1) <= 0.01 * abs(a1)
    head_ok = abs(lev[0] - zero["leverage"]) <= 0.01 * max(zero["leverage"], 1e-12)
    return KappaScan(
        grid=grid,
        r=float(r),
        c_val=C,
        sup_leverage=sup_leverage,
        inf_rss_star=inf_rss_star,
        sup_g=sup_g,
        inf_g=inf_g,
        sign_change_intervals=tuple(intervals),
        asymptotic_coefficient=a1,
        limit_zero=zero,
        limit_infinity=inf_lim,
        terminal_regime=bool(tail_ok and head_ok),
        refinements=tuple(refinements),
        rss_star_all_defined=bool(np.all(defined)),
    )


def _runs(mask: np.ndarray):
    """Start/end index pairs of runs of True."""
    out = []
    start = None
    for i, flag in enumerate(mask):
        if flag and start is None:
            start = i
        elif not flag and start is not None:
            out.append((start, i - 1))
            start = None
    if start is not None:
        out.append((start, len(mask) - 1))
    return out


def _violation_intervals(grid, A, B, C, rss, defined, zero, inf_lim, r):
    """Kappa-intervals where an infinite-moment condition holds strictly.

    Two families: 'leverage' where A < 0 (leverage above 1/r) and
    'residual' where rss_star < 0 together with C < 0 or g < 1/r (B > 0).
    A run needs three consecutive grid points and non-negligible width.
    Endpoint regimes extend beyond the grid and are recorded with 0 or inf
    endpoints.
    """
    scaleC = max(1.0, abs(C))
    tol = 1e-9 * scaleC
    intervals = []

    lev_mask = A < -1e-12 * np.maximum(1.0, np.abs(A).max())
    res_mask = defined & (rss < -tol) & ((C < -tol) | (B > 1e-12))
    for name, mask in (("leverage", lev_mask), ("residual", res_mask)):
        for i0, i1 in _runs(mask):
            if i1 - i0 + 1 < 3:
                continue
            mid = grid[(i0 + i1) // 2]
            if grid[i1] - grid[i0] > NEGLIGIBLE_INTERVAL_FRACTION * mid:
                intervals.append((name, float(grid[i0]), float(grid[i1])))

    # kappa -> infinity regime: A < 0 for all large kappa when the
    # concentration coefficient is negative.
    a1 = inf_lim["a_coefficient"]
    if a1 < -1e-12:
        intervals.append(("leverage", float(grid[-1]), math.inf))
    elif a1 > 1e-12 and inf_lim["rss_star"] is not None:
        if inf_lim["rss_star"] < -tol and (C < -tol or inf_lim["b_coefficient"] > 1e-12):
            intervals.append(("residual", float(grid[-1]), math.inf))
    # kappa -> 0 regime.
    if zero["a"] < -1e-12:
        intervals.append(("leverage", 0.0, float(grid[0])))
    elif zero["rss_star"] is not None and zero["rss_star"] < -tol:
        if C < -tol or zero["b"] > 1e-12:
            intervals.append(("residual", 0.0, float(grid[0])))
    return intervals


def theorem41_verdict(
    data: MMData, dels: DeletionSet, r: float, scan: KappaScan
) -> MomentVerdict:
    """Uniform-in-kappa finite/infinite decision at moment order r.

    Finite: leverage below 1/r uniformly, n > r*I + 1, and either rss_star
    positive uniformly or (C > 0 with g above 1/r uniformly). Infinite: a
    non-negligible kappa set violating leverage or the residual pair, or a
    sample size failure. Anything else is a boundary case.
    """
    if not r > 1:
        raise ValueError("moment order r must exceed 1")
    n, I = data.n, dels.cardinality
    if n <= r * I + 1:
        return MomentVerdict.infinite("sample size: n <= r*I + 1")
    if scan.sign_change_intervals:
        kinds = sorted({name for name, _, _ in scan.sign_change_intervals})
        return MomentVerdict.infinite(
            "violation on a non-negligible kappa set: " + ", ".join(kinds)
        )
    inv_r = 1.0 / r
    lev_tol = 1e-9
    scaleC = max(1.0, abs(scan.c_val))
    rss_tol = 1e-9 * scaleC
    if scan.sup_leverage.value > inv_r + lev_tol:
        # The supremum exceeds 1/r but no non-negligible interval was found:
        # the violation is confined to a vanishing set.
        return MomentVerdict.boundary("leverage touches 1/r on a negligible set")
    if scan.sup_leverage.value >= inv_r - lev_tol:
        return MomentVerdict.boundary("supremum of leverage at 1/r")
    residual_ok = scan.inf_rss_star.value > rss_tol
    slope_ok = scan.c_val > rss_tol and scan.inf_g.value > inv_r + lev_tol
    if residual_ok or slope_ok:
        return MomentVerdict.finite()
    return MomentVerdict.boundary("infimum of rss_star at zero")


@dataclass(frozen=True)
class MMScanParams:
    kmin: float | None = None
    kmax: float | None = None
    grid_size: int = DEFAULT_GRID_SIZE


def moment_index_mm(
    data: MMData,
    dels: DeletionSet,
    scan_params: MMScanParams | None = None,
    r_tol: float = 5e-4,
) -> MomentIndexReport:
    """Moment index by bisection on r, each probe re-scanning the kappa axis.

    Bisection is valid because moment finiteness of the nonnegative weight
    is monotone in r. The leverage cut-off r_a = 1/sup_kappa(leverage) and
    the sample-size cut-off r_b = (n-1)/I do not depend on the residual
    scan, so bisection runs inside (1, min(r_a, r_b)].
    """
    params = scan_params or MMScanParams()
    n, I = data.n, dels.cardinality
    if I < 1:
        raise ValueError("deletion set must be nonempty")
    base = scan_kappa(data, dels, 2.0, params.kmin, params.kmax, params.grid_size)
    sup_lev = base.sup_leverage.value  # leverage does not depend on r
    r_a = math.inf if sup_lev <= 1e-14 else 1.0 / sup_lev
    r_b = (n - 1.0) / I
    hi = min(r_a, r_b)

    def finite_at(r):
        scan = scan_kappa(data, dels, r, params.kmin, params.kmax, params.grid_size)
        return theorem41_verdict(data, dels, r, scan).is_finite

    lo = 1.0 + 1e-9
    if not math.isfinite(hi):
        raise ValueError("both leverage and sample-size cut-offs are infinite")
    if not finite_at(lo):
        return MomentIndexReport(r_a=r_a, r_b=r_b, r_c=lo, binding="residual")
    hi_probe = hi - 1e-9
    if finite_at(hi_probe):
        r_c = math.inf
        cuts = {"leverage": r_a, "sample-size": r_b, "residual": r_c}
    else:
        a, b = lo, hi_probe
        while b - a > r_tol:
            mid = 0.5 * (a + b)
            if finite_at(mid):
                a = mid
            else:
                b = mid
        r_c = 0.5 * (a + b)
        if r_c >= hi_probe - 2 * r_tol:
            # The residual condition failed only at the leverage/sample cap.
            r_c = math.inf
        cuts = {"leverage": r_a, "sample-size": r_b, "residual": r_c}
    binding = min(cuts, key=lambda kk: (cuts[kk], ("leverage", "sample-size", "residual").index(kk)))
    return MomentIndexReport(r_a=r_a, r_b=r_b, r_c=cuts["residual"], binding=binding)
