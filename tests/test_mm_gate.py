import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from influence_gate import mm_gate
from influence_gate.core_model import MMData, VerdictTag, all_subsets
from influence_gate.mm_gate import (
    GRID_SIZE,
    ZOOM_POINTS,
    ZOOM_RTOL,
    Extremum,
    KappaProfile,
    _abc,
    _inf_rss_star,
    _local_extrema_indices,
    _refined_extremum,
    _runs,
    _sums_on,
    kappa_profile,
    min_fit_rss_fraction,
    moment_index_mm,
    scan_kappa,
    theorem41_verdict,
)

from conftest import deleted, one_set, report_rows

TABLE_ASYMPTOTIC = [1.97, 1.97, 1.96, 1.96, 1.94, 1.94, 1.87, 1.87, 1.34, 1.34, -0.45]


def refit_rss_no_intercept(x, v, keep) -> float:
    """Oracle: RSS of the no-intercept least-squares fit v ~ x on kept cases."""
    xs, vs = x[keep], v[keep]
    slope = float(xs @ vs) / float(xs @ xs)
    r = vs - slope * xs
    return float(r @ r)


def mm_reference(data, dels, r, kappa) -> dict:
    """Oracle: the pointwise quantities at one kappa, from x = c/(kappa+c)
    and the kept (o) and deleted (d) cases."""
    x, v = data.concentration / (kappa + data.concentration), data.velocity
    d = np.isin(np.arange(data.n), dels)
    o = ~d
    a = x[o] @ x[o] - (r - 1.0) * x[d] @ x[d]
    b = x[o] @ v[o] - (r - 1.0) * x[d] @ v[d]
    c = v[o] @ v[o] - (r - 1.0) * v[d] @ v[d]
    return {"a": a, "b": b, "c": c, "rss_star": c - b * b / a,
            "leverage": x[d] @ x[d] / (x @ x), "g": x[d] @ v[d] / (x @ v)}


def index_of(data, dels):
    """The kernel's moment-index report of one deletion set, as one report row."""
    [row] = report_rows(moment_index_mm(data, one_set(dels), ())[0])
    return row


def kernel_at(data, dels, r, kappa) -> dict:
    """The same quantities from the kernel's kappa-sums at one kappa, as the
    grid and the refinement evaluate them; rss_star is NaN where A vanishes.
    The kappa is one of a pair: numpy sums the cases of a lone kappa
    pairwise, and those of a kappa array one case after another."""
    sums = [s[0] for s in _sums_on(data, dels, np.full(2, kappa))]
    a, b, c, rss = _abc(sums, KappaProfile.of(data, dels).v2, r)
    return {"a": a, "b": b, "c": c, "rss_star": float(rss),
            "leverage": sums[1] / sums[0], "g": sums[3] / sums[2]}


class TestMMEval:
    def test_leverage_case_11_at_kappa_2(self, puromycin):
        dels = deleted([10])
        for at in (kernel_at, mm_reference):
            assert at(puromycin, dels, 2.0, 2.0)["leverage"] == pytest.approx(0.5065, abs=5e-4)

    def test_kappa_to_zero_equalizes(self, puromycin):
        dels = deleted([4])
        assert kernel_at(puromycin, dels, 2.0, 1e-9)["leverage"] == pytest.approx(
            1.0 / 11.0, abs=1e-6)
        zero = kappa_profile(puromycin, dels).zero
        assert zero[1] / zero[0] == pytest.approx(1.0 / 11.0, abs=1e-15)

    def test_rss_star_refit_identity_at_r1(self, puromycin):
        rng = np.random.default_rng(3)
        dels = deleted([6])
        keep = np.array([i for i in range(11) if i != 6])
        c = puromycin.concentration
        for kappa in rng.uniform(0.01, 20.0, size=20):
            oracle = refit_rss_no_intercept(c / (kappa + c), puromycin.velocity, keep)
            rss = kernel_at(puromycin, dels, 1.0, float(kappa))["rss_star"]
            assert rss == pytest.approx(oracle, rel=1e-10)

    def test_rss_star_undefined_tagged_not_raised(self, puromycin):
        dels = deleted([10])
        # find a kappa where A crosses zero at r=2 (leverage = 1/2); A is
        # positive at kappa=0.5 and negative at kappa=10 for this case
        lo, hi = 0.5, 10.0
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if kernel_at(puromycin, dels, 2.0, mid)["a"] > 0:
                lo = mid
            else:
                hi = mid
        at = kernel_at(puromycin, dels, 2.0, 0.5 * (lo + hi))
        assert abs(at["a"]) < 1e-10
        assert math.isnan(at["rss_star"])


class TestScanKappa:
    def test_sup_g_case_1(self, puromycin):
        profile = kappa_profile(puromycin, deleted([0]))
        sums, zero, inf = profile.sums, profile.zero, profile.inf
        sup_g = max(np.max(sums[3] / sums[2]), zero[3] / zero[2], inf[3] / inf[2])
        assert sup_g == pytest.approx(0.05501, abs=5e-4)

    def test_negative_rss_near_008_case_1(self, puromycin):
        inf_rss_star = _inf_rss_star(kappa_profile(puromycin, deleted([0])), 2.0)
        assert inf_rss_star.value < 0
        assert 0.04 < inf_rss_star.kappa < 0.15

    def test_asymptotic_coefficients_match(self, puromycin):
        # kappa^2 A -> sum c^2 - r sum_del c^2 as kappa -> infinity, at r = 2
        for i, expected in enumerate(TABLE_ASYMPTOTIC):
            inf = kappa_profile(puromycin, deleted([i])).inf
            assert inf[0] - 2.0 * inf[1] == pytest.approx(expected, abs=5e-3)

    def test_singleton_leverages_sum_to_one(self, puromycin):
        profiles = [kappa_profile(puromycin, deleted([i])) for i in range(11)]
        total = sum(p.sums[1] / p.sums[0] for p in profiles)
        assert np.allclose(total, 1.0, rtol=0.0, atol=1e-12)

    def test_sign_equivalences_on_grid(self, puromycin):
        """A < 0 iff leverage > 1/r and B > 0 iff g < 1/r, pointwise."""
        r = 2.0
        profile = kappa_profile(puromycin, deleted([10]))
        sums = profile.sums
        A, B, _, _ = _abc(sums, profile.v2, r)
        lev, g = sums[1] / sums[0], sums[3] / sums[2]
        clear = np.abs(A) > 1e-10
        assert np.array_equal((A < 0)[clear], (lev > 1.0 / r)[clear])
        clear = np.abs(B) > 1e-10
        assert np.array_equal((B > 0)[clear], (g < 1.0 / r)[clear])

    def test_kappa_squared_A_converges(self, puromycin):
        dels = deleted([2])
        r = 2.0
        profile = kappa_profile(puromycin, dels)
        a1 = profile.inf[0] - r * profile.inf[1]
        kappa = 1e3 * float(puromycin.concentration.max())
        a = mm_reference(puromycin, dels, r, kappa)["a"]
        assert kappa * kappa * a == pytest.approx(a1, rel=0.01)
        # the grid reaches both endpoint regimes: kappa^2 A at its last point
        # and the leverage at its first are within 1% of their limits
        grid, sums, zero = profile.grid, profile.sums, profile.zero
        A = _abc(sums, profile.v2, r)[0]
        assert grid[-1] ** 2 * A[-1] == pytest.approx(a1, rel=0.01)
        assert sums[1][0] / sums[0][0] == pytest.approx(zero[1] / zero[0], rel=0.01)

    def test_refined_extrema_bracket_grid(self, puromycin):
        dels = deleted([0])
        profile = kappa_profile(puromycin, dels)
        grid_lev = [mm_reference(puromycin, dels, 2.0, float(k))["leverage"]
                    for k in profile.grid[::97]]
        assert profile.sup_leverage.value >= max(grid_lev) - 1e-12

    def test_empty_deletion_rejected(self, puromycin):
        with pytest.raises(ValueError):
            scan_kappa(kappa_profile(puromycin, deleted([])), 2.0)


class TestTheorem41Verdict:
    def test_case_11_infinite_at_2(self, puromycin):
        v = theorem41_verdict(kappa_profile(puromycin, deleted([10])), 2.0)
        assert v.tag is VerdictTag.INFINITE
        assert "leverage" in v.detail

    def test_case_1_infinite_at_2(self, puromycin):
        v = theorem41_verdict(kappa_profile(puromycin, deleted([0])), 2.0)
        assert v.tag is VerdictTag.INFINITE
        assert "residual" in v.detail

    def test_middle_cases_finite_at_2(self, puromycin):
        for i in range(1, 10):
            profile = kappa_profile(puromycin, deleted([i]))
            assert theorem41_verdict(profile, 2.0).is_finite, f"case {i + 1}"

    def test_sample_size_condition(self, puromycin):
        dels = deleted([0, 1, 2, 3, 4])  # I = 5, so n <= rI+1 at r = 2
        v = theorem41_verdict(kappa_profile(puromycin, dels), 2.0)
        assert v.tag is VerdictTag.INFINITE
        assert "sample size" in v.detail

    def test_verdict_monotone_in_r(self, puromycin):
        dels = deleted([4])
        seen_infinite = False
        for r in np.linspace(1.2, 4.0, 15):
            v = theorem41_verdict(kappa_profile(puromycin, dels), float(r))
            if seen_infinite and v.is_finite:
                pytest.fail(f"flip back to finite at r={r}")
            seen_infinite = seen_infinite or v.tag is VerdictTag.INFINITE


# Residual cut-offs r_c of the 11 Puromycin singleton deletions.
SINGLETON_RC = [1.5937, 2.7912, 4.4963, 5.1689, 2.8678, 5.1914,
                6.3796, 5.3198, 3.7706, 2.8093, 1.3233]


class TestMomentIndexMM:
    # Two-decimal r* of cases 1, 11 and 7; test_singleton holds all 11 to 5e-4.
    def test_case_1(self, puromycin):
        rep = index_of(puromycin, deleted([0]))
        assert rep.r_star == pytest.approx(1.59, abs=0.02)
        assert rep.binding == "residual"

    def test_case_11(self, puromycin):
        rep = index_of(puromycin, deleted([10]))
        assert rep.r_star == pytest.approx(1.32, abs=0.02)

    def test_case_7(self, puromycin):
        rep = index_of(puromycin, deleted([6]))
        assert rep.r_star == pytest.approx(6.38, abs=0.02)

    @pytest.mark.parametrize("case", range(1, 12))
    def test_singleton(self, puromycin, case):
        rep = index_of(puromycin, deleted([case - 1]))
        assert rep.r_c == pytest.approx(SINGLETON_RC[case - 1], abs=5e-4)
        assert rep.binding == "residual"
        assert rep.r_star == rep.r_c

    def test_permutation_invariance(self, puromycin):
        rng = np.random.default_rng(2)
        perm = rng.permutation(11)
        data2 = MMData(
            concentration=puromycin.concentration[perm],
            velocity=puromycin.velocity[perm],
        )
        new_index = int(np.where(perm == 0)[0][0])
        a = index_of(puromycin, deleted([0]))
        b = index_of(data2, deleted([new_index]))
        assert a.r_star == pytest.approx(b.r_star, abs=2e-3)

    def test_outlier_perturbation_weakly_decreases(self, puromycin):
        """Moving the deleted velocity away from the fitted curve cannot
        raise the moment index."""
        base = index_of(puromycin, deleted([0])).r_star
        vel = np.array(puromycin.velocity)
        vel[0] += 60.0  # push case 1 further above the curve
        pushed = MMData(concentration=puromycin.concentration, velocity=vel)
        moved = index_of(pushed, deleted([0])).r_star
        assert moved <= base + 1e-6

    def test_sample_size_binds_below_the_residual_probe(self, puromycin):
        # With 10 of 11 cases deleted the residual condition fails at the
        # first probe r = 1 + 1e-9, but r_b = (n-1)/I = 1 is smaller still.
        rep = index_of(puromycin, deleted(range(10)))
        assert (rep.r_b, rep.r_c, rep.r_star) == (1.0, 1.0 + 1e-9, 1.0)
        assert rep.binding == "sample-size"

    def test_invariant_r_star_is_min(self, puromycin):
        rep = index_of(puromycin, deleted([8]))
        assert rep.r_star == min(rep.r_a, rep.r_b, rep.r_c)


def runs_reference(mask) -> list:
    """Oracle: start/end index pairs of runs of True, by a scan."""
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


def local_extrema_reference(values, find_min: bool) -> list:
    """Oracle: interior points no worse than both neighbours, none of the
    three NaN, then the global best if it is not among them."""
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


@pytest.mark.parametrize("unit", [1e120, 1e-300])
@pytest.mark.parametrize("find_min", [True, False])
def test_zoom_stops_in_a_few_rounds_in_any_units(unit, find_min):
    """The zoom's stop is relative, hi/lo - 1 < ZOOM_RTOL, so near 1e120,
    where adjacent floats lie ~1e104 apart, and near 1e-300 it stops within
    the same few rounds; `f` raises where an unbounded zoom would loop."""
    rounds = []
    sgn = 1.0 if find_min else -1.0

    def objective(kappa):
        return sgn * (kappa / unit - 1.5) ** 2

    def f(kappa):
        rounds.append(kappa.shape)
        if len(rounds) > 6:
            raise RuntimeError("the zoom did not stop")
        return objective(kappa)

    grid = np.geomspace(1e-1 * unit, 1e1 * unit, 64)
    ext = _refined_extremum(grid, objective(grid), f, find_min, [])
    assert len(rounds) == 5 and abs(ext.kappa / (1.5 * unit) - 1.0) < 10 * ZOOM_RTOL
    assert ext.value == objective(np.array(ext.kappa)) and abs(ext.value) < 1e-16


def test_zoom_on_a_plateau_refines_the_best_extrema_only():
    """On a plateau nearly every interior grid point is a local extremum;
    the zoom brackets the best GRID_SIZE // ZOOM_POINTS of them, so each
    round evaluates f at no more kappa than the grid has."""
    sizes = []

    def f(kappa):
        sizes.append(kappa.size)
        return 2.0 + 1e-16 * np.cos(1e4 * np.log(kappa))

    grid = np.geomspace(1e-3, 1e3, GRID_SIZE)
    values = f(grid)
    sizes.clear()
    ext = _refined_extremum(grid, values, f, True, [(3.0, 0.0)])
    assert len(_local_extrema_indices(values, True)) > 1000
    assert sizes == [GRID_SIZE // ZOOM_POINTS * ZOOM_POINTS] * len(sizes) and len(sizes) <= 6
    assert ext.value <= values.min()


class TestMinFitRss:
    EPS = np.finfo(float).eps

    def curve(self, puromycin, noise):
        c = puromycin.concentration
        z = np.random.default_rng(5).standard_normal(c.size)
        return MMData(concentration=c, velocity=100.0 * c / (0.5 + c) * (1.0 + noise * z))

    def test_bundled_data_fit_leaves_a_fraction_of_sum_v2(self, puromycin):
        # the least RSS over kappa, against sum v^2 = 148,208
        assert min_fit_rss_fraction(puromycin) == pytest.approx(5.8e-3, rel=0.01)

    def test_exact_curve_is_at_rounding_level_and_noise_is_not(self, puromycin):
        # On the grid alone the exact curve's least RSS is ~1e-7 of sum v^2;
        # the zoom takes it to rounding level.
        assert abs(min_fit_rss_fraction(self.curve(puromycin, 0.0))) <= 4 * self.EPS
        assert min_fit_rss_fraction(self.curve(puromycin, 1e-6)) > 100 * self.EPS

    @pytest.mark.parametrize("c_unit, v_unit", [(1e-300, 1.0), (1e4, 1.0), (1.0, 1e300),
                                                (1.0, 1e-6)])
    def test_in_any_units(self, puromycin, c_unit, v_unit):
        for data in (puromycin, self.curve(puromycin, 0.0)):
            scaled = MMData(concentration=data.concentration * c_unit,
                            velocity=data.velocity * v_unit)
            want = min_fit_rss_fraction(data)
            assert min_fit_rss_fraction(scaled) == pytest.approx(want, rel=1e-9, abs=4 * self.EPS)


class TestGridHelpers:
    @given(st.lists(st.booleans(), max_size=40))
    def test_runs_match_scan(self, flags):
        assert _runs(np.array(flags, dtype=bool)) == runs_reference(flags)

    @pytest.mark.parametrize("flags", [[], [True] * 7, [False] * 7, [True, False, True],
                                       [False, True, True, False]])
    def test_runs_edge_cases(self, flags):
        assert _runs(np.array(flags, dtype=bool)) == runs_reference(flags)

    # Few distinct levels so that plateaus and ties are common.
    @given(st.lists(st.sampled_from([math.nan, -1.0, 0.0, 0.5, 2.0]), min_size=1, max_size=40)
           .filter(lambda xs: not all(math.isnan(x) for x in xs)),
           st.booleans())
    def test_local_extrema_match_scan(self, values, find_min):
        v = np.array(values)
        assert _local_extrema_indices(v, find_min) == local_extrema_reference(v, find_min)

    @pytest.mark.parametrize("values", [[1.0], [2.0, 1.0], [1.0] * 6, [math.nan, 1.0, math.nan],
                                        [3.0, 1.0, 1.0, 1.0, 3.0], [1.0, 2.0, 3.0, 2.0, 1.0]])
    @pytest.mark.parametrize("find_min", [True, False])
    def test_local_extrema_edge_cases(self, values, find_min):
        v = np.array(values)
        assert _local_extrema_indices(v, find_min) == local_extrema_reference(v, find_min)


class TestKappaProfile:
    def test_extrema_match_pointwise_evaluation(self, puromycin):
        for case in (1, 9):  # case 9 has an interior supremum of leverage
            dels = deleted([case - 1])
            profile = kappa_profile(puromycin, dels)
            for ext, field in ((profile.sup_leverage, "leverage"), (profile.inf_g, "g"),
                               (_inf_rss_star(profile, 2.0), "rss_star")):
                if 0.0 < ext.kappa < math.inf:
                    assert kernel_at(puromycin, dels, 2.0, ext.kappa)[field] == ext.value
                    want = mm_reference(puromycin, dels, 2.0, ext.kappa)[field]
                    assert ext.value == pytest.approx(want, rel=1e-10)


def eager_inf_rss_star(profile, r):
    """Oracle: the infimum of rss_star refined by the array objective, from
    the grid values and limits of `_abc` alone."""
    rss = _abc(profile.sums, profile.v2, r)[3]
    rss0 = _abc(profile.zero, profile.v2, r, 1e-14)[3]
    rss1 = _abc(profile.inf, profile.v2, r, 1e-12 * max(1.0, profile.inf[0]))[3]
    limits = [(float(val), kappa) for val, kappa in ((rss0, 0.0), (rss1, math.inf))
              if not np.isnan(val)]
    if np.all(np.isnan(rss)) and not limits:
        return Extremum(value=-math.inf, kappa=float(profile.grid[0]))
    return _refined_extremum(
        profile.grid, rss,
        lambda kappa: _abc(_sums_on(profile.data, profile.dels, kappa), profile.v2, r)[3],
        True, limits)


def count_refinements(monkeypatch, profile) -> list:
    """Wrap `mm_gate._refined_extremum` once the profile's leverage and g
    extrema, refined when first read, are; the returned list gets one entry
    per call."""
    assert profile.sup_leverage and profile.inf_g
    calls = []
    monkeypatch.setattr(mm_gate, "_refined_extremum",
                        lambda *args: calls.append(args) or _refined_extremum(*args))
    return calls


class TestLazyRssStar:
    R_VALUES = (1.3, 2.0, 3.7)

    @pytest.mark.parametrize("size", [1, 2])
    def test_moment_index_mm_matches_eager_scan(self, puromycin, monkeypatch, size):
        sets = all_subsets(11, size)
        lazy, lazy_verdicts = moment_index_mm(puromycin, sets, self.R_VALUES)
        with monkeypatch.context() as m:
            m.setattr(mm_gate, "_inf_rss_star", eager_inf_rss_star)
            eager, eager_verdicts = moment_index_mm(puromycin, sets, self.R_VALUES)
        assert lazy.count == math.comb(11, size)
        assert report_rows(lazy) == report_rows(eager) and lazy_verdicts == eager_verdicts

    @pytest.mark.parametrize("cases, r, reason", [
        ([0], 2.0, "violation on a non-negligible kappa set: residual"),
        ([10], 2.0, "violation on a non-negligible kappa set: leverage, residual"),
        ([4], 10.5, "sample size: n <= r*I + 1"),
    ])
    def test_settled_verdict_never_refines_rss_star(self, puromycin, monkeypatch, cases, r,
                                                    reason):
        profile = kappa_profile(puromycin, deleted(cases))
        calls = count_refinements(monkeypatch, profile)
        verdict = theorem41_verdict(profile, r)
        assert verdict.tag is VerdictTag.INFINITE and verdict.detail == reason
        assert calls == []

    def test_slope_pair_verdict_never_refines_rss_star(self, monkeypatch):
        # With velocities of both signs, C > 0 and g above 1/r settle case 5
        # at r = 2 as finite although inf rss_star is negative.
        data = MMData(concentration=[1.72, 0.12, 1.47, 0.39, 1.73, 1.11],
                      velocity=[-5.0, 13.0, -46.0, -31.0, 51.0, 47.0])
        profile = kappa_profile(data, deleted([4]))
        calls = count_refinements(monkeypatch, profile)
        assert theorem41_verdict(profile, 2.0).is_finite
        assert calls == []
        assert _inf_rss_star(profile, 2.0).value < 0 and len(calls) == 1

    def test_residual_verdict_refines_rss_star_once(self, puromycin, monkeypatch):
        # r_c of case 1 is 1.59: below it no violation interval settles the
        # verdict, and C > 0 with inf g above 1/r fails, so rss_star is read.
        profile = kappa_profile(puromycin, deleted([0]))
        calls = count_refinements(monkeypatch, profile)
        c_val = profile.v2[0] - 1.5 * profile.v2[1]
        assert not (c_val > 0 and profile.inf_g.value > 1 / 1.5)
        assert theorem41_verdict(profile, 1.5).is_finite
        assert len(calls) == 1
        assert _inf_rss_star(profile, 1.5) == eager_inf_rss_star(profile, 1.5)


def count_scans(monkeypatch) -> list:
    """Wrap `mm_gate.scan_kappa`; the returned list gets the order r of each
    call."""
    orders = []
    monkeypatch.setattr(mm_gate, "scan_kappa",
                        lambda profile, r: orders.append(r) or scan_kappa(profile, r))
    return orders


class TestCheckOrder:
    def test_sample_size_verdict_scans_no_kappa(self, puromycin, monkeypatch):
        # n = 11 <= 10.5 * 1 + 1 settles case 5 at r = 10.5 before any scan.
        orders = count_scans(monkeypatch)
        _, verdicts = moment_index_mm(puromycin, np.array([[4]]), [10.5])
        assert verdicts[0][0].detail == "sample size: n <= r*I + 1"
        assert orders and 10.5 not in orders

    def test_singleton_gate_scans_once_per_verdict(self, puromycin, monkeypatch):
        # 11 bisections and 11 verdicts at r = 2; a second scan per probe
        # would double this.
        orders = count_scans(monkeypatch)
        moment_index_mm(puromycin, all_subsets(11, 1), [2.0])
        assert len(orders) == 188
