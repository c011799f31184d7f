import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from influence_gate.core_model import MMData, deletion_set
from influence_gate.mm_gate import (
    KappaPriorSpec,
    _local_extrema_indices,
    _runs,
    kappa_profile,
    mm_eval,
    moment_index_mm,
    scan_kappa,
    theorem41_verdict,
)

TABLE_ASYMPTOTIC = [1.97, 1.97, 1.96, 1.96, 1.94, 1.94, 1.87, 1.87, 1.34, 1.34, -0.45]


def refit_rss_no_intercept(x, v, keep) -> float:
    """Oracle: RSS of the no-intercept least-squares fit v ~ x on kept cases."""
    xs, vs = x[keep], v[keep]
    slope = float(xs @ vs) / float(xs @ xs)
    r = vs - slope * xs
    return float(r @ r)


class TestMMEval:
    def test_leverage_case_11_at_kappa_2(self, puromycin):
        ev = mm_eval(puromycin, deletion_set([10], 11), 2.0, 2.0)
        assert ev.leverage == pytest.approx(0.5065, abs=5e-4)

    def test_kappa_to_zero_equalizes(self, puromycin):
        ev = mm_eval(puromycin, deletion_set([4], 11), 2.0, 1e-9)
        assert ev.leverage == pytest.approx(1.0 / 11.0, abs=1e-6)
        assert np.all((ev.x > 0) & (ev.x < 1))

    def test_rss_star_refit_identity_at_r1(self, puromycin):
        rng = np.random.default_rng(3)
        dels = deletion_set([6], 11)
        keep = np.array([i for i in range(11) if i != 6])
        for kappa in rng.uniform(0.01, 20.0, size=20):
            ev = mm_eval(puromycin, dels, 1.0, float(kappa))
            oracle = refit_rss_no_intercept(ev.x, puromycin.velocity, keep)
            assert ev.rss_star == pytest.approx(oracle, rel=1e-10)

    def test_rss_star_undefined_tagged_not_raised(self, puromycin):
        dels = deletion_set([10], 11)
        # find a kappa where A crosses zero at r=2 (leverage = 1/2); A is
        # positive at kappa=0.5 and negative at kappa=10 for this case
        lo, hi = 0.5, 10.0
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if mm_eval(puromycin, dels, 2.0, mid).a_val > 0:
                lo = mid
            else:
                hi = mid
        ev = mm_eval(puromycin, dels, 2.0, 0.5 * (lo + hi))
        assert abs(ev.a_val) < 1e-10
        assert ev.rss_star is None


class TestScanKappa:
    def test_sup_g_case_1(self, puromycin):
        scan = scan_kappa(puromycin, deletion_set([0], 11), 2.0)
        assert scan.sup_g.value == pytest.approx(0.05501, abs=5e-4)

    def test_negative_rss_near_008_case_1(self, puromycin):
        scan = scan_kappa(puromycin, deletion_set([0], 11), 2.0)
        assert scan.inf_rss_star.value < 0
        assert 0.04 < scan.inf_rss_star.kappa < 0.15

    def test_asymptotic_coefficients_match(self, puromycin):
        for i, expected in enumerate(TABLE_ASYMPTOTIC):
            scan = scan_kappa(puromycin, deletion_set([i], 11), 2.0)
            assert scan.asymptotic_coefficient == pytest.approx(expected, abs=5e-3)

    def test_singleton_leverages_sum_to_one(self, puromycin):
        grid = np.geomspace(1e-3, 1e3, 64)
        for kappa in grid:
            total = sum(
                mm_eval(puromycin, deletion_set([i], 11), 2.0, float(kappa)).leverage
                for i in range(11)
            )
            assert total == pytest.approx(1.0, abs=1e-12)

    def test_sign_equivalences_on_grid(self, puromycin):
        """A < 0 iff leverage > 1/r and B > 0 iff g < 1/r, pointwise."""
        dels = deletion_set([10], 11)
        r = 2.0
        for kappa in np.geomspace(1e-3, 1e3, 200):
            ev = mm_eval(puromycin, dels, r, float(kappa))
            if abs(ev.a_val) > 1e-10:
                assert (ev.a_val < 0) == (ev.leverage > 1.0 / r)
            if abs(ev.b_val) > 1e-10:
                assert (ev.b_val > 0) == (ev.g_val < 1.0 / r)

    def test_kappa_squared_A_converges(self, puromycin):
        dels = deletion_set([2], 11)
        r = 2.0
        scan = scan_kappa(puromycin, dels, r)
        kappa = 1e3 * float(puromycin.concentration.max())
        ev = mm_eval(puromycin, dels, r, kappa)
        assert kappa * kappa * ev.a_val == pytest.approx(
            scan.asymptotic_coefficient, rel=0.01
        )
        assert scan.terminal_regime

    def test_refined_extrema_bracket_grid(self, puromycin):
        dels = deletion_set([0], 11)
        scan = scan_kappa(puromycin, dels, 2.0)
        grid_lev = [mm_eval(puromycin, dels, 2.0, float(k)).leverage for k in scan.grid[::97]]
        assert scan.sup_leverage.value >= max(grid_lev) - 1e-12

    def test_small_grid_rejected(self, puromycin):
        with pytest.raises(ValueError):
            scan_kappa(puromycin, deletion_set([0], 11), 2.0, grid_size=8)

    def test_empty_deletion_rejected(self, puromycin):
        with pytest.raises(ValueError):
            scan_kappa(puromycin, deletion_set([], 11), 2.0)


class TestTheorem41Verdict:
    def test_case_11_infinite_at_2(self, puromycin):
        dels = deletion_set([10], 11)
        scan = scan_kappa(puromycin, dels, 2.0)
        v = theorem41_verdict(puromycin, dels, 2.0, scan)
        assert v.is_infinite
        assert "leverage" in v.detail

    def test_case_1_infinite_at_2(self, puromycin):
        dels = deletion_set([0], 11)
        scan = scan_kappa(puromycin, dels, 2.0)
        v = theorem41_verdict(puromycin, dels, 2.0, scan)
        assert v.is_infinite
        assert "residual" in v.detail

    def test_middle_cases_finite_at_2(self, puromycin):
        for i in range(1, 10):
            dels = deletion_set([i], 11)
            scan = scan_kappa(puromycin, dels, 2.0)
            assert theorem41_verdict(puromycin, dels, 2.0, scan).is_finite, f"case {i + 1}"

    def test_sample_size_condition(self, puromycin):
        dels = deletion_set([0, 1, 2, 3, 4], 11)  # I = 5, so n <= rI+1 at r = 2
        scan = scan_kappa(puromycin, dels, 2.0)
        v = theorem41_verdict(puromycin, dels, 2.0, scan)
        assert v.is_infinite
        assert "sample size" in v.detail

    def test_verdict_monotone_in_r(self, puromycin):
        dels = deletion_set([4], 11)
        seen_infinite = False
        for r in np.linspace(1.2, 4.0, 15):
            scan = scan_kappa(puromycin, dels, float(r))
            v = theorem41_verdict(puromycin, dels, float(r), scan)
            if seen_infinite and v.is_finite:
                pytest.fail(f"flip back to finite at r={r}")
            seen_infinite = seen_infinite or v.is_infinite


# Residual cut-offs r_c of the 11 Puromycin singleton deletions.
SINGLETON_RC = [1.5937, 2.7912, 4.4963, 5.1689, 2.8678, 5.1914,
                6.3796, 5.3198, 3.7706, 2.8093, 1.3233]


class TestMomentIndexMM:
    # Two-decimal r* of cases 1, 11 and 7; test_singleton holds all 11 to 5e-4.
    def test_case_1(self, puromycin):
        rep = moment_index_mm(puromycin, deletion_set([0], 11))
        assert rep.r_star == pytest.approx(1.59, abs=0.02)
        assert rep.binding == "residual"

    def test_case_11(self, puromycin):
        rep = moment_index_mm(puromycin, deletion_set([10], 11))
        assert rep.r_star == pytest.approx(1.32, abs=0.02)

    def test_case_7(self, puromycin):
        rep = moment_index_mm(puromycin, deletion_set([6], 11))
        assert rep.r_star == pytest.approx(6.38, abs=0.02)

    @pytest.mark.parametrize("case", range(1, 12))
    def test_singleton(self, puromycin, case):
        rep = moment_index_mm(puromycin, deletion_set([case - 1], 11))
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
        a = moment_index_mm(puromycin, deletion_set([0], 11))
        b = moment_index_mm(data2, deletion_set([new_index], 11))
        assert a.r_star == pytest.approx(b.r_star, abs=2e-3)

    def test_outlier_perturbation_weakly_decreases(self, puromycin):
        """Moving the deleted velocity away from the fitted curve cannot
        raise the moment index."""
        base = moment_index_mm(puromycin, deletion_set([0], 11)).r_star
        vel = np.array(puromycin.velocity)
        vel[0] += 60.0  # push case 1 further above the curve
        pushed = MMData(concentration=puromycin.concentration, velocity=vel)
        moved = moment_index_mm(pushed, deletion_set([0], 11)).r_star
        assert moved <= base + 1e-6

    def test_sample_size_binds_below_the_residual_probe(self, puromycin):
        # With 10 of 11 cases deleted the residual condition fails at the
        # first probe r = 1 + 1e-9, but r_b = (n-1)/I = 1 is smaller still.
        rep = moment_index_mm(puromycin, deletion_set(range(10), 11))
        assert (rep.r_b, rep.r_c, rep.r_star) == (1.0, 1.0 + 1e-9, 1.0)
        assert rep.binding == "sample-size"

    def test_invariant_r_star_is_min(self, puromycin):
        rep = moment_index_mm(puromycin, deletion_set([8], 11))
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
    def test_scan_matches_scan_kappa(self, puromycin):
        dels = deletion_set([0, 10], 11)
        profile = kappa_profile(puromycin, dels)
        for r in (1.3, 2.0, 3.7):
            a, b = profile.scan(r), scan_kappa(puromycin, dels, r)
            assert np.array_equal(a.grid, b.grid)
            for name in ("c_val", "sup_leverage", "inf_rss_star", "sup_g", "inf_g",
                         "sign_change_intervals", "asymptotic_coefficient", "terminal_regime"):
                assert getattr(a, name) == getattr(b, name), name

    def test_extrema_match_pointwise_evaluation(self, puromycin):
        dels = deletion_set([0], 11)
        scan = kappa_profile(puromycin, dels).scan(2.0)
        for ext, field in ((scan.sup_leverage, "leverage"), (scan.sup_g, "g_val"),
                           (scan.inf_g, "g_val"), (scan.inf_rss_star, "rss_star")):
            if 0.0 < ext.kappa < math.inf:
                ev = mm_eval(puromycin, dels, 2.0, ext.kappa)
                assert getattr(ev, field) == ext.value


class TestKappaPriorSpec:
    def test_defaults(self):
        spec = KappaPriorSpec()
        assert spec.scale == 1.0

    def test_positivity(self):
        with pytest.raises(ValueError):
            KappaPriorSpec(scale=-1.0)
