import math
import warnings

import numpy as np
import pytest
from scipy.integrate import quad

from influence_gate.cli import main
from influence_gate.core_model import LogitData, VerdictTag, all_subsets
from influence_gate.errors import BudgetError
from influence_gate.families import FAMILIES
from influence_gate.logit_gate import (
    VertexTable,
    _candidate_directions,
    max_h_l1_sphere,
    moment_index_logit,
)

from conftest import DATA_DIR, deleted, feigl_zelen, one_set, report_rows


def index_of(data, dels, eps):
    """The kernel's moment-index report of one deletion set, as one report row."""
    [row] = report_rows(moment_index_logit(data, one_set(dels), (), eps)[0])
    return row


def verdict_at(data, dels, r, eps):
    """The kernel's Thm 5.1 verdict of one deletion set at order r."""
    return moment_index_logit(data, one_set(dels), [r], eps)[1][0][0]


def sphere_max(data, dels, r, eps):
    """(max, argmax) of h over the L1 unit sphere for one deletion set, read
    off the vertex table as the kernel reads it."""
    table = VertexTable(data, _candidate_directions(data))
    h0, slope = table.parts(dels, eps)
    return max_h_l1_sphere(table.betas, h0 + (r - 1.0) * slope)


@pytest.fixture(scope="module")
def two_point():
    return LogitData(design=[[1.0], [1.0]], outcome=[1, 0])


@pytest.fixture(scope="module")
def delete_first():
    return deleted([0])


def weight_moment_integrand(beta, r, epsilon):
    """Oracle for the two-point example: w^r * likelihood * prior along the
    1-d parameter axis (unnormalized)."""
    z = beta  # x = 1 for both cases
    log_w = math.log1p(math.exp(z)) - z if z < 30 else math.log1p(math.exp(-z))
    # likelihood of both cases: y = (1, 0)
    loglik = (z - math.log1p(math.exp(z))) + (-math.log1p(math.exp(z)))
    return math.exp(r * log_w + loglik - epsilon * abs(beta))


def h_reference(data, dels, beta, r, epsilon) -> float:
    """Oracle: the tail rate h at one direction, summed case by case. Each
    case adds beta'x_i y_i - max(0, beta'x_i), times -(r - 1) if deleted."""
    beta = np.asarray(beta, dtype=float)
    total = -epsilon * float(np.abs(beta).sum())
    for i in range(data.n):
        z = float(data.design[i] @ beta)
        term = z * data.outcome[i] - max(0.0, z)
        total += -(r - 1.0) * term if i in dels else term
    return total


def h_table(data, dels, beta, r, epsilon) -> float:
    """h at one direction as the gate computes it, from a one-row vertex table."""
    h0, slope = VertexTable(data, np.asarray(beta, dtype=float)[None, :]).parts(dels, epsilon)
    return float(h0[0] + (r - 1.0) * slope[0])


def truncated_moment(r, epsilon, T):
    val, _ = quad(weight_moment_integrand, -T, T, args=(r, epsilon), limit=200)
    return val


class TestHEval:
    """h at single directions: the vertex table's parts against hand values
    and the case-by-case oracle, and the shape of h in beta and r."""

    def test_single_term_arithmetic(self):
        data = LogitData(design=[[1.0]], outcome=[1])
        dels = deleted([])
        for h in (h_table, h_reference):
            assert h(data, dels, [1.0], 2.0, 1.0) == pytest.approx(-1.0, abs=1e-14)

    def test_two_point_hand_value(self, two_point, delete_first):
        for h in (h_table, h_reference):
            assert h(two_point, delete_first, [-1.0], 2.0, 0.5) == pytest.approx(0.5, abs=1e-14)

    def test_matches_case_by_case_oracle(self):
        rng = np.random.default_rng(11)
        data = LogitData(design=rng.standard_normal((9, 3)), outcome=rng.integers(0, 2, 9))
        betas = rng.standard_normal((50, 3))
        table = VertexTable(data, betas)
        for indices in ([], [4], [0, 2, 8]):
            dels = deleted(indices)
            h0, slope = table.parts(dels, 0.3)
            for beta, h in zip(betas, h0 + (2.5 - 1.0) * slope):
                assert h == pytest.approx(h_reference(data, dels, beta, 2.5, 0.3), abs=1e-12)

    def test_positive_homogeneity(self, two_point, delete_first):
        h1 = h_table(two_point, delete_first, [-1.0], 2.0, 0.5)
        assert h_table(two_point, delete_first, [-2.0], 2.0, 0.5) == pytest.approx(
            2 * h1, abs=1e-12)

    def test_homogeneity_random(self):
        rng = np.random.default_rng(12)
        data = LogitData(design=rng.standard_normal((8, 3)), outcome=rng.integers(0, 2, 8))
        dels = deleted([1, 4])
        for _ in range(20):
            beta = rng.standard_normal(3)
            h1 = h_table(data, dels, beta, 2.5, 0.3)
            for c in (0.5, 2.0, 10.0):
                assert h_table(data, dels, c * beta, 2.5, 0.3) == pytest.approx(
                    c * h1, abs=1e-10 * max(1.0, abs(c * h1))
                )

    def test_affine_in_r(self):
        rng = np.random.default_rng(13)
        data = LogitData(design=rng.standard_normal((6, 2)), outcome=rng.integers(0, 2, 6))
        dels = deleted([0, 3])
        for _ in range(10):
            beta = rng.standard_normal(2)
            v = [h_table(data, dels, beta, r, 0.2) for r in (1.5, 2.0, 3.0)]
            # collinear: value at 2.0 interpolates 1.5 and 3.0
            interp = v[0] + (v[2] - v[0]) * (2.0 - 1.5) / (3.0 - 1.5)
            assert v[1] == pytest.approx(interp, abs=1e-12 * max(1.0, abs(v[1])))


class TestMaxH:
    def test_two_point_exhaustive(self, two_point, delete_first):
        value, argmax = sphere_max(two_point, delete_first, 2.0, 0.5)
        assert value == pytest.approx(0.5, abs=1e-14)
        assert argmax == pytest.approx([-1.0])

    def test_argmax_satisfies_l1_constraint(self):
        rng = np.random.default_rng(14)
        data = LogitData(design=rng.standard_normal((12, 3)), outcome=rng.integers(0, 2, 12))
        value, argmax = sphere_max(data, deleted([2, 5]), 2.0, 0.4)
        assert np.abs(argmax).sum() == pytest.approx(1.0, abs=1e-12)
        h = h_reference(data, deleted([2, 5]), argmax, 2.0, 0.4)
        assert h == pytest.approx(value, abs=1e-10)

    def test_vertex_max_dominates_random_directions(self):
        rng = np.random.default_rng(15)
        data = LogitData(design=rng.standard_normal((10, 3)), outcome=rng.integers(0, 2, 10))
        dels = deleted([0, 7])
        value, _ = sphere_max(data, dels, 2.0, 0.1)
        raw = rng.standard_normal((100_000, 3))
        dirs = raw / np.abs(raw).sum(axis=1, keepdims=True)
        X, y = data.design, data.outcome
        mask = np.isin(np.arange(data.n), dels)
        Z = dirs @ X.T
        contrib = Z * y[None, :] - np.maximum(Z, 0.0)
        h0 = contrib[:, ~mask].sum(axis=1) - 0.1 * np.abs(dirs).sum(axis=1)
        slope = (-contrib[:, mask]).sum(axis=1)
        sample_max = float(np.max(h0 + slope))
        assert sample_max <= value + 1e-9

    def test_separable_no_deletion_negative_max(self):
        # perfectly separated at x = 0: every likelihood factor can be made
        # exact along +beta, so the maximum is exactly -epsilon
        data = LogitData(
            design=[[-2.0], [-1.0], [1.0], [2.0]], outcome=[0, 0, 1, 1]
        )
        dels = deleted([])
        eps = 0.7
        value, _ = sphere_max(data, dels, 2.0, eps)
        assert value == pytest.approx(-eps, abs=1e-12)
        assert verdict_at(data, dels, 16.0, eps).is_finite

    def test_separable_all_ones_zero_boundary(self):
        data = LogitData(design=[[1.0], [2.0]], outcome=[1, 1])
        dels = deleted([])
        value, _ = sphere_max(data, dels, 2.0, 0.0)
        assert value == pytest.approx(0.0, abs=1e-14)

    def test_budget_errors(self):
        rng = np.random.default_rng(16)
        data = LogitData(design=rng.standard_normal((250, 2)), outcome=rng.integers(0, 2, 250))
        with pytest.raises(BudgetError):
            verdict_at(data, deleted([0]), 2.0, 0.1)
        big = LogitData(design=rng.standard_normal((150, 6)), outcome=rng.integers(0, 2, 150))
        with pytest.raises(BudgetError, match="fewer covariates or cases"):
            verdict_at(big, deleted([0]), 2.0, 0.1)


class TestTheorem51Verdict:
    def test_two_point_infinite_then_finite(self, two_point, delete_first):
        assert verdict_at(two_point, delete_first, 2.0, 0.5).tag is VerdictTag.INFINITE
        assert verdict_at(two_point, delete_first, 2.0, 2.0).is_finite

    def test_quadrature_oracle_confirms(self, two_point, delete_first):
        # infinite at eps=0.5: truncated moment integral blows up with T
        small = truncated_moment(2.0, 0.5, 20.0)
        large = truncated_moment(2.0, 0.5, 40.0)
        assert large > small * math.exp(0.4 * 20.0) * 0.1
        # finite at eps=2: integral stabilizes
        small2 = truncated_moment(2.0, 2.0, 20.0)
        large2 = truncated_moment(2.0, 2.0, 40.0)
        assert abs(large2 - small2) < 1e-8 * max(small2, 1.0)

    def test_empty_deletion_short_circuits(self, two_point):
        v = verdict_at(two_point, deleted([]), 64.0, 0.0)
        assert v.is_finite

    def test_monotone_in_r_and_epsilon(self):
        rng = np.random.default_rng(18)
        data = LogitData(design=rng.standard_normal((9, 2)), outcome=rng.integers(0, 2, 9))
        dels = deleted([4])
        seen_infinite = False
        for r in (1.5, 2.0, 3.0, 5.0, 9.0, 17.0):
            v = verdict_at(data, dels, r, 0.25)
            if seen_infinite and v.is_finite:
                pytest.fail(f"flip at r={r}")
            seen_infinite = seen_infinite or v.tag is VerdictTag.INFINITE
        seen_finite = False
        for eps in (0.0, 0.1, 0.5, 1.0, 4.0, 16.0):
            v = verdict_at(data, dels, 2.0, eps)
            if seen_finite and v.tag is VerdictTag.INFINITE:
                pytest.fail(f"flip at eps={eps}")
            seen_finite = seen_finite or v.is_finite

    def test_overflowing_criterion_is_infinite(self, tmp_path):
        # At r = 1e308 the criterion overflows to inf at the maximizing vertex.
        data = feigl_zelen("logit")
        assert verdict_at(data, deleted([14]), 1e308, 1.0).tag is VerdictTag.INFINITE
        config = tmp_path / "run.cfg"
        config.write_text(f"model = logit\ndata = {DATA_DIR / 'feigl_zelen.csv'}\n"
                          "data.outcome = surv50\ndata.covariates = wbc, ag\n"
                          "deletion.indices = 15\nr = 1e308\n")
        assert main(["gate", "--config", str(config), "--out", str(tmp_path / "out")]) == 0
        verdict = (tmp_path / "out" / "gate_report.csv").read_text().splitlines()[1].split(",")[2]
        assert verdict == "infinite"

    def test_huge_epsilon_gate_is_infinite_without_warnings(self, tmp_path):
        # At epsilon = 1e300, h0/slope overflows to -inf: every root is inf.
        config = tmp_path / "run.cfg"
        config.write_text(f"model = logit\ndata = {DATA_DIR / 'feigl_zelen.csv'}\n"
                          "data.outcome = surv50\ndata.covariates = wbc, ag\n"
                          "deletion.indices = 15\nprior.epsilon = 1e300\n")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["gate", "--config", str(config), "--out", str(tmp_path / "out")]) == 0
        assert [str(w.message) for w in caught] == []
        assert (tmp_path / "out" / "gate_report.csv").read_text().splitlines()[1] == (
            "15,2.0,finite,,inf,inf,inf,inf,criterion negative up to the r cap 64")

    def test_log_weight_nonnegative(self):
        from influence_gate.is_engine import log_weight

        rng = np.random.default_rng(19)
        data = LogitData(design=rng.standard_normal((7, 3)), outcome=rng.integers(0, 2, 7))
        dels = deleted([1, 6])
        draws = rng.standard_normal((500, 3)) * 10.0
        lw = log_weight(FAMILIES["logit"], (draws,), data, dels, len(draws))
        assert np.all(lw >= -1e-12)


class TestMomentIndexLogit:
    def test_two_point_exact_root(self, two_point, delete_first):
        rep = index_of(two_point, delete_first, 0.5)
        assert rep.r_star == pytest.approx(1.5, abs=1e-12)
        assert math.isinf(rep.r_a) and math.isinf(rep.r_b)
        assert rep.r_c == rep.r_star

    def test_matches_bisection_oracle(self):
        rng = np.random.default_rng(23)
        data = LogitData(design=rng.standard_normal((8, 2)), outcome=rng.integers(0, 2, 8))
        dels = deleted([3])
        eps = 0.3
        rep = index_of(data, dels, eps)
        lo, hi = 1.0 + 1e-9, 64.0
        if verdict_at(data, dels, hi, eps).is_finite:
            assert math.isinf(rep.r_star)
            return
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if verdict_at(data, dels, mid, eps).is_finite:
                lo = mid
            else:
                hi = mid
        assert rep.r_star == pytest.approx(0.5 * (lo + hi), abs=1e-6)

    def test_cap_convention(self, two_point, delete_first):
        rep = index_of(two_point, delete_first, 1e6)
        assert math.isinf(rep.r_star)
        assert "cap" in rep.binding

    def test_empty_deletion_infinite(self, two_point):
        rep = index_of(two_point, deleted([]), 0.5)
        assert math.isinf(rep.r_star)

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_vertex_loop(self, seed):
        rng = np.random.default_rng(seed)
        n, k = 9, 1 + seed % 3
        # Small integer covariates make equal roots at distinct vertices common.
        data = LogitData(design=rng.integers(-2, 3, (n, k)), outcome=rng.integers(0, 2, n))
        table = VertexTable(data, _candidate_directions(data))
        for size in (1, 2, 4):
            dels = deleted(rng.choice(n, size, replace=False).tolist())
            for eps in (0.0, 0.3):
                r_star, arg = index_reference(table.betas, *table.parts(dels, eps))
                rep = index_of(data, dels, eps)
                if r_star > 64.0:
                    assert math.isinf(rep.r_c) and "cap" in rep.binding
                else:
                    assert rep.r_c == r_star
                    assert rep.binding == "criterion vertex " + str(np.round(arg, 9).tolist())


def index_reference(betas, h0, slope):
    """Oracle: per-vertex roots in a loop; the strict < keeps the first
    vertex attaining the minimum."""
    r_star, arg = math.inf, None
    for i in range(len(h0)):
        if slope[i] > 1e-12:
            cand = max(1.0 - h0[i] / slope[i], 1.0)
        elif h0[i] > 1e-12:
            cand = 1.0
        else:
            continue
        if cand < r_star:
            r_star, arg = cand, betas[i]
    return r_star, arg


class TestBatches:
    def test_batches_match_single_set_functions(self):
        rng = np.random.default_rng(24)
        data = LogitData(design=rng.standard_normal((10, 2)), outcome=rng.integers(0, 2, 10))
        sets = [(3,), (0, 7), (1, 2, 5)]
        r_values = [1.5, 2.0, 6.0]
        # Each set is checked inside the batch of every set of its size.
        for indices in sets:
            batch = all_subsets(10, len(indices))
            report, verdicts = moment_index_logit(data, batch, r_values, 0.4)
            assert report.count == len(verdicts) == len(batch)
            row = [tuple(s) for s in batch.tolist()].index(indices)
            dels = deleted(indices)
            assert report_rows(report)[row] == index_of(data, dels, 0.4)
            assert verdicts[row] == [verdict_at(data, dels, r, 0.4) for r in r_values]
        pairs = np.array([(i, j) for i in range(10) for j in range(i + 1, 10)])
        (scan, scan_verdicts), (listed, listed_verdicts) = (
            moment_index_logit(data, batch, r_values, 0.4) for batch in (all_subsets(10, 2), pairs))
        assert report_rows(scan) == report_rows(listed) and scan_verdicts == listed_verdicts

    def test_budget_checks_apply_to_batches(self):
        rng = np.random.default_rng(25)
        data = LogitData(design=rng.standard_normal((250, 2)), outcome=rng.integers(0, 2, 250))
        with pytest.raises(BudgetError):
            moment_index_logit(data, np.array([[0]]), [2.0], 0.1)
        # The empty set needs no vertex table, so its verdict comes within budget.
        assert FAMILIES["logit"].index(data, 0.1, all_subsets(250, 0), [2.0])[1][0][0].is_finite
