import math
import warnings
from itertools import combinations

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.optimize import linprog

from influence_gate.cli import main
from influence_gate.core_model import LogitData, VerdictTag, all_subsets
from influence_gate.errors import BudgetError, DataError
from influence_gate.families import FAMILIES
from influence_gate.logit_gate import (
    VertexTable,
    _candidate_directions,
    _first_copies,
    _unit_free,
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


def per_r_tags(data, sets, r_values, eps) -> list:
    """Oracle: the Thm 5.1 tag of each row of `sets` at each order r, from
    the sign of the sphere maximum of h at that r, as a second pass over the
    vertex table at each r once read it: a maximum within 1e-9 of zero (in
    the kernel's units, `_unit_free`) is a boundary."""
    data, eps = _unit_free(data, eps)
    table = VertexTable(data, _candidate_directions(data))
    r_values = np.asarray(r_values, dtype=float)
    tags = []
    for dels in sets:
        h0, slope = table.parts(dels, eps)
        best = np.max(h0[None, :] + (r_values[:, None] - 1.0) * slope[None, :], axis=1)
        tags.append([VerdictTag.BOUNDARY if abs(b) <= 1e-9 else
                     VerdictTag.INFINITE if b > 0 else VerdictTag.FINITE for b in best])
    return tags


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


def first_copies_reference(rows):
    """Oracle: each row unless an earlier one equals it under ==, in order."""
    seen, keep = set(), []
    for i, row in enumerate(rows):
        if tuple(row + 0.0) not in seen:
            seen.add(tuple(row + 0.0))
            keep.append(i)
    return rows[keep]


class TestFirstCopies:
    def test_feigl_zelen_table_holds_each_vertex_once(self):
        d = _candidate_directions(feigl_zelen("logit"))
        assert d.shape == (784, 3)
        assert _first_copies(d).tobytes() == d.tobytes()

    def test_matches_loop_on_rows_with_signed_zeros(self):
        rng = np.random.default_rng(5)
        rows = rng.integers(-1, 2, (400, 3)) * 0.5 * rng.choice([1.0, -1.0], (400, 3))
        assert np.any(np.signbit(rows) & (rows == 0.0))
        assert _first_copies(rows).tobytes() == first_copies_reference(rows).tobytes()

    def test_rows_that_share_a_key_are_told_apart(self):
        # 1.224744871391589 * sqrt(2) rounds to sqrt(3): both rows get one key.
        rows = np.array([[1.224744871391589, 0.0], [0.0, 1.0], [1.224744871391589, -0.0]])
        key = (rows * np.sqrt([2.0, 3.0])).sum(axis=1)
        assert key[0] == key[1]
        assert _first_copies(rows).tobytes() == rows[:2].tobytes()


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
        # At epsilon = 1e300 the index is finite, 1e298, and reads so quietly.
        config = tmp_path / "run.cfg"
        config.write_text(f"model = logit\ndata = {DATA_DIR / 'feigl_zelen.csv'}\n"
                          "data.outcome = surv50\ndata.covariates = wbc, ag\n"
                          "deletion.indices = 15\nprior.epsilon = 1e300\n")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["gate", "--config", str(config), "--out", str(tmp_path / "out")]) == 0
        assert [str(w.message) for w in caught] == []
        assert (tmp_path / "out" / "gate_report.csv").read_text().splitlines()[1] == (
            '15,2.0,finite,,inf,inf,1.0000000000000001e+298,1.0000000000000001e+298,'
            '"criterion vertex [0.0, -1.0, 0.0]"')

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
        assert per_r_tags(data, [dels], [hi], eps) == [[VerdictTag.INFINITE]]
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if per_r_tags(data, [dels], [mid], eps) == [[VerdictTag.FINITE]]:
                lo = mid
            else:
                hi = mid
        assert rep.r_star == pytest.approx(0.5 * (lo + hi), abs=1e-6)

    def test_large_index_is_the_exact_root(self, two_point, delete_first):
        # h = -1e6 + (r - 1) at beta = -1; no cap turns the root into inf.
        rep = index_of(two_point, delete_first, 1e6)
        assert rep.r_star == 1.0 + 1e6
        assert rep.binding == "criterion vertex [-1.0]"

    def test_no_root_at_any_vertex(self):
        # A deleted all-zero row adds slope 0 at every vertex: h never rises.
        data = LogitData(design=[[1.0], [0.0], [-1.0]], outcome=[1, 0, 1])
        report, [[verdict]] = moment_index_logit(data, one_set(deleted([1])), [1e308], 0.0)
        assert math.isinf(report.r_star[0])
        assert report.binding[0] == "criterion negative at every r"
        assert verdict.is_finite

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
                assert rep.r_c == r_star
                if arg is None:
                    assert rep.binding == "criterion negative at every r"
                else:
                    assert rep.binding == "criterion vertex " + str(np.round(arg, 9).tolist())


class TestVerdictsReadOffTheIndex:
    @pytest.mark.parametrize("eps", [0.0, 0.5, 1.0, 120.0])
    def test_tags_equal_the_per_r_pass_on_feigl_zelen(self, eps):
        data = feigl_zelen("logit")
        r_values = [1.5, 2.0, 3.0, 4.0, 10.0, 70.0, 200.0]
        for size in (1, 2, 3):
            sets = all_subsets(33, size)
            _, verdicts = moment_index_logit(data, sets, r_values, eps)
            assert [[v.tag for v in per_set] for per_set in verdicts] == per_r_tags(
                data, sets, r_values, eps)

    @pytest.mark.parametrize("r", [65.0, 70.0, 200.0])
    def test_infinite_exactly_beyond_r_star_past_the_old_cap(self, r):
        # At epsilon = 120, 46 Feigl-Zelen pairs have an index above 64,
        # which a cap once reported as inf while their verdicts turned
        # infinite; every index here is finite.
        report, verdicts = moment_index_logit(feigl_zelen("logit"), all_subsets(33, 2), [r], 120.0)
        assert np.all(np.isfinite(report.r_star)) and np.sum(report.r_star > 64.0) == 46
        tags = np.array([per_set[0].tag.value for per_set in verdicts])
        assert np.array_equal(tags == "infinite", r > report.r_star)
        assert set(tags) <= {"finite", "infinite"}


class TestImproperPosterior:
    def test_separated_outcomes_under_the_flat_prior(self):
        # The vertex beta = 1 fits both cases: h = 0 at every r there, so
        # the per-r pass read boundary below r*, and the posterior is improper.
        data = LogitData(design=[[1.0], [2.0]], outcome=[1, 1])
        for eps in (0.0, 1e-300):
            with pytest.raises(DataError, match="improper"):
                moment_index_logit(data, one_set(deleted([1])), [2.0], eps)
        report, verdicts = moment_index_logit(data, one_set(deleted([1])), [1.5, 2.0, 3.0], 1.0)
        assert report.r_star[0] == 2.0
        assert [[v.tag for v in verdicts[0]]] == per_r_tags(
            data, one_set(deleted([1])), [1.5, 2.0, 3.0], 1.0)

    def test_refused_exactly_when_separated_and_read_off_otherwise(self):
        # Small integer designs: many are separated, often weakly (cases on
        # the separating hyperplane), and many kept sets of the rest are, so
        # r* = 1 is common among the read-off verdicts.
        r_values = [1.5, 2.0, 3.0, 4.0, 10.0, 70.0]
        refused = read = at_one = 0
        for seed in range(40):
            rng = np.random.default_rng(seed)
            data = LogitData(design=rng.integers(-2, 3, (7, 1 + seed % 3)),
                             outcome=rng.integers(0, 2, 7))
            if separated(data):
                with pytest.raises(DataError, match="improper"):
                    moment_index_logit(data, all_subsets(7, 1), r_values, 0.0)
                refused += 1
                continue
            for size in (1, 2, 3):
                sets = all_subsets(7, size)
                report, verdicts = moment_index_logit(data, sets, r_values, 0.0)
                assert [[v.tag for v in per_set] for per_set in verdicts] == per_r_tags(
                    data, sets, r_values, 0.0)
                at_one += int(np.sum(report.r_star == 1.0))
            read += 1
        assert (refused, read) == (11, 29) and at_one == 635

    def test_gate_exits_with_a_data_error(self, tmp_path, capsys):
        (tmp_path / "sep.csv").write_text("x,y\n1,1\n2,1\n")
        (tmp_path / "run.cfg").write_text(
            "model = logit\ndata = sep.csv\ndata.outcome = y\ndata.covariates = x\n"
            "data.intercept = false\nprior.epsilon = 1e-300\ndeletion.indices = 2\n")
        code = main(["gate", "--config", str(tmp_path / "run.cfg"), "--out", str(tmp_path / "out")])
        assert code == 3
        assert capsys.readouterr().err.startswith("data error: the logit posterior is improper")
        assert not (tmp_path / "out").exists()


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


def lp_index(data, dels, epsilon) -> float:
    """Independent oracle by linear programming. With s_i = 1 - 2 y_i, the
    index is r* = 1 + min over beta of g(beta) / s(beta), where
    g = sum over kept cases of max(0, s_j x_j'beta) + epsilon |beta|_1 and
    s = sum over deleted cases of max(0, s_i x_i'beta), the largest
    (sum_{i in S} s_i x_i)'beta over nonempty S. Both are positively
    homogeneous, so r* - 1 is the least over S of the LP "min g(beta)
    subject to (sum_{i in S} s_i x_i)'beta = 1"; an infeasible S adds
    nothing, and with none feasible the index is infinite.

    The LP's variables are beta (free), t_j >= s_j x_j'beta for the kept
    cases and u >= |beta|, all but beta nonnegative."""
    X, sign = data.design, 1.0 - 2.0 * data.outcome
    kept = np.setdiff1d(np.arange(data.n), dels)
    m, k = kept.size, data.k
    cost = np.concatenate([np.zeros(k), np.ones(m), np.full(k, epsilon)])
    A_ub = np.vstack([np.hstack([sign[kept, None] * X[kept], -np.eye(m), np.zeros((m, k))]),
                      np.hstack([np.eye(k), np.zeros((k, m)), -np.eye(k)]),
                      np.hstack([-np.eye(k), np.zeros((k, m)), -np.eye(k)])])
    bounds = [(None, None)] * k + [(0, None)] * (m + k)
    best = math.inf
    for size in range(1, len(dels) + 1):
        for S in map(list, combinations(dels, size)):
            a = np.concatenate([(sign[S, None] * X[S]).sum(axis=0), np.zeros(m + k)])
            fit = linprog(cost, A_ub=A_ub, b_ub=np.zeros(len(A_ub)), A_eq=a[None, :], b_eq=[1.0],
                          bounds=bounds, method="highs")
            if fit.status == 0:
                best = min(best, 1.0 + fit.fun)
    return best


def separated(data) -> bool:
    """Oracle by linear programming: some beta != 0 has s_i x_i'beta <= 0
    for every case, s_i = 1 - 2 y_i, so the outcomes are separated (perhaps
    weakly). Such a beta has some beta_j = +-1 after scaling."""
    X, sign = data.design, 1.0 - 2.0 * data.outcome
    for j, v in ((j, v) for j in range(data.k) for v in (1.0, -1.0)):
        fit = linprog(np.zeros(data.k), A_ub=sign[:, None] * X, b_ub=np.zeros(data.n),
                      A_eq=np.eye(data.k)[j][None, :], b_eq=[v],
                      bounds=[(None, None)] * data.k, method="highs")
        if fit.status == 0:
            return True
    return False


def assert_matches_lp(data, sets, epsilon) -> None:
    """The gate's r* of every row of `sets` equals the LP oracle's within
    1e-12 relative, infinities included."""
    report, _ = moment_index_logit(data, sets, (), epsilon)
    want = np.array([lp_index(data, dels.astype(int), epsilon) for dels in sets])
    np.testing.assert_allclose(report.r_star, want, rtol=1e-12)


class TestLinearProgramOracle:
    def test_feigl_zelen_singletons(self):
        assert_matches_lp(feigl_zelen("logit"), all_subsets(33, 1), 1.0)

    @pytest.mark.parametrize("size, count", [(2, 40), (3, 12)])
    def test_feigl_zelen_pairs_and_triples(self, size, count):
        sets = all_subsets(33, size)
        sets = sets[np.random.default_rng(size).choice(len(sets), count, replace=False)]
        assert_matches_lp(feigl_zelen("logit"), sets, 1.0)

    @pytest.mark.parametrize("k, n", [(4, 30), (5, 20), (6, 12)])
    def test_synthetic_designs(self, k, n):
        # The strong prior puts the indices far out; a zero row
        # deleted alone (case 0, no intercept) leaves every LP infeasible.
        # The k = 5 design is separated, so its flat-prior posterior is
        # improper and the gate refuses it.
        rng = np.random.default_rng(k)
        X = rng.standard_normal((n, k))
        X[0] = 0.0
        y = (rng.random(n) < 1.0 / (1.0 + np.exp(-X @ rng.standard_normal(k)))).astype(float)
        data = LogitData(design=X, outcome=y)
        sets = np.array([[0], [1], [2], [3]])
        assert separated(data) == (k == 5)
        for epsilon in (0.0, 0.5, 120.0):
            if epsilon == 0.0 and k == 5:
                with pytest.raises(DataError, match="improper"):
                    moment_index_logit(data, sets, (), epsilon)
            else:
                assert_matches_lp(data, sets, epsilon)
        assert_matches_lp(data, np.array([[1, 2], [3, 4], [0, 5]]), 0.5)
