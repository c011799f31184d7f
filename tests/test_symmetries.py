"""Each gate against its model's exact symmetries: changes of the data that
leave the model, and so every deletion weight, as it was.

A symmetry moves the cut-offs by rounding only. Each test asserts the same
verdict tags at every r, and r* within 1e-12 relative (linear, logit) or
within R_TOL, the resolution of the MM index's bisection. Details name
directions and kappa values, which a symmetry moves, and are not compared.
"""

import numpy as np
import pytest

from influence_gate.core_model import LogitData, MMData, RegressionData, all_subsets
from influence_gate.linear_gate import LinearPrior, moment_index_linear
from influence_gate.logit_gate import moment_index_logit
from influence_gate.mm_gate import R_TOL, moment_index_mm

from conftest import PUROMYCIN_CONC, PUROMYCIN_VEL, feigl_zelen

R_VALUES = (1.5, 2.0, 3.0, 4.0)
PRIORS = {"flat": LinearPrior.noninformative(),
          "conjugate": LinearPrior.conjugate(2.0, 0.001, [0.0] * 3, np.eye(3))}


def singletons_and_pairs(n: int) -> list:
    return [all_subsets(n, 1), all_subsets(n, 2)]


def assert_same_gate(got, want, rtol: float, atol: float = 0.0) -> None:
    """Two (report, verdict lists) results of the same sets: equal tags, and
    r* equal within rtol relative or atol absolute, infinities included."""
    (report, verdicts), (base, base_verdicts) = got, want
    assert [[v.tag for v in per_r] for per_r in verdicts] == [
        [v.tag for v in per_r] for per_r in base_verdicts]
    np.testing.assert_allclose(report.r_star, base.r_star, rtol=rtol, atol=atol)


def permuted_sets(sets: np.ndarray, perm: np.ndarray) -> np.ndarray:
    """The rows of `sets` as case numbers of the data reordered by `perm`
    (new case i is old case perm[i]), each row sorted again."""
    return np.sort(np.argsort(perm)[sets], axis=1)


# --- linear -------------------------------------------------------------------------

DESIGN_CHANGES = {
    # the wbc column centred, the columns rescaled, the ag column's sign flipped
    "centring": lambda X: X @ np.array([[1.0, -X[:, 1].mean(), 0.0], [0, 1, 0], [0, 0, 1]]),
    "rescaling": lambda X: X @ np.diag([3.0, 1e-3, 7.0]),
    "sign flip": lambda X: X @ np.diag([1.0, 1.0, -1.0]),
}


@pytest.mark.parametrize("prior", PRIORS, ids=list(PRIORS))
@pytest.mark.parametrize("change", DESIGN_CHANGES)
def test_linear_design_times_an_invertible_matrix(change, prior):
    """X -> XT leaves the column space, the hat matrix and the residuals
    as they were."""
    data = feigl_zelen("linear")
    moved = RegressionData(design=DESIGN_CHANGES[change](data.design), response=data.response)
    for sets in singletons_and_pairs(data.n):
        assert_same_gate(moment_index_linear(moved, sets, R_VALUES, PRIORS[prior]),
                         moment_index_linear(data, sets, R_VALUES, PRIORS[prior]), 1e-12)


def test_linear_response_plus_a_design_combination():
    """y -> 3y - 7 wbc + 5 scales the residuals by 3 and the RSS by 9,
    which the flat prior does not see."""
    data = feigl_zelen("linear")
    moved = RegressionData(design=data.design,
                           response=3.0 * data.response - 7.0 * data.design[:, 1] + 5.0)
    for sets in singletons_and_pairs(data.n):
        assert_same_gate(moment_index_linear(moved, sets, R_VALUES, PRIORS["flat"]),
                         moment_index_linear(data, sets, R_VALUES, PRIORS["flat"]), 1e-12)


@pytest.mark.parametrize("prior", PRIORS, ids=list(PRIORS))
def test_linear_case_permutation(prior):
    data = feigl_zelen("linear")
    perm = np.random.default_rng(18).permutation(data.n)
    moved = RegressionData(design=data.design[perm], response=data.response[perm])
    for sets in singletons_and_pairs(data.n):
        assert_same_gate(moment_index_linear(moved, permuted_sets(sets, perm), R_VALUES,
                                             PRIORS[prior]),
                         moment_index_linear(data, sets, R_VALUES, PRIORS[prior]), 1e-12)


SAMPLE_SIZE = {"flat": "sample size: n <= r*I + k",
               "conjugate": "sample size: n/2 + alpha <= r*I/2"}


@pytest.mark.parametrize("prior", PRIORS, ids=list(PRIORS))
def test_linear_verdicts_are_their_cutoffs(prior):
    """On every Feigl-Zelen set of at most three cases, the moment is
    finite exactly below r*, and an infinite verdict names the first of the
    leverage, sample-size and residual conditions whose cut-off is <= r.
    No set sits on a boundary at these r."""
    data = feigl_zelen("linear")
    for size in (1, 2, 3):
        report, verdicts = moment_index_linear(data, all_subsets(data.n, size), R_VALUES,
                                               PRIORS[prior])
        for j, r in enumerate(R_VALUES):
            first = np.select([report.r_a <= r, report.r_b <= r, report.r_c <= r],
                              ["leverage above 1/r", SAMPLE_SIZE[prior],
                               "rss_star below the prior threshold"], "")
            assert [per_r[j].tag.value for per_r in verdicts] == np.where(
                r < report.r_star, "finite", "infinite").tolist()
            assert [per_r[j].detail for per_r in verdicts] == first.tolist()


# --- logit --------------------------------------------------------------------------


def logit_index(design, outcome, sets, epsilon=1.0, r_values=R_VALUES):
    return moment_index_logit(LogitData(design=design, outcome=outcome), sets, r_values, epsilon)


LOGIT_CHANGES = {
    # beta -> -beta
    "outcomes flipped": lambda X, y: (X, 1.0 - y),
    # beta_j -> -beta_j; the L1 prior does not see signs
    "wbc sign flipped": lambda X, y: (X * [1.0, -1.0, 1.0], y),
    # beta_j and beta_l trade places; the L1 prior does not see order
    "columns swapped": lambda X, y: (X[:, [0, 2, 1]], y),
}


@pytest.mark.parametrize("change", LOGIT_CHANGES)
def test_logit_symmetries(change):
    data = feigl_zelen("logit")
    moved = LOGIT_CHANGES[change](data.design, data.outcome)
    for sets in singletons_and_pairs(data.n):
        assert_same_gate(logit_index(*moved, sets), logit_index(data.design, data.outcome, sets),
                         1e-12)


def test_logit_case_permutation():
    data = feigl_zelen("logit")
    perm = np.random.default_rng(18).permutation(data.n)
    for sets in singletons_and_pairs(data.n):
        assert_same_gate(logit_index(data.design[perm], data.outcome[perm],
                                    permuted_sets(sets, perm)),
                         logit_index(data.design, data.outcome, sets), 1e-12)


def test_logit_joint_scaling_by_2_to_the_minus_40():
    """X and epsilon times 2^-40, exactly: the model with beta -> 2^40 beta.
    Bounds on h in the data's units would here find 9 singleton r*
    infinite and read every singleton verdict at r = 2 as a boundary."""
    data, s = feigl_zelen("logit"), 2.0 ** -40
    for sets in singletons_and_pairs(data.n):
        assert_same_gate(logit_index(data.design * s, data.outcome, sets, s),
                         logit_index(data.design, data.outcome, sets), 1e-12)


def test_logit_joint_scaling_by_every_power_of_ten_in_the_normal_range():
    """X and epsilon times 10^j, for every j at which the nonzero entries
    of X and epsilon stay normal floats, give the verdicts at r = 2 and the
    r* of the 33 singletons in the bundled units."""
    data = feigl_zelen("logit")
    sets = all_subsets(data.n, 1)
    base = logit_index(data.design, data.outcome, sets, r_values=(2.0,))
    nonzero = np.abs(data.design[data.design != 0.0])
    least, most = float(nonzero.min()), float(nonzero.max())
    powers = [j for j in range(-330, 309) if least * 10.0 ** j >= np.finfo(float).tiny
              and most * 10.0 ** j <= np.finfo(float).max]
    assert powers[0] == -307 and powers[-1] == 306
    for j in powers:
        s = 10.0 ** j
        assert_same_gate(logit_index(data.design * s, data.outcome, sets, s, (2.0,)), base, 1e-12)


# --- MM -----------------------------------------------------------------------------


@pytest.mark.parametrize("c_factor, v_factor", [(3.0, 1.0), (1.0 / 7.0, 1.0), (1e3, 1.0),
                                                (1.0, 3.0)])
def test_mm_units(c_factor, v_factor):
    """c -> a c is the model with kappa -> a kappa, and v -> b v the model
    with m -> b m and sigma2 -> b^2 sigma2; the index reads no kappa prior."""
    sets = all_subsets(len(PUROMYCIN_CONC), 1)
    moved = MMData(np.multiply(PUROMYCIN_CONC, c_factor), np.multiply(PUROMYCIN_VEL, v_factor))
    assert_same_gate(moment_index_mm(moved, sets, (1.5, 2.0, 4.0)),
                     moment_index_mm(MMData(PUROMYCIN_CONC, PUROMYCIN_VEL), sets, (1.5, 2.0, 4.0)),
                     0.0, R_TOL)
