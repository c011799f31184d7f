import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from influence_gate.core_model import MomentVerdict
from influence_gate.prior_tails import (
    Sigma2PriorSpec,
    TailClass,
    ThetaPriorSpec,
    classify_sigma2,
    classify_theta,
    transfer_finiteness,
)


# --- density profiles for the numeric ratio audit -----------------------------


def theta_log_density_profile(spec: ThetaPriorSpec, radii: np.ndarray) -> np.ndarray:
    """Unnormalized log density along a fixed ray, as a function of radius."""
    t = np.asarray(radii, dtype=float)
    if spec.family == "normal":
        scale = 1.0 if spec.cov is None else float(np.max(np.linalg.eigvalsh(spec.cov)))
        return -0.5 * t * t / scale
    if spec.family == "student_t":
        scale = 1.0 if spec.cov is None else float(np.max(np.linalg.eigvalsh(spec.cov)))
        k = 1 if spec.location is None else np.asarray(spec.location).size
        return -0.5 * (spec.dof + k) * np.log1p(t * t / (spec.dof * scale))
    if spec.family == "laplace":
        return -t / spec.scale
    if spec.family == "quartic_exponential":
        return -(t ** 4)
    raise ValueError(f"no density profile for family {spec.family!r}")


def sigma2_log_density_profile(spec: Sigma2PriorSpec, s2: np.ndarray) -> np.ndarray:
    """Unnormalized log density near the origin of the variance axis."""
    x = np.asarray(s2, dtype=float)
    if spec.family == "inverse_gamma":
        return -(spec.alpha + 1.0) * np.log(x) - 1.0 / (spec.beta * x)
    if spec.family == "gamma_on_variance":
        return (spec.shape - 1.0) * np.log(x) - spec.rate * x
    if spec.family == "half_cauchy_on_sd":
        return -0.5 * np.log(x) - np.log1p(x / spec.scale ** 2)
    if spec.family == "sharp_zero":
        return -(x ** (-spec.exponent)) - x
    raise ValueError(f"no density profile for family {spec.family!r}")


def reference_theta_log_density(radii: np.ndarray, scale: float = 1.0) -> np.ndarray:
    t = np.asarray(radii, dtype=float)
    return -0.5 * t * t / scale


def reference_sigma2_log_density(s2: np.ndarray, alpha: float = 1.0, beta: float = 1.0) -> np.ndarray:
    x = np.asarray(s2, dtype=float)
    return -(alpha + 1.0) * np.log(x) - 1.0 / (beta * x)


THETA_SPECS = {
    "normal": ThetaPriorSpec.normal([0.0], [[1.0]]),
    "student_t": ThetaPriorSpec.student_t(3, [0.0], [[1.0]]),
    "laplace": ThetaPriorSpec.laplace([0.0], 1.0),
    "quartic": ThetaPriorSpec.quartic_exponential([0.0]),
    "box": ThetaPriorSpec.bounded_uniform([[-1.0, 1.0]]),
}

SIGMA_SPECS = {
    "ig": Sigma2PriorSpec.inverse_gamma(2.0, 5.0),
    "gamma": Sigma2PriorSpec.gamma_on_variance(2.0, 1.0),
    "half_cauchy": Sigma2PriorSpec.half_cauchy_on_sd(1.0),
    "sharp2": Sigma2PriorSpec.sharp_zero(2.0),
    "sharp32": Sigma2PriorSpec.sharp_zero(1.5),
}


class TestClassifyTheta:
    def test_catalog(self):
        assert classify_theta(THETA_SPECS["student_t"]).is_thick
        assert classify_theta(THETA_SPECS["normal"]).kind == "in_family"
        assert classify_theta(THETA_SPECS["laplace"]).is_thick
        assert classify_theta(THETA_SPECS["quartic"]).is_thin
        assert classify_theta(THETA_SPECS["box"]).kind == "bounded_support"

    def test_custom_declared(self):
        spec = ThetaPriorSpec.custom(TailClass.thin(), proper=True, full_support=True)
        assert classify_theta(spec).is_thin

    def test_custom_requires_declaration(self):
        with pytest.raises(ValueError):
            ThetaPriorSpec("custom")

    def test_single_tag(self):
        for spec in THETA_SPECS.values():
            tail = classify_theta(spec)
            assert not (tail.is_thick and tail.is_thin)


class TestClassifySigma2:
    def test_catalog(self):
        assert classify_sigma2(SIGMA_SPECS["ig"]).kind == "in_family"
        assert classify_sigma2(SIGMA_SPECS["gamma"]).is_thick
        assert classify_sigma2(SIGMA_SPECS["half_cauchy"]).is_thick
        assert classify_sigma2(SIGMA_SPECS["sharp2"]).is_thin
        assert classify_sigma2(SIGMA_SPECS["sharp32"]).is_thin

    def test_sharp_zero_below_one_is_thick(self):
        assert classify_sigma2(Sigma2PriorSpec.sharp_zero(0.5)).is_thick


class TestNumericRatioAudit:
    """The catalog is audited numerically: the log density ratio against the
    reference family must be monotone toward +inf (thick) or -inf (thin)
    over the last ten grid points approaching the relevant limit."""

    @pytest.mark.parametrize("name,expect", [("student_t", 1), ("laplace", 1), ("quartic", -1)])
    def test_theta_families(self, name, expect):
        radii = np.linspace(5.0, 40.0, 30)
        ratio = theta_log_density_profile(THETA_SPECS[name], radii) - reference_theta_log_density(radii)
        tail = np.diff(ratio)[-10:]
        assert np.all(np.sign(tail) == expect)
        # against a wider reference normal too
        ratio2 = theta_log_density_profile(THETA_SPECS[name], radii) - reference_theta_log_density(
            radii, scale=25.0
        )
        assert np.all(np.sign(np.diff(ratio2)[-10:]) == expect)

    @pytest.mark.parametrize(
        "name,expect", [("gamma", -1), ("half_cauchy", -1), ("sharp2", 1), ("sharp32", 1)]
    )
    def test_sigma2_families(self, name, expect):
        # approach sigma2 -> 0 from above; thick means ratio -> +inf as s2
        # decreases, i.e. the log ratio decreases along an increasing grid.
        s2 = np.geomspace(1e-3, 0.5, 30)
        ratio = sigma2_log_density_profile(SIGMA_SPECS[name], s2) - reference_sigma2_log_density(s2)
        assert np.all(np.sign(np.diff(ratio)[:10]) == expect)

    def test_example_thin_pair_both_thin(self):
        # the two engineered sharp-zero priors from the two-sided example
        for p in (2.0, 1.5):
            assert classify_sigma2(Sigma2PriorSpec.sharp_zero(p)).is_thin


class TestTransferFiniteness:
    def test_infinite_transfers_up(self):
        out = transfer_finiteness(MomentVerdict.infinite(), True, False)
        assert out.is_infinite

    def test_finite_transfers_down(self):
        out = transfer_finiteness(MomentVerdict.finite(), False, True)
        assert out.is_finite

    def test_wrong_direction_indeterminate(self):
        out = transfer_finiteness(MomentVerdict.finite(), True, False)
        assert out.tag.value == "indeterminate"

    def test_both_bounds_preserve(self):
        assert transfer_finiteness(MomentVerdict.finite(), True, True).is_finite
        assert transfer_finiteness(MomentVerdict.infinite(), True, True).is_infinite

    def test_boundary_rejected(self):
        with pytest.raises(ValueError):
            transfer_finiteness(MomentVerdict.boundary("leverage"), True, True)

    @given(st.booleans(), st.booleans(), st.booleans())
    def test_monotone_in_bounds(self, finite, above, below):
        """Adding a true flag never flips finite <-> infinite."""
        ref = MomentVerdict.finite() if finite else MomentVerdict.infinite()
        base = transfer_finiteness(ref, above, below)
        stronger = transfer_finiteness(ref, True, below) if not above else base
        strongest = transfer_finiteness(ref, True, True)
        for a, b in ((base, stronger), (stronger, strongest)):
            if a.is_finite:
                assert not b.is_infinite
            if a.is_infinite:
                assert not b.is_finite
