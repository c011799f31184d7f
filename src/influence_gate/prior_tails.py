"""Prior-family catalog and tail classification.

Location priors are classified against the reference class of nondegenerate
multivariate normals; variance priors against the inverse gammas, where the
relevant limit is the variance tending to zero (the precision tail). The
classification is a deterministic catalog lookup; the density-ratio limits
backing each entry are audited numerically in the test suite rather than
evaluated at runtime.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .core_model import MomentVerdict


@dataclass(frozen=True)
class TailClass:
    """One of thick | thin | in_family | bounded_support | unknown.

    In-family entries carry the family parameters needed to dispatch the
    matching exact theorem (for example the exponential rate of a
    double-exponential prior).
    """

    kind: str
    params: dict = field(default_factory=dict)

    _KINDS = ("thick", "thin", "in_family", "bounded_support", "unknown")

    def __post_init__(self):
        if self.kind not in self._KINDS:
            raise ValueError(f"unknown tail class {self.kind!r}")

    @staticmethod
    def thick() -> "TailClass":
        return TailClass("thick")

    @staticmethod
    def thin() -> "TailClass":
        return TailClass("thin")

    @staticmethod
    def in_family(**params) -> "TailClass":
        return TailClass("in_family", dict(params))

    @staticmethod
    def bounded_support() -> "TailClass":
        return TailClass("bounded_support")

    @staticmethod
    def unknown() -> "TailClass":
        return TailClass("unknown")

    @property
    def is_thick(self) -> bool:
        return self.kind == "thick"

    @property
    def is_thin(self) -> bool:
        return self.kind == "thin"


@dataclass(frozen=True)
class ThetaPriorSpec:
    """Prior on the regression coefficients.

    family: normal | student_t | laplace | quartic_exponential |
    bounded_uniform | custom. `proper` and `full_support` matter for the
    exact-theorem paths and must be declared for custom priors.
    """

    family: str
    mean: np.ndarray | None = None
    cov: np.ndarray | None = None
    dof: float | None = None
    location: np.ndarray | None = None
    scale: float | None = None
    center: np.ndarray | None = None
    box: np.ndarray | None = None
    declared_tail: TailClass | None = None
    proper: bool = True
    full_support: bool = True

    _FAMILIES = (
        "normal",
        "student_t",
        "laplace",
        "quartic_exponential",
        "bounded_uniform",
        "custom",
    )

    def __post_init__(self):
        if self.family not in self._FAMILIES:
            raise ValueError(f"unknown theta prior family {self.family!r}")
        if self.family == "student_t" and not (self.dof and self.dof > 0):
            raise ValueError("student_t prior needs dof > 0")
        if self.family in ("laplace",) and not (self.scale and self.scale > 0):
            raise ValueError("laplace prior needs scale > 0")
        if self.cov is not None:
            cov = np.atleast_2d(np.asarray(self.cov, dtype=float))
            if np.any(np.linalg.eigvalsh((cov + cov.T) / 2.0) <= 0):
                raise ValueError("covariance must be positive definite")
        if self.family == "custom" and self.declared_tail is None:
            raise ValueError("custom prior must declare its tail class")
        if self.family == "bounded_uniform":
            object.__setattr__(self, "full_support", False)

    @staticmethod
    def normal(mean, cov) -> "ThetaPriorSpec":
        return ThetaPriorSpec("normal", mean=np.asarray(mean, float), cov=np.asarray(cov, float))

    @staticmethod
    def student_t(dof, location, scale_matrix) -> "ThetaPriorSpec":
        return ThetaPriorSpec(
            "student_t", dof=float(dof), location=np.asarray(location, float),
            cov=np.asarray(scale_matrix, float),
        )

    @staticmethod
    def laplace(location, scale) -> "ThetaPriorSpec":
        return ThetaPriorSpec("laplace", location=np.asarray(location, float), scale=float(scale))

    @staticmethod
    def quartic_exponential(center) -> "ThetaPriorSpec":
        return ThetaPriorSpec("quartic_exponential", center=np.asarray(center, float))

    @staticmethod
    def bounded_uniform(box) -> "ThetaPriorSpec":
        return ThetaPriorSpec("bounded_uniform", box=np.asarray(box, float))

    @staticmethod
    def custom(declared_tail: TailClass, proper: bool, full_support: bool) -> "ThetaPriorSpec":
        return ThetaPriorSpec(
            "custom", declared_tail=declared_tail, proper=proper, full_support=full_support
        )


@dataclass(frozen=True)
class Sigma2PriorSpec:
    """Prior on the error variance.

    family: inverse_gamma | gamma_on_variance | half_cauchy_on_sd |
    sharp_zero | custom. A sharp_zero prior has density proportional to
    exp{-(s2)^(-p) - s2}; its exponent p controls how hard the density is
    pinned down at zero.
    """

    family: str
    alpha: float | None = None
    beta: float | None = None
    shape: float | None = None
    rate: float | None = None
    scale: float | None = None
    exponent: float | None = None
    declared_tail: TailClass | None = None

    _FAMILIES = (
        "inverse_gamma",
        "gamma_on_variance",
        "half_cauchy_on_sd",
        "sharp_zero",
        "custom",
    )

    def __post_init__(self):
        if self.family not in self._FAMILIES:
            raise ValueError(f"unknown sigma2 prior family {self.family!r}")
        for name in ("alpha", "beta", "shape", "rate", "scale", "exponent"):
            val = getattr(self, name)
            if val is not None and not val > 0:
                raise ValueError(f"{name} must be positive")
        if self.family == "custom" and self.declared_tail is None:
            raise ValueError("custom prior must declare its tail class")

    @staticmethod
    def inverse_gamma(alpha, beta) -> "Sigma2PriorSpec":
        return Sigma2PriorSpec("inverse_gamma", alpha=float(alpha), beta=float(beta))

    @staticmethod
    def gamma_on_variance(shape, rate) -> "Sigma2PriorSpec":
        return Sigma2PriorSpec("gamma_on_variance", shape=float(shape), rate=float(rate))

    @staticmethod
    def half_cauchy_on_sd(scale) -> "Sigma2PriorSpec":
        return Sigma2PriorSpec("half_cauchy_on_sd", scale=float(scale))

    @staticmethod
    def sharp_zero(exponent) -> "Sigma2PriorSpec":
        return Sigma2PriorSpec("sharp_zero", exponent=float(exponent))

    @staticmethod
    def custom(declared_tail: TailClass) -> "Sigma2PriorSpec":
        return Sigma2PriorSpec("custom", declared_tail=declared_tail)


def classify_theta(spec: ThetaPriorSpec) -> TailClass:
    """Tail class of a coefficient prior relative to the normal family."""
    if spec.family == "normal":
        return TailClass.in_family()
    if spec.family == "student_t":
        return TailClass.thick()
    if spec.family == "laplace":
        return TailClass.thick()
    if spec.family == "quartic_exponential":
        return TailClass.thin()
    if spec.family == "bounded_uniform":
        return TailClass.bounded_support()
    return spec.declared_tail


def classify_sigma2(spec: Sigma2PriorSpec) -> TailClass:
    """Tail class of a variance prior relative to the inverse gammas.

    The relevant comparison is at variance -> 0: a polynomial profile there
    dominates the essential singularity of every inverse gamma, hence gamma
    and half-Cauchy-on-sd priors are thick. A sharp-zero prior with exponent
    p decays faster (p > 1), equally (p = 1), or slower (p < 1) than the
    inverse-gamma kernel.
    """
    if spec.family == "inverse_gamma":
        return TailClass.in_family(alpha=spec.alpha, beta=spec.beta)
    if spec.family == "gamma_on_variance":
        return TailClass.thick()
    if spec.family == "half_cauchy_on_sd":
        return TailClass.thick()
    if spec.family == "sharp_zero":
        if spec.exponent > 1.0:
            return TailClass.thin()
        if spec.exponent == 1.0:
            return TailClass.in_family(exponent=1.0)
        return TailClass.thick()
    return spec.declared_tail


def transfer_finiteness(
    reference: MomentVerdict, ratio_bounded_above: bool, ratio_bounded_below: bool
) -> MomentVerdict:
    """Carry a finite/infinite verdict across a density-ratio bound.

    With the ratio of the new prior to the reference prior bounded above, an
    infinite reference moment stays infinite; bounded below, a finite
    reference moment stays finite. Without the needed bound the transfer is
    indeterminate.
    """
    if not (reference.is_finite or reference.is_infinite):
        raise ValueError("reference verdict must be finite or infinite")
    if reference.is_infinite:
        if ratio_bounded_above:
            return MomentVerdict.infinite("transferred via ratio bounded above")
        return MomentVerdict.indeterminate(
            "infinite reference moment transfers only through an upper ratio bound"
        )
    if ratio_bounded_below:
        return MomentVerdict.finite("transferred via ratio bounded below")
    return MomentVerdict.indeterminate(
        "finite reference moment transfers only through a lower ratio bound"
    )
