"""Coefficient priors: the normal, double-exponential (Laplace) and
multivariate-t families, each proper with full support on R^k.

A spec only records the family and its parameters; `samplers` turns it into
a log density.
"""

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class ThetaPriorSpec:
    """Prior on the regression coefficients.

    family: normal (mean, cov) | student_t (dof, location, cov as the scale
    matrix) | laplace (location, scale).
    """

    family: str
    mean: np.ndarray | None = None
    cov: np.ndarray | None = None
    dof: float | None = None
    location: np.ndarray | None = None
    scale: float | None = None

    _FAMILIES = ("normal", "student_t", "laplace")

    def __post_init__(self):
        if self.family not in self._FAMILIES:
            raise ValueError(f"unknown theta prior family {self.family!r}")
        if self.family == "student_t" and not (self.dof and self.dof > 0):
            raise ValueError("student_t prior needs dof > 0")
        if self.family == "laplace" and not (self.scale and self.scale > 0):
            raise ValueError("laplace prior needs scale > 0")
        if self.cov is not None:
            cov = np.atleast_2d(np.asarray(self.cov, dtype=float))
            if np.any(np.linalg.eigvalsh((cov + cov.T) / 2.0) <= 0):
                raise ValueError("covariance must be positive definite")

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
