"""Exception hierarchy shared across the package.

The CLI maps these onto its documented exit codes: ConfigError -> 2,
DataError -> 3, BudgetError -> 4, SamplerError -> 5.
"""


class InfluenceGateError(Exception):
    """Base class for package errors."""


class ConfigError(InfluenceGateError):
    """Malformed or inconsistent run configuration."""


class DataError(InfluenceGateError):
    """Problem ingesting or validating a data set."""


class BudgetError(InfluenceGateError):
    """An enumeration or candidate budget was exceeded."""


class SamplerError(InfluenceGateError):
    """Sampler failed to tune or produced a degenerate chain."""


class DegenerateSampleError(InfluenceGateError):
    """All importance weights underflowed or are otherwise unusable."""

