"""Exception hierarchy shared across the package.

Each class carries the CLI's exit code for it and the prefix of the stderr
line that reports it: ConfigError -> 2, DataError -> 3, BudgetError -> 4,
SamplerError -> 5, any other package error -> 1.
"""


class InfluenceGateError(Exception):
    """Base class for package errors."""

    exit_code = 1
    prefix = "error"


class ConfigError(InfluenceGateError):
    """Malformed or inconsistent run configuration."""

    exit_code = 2
    prefix = "config error"


class DataError(InfluenceGateError):
    """Problem ingesting or validating a data set."""

    exit_code = 3
    prefix = "data error"


class BudgetError(InfluenceGateError):
    """An enumeration or candidate budget was exceeded."""

    exit_code = 4
    prefix = "budget error"


class SamplerError(InfluenceGateError):
    """Sampler failed to tune or produced a degenerate chain, or the
    importance weights of a sample are all unusable."""

    exit_code = 5
    prefix = "sampler error"
