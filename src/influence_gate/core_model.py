"""Shared data containers, CSV ingestion, and deletion-set enumeration.

Case indices are 0-based everywhere in the library; the CLI converts to and
from the 1-based numbering used in data files and reports. A deletion set is
a sorted integer array of distinct cases, and N sets of one size are the
rows of an (N, I) integer array, as `all_subsets` gives them. The gate
kernels, weights and verifier index with such rows as they are and check
none of this.
"""

import csv
import math
from dataclasses import dataclass
from enum import Enum
from itertools import chain, combinations
from pathlib import Path

import numpy as np

from .errors import DataError

# Relative singular-value cutoff for the full-column-rank check, applied to
# the column-scaled design. Near-singular designs poison every downstream
# eigen-solve, so this is enforced at construction.
RANK_TOLERANCE = 1e-10

# Float entries in one block of per-draw temporaries. The exact flat-prior
# sampler, the deleted-case log-likelihood and the draws.csv writer work on
# row blocks of about this many entries, so what they hold beyond their
# output does not grow with the number of draws or of deleted cases.
BLOCK_ELEMENTS = 1 << 16


def _freeze(arr: np.ndarray) -> np.ndarray:
    out = np.array(arr, dtype=float)
    out.flags.writeable = False
    return out


def binary_exponent(values: np.ndarray) -> int:
    """The p for which max|values| / 2^p is in [1, 2) (-1 for all zeros). The
    gates divide data by 2^p, which is exact, to judge it in any units."""
    return math.frexp(float(np.max(np.abs(values))))[1] - 1


def singular_value_ratio(matrix: np.ndarray) -> float:
    """Smallest over largest singular value of `matrix` with each column
    scaled to unit max-abs; 0 when a column is all zero."""
    scale = np.max(np.abs(matrix), axis=0)
    if np.any(scale == 0.0):
        return 0.0
    sv = np.linalg.svd(matrix / scale, compute_uv=False)
    return float(sv[-1] / sv[0])


def _check_full_rank(design: np.ndarray) -> None:
    if not np.all(np.any(design != 0.0, axis=0)):
        raise DataError("design matrix is rank deficient: zero column present")
    ratio = singular_value_ratio(design)
    if ratio <= RANK_TOLERANCE:
        raise DataError(
            f"design matrix is rank deficient: singular value ratio {ratio:.3e} below "
            f"{RANK_TOLERANCE:g}"
        )


@dataclass(frozen=True)
class RegressionData:
    """Design matrix (n x k, full column rank) and response vector for the
    Gaussian linear model."""

    design: np.ndarray
    response: np.ndarray

    def __post_init__(self):
        design = np.atleast_2d(np.asarray(self.design, dtype=float))
        response = np.asarray(self.response, dtype=float).ravel()
        if design.ndim != 2:
            raise DataError("design must be a 2-d array")
        n, k = design.shape
        if n < 1 or k < 1:
            raise DataError(f"need n >= 1 and k >= 1; got n={n}, k={k}")
        if response.shape[0] != n:
            raise DataError(f"response length {response.shape[0]} != n={n}")
        _check_full_rank(design)
        object.__setattr__(self, "design", _freeze(design))
        object.__setattr__(self, "response", _freeze(response))

    @property
    def n(self) -> int:
        return self.design.shape[0]

    @property
    def k(self) -> int:
        return self.design.shape[1]


@dataclass(frozen=True)
class MMData:
    """Strictly positive substrate concentrations and observed velocities,
    of three or more cases. With one case the flat prior on (m, sigma2)
    gives an improper posterior. With two, m c/(kappa + c) can fit both
    points exactly at some kappa0, and then the kappa-marginal, which is
    proportional to RSS(kappa)^(-(n-1)/2), has a non-integrable spike there."""

    concentration: np.ndarray
    velocity: np.ndarray

    def __post_init__(self):
        conc = np.asarray(self.concentration, dtype=float).ravel()
        vel = np.asarray(self.velocity, dtype=float).ravel()
        if conc.shape[0] != vel.shape[0]:
            raise DataError("concentration and velocity must have equal length")
        if conc.shape[0] < 3:
            raise DataError(f"need at least three observations, got {conc.shape[0]}: with "
                            "fewer the MM posterior is improper")
        bad = np.nonzero(conc <= 0.0)[0]
        if bad.size:
            raise DataError(f"concentration must be strictly positive; got {float(conc[bad[0]])} "
                            f"at data row {int(bad[0]) + 1}")
        object.__setattr__(self, "concentration", _freeze(conc))
        object.__setattr__(self, "velocity", _freeze(vel))

    @property
    def n(self) -> int:
        return self.concentration.shape[0]


@dataclass(frozen=True)
class LogitData:
    """Covariate rows and 0/1 outcomes for logistic regression."""

    design: np.ndarray
    outcome: np.ndarray

    def __post_init__(self):
        design = np.atleast_2d(np.asarray(self.design, dtype=float))
        outcome = np.asarray(self.outcome, dtype=float).ravel()
        n, k = design.shape
        if n < 1 or k < 1:
            raise DataError(f"need n >= 1 and k >= 1; got n={n}, k={k}")
        if outcome.shape[0] != n:
            raise DataError(f"outcome length {outcome.shape[0]} != n={n}")
        bad = np.nonzero((outcome != 0.0) & (outcome != 1.0))[0]
        if bad.size:
            raise DataError(f"outcome must be exactly 0 or 1; got {float(outcome[bad[0]])} "
                            f"at data row {int(bad[0]) + 1}")
        object.__setattr__(self, "design", _freeze(design))
        object.__setattr__(self, "outcome", _freeze(outcome))

    @property
    def n(self) -> int:
        return self.design.shape[0]

    @property
    def k(self) -> int:
        return self.design.shape[1]


def all_subsets(n: int, size: int) -> np.ndarray:
    """Every subset of `size` of range(n) in lexicographic order, one per row
    of a (C(n, size), size) array; size 0 gives the one empty set.

    The dtype is the narrowest unsigned one that holds n,
    `np.min_scalar_type(n)`: uint8 up to n = 255 and uint16 up to 65,535. It
    holds every case i and its 1-based label i + 1, and for n < 256 takes an
    eighth of the memory of int64 rows."""
    count = math.comb(n, size)
    flat = chain.from_iterable(combinations(range(n), size))
    return np.fromiter(flat, dtype=np.min_scalar_type(n), count=count * size).reshape(count, size)


class VerdictTag(str, Enum):
    FINITE = "finite"
    INFINITE = "infinite"
    BOUNDARY = "boundary"


@dataclass(frozen=True)
class MomentVerdict:
    """Decision about finiteness of a weight moment.

    `detail` names the binding condition for boundary verdicts.
    """

    tag: VerdictTag
    detail: str = ""

    @staticmethod
    def finite(detail: str = "") -> "MomentVerdict":
        return MomentVerdict(VerdictTag.FINITE, detail)

    @staticmethod
    def infinite(detail: str = "") -> "MomentVerdict":
        return MomentVerdict(VerdictTag.INFINITE, detail)

    @staticmethod
    def boundary(detail: str) -> "MomentVerdict":
        if not detail:
            raise ValueError("boundary verdict must name the binding condition")
        return MomentVerdict(VerdictTag.BOUNDARY, detail)

    @property
    def is_finite(self) -> bool:
        return self.tag is VerdictTag.FINITE


# Cut-off names in tie order: the first of equal minimal cut-offs binds.
_CUTOFF_NAMES = np.array(["leverage", "sample-size", "residual"], dtype=object)


@dataclass(frozen=True)
class MomentIndexReport:
    """Analytic moment cut-offs of N deletion sets: `subsets` is their
    (N, I) integer array, 0-based, and r_a, r_b, r_c and `binding` hold one
    entry per set; `binding` names what sets r_star = min(r_a, r_b, r_c)."""

    subsets: np.ndarray
    r_a: np.ndarray
    r_b: np.ndarray
    r_c: np.ndarray
    binding: np.ndarray

    def __post_init__(self):
        for name in ("r_a", "r_b", "r_c"):
            if not np.all(getattr(self, name) > 0):
                raise ValueError(f"{name} must be positive")

    @property
    def r_star(self) -> np.ndarray:
        return np.minimum(np.minimum(self.r_a, self.r_b), self.r_c)

    @property
    def count(self) -> int:
        return self.subsets.shape[0]

    @classmethod
    def of(cls, subsets, r_a, r_b, r_c):
        """The report of three cut-off arrays whose binding names, per set,
        the first minimal one in the order leverage, sample-size, residual.
        The positions are uint8, not the int64 that plain 0, 1, 2 give: at
        10^7 sets their two arrays take 20 MB instead of 160 MB."""
        first = np.where((r_a <= r_b) & (r_a <= r_c), np.uint8(0),
                         np.where(r_b <= r_c, np.uint8(1), np.uint8(2)))
        return cls(subsets, r_a, r_b, r_c, binding=_CUTOFF_NAMES[first])


# --- CSV ingestion -----------------------------------------------------------


def _read_table(path) -> tuple:
    path = Path(path)
    if not path.exists():
        raise DataError(f"file not found: {path}")
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            # Skipped by hand: the utf-8-sig codec decodes in Python, and
            # reading through it raised the peak RSS of a run of gates by 1 MB.
            if fh.read(1) != "\ufeff":
                fh.seek(0)
            reader = csv.reader(fh)
            rows = [row for row in reader if row and any(cell.strip() for cell in row)]
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc.strerror}") from exc
    except UnicodeDecodeError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    if not rows:
        raise DataError("required column '<header>' not found in header")
    header = [cell.strip() for cell in rows[0]]
    return header, rows[1:]


def _column(header, rows, name) -> np.ndarray:
    try:
        j = header.index(name)
    except ValueError:
        raise DataError(f"required column {name!r} not found in header") from None
    out = np.empty(len(rows))
    for i, row in enumerate(rows):
        cell = row[j].strip() if j < len(row) else ""
        try:
            out[i] = float(cell)
        except ValueError:
            raise DataError(f"non-numeric value {cell!r} at data row {i + 1}, "
                            f"column {name!r}") from None
        if not math.isfinite(out[i]):
            raise DataError(f"non-finite value {cell!r} at data row {i + 1}, column {name!r}")
    return out


def load_csv(path, names) -> dict:
    """The named columns of a CSV file as float arrays, keyed by name. They
    are read in the order given, so a missing column or a bad cell is
    reported for the first column that has one. A leading UTF-8 byte-order
    mark, which some spreadsheets write, is skipped."""
    header, rows = _read_table(path)
    if not rows:
        raise DataError(f"no data rows in {path}")
    return {name: _column(header, rows, name) for name in names}

