import csv
import math
import os
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from influence_gate import parallel
from influence_gate.core_model import MMData, RegressionData

REPO_ROOT = Path(__file__).resolve().parents[1]
DATA_DIR = REPO_ROOT / "data"


@pytest.fixture(scope="session")
def repo_root() -> Path:
    return REPO_ROOT


@pytest.fixture(scope="session")
def puromycin_path() -> Path:
    return DATA_DIR / "puromycin.csv"


@pytest.fixture(scope="session")
def feigl_zelen_path() -> Path:
    return DATA_DIR / "feigl_zelen.csv"


PUROMYCIN_CONC = [0.02, 0.02, 0.06, 0.06, 0.11, 0.11, 0.22, 0.22, 0.56, 0.56, 1.1]
PUROMYCIN_VEL = [67, 51, 84, 86, 98, 115, 131, 124, 144, 158, 160]


@pytest.fixture(scope="session")
def puromycin() -> MMData:
    return MMData(concentration=PUROMYCIN_CONC, velocity=PUROMYCIN_VEL)


@pytest.fixture(scope="session")
def derived_linear() -> RegressionData:
    """Intercept-only data with one outlier; hand-computed quantities:
    theta_hat = 0.5, RSS = 5, leverage 0.25, deleted residual 1.5."""
    return RegressionData(design=np.ones((4, 1)), response=[0.0, 1.0, -1.0, 2.0])


@pytest.fixture(scope="session")
def delete_last_of_4():
    return np.array([3])


def write_csv(path, header, rows) -> None:
    """Write `header` and `rows` to `path` through csv.writer."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def deleted(cases) -> np.ndarray:
    """A deletion set as the kernels, weights and verifier take it: the
    sorted int row of the distinct 0-based `cases`."""
    return np.unique(np.asarray(cases, dtype=int))


def one_set(dels) -> np.ndarray:
    """The (1, I) index array of one deletion set, a sorted row of
    distinct 0-based cases."""
    return dels[None, :]


def report_rows(report) -> list:
    """The rows of a MomentIndexReport, each with its set as a tuple and
    its cut-offs as Python floats; two reports are equal when these are."""
    columns = (report.r_a, report.r_b, report.r_c, report.r_star)
    return [SimpleNamespace(subset=tuple(subset), r_a=r_a, r_b=r_b, r_c=r_c, r_star=r_star,
                            binding=binding)
            for subset, r_a, r_b, r_c, r_star, binding in zip(
                report.subsets.tolist(), *(c.tolist() for c in columns),
                report.binding.tolist())]


def model_inputs(config: dict):
    """(family, data, prior) built as the CLI builds them from a config
    mapping of keys to values (config text or paths)."""
    from influence_gate import cli

    return cli._model_inputs(cli.parse_config({k: str(v) for k, v in config.items()}, REPO_ROOT))


def feigl_zelen(model: str):
    """The Feigl-Zelen data with design columns intercept, wbc and ag, as the
    linear (response time_weeks) or the logit model (outcome surv50) reads it."""
    config = {"model": model, "data": DATA_DIR / "feigl_zelen.csv", "data.covariates": "wbc, ag",
              "data.response": "time_weeks", "data.outcome": "surv50"}
    return model_inputs(config)[1]


def random_regression(rng: np.random.Generator, n: int, k: int) -> RegressionData:
    """Full-rank random dataset; redraws on the (rare) rank-deficient draw."""
    while True:
        X = rng.standard_normal((n, k))
        y = X @ rng.standard_normal(k) + rng.standard_normal(n)
        try:
            return RegressionData(design=X, response=y)
        except Exception:
            continue


def use_cpus(monkeypatch, count: int) -> None:
    """Make the affinity mask read as `count` CPUs and the cgroup set no CPU
    quota, so that `ordered_map` forks `count` workers, or none where count
    is 1, even on a runner with fewer CPUs or a CPU limit."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)))
    monkeypatch.setattr(parallel, "_quota_cpus", lambda: math.inf)
