"""The seeded estimates against the benchmark's recorded outputs.

The seed-1 `estimate` commands of the `sample` workload must give the rows
and acceptance rate in perfbench/reference/sample.json: the Metropolis
chains of Puromycin MM case 11 and Feigl-Zelen logit case 15 at 100,000
draws, and the exact linear draws of Feigl-Zelen case 15. Its seed-1
`verify` commands, of Puromycin MM case 11 and Feigl-Zelen linear case 15,
must give the recorded tail and scaling statistics. The commands and the
reference are read from perfbench/, which nothing here writes to.
"""

import csv
import json
import runpy

import pytest

from influence_gate.cli import main

from conftest import REPO_ROOT

PERFBENCH = REPO_ROOT / "perfbench"
REL_TOL = 1e-9


@pytest.fixture(scope="module")
def sample_commands() -> dict:
    # run_path executes the module without writing bytecode next to it.
    workloads = runpy.run_path(str(PERFBENCH / "workloads.py"))
    assert workloads["REFERENCE_SEED"] == 1
    return {command.label: command for command in workloads["WORKLOADS"]["sample"]}


@pytest.fixture(scope="module")
def reference() -> dict:
    return json.loads((PERFBENCH / "reference" / "sample.json").read_text())


def close(got, want) -> bool:
    if isinstance(want, float):
        return abs(got - want) <= REL_TOL * abs(want)
    return got == want


def run_command(tmp_path, command, subcommand):
    """Run a seed-1 workload command of `subcommand` into tmp_path/out."""
    assert command.subcommand == subcommand
    config = tmp_path / "run.cfg"
    config.write_text(command.config_text(REPO_ROOT, 1))
    assert main([subcommand, "--config", str(config), "--out", str(tmp_path / "out")]) == 0


@pytest.mark.parametrize("label", ["estimate_mm", "estimate_logit", "estimate_linear"])
def test_seeded_estimate_equals_the_benchmark_reference(tmp_path, sample_commands, reference,
                                                        label):
    run_command(tmp_path, sample_commands[label], "estimate")
    with open(tmp_path / "out" / "estimates.csv", newline="") as fh:
        rows = [[row["measure"], float(row["value"]), row["gate"],
                 float(row["required_moments"]), float(row["available_r_star"]),
                 float(row["standard_error"]) if row["standard_error"] else None, row["flags"]]
                for row in csv.DictReader(fh)]
    rate = json.loads((tmp_path / "out" / "estimates.json").read_text())["acceptance_rate"]
    want = reference[label]
    assert len(rows) == len(want["rows"])
    for row, want_row in zip(rows, want["rows"]):
        assert all(map(close, row, want_row)), (row, want_row)
    assert close(rate, want["acceptance_rate"])


@pytest.mark.parametrize("label", ["verify_mm", "verify_linear"])
def test_seeded_verify_equals_the_benchmark_reference(tmp_path, sample_commands, reference,
                                                      label):
    run_command(tmp_path, sample_commands[label], "verify")
    got = json.loads((tmp_path / "out" / "verify_report.json").read_text())["rows"][0]
    want = reference[label]
    assert set(want) <= set(got)
    for name, value in want.items():
        assert close(got[name], value), (name, got[name], value)
