"""End-to-end runs of the command-line entry point on the bundled data."""

import csv
import dataclasses
import json
import math
import os
import re
import subprocess
import sys
from itertools import combinations, islice
from types import SimpleNamespace

import numpy as np
import pytest

from influence_gate import cli, linear_gate, logit_gate
from influence_gate.cli import SCAN_CSV_COLUMNS, main, write_csv_report
from influence_gate.core_model import MomentIndexReport, deletion_set
from influence_gate.families import FAMILIES
from influence_gate.is_engine import log_weight
from influence_gate.linear_gate import LinearPrior, moment_index_linear, scan_deletion_subsets
from influence_gate.logit_gate import moment_index_logit
from influence_gate.mm_gate import moment_index_mm
from influence_gate.samplers import (
    SamplerConfig,
    sample_linear_noninformative,
    sample_logit,
    sample_mm,
)
from influence_gate.tail_verifier import hill_tail_index

from conftest import (
    DATA_DIR,
    REPO_ROOT,
    feigl_zelen,
    model_inputs,
    one_set,
    report_rows,
    use_cpus,
)

PUROMYCIN_MM = {"model": "mm", "data": DATA_DIR / "puromycin.csv"}
FZ_LINEAR = {
    "model": "linear", "data": DATA_DIR / "feigl_zelen.csv",
    "data.response": "time_weeks", "data.covariates": "wbc, ag",
    "prior.kind": "noninformative",
}
FZ_LOGIT = {
    "model": "logit", "data": DATA_DIR / "feigl_zelen.csv",
    "data.outcome": "surv50", "data.covariates": "wbc, ag", "prior.epsilon": "1",
}
MODELS = {"linear": FZ_LINEAR, "mm": PUROMYCIN_MM, "logit": FZ_LOGIT}
FZ_CONJUGATE = {
    **FZ_LINEAR, "prior.kind": "conjugate", "prior.alpha": "2", "prior.beta": "1",
    "prior.theta.mean": "0, 0, 0", "prior.theta.cov_diag": "1, 1, 1",
}


def run(tmp_path, command, config: dict, *flags) -> int:
    path = tmp_path / "run.cfg"
    path.write_text("".join(f"{key} = {value}\n" for key, value in config.items()))
    return main([command, "--config", str(path), "--out", str(tmp_path / "out"), *flags])


def read_csv(tmp_path, name) -> list:
    with open(tmp_path / "out" / name, newline="") as fh:
        return list(csv.DictReader(fh))


def count_calls(monkeypatch, module, name) -> list:
    """Wrap `module.name`; the returned list gets one entry per call."""
    calls = []
    fn = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(name)
        return fn(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


# --- exit 0 -----------------------------------------------------------------------


@pytest.mark.parametrize("config, case", [(FZ_LINEAR, "15"), (PUROMYCIN_MM, "11"), (FZ_LOGIT, "15")])
def test_gate_singleton(tmp_path, config, case):
    assert run(tmp_path, "gate", {**config, "deletion.indices": case}) == 0
    rows = read_csv(tmp_path, "gate_report.csv")
    assert [row["deletion"] for row in rows] == [case]
    assert rows[0]["verdict"] in ("finite", "infinite", "boundary")
    report = json.loads((tmp_path / "out" / "gate_report.json").read_text())
    assert report["command"] == "gate" and len(report["rows"]) == 1


def test_linear_gate_rows_match_single_set_functions(tmp_path):
    config = {**FZ_LINEAR, "deletion.scan_size": "2", "r": "2, 4"}
    assert run(tmp_path, "gate", config) == 0
    rows = read_csv(tmp_path, "gate_report.csv")
    data = feigl_zelen("linear")
    prior = LinearPrior.noninformative()
    assert len(rows) == 2 * math.comb(33, 2)
    for row in rows:
        dels = deletion_set([int(c) - 1 for c in row["deletion"].split("+")], data.n)
        report, [[verdict]] = moment_index_linear(data, one_set(dels), [float(row["r"])], prior)
        [rep] = report_rows(report)
        assert (row["verdict"], row["detail"]) == (verdict.tag.value, verdict.detail)
        assert row["binding"] == rep.binding
        for name in ("r_a", "r_b", "r_c", "r_star"):
            assert float(row[name]) == pytest.approx(getattr(rep, name), rel=0, abs=1e-9)
    assert [row["r"] for row in rows[:4]] == ["2.0", "4.0", "2.0", "4.0"]


def test_logit_gate_rows_match_single_set_functions(tmp_path):
    config = {**FZ_LOGIT, "deletion.scan_size": "2", "r": "2, 4"}
    assert run(tmp_path, "gate", config) == 0
    rows = read_csv(tmp_path, "gate_report.csv")
    data = feigl_zelen("logit")
    assert len(rows) == 2 * math.comb(33, 2)
    for row in rows:
        dels = deletion_set([int(c) - 1 for c in row["deletion"].split("+")], data.n)
        report, [[verdict]] = moment_index_logit(data, one_set(dels), [float(row["r"])], 1.0)
        [rep] = report_rows(report)
        assert (row["verdict"], row["detail"]) == (verdict.tag.value, verdict.detail)
        assert row["binding"] == rep.binding
        for name in ("r_a", "r_b", "r_c", "r_star"):
            assert float(row[name]) == pytest.approx(getattr(rep, name), rel=0, abs=1e-12)
    assert [row["r"] for row in rows[:4]] == ["2.0", "4.0", "2.0", "4.0"]


def test_mm_gate_rows_match_single_set_functions(tmp_path):
    config = {**PUROMYCIN_MM, "deletion.scan_size": "1", "r": "2, 4"}
    assert run(tmp_path, "gate", config) == 0
    rows = read_csv(tmp_path, "gate_report.csv")
    _, data, _ = model_inputs(config)
    assert len(rows) == 2 * 11
    for row in rows:
        dels = deletion_set([int(c) - 1 for c in row["deletion"].split("+")], data.n)
        report, [[verdict]] = moment_index_mm(data, one_set(dels), [float(row["r"])])
        [rep] = report_rows(report)
        assert (row["verdict"], row["detail"]) == (verdict.tag.value, verdict.detail)
        assert row["binding"] == rep.binding
        for name in ("r_a", "r_b", "r_c", "r_star"):
            assert float(row[name]) == getattr(rep, name)
    assert [row["r"] for row in rows[:4]] == ["2.0", "4.0", "2.0", "4.0"]


def test_mm_gate_binding_names_the_smallest_cutoff(tmp_path):
    # Deleting 10 of 11 cases: r_b = (n-1)/I = 1 is below r_c = 1 + 1e-9.
    config = {**PUROMYCIN_MM, "deletion.indices": ",".join(map(str, range(1, 11))), "r": "2"}
    assert run(tmp_path, "gate", config) == 0
    [row] = read_csv(tmp_path, "gate_report.csv")
    assert (row["r_b"], row["r_c"], row["r_star"]) == ("1.0", "1.000000001", "1.0")
    assert row["binding"] == "sample-size"


def test_logit_gate_enumerates_vertices_once(tmp_path, monkeypatch):
    calls = count_calls(monkeypatch, logit_gate, "_candidate_directions")
    assert run(tmp_path, "gate", {**FZ_LOGIT, "deletion.scan_size": "2", "r": "2, 4"}) == 0
    assert len(calls) == 1


def test_linear_gate_makes_one_spectral_pass(tmp_path, monkeypatch):
    calls = count_calls(monkeypatch, linear_gate, "leverage_minor")
    assert run(tmp_path, "gate", {**FZ_LINEAR, "deletion.scan_size": "2", "r": "2, 4"}) == 0
    assert len(calls) == 1


@pytest.mark.parametrize("model", MODELS)
def test_gate_empty_deletion_writes_one_row_per_r(tmp_path, model):
    assert run(tmp_path, "gate", {**MODELS[model], "deletion.scan_size": "0", "r": "2, 3"}) == 0
    rows = read_csv(tmp_path, "gate_report.csv")
    assert [(row["deletion"], row["r"]) for row in rows] == [("", "2.0"), ("", "3.0")]
    for row in rows:
        assert (row["verdict"], row["detail"]) == ("finite", "empty deletion: weight is constant")
        assert (row["r_star"], row["binding"]) == ("inf", "empty deletion")


@pytest.mark.parametrize("model", MODELS)
def test_family_index_gives_one_report_row_aligned_with_the_verdicts(model):
    family, data, prior = model_inputs(MODELS[model])
    sets = np.array([[0, 10], [3, 7], [1, 2], [4, 5]])
    r_values = (1.5, 2.0, 4.0)
    report, verdicts = family.index(data, prior, sets, r_values)
    assert isinstance(report, MomentIndexReport)
    assert report.count == len(verdicts) == len(sets)
    assert report.subsets.tolist() == sets.tolist()
    assert report.r_star.tolist() == [min(cuts) for cuts in zip(
        report.r_a.tolist(), report.r_b.tolist(), report.r_c.tolist())]
    # Row i of the report and of the verdicts is what set i gets on its own.
    for i, row in enumerate(report_rows(report)):
        alone, [per_r] = family.index(data, prior, sets[i:i + 1], r_values)
        assert report_rows(alone) == [row] and verdicts[i] == per_r


def test_estimate_empty_deletion_is_exact(tmp_path):
    config = {**PUROMYCIN_MM, "deletion.indices": "", "measures": "kl, cpo",
              "sampler.draws": "500"}
    assert run(tmp_path, "estimate", config) == 0
    rows = {row["measure"]: row for row in read_csv(tmp_path, "estimates.csv")}
    assert float(rows["kl"]["value"]) == 0.0 and float(rows["cpo"]["value"]) == 1.0
    for row in rows.values():
        assert (row["deletion"], row["gate"], row["available_r_star"]) == ("", "passed", "inf")
        assert float(row["standard_error"]) == 0.0
    cfg = cli.parse_config({k: str(v) for k, v in config.items()}, REPO_ROOT)
    assert cli._sampling_inputs(cfg, "estimate", 500)[4] == math.inf


def test_estimate_with_mm_proposals_beyond_the_float_range(tmp_path, capsys):
    """Proposals whose log sigma2 or log kappa leave the float range of exp
    have density -inf and are rejected, not a traceback. The chain accepts
    none of them, and every estimate says so."""
    config = {**PUROMYCIN_MM, "deletion.indices": "11", "sampler.scale": "1, 1000, 1000",
              "sampler.draws": "2000"}
    assert run(tmp_path, "estimate", config) == 0
    assert capsys.readouterr().err == ""
    rows = read_csv(tmp_path, "estimates.csv")
    assert {row["measure"] for row in rows} >= {"kl", "cpo"}
    assert all("zero-acceptance" in row["flags"].split(";") for row in rows)
    report = json.loads((tmp_path / "out" / "estimates.json").read_text())
    assert report["acceptance_rate"] == 0.0
    assert all("zero-acceptance" in row["flags"] for row in report["rows"])


def test_scan(tmp_path):
    assert run(tmp_path, "scan", {**FZ_LINEAR, "deletion.scan_size": "2",
                                  "scan.top": "5", "scan.flag_cases": "15"}) == 0
    assert len(read_csv(tmp_path, "scan_report.csv")) == math.comb(33, 2)
    summary = json.loads((tmp_path / "out" / "scan_report.json").read_text())
    assert summary["subset_count"] == math.comb(33, 2)
    assert len(summary["ranking_by_r_c"]) == 5
    assert set(summary["flagged_cases"]) == {"15"}


def test_kfold(tmp_path):
    config = {**FZ_LINEAR, "deletion.kfold.partitions": "4", "deletion.kfold.folds": "5"}
    assert run(tmp_path, "kfold", config) == 0
    rows = read_csv(tmp_path, "kfold_report.csv")
    assert len(rows) == 20
    sizes = [int(row["size"]) for row in rows if row["partition"] == "1"]
    assert sorted(sizes) == [6, 6, 7, 7, 7]
    for row in rows:
        assert (row["below_2"] == "True") == (float(row["r_star"]) < 2.0)


# --- exit 2: configuration errors ---------------------------------------------------


BAD_VALUES = [
    ("gate", FZ_LINEAR, "deletion.scan_size", "abc"),
    ("gate", FZ_LINEAR, "deletion.indices", "1, x"),
    ("gate", FZ_LINEAR, "r", "2, y"),
    ("gate", FZ_LINEAR, "seed", "x"),
    ("gate", {**PUROMYCIN_MM, "deletion.indices": "11"}, "scan.grid_size", "x"),
    ("scan", {**FZ_LINEAR, "deletion.scan_size": "2"}, "scan.top", "x"),
    ("scan", {**FZ_LINEAR, "deletion.scan_size": "2"}, "scan.flag_cases", "x"),
    ("kfold", FZ_LINEAR, "deletion.kfold.partitions", "x"),
    ("kfold", {**FZ_LINEAR, "deletion.kfold.partitions": "2"}, "deletion.kfold.folds", "x"),
    ("estimate", {**PUROMYCIN_MM, "deletion.indices": "11"}, "sampler.draws", "abc"),
    ("estimate", {**PUROMYCIN_MM, "deletion.indices": "11"}, "sampler.seed", "x"),
    ("estimate", {**PUROMYCIN_MM, "deletion.indices": "11"}, "sampler.burn_in", "x"),
    ("estimate", {**PUROMYCIN_MM, "deletion.indices": "11"}, "sampler.thin", "x"),
    ("estimate", {**PUROMYCIN_MM, "deletion.indices": "11"}, "sampler.scale", "0.1, x"),
    ("estimate", {**PUROMYCIN_MM, "deletion.indices": "11"}, "prior.kappa.scale", "x"),
    ("estimate", {**FZ_LOGIT, "deletion.indices": "15"}, "prior.epsilon", "x"),
    ("gate", {**FZ_CONJUGATE, "deletion.indices": "15"}, "prior.alpha", "x"),
    ("gate", {**FZ_CONJUGATE, "deletion.indices": "15"}, "prior.beta", "x"),
    ("verify", {**FZ_LINEAR, "deletion.indices": "15"}, "verify.replications", "x"),
    ("verify", {**FZ_LINEAR, "deletion.indices": "15"}, "verify.m_grid", "1000, x"),
]


@pytest.mark.parametrize("command, config, key, value", BAD_VALUES,
                         ids=[f"{c}-{k}" for c, _, k, _ in BAD_VALUES])
def test_unparseable_value_is_config_error(tmp_path, capsys, command, config, key, value):
    assert run(tmp_path, command, {**config, key: value}) == 2
    assert capsys.readouterr().err.startswith(f"config error: {key} ")


@pytest.mark.parametrize("key", ["sampler.draw", "estimate.coord", "Model"])
def test_unknown_key_is_config_error_before_data_is_read(tmp_path, capsys, key):
    config = {**PUROMYCIN_MM, "data": tmp_path / "missing.csv", "deletion.indices": "11", key: "10"}
    assert run(tmp_path, "gate", config) == 2
    assert capsys.readouterr().err.startswith(f"config error: {key} ")


def test_readme_key_table_lists_exactly_the_config_keys(repo_root):
    text = (repo_root / "README.md").read_text()
    table = text.split("### Keys", 1)[1].split("\n\n")[1]
    documented = []
    for row in table.splitlines()[2:]:
        documented += re.findall(r"`([^`]+)`", row.split("|")[1])
    assert documented == list(cli.KEYS)


@pytest.mark.parametrize("measures", ["kl, nonsense", "l1", "bdd", "delta1"])
def test_bad_measures_rejected_before_sampling(tmp_path, capsys, measures):
    config = {**PUROMYCIN_MM, "deletion.indices": "11", "measures": measures}
    assert run(tmp_path, "estimate", config) == 2
    assert capsys.readouterr().err.startswith("config error: measures")
    assert not (tmp_path / "out").exists()


OUT_OF_RANGE = [
    ("gate", {**FZ_LINEAR, "deletion.scan_size": "34"}),
    ("scan", {**FZ_LINEAR, "deletion.scan_size": "0"}),
    ("scan", {**FZ_LINEAR, "deletion.scan_size": "2", "scan.top": "0"}),
    ("gate", {**FZ_LINEAR, "deletion.indices": "15", "r": "1"}),
    ("kfold", {**FZ_LINEAR, "deletion.kfold.partitions": "0"}),
    ("gate", {**FZ_LINEAR}),
    ("gate", {**FZ_LOGIT, "deletion.indices": "15", "prior.epsilon": "0"}),
    ("gate", {**FZ_LINEAR, "deletion.indices": "15", "prior.kind": "conjugate",
              "prior.alpha": "-1", "prior.beta": "1", "prior.theta.mean": "0, 0, 0",
              "prior.theta.cov_diag": "1, 1, 1"}),
    ("estimate", {**PUROMYCIN_MM, "deletion.indices": "11", "prior.kappa.scale": "-1"}),
    ("estimate", {**PUROMYCIN_MM, "deletion.indices": "11", "sampler.draws": "0"}),
    ("gate", {**FZ_LINEAR, "deletion.indices": "15", "r": "nan"}),
    ("gate", {**PUROMYCIN_MM, "deletion.indices": "11", "r": "nan"}),
    ("gate", {**FZ_LOGIT, "deletion.indices": "15", "r": "nan"}),
    ("gate", {**FZ_LOGIT, "deletion.indices": "15", "prior.epsilon": "inf"}),
    ("kfold", {**FZ_LINEAR, "deletion.kfold.partitions": "2", "seed": "-1"}),
    ("estimate", {**PUROMYCIN_MM, "deletion.indices": "11", "sampler.scale": "-1, 1, 1"}),
]


@pytest.mark.parametrize("command, config", OUT_OF_RANGE,
                         ids=[f"{c}-{i}" for i, (c, _) in enumerate(OUT_OF_RANGE)])
def test_out_of_range_setting_is_config_error(tmp_path, command, config):
    assert run(tmp_path, command, config) == 2


@pytest.mark.parametrize("command, config", [
    ("gate", {**PUROMYCIN_MM, "deletion.indices": "11"}),
    ("estimate", {**PUROMYCIN_MM, "deletion.indices": "11"}),
    ("gate", {**FZ_LINEAR, "deletion.scan_size": "1"}),
])
@pytest.mark.parametrize("out", ["puromycin.csv", "puromycin.csv/reports"])
def test_out_under_a_file_is_config_error_before_data_is_read(tmp_path, capsys, monkeypatch,
                                                              command, config, out):
    loads = count_calls(monkeypatch, cli, "load_csv")
    path = tmp_path / "run.cfg"
    path.write_text("".join(f"{key} = {value}\n" for key, value in config.items())
                    + f"out = {DATA_DIR / out}\n")
    assert main([command, "--config", str(path)]) == 2
    assert capsys.readouterr().err.startswith(f"config error: out {DATA_DIR / out} ")
    assert loads == []


def test_non_utf8_config_is_config_error(tmp_path, capsys):
    # a Latin-1 e-acute in a comment: the file is not UTF-8
    path = tmp_path / "run.cfg"
    path.write_bytes(f"model = mm\ndata = {DATA_DIR / 'puromycin.csv'}\n# caf\xe9\n".encode("latin-1"))
    assert main(["gate", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err.startswith(f"config error: cannot read {path}: 'utf-8' codec")
    assert not (tmp_path / "out").exists()


VERIFY_SETTINGS = {**FZ_LINEAR, "deletion.indices": "15", "verify.m_grid": "100, 200",
                   "verify.replications": "2", "sampler.draws": "5000"}
BAD_VERIFY_SETTINGS = [
    ("verify.m_grid", "200, 100"),
    ("verify.m_grid", "100, 100"),
    ("verify.m_grid", "0, 100"),
    ("verify.replications", "1"),
    ("sampler.draws", "4999"),
]


@pytest.mark.parametrize("key, value", BAD_VERIFY_SETTINGS,
                         ids=[f"{k}={v}" for k, v in BAD_VERIFY_SETTINGS])
def test_bad_verify_setting_rejected_before_sampling(tmp_path, capsys, key, value):
    assert run(tmp_path, "verify", {**VERIFY_SETTINGS, key: value}) == 2
    assert capsys.readouterr().err.startswith(f"config error: {key} ")
    assert not (tmp_path / "out").exists()


def assert_draws_are_config_error_before_data_is_read(tmp_path, capsys, monkeypatch, draws):
    loads = count_calls(monkeypatch, cli, "load_csv")
    config = {**FZ_LINEAR, "deletion.indices": "15", "sampler.draws": draws}
    assert run(tmp_path, "estimate", config) == 2
    err = capsys.readouterr().err
    assert err == "config error: sampler.draws must be at least 4, got " + draws + "\n"
    assert loads == []
    assert not (tmp_path / "out").exists()


def test_one_draw_is_config_error_before_data_is_read(tmp_path, capsys, monkeypatch):
    assert_draws_are_config_error_before_data_is_read(tmp_path, capsys, monkeypatch, "1")


@pytest.mark.parametrize("draws", ["2", "3"])
def test_two_or_three_draws_are_config_error_before_data_is_read(tmp_path, capsys, monkeypatch,
                                                                 draws):
    # Batch-means standard errors need two batches of two draws: a one-draw
    # batch has normalized weight 1, so kl, hellinger and chisq read 0 on it.
    assert_draws_are_config_error_before_data_is_read(tmp_path, capsys, monkeypatch, draws)


def test_four_draws_give_positive_standard_errors(tmp_path):
    config = {**FZ_LINEAR, "deletion.indices": "15", "sampler.draws": "4"}
    assert run(tmp_path, "estimate", config) == 0
    rows = read_csv(tmp_path, "estimates.csv")
    assert [row["measure"] for row in rows] == ["kl", "hellinger", "chisq", "cpo"]
    for row in rows:
        assert row["gate"] == "passed"
        assert float(row["standard_error"]) > 0, row


@pytest.mark.parametrize("command, config", [
    ("kfold", {**FZ_LINEAR, "deletion.kfold.partitions": "2"}),
    ("estimate", {**PUROMYCIN_MM, "deletion.indices": "11"}),
    ("verify", VERIFY_SETTINGS),
], ids=["kfold", "estimate", "verify"])
def test_seed_flag_below_zero_is_config_error_before_data_is_read(tmp_path, capsys, monkeypatch,
                                                                   command, config):
    loads = count_calls(monkeypatch, cli, "load_csv")
    assert run(tmp_path, command, config, "--seed", "-1") == 2
    assert capsys.readouterr().err == "config error: seed must be at least 0, got -1\n"
    assert loads == []
    assert not (tmp_path / "out").exists()


def test_verify_runs_at_the_smallest_settings(tmp_path):
    assert run(tmp_path, "verify", VERIFY_SETTINGS) == 0
    report = json.loads((tmp_path / "out" / "verify_report.json").read_text())["rows"][0]
    assert math.isfinite(report["hill_estimate"]) and math.isfinite(report["loglog_slope"])


def test_verify_chains_keep_the_sampler_settings(tmp_path, monkeypatch):
    """The tail chain and every scaling-audit replication chain run with the
    configured thin, burn-in and proposal scales; only seed and draws vary."""
    configs = []
    family = FAMILIES["mm"]

    def sample(data, prior, config):
        configs.append(config)
        return family.sample(data, prior, config)

    monkeypatch.setitem(FAMILIES, "mm", dataclasses.replace(family, sample=sample))
    config = {**PUROMYCIN_MM, "deletion.indices": "11", "sampler.draws": "5000",
              "sampler.thin": "2", "sampler.burn_in": "50", "sampler.scale": "10, 0.5, 0.5",
              "verify.m_grid": "100, 200", "verify.replications": "2"}
    assert run(tmp_path, "verify", config) == 0
    assert [c.draws for c in configs] == [5000, 100, 100, 200, 200]
    assert len({c.seed for c in configs}) == 5
    for c in configs:
        assert (c.thin, c.burn_in, c.proposal_scale) == (2, 50, (10.0, 0.5, 0.5))


# --- exit 3 and 4 -------------------------------------------------------------------


@pytest.mark.parametrize("index", ["0", "34"])
def test_out_of_range_deletion_index_is_data_error(tmp_path, capsys, index):
    assert run(tmp_path, "gate", {**FZ_LINEAR, "deletion.indices": index}) == 3
    assert capsys.readouterr().err.startswith("data error: ")


@pytest.mark.parametrize("command", ["gate", "estimate"])
@pytest.mark.parametrize("case", ["0", "12"])
def test_out_of_range_deletion_index_is_reported_1_based(tmp_path, capsys, command, case):
    config = {**PUROMYCIN_MM, "deletion.indices": f"11, {case}"}
    assert run(tmp_path, command, config) == 3
    assert capsys.readouterr().err == f"data error: deletion.indices: case {case} is outside 1..11\n"
    assert not (tmp_path / "out").exists()


def test_data_naming_a_directory_is_data_error(tmp_path, capsys):
    # an empty path resolves to the config file's own directory
    assert run(tmp_path, "gate", {**PUROMYCIN_MM, "data": "", "deletion.indices": "11"}) == 3
    assert capsys.readouterr().err.startswith(f"data error: cannot read {tmp_path}")


def test_non_utf8_data_is_data_error(tmp_path, capsys):
    data = tmp_path / "mm.csv"
    data.write_bytes("concentration,velocity\n0.02,67\n0.06,84\n0.11,98\n0.22,131\ncaf\xe9,1\n"
                     .encode("latin-1"))
    assert run(tmp_path, "gate", {**PUROMYCIN_MM, "data": data, "deletion.indices": "1"}) == 3
    assert capsys.readouterr().err.startswith(f"data error: cannot read {data}: 'utf-8' codec")
    assert not (tmp_path / "out").exists()


def with_cell(tmp_path, name: str, row: int, column: str, value: str):
    """A copy of the bundled data file `name` with the cell of data row
    `row` (1-based) in `column` set to `value`."""
    lines = (DATA_DIR / name).read_text().splitlines()
    cells = lines[row].split(",")
    cells[lines[0].split(",").index(column)] = value
    lines[row] = ",".join(cells)
    path = tmp_path / name
    path.write_text("\n".join(lines) + "\n")
    return path


NON_FINITE_CELLS = [
    (PUROMYCIN_MM, "velocity", "nan"),
    (PUROMYCIN_MM, "concentration", "inf"),
    (FZ_LINEAR, "wbc", "nan"),
    (FZ_LINEAR, "time_weeks", "inf"),
    (FZ_LOGIT, "wbc", "-inf"),
]


@pytest.mark.parametrize("config, column, value", NON_FINITE_CELLS,
                         ids=[f"{c['model']}-{col}={v}" for c, col, v in NON_FINITE_CELLS])
def test_non_finite_data_cell_is_data_error(tmp_path, capsys, config, column, value):
    data = with_cell(tmp_path, config["data"].name, 4, column, value)
    assert run(tmp_path, "gate", {**config, "data": data, "deletion.indices": "1"}) == 3
    assert capsys.readouterr().err == (f"data error: non-finite value {value!r} "
                                       f"at data row 4, column {column!r}\n")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("case", ["0", "34"])
def test_out_of_range_flag_case_is_data_error(tmp_path, capsys, case):
    config = {**FZ_LINEAR, "deletion.scan_size": "2", "scan.flag_cases": f"15, {case}"}
    assert run(tmp_path, "scan", config) == 3
    assert capsys.readouterr().err.startswith("data error: scan.flag_cases")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["gate", "scan"])
def test_enumeration_over_budget_is_budget_error(tmp_path, capsys, command):
    # C(33, 12) is about 3.5e8 subsets
    assert run(tmp_path, command, {**FZ_LINEAR, "deletion.scan_size": "12"}) == 4
    assert capsys.readouterr().err.startswith("budget error: ")


def random_logit(tmp_path, n: int, covariates: int) -> dict:
    """Config of a logit model on n random cases with an intercept and
    `covariates` random covariate columns, set for short sampler runs."""
    rng = np.random.default_rng(n + covariates)
    names = [f"x{j}" for j in range(covariates)]
    path = tmp_path / "logit.csv"
    outcome, design = rng.integers(0, 2, n).tolist(), rng.standard_normal((n, covariates)).tolist()
    write_csv_report(path, ["y", *names], ([y, *x] for y, x in zip(outcome, design)))
    return {"model": "logit", "data": path, "data.covariates": ", ".join(names),
            "deletion.indices": "1", "sampler.draws": "5000",
            "verify.m_grid": "100, 200", "verify.replications": "2"}


@pytest.mark.parametrize("command", ["gate", "estimate"])
def test_vertex_budget_error_names_what_a_user_can_change(tmp_path, capsys, command):
    # n = 150 and k = 6 are within the limits, but the arrangement has
    # 2 * C(156, 5) candidate vertices
    assert run(tmp_path, command, random_logit(tmp_path, 150, 5)) == 4
    err = capsys.readouterr().err
    assert err.startswith("budget error: vertex enumeration needs 1443313872 candidates")
    assert "fewer covariates or cases" in err and "multistart" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["gate", "estimate", "verify"])
@pytest.mark.parametrize("n, covariates", [(201, 1), (8, 6)], ids=["n=201", "k=7"])
def test_logit_size_limits_apply_to_every_command(tmp_path, capsys, command, n, covariates):
    assert run(tmp_path, command, random_logit(tmp_path, n, covariates)) == 4
    err = capsys.readouterr().err
    assert err == (f"budget error: exact maximization supports k <= 6 and n <= 200; "
                   f"got k={covariates + 1}, n={n}\n")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["gate", "estimate"])
def test_flat_prior_with_n_not_above_k_is_data_error(tmp_path, capsys, command):
    path = tmp_path / "three_rows.csv"
    path.write_text("y,a,b\n1.0,0.5,2.0\n2.0,1.5,0.5\n0.5,3.0,1.0\n")
    config = {"model": "linear", "data": path, "data.covariates": "a, b", "deletion.indices": "1"}
    assert run(tmp_path, command, config) == 3
    err = capsys.readouterr().err
    assert err.startswith("data error: ") and "n=3" in err and "k=3" in err


@pytest.mark.parametrize("command", ["gate", "estimate"])
def test_flat_prior_with_an_exact_fit_is_data_error(tmp_path, capsys, command):
    # y = 2x + 1 exactly: RSS = 0 and the flat-prior posterior is improper
    path = tmp_path / "exact.csv"
    path.write_text("x,y\n1,3\n2,5\n3,7\n4,9\n5,11\n")
    config = {"model": "linear", "data": path, "data.covariates": "x", "deletion.indices": "1"}
    assert run(tmp_path, command, config) == 3
    assert capsys.readouterr().err == ("data error: the flat prior gives an improper posterior "
                                       "when the design fits the response exactly (RSS = 0)\n")
    assert not (tmp_path / "out").exists()


MM_UNJUDGED = {
    # one case: r_b = (n - 1)/I = 0, and the flat-prior posterior is improper
    "one-case": "concentration,velocity\n0.5,100\n",
    # sum v = 0 is sum x v as kappa -> 0, the denominator of g
    "zero-sum": "concentration,velocity\n0.5,1\n1,-1\n2,2\n4,-2\n",
    "all-zero": "concentration,velocity\n0.5,0\n1,0\n2,0\n4,0\n",
    # sum v and sum c v are positive, but sum x v is about -0.1 at kappa = 1
    "negative-inside": "concentration,velocity\n0.001,2\n1,-1\n1000,0.4\n5,0\n",
}


@pytest.mark.parametrize("command", ["gate", "estimate"])
@pytest.mark.parametrize("rows", MM_UNJUDGED.values(), ids=list(MM_UNJUDGED))
def test_mm_data_the_gate_cannot_judge_is_data_error(tmp_path, capsys, command, rows):
    path = tmp_path / "mm.csv"
    path.write_text(rows)
    assert run(tmp_path, command, {"model": "mm", "data": path, "deletion.indices": "1"}) == 3
    err = capsys.readouterr().err
    assert err.startswith("data error: ") and "Traceback" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["gate", "estimate", "verify"])
def test_mm_on_two_cases_is_data_error(tmp_path, capsys, command):
    # m c/(kappa + c) fits both points exactly at kappa0 ~ 0.0087, where the
    # kappa-marginal has a non-integrable spike: the posterior is improper.
    path = tmp_path / "two_rows.csv"
    path.write_text("concentration,velocity\n0.02,67\n0.06,84\n")
    assert run(tmp_path, command, {"model": "mm", "data": path, "deletion.indices": "1"}) == 3
    err = capsys.readouterr().err
    assert err.startswith("data error: need at least three observations, got 2")
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


# --- exit 5 -----------------------------------------------------------------------


@pytest.mark.parametrize("command", ["estimate", "verify"])
def test_flat_prior_with_a_near_exact_fit_is_sampler_error(tmp_path, capsys, command):
    # y = 2x + 1 + (1, -2, 0, 1.5, -0.5) 1e-8 passes the exact-fit refusal,
    # but y'y - theta_hat'X'y cancels to -2.3e-13, below its rounding error.
    path = tmp_path / "near_exact.csv"
    noise = (1.0, -2.0, 0.0, 1.5, -0.5)
    path.write_text("x,y\n" + "".join(f"{x},{2 * x + 1 + e * 1e-8!r}\n"
                                       for x, e in zip(range(1, 6), noise)))
    config = {"model": "linear", "data": path, "data.covariates": "x", "deletion.indices": "1"}
    assert run(tmp_path, command, config) == 5
    err = capsys.readouterr().err
    assert err.startswith("sampler error: ") and "Traceback" not in err
    assert not (tmp_path / "out").exists()


# --- model set-up shared by estimate and verify -------------------------------------


WRONG_SCALE_LENGTH = [
    ("estimate", {**PUROMYCIN_MM, "deletion.indices": "11"}),
    ("verify", {**PUROMYCIN_MM, "deletion.indices": "11"}),
    ("estimate", {**FZ_LOGIT, "deletion.indices": "15"}),
    ("verify", {**FZ_LOGIT, "deletion.indices": "15"}),
]


@pytest.mark.parametrize("command, config", WRONG_SCALE_LENGTH,
                         ids=[f"{c}-{cfg['model']}" for c, cfg in WRONG_SCALE_LENGTH])
def test_wrong_length_sampler_scale_is_config_error(tmp_path, capsys, command, config):
    # mm draws 3 parameters and this logit model 3 coefficients
    assert run(tmp_path, command, {**config, "sampler.scale": "0.1, 0.2"}) == 2
    assert capsys.readouterr().err.startswith("config error: sampler.scale ")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["gate", "estimate"])
@pytest.mark.parametrize("key", ["prior.theta.mean", "prior.theta.cov_diag"])
def test_wrong_length_conjugate_prior_is_config_error(tmp_path, capsys, command, key):
    # the FZ design has k = 3 columns: intercept, wbc and ag
    config = {**FZ_CONJUGATE, "deletion.indices": "15", "sampler.draws": "100", key: "1, 1"}
    assert run(tmp_path, command, config) == 2
    assert capsys.readouterr().err.startswith(f"config error: {key} ")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["gate", "estimate"])
def test_mm_grid_size_below_minimum_is_config_error(tmp_path, capsys, command):
    # The kappa grid is fixed, so any scan.grid_size is an unknown key.
    config = {**PUROMYCIN_MM, "deletion.indices": "11", "scan.grid_size": "8"}
    assert run(tmp_path, command, config) == 2
    assert capsys.readouterr().err.startswith("config error: scan.grid_size is not a known key")
    assert not (tmp_path / "out").exists()


def test_verify_samples_from_configured_kappa_prior(tmp_path):
    config = {**PUROMYCIN_MM, "deletion.indices": "11", "prior.kappa.scale": "5", "seed": "3",
              "sampler.draws": "20000", "verify.m_grid": "1000, 2000", "verify.replications": "3"}
    assert run(tmp_path, "verify", config) == 0
    report = json.loads((tmp_path / "out" / "verify_report.json").read_text())["rows"][0]
    _, data, _ = model_inputs(PUROMYCIN_MM)
    draws = sample_mm(data, SamplerConfig(seed=3, draws=20000, burn_in=1000),
                      5.0).draws
    lw = log_weight(FAMILIES["mm"], draws, data, deletion_set([10], data.n))
    weights = np.sort(np.exp(lw - lw.max()))[::-1]
    assert report["hill_estimate"] == pytest.approx(hill_tail_index(weights), rel=1e-12)


# --- report shapes ------------------------------------------------------------------


def test_scan_json_holds_summaries_and_csv_holds_every_subset(tmp_path):
    config = {**FZ_LINEAR, "deletion.scan_size": "3", "scan.top": "5"}
    assert run(tmp_path, "scan", config) == 0
    summary = json.loads((tmp_path / "out" / "scan_report.json").read_text())
    assert "rows" not in summary
    assert summary["schema_version"] == 2
    rows = read_csv(tmp_path, "scan_report.csv")
    assert len(rows) == summary["subset_count"] == math.comb(33, 3)
    data = feigl_zelen("linear")
    result = scan_deletion_subsets(data, 3, LinearPrior.noninformative())
    for i in (0, len(rows) - 1):
        assert rows[i]["subset"] == "+".join(str(j + 1) for j in result.subsets[i])
        assert [float(rows[i][c]) for c in ("r_a", "r_b", "r_c", "r_star")] == [
            result.r_a[i], result.r_b[i], result.r_c[i], result.r_star[i]]


def json_dump_bytes(command, rows=None, extra=None) -> bytes:
    """What json.dump(payload, fh, indent=1, sort_keys=True) and a newline
    write for the payload `write_json_report` builds."""
    payload = {"schema_version": cli.SCHEMA_VERSION, "command": command}
    if rows is not None:
        payload["rows"] = [{k: cli._jsonable(v) for k, v in row.items()} for row in rows]
    if extra:
        payload.update({k: cli._jsonable(v) if not isinstance(v, dict) else v
                        for k, v in extra.items()})
    return (json.dumps(payload, indent=1, sort_keys=True) + "\n").encode()


EDGE_ROW = {
    "text": 'a "quoted" \\ back\nslash, caf\u00e9 \U0001f600', "empty": "",
    "neg_zero": -0.0, "tiny": 5e-324, "huge": 1e308, "inf": math.inf, "-inf": -math.inf,
    "nan": math.nan, "int": -7, "true": True, "false": False, "none": None,
    "np_float": np.float64(0.1), "np_inf": np.float64(-math.inf), "np_int": np.int64(2**40),
}
JSON_REPORTS = {
    "edge-row": ("gate", [EDGE_ROW, {}, {"b": 1, "a": 2}], None),
    "empty-rows": ("gate", [], None),
    "no-rows": ("scan", None, {"subset_count": 3, "ranking_by_r_a": ["1+2", "3"],
                               "flagged_cases": {"7": {"top5_by_r_a": True,
                                                       "top5_by_r_c": False}}}),
    "rows-and-extra": ("estimate", [{"case": 1, "estimate": 0.5}],
                       {"advisory": "", "acceptance_rate": np.float64(0.25)}),
    "three-blocks": ("kfold", [{"partition": i, "r_star": i / 7, "below_2": i % 3 == 0}
                               for i in range(5)], {"count": 5}),
}


@pytest.mark.parametrize("report", JSON_REPORTS)
def test_json_report_bytes_are_those_of_json_dump(tmp_path, monkeypatch, report):
    command, rows, extra = JSON_REPORTS[report]
    monkeypatch.setattr(cli, "JSON_ROW_BLOCK", 2)
    path = tmp_path / "report.json"
    cli.write_json_report(path, command, None if rows is None else iter(rows), extra)
    assert path.read_bytes() == json_dump_bytes(command, rows, extra)


def test_gate_json_report_bytes_are_those_of_json_dump(tmp_path):
    assert run(tmp_path, "gate", {**FZ_LINEAR, "deletion.scan_size": "2", "r": "2, 4"}) == 0
    rows = read_csv(tmp_path, "gate_report.csv")
    assert len(rows) > cli.JSON_ROW_BLOCK
    written = (tmp_path / "out" / "gate_report.json").read_bytes()
    report = json.loads(written)
    assert written == json_dump_bytes("gate", report["rows"])
    assert [(row["deletion"], row["verdict"]) for row in report["rows"]] == [
        (row["deletion"], row["verdict"]) for row in rows]


def fz_triples():
    return scan_deletion_subsets(feigl_zelen("linear"), 3, LinearPrior.noninformative())


def edge_values():
    inf, nan = math.inf, math.nan
    # r_a, r_b, r_c, r_star: r_b is constant in the first and last blocks
    # only, and r_star binds on r_c, r_a or r_b, or is -0.0 beside r_c = 0.0.
    cuts = np.array([
        [inf, 15.0, 2.5, 2.5], [1.5, 15.0, 3.0, 1.5],
        [inf, 15.0, inf, 15.0], [1e22, 15.0, 0.0, -0.0],
        [nan, 15.0, nan, nan], [1e22, -0.0, 1e22, -0.0],
        [0.1, 0.0, 0.1 + 0.2, 0.0], [inf, nan, nan, nan],
        [5e-324, nan, 1.7976931348623157e308, 5e-324], [inf, nan, inf, nan], [2.0, nan, 2.0, 2.0],
    ])
    subsets = np.array(list(islice(combinations(range(33), 3), len(cuts))))
    # A MomentIndexReport refuses cut-offs that are not positive and derives
    # r_star, so these stand in for a scan result with the fields it reads.
    r_a, r_b, r_c, r_star = cuts.T
    return SimpleNamespace(subsets=subsets, r_a=r_a, r_b=r_b, r_c=r_c, r_star=r_star,
                           count=len(cuts))


@pytest.mark.parametrize("make_result, block", [
    (fz_triples, 7),  # C(33, 3) = 7 * 779 + 3
    (edge_values, 4),  # 11 = 4 + 4 + 3
], ids=["fz-triples", "edge-values"])
def test_scan_csv_streamed_in_blocks_equals_one_whole_table(tmp_path, monkeypatch, make_result,
                                                           block):
    result = make_result()
    columns = (result.r_a, result.r_b, result.r_c, result.r_star)
    whole = tmp_path / "whole.csv"
    write_csv_report(whole, SCAN_CSV_COLUMNS,
                     [["+".join(str(j + 1) for j in subset), *values]
                      for subset, *values in zip(result.subsets.tolist(),
                                                 *(c.tolist() for c in columns))])
    monkeypatch.setattr(linear_gate, "scan_deletion_subsets", lambda *args: result)
    monkeypatch.setattr(cli, "SCAN_CSV_BLOCK", block)
    # On two CPUs a forked worker formats every other block while the
    # report file is open; the header must not be written twice.
    for cpus in (1, 2):
        use_cpus(monkeypatch, cpus)
        assert run(tmp_path, "scan", {**FZ_LINEAR, "deletion.scan_size": "3"}) == 0
        assert (tmp_path / "out" / "scan_report.csv").read_bytes() == whole.read_bytes()


def test_gate_chunks_on_two_cpus_equal_one_cpu(tmp_path, monkeypatch):
    # C(33, 3) = 5456 triples in chunks of 500: on two CPUs the verdict
    # lists of every other chunk come back through a forked worker's pipe.
    monkeypatch.setattr(linear_gate, "_SCAN_CHUNK", 500)
    config = {**FZ_LINEAR, "deletion.scan_size": "3", "r": "1.5, 2, 4"}
    reports = []
    for cpus in (1, 2):
        use_cpus(monkeypatch, cpus)
        (tmp_path / str(cpus)).mkdir()
        assert run(tmp_path / str(cpus), "gate", config) == 0
        reports.append([(tmp_path / str(cpus) / "out" / name).read_bytes()
                        for name in ("gate_report.csv", "gate_report.json")])
    assert reports[0] == reports[1]
    verdicts = {row["verdict"] for row in read_csv(tmp_path / "2", "gate_report.csv")}
    assert verdicts == {"finite", "infinite"}


def expected_draws_csv(path, header, draws):
    """The draws as shortest round-trip decimal text under `header`."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows([[repr(float(x)) for x in row] for row in draws])
    return path.read_bytes()


def test_exported_draws_are_shortest_round_trip_text(tmp_path):
    config = {**FZ_LINEAR, "deletion.indices": "15", "sampler.draws": "300",
              "sampler.export_draws": "true", "seed": "3"}
    assert run(tmp_path, "estimate", config) == 0
    data = feigl_zelen("linear")
    draws = sample_linear_noninformative(data, SamplerConfig(seed=3, draws=300, burn_in=1000)).draws
    expected = expected_draws_csv(tmp_path / "expected.csv",
                                  ["theta_0", "theta_1", "theta_2", "sigma2"], draws)
    assert (tmp_path / "out" / "draws.csv").read_bytes() == expected


EXPORTS = {
    "mm": ({**PUROMYCIN_MM, "deletion.indices": "11"}, ["m", "sigma2", "kappa"],
           lambda data, config: sample_mm(data, config, 1.0)),
    "logit": ({**FZ_LOGIT, "deletion.indices": "15", "prior.epsilon": "0.7"},
              ["beta_0", "beta_1", "beta_2"], lambda data, config: sample_logit(data, config, 0.7)),
}


@pytest.mark.parametrize("model", EXPORTS)
def test_exported_draws_name_each_parameter(tmp_path, model):
    config, header, sample = EXPORTS[model]
    config = {**config, "sampler.draws": "300", "sampler.export_draws": "true"}
    assert run(tmp_path, "estimate", config, "--seed", "3") == 0
    _, data, _ = model_inputs(config)
    draws = sample(data, SamplerConfig(seed=3, draws=300, burn_in=1000)).draws
    out = (tmp_path / "out" / "draws.csv").read_bytes()
    assert out.split(b"\r\n", 1)[0].decode() == ",".join(header)
    assert out == expected_draws_csv(tmp_path / "expected.csv", header, draws)


# Imports the CLI with every SciPy import made to fail, then runs each
# (command, config, out) triple of its arguments through `main`.
NO_SCIPY_SCRIPT = """
import sys
sys.modules["scipy"] = None
from influence_gate.cli import main
args = sys.argv[1:]
for command, config, out in zip(args[::3], args[1::3], args[2::3]):
    code = main([command, "--config", config, "--out", out])
    if code:
        sys.exit(f"{command} exited {code}")
"""


def test_cli_imports_and_runs_without_scipy(tmp_path):
    runs = [("estimate", {**PUROMYCIN_MM, "deletion.indices": "11", "measures": "kl, cpo",
                          "sampler.draws": "2000"}),
            ("verify", VERIFY_SETTINGS)]
    args = []
    for command, config in runs:
        path = tmp_path / f"{command}.cfg"
        path.write_text("".join(f"{key} = {value}\n" for key, value in config.items()))
        args += [command, str(path), str(tmp_path / command)]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(REPO_ROOT / "src"), os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", NO_SCIPY_SCRIPT, *args], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert (tmp_path / "estimate" / "estimates.csv").is_file()
    assert (tmp_path / "verify" / "verify_report.json").is_file()
