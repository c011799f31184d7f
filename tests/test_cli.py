"""End-to-end runs of the command-line entry point on the bundled data."""

import contextlib
import csv
import dataclasses
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import tracemalloc
import warnings
from itertools import combinations, islice
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from influence_gate import cli, linear_gate, logit_gate
from influence_gate.cli import SCAN_CSV_COLUMNS, main
from influence_gate.core_model import (
    BLOCK_ELEMENTS,
    MMData,
    MomentIndexReport,
    RegressionData,
    all_subsets,
)
from influence_gate.errors import SamplerError
from influence_gate.families import FAMILIES
from influence_gate.is_engine import log_weight
from influence_gate.linear_gate import LinearPrior, moment_index_linear, scan_deletion_subsets
from influence_gate.logit_gate import moment_index_logit
from influence_gate.mm_gate import R_TOL, moment_index_mm
from influence_gate.samplers import (
    SamplerConfig,
    sample_linear_noninformative,
    sample_logit,
    sample_mm,
)
from influence_gate.tail_verifier import hill_tail_index

from conftest import (
    DATA_DIR,
    PUROMYCIN_CONC,
    REPO_ROOT,
    deleted,
    feigl_zelen,
    model_inputs,
    one_set,
    report_rows,
    use_cpus,
    write_csv,
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


def config_text(config: dict) -> str:
    return "".join(f"{key} = {value}\n" for key, value in config.items())


def run(tmp_path, command, config: dict, *flags) -> int:
    path = tmp_path / "run.cfg"
    path.write_text(config_text(config))
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


@pytest.mark.parametrize("config", MODELS.values(), ids=MODELS)
def test_gate_ignores_order_and_repeats_of_deletion_indices(tmp_path, config):
    for name, cases in (("given", "3, 1, 3"), ("plain", "1, 3")):
        (tmp_path / name).mkdir()
        assert run(tmp_path / name, "gate", {**config, "deletion.indices": cases}) == 0
    for report in ("gate_report.csv", "gate_report.json"):
        given, plain = ((tmp_path / name / "out" / report).read_bytes() for name in ("given", "plain"))
        assert given == plain
    assert [row["deletion"] for row in read_csv(tmp_path / "given", "gate_report.csv")] == ["1+3"]


@pytest.mark.parametrize("config, case, column, text", [
    (FZ_LOGIT, "15", "r_star", "1.2408602150537635"),
    (PUROMYCIN_MM, "11", "r_c", "1.3233123627623362"),
], ids=["logit", "mm"])
def test_gate_cutoff_bits(tmp_path, config, case, column, text):
    # Every bit: how the kernels gather the deleted cases' columns moves the
    # last bit of these sums, which the reference comparisons tolerate.
    assert run(tmp_path, "gate", {**config, "deletion.indices": case}) == 0
    [row] = read_csv(tmp_path, "gate_report.csv")
    assert row[column] == text


def test_linear_gate_rows_match_single_set_functions(tmp_path):
    config = {**FZ_LINEAR, "deletion.scan_size": "2", "r": "2, 4"}
    assert run(tmp_path, "gate", config) == 0
    rows = read_csv(tmp_path, "gate_report.csv")
    data = feigl_zelen("linear")
    prior = LinearPrior.noninformative()
    assert len(rows) == 2 * math.comb(33, 2)
    for row in rows:
        dels = deleted([int(c) - 1 for c in row["deletion"].split("+")])
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
        dels = deleted([int(c) - 1 for c in row["deletion"].split("+")])
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
        dels = deleted([int(c) - 1 for c in row["deletion"].split("+")])
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


@pytest.mark.parametrize("model, size", [("linear", 3), ("mm", 2), ("logit", 2)])
def test_kernels_read_narrow_rows_as_int64_rows(model, size):
    """`all_subsets` gives uint8 rows for n < 256; each family's kernel
    (moment_index_linear, moment_index_mm, moment_index_logit) reports the
    same cut-off bits, binding names and verdicts for them as for the same
    sets as int64."""
    family, data, prior = model_inputs(MODELS[model])
    sets = all_subsets(data.n, size)
    assert sets.dtype == np.uint8
    r_values = (1.5, 2.0, 4.0)
    narrow, narrow_verdicts = family.kernel(data, prior, sets, r_values)
    wide, wide_verdicts = family.kernel(data, prior, sets.astype(np.int64), r_values)
    for name in ("r_a", "r_b", "r_c"):
        assert getattr(narrow, name).tobytes() == getattr(wide, name).tobytes()
    assert narrow.binding.tolist() == wide.binding.tolist()
    assert narrow.subsets.tolist() == wide.subsets.tolist()
    assert narrow_verdicts == wide_verdicts and len(narrow_verdicts) == len(sets)


@pytest.mark.parametrize("model, size, tolerance", [("linear", 2, 1e-12), ("mm", 1, R_TOL)],
                         ids=["linear", "mm"])
@pytest.mark.parametrize("exponent", [-80, -9, 9, 80])
def test_flat_prior_verdicts_and_cutoffs_do_not_depend_on_units(model, size, tolerance,
                                                                 exponent):
    """The Feigl-Zelen design and Puromycin's concentrations taken in units
    10^exponent times larger, and the response or velocities 10^exponent
    times smaller, give the same verdicts and, within `tolerance`, the same
    cut-offs under the flat prior. (The conjugate prior's beta carries the
    response's units, so it is not rescaled here.) At exponent -80 the RSS
    passes 1e154, and at 9 and 80 the kappa refinement runs where floats
    lie further apart than the golden-section tolerance."""
    family, data, prior = model_inputs(MODELS[model])
    up, down = 10.0 ** exponent, 10.0 ** -exponent
    scaled = (RegressionData(design=data.design * up, response=data.response * down)
              if model == "linear" else
              MMData(concentration=data.concentration * up, velocity=data.velocity * down))
    sets, r_values = all_subsets(data.n, size), (1.5, 2.0, 4.0)
    (report, verdicts), (base, base_verdicts) = (family.index(d, prior, sets, r_values)
                                                 for d in (scaled, data))
    assert [[v.tag for v in per_r] for per_r in verdicts] == [
        [v.tag for v in per_r] for per_r in base_verdicts]
    for name in ("r_a", "r_b", "r_c"):
        np.testing.assert_allclose(getattr(report, name), getattr(base, name), rtol=tolerance)


# (model, column) of one data column taken alone in other units: the last
# linear column is the response.
UNIT_COLUMNS = {"linear-wbc": ("linear", 1), "linear-ag": ("linear", 2),
                "linear-response": ("linear", 3), "mm-concentration": ("mm", 0),
                "mm-velocity": ("mm", 1)}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("exponent", [-300, -200, -160, 160, 200, 300])
@pytest.mark.parametrize("column", UNIT_COLUMNS)
def test_flat_prior_gates_read_one_column_in_any_units(column, exponent):
    """One column in units 10^exponent times larger gives the bundled
    verdicts, with cut-offs within 1e-12 (linear) or R_TOL (MM) and no
    warning, across the float range. Beyond about 10^+-150 the linear RSS
    and u2, and the MM kappa-sums, once left the float range."""
    model, j = UNIT_COLUMNS[column]
    family, data, prior = model_inputs(MODELS[model])
    columns = ([*data.design.T, data.response] if model == "linear"
               else [data.concentration, data.velocity])
    columns[j] = columns[j] * 10.0 ** exponent
    scaled = (RegressionData(design=np.column_stack(columns[:-1]), response=columns[-1])
              if model == "linear" else MMData(*columns))
    sets, r_values = all_subsets(data.n, 2 if model == "linear" else 1), (1.5, 2.0, 4.0)
    (report, verdicts), (base, base_verdicts) = (family.index(d, prior, sets, r_values)
                                                 for d in (scaled, data))
    assert [[v.tag for v in per_r] for per_r in verdicts] == [
        [v.tag for v in per_r] for per_r in base_verdicts]
    for name in ("r_a", "r_b", "r_c"):
        np.testing.assert_allclose(getattr(report, name), getattr(base, name),
                                   rtol=1e-12 if model == "linear" else R_TOL)


@pytest.mark.parametrize("n, dtype", [(255, np.uint8), (256, np.uint16)])
def test_the_last_case_label_does_not_wrap_in_narrow_rows(n, dtype):
    sets = all_subsets(n, 1)
    assert sets.dtype == dtype
    assert cli._subset_labels(sets[-1:], n) == [str(n)]


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


def test_conjugate_prior_gate_and_estimate(tmp_path):
    # Feigl-Zelen case 15 under the conjugate prior: r_a = 1/h_15,15,
    # r_b = (n + 2 alpha) / I and r_c is where rss_star(r) meets -2/beta.
    config = {**FZ_CONJUGATE, "prior.beta": "0.001", "prior.theta.cov_diag": "100, 100, 100",
              "deletion.indices": "15", "r": "2, 4", "sampler.draws": "2000"}
    assert run(tmp_path, "gate", config) == 0
    rows = read_csv(tmp_path, "gate_report.csv")
    assert [row["r"] for row in rows] == ["2.0", "4.0"]
    data = feigl_zelen("linear")
    X, y = data.design, data.response
    H = X @ np.linalg.solve(X.T @ X, X.T)
    e = y - H @ y
    for row in rows:
        assert row["r_a"] == "5.236061368688325"
        assert float(row["r_a"]) == pytest.approx(1.0 / H[14, 14], rel=1e-12)
        assert row["r_b"] == "37.0"
        r_c = float(row["r_c"])
        rss_star = e @ e - r_c * e[14] ** 2 / (1.0 - r_c * H[14, 14])
        assert rss_star == pytest.approx(-2.0 / 0.001, rel=1e-9)
        assert row["r_star"] == row["r_c"]
    assert run(tmp_path, "estimate", config) == 0
    estimates = read_csv(tmp_path, "estimates.csv")
    assert len(estimates) == 4
    assert {row["available_r_star"] for row in estimates} == {rows[0]["r_star"]}


@pytest.mark.parametrize("cases", ["15", "1, 2, 3, 15, 16, 17, 32, 33"])
def test_estimate_memory_does_not_grow_with_the_deletion_size(tmp_path, cases):
    """estimate never holds the (M, 4) draws: it holds the M gammas and the
    log-likelihoods while it streams the draws, a block at a time, and the
    log-likelihoods, log weights and one measure's weights after, whatever
    the deletion size. Its traced peak stays below 5.5 M-vectors at one
    deleted case and at eight; holding the draws took 7.5 and 6.1."""
    draws = 200_000
    config = {**FZ_LINEAR, "deletion.indices": cases, "sampler.draws": str(draws)}
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        assert run(tmp_path, "estimate", config) == 0
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak < 5.5 * 8 * draws, peak / (8 * draws)


def test_scan_memory_of_all_feigl_zelen_5_subsets(tmp_path, monkeypatch):
    """On one CPU, a scan of all 237,336 Feigl-Zelen 5-subsets holds the
    uint8 subset rows, the cut-offs, the binding names, r_star and one
    chunk's or one CSV block's temporaries: ~13 MB traced, where int64
    rows, concatenated chunk cut-offs and rankings held through the CSV
    peaked at ~30 MB."""
    use_cpus(monkeypatch, 1)
    config = {**FZ_LINEAR, "deletion.scan_size": "5", "scan.flag_cases": "15"}
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        assert run(tmp_path, "scan", config) == 0
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak < 20e6, peak / 1e6


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
    path.write_text(config_text(config) + f"out = {DATA_DIR / out}\n")
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


@pytest.mark.parametrize("command, config", [
    ("gate", {**PUROMYCIN_MM, "deletion.indices": "11"}),
    ("scan", {**FZ_LINEAR, "deletion.scan_size": "1"}),
    ("kfold", {**FZ_LINEAR, "deletion.kfold.partitions": "2"}),
    ("estimate", {**FZ_LINEAR, "deletion.indices": "15", "sampler.draws": "1000"}),
    ("verify", VERIFY_SETTINGS),
], ids=["gate", "scan", "kfold", "estimate", "verify"])
def test_out_that_cannot_be_made_is_config_error(tmp_path, capsys, monkeypatch, command, config):
    # /proc exists and is a directory, but no directory can be made in it:
    # checked before data is read.
    loads = count_calls(monkeypatch, cli, "load_csv")
    out = f"/proc/influence_gate_{command}"
    path = tmp_path / "run.cfg"
    path.write_text(config_text(config))
    assert main([command, "--config", str(path), "--out", out]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: cannot write {out}: ")
    assert "Traceback" not in err
    assert loads == []


CONFIG_ERRORS = [
    ("two-deletion-specs", "gate", config_text({**FZ_LINEAR, "deletion.indices": "15",
                                                "deletion.scan_size": "2"}),
     "deletion.indices: exactly one deletion spec allowed"),
    ("model-missing", "gate", config_text({"data": DATA_DIR / "puromycin.csv",
                                           "deletion.indices": "11"}),
     "model is required"),
    ("empty-measures", "estimate",
     config_text({**PUROMYCIN_MM, "deletion.indices": "11", "measures": ""}),
     "measures must list one or more values"),
    ("intercept-maybe", "gate",
     config_text({**FZ_LINEAR, "deletion.indices": "15", "data.intercept": "maybe"}),
     "data.intercept must be a boolean, got 'maybe'"),
    ("line-without-equals", "gate", "deletion.indices 15\n" + config_text(FZ_LINEAR),
     "line 1: expected 'key = value', got 'deletion.indices 15'"),
    ("empty-key", "gate", "= 3\n" + config_text(FZ_LINEAR), "line 1: empty key"),
    ("missing-config-file", "gate", None, "config file not found: "),
    ("scan-without-size", "scan", config_text(FZ_LINEAR), "scan needs deletion.scan_size"),
    ("kfold-without-partitions", "kfold", config_text(FZ_LINEAR),
     "kfold needs deletion.kfold.partitions"),
    ("kfold-folds-above-n", "kfold",
     config_text({**FZ_LINEAR, "deletion.kfold.partitions": "2", "deletion.kfold.folds": "34"}),
     "deletion.kfold.folds must be in [2, 33], got 34"),
    ("estimate-without-indices", "estimate", config_text(FZ_LINEAR),
     "estimate needs deletion.indices"),
    ("scan-on-mm", "scan", config_text({**PUROMYCIN_MM, "deletion.scan_size": "2"}),
     "scan supports the linear model"),
    ("kfold-on-logit", "kfold", config_text({**FZ_LOGIT, "deletion.kfold.partitions": "2"}),
     "kfold audit supports the linear model"),
]


@pytest.mark.parametrize("command, text, message", [case[1:] for case in CONFIG_ERRORS],
                         ids=[case[0] for case in CONFIG_ERRORS])
def test_documented_config_error_exits_2(tmp_path, capsys, command, text, message):
    # text None: the config file does not exist
    path = tmp_path / "run.cfg"
    if text is not None:
        path.write_text(text)
    assert main([command, "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {message}")
    assert "Traceback" not in err
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


def test_kfold_over_budget_is_budget_error(tmp_path, capsys, monkeypatch):
    # 2,000,001 partitions of 5 folds are 10,000,005 folds: refused before
    # the data are read, so before any permutation is drawn
    reads = count_calls(monkeypatch, cli, "_model_inputs")
    config = {**FZ_LINEAR, "deletion.kfold.partitions": "2000001", "deletion.kfold.folds": "5"}
    assert run(tmp_path, "kfold", config) == 4
    assert capsys.readouterr().err == ("budget error: 2000001 partitions x 5 folds = 10000005 "
                                       "folds exceeds budget 10000000\n")
    assert reads == []
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["estimate", "verify"])
@pytest.mark.parametrize("config", [{**FZ_LINEAR, "deletion.indices": "15"},
                                    {**PUROMYCIN_MM, "deletion.indices": "11"}],
                         ids=["linear", "mm"])
def test_unallocatable_sample_is_budget_error(tmp_path, capsys, command, config):
    # 10^17 draws are within numpy's array limit but far beyond any address
    # space, so the first array of draws can never be mapped
    assert run(tmp_path, command, {**config, "sampler.draws": str(10**17)}) == 4
    err = capsys.readouterr().err
    assert err.startswith("budget error: out of memory: ") and "Traceback" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command, key, value, steps", [
    ("estimate", "sampler.draws", str(10**18), 10**18 + 1000),
    ("estimate", "sampler.thin", str(10**15), 10**19 + 1000),
    ("verify", "verify.m_grid", f"1000, {10**18}", 10**18 + 1000),
])
def test_chain_beyond_numpy_array_limit_is_budget_error(tmp_path, capsys, monkeypatch, command,
                                                        key, value, steps):
    samples = []
    monkeypatch.setitem(FAMILIES, "mm", dataclasses.replace(
        FAMILIES["mm"], sample=lambda *args: samples.append(args)))
    config = {**PUROMYCIN_MM, "deletion.indices": "11", key: value}
    assert run(tmp_path, command, config) == 4
    assert capsys.readouterr().err == (f"budget error: a chain of {steps} steps of 3 parameters "
                                       f"needs more than {sys.maxsize} bytes, the largest array "
                                       f"numpy can make\n")
    assert samples == []
    assert not (tmp_path / "out").exists()


def random_logit(tmp_path, n: int, covariates: int) -> dict:
    """Config of a logit model on n random cases with an intercept and
    `covariates` random covariate columns, set for short sampler runs."""
    rng = np.random.default_rng(n + covariates)
    names = [f"x{j}" for j in range(covariates)]
    path = tmp_path / "logit.csv"
    outcome, design = rng.integers(0, 2, n).tolist(), rng.standard_normal((n, covariates)).tolist()
    write_csv(path, ["y", *names], ([y, *x] for y, x in zip(outcome, design)))
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


def mm_curve_csv(path, noise: float):
    """Puromycin's concentrations c and v = 100 c/(0.5 + c) (1 + noise z_i)
    for fixed standard normal z."""
    c = np.array(PUROMYCIN_CONC)
    v = 100.0 * c / (0.5 + c) * (1.0 + noise * np.random.default_rng(5).standard_normal(c.size))
    write_csv(path, ["concentration", "velocity"], zip(c.tolist(), v.tolist()))
    return path


@pytest.mark.parametrize("command", ["gate", "estimate", "verify"])
def test_mm_exact_curve_is_data_error(tmp_path, capsys, command):
    # RSS(kappa) = 0 at kappa = 0.5, where the kappa-marginal, proportional
    # to RSS(kappa)^(-(n-1)/2), has a non-integrable spike.
    config = {"model": "mm", "data": mm_curve_csv(tmp_path / "exact.csv", 0.0),
              "deletion.indices": "11"}
    assert run(tmp_path, command, config) == 3
    assert capsys.readouterr().err == ("data error: the MM posterior is improper when "
                                       "m c/(kappa + c) fits the velocities exactly at some "
                                       "kappa (RSS = 0)\n")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["gate", "estimate"])
def test_mm_curve_with_1e_6_relative_noise_is_judged(tmp_path, command):
    config = {"model": "mm", "data": mm_curve_csv(tmp_path / "noisy.csv", 1e-6),
              "deletion.indices": "11", "sampler.draws": "2000"}
    assert run(tmp_path, command, config) == 0


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


def quadratic_csv(path, x0: float, response):
    """40 cases of (x, x^2, y) with x = x0 + linspace(0, 1, 40) and y =
    response(x, i) at case index i."""
    x = x0 + np.linspace(0.0, 1.0, 40)
    y = response(x, np.arange(40.0))
    path.write_text("x,x2,y\n" + "".join(f"{float(a)!r},{float(a * a)!r},{float(b)!r}\n"
                                          for a, b in zip(x, y)))
    return path


def near_exact_csv(path):
    """y = 2x + 1 + (1, -2, 0, 1.5, -0.5) 1e-8 at x = 1, ..., 5."""
    noise = (1.0, -2.0, 0.0, 1.5, -0.5)
    path.write_text("x,y\n" + "".join(f"{x},{2 * x + 1 + e * 1e-8!r}\n"
                                       for x, e in zip(range(1, 6), noise)))
    return path


def feigl_zelen_with_cell(path, case: int, column: str, value: str):
    """The bundled Feigl-Zelen data with one cell replaced."""
    with open(DATA_DIR / "feigl_zelen.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    rows[case][rows[0].index(column)] = value
    path.write_text("".join(",".join(row) + "\n" for row in rows))
    return path


def design_config(design: str, path) -> dict:
    make, covariates, response, deletion = ACCEPTED_DESIGNS[design]
    return {"model": "linear", "data": make(path), "data.covariates": covariates,
            "data.response": response, "deletion.indices": deletion}


# (data, covariates, response, deletion) of designs the gate accepts on
# which the normal equations failed or lost digits. On the quadratic designs
# near x = 100, 1000 and 10^4 the singular-value ratio of [X, y] is 1.6e-6,
# 1.8e-8 and 1.6e-10, above RANK_TOLERANCE; near x = 1 (X'X condition number
# 2e4) and for y near 1e4 on a line the normal-equation RSS was right only
# to its rounding error. The near-exact fit cancelled y'y - theta_hat'X'y to
# -2.3e-13, and a cell at 1e200 overflows X'X.
ACCEPTED_DESIGNS = {
    "x-near-1": (lambda path: quadratic_csv(path, 1.0, lambda x, i: x + np.sin(i)),
                 "x, x2", "y", "15"),
    "x-near-100": (lambda path: quadratic_csv(path, 100.0, lambda x, i: x + np.sin(i)),
                   "x, x2", "y", "15"),
    "x-near-1000": (lambda path: quadratic_csv(path, 1000.0, lambda x, i: np.sin(i)),
                    "x, x2", "y", "15"),
    "x-near-10^4": (lambda path: quadratic_csv(path, 1e4, lambda x, i: x * x / 1e4 + np.cos(i)),
                    "x, x2", "y", "15"),
    "y-near-10^4": (lambda path: quadratic_csv(path, 0.0, lambda x, i: 1e4 + np.sin(i)),
                    "x", "y", "15"),
    "near-exact-fit": (near_exact_csv, "x", "y", "1"),
    "cell-at-1e200": (lambda path: feigl_zelen_with_cell(path, 5, "wbc", "1e200"),
                      "wbc, ag", "time_weeks", "15"),
}


@pytest.mark.parametrize("command", ["estimate", "verify"])
@pytest.mark.parametrize("design", ACCEPTED_DESIGNS)
def test_flat_prior_samples_every_design_the_gate_accepts(tmp_path, capsys, command, design):
    """The samplers read the gate's least-squares fit, so data the gate
    accepts samples under the flat prior."""
    config = {**design_config(design, tmp_path / "design.csv"), "sampler.draws": "5000",
              "verify.m_grid": "1000, 2000", "verify.replications": "2"}
    (tmp_path / "gate").mkdir()
    assert run(tmp_path / "gate", "gate", config) == 0
    assert run(tmp_path, command, config) == 0
    assert "Traceback" not in capsys.readouterr().err


def test_flat_prior_sigma2_on_the_x_near_1000_design(tmp_path):
    """E sigma2 = RSS/(n - k - 2) within 3 Monte Carlo SEs, with the RSS of
    the gate's fit, where cholesky(inv(X'X)) once failed."""
    config = design_config("x-near-1000", tmp_path / "design.csv")
    _, data, _ = model_inputs(config)
    _, _, _, e, p = linear_gate.least_squares(data)
    a, rate = (data.n - data.k) / 2.0, np.ldexp(float(e @ e), 2 * p) / 2.0
    sigma2 = sample_linear_noninformative(data, SamplerConfig(seed=3, draws=50_000)).draws[:, -1]
    se = math.sqrt(rate * rate / ((a - 1) ** 2 * (a - 2)) / sigma2.size)
    assert abs(sigma2.mean() - rate / (a - 1)) < 3 * se


def generated_run_codes(columns: dict, config: dict) -> list:
    """The exit codes of gate, and of estimate at 200 draws, on `columns`
    written as the CSV `config` reads; neither may print a traceback or
    issue a RuntimeWarning."""
    codes = []
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "data.csv"
        write_csv(path, list(columns), zip(*(column.tolist() for column in columns.values())))
        for command in ("gate", "estimate"):
            (Path(tmp) / command).mkdir()
            err = io.StringIO()
            with contextlib.redirect_stderr(err), warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                codes.append(run(Path(tmp) / command, command,
                                 {**config, "data": path, "sampler.draws": "200"}))
            assert "Traceback" not in err.getvalue() and "RuntimeWarning" not in err.getvalue()
            assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []
    return codes


def in_units(columns: dict, exponents) -> dict:
    """Each column times 10 to its exponent."""
    return {name: column * 10.0 ** e for (name, column), e in zip(columns.items(), exponents)}


@settings(max_examples=30, deadline=None)
@given(n=st.integers(4, 40), k=st.integers(1, 4), intercept=st.booleans(),
       exponents=st.lists(st.floats(-150.0, 150.0), min_size=5, max_size=5),
       collinear=st.sampled_from([0.0, 1e-4, 1e-8]), seed=st.integers(0, 2 ** 32 - 1))
def test_linear_commands_exit_cleanly_on_generated_designs(n, k, intercept, exponents,
                                                           collinear, seed):
    """gate, and estimate at 200 draws, exit 0, 3 (data error) or 5 (an RSS
    that leaves the float range in the response's units) with no
    traceback, on random designs whose covariates and response are each
    in units from 1e-150 to 1e150, some with near-collinear columns."""
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, k))
    if collinear:
        X[:, -1] = X[:, 0] + collinear * rng.standard_normal(n)
    names = [f"x{j}" for j in range(k)]
    columns = in_units(dict(zip([*names, "y"], [*X.T, X @ rng.standard_normal(k)
                                                + rng.standard_normal(n)])), exponents[-k - 1:])
    config = {"model": "linear", "data.covariates": ", ".join(names),
              "data.intercept": str(intercept).lower(), "deletion.indices": "1"}
    assert set(generated_run_codes(columns, config)) <= {0, 3, 5}


@settings(max_examples=12, deadline=None)
@given(n=st.integers(3, 12), curve=st.sampled_from(["noisy", "exact", "equal-c", "signed"]),
       exponents=st.lists(st.floats(-150.0, 150.0), min_size=2, max_size=2),
       seed=st.integers(0, 2 ** 32 - 1))
def test_mm_commands_exit_cleanly_on_generated_data(n, curve, exponents, seed):
    """The same for MM data in units from 1e-150 to 1e150: noisy curves,
    exact curves, equal concentrations and velocities of both signs, each
    of three cases or more; any documented error code may come out."""
    rng = np.random.default_rng(seed)
    c = np.full(n, 0.5) if curve == "equal-c" else 10.0 ** rng.uniform(-2.0, 1.0, n)
    v = 100.0 * c / (10.0 ** rng.uniform(-2.0, 1.0) + c)
    if curve in ("noisy", "equal-c"):
        v *= 1.0 + 0.1 * rng.standard_normal(n)
    elif curve == "signed":
        v = rng.standard_normal(n)
    columns = in_units({"concentration": c, "velocity": v}, exponents)
    codes = generated_run_codes(columns, {"model": "mm", "deletion.indices": "1"})
    assert set(codes) <= {0, 2, 3, 4, 5} and (curve != "exact" or codes == [3, 3])


@settings(max_examples=12, deadline=None)
@given(n=st.integers(4, 30), k=st.integers(1, 3), intercept=st.booleans(),
       exponents=st.lists(st.floats(-150.0, 150.0), min_size=3, max_size=3),
       separated=st.booleans(), collinear=st.sampled_from([0.0, 1e-4, 1e-8]),
       seed=st.integers(0, 2 ** 32 - 1))
def test_logit_commands_exit_cleanly_on_generated_designs(n, k, intercept, exponents, separated,
                                                          collinear, seed):
    """The same for logit designs with covariates in units from 1e-150 to
    1e150, some with outcomes a covariate separates and some with
    near-collinear columns."""
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, k))
    if collinear:
        X[:, -1] = X[:, 0] + collinear * rng.standard_normal(n)
    y = (X[:, 0] > 0) if separated else rng.random(n) < 0.5
    names = [f"x{j}" for j in range(k)]
    columns = {**in_units(dict(zip(names, X.T)), exponents), "y": y.astype(float)}
    config = {"model": "logit", "data.outcome": "y", "data.covariates": ", ".join(names),
              "data.intercept": str(intercept).lower(), "deletion.indices": "1"}
    assert set(generated_run_codes(columns, config)) <= {0, 2, 3, 4, 5}


@pytest.mark.parametrize("command", ["estimate", "verify"])
def test_conjugate_prior_with_an_overflowing_design_is_sampler_error(tmp_path, capsys,
                                                                      command):
    """A cell at 1e200 overflows X'X, which the Gibbs sampler reads."""
    config = {**FZ_CONJUGATE, "prior.theta.cov_diag": "100, 100, 100", "deletion.indices": "15",
              "data": feigl_zelen_with_cell(tmp_path / "design.csv", 5, "wbc", "1e200"),
              "sampler.draws": "5000"}
    (tmp_path / "gate").mkdir()
    assert run(tmp_path / "gate", "gate", config) == 0
    capsys.readouterr()
    assert run(tmp_path, command, config) == 5
    err = capsys.readouterr().err
    assert err.startswith("sampler error: conjugate prior: X'X or X'y overflows")
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_verify_sampler_error_in_a_replication_chain_writes_nothing(tmp_path, capsys,
                                                                   monkeypatch):
    """The tail chain is the first sample, streamed, and the first
    scaling-audit replication the second; every chain runs before the first
    file is written, so a failure in the audit leaves no output directory."""
    family = FAMILIES["linear"]
    calls = []

    def stream(data, prior, config):
        calls.append(config.draws)
        return family.stream(data, prior, config)

    def sample(data, prior, config):
        calls.append(config.draws)
        if len(calls) == 2:
            raise SamplerError("replication chain failed")
        return family.sample(data, prior, config)

    monkeypatch.setitem(FAMILIES, "linear", dataclasses.replace(family, sample=sample,
                                                                stream=stream))
    assert run(tmp_path, "verify", VERIFY_SETTINGS) == 5
    err = capsys.readouterr().err
    assert err == "sampler error: replication chain failed\n"
    assert calls == [5000, 100]
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
    lw = log_weight(FAMILIES["mm"], (draws,), data, deleted([10]), len(draws))
    weights = np.sort(np.exp(lw - lw.max()))[::-1]
    assert report["hill_estimate"] == pytest.approx(hill_tail_index(weights), rel=1e-12)


# --- report shapes ------------------------------------------------------------------


def test_scan_json_holds_summaries_and_csv_holds_every_subset(tmp_path):
    config = {**FZ_LINEAR, "deletion.scan_size": "3", "scan.top": "5"}
    assert run(tmp_path, "scan", config) == 0
    summary = json.loads((tmp_path / "out" / "scan_report.json").read_text())
    assert "rows" not in summary
    assert summary["schema_version"] == 3
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
    "edge-row": ("gate", [EDGE_ROW], None),
    "empty-rows": ("gate", [], None),
    "no-rows": ("scan", None, {"subset_count": 3, "ranking_by_r_a": ["1+2", "3"],
                               "flagged_cases": {"7": {"top5_by_r_a": True,
                                                       "top5_by_r_c": False}}}),
    "rows-and-extra": ("estimate", [{"case": 1, "estimate": 0.5}],
                       {"advisory": "", "acceptance_rate": np.float64(0.25)}),
    "three-blocks": ("kfold", [{"partition": i, "r_star": i / 7, "below_2": i % 3 == 0}
                               for i in range(5)], {"count": 5}),
}


def json_text_blocks(rows, block: int = 2) -> list:
    """`rows`, dicts with one key set, as `_table_text` row objects of
    `block` rows a block, each held as columns."""
    names = list(rows[0]) if rows else []
    return [cli._table_text(names, [[row[k] for row in rows[i:i + block]] for k in names], True)[1]
            for i in range(0, len(rows), block)]


@pytest.mark.parametrize("report", JSON_REPORTS)
def test_json_report_bytes_are_those_of_json_dump(tmp_path, report):
    command, rows, extra = JSON_REPORTS[report]
    path = tmp_path / "report.json"
    cli.write_json_report(path, command, extra, None if rows is None else json_text_blocks(rows))
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


def test_verify_reports_are_what_the_csv_and_json_modules_write(tmp_path):
    config = {**PUROMYCIN_MM, "deletion.indices": "11", "sampler.draws": "20000",
              "verify.m_grid": "1000, 4000", "verify.replications": "5"}
    assert run(tmp_path, "verify", config) == 0
    for name in ("verify_tail.csv", "verify_scaling.csv"):
        path = tmp_path / "out" / name
        with open(path, newline="") as fh:
            table = list(csv.reader(fh))
        write_csv(tmp_path / "rewritten.csv", table[0], table[1:])
        assert (tmp_path / "rewritten.csv").read_bytes() == path.read_bytes(), name
    written = (tmp_path / "out" / "verify_report.json").read_text()
    assert json.dumps(json.loads(written), indent=1, sort_keys=True) + "\n" == written


def fz_triples():
    return scan_deletion_subsets(feigl_zelen("linear"), 3, LinearPrior.noninformative())


def edge_values():
    inf, nan = math.inf, math.nan
    # r_a, r_b, r_c. r_b is bitwise constant in the first and last blocks
    # only. r_star, their minimum, shares r_c's bits (its text is reused)
    # in rows 0, 3, 4 and 10: -0.0 in row 3, NaN in rows 4 and 10. It
    # differs in the rest: r_a binds in row 1, r_b in rows 2, 5 and 6
    # (-0.0 beside r_c = 1e22 in row 5, 0.0 in row 6), and a NaN r_b gives
    # a NaN r_star beside a number in rows 7 to 9.
    cuts = np.array([
        [inf, 15.0, 2.5], [1.5, 15.0, 3.0], [inf, 15.0, inf], [1e22, 15.0, -0.0],
        [nan, 15.0, nan], [1e22, -0.0, 1e22], [0.1, 0.0, 0.1 + 0.2], [inf, nan, 2.0],
        [5e-324, nan, 1.7976931348623157e308], [inf, nan, inf], [2.0, nan, nan],
    ])
    subsets = np.array(list(islice(combinations(range(33), 3), len(cuts))))
    return UncheckedReport.of(subsets, *cuts.T)


class UncheckedReport(MomentIndexReport):
    """A MomentIndexReport that takes cut-offs which are not positive, to
    stand in for a scan result with edge values; its row slices are too."""

    def __post_init__(self):
        pass


@pytest.mark.parametrize("make_result, block", [
    (fz_triples, 7),  # C(33, 3) = 7 * 779 + 3
    (edge_values, 4),  # 11 = 4 + 4 + 3
], ids=["fz-triples", "edge-values"])
def test_scan_csv_streamed_in_blocks_equals_one_whole_table(tmp_path, monkeypatch, make_result,
                                                           block):
    result = make_result()
    columns = (result.r_a, result.r_b, result.r_c, result.r_star)
    whole = tmp_path / "whole.csv"
    write_csv(whole, SCAN_CSV_COLUMNS,
              [["+".join(str(j + 1) for j in subset), *values]
               for subset, *values in zip(result.subsets.tolist(), *(c.tolist() for c in columns))])
    monkeypatch.setattr(linear_gate, "scan_deletion_subsets", lambda *args: result)
    monkeypatch.setattr(cli, "SCAN_CSV_BLOCK", block)
    # On two CPUs forked workers format the blocks while the report file
    # is open; the header must not be written twice.
    for cpus in (1, 2):
        use_cpus(monkeypatch, cpus)
        assert run(tmp_path, "scan", {**FZ_LINEAR, "deletion.scan_size": "3"}) == 0
        assert (tmp_path / "out" / "scan_report.csv").read_bytes() == whole.read_bytes()


def test_gate_chunks_on_two_cpus_equal_one_cpu(tmp_path, monkeypatch):
    # C(33, 3) = 5456 triples in chunks of 500: on two CPUs the verdict
    # lists of every chunk come back pickled from a worker process.
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
    write_csv(path, header, [[repr(float(x)) for x in row] for row in draws])
    return path.read_bytes()


def assert_linear_draws_exported(tmp_path, draws):
    config = {**FZ_LINEAR, "deletion.indices": "15", "sampler.draws": str(draws),
              "sampler.export_draws": "true", "seed": "3"}
    assert run(tmp_path, "estimate", config) == 0
    data = feigl_zelen("linear")
    draws = sample_linear_noninformative(data, SamplerConfig(seed=3, draws=draws, burn_in=1000)).draws
    expected = expected_draws_csv(tmp_path / "expected.csv",
                                  ["theta_0", "theta_1", "theta_2", "sigma2"], draws)
    assert (tmp_path / "out" / "draws.csv").read_bytes() == expected


def test_exported_draws_are_shortest_round_trip_text(tmp_path):
    assert_linear_draws_exported(tmp_path, 300)


def test_exported_draws_span_two_row_blocks(tmp_path):
    """One row block of the four-column linear draws, and 17 rows more."""
    assert_linear_draws_exported(tmp_path, BLOCK_ELEMENTS // 4 + 17)


def test_estimates_do_not_depend_on_exporting_the_draws(tmp_path):
    """One streamed block of the three-coefficient linear draws and 17 rows
    more: kept for draws.csv or dropped once weighted, the blocks give the
    same estimates, bit for bit."""
    config = {**FZ_LINEAR, "deletion.indices": "15", "sampler.draws": str(BLOCK_ELEMENTS // 3 + 17)}
    reports = []
    for export in ("false", "true"):
        (tmp_path / export).mkdir()
        assert run(tmp_path / export, "estimate", {**config, "sampler.export_draws": export}) == 0
        reports.append([(tmp_path / export / "out" / name).read_bytes()
                        for name in ("estimates.csv", "estimates.json")])
    assert reports[0] == reports[1]
    assert (tmp_path / "true" / "out" / "draws.csv").is_file()


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


# Runs the prelude, imports the CLI, runs each (command, config, out)
# triple of its arguments through `main` and then runs the epilogue.
CLI_SCRIPT = """
import sys
{prelude}
from influence_gate.cli import main
args = sys.argv[1:]
for command, config, out in zip(args[::3], args[1::3], args[2::3]):
    code = main([command, "--config", config, "--out", out])
    if code:
        sys.exit(f"{{command}} exited {{code}}")
{epilogue}
"""


def run_cli_script(tmp_path, runs, prelude="", epilogue=""):
    """Run the (command, config) pairs `runs` by CLI_SCRIPT in a new
    interpreter, each into tmp_path/<command>; the finished process."""
    args = []
    for command, config in runs:
        path = tmp_path / f"{command}.cfg"
        path.write_text(config_text(config))
        args += [command, str(path), str(tmp_path / command)]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(REPO_ROOT / "src"), os.environ.get("PYTHONPATH")]))}
    script = CLI_SCRIPT.format(prelude=prelude, epilogue=epilogue)
    return subprocess.run([sys.executable, "-c", script, *args], env=env,
                          capture_output=True, text=True, timeout=120)


def test_cli_imports_and_runs_without_scipy(tmp_path):
    runs = [("estimate", {**PUROMYCIN_MM, "deletion.indices": "11", "measures": "kl, cpo",
                          "sampler.draws": "2000"}),
            ("verify", VERIFY_SETTINGS)]
    done = run_cli_script(tmp_path, runs, prelude='sys.modules["scipy"] = None')
    assert done.returncode == 0, done.stderr
    assert (tmp_path / "estimate" / "estimates.csv").is_file()
    assert (tmp_path / "verify" / "verify_report.json").is_file()


def test_estimate_and_verify_do_not_import_numpy_ma(tmp_path):
    """numpy.ma costs about 10 ms to import; np.unique's first call imports
    it, so neither command calls np.unique."""
    runs = [("estimate", {**FZ_LINEAR, "deletion.indices": "15, 1, 15", "sampler.draws": "2000"}),
            ("verify", VERIFY_SETTINGS)]
    epilogue = 'sys.exit("numpy.ma imported" if "numpy.ma" in sys.modules else 0)'
    done = run_cli_script(tmp_path, runs, epilogue=epilogue)
    assert done.returncode == 0, done.stderr
    assert (tmp_path / "verify" / "verify_report.json").is_file()
