"""Command-line surface: gate reports, subset scans, k-fold audits,
influence estimation, and empirical verification.

    influence-gate gate|scan|kfold|estimate|verify --config <path> [--seed N] [--out DIR]

Configuration is a flat key = value text file with dotted section prefixes;
the grammar is documented in the README. Case indices are 1-based in
configuration and reports. Exit codes: 0 ok, 2 config error, 3 data error,
4 budget error, 5 sampler error.
"""

import argparse
import json
import math
import sys
from dataclasses import dataclass, field
from itertools import chain
from pathlib import Path

import numpy as np

from . import is_engine, linear_gate, tail_verifier
from .core_model import (
    LinearSchema,
    LogitSchema,
    MMSchema,
    MomentIndexReport,
    MomentVerdict,
    deletion_set,
    load_csv,
    write_table,
)
from .errors import (
    BudgetError,
    ConfigError,
    DataError,
    DegenerateSampleError,
    InfluenceGateError,
    SamplerError,
)
from .families import FAMILIES, MMPrior
from .mm_gate import DEFAULT_GRID_SIZE, MIN_GRID_SIZE, KappaPriorSpec, MMScanParams
from .prior_tails import ThetaPriorSpec
from .samplers import SamplerConfig, draws_to_csv

SCHEMA_VERSION = 2
SUBSET_ENUMERATION_BUDGET = 10_000_000

GATE_CSV_COLUMNS = ["deletion", "r", "verdict", "detail", "r_a", "r_b", "r_c", "r_star", "binding"]
SCAN_CSV_COLUMNS = ["subset", "r_a", "r_b", "r_c", "r_star"]
# Scan rows are read out of the result arrays this many at a time, so the
# CSV never needs the whole table as Python objects.
SCAN_CSV_BLOCK = 16384
KFOLD_CSV_COLUMNS = ["partition", "fold", "size", "r_star", "below_2"]
ESTIMATE_CSV_COLUMNS = [
    "deletion", "measure", "value", "gate", "required_moments",
    "available_r_star", "standard_error", "flags",
]
VERIFY_SCALING_CSV_COLUMNS = ["m", "replications", "variance"]


# --- configuration ------------------------------------------------------------


def parse_config_text(text: str) -> dict:
    """Flat `key = value` lines; `#` starts a comment; keys use dotted
    section prefixes. Later duplicates override earlier ones."""
    out = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, value = line.split("=", 1)
        key = key.strip()
        if not key:
            raise ConfigError(f"line {lineno}: empty key")
        out[key] = value.strip()
    return out


def _as_number(key: str, raw: str, kind):
    """`raw` parsed as `kind` (int or float); a ConfigError naming `key`
    when it does not parse."""
    try:
        return kind(raw.strip())
    except ValueError:
        what = "an integer" if kind is int else "a number"
        raise ConfigError(f"{key} must be {what}, got {raw!r}") from None


def _as_list(key: str, raw: str, kind) -> list:
    return [_as_number(key, tok, kind) for tok in raw.split(",") if tok.strip()]


def _as_bool(key: str, raw: str) -> bool:
    lowered = raw.strip().lower()
    if lowered in ("true", "yes", "1"):
        return True
    if lowered in ("false", "no", "0"):
        return False
    raise ConfigError(f"{key} must be a boolean, got {raw!r}")


@dataclass
class RunConfig:
    model: str
    data_path: Path
    raw: dict
    deletion_indices: list | None = None
    scan_size: int | None = None
    kfold_partitions: int | None = None
    kfold_folds: int | None = None
    r_values: list = field(default_factory=lambda: [2.0])
    out_dir: Path = Path(".")
    seed: int = 0

    @staticmethod
    def from_mapping(raw: dict, base_dir: Path) -> "RunConfig":
        try:
            model = raw["model"]
        except KeyError:
            raise ConfigError("missing required key 'model'") from None
        if model not in FAMILIES:
            raise ConfigError(f"model must be {'|'.join(FAMILIES)}, got {model!r}")
        if "data" not in raw:
            raise ConfigError("missing required key 'data'")
        data_path = Path(raw["data"])
        if not data_path.is_absolute():
            data_path = base_dir / data_path
        specs = [k for k in ("deletion.indices", "deletion.scan_size", "deletion.kfold.partitions") if k in raw]
        if len(specs) > 1:
            raise ConfigError(f"exactly one deletion spec allowed, got {specs}")
        cfg = RunConfig(model=model, data_path=data_path, raw=raw)
        if "deletion.indices" in raw:
            cfg.deletion_indices = _as_list("deletion.indices", raw["deletion.indices"], int)
        if "deletion.scan_size" in raw:
            cfg.scan_size = cfg.get_int("deletion.scan_size", None)
        if "deletion.kfold.partitions" in raw:
            cfg.kfold_partitions = cfg.get_int("deletion.kfold.partitions", None)
            cfg.kfold_folds = cfg.get_int("deletion.kfold.folds", 5)
        if "r" in raw:
            cfg.r_values = _as_list("r", raw["r"], float)
            if not cfg.r_values or any(r <= 1 for r in cfg.r_values):
                raise ConfigError("r must list one or more values, all above 1")
        if "out" in raw:
            out = Path(raw["out"])
            cfg.out_dir = out if out.is_absolute() else base_dir / out
        cfg.seed = cfg.get_int("seed", 0)
        return cfg

    def get(self, key: str, default=None):
        return self.raw.get(key, default)

    def get_int(self, key: str, default):
        return _as_number(key, self.raw[key], int) if key in self.raw else default

    def get_float(self, key: str, default):
        return _as_number(key, self.raw[key], float) if key in self.raw else default


def load_run_config(path) -> RunConfig:
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    try:
        mapping = parse_config_text(path.read_text())
    except OSError as exc:
        raise ConfigError(str(exc)) from exc
    return RunConfig.from_mapping(mapping, path.parent.resolve())


def _model_inputs(cfg: RunConfig):
    """(family, data, prior) of the configured model. The only reader of the
    model-specific keys: the data schema, `prior.*` and `scan.grid_size`."""
    family = FAMILIES[cfg.model]
    if cfg.model == "mm":
        schema = MMSchema(
            concentration=cfg.get("data.concentration", "concentration"),
            velocity=cfg.get("data.velocity", "velocity"),
        )
        grid_size = cfg.get_int("scan.grid_size", DEFAULT_GRID_SIZE)
        if grid_size < MIN_GRID_SIZE:
            raise ConfigError(f"scan.grid_size must be at least {MIN_GRID_SIZE}, got {grid_size}")
        prior = MMPrior(kappa=KappaPriorSpec(scale=_positive(cfg, "prior.kappa.scale", 1.0)),
                        scan=MMScanParams(grid_size=grid_size))
    else:
        covs = cfg.get("data.covariates")
        if covs is None:
            raise ConfigError(f"{cfg.model} model needs data.covariates")
        design = {"covariates": tuple(tok.strip() for tok in covs.split(",") if tok.strip()),
                  "intercept": _as_bool("data.intercept", cfg.get("data.intercept", "true"))}
        if cfg.model == "linear":
            schema = LinearSchema(response=cfg.get("data.response", "y"), **design)
            prior = _linear_prior(cfg)
        else:
            schema = LogitSchema(outcome=cfg.get("data.outcome", "y"), **design)
            prior = _positive(cfg, "prior.epsilon", 1.0)
    data = load_csv(cfg.data_path, schema)
    if cfg.model == "linear" and prior.is_noninformative and data.n <= data.k:
        raise DataError(f"the flat prior gives an improper posterior unless n > k; "
                        f"got n={data.n}, k={data.k}")
    return family, data, prior


def _linear_prior(cfg: RunConfig) -> linear_gate.LinearPrior:
    kind = cfg.get("prior.kind", "noninformative")
    if kind == "noninformative":
        return linear_gate.LinearPrior.noninformative()
    if kind != "conjugate":
        raise ConfigError(f"prior.kind must be noninformative|conjugate, got {kind!r}")
    try:
        alpha = float(cfg.get("prior.alpha"))
        beta = float(cfg.get("prior.beta"))
    except (TypeError, ValueError):
        raise ConfigError("conjugate prior needs numeric prior.alpha and prior.beta") from None
    mean_raw = cfg.get("prior.theta.mean")
    cov_raw = cfg.get("prior.theta.cov_diag")
    if mean_raw is None or cov_raw is None:
        raise ConfigError("conjugate prior needs prior.theta.mean and prior.theta.cov_diag")
    mean = np.array(_as_list("prior.theta.mean", mean_raw, float))
    cov = np.diag(_as_list("prior.theta.cov_diag", cov_raw, float))
    try:
        return linear_gate.LinearPrior.conjugate(alpha, beta, ThetaPriorSpec.normal(mean, cov))
    except ValueError as exc:
        raise ConfigError(f"prior: {exc}") from None


def _positive(cfg: RunConfig, key: str, default: float) -> float:
    value = cfg.get_float(key, default)
    if not value > 0:
        raise ConfigError(f"{key} must be positive, got {value!r}")
    return value


def _sampler_config(cfg: RunConfig, default_draws: int, width: int) -> SamplerConfig:
    """Sampler settings for a model with `width` parameters per draw."""
    scale = _as_list("sampler.scale", cfg.get("sampler.scale", ""), float)
    if scale and len(scale) != width:
        raise ConfigError(f"sampler.scale must list {width} values, one per parameter, "
                          f"got {len(scale)}")
    try:
        return SamplerConfig(
            seed=cfg.get_int("sampler.seed", cfg.seed),
            draws=cfg.get_int("sampler.draws", default_draws),
            burn_in=cfg.get_int("sampler.burn_in", 1000),
            thin=cfg.get_int("sampler.thin", 1),
            proposal_scale=tuple(scale) or None,
        )
    except ValueError as exc:
        raise ConfigError(f"sampler: {exc}") from None


# --- report plumbing -----------------------------------------------------------


def write_csv_report(path, columns, rows) -> None:
    write_table(path, columns, rows)


def validate_report(payload: dict) -> None:
    """Self-check of the JSON report shape before writing."""
    if payload.get("schema_version") != SCHEMA_VERSION:
        raise ValueError("report missing schema_version")
    if not isinstance(payload.get("command"), str):
        raise ValueError("report missing command")
    if "rows" in payload and not isinstance(payload["rows"], list):
        raise ValueError("report rows must be a list")


def _jsonable(v):
    if isinstance(v, float):
        if math.isinf(v):
            return "inf" if v > 0 else "-inf"
        if math.isnan(v):
            return "nan"
    if isinstance(v, (np.floating, np.integer)):
        return _jsonable(v.item())
    return v


def write_json_report(path, command: str, rows: list | None = None,
                      extra: dict | None = None) -> None:
    """Write a report; `rows` (optional) repeats the CSV table row by row."""
    payload = {"schema_version": SCHEMA_VERSION, "command": command}
    if rows is not None:
        payload["rows"] = [{k: _jsonable(v) for k, v in row.items()} for row in rows]
    if extra:
        payload.update({k: _jsonable(v) if not isinstance(v, dict) else v for k, v in extra.items()})
    validate_report(payload)
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)
        fh.write("\n")


def svg_line_plot(path, xs, ys, title: str, xlabel: str, ylabel: str,
                  loglog: bool = True) -> None:
    """Minimal hand-emitted SVG: axes, one polyline, labels."""
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    keep = np.isfinite(xs) & np.isfinite(ys)
    if loglog:
        keep &= (xs > 0) & (ys > 0)
    xs, ys = xs[keep], ys[keep]
    W, H, pad = 640, 480, 60
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{W}" height="{H}">',
        f'<rect width="{W}" height="{H}" fill="white"/>',
        f'<text x="{W // 2}" y="24" text-anchor="middle" font-size="16">{title}</text>',
        f'<line x1="{pad}" y1="{H - pad}" x2="{W - pad}" y2="{H - pad}" stroke="black"/>',
        f'<line x1="{pad}" y1="{pad}" x2="{pad}" y2="{H - pad}" stroke="black"/>',
        f'<text x="{W // 2}" y="{H - 16}" text-anchor="middle" font-size="12">{xlabel}</text>',
        f'<text x="18" y="{H // 2}" font-size="12" transform="rotate(-90 18 {H // 2})" '
        f'text-anchor="middle">{ylabel}</text>',
    ]
    if xs.size >= 2:
        tx = np.log10(xs) if loglog else xs
        ty = np.log10(ys) if loglog else ys
        x0, x1 = float(tx.min()), float(tx.max())
        y0, y1 = float(ty.min()), float(ty.max())
        xr = (x1 - x0) or 1.0
        yr = (y1 - y0) or 1.0
        px = pad + (tx - x0) / xr * (W - 2 * pad)
        py = (H - pad) - (ty - y0) / yr * (H - 2 * pad)
        pts = " ".join(f"{a:.2f},{b:.2f}" for a, b in zip(px, py))
        parts.append(f'<polyline points="{pts}" fill="none" stroke="steelblue" stroke-width="1.5"/>')
        for a, b in zip(px, py):
            parts.append(f'<circle cx="{a:.2f}" cy="{b:.2f}" r="2.5" fill="steelblue"/>')
    parts.append("</svg>")
    Path(path).write_text("\n".join(parts))


def _subset_label(indices) -> str:
    return "+".join(str(int(i) + 1) for i in indices)


# --- commands -------------------------------------------------------------------


def _check_scan_size(size: int, n: int, smallest: int) -> None:
    if not smallest <= size <= n:
        raise ConfigError(f"deletion.scan_size must be in [{smallest}, {n}], got {size}")
    total = math.comb(n, size)
    if total > SUBSET_ENUMERATION_BUDGET:
        raise BudgetError(f"C({n},{size}) = {total} exceeds budget {SUBSET_ENUMERATION_BUDGET}")


def cmd_gate(cfg: RunConfig) -> list:
    """Per-deletion-set verdicts and moment cut-offs, written as CSV + JSON."""
    family, data, prior = _model_inputs(cfg)
    if cfg.deletion_indices is not None:
        sets = [deletion_set([i - 1 for i in cfg.deletion_indices], data.n).indices]
        size = len(sets[0])
    elif cfg.scan_size is not None:
        size = sets = cfg.scan_size
        _check_scan_size(size, data.n, 0)
    else:
        raise ConfigError("gate needs deletion.indices or deletion.scan_size")
    if size == 0:
        constant = MomentVerdict.finite("empty deletion: weight is constant")
        rows = [_gate_row((), r, constant, _empty_report()) for r in cfg.r_values]
    else:
        rows = [_gate_row(*row) for row in family.gate_rows(data, prior, sets, cfg.r_values)]
    out = cfg.out_dir
    out.mkdir(parents=True, exist_ok=True)
    write_csv_report(out / "gate_report.csv", GATE_CSV_COLUMNS,
                     [[row[c] for c in GATE_CSV_COLUMNS] for row in rows])
    write_json_report(out / "gate_report.json", "gate", rows)
    return rows


def _gate_row(indices, r, verdict, rep) -> dict:
    return {
        "deletion": _subset_label(indices),
        "r": float(r),
        "verdict": verdict.tag.value,
        "detail": verdict.detail,
        "r_a": float(rep.r_a),
        "r_b": float(rep.r_b),
        "r_c": float(rep.r_c),
        "r_star": float(rep.r_star),
        "binding": rep.binding,
    }


def cmd_scan(cfg: RunConfig) -> dict:
    """Enumerate all subsets of the configured size, rank by cut-offs.

    Linear model only (the scanning machinery rides on the closed-form hat
    quantities). The CSV holds the full table, streamed out of the result
    arrays a block at a time; the JSON holds the subset count, two rankings
    and membership summaries for flagged cases.
    """
    if cfg.model != "linear":
        raise ConfigError("scan supports the linear model")
    if cfg.scan_size is None:
        raise ConfigError("scan needs deletion.scan_size")
    top = cfg.get_int("scan.top", 100)
    if top < 1:
        raise ConfigError(f"scan.top must be at least 1, got {top}")
    flag_cases = _as_list("scan.flag_cases", cfg.get("scan.flag_cases", ""), int)
    _, data, prior = _model_inputs(cfg)
    _check_scan_size(cfg.scan_size, data.n, 1)
    result = linear_gate.scan_deletion_subsets(data, cfg.scan_size, prior)
    order_a = np.argsort(result.r_a, kind="stable")
    order_c = np.argsort(result.r_c, kind="stable")
    flagged = {}
    for case in flag_cases:
        idx0 = case - 1
        in_a = int(np.sum([idx0 in result.subsets[i] for i in order_a[:top]]))
        in_c = int(np.sum([idx0 in result.subsets[i] for i in order_c[:top]]))
        flagged[str(case)] = {
            f"top{top}_by_r_a": in_a,
            f"top{top}_by_r_c": in_c,
        }
    out = cfg.out_dir
    out.mkdir(parents=True, exist_ok=True)
    write_csv_report(out / "scan_report.csv", SCAN_CSV_COLUMNS, _scan_rows(result, data.n))
    summary = {
        "subset_count": result.count,
        "ranking_by_r_a": [_subset_label(result.subsets[i]) for i in order_a[:top]],
        "ranking_by_r_c": [_subset_label(result.subsets[i]) for i in order_c[:top]],
        "flagged_cases": flagged,
    }
    write_json_report(out / "scan_report.json", "scan", extra=summary)
    return summary


def _scan_rows(result, n: int):
    """The scan table's rows, read out of the result arrays SCAN_CSV_BLOCK
    at a time; labels join 1-based case names from a table of all n."""
    names = [str(i + 1) for i in range(n)]
    columns = (result.r_a, result.r_b, result.r_c, result.r_star)

    def block(start):
        part = slice(start, start + SCAN_CSV_BLOCK)
        labels = ["+".join(map(names.__getitem__, row)) for row in result.subsets[part].tolist()]
        return zip(labels, *(col[part].tolist() for col in columns))

    return chain.from_iterable(map(block, range(0, result.count, SCAN_CSV_BLOCK)))


def cmd_kfold_audit(cfg: RunConfig) -> dict:
    """Random-partition audit: per-fold moment indices and CLT-failure counts."""
    if cfg.model != "linear":
        raise ConfigError("kfold audit supports the linear model")
    if cfg.kfold_partitions is None:
        raise ConfigError("kfold needs deletion.kfold.partitions")
    _, data, prior = _model_inputs(cfg)
    n = data.n
    folds = cfg.kfold_folds
    if not 2 <= folds <= n:
        raise ConfigError(f"fold count must be in [2, {n}]")
    if cfg.kfold_partitions < 1:
        raise ConfigError("deletion.kfold.partitions must be at least 1")
    rng = np.random.default_rng(cfg.seed)
    partitions = []
    for _ in range(cfg.kfold_partitions):
        perm = rng.permutation(n)
        partitions.append([sorted(perm[f::folds].tolist()) for f in range(folds)])
    all_folds = [fold for parts in partitions for fold in parts]
    rstars = linear_gate.fold_moment_indices(data, all_folds, prior)
    below = (rstars < 2.0).reshape(len(partitions), folds).sum(axis=1)
    count_ge1 = int(np.sum(below >= 1))
    count_ge2 = int(np.sum(below >= 2))
    rows = [
        {
            "partition": i // folds + 1,
            "fold": i % folds + 1,
            "size": len(fold),
            "r_star": float(rs),
            "below_2": bool(rs < 2.0),
        }
        for i, (fold, rs) in enumerate(zip(all_folds, rstars))
    ]
    out = cfg.out_dir
    out.mkdir(parents=True, exist_ok=True)
    write_csv_report(out / "kfold_report.csv", KFOLD_CSV_COLUMNS,
                     [[row[c] for c in KFOLD_CSV_COLUMNS] for row in rows])
    summary = {
        "partitions": cfg.kfold_partitions,
        "folds": folds,
        "partitions_with_ge1_fold_below_2": count_ge1,
        "partitions_with_ge2_folds_below_2": count_ge2,
    }
    write_json_report(out / "kfold_report.json", "kfold", rows, extra=summary)
    return summary


_DEFAULT_MEASURES = "kl,hellinger,chisq,cpo"
# l1/l2 need a normalizing-constant estimate and the unnormalized posterior
# at the draws, bdd needs g values, and delta1/delta2 need the adjusted-prior
# integrability check; the CLI computes none of them.
_CLI_MEASURES = tuple(m for m in is_engine.MEASURES
                      if m not in ("l1", "l2", "bdd", "delta1", "delta2"))
# Fewest draws that give the Hill estimate its minimum number of exceedances.
_MIN_VERIFY_DRAWS = math.ceil(tail_verifier.MIN_EXCEEDANCES / tail_verifier.DEFAULT_TOP_FRACTION)


def _sampling_inputs(cfg: RunConfig, command: str, default_draws: int):
    """What estimate and verify share, all checked before any sampling:
    (family, data, prior, deletion set, its analytic report, sampler config)."""
    family, data, prior = _model_inputs(cfg)
    sampler_cfg = _sampler_config(cfg, default_draws, family.draw_width(data))
    if cfg.deletion_indices is None:
        raise ConfigError(f"{command} needs deletion.indices")
    dels = deletion_set([i - 1 for i in cfg.deletion_indices], data.n)
    report = family.moment_index(data, dels, prior) if dels.cardinality else _empty_report()
    return family, data, prior, dels, report, sampler_cfg


def cmd_estimate(cfg: RunConfig) -> list:
    """Draw from the posterior and estimate the requested measures with gates.

    Blocked measures carry the blocking requirement; the report repeats the
    standing advice that a mixture of the full and case-deleted posteriors
    restores a CLT when the gate blocks (mixture sampling itself is out of
    scope here).
    """
    measures = [
        tok.strip() for tok in cfg.get("measures", _DEFAULT_MEASURES).split(",") if tok.strip()
    ]
    unsupported = [m for m in measures if m not in _CLI_MEASURES]
    if unsupported:
        raise ConfigError(f"measures: {unsupported} not supported; use {list(_CLI_MEASURES)}")
    family, data, prior, dels, report, sampler_cfg = _sampling_inputs(cfg, "estimate", 10_000)
    result = family.sample(data, prior, sampler_cfg)
    loglik = is_engine.deleted_log_likelihood(family.name, result.draws, data, dels)
    sample = is_engine.WeightedSample(model=family.name, draws=result.draws,
                                      log_weights=family.log_weight(loglik, dels.cardinality))
    gate = is_engine.GateInputs(report=report)
    rows = []
    for measure in measures:
        aux = is_engine.MeasureAux(deleted_log_lik=loglik if measure == "cpo" else None)
        est = is_engine.estimate_measure(sample, measure, gate, aux)
        rows.append(
            {
                "deletion": _subset_label(dels.indices),
                "measure": measure,
                "value": est.value,
                "gate": "passed" if est.gate_passed else "blocked",
                "required_moments": est.required_moments,
                "available_r_star": est.available_r_star,
                "standard_error": est.standard_error if est.standard_error is not None else "",
                "flags": ";".join(est.flags),
            }
        )
    out = cfg.out_dir
    out.mkdir(parents=True, exist_ok=True)
    write_csv_report(out / "estimates.csv", ESTIMATE_CSV_COLUMNS,
                     [[row[c] for c in ESTIMATE_CSV_COLUMNS] for row in rows])
    advisory = (
        "blocked measures lack a CLT at this deletion; sampling from a mixture of "
        "the full and case-deleted posteriors restores one (not performed here)"
        if any(row["gate"] == "blocked" for row in rows)
        else ""
    )
    write_json_report(out / "estimates.json", "estimate", rows,
                      extra={"advisory": advisory, "acceptance_rate": result.acceptance_rate})
    if _as_bool("sampler.export_draws", cfg.get("sampler.export_draws", "false")):
        draws_to_csv(out / "draws.csv", family.name, result.draws)
    return rows


def _empty_report():
    return MomentIndexReport(r_a=math.inf, r_b=math.inf, r_c=math.inf, binding="empty deletion")


def cmd_verify(cfg: RunConfig) -> dict:
    """Tail-index and variance-scaling audit against the analytic verdicts."""
    m_grid = _as_list("verify.m_grid", cfg.get("verify.m_grid", "1000,4000,16000,64000"), int)
    if not m_grid or m_grid[0] < 1 or any(b <= a for a, b in zip(m_grid, m_grid[1:])):
        raise ConfigError(f"verify.m_grid must list strictly increasing sample sizes >= 1, "
                          f"got {m_grid}")
    reps = cfg.get_int("verify.replications", 50)
    if reps < 2:
        raise ConfigError(f"verify.replications must be at least 2, got {reps}")
    family, data, prior, dels, report, sampler_cfg = _sampling_inputs(cfg, "verify", 100_000)
    if dels.cardinality and sampler_cfg.draws < _MIN_VERIFY_DRAWS:
        raise ConfigError(f"sampler.draws must be at least {_MIN_VERIFY_DRAWS} for the tail "
                          f"index of a nonempty deletion, got {sampler_cfg.draws}")
    out = cfg.out_dir
    out.mkdir(parents=True, exist_ok=True)
    tail = tail_verifier.verify_moment_index(
        family.name, data, prior, dels, report, sampler_cfg, out_csv=out / "verify_tail.csv"
    )

    def estimator(m, rng):
        sub = SamplerConfig(
            seed=int(rng.integers(0, 2**63 - 1)), draws=m,
            burn_in=sampler_cfg.burn_in, thin=1, proposal_scale=sampler_cfg.proposal_scale,
        )
        res = family.sample(data, prior, sub)
        lw = is_engine.log_weight(family.name, res.draws, data, dels)
        return is_engine.self_normalized_estimate(np.atleast_1d(lw), res.draws[:, 0])

    scaling = tail_verifier.clt_scaling_audit(estimator, m_grid, reps, seed=cfg.seed)
    write_csv_report(
        out / "verify_scaling.csv", VERIFY_SCALING_CSV_COLUMNS,
        [[m, reps, v] for m, v in zip(scaling.m_grid, scaling.variance_at_m)],
    )
    summary = {
        "hill_estimate": tail.hill_estimate,
        "regression_index": tail.regression_index,
        "analytic_r_star": tail.analytic_r_star,
        "agreement": tail.agreement,
        "degenerate": tail.degenerate,
        "loglog_slope": scaling.loglog_slope,
    }
    write_json_report(out / "verify_report.json", "verify", [summary])
    if not tail.degenerate:
        if tail.survival:
            thresholds, exceedances, _ = zip(*tail.survival)
            svg_line_plot(out / "verify_survival.svg", thresholds,
                          [e / sampler_cfg.draws for e in exceedances],
                          "weight survival function", "threshold", "P(W > t)")
        if scaling.loglog_slope is not None:
            svg_line_plot(out / "verify_scaling.svg", scaling.m_grid, scaling.variance_at_m,
                          "estimator variance scaling", "draws", "variance")
    return summary


# --- entry point ----------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="influence-gate",
        description="Moment gates and CLT diagnostics for case-deletion importance sampling",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("gate", "scan", "kfold", "estimate", "verify"):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="flat key=value config file")
        p.add_argument("--seed", type=int, default=None, help="override config seed")
        p.add_argument("--out", default=None, help="override output directory")
    args = parser.parse_args(argv)
    try:
        cfg = load_run_config(args.config)
        if args.seed is not None:
            cfg.seed = args.seed
        if args.out is not None:
            cfg.out_dir = Path(args.out)
        dispatch = {
            "gate": cmd_gate,
            "scan": cmd_scan,
            "kfold": cmd_kfold_audit,
            "estimate": cmd_estimate,
            "verify": cmd_verify,
        }
        dispatch[args.command](cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except BudgetError as exc:
        print(f"budget error: {exc}", file=sys.stderr)
        return 4
    except (SamplerError, DegenerateSampleError) as exc:
        print(f"sampler error: {exc}", file=sys.stderr)
        return 5
    except InfluenceGateError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
