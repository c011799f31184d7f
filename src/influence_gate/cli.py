"""Command-line surface: gate reports, subset scans, k-fold audits,
influence estimation, and empirical verification.

    influence-gate gate|scan|kfold|estimate|verify --config <path> [--seed N] [--out DIR]

Configuration is a flat key = value text file with dotted section prefixes;
`KEYS` lists every key with its kind, bound and default, and the README
documents the grammar. Case indices are 1-based in configuration and
reports. Exit codes: 0 ok, 2 config error, 3 data error, 4 budget error,
5 sampler error.
"""

import argparse
import csv
import difflib
import json
import math
import sys
from dataclasses import dataclass, replace
from itertools import islice, repeat
from pathlib import Path

import numpy as np

from . import is_engine, linear_gate, tail_verifier
from .core_model import all_subsets, deletion_set, load_csv
from .errors import BudgetError, ConfigError, DataError, InfluenceGateError
from .families import FAMILIES
from .parallel import ordered_map
from .samplers import SamplerConfig

SCHEMA_VERSION = 2
SUBSET_ENUMERATION_BUDGET = 10_000_000

GATE_CSV_COLUMNS = ["deletion", "r", "verdict", "detail", "r_a", "r_b", "r_c", "r_star", "binding"]
SCAN_CSV_COLUMNS = ["subset", "r_a", "r_b", "r_c", "r_star"]
# Scan rows are read out of the result arrays this many at a time, so the
# CSV never needs the whole table as Python objects.
SCAN_CSV_BLOCK = 16384
# JSON report rows are encoded and written this many at a time.
JSON_ROW_BLOCK = 1024
# With no indent the C encoder runs; this item separator puts each key of a
# row object on its own line at the depth indent=1 gives a row's keys.
_ROW_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",\n   ", ": "))
KFOLD_CSV_COLUMNS = ["partition", "fold", "size", "r_star", "below_2"]
ESTIMATE_CSV_COLUMNS = [
    "deletion", "measure", "value", "gate", "required_moments",
    "available_r_star", "standard_error", "flags",
]
VERIFY_TAIL_CSV_COLUMNS = ["threshold", "exceedances", "estimate"]
VERIFY_SCALING_CSV_COLUMNS = ["m", "replications", "variance"]


# --- configuration ------------------------------------------------------------


REQUIRED = object()  # the default of a key every config must set


@dataclass(frozen=True)
class Key:
    """One configuration key: how its text parses and what values it allows.

    kind: word | words | bool | path | int | ints | grid | float | floats.
    A plural kind is a comma-separated list of the singular one, and a grid
    is a strictly increasing list of ints. bound: the allowed words of a
    word kind (None allows any), the least allowed int, or the number every
    float must exceed. A list key with a nonempty default must list one or
    more values; a float must be finite.
    """

    name: str
    kind: str
    bound: object = None
    default: object = None


KEYS = {key.name: key for key in (
    Key("model", "word", tuple(FAMILIES), REQUIRED),
    Key("data", "path", None, REQUIRED),
    Key("data.response", "word", None, "y"),
    Key("data.covariates", "words"),
    Key("data.intercept", "bool", None, True),
    Key("data.outcome", "word", None, "y"),
    Key("data.concentration", "word", None, "concentration"),
    Key("data.velocity", "word", None, "velocity"),
    Key("deletion.indices", "ints"),
    Key("deletion.scan_size", "int", 0),
    Key("deletion.kfold.partitions", "int", 1),
    Key("deletion.kfold.folds", "int", 2, 5),
    Key("r", "floats", 1, (2.0,)),
    Key("out", "path", None, Path(".")),
    Key("seed", "int", 0, 0),
    Key("prior.kind", "word", ("noninformative", "conjugate"), "noninformative"),
    Key("prior.alpha", "float", 0),
    Key("prior.beta", "float", 0),
    Key("prior.theta.mean", "floats"),
    Key("prior.theta.cov_diag", "floats", 0),
    Key("prior.epsilon", "float", 0, 1.0),
    Key("prior.kappa.scale", "float", 0, 1.0),
    Key("scan.top", "int", 1, 100),
    Key("scan.flag_cases", "ints", None, ()),
    Key("measures", "words", is_engine.MEASURES, is_engine.MEASURES),
    Key("sampler.seed", "int", 0),  # default: seed
    Key("sampler.draws", "int", 4),  # default: set per command; the SE needs 2 batches of 2
    Key("sampler.burn_in", "int", 0, 1000),
    Key("sampler.thin", "int", 1, 1),
    Key("sampler.scale", "floats", 0, ()),
    Key("sampler.export_draws", "bool", None, False),
    Key("verify.m_grid", "grid", 1, (1000, 4000, 16000, 64000)),
    Key("verify.replications", "int", 2, 50),
)}
_DELETION_SPECS = ("deletion.indices", "deletion.scan_size", "deletion.kfold.partitions")
_LIST_ITEM = {"words": "word", "ints": "int", "grid": "int", "floats": "float"}
_BOOLS = {"true": True, "yes": True, "1": True, "false": False, "no": False, "0": False}


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


def parse_config(raw: dict, base_dir: Path) -> dict:
    """Every key of KEYS mapped to its value in `raw`, parsed, or else to
    its default. Relative paths are taken from `base_dir`. A ConfigError
    names the first key that is unknown, missing, malformed or out of
    bounds."""
    for name in raw:
        if name not in KEYS:
            near = difflib.get_close_matches(name, KEYS, n=1)
            hint = f"; did you mean {near[0]}?" if near else ""
            raise ConfigError(f"{name} is not a known key{hint}")
    specs = [name for name in _DELETION_SPECS if name in raw]
    if len(specs) > 1:
        raise ConfigError(f"{specs[0]}: exactly one deletion spec allowed, got {specs}")
    cfg = {}
    for key in KEYS.values():
        if key.name in raw:
            cfg[key.name] = _parse_value(key, raw[key.name], base_dir)
        elif key.default is REQUIRED:
            raise ConfigError(f"{key.name} is required")
        else:
            cfg[key.name] = key.default
    return cfg


def _parse_value(key: Key, text: str, base_dir: Path):
    if key.kind == "path":
        path = Path(text)
        return path if path.is_absolute() else base_dir / path
    if key.kind not in _LIST_ITEM:
        return _parse_item(key, key.kind, text.strip())
    values = tuple(_parse_item(key, _LIST_ITEM[key.kind], tok.strip())
                   for tok in text.split(",") if tok.strip())
    if key.default and not values:
        raise ConfigError(f"{key.name} must list one or more values")
    if key.kind == "grid" and any(b <= a for a, b in zip(values, values[1:])):
        raise ConfigError(f"{key.name} must be strictly increasing, got {text!r}")
    return values


def _parse_item(key: Key, kind: str, text: str):
    if kind == "word":
        if key.bound is not None and text not in key.bound:
            raise ConfigError(f"{key.name} must be {'|'.join(key.bound)}, got {text!r}")
        return text
    if kind == "bool":
        if text.lower() not in _BOOLS:
            raise ConfigError(f"{key.name} must be a boolean, got {text!r}")
        return _BOOLS[text.lower()]
    try:
        value = int(text) if kind == "int" else float(text)
    except ValueError:
        what = "an integer" if kind == "int" else "a number"
        raise ConfigError(f"{key.name} must be {what}, got {text!r}") from None
    if not math.isfinite(value):
        raise ConfigError(f"{key.name} must be finite, got {text!r}")
    if key.bound is not None:
        if kind == "int" and value < key.bound:
            raise ConfigError(f"{key.name} must be at least {key.bound}, got {value}")
        if kind == "float" and not value > key.bound:
            raise ConfigError(f"{key.name} must be above {key.bound}, got {value}")
    return value


def _check_out(out: Path) -> None:
    """`out` must be a directory or a path that mkdir can make: no part of
    it may name an existing file. Checked before data is read; the commands
    make the directory only when they write, so a run that stops on an
    error leaves none behind."""
    for part in (out, *out.parents):
        if part.exists():
            if not part.is_dir():
                raise ConfigError(f"out {out} is not a directory: {part} is a file")
            return


def load_run_config(path) -> dict:
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    try:
        mapping = parse_config_text(path.read_text(encoding="utf-8"))
    except OSError as exc:
        raise ConfigError(str(exc)) from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc
    return parse_config(mapping, path.parent.resolve())


def _model_inputs(cfg: dict):
    """(family, data, prior) of the configured model."""
    family = FAMILIES[cfg["model"]]
    data, prior = family.inputs(cfg, load_csv(cfg["data"], family.csv_columns(cfg)))
    return family, data, prior


def _sampler_config(cfg: dict, default_draws: int, width: int) -> SamplerConfig:
    """Sampler settings for a model with `width` parameters per draw."""
    scale = cfg["sampler.scale"]
    if scale and len(scale) != width:
        raise ConfigError(f"sampler.scale must list {width} values, one per parameter, "
                          f"got {len(scale)}")
    seed, draws = cfg["sampler.seed"], cfg["sampler.draws"]
    return SamplerConfig(
        seed=cfg["seed"] if seed is None else seed,
        draws=default_draws if draws is None else draws,
        burn_in=cfg["sampler.burn_in"],
        thin=cfg["sampler.thin"],
        proposal_scale=scale or None,
    )


# --- report plumbing -----------------------------------------------------------


def write_csv_report(path, columns, rows) -> None:
    """Write a CSV table from any iterable of rows, consumed as it is
    written. Floats come out as shortest round-trip decimal text: the csv
    module writes str(x), which for a float is repr(x)."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        writer.writerows(rows)


def _jsonable(v):
    if isinstance(v, float):
        if math.isinf(v):
            return "inf" if v > 0 else "-inf"
        if math.isnan(v):
            return "nan"
    if isinstance(v, (np.floating, np.integer)):
        return _jsonable(v.item())
    return v


def _json_row(row: dict) -> str:
    """One row object as json.dump(..., indent=1) lays it out under `rows`;
    its values must be scalars."""
    text = _ROW_ENCODER.encode({k: _jsonable(v) for k, v in row.items()})
    return "{\n   " + text[1:-1] + "\n  }" if row else "{}"


def write_json_report(path, command: str, rows=None, extra: dict | None = None) -> None:
    """Write a report; `rows` (optional), an iterable of dicts with scalar
    values, repeats the CSV table row by row. The bytes are those of
    json.dump(payload, fh, indent=1, sort_keys=True) and a newline: the rows
    are encoded a block at a time and spliced into the rest of the payload."""
    payload = {"schema_version": SCHEMA_VERSION, "command": command}
    if rows is not None:
        payload["rows"] = []
    if extra:
        payload.update({k: _jsonable(v) if not isinstance(v, dict) else v for k, v in extra.items()})
    text = json.dumps(payload, indent=1, sort_keys=True)
    with open(path, "w") as fh:
        if rows is not None:
            # Strings escape newlines, so this can only be the top-level key.
            head, marker, text = text.partition('\n "rows": [')
            fh.write(head + marker)
            texts = map(_json_row, rows)
            if block := ",\n  ".join(islice(texts, JSON_ROW_BLOCK)):
                fh.write("\n  " + block)
                while block := ",\n  ".join(islice(texts, JSON_ROW_BLOCK)):
                    fh.write(",\n  " + block)
                fh.write("\n ")
        fh.write(text + "\n")


def _write_report(out: Path, stem: str, command: str, columns, rows, extra=None) -> None:
    """Make `out` and write the table `rows`, lists ordered as `columns`, to
    <stem>.csv and, one object per row, to <stem>.json with `extra`. The
    row objects are made one at a time as the JSON payload is built."""
    out.mkdir(parents=True, exist_ok=True)
    write_csv_report(out / f"{stem}.csv", columns, rows)
    write_json_report(out / f"{stem}.json", command, (dict(zip(columns, row)) for row in rows),
                      extra)


def svg_line_plot(path, xs, ys, title: str, xlabel: str, ylabel: str) -> None:
    """Minimal hand-emitted SVG on log-log axes: axes, one polyline, labels.
    Points that are not finite and positive are left out."""
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    keep = np.isfinite(xs) & np.isfinite(ys) & (xs > 0) & (ys > 0)
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
        tx, ty = np.log10(xs), np.log10(ys)
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


def _check_cases(key: str, cases, n: int) -> None:
    outside = [case for case in cases if not 1 <= case <= n]
    if outside:
        raise DataError(f"{key}: case {outside[0]} is outside 1..{n}")


def _deletion(cfg: dict, n: int):
    """The deletion set of `deletion.indices`, 1-based cases in 1..n."""
    _check_cases("deletion.indices", cfg["deletion.indices"], n)
    return deletion_set([i - 1 for i in cfg["deletion.indices"]], n)


def _check_scan_size(size: int, n: int, smallest: int) -> None:
    if not smallest <= size <= n:
        raise ConfigError(f"deletion.scan_size must be in [{smallest}, {n}], got {size}")
    total = math.comb(n, size)
    if total > SUBSET_ENUMERATION_BUDGET:
        raise BudgetError(f"C({n},{size}) = {total} exceeds budget {SUBSET_ENUMERATION_BUDGET}")


def cmd_gate(cfg: dict) -> None:
    """Per-deletion-set verdicts and moment cut-offs, written as CSV + JSON."""
    indices, size = cfg["deletion.indices"], cfg["deletion.scan_size"]
    if indices is None and size is None:
        raise ConfigError("gate needs deletion.indices or deletion.scan_size")
    family, data, prior = _model_inputs(cfg)
    if indices is not None:
        sets = _deletion(cfg, data.n).index_array()[None, :]
    else:
        _check_scan_size(size, data.n, 0)
        sets = all_subsets(data.n, size)
    rows = _gate_rows(*family.index(data, prior, sets, cfg["r"]), cfg["r"])
    _write_report(cfg["out"], "gate_report", "gate", GATE_CSV_COLUMNS, rows)


def _gate_rows(report, verdicts, r_values) -> list:
    """The gate table, one row per set and order r, ordered as
    GATE_CSV_COLUMNS. `cmd_gate` passes the report and verdicts straight in,
    so they are freed before the table is written. A row's r_star is the
    least of its three cut-off floats, that same object: one more float per
    row would raise the command's peak memory."""
    cuts = [map(float, col) for col in (report.r_a, report.r_b, report.r_c)]
    return [[_subset_label(subset), float(r), verdict.tag.value, verdict.detail,
             *cut, min(cut), binding]
            for subset, *cut, binding, per_r in zip(report.subsets, *cuts, report.binding, verdicts)
            for r, verdict in zip(r_values, per_r)]


def cmd_scan(cfg: dict) -> None:
    """Enumerate all subsets of the configured size, rank by cut-offs.

    Linear model only (the scanning machinery rides on the closed-form hat
    quantities). The CSV holds the full table, streamed out of the result
    arrays a block at a time: the blocks are formatted on the CPUs the
    process may use and written in order as each arrives, so the file is the
    same for any CPU count and the whole table is never held as text. The
    JSON holds the subset count, two rankings and membership summaries for
    flagged cases.
    """
    if cfg["model"] != "linear":
        raise ConfigError("scan supports the linear model")
    size = cfg["deletion.scan_size"]
    if size is None:
        raise ConfigError("scan needs deletion.scan_size")
    top, flag_cases = cfg["scan.top"], cfg["scan.flag_cases"]
    _, data, prior = _model_inputs(cfg)
    _check_scan_size(size, data.n, 1)
    _check_cases("scan.flag_cases", flag_cases, data.n)
    result = linear_gate.scan_deletion_subsets(data, size, prior)
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
    out = cfg["out"]
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "scan_report.csv", "w", newline="") as fh:
        fh.write(",".join(SCAN_CSV_COLUMNS) + "\r\n")
        for text in _scan_text(result, data.n):
            fh.write(text)
    summary = {
        "subset_count": result.count,
        "ranking_by_r_a": [_subset_label(result.subsets[i]) for i in order_a[:top]],
        "ranking_by_r_c": [_subset_label(result.subsets[i]) for i in order_c[:top]],
        "flagged_cases": flagged,
    }
    write_json_report(out / "scan_report.json", "scan", extra=summary)


def _scan_text(result, n: int):
    """The scan table's data rows as CSV text, one str per SCAN_CSV_BLOCK
    rows, byte for byte what `write_csv_report` gives for the same rows: fields
    joined by ",", lines ended by "\r\n" and floats as repr. No field can
    need quoting: labels hold only digits and "+", and a float's repr has
    no comma, quote or line break.

    Labels join 1-based case names gathered a column at a time. r_b is
    one value per scan, so a block where it is bitwise constant formats it
    once; r_star reuses the r_c text wherever the two are bitwise equal,
    which keeps -0.0 apart from 0.0 and never merges NaN payloads.

    The blocks are formatted by `ordered_map`, on the CPUs the process may
    use, and come out in row order; at most one block per worker is held
    at a time.
    """
    names = np.array([str(i + 1) for i in range(n)], dtype=object)
    columns = (result.r_a, result.r_b, result.r_c, result.r_star)

    def block(start):
        part = slice(start, start + SCAN_CSV_BLOCK)
        labels = map("+".join, zip(*names[result.subsets[part].T].tolist()))
        r_a, r_b, r_c, r_star = (col[part] for col in columns)
        b_bits = r_b.view(np.int64)
        if np.all(b_bits == b_bits[0]):
            b_text = repeat(repr(r_b[0].item()))
        else:
            b_text = map(repr, r_b.tolist())
        c_text = list(map(repr, r_c.tolist()))
        star_text = c_text.copy()
        for i in np.flatnonzero(r_star.view(np.int64) != r_c.view(np.int64)).tolist():
            star_text[i] = repr(r_star[i].item())
        rows = zip(labels, map(repr, r_a.tolist()), b_text, c_text, star_text)
        return "\r\n".join(map(",".join, rows)) + "\r\n"

    return ordered_map(block, range(0, result.count, SCAN_CSV_BLOCK))


def cmd_kfold_audit(cfg: dict) -> None:
    """Random-partition audit: per-fold moment indices and CLT-failure counts."""
    if cfg["model"] != "linear":
        raise ConfigError("kfold audit supports the linear model")
    count, folds = cfg["deletion.kfold.partitions"], cfg["deletion.kfold.folds"]
    if count is None:
        raise ConfigError("kfold needs deletion.kfold.partitions")
    _, data, prior = _model_inputs(cfg)
    n = data.n
    if folds > n:
        raise ConfigError(f"deletion.kfold.folds must be in [2, {n}], got {folds}")
    rng = np.random.default_rng(cfg["seed"])
    partitions = []
    for _ in range(count):
        perm = rng.permutation(n)
        partitions.append([sorted(perm[f::folds].tolist()) for f in range(folds)])
    all_folds = [fold for parts in partitions for fold in parts]
    rstars = linear_gate.fold_moment_indices(data, all_folds, prior)
    below = (rstars < 2.0).reshape(len(partitions), folds).sum(axis=1)
    count_ge1 = int(np.sum(below >= 1))
    count_ge2 = int(np.sum(below >= 2))
    rows = [[i // folds + 1, i % folds + 1, len(fold), float(rs), bool(rs < 2.0)]
            for i, (fold, rs) in enumerate(zip(all_folds, rstars))]
    summary = {
        "partitions": count,
        "folds": folds,
        "partitions_with_ge1_fold_below_2": count_ge1,
        "partitions_with_ge2_folds_below_2": count_ge2,
    }
    _write_report(cfg["out"], "kfold_report", "kfold", KFOLD_CSV_COLUMNS, rows, summary)


# Fewest draws that give the Hill estimate its minimum number of exceedances.
_MIN_VERIFY_DRAWS = math.ceil(tail_verifier.MIN_EXCEEDANCES / tail_verifier.TOP_FRACTION)


def _sampling_inputs(cfg: dict, command: str, default_draws: int):
    """What estimate and verify share, all checked before any sampling:
    (family, data, prior, deletion set, its analytic r_star, sampler config)."""
    if cfg["deletion.indices"] is None:
        raise ConfigError(f"{command} needs deletion.indices")
    family, data, prior = _model_inputs(cfg)
    sampler_cfg = _sampler_config(cfg, default_draws, len(family.columns(data)))
    dels = _deletion(cfg, data.n)
    report = family.index(data, prior, dels.index_array()[None, :], ())[0]
    return family, data, prior, dels, float(report.r_star[0]), sampler_cfg


def cmd_estimate(cfg: dict) -> None:
    """Draw from the posterior and estimate the requested measures with gates.

    Blocked measures carry the blocking requirement; the report repeats the
    standing advice that a mixture of the full and case-deleted posteriors
    restores a CLT when the gate blocks (mixture sampling itself is out of
    scope here).
    """
    family, data, prior, dels, r_star, sampler_cfg = _sampling_inputs(cfg, "estimate", 10_000)
    result = family.sample(data, prior, sampler_cfg)
    loglik = is_engine.deleted_log_likelihood(family, result.draws, data, dels)
    log_weights = family.log_weight(loglik, dels.cardinality)
    label = _subset_label(dels.indices)
    ests = [is_engine.estimate_measure(log_weights, measure, r_star, loglik)
            for measure in cfg["measures"]]
    # A chain that accepted nothing repeats its start point: every estimate
    # from it is degenerate, however good the value looks.
    stuck = ("zero-acceptance",) if result.acceptance_rate == 0 else ()
    rows = [[label, est.measure, est.value, "passed" if est.gate_passed else "blocked",
             est.required_moments, est.available_r_star,
             "" if est.standard_error is None else est.standard_error,
             ";".join(est.flags + stuck)]
            for est in ests]
    advisory = (
        "blocked measures lack a CLT at this deletion; sampling from a mixture of "
        "the full and case-deleted posteriors restores one (not performed here)"
        if not all(est.gate_passed for est in ests)
        else ""
    )
    out = cfg["out"]
    _write_report(out, "estimates", "estimate", ESTIMATE_CSV_COLUMNS, rows,
                  {"advisory": advisory, "acceptance_rate": result.acceptance_rate})
    if cfg["sampler.export_draws"]:
        write_csv_report(out / "draws.csv", family.columns(data), result.draws.tolist())


def cmd_verify(cfg: dict) -> None:
    """Tail-index and variance-scaling audit against the analytic verdicts."""
    m_grid, reps = cfg["verify.m_grid"], cfg["verify.replications"]
    family, data, prior, dels, r_star, sampler_cfg = _sampling_inputs(cfg, "verify", 100_000)
    if dels.cardinality and sampler_cfg.draws < _MIN_VERIFY_DRAWS:
        raise ConfigError(f"sampler.draws must be at least {_MIN_VERIFY_DRAWS} for the tail "
                          f"index of a nonempty deletion, got {sampler_cfg.draws}")
    tail = tail_verifier.verify_moment_index(family, data, prior, dels, r_star, sampler_cfg)
    out = cfg["out"]
    out.mkdir(parents=True, exist_ok=True)
    if tail.survival:
        write_csv_report(out / "verify_tail.csv", VERIFY_TAIL_CSV_COLUMNS, tail.survival)

    def estimator(m, rng):
        sub = replace(sampler_cfg, seed=int(rng.integers(0, 2**63 - 1)), draws=m)
        res = family.sample(data, prior, sub)
        lw = is_engine.log_weight(family, res.draws, data, dels)
        return is_engine.self_normalized_estimate(lw, res.draws[:, 0])

    scaling = tail_verifier.clt_scaling_audit(estimator, m_grid, reps, seed=cfg["seed"])
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
        p.add_argument("--seed", default=None, help="override config seed")
        p.add_argument("--out", default=None, help="override output directory")
    args = parser.parse_args(argv)
    try:
        cfg = load_run_config(args.config)
        if args.seed is not None:
            cfg["seed"] = _parse_value(KEYS["seed"], args.seed, Path("."))
        if args.out is not None:
            cfg["out"] = Path(args.out)
        _check_out(cfg["out"])
        dispatch = {
            "gate": cmd_gate,
            "scan": cmd_scan,
            "kfold": cmd_kfold_audit,
            "estimate": cmd_estimate,
            "verify": cmd_verify,
        }
        dispatch[args.command](cfg)
    except InfluenceGateError as exc:
        print(f"{exc.prefix}: {exc}", file=sys.stderr)
        return exc.exit_code
    return 0


if __name__ == "__main__":
    sys.exit(main())
