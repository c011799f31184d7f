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
import difflib
import json
import math
import sys
import tempfile
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import is_engine, linear_gate, tail_verifier
from .core_model import all_subsets, load_csv
from .errors import BudgetError, ConfigError, DataError, InfluenceGateError
from .families import FAMILIES
from .parallel import ordered_map
from .samplers import SamplerConfig

SCHEMA_VERSION = 2
SUBSET_ENUMERATION_BUDGET = 10_000_000

GATE_CSV_COLUMNS = ["deletion", "r", "verdict", "detail", "r_a", "r_b", "r_c", "r_star", "binding"]
SCAN_CSV_COLUMNS = ["subset", "r_a", "r_b", "r_c", "r_star"]
# Report tables become text a block of rows at a time, so no report holds
# its whole table as Python objects: the scan table SCAN_CSV_BLOCK rows a
# block, every other JSON_ROW_BLOCK rows (the gate, JSON_ROW_BLOCK sets).
SCAN_CSV_BLOCK = 4096
JSON_ROW_BLOCK = 1024
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
    it may name an existing file, and a probe directory must be makeable in
    its nearest existing part (`os.access` calls /proc writable for root).
    Checked before data is read; the commands make the directory only when
    they write, so a run that stops on an error leaves none behind."""
    for part in (out, *out.parents):
        if part.exists():
            if not part.is_dir():
                raise ConfigError(f"out {out} is not a directory: {part} is a file")
            try:
                with tempfile.TemporaryDirectory(dir=part):
                    pass
            except OSError as exc:
                raise ConfigError(f"cannot write {out}: {exc.strerror}") from exc
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


def _sampler_config(cfg: dict, default_draws: int, width: int, chains=()) -> SamplerConfig:
    """Sampler settings for a model with `width` parameters per draw.
    `chains` are the draw counts of further chains run with these settings.
    A BudgetError refuses the longest chain, burn_in + draws * thin steps,
    when its steps at 8 bytes per parameter exceed sys.maxsize bytes: numpy
    cannot make an array that large."""
    scale = cfg["sampler.scale"]
    if scale and len(scale) != width:
        raise ConfigError(f"sampler.scale must list {width} values, one per parameter, "
                          f"got {len(scale)}")
    seed, draws = cfg["sampler.seed"], cfg["sampler.draws"]
    draws = default_draws if draws is None else draws
    steps = cfg["sampler.burn_in"] + max((draws, *chains)) * cfg["sampler.thin"]
    if steps * width * 8 > sys.maxsize:
        raise BudgetError(f"a chain of {steps} steps of {width} parameters needs more than "
                          f"{sys.maxsize} bytes, the largest array numpy can make")
    return SamplerConfig(
        seed=cfg["seed"] if seed is None else seed,
        draws=draws,
        burn_in=cfg["sampler.burn_in"],
        thin=cfg["sampler.thin"],
        proposal_scale=scale or None,
    )


# --- report plumbing -----------------------------------------------------------


def _make_out(out: Path) -> None:
    """Make the output directory `out` and its parents; one that cannot be
    made (a read-only or virtual file system, say) is a config error."""
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot write {out}: {exc.strerror}") from exc


def _open_report(path, newline=None):
    """`path` opened for writing text; a report file that cannot be opened
    is a config error, as an output directory that cannot be made is."""
    try:
        return open(path, "w", newline=newline)
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc.strerror}") from exc


def _csv_field(s: str) -> str:
    """`s` as the csv module writes it: quoted, quotes doubled, if it holds
    a comma, a quote or a line break."""
    return '"' + s.replace('"', '""') + '"' if any(c in s for c in ',"\r\n') else s


def _jsonable(v):
    """`v` as a report holds it: a NumPy scalar as a Python one, and inf,
    -inf and nan as those strings."""
    v = v.item() if isinstance(v, (np.floating, np.integer)) else v
    return repr(v) if isinstance(v, float) and not math.isfinite(v) else v


def _column_texts(values, with_json: bool, like=None, like_texts=None):
    """(CSV texts, JSON texts or None) of a column, a NumPy array or a list
    of scalars: what the csv module writes for each value, and json.dumps
    for its `_jsonable`. A float64 array is formatted once if it is bitwise
    constant, and else takes the texts `like_texts` of `like`, a float64
    array as long, in the rows where the two hold the same bits."""
    if getattr(values, "dtype", None) == np.float64:
        bits = values.view(np.int64)
        if bits.size and np.all(bits == bits[0]):
            csv_texts = [float.__repr__(values[0].item())] * bits.size
        elif getattr(like, "dtype", None) != np.float64 or like.size != bits.size or (
                fresh := np.flatnonzero(bits != like.view(np.int64))).size == bits.size:
            csv_texts = list(map(float.__repr__, values.tolist()))
        else:
            csv_texts = like_texts.copy()
            for i in fresh.tolist():
                csv_texts[i] = float.__repr__(values[i].item())
        # Only inf, -inf and nan hold an "n"; `_jsonable` makes them strings.
        json_texts = (csv_texts if not with_json or "n" not in "".join(csv_texts)
                      else [f'"{t}"' if "n" in t else t for t in csv_texts])
        return csv_texts, json_texts if with_json else None
    values = values.tolist() if isinstance(values, np.ndarray) else values
    try:
        joined = "".join(values)  # a TypeError unless every value is a str
    except TypeError:
        joined = None
    if joined is not None:
        csv_texts = (values if not any(c in joined for c in ',"\r\n')
                     else list(map(_csv_field, values)))
        json_texts = map(json.encoder.encode_basestring_ascii, values)
    elif (kinds := set(map(type, values))) in ({int}, {bool}):
        csv_texts = list(map(str, values))
        json_texts = csv_texts if kinds == {int} else map(("false", "true").__getitem__, values)
    else:
        csv_texts = ["" if v is None else _csv_field(v) if isinstance(v, str) else str(v)
                     for v in values]
        json_texts = (json.dumps(_jsonable(v)) for v in values)
    return csv_texts, list(json_texts) if with_json else None


def _table_text(names, columns, with_json=False):
    """(CSV lines, JSON row objects or None) of a block of `count` rows, as
    many as the longest of `columns`, one column per name; a shorter column
    gives each value count // len(column) rows in a row. Each column becomes
    text once, and both are joined from those texts: the lines as the csv
    module writes them, the objects as json.dump(..., indent=1,
    sort_keys=True) lays out a report's `rows`."""
    count = max(map(len, columns))
    texts, like = [], ()
    for column in columns:
        csv_texts, json_texts = _column_texts(column, with_json, *like)
        like = column, csv_texts
        if len(csv_texts) < count:
            csv_texts, json_texts = ([t for t in ts for _ in range(count // len(ts))]
                                     if ts is not None else None for ts in (csv_texts, json_texts))
        texts.append((csv_texts, json_texts))
    fields = [csv_texts for csv_texts, _ in texts]
    if len(fields) == 1:  # the csv module quotes a lone empty field
        fields = [[t or '""' for t in fields[0]]]
    lines = "\r\n".join(map(",".join, zip(*fields))) + "\r\n" if count else ""
    if not with_json:
        return lines, None
    keys = sorted(range(len(names)), key=names.__getitem__)
    template = "{\n   " + ",\n   ".join(json.encoder.encode_basestring_ascii(names[j]).replace(
        "%", "%%") + ": %s" for j in keys) + "\n  }"
    return lines, ",\n  ".join(map(template.__mod__, zip(*(texts[j][1] for j in keys))))


def write_csv_report(path, columns, text) -> None:
    """Write the CSV table headed by `columns` whose data lines are `text`,
    blocks of lines from `_table_text`, each written as it is made."""
    with _open_report(path, newline="") as fh:
        fh.write(_table_text(columns, [[name] for name in columns])[0])
        fh.writelines(text)


def write_json_report(path, command: str, extra: dict | None = None, text=None) -> None:
    """Write a report; given `text`, blocks of row objects from
    `_table_text`, it holds a table under `rows`, each block spliced into
    the rest as it is made. The bytes are those of json.dump(payload, fh,
    indent=1, sort_keys=True) and a newline."""
    payload = {"schema_version": SCHEMA_VERSION, "command": command}
    if text is not None:
        payload["rows"] = []
    if extra:
        payload.update({k: _jsonable(v) if not isinstance(v, dict) else v for k, v in extra.items()})
    tail = json.dumps(payload, indent=1, sort_keys=True)
    with _open_report(path) as fh:
        if text is not None:
            # Strings escape newlines, so this can only be the top-level key.
            head, marker, tail = tail.partition('\n "rows": [')
            fh.write(head + marker)
            blocks = filter(None, text)
            if block := next(blocks, None):
                fh.write("\n  " + block)
                for block in blocks:
                    fh.write(",\n  " + block)
                fh.write("\n ")
        fh.write(tail + "\n")


def _write_report(out: Path, stem: str, command: str, columns, blocks, extra=None) -> None:
    """Make `out` and write the table `blocks`, blocks of columns ordered as
    `columns`, to <stem>.json, one object per row beside `extra`, and to
    <stem>.csv. Each block becomes text once: its objects are written as
    they are made, its CSV lines kept for the CSV, which is written next."""
    _make_out(out)
    lines = []

    def objects():
        for block in blocks:
            csv_text, json_text = _table_text(columns, block, True)
            lines.append(csv_text)
            yield json_text

    write_json_report(out / f"{stem}.json", command, extra=extra, text=objects())
    write_csv_report(out / f"{stem}.csv", columns, text=lines)


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
    with _open_report(path) as fh:
        fh.write("\n".join(parts))


def _subset_labels(subsets, n: int) -> list:
    """The label of each row of `subsets`, sets of cases 0..n-1: its
    1-based cases joined by "+"."""
    if not subsets.shape[1]:
        return [""] * len(subsets)
    names = np.array([str(i + 1) for i in range(n)], dtype=object)
    return list(map("+".join, zip(*names[subsets.T].tolist())))


# --- commands -------------------------------------------------------------------


def _check_cases(key: str, cases, n: int) -> None:
    outside = [case for case in cases if not 1 <= case <= n]
    if outside:
        raise DataError(f"{key}: case {outside[0]} is outside 1..{n}")


def _deletion(cfg: dict, n: int) -> np.ndarray:
    """The deletion set of `deletion.indices`, 1-based cases in 1..n, as the
    sorted row of its distinct 0-based cases: order and repeats are ignored.
    Sorted as a set, not by np.unique, whose first call imports numpy.ma."""
    cases = cfg["deletion.indices"]
    _check_cases("deletion.indices", cases, n)
    return np.array(sorted(set(cases)), dtype=int) - 1


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
        sets = _deletion(cfg, data.n)[None, :]
    else:
        _check_scan_size(size, data.n, 0)
        sets = all_subsets(data.n, size)
    _write_report(cfg["out"], "gate_report", "gate", GATE_CSV_COLUMNS,
                  _gate_blocks(*family.index(data, prior, sets, cfg["r"]), cfg["r"], data.n))


def _gate_blocks(report, verdicts, r_values, n: int):
    """The gate table, one row per set and order r, as blocks of columns
    ordered as GATE_CSV_COLUMNS, the rows of JSON_ROW_BLOCK sets a block.
    The columns of a set's values hold one per set: the table gives each to
    the set's rows, one per r. `cmd_gate` passes the verdicts straight in,
    so they are freed once their texts are read, before the first block."""
    k, r = len(r_values), np.array(r_values, dtype=float)
    tags, details = zip(*((v.tag.value, v.detail) for per_set in verdicts for v in per_set))
    del verdicts
    for start in range(0, report.count, JSON_ROW_BLOCK):
        part = slice(start, start + JSON_ROW_BLOCK)
        r_a, r_b, r_c = report.r_a[part], report.r_b[part], report.r_c[part]
        rows = slice(start * k, (start + len(r_a)) * k)
        yield [_subset_labels(report.subsets[part], n), np.tile(r, len(r_a)), tags[rows],
               details[rows], r_a, r_b, r_c, np.minimum(np.minimum(r_a, r_b), r_c),
               report.binding[part]]


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
    summary = _scan_summary(result, top, flag_cases, data.n)
    out = cfg["out"]
    _make_out(out)
    write_csv_report(out / "scan_report.csv", SCAN_CSV_COLUMNS, text=_scan_text(result, data.n))
    write_json_report(out / "scan_report.json", "scan", extra=summary)


def _scan_summary(result, top: int, flag_cases, n: int) -> dict:
    """The scan's JSON summary: the subset count, the `top` subsets by r_a
    and by r_c (stable order), and how many of each hold each flagged case.
    The two rankings, one int64 per subset each, are freed on return, before
    the CSV is streamed."""
    tops = {name: result.subsets[np.argsort(getattr(result, name), kind="stable")[:top]]
            for name in ("r_a", "r_c")}
    return {
        "subset_count": result.count,
        "ranking_by_r_a": _subset_labels(tops["r_a"], n),
        "ranking_by_r_c": _subset_labels(tops["r_c"], n),
        "flagged_cases": {str(case): {f"top{top}_by_{name}": int(np.sum(subsets == case - 1))
                                      for name, subsets in tops.items()}
                          for case in flag_cases},
    }


def _scan_text(result, n: int):
    """The scan table's data lines, one `_table_text` block per
    SCAN_CSV_BLOCK rows. Each block takes its r_star from its own cut-off
    slices, as the report's r_star property does for the whole table, so no
    r_star array is held beside the cut-offs.

    The blocks are formatted by `ordered_map`, in worker processes when the
    process may use more than one CPU, and come out in row order; at most
    two blocks per worker are in flight at a time.
    """
    def block(start):
        part = slice(start, start + SCAN_CSV_BLOCK)
        r_a, r_b, r_c = result.r_a[part], result.r_b[part], result.r_c[part]
        r_star = np.minimum(np.minimum(r_a, r_b), r_c)
        labels = _subset_labels(result.subsets[part], n)
        return _table_text(SCAN_CSV_COLUMNS, [labels, r_a, r_b, r_c, r_star])[0]

    return ordered_map(block, range(0, result.count, SCAN_CSV_BLOCK))


def cmd_kfold_audit(cfg: dict) -> None:
    """Random-partition audit: per-fold moment indices and CLT-failure counts."""
    if cfg["model"] != "linear":
        raise ConfigError("kfold audit supports the linear model")
    count, folds = cfg["deletion.kfold.partitions"], cfg["deletion.kfold.folds"]
    if count is None:
        raise ConfigError("kfold needs deletion.kfold.partitions")
    if count * folds > SUBSET_ENUMERATION_BUDGET:
        raise BudgetError(f"{count} partitions x {folds} folds = {count * folds} folds exceeds "
                          f"budget {SUBSET_ENUMERATION_BUDGET}")
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
    index = np.arange(len(all_folds))
    columns = [index // folds + 1, index % folds + 1, np.array([len(fold) for fold in all_folds]),
               rstars, rstars < 2.0]
    blocks = ([column[start:start + JSON_ROW_BLOCK] for column in columns]
              for start in range(0, len(all_folds), JSON_ROW_BLOCK))
    summary = {
        "partitions": count,
        "folds": folds,
        "partitions_with_ge1_fold_below_2": count_ge1,
        "partitions_with_ge2_folds_below_2": count_ge2,
    }
    _write_report(cfg["out"], "kfold_report", "kfold", KFOLD_CSV_COLUMNS, blocks, summary)


# Fewest draws that give the Hill estimate its minimum number of exceedances.
_MIN_VERIFY_DRAWS = math.ceil(tail_verifier.MIN_EXCEEDANCES / tail_verifier.TOP_FRACTION)


def _sampling_inputs(cfg: dict, command: str, default_draws: int, chains=()):
    """What estimate and verify share, all checked before any sampling:
    (family, data, prior, deletion set, its analytic r_star, sampler config).
    `chains` are the draw counts of the command's further chains."""
    if cfg["deletion.indices"] is None:
        raise ConfigError(f"{command} needs deletion.indices")
    family, data, prior = _model_inputs(cfg)
    sampler_cfg = _sampler_config(cfg, default_draws, len(family.columns(data)), chains)
    dels = _deletion(cfg, data.n)
    report = family.index(data, prior, dels[None, :], ())[0]
    return family, data, prior, dels, float(report.r_star[0]), sampler_cfg


def cmd_estimate(cfg: dict) -> None:
    """Draw from the posterior and estimate the requested measures with gates.

    Blocked measures carry the blocking requirement; the report repeats the
    standing advice that a mixture of the full and case-deleted posteriors
    restores a CLT when the gate blocks (mixture sampling itself is out of
    scope here).
    """
    family, data, prior, dels, r_star, sampler_cfg = _sampling_inputs(cfg, "estimate", 10_000)
    blocks, acceptance_rate = family.draw_blocks(data, prior, sampler_cfg)
    # Exported blocks are kept for draws.csv; otherwise each is dropped once
    # weighted.
    export = cfg["sampler.export_draws"]
    if export:
        blocks = list(blocks)
    log_weights = is_engine.log_weight(family, blocks, data, dels, sampler_cfg.draws)
    label = _subset_labels(dels[None, :], data.n)[0]
    ests = [is_engine.estimate_measure(log_weights, measure, r_star)
            for measure in cfg["measures"]]
    # A chain that accepted nothing repeats its start point: every estimate
    # from it is degenerate, however good the value looks.
    stuck = ("zero-acceptance",) if acceptance_rate == 0 else ()
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
    _write_report(out, "estimates", "estimate", ESTIMATE_CSV_COLUMNS, [list(zip(*rows))],
                  {"advisory": advisory, "acceptance_rate": acceptance_rate})
    if export:
        names = family.columns(data)
        write_csv_report(out / "draws.csv", names, text=(
            _table_text(names, list(block[start:start + JSON_ROW_BLOCK].T))[0]
            for block in blocks for start in range(0, len(block), JSON_ROW_BLOCK)))


def cmd_verify(cfg: dict) -> None:
    """Tail-index and variance-scaling audit against the analytic verdicts."""
    m_grid, reps = cfg["verify.m_grid"], cfg["verify.replications"]
    family, data, prior, dels, r_star, sampler_cfg = _sampling_inputs(cfg, "verify", 100_000,
                                                                      m_grid)
    if dels.size and sampler_cfg.draws < _MIN_VERIFY_DRAWS:
        raise ConfigError(f"sampler.draws must be at least {_MIN_VERIFY_DRAWS} for the tail "
                          f"index of a nonempty deletion, got {sampler_cfg.draws}")
    # Each block of draws is dropped once weighted, the weights once checked.
    blocks, _ = family.draw_blocks(data, prior, sampler_cfg)
    tail = tail_verifier.verify_moment_index(
        is_engine.log_weight(family, blocks, data, dels, sampler_cfg.draws), r_star)

    def estimator(m, rng):
        sub = replace(sampler_cfg, seed=int(rng.integers(0, 2**63 - 1)), draws=m)
        res = family.sample(data, prior, sub)
        lw = is_engine.log_weight(family, (res.draws,), data, dels, len(res.draws))
        return is_engine.self_normalized_estimate(lw, res.draws[:, 0])

    # Every chain runs before anything is written, so a sampler error in a
    # replication leaves no partial output directory.
    scaling = tail_verifier.clt_scaling_audit(estimator, m_grid, reps, seed=cfg["seed"])
    out = cfg["out"]
    _make_out(out)
    survival = list(zip(*tail.survival))
    if survival:
        write_csv_report(out / "verify_tail.csv", VERIFY_TAIL_CSV_COLUMNS,
                         [_table_text(VERIFY_TAIL_CSV_COLUMNS, survival)[0]])
    write_csv_report(out / "verify_scaling.csv", VERIFY_SCALING_CSV_COLUMNS, [_table_text(
        VERIFY_SCALING_CSV_COLUMNS, [m_grid, [reps], scaling.variance_at_m])[0]])
    summary = {
        "hill_estimate": tail.hill_estimate,
        "regression_index": tail.regression_index,
        "analytic_r_star": r_star,
        "agreement": tail.agreement,
        "degenerate": tail.degenerate,
        "loglog_slope": scaling.loglog_slope,
    }
    write_json_report(out / "verify_report.json", "verify", text=[
        _table_text(list(summary), [[value] for value in summary.values()], True)[1]])
    if not tail.degenerate:
        if survival:
            thresholds, exceedances, _ = survival
            svg_line_plot(out / "verify_survival.svg", thresholds,
                          [e / sampler_cfg.draws for e in exceedances],
                          "weight survival function", "threshold", "P(W > t)")
        if scaling.loglog_slope is not None:
            svg_line_plot(out / "verify_scaling.svg", m_grid, scaling.variance_at_m,
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
    except MemoryError as exc:
        print(f"{BudgetError.prefix}: out of memory: {exc}", file=sys.stderr)
        return BudgetError.exit_code
    return 0


if __name__ == "__main__":
    sys.exit(main())
