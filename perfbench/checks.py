"""Output checks against reference outputs recorded from the seed commit.

`read_output` turns a command's report files into plain values; `check`
compares them with the reference and returns a list of problems (empty when
the output is correct). Gate and scan outputs do not depend on the seed and
are always compared with the reference. Seeded outputs (k-fold partitions,
estimates, verify statistics) are compared value by value at the reference
seed and only structurally at any other seed.
"""

import csv
import json
import math

# Linear and logit cut-offs: loose enough for another correct root-finder
# (the seed's bisection stops at width 1e-10), tight enough to reject a
# wrong root.
R_TOL = 1e-7
# MM cut-offs come from a bisection on r with tolerance 5e-4.
MM_TOL = 5e-4
# Seeded estimates must not change; this only absorbs summation order.
SEEDED_REL_TOL = 1e-9

# Puromycin singleton residual cut-offs r_c for cases 1..11 (ROADMAP).
MM_RC_ROADMAP = (1.5937, 2.7912, 4.4963, 5.1689, 2.8678, 5.1914,
                 6.3796, 5.3198, 3.7706, 2.8093, 1.3233)

GATE_FIELDS = ("deletion", "r", "verdict", "r_a", "r_b", "r_c", "r_star", "binding")
KFOLD_SUMMARY = ("partitions", "folds", "partitions_with_ge1_fold_below_2",
                 "partitions_with_ge2_folds_below_2")
VERIFY_FIELDS = ("hill_estimate", "regression_index", "loglog_slope",
                 "analytic_r_star", "agreement", "degenerate")
MH_MODELS = ("mm", "logit")


def _csv_rows(path):
    with open(path, newline="") as fh:
        yield from csv.DictReader(fh)


def _json(path):
    with open(path) as fh:
        return json.load(fh)


def _float(text):
    return None if text == "" else float(text)


# --- reading reports -----------------------------------------------------------


def _read_gate(out):
    rows = []
    for row in _csv_rows(out / "gate_report.csv"):
        rows.append([row[f] if f in ("deletion", "verdict", "binding") else float(row[f])
                     for f in GATE_FIELDS])
    return {"rows": rows}


def _read_kfold(out):
    summary = _json(out / "kfold_report.json")
    rows = [[int(row["partition"]), int(row["fold"]), int(row["size"]),
             float(row["r_star"]), row["below_2"] == "True"]
            for row in _csv_rows(out / "kfold_report.csv")]
    return {"summary": {k: summary[k] for k in KFOLD_SUMMARY}, "rows": rows}


def _read_scan(out):
    summary = _json(out / "scan_report.json")
    wanted = set(summary["ranking_by_r_a"]) | set(summary["ranking_by_r_c"])
    values = {}
    count = 0
    best = ("", math.inf)
    for row in _csv_rows(out / "scan_report.csv"):
        count += 1
        r_star = float(row["r_star"])
        if r_star < best[1]:
            best = (row["subset"], r_star)
        if row["subset"] in wanted:
            values[row["subset"]] = (float(row["r_a"]), float(row["r_c"]))
    return {
        "subset_count": summary["subset_count"],
        "csv_rows": count,
        "ranking_by_r_a": [[s, values[s][0]] for s in summary["ranking_by_r_a"]],
        "ranking_by_r_c": [[s, values[s][1]] for s in summary["ranking_by_r_c"]],
        "flagged_cases": summary["flagged_cases"],
        "min_r_star": list(best),
    }


def _read_estimate(out):
    rows = [[row["measure"], float(row["value"]), row["gate"],
             float(row["required_moments"]), float(row["available_r_star"]),
             _float(row["standard_error"]), row["flags"]]
            for row in _csv_rows(out / "estimates.csv")]
    return {"rows": rows,
            "acceptance_rate": _json(out / "estimates.json")["acceptance_rate"]}


def _read_verify(out):
    summary = _json(out / "verify_report.json")["rows"][0]
    return {k: summary[k] for k in VERIFY_FIELDS}


READERS = {"gate": _read_gate, "kfold": _read_kfold, "scan": _read_scan,
           "estimate": _read_estimate, "verify": _read_verify}


def read_output(command, out_dir) -> dict:
    return READERS[command.subcommand](out_dir)


# --- comparing -----------------------------------------------------------------


def _close(a, b, tol) -> bool:
    """Absolute tolerance; infinities must match exactly."""
    if a is None or b is None:
        return a is b
    if math.isinf(a) or math.isinf(b):
        return a == b
    return abs(a - b) <= tol


def _rel_close(a, b) -> bool:
    if a is None or b is None or math.isinf(b):
        return a == b
    return abs(a - b) <= SEEDED_REL_TOL * max(abs(b), 1e-300)


def _diff(what, got, ref) -> str:
    return f"{what} {got!r}, reference {ref!r}"


def _same_binding(got, ref) -> bool:
    """Logit bindings name the argmax vertex as text; compare it numerically."""
    prefix = "criterion vertex "
    if got.startswith(prefix) and ref.startswith(prefix):
        a, b = json.loads(got[len(prefix):]), json.loads(ref[len(prefix):])
        return len(a) == len(b) and all(_close(x, y, R_TOL) for x, y in zip(a, b))
    return got == ref


def _check_gate(got, ref, model):
    tol = MM_TOL if model == "mm" else R_TOL
    problems = []
    if len(got["rows"]) != len(ref["rows"]):
        return [f"{len(got['rows'])} gate rows, reference has {len(ref['rows'])}"]
    for g, r in zip(got["rows"], ref["rows"]):
        label = r[0]
        if g[0] != label or g[1] != r[1]:
            problems.append(f"row {label}: got deletion {g[0]} at r={g[1]}")
            continue
        if g[2] != r[2]:
            problems.append(_diff(f"row {label} verdict", g[2], r[2]))
        for i, name in ((3, "r_a"), (4, "r_b"), (5, "r_c"), (6, "r_star")):
            if not _close(g[i], r[i], tol):
                problems.append(_diff(f"row {label} {name}", g[i], r[i]))
        if not _same_binding(g[7], r[7]):
            problems.append(_diff(f"row {label} binding", g[7], r[7]))
        if model == "mm" and label.isdigit() and len(MM_RC_ROADMAP) >= int(label):
            target = MM_RC_ROADMAP[int(label) - 1]
            if not _close(g[5], target, MM_TOL):
                problems.append(f"case {label}: r_c {g[5]!r} not within {MM_TOL} of {target}")
    return problems


def _check_ranking(name, got, ref):
    """Values must match rank by rank; labels may differ only among
    neighbours closer together than the r tolerance."""
    if len(got) != len(ref):
        return [f"{name}: {len(got)} entries, reference has {len(ref)}"]
    ref_values = dict(ref)
    cutoff = ref[-1][1] if ref else math.inf
    problems = []
    for rank, ((g_label, g_val), (r_label, r_val)) in enumerate(zip(got, ref), start=1):
        if not _close(g_val, r_val, R_TOL):
            problems.append(_diff(f"{name} rank {rank}", [g_label, g_val], [r_label, r_val]))
        elif g_label != r_label and not _close(g_val, ref_values.get(g_label, cutoff), R_TOL):
            problems.append(f"{name} rank {rank}: {g_label} is not a near-tie of {r_label}")
    return problems


def _check_scan(got, ref):
    problems = []
    for key in ("subset_count", "csv_rows", "flagged_cases"):
        if got[key] != ref[key]:
            problems.append(_diff(key, got[key], ref[key]))
    for key in ("ranking_by_r_a", "ranking_by_r_c"):
        problems += _check_ranking(key, got[key], ref[key])
    if not _close(got["min_r_star"][1], ref["min_r_star"][1], R_TOL):
        problems.append(_diff("min r_star", got["min_r_star"], ref["min_r_star"]))
    return problems


def _check_kfold(got, ref, seeded):
    rows, ref_rows = got["rows"], ref["rows"]
    summary = got["summary"]
    if seeded:
        problems = [_diff(k, summary[k], ref["summary"][k])
                    for k in KFOLD_SUMMARY if summary[k] != ref["summary"][k]]
        if len(rows) != len(ref_rows):
            return problems + [f"{len(rows)} fold rows, reference has {len(ref_rows)}"]
        for g, r in zip(rows, ref_rows):
            if g[:3] != r[:3] or g[4] != r[4] or not _close(g[3], r[3], R_TOL):
                problems.append(_diff("fold row", g, r))
        return problems
    problems = []
    n = sum(r[2] for r in ref_rows if r[0] == 1)
    if len(rows) != summary["partitions"] * summary["folds"]:
        problems.append(f"{len(rows)} fold rows for {summary['partitions']}x{summary['folds']}")
    sizes, below = {}, {}
    for p, _, size, r_star, below_2 in rows:
        if not (math.isfinite(r_star) and r_star > 0):
            problems.append(f"partition {p}: r_star {r_star!r}")
        if below_2 != (r_star < 2.0):
            problems.append(f"partition {p}: below_2 {below_2} at r_star {r_star!r}")
        sizes[p] = sizes.get(p, 0) + size
        below[p] = below.get(p, 0) + (r_star < 2.0)
    if any(total != n for total in sizes.values()):
        problems.append(f"fold sizes do not sum to n={n}")
    ge1 = sum(b >= 1 for b in below.values())
    ge2 = sum(b >= 2 for b in below.values())
    if (ge1, ge2) != (summary["partitions_with_ge1_fold_below_2"],
                      summary["partitions_with_ge2_folds_below_2"]):
        problems.append(f"summary counts disagree with rows ({ge1}, {ge2})")
    return problems


def _check_estimate(got, ref, model, seeded):
    tol = MM_TOL if model == "mm" else R_TOL
    measures = [g[0] for g in got["rows"]]
    if measures != [r[0] for r in ref["rows"]]:
        return [_diff("measures", measures, [r[0] for r in ref["rows"]])]
    problems = []
    for (measure, value, gate, required, r_star, se, flags), r in zip(got["rows"], ref["rows"]):
        if gate != r[2] or required != r[3] or not _close(r_star, r[4], tol):
            problems.append(_diff(f"{measure} gate", [gate, required, r_star], r[2:5]))
        if gate != ("passed" if r_star > required else "blocked"):
            problems.append(f"{measure}: gate {gate} at r_star {r_star} needing {required}")
        if seeded:
            if not (_rel_close(value, r[1]) and _rel_close(se, r[5]) and flags == r[6]):
                problems.append(_diff(f"{measure} value", [value, se, flags], [r[1], r[5], r[6]]))
            continue
        if not math.isfinite(value):
            problems.append(f"{measure}: value {value!r}")
        if measure == "hellinger" and not 0.0 <= value <= 2.0:
            problems.append(f"hellinger {value!r} outside [0, 2]")
        if (se is not None) != (gate == "passed") or (se is not None and not math.isfinite(se)):
            problems.append(f"{measure}: standard error {se!r} with gate {gate}")
    rate = got["acceptance_rate"]
    if seeded and not _rel_close(rate, ref["acceptance_rate"]):
        problems.append(_diff("acceptance", rate, ref["acceptance_rate"]))
    if model in MH_MODELS and not 0.0 < rate < 1.0:
        problems.append(f"acceptance {rate!r} outside (0, 1)")
    if model not in MH_MODELS and rate != 1.0:
        problems.append(f"exact sampler acceptance {rate!r}")
    return problems


def _check_verify(got, ref, model, seeded):
    tol = MM_TOL if model == "mm" else R_TOL
    problems = []
    if not _close(got["analytic_r_star"], ref["analytic_r_star"], tol):
        problems.append(_diff("analytic r_star", got["analytic_r_star"], ref["analytic_r_star"]))
    if got["degenerate"] != ref["degenerate"]:
        problems.append(_diff("degenerate", got["degenerate"], ref["degenerate"]))
    stats = ("hill_estimate", "regression_index", "loglog_slope")
    if seeded:
        for key in stats:
            if not _rel_close(got[key], ref[key]):
                problems.append(_diff(key, got[key], ref[key]))
        if got["agreement"] != ref["agreement"]:
            problems.append(_diff("agreement", got["agreement"], ref["agreement"]))
        return problems
    for key in stats:
        if not isinstance(got[key], float) or not math.isfinite(got[key]):
            problems.append(f"{key} {got[key]!r} is not finite")
    return problems


def check(command, got: dict, ref: dict, seed: int, reference_seed: int) -> list:
    """Problems with one command's output; empty when it is correct."""
    seeded = seed == reference_seed
    kind, model = command.subcommand, command.model
    if kind == "gate":
        return _check_gate(got, ref, model)
    if kind == "scan":
        return _check_scan(got, ref)
    if kind == "kfold":
        return _check_kfold(got, ref, seeded)
    if kind == "estimate":
        return _check_estimate(got, ref, model, seeded)
    return _check_verify(got, ref, model, seeded)
