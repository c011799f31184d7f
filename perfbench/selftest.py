"""Tests of the benchmark's own code (not part of the tier-1 suite).

    python3 -m pytest -q perfbench/selftest.py

Run from the repository root.
"""

import copy
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from tracing import Span, Tracer, self_times  # noqa: E402


def _reference(workload):
    return json.loads((HERE / "reference" / f"{workload}.json").read_text())


def _command(label):
    return next(c for cmds in workloads.WORKLOADS.values() for c in cmds if c.label == label)


def test_self_time_of_nested_spans():
    spans = [
        Span("root", 0.0, 10.0, -1, "r"),
        Span("a", 1.0, 4.0, 0, "r"),
        Span("a.inner", 2.0, 3.0, 1, "r"),
        Span("b", 5.0, 9.0, 0, "r"),
    ]
    assert self_times(spans) == [3.0, 2.0, 1.0, 4.0]


def test_self_time_counts_overlapping_children_once():
    spans = [Span("p", 0.0, 10.0, -1, ""), Span("c1", 1.0, 5.0, 0, ""),
             Span("c2", 4.0, 12.0, 0, "")]
    assert self_times(spans)[0] == 1.0


def test_tracer_records_parents_and_self_time():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))
    inner = tracer.wrap("m.inner", lambda: None)

    def body():
        inner()
        inner()

    outer = tracer.wrap("m.outer", body)
    with tracer.span("command.x"):
        outer()
    names = [(s.name, s.parent) for s in tracer.spans]
    assert names == [("command.x", -1), ("m.outer", 0), ("m.inner", 1), ("m.inner", 1)]
    # ticks: command 0..7, outer 1..6, inners 2..3 and 4..5
    assert self_times(tracer.spans) == [2.0, 3.0, 1.0, 1.0]


def _binding_sites(original):
    return [(name, attr) for name, mod in list(sys.modules.items())
            if mod is not None and name.startswith(tracing.PACKAGE)
            for attr, value in list(vars(mod).items()) if value is original]


def test_wrappers_installed_at_every_binding_site_and_restored():
    import influence_gate
    from influence_gate import cli, core_model, samplers, tail_verifier

    originals = {}
    for table in (tracing.TARGETS, tracing.COUNTED):
        for module, functions in table.items():
            home = sys.modules[f"{tracing.PACKAGE}.{module}"]
            for fn in functions:
                originals[f"{module}.{fn}"] = getattr(home, fn)
    sites = {name: _binding_sites(fn) for name, fn in originals.items()}
    assert ("influence_gate.cli", "load_csv") in sites["core_model.load_csv"]
    assert ("influence_gate.tail_verifier", "sample_mm") in sites["samplers.sample_mm"]
    load_csv = core_model.load_csv
    with Tracer():
        for name, fn in originals.items():
            assert _binding_sites(fn) == [], f"{name} left unwrapped"
        assert cli.load_csv is core_model.load_csv is influence_gate.load_csv
        assert cli.load_csv is not load_csv
        assert tail_verifier.sample_mm is samplers.sample_mm
    for name, fn in originals.items():
        assert _binding_sites(fn) == sites[name]


def test_mm_gate_check_rejects_reference_moved_by_1e3():
    ref = _reference("screen")["gate_mm"]
    command = _command("gate_mm")
    assert checks.check(command, ref, ref, 0, workloads.REFERENCE_SEED) == []
    moved = copy.deepcopy(ref)
    row = next(r for r in moved["rows"] if r[0] == "11")
    row[5] += 1e-3
    assert checks.check(command, ref, moved, 0, workloads.REFERENCE_SEED)


def test_linear_check_accepts_another_root_finder_rejects_wrong_root():
    ref = _reference("screen")["gate_linear"]
    command = _command("gate_linear")
    i = next(i for i, r in enumerate(ref["rows"]) if r[7] == "residual")
    for shift, ok in ((1e-10, True), (1e-5, False)):
        got = copy.deepcopy(ref)
        got["rows"][i][5] += shift
        got["rows"][i][6] += shift
        assert (checks.check(command, got, ref, 0, workloads.REFERENCE_SEED) == []) is ok


def test_ranking_check_allows_near_tie_swaps_only():
    ref = _reference("enumerate")["scan"]
    command = _command("scan")
    ranking = ref["ranking_by_r_a"]
    tie = next(i for i in range(len(ranking) - 1) if ranking[i][1] == ranking[i + 1][1])
    swapped = copy.deepcopy(ref)
    r = swapped["ranking_by_r_a"]
    r[tie], r[tie + 1] = r[tie + 1], r[tie]
    assert checks.check(command, swapped, ref, 0, workloads.REFERENCE_SEED) == []
    wrong = copy.deepcopy(ref)
    wrong["ranking_by_r_a"][0][0] = ranking[-1][0]
    assert checks.check(command, wrong, ref, 0, workloads.REFERENCE_SEED)
