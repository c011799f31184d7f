"""Spans around the public functions of each influence_gate module.

`Tracer` replaces each target function at every module attribute that binds
it (for example both `core_model.load_csv` and `cli.load_csv`), records one
span per call (name, start, end, parent, request) and restores the originals
on exit. Spans stay in memory until the run writes them out. A span's self
time is its duration minus the part of it that its child spans cover.
"""

import collections
import contextlib
import functools
import os
import sys
import time
from dataclasses import asdict, dataclass

PACKAGE = "influence_gate"

# Public functions per module; each reports .calls, .total_s and .self_s.
TARGETS = {
    "mm_gate": ("moment_index_mm", "scan_kappa", "theorem41_verdict"),
    "linear_gate": ("moment_index_linear", "theorem31_verdict", "leverage_minor",
                    "fold_moment_indices", "scan_deletion_subsets"),
    "logit_gate": ("moment_index_logit", "theorem51_verdict", "max_h_l1_sphere"),
    "samplers": ("sample_mm", "sample_logit", "sample_linear_noninformative"),
    "is_engine": ("log_weight", "deleted_log_likelihood", "estimate_measure",
                  "self_normalized_estimate"),
    "tail_verifier": ("verify_moment_index", "clt_scaling_audit"),
    "cli": ("cmd_gate", "cmd_scan", "cmd_kfold_audit", "cmd_estimate", "cmd_verify",
            "write_csv_report", "write_json_report"),
    "core_model": ("load_csv",),
}
# Wrapped only so that a ratio can count its calls (vertex enumerations).
COUNTED = {"logit_gate": ("_candidate_directions",)}
MH_SAMPLERS = ("sample_mm", "sample_logit")


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index of the enclosing span, -1 at the root
    request: str  # the benchmark command the span belongs to


def _count_sets(counters, name, args, kwargs, result):
    counters[f"{name}.sets"] += result.count


def _count_draws(counters, name, args, kwargs, result):
    draws = len(result.draws)
    counters[f"{name}.draws"] += draws
    counters[f"{name}.accepted"] += result.acceptance_rate * draws


def _count_bytes(counters, name, args, kwargs, result):
    counters[f"{name}.bytes"] += os.path.getsize(args[0] if args else kwargs["path"])


HOOKS = {
    "linear_gate.scan_deletion_subsets": _count_sets,
    "samplers.sample_mm": _count_draws,
    "samplers.sample_logit": _count_draws,
    "samplers.sample_linear_noninformative": _count_draws,
    "cli.write_csv_report": _count_bytes,
    "cli.write_json_report": _count_bytes,
}


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []
        self.counters = collections.Counter()
        self.request = ""
        self._stack = []
        self._installed = []

    def _open(self, name):
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(len(self.spans))
        self.spans.append(Span(name, self.clock(), 0.0, parent, self.request))

    def _close(self):
        self.spans[self._stack.pop()].end = self.clock()

    @contextlib.contextmanager
    def span(self, name):
        """One span around a block, for the benchmark's own calls."""
        self._open(name)
        try:
            yield
        finally:
            self._close()

    def wrap(self, name, fn):
        hook = HOOKS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close()
            if hook is not None:
                hook(self.counters, name, args, kwargs, result)
            return result

        return traced

    def install(self):
        """Wrap every target at each module attribute bound to it."""
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == PACKAGE or key.startswith(PACKAGE + "."))]
        for table in (TARGETS, COUNTED):
            for module, functions in table.items():
                home = sys.modules[f"{PACKAGE}.{module}"]
                for fn in functions:
                    original = getattr(home, fn)
                    traced = self.wrap(f"{module}.{fn}", original)
                    for mod in modules:
                        for attr, value in list(vars(mod).items()):
                            if value is original:
                                setattr(mod, attr, traced)
                                self._installed.append((mod, attr, original))
        return self

    def uninstall(self):
        while self._installed:
            mod, attr, original = self._installed.pop()
            setattr(mod, attr, original)

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()

    def dump(self):
        return [asdict(s) for s in self.spans]


def self_times(spans) -> list:
    """Each span's duration minus the union of its children's intervals."""
    children = collections.defaultdict(list)
    for i, s in enumerate(spans):
        if s.parent >= 0:
            children[s.parent].append(s)
    out = []
    for i, s in enumerate(spans):
        covered, reach = 0.0, s.start
        for c in sorted(children[i], key=lambda c: c.start):
            lo, hi = max(c.start, reach), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(s.end - s.start - covered)
    return out


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(spans, counters) -> dict:
    """Per-layer metrics as {name: (value, unit)}; absent layers read 0."""
    agg = collections.defaultdict(lambda: [0, 0.0, 0.0])
    for s, self_s in zip(spans, self_times(spans)):
        a = agg[s.name]
        a[0] += 1
        a[1] += s.end - s.start
        a[2] += self_s
    out = {}
    for module, functions in TARGETS.items():
        for fn in functions:
            name = f"{module}.{fn}"
            calls, total, self_s = agg.get(name, (0, 0.0, 0.0))
            out[f"{name}.calls"] = (calls, "count")
            out[f"{name}.total_s"] = (total, "s")
            out[f"{name}.self_s"] = (self_s, "s")

    def calls(name):
        return agg.get(name, (0,))[0]

    out["mm_gate.scan_kappa.calls_per_set"] = (
        _ratio(calls("mm_gate.scan_kappa"), calls("mm_gate.moment_index_mm")), "count")
    scan = "linear_gate.scan_deletion_subsets"
    out[f"{scan}.sets_per_s"] = (
        _ratio(counters[f"{scan}.sets"], agg.get(scan, (0, 0.0))[1]), "1/s")
    out["logit_gate.enumerations_per_set"] = (
        _ratio(calls("logit_gate._candidate_directions"), calls("logit_gate.moment_index_logit")),
        "count")
    for fn in TARGETS["samplers"]:
        name = f"samplers.{fn}"
        draws = counters[f"{name}.draws"]
        out[f"{name}.draws_per_s"] = (_ratio(draws, agg.get(name, (0, 0.0))[1]), "1/s")
        if fn in MH_SAMPLERS:
            out[f"{name}.acceptance"] = (_ratio(counters[f"{name}.accepted"], draws), "ratio")
    for writer in ("cli.write_csv_report", "cli.write_json_report"):
        out[f"{writer}.bytes"] = (counters[f"{writer}.bytes"], "bytes")
    return out
