"""Benchmark of the influence_gate CLI on the bundled data.

    python3 perfbench/run.py --workload screen|enumerate|sample --seed N \
        --seconds S --trace 0|1

Run from the repository root. One client issues the workload's CLI commands
one at a time (closed loop) through `influence_gate.cli.main`, with
INFLUENCE_GATE_THREADS unset. Each pass of the workload runs in a fresh
worker process (worker.py), and every command's output is checked against
the reference outputs in perfbench/reference/.

--trace 0 repeats the workload (at least MIN_PASSES passes, more while the
next is expected to end within --seconds) and reports the end-to-end
metrics: setup_s (median over fresh processes, SETUP_PROBES_PER_PASS before
each pass, of the time from process start until influence_gate.cli is
imported), wall_s (median pass time, the sum of its command times) and
peak_rss_mb (median of the worker processes' high-water marks).

--trace 1 runs one untraced and one traced pass. It reports the per-layer
metrics from the traced pass's spans, the per-command times of the untraced
pass, the tracing overhead (traced minus untraced pass time), the span count
and error_rate, and keeps the spans in .bench_out/.

The last line of standard output is the result as one JSON object; the line
before it is a report with provenance, per-command times, error_rate and
any check failures.
"""

import argparse
import ctypes
import glob
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

# Set-up is probed before every pass, so its samples span the whole run.
SETUP_PROBES_PER_PASS = 3
MIN_PASSES = 2
OUT_DIR = ".bench_out"
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def missing_inputs(root: Path) -> list:
    needed = [root / "src" / "influence_gate" / "cli.py",
              root / "data" / workloads.PUROMYCIN, root / "data" / workloads.FEIGL_ZELEN]
    return [str(p.relative_to(root)) for p in needed if not p.is_file()]


def _openblas_threads():
    import numpy

    libs = Path(numpy.__file__).parent.parent / "numpy.libs"
    for path in glob.glob(str(libs / "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                getter = getattr(lib, symbol)
                getter.restype = ctypes.c_int
                return getter()
    return None


def provenance(root: Path, seed: int, ig_threads, load_at_start) -> dict:
    import numpy
    import scipy

    commit = None
    if (root / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                              capture_output=True, text=True, timeout=30)
        commit = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((root / "src" / "influence_gate").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "commit": commit,
        "source_sha256": digest.hexdigest(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _openblas_threads(),
        "blas_env": {k: os.environ[k] for k in BLAS_ENV},
        "INFLUENCE_GATE_THREADS": ig_threads if ig_threads is not None else "unset",
        "seed": seed,
        "loadavg_at_start": load_at_start,
    }


def measure_setup(root: Path, count: int) -> list:
    """Seconds from process start until influence_gate.cli is imported, in
    fresh interpreters."""
    probe = ("import sys, time; sys.path.insert(0, 'src'); "
             "import influence_gate.cli; print(repr(time.time()))")
    samples = []
    for _ in range(count):
        start = time.time()
        proc = subprocess.run([sys.executable, "-c", probe], cwd=root, capture_output=True,
                              text=True, timeout=120, check=True)
        samples.append(float(proc.stdout.strip().splitlines()[-1]) - start)
    return samples


def run_pass(root: Path, workload: str, seed: int, run_dir: Path, trace: int) -> dict:
    """One pass of the workload in a fresh worker process."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).with_name("worker.py")), "--workload", workload,
         "--seed", str(seed), "--run-dir", str(run_dir), "--trace", str(trace)],
        cwd=root, stdout=subprocess.PIPE, text=True, timeout=170, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    missing = missing_inputs(root)
    if missing:
        print(f"error: run from the repository root; missing {', '.join(missing)}",
              file=sys.stderr)
        return 2
    load_at_start = os.getloadavg()
    ig_threads = os.environ.pop("INFLUENCE_GATE_THREADS", None)
    # Single-threaded BLAS, inherited by every child: with a second BLAS
    # thread, large products wait on a sibling core that is slow to wake
    # after idle spells; on a 2-vCPU VM that made the first pass of a run
    # ~20% slower than the next.
    os.environ.update({k: "1" for k in BLAS_ENV})

    commands = workloads.WORKLOADS[args.workload]
    run_dir = root / OUT_DIR / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    run_dir.mkdir(parents=True, exist_ok=True)
    spans_path = root / OUT_DIR / f"spans-{args.workload}-seed{args.seed}.json"
    try:
        for command in commands:
            (run_dir / f"{command.label}.cfg").write_text(command.config_text(root, args.seed))
        passes, setup = [], []
        start = time.perf_counter()
        step = 0.0  # duration of the latest pass, its set-up probes included

        def more():
            if args.trace:
                return len(passes) < 2  # untraced, then traced
            return len(passes) < MIN_PASSES or (
                time.perf_counter() - start + step <= args.seconds)

        while more():
            begun = time.perf_counter()
            setup += measure_setup(root, SETUP_PROBES_PER_PASS)
            passes.append(run_pass(root, args.workload, args.seed, run_dir,
                                   int(args.trace and len(passes) == 1)))
            step = time.perf_counter() - begun
        if args.trace:
            (run_dir / "spans.json").replace(spans_path)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    attempted = len(commands) * len(passes)
    failed = sum(len(p["failures"]) for p in passes)
    error_rate = failed / attempted
    untraced = passes[:1] if args.trace else passes
    report = {
        "workload": args.workload,
        "trace": args.trace,
        "provenance": provenance(root, args.seed, ig_threads, load_at_start),
        "passes": len(passes),
        "setup_samples_s": setup,
        "pass_wall_s": [p["wall_s"] for p in passes],
        "pass_peak_rss_mb": [p["peak_rss_mb"] for p in passes],
        "per_command_s": {m: statistics.median(p["commands"][m] for p in untraced)
                          for m in passes[0]["commands"]},
        "error_rate": error_rate,
        "failures": [p["failures"] for p in passes if p["failures"]],
        "observed": passes[-1]["observed"],
    }
    if args.trace:
        untraced_pass, traced_pass = passes
        overhead = traced_pass["wall_s"] - untraced_pass["wall_s"]
        metrics = {k: tuple(v) for k, v in traced_pass["layers"].items()}
        metrics["trace.overhead_s"] = (overhead, "s")
        metrics["trace.spans"] = (traced_pass["spans"], "count")
        for name in workloads.COMMAND_METRICS:
            metrics[name] = (untraced_pass["commands"].get(name, 0.0), "s")
        metrics["error_rate"] = (error_rate, "ratio")
        report["spans_file"] = str(spans_path.relative_to(root))
    else:
        metrics = {
            "setup_s": (statistics.median(setup), "s"),
            "wall_s": (statistics.median(p["wall_s"] for p in passes), "s"),
            "peak_rss_mb": (statistics.median(p["peak_rss_mb"] for p in passes), "MB"),
        }
    print("report " + json.dumps(report, sort_keys=True))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
