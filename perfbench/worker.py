"""One pass of a workload in a fresh process, started by run.py.

    python3 perfbench/worker.py --workload W --seed N --run-dir DIR --trace 0|1

Imports influence_gate.cli from src/, issues the workload's commands one at a
time through `cli.main`, checks each command's output and prints one JSON
line: pass and per-command seconds, failures, observations and the process's
peak RSS; with --trace 1 also the per-layer metrics, and the spans go to
DIR/spans.json. Every pass runs in its own process, as every CLI command
does, so no pass inherits another's warm allocator or caches.
"""

import argparse
import gc
import json
import resource
import sys
import time
import traceback
from pathlib import Path

import checks
import tracing
import workloads

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"


def run_command(cli, command, run_dir, reference, seed, tracer):
    """One closed-loop request: returns (seconds, problems)."""
    out = run_dir / command.label
    argv = [command.subcommand, "--config", str(run_dir / f"{command.label}.cfg"),
            "--out", str(out)]
    gc.collect()
    start = time.perf_counter()
    try:
        if tracer is None:
            code = cli.main(argv)
        else:
            tracer.request = command.label
            with tracer.span(f"command.{command.label}"):
                code = cli.main(argv)
    except Exception as exc:  # a command that raises is a failed request
        traceback.print_exc()
        return time.perf_counter() - start, [f"raised {exc!r}"]
    elapsed = time.perf_counter() - start
    if code != 0:
        return elapsed, [f"exit code {code}"]
    try:
        got = checks.read_output(command, out)
        return elapsed, checks.check(command, got, reference, seed, workloads.REFERENCE_SEED)
    except (OSError, KeyError, ValueError, IndexError, TypeError) as exc:
        return elapsed, [f"malformed output: {exc!r}"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--run-dir", type=Path, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    sys.path.insert(0, str(Path.cwd() / "src"))
    from influence_gate import cli

    commands = workloads.WORKLOADS[args.workload]
    reference = json.loads((REFERENCE_DIR / f"{args.workload}.json").read_text())
    tracer = tracing.Tracer() if args.trace else None
    times, failures, observed = {}, {}, {}
    if tracer is not None:
        tracer.install()
    try:
        for command in commands:
            elapsed, problems = run_command(cli, command, args.run_dir,
                                            reference[command.label], args.seed, tracer)
            times[command.label] = elapsed
            if problems:
                failures[command.label] = problems[:5]  # the first few say enough
            elif command.subcommand == "verify":
                out = checks.read_output(command, args.run_dir / command.label)
                observed[f"{command.label}.agreement"] = out["agreement"]
    finally:
        if tracer is not None:
            tracer.uninstall()
    per_metric = dict.fromkeys((c.metric for c in commands), 0.0)
    for command in commands:
        per_metric[command.metric] += times[command.label]
    result = {
        "wall_s": sum(times.values()),
        "times": times,
        "commands": per_metric,
        "failures": failures,
        "observed": observed,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        result["layers"] = tracing.layer_metrics(tracer.spans, tracer.counters)
        result["spans"] = len(tracer.spans)
        (args.run_dir / "spans.json").write_text(json.dumps(tracer.dump()))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
