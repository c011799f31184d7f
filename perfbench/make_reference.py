"""Record the reference outputs the benchmark checks against.

    python3 perfbench/make_reference.py

Run from the repository root at the commit whose outputs are the reference.
Each workload's commands run once at workloads.REFERENCE_SEED and their
outputs, as read by checks.read_output, go to perfbench/reference/.
"""

import json
import shutil
import sys
from pathlib import Path

import checks
import workloads
from run import OUT_DIR
from worker import REFERENCE_DIR


def main() -> int:
    root = Path.cwd()
    sys.path.insert(0, str(root / "src"))
    from influence_gate import cli

    work = root / OUT_DIR / "reference"
    REFERENCE_DIR.mkdir(exist_ok=True)
    for name, commands in workloads.WORKLOADS.items():
        outputs = {}
        for command in commands:
            config = work / f"{command.label}.cfg"
            out = work / command.label
            work.mkdir(parents=True, exist_ok=True)
            config.write_text(command.config_text(root, workloads.REFERENCE_SEED))
            if cli.main([command.subcommand, "--config", str(config), "--out", str(out)]) != 0:
                print(f"{command.label} failed", file=sys.stderr)
                return 1
            outputs[command.label] = checks.read_output(command, out)
        text = json.dumps(outputs, separators=(",", ":"))
        (REFERENCE_DIR / f"{name}.json").write_text(text + "\n")
    shutil.rmtree(work)
    return 0


if __name__ == "__main__":
    sys.exit(main())
