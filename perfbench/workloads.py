"""The CLI commands each workload issues, and the configs they run with.

Every command goes through the public entry point `influence_gate.cli.main`
on the bundled data. Configs are generated per run: the benchmark seed goes
into `seed` and `sampler.seed`, and data paths are absolute.
"""

from dataclasses import dataclass
from pathlib import Path

# Seed at which the reference outputs were recorded; at this seed the seeded
# outputs (k-fold partitions, estimates, verify statistics) are compared
# value by value, at any other seed only structurally.
REFERENCE_SEED = 1

PUROMYCIN = "puromycin.csv"
FEIGL_ZELEN = "feigl_zelen.csv"


@dataclass(frozen=True)
class Command:
    label: str
    subcommand: str
    metric: str  # the per-command time (e.g. gate_mm_s) it counts towards
    config: tuple  # (key, value) pairs; `data` names a file under data/

    @property
    def model(self) -> str:
        return dict(self.config)["model"]

    def config_text(self, root: Path, seed: int) -> str:
        lines = []
        for key, value in self.config:
            if key == "data":
                value = str((root / "data" / value).resolve())
            lines.append(f"{key} = {value}")
        lines += [f"seed = {seed}", f"sampler.seed = {seed}"]
        return "\n".join(lines) + "\n"


_MM = (("model", "mm"), ("data", PUROMYCIN))
_FZ_LINEAR = (
    ("model", "linear"), ("data", FEIGL_ZELEN), ("data.response", "time_weeks"),
    ("data.covariates", "wbc, ag"), ("prior.kind", "noninformative"),
)
_FZ_LOGIT = (
    ("model", "logit"), ("data", FEIGL_ZELEN), ("data.outcome", "surv50"),
    ("data.covariates", "wbc, ag"), ("prior.epsilon", "1"),
)

# Why each workload exists:
# - screen: the per-set scalar gate paths (mm_gate, logit_gate, scalar
#   linear_gate) do almost all the work; samplers never run, reports are small.
# - enumerate: the batched linear_gate path (scan_deletion_subsets) plus
#   ~50 MB of report writing; the MM and logit gates and samplers never run.
# - sample: the RW-Metropolis and exact samplers, is_engine and tail_verifier
#   dominate; gates run once per command, no batched scan, small reports.
WORKLOADS = {
    "screen": (
        Command("gate_mm", "gate", "gate_mm_s",
                _MM + (("deletion.scan_size", "1"), ("r", "2"))),
        Command("gate_linear", "gate", "gate_linear_s",
                _FZ_LINEAR + (("deletion.scan_size", "3"),)),
        Command("gate_logit", "gate", "gate_logit_s",
                _FZ_LOGIT + (("deletion.scan_size", "2"),)),
        Command("kfold", "kfold", "kfold_s",
                _FZ_LINEAR + (("deletion.kfold.partitions", "500"),
                              ("deletion.kfold.folds", "5"))),
    ),
    "enumerate": (
        Command("scan", "scan", "scan_s",
                _FZ_LINEAR + (("deletion.scan_size", "5"), ("scan.flag_cases", "15"))),
    ),
    "sample": (
        Command("estimate_mm", "estimate", "estimate_s",
                _MM + (("deletion.indices", "11"), ("sampler.draws", "100000"))),
        Command("estimate_logit", "estimate", "estimate_s",
                _FZ_LOGIT + (("deletion.indices", "15"), ("sampler.draws", "100000"))),
        Command("estimate_linear", "estimate", "estimate_s",
                _FZ_LINEAR + (("deletion.indices", "15"), ("sampler.draws", "1000000"))),
        Command("verify_mm", "verify", "verify_s",
                _MM + (("deletion.indices", "11"), ("sampler.draws", "100000"),
                       ("verify.m_grid", "1000,4000"), ("verify.replications", "10"))),
        Command("verify_linear", "verify", "verify_s",
                _FZ_LINEAR + (("deletion.indices", "15"), ("sampler.draws", "200000"))),
    ),
}

COMMAND_METRICS = tuple(dict.fromkeys(c.metric for cmds in WORKLOADS.values() for c in cmds))
