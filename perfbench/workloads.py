"""Workload definitions shared by run.py, batch.py and probe.py.

Each workload is a config text in the repository's config format plus the
overrides the benchmark applies (master seed, replicate count, fixed
network). Every workload runs in one process. The config texts are kept here rather than
read from ``configs/`` so that editing a shipped config cannot silently
change what the benchmark measures; they mirror ``configs/table2.cfg`` and
``configs/engage.cfg``.

This module imports nothing heavy, so run.py can use it without
loading numpy, scipy or rdsim.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"

DEFAULT_SEED = 20250811

TABLE2_CONFIG = """\
[network]
n = 1000
p = 0.1, 0.5, 0.8
mean_degree = 99.9
diff_activity = 0.5, 1, 4
homophily_r = 1, 5
mode = bernoulli

[rds]
seeds = 5
coupons = 2
sample_size = 200, 400, 800
seed_selection = uniform
reseed = true

[experiment]
replicates = 500
seed = 20250811
"""

ENGAGE_CONFIG = """\
[engage]
n = 40400
mean_degree = 16.63
seeds = 27
coupons = 6
sample_size = 1179
replicates = 1000
seed = 20250811

[covariate CAS]
prevalence = 0.579
diff_activity = 1.18
homophily_h = 0.17

[covariate CIR]
prevalence = 0.439
diff_activity = 0.95
homophily_h = 0.09

[covariate HIV+]
prevalence = 0.127
diff_activity = 1.32
homophily_h = 0.38

[correlations]
CAS:CIR = 0.104
CAS:HIV+ = 0.023
CIR:HIV+ = 0.046
"""

# Cells of the table2 grid whose targets no network can realize. The
# harness writes named skip rows for exactly these; the count is a
# property of the grid, checked against an independent solve.
TABLE2_CELLS = 54
TABLE2_INFEASIBLE_CELLS = 18


@dataclass(frozen=True)
class Workload:
    """One benchmark input shape.

    Attributes:
        name: Workload name as passed to ``--workload``.
        kind: ``experiment`` (grid sweep) or ``engage`` (cohort mimic).
        fixed_network: Sweep only: one network per cell.
        rate: Replicates per cell (sweep) or per run (engage) per second
            of ``--seconds``. It sizes the batch so that one run lasts
            about ``--seconds`` on a 2-core Xeon at the seed commit; the
            count is a pure function of ``--seconds`` so that the same
            arguments always give the same inputs and output bytes.
        leader: The span expected to have the largest self time; a
            premise reported by the traced run, not enforced. Why each
            workload exists is recorded in ``BENCHMARK.json`` and README.md.
    """

    name: str
    kind: str
    fixed_network: bool
    rate: float
    leader: str

    def replicates(self, seconds: float) -> int:
        return max(1, math.ceil(self.rate * seconds))

    def config_text(self) -> str:
        return TABLE2_CONFIG if self.kind == "experiment" else ENGAGE_CONFIG


WORKLOADS = {
    w.name: w
    for w in (
        Workload("sweep-dense", "experiment", False, 0.8, "graph.Graph"),
        Workload("sweep-fixednet", "experiment", True, 3.8, "sampler.run_rds"),
        Workload("engage-full", "engage", False, 2.0, "graph.Graph"),
    )
}


def build_job(workload: Workload, seed: int, seconds: float):
    """Parse the workload's config text into an ExperimentPlan or EngageScenario.

    The overrides (master seed, replicate count, fixed network) are applied
    to the parsed config before the plan is built, as the CLI applies
    ``--seed``. Needs rdsim to be importable (see :func:`import_rdsim`).
    """
    from rdsim.config import engage_scenario_from_config, experiment_plan_from_config, parse_config

    source = f"<perfbench {workload.name}>"
    cfg = parse_config(workload.config_text(), source)
    section = "experiment" if workload.kind == "experiment" else "engage"
    cfg[section]["seed"] = str(seed)
    cfg[section]["replicates"] = str(workload.replicates(seconds))
    if workload.fixed_network:
        cfg["experiment"]["fixed_network"] = "true"
    if workload.kind == "experiment":
        return experiment_plan_from_config(cfg, source)
    return engage_scenario_from_config(cfg, source)


def import_rdsim():
    """Import rdsim from this checkout's ``src``; exit with an error if absent.

    A copy of rdsim installed elsewhere must not stand in for the sources
    under test, so the imported package must be the one in ``src``.
    """
    init = SRC / "rdsim" / "__init__.py"
    if not init.is_file():
        sys.exit(f"perfbench: rdsim sources not found at {init}")
    sys.path.insert(0, str(SRC))
    import rdsim

    if Path(rdsim.__file__).resolve() != init.resolve():
        sys.exit(f"perfbench: imported rdsim from {rdsim.__file__}, expected {init}")
    return rdsim
