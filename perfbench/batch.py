"""One measured batch of a workload, in a fresh interpreter.

Builds the plan or scenario from the workload's config text exactly as
``rdsim experiment`` / ``rdsim engage-mimic`` do, runs it once through
``run_experiment`` / ``run_engage_mimic`` with ``out_dir`` set, times that
call, checks the CSV outputs and hashes them. With ``--trace 1`` the call
runs under the span tracer and the per-layer reduction is returned too. An
untraced 1-process batch also samples the host-speed reference
(``reference.py``); its wall time excludes the samples.

Prints one JSON object on its last line; ``run.py`` starts this script and
reads it. Usage:

    python3 perfbench/batch.py --workload NAME --seed N --seconds S \\
        --threads K --trace 0|1 --out DIR
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import time
from contextlib import nullcontext
from pathlib import Path

from workloads import WORKLOADS, build_job, import_rdsim


def _sha256(*paths: Path) -> str:
    digest = hashlib.sha256()
    for path in paths:
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _environment() -> dict:
    import numpy
    import scipy

    env = {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": platform.processor() or platform.machine(),
    }
    # Kernel-provided hardware description; absent on some platforms.
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                env["cpu"] = line.split(":", 1)[1].strip()
                break
        for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            if kind != "Instruction":
                env[f"L{level}"] = (index / "size").read_text().strip()
    except OSError:
        pass
    return env


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--threads", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    workload = WORKLOADS[args.workload]

    import_rdsim()
    from rdsim import harness

    from checks import check_engage, check_experiment
    from reference import Reference
    from tracer import Tracer, layer_self_times, name_self_times, per_layer_metrics, span_counts

    job = build_job(workload, args.seed, args.seconds)
    run = harness.run_experiment if workload.kind == "experiment" else harness.run_engage_mimic

    tracer = Tracer() if args.trace else None
    if tracer is not None:
        run = tracer.root(run)
    # Pool workers would compete with the samples for the cores.
    reference = Reference() if tracer is None and args.threads == 1 else None
    args.out.mkdir(parents=True, exist_ok=True)
    with tracer.installed() if tracer is not None else nullcontext(), reference or nullcontext():
        start = time.perf_counter()
        rows, _ = run(job, threads=args.threads, out_dir=str(args.out))
        wall = time.perf_counter() - start
    if reference is not None:
        wall -= reference.spent_s

    if workload.kind == "experiment":
        report = check_experiment(args.out, job)
        cells = len(job.cells())
    else:
        report = check_engage(args.out, job)
        cells = 1

    outputs = [args.out / "replicates.csv", args.out / "summary.csv"]
    result = {
        "workload": workload.name,
        "seed": args.seed,
        "threads": args.threads,
        "wall_s": wall,
        "ok": sum(1 for row in rows if row["status"] == "ok"),
        "rows": len(rows),
        "cells": cells,
        "skipped_cells": len({row.get("cell") for row in rows if row["status"] == "skipped"}),
        "replicates": job.replicates,
        "attempted": report.attempted,
        "failed": report.failed,
        "errors": report.errors[:20],
        "error_count": len(report.errors),
        "outputs_sha256": _sha256(*outputs),
        # ru_maxrss is in KiB on Linux.
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ref_unit_s": reference.unit_s if reference is not None else None,
        "ref_samples": len(reference.samples) if reference is not None else 0,
        "env": _environment(),
    }
    if tracer is not None:
        spans = tracer.spans
        result["trace"] = {
            "metrics": per_layer_metrics(spans),
            "span_counts": span_counts(spans),
            "layer_self_s": layer_self_times(spans),
            "name_self_s": name_self_times(spans),
        }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
