"""Set-up probe: time ``import rdsim`` and plan building in a fresh interpreter.

Set-up is what a user pays before the first replicate: importing the
package (scipy's quadrature import included) and turning the config text
into a plan or scenario; for the cohort mimic also compiling the
covariate sampler (``binary_sampler``). Prints one JSON object with
``import_s`` and ``plan_s``. Usage:

    python3 perfbench/probe.py --workload NAME --seed N --seconds S
"""

from __future__ import annotations

import argparse
import json
import time

from workloads import WORKLOADS, build_job, import_rdsim


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    args = parser.parse_args()
    workload = WORKLOADS[args.workload]

    start = time.perf_counter()
    import_rdsim()
    imported = time.perf_counter()
    job = build_job(workload, args.seed, args.seconds)
    if workload.kind == "engage":
        from rdsim.covariates import binary_sampler

        binary_sampler(job.covariate_spec())
    done = time.perf_counter()
    print(json.dumps({"import_s": imported - start, "plan_s": done - imported}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
