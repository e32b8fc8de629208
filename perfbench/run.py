"""rdsim benchmark: replicate throughput per workload, with a traced layer view.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all            # every workload, default seed

Each run is closed-loop: one caller, one batch (one ``run_experiment`` or
``run_engage_mimic`` call sized for about ``--seconds``), in one process.
Every batch runs in a fresh interpreter (``batch.py``) and set-up is timed
in ``PROBES`` further fresh interpreters (``probe.py``); the median is
reported.

``--trace 0`` reports the end-to-end metrics: ``scaled_replicates_per_s``
(throughput scaled by the host-speed reference, see ``reference.py``),
``setup_s`` and ``peak_rss_mb``; ``failed_frac`` is carried by the
``attempted``/``failed`` fields and printed above the result line, as is the
unscaled throughput.

``--trace 1`` runs the same batch untraced at 1 and 2 processes and then
traced at 1 process, and reports the per-layer metrics. The traced run must
write byte-identical outputs to the untraced ones (tracing is passive, and
outputs do not depend on the worker count) and must record a span at every
layer boundary the workload exercises.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import TRUTH_FUNCTIONS
from workloads import DEFAULT_SEED, OUT_DIR, SRC, WORKLOADS

HERE = Path(__file__).resolve().parent
TIME_LIMIT_S = 170.0
PROBES = 5  # set-up probes per run; the median is reported
# Throughput is scaled to a host on which the reference unit takes this
# long, about its time on a 2-vCPU Xeon VM; see reference.py.
REF_UNIT_S = 0.009

_COMMON_SPANS = {f"graph.{fn}" for fn in TRUTH_FUNCTIONS} | {
    "graph.Graph",
    "sampler.run_rds",
    "estimators.sample_estimates",
    "harness.summarize_replicates",
    "harness.write_rows",
}
# Spans each pipeline must record; a refactor that moves a call out of the
# tracer's reach fails here instead of reporting zero.
EXPECTED_SPANS = {
    "experiment": _COMMON_SPANS | {"netgen.generate_network", "netgen.solve_dyad_classes"},
    "engage": _COMMON_SPANS | {
        "covariates.binary_sampler",
        "covariates.sample",
        "netgen.fit_dyad_model",
        "netgen.simulate_from_model",
    },
}

END_TO_END_UNITS = {"scaled_replicates_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB"}
PER_LAYER_UNITS = {
    "graph.Graph.p50_ms": "ms",
    "graph.Graph.p95_ms": "ms",
    "graph.Graph.edges": "count",
    "graph.Graph.ns_per_edge": "ns",
    "graph.Graph.share": "fraction",
    "graph.truth.p50_ms": "ms",
    "netgen.model.p50_ms": "ms",
    "netgen.model.p95_ms": "ms",
    "netgen.fit_dyad_model.calls": "count",
    "netgen.fit_dyad_model.failures": "count",
    "netgen.generator.self_p50_ms": "ms",
    "netgen.solve_dyad_classes.calls": "count",
    "netgen.networks_per_replicate": "count",
    "sampler.run_rds.p50_ms": "ms",
    "sampler.run_rds.p95_ms": "ms",
    "sampler.run_rds.us_per_node": "us",
    "sampler.nodes_sampled": "count",
    "sampler.reseeds": "count",
    "sampler.run_rds.share": "fraction",
    "estimators.sample_estimates.p50_ms": "ms",
    "estimators.sample_estimates.p95_ms": "ms",
    "estimators.sample_estimates.share": "fraction",
    "covariates.share": "fraction",
    "harness.self_s": "s",
    "harness.write_rows_ms": "ms",
    "harness.summarize_replicates_ms": "ms",
    "harness.replicate.p50_ms": "ms",
    "harness.replicate.p95_ms": "ms",
    "harness.pool_speedup": "ratio",
    "setup.import_s": "s",
    "setup.plan_s": "s",
    "trace.overhead_frac": "fraction",
}


class BenchError(RuntimeError):
    """A child process failed; the run cannot produce metrics."""


class Deadline:
    def __init__(self, seconds: float):
        self.end = time.monotonic() + seconds

    def remaining(self) -> float:
        left = self.end - time.monotonic()
        if left <= 0:
            raise BenchError(f"time limit of {TIME_LIMIT_S:.0f} s exceeded")
        return left


def _run_child(args: list[str], deadline: Deadline) -> dict:
    """Run a benchmark script in a fresh interpreter; return its JSON line.

    The child gets its own process group so that a timeout also ends any
    pool workers it started.
    """
    cmd = [sys.executable, str(HERE / args[0]), *args[1:]]
    proc = subprocess.Popen(
        cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, start_new_session=True
    )
    try:
        out, err = proc.communicate(timeout=deadline.remaining())
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"{args[0]} timed out")
    if proc.returncode != 0:
        raise BenchError(f"{' '.join(args)} exited {proc.returncode}:\n{err.strip()}")
    return json.loads(out.strip().splitlines()[-1])


def measure_setup(name: str, seed: int, seconds: float, deadline: Deadline) -> dict:
    runs = [
        _run_child(["probe.py", "--workload", name, "--seed", str(seed), "--seconds", str(seconds)], deadline)
        for _ in range(PROBES)
    ]
    return {
        "setup_s": statistics.median(r["import_s"] + r["plan_s"] for r in runs),
        "setup.import_s": statistics.median(r["import_s"] for r in runs),
        "setup.plan_s": statistics.median(r["plan_s"] for r in runs),
    }


def run_batch(name: str, seed: int, seconds: float, threads: int, trace: int, deadline: Deadline) -> dict:
    out = OUT_DIR / f"{name}-{seed}-{os.getpid()}-{threads}-{trace}"
    try:
        return _run_child(
            [
                "batch.py", "--workload", name, "--seed", str(seed), "--seconds", str(seconds),
                "--threads", str(threads), "--trace", str(trace), "--out", str(out),
            ],
            deadline,
        )
    finally:
        shutil.rmtree(out, ignore_errors=True)
        try:
            OUT_DIR.rmdir()
        except OSError:
            pass


def _rate(batch: dict) -> float:
    return batch["ok"] / batch["wall_s"]


def run_workload(name: str, seed: int, seconds: float, trace: int) -> dict:
    """Measure one workload; returns the result object plus report lines."""
    workload = WORKLOADS[name]
    deadline = Deadline(TIME_LIMIT_S)
    errors: list[str] = []
    lines: list[str] = []
    setup = measure_setup(name, seed, seconds, deadline)

    if not trace:
        batches = [run_batch(name, seed, seconds, 1, 0, deadline)]
        main = batches[0]
        lines.append(
            f"{name} replicates_per_s {_rate(main):.6g} 1/s (unscaled; reference unit "
            f"{main['ref_unit_s'] * 1e3:.4g} ms over {main['ref_samples']} samples)"
        )
        metrics = {
            "scaled_replicates_per_s": _rate(main) * main["ref_unit_s"] / REF_UNIT_S,
            "setup_s": setup["setup_s"],
            "peak_rss_mb": main["peak_rss_mb"],
        }
        units = END_TO_END_UNITS
    else:
        serial = run_batch(name, seed, seconds, 1, 0, deadline)
        pooled = run_batch(name, seed, seconds, 2, 0, deadline)
        traced = run_batch(name, seed, seconds, 1, 1, deadline)
        batches = [serial, pooled, traced]
        main = serial
        shas = {b["outputs_sha256"] for b in batches}
        if len(shas) != 1:
            errors.append(
                "outputs differ between untraced 1-process, untraced 2-process and traced runs: "
                + ", ".join(b["outputs_sha256"][:12] for b in batches)
            )
        spans = traced["trace"]["span_counts"]
        missing = sorted(s for s in EXPECTED_SPANS[workload.kind] if not spans.get(s))
        if missing:
            errors.append(f"traced run recorded no spans for {missing}")
        metrics = dict(traced["trace"]["metrics"])
        metrics["harness.pool_speedup"] = _rate(pooled) / _rate(serial)
        metrics["setup.import_s"] = setup["setup.import_s"]
        metrics["setup.plan_s"] = setup["setup.plan_s"]
        metrics["trace.overhead_frac"] = traced["wall_s"] / serial["wall_s"] - 1.0
        units = PER_LAYER_UNITS
        lines += _premise_lines(workload, traced)

    for batch in batches:
        errors += [f"{batch['threads']}-process batch: {e}" for e in batch["errors"]]
        if batch["error_count"] > len(batch["errors"]):
            errors.append(f"... {batch['error_count'] - len(batch['errors'])} more check errors")
    attempted = sum(b["attempted"] for b in batches)
    failed = sum(b["failed"] for b in batches)
    lines.insert(0, f"env {json.dumps(main['env'], sort_keys=True)}")
    lines.insert(
        1,
        f"batch {name} seed={seed} threads={main['threads']} rows={main['rows']} "
        f"ok={main['ok']} cells={main['cells']} skipped_cells={main['skipped_cells']} "
        f"replicates={main['replicates']} wall_s={main['wall_s']:.3f}",
    )
    lines.append(f"outputs_sha256 {name} {main['outputs_sha256']}")
    lines += [f"{name} {key} {value:.6g} {units[key]}" for key, value in metrics.items()]
    lines.append(f"{name} failed_frac {failed / attempted:.6g} fraction ({failed}/{attempted})")
    lines += [f"error {e}" for e in errors]
    return {
        "correct": not errors and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {key: {"value": value, "unit": units[key]} for key, value in metrics.items()},
        "lines": lines,
    }


def _premise_lines(workload, traced: dict) -> list[str]:
    """State whether the workload's premise holds in the traced run."""
    trace = traced["trace"]
    self_s = trace["name_self_s"]
    leader = max((n for n in self_s if n != "harness.run"), key=self_s.get)
    wall = traced["wall_s"]
    lines = [
        f"self-time share {name} {value / wall:.3f}"
        for name, value in sorted(self_s.items(), key=lambda kv: -kv[1])
    ]
    lines += [f"layer self-time share {layer} {value / wall:.3f}" for layer, value in trace["layer_self_s"].items()]
    holds = leader == workload.leader
    lines.append(
        f"premise {workload.name}: largest self time is {leader} "
        f"(expected {workload.leader}): {'holds' if holds else 'DOES NOT HOLD'}"
    )
    fit_calls = trace["span_counts"].get("netgen.fit_dyad_model", 0)
    fit_expected = workload.kind == "engage"
    lines.append(
        f"premise {workload.name}: dyad-model fit calls {fit_calls} "
        f"(expected {'some' if fit_expected else 'none'}): "
        f"{'holds' if bool(fit_calls) == fit_expected else 'DOES NOT HOLD'}"
    )
    return lines


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*sorted(WORKLOADS), "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED, help="master seed of every replicate")
    parser.add_argument("--seconds", type=float, default=10.0, help="target length of one batch")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (SRC / "rdsim" / "__init__.py").is_file():
        print(f"perfbench: rdsim sources not found under {SRC}", file=sys.stderr)
        return 2

    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        results = {name: run_workload(name, args.seed, args.seconds, args.trace) for name in names}
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    for result in results.values():
        print("\n".join(result.pop("lines")))
    if len(results) == 1:
        (final,) = results.values()
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {
                f"{name}.{key}": metric
                for name, r in results.items()
                for key, metric in r["metrics"].items()
            },
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
