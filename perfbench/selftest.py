"""Fast self-test of the benchmark: every workload at a tiny size.

Runs each workload in trace mode (untraced 1-process, untraced 2-process
and traced batches, every output check, the byte-identity and
span-completeness assertions) at the default seed and at one other seed;
the untraced result shape once; the output checks against deliberately
corrupted CSVs, which they must reject; and the benchmark in a directory
without the rdsim sources, which must fail without printing a result.

Takes about two minutes on 2 cores. It is not part of the test suite:

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import csv
import json
import shutil
import subprocess
import sys
from pathlib import Path

from workloads import DEFAULT_SEED, OUT_DIR, ROOT, WORKLOADS, build_job, import_rdsim

HERE = Path(__file__).resolve().parent
OTHER_SEED = 7
TINY_SECONDS = "1"


def _bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def _result(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_workloads(spec: dict) -> None:
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    for seed in (DEFAULT_SEED, OTHER_SEED):
        for name in WORKLOADS:
            result = _result(
                _bench("--workload", name, "--seed", str(seed), "--seconds", TINY_SECONDS,
                       "--trace", "1")
            )
            assert result["correct"] and result["failed"] == 0, (name, seed, result)
            got = {key: m["unit"] for key, m in result["metrics"].items()}
            assert got == per_layer, (name, sorted(set(got) ^ set(per_layer)))
            print(f"ok  {name} seed={seed} traced: {result['attempted']} replicates checked")

    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    result = _result(_bench("--workload", "sweep-fixednet", "--seconds", TINY_SECONDS))
    assert result["correct"] and result["failed"] == 0, result
    assert {key: m["unit"] for key, m in result["metrics"].items()} == end_to_end, result
    print("ok  untraced result carries every end-to-end metric")


def _rewrite(path: Path, edit) -> None:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    edit(rows)
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)


def check_checks() -> None:
    """The output checks must reject corrupted outputs."""
    import_rdsim()
    from rdsim.harness import run_engage_mimic, run_experiment

    from checks import check_engage, check_experiment

    plan = build_job(WORKLOADS["sweep-dense"], DEFAULT_SEED, 1)
    scenario = build_job(WORKLOADS["engage-full"], DEFAULT_SEED, 1)
    clean = {"sweep": OUT_DIR / "selftest-sweep", "engage": OUT_DIR / "selftest-engage"}
    run_experiment(plan, out_dir=str(clean["sweep"]))
    run_engage_mimic(scenario, out_dir=str(clean["engage"]))
    check = {
        "sweep": lambda out: check_experiment(out, plan),
        "engage": lambda out: check_engage(out, scenario),
    }
    for kind, out in clean.items():
        assert not check[kind](out).errors, kind

    def column(rows, name):
        return rows[0].index(name)

    def first(rows, status):
        return next(i for i, r in enumerate(rows) if i and r[column(rows, "status")] == status)

    def set_value(name, status, value):
        def edit(rows):
            rows[first(rows, status)][column(rows, name)] = value
        return edit

    def set_summary_count(rows):
        count = column(rows, "count")
        next(r for r in rows[1:] if r[count] != "0")[count] = "0"

    corruptions = {
        "prevalence off target": ("sweep", "replicates.csv", set_value("truth_prevalence", "ok", "0.3")),
        "mean degree off target": ("sweep", "replicates.csv", set_value("truth_mean_degree", "ok", "90.0")),
        "NaN in an ok row": ("sweep", "replicates.csv", set_value("est_homophily", "ok", "nan")),
        "skip row on a feasible cell": ("sweep", "replicates.csv", set_value("status", "ok", "skipped")),
        "ok row on an infeasible cell": ("sweep", "replicates.csv", set_value("status", "skipped", "ok")),
        "missing row": ("sweep", "replicates.csv", lambda rows: rows.pop()),
        "summary count": ("sweep", "summary.csv", set_summary_count),
        "engage fit-failure skip row": ("engage", "replicates.csv", set_value("status", "ok", "skipped")),
        "engage CAS prevalence off target": (
            "engage", "replicates.csv", set_value("truth_prevalence_CAS", "ok", "0.3")
        ),
        "engage summary row missing": ("engage", "summary.csv", lambda rows: rows.pop()),
    }
    for label, (kind, filename, edit) in corruptions.items():
        broken = OUT_DIR / "selftest-broken"
        shutil.rmtree(broken, ignore_errors=True)
        shutil.copytree(clean[kind], broken)
        _rewrite(broken / filename, edit)
        report = check[kind](broken)
        assert report.errors and report.failed > 0, label
        print(f"ok  checks reject: {label} ({report.errors[0][:70]})")
    shutil.rmtree(OUT_DIR, ignore_errors=True)


def check_bare_directory() -> None:
    """Without the rdsim sources the benchmark fails and prints no result."""
    bare = OUT_DIR / "bare"
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    proc = _bench("--workload", "sweep-dense", "--seed", "1", "--seconds", "10", "--trace", "0", cwd=bare)
    shutil.rmtree(OUT_DIR, ignore_errors=True)
    assert proc.returncode != 0 and not proc.stdout.strip(), (proc.returncode, proc.stdout)
    print(f"ok  bare directory: exit {proc.returncode}, no result printed")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    check_bare_directory()
    check_checks()
    check_workloads(spec)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
