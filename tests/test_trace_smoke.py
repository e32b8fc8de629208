"""The benchmark's span tracer still reaches every layer boundary.

``perfbench/tracer.py`` times rdsim by swapping names on ``rdsim.harness``
and ``rdsim.netgen``, and ``perfbench/run.py`` lists the spans each
pipeline must record. A refactor that moves a traced call out of the
tracer's reach fails here, on a tiny plan and scenario, and not only in a
traced benchmark run.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

from rdsim import AttributeTargets, EngageScenario, ExperimentPlan, harness

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

PLAN = ExperimentPlan(
    node_count=200,
    mean_degree=8.0,
    prevalences=(0.3,),
    diff_activities=(1.0,),
    homophily_ratios=(1.0,),
    sample_sizes=(40,),
    num_seeds=3,
    coupons_per_node=2,
    replicates=3,
    master_seed=1,
)
SCENARIO = EngageScenario(
    node_count=400,
    mean_degree=8.0,
    covariates=(
        AttributeTargets("A", 0.5, 1.2, assortativity=0.1),
        AttributeTargets("B", 0.3, 0.9, homophily_ratio=0.5),
    ),
    correlations=((1.0, 0.08), (0.08, 1.0)),
    num_seeds=3,
    coupons_per_node=3,
    sample_size=40,
    replicates=3,
    master_seed=5,
)


@pytest.fixture
def perfbench(monkeypatch):
    """(tracer module, run module) of ``perfbench``, imported as run.py imports its siblings."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracer = importlib.import_module("tracer")
    spec = importlib.util.spec_from_file_location("perfbench_run", PERFBENCH / "run.py")
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    return tracer, run


@pytest.mark.parametrize(
    "kind, entry, job",
    [("experiment", harness.run_experiment, PLAN), ("engage", harness.run_engage_mimic, SCENARIO)],
)
def test_traced_run_records_every_expected_span(perfbench, tmp_path, kind, entry, job):
    tracer_module, run = perfbench
    tracer = tracer_module.Tracer()
    with tracer.installed():
        rows, _ = tracer.root(entry)(job, threads=1, out_dir=str(tmp_path))
    assert all(row["status"] == "ok" for row in rows)
    recorded = tracer_module.span_counts(tracer.spans)
    missing = sorted(run.EXPECTED_SPANS[kind] - recorded.keys())
    assert not missing, f"the traced run recorded no spans for {missing}"
    assert tracer_module.per_layer_metrics(tracer.spans)["sampler.nodes_sampled"] == 40 * job.replicates
