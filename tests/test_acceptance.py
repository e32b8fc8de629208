"""Acceptance suite: one test per criterion, one printed line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report lines. The long-running full-scale cohort check (criterion 9's
best-effort figures) is opt-in: set ``RDSIM_FULL_SCALE=1``.
"""

import os

import numpy as np
import pytest

from rdsim import (
    AttributeTargets,
    EngageScenario,
    ExperimentPlan,
    InfeasibleTargetsError,
    NetworkTargets,
    assortativity_from_ratio,
    binary_sampler,
    differential_activity,
    fit_dyad_model,
    generate_network,
    mean_degree,
    mixing_counts,
    newman_assortativity,
    prevalence,
    ratio_from_assortativity,
    run_engage_mimic,
    run_experiment,
    sample_estimates,
    solve_dyad_classes,
)
from rdsim.cli import main
from rdsim.covariates import CovariateSpec
from rdsim.netgen import _PatternClasses

from conftest import brute_force_stats, random_graph
from test_estimators import make_forest
from test_netgen import (
    DENSE_ONLY_INFEASIBLE,
    GRID_DA,
    GRID_P,
    GRID_R,
    STRUCTURALLY_INFEASIBLE,
    solution_residuals,
)

THREADS = 2
MASTER_SEED = 20250811


def report(criterion: int, message: str) -> None:
    print(f"\n[acceptance] criterion {criterion:02d} PASS: {message}")


def medians(summary, estimand):
    return {
        (entry["prevalence"], entry["sample_size"]): entry["median"]
        for entry in summary
        if entry["estimand"] == estimand and entry["median"] is not None
    }


def test_criterion_01_metric_bridge_anchor():
    value = assortativity_from_ratio(0.40, 0.33, 1.16)
    assert value == pytest.approx(-0.20, abs=0.005)
    back = ratio_from_assortativity(value, 0.33, 1.16)
    assert back == pytest.approx(0.40, abs=0.01)
    report(1, f"bridge(0.40, p=0.33, Da=1.16) = {value:.4f} (within -0.20 +/- 0.005), round trip {back:.4f}")


def test_criterion_02_moment_solver_exactness_over_grid():
    infeasible = []
    worst = 0.0
    for p in GRID_P:
        for da in GRID_DA:
            for r in GRID_R:
                targets = NetworkTargets(1000, p, 99.9, da, r)
                try:
                    solution = solve_dyad_classes(targets)
                except InfeasibleTargetsError as exc:
                    infeasible.append(((p, da, r), str(exc)))
                    continue
                worst = max(worst, max(solution_residuals(targets, solution)))
    assert worst <= 1e-9
    names = {cell for cell, _ in infeasible}
    assert names == STRUCTURALLY_INFEASIBLE | DENSE_ONLY_INFEASIBLE
    assert all(("e00" in reason) or ("q11" in reason) for _, reason in infeasible)
    report(
        2,
        f"18-cell cross at mean degree 99.9: worst feasible residual {worst:.2e}; "
        f"{len(infeasible)} infeasible cells reported by name: "
        + "; ".join(f"p={c[0]},Da={c[1]},R={c[2]}" for c in sorted(names)),
    )


def test_criterion_03_generator_calibration():
    lines = []
    for p, da, r in [(0.5, 1.0, 1.0), (0.1, 4.0, 5.0)]:
        targets = NetworkTargets(1000, p, 20.0, da, r)
        realized_da, realized_r = [], []
        for rep in range(100):
            graph, z = generate_network(targets, np.random.default_rng((MASTER_SEED, rep)))
            realized_da.append(differential_activity(graph, z))
            counts = mixing_counts(graph, z)
            realized_r.append(counts.within_1 / counts.cross)
        mean_da = float(np.mean(realized_da))
        mean_r = float(np.mean(realized_r))
        assert abs(mean_da - da) / da <= 0.02
        assert abs(mean_r - r) / r <= 0.05
        lines.append(f"(p={p}, Da={da}, R={r}): mean Da {mean_da:.4f}, mean R {mean_r:.4f}")
    report(3, "100-replicate calibration at mean degree 20: " + "; ".join(lines))


def test_criterion_04_base_cell_unbiasedness():
    plan = ExperimentPlan(
        node_count=1000,
        mean_degree=20.0,
        prevalences=(0.5,),
        diff_activities=(1.0,),
        homophily_ratios=(1.0,),
        sample_sizes=(200, 400, 800),
        num_seeds=5,
        coupons_per_node=2,
        replicates=500,
        master_seed=MASTER_SEED,
    )
    _, summary = run_experiment(plan, threads=THREADS)
    da_medians = medians(summary, "diff_activity")
    h_medians = medians(summary, "homophily")
    parts = []
    for n in (200, 400, 800):
        assert abs(da_medians[(0.5, n)]) <= 0.05
        assert abs(h_medians[(0.5, n)]) <= 0.05
        parts.append(f"n={n}: RB(Da) {da_medians[(0.5, n)]:+.4f}, RB(h) {h_medians[(0.5, n)]:+.4f}")
    report(4, "base cell medians over 500 replicates: " + "; ".join(parts))


def test_criterion_05_homophily_deteriorates_with_sampling_fraction():
    plan = ExperimentPlan(
        node_count=1000,
        mean_degree=20.0,
        prevalences=(0.1, 0.5, 0.8),
        diff_activities=(4.0,),
        homophily_ratios=(5.0,),
        sample_sizes=(200, 800),
        num_seeds=5,
        coupons_per_node=2,
        replicates=500,
        master_seed=MASTER_SEED,
    )
    rows, summary = run_experiment(plan, threads=THREADS)
    # p=0.8 with Da=4, R=5 is structurally infeasible and must be a named skip
    skipped = {row["prevalence"] for row in rows if row["status"] == "skipped"}
    assert skipped == {0.8}
    h_medians = medians(summary, "homophily")
    parts = []
    for p in (0.1, 0.5):
        small = h_medians[(p, 200)]
        large = h_medians[(p, 800)]
        assert abs(large) >= abs(small) - 0.01
        parts.append(f"p={p}: |median RB(h)| {abs(small):.4f} (n=200) -> {abs(large):.4f} (n=800)")
    report(5, "deterioration with sampling fraction at Da=4, R=5: " + "; ".join(parts))


def test_criterion_06_activity_variability_shrinks_with_n():
    plan = ExperimentPlan(
        node_count=1000,
        mean_degree=20.0,
        prevalences=(0.8,),
        diff_activities=(0.5,),
        homophily_ratios=(1.0,),
        sample_sizes=(200, 400, 800),
        num_seeds=5,
        coupons_per_node=2,
        replicates=500,
        master_seed=MASTER_SEED,
    )
    _, summary = run_experiment(plan, threads=THREADS)
    iqrs = {
        entry["sample_size"]: entry["q75"] - entry["q25"]
        for entry in summary
        if entry["estimand"] == "diff_activity"
    }
    assert iqrs[200] > iqrs[400] > iqrs[800]
    report(
        6,
        "IQR of RB(Da) at Da=0.5, p=0.8 strictly decreases: "
        + " > ".join(f"{iqrs[n]:.4f} (n={n})" for n in (200, 400, 800)),
    )


def test_criterion_07_exact_estimator_properties():
    # RDS-II equals the crude proportion under equal degrees
    equal_deg = make_forest(
        [
            (0, -1, 0, 0, -1, 4, 1),
            (1, 0, 1, 0, 0, 4, 0),
            (2, 0, 1, 0, 1, 4, 0),
            (3, 1, 2, 0, 0, 4, 1),
        ]
    )
    est = sample_estimates(equal_deg)
    assert est.rds2_prevalence[0] == pytest.approx(est.crude_prevalence[0], rel=1e-15)

    # pure-within and pure-cross recruitment forests hit the homophily extremes
    pure_within = make_forest(
        [
            (0, -1, 0, 0, -1, 3, 1),
            (1, 0, 1, 0, 0, 3, 1),
            (2, -1, 0, 1, -1, 3, 0),
            (3, 2, 1, 1, 0, 3, 0),
        ]
    )
    assert sample_estimates(pure_within).homophily[0] == 1.0
    pure_cross = make_forest(
        [
            (0, -1, 0, 0, -1, 3, 1),
            (1, 0, 1, 0, 0, 3, 0),
            (2, 1, 2, 0, 0, 3, 1),
        ]
    )
    assert sample_estimates(pure_cross).homophily[0] == -1.0

    # graph statistics against the exhaustive O(N^2) oracle
    rng = np.random.default_rng(MASTER_SEED)
    checked = 0
    for _ in range(200):
        n = int(rng.integers(2, 9))
        graph, edges, z = random_graph(n, float(rng.uniform(0.1, 0.9)), rng)
        expected = brute_force_stats(n, edges, z)
        assert graph.edge_count == expected["edge_count"]
        assert mean_degree(graph) == pytest.approx(expected["mean_degree"])
        assert prevalence(z) == pytest.approx(expected["prevalence"])
        counts = mixing_counts(graph, z)
        assert (counts.within_1, counts.within_0, counts.cross) == (
            expected["within_1"],
            expected["within_0"],
            expected["cross"],
        )
        if expected["diff_activity"] is not None:
            assert differential_activity(graph, z) == pytest.approx(expected["diff_activity"])
        if expected["newman"] is not None:
            assert newman_assortativity(counts) == pytest.approx(expected["newman"], abs=1e-12)
        checked += 1
    assert checked == 200
    report(7, "RDS-II/crude identity, homophily extremes, and 200 brute-force graph checks hold")


def cohort_targets():
    return (
        AttributeTargets("CAS", 0.579, 1.18, assortativity=0.17),
        AttributeTargets("CIR", 0.439, 0.95, assortativity=0.09),
        AttributeTargets("HIV+", 0.127, 1.32, assortativity=0.38),
    )


def cohort_correlations():
    return ((1.0, 0.104, 0.023), (0.104, 1.0, 0.046), (0.023, 0.046, 1.0))


def test_criterion_08_multi_attribute_fit():
    spec = CovariateSpec(
        names=("CAS", "CIR", "HIV+"),
        marginals=[0.579, 0.439, 0.127],
        correlations=np.array(cohort_correlations()),
    )
    z = binary_sampler(spec).sample(4040, np.random.default_rng(MASTER_SEED))
    targets = cohort_targets()
    model = fit_dyad_model(targets, 16.63, z)

    # independent residual recomputation: rebuild the target statistics from
    # realized group sizes, then compare against the model's expectations
    n = z.shape[0]
    goal = [n * 16.63 / 2.0]
    for k, spec_k in enumerate(targets):
        n1 = int(z[:, k].sum())
        ratio = spec_k.homophily_ratio
        if ratio is None:
            ratio = ratio_from_assortativity(spec_k.assortativity, n1 / n, spec_k.diff_activity)
        sol = solve_dyad_classes(NetworkTargets(n, n1 / n, 16.63, spec_k.diff_activity, ratio))
        goal.extend([sol.e11 + sol.e00, 2 * sol.e11 + sol.e10])
    goal = np.asarray(goal)
    classes = _PatternClasses(z)
    achieved = classes.expected(model.theta)
    residual = np.max(np.abs(achieved - goal) / np.maximum(np.abs(goal), 1.0))
    assert residual <= 1e-6
    report(
        8,
        f"three-attribute fit at N=4040 converged; max relative moment residual {residual:.2e} "
        f"over {classes.dyad_counts.size} dyad classes",
    )


def desk_scenario(replicates=200):
    return EngageScenario(
        node_count=4040,
        mean_degree=16.63,
        covariates=cohort_targets(),
        correlations=cohort_correlations(),
        num_seeds=27,
        coupons_per_node=6,
        sample_size=118,
        replicates=replicates,
        master_seed=MASTER_SEED,
    )


def test_criterion_09_cohort_directional_findings_desk_scale():
    rows, summary = run_engage_mimic(desk_scenario(), threads=THREADS)
    assert all(row["status"] == "ok" for row in rows)
    means = {
        entry["covariate"]: entry["mean"]
        for entry in summary
        if entry["estimand"] == "diff_activity"
    }
    assert abs(means["CIR"]) <= 0.02
    assert means["HIV+"] < means["CIR"]
    # the tree-edge estimate beside the induced-subgraph oracle of the same samples
    stats = {(e["covariate"], e["estimand"]): e["mean"] for e in summary}
    split = ", ".join(
        f"{name} {stats[(name, 'homophily')]:+.4f} / {stats[(name, 'induced_homophily')]:+.4f}"
        for name in (target.name for target in cohort_targets())
    )
    report(
        9,
        f"desk-scale cohort (200 replicates): mean RB(Da) CIR {means['CIR']:+.4f} (within 0.02), "
        f"HIV+ {means['HIV+']:+.4f} more negative than CIR; mean RB(h) tree-edge / induced: {split}",
    )


@pytest.mark.fullscale
@pytest.mark.skipif(
    os.environ.get("RDSIM_FULL_SCALE") != "1",
    reason="full-scale best-effort checks; enable with RDSIM_FULL_SCALE=1",
)
def test_criterion_09_cohort_exact_figures_full_scale():
    # Best-effort per the acceptance terms: the published averages are
    # -2.9% (Da, HIV+) and -2.56% (h, HIV+), checked at +/- 0.02.
    scenario = EngageScenario(
        node_count=40400,
        mean_degree=16.63,
        covariates=cohort_targets(),
        correlations=cohort_correlations(),
        num_seeds=27,
        coupons_per_node=6,
        sample_size=1179,
        replicates=200,
        master_seed=MASTER_SEED,
    )
    _, summary = run_engage_mimic(scenario, threads=THREADS)
    stats = {(e["covariate"], e["estimand"]): e["mean"] for e in summary}
    cir_da = stats[("CIR", "diff_activity")]
    hiv_da = stats[("HIV+", "diff_activity")]
    hiv_h = stats[("HIV+", "homophily")]
    print(
        f"\n[acceptance] criterion 09 full-scale figures: "
        f"RB(Da) CIR {cir_da:+.4f}, HIV+ {hiv_da:+.4f} (target -0.029 +/- 0.02), "
        f"RB(h) HIV+ {hiv_h:+.4f} (target -0.0256 +/- 0.02; "
        f"induced-subgraph oracle {stats[('HIV+', 'induced_homophily')]:+.4f})"
    )
    assert abs(cir_da) <= 0.02
    assert hiv_da == pytest.approx(-0.029, abs=0.02)
    assert hiv_h == pytest.approx(-0.0256, abs=0.02)


EXPERIMENT_CFG = """\
[network]
n = 400
p = 0.5, 0.8
mean_degree = 12
diff_activity = 0.5, 1
homophily_r = 1, 5
mode = bernoulli

[rds]
seeds = 3
coupons = 2
sample_size = 80, 160

[experiment]
replicates = 15
seed = 424242
"""


def test_criterion_10_byte_identical_outputs_across_threads(tmp_path):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(EXPERIMENT_CFG)
    out_serial = tmp_path / "serial"
    out_parallel = tmp_path / "parallel"
    out_repeat = tmp_path / "repeat"
    assert main(["experiment", "--config", str(cfg), "--out", str(out_serial), "--threads", "1"]) == 0
    assert main(["experiment", "--config", str(cfg), "--out", str(out_parallel), "--threads", "2"]) == 0
    assert main(["experiment", "--config", str(cfg), "--out", str(out_repeat), "--threads", "2"]) == 0
    for name in ("replicates.csv", "summary.csv"):
        reference = (out_serial / name).read_bytes()
        assert (out_parallel / name).read_bytes() == reference
        assert (out_repeat / name).read_bytes() == reference
    report(10, "same master seed gives byte-identical replicates.csv and summary.csv at threads 1 and 2")
