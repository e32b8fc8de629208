import csv

import numpy as np
import pytest

from rdsim import (
    AttributeTargets,
    EngageScenario,
    ExperimentPlan,
    run_engage_mimic,
    run_experiment,
    run_rds,
    sample_estimates,
    summarize_replicates,
)
from rdsim import harness, netgen
from rdsim.harness import EXPERIMENT_COLUMNS, write_rows


def small_plan(**overrides) -> ExperimentPlan:
    base = dict(
        node_count=300,
        mean_degree=10.0,
        prevalences=(0.5,),
        diff_activities=(1.0,),
        homophily_ratios=(1.0,),
        sample_sizes=(60,),
        num_seeds=3,
        coupons_per_node=2,
        replicates=4,
        master_seed=123,
    )
    base.update(overrides)
    return ExperimentPlan(**base)


def tiny_scenario(**overrides) -> EngageScenario:
    base = dict(
        node_count=1010,
        mean_degree=10.0,
        covariates=(
            AttributeTargets("A", 0.5, 1.2, assortativity=0.1),
            AttributeTargets("B", 0.3, 0.9, assortativity=0.05),
        ),
        correlations=((1.0, 0.08), (0.08, 1.0)),
        num_seeds=4,
        coupons_per_node=3,
        sample_size=80,
        replicates=3,
        master_seed=321,
    )
    base.update(overrides)
    return EngageScenario(**base)


class TestRunExperiment:
    def test_census_recovers_degree_based_estimands_exactly(self):
        plan = small_plan(node_count=200, mean_degree=8.0, sample_sizes=(200,), replicates=1)
        rows, _ = run_experiment(plan)
        assert len(rows) == 1
        row = rows[0]
        assert row["status"] == "ok"
        assert row["rb_diff_activity"] == 0.0
        assert row["rb_induced_homophily"] == 0.0
        assert row["rb_rds2_prevalence"] is not None
        # the tree-based homophily estimate stays biased even at a census
        assert row["rb_homophily"] != 0.0

    def test_row_conservation_with_infeasible_cell(self):
        plan = small_plan(
            prevalences=(0.5, 0.8),
            diff_activities=(1.0, 4.0),
            replicates=3,
        )
        rows, summary = run_experiment(plan)
        # 4 cells x 3 replicates, including infeasible (0.8, 1.0) and (0.8, 4.0), (0.5, 4.0)
        assert len(rows) == 12
        by_cell: dict[int, list] = {}
        for row in rows:
            by_cell.setdefault(row["cell"], []).append(row)
        assert all(len(v) == 3 for v in by_cell.values())
        skipped = [r for r in rows if r["status"] == "skipped"]
        assert skipped, "expected infeasible cells in this grid"
        assert all(r["reason"] for r in skipped)
        for entry in summary:
            assert entry["count"] + entry["undefined"] == 3

    def test_row_keys_are_the_header(self):
        # write_rows leaves out a row key missing from the header, so drift would pass silently
        plan = small_plan(prevalences=(0.5, 0.8), diff_activities=(1.0, 4.0), replicates=2)
        rows, _ = run_experiment(plan)
        assert {row["status"] for row in rows} == {"ok", "skipped"}
        for row in rows:
            assert set(row) == set(EXPERIMENT_COLUMNS), row["status"]

    def test_skip_reason_names_bound(self):
        plan = small_plan(prevalences=(0.8,), diff_activities=(4.0,), replicates=1)
        rows, _ = run_experiment(plan)
        assert rows[0]["status"] == "skipped"
        assert "e00" in rows[0]["reason"]

    def test_truth_provenance(self):
        # recorded relative bias always recomputes from recorded truth and estimate
        plan = small_plan(replicates=5)
        rows, _ = run_experiment(plan)
        pairs = [
            ("rb_diff_activity", "est_diff_activity", "truth_diff_activity"),
            ("rb_homophily", "est_homophily", "truth_homophily"),
            ("rb_homophily_ratio", "est_homophily_ratio", "truth_homophily_ratio"),
            ("rb_induced_homophily", "est_induced_homophily", "truth_homophily"),
            ("rb_rds2_prevalence", "est_rds2_prevalence", "truth_prevalence"),
        ]
        for row in rows:
            for rb, est, truth in pairs:
                if row[rb] is not None:
                    assert row[rb] == (row[est] - row[truth]) / row[truth]

    @pytest.mark.parametrize("regenerate_network", [True, False], ids=["fresh", "fixed"])
    def test_deterministic_across_thread_counts(self, tmp_path, regenerate_network):
        plan = small_plan(replicates=6, sample_sizes=(40, 60), regenerate_network=regenerate_network)
        dir_one = tmp_path / "one"
        dir_two = tmp_path / "two"
        run_experiment(plan, threads=1, out_dir=dir_one)
        run_experiment(plan, threads=2, out_dir=dir_two)
        for name in ("replicates.csv", "summary.csv"):
            assert (dir_one / name).read_bytes() == (dir_two / name).read_bytes()

    def test_adding_cells_preserves_existing_streams(self):
        # content-derived entropy: cell rows do not depend on grid position
        narrow = small_plan(sample_sizes=(60,), replicates=3)
        wide = small_plan(sample_sizes=(60, 80), replicates=3)
        rows_narrow, _ = run_experiment(narrow)
        rows_wide, _ = run_experiment(wide)
        kept = [r for r in rows_wide if r["sample_size"] == 60]
        for a, b in zip(rows_narrow, kept):
            a = dict(a)
            b = dict(b)
            a.pop("cell")
            b.pop("cell")
            assert a == b

    def test_fixed_network_mode(self):
        moving = small_plan(replicates=3)
        frozen = small_plan(replicates=3, regenerate_network=False)
        rows_moving, _ = run_experiment(moving)
        rows_frozen, _ = run_experiment(frozen)
        truths_frozen = {r["truth_mean_degree"] for r in rows_frozen}
        truths_moving = {r["truth_mean_degree"] for r in rows_moving}
        assert len(truths_frozen) == 1
        assert len(truths_moving) > 1

    @staticmethod
    def _count_networks(monkeypatch, regenerate_network: bool) -> tuple[list, list[dict]]:
        calls = []
        original = harness.generate_network

        def counting(targets, rng, mode):
            calls.append(targets)
            return original(targets, rng, mode)

        monkeypatch.setattr(harness, "generate_network", counting)
        plan = small_plan(
            prevalences=(0.5, 0.8),
            diff_activities=(1.0, 4.0),
            homophily_ratios=(1.0, 2.0),
            sample_sizes=(40, 60),
            replicates=3,
            regenerate_network=regenerate_network,
        )
        rows, _ = run_experiment(plan)
        assert len({row["cell"] for row in rows if row["status"] == "ok"}) == 8
        assert any(row["status"] == "skipped" for row in rows)
        return calls, rows

    @staticmethod
    def _feasible_groups(rows: list[dict]) -> set[tuple]:
        return {
            (row["prevalence"], row["diff_activity"], row["homophily_ratio"])
            for row in rows
            if row["status"] == "ok"
        }

    def test_fixed_network_builds_one_network_per_feasible_group(self, monkeypatch):
        calls, rows = self._count_networks(monkeypatch, regenerate_network=False)
        # 8 feasible cells over 2 sample sizes: 4 feasible (p, Da, R)
        assert len(self._feasible_groups(rows)) == 4
        assert len(calls) == 4

    def test_fresh_networks_built_per_feasible_group_and_replicate(self, monkeypatch):
        calls, rows = self._count_networks(monkeypatch, regenerate_network=True)
        assert len(calls) == 3 * len(self._feasible_groups(rows)) == 12

    @pytest.mark.parametrize("regenerate_network", [True, False], ids=["fresh", "fixed"])
    def test_sample_sizes_share_the_population(self, regenerate_network):
        plan = small_plan(
            prevalences=(0.3, 0.5),
            sample_sizes=(40, 60, 80),
            replicates=3,
            regenerate_network=regenerate_network,
        )
        rows, _ = run_experiment(plan)
        truth_columns = [column for column in EXPERIMENT_COLUMNS if column.startswith("truth_")]
        truths: dict[tuple, set] = {}
        for row in rows:
            assert row["status"] == "ok"
            key = (row["prevalence"], row["diff_activity"], row["homophily_ratio"], row["replicate"])
            truths.setdefault(key, set()).add(tuple(row[c] for c in truth_columns))
        # every sample size of a (p, Da, R) replicate sees one population
        assert len(truths) == 2 * 3
        assert all(len(seen) == 1 for seen in truths.values())
        population = {key: seen.pop() for key, seen in truths.items()}
        for p in plan.prevalences:
            replicates = {population[(p, 1.0, 1.0, rep)] for rep in range(3)}
            assert len(replicates) == (3 if regenerate_network else 1)

    @pytest.mark.parametrize("regenerate_network", [True, False], ids=["fresh", "fixed"])
    def test_rows_equal_independent_runs_at_each_sample_size(self, regenerate_network):
        plan = small_plan(
            prevalences=(0.3, 0.5),
            sample_sizes=(40, 80, 60),
            replicates=3,
            regenerate_network=regenerate_network,
        )
        rows, _ = run_experiment(plan)
        cells = {cell.index: cell for cell in plan.cells()}
        for row in rows:
            cell = cells[row["cell"]]
            replicate = row["replicate"]
            network_rep = replicate if regenerate_network else 0
            network_rng = np.random.default_rng(plan._entropy(harness._TAG_NETWORK, cell, network_rep))
            graph, z = harness.generate_network(plan.network_targets(cell), network_rng, plan.mode)
            # the recruitment stream holds no sample size, so a run to this size alone is the reference
            rds_rng = np.random.default_rng(plan._entropy(harness._TAG_RDS, cell, replicate))
            forest = run_rds(graph, z, plan.sampler_config(cell), rds_rng)
            est = sample_estimates(forest, graph)
            truth = harness._realized_truth(graph, z)
            assert row == harness._ok_row(harness._cell_key(cell), replicate, est, [truth], [""])

    @pytest.mark.parametrize("regenerate_network", [True, False], ids=["fresh", "fixed"])
    def test_smaller_samples_are_prefixes_of_one_run(self, monkeypatch, regenerate_network):
        runs, calls = [], []

        def recording_run(*args):
            runs.append(run_rds(*args))
            return runs[-1]

        def recording_estimates(run, graph, sizes):
            calls.append((run, sizes, graph, sample_estimates(run, graph, sizes)))
            return calls[-1][-1]

        monkeypatch.setattr(harness, "run_rds", recording_run)
        monkeypatch.setattr(harness, "sample_estimates", recording_estimates)
        plan = small_plan(
            prevalences=(0.3, 0.5),
            sample_sizes=(60, 40, 80),
            replicates=3,
            regenerate_network=regenerate_network,
        )
        rows, _ = run_experiment(plan)
        assert all(row["status"] == "ok" for row in rows)
        # one run per (p, Da, R) and replicate, to the largest sample size
        assert [run.size for run in runs] == [80] * 2 * 3
        # one estimates call per run, over the run itself, with the group's sizes in group order
        assert len(calls) == len(runs)
        assert all(call[0] is run for call, run in zip(calls, runs))
        assert [list(sizes) for _, sizes, _, _ in calls] == [[60, 40, 80]] * 2 * 3
        estimates = [est for *_, result in calls for est in result]
        assert sorted(est.sample_size for est in estimates) == [40] * 6 + [60] * 6 + [80] * 6
        # every cell's sample is its size's prefix of the run
        for run, sizes, graph, result in calls:
            for size, est in zip(sizes, result):
                assert est == sample_estimates(run.prefix(size), graph)
                assert est.reseed_count <= run.reseed_count

    @pytest.mark.parametrize("regenerate_network", [True, False], ids=["fresh", "fixed"])
    def test_sample_size_order_does_not_change_rows(self, regenerate_network):
        def rows_by_size(sample_sizes):
            plan = small_plan(
                node_count=500, sample_sizes=sample_sizes, replicates=3, regenerate_network=regenerate_network
            )
            rows, _ = run_experiment(plan)
            return {(row["sample_size"], row["replicate"]): {**row, "cell": None} for row in rows}

        assert rows_by_size((400, 200)) == rows_by_size((200, 400))

    def test_csv_round_trip_preserves_floats(self, tmp_path):
        plan = small_plan(replicates=2)
        rows, _ = run_experiment(plan, out_dir=tmp_path)
        with open(tmp_path / "replicates.csv", newline="") as fh:
            parsed = list(csv.DictReader(fh))
        assert list(parsed[0].keys()) == EXPERIMENT_COLUMNS
        for row, disk in zip(rows, parsed):
            for column in ("truth_diff_activity", "rb_homophily", "est_rds2_prevalence"):
                if row[column] is None:
                    assert disk[column] == ""
                else:
                    assert float(disk[column]) == row[column]

    def test_plan_validation(self):
        with pytest.raises(ValueError):
            small_plan(replicates=0)
        with pytest.raises(ValueError):
            small_plan(sample_sizes=(1000,))  # exceeds population
        with pytest.raises(ValueError):
            small_plan(master_seed=-1)
        with pytest.raises(ValueError):
            small_plan(mode="nope")

    @pytest.mark.parametrize(
        "field, values",
        [
            ("prevalences", (0.3, 0.5, 0.3)),
            ("diff_activities", (1.0, 1)),
            ("homophily_ratios", (2.0, 1.0, 2.0)),
            ("sample_sizes", (60, 40, 60)),
        ],
    )
    def test_a_repeated_grid_value_is_rejected(self, field, values):
        with pytest.raises(ValueError, match=f"{field} repeats a value"):
            small_plan(**{field: values})


class TestSummarize:
    def test_single_record(self):
        rows = [{"g": 1, "rb": 0.1}]
        out = summarize_replicates(rows, ["g"], ["rb"], 1)
        entry = out[0]
        assert entry["count"] == 1
        assert entry["mean"] == entry["median"] == entry["q25"] == entry["q75"] == 0.1

    def test_linear_interpolation_quartiles(self):
        rows = [{"g": 1, "rb": v} for v in (-1.0, 0.0, 1.0)]
        entry = summarize_replicates(rows, ["g"], ["rb"], 3)[0]
        assert entry["median"] == 0.0
        assert entry["q25"] == -0.5
        assert entry["q75"] == 0.5

    def test_undefined_accounting(self):
        rows = [{"g": 1, "rb": 0.5}, {"g": 1, "rb": None}, {"g": 1, "rb": 1.5}]
        entry = summarize_replicates(rows, ["g"], ["rb"], 3)[0]
        assert entry["count"] == 2
        assert entry["undefined"] == 1
        assert entry["undefined_rate"] == pytest.approx(1 / 3)

    def test_group_size_mismatch_rejected(self):
        rows = [{"g": 1, "rb": 0.5}]
        with pytest.raises(ValueError, match="expected"):
            summarize_replicates(rows, ["g"], ["rb"], 2)


class TestEngageMimic:
    def test_rows_and_summary_shape(self):
        scenario = tiny_scenario()
        rows, summary = run_engage_mimic(scenario)
        assert len(rows) == 3
        assert all(r["status"] == "ok" for r in rows)
        assert {r["replicate"] for r in rows} == {0, 1, 2}
        for name in ("A", "B"):
            assert rows[0][f"truth_diff_activity_{name}"] is not None
            assert rows[0][f"est_rds2_prevalence_{name}"] is not None
            # the population graph is at hand, so every row holds the oracle
            for row in rows:
                assert row[f"est_induced_homophily_{name}"] not in (None, "")
                assert row[f"rb_induced_homophily_{name}"] not in (None, "")
        estimands = [(e["covariate"], e["estimand"]) for e in summary]
        rb = [column.removeprefix("rb_") for column in harness.RB_COLUMNS]
        assert estimands == [(name, estimand) for name in ("A", "B") for estimand in rb]
        assert ("A", "induced_homophily") in estimands
        for entry in summary:
            values = [row[f"rb_{entry['estimand']}_{entry['covariate']}"] for row in rows]
            assert entry["mean"] == np.mean(values)

    def test_covariate_names_that_spell_one_column_twice_are_rejected(self):
        # "X"'s homophily ratio and "ratio_X"'s homophily share the suffix "homophily_ratio_X"
        covariates = (
            AttributeTargets("X", 0.5, 1.2, assortativity=0.1),
            AttributeTargets("ratio_X", 0.3, 0.9, assortativity=0.05),
        )
        with pytest.raises(ValueError, match="^column name 'truth_homophily_ratio_X' is repeated$"):
            tiny_scenario(covariates=covariates)

    def test_deterministic_across_thread_counts(self, tmp_path):
        scenario = tiny_scenario(replicates=4)
        dir_one = tmp_path / "one"
        dir_two = tmp_path / "two"
        run_engage_mimic(scenario, threads=1, out_dir=dir_one)
        run_engage_mimic(scenario, threads=2, out_dir=dir_two)
        for name in ("replicates.csv", "summary.csv"):
            assert (dir_one / name).read_bytes() == (dir_two / name).read_bytes()

    def test_infeasible_targets_recorded_as_skips(self):
        scenario = tiny_scenario(
            covariates=(
                AttributeTargets("A", 0.5, 40.0, homophily_ratio=1.0),
                AttributeTargets("B", 0.3, 0.9, assortativity=0.05),
            ),
            correlations=((1.0, 0.0), (0.0, 1.0)),
            replicates=2,
        )
        rows, summary = run_engage_mimic(scenario)
        assert all(r["status"] == "skipped" for r in rows)
        assert all("fit failed" in r["reason"] for r in rows)
        assert all(e["count"] == 0 and e["undefined"] == 2 for e in summary)

    def test_iteration_cap_recorded_as_skips(self, monkeypatch):
        monkeypatch.setattr(netgen, "_FIT_MAX_ITER", 1)
        rows, summary = run_engage_mimic(tiny_scenario(replicates=2), threads=1)
        assert all(r["status"] == "skipped" for r in rows)
        assert all(
            r["reason"].startswith("fit failed: residual") and r["reason"].endswith("after 1 iterations")
            for r in rows
        )
        assert all(e["count"] == 0 and e["undefined"] == 2 for e in summary)

    def test_row_keys_are_the_header(self):
        feasible = tiny_scenario(replicates=2)
        infeasible = tiny_scenario(
            covariates=(AttributeTargets("A", 0.5, 40.0, homophily_ratio=1.0), feasible.covariates[1]),
            correlations=((1.0, 0.0), (0.0, 1.0)),
            replicates=1,
        )
        rows = run_engage_mimic(feasible)[0] + run_engage_mimic(infeasible)[0]
        assert [row["status"] for row in rows] == ["ok", "ok", "skipped"]
        columns = set(harness.engage_columns(feasible.covariate_names))
        for row in rows:
            assert set(row) == columns, row["status"]


def test_write_rows_formats(tmp_path):
    path = tmp_path / "rows.csv"
    write_rows(path, ["a", "b", "c", "d"], [{"a": 0.1, "b": None, "c": True, "d": 3}])
    assert path.read_text().splitlines() == ["a,b,c,d", "0.1,,true,3"]
