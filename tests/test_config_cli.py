import csv
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from rdsim import (
    ConfigError,
    Graph,
    SamplerConfig,
    newman_assortativity,
    read_edge_list,
    read_forest,
    run_rds,
    write_edge_list,
    write_forest,
)
from rdsim.cli import _attribute_stats, _blas_core, main
from rdsim.config import (
    covariate_spec_from_config,
    engage_scenario_from_config,
    experiment_plan_from_config,
    multi_network_run_from_config,
    network_run_from_config,
    parse_config,
    sampler_config_from_config,
)
from rdsim.errors import or_none
from rdsim.netgen import MAX_PATTERN_ATTRIBUTES
from conftest import networkx_induced_counts, random_graph

EXPERIMENT_CFG = """\
# sweep definition
[network]
n = 300
p = 0.5, 0.8
mean_degree = 10
diff_activity = 1, 4
homophily_r = 1
mode = bernoulli

[rds]
seeds = 3
coupons = 2
sample_size = 40, 60

[experiment]
replicates = 2
seed = 77
"""

ENGAGE_CFG = """\
[engage]
n = 1010
mean_degree = 10
seeds = 4
coupons = 3
sample_size = 80
replicates = 2
seed = 5

[covariate A]
prevalence = 0.5
diff_activity = 1.2
homophily_h = 0.1

[covariate B]
prevalence = 0.3
diff_activity = 0.9
homophily_r = 0.5

[correlations]
A:B = 0.08
"""

FIG_NETWORK_CFG = """\
[network]
n = 12
p = 0.33
mean_degree = 2.16
diff_activity = 1.16
homophily_r = 0.40
"""


class TestParser:
    def test_comments_blanks_and_order(self):
        cfg = parse_config("# top\n\n[a]\nx = 1\n# mid\ny = 2\n\n[b]\nz = 3\n")
        assert list(cfg) == ["a", "b"]
        assert cfg["a"] == {"x": "1", "y": "2"}

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigError, match="duplicate key"):
            parse_config("[a]\nx = 1\nx = 2\n")

    def test_duplicate_section_rejected(self):
        with pytest.raises(ConfigError, match="duplicate section"):
            parse_config("[a]\nx = 1\n[a]\ny = 2\n")

    def test_key_before_section_rejected(self):
        with pytest.raises(ConfigError, match="before any"):
            parse_config("x = 1\n[a]\n")

    def test_garbage_line_rejected(self):
        with pytest.raises(ConfigError, match="expected"):
            parse_config("[a]\nnot a key value\n")


class TestSchemas:
    def test_unknown_key_is_hard_error(self):
        text = EXPERIMENT_CFG.replace("mode = bernoulli", "moed = bernoulli")
        with pytest.raises(ConfigError, match="unknown key 'moed'"):
            experiment_plan_from_config(parse_config(text))

    def test_unknown_section_is_hard_error(self):
        with pytest.raises(ConfigError, match="unknown section"):
            experiment_plan_from_config(parse_config(EXPERIMENT_CFG + "\n[extra]\nx = 1\n"))

    def test_missing_section(self):
        with pytest.raises(ConfigError, match="missing required section"):
            experiment_plan_from_config(parse_config("[network]\nn = 10\n"))

    def test_homophily_exactly_one_scale(self):
        text = FIG_NETWORK_CFG + "homophily_h = -0.2\n"
        with pytest.raises(ConfigError, match="exactly one"):
            network_run_from_config(parse_config(text))

    def test_experiment_plan_values(self):
        plan = experiment_plan_from_config(parse_config(EXPERIMENT_CFG))
        assert plan.node_count == 300
        assert plan.prevalences == (0.5, 0.8)
        assert plan.diff_activities == (1.0, 4.0)
        assert plan.homophily_ratios == (1.0,)
        assert plan.sample_sizes == (40, 60)
        assert plan.replicates == 2
        assert plan.master_seed == 77
        assert plan.regenerate_network

    def test_sweep_requires_ratio_scale(self):
        text = EXPERIMENT_CFG.replace("homophily_r = 1", "homophily_h = 0.1")
        with pytest.raises(ConfigError, match="ratio scale"):
            experiment_plan_from_config(parse_config(text))

    def test_network_scalar_values(self):
        targets, mode = network_run_from_config(parse_config(FIG_NETWORK_CFG))
        assert targets.node_count == 12
        assert targets.homophily_ratio == 0.40
        assert mode == "bernoulli"

    def test_sampler_config(self):
        cfg = parse_config("[rds]\nseeds = 2\ncoupons = 3\nsample_size = 10\nreseed = false\n")
        sampler = sampler_config_from_config(cfg)
        assert sampler.num_seeds == 2
        assert not sampler.reseed_on_death

    def test_engage_scenario(self):
        scenario = engage_scenario_from_config(parse_config(ENGAGE_CFG))
        assert scenario.covariate_names == ("A", "B")
        assert scenario.correlations[0][1] == 0.08
        assert scenario.covariates[0].assortativity == 0.1
        assert scenario.covariates[1].homophily_ratio == 0.5

    def test_engage_has_no_mode(self):
        text = ENGAGE_CFG.replace("seed = 5", "seed = 5\nmode = exact-count")
        with pytest.raises(ConfigError, match="unknown key 'mode' in \\[engage\\]"):
            engage_scenario_from_config(parse_config(text))

    def test_sweep_rejects_reseed_false(self):
        text = EXPERIMENT_CFG.replace("sample_size = 40, 60", "sample_size = 40, 60\nreseed = false")
        with pytest.raises(ConfigError, match=r"\[rds\] reseed = false"):
            experiment_plan_from_config(parse_config(text))
        plan = experiment_plan_from_config(parse_config(text.replace("reseed = false", "reseed = true")))
        assert plan.sampler_config(plan.cells()[0]).reseed_on_death

    def test_covgen_covariates_need_only_prevalence(self):
        text = (
            "[covgen]\nn = 10\n\n[covariate A]\nprevalence = 0.3\n\n"
            "[covariate B]\nprevalence = 0.6\nhomophily_h = 0.2\n\n[correlations]\nA:B = 0.1\n"
        )
        spec, n, seed = covariate_spec_from_config(parse_config(text))
        assert spec.names == ("A", "B")
        assert spec.marginals.tolist() == [0.3, 0.6]
        assert spec.correlations[0, 1] == 0.1
        assert (n, seed) == (10, 0)

    def test_covgen_still_checks_given_network_targets(self):
        both = (
            "[covgen]\nn = 10\n\n[covariate A]\nprevalence = 0.3\n"
            "homophily_r = 1\nhomophily_h = 0.1\n"
        )
        with pytest.raises(ConfigError, match="needs exactly one of homophily_r or homophily_h"):
            covariate_spec_from_config(parse_config(both))
        negative = "[covgen]\nn = 10\n\n[covariate A]\nprevalence = 0.3\ndiff_activity = -1\n"
        with pytest.raises(ConfigError, match="diff_activity must be positive"):
            covariate_spec_from_config(parse_config(negative))
        # an engage config's covariate sections, targets and all, still work
        covariates = ENGAGE_CFG[ENGAGE_CFG.index("[covariate A]"):]
        spec, _, _ = covariate_spec_from_config(parse_config("[covgen]\nn = 50\n\n" + covariates))
        assert spec.marginals.tolist() == [0.5, 0.3]

    def test_correlation_key_validation(self):
        bad = ENGAGE_CFG.replace("A:B = 0.08", "A:C = 0.08")
        with pytest.raises(ConfigError, match="NAME:NAME"):
            engage_scenario_from_config(parse_config(bad))
        dup = ENGAGE_CFG.replace("A:B = 0.08", "A:B = 0.08\nB:A = 0.08")
        with pytest.raises(ConfigError, match="duplicate pair"):
            engage_scenario_from_config(parse_config(dup))


class TestCliNetgen:
    def test_fig_style_run_writes_artifacts(self, tmp_path, capsys):
        cfg = tmp_path / "net.cfg"
        cfg.write_text(FIG_NETWORK_CFG)
        out = tmp_path / "out"
        code = main(["netgen", "--config", str(cfg), "--out", str(out), "--seed", "3"])
        assert code == 0
        assert (out / "edges.csv").exists()
        assert (out / "attributes.csv").exists()
        manifest = (out / "manifest.txt").read_text()
        assert "command = netgen" in manifest
        assert "master-seed = 3" in manifest
        assert "homophily_r = 0.40" in manifest
        assert f"numpy-version = {np.__version__}" in manifest
        assert "python-version = " in manifest and "numpy-version = " in manifest
        assert "scipy-version" not in manifest
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        assert f"blas-name = {blas['name']}\nblas-version = {blas['version']}\n" in manifest
        assert f"blas-configuration = {blas['openblas configuration']}\n" in manifest
        core = _blas_core()
        assert ("blas-core = " in manifest) == (core is not None)
        if core is not None:
            assert f"blas-configuration = {blas['openblas configuration']}\nblas-core = {core}\n" in manifest
        printed = capsys.readouterr().out
        assert "mean_degree=" in printed and "prevalence=" in printed

    def test_manifest_names_the_forced_blas_kernel(self, tmp_path):
        if _blas_core() is None:
            pytest.skip("numpy bundles no scipy-openblas whose kernel name can be read")
        cfg = tmp_path / "cov.cfg"
        cfg.write_text("[covgen]\nn = 10\nseed = 1\n\n[covariate A]\nprevalence = 0.3\n")
        out = tmp_path / "out"
        src = Path(__file__).resolve().parent.parent / "src"
        result = subprocess.run(
            [sys.executable, "-m", "rdsim.cli", "covgen", "--config", str(cfg), "--out", str(out), "-q"],
            env=dict(os.environ, PYTHONPATH=str(src), OPENBLAS_CORETYPE="Haswell"),
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert result.returncode == 0, result.stderr
        assert "\nblas-core = Haswell\n" in (out / "manifest.txt").read_text()

    def test_homophily_near_one_finishes(self, tmp_path):
        # ratio about 2e6: the bisection that inverted the assortativity
        # never met its absolute tolerance above a ratio of 2**19
        cfg = tmp_path / "net.cfg"
        cfg.write_text(
            "[network]\nn = 200\np = 0.5\nmean_degree = 4\ndiff_activity = 1\nhomophily_h = 0.999999\n"
        )
        out = tmp_path / "out"
        src = Path(__file__).resolve().parent.parent / "src"
        result = subprocess.run(
            [sys.executable, "-m", "rdsim.cli", "netgen", "--config", str(cfg), "--out", str(out), "-q"],
            env=dict(os.environ, PYTHONPATH=str(src)),
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert result.returncode == 0, result.stderr
        assert len(read_edge_list(out / "edges.csv", 200).src) > 0

    def test_summary_labels_undefined_ratio(self):
        # two within-group edges: assortativity is 1, the ratio has no cross edges
        stats = _attribute_stats(Graph(4, [0, 2], [1, 3]), [1, 1, 0, 0])
        assert stats[-2:] == ["homophily=1", "homophily_ratio=undefined"]

    def test_infeasible_targets_fail_naming_bound(self, tmp_path, capsys):
        cfg = tmp_path / "net.cfg"
        cfg.write_text(
            "[network]\nn = 100\np = 0.8\nmean_degree = 10\ndiff_activity = 4\nhomophily_r = 1\n"
        )
        code = main(["netgen", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert code == 1
        assert "e00" in capsys.readouterr().err

    def test_config_error_exit_code(self, tmp_path, capsys):
        cfg = tmp_path / "net.cfg"
        cfg.write_text("[network]\nn = 12\nbogus = 1\n")
        code = main(["netgen", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert code == 2
        assert "unknown key" in capsys.readouterr().err

    def test_multi_attribute_generation(self, tmp_path, capsys):
        cfg = tmp_path / "multi.cfg"
        cfg.write_text(
            "[network]\nn = 600\nmean_degree = 8\n\n"
            "[covariate A]\nprevalence = 0.5\ndiff_activity = 1.2\nhomophily_h = 0.1\n\n"
            "[covariate B]\nprevalence = 0.3\ndiff_activity = 0.9\nhomophily_r = 0.5\n\n"
            "[correlations]\nA:B = 0.1\n"
        )
        out = tmp_path / "out"
        assert main(["netgen", "--config", str(cfg), "--out", str(out), "--seed", "6"]) == 0
        attrs = (out / "attributes.csv").read_text().splitlines()
        assert attrs[0] == "node,A,B"
        assert len(attrs) == 601
        printed = capsys.readouterr().out
        assert "A: " in printed and "B: " in printed

    def test_multi_attribute_rejects_single_target_keys(self, tmp_path, capsys):
        cfg = tmp_path / "multi.cfg"
        cfg.write_text(
            "[network]\nn = 100\nmean_degree = 5\np = 0.5\n\n"
            "[covariate A]\nprevalence = 0.5\ndiff_activity = 1.0\nhomophily_r = 1\n"
        )
        assert main(["netgen", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert "not allowed with covariate sections" in capsys.readouterr().err

    def test_multi_attribute_rejects_mode(self, tmp_path, capsys):
        cfg = tmp_path / "multi.cfg"
        cfg.write_text(
            "[network]\nn = 100\nmean_degree = 5\nmode = bernoulli\n\n"
            "[covariate A]\nprevalence = 0.5\ndiff_activity = 1.0\nhomophily_r = 1\n"
        )
        assert main(["netgen", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert "key 'mode' not allowed with covariate sections" in capsys.readouterr().err

    def test_non_finite_target_is_config_error(self, tmp_path, capsys):
        cfg = tmp_path / "net.cfg"
        cfg.write_text(FIG_NETWORK_CFG.replace("diff_activity = 1.16", "diff_activity = nan"))
        assert main(["netgen", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert "[network] diff_activity = 'nan' is not a finite number" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "old, new, message",
        [
            ("p = 0.33", "p = 1.5", "prevalence must be strictly inside (0, 1)"),
            ("homophily_r = 0.40", "homophily_h = 1.5", "assortativity 1.5 not attainable"),
        ],
        ids=["prevalence", "assortativity"],
    )
    def test_out_of_range_target_is_config_error(self, tmp_path, capsys, old, new, message):
        cfg = tmp_path / "net.cfg"
        cfg.write_text(FIG_NETWORK_CFG.replace(old, new))
        assert main(["netgen", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert f"config error: {cfg}: [network] {message}" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_quiet_flag(self, tmp_path, capsys):
        cfg = tmp_path / "net.cfg"
        cfg.write_text(FIG_NETWORK_CFG)
        code = main(["netgen", "--config", str(cfg), "--out", str(tmp_path / "o"), "--quiet"])
        assert code == 0
        assert capsys.readouterr().out == ""


class TestCliPipeline:
    def test_rds_then_estimate(self, tmp_path, capsys):
        net_cfg = tmp_path / "net.cfg"
        net_cfg.write_text(
            "[network]\nn = 60\np = 0.5\nmean_degree = 6\ndiff_activity = 1\nhomophily_r = 1\n"
        )
        net_out = tmp_path / "net"
        assert main(["netgen", "--config", str(net_cfg), "--out", str(net_out), "--seed", "1"]) == 0

        rds_cfg = tmp_path / "rds.cfg"
        rds_cfg.write_text("[rds]\nseeds = 2\ncoupons = 2\nsample_size = 30\n")
        rds_out = tmp_path / "rds"
        assert (
            main(
                [
                    "rds",
                    "--config", str(rds_cfg),
                    "--edges", str(net_out / "edges.csv"),
                    "--attributes", str(net_out / "attributes.csv"),
                    "--out", str(rds_out),
                    "--seed", "2",
                ]
            )
            == 0
        )
        assert (rds_out / "forest.csv").exists()

        est_out = tmp_path / "est"
        assert (
            main(
                [
                    "estimate",
                    "--forest", str(rds_out / "forest.csv"),
                    "--edges", str(net_out / "edges.csv"),
                    "--out", str(est_out),
                ]
            )
            == 0
        )
        text = (est_out / "estimates.csv").read_text().splitlines()
        assert text[0].startswith("forest,sample_size,max_wave,est_diff_activity_z")
        assert "est_induced_homophily_z" in text[0]

    def test_rds_sample_larger_than_population_names_both_sizes(self, tmp_path, capsys):
        net_cfg = tmp_path / "net.cfg"
        net_cfg.write_text(FIG_NETWORK_CFG)
        net_out = tmp_path / "net"
        assert main(["netgen", "--config", str(net_cfg), "--out", str(net_out), "--quiet"]) == 0
        rds_cfg = tmp_path / "rds.cfg"
        rds_cfg.write_text("[rds]\nseeds = 2\ncoupons = 2\nsample_size = 100\n")
        argv = ["rds", "--config", str(rds_cfg), "--out", str(tmp_path / "rds")]
        argv += ["--edges", str(net_out / "edges.csv"), "--attributes", str(net_out / "attributes.csv")]
        assert main(argv) == 1
        assert capsys.readouterr().err == "error: target_sample_size 100 exceeds the population size 12\n"
        assert not (tmp_path / "rds").exists()

    def test_estimate_edges_when_highest_node_unsampled(self, tmp_path):
        # A small sample rarely reaches the population's highest-indexed node,
        # so the graph size must not be taken from the sampled nodes.
        net_cfg = tmp_path / "net.cfg"
        net_cfg.write_text(
            "[network]\nn = 1000\np = 0.5\nmean_degree = 10\ndiff_activity = 1\nhomophily_r = 1\n"
        )
        net_out = tmp_path / "net"
        assert main(["netgen", "--config", str(net_cfg), "--out", str(net_out), "--seed", "1", "-q"]) == 0
        rds_cfg = tmp_path / "rds.cfg"
        rds_cfg.write_text("[rds]\nseeds = 2\ncoupons = 2\nsample_size = 20\n")
        rds_out = tmp_path / "rds"
        edges = str(net_out / "edges.csv")
        attributes = str(net_out / "attributes.csv")
        rds_args = ["rds", "--config", str(rds_cfg), "--edges", edges, "--attributes", attributes]
        assert main(rds_args + ["--out", str(rds_out), "--seed", "1", "-q"]) == 0
        forest = read_forest(rds_out / "forest.csv")
        assert forest.nodes.max() < read_edge_list(edges, 1000).dst.max()

        forest_path = str(rds_out / "forest.csv")
        est_out = tmp_path / "est"
        assert main(["estimate", "--forest", forest_path, "--edges", edges, "--out", str(est_out), "-q"]) == 0
        with open(est_out / "estimates.csv", newline="") as fh:
            row = next(csv.DictReader(fh))
        assert row["est_induced_homophily_z"] != ""

    def test_estimate_edges_with_nine_attribute_columns(self, tmp_path):
        # more columns than one node mark holds, as a cohort file's covariates can be
        rng = np.random.default_rng(8)
        graph, _, _ = random_graph(60, 0.15, rng)
        names = tuple(f"c{k}" for k in range(9))
        z = (rng.random((60, 9)) < np.linspace(0.1, 0.9, 9)).astype(np.int8)
        forest = run_rds(graph, z, SamplerConfig(3, 2, 40), rng, names)
        write_forest(forest, tmp_path / "forest.csv")
        write_edge_list(graph, tmp_path / "edges.csv")
        argv = ["estimate", "--forest", str(tmp_path / "forest.csv"), "--edges", str(tmp_path / "edges.csv")]
        assert main(argv + ["--out", str(tmp_path / "est"), "-q"]) == 0
        with open(tmp_path / "est" / "estimates.csv", newline="") as fh:
            row = next(csv.DictReader(fh))
        for name, counts in zip(names, networkx_induced_counts(forest, graph)):
            written = row[f"est_induced_homophily_{name}"]
            assert (float(written) if written else None) == or_none(newman_assortativity, counts)

    def test_estimate_equal_degrees_rds2_equals_crude(self, tmp_path):
        # a 6-cycle: every degree is 2, so the weighting cancels
        edges = "src,dst\n0,1\n1,2\n2,3\n3,4\n4,5\n0,5\n"
        attrs = "node,z\n0,1\n1,0\n2,1\n3,0\n4,1\n5,0\n"
        (tmp_path / "edges.csv").write_text(edges)
        (tmp_path / "attributes.csv").write_text(attrs)
        rds_cfg = tmp_path / "rds.cfg"
        rds_cfg.write_text("[rds]\nseeds = 1\ncoupons = 2\nsample_size = 4\n")
        rds_out = tmp_path / "rds"
        assert (
            main(
                [
                    "rds",
                    "--config", str(rds_cfg),
                    "--edges", str(tmp_path / "edges.csv"),
                    "--attributes", str(tmp_path / "attributes.csv"),
                    "--out", str(rds_out),
                    "--seed", "9",
                ]
            )
            == 0
        )
        est_out = tmp_path / "est"
        assert main(["estimate", "--forest", str(rds_out / "forest.csv"), "--out", str(est_out)]) == 0
        import csv as csv_mod

        with open(est_out / "estimates.csv", newline="") as fh:
            row = next(csv_mod.DictReader(fh))
        assert float(row["est_rds2_prevalence_z"]) == float(row["est_crude_prevalence_z"])

    def test_estimate_header_covers_every_forest(self, tmp_path):
        a = tmp_path / "a.csv"
        a.write_text(FOREST_CSV)
        b = tmp_path / "b.csv"
        b.write_text(
            "node,recruiter,wave,seed_id,coupon_index,degree,A,B\n"
            "4,,0,0,,1,1,0\n2,4,1,0,0,2,0,0\n7,2,2,0,0,1,1,1\n"
        )
        assert main(["estimate", "--forest", str(a), str(b), "--out", str(tmp_path), "-q"]) == 0
        with open(tmp_path / "estimates.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        fields = ("diff_activity", "homophily", "homophily_ratio", "rds2_prevalence", "crude_prevalence")
        assert list(rows[0]) == ["forest", "sample_size", "max_wave"] + [
            f"est_{field}_{name}" for name in ("z", "A", "B") for field in fields
        ]
        assert rows[0]["est_crude_prevalence_z"] == repr(2 / 3) and rows[0]["est_crude_prevalence_A"] == ""
        assert rows[1]["est_crude_prevalence_z"] == "" and rows[1]["est_crude_prevalence_A"] == repr(2 / 3)
        assert rows[1]["est_crude_prevalence_B"] == repr(1 / 3)


FOREST_CSV = "node,recruiter,wave,seed_id,coupon_index,degree,z\n0,,0,0,,2,1\n1,0,1,0,0,2,0\n2,1,2,0,0,1,1\n"


class TestCliMalformedFiles:
    """Malformed or inconsistent input files exit 1 with one ``error:`` line naming the file."""

    def _fails_naming(self, capsys, argv, path):
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(path) in err
        assert err.count("\n") == 1

    def _rds_argv(self, tmp_path, edges, attributes):
        (tmp_path / "edges.csv").write_text(edges)
        (tmp_path / "attributes.csv").write_text(attributes)
        (tmp_path / "rds.cfg").write_text("[rds]\nseeds = 1\ncoupons = 2\nsample_size = 3\n")
        return [
            "rds",
            "--config", str(tmp_path / "rds.cfg"),
            "--edges", str(tmp_path / "edges.csv"),
            "--attributes", str(tmp_path / "attributes.csv"),
            "--out", str(tmp_path / "out"),
        ]

    def test_rds_attribute_outside_int8(self, tmp_path, capsys):
        argv = self._rds_argv(tmp_path, "src,dst\n0,1\n1,2\n", "node,z\n0,256\n1,1\n2,0\n")
        self._fails_naming(capsys, argv, tmp_path / "attributes.csv")

    def test_rds_ragged_edge_list(self, tmp_path, capsys):
        argv = self._rds_argv(tmp_path, "src,dst\n0,1\n1,2,3\n", "node,z\n0,1\n1,1\n2,0\n")
        self._fails_naming(capsys, argv, tmp_path / "edges.csv")

    def test_rds_empty_endpoint(self, tmp_path, capsys):
        argv = self._rds_argv(tmp_path, "src,dst\n0,1\n1,\n", "node,z\n0,1\n1,1\n2,0\n")
        self._fails_naming(capsys, argv, tmp_path / "edges.csv")

    def test_rds_attribute_file_shorter_than_the_edges_reach(self, tmp_path, capsys):
        # rds takes the population size from the attribute rows, 3 here
        argv = self._rds_argv(tmp_path, "src,dst\n0,1\n2,5\n", "node,z\n0,1\n1,1\n2,0\n")
        assert main(argv) == 1
        edges = tmp_path / "edges.csv"
        assert capsys.readouterr().err == f"error: {edges}: edge endpoint out of range: 5 is not in 0..2\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("recruiter", ["9", "3", "2", ""])
    def test_estimate_inconsistent_recruiter(self, tmp_path, capsys, recruiter):
        # 9 used to crash with an IndexError, 3 was scored as a node with z=0
        forest = tmp_path / "forest.csv"
        forest.write_text(FOREST_CSV.replace("\n2,1,2,", f"\n2,{recruiter},2,"))
        self._fails_naming(capsys, ["estimate", "--forest", str(forest), "--out", str(tmp_path / "o")], forest)

    def test_estimate_malformed_edge_list(self, tmp_path, capsys):
        forest = tmp_path / "forest.csv"
        forest.write_text(FOREST_CSV)
        edges = tmp_path / "edges.csv"
        for text in ("src,dst\n0,1\n# 1,2\n", "src,dst\n0,1\n1,1\n"):
            edges.write_text(text)
            argv = ["estimate", "--forest", str(forest), "--edges", str(edges), "--out", str(tmp_path / "o")]
            self._fails_naming(capsys, argv, edges)

    def test_estimate_forest_from_another_network(self, tmp_path, capsys):
        # the recruitment tie 1-2 is no edge of this network: the forest was drawn on another
        forest = tmp_path / "forest.csv"
        forest.write_text(FOREST_CSV)
        edges = tmp_path / "edges.csv"
        edges.write_text("src,dst\n0,1\n0,2\n")
        out = tmp_path / "o"
        assert main(["estimate", "--forest", str(forest), "--edges", str(edges), "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: {forest}: tie 1-2 is not an edge of {edges}\n"
        assert not out.exists()

    def test_estimate_edges_with_huge_node_index(self, tmp_path, capsys):
        # the Graph for the induced-subgraph oracle used to end in a numpy
        # MemoryError ("Unable to allocate 7.28 TiB") instead of an error line
        forest = tmp_path / "forest.csv"
        forest.write_text(
            "node,recruiter,wave,seed_id,coupon_index,degree,z\n"
            f"{10**12},,0,0,,2,1\n5,{10**12},1,0,0,1,0\n7,{10**12},1,0,1,1,1\n"
        )
        edges = tmp_path / "edges.csv"
        edges.write_text(f"src,dst\n5,{10**12}\n7,{10**12}\n")
        argv = ["estimate", "--forest", str(forest), "--edges", str(edges), "--out", str(tmp_path / "o")]
        self._fails_naming(capsys, argv, edges)

    def test_estimate_edges_blames_forest_holding_huge_node(self, tmp_path, capsys):
        # the node count comes from the forest, so the well-formed edge list
        # must not be named
        forest = tmp_path / "forest.csv"
        forest.write_text(
            "node,recruiter,wave,seed_id,coupon_index,degree,z\n"
            f"{10**12},,0,0,,2,1\n5,{10**12},1,0,0,1,0\n7,{10**12},1,0,1,1,1\n"
        )
        edges = tmp_path / "edges.csv"
        edges.write_text("src,dst\n5,7\n")
        argv = ["estimate", "--forest", str(forest), "--edges", str(edges), "--out", str(tmp_path / "o")]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {forest}: node_count must be <=") and err.count("\n") == 1

    def test_estimate_attribute_names_that_spell_one_column_twice(self, tmp_path, capsys):
        forest = tmp_path / "forest.csv"
        forest.write_text(
            "node,recruiter,wave,seed_id,coupon_index,degree,X,ratio_X\n0,,0,0,,2,1,0\n1,0,1,0,0,2,0,1\n2,1,2,0,0,1,1,1\n"
        )
        out = tmp_path / "out"
        self._fails_naming(capsys, ["estimate", "--forest", str(forest), "--out", str(out)], forest)
        assert not out.exists()
        main(["estimate", "--forest", str(forest), "--out", str(out)])
        assert capsys.readouterr().err == (
            f"error: {forest}: column 'est_homophily_ratio_X' would hold both homophily_ratio of "
            "attribute 'X' and homophily of attribute 'ratio_X'\n"
        )

    def test_estimate_forests_that_spell_one_column_twice(self, tmp_path, capsys):
        first, second = tmp_path / "x.csv", tmp_path / "ratio_x.csv"
        first.write_text(FOREST_CSV.replace(",z", ",X"))
        second.write_text(FOREST_CSV.replace(",z", ",ratio_X"))
        out = tmp_path / "out"
        argv = ["estimate", "--forest", str(first), str(second), "--out", str(out), "-q"]
        self._fails_naming(capsys, argv, second)
        assert not out.exists()
        main(argv)
        assert capsys.readouterr().err == (
            f"error: {first} and {second}: column 'est_homophily_ratio_X' would hold both homophily_ratio of "
            "attribute 'X' and homophily of attribute 'ratio_X'\n"
        )
        # one forest naming both attributes is no collision across forests
        assert main(["estimate", "--forest", str(first), str(first), "--out", str(out), "-q"]) == 0

    def test_estimate_columns(self, tmp_path):
        forest = tmp_path / "forest.csv"
        forest.write_text(FOREST_CSV)
        edges = tmp_path / "edges.csv"
        edges.write_text("src,dst\n0,1\n1,2\n0,3\n")
        assert main(["estimate", "--forest", str(forest), "--edges", str(edges), "--out", str(tmp_path), "-q"]) == 0
        header = (tmp_path / "estimates.csv").read_text().splitlines()[0]
        assert header == (
            "forest,sample_size,max_wave,est_diff_activity_z,est_homophily_z,est_homophily_ratio_z,"
            "est_rds2_prevalence_z,est_crude_prevalence_z,est_induced_homophily_z"
        )


class TestCliExperiment:
    def test_same_seed_same_bytes_across_threads(self, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(EXPERIMENT_CFG)
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        assert main(["experiment", "--config", str(cfg), "--out", str(out_a), "--threads", "1"]) == 0
        assert main(["experiment", "--config", str(cfg), "--out", str(out_b), "--threads", "2"]) == 0
        for name in ("replicates.csv", "summary.csv"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()

    def test_seed_override_changes_outputs_and_manifest(self, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(EXPERIMENT_CFG)
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        assert main(["experiment", "--config", str(cfg), "--out", str(out_a)]) == 0
        assert main(["experiment", "--config", str(cfg), "--out", str(out_b), "--seed", "78"]) == 0
        assert (out_a / "replicates.csv").read_bytes() != (out_b / "replicates.csv").read_bytes()
        assert "master-seed = 78" in (out_b / "manifest.txt").read_text()
        assert "seed = 78" in (out_b / "manifest.txt").read_text()

    @pytest.mark.parametrize(
        "old, new, message",
        [
            ("mean_degree = 10", "mean_degree = nan", "[network] mean_degree = 'nan' is not a finite number"),
            ("replicates = 2\n", "", "missing key 'replicates' in [experiment]"),
        ],
        ids=["non-finite-mean-degree", "missing-replicates"],
    )
    def test_bad_config_fails_early(self, tmp_path, capsys, old, new, message):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(EXPERIMENT_CFG.replace(old, new))
        out = tmp_path / "out"
        assert main(["experiment", "--config", str(cfg), "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"config error: {cfg}: {message}\n"
        assert not out.exists()

    def test_non_finite_sweep_value_fails_before_the_run(self, tmp_path, capsys):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(EXPERIMENT_CFG.replace("diff_activity = 1, 4", "diff_activity = 1, nan"))
        out = tmp_path / "out"
        assert main(["experiment", "--config", str(cfg), "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "[network] diff_activity = 'nan' is not a finite number" in captured.err
        assert not out.exists()

    @pytest.mark.parametrize(
        "old, new, message",
        [
            ("p = 0.5, 0.8", "p = 0.5, 1.5", "prevalence must be strictly inside (0, 1)"),
            ("homophily_r = 1", "homophily_r = 1, -1", "homophily_ratio must be nonnegative"),
            ("mean_degree = 10", "mean_degree = 5000", "mean_degree must be in (0, node_count - 1]"),
        ],
        ids=["prevalence", "ratio", "mean_degree"],
    )
    def test_out_of_range_target_fails_before_the_run(self, tmp_path, capsys, old, new, message):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(EXPERIMENT_CFG.replace(old, new))
        out = tmp_path / "out"
        assert main(["experiment", "--config", str(cfg), "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"config error: {cfg}: {message}" in captured.err
        assert not out.exists()

    @pytest.mark.parametrize(
        "old, new, message",
        [
            ("p = 0.5, 0.8", "p = 0.5, 0.8, 0.50", "[network] p = '0.5, 0.8, 0.50' repeats a value"),
            ("diff_activity = 1, 4", "diff_activity = 1, 1.0", "[network] diff_activity = '1, 1.0' repeats a value"),
            ("homophily_r = 1", "homophily_r = 2, 1, 2", "[network] homophily_r = '2, 1, 2' repeats a value"),
            ("sample_size = 40, 60", "sample_size = 60, 40, 60", "[rds] sample_size = '60, 40, 60' repeats a value"),
        ],
        ids=["p", "diff_activity", "homophily_r", "sample_size"],
    )
    def test_repeated_grid_value_fails_before_the_run(self, tmp_path, capsys, old, new, message):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(EXPERIMENT_CFG.replace(old, new))
        out = tmp_path / "out"
        assert main(["experiment", "--config", str(cfg), "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"config error: {cfg}: {message}\n"
        assert not out.exists()

    def test_skipped_cells_warn_but_exit_zero(self, tmp_path, capsys):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(EXPERIMENT_CFG)
        out = tmp_path / "out"
        code = main(["experiment", "--config", str(cfg), "--out", str(out)])
        assert code == 0
        err = capsys.readouterr().err
        assert "skipped" in err  # the p=0.8/Da=4 and related cells


class TestCliEngage:
    def test_run_and_manifest(self, tmp_path):
        cfg = tmp_path / "engage.cfg"
        cfg.write_text(ENGAGE_CFG)
        out = tmp_path / "out"
        assert main(["engage-mimic", "--config", str(cfg), "--out", str(out), "-q"]) == 0
        manifest = (out / "manifest.txt").read_text()
        assert "n = 1010" in manifest
        assert "sample_size = 80" in manifest
        assert (out / "replicates.csv").exists()
        assert (out / "summary.csv").exists()

    @pytest.mark.parametrize("mean_degree", ["0", "1009.5"])
    def test_out_of_range_mean_degree_fails_before_the_run(self, tmp_path, capsys, mean_degree):
        cfg = tmp_path / "engage.cfg"
        cfg.write_text(ENGAGE_CFG.replace("mean_degree = 10", f"mean_degree = {mean_degree}"))
        out = tmp_path / "out"
        assert main(["engage-mimic", "--config", str(cfg), "--out", str(out)]) == 2
        message = f"config error: {cfg}: mean_degree must be in (0, node_count - 1]\n"
        assert capsys.readouterr().err == message
        assert not out.exists()

    def test_non_finite_covariate_target_is_config_error(self, tmp_path, capsys):
        cfg = tmp_path / "engage.cfg"
        cfg.write_text(ENGAGE_CFG.replace("diff_activity = 0.9", "diff_activity = inf"))
        out = tmp_path / "out"
        assert main(["engage-mimic", "--config", str(cfg), "--out", str(out)]) == 2
        assert "[covariate B] diff_activity = 'inf' is not a finite number" in capsys.readouterr().err
        assert not out.exists()


    def test_covariate_names_that_spell_one_column_twice_fail_before_the_run(self, tmp_path, capsys):
        cfg = tmp_path / "engage.cfg"
        text = ENGAGE_CFG.replace("[covariate A]", "[covariate X]").replace("[covariate B]", "[covariate ratio_X]")
        cfg.write_text(text.replace("A:B", "X:ratio_X"))
        out = tmp_path / "out"
        assert main(["engage-mimic", "--config", str(cfg), "--out", str(out)]) == 2
        assert capsys.readouterr() == ("", f"config error: {cfg}: column name 'truth_homophily_ratio_X' is repeated\n")
        assert not out.exists()


class TestCliCovgen:
    def test_writes_attributes(self, tmp_path, capsys):
        cfg = tmp_path / "cov.cfg"
        cfg.write_text(
            "[covgen]\nn = 2000\nseed = 4\n\n"
            "[covariate left]\nprevalence = 0.3\ndiff_activity = 1.0\nhomophily_r = 1\n\n"
            "[covariate right]\nprevalence = 0.7\ndiff_activity = 1.0\nhomophily_r = 1\n\n"
            "[correlations]\nleft:right = 0.2\n"
        )
        out = tmp_path / "out"
        assert main(["covgen", "--config", str(cfg), "--out", str(out)]) == 0
        lines = (out / "attributes.csv").read_text().splitlines()
        assert lines[0] == "node,left,right"
        assert len(lines) == 2001
        values = np.array([[int(v) for v in line.split(",")[1:]] for line in lines[1:]])
        assert abs(values[:, 0].mean() - 0.3) < 0.05
        assert abs(values[:, 1].mean() - 0.7) < 0.05

    def test_seed_override_is_echoed_in_the_manifest(self, tmp_path):
        covariates = ENGAGE_CFG[ENGAGE_CFG.index("[covariate A]"):]
        flagged = tmp_path / "flagged.cfg"
        flagged.write_text(f"[covgen]\nn = 200\nseed = 4\n\n{covariates}")
        written = tmp_path / "written.cfg"
        written.write_text(f"[covgen]\nn = 200\nseed = 9\n\n{covariates}")
        assert main(["covgen", "--config", str(flagged), "--out", str(tmp_path / "a"), "--seed", "9", "-q"]) == 0
        assert main(["covgen", "--config", str(written), "--out", str(tmp_path / "b"), "-q"]) == 0
        manifest = (tmp_path / "a" / "manifest.txt").read_text()
        assert "master-seed = 9\n" in manifest
        assert "[covgen]\nn = 200\nseed = 9\n" in manifest
        # the echoed config reproduces the run: same manifest, same bytes
        assert manifest == (tmp_path / "b" / "manifest.txt").read_text()
        assert (tmp_path / "a" / "attributes.csv").read_bytes() == (tmp_path / "b" / "attributes.csv").read_bytes()


@pytest.mark.parametrize(
    "command, section, text",
    [
        ("experiment", "experiment", EXPERIMENT_CFG[:EXPERIMENT_CFG.index("[experiment]")]),
        ("engage-mimic", "engage", ENGAGE_CFG[ENGAGE_CFG.index("[covariate A]"):]),
        ("covgen", "covgen", ENGAGE_CFG[ENGAGE_CFG.index("[covariate A]"):]),
    ],
    ids=["experiment", "engage-mimic", "covgen"],
)
def test_seed_override_adds_no_missing_section(tmp_path, capsys, command, section, text):
    cfg = tmp_path / "no-section.cfg"
    cfg.write_text(text)
    out = tmp_path / "out"
    assert main([command, "--config", str(cfg), "--out", str(out), "--seed", "3"]) == 2
    assert capsys.readouterr().err == f"config error: {cfg}: missing required section(s): {section}\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "argv, text, message",
    [
        (["netgen", "--seed", "-2"], FIG_NETWORK_CFG, "seed must be nonnegative, got -2"),
        (["rds", "--seed", "-1"], "[rds]\nseeds = 1\ncoupons = 2\nsample_size = 3\n", "seed must be nonnegative, got -1"),
        (["covgen", "--seed", "-1"], "[covgen]\nn = 10\n\n[covariate A]\nprevalence = 0.5\n",
         "[covgen] seed must be nonnegative, got -1"),
        (["covgen"], "[covgen]\nn = 10\nseed = -1\n\n[covariate A]\nprevalence = 0.5\n",
         "[covgen] seed must be nonnegative, got -1"),
        (["experiment", "--seed", "-1"], EXPERIMENT_CFG, "master_seed must be nonnegative"),
    ],
    ids=["netgen", "rds", "covgen-flag", "covgen-config", "experiment"],
)
def test_negative_seed_fails_before_any_output(tmp_path, capsys, argv, text, message):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(text)
    (tmp_path / "edges.csv").write_text("src,dst\n0,1\n1,2\n")
    (tmp_path / "attributes.csv").write_text("node,z\n0,1\n1,0\n2,1\n")
    files = ["--edges", str(tmp_path / "edges.csv"), "--attributes", str(tmp_path / "attributes.csv")]
    out = tmp_path / "out"
    argv = argv + ["--config", str(cfg), "--out", str(out)] + (files if argv[0] == "rds" else [])
    assert main(argv) == 2
    assert capsys.readouterr() == ("", f"config error: {cfg}: {message}\n")
    assert not out.exists()


@pytest.mark.parametrize("command", ["experiment", "engage-mimic"])
def test_desk_scale_is_an_unrecognized_argument(tmp_path, capsys, command):
    with pytest.raises(SystemExit) as exc:
        main([command, "--config", str(tmp_path / "any.cfg"), "--desk-scale"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --desk-scale" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["experiment", "engage-mimic"])
@pytest.mark.parametrize("threads", ["abc", "1.5", ""])
def test_non_integer_threads_ask_for_an_integer(tmp_path, capsys, command, threads):
    with pytest.raises(SystemExit) as exc:
        main([command, "--config", str(tmp_path / "any.cfg"), "--threads", threads])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"argument --threads: must be an integer >= 1, got {threads!r}" in err
    assert "_positive_int" not in err


@pytest.mark.parametrize(
    "command, sizes, message",
    [
        ("covgen", "[covgen]\nn = 0\n", "[covgen] n must be >= 1"),
        ("netgen", "[network]\nn = 50\nmean_degree = 0\n", "[network] mean_degree must be in (0, n - 1]"),
        ("netgen", "[network]\nn = 50\nmean_degree = -3\n", "[network] mean_degree must be in (0, n - 1]"),
        ("netgen", "[network]\nn = 50\nmean_degree = 500\n", "[network] mean_degree must be in (0, n - 1]"),
        ("netgen", "[network]\nn = 1\nmean_degree = 0.5\n", "[network] n must be >= 2"),
    ],
    ids=["covgen-n-0", "netgen-mean-degree-0", "netgen-mean-degree-negative",
         "netgen-mean-degree-above-n", "netgen-n-1"],
)
def test_out_of_range_size_fails_before_the_run(tmp_path, capsys, command, sizes, message):
    cfg = tmp_path / "cov.cfg"
    covariates = ENGAGE_CFG[ENGAGE_CFG.index("[covariate A]"):]
    cfg.write_text(f"{sizes}\n{covariates}")
    out = tmp_path / "out"
    assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"config error: {cfg}: {message}\n"
    assert not out.exists()


def covariate_sections(count: int) -> str:
    section = "[covariate c{}]\nprevalence = 0.5\ndiff_activity = 1\nhomophily_r = 1\n\n"
    return "".join(section.format(k) for k in range(count))


@pytest.mark.parametrize(
    "command, head",
    [
        ("engage-mimic", ENGAGE_CFG[:ENGAGE_CFG.index("[covariate A]")]),
        ("netgen", "[network]\nn = 50\nmean_degree = 4\n\n"),
    ],
    ids=["engage-mimic", "netgen"],
)
def test_too_many_covariates_for_a_network_fail_before_the_run(tmp_path, capsys, command, head):
    cfg = tmp_path / "many.cfg"
    cfg.write_text(head + covariate_sections(MAX_PATTERN_ATTRIBUTES + 1))
    out = tmp_path / "out"
    assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
    message = (
        f"config error: {cfg}: a network takes at most 62 covariates (netgen.MAX_PATTERN_ATTRIBUTES), "
        "got 63 [covariate NAME] sections\n"
    )
    assert capsys.readouterr() == ("", message)
    assert not out.exists()
    # the most a network takes is a valid config
    cfg.write_text(head + covariate_sections(MAX_PATTERN_ATTRIBUTES))
    build = engage_scenario_from_config if command == "engage-mimic" else multi_network_run_from_config
    build(parse_config(cfg.read_text()))


@pytest.mark.parametrize(
    "command, head",
    [
        ("engage-mimic", ENGAGE_CFG[:ENGAGE_CFG.index("[covariate A]")]),
        ("netgen", "[network]\nn = 50\nmean_degree = 4\n\n"),
        ("covgen", "[covgen]\nn = 20\n\n"),
    ],
    ids=["engage-mimic", "netgen", "covgen"],
)
def test_covariate_names_equal_once_stripped_fail_before_the_run(tmp_path, capsys, command, head):
    # two sections, one name: "[covariate  A]" names "A" as "[covariate A]" does
    covariates = ENGAGE_CFG[ENGAGE_CFG.index("[covariate A]"):ENGAGE_CFG.index("[correlations]")]
    cfg = tmp_path / "twice.cfg"
    cfg.write_text(head + covariates.replace("[covariate B]", "[covariate  A]"))
    out = tmp_path / "out"
    assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
    assert capsys.readouterr() == ("", f"config error: {cfg}: covariate names must be unique\n")
    assert not out.exists()


def test_covgen_takes_more_covariates_than_a_network(tmp_path):
    cfg = tmp_path / "many.cfg"
    cfg.write_text("[covgen]\nn = 20\n\n" + covariate_sections(MAX_PATTERN_ATTRIBUTES + 1))
    out = tmp_path / "out"
    assert main(["covgen", "--config", str(cfg), "--out", str(out), "-q"]) == 0
    header = (out / "attributes.csv").read_text().splitlines()[0]
    assert header == "node," + ",".join(f"c{k}" for k in range(MAX_PATTERN_ATTRIBUTES + 1))
