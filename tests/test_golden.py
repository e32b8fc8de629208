"""Golden output digests: every CSV the CLI writes on tiny fixed-seed runs.

``golden_digests.json`` next to this module holds the sha256 of each CSV
written by small runs of every subcommand, together with the numpy version
the table was made with: the random streams rest on numpy's ``Generator``
algorithms and the cells on float ``repr``. A change that moves an output
fails here, naming every entry that moved. A change that moves a stream on
purpose regenerates the table in the same commit, from the repository root:

    PYTHONPATH=src python tests/test_golden.py --write

which also prints each entry that changed from the old table, with its
old and new digest.

The runs go through ``rdsim.cli.main`` in-process, with relative paths
inside a scratch working directory, because ``estimate`` echoes each forest
path as given.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import tempfile
from pathlib import Path

import numpy as np

from rdsim.cli import main

TABLE = Path(__file__).resolve().with_name("golden_digests.json")

COVARIATES = """\
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

CONFIGS = {
    "network.cfg": """\
[network]
n = 60
p = 0.3
mean_degree = 6
diff_activity = 1.5
homophily_r = 0.8
""",
    "covnet.cfg": "[network]\nn = 80\nmean_degree = 6\n\n" + COVARIATES,
    "covgen.cfg": "[covgen]\nn = 50\nseed = 4\n\n"
    "[covariate A]\nprevalence = 0.4\n\n[covariate B]\nprevalence = 0.2\n\n[correlations]\nA:B = 0.3\n",
    "rds.cfg": "[rds]\nseeds = 2\ncoupons = 2\nsample_size = 20\n",
    # p = 0.5 with diff_activity = 4 is infeasible, so the sweep holds skip rows too
    "experiment.cfg": """\
[network]
n = 200
p = 0.3, 0.5
mean_degree = 8
diff_activity = 1, 4
homophily_r = 1
mode = bernoulli

[rds]
seeds = 3
coupons = 2
sample_size = 40

[experiment]
replicates = 2
seed = 11
""",
    "fixed.cfg": """\
[network]
n = 200
p = 0.3
mean_degree = 8
diff_activity = 1, 2
homophily_r = 0.5
mode = exact-count

[rds]
seeds = 3
coupons = 3
sample_size = 30, 50
seed_selection = degree

[experiment]
replicates = 3
seed = 12
fixed_network = true
""",
    # nine sample sizes, unsorted and up to the population, over sparse one-coupon chains that reseed
    # often and sometimes on an isolated node: more size bits than one byte holds
    "nested.cfg": """\
[network]
n = 150
p = 0.4
mean_degree = 4
diff_activity = 1.5
homophily_r = 0.8
mode = bernoulli

[rds]
seeds = 2
coupons = 1
sample_size = 45, 15, 150, 30, 90, 5, 120, 60, 75

[experiment]
replicates = 3
seed = 13
""",
    "engage.cfg": """\
[engage]
n = 400
mean_degree = 8
seeds = 3
coupons = 3
sample_size = 40
replicates = 2
seed = 5

""" + COVARIATES,
}

RUNS = [
    ["netgen", "--config", "network.cfg", "--out", "netgen", "--seed", "3"],
    ["netgen", "--config", "covnet.cfg", "--out", "netgen_cov", "--seed", "3"],
    ["covgen", "--config", "covgen.cfg", "--out", "covgen"],
    ["rds", "--config", "rds.cfg", "--edges", "netgen/edges.csv",
     "--attributes", "netgen/attributes.csv", "--out", "rds", "--seed", "5"],
    ["rds", "--config", "rds.cfg", "--edges", "netgen_cov/edges.csv",
     "--attributes", "netgen_cov/attributes.csv", "--out", "rds_cov", "--seed", "5"],
    ["estimate", "--forest", "rds/forest.csv", "rds_cov/forest.csv", "--out", "estimate"],
    ["estimate", "--forest", "rds/forest.csv", "--edges", "netgen/edges.csv", "--out", "estimate_edges"],
    ["experiment", "--config", "experiment.cfg", "--out", "experiment"],
    ["experiment", "--config", "fixed.cfg", "--out", "experiment_fixed"],
    ["experiment", "--config", "nested.cfg", "--out", "experiment_nested"],
    ["engage-mimic", "--config", "engage.cfg", "--out", "engage"],
]


def output_digests() -> dict[str, str]:
    """Run every golden run in the current directory; sha256 of each CSV it wrote."""
    for name, text in CONFIGS.items():
        Path(name).write_text(text)
    for argv in RUNS:
        assert main(argv + ["--quiet"]) == 0, argv
    return {
        path.as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(Path(".").glob("*/*.csv"))
    }


def test_outputs_match_golden_digests(tmp_path, monkeypatch):
    table = json.loads(TABLE.read_text())
    assert table["numpy"] == np.__version__, (
        f"golden digests were made with numpy {table['numpy']}, this is numpy {np.__version__}; "
        "streams may differ across numpy versions, so regenerate the table and compare by hand"
    )
    monkeypatch.chdir(tmp_path)
    digests = output_digests()
    golden = table["digests"]
    moved = sorted(name for name in golden.keys() | digests.keys() if golden.get(name) != digests.get(name))
    assert not moved, f"outputs moved from the golden digests: {moved}"


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description="Regenerate the golden digest table.")
    parser.add_argument("--write", action="store_true", required=True, help=f"rewrite {TABLE.name}")
    parser.parse_args()
    home = os.getcwd()
    with tempfile.TemporaryDirectory() as scratch:
        os.chdir(scratch)
        try:
            digests = output_digests()
        finally:
            os.chdir(home)
    old = json.loads(TABLE.read_text())["digests"] if TABLE.exists() else {}
    TABLE.write_text(json.dumps({"numpy": np.__version__, "digests": digests}, indent=2) + "\n")
    print(f"wrote {len(digests)} digests to {TABLE}")
    for name in sorted(old.keys() | digests.keys()):
        if old.get(name) != digests.get(name):
            print(f"changed: {name} {old.get(name, '-')} -> {digests.get(name, '-')}")
