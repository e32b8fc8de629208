"""The package's public surface: each module's ``__all__``, re-exported once.

``rdsim.__all__`` is ``__version__`` plus the ``__all__`` of each public
module, so a name is listed in exactly one place. These checks pin the
names, and that each one is the object its module defines.
"""

import pytest

import rdsim
from rdsim import config, covariates, errors, estimators, graph, harness, netgen, sampler, tables

MODULES = (errors, graph, covariates, netgen, sampler, estimators, harness)

PUBLIC_NAMES = [
    "AttributeTargets",
    "AttributeVector",
    "Cell",
    "ConfigError",
    "CovariateSpec",
    "DegreeDistribution",
    "DyadClassSolution",
    "DyadModel",
    "EngageScenario",
    "ExperimentPlan",
    "FitConvergenceError",
    "Graph",
    "InfeasibleTargetsError",
    "LatentBinaryModel",
    "MixingCounts",
    "NetworkTargets",
    "RdsimError",
    "RecruitmentForest",
    "SampleEstimates",
    "SamplerConfig",
    "UndefinedEstimandError",
    "__version__",
    "assortativity_from_ratio",
    "binary_correlation",
    "binary_correlation_bounds",
    "binary_sampler",
    "bivariate_normal_cdf",
    "crude_prevalence",
    "degree_distribution",
    "differential_activity",
    "estimate_differential_activity",
    "estimate_homophily",
    "expected_statistics",
    "fit_dyad_model",
    "generate_binary_covariates",
    "generate_network",
    "homophily_ratio",
    "induced_homophily",
    "latent_correlation_matrix",
    "latent_normal_correlation",
    "mean_degree",
    "mixing_counts",
    "newman_assortativity",
    "prevalence",
    "ratio_from_assortativity",
    "rds2_prevalence",
    "read_attributes",
    "read_edge_list",
    "read_forest",
    "relative_bias",
    "run_engage_mimic",
    "run_experiment",
    "run_rds",
    "sample_estimates",
    "select_seeds",
    "simulate_from_model",
    "solve_dyad_classes",
    "summarize_replicates",
    "write_attributes",
    "write_edge_list",
    "write_forest",
]


def test_public_names_are_pinned():
    assert sorted(rdsim.__all__) == PUBLIC_NAMES


def test_public_names_are_unique():
    assert len(rdsim.__all__) == len(set(rdsim.__all__))


def test_package_all_is_the_module_lists_in_order():
    assert rdsim.__all__ == ["__version__"] + [name for module in MODULES for name in module.__all__]


@pytest.mark.parametrize("module", MODULES, ids=lambda module: module.__name__)
def test_each_public_name_is_its_module_object(module):
    for name in module.__all__:
        assert getattr(rdsim, name) is getattr(module, name), name


@pytest.mark.parametrize("module", MODULES + (config, tables), ids=lambda module: module.__name__)
def test_every_listed_name_exists(module):
    assert [name for name in module.__all__ if not hasattr(module, name)] == []


def test_star_import_binds_exactly_all():
    namespace = {}
    exec("from rdsim import *", namespace)
    namespace.pop("__builtins__")
    assert sorted(namespace) == PUBLIC_NAMES


def test_harness_keeps_its_unexported_module_attributes():
    # importable by name, but not part of the package surface
    for name in ("write_rows", "EXPERIMENT_COLUMNS", "EXPERIMENT_GROUP_COLUMNS", "RB_COLUMNS"):
        assert hasattr(harness, name)
        assert name not in rdsim.__all__
