"""The package's public surface: each module's ``__all__``, re-exported once.

``rdsim.__all__`` is ``__version__`` plus the ``__all__`` of each public
module, so a name is listed in exactly one place. These checks pin the
names, that each one is the object its module defines, the parameter
names and defaults of each callable, and the public members of each
class, so that an option, method or property added or retired shows up
here.
"""

import ast
import dataclasses
import inspect
from pathlib import Path

import pytest

import rdsim
from rdsim import config, covariates, errors, estimators, graph, harness, netgen, sampler, tables

MODULES = (errors, graph, covariates, netgen, sampler, estimators, harness)

PUBLIC_NAMES = [
    "AttributeTargets",
    "Cell",
    "ConfigError",
    "CovariateSpec",
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
    "differential_activity",
    "fit_dyad_model",
    "generate_network",
    "homophily_ratio",
    "latent_correlation_matrix",
    "latent_normal_correlation",
    "mean_degree",
    "mixing_counts",
    "newman_assortativity",
    "prevalence",
    "ratio_from_assortativity",
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


# parameter names and defaults, annotations left out; "(*args)" is an exception's own message arguments
SIGNATURES = {
    "AttributeTargets": "(name, prevalence, diff_activity, homophily_ratio=None, assortativity=None)",
    "Cell": "(index, prevalence, diff_activity, homophily_ratio, sample_size)",
    "ConfigError": "(*args)",
    "CovariateSpec": "(names, marginals, correlations)",
    "DyadClassSolution": "(n1, n0, e11, e10, e00, q11, q10, q00)",
    "DyadModel": "(theta)",
    "EngageScenario": (
        "(node_count, mean_degree, covariates, correlations, num_seeds, coupons_per_node, sample_size, "
        "replicates, master_seed)"
    ),
    "ExperimentPlan": (
        "(node_count, mean_degree, prevalences, diff_activities, homophily_ratios, sample_sizes, num_seeds, "
        "coupons_per_node, replicates, master_seed, mode='bernoulli', seed_selection='uniform', "
        "regenerate_network=True)"
    ),
    "FitConvergenceError": "(message, residuals=None)",
    "Graph": "(node_count, src, dst)",
    "InfeasibleTargetsError": "(*args)",
    "LatentBinaryModel": "(thresholds, cholesky)",
    "MixingCounts": "(within_1, within_0, cross)",
    "NetworkTargets": "(node_count, prevalence, mean_degree, diff_activity, homophily_ratio)",
    "RdsimError": "(*args)",
    "RecruitmentForest": (
        "(nodes, recruiters, waves, seed_ids, coupon_indices, degrees, attributes, attribute_names, "
        "truncated=False, reseed_count=0)"
    ),
    "SampleEstimates": (
        "(attribute_names, sample_size, max_wave, reseed_count, truncated, diff_activity, homophily, "
        "homophily_ratio, rds2_prevalence, crude_prevalence, induced_homophily=None)"
    ),
    "SamplerConfig": (
        "(num_seeds, coupons_per_node, target_sample_size, seed_selection='uniform', reseed_on_death=True)"
    ),
    "UndefinedEstimandError": "(*args)",
    "assortativity_from_ratio": "(ratio, prevalence, diff_activity)",
    "binary_correlation": "(p1, p2, rho)",
    "binary_correlation_bounds": "(p1, p2)",
    "binary_sampler": "(spec)",
    "bivariate_normal_cdf": "(h, k, rho)",
    "differential_activity": "(graph, values)",
    "fit_dyad_model": "(attribute_targets, mean_degree, z)",
    "generate_network": "(targets, rng, mode='bernoulli')",
    "homophily_ratio": "(counts)",
    "latent_correlation_matrix": "(spec)",
    "latent_normal_correlation": "(p1, p2, target)",
    "mean_degree": "(graph)",
    "mixing_counts": "(graph, values)",
    "newman_assortativity": "(counts)",
    "prevalence": "(values)",
    "ratio_from_assortativity": "(assortativity, prevalence, diff_activity)",
    "read_attributes": "(path)",
    "read_edge_list": "(path, node_count)",
    "read_forest": "(path)",
    "relative_bias": "(estimate, truth)",
    "run_engage_mimic": "(scenario, threads=1, out_dir=None)",
    "run_experiment": "(plan, threads=1, out_dir=None)",
    "run_rds": "(graph, attributes, config, rng, attribute_names=None)",
    "sample_estimates": "(forest, graph=None, sizes=None)",
    "select_seeds": "(graph, config, rng)",
    "simulate_from_model": "(model, z, rng)",
    "solve_dyad_classes": "(targets)",
    "summarize_replicates": "(rows, group_columns, value_columns, replicates)",
    "write_attributes": "(path, names, values)",
    "write_edge_list": "(graph, path)",
    "write_forest": "(forest, path)",
}


def parameters(obj) -> str:
    """The parameter list of ``obj`` with names and defaults, as ``(a, b=1)``."""
    if isinstance(obj, type) and issubclass(obj, Exception) and obj.__init__ is Exception.__init__:
        return "(*args)"
    signature = inspect.signature(obj)
    bare = [parameter.replace(annotation=inspect.Parameter.empty) for parameter in signature.parameters.values()]
    return str(signature.replace(parameters=bare, return_annotation=inspect.Signature.empty))


def test_public_signatures_are_pinned():
    callables = [name for name in rdsim.__all__ if name != "__version__"]
    assert {name: parameters(getattr(rdsim, name)) for name in callables} == SIGNATURES


# public members of each public class: its fields, methods, properties and
# classmethods, leaving out what it inherits from a builtin base
MEMBERS = {
    "AttributeTargets": ["assortativity", "diff_activity", "homophily_ratio", "name", "prevalence"],
    "Cell": ["diff_activity", "homophily_ratio", "index", "prevalence", "sample_size"],
    "ConfigError": [],
    "CovariateSpec": ["correlations", "marginals", "names"],
    "DyadClassSolution": ["e00", "e10", "e11", "n0", "n1", "q00", "q10", "q11", "total_edges"],
    "DyadModel": ["theta"],
    "EngageScenario": [
        "correlations", "coupons_per_node", "covariate_names", "covariate_spec", "covariates", "master_seed",
        "mean_degree", "node_count", "num_seeds", "replicates", "sample_size", "sampler_config",
    ],
    "ExperimentPlan": [
        "cell_groups", "cells", "coupons_per_node", "diff_activities", "homophily_ratios", "master_seed",
        "mean_degree", "mode", "network_targets", "node_count", "num_seeds", "prevalences",
        "regenerate_network", "replicates", "sample_sizes", "sampler_config", "seed_selection",
    ],
    "FitConvergenceError": [],
    "Graph": ["degrees", "dst", "edge_count", "neighbors", "node_count", "src"],
    "InfeasibleTargetsError": [],
    "LatentBinaryModel": ["cholesky", "sample", "thresholds"],
    "MixingCounts": ["cross", "total", "within_0", "within_1"],
    "NetworkTargets": ["diff_activity", "group_sizes", "homophily_ratio", "mean_degree", "node_count", "prevalence"],
    "RdsimError": [],
    "RecruitmentForest": [
        "attribute_names", "attributes", "coupon_indices", "degrees", "max_wave", "nodes", "prefix",
        "recruiter_entries", "recruiters", "recruitment_edges", "reseed_count", "seed_ids", "size", "truncated",
        "waves",
    ],
    "SampleEstimates": [
        "attribute_names", "crude_prevalence", "diff_activity", "for_attribute", "homophily", "homophily_ratio",
        "induced_homophily", "max_wave", "rds2_prevalence", "reseed_count", "sample_size", "truncated",
    ],
    "SamplerConfig": ["coupons_per_node", "num_seeds", "reseed_on_death", "seed_selection", "target_sample_size"],
    "UndefinedEstimandError": [],
}


def members(cls) -> list[str]:
    """Sorted public attribute names of ``cls``: dataclass fields and class attributes not from a builtin base."""
    builtin = set().union(*(dir(base) for base in cls.__mro__ if base.__module__ == "builtins"))
    names = {name for name, _ in inspect.getmembers(cls) if not name.startswith("_") and name not in builtin}
    if dataclasses.is_dataclass(cls):
        names.update(field.name for field in dataclasses.fields(cls))
    return sorted(names)


def test_public_class_members_are_pinned():
    classes = [name for name in rdsim.__all__ if inspect.isclass(getattr(rdsim, name))]
    assert {name: members(getattr(rdsim, name)) for name in classes} == MEMBERS


# (importing module, defining module) -> the private names it takes, from every
# ``from .module import _name`` under src/rdsim: a decision that starts to be
# shared between modules shows up here, as a new option does in SIGNATURES
PRIVATE_IMPORTS = {
    ("cli", "harness"): {"_TRUTHS", "_realized_truth"},
    ("estimators", "graph"): {"_classify", "_mean_ratio", "_mixing"},
    ("harness", "estimators"): {"_PER_ATTRIBUTE"},
    ("netgen", "graph"): {"_as_attributes"},
    ("sampler", "graph"): {"_as_attributes", "_as_int64"},
}


def source_nodes():
    """(module name, AST node) for every node of every module under src/rdsim."""
    for path in sorted(Path(rdsim.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            yield path.stem, node


def test_private_imports_between_modules_are_pinned():
    found = {}
    for module, node in source_nodes():
        if isinstance(node, ast.ImportFrom) and node.level and node.module:
            private = {alias.name for alias in node.names if alias.name.startswith("_")}
            if private:
                found.setdefault((module, node.module), set()).update(private)
    assert found == PRIVATE_IMPORTS


# module -> the private attributes it reaches on objects other than ``self`` and
# ``cls``: each ``obj._name`` in its source, and each ``"_name"`` literal it hands
# to ``getattr`` or ``object.__setattr__`` (dunders are the language's own). A
# private name imported shows up above; one reached through an object, here.
PRIVATE_READS = {
    "estimators": {"forest._cuts"},
    "harness": {"plan._entropy", "scenario._entropy"},
    "netgen": {'getattr("_classes")', 'object.__setattr__("_classes")'},
    "sampler": {"graph._indices", "graph._indptr"},
}


def private(name) -> bool:
    return isinstance(name, str) and name.startswith("_") and not name.startswith("__")


def test_private_reads_on_other_objects_are_pinned():
    found = {}
    for module, node in source_nodes():
        if isinstance(node, ast.Attribute) and private(node.attr):
            if not (isinstance(node.value, ast.Name) and node.value.id in ("self", "cls")):
                found.setdefault(module, set()).add(ast.unparse(node))
        elif isinstance(node, ast.Call) and ast.unparse(node.func) in ("getattr", "object.__setattr__"):
            name = node.args[1] if len(node.args) > 1 else None
            if isinstance(name, ast.Constant) and private(name.value):
                found.setdefault(module, set()).add(f'{ast.unparse(node.func)}("{name.value}")')
    assert found == PRIVATE_READS
