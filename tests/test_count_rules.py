"""Every count is an integer of at least its bound, every flag is a bool,
every real target is a number and every choice is one of its strings.

A float, NaN or bool given as a count is refused with the one text of
``errors._check_count``, not truncated or run; a flag that is not a Python
or numpy bool is refused with the one text of ``errors._check_flag``, not
read for its truth. A bool, string or None given as a real number is
refused with the one text of ``errors._check_real``, not parsed or run,
and a choice that is not one of its strings with the one text of
``errors._check_choice``, not compared.
"""

import math
import re

import numpy as np
import pytest

from rdsim import (
    AttributeTargets,
    ConfigError,
    CovariateSpec,
    DyadModel,
    EngageScenario,
    ExperimentPlan,
    Graph,
    NetworkTargets,
    RecruitmentForest,
    SamplerConfig,
    assortativity_from_ratio,
    binary_correlation_bounds,
    binary_sampler,
    fit_dyad_model,
    generate_network,
    ratio_from_assortativity,
)
from rdsim.config import network_run_from_config, parse_config, sampler_config_from_config


def plan(**overrides) -> ExperimentPlan:
    base = dict(
        node_count=100,
        mean_degree=6.0,
        prevalences=(0.5,),
        diff_activities=(1.0,),
        homophily_ratios=(1.0,),
        sample_sizes=(20,),
        num_seeds=2,
        coupons_per_node=2,
        replicates=2,
        master_seed=1,
    )
    return ExperimentPlan(**{**base, **overrides})


def scenario(**overrides) -> EngageScenario:
    base = dict(
        node_count=100,
        mean_degree=6.0,
        covariates=(AttributeTargets("A", 0.5, 1.0, homophily_ratio=1.0),),
        correlations=((1.0,),),
        num_seeds=2,
        coupons_per_node=2,
        sample_size=20,
        replicates=2,
        master_seed=1,
    )
    return EngageScenario(**{**base, **overrides})


def forest(**overrides) -> RecruitmentForest:
    # a seed and its two recruits
    base = dict(
        nodes=[7, 3, 9],
        recruiters=[-1, 7, 7],
        waves=[0, 1, 1],
        seed_ids=[0, 0, 0],
        coupon_indices=[-1, 0, 1],
        degrees=[2, 1, 1],
        attributes=[1, 0, 1],
        attribute_names=("z",),
    )
    return RecruitmentForest(**{**base, **overrides})


def draw_covariates(n):
    return binary_sampler(CovariateSpec(("A",), np.array([0.5]), np.eye(1))).sample(n, np.random.default_rng(0))


# id -> (build from the count, the count's name, its least value)
COUNTS = {
    "graph-node-count": (lambda v: Graph(v, [], []), "node_count", 1),
    "targets-node-count": (lambda v: NetworkTargets(v, 0.5, 1.0, 1.0, 1.0), "node_count", 2),
    "plan-node-count": (lambda v: plan(node_count=v), "node_count", 2),
    "scenario-node-count": (lambda v: scenario(node_count=v), "node_count", 2),
    "num-seeds": (lambda v: SamplerConfig(v, 2, 10), "num_seeds", 1),
    "coupons": (lambda v: SamplerConfig(2, v, 10), "coupons_per_node", 1),
    "target-sample-size": (lambda v: SamplerConfig(2, 2, v), "target_sample_size", 2),
    "scenario-sample-size": (lambda v: scenario(sample_size=v), "target_sample_size", 2),
    "plan-replicates": (lambda v: plan(replicates=v), "replicates", 1),
    "scenario-replicates": (lambda v: scenario(replicates=v), "replicates", 1),
    "plan-master-seed": (lambda v: plan(master_seed=v), "master_seed", 0),
    "scenario-master-seed": (lambda v: scenario(master_seed=v), "master_seed", 0),
    "plan-sample-sizes": (lambda v: plan(sample_sizes=(20, v)), "sample_sizes entry", 1),
    "covariate-draw-n": (draw_covariates, "n", 1),
    "reseed-count": (lambda v: forest(reseed_count=v), "reseed_count", 0),
}


@pytest.mark.parametrize("bad", ["1.5", "nan", "bool", "below"])
@pytest.mark.parametrize("case", COUNTS)
def test_a_count_that_is_no_integer_or_below_its_bound_is_refused(case, bad):
    build, name, least = COUNTS[case]
    value = {"1.5": 1.5, "nan": math.nan, "bool": True, "below": least - 1}[bad]
    with pytest.raises(ValueError, match=f"^{re.escape(f'{name} must be an integer >= {least}, got {value!r}')}$"):
        build(value)


def test_numpy_integers_are_counts():
    assert Graph(np.int64(3), [0], [1]).node_count == 3
    assert SamplerConfig(np.int32(2), np.uint8(2), np.int64(10)).target_sample_size == 10
    sizes = plan(sample_sizes=(np.int64(20), np.uint16(30))).sample_sizes
    assert sizes == (20, 30) and all(type(size) is int for size in sizes)
    assert draw_covariates(np.int64(4)).shape == (4, 1)


FLAGS = {
    "reseed_on_death": lambda v: SamplerConfig(2, 2, 10, reseed_on_death=v),
    "regenerate_network": lambda v: plan(regenerate_network=v),
    "truncated": lambda v: forest(truncated=v),
}


@pytest.mark.parametrize("value", ["false", "no", 0, 1, None, np.int64(1)], ids=repr)
@pytest.mark.parametrize("name", FLAGS)
def test_a_flag_that_is_no_bool_is_refused(name, value):
    with pytest.raises(ValueError, match=f"^{re.escape(f'{name} must be a bool, got {value!r}')}$"):
        FLAGS[name](value)


@pytest.mark.parametrize("value", [True, False, np.True_, np.False_], ids=repr)
@pytest.mark.parametrize("name", FLAGS)
def test_python_and_numpy_bools_are_flags(name, value):
    assert getattr(FLAGS[name](value), name) == value


# id -> (build from the real number, the text before "must be a real number")
REALS = {
    "targets-prevalence": (lambda v: NetworkTargets(100, v, 6.0, 1.0, 1.0), "prevalence"),
    "targets-mean-degree": (lambda v: NetworkTargets(100, 0.5, v, 1.0, 1.0), "mean_degree"),
    "targets-diff-activity": (lambda v: NetworkTargets(100, 0.5, 6.0, v, 1.0), "diff_activity"),
    "targets-homophily-ratio": (lambda v: NetworkTargets(100, 0.5, 6.0, 1.0, v), "homophily_ratio"),
    "attribute-prevalence": (lambda v: AttributeTargets("a", v, 1.0, homophily_ratio=1.0), "attribute 'a': prevalence"),
    "attribute-diff-activity": (lambda v: AttributeTargets("a", 0.5, v, homophily_ratio=1.0), "attribute 'a': diff_activity"),
    "attribute-homophily-ratio": (lambda v: AttributeTargets("a", 0.5, 1.0, homophily_ratio=v), "attribute 'a': homophily_ratio"),
    "attribute-assortativity": (lambda v: AttributeTargets("a", 0.5, 1.0, assortativity=v), "attribute 'a': assortativity"),
    "bridge-ratio": (lambda v: assortativity_from_ratio(v, 0.5, 1.0), "homophily_ratio"),
    "bridge-assortativity": (lambda v: ratio_from_assortativity(v, 0.5, 1.0), "assortativity"),
    "plan-mean-degree": (lambda v: plan(mean_degree=v), "mean_degree"),
    "plan-prevalences": (lambda v: plan(prevalences=(0.5, v)), "prevalences entry"),
    "plan-diff-activities": (lambda v: plan(diff_activities=(1.0, v)), "diff_activities entry"),
    "plan-homophily-ratios": (lambda v: plan(homophily_ratios=(1.0, v)), "homophily_ratios entry"),
    "scenario-mean-degree": (lambda v: scenario(mean_degree=v), "mean_degree"),
    "scenario-correlations": (lambda v: scenario(correlations=((v,),)), "correlation"),
    "fit-mean-degree": (
        lambda v: fit_dyad_model([AttributeTargets("A", 0.5, 1.0, homophily_ratio=1.0)], v, draw_covariates(10)),
        "mean_degree",
    ),
    "spec-marginals": (lambda v: CovariateSpec(("A",), [v], np.eye(1)), "marginal"),
    "spec-correlations": (lambda v: CovariateSpec(("A",), [0.5], [[v]]), "correlation"),
    "bounds-marginal": (lambda v: binary_correlation_bounds(0.5, v), "marginal"),
    "dyad-model-theta": (lambda v: DyadModel((-3.0, v, 0.1)), "theta entry"),
}
# None leaves an optional homophily scale out, so it is no value to refuse there
OPTIONAL_REALS = {"attribute-homophily-ratio", "attribute-assortativity"}


@pytest.mark.parametrize(
    "case, value",
    [
        pytest.param(case, value, id=f"{case}-{value!r}")
        for case in REALS
        for value in (True, np.True_, "0.5", None)
        if not (value is None and case in OPTIONAL_REALS)
    ],
)
def test_a_real_target_that_is_no_number_is_refused(case, value):
    build, name = REALS[case]
    with pytest.raises(ValueError, match=f"^{re.escape(f'{name} must be a real number, got {value!r}')}$"):
        build(value)


def test_ints_and_numpy_numbers_are_real_targets():
    targets = NetworkTargets(100, np.float32(0.5), np.int64(6), 2, np.float32(1.5))
    assert (targets.prevalence, targets.mean_degree, targets.diff_activity, targets.homophily_ratio) == (0.5, 6, 2, 1.5)
    attribute = AttributeTargets("a", np.float32(0.25), np.int64(2), assortativity=np.float32(0.125))
    assert (attribute.prevalence, attribute.diff_activity, attribute.assortativity) == (0.25, 2, 0.125)
    swept = plan(
        mean_degree=np.int64(6),
        prevalences=(np.float32(0.25),),
        diff_activities=(2, np.int64(3)),
        homophily_ratios=(np.float32(0.5),),
    )
    values = swept.prevalences + swept.diff_activities + swept.homophily_ratios
    assert values == (0.25, 2.0, 3.0, 0.5) and all(type(v) is float for v in values)
    assert swept.mean_degree == 6
    correlations = scenario(mean_degree=np.float32(6), correlations=((np.int64(1),),)).correlations
    assert correlations == ((1.0,),) and type(correlations[0][0]) is float
    spec = CovariateSpec(("A", "B"), [np.float32(0.5), 0.25], [[1, np.float32(0.25)], [np.float32(0.25), 1]])
    assert spec.marginals.tolist() == [0.5, 0.25] and spec.correlations.tolist() == [[1.0, 0.25], [0.25, 1.0]]


# id -> (build from the choice, the choice's name, its strings as the text lists them)
CHOICES = {
    "generate-mode": (
        lambda v: generate_network(NetworkTargets(100, 0.5, 6.0, 1.0, 1.0), np.random.default_rng(0), v),
        "mode",
        "bernoulli, exact-count",
    ),
    "plan-mode": (lambda v: plan(mode=v), "mode", "bernoulli, exact-count"),
    "seed-selection": (lambda v: SamplerConfig(2, 2, 10, seed_selection=v), "seed_selection", "uniform, degree"),
    "plan-seed-selection": (lambda v: plan(seed_selection=v), "seed_selection", "uniform, degree"),
}


@pytest.mark.parametrize("value", ["x", None, ["uniform"]], ids=repr)
@pytest.mark.parametrize("case", CHOICES)
def test_a_choice_outside_its_strings_is_refused(case, value):
    build, name, choices = CHOICES[case]
    with pytest.raises(ValueError, match=f"^{re.escape(f'{name} must be one of ({choices}), got {value!r}')}$"):
        build(value)


@pytest.mark.parametrize(
    "build, text, message",
    [
        (
            network_run_from_config,
            "[network]\nn = 100\np = 0.5\nmean_degree = 6\ndiff_activity = 1\nhomophily_r = 1\nmode = x\n",
            "<config>: [network] mode must be one of (bernoulli, exact-count), got 'x'",
        ),
        (
            sampler_config_from_config,
            "[rds]\nseeds = 2\ncoupons = 2\nsample_size = 10\nseed_selection = x\n",
            "<config>: [rds] seed_selection must be one of (uniform, degree), got 'x'",
        ),
    ],
    ids=["network-mode", "rds-seed-selection"],
)
def test_a_config_choice_outside_its_strings_is_refused_with_the_same_text(build, text, message):
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        build(parse_config(text))
