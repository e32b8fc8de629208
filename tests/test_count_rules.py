"""Every count is an integer of at least its bound, and every flag is a bool.

A float, NaN or bool given as a count is refused with the one text of
``errors._check_count``, not truncated or run; a flag that is not a Python
or numpy bool is refused with the one text of ``errors._check_flag``, not
read for its truth.
"""

import math
import re

import numpy as np
import pytest

from rdsim import (
    AttributeTargets,
    CovariateSpec,
    EngageScenario,
    ExperimentPlan,
    Graph,
    NetworkTargets,
    RecruitmentForest,
    SamplerConfig,
    binary_sampler,
)


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
