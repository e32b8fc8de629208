"""Property tests of the config schema and its one reader.

Random valid values of every key, written as config text through
``serialize_config`` and read back with ``parse_config``, must build the
same typed plan, scenario, sampler config, targets or covariate spec as
the values themselves. Replacing any key's value with an ill-typed or
non-finite one must give a ``ConfigError`` that names its section and key.
"""

import re
import string

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from rdsim import ConfigError, assortativity_from_ratio, ratio_from_assortativity
from rdsim.config import (
    _SCHEMA,
    covariate_spec_from_config,
    engage_scenario_from_config,
    experiment_plan_from_config,
    multi_network_run_from_config,
    network_run_from_config,
    parse_config,
    sampler_config_from_config,
    serialize_config,
)
from rdsim.covariates import CovariateSpec
from rdsim.harness import EngageScenario, ExperimentPlan
from rdsim.netgen import GENERATION_MODES, AttributeTargets, NetworkTargets
from rdsim.sampler import SEED_SELECTION_MODES, SamplerConfig

TRUE_WORDS = ("true", "yes", "1", "on", "TRUE", "Yes")
FALSE_WORDS = ("false", "no", "0", "off", "False", "OFF")


def round_trip(cfg: dict[str, dict[str, str]]) -> dict[str, dict[str, str]]:
    parsed = parse_config(serialize_config(cfg))
    assert parsed == cfg
    return parsed


def floats(lo, hi):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


def text_list(values, separator) -> str:
    return separator.join(repr(v) for v in values)


separators = st.sampled_from([",", ", ", " , "])


@st.composite
def optional_key(draw, body: dict, key: str, choices):
    """Set ``body[key]`` to a drawn choice, or leave it out; returns the choice or None."""
    if draw(st.booleans()):
        return None
    value = draw(st.sampled_from(choices))
    body[key] = value
    return value


@st.composite
def rds_section(draw, node_count: int, sweep: bool):
    seeds = draw(st.integers(1, 5))
    body = {"seeds": str(seeds), "coupons": str(draw(st.integers(1, 6)))}
    if sweep:
        sizes = draw(st.lists(st.integers(seeds, node_count), min_size=1, max_size=3, unique=True))
        body["sample_size"] = draw(separators).join(map(str, sizes))
    else:
        sizes = draw(st.integers(seeds, node_count))
        body["sample_size"] = str(sizes)
    selection = draw(optional_key(body, "seed_selection", SEED_SELECTION_MODES))
    words = TRUE_WORDS if sweep else TRUE_WORDS + FALSE_WORDS
    reseed = draw(optional_key(body, "reseed", words))
    return body, seeds, sizes, selection or "uniform", reseed is None or reseed.lower() in TRUE_WORDS


@st.composite
def covariate_sections(draw):
    """(sections dict, AttributeTargets tuple, correlation matrix)."""
    labels = st.sampled_from(["A", "B", "HIV+", "cas"])
    names = draw(st.lists(labels, min_size=1, max_size=3, unique=True))
    sections, targets = {}, []
    for name in names:
        prevalence = draw(floats(0.05, 0.95))
        diff_activity = draw(floats(0.2, 5.0))
        body = {"prevalence": repr(prevalence), "diff_activity": repr(diff_activity)}
        if draw(st.booleans()):
            ratio = draw(floats(0.0, 10.0))
            body["homophily_r"] = repr(ratio)
            targets.append(AttributeTargets(name, prevalence, diff_activity, homophily_ratio=ratio))
        else:
            # above the least assortativity a network at this prevalence and activity reaches
            h = draw(st.floats(assortativity_from_ratio(0.0, prevalence, diff_activity), 0.9, exclude_min=True))
            body["homophily_h"] = repr(h)
            targets.append(AttributeTargets(name, prevalence, diff_activity, assortativity=h))
        sections[f"covariate {name}"] = body
    matrix = np.eye(len(names))
    correlations = {}
    for i in range(len(names)):
        for j in range(i + 1, len(names)):
            if draw(st.booleans()):
                # every pair of marginals in [0.05, 0.95] can reach |r| < 0.05
                r = draw(floats(-0.04, 0.04))
                left, right = (i, j) if draw(st.booleans()) else (j, i)
                correlations[f"{names[left]}:{names[right]}"] = repr(r)
                matrix[i, j] = matrix[j, i] = r
    if correlations or draw(st.booleans()):
        sections["correlations"] = correlations
    return sections, tuple(targets), matrix


@st.composite
def experiment_cases(draw):
    n = draw(st.integers(100, 2000))
    prevalences = draw(st.lists(floats(0.05, 0.95), min_size=1, max_size=3, unique=True))
    diff_activities = draw(st.lists(floats(0.1, 5.0), min_size=1, max_size=3, unique=True))
    ratios = draw(st.lists(floats(0.0, 10.0), min_size=1, max_size=3, unique=True))
    mean_degree = draw(floats(0.5, 50.0))
    network = {
        "n": str(n),
        "p": text_list(prevalences, draw(separators)),
        "mean_degree": repr(mean_degree),
        "diff_activity": text_list(diff_activities, draw(separators)),
        "homophily_r": text_list(ratios, draw(separators)),
    }
    mode = draw(optional_key(network, "mode", GENERATION_MODES))
    rds, seeds, sizes, selection, _ = draw(rds_section(n, sweep=True))
    replicates, seed = draw(st.integers(1, 1000)), draw(st.integers(0, 2**32))
    experiment = {"replicates": str(replicates), "seed": str(seed)}
    fixed = draw(optional_key(experiment, "fixed_network", TRUE_WORDS + FALSE_WORDS))
    cfg = {"network": network, "rds": rds, "experiment": experiment}
    plan = ExperimentPlan(
        node_count=n,
        mean_degree=mean_degree,
        prevalences=tuple(prevalences),
        diff_activities=tuple(diff_activities),
        homophily_ratios=tuple(ratios),
        sample_sizes=tuple(sizes),
        num_seeds=seeds,
        coupons_per_node=int(rds["coupons"]),
        replicates=replicates,
        master_seed=seed,
        mode=mode or "bernoulli",
        seed_selection=selection,
        regenerate_network=fixed is None or fixed.lower() in FALSE_WORDS,
    )
    return cfg, plan


@st.composite
def engage_cases(draw):
    n = draw(st.integers(100, 5000))
    seeds = draw(st.integers(1, 30))
    sample_size = draw(st.integers(seeds, n))
    engage = {
        "n": str(n),
        "mean_degree": repr(draw(floats(0.5, 50.0))),
        "seeds": str(seeds),
        "coupons": str(draw(st.integers(1, 6))),
        "sample_size": str(sample_size),
        "replicates": str(draw(st.integers(1, 1000))),
        "seed": str(draw(st.integers(0, 2**32))),
    }
    sections, targets, matrix = draw(covariate_sections())
    scenario = EngageScenario(
        node_count=n,
        mean_degree=float(engage["mean_degree"]),
        covariates=targets,
        correlations=tuple(tuple(row) for row in matrix),
        num_seeds=seeds,
        coupons_per_node=int(engage["coupons"]),
        sample_size=sample_size,
        replicates=int(engage["replicates"]),
        master_seed=int(engage["seed"]),
    )
    return {"engage": engage, **sections}, scenario


@st.composite
def network_cases(draw):
    n = draw(st.integers(100, 2000))
    args = (n, draw(floats(0.05, 0.95)), draw(floats(0.5, 50.0)), draw(floats(0.1, 5.0)))
    network = {"n": str(n)}
    network.update((key, repr(v)) for key, v in zip(("p", "mean_degree", "diff_activity"), args[1:]))
    if draw(st.booleans()):
        ratio = draw(floats(0.0, 10.0))
        network["homophily_r"] = repr(ratio)
        targets = NetworkTargets(*args, ratio)
    else:
        h = draw(floats(-0.5, 0.9))
        network["homophily_h"] = repr(h)
        try:
            # the bridge is taken at the realized prevalence, round(p * n) / n
            realized = NetworkTargets(*args, 0.0).group_sizes[0] / n
            targets = NetworkTargets(*args, ratio_from_assortativity(h, realized, args[3]))
        except ValueError:
            assume(False)
    mode = draw(optional_key(network, "mode", GENERATION_MODES))
    return {"network": network}, (targets, mode or "bernoulli")


@st.composite
def sampler_cases(draw):
    rds, seeds, size, selection, reseed = draw(rds_section(draw(st.integers(5, 5000)), sweep=False))
    expected = SamplerConfig(seeds, int(rds["coupons"]), size, selection, reseed)
    return {"rds": rds}, expected


@st.composite
def covgen_cases(draw):
    n, seed = draw(st.integers(1, 10_000)), draw(st.one_of(st.none(), st.integers(0, 2**32)))
    covgen = {"n": str(n)} if seed is None else {"n": str(n), "seed": str(seed)}
    sections, targets, matrix = draw(covariate_sections())
    return {"covgen": covgen, **sections}, (targets, matrix, n, seed or 0)


@st.composite
def multi_network_cases(draw):
    n, mean_degree = draw(st.integers(100, 5000)), draw(floats(0.5, 50.0))
    sections, targets, matrix = draw(covariate_sections())
    cfg = {"network": {"n": str(n), "mean_degree": repr(mean_degree)}, **sections}
    return cfg, (n, mean_degree, targets, matrix)


def assert_spec(spec: CovariateSpec, targets, matrix):
    assert spec.names == tuple(t.name for t in targets)
    assert np.array_equal(spec.marginals, [t.prevalence for t in targets])
    assert np.array_equal(spec.correlations, matrix)


@settings(max_examples=150, deadline=None)
@given(experiment_cases())
def test_experiment_plan_round_trip(case):
    cfg, plan = case
    assert experiment_plan_from_config(round_trip(cfg)) == plan


@settings(max_examples=150, deadline=None)
@given(engage_cases())
def test_engage_scenario_round_trip(case):
    cfg, scenario = case
    assert engage_scenario_from_config(round_trip(cfg)) == scenario


@settings(max_examples=150, deadline=None)
@given(network_cases())
def test_network_run_round_trip(case):
    cfg, expected = case
    assert network_run_from_config(round_trip(cfg)) == expected


@settings(max_examples=150, deadline=None)
@given(sampler_cases())
def test_sampler_config_round_trip(case):
    cfg, expected = case
    assert sampler_config_from_config(round_trip(cfg)) == expected


@settings(max_examples=100, deadline=None)
@given(covgen_cases())
def test_covariate_spec_round_trip(case):
    cfg, (targets, matrix, n, seed) = case
    spec, got_n, got_seed = covariate_spec_from_config(round_trip(cfg))
    assert_spec(spec, targets, matrix)
    assert (got_n, got_seed) == (n, seed)


@settings(max_examples=100, deadline=None)
@given(multi_network_cases())
def test_multi_network_run_round_trip(case):
    cfg, (n, mean_degree, targets, matrix) = case
    got_n, got_mean_degree, got_targets, spec = multi_network_run_from_config(round_trip(cfg))
    assert (got_n, got_mean_degree, got_targets) == (n, mean_degree, targets)
    assert_spec(spec, targets, matrix)


# One valid config per builder; the ill-typed test overwrites one key of one
# section and expects the builder to name that section and key.
_EXPERIMENT = {
    "network": {"n": "300", "p": "0.5", "mean_degree": "10", "diff_activity": "1", "homophily_r": "1"},
    "rds": {"seeds": "3", "coupons": "2", "sample_size": "40"},
    "experiment": {"replicates": "2", "seed": "7"},
}
_COVARIATES = {
    "covariate A": {"prevalence": "0.5", "diff_activity": "1.2", "homophily_h": "0.1"},
    "covariate B": {"prevalence": "0.3", "diff_activity": "0.9", "homophily_r": "0.5"},
    "correlations": {"A:B": "0.08"},
}
_ENGAGE = {
    "engage": {
        "n": "1010", "mean_degree": "10", "seeds": "4", "coupons": "3",
        "sample_size": "80", "replicates": "2", "seed": "5",
    },
    **_COVARIATES,
}
_NETWORK = {"network": dict(_EXPERIMENT["network"])}
_SAMPLER = {"rds": dict(_EXPERIMENT["rds"])}
_COVGEN = {"covgen": {"n": "100"}, **_COVARIATES}
_MULTI_NETWORK = {"network": {"n": "300", "mean_degree": "10"}, **_COVARIATES}

# (schema name, builder, valid config, section to edit)
_TARGETS = [
    ("network", network_run_from_config, _NETWORK, "network"),
    ("network", experiment_plan_from_config, _EXPERIMENT, "network"),
    ("rds", sampler_config_from_config, _SAMPLER, "rds"),
    ("rds", experiment_plan_from_config, _EXPERIMENT, "rds"),
    ("experiment", experiment_plan_from_config, _EXPERIMENT, "experiment"),
    ("engage", engage_scenario_from_config, _ENGAGE, "engage"),
    ("covgen", covariate_spec_from_config, _COVGEN, "covgen"),
    ("covariate", engage_scenario_from_config, _ENGAGE, "covariate B"),
    ("covariate", covariate_spec_from_config, _COVGEN, "covariate A"),
    ("covariate", multi_network_run_from_config, _MULTI_NETWORK, "covariate B"),
]

_KEYED_TARGETS = [
    (builder, cfg, section, key, _SCHEMA[schema][key])
    for schema, builder, cfg, section in _TARGETS
    for key in _SCHEMA[schema]
] + [
    (builder, cfg, "correlations", "A:B", float)
    for builder, cfg in ((engage_scenario_from_config, _ENGAGE), (covariate_spec_from_config, _COVGEN))
]

_NON_FINITE = ["nan", "NaN", "inf", "-inf", "Infinity", "-infinity", "1e999"]


def test_every_schema_key_has_an_ill_typed_case():
    covered = {(s, key) for s, _, _, _ in _TARGETS for key in _SCHEMA[s]}
    assert covered == {(s, key) for s in _SCHEMA for key in _SCHEMA[s]}


def ill_typed(kind):
    words = st.text(string.ascii_letters + "_-.", min_size=1, max_size=8)
    if isinstance(kind, tuple):
        return words.filter(lambda w: w not in kind)
    if kind is bool:
        return st.one_of(words, st.sampled_from(["2", "-1", "0.5"])).filter(
            lambda w: w.lower() not in TRUE_WORDS + FALSE_WORDS
        )
    junk = st.sampled_from(["", "1..2", "0x10", "1 2", "--1", "one"] + _NON_FINITE)
    if kind is int:
        return st.one_of(words, junk, st.sampled_from(["1.5", "1e3", "2.0"]))
    return st.one_of(words.filter(lambda w: not _is_finite_float(w)), junk)


def _is_finite_float(text: str) -> bool:
    try:
        return bool(np.isfinite(float(text)))
    except ValueError:
        return False


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_ill_typed_value_names_section_and_key(data):
    builder, valid, section, key, kind = data.draw(st.sampled_from(_KEYED_TARGETS))
    cfg = {name: dict(body) for name, body in valid.items()}
    cfg[section][key] = data.draw(ill_typed(kind))
    with pytest.raises(ConfigError, match=re.escape(f"[{section}] {key}")):
        builder(round_trip(cfg))


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_covariate_assortativity_out_of_reach_at_its_prevalence_is_config_error(data):
    builder, valid, section = data.draw(st.sampled_from([
        (engage_scenario_from_config, _ENGAGE, "covariate B"),
        (covariate_spec_from_config, _COVGEN, "covariate A"),
        (multi_network_run_from_config, _MULTI_NETWORK, "covariate B"),
    ]))
    prevalence, diff_activity = data.draw(floats(0.05, 0.95)), data.draw(floats(0.2, 5.0))
    h = data.draw(floats(-2.0, assortativity_from_ratio(0.0, prevalence, diff_activity)))
    cfg = {name: dict(body) for name, body in valid.items()}
    cfg[section] = {"prevalence": repr(prevalence), "diff_activity": repr(diff_activity), "homophily_h": repr(h)}
    name = section.removeprefix("covariate ")
    message = f"[{section}] attribute {name!r}: assortativity {h!r} not attainable: must be in ("
    with pytest.raises(ConfigError, match=re.escape(message)):
        builder(round_trip(cfg))
