"""Strict sectioned key/value config files and plan builders.

Format: ``[section]`` headers, ``key = value`` lines, ``#`` comment lines,
blank lines ignored. Unknown sections, unknown keys, and duplicate
sections/keys are hard errors so a typo in a sweep definition cannot
silently vanish. Covariates get one section each (``[covariate NAME]``)
plus an optional ``[correlations]`` section with ``NAME:NAME = r`` pairs.
"""

from __future__ import annotations

import dataclasses
import math
from contextlib import contextmanager

import numpy as np

from .covariates import CovariateSpec
from .errors import ConfigError, _check_choice, _check_count
from .graph import ratio_from_assortativity
from .harness import EngageScenario, ExperimentPlan
from .netgen import AttributeTargets, GENERATION_MODES, NetworkTargets, _check_attribute_count, _check_population
from .sampler import SEED_SELECTION_MODES, SamplerConfig

__all__ = [
    "parse_config",
    "load_config",
    "serialize_config",
    "network_run_from_config",
    "sampler_config_from_config",
    "experiment_plan_from_config",
    "engage_scenario_from_config",
    "covariate_spec_from_config",
]

# Every key of every section and its type; a tuple of strings is a set of
# choices. [correlations] keys are NAME:NAME pairs, validated against the
# covariates.
_SCHEMA = {
    "network": {
        "n": int,
        "p": float,
        "mean_degree": float,
        "diff_activity": float,
        "homophily_r": float,
        "homophily_h": float,
        "mode": GENERATION_MODES,
    },
    "rds": {
        "seeds": int,
        "coupons": int,
        "sample_size": int,
        "seed_selection": SEED_SELECTION_MODES,
        "reseed": bool,
    },
    "experiment": {"replicates": int, "seed": int, "fixed_network": bool},
    "engage": {
        "n": int,
        "mean_degree": float,
        "seeds": int,
        "coupons": int,
        "sample_size": int,
        "replicates": int,
        "seed": int,
    },
    "covgen": {"n": int, "seed": int},
    "covariate": {
        "prevalence": float,
        "diff_activity": float,
        "homophily_r": float,
        "homophily_h": float,
    },
}

_DEFAULTS = {
    "network": {"mode": "bernoulli"},
    "rds": {"seed_selection": "uniform", "reseed": True},
    "experiment": {"fixed_network": False},
    "covgen": {"seed": 0},
}

_BOOLEANS = {
    "true": True, "yes": True, "1": True, "on": True,
    "false": False, "no": False, "0": False, "off": False,
}


def parse_config(text: str, source: str = "<config>") -> dict[str, dict[str, str]]:
    """Parse config text into ``{section: {key: value}}`` preserving order."""
    sections: dict[str, dict[str, str]] = {}
    current: str | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("[") and line.endswith("]"):
            name = line[1:-1].strip()
            if not name:
                raise ConfigError(f"{source}:{lineno}: empty section name")
            if name in sections:
                raise ConfigError(f"{source}:{lineno}: duplicate section [{name}]")
            sections[name] = {}
            current = name
            continue
        if "=" not in line:
            raise ConfigError(f"{source}:{lineno}: expected 'key = value' or '[section]'")
        if current is None:
            raise ConfigError(f"{source}:{lineno}: key/value line before any [section]")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if not key:
            raise ConfigError(f"{source}:{lineno}: empty key")
        if key in sections[current]:
            raise ConfigError(f"{source}:{lineno}: duplicate key {key!r} in [{current}]")
        sections[current][key] = value
    return sections


def load_config(path) -> dict[str, dict[str, str]]:
    with open(path, encoding="utf-8-sig") as fh:
        return parse_config(fh.read(), source=str(path))


def serialize_config(sections: dict[str, dict[str, str]]) -> str:
    """Render sections back into config text (used for run manifests)."""
    chunks = []
    for name, body in sections.items():
        lines = [f"[{name}]"]
        lines.extend(f"{key} = {value}" for key, value in body.items())
        chunks.append("\n".join(lines))
    return "\n\n".join(chunks) + "\n"


@contextmanager
def _refused(source: str, section: str | None = None):
    """Turn a target type's ``ValueError`` in the block into a ``ConfigError`` naming the file and section."""
    try:
        yield
    except ValueError as exc:
        where = "" if section is None else f"[{section}] "
        raise ConfigError(f"{source}: {where}{exc}") from None


def _is_covariate(section: str) -> bool:
    """Whether ``section`` is a ``[covariate NAME]`` section (a bare ``[covariate]`` included)."""
    return section.partition(" ")[0] == "covariate"


def _check_sections(cfg, required: set[str], allow_covariates: bool, source: str):
    seen = set()
    for name in cfg:
        if allow_covariates and (_is_covariate(name) or name == "correlations"):
            continue
        if name not in required:
            raise ConfigError(f"{source}: unknown section [{name}] for this command")
        seen.add(name)
    missing = required - seen
    if missing:
        raise ConfigError(f"{source}: missing required section(s): {', '.join(sorted(missing))}")


class _Section(dict):
    """Typed values of one section; reading a missing key is a ConfigError."""

    def __init__(self, section: str, source: str):
        super().__init__()
        self.section = section
        self.source = source

    def __missing__(self, key: str):
        raise ConfigError(f"{self.source}: missing key {key!r} in [{self.section}]")


def _read(cfg, section: str, source: str, lists=(), schema=None) -> _Section:
    """Check, default and parse the keys of ``cfg[section]`` against ``schema``.

    ``schema`` maps each allowed key to its type (default: the section's
    entry in ``_SCHEMA``). Keys named in ``lists`` are comma-separated lists
    of that type, with no value repeated: the lists are sweep axes, where a
    repeat would run a copy of the same cells. Non-finite numbers are
    rejected.
    """
    schema = _SCHEMA[section] if schema is None else schema

    def parse(key: str, text: str):
        kind = schema[key]
        if isinstance(kind, tuple):
            with _refused(source, section):
                return _check_choice(key, text, kind)
        if kind is bool:
            if text.lower() not in _BOOLEANS:
                raise ConfigError(f"{source}: [{section}] {key} = {text!r} is not a boolean")
            return _BOOLEANS[text.lower()]
        try:
            value = kind(text)
        except ValueError:
            raise ConfigError(f"{source}: [{section}] {key} = {text!r} is not a valid {kind.__name__}")
        try:
            finite = math.isfinite(value)
        except OverflowError:  # an int past the float range
            finite = False
        if not finite:
            raise ConfigError(f"{source}: [{section}] {key} = {text!r} is not a finite number")
        return value

    values = _Section(section, source)
    values.update(_DEFAULTS.get(section, {}))
    for key, text in cfg.get(section, {}).items():
        if key not in schema:
            raise ConfigError(
                f"{source}: unknown key {key!r} in [{section}] (known: {', '.join(sorted(schema))})"
            )
        if key in lists:
            parts = [part.strip() for part in text.split(",")]
            if not all(parts):
                raise ConfigError(f"{source}: [{section}] {key} has an empty list entry")
            values[key] = [parse(key, part) for part in parts]
            if len(set(values[key])) != len(parts):
                raise ConfigError(f"{source}: [{section}] {key} = {text!r} repeats a value")
        else:
            values[key] = parse(key, text)
    return values


def _homophily_key(values: _Section) -> str:
    """The one homophily key a section gives: ``homophily_r`` or ``homophily_h``."""
    if ("homophily_r" in values) == ("homophily_h" in values):
        raise ConfigError(
            f"{values.source}: [{values.section}] needs exactly one of homophily_r or homophily_h"
        )
    return "homophily_r" if "homophily_r" in values else "homophily_h"


def network_run_from_config(cfg, source: str = "<config>"):
    """[network] with scalar values -> (NetworkTargets, mode)."""
    _check_sections(cfg, {"network"}, False, source)
    net = _read(cfg, "network", source)
    args = (net["n"], net["p"], net["mean_degree"], net["diff_activity"])
    key = _homophily_key(net)
    with _refused(source, "network"):
        if key == "homophily_r":
            return NetworkTargets(*args, net[key]), net["mode"]
        # the bridge is taken at the prevalence of the network drawn, whose group sizes are rounded
        targets = NetworkTargets(*args, 0.0)
        ratio = ratio_from_assortativity(net[key], targets.group_sizes[0] / net["n"], net["diff_activity"])
        return dataclasses.replace(targets, homophily_ratio=ratio), net["mode"]


def multi_network_run_from_config(cfg, source: str = "<config>"):
    """[network] (n, mean_degree) + covariate sections -> generation inputs.

    Returns (node_count, mean_degree, attribute targets tuple,
    CovariateSpec). Used when a network is generated over several
    correlated attributes instead of a single one.
    """
    _check_sections(cfg, {"network"}, True, source)
    for key in cfg["network"]:
        if key not in ("n", "mean_degree"):
            raise ConfigError(
                f"{source}: [network] key {key!r} not allowed with covariate sections "
                f"(use per-covariate blocks for targets)"
            )
    net = _read(cfg, "network", source)
    with _refused(source, "network"):
        _check_population(net["n"], net["mean_degree"])
    targets = _covariate_targets(cfg, source)
    with _refused(source):
        _check_attribute_count(len(targets))
    return net["n"], net["mean_degree"], targets, _covariate_spec(cfg, targets, source)


def has_covariate_sections(cfg) -> bool:
    return any(map(_is_covariate, cfg))


def sampler_config_from_config(cfg, source: str = "<config>") -> SamplerConfig:
    """[rds] with a scalar sample size -> SamplerConfig."""
    _check_sections(cfg, {"rds"}, False, source)
    rds = _read(cfg, "rds", source)
    with _refused(source, "rds"):
        return SamplerConfig(
            num_seeds=rds["seeds"],
            coupons_per_node=rds["coupons"],
            target_sample_size=rds["sample_size"],
            seed_selection=rds["seed_selection"],
            reseed_on_death=rds["reseed"],
        )


def experiment_plan_from_config(cfg, source: str = "<config>") -> ExperimentPlan:
    """[network] + [rds] + [experiment] -> ExperimentPlan."""
    _check_sections(cfg, {"network", "rds", "experiment"}, False, source)
    rds = _read(cfg, "rds", source, lists=("sample_size",))
    experiment = _read(cfg, "experiment", source)
    # homophily_h is read as a list too, so a swept one meets the ratio-scale error below
    net = _read(cfg, "network", source, lists=("p", "diff_activity", "homophily_r", "homophily_h"))
    if _homophily_key(net) != "homophily_r":
        raise ConfigError(
            f"{source}: sweeps are defined on the ratio scale; use homophily_r in [network]"
        )
    if not rds["reseed"]:
        raise ConfigError(
            f"{source}: [rds] reseed = false is not supported by sweeps, which always reseed"
        )
    with _refused(source):
        return ExperimentPlan(
            node_count=net["n"],
            mean_degree=net["mean_degree"],
            prevalences=tuple(net["p"]),
            diff_activities=tuple(net["diff_activity"]),
            homophily_ratios=tuple(net["homophily_r"]),
            sample_sizes=tuple(rds["sample_size"]),
            num_seeds=rds["seeds"],
            coupons_per_node=rds["coupons"],
            replicates=experiment["replicates"],
            master_seed=experiment["seed"],
            mode=net["mode"],
            seed_selection=rds["seed_selection"],
            regenerate_network=not experiment["fixed_network"],
        )


def _covariate_targets(cfg, source: str, network: bool = True) -> tuple[AttributeTargets, ...]:
    """One AttributeTargets per ``[covariate NAME]`` section, in file order.

    With ``network=False`` a section needs only ``prevalence``: the network
    targets it gives are checked as usual, and neutral ones (diff_activity
    and homophily_r of 1) stand in for those it leaves out.
    A repeated name is left to the ``CovariateSpec`` of :func:`_covariate_spec`.
    """
    targets = []
    for section in filter(_is_covariate, cfg):
        name = section[len("covariate"):].strip()
        if not name:
            raise ConfigError(f"{source}: covariate section needs a name: [covariate NAME]")
        values = _read(cfg, section, source, schema=_SCHEMA["covariate"])
        if not network:
            values.setdefault("diff_activity", 1.0)
            if "homophily_r" not in values and "homophily_h" not in values:
                values["homophily_r"] = 1.0
        key = _homophily_key(values)
        scale = {"homophily_r": "homophily_ratio", "homophily_h": "assortativity"}[key]
        with _refused(source, section):
            targets.append(
                AttributeTargets(
                    name, values["prevalence"], values["diff_activity"], **{scale: values[key]}
                )
            )
    if not targets:
        raise ConfigError(f"{source}: need at least one [covariate NAME] section")
    return tuple(targets)


def _covariate_spec(cfg, targets: tuple[AttributeTargets, ...], source: str) -> CovariateSpec:
    """Marginals of ``targets`` plus the ``[correlations]`` pairs (unlisted pairs are 0)."""
    names = [t.name for t in targets]
    index = {name: i for i, name in enumerate(names)}
    pairs: dict[str, tuple[int, int]] = {}
    for key in cfg.get("correlations", {}):
        left, sep, right = key.partition(":")
        left, right = left.strip(), right.strip()
        if not sep or left not in index or right not in index or left == right:
            raise ConfigError(
                f"{source}: [correlations] key {key!r} must be 'NAME:NAME' over distinct covariates"
            )
        pair = tuple(sorted((index[left], index[right])))
        if pair in pairs.values():
            raise ConfigError(f"{source}: [correlations] duplicate pair {key!r}")
        pairs[key] = pair
    matrix = np.eye(len(names))
    for key, r in _read(cfg, "correlations", source, schema=dict.fromkeys(pairs, float)).items():
        i, j = pairs[key]
        matrix[i, j] = matrix[j, i] = r
    with _refused(source):
        return CovariateSpec(tuple(names), np.array([t.prevalence for t in targets]), matrix)


def covariate_spec_from_config(cfg, source: str = "<config>") -> tuple[CovariateSpec, int, int]:
    """Covariate sections (+ [covgen], [correlations]) -> (spec, n, seed).

    Only the prevalences and correlations are drawn from, so a covariate
    section needs no network targets.
    """
    _check_sections(cfg, {"covgen"}, True, source)
    covgen = _read(cfg, "covgen", source)
    with _refused(source, "covgen"):
        _check_count("n", covgen["n"], 1)
        _check_count("seed", covgen["seed"], 0)
    spec = _covariate_spec(cfg, _covariate_targets(cfg, source, network=False), source)
    return spec, covgen["n"], covgen["seed"]


def engage_scenario_from_config(cfg, source: str = "<config>") -> EngageScenario:
    """[engage] + covariate sections (+ [correlations]) -> EngageScenario."""
    _check_sections(cfg, {"engage"}, True, source)
    engage = _read(cfg, "engage", source)
    targets = _covariate_targets(cfg, source)
    spec = _covariate_spec(cfg, targets, source)
    with _refused(source):
        return EngageScenario(
            node_count=engage["n"],
            mean_degree=engage["mean_degree"],
            covariates=targets,
            correlations=tuple(tuple(row) for row in spec.correlations),
            num_seeds=engage["seeds"],
            coupons_per_node=engage["coupons"],
            sample_size=engage["sample_size"],
            replicates=engage["replicates"],
            master_seed=engage["seed"],
        )
