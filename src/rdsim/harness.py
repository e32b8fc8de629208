"""Replicated bias experiments: parameter sweeps and the cohort-mimic study.

For every cell of a target grid the harness generates a population
network, records the realized statistics as the truth, draws a recruitment
sample, computes the sample estimates, and reports the relative bias of
each estimator against the realized truth (never against the targets).
Cells with mathematically unreachable targets are recorded as named skip
rows instead of being dropped.

Reproducibility: every replicate derives its random streams from entropy
tuples built out of the master seed, a stream tag, the cell's parameter
content, and the replicate index. Streams therefore do not depend on cell
order or worker scheduling, and runs are byte-identical for a given master
seed at any worker count.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from itertools import product

import numpy as np

from .covariates import CovariateSpec, LatentBinaryModel, binary_sampler
from .errors import FitConvergenceError, InfeasibleTargetsError, or_none
from .estimators import relative_bias, sample_estimates
from .graph import (
    differential_activity,
    homophily_ratio,
    mean_degree,
    mixing_counts,
    newman_assortativity,
    prevalence,
)
from .netgen import (
    AttributeTargets,
    GENERATION_MODES,
    NetworkTargets,
    fit_dyad_model,
    generate_network,
    simulate_from_model,
    solve_dyad_classes,
)
from .sampler import SamplerConfig, run_rds
from .tables import write_rows

__all__ = [
    "ExperimentPlan",
    "EngageScenario",
    "Cell",
    "run_experiment",
    "run_engage_mimic",
    "summarize_replicates",
    "write_rows",
    "EXPERIMENT_COLUMNS",
    "EXPERIMENT_GROUP_COLUMNS",
    "RB_COLUMNS",
]

# Stream tags keep network generation, recruitment, and covariate draws on
# disjoint streams even within one replicate.
_TAG_NETWORK = 1
_TAG_RDS = 2
_TAG_COVARIATES = 3

_MODE_CODES = {mode: i for i, mode in enumerate(GENERATION_MODES)}
_SEED_SELECTION_CODES = {"uniform": 0, "degree": 1}


def _scaled(x: float) -> int:
    """Nonnegative integer image of a parameter for entropy tuples."""
    value = int(round(x * 1_000_000_000))
    if value < 0:
        raise ValueError("stream-entropy parameters must be nonnegative")
    return value


def _rng(*entropy: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(list(entropy)))


@dataclass(frozen=True)
class Cell:
    """One grid cell: swept parameters plus its position in the sweep."""

    index: int
    prevalence: float
    diff_activity: float
    homophily_ratio: float
    sample_size: int


@dataclass(frozen=True)
class ExperimentPlan:
    """Cross-product sweep over network targets and sample sizes.

    The grid crosses ``prevalences x diff_activities x homophily_ratios x
    sample_sizes`` at fixed population size, mean degree, and sampler
    settings, with ``replicates`` runs per cell.
    """

    node_count: int
    mean_degree: float
    prevalences: tuple[float, ...]
    diff_activities: tuple[float, ...]
    homophily_ratios: tuple[float, ...]
    sample_sizes: tuple[int, ...]
    num_seeds: int
    coupons_per_node: int
    replicates: int
    master_seed: int
    mode: str = "bernoulli"
    seed_selection: str = "uniform"
    regenerate_network: bool = True

    def __post_init__(self):
        object.__setattr__(self, "prevalences", tuple(float(v) for v in self.prevalences))
        object.__setattr__(self, "diff_activities", tuple(float(v) for v in self.diff_activities))
        object.__setattr__(self, "homophily_ratios", tuple(float(v) for v in self.homophily_ratios))
        object.__setattr__(self, "sample_sizes", tuple(int(v) for v in self.sample_sizes))
        if not (self.prevalences and self.diff_activities and self.homophily_ratios and self.sample_sizes):
            raise ValueError("every swept parameter list must be non-empty")
        if self.replicates < 1:
            raise ValueError("replicates must be >= 1")
        if self.master_seed < 0:
            raise ValueError("master_seed must be nonnegative")
        if self.mode not in GENERATION_MODES:
            raise ValueError(f"mode must be one of {GENERATION_MODES}")
        if max(self.sample_sizes) > self.node_count:
            raise ValueError("sample sizes cannot exceed the population size")
        # validates num_seeds/coupons against the smallest sample size
        SamplerConfig(self.num_seeds, self.coupons_per_node, min(self.sample_sizes), self.seed_selection)
        # Out-of-range targets fail here, before any cell runs; infeasible ones
        # become skip rows. sample_size is the innermost grid axis, so this
        # checks each (p, Da, R) once.
        for cell in self.cells()[:: len(self.sample_sizes)]:
            self.network_targets(cell)

    def cells(self) -> list[Cell]:
        combos = product(self.prevalences, self.diff_activities, self.homophily_ratios, self.sample_sizes)
        return [
            Cell(index, p, da, r, n)
            for index, (p, da, r, n) in enumerate(combos)
        ]

    def sampler_config(self, cell: Cell) -> SamplerConfig:
        return SamplerConfig(
            num_seeds=self.num_seeds,
            coupons_per_node=self.coupons_per_node,
            target_sample_size=cell.sample_size,
            seed_selection=self.seed_selection,
        )

    def network_targets(self, cell: Cell) -> NetworkTargets:
        return NetworkTargets(
            node_count=self.node_count,
            prevalence=cell.prevalence,
            mean_degree=self.mean_degree,
            diff_activity=cell.diff_activity,
            homophily_ratio=cell.homophily_ratio,
        )

    def _entropy(self, tag: int, cell: Cell, replicate: int) -> tuple[int, ...]:
        return (
            self.master_seed,
            tag,
            self.node_count,
            _scaled(self.mean_degree),
            self.num_seeds,
            self.coupons_per_node,
            _MODE_CODES[self.mode],
            _SEED_SELECTION_CODES[self.seed_selection],
            _scaled(cell.prevalence),
            _scaled(cell.diff_activity),
            _scaled(cell.homophily_ratio),
            cell.sample_size,
            replicate,
        )


_TRUTHS = ("prevalence", "diff_activity", "homophily", "homophily_ratio")
# SampleEstimates fields, in the column order of `estimate` and engage
# tables; induced_homophily is last, as it is set only when the estimates
# were given the population graph.
_ESTIMATES = (
    "diff_activity",
    "homophily",
    "homophily_ratio",
    "rds2_prevalence",
    "crude_prevalence",
    "induced_homophily",
)
# Estimand -> the realized truth its relative bias is measured against.
_BIAS_TRUTH = {
    "diff_activity": "diff_activity",
    "homophily": "homophily",
    "homophily_ratio": "homophily_ratio",
    "induced_homophily": "homophily",
    "rds2_prevalence": "prevalence",
}

EXPERIMENT_GROUP_COLUMNS = ["cell", "prevalence", "diff_activity", "homophily_ratio", "sample_size"]

RB_COLUMNS = [f"rb_{name}" for name in _BIAS_TRUTH]

# The cohort mimic has no population graph to estimate from, so no induced homophily.
_ENGAGE_RB_COLUMNS = [column for column in RB_COLUMNS if column != "rb_induced_homophily"]

EXPERIMENT_COLUMNS = EXPERIMENT_GROUP_COLUMNS + [
    "replicate",
    "status",
    "reason",
    "truth_prevalence",
    "truth_mean_degree",
    "truth_diff_activity",
    "truth_homophily",
    "truth_homophily_ratio",
    "est_diff_activity",
    "est_homophily",
    "est_homophily_ratio",
    "est_induced_homophily",
    "est_rds2_prevalence",
    "est_crude_prevalence",
    *RB_COLUMNS,
    "reseed_count",
    "max_wave",
    "truncated",
]


def _cell_key(cell: Cell) -> dict:
    return {
        "cell": cell.index,
        "prevalence": cell.prevalence,
        "diff_activity": cell.diff_activity,
        "homophily_ratio": cell.homophily_ratio,
        "sample_size": cell.sample_size,
    }


def _realized_truth(graph, z) -> dict:
    counts = mixing_counts(graph, z)
    return {
        "prevalence": prevalence(z),
        "mean_degree": mean_degree(graph),
        "diff_activity": or_none(differential_activity, graph, z),
        "homophily": or_none(newman_assortativity, counts),
        "homophily_ratio": or_none(homophily_ratio, counts),
    }


def _ok_row(key: dict, replicate: int, forest, est, truths: list[dict], suffixes: list[str]) -> dict:
    """One ``ok`` replicate row.

    Attribute k's truth, estimate and relative-bias fields come from
    ``truths[k]`` and ``est``, named with the suffix ``suffixes[k]``.
    """
    row = dict(key, replicate=replicate, status="ok", reason=None)
    row["truth_mean_degree"] = truths[0]["mean_degree"]
    for k, (truth, suffix) in enumerate(zip(truths, suffixes)):
        estimates = {name: getattr(est, name)[k] for name in _ESTIMATES if getattr(est, name) is not None}
        row.update((f"truth_{name}{suffix}", truth[name]) for name in _TRUTHS)
        row.update((f"est_{name}{suffix}", value) for name, value in estimates.items())
        row.update(
            (f"rb_{name}{suffix}", relative_bias(estimates[name], truth[of]))
            for name, of in _BIAS_TRUTH.items()
            if name in estimates
        )
    row.update(reseed_count=forest.reseed_count, max_wave=forest.max_wave, truncated=forest.truncated)
    return row


def _experiment_task(args: tuple[ExperimentPlan, Cell, tuple[int, ...]]) -> list[dict]:
    """Generate one network and run each of ``replicates`` over it.

    The network is derived from the first replicate's index, which is 0
    for every replicate of a fixed-network cell.
    """
    plan, cell, replicates = args
    network_rng = _rng(*plan._entropy(_TAG_NETWORK, cell, replicates[0]))
    graph, z = generate_network(plan.network_targets(cell), network_rng, plan.mode)
    truth = _realized_truth(graph, z)
    rows = []
    for replicate in replicates:
        rds_rng = _rng(*plan._entropy(_TAG_RDS, cell, replicate))
        forest = run_rds(graph, z, plan.sampler_config(cell), rds_rng)
        est = sample_estimates(forest, graph)
        rows.append(_ok_row(_cell_key(cell), replicate, forest, est, [truth], [""]))
    return rows


def _skip_row(key: dict, replicate: int, reason: str, columns: list[str]) -> dict:
    row = {column: None for column in columns}
    row.update(key)
    row.update(replicate=replicate, status="skipped", reason=reason)
    return row


def _run_tasks(tasks: list, worker, threads: int) -> list[dict]:
    if threads <= 1 or len(tasks) <= 1:
        return [worker(task) for task in tasks]
    chunksize = max(1, len(tasks) // (threads * 8))
    with ProcessPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(worker, tasks, chunksize=chunksize))


def run_experiment(
    plan: ExperimentPlan, threads: int = 1, out_dir=None
) -> tuple[list[dict], list[dict]]:
    """Run the grid sweep and summarize the relative-bias distributions.

    Every (cell, replicate) pair yields exactly one row: ``ok`` rows with
    realized truth, estimates, and relative biases, or ``skipped`` rows
    naming why the cell's targets are infeasible. Deterministic for a
    given plan at any thread count.

    Args:
        plan: Sweep description.
        threads: Process workers; 1 runs inline.
        out_dir: When given, write ``replicates.csv`` and ``summary.csv``
            there.

    Returns:
        (replicate rows, summary rows).
    """
    tasks = []
    rows: list[dict | None] = []
    row_slots: list[int] = []
    for cell in plan.cells():
        try:
            solve_dyad_classes(plan.network_targets(cell))
        except InfeasibleTargetsError as exc:
            key = _cell_key(cell)
            rows.extend(
                _skip_row(key, rep, str(exc), EXPERIMENT_COLUMNS) for rep in range(plan.replicates)
            )
            continue
        replicates = tuple(range(plan.replicates))
        if plan.regenerate_network:
            tasks.extend((plan, cell, (rep,)) for rep in replicates)
        else:
            tasks.append((plan, cell, replicates))
        row_slots.extend(range(len(rows), len(rows) + plan.replicates))
        rows.extend([None] * plan.replicates)

    computed = _run_tasks(tasks, _experiment_task, threads)
    for slot, row in zip(row_slots, (row for task_rows in computed for row in task_rows)):
        rows[slot] = row
    assert all(row is not None for row in rows)

    summary = summarize_replicates(rows, EXPERIMENT_GROUP_COLUMNS, RB_COLUMNS, plan.replicates)
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        write_rows(os.path.join(out_dir, "replicates.csv"), EXPERIMENT_COLUMNS, rows)
        summary_columns = EXPERIMENT_GROUP_COLUMNS + _SUMMARY_STAT_COLUMNS
        write_rows(os.path.join(out_dir, "summary.csv"), summary_columns, summary)
    return rows, summary


# ---------------------------------------------------------------------------
# Cohort-mimic scenario: several correlated attributes per network
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EngageScenario:
    """Multi-attribute scenario mimicking an observed recruitment study.

    Each replicate draws correlated binary covariates, fits the dyad model
    to the per-covariate activity/homophily targets at the realized group
    sizes, simulates the population network, and runs one recruitment
    sample over it.
    """

    node_count: int
    mean_degree: float
    covariates: tuple[AttributeTargets, ...]
    correlations: tuple[tuple[float, ...], ...]
    num_seeds: int
    coupons_per_node: int
    sample_size: int
    replicates: int
    master_seed: int

    def __post_init__(self):
        object.__setattr__(self, "covariates", tuple(self.covariates))
        object.__setattr__(
            self, "correlations", tuple(tuple(float(v) for v in row) for row in self.correlations)
        )
        if not self.covariates:
            raise ValueError("need at least one covariate")
        if self.replicates < 1:
            raise ValueError("replicates must be >= 1")
        if self.master_seed < 0:
            raise ValueError("master_seed must be nonnegative")
        if self.sample_size > self.node_count:
            raise ValueError("sample_size cannot exceed the population size")
        SamplerConfig(self.num_seeds, self.coupons_per_node, self.sample_size)
        self.covariate_spec()  # validates marginals/correlations

    @property
    def covariate_names(self) -> tuple[str, ...]:
        return tuple(c.name for c in self.covariates)

    def covariate_spec(self) -> CovariateSpec:
        return CovariateSpec(
            names=self.covariate_names,
            marginals=np.array([c.prevalence for c in self.covariates]),
            correlations=np.array(self.correlations, dtype=float),
        )

    def desk_scaled(self) -> "EngageScenario":
        """Scaled-down copy: population and sample shrink tenfold.

        Prevalences, mean degree, activity/homophily targets, seed and
        coupon counts, and the sampling fraction are preserved.
        """
        return replace(
            self,
            node_count=int(round(self.node_count / 10)),
            sample_size=int(round(self.sample_size / 10)),
        )

    def sampler_config(self) -> SamplerConfig:
        return SamplerConfig(self.num_seeds, self.coupons_per_node, self.sample_size)

    def _entropy(self, tag: int, replicate: int) -> tuple[int, ...]:
        return (
            self.master_seed,
            tag,
            self.node_count,
            _scaled(self.mean_degree),
            self.num_seeds,
            self.coupons_per_node,
            # one draw law; this constant keeps the streams of earlier versions
            _MODE_CODES["bernoulli"],
            self.sample_size,
            len(self.covariates),
            replicate,
        )


def engage_columns(names: tuple[str, ...]) -> list[str]:
    """Replicate-table column order for a covariate name tuple."""
    columns = ["replicate", "status", "reason", "truth_mean_degree"]
    for name in names:
        columns.extend(f"truth_{truth}_{name}" for truth in _TRUTHS)
        columns.extend(f"est_{est}_{name}" for est in _ESTIMATES if est != "induced_homophily")
        columns.extend(f"{column}_{name}" for column in _ENGAGE_RB_COLUMNS)
    columns.extend(["reseed_count", "max_wave", "truncated"])
    return columns


def _engage_task(args: tuple[EngageScenario, LatentBinaryModel, int]) -> dict:
    scenario, sampler_model, replicate = args
    names = scenario.covariate_names
    z = sampler_model.sample(scenario.node_count, _rng(*scenario._entropy(_TAG_COVARIATES, replicate)))
    try:
        model = fit_dyad_model(scenario.covariates, scenario.mean_degree, z)
    except (InfeasibleTargetsError, FitConvergenceError) as exc:
        return _skip_row({}, replicate, f"fit failed: {exc}", engage_columns(names))
    graph = simulate_from_model(model, z, _rng(*scenario._entropy(_TAG_NETWORK, replicate)))
    forest = run_rds(
        graph, z, scenario.sampler_config(), _rng(*scenario._entropy(_TAG_RDS, replicate)), names
    )
    est = sample_estimates(forest)
    truths = [_realized_truth(graph, z[:, k]) for k in range(len(names))]
    return _ok_row({}, replicate, forest, est, truths, [f"_{name}" for name in names])


def run_engage_mimic(
    scenario: EngageScenario, threads: int = 1, out_dir=None
) -> tuple[list[dict], list[dict]]:
    """Run the multi-attribute scenario; one row per replicate.

    Replicates whose dyad-model fit does not converge are recorded as
    skipped rows. Summary rows aggregate relative bias per covariate and
    estimand.
    """
    sampler_model = binary_sampler(scenario.covariate_spec())
    tasks = [(scenario, sampler_model, rep) for rep in range(scenario.replicates)]
    rows = _run_tasks(tasks, _engage_task, threads)

    names = scenario.covariate_names
    summary: list[dict] = []
    for name in names:
        per_cov = []
        for row in rows:
            flat = {"covariate": name, "status": row["status"]}
            for column in _ENGAGE_RB_COLUMNS:
                flat[column] = row.get(f"{column}_{name}")
            per_cov.append(flat)
        summary.extend(
            summarize_replicates(per_cov, ["covariate"], _ENGAGE_RB_COLUMNS, scenario.replicates)
        )
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        write_rows(os.path.join(out_dir, "replicates.csv"), engage_columns(names), rows)
        write_rows(os.path.join(out_dir, "summary.csv"), ["covariate"] + _SUMMARY_STAT_COLUMNS, summary)
    return rows, summary


# ---------------------------------------------------------------------------
# Summaries
# ---------------------------------------------------------------------------

_SUMMARY_STAT_COLUMNS = [
    "estimand",
    "count",
    "undefined",
    "undefined_rate",
    "mean",
    "min",
    "q25",
    "median",
    "q75",
    "max",
]


def summarize_replicates(
    rows: list[dict], group_columns: list[str], value_columns: list[str], replicates: int
) -> list[dict]:
    """Distribution summary per (group, estimand) over replicate rows.

    Quartiles use linear interpolation between order statistics. Undefined
    entries (missing estimates, zero truth, skipped replicates) are
    excluded from the statistics and counted, so
    ``count + undefined == replicates`` per group and estimand.
    """
    groups: dict[tuple, list[dict]] = {}  # in order of first appearance
    for row in rows:
        groups.setdefault(tuple(row[c] for c in group_columns), []).append(row)

    summary = []
    for key, members in groups.items():
        if len(members) != replicates:
            raise ValueError(
                f"group {key} has {len(members)} rows; expected {replicates} replicates"
            )
        for column in value_columns:
            values = np.array(
                [row[column] for row in members if row.get(column) is not None], dtype=float
            )
            entry = dict(zip(group_columns, key))
            entry["estimand"] = column.removeprefix("rb_")
            entry["count"] = int(values.size)
            entry["undefined"] = replicates - int(values.size)
            entry["undefined_rate"] = (replicates - int(values.size)) / replicates
            if values.size:
                q25, median, q75 = np.percentile(values, [25.0, 50.0, 75.0])
                entry.update(
                    mean=float(values.mean()),
                    min=float(values.min()),
                    q25=float(q25),
                    median=float(median),
                    q75=float(q75),
                    max=float(values.max()),
                )
            else:
                entry.update(mean=None, min=None, q25=None, median=None, q75=None, max=None)
            summary.append(entry)
    return summary
