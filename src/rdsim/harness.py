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
seed at any worker count. The network and recruitment streams omit the
sample size, so the sample sizes of one (prevalence, activity, homophily)
replicate share their population network and one recruitment run: each
sample is the first ``sample_size`` entries of the run to the largest size,
as a study that stopped recruiting earlier would have drawn it. Samples
are nested, and comparisons across sampling fractions are paired.
"""

from __future__ import annotations

import os
from dataclasses import astuple, dataclass
from itertools import product

import numpy as np

from .covariates import CovariateSpec, LatentBinaryModel, binary_sampler
from .errors import FitConvergenceError, InfeasibleTargetsError, or_none
from .estimators import _PER_ATTRIBUTE, relative_bias, sample_estimates
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
from .sampler import SEED_SELECTION_MODES, SamplerConfig, run_rds
from .tables import check_names, write_rows

__all__ = [
    "ExperimentPlan",
    "EngageScenario",
    "Cell",
    "run_experiment",
    "run_engage_mimic",
    "summarize_replicates",
]

# Stream tags keep network generation, recruitment, and covariate draws on
# disjoint streams even within one replicate.
_TAG_NETWORK = 1
_TAG_RDS = 2
_TAG_COVARIATES = 3

_MODE_CODES = {mode: i for i, mode in enumerate(GENERATION_MODES)}
_SEED_SELECTION_CODES = {mode: i for i, mode in enumerate(SEED_SELECTION_MODES)}


def _scaled(x: float) -> int:
    """Nonnegative integer image of a parameter for entropy tuples."""
    value = int(round(x * 1_000_000_000))
    if value < 0:
        raise ValueError("stream-entropy parameters must be nonnegative")
    return value


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
    settings, with ``replicates`` runs per cell. Each replicate of a
    (p, Da, R) builds one network and runs one recruitment, shared by its
    sample sizes; with ``regenerate_network=False`` one network serves
    every replicate too. A swept list must not repeat a value: a repeat
    would not be a replicate but a copy of the same rows.
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
        for name in ("prevalences", "diff_activities", "homophily_ratios", "sample_sizes"):
            values = getattr(self, name)
            if not values:
                raise ValueError("every swept parameter list must be non-empty")
            if len(set(values)) != len(values):
                raise ValueError(f"{name} repeats a value: {values}")
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
        # become skip rows.
        for group in self.cell_groups():
            self.network_targets(group[0])

    def cells(self) -> list[Cell]:
        combos = product(self.prevalences, self.diff_activities, self.homophily_ratios, self.sample_sizes)
        return [
            Cell(index, p, da, r, n)
            for index, (p, da, r, n) in enumerate(combos)
        ]

    def cell_groups(self) -> list[tuple[Cell, ...]]:
        """The cells of each (p, Da, R), one tuple per network target.

        ``sample_size`` is the innermost grid axis, so each tuple is a run of
        consecutive cells that differ only in their sample size.
        """
        cells = self.cells()
        width = len(self.sample_sizes)
        return [tuple(cells[i : i + width]) for i in range(0, len(cells), width)]

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
        # no stream holds the sample size, so all sample sizes of a
        # (p, Da, R) replicate share one population and one recruitment run
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
            replicate,
        )


# The realized statistic of the whole graph; the rest are per attribute.
_GRAPH_TRUTH = "mean_degree"
_TRUTHS = ("prevalence", "diff_activity", "homophily", "homophily_ratio")
# Estimand -> the realized truth its relative bias is measured against.
_BIAS_TRUTH = {
    "diff_activity": "diff_activity",
    "homophily": "homophily",
    "homophily_ratio": "homophily_ratio",
    "induced_homophily": "homophily",
    "rds2_prevalence": "prevalence",
}


def _replicate_columns(suffixes: list[str]) -> list[str]:
    """Replicate-table columns after the group key, the one layout of both studies.

    Status first, then the graph truth, then one block per attribute
    suffix: its truths, every estimate (the estimators see the population
    graph, so induced homophily too) and the relative biases. Forest
    statistics close the row.
    """
    columns = ["replicate", "status", "reason", f"truth_{_GRAPH_TRUTH}"]
    for suffix in suffixes:
        columns.extend(f"truth_{name}{suffix}" for name in _TRUTHS)
        columns.extend(f"est_{name}{suffix}" for name in _PER_ATTRIBUTE)
        columns.extend(f"rb_{name}{suffix}" for name in _BIAS_TRUTH)
    return columns + ["reseed_count", "max_wave", "truncated"]


EXPERIMENT_GROUP_COLUMNS = ["cell", "prevalence", "diff_activity", "homophily_ratio", "sample_size"]

EXPERIMENT_COLUMNS = EXPERIMENT_GROUP_COLUMNS + _replicate_columns([""])

RB_COLUMNS = [column for column in EXPERIMENT_COLUMNS if column.startswith("rb_")]


def _cell_key(cell: Cell) -> dict:
    return dict(zip(EXPERIMENT_GROUP_COLUMNS, astuple(cell)))


def _realized_truth(graph, z) -> dict:
    counts = mixing_counts(graph, z)
    return {
        "prevalence": prevalence(z),
        _GRAPH_TRUTH: mean_degree(graph),
        "diff_activity": or_none(differential_activity, graph, z),
        "homophily": or_none(newman_assortativity, counts),
        "homophily_ratio": or_none(homophily_ratio, counts),
    }


def _ok_row(key: dict, replicate: int, est, truths: list[dict], suffixes: list[str]) -> dict:
    """One ``ok`` replicate row.

    Attribute k's truth, estimate and relative-bias fields come from
    ``truths[k]`` and ``est``, named with the suffix ``suffixes[k]``; the
    forest statistics come from ``est`` too.
    """
    row = dict(key, replicate=replicate, status="ok", reason=None)
    row[f"truth_{_GRAPH_TRUTH}"] = truths[0][_GRAPH_TRUTH]
    for k, (truth, suffix) in enumerate(zip(truths, suffixes)):
        estimates = est.for_attribute(k)
        row.update((f"truth_{name}{suffix}", truth[name]) for name in _TRUTHS)
        row.update((f"est_{name}{suffix}", value) for name, value in estimates.items())
        row.update(
            (f"rb_{name}{suffix}", relative_bias(estimates[name], truth[of]))
            for name, of in _BIAS_TRUTH.items()
        )
    row.update(reseed_count=est.reseed_count, max_wave=est.max_wave, truncated=est.truncated)
    return row


def _experiment_task(args: tuple[ExperimentPlan, tuple[Cell, ...], tuple[int, ...]]) -> list[dict]:
    """Generate one network and run every replicate of a cell group over it.

    The cells are one (p, Da, R) group, so they share the network targets
    and differ only in sample size. The network is derived from the first
    replicate's index, which is 0 for every replicate of a fixed-network
    group. Each replicate makes one recruitment run, to the group's
    largest sample size, and one ``sample_estimates`` call over that run
    estimates every cell's sample, the run's prefix of the cell's size,
    without building the prefix. Rows come replicate by replicate, each
    replicate's cells in group order.
    """
    plan, cells, replicates = args
    network_rng = np.random.default_rng(plan._entropy(_TAG_NETWORK, cells[0], replicates[0]))
    graph, z = generate_network(plan.network_targets(cells[0]), network_rng, plan.mode)
    truth = _realized_truth(graph, z)
    # the config does not sort the sample sizes, so the largest need not be last
    config = plan.sampler_config(max(cells, key=lambda cell: cell.sample_size))
    keys = [_cell_key(cell) for cell in cells]
    sizes = [cell.sample_size for cell in cells]
    rows = []
    for replicate in replicates:
        rds_rng = np.random.default_rng(plan._entropy(_TAG_RDS, cells[0], replicate))
        run = run_rds(graph, z, config, rds_rng)
        estimates = sample_estimates(run, graph, sizes)
        rows.extend(_ok_row(key, replicate, est, [truth], [""]) for key, est in zip(keys, estimates))
    return rows


def _skip_row(key: dict, replicate: int, reason: str, columns: list[str]) -> dict:
    row = {column: None for column in columns}
    row.update(key)
    row.update(replicate=replicate, status="skipped", reason=reason)
    return row


def _usable_cpus() -> int:
    """CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):  # not on every platform
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _run_tasks(tasks: list, worker, threads: int) -> list[dict]:
    """``[worker(task) for task in tasks]``, in a process pool when more than one worker runs.

    The pool's import (``multiprocessing``, ``socket``, ``logging`` and more)
    is paid only on that branch, so a one-worker run never loads it.
    """
    # a worker beyond the tasks or the usable CPUs would only be forked and wait
    workers = min(threads, len(tasks), _usable_cpus())
    if workers <= 1:
        return [worker(task) for task in tasks]
    from concurrent.futures import ProcessPoolExecutor

    chunksize = max(1, len(tasks) // (workers * 8))
    with ProcessPoolExecutor(max_workers=workers) as pool:
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
        threads: Most process workers; the pool is capped at the task count
            and the CPUs this process may use, and one worker runs inline.
        out_dir: When given, write ``replicates.csv`` and ``summary.csv``
            there.

    Returns:
        (replicate rows, summary rows).
    """
    replicates = tuple(range(plan.replicates))
    tasks = []
    rows = []
    for group in plan.cell_groups():
        try:
            solve_dyad_classes(plan.network_targets(group[0]))
        except InfeasibleTargetsError as exc:
            rows.extend(
                _skip_row(_cell_key(cell), rep, str(exc), EXPERIMENT_COLUMNS)
                for cell in group
                for rep in replicates
            )
            continue
        if plan.regenerate_network:
            tasks.extend((plan, group, (rep,)) for rep in replicates)
        else:
            tasks.append((plan, group, replicates))

    for task_rows in _run_tasks(tasks, _experiment_task, threads):
        rows.extend(task_rows)
    rows.sort(key=lambda row: (row["cell"], row["replicate"]))
    assert len(rows) == len(plan.cells()) * plan.replicates

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
    sample over it. Its rows take the ``experiment`` layout, one block per
    covariate, so they carry the induced-subgraph oracle too.
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
        if not 0.0 < self.mean_degree <= self.node_count - 1:
            raise ValueError("mean_degree must be in (0, node_count - 1]")
        if self.sample_size > self.node_count:
            raise ValueError("sample_size cannot exceed the population size")
        SamplerConfig(self.num_seeds, self.coupons_per_node, self.sample_size)
        self.covariate_spec()  # validates names, marginals and correlations
        # names such as "X" and "ratio_X" can spell one column twice
        check_names(engage_columns(self.covariate_names))

    @property
    def covariate_names(self) -> tuple[str, ...]:
        return tuple(c.name for c in self.covariates)

    def covariate_spec(self) -> CovariateSpec:
        return CovariateSpec(
            names=self.covariate_names,
            marginals=np.array([c.prevalence for c in self.covariates]),
            correlations=np.array(self.correlations, dtype=float),
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
    return _replicate_columns([f"_{name}" for name in names])


def _engage_task(args: tuple[EngageScenario, LatentBinaryModel, int]) -> dict:
    scenario, sampler_model, replicate = args
    names = scenario.covariate_names
    suffixes = [f"_{name}" for name in names]
    covariate_rng = np.random.default_rng(scenario._entropy(_TAG_COVARIATES, replicate))
    z = sampler_model.sample(scenario.node_count, covariate_rng)
    try:
        model = fit_dyad_model(scenario.covariates, scenario.mean_degree, z)
    except (InfeasibleTargetsError, FitConvergenceError) as exc:
        return _skip_row({}, replicate, f"fit failed: {exc}", _replicate_columns(suffixes))
    network_rng = np.random.default_rng(scenario._entropy(_TAG_NETWORK, replicate))
    graph = simulate_from_model(model, z, network_rng)
    rds_rng = np.random.default_rng(scenario._entropy(_TAG_RDS, replicate))
    forest = run_rds(graph, z, scenario.sampler_config(), rds_rng, names)
    est = sample_estimates(forest, graph)
    truths = [_realized_truth(graph, z[:, k]) for k in range(len(names))]
    return _ok_row({}, replicate, est, truths, suffixes)


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
    # one summary over every covariate's rb_ columns, covariate-major as the rows list them
    pairs = [(name, estimand) for name in names for estimand in _BIAS_TRUTH]
    columns = [f"rb_{estimand}_{name}" for name, estimand in pairs]
    summary = [
        {"covariate": name, **entry, "estimand": estimand}
        for (name, estimand), entry in zip(pairs, summarize_replicates(rows, [], columns, scenario.replicates))
    ]
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
