"""Sizing of the worker pool behind ``--threads``.

The pool is replaced by a recorder that maps inline, so no test here
starts a worker process.
"""

import concurrent.futures
import re

import pytest

from rdsim import ExperimentPlan, harness, run_experiment
from rdsim.cli import build_parser


class InlinePool:
    """Stands in for ``ProcessPoolExecutor``: records each pool's sizing and maps inline."""

    pools: list[tuple[int, int]] = []

    def __init__(self, max_workers):
        self.max_workers = max_workers

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, iterable, chunksize=1):
        self.pools.append((self.max_workers, chunksize))
        return map(fn, iterable)


@pytest.fixture
def pools(monkeypatch):
    """Pools made by the harness, as (max_workers, chunksize), on a host with 3 usable CPUs."""
    made = []
    monkeypatch.setattr(InlinePool, "pools", made)
    # the harness imports the pool on its multi-worker branch, so it finds the stand-in there
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
    monkeypatch.setattr(harness, "_usable_cpus", lambda: 3)
    return made


def _square(x):
    return x * x


@pytest.mark.parametrize(
    "threads, tasks, expected",
    [
        (500, 100, [(3, 4)]),  # capped at the CPUs; chunksize from the capped count
        (2, 100, [(2, 6)]),
        (8, 2, [(2, 1)]),  # capped at the tasks
        (1, 100, []),  # one worker runs inline
        (500, 1, []),
    ],
)
def test_pool_is_capped_at_tasks_and_cpus(pools, threads, tasks, expected):
    assert harness._run_tasks(list(range(tasks)), _square, threads) == [x * x for x in range(tasks)]
    assert pools == expected


@pytest.mark.parametrize("threads", [0, -3, True, 2.5, "2"], ids=repr)
def test_threads_that_are_no_count_are_refused_before_any_task(pools, threads):
    ran = []
    with pytest.raises(ValueError, match=f"^{re.escape(f'threads must be an integer >= 1, got {threads!r}')}$"):
        harness._run_tasks(list(range(100)), ran.append, threads)
    assert ran == [] and pools == []


def test_a_single_usable_cpu_runs_inline(pools, monkeypatch):
    monkeypatch.setattr(harness, "_usable_cpus", lambda: 1)
    assert harness._run_tasks([1, 2, 3], _square, 4) == [1, 4, 9]
    assert pools == []


def test_usable_cpus_is_a_positive_count():
    assert harness._usable_cpus() >= 1


def test_experiment_rows_do_not_depend_on_the_pool(pools):
    plan = ExperimentPlan(
        node_count=100,
        mean_degree=6.0,
        prevalences=(0.3,),
        diff_activities=(1.0, 2.0),
        homophily_ratios=(1.0,),
        sample_sizes=(20,),
        num_seeds=2,
        coupons_per_node=2,
        replicates=3,
        master_seed=9,
    )
    inline, _ = run_experiment(plan, threads=1)
    pooled, _ = run_experiment(plan, threads=500)
    assert pools == [(3, 1)]
    assert pooled == inline


@pytest.mark.parametrize("command", ["experiment", "engage-mimic"])
@pytest.mark.parametrize("threads", ["0", "-3"])
def test_threads_below_one_are_rejected(capsys, command, threads):
    with pytest.raises(SystemExit) as info:
        build_parser().parse_args([command, "--config", "x.cfg", "--threads", threads])
    assert info.value.code == 2
    assert f"threads must be an integer >= 1, got {threads}" in capsys.readouterr().err
