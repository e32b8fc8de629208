"""Output checks on the CSV files one batch writes.

Each check names the rows it condemns, so the batch can count failed
replicates: a fit-failure skip row, a row that breaks a check, or every
row of a summary group that breaks one. A structural failure (wrong row
count, missing replicate) condemns the whole batch.

Tolerances on realized statistics come from binomial noise. Group
membership is Binomial(N, p) (exact ``round(p*N)`` in the sweep) and the
edge count is a sum of independent binomials whose variance is at most its
mean ``N*d/2``, so the realized mean degree has standard deviation at most
``sqrt(2*d/N)``. Six standard deviations, plus one node's rounding for
prevalence, leave a false alarm probability near 1e-9 per row.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from pathlib import Path

from workloads import TABLE2_CELLS, TABLE2_INFEASIBLE_CELLS

_TEXT_COLUMNS = {"status", "reason", "truncated"}


@dataclass
class CheckReport:
    """Check outcome: readable errors and the attempted rows they condemn."""

    attempted: int
    errors: list[str] = field(default_factory=list)
    failed_keys: set = field(default_factory=set)
    structural: bool = False

    @property
    def failed(self) -> int:
        return self.attempted if self.structural else len(self.failed_keys)

    def fail(self, message: str, keys=(), structural: bool = False) -> None:
        self.errors.append(message)
        self.failed_keys.update(keys)
        self.structural = self.structural or structural


def prevalence_tolerance(p: float, n: int) -> float:
    return 6.0 * math.sqrt(p * (1.0 - p) / n) + 1.0 / n


def mean_degree_tolerance(d: float, n: int) -> float:
    return 6.0 * math.sqrt(2.0 * d / n)


def read_csv(path: Path) -> list[dict[str, str]]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _number(text: str) -> float | None:
    return float(text) if text else None


def _nonfinite_columns(row: dict[str, str]) -> list[str]:
    return [
        column
        for column, text in row.items()
        if column not in _TEXT_COLUMNS and text and not math.isfinite(float(text))
    ]


def _check_summary(report: CheckReport, summary: list[dict], group_of, replicates: int,
                   groups: dict, estimands: int) -> None:
    """``count + undefined == replicates`` for every group and estimand."""
    if len(summary) != len(groups) * estimands:
        report.fail(
            f"summary has {len(summary)} rows, expected {len(groups)} groups x {estimands} estimands",
            structural=True,
        )
    for entry in summary:
        group = group_of(entry)
        if int(entry["count"]) + int(entry["undefined"]) != replicates:
            report.fail(
                f"summary group {group} estimand {entry['estimand']}: "
                f"count {entry['count']} + undefined {entry['undefined']} != {replicates}",
                groups.get(group, ()),
            )


def infeasible_cells(plan) -> set[int]:
    """Cells whose targets the dyad-class solve rejects, solved independently."""
    from rdsim.errors import InfeasibleTargetsError
    from rdsim.netgen import solve_dyad_classes

    rejected = set()
    for cell in plan.cells():
        try:
            solve_dyad_classes(plan.network_targets(cell))
        except InfeasibleTargetsError:
            rejected.add(cell.index)
    return rejected


def check_experiment(out_dir: Path, plan) -> CheckReport:
    """Checks for a grid sweep over the table2 grid."""
    cells = plan.cells()
    infeasible = infeasible_cells(plan)
    replicates = plan.replicates
    feasible = [c for c in cells if c.index not in infeasible]
    report = CheckReport(attempted=len(feasible) * replicates)
    if len(cells) != TABLE2_CELLS or len(infeasible) != TABLE2_INFEASIBLE_CELLS:
        report.fail(
            f"{len(infeasible)} of {len(cells)} cells infeasible; the table2 grid has "
            f"{TABLE2_INFEASIBLE_CELLS} of {TABLE2_CELLS}",
            structural=True,
        )
    rows = read_csv(out_dir / "replicates.csv")
    if len(rows) != len(cells) * replicates:
        report.fail(f"{len(rows)} rows, expected {len(cells)} cells x {replicates}", structural=True)

    by_index = {c.index: c for c in cells}
    seen = set()
    tol_md = mean_degree_tolerance(plan.mean_degree, plan.node_count)
    for row in rows:
        key = (int(row["cell"]), int(row["replicate"]))
        seen.add(key)
        cell = by_index.get(key[0])
        if cell is None:
            report.fail(f"row for unknown cell {key[0]}", structural=True)
            continue
        skipped = row["status"] == "skipped"
        if skipped != (cell.index in infeasible):
            report.fail(
                f"cell {cell.index} replicate {key[1]}: status {row['status']!r} but the "
                f"solve {'rejects' if cell.index in infeasible else 'accepts'} the cell",
                [key],
            )
            continue
        if skipped:
            if not row["reason"]:
                report.fail(f"cell {cell.index}: skip row without a reason", [key])
            continue
        bad = _nonfinite_columns(row)
        if bad:
            report.fail(f"cell {cell.index} replicate {key[1]}: non-finite {bad}", [key])
        truth_p = _number(row["truth_prevalence"])
        tol_p = prevalence_tolerance(cell.prevalence, plan.node_count)
        if truth_p is None or abs(truth_p - cell.prevalence) > tol_p:
            report.fail(
                f"cell {cell.index} replicate {key[1]}: prevalence {truth_p} vs target "
                f"{cell.prevalence} (tolerance {tol_p:.4g})",
                [key],
            )
        truth_md = _number(row["truth_mean_degree"])
        if truth_md is None or abs(truth_md - plan.mean_degree) > tol_md:
            report.fail(
                f"cell {cell.index} replicate {key[1]}: mean degree {truth_md} vs target "
                f"{plan.mean_degree} (tolerance {tol_md:.4g})",
                [key],
            )
    expected = {(c.index, r) for c in cells for r in range(replicates)}
    if seen != expected:
        report.fail(f"{len(expected - seen)} (cell, replicate) pairs missing", structural=True)

    groups = {
        str(c.index): [(c.index, r) for r in range(replicates)] for c in feasible
    } | {str(i): [] for i in infeasible}
    estimands = sum(column.startswith("rb_") for column in rows[0]) if rows else 0
    summary = read_csv(out_dir / "summary.csv")
    _check_summary(report, summary, lambda e: e["cell"], replicates, groups, estimands)
    return report


def check_engage(out_dir: Path, scenario) -> CheckReport:
    """Checks for the cohort mimic; fit-failure skip rows count as failed."""
    replicates = scenario.replicates
    n = scenario.node_count
    report = CheckReport(attempted=replicates)
    rows = read_csv(out_dir / "replicates.csv")
    if sorted(int(row["replicate"]) for row in rows) != list(range(replicates)):
        report.fail(f"replicate column is not 0..{replicates - 1}", structural=True)
    tol_md = mean_degree_tolerance(scenario.mean_degree, n)
    for row in rows:
        rep = int(row["replicate"])
        if row["status"] != "ok":
            report.fail(f"replicate {rep}: {row['status']}: {row['reason']}", [rep])
            continue
        bad = _nonfinite_columns(row)
        if bad:
            report.fail(f"replicate {rep}: non-finite {bad}", [rep])
        truth_md = _number(row["truth_mean_degree"])
        if truth_md is None or abs(truth_md - scenario.mean_degree) > tol_md:
            report.fail(
                f"replicate {rep}: mean degree {truth_md} vs target {scenario.mean_degree} "
                f"(tolerance {tol_md:.4g})",
                [rep],
            )
        for cov in scenario.covariates:
            truth_p = _number(row[f"truth_prevalence_{cov.name}"])
            tol_p = prevalence_tolerance(cov.prevalence, n)
            if truth_p is None or abs(truth_p - cov.prevalence) > tol_p:
                report.fail(
                    f"replicate {rep}: {cov.name} prevalence {truth_p} vs target "
                    f"{cov.prevalence} (tolerance {tol_p:.4g})",
                    [rep],
                )

    all_reps = list(range(replicates))
    groups = {cov.name: all_reps for cov in scenario.covariates}
    rb_columns = sum(column.startswith("rb_") for column in rows[0]) if rows else 0
    estimands = rb_columns // len(scenario.covariates)
    summary = read_csv(out_dir / "summary.csv")
    _check_summary(report, summary, lambda e: e["covariate"], replicates, groups, estimands)
    return report
