"""In-memory span tracing around rdsim's module boundaries.

The tracer records one span per call into a layer's public function. It
does so by replacing the module attributes the harness looks those
functions up through (``rdsim.harness.run_rds`` and so on), plus
``rdsim.netgen.Graph`` and ``LatentBinaryModel.sample``, with timing
wrappers, and restores them afterwards. Spans nest: a ``Graph`` built inside
``generate_network`` is that span's child, so each span's self time (its
duration minus its children's) is attributed to one layer only.

Nothing is written while tracing; spans stay in a list and are reduced to
per-layer metrics once the run has finished.
"""

from __future__ import annotations

import statistics
from bisect import bisect_right
from contextlib import contextmanager
from time import perf_counter

LAYERS = ("covariates", "netgen", "graph", "sampler", "estimators", "harness")

# Population statistics the harness computes per replicate as the truth.
TRUTH_FUNCTIONS = (
    "mixing_counts",
    "newman_assortativity",
    "homophily_ratio",
    "differential_activity",
    "prevalence",
    "mean_degree",
)

ROOT_SPAN = "harness.run"


class Span:
    __slots__ = ("name", "start", "end", "parent", "child_time", "count", "failed")

    def __init__(self, name: str, start: float, parent: int):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.child_time = 0.0
        self.count = None
        self.failed = False

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        return self.duration - self.child_time


class Tracer:
    """Records nested spans; one instance per traced run."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn, count=None):
        """Return ``fn`` wrapped to record a span named ``name``.

        ``count`` maps the call's result to a work count kept on the span
        (edges built, nodes sampled).
        """
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            span = Span(name, 0.0, stack[-1] if stack else -1)
            spans.append(span)
            stack.append(len(spans) - 1)
            span.start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span.failed = True
                raise
            finally:
                span.end = perf_counter()
                stack.pop()
                if span.parent >= 0:
                    spans[span.parent].child_time += span.duration
            if count is not None:
                span.count = count(result)
            return result

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def installed(self):
        """Wrap every traced attribute for the duration of the block."""
        from rdsim import harness, netgen
        from rdsim.covariates import LatentBinaryModel

        points = [
            (harness, "generate_network", "netgen.generate_network", None),
            (harness, "fit_dyad_model", "netgen.fit_dyad_model", None),
            (harness, "simulate_from_model", "netgen.simulate_from_model", None),
            (harness, "solve_dyad_classes", "netgen.solve_dyad_classes", None),
            (harness, "run_rds", "sampler.run_rds", lambda f: (f.size, f.reseed_count)),
            (harness, "sample_estimates", "estimators.sample_estimates", None),
            (harness, "binary_sampler", "covariates.binary_sampler", None),
            (harness, "summarize_replicates", "harness.summarize_replicates", None),
            (harness, "write_rows", "harness.write_rows", None),
            (netgen, "Graph", "graph.Graph", lambda g: g.edge_count),
            (LatentBinaryModel, "sample", "covariates.sample", None),
        ]
        points += [(harness, fn, f"graph.{fn}", None) for fn in TRUTH_FUNCTIONS]
        saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _, _ in points]
        try:
            for owner, attr, name, count in points:
                setattr(owner, attr, self.wrap(name, getattr(owner, attr), count))
            yield
        finally:
            for owner, attr, original in saved:
                setattr(owner, attr, original)

    def root(self, fn):
        """Wrap the entry point so harness self time has a parent span."""
        return self.wrap(ROOT_SPAN, fn)


# ---------------------------------------------------------------------------
# Reduction to per-layer metrics
# ---------------------------------------------------------------------------


def _ms(seconds: list[float]) -> list[float]:
    return [s * 1e3 for s in seconds]


def _p50(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def _p95(values: list[float]) -> float:
    if len(values) < 2:
        return _p50(values)
    return statistics.quantiles(values, n=20, method="inclusive")[-1]


def span_counts(spans: list[Span]) -> dict[str, int]:
    counts: dict[str, int] = {}
    for span in spans:
        counts[span.name] = counts.get(span.name, 0) + 1
    return counts


def layer_self_times(spans: list[Span]) -> dict[str, float]:
    """Self time per layer, in seconds; a span's layer is its name prefix."""
    totals = dict.fromkeys(LAYERS, 0.0)
    for span in spans:
        layer = span.name.split(".", 1)[0]
        totals[layer] = totals.get(layer, 0.0) + span.self_time
    return totals


def name_self_times(spans: list[Span]) -> dict[str, float]:
    totals: dict[str, float] = {}
    for span in spans:
        totals[span.name] = totals.get(span.name, 0.0) + span.self_time
    return totals


def per_layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Reduce one traced run's spans to the benchmark's span metrics.

    A replicate is delimited by consecutive ``run_rds`` starts: every ``ok``
    replicate calls ``run_rds`` exactly once, in either pipeline, so each
    interval holds one replicate's work (the first replicate's set-up and
    the last replicate's tail fall outside and are left out).
    """
    by_name: dict[str, list[Span]] = {}
    for span in spans:
        by_name.setdefault(span.name, []).append(span)

    def durations(name: str) -> list[float]:
        return [s.duration for s in by_name.get(name, [])]

    def self_durations(name: str) -> list[float]:
        return [s.self_time for s in by_name.get(name, [])]

    (root,) = by_name[ROOT_SPAN]
    wall = root.duration
    graphs = by_name.get("graph.Graph", [])
    rds = by_name.get("sampler.run_rds", [])
    graph_time = sum(s.duration for s in graphs)
    edges = sum(s.count for s in graphs)
    rds_time = sum(s.duration for s in rds)
    nodes = sum(s.count[0] for s in rds)
    estimate_time = sum(durations("estimators.sample_estimates"))

    # Per-replicate truth time and replicate duration, grouped by run_rds.
    rds_starts = [s.start for s in rds]
    truth_by_replicate: dict[int, float] = {}
    truth_names = {f"graph.{fn}" for fn in TRUTH_FUNCTIONS}
    for span in spans:
        if span.name in truth_names:
            group = bisect_right(rds_starts, span.start)
            truth_by_replicate[group] = truth_by_replicate.get(group, 0.0) + span.duration
    replicate_times = [b - a for a, b in zip(rds_starts, rds_starts[1:])]

    # Each workload runs one of two pipelines, so the model step and the
    # generator are each measured on whichever function the pipeline calls:
    # a time that is never measured would read 0 on every run.
    model = durations("netgen.fit_dyad_model") + durations("netgen.solve_dyad_classes")
    generator = self_durations("netgen.generate_network") + self_durations("netgen.simulate_from_model")
    covariate_time = sum(s.self_time for s in spans if s.name.startswith("covariates."))
    fits = by_name.get("netgen.fit_dyad_model", [])

    return {
        "graph.Graph.p50_ms": _p50(_ms(durations("graph.Graph"))),
        "graph.Graph.p95_ms": _p95(_ms(durations("graph.Graph"))),
        "graph.Graph.edges": _p50([s.count for s in graphs]),
        "graph.Graph.ns_per_edge": graph_time / edges * 1e9 if edges else 0.0,
        "graph.Graph.share": graph_time / wall,
        "graph.truth.p50_ms": _p50(_ms(list(truth_by_replicate.values()))),
        "netgen.model.p50_ms": _p50(_ms(model)),
        "netgen.model.p95_ms": _p95(_ms(model)),
        "netgen.fit_dyad_model.calls": len(fits),
        "netgen.fit_dyad_model.failures": sum(s.failed for s in fits),
        "netgen.generator.self_p50_ms": _p50(_ms(generator)),
        "netgen.solve_dyad_classes.calls": len(by_name.get("netgen.solve_dyad_classes", [])),
        "netgen.networks_per_replicate": len(graphs) / len(rds) if rds else 0.0,
        "sampler.run_rds.p50_ms": _p50(_ms(durations("sampler.run_rds"))),
        "sampler.run_rds.p95_ms": _p95(_ms(durations("sampler.run_rds"))),
        "sampler.run_rds.us_per_node": rds_time / nodes * 1e6 if nodes else 0.0,
        "sampler.nodes_sampled": nodes,
        "sampler.reseeds": sum(s.count[1] for s in rds),
        "sampler.run_rds.share": rds_time / wall,
        "estimators.sample_estimates.p50_ms": _p50(_ms(durations("estimators.sample_estimates"))),
        "estimators.sample_estimates.p95_ms": _p95(_ms(durations("estimators.sample_estimates"))),
        "estimators.sample_estimates.share": estimate_time / wall,
        "covariates.share": covariate_time / wall,
        "harness.self_s": root.self_time,
        "harness.write_rows_ms": sum(_ms(durations("harness.write_rows"))),
        "harness.summarize_replicates_ms": sum(_ms(durations("harness.summarize_replicates"))),
        "harness.replicate.p50_ms": _p50(_ms(replicate_times)),
        "harness.replicate.p95_ms": _p95(_ms(replicate_times)),
    }
