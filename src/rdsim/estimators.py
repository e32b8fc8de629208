"""Estimators of network quantities from an observed recruitment forest.

The forest is all the network data a recruitment survey reveals: reported
degrees, attributes of the sampled, and the recruiter-recruit ties. Sample
homophily is therefore computed on the recruitment edges (the default
here); the induced-subgraph variant, which additionally needs the
unobserved population graph, is provided for oracle comparisons only.
Estimates that are undefined on a given sample (missing group, no cross
edges, zero truth) are returned as ``None`` rather than sentinel numbers.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .errors import or_none
from .graph import (
    Graph,
    MixingCounts,
    _activity_ratio,
    _classify,
    _mean_ratio,
    _mixing,
    homophily_ratio,
    newman_assortativity,
)
from .sampler import RecruitmentForest

__all__ = [
    "SampleEstimates",
    "estimate_differential_activity",
    "estimate_homophily",
    "induced_homophily",
    "rds2_prevalence",
    "crude_prevalence",
    "relative_bias",
    "sample_estimates",
]

_MARK_BITS = 64  # bits of the widest node mark, sample-size bits and attribute-column bits together


def estimate_differential_activity(forest: RecruitmentForest, attribute: int = 0) -> float | None:
    """Ratio of mean reported degrees, attribute-present over absent.

    Returns None when either group is absent from the sample or the
    value-0 group reports zero total degree.
    """
    return or_none(_activity_ratio, forest.attribute_column(attribute), forest.degrees)


def estimate_homophily(
    forest: RecruitmentForest, attribute: int = 0
) -> tuple[float | None, float | None]:
    """Sample homophily from the recruitment edges only.

    Classifies each recruiter-recruit tie by endpoint attributes and
    applies the population homophily metrics to those counts.

    Returns:
        (assortativity, within/cross ratio); either entry is None when
        undefined (no recruitment edges, single-class edge ends, or no
        cross edges for the ratio).
    """
    z = forest.attribute_column(attribute)
    za, zb = z[forest.recruiter_entries], z[forest.recruiters >= 0]
    counts = _classify(za & zb, za | zb, za.size)
    return or_none(newman_assortativity, counts), or_none(homophily_ratio, counts)


def induced_homophily(
    forest: RecruitmentForest, graph: Graph, attribute: int = 0
) -> tuple[float | None, float | None]:
    """Oracle-only homophily over the induced subgraph of the sampled nodes.

    Uses every population edge whose two endpoints were both sampled;
    such edges are unobservable in a real recruitment survey, so this is
    for bias diagnostics, not estimation.
    """
    column = forest.attribute_column(attribute)[:, None]
    ((counts,),) = _induced_counts(forest.nodes, column, graph, [forest.size])
    return or_none(newman_assortativity, counts), or_none(homophily_ratio, counts)


def _induced_counts(nodes: np.ndarray, attributes: np.ndarray, graph: Graph, entries) -> list[list[MixingCounts]]:
    """Induced-subgraph mixing counts of nested samples, ``counts[i][k]`` for the first ``entries[i]`` nodes.

    ``attributes`` holds the values of ``nodes``, row by row, and k is its
    column. Sizes and columns go into blocks that fit one unsigned 64-bit
    mark; most configurations need one block. Each node's mark in a block
    has bit i set when the node is among the first e_i entries, for the
    block's distinct sizes e_0 < e_1 < ..., and after those bits one bit
    per column holding its value. A node outside every size has mark 0.
    One gather of the marks at each edge end gives two per-edge arrays,
    whose AND and OR classify every (size, column) pair of the block. An
    edge is induced in size i where the AND has bit i; both arrays are
    cleared on the other edges, so that an edge with an end outside the
    size counts in no class. At the block's largest size the AND needs no
    clearing: a column bit in it means that both ends are marked.
    """
    levels = sorted(set(entries))
    m = attributes.shape[1]
    # sizes take at least half of a full mark, and the columns share what the sizes leave
    size_width = max(_MARK_BITS // 2, _MARK_BITS - m)
    column_width = _MARK_BITS - min(len(levels), size_width)
    counts = {}
    for start in range(0, len(levels), size_width):
        block = levels[start : start + size_width]
        rows = [[] for _ in block]
        for first in range(0, m, column_width):
            columns = attributes[:, first : first + column_width]
            for row, more in zip(rows, _block_counts(nodes, columns, graph, block)):
                row.extend(more)
        counts.update(zip(block, rows))
    return [counts[e] for e in entries]


def _block_counts(nodes: np.ndarray, columns: np.ndarray, graph: Graph, levels: list[int]) -> list[list[MixingCounts]]:
    """Induced mixing counts of each column at each entry count of the increasing ``levels``, one mark a node."""
    kind = np.min_scalar_type((1 << (len(levels) + columns.shape[1])) - 1)
    top = levels[-1]
    bits = [kind.type(1 << (len(levels) + k)) for k in range(columns.shape[1])]
    code = np.zeros(top, dtype=kind)
    for k, bit in enumerate(bits):
        code |= columns[:top, k].astype(kind) * bit
    for i, level in enumerate(levels):
        code[:level] |= kind.type(1 << i)
    mark = np.zeros(graph.node_count, dtype=kind)
    mark[nodes[:top]] = code
    a, b = mark[graph.src], mark[graph.dst]
    both, either = a & b, a | b
    columns_mask = sum(bits, kind.type(0))
    counts = []
    for i, level in enumerate(levels):
        inside = both & kind.type(1 << i)
        total = int(np.count_nonzero(inside))
        # inside is 0 or bit i, so keep holds every column bit on the induced edges and 0 elsewhere
        keep = inside * (columns_mask >> i)
        both_i = both if level == top else both & keep
        either_i = either & keep
        counts.append([_classify(both_i & bit, either_i & bit, total) for bit in bits])
    return counts


def rds2_prevalence(forest: RecruitmentForest, attribute: int = 0) -> float:
    """Inverse-degree-weighted prevalence of the attribute.

    ``sum(1/d_i over attribute carriers) / sum(1/d_i over the sample)``,
    which corrects for the degree-proportional inclusion tendency of
    recruitment sampling.

    Raises:
        ValueError: If any reported degree is nonpositive; an isolated
            node cannot be recruited, so this flags corrupt input.
    """
    z = forest.attribute_column(attribute)
    degrees = forest.degrees
    if np.any(degrees <= 0):
        raise ValueError("reported degrees must be positive; degree-0 entries signal corrupt input")
    weights = 1.0 / degrees
    return float(weights[z == 1].sum() / weights.sum())


def crude_prevalence(forest: RecruitmentForest, attribute: int = 0) -> float:
    """Unweighted sample proportion carrying the attribute."""
    z = forest.attribute_column(attribute)
    return float(z.sum() / z.size)


def relative_bias(estimate: float | None, truth: float | None) -> float | None:
    """(estimate - truth) / truth, or None when either side is unusable.

    None is returned when the estimate is undefined, the truth is
    undefined, or the truth is zero (callers count such replicates rather
    than substituting a sentinel).
    """
    if estimate is None or truth is None or truth == 0.0:
        return None
    return (estimate - truth) / truth


@dataclass(frozen=True)
class SampleEstimates:
    """All per-attribute estimates computed from one forest.

    Tuple fields hold one entry per attribute column, in forest order.
    ``induced_homophily`` is None unless the population graph was supplied.
    ``reseed_count`` and ``truncated`` are the forest's own.
    """

    attribute_names: tuple[str, ...]
    sample_size: int
    max_wave: int
    reseed_count: int
    truncated: bool
    diff_activity: tuple[float | None, ...]
    homophily: tuple[float | None, ...]
    homophily_ratio: tuple[float | None, ...]
    rds2_prevalence: tuple[float | None, ...]
    crude_prevalence: tuple[float, ...]
    induced_homophily: tuple[float | None, ...] | None = None

    def for_attribute(self, k: int) -> dict[str, float | None]:
        """Attribute k's estimates by name, in field order; a field that is None is left out."""
        return {name: getattr(self, name)[k] for name in _PER_ATTRIBUTE if getattr(self, name) is not None}


# The fields of SampleEstimates that describe the whole forest
_PER_FOREST = ("attribute_names", "sample_size", "max_wave", "reseed_count", "truncated")
# Every estimate's name: the other fields of SampleEstimates, in field order
_PER_ATTRIBUTE = tuple(f.name for f in fields(SampleEstimates) if f.name not in _PER_FOREST)


def sample_estimates(
    forest: RecruitmentForest, graph: Graph | None = None, sizes=None
) -> SampleEstimates | list[SampleEstimates]:
    """Compute every estimator for every attribute column of ``forest``, or of its prefixes.

    Without ``sizes`` the result is one ``SampleEstimates`` of the whole
    forest. With ``sizes`` it is a list of them, one per size in the order
    given, and entry i equals ``sample_estimates(forest.prefix(sizes[i]),
    graph)`` exactly, ``reseed_count`` and ``truncated`` included. The
    sizes need not be sorted or distinct. Both forms run one pass over
    ``forest`` and build no prefix forest: counts (group sizes, degree
    sums, recruitment-tie classes, seeds, the deepest wave) are running
    sums over entries, each float sum runs over its own size's entries in
    their order, and the induced counts of every size come from one gather
    of node marks at each edge end.

    Args:
        forest: Observed recruitment forest.
        graph: Optional population graph; enables the oracle-only
            induced-subgraph homophily field.
        sizes: Optional sample sizes to cut ``forest`` at, as
            :meth:`RecruitmentForest.prefix` cuts it.

    Raises:
        ValueError: If a size is not an integer or is below 1.
    """
    if sizes is None:
        cuts = [forest.size], [forest.reseed_count], [forest.truncated]
    else:
        cuts = forest._cuts(sizes)
    estimates = _nested_estimates(forest, graph, cuts)
    return estimates[0] if sizes is None else estimates


def _running(values: np.ndarray) -> np.ndarray:
    """Sums of the first j rows of ``values`` at row j, from 0 to all of them."""
    sums = np.zeros((values.shape[0] + 1, *values.shape[1:]), dtype=np.int64)
    np.cumsum(values, axis=0, out=sums[1:])
    return sums


def _nested_estimates(forest: RecruitmentForest, graph: Graph | None, cuts) -> list[SampleEstimates]:
    """``SampleEstimates`` of each cut of ``forest``.

    ``cuts`` holds three lists, as :meth:`RecruitmentForest._cuts` returns
    them: cut i is the first ``entries[i]`` entries, with
    ``reseed_counts[i]`` and ``truncated[i]`` as its forest fields.
    """
    entries, reseed_counts, truncated = cuts
    z, degrees = forest.attributes, forest.degrees
    m = z.shape[1]
    ends = np.asarray(entries, dtype=np.int64)
    recruits = np.flatnonzero(forest.recruiters >= 0)
    za, zb = z[forest.recruiter_entries], z[recruits]
    # a tie enters with its recruit, so the first e entries hold the first ties[i] ties
    ties = np.searchsorted(recruits, ends)
    within_1 = _running(za & zb)[ties].tolist()
    touching_1 = _running(za | zb)[ties].tolist()
    ties = ties.tolist()
    members_1 = _running(z)[ends].tolist()
    degrees_1 = _running(z * degrees[:, None])[ends].tolist()
    degree_sums = _running(degrees)[ends].tolist()
    max_waves = np.maximum.accumulate(forest.waves)[ends - 1].tolist()
    # An isolated node can enter the sample as a seed, in which case the
    # inverse-degree weights are undefined; record a marker, not a crash.
    nonpositive = np.flatnonzero(degrees <= 0)
    clean = int(nonpositive[0]) if nonpositive.size else forest.size  # entries before the first
    inverse = 1.0 / degrees[:clean]
    induced = [None] * len(entries) if graph is None else [
        tuple(or_none(newman_assortativity, counts) for counts in row)
        for row in _induced_counts(forest.nodes, z, graph, entries)
    ]
    estimates = []
    for i, size in enumerate(entries):
        da, hom, ratio, rds2, crude = [], [], [], [], []
        weights = inverse[:size] if size <= clean else None
        for k in range(m):
            n1, d1 = members_1[i][k], degrees_1[i][k]
            da.append(or_none(_mean_ratio, n1, d1, size - n1, degree_sums[i] - d1))
            counts = _mixing(within_1[i][k], touching_1[i][k], ties[i])
            hom.append(or_none(newman_assortativity, counts))
            ratio.append(or_none(homophily_ratio, counts))
            # a sum over the size's own weights, as in rds2_prevalence; a running sum would round differently
            rds2.append(None if weights is None else float(weights[z[:size, k] == 1].sum() / weights.sum()))
            crude.append(n1 / size)
        estimates.append(
            SampleEstimates(
                attribute_names=forest.attribute_names,
                sample_size=size,
                max_wave=max_waves[i],
                reseed_count=reseed_counts[i],
                truncated=truncated[i],
                diff_activity=tuple(da),
                homophily=tuple(hom),
                homophily_ratio=tuple(ratio),
                rds2_prevalence=tuple(rds2),
                crude_prevalence=tuple(crude),
                induced_homophily=induced[i],
            )
        )
    return estimates
