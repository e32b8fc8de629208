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

_MARK_COLUMNS = 7  # attribute columns per uint8 node mark, whose bit 0 flags a sampled node


def estimate_differential_activity(
    forest: RecruitmentForest, attribute: int | str = 0
) -> float | None:
    """Ratio of mean reported degrees, attribute-present over absent.

    Returns None when either group is absent from the sample or the
    value-0 group reports zero total degree.
    """
    return or_none(_activity_ratio, forest.attribute_column(attribute), forest.degrees)


def estimate_homophily(
    forest: RecruitmentForest, attribute: int | str = 0
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
    forest: RecruitmentForest, graph: Graph, attribute: int | str = 0
) -> tuple[float | None, float | None]:
    """Oracle-only homophily over the induced subgraph of the sampled nodes.

    Uses every population edge whose two endpoints were both sampled;
    such edges are unobservable in a real recruitment survey, so this is
    for bias diagnostics, not estimation.
    """
    (counts,) = _induced_counts(forest.nodes, forest.attribute_column(attribute)[:, None], graph)
    return or_none(newman_assortativity, counts), or_none(homophily_ratio, counts)


def _induced_counts(nodes: np.ndarray, attributes: np.ndarray, graph: Graph) -> list[MixingCounts]:
    """Induced-subgraph mixing counts of each attribute column, sampled ``nodes`` by row.

    Each node gets one ``uint8`` mark per block of up to seven columns: bit
    0 is set for a sampled node, and bit k + 1 holds its value in the
    block's column k; an unsampled node's mark is 0. One gather of the
    marks at each edge end gives two per-edge arrays, whose AND and OR
    classify every column of the block at once. An edge is induced where
    the AND has bit 0. The OR is cleared on the other edges, so that an
    edge with one unsampled end counts in no class; the AND of such an
    edge holds no column bit, since the unsampled end's mark is 0.
    """
    counts = []
    for start in range(0, attributes.shape[1], _MARK_COLUMNS):
        block = attributes[:, start : start + _MARK_COLUMNS]
        mark = np.zeros(graph.node_count, dtype=np.uint8)
        mark[nodes] = (np.packbits(block, axis=1, bitorder="little")[:, 0] << 1) | 1
        a, b = mark[graph.src], mark[graph.dst]
        both = a & b
        inside = both & 1
        total = np.count_nonzero(inside)
        either = (a | b) & (inside * 0xFF)
        for k in range(block.shape[1]):
            bit = np.uint8(2 << k)
            counts.append(_classify(both & bit, either & bit, total))
    return counts


def rds2_prevalence(forest: RecruitmentForest, attribute: int | str = 0) -> float:
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


def crude_prevalence(forest: RecruitmentForest, attribute: int | str = 0) -> float:
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
    """

    attribute_names: tuple[str, ...]
    sample_size: int
    max_wave: int
    diff_activity: tuple[float | None, ...]
    homophily: tuple[float | None, ...]
    homophily_ratio: tuple[float | None, ...]
    rds2_prevalence: tuple[float | None, ...]
    crude_prevalence: tuple[float, ...]
    induced_homophily: tuple[float | None, ...] | None = None

    def for_attribute(self, k: int) -> dict[str, float | None]:
        """Attribute k's estimates by name, in field order; a field that is None is left out."""
        return {name: getattr(self, name)[k] for name in _PER_ATTRIBUTE if getattr(self, name) is not None}


# Every estimate's name: the per-attribute fields of SampleEstimates, after its three per-forest ones
_PER_ATTRIBUTE = tuple(f.name for f in fields(SampleEstimates))[3:]


def sample_estimates(forest: RecruitmentForest, graph: Graph | None = None) -> SampleEstimates:
    """Compute every estimator for every attribute column of ``forest``.

    Args:
        forest: Observed recruitment forest.
        graph: Optional population graph; enables the oracle-only
            induced-subgraph homophily field.
    """
    m = len(forest.attribute_names)
    da = []
    hom = []
    ratio = []
    rds2 = []
    crude = []
    # An isolated node can enter the sample as a seed, in which case the
    # inverse-degree weights are undefined; record a marker, not a crash.
    degrees_ok = bool(np.all(forest.degrees > 0))
    for k in range(m):
        da.append(estimate_differential_activity(forest, k))
        h_k, r_k = estimate_homophily(forest, k)
        hom.append(h_k)
        ratio.append(r_k)
        rds2.append(rds2_prevalence(forest, k) if degrees_ok else None)
        crude.append(crude_prevalence(forest, k))
    return SampleEstimates(
        attribute_names=forest.attribute_names,
        sample_size=forest.size,
        max_wave=forest.max_wave,
        diff_activity=tuple(da),
        homophily=tuple(hom),
        homophily_ratio=tuple(ratio),
        rds2_prevalence=tuple(rds2),
        crude_prevalence=tuple(crude),
        induced_homophily=None if graph is None else tuple(
            or_none(newman_assortativity, counts)
            for counts in _induced_counts(forest.nodes, forest.attributes, graph)
        ),
    )
