"""Undirected population networks with binary node attributes.

Immutable graph container plus the exact population-level statistics used
as estimands throughout the package: mean degree, attribute prevalence,
differential activity, attribute mixing counts, and two homophily metrics
(Newman's assortativity coefficient and the within/cross edge ratio),
together with the analytic bridge between those two metrics.

Attribute values are checked here wherever they enter the package, and
held as a read-only (n, m) int8 matrix of 0/1 values, a vector being one
column. Two interchange file formats live here as well: an edge-list CSV
(``src,dst`` with 0-based indices, ``src < dst``) and an attribute CSV
(``node,<name1>,...`` with 0/1 values). Both are parsed and written by
:mod:`rdsim.tables`.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import sqrt
from typing import Sequence

import numpy as np

from .errors import UndefinedEstimandError
from .tables import check_names, in_file, read_table, write_table

__all__ = [
    "Graph",
    "AttributeVector",
    "DegreeDistribution",
    "MixingCounts",
    "mean_degree",
    "prevalence",
    "degree_distribution",
    "differential_activity",
    "mixing_counts",
    "newman_assortativity",
    "homophily_ratio",
    "assortativity_from_ratio",
    "ratio_from_assortativity",
    "read_edge_list",
    "write_edge_list",
    "read_attributes",
    "write_attributes",
]

EDGE_COLUMNS = ("src", "dst")

# Edge keys pack lo << b | hi with b = max((n - 1).bit_length(), 1), so they
# fit 2b bits: uint32 up to MAX_KEY32_NODE_COUNT = 2**16 nodes (b <= 16),
# which sorts faster, and uint64 above it. MAX_NODE_COUNT (b = 32) is the
# largest n whose product keys lo * n + hi, at most n*n - 1, fit int64:
# `rdsim estimate` still packs its tie check that way.
MAX_NODE_COUNT = 3_037_000_499
MAX_KEY32_NODE_COUNT = 65_536


class Graph:
    """Immutable undirected simple graph on nodes ``0 .. node_count-1``.

    Edges are stored once in canonical order (``src < dst``, sorted), with a
    CSR-style adjacency (sorted neighbor array per node) built alongside.
    Both orders come from sorting one shift-packed key per edge end (``lo
    << b | hi`` for the edge list, ``end << b | other`` for the adjacency,
    with ``b = max((n - 1).bit_length(), 1)``), unpacked again with ``>>``
    and ``&``. Up to :data:`MAX_KEY32_NODE_COUNT` (65,536) nodes the keys
    are ``uint32``, which sorts about twice as fast, and above it
    ``uint64``; ``node_count`` may not exceed :data:`MAX_NODE_COUNT`.

    ``src`` and ``dst`` may have any integer dtype: they are range-checked
    in that dtype and then cast straight to the key dtype, so narrow draws
    stay narrow. The public arrays are int64 at either key width.
    Self-loops and parallel edges are rejected. All arrays are frozen after
    construction, so instances are safe to share across workers.
    """

    __slots__ = ("_n", "_src", "_dst", "_indptr", "_indices", "_degrees")

    def __init__(self, node_count: int, src, dst):
        n = int(node_count)
        if n < 1:
            raise ValueError("node_count must be >= 1")
        if n > MAX_NODE_COUNT:
            raise ValueError(f"node_count must be <= {MAX_NODE_COUNT}, got {n}")
        src = _as_integers(src, "src")
        dst = _as_integers(dst, "dst")
        if src.shape != dst.shape:
            raise ValueError("src and dst must have equal length")
        if src.size:
            if src.min() < 0 or dst.min() < 0 or src.max() >= n or dst.max() >= n:
                raise ValueError("edge endpoint out of range")
        # exact once the range is checked; casting each end on its own also
        # keeps mixed int64/uint64 input away from float64 promotion
        key_type = np.uint32 if n <= MAX_KEY32_NODE_COUNT else np.uint64
        src = src.astype(key_type, copy=False)
        dst = dst.astype(key_type, copy=False)
        lo = np.minimum(src, dst)
        hi = np.maximum(src, dst)
        if np.any(lo == hi):
            raise ValueError("self-loops are not allowed")
        # keys are unique once parallel edges are ruled out, so a plain
        # (unstable) sort of the key gives the lexicographic (lo, hi) order
        shift = max((n - 1).bit_length(), 1)
        mask = (1 << shift) - 1
        key = lo
        key <<= shift
        key |= hi
        key.sort()
        if np.any(key[1:] == key[:-1]):
            raise ValueError("parallel edges are not allowed")
        lo = key >> shift
        hi = key & mask

        # adjacency keys end << b | other: the lo ends are the sorted edge
        # keys themselves, the hi ends need hi << b | lo
        e = key.size
        adj = np.empty(2 * e, dtype=key_type)
        adj[:e] = key
        np.left_shift(hi, shift, out=adj[e:])
        adj[e:] |= lo
        adj.sort()
        adj &= mask
        lo = lo.astype(np.int64)
        hi = hi.astype(np.int64)
        indices = adj.astype(np.int64)
        degrees = np.bincount(lo, minlength=n) + np.bincount(hi, minlength=n)
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(degrees, out=indptr[1:])

        for arr in (lo, hi, indptr, indices, degrees):
            arr.flags.writeable = False
        self._n = n
        self._src = lo
        self._dst = hi
        self._indptr = indptr
        self._indices = indices
        self._degrees = degrees

    @property
    def node_count(self) -> int:
        return self._n

    @property
    def edge_count(self) -> int:
        return int(self._src.size)

    @property
    def src(self) -> np.ndarray:
        """Lower endpoints of the canonical edge list (read-only)."""
        return self._src

    @property
    def dst(self) -> np.ndarray:
        """Upper endpoints of the canonical edge list (read-only)."""
        return self._dst

    @property
    def degrees(self) -> np.ndarray:
        """Degree of every node (read-only, sums to 2 * edge_count)."""
        return self._degrees

    def neighbors(self, node: int) -> np.ndarray:
        """Sorted neighbor array of ``node`` (read-only view)."""
        return self._indices[self._indptr[node]:self._indptr[node + 1]]

    def __repr__(self) -> str:
        return f"Graph(node_count={self._n}, edge_count={self.edge_count})"


@dataclass(frozen=True)
class AttributeVector:
    """Named binary attribute, one value per node."""

    name: str
    values: np.ndarray

    def __post_init__(self):
        try:
            object.__setattr__(self, "values", _as_attribute(self.values))
        except ValueError as exc:
            raise ValueError(f"attribute {self.name!r}: {exc}") from None


@dataclass(frozen=True)
class DegreeDistribution:
    """Frequency table of node degrees: ``counts[k]`` nodes have degree k."""

    counts: np.ndarray

    def __post_init__(self):
        counts = np.asarray(self.counts, dtype=np.int64).ravel()
        if counts.size < 1 or counts.min() < 0:
            raise ValueError("degree counts must be a non-empty nonnegative table")
        counts.flags.writeable = False
        object.__setattr__(self, "counts", counts)

    @property
    def node_count(self) -> int:
        return int(self.counts.sum())

    @property
    def total_degree(self) -> int:
        """Sum of k * counts[k]; equals twice the edge count."""
        return int(np.arange(self.counts.size) @ self.counts)


@dataclass(frozen=True)
class MixingCounts:
    """Edge counts classified by endpoint attributes (each edge once)."""

    within_1: int
    within_0: int
    cross: int

    def __post_init__(self):
        if min(self.within_1, self.within_0, self.cross) < 0:
            raise ValueError("mixing counts must be nonnegative")

    @property
    def total(self) -> int:
        return self.within_1 + self.within_0 + self.cross


def _as_integers(values, name: str) -> np.ndarray:
    """``values`` as a flat array of its own integer dtype; a non-integer dtype is an error, not truncated."""
    arr = np.asarray(values).ravel()
    # an empty list is float64 to numpy, and holds no value to truncate
    if arr.size and arr.dtype.kind not in "iu":
        raise ValueError(f"{name} must be integers, not {arr.dtype}")
    return arr


def _as_int64(values, name: str) -> np.ndarray:
    """``values`` as a flat int64 array; a non-integer dtype is an error, not truncated."""
    return _as_integers(values, name).astype(np.int64, copy=False)


def _as_attributes(values, rows: int | None = None) -> np.ndarray:
    """``values`` as a read-only (n, m) int8 matrix of 0/1 values; a vector is one column.

    Every attribute matrix of the package is checked here: its shape, its
    row count when ``rows`` is given, and its values, before the narrowing
    that would wrap 256 to 0.
    """
    given = np.asarray(values)
    z = given[:, None] if given.ndim == 1 else given
    if z.ndim != 2 or not z.size:
        raise ValueError(f"attribute matrix must be (n, m) with n, m >= 1, got shape {given.shape}")
    if rows is not None and z.shape[0] != rows:
        raise ValueError(
            f"attribute matrix length {z.shape[0]} must equal the node count {rows} (shape {given.shape})"
        )
    if z.dtype.kind in "biu":  # bool or integer: the range decides, at a fraction of isin's cost
        binary = z.min() >= 0 and z.max() <= 1
    else:
        binary = np.isin(z, (0, 1)).all()
    if not binary:
        raise ValueError("attribute values must be 0 or 1, found values outside {0, 1}")
    z = z.astype(np.int8)
    z.flags.writeable = False
    return z


def _as_attribute(values, rows: int | None = None) -> np.ndarray:
    """One attribute column, checked by :func:`_as_attributes`, as a read-only int8 vector."""
    z = _as_attributes(values, rows)
    if z.shape[1] != 1:
        raise ValueError(f"expected one attribute column, got shape {np.shape(values)}")
    return z[:, 0]


def mean_degree(graph: Graph) -> float:
    """Average degree, ``2 * edge_count / node_count``."""
    return 2.0 * graph.edge_count / graph.node_count


def prevalence(values) -> float:
    """Proportion of nodes carrying the attribute (value 1)."""
    z = _as_attribute(values)
    return float(z.sum() / z.size)


def degree_distribution(graph: Graph) -> DegreeDistribution:
    """Degree frequency table of ``graph``."""
    counts = np.bincount(graph.degrees, minlength=1)
    return DegreeDistribution(counts)


def differential_activity(graph: Graph, values) -> float:
    """Ratio of mean degrees: attribute-present group over attribute-absent.

    Args:
        graph: Population graph.
        values: Binary attribute vector, one value per node.

    Returns:
        Mean degree of the value-1 group divided by mean degree of the
        value-0 group.

    Raises:
        UndefinedEstimandError: If either group is empty, or the value-0
            group has no edge ends (zero total degree).
    """
    z = _as_attribute(values, graph.node_count)
    return _activity_ratio(z, graph.degrees)


def _activity_ratio(z: np.ndarray, degrees: np.ndarray) -> float:
    """Mean of ``degrees`` over the value-1 nodes of ``z`` over that of the value-0 nodes."""
    mask = z == 1
    n1 = int(mask.sum())
    return _mean_ratio(n1, int(degrees[mask].sum()), z.size - n1, int(degrees[~mask].sum()))


def _mean_ratio(n1: int, total1: int, n0: int, total0: int) -> float:
    """Differential activity of groups of ``n1`` and ``n0`` nodes with degree sums ``total1`` and ``total0``."""
    if n1 == 0 or n0 == 0:
        raise UndefinedEstimandError("differential activity needs both attribute groups present")
    if total0 == 0:
        raise UndefinedEstimandError("differential activity undefined: value-0 group has no edge ends")
    return (total1 / n1) / (total0 / n0)


def mixing_counts(graph: Graph, values) -> MixingCounts:
    """Exact edge counts by endpoint-attribute class (each edge once)."""
    z = _as_attribute(values, graph.node_count)
    za, zb = z[graph.src], z[graph.dst]
    return _classify(za & zb, za | zb, za.size)


def _classify(both: np.ndarray, either: np.ndarray, total: int) -> MixingCounts:
    """Mixing counts of ``total`` edges from the AND and OR of their endpoint values.

    An edge is within-1 where ``both`` is nonzero, and within-0 where
    ``either`` is zero. The arrays may hold more entries than ``total``
    edges, as long as every extra entry is zero in both of them: the
    extra entries then count as neither, and the within-0 count is
    ``total`` minus the nonzero entries of ``either``.
    """
    return _mixing(int(np.count_nonzero(both)), int(np.count_nonzero(either)), int(total))


def _mixing(within_1: int, touching_1: int, total: int) -> MixingCounts:
    """Mixing counts of ``total`` edges: ``within_1`` have two value-1 ends and ``touching_1`` one or two."""
    within_0 = total - touching_1
    return MixingCounts(within_1=within_1, within_0=within_0, cross=total - within_1 - within_0)


def newman_assortativity(counts: MixingCounts) -> float:
    """Newman's assortativity coefficient for a binary attribute.

    Uses the symmetric undirected convention: cross edges contribute half
    their share to each off-diagonal cell of the mixing matrix.

    Args:
        counts: Edge mixing counts.

    Returns:
        Coefficient in [-1, 1]; 1 iff no cross edges (given both groups own
        edges), -1 iff no within edges.

    Raises:
        UndefinedEstimandError: If there are no edges, or all edge ends fall
            in a single attribute class (zero denominator).
    """
    total = counts.total
    if total == 0:
        raise UndefinedEstimandError("assortativity undefined on an empty edge set")
    e11 = counts.within_1 / total
    e00 = counts.within_0 / total
    half_cross = counts.cross / (2.0 * total)
    a1 = e11 + half_cross
    a0 = e00 + half_cross
    denom = 1.0 - (a1 * a1 + a0 * a0)
    if denom == 0.0:
        raise UndefinedEstimandError("assortativity undefined: all edge ends in one attribute class")
    return (e11 + e00 - a1 * a1 - a0 * a0) / denom


def homophily_ratio(counts: MixingCounts) -> float:
    """Within-group-1 over cross edge count ratio.

    Raises:
        UndefinedEstimandError: If there are no cross edges.
    """
    if counts.cross == 0:
        raise UndefinedEstimandError("homophily ratio undefined: no cross-group edges")
    return counts.within_1 / counts.cross


def assortativity_from_ratio(ratio: float, prevalence: float, diff_activity: float) -> float:
    """Map the within/cross edge ratio to the assortativity scale.

    Evaluates ``R/(1+R) - 2/(1 + eta*(1+2R))`` with
    ``eta = (1/D_a) * (1-p)/p``. The map is strictly increasing in the
    ratio and tends to 1 as the ratio grows. Note this analytic bridge
    assumes an idealized mixing structure; on a realized finite network it
    generally differs from :func:`newman_assortativity` of that network.

    Args:
        ratio: Within-1/cross edge ratio (>= 0).
        prevalence: Attribute prevalence p, strictly inside (0, 1).
        diff_activity: Differential activity D_a (> 0).
    """
    if not 0.0 < prevalence < 1.0:
        raise ValueError("prevalence must be strictly inside (0, 1)")
    if diff_activity <= 0.0:
        raise ValueError("differential activity must be positive")
    if ratio < 0.0:
        raise ValueError("homophily ratio must be nonnegative")
    eta = (1.0 / diff_activity) * (1.0 - prevalence) / prevalence
    return ratio / (1.0 + ratio) - 2.0 / (1.0 + eta * (1.0 + 2.0 * ratio))


def ratio_from_assortativity(assortativity: float, prevalence: float, diff_activity: float) -> float:
    """Invert :func:`assortativity_from_ratio` in closed form.

    Clearing its denominators gives ``a R^2 + b R - c = 0`` with ``a > 0``
    and ``c > 0`` on the attainable interval, so one root is positive; it
    is taken in the form free of cancellation. The round trip holds to a
    relative 1e-9 for ratios 1e-6 to 1e6 (prevalence 0.01 to 0.99,
    differential activity 0.1 to 10).

    Args:
        assortativity: Target value; must lie strictly between the value at
            ratio 0 and the limit 1.
        prevalence: Attribute prevalence p in (0, 1).
        diff_activity: Differential activity (> 0).

    Returns:
        The unique nonnegative ratio mapping to ``assortativity``.

    Raises:
        ValueError: If the target is outside the attainable open interval.
    """
    lo_value = assortativity_from_ratio(0.0, prevalence, diff_activity)
    if not lo_value < assortativity < 1.0:
        raise ValueError(
            f"assortativity {assortativity} not attainable: must be in ({lo_value:.6g}, 1)"
        )
    h = assortativity
    eta = (1.0 / diff_activity) * (1.0 - prevalence) / prevalence
    a = 2.0 * eta * (1.0 - h)
    b = eta - 1.0 - h * (1.0 + 3.0 * eta)
    c = 2.0 + h * (1.0 + eta)
    root = sqrt(b * b + 4.0 * a * c)
    return (root - b) / (2.0 * a) if b < 0.0 else 2.0 * c / (root + b)


def write_edge_list(graph: Graph, path) -> None:
    """Write ``graph`` as CSV with header ``src,dst`` (0-based, src < dst)."""
    write_table(path, EDGE_COLUMNS, zip(graph.src.tolist(), graph.dst.tolist()))


def read_edge_list(path, node_count: int | None = None) -> Graph:
    """Read an edge-list CSV written by :func:`write_edge_list`.

    Args:
        path: CSV file with header ``src,dst``.
        node_count: Total number of nodes. When omitted, inferred as
            ``max index + 1``, which silently drops trailing isolated nodes;
            pass it explicitly whenever those matter.
    """
    _, pairs = read_table(path, EDGE_COLUMNS, named=False)
    with in_file(path):
        if node_count is None and not pairs.size:
            raise ValueError("empty edge list; node_count is required")
        return Graph(pairs.max() + 1 if node_count is None else node_count, pairs[:, 0], pairs[:, 1])


def write_attributes(path, attributes: Sequence[AttributeVector]) -> None:
    """Write attribute CSV with header ``node,<name1>,...``; the names must be distinct and non-empty."""
    attrs = list(attributes)
    if not attrs or len({a.values.size for a in attrs}) != 1:
        raise ValueError("need one or more attribute vectors of equal length")
    names = check_names(a.name for a in attrs)
    columns = [a.values.tolist() for a in attrs]
    write_table(path, ("node",) + names, zip(range(len(columns[0])), *columns))


def read_attributes(path) -> list[AttributeVector]:
    """Read an attribute CSV written by :func:`write_attributes`.

    Rows must cover nodes 0..n-1 in order.
    """
    names, table = read_table(path, ("node",), named=True)
    with in_file(path):
        if not np.array_equal(table[:, 0], np.arange(len(table))):
            raise ValueError("node column must be 0..n-1 in order")
        return [AttributeVector(name, table[:, k + 1]) for k, name in enumerate(names)]
