"""Undirected population networks with binary node attributes.

Immutable graph container plus the exact population-level statistics used
as estimands throughout the package: mean degree, attribute prevalence,
differential activity, attribute mixing counts, and two homophily metrics
(Newman's assortativity coefficient and the within/cross edge ratio),
together with the analytic bridge between those two metrics.

Attribute values are checked here wherever they enter the package, and
held as a read-only (n, m) int8 matrix of 0/1 values, a vector being one
column; where they are named, the names travel beside the matrix as a
tuple, one per column. Two interchange file formats live here as well: an
edge-list CSV (``src,dst`` with 0-based indices, ``src < dst``) and an
attribute CSV (``node,<name1>,...`` with 0/1 values), read and written as
``(names, matrix)``. Both are parsed and written by :mod:`rdsim.tables`.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import inf, sqrt

import numpy as np

from .errors import UndefinedEstimandError, _check_count, _check_real
from .tables import check_names, in_file, read_table, write_table

__all__ = [
    "Graph",
    "MixingCounts",
    "mean_degree",
    "prevalence",
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
    and compared for self-loops in that dtype, and their lo and hi ends are
    taken straight into the key dtype, so narrow draws stay narrow and no
    cast copy of the inputs is made. The public arrays are int64 at either
    key width, slices of one block allocated once per graph, and each is
    written once, in that dtype: ``src`` and ``dst`` by ``>>`` and ``&`` of
    the sorted edge keys, the neighbor array by ``&`` of the sorted
    adjacency keys, which are built and sorted inside the neighbor slice
    itself, and the degrees and ``indptr`` from the endpoint counts. Beside
    the block, the only arrays of the edge count's length are key-width
    temporaries, each freed once it has been read: the lo and hi ends, and
    numpy's copy of the adjacency keys as it unpacks them.
    Self-loops and parallel edges are rejected. All arrays are frozen after
    construction, so instances are safe to share across workers.
    """

    __slots__ = ("_n", "_src", "_dst", "_indptr", "_indices", "_degrees")

    def __init__(self, node_count: int, src, dst):
        n = _check_count("node_count", node_count, 1)
        if n > MAX_NODE_COUNT:
            raise ValueError(f"node_count must be <= {MAX_NODE_COUNT}, got {n}")
        src = _as_integers(src, "src")
        dst = _as_integers(dst, "dst")
        if src.shape != dst.shape:
            raise ValueError("src and dst must have equal length")
        if src.size:
            low = min(int(src.min()), int(dst.min()))
            high = max(int(src.max()), int(dst.max()))
            if low < 0 or high >= n:
                raise ValueError(f"edge endpoint out of range: {low if low < 0 else high} is not in 0..{n - 1}")
        if np.any(src == dst):
            raise ValueError("self-loops are not allowed")
        # every int64 array is a slice of one block: one allocation per graph
        e = src.size
        block = np.empty(4 * e + 2 * n + 1, dtype=np.int64)
        # the ends go straight into the key dtype, with no cast copy of the
        # inputs: exact once the range is checked, and mixed int64/uint64
        # input is never promoted to float64
        key_type = np.uint32 if n <= MAX_KEY32_NODE_COUNT else np.uint64
        key = np.minimum(src, dst, dtype=key_type, casting="unsafe")  # the lo ends, shifted in place below
        hi = np.maximum(src, dst, dtype=key_type, casting="unsafe")
        del src, dst
        # keys are unique once parallel edges are ruled out, so a plain
        # (unstable) sort of the key gives the lexicographic (lo, hi) order
        shift = max((n - 1).bit_length(), 1)
        mask = (1 << shift) - 1
        key <<= shift
        key |= hi
        del hi
        key.sort()
        if np.any(key[1:] == key[:-1]):
            raise ValueError("parallel edges are not allowed")
        src = np.right_shift(key, shift, out=block[:e])
        dst = np.bitwise_and(key, mask, out=block[e:2 * e])

        # adjacency keys end << b | other: the lo ends are the sorted edge
        # keys themselves, the hi ends (hi << b | lo) come from them too.
        # They are built and sorted in the neighbor slice, whose last 2e
        # key-width words they fill at either key width, so no array of
        # them is held beside the edge keys; numpy unpacks them into the
        # slice from a copy, as the two overlap.
        indices = block[2 * e:4 * e]
        words = indices.view(key_type)
        adj = words[words.size - 2 * e:]
        adj[:e] = key
        high_ends = adj[e:]
        np.bitwise_and(key, mask, out=high_ends)
        high_ends <<= shift
        key >>= shift
        high_ends |= key
        del key
        adj.sort()
        np.bitwise_and(adj, mask, out=indices)
        degrees = block[4 * e:4 * e + n]
        np.add(np.bincount(src, minlength=n), np.bincount(dst, minlength=n), out=degrees)
        indptr = block[4 * e + n:]
        indptr[0] = 0
        np.cumsum(degrees, out=indptr[1:])

        block.flags.writeable = False
        for arr in (src, dst, indptr, indices, degrees):
            arr.flags.writeable = False
        self._n = n
        self._src = src
        self._dst = dst
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
        """Sorted neighbor array of ``node`` (read-only view).

        ``node`` is a node id in ``0..node_count - 1``, a Python or numpy integer.

        Raises:
            IndexError: If ``node`` is outside that range; a negative id is
                not read from the end.
        """
        if not 0 <= node < self._n:
            raise IndexError(f"node {node} is not in 0..{self._n - 1}")
        indptr = self._indptr
        return self._indices[indptr.item(node):indptr.item(node + 1)]

    def __repr__(self) -> str:
        return f"Graph(node_count={self._n}, edge_count={self.edge_count})"


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


def _as_attributes(values, rows: int | None = None, names: tuple[str, ...] | None = None) -> np.ndarray:
    """``values`` as a read-only (n, m) int8 matrix of 0/1 values; a vector is one column.

    Every attribute matrix of the package is checked here: its shape, its
    row count when ``rows`` is given, one column per name when ``names``
    are, and its values, before the narrowing that would wrap 256 to 0.
    """
    given = np.asarray(values)
    z = given[:, None] if given.ndim == 1 else given
    if z.ndim != 2 or not z.size:
        raise ValueError(f"attribute matrix must be (n, m) with n, m >= 1, got shape {given.shape}")
    if rows is not None and z.shape[0] != rows:
        raise ValueError(
            f"attribute matrix length {z.shape[0]} must equal the node count {rows} (shape {given.shape})"
        )
    if names is not None and z.shape[1] != len(names):
        raise ValueError(f"{len(names)} attribute names for {z.shape[1]} columns (shape {given.shape})")
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
    """Mean of ``degrees`` over the value-1 nodes of ``z`` over that of the value-0 nodes.

    ``z`` is 0/1, so the value-1 degree sum is the integer dot product
    ``degrees @ z`` and the value-0 sum is the rest of the total.
    """
    n1 = int(np.count_nonzero(z))
    total1 = int(degrees @ z)
    return _mean_ratio(n1, total1, z.size - n1, int(degrees.sum()) - total1)


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


def _check_targets(prevalence: float, diff_activity: float, ratio: float) -> None:
    """Refuse a non-number, or a prevalence outside (0, 1), activity outside (0, inf) or ratio outside [0, inf)."""
    if not 0.0 < _check_real("prevalence", prevalence) < 1.0:
        raise ValueError("prevalence must be strictly inside (0, 1)")
    if not 0.0 < _check_real("diff_activity", diff_activity) < inf:
        raise ValueError("diff_activity must be positive and finite")
    if not 0.0 <= _check_real("homophily_ratio", ratio) < inf:
        raise ValueError("homophily_ratio must be nonnegative and finite")


def assortativity_from_ratio(ratio: float, prevalence: float, diff_activity: float) -> float:
    """Map the within/cross edge ratio to the assortativity scale.

    Evaluates ``R/(1+R) - 2/(1 + eta*(1+2R))`` with
    ``eta = (1/D_a) * (1-p)/p``. The map is strictly increasing in the
    ratio and tends to 1 as the ratio grows. Note this analytic bridge
    assumes an idealized mixing structure; on a realized finite network it
    generally differs from :func:`newman_assortativity` of that network.

    Args:
        ratio: Within-1/cross edge ratio, in [0, inf).
        prevalence: Attribute prevalence p, strictly inside (0, 1).
        diff_activity: Differential activity D_a, in (0, inf).
    """
    _check_targets(prevalence, diff_activity, ratio)
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
        ValueError: If an input is no number or out of range, or the target outside the attainable interval.
    """
    h = _check_real("assortativity", assortativity)
    lo_value = assortativity_from_ratio(0.0, prevalence, diff_activity)
    if not lo_value < h < 1.0:
        raise ValueError(f"assortativity {assortativity} not attainable: must be in ({lo_value:.6g}, 1)")
    eta = (1.0 / diff_activity) * (1.0 - prevalence) / prevalence
    a = 2.0 * eta * (1.0 - h)
    b = eta - 1.0 - h * (1.0 + 3.0 * eta)
    c = 2.0 + h * (1.0 + eta)
    root = sqrt(b * b + 4.0 * a * c)
    return (root - b) / (2.0 * a) if b < 0.0 else 2.0 * c / (root + b)


def write_edge_list(graph: Graph, path) -> None:
    """Write ``graph`` as CSV with header ``src,dst`` (0-based, src < dst)."""
    write_table(path, EDGE_COLUMNS, zip(graph.src.tolist(), graph.dst.tolist()))


def read_edge_list(path, node_count: int) -> Graph:
    """Read an edge-list CSV written by :func:`write_edge_list` into a graph on ``node_count`` nodes.

    The file does not hold the node count, since isolated nodes have no
    line; every endpoint must lie in ``0 .. node_count-1``.
    """
    _, pairs = read_table(path, EDGE_COLUMNS, named=False)
    with in_file(path):
        return Graph(node_count, pairs[:, 0], pairs[:, 1])


def write_attributes(path, names, values) -> None:
    """Write an attribute CSV with header ``node,<name1>,...`` from an (n, m) 0/1 matrix.

    ``values`` is checked as every attribute matrix is (a vector is one
    column), and must have one column per name; the names must be
    distinct and non-empty.
    """
    names = check_names(names)
    z = _as_attributes(values, names=names)
    write_table(path, ("node",) + names, zip(range(z.shape[0]), *z.T.tolist()))


def read_attributes(path) -> tuple[tuple[str, ...], np.ndarray]:
    """Read an attribute CSV written by :func:`write_attributes` as ``(names, z)``.

    ``z`` is the read-only (n, m) int8 matrix of the file's 0/1 columns,
    one per name. Rows must cover nodes 0..n-1 in order; a value other
    than 0 or 1 is an error naming the file and its column.
    """
    names, table = read_table(path, ("node",), named=True)
    with in_file(path):
        if not np.array_equal(table[:, 0], np.arange(len(table))):
            raise ValueError("node column must be 0..n-1 in order")
        values = table[:, 1:]
        try:
            return names, _as_attributes(values)
        except ValueError as exc:
            outside = ((values < 0) | (values > 1)).any(axis=0)
            if not outside.any():
                raise
            raise ValueError(f"attribute {names[int(outside.argmax())]!r}: {exc}") from None
