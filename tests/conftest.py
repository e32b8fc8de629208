"""Shared fixtures and independent oracles for the test suite.

The oracles here deliberately avoid the library's vectorized code paths:
statistics are recomputed by exhaustive O(N^2) pair enumeration and the
assortativity coefficient through the mixing-matrix trace formula, so they
can vouch for the production implementations.
"""

from __future__ import annotations

import math

import networkx as nx
import numpy as np
import pytest

from rdsim import Graph, assortativity_from_ratio
from rdsim.graph import MixingCounts


def pair_iter(n):
    for i in range(n):
        for j in range(i + 1, n):
            yield i, j


def brute_force_stats(n: int, edges: set[tuple[int, int]], z) -> dict:
    """Exhaustive pairwise recomputation of every population statistic."""
    z = list(int(v) for v in z)
    deg = [0] * n
    w1 = w0 = cross = 0
    for i, j in pair_iter(n):
        if (i, j) in edges:
            deg[i] += 1
            deg[j] += 1
            if z[i] == 1 and z[j] == 1:
                w1 += 1
            elif z[i] == 0 and z[j] == 0:
                w0 += 1
            else:
                cross += 1
    total = w1 + w0 + cross
    out = {
        "edge_count": total,
        "degrees": deg,
        "mean_degree": sum(deg) / n,
        "prevalence": sum(z) / n,
        "within_1": w1,
        "within_0": w0,
        "cross": cross,
    }
    n1 = sum(z)
    n0 = n - n1
    if n1 and n0:
        d1 = sum(d for d, v in zip(deg, z) if v == 1)
        d0 = sum(d for d, v in zip(deg, z) if v == 0)
        out["diff_activity"] = None if d0 == 0 else (d1 / n1) / (d0 / n0)
    else:
        out["diff_activity"] = None
    out["homophily_ratio"] = None if cross == 0 else w1 / cross
    out["newman"] = newman_from_matrix(w1, w0, cross)
    return out


def newman_from_matrix(w1: int, w0: int, cross: int) -> float | None:
    """Assortativity via the mixing-matrix trace formula (independent route)."""
    total = w1 + w0 + cross
    if total == 0:
        return None
    e = np.array([[w0, cross / 2.0], [cross / 2.0, w1]]) / total
    s = float((e @ e).sum())
    if s == 1.0:
        return None
    return (float(np.trace(e)) - s) / (1.0 - s)


def networkx_induced_counts(forest, graph: Graph) -> list[MixingCounts]:
    """Each attribute column's mixing counts over networkx's subgraph of the sampled nodes, by a pair loop."""
    population = nx.Graph()
    population.add_nodes_from(range(graph.node_count))
    population.add_edges_from(zip(graph.src.tolist(), graph.dst.tolist()))
    values = dict(zip(forest.nodes.tolist(), forest.attributes.tolist()))
    edges = list(population.subgraph(forest.nodes.tolist()).edges)
    counts = []
    for k in range(forest.attributes.shape[1]):
        w1 = w0 = cross = 0
        for u, v in edges:
            if values[u][k] == 1 and values[v][k] == 1:
                w1 += 1
            elif values[u][k] == 0 and values[v][k] == 0:
                w0 += 1
            else:
                cross += 1
        counts.append(MixingCounts(within_1=w1, within_0=w0, cross=cross))
    return counts


def near_bound_assortativity(prevalence: float, diff_activity: float, node_count: int) -> float:
    """Midway between the least assortativity a network reaches at ``prevalence`` and one sd below it.

    A covariate with this target is accepted, but a draw of ``node_count``
    nodes whose prevalence falls far enough below ``prevalence`` cannot meet it.
    """
    below = prevalence - math.sqrt(prevalence * (1.0 - prevalence) / node_count)
    bounds = [assortativity_from_ratio(0.0, p, diff_activity) for p in (prevalence, below)]
    return sum(bounds) / 2.0


def random_graph(n: int, edge_prob: float, rng: np.random.Generator):
    """(Graph, edge set, attribute vector) with iid edges and attributes."""
    edges = {(i, j) for i, j in pair_iter(n) if rng.random() < edge_prob}
    z = rng.integers(0, 2, size=n)
    if edges:
        arr = np.array(sorted(edges))
        graph = Graph(n, arr[:, 0], arr[:, 1])
    else:
        graph = Graph(n, [], [])
    return graph, edges, z


@pytest.fixture
def three_node_graph():
    """A(z=1)-B(z=1), A-C(z=0): degrees 2,1,1; one within-1 and one cross edge."""
    graph = Graph(3, [0, 0], [1, 2])
    z = np.array([1, 1, 0], dtype=np.int8)
    return graph, z


def path_graph(n: int) -> Graph:
    return Graph(n, np.arange(n - 1), np.arange(1, n))


def complete_graph(n: int) -> Graph:
    src, dst = zip(*pair_iter(n))
    return Graph(n, src, dst)


def star_graph(leaves: int) -> Graph:
    """Node 0 is the center."""
    return Graph(leaves + 1, [0] * leaves, list(range(1, leaves + 1)))
