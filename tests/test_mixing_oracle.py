"""Property tests of the edge-mixing classifier against independent oracles.

``mixing_counts`` is checked against the plain pair loop in
``conftest.brute_force_stats``, and ``newman_assortativity`` against
networkx's ``attribute_assortativity_coefficient`` (Newman 2003, "Mixing
patterns in networks") wherever the coefficient is defined.
"""

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rdsim import Graph, MixingCounts, UndefinedEstimandError, mixing_counts, newman_assortativity
from conftest import brute_force_stats, pair_iter


@st.composite
def attributed_graphs(draw):
    n = draw(st.integers(min_value=2, max_value=12))
    pairs = list(pair_iter(n))
    edges = draw(st.sets(st.sampled_from(pairs), max_size=len(pairs)))
    z = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    return n, edges, z


@settings(max_examples=300, deadline=None)
@given(attributed_graphs())
def test_mixing_counts_match_pair_loop_and_networkx(case):
    n, edges, z = case
    ordered = sorted(edges)
    graph = Graph(n, [i for i, _ in ordered], [j for _, j in ordered])
    counts = mixing_counts(graph, z)
    expected = brute_force_stats(n, edges, z)
    assert counts == MixingCounts(expected["within_1"], expected["within_0"], expected["cross"])

    try:
        assortativity = newman_assortativity(counts)
    except UndefinedEstimandError:
        return
    reference = nx.Graph()
    reference.add_nodes_from((node, {"z": value}) for node, value in enumerate(z))
    reference.add_edges_from(ordered)
    assert nx.attribute_assortativity_coefficient(reference, "z") == pytest.approx(
        assortativity, rel=0, abs=1e-12
    )
