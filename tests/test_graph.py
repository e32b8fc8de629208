import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rdsim import (
    AttributeVector,
    Graph,
    MixingCounts,
    UndefinedEstimandError,
    assortativity_from_ratio,
    degree_distribution,
    differential_activity,
    homophily_ratio,
    mean_degree,
    mixing_counts,
    newman_assortativity,
    prevalence,
    ratio_from_assortativity,
    read_attributes,
    read_edge_list,
    write_attributes,
    write_edge_list,
)
from rdsim.graph import MAX_NODE_COUNT
from conftest import brute_force_stats, complete_graph, path_graph, random_graph


class TestGraph:
    def test_rejects_self_loops(self):
        with pytest.raises(ValueError, match="self-loop"):
            Graph(3, [0, 1], [1, 1])

    def test_rejects_parallel_edges(self):
        with pytest.raises(ValueError, match="parallel"):
            Graph(3, [0, 1], [1, 0])

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            Graph(3, [0], [3])

    def test_rejects_non_integer_endpoints(self):
        # int64 casting used to truncate these to src=[0, 1]
        with pytest.raises(ValueError, match="src must be integers"):
            Graph(3, [0.9, 1.5], [1, 2])
        with pytest.raises(ValueError, match="dst must be integers"):
            Graph(3, [0, 1], np.array([1, 2], dtype=object))
        assert Graph(3, [], []).edge_count == 0

    def test_canonical_edges_and_adjacency(self):
        graph = Graph(4, [2, 0, 3], [0, 1, 1])
        assert graph.src.tolist() == [0, 0, 1]
        assert graph.dst.tolist() == [1, 2, 3]
        assert graph.neighbors(0).tolist() == [1, 2]
        assert graph.neighbors(1).tolist() == [0, 3]
        assert graph.neighbors(2).tolist() == [0]
        assert graph.degrees.tolist() == [2, 2, 1, 1]

    def test_degree_sum_is_twice_edges(self):
        rng = np.random.default_rng(5)
        for _ in range(30):
            graph, _, _ = random_graph(8, 0.4, rng)
            assert graph.degrees.sum() == 2 * graph.edge_count

    def test_arrays_frozen(self):
        graph = Graph(3, [0], [1])
        with pytest.raises(ValueError):
            graph.degrees[0] = 99


def lexsort_reference(node_count, src, dst):
    """The lexsort canonicalization ``Graph`` is checked against: (src, dst, degrees, indptr, indices)."""
    src = np.asarray(src, dtype=np.int64)
    dst = np.asarray(dst, dtype=np.int64)
    lo = np.minimum(src, dst)
    hi = np.maximum(src, dst)
    if np.any(lo == hi):
        raise ValueError("self-loops are not allowed")
    order = np.lexsort((hi, lo))
    lo, hi = lo[order], hi[order]
    if np.any((lo[1:] == lo[:-1]) & (hi[1:] == hi[:-1])):
        raise ValueError("parallel edges are not allowed")
    ends = np.concatenate([lo, hi])
    other = np.concatenate([hi, lo])
    degrees = np.bincount(ends, minlength=node_count)
    indptr = np.zeros(node_count + 1, dtype=np.int64)
    np.cumsum(degrees, out=indptr[1:])
    return lo, hi, degrees, indptr, other[np.lexsort((other, ends))]


@st.composite
def simple_edge_lists(draw):
    """(node_count, edges): distinct undirected edges, endpoints in either order, shuffled."""
    n = draw(st.integers(1, 30) | st.integers(31, 5000), label="node_count")
    if n == 1:
        return n, []
    # j is drawn from n - 1 values and skips i, so no self-loop is drawn
    end = st.tuples(st.integers(0, n - 1), st.integers(0, n - 2)).map(lambda p: (p[0], p[1] + (p[1] >= p[0])))
    edges = draw(st.lists(end, max_size=min(60, n * (n - 1) // 2), unique_by=lambda e: (min(e), max(e))))
    return n, draw(st.permutations(edges), label="edges")


class TestGraphCanonicalizationOracle:
    @settings(max_examples=200, deadline=None)
    @given(simple_edge_lists())
    def test_matches_lexsort_reference_and_networkx(self, case):
        n, edges = case
        src = [u for u, _ in edges]
        dst = [v for _, v in edges]
        graph = Graph(n, src, dst)
        got = (graph.src, graph.dst, graph.degrees, graph._indptr, graph._indices)
        for actual, expected in zip(got, lexsort_reference(n, src, dst)):
            assert actual.dtype == expected.dtype
            assert np.array_equal(actual, expected)

        oracle = nx.Graph()
        oracle.add_nodes_from(range(n))
        oracle.add_edges_from(edges)
        assert graph.degrees.tolist() == [oracle.degree(v) for v in range(n)]
        for v in {u for e in edges for u in e}:
            assert graph.neighbors(v).tolist() == sorted(oracle.neighbors(v))

    @settings(max_examples=200, deadline=None)
    @given(simple_edge_lists(), st.data())
    def test_duplicates_and_self_loops_fail_like_the_reference(self, case, data):
        n, edges = case
        faults = [st.builds(lambda v: (v, v), st.integers(0, n - 1))]
        if edges:
            # the same edge again, as given or reversed
            faults.append(st.sampled_from(edges).flatmap(lambda e: st.sampled_from([e, e[::-1]])))
        fault = data.draw(st.one_of(faults), label="fault")
        at = data.draw(st.integers(0, len(edges)), label="at")
        edges = edges[:at] + [fault] + edges[at:]
        src = [u for u, _ in edges]
        dst = [v for _, v in edges]
        with pytest.raises(ValueError) as expected:
            lexsort_reference(n, src, dst)
        with pytest.raises(ValueError) as got:
            Graph(n, src, dst)
        assert str(got.value) == str(expected.value)

    def test_node_count_bound_is_checked_first(self):
        # every key lo * n + hi <= n*n - 1 must fit in int64
        assert MAX_NODE_COUNT**2 - 1 <= np.iinfo(np.int64).max < (MAX_NODE_COUNT + 1) ** 2 - 1
        # no graph is built at the limit itself: its indptr alone takes 24 GB
        for src in ([], [0.5]):
            with pytest.raises(ValueError, match=f"node_count must be <= {MAX_NODE_COUNT}"):
                Graph(MAX_NODE_COUNT + 1, src, src)


class TestBasicStatistics:
    def test_mean_degree_triangle(self):
        assert mean_degree(Graph(3, [0, 1, 2], [1, 2, 0])) == 2.0

    def test_mean_degree_complete_four(self):
        assert mean_degree(complete_graph(4)) == 3.0

    def test_mean_degree_path_three(self):
        assert mean_degree(path_graph(3)) == pytest.approx(4 / 3)

    def test_prevalence(self):
        assert prevalence([0, 0, 0, 0]) == 0.0
        assert prevalence([1, 1, 0, 0]) == 0.5
        assert prevalence([1, 1, 0]) == pytest.approx(2 / 3)

    def test_degree_distribution_consistency(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            graph, _, _ = random_graph(8, 0.5, rng)
            dist = degree_distribution(graph)
            assert dist.node_count == graph.node_count
            assert dist.total_degree == 2 * graph.edge_count


class TestDifferentialActivity:
    def test_hand_example(self, three_node_graph):
        graph, z = three_node_graph
        # group-1 degrees (2, 1) mean 1.5; group-0 degree (1,) mean 1
        assert differential_activity(graph, z) == pytest.approx(1.5)

    def test_label_swap_symmetric_graph(self):
        # two disjoint edges, one per group: swapping labels maps the graph to itself
        graph = Graph(4, [0, 2], [1, 3])
        z = [1, 1, 0, 0]
        assert differential_activity(graph, z) == 1.0

    def test_isolated_group_one(self):
        graph = Graph(4, [2], [3])
        assert differential_activity(graph, [1, 1, 0, 0]) == 0.0

    def test_empty_group_errors(self):
        graph = Graph(3, [0], [1])
        with pytest.raises(UndefinedEstimandError):
            differential_activity(graph, [1, 1, 1])

    def test_zero_reference_degree_errors(self):
        graph = Graph(4, [0], [1])
        with pytest.raises(UndefinedEstimandError):
            differential_activity(graph, [1, 1, 0, 0])


class TestMixingCounts:
    def test_two_cliques_no_cross(self):
        edges = [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)]
        graph = Graph(6, [e[0] for e in edges], [e[1] for e in edges])
        counts = mixing_counts(graph, [1, 1, 1, 0, 0, 0])
        assert counts.cross == 0
        assert counts.within_1 == 3
        assert counts.within_0 == 3

    def test_complete_bipartite_all_cross(self):
        src, dst = zip(*[(i, j) for i in range(2) for j in range(2, 5)])
        graph = Graph(5, src, dst)
        counts = mixing_counts(graph, [1, 1, 0, 0, 0])
        assert counts.within_1 == 0
        assert counts.within_0 == 0
        assert counts.cross == 6

    def test_hand_example(self, three_node_graph):
        graph, z = three_node_graph
        counts = mixing_counts(graph, z)
        assert (counts.within_1, counts.cross, counts.within_0) == (1, 1, 0)

    def test_relabel_invariance(self):
        rng = np.random.default_rng(3)
        graph, _, z = random_graph(8, 0.4, rng)
        perm = rng.permutation(8)
        relabeled = Graph(8, perm[graph.src], perm[graph.dst])
        z_re = np.empty(8, dtype=np.int8)
        z_re[perm] = z
        a = mixing_counts(graph, z)
        b = mixing_counts(relabeled, z_re)
        assert (a.within_1, a.within_0, a.cross) == (b.within_1, b.within_0, b.cross)

    def test_label_swap(self, three_node_graph):
        graph, z = three_node_graph
        a = mixing_counts(graph, z)
        b = mixing_counts(graph, 1 - np.asarray(z))
        assert (a.within_1, a.within_0, a.cross) == (b.within_0, b.within_1, b.cross)
        # assortativity is label-swap invariant, the ratio maps w1/c -> w0/c
        assert newman_assortativity(a) == newman_assortativity(b)
        assert homophily_ratio(b) == a.within_0 / a.cross


class TestHomophilyMetrics:
    def test_newman_perfect_assortative(self):
        counts = MixingCounts(within_1=3, within_0=3, cross=0)
        assert newman_assortativity(counts) == 1.0

    def test_newman_fully_dissortative(self):
        counts = MixingCounts(within_1=0, within_0=0, cross=6)
        assert newman_assortativity(counts) == -1.0

    def test_newman_hand_example(self, three_node_graph):
        graph, z = three_node_graph
        assert newman_assortativity(mixing_counts(graph, z)) == pytest.approx(-1 / 3)

    def test_newman_bounds_and_extremes_random(self):
        rng = np.random.default_rng(17)
        checked = 0
        for _ in range(100):
            graph, _, z = random_graph(8, 0.5, rng)
            counts = mixing_counts(graph, z)
            try:
                value = newman_assortativity(counts)
            except UndefinedEstimandError:
                continue
            assert -1.0 <= value <= 1.0
            # extremes hold exactly in both directions
            assert (value == 1.0) == (counts.cross == 0)
            assert (value == -1.0) == (counts.within_1 == 0 and counts.within_0 == 0)
            checked += 1
        assert checked > 50

    def test_newman_undefined(self):
        with pytest.raises(UndefinedEstimandError):
            newman_assortativity(MixingCounts(0, 0, 0))
        with pytest.raises(UndefinedEstimandError):
            newman_assortativity(MixingCounts(within_1=4, within_0=0, cross=0))

    def test_ratio(self, three_node_graph):
        graph, z = three_node_graph
        assert homophily_ratio(mixing_counts(graph, z)) == 1.0
        assert homophily_ratio(MixingCounts(5, 2, 5)) == 1.0
        with pytest.raises(UndefinedEstimandError):
            homophily_ratio(MixingCounts(3, 3, 0))


class TestRatioAssortativityBridge:
    def test_reference_anchor(self):
        # minority prevalence 0.33, activity ratio 1.16, edge ratio 0.40
        value = assortativity_from_ratio(0.40, 0.33, 1.16)
        assert value == pytest.approx(-0.20, abs=0.005)

    def test_balanced_identity_case(self):
        assert assortativity_from_ratio(1.0, 0.5, 1.0) == 0.0

    def test_direct_evaluation(self):
        # R=5, p=0.5, Da=1: 5/6 - 2/12 = 2/3
        assert assortativity_from_ratio(5.0, 0.5, 1.0) == pytest.approx(2 / 3, abs=1e-12)

    def test_strictly_increasing_with_unit_limit(self):
        for p, da in [(0.1, 0.5), (0.33, 1.16), (0.5, 1.0), (0.8, 4.0)]:
            grid = [assortativity_from_ratio(r, p, da) for r in np.linspace(0.0, 50.0, 200)]
            assert all(b > a for a, b in zip(grid, grid[1:]))
            assert assortativity_from_ratio(1e9, p, da) == pytest.approx(1.0, abs=1e-6)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            assortativity_from_ratio(1.0, 0.0, 1.0)
        with pytest.raises(ValueError):
            assortativity_from_ratio(1.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            assortativity_from_ratio(1.0, 0.5, 0.0)
        with pytest.raises(ValueError):
            assortativity_from_ratio(-0.5, 0.5, 1.0)

    def test_round_trip(self):
        target = assortativity_from_ratio(5.0, 0.5, 1.0)
        assert ratio_from_assortativity(target, 0.5, 1.0) == pytest.approx(5.0, abs=1e-8)

    @settings(max_examples=300, deadline=None)
    @given(
        exponent=st.floats(-6.0, 6.0),
        p=st.floats(0.01, 0.99),
        da=st.floats(0.1, 10.0),
    )
    def test_round_trip_is_relative(self, exponent, p, da):
        # an absolute tolerance on the ratio lost precision at small ratios
        # and never ended at large ones
        ratio = 10.0**exponent
        back = ratio_from_assortativity(assortativity_from_ratio(ratio, p, da), p, da)
        assert back == pytest.approx(ratio, rel=1e-9)

    def test_anchor_round_trip(self):
        assert ratio_from_assortativity(-0.196, 0.33, 1.16) == pytest.approx(0.40, abs=0.01)

    def test_identity_round_trip(self):
        assert ratio_from_assortativity(0.0, 0.5, 1.0) == pytest.approx(1.0, abs=1e-8)

    def test_unattainable_errors(self):
        floor = assortativity_from_ratio(0.0, 0.5, 1.0)
        with pytest.raises(ValueError, match="attainable"):
            ratio_from_assortativity(floor - 0.01, 0.5, 1.0)
        with pytest.raises(ValueError):
            ratio_from_assortativity(1.0, 0.5, 1.0)


class TestBruteForceOracle:
    def test_statistics_match_exhaustive_enumeration(self):
        rng = np.random.default_rng(2024)
        for trial in range(200):
            n = int(rng.integers(2, 9))
            graph, edges, z = random_graph(n, float(rng.uniform(0.1, 0.9)), rng)
            expected = brute_force_stats(n, edges, z)
            assert graph.edge_count == expected["edge_count"]
            assert graph.degrees.tolist() == expected["degrees"]
            assert mean_degree(graph) == pytest.approx(expected["mean_degree"])
            assert prevalence(z) == pytest.approx(expected["prevalence"])
            counts = mixing_counts(graph, z)
            assert counts.within_1 == expected["within_1"]
            assert counts.within_0 == expected["within_0"]
            assert counts.cross == expected["cross"]
            if expected["diff_activity"] is None:
                if 0 < z.sum() < n:
                    with pytest.raises(UndefinedEstimandError):
                        differential_activity(graph, z)
            else:
                assert differential_activity(graph, z) == pytest.approx(expected["diff_activity"])
            if expected["homophily_ratio"] is not None:
                assert homophily_ratio(counts) == pytest.approx(expected["homophily_ratio"])
            if expected["newman"] is not None:
                assert newman_assortativity(counts) == pytest.approx(expected["newman"], abs=1e-12)


class TestFileFormats:
    def test_edge_list_round_trip(self, tmp_path):
        rng = np.random.default_rng(9)
        graph, _, _ = random_graph(10, 0.4, rng)
        path = tmp_path / "edges.csv"
        write_edge_list(graph, path)
        header = path.read_text().splitlines()[0]
        assert header == "src,dst"
        back = read_edge_list(path, node_count=10)
        assert back.src.tolist() == graph.src.tolist()
        assert back.dst.tolist() == graph.dst.tolist()
        assert back.node_count == 10

    def test_edge_list_bad_header(self, tmp_path):
        path = tmp_path / "edges.csv"
        path.write_text("a,b\n0,1\n")
        with pytest.raises(ValueError, match="header"):
            read_edge_list(path)

    def test_attributes_round_trip(self, tmp_path):
        path = tmp_path / "attributes.csv"
        first = AttributeVector("alpha", [1, 0, 1])
        second = AttributeVector("beta", [0, 0, 1])
        write_attributes(path, [first, second])
        assert path.read_text().splitlines()[0] == "node,alpha,beta"
        back = read_attributes(path)
        assert [a.name for a in back] == ["alpha", "beta"]
        assert back[0].values.tolist() == [1, 0, 1]
        assert back[1].values.tolist() == [0, 0, 1]

    def test_attribute_vector_validation(self):
        with pytest.raises(ValueError):
            AttributeVector("bad", [0, 2, 1])

    def test_attribute_vector_checks_before_narrowing(self):
        # int8 would wrap 256 to 0 and 257 to 1
        with pytest.raises(ValueError, match="outside"):
            AttributeVector("z", np.array([256, 257, 1]))
        with pytest.raises(ValueError, match="outside"):
            AttributeVector("z", np.array([0.5, 1.0]))
        assert AttributeVector("z", np.array([1, 0], dtype=np.int64)).values.dtype == np.int8

    def test_statistics_check_attributes_before_casting(self):
        # an int64 cast would truncate 0.5 to 0
        with pytest.raises(ValueError, match="0 or 1"):
            prevalence([0.5, 1])


def test_h_evaluated_on_network_differs_from_bridge(three_node_graph):
    # The analytic bridge and the realized-network coefficient are different
    # quantities on small graphs; both are exposed, neither is asserted equal.
    graph, z = three_node_graph
    network_value = newman_assortativity(mixing_counts(graph, z))
    bridge_value = assortativity_from_ratio(
        homophily_ratio(mixing_counts(graph, z)),
        prevalence(z),
        differential_activity(graph, z),
    )
    assert network_value == pytest.approx(-1 / 3)
    assert bridge_value == pytest.approx(-0.5)
    assert network_value != bridge_value
