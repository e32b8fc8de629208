import tracemalloc

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rdsim import (
    Graph,
    MixingCounts,
    UndefinedEstimandError,
    assortativity_from_ratio,
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
from rdsim.graph import MAX_KEY32_NODE_COUNT, MAX_NODE_COUNT
from conftest import brute_force_stats, complete_graph, path_graph, random_graph


class TestGraph:
    def test_rejects_self_loops(self):
        with pytest.raises(ValueError, match="self-loop"):
            Graph(3, [0, 1], [1, 1])

    def test_rejects_parallel_edges(self):
        with pytest.raises(ValueError, match="parallel"):
            Graph(3, [0, 1], [1, 0])

    def test_rejects_out_of_range(self):
        # the error names the lowest endpoint when it is negative, else the highest
        cases = [([0], [3], 3), ([0, 7], [1, 1], 7), ([0, -4], [2, 1], -4), ([-1, 0], [9, 1], -1)]
        for src, dst, endpoint in cases:
            message = rf"^edge endpoint out of range: {endpoint} is not in 0\.\.2$"
            with pytest.raises(ValueError, match=message):
                Graph(3, src, dst)

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

    def test_neighbors_refuses_ids_outside_the_nodes(self):
        # a negative id used to read from the end (-2 gave node 3's neighbors, -1 an empty array)
        graph = Graph(4, [2, 0, 3], [0, 1, 1])
        for node in (-1, -2, 4, np.int64(-3), np.uint32(4)):
            with pytest.raises(IndexError, match=rf"^node {node} is not in 0\.\.3$"):
                graph.neighbors(node)

    def test_neighbors_takes_numpy_integer_ids(self):
        graph = Graph(4, [2, 0, 3], [0, 1, 1])
        for kind in (np.int64, np.uint32, np.int8, np.uint64):
            assert graph.neighbors(kind(0)).tolist() == [1, 2]
            assert graph.neighbors(kind(3)).tolist() == [1]

    def test_degree_sum_is_twice_edges(self):
        rng = np.random.default_rng(5)
        for _ in range(30):
            graph, _, _ = random_graph(8, 0.4, rng)
            assert graph.degrees.sum() == 2 * graph.edge_count

    def test_arrays_frozen(self):
        graph = Graph(3, [0], [1])
        with pytest.raises(ValueError):
            graph.degrees[0] = 99

    def test_repr_names_the_counts(self):
        assert repr(Graph(3, [0, 1], [1, 2])) == "Graph(node_count=3, edge_count=2)"


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


@st.composite
def sparse_edge_lists(draw):
    """(node_count, edges) on up to 200,000 nodes, either key width, with the top nodes drawn often."""
    n = draw(
        st.integers(2, 200_000)
        | st.sampled_from([MAX_KEY32_NODE_COUNT - 1, MAX_KEY32_NODE_COUNT, MAX_KEY32_NODE_COUNT + 1]),
        label="node_count",
    )
    # the largest keys come from the largest nodes
    node = st.integers(0, n - 1) | st.integers(max(0, n - 4), n - 1)
    end = st.tuples(node, node).filter(lambda e: e[0] != e[1])
    edges = draw(st.lists(end, max_size=min(80, n * (n - 1) // 2), unique_by=lambda e: (min(e), max(e))))
    return n, draw(st.permutations(edges), label="edges")


def largest_shift_key(n):
    """The adjacency key (n-1) << b | (n-2) of the edge (n-2, n-1), the largest key on n nodes."""
    shift = max((n - 1).bit_length(), 1)
    return (n - 1) << shift | (n - 2)


class TestGraphKeyWidths:
    """Both key widths, uint32 up to MAX_KEY32_NODE_COUNT nodes and int64 above, give the reference graph."""

    @staticmethod
    def assert_matches_oracles(n, edges, dtypes=None):
        src = [u for u, _ in edges]
        dst = [v for _, v in edges]
        if dtypes is None:
            graph = Graph(n, src, dst)
        else:
            graph = Graph(n, np.array(src, dtype=dtypes[0]), np.array(dst, dtype=dtypes[1]))
        got = (graph.src, graph.dst, graph.degrees, graph._indptr, graph._indices)
        for actual, expected in zip(got, lexsort_reference(n, src, dst)):
            assert actual.dtype == expected.dtype == np.int64
            assert np.array_equal(actual, expected)
            assert not actual.flags.writeable

        # networkx on the touched nodes only: every other node has degree 0
        oracle = nx.Graph(edges)
        assert graph.degrees.sum() == 2 * oracle.number_of_edges()
        for v in oracle:
            assert graph.degrees[v] == oracle.degree(v)
            assert graph.neighbors(v).tolist() == sorted(oracle.neighbors(v))

    def test_switch_point_is_the_largest_uint32_node_count(self):
        # the largest key of a simple graph is the adjacency key (n-1) << b | (n-2)
        assert largest_shift_key(MAX_KEY32_NODE_COUNT) == np.iinfo(np.uint32).max - 1
        assert largest_shift_key(MAX_KEY32_NODE_COUNT + 1) > np.iinfo(np.uint32).max

    def test_largest_shift_key_at_the_node_cap_fits_uint64(self):
        assert (MAX_NODE_COUNT - 1).bit_length() == 32
        assert largest_shift_key(MAX_NODE_COUNT) <= np.iinfo(np.uint64).max

    @pytest.mark.parametrize("n", [MAX_KEY32_NODE_COUNT, MAX_KEY32_NODE_COUNT + 1])
    def test_largest_keys_at_the_switch_point(self, n):
        # (n-2, n-1) has the largest edge key and the largest adjacency key
        # (n-1) << b | (n-2): 2**32 - 2 at n = 65,536, beyond uint32 at n = 65,537
        edges = [(n - 1, n - 2), (0, n - 1), (n - 3, n - 2), (1, 0), (n - 1, n - 3)]
        self.assert_matches_oracles(n, edges)

    @pytest.mark.parametrize("n", [MAX_KEY32_NODE_COUNT, MAX_KEY32_NODE_COUNT + 1])
    def test_top_keys_still_detect_faults(self, n):
        with pytest.raises(ValueError, match="parallel edges are not allowed"):
            Graph(n, [n - 2, n - 1], [n - 1, n - 2])
        with pytest.raises(ValueError, match="self-loops are not allowed"):
            Graph(n, [n - 2, n - 1], [n - 1, n - 1])

    @settings(max_examples=150, deadline=None)
    @given(sparse_edge_lists())
    def test_matches_lexsort_reference_and_networkx(self, case):
        self.assert_matches_oracles(*case)


KEY_WIDTH_NODE_COUNTS = (2, MAX_KEY32_NODE_COUNT, MAX_KEY32_NODE_COUNT + 1)
ENDPOINT_DTYPES = [
    (np.int64, np.int64),
    (np.int32, np.int32),
    (np.uint32, np.uint32),
    (np.uint16, np.uint16),
    (np.uint64, np.uint64),
    (np.int64, np.uint64),
    (np.uint64, np.int64),
]


class TestGraphEndpointDtypes:
    """Endpoints of any integer dtype are checked in that dtype and give the reference graph."""

    @pytest.mark.parametrize(
        "n, dtypes",
        [
            (n, dtypes)
            for n in KEY_WIDTH_NODE_COUNTS
            for dtypes in ENDPOINT_DTYPES
            if all(n - 1 <= np.iinfo(t).max for t in dtypes)
        ],
    )
    def test_matches_lexsort_reference_and_networkx(self, n, dtypes):
        if n == 2:
            edges = [(1, 0)]
        else:
            edges = [(n - 1, n - 2), (0, n - 1), (n - 3, n - 2), (1, 0), (n - 1, n - 3)]
        TestGraphKeyWidths.assert_matches_oracles(n, edges, dtypes)

    @pytest.mark.parametrize("n", KEY_WIDTH_NODE_COUNTS)
    def test_narrow_endpoints_range_check_in_their_own_dtype(self, n):
        # the node count may exceed the dtype's range, and its top value may exceed n - 1
        narrow = Graph(n, np.array([1], dtype=np.uint8), np.array([0], dtype=np.uint8))
        assert narrow.src.tolist() == [0] and narrow.dst.tolist() == [1]
        if n - 1 < np.iinfo(np.uint16).max:
            with pytest.raises(ValueError, match="edge endpoint out of range"):
                Graph(n, np.array([0], dtype=np.uint16), np.array([np.iinfo(np.uint16).max], dtype=np.uint16))

    @pytest.mark.parametrize("n", KEY_WIDTH_NODE_COUNTS)
    @pytest.mark.parametrize("top", [2**63, 2**63 + 1, 2**64 - 1])
    def test_uint64_endpoints_past_int64_are_out_of_range(self, n, top):
        ends = np.array([0, top], dtype=np.uint64)
        with pytest.raises(ValueError, match="edge endpoint out of range"):
            Graph(n, ends, np.array([1, 1], dtype=np.uint64))
        with pytest.raises(ValueError, match="edge endpoint out of range"):
            Graph(n, np.array([1, 1], dtype=np.int64), ends)

    @pytest.mark.parametrize("n", KEY_WIDTH_NODE_COUNTS)
    def test_negative_int32_endpoints_are_out_of_range(self, n):
        with pytest.raises(ValueError, match="edge endpoint out of range"):
            Graph(n, np.array([1, -1], dtype=np.int32), np.array([0, 1], dtype=np.int32))
        with pytest.raises(ValueError, match="edge endpoint out of range"):
            Graph(n, np.array([1], dtype=np.int32), np.array([np.iinfo(np.int32).min], dtype=np.int32))

    def test_non_integer_and_empty_inputs(self):
        with pytest.raises(ValueError, match="src must be integers, not float64"):
            Graph(3, np.array([0.0, 1.0]), np.array([1, 2]))
        with pytest.raises(ValueError, match="dst must be integers, not float32"):
            Graph(3, np.array([0, 1]), np.array([1.0, 2.0], dtype=np.float32))
        with pytest.raises(ValueError, match="src and dst must have equal length"):
            Graph(3, np.array([0, 1], dtype=np.uint32), np.array([1], dtype=np.uint32))
        single = Graph(1, [], [])
        assert single.edge_count == 0
        assert single.degrees.tolist() == [0]
        assert single._indptr.tolist() == [0, 0]
        assert single.src.dtype == single.dst.dtype == single._indices.dtype == np.int64


def cohort_scale_draw(n, e=336_000):
    """``e`` distinct uint32 edges on ``n`` nodes (e / n below n / 2), shuffled: a cohort-scale draw."""
    lo = np.arange(e) % n
    hi = (lo + 1 + np.arange(e) // n) % n
    order = np.random.default_rng(0).permutation(e)
    return lo[order].astype(np.uint32), hi[order].astype(np.uint32)


class TestGraphMemory:
    def test_cohort_scale_peak_is_two_key_arrays_beside_the_block(self):
        # beside the int64 arrays it keeps (11.40 MB at 40,400 nodes), Graph
        # holds at most 2 * e key-width words at a time (2.69 MB of uint32,
        # 5.38 MB of uint64), the lo and hi ends or numpy's copy of the
        # adjacency keys, plus numpy's small buffers; a build that casts
        # key-width arrays to int64 beside them (4.03 MB at 40,400 nodes),
        # or the uint32 draw to uint64 keys before taking the ends (10.75 MB
        # at 65,537 nodes), fails this
        for n, key_bytes in [(40_400, 4), (MAX_KEY32_NODE_COUNT + 1, 8)]:
            src, dst = cohort_scale_draw(n)
            tracemalloc.start()
            try:
                graph = Graph(n, src, dst)
                retained, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert graph.edge_count == src.size
            assert peak - retained < 2 * src.size * key_bytes + 250_000, n

    @pytest.mark.parametrize("n", [40_400, MAX_KEY32_NODE_COUNT + 1])
    def test_adjacency_unpacked_in_place_at_both_key_widths(self, n):
        # uint32 adjacency keys fill the last half of the neighbor slice's
        # bytes, uint64 keys all of it; either way they are unpacked over
        # their own memory
        src, dst = cohort_scale_draw(n)
        graph = Graph(n, src, dst)
        got = (graph.src, graph.dst, graph.degrees, graph._indptr, graph._indices)
        for actual, expected in zip(got, lexsort_reference(n, src, dst)):
            assert np.array_equal(actual, expected)


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
    @pytest.mark.parametrize("counts", [(-1, 0, 0), (0, -1, 0), (0, 0, -1)])
    def test_refuses_a_negative_count(self, counts):
        with pytest.raises(ValueError, match=r"^mixing counts must be nonnegative$"):
            MixingCounts(*counts)

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
            read_edge_list(path, node_count=2)

    def test_attributes_round_trip(self, tmp_path):
        path = tmp_path / "attributes.csv"
        write_attributes(path, ("alpha", "beta"), np.array([[1, 0], [0, 0], [1, 1]]))
        assert path.read_text().splitlines() == ["node,alpha,beta", "0,1,0", "1,0,0", "2,1,1"]
        names, z = read_attributes(path)
        assert names == ("alpha", "beta")
        assert z[:, 0].tolist() == [1, 0, 1]
        assert z[:, 1].tolist() == [0, 0, 1]

    def test_attribute_vector_validation(self, tmp_path):
        with pytest.raises(ValueError, match="0 or 1"):
            write_attributes(tmp_path / "attributes.csv", ("bad",), [0, 2, 1])

    def test_attribute_vector_checks_before_narrowing(self, tmp_path):
        # int8 would wrap 256 to 0 and 257 to 1
        path = tmp_path / "attributes.csv"
        with pytest.raises(ValueError, match="outside"):
            write_attributes(path, ("z",), np.array([256, 257, 1]))
        with pytest.raises(ValueError, match="outside"):
            write_attributes(path, ("z",), np.array([0.5, 1.0]))
        assert not path.exists()
        write_attributes(path, ("z",), np.array([1, 0], dtype=np.int64))
        assert read_attributes(path)[1].dtype == np.int8

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
