import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rdsim import (
    Graph,
    RecruitmentForest,
    SamplerConfig,
    mixing_counts,
    newman_assortativity,
    homophily_ratio,
    read_forest,
    relative_bias,
    run_rds,
    sample_estimates,
    write_forest,
)
from rdsim import estimators
from rdsim.errors import or_none
from rdsim.estimators import _induced_counts
from rdsim.graph import MixingCounts, _activity_ratio, _classify
from rdsim.sampler import SEED_SELECTION_MODES
from conftest import complete_graph, networkx_induced_counts, random_graph


def make_forest(entries, attribute_names=("z",)):
    """Build a forest from (node, recruiter, wave, seed_id, coupon, degree, z...) tuples."""
    cols = list(zip(*entries))
    z = np.array(cols[6:], dtype=np.int8).T
    return RecruitmentForest(
        nodes=np.array(cols[0]),
        recruiters=np.array(cols[1]),
        waves=np.array(cols[2]),
        seed_ids=np.array(cols[3]),
        coupon_indices=np.array(cols[4]),
        degrees=np.array(cols[5]),
        attributes=z,
        attribute_names=attribute_names,
    )


def tree_homophily(forest, k=0):
    """Recruitment-tie (assortativity, ratio) of column k, as ``sample_estimates`` reports them."""
    est = sample_estimates(forest)
    return est.homophily[k], est.homophily_ratio[k]


class TestDifferentialActivityEstimate:
    def test_hand_example(self):
        forest = make_forest(
            [
                (0, -1, 0, 0, -1, 4, 1),
                (1, 0, 1, 0, 0, 2, 1),
                (2, 0, 1, 0, 1, 3, 0),
            ]
        )
        # group-1 degrees (4, 2) mean 3; group-0 degree (3,) mean 3
        assert sample_estimates(forest).diff_activity[0] == pytest.approx(1.0)

    def test_equal_degrees(self):
        forest = make_forest(
            [
                (0, -1, 0, 0, -1, 5, 1),
                (1, 0, 1, 0, 0, 5, 0),
                (2, 0, 1, 0, 1, 5, 1),
            ]
        )
        assert sample_estimates(forest).diff_activity[0] == 1.0

    def test_missing_group_is_undefined(self):
        forest = make_forest([(0, -1, 0, 0, -1, 3, 1), (1, 0, 1, 0, 0, 2, 1)])
        assert sample_estimates(forest).diff_activity[0] is None


class TestHomophilyEstimate:
    def test_pure_within_recruitment(self):
        forest = make_forest(
            [
                (0, -1, 0, 0, -1, 3, 1),
                (1, 0, 1, 0, 0, 3, 1),
                (2, -1, 0, 1, -1, 3, 0),
                (3, 2, 1, 1, 0, 3, 0),
            ]
        )
        h, r = tree_homophily(forest)
        assert h == 1.0
        assert r is None  # no cross edges

    def test_pure_cross_recruitment(self):
        forest = make_forest(
            [
                (0, -1, 0, 0, -1, 3, 1),
                (1, 0, 1, 0, 0, 3, 0),
                (2, 1, 2, 0, 0, 3, 1),
            ]
        )
        h, r = tree_homophily(forest)
        assert h == -1.0
        assert r == 0.0

    def test_hand_mixing_example(self):
        # recruitment edges: one within-1, one cross
        forest = make_forest(
            [
                (0, -1, 0, 0, -1, 2, 1),
                (1, 0, 1, 0, 0, 1, 1),
                (2, 0, 1, 0, 1, 1, 0),
            ]
        )
        h, r = tree_homophily(forest)
        assert h == pytest.approx(-1 / 3)
        assert r == 1.0

    def test_no_recruitment_edges(self):
        forest = make_forest([(0, -1, 0, 0, -1, 2, 1)])
        assert tree_homophily(forest) == (None, None)

    def test_huge_node_indices(self):
        # the estimate reads entries, so it needs no array sized by node index
        entries = [(0, -1, 0, 0, -1, 2, 1), (1, 0, 1, 0, 0, 1, 1), (2, 0, 1, 0, 1, 1, 0)]
        small = make_forest(entries)
        relabel = {0: 10**12, 1: 5, 2: 10**12 - 1, -1: -1}
        huge = make_forest([(relabel[a], relabel[b], *rest) for a, b, *rest in entries])
        assert tree_homophily(huge) == tree_homophily(small) == (pytest.approx(-1 / 3), 1.0)

    def test_tree_fed_back_as_graph_matches_graph_statistics(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            graph, _, z = random_graph(30, 0.25, rng)
            config = SamplerConfig(2, 2, 20)
            forest = run_rds(graph, z, config, rng)
            recruiters, recruits = forest.recruitment_edges()
            if recruiters.size == 0:
                continue
            tree = Graph(graph.node_count, recruiters, recruits)
            assert tree_homophily(forest) == homophily_of(mixing_counts(tree, z))


class TestInducedHomophily:
    def test_census_equals_population_statistic(self):
        rng = np.random.default_rng(5)
        graph, _, z = random_graph(20, 0.4, rng)
        config = SamplerConfig(2, 3, 20)
        forest = run_rds(graph, z, config, rng)
        assert forest.size == 20
        h, r = induced_homophily_of(forest, graph)
        counts = mixing_counts(graph, z)
        assert h == newman_assortativity(counts)
        assert r == homophily_ratio(counts)


def keep_mask_counts(forest, graph, k) -> MixingCounts:
    """Induced mixing counts of column k by the keep-mask route: mask the induced edges, then classify them."""
    in_sample = np.zeros(graph.node_count, dtype=bool)
    in_sample[forest.nodes] = True
    keep = in_sample[graph.src] & in_sample[graph.dst]
    z_full = np.zeros(graph.node_count, dtype=np.int64)
    z_full[forest.nodes] = forest.attributes[:, k]
    za, zb = z_full[graph.src[keep]], z_full[graph.dst[keep]]
    return _classify(za & zb, za | zb, za.size)


def homophily_of(counts):
    return or_none(newman_assortativity, counts), or_none(homophily_ratio, counts)


def induced_homophily_of(forest, graph, k=0):
    """Induced (assortativity, ratio) of column k, from the counts behind ``sample_estimates``' oracle field.

    ``SampleEstimates`` holds the assortativity only; the ratio is that of
    the same counts.
    """
    (row,) = _induced_counts(forest.nodes, forest.attributes, graph, [forest.size])
    h, r = homophily_of(row[k])
    assert sample_estimates(forest, graph).induced_homophily[k] == h
    return h, r


def seed_forest(graph, z, nodes) -> RecruitmentForest:
    """A forest of seeds only: any node set is one."""
    nodes = np.asarray(nodes, dtype=np.int64)
    return RecruitmentForest(
        nodes=nodes,
        recruiters=np.full(nodes.size, -1),
        waves=np.zeros(nodes.size, dtype=np.int64),
        seed_ids=np.arange(nodes.size),
        coupon_indices=np.full(nodes.size, -1),
        degrees=graph.degrees[nodes],
        attributes=z[nodes],
        attribute_names=tuple(f"z{j}" for j in range(z.shape[1])),
    )


@st.composite
def sampled_graphs(draw):
    """(graph, forest): a random graph with constant and mixed attribute columns, and a sample of it."""
    n = draw(st.integers(1, 24))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    graph = Graph(n, [e[0] for e in edges], [e[1] for e in edges])
    columns = []
    for _ in range(draw(st.integers(1, 16))):  # up to 16 column bits beside the size bit
        constant = draw(st.sampled_from([None, 0, 1]))
        cells = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
        columns.append(cells if constant is None else [constant] * n)
    z = np.array(columns, dtype=np.int8).T
    order = draw(st.permutations(range(n)))
    size = draw(st.one_of(st.just(n), st.integers(1, n)))
    if draw(st.booleans()):
        return graph, seed_forest(graph, z, order[:size])
    config = SamplerConfig(draw(st.integers(1, size)), draw(st.integers(1, 3)), size)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return graph, run_rds(graph, z, config, rng, tuple(f"z{j}" for j in range(z.shape[1])))


@settings(max_examples=300, deadline=None)
@given(sampled_graphs())
def test_induced_homophily_matches_keep_mask_and_networkx_subgraph(case):
    graph, forest = case
    (counts,) = _induced_counts(forest.nodes, forest.attributes, graph, [forest.size])
    expected = networkx_induced_counts(forest, graph)
    assert len(counts) == len(expected) == len(forest.attribute_names)
    together = sample_estimates(forest, graph).induced_homophily
    for k, want in enumerate(expected):
        assert keep_mask_counts(forest, graph, k) == want
        assert counts[k] == want
        assert together[k] == homophily_of(want)[0]


class TestInducedHomophilyCases:
    GRAPH = Graph(6, [0, 0, 1, 2, 3, 4], [1, 2, 2, 3, 4, 5])  # a triangle 0-1-2 and a path 2-3-4-5
    Z = np.array([[1, 0], [1, 0], [0, 0], [1, 0], [0, 0], [1, 0]], dtype=np.int8)

    def test_census(self):
        forest = seed_forest(self.GRAPH, self.Z, range(6))
        # within-1: 0-1; within-0: none; cross: 0-2, 1-2, 2-3, 3-4, 4-5
        assert induced_homophily_of(forest, self.GRAPH, 0) == homophily_of(keep_mask_counts(forest, self.GRAPH, 0))
        assert induced_homophily_of(forest, self.GRAPH, 0)[1] == 1 / 5

    def test_single_class_sample(self):
        forest = seed_forest(self.GRAPH, self.Z, [0, 1, 3])
        # one within-1 edge and nothing else: every edge end in one class
        assert induced_homophily_of(forest, self.GRAPH, 0) == (None, None)
        assert induced_homophily_of(forest, self.GRAPH, 1) == (None, None)

    def test_no_induced_edges(self):
        forest = seed_forest(self.GRAPH, self.Z, [0, 3, 5])
        assert induced_homophily_of(forest, self.GRAPH, 0) == (None, None)

    def test_edgeless_graph_past_one_block(self, monkeypatch):
        # one size bit and 64 column bits overflow one 64-bit mark, so the columns take two blocks
        real = estimators._block_counts
        blocks = []

        def block_counts(nodes, columns, graph, levels):
            blocks.append(columns.shape[1])
            return real(nodes, columns, graph, levels)

        monkeypatch.setattr(estimators, "_block_counts", block_counts)
        graph = Graph(4, [], [])
        z = np.tile(np.array([[1], [0], [1], [1]], dtype=np.int8), (1, 64))
        forest = seed_forest(graph, z, [2, 0, 1])
        assert _induced_counts(forest.nodes, forest.attributes, graph, [3]) == [[MixingCounts(0, 0, 0)] * 64]
        assert blocks == [63, 1]


class TestRds2Prevalence:
    def test_equal_degrees_reduce_to_crude(self):
        forest = make_forest(
            [
                (0, -1, 0, 0, -1, 4, 1),
                (1, 0, 1, 0, 0, 4, 0),
                (2, 0, 1, 0, 1, 4, 0),
            ]
        )
        est = sample_estimates(forest)
        assert est.rds2_prevalence[0] == pytest.approx(est.crude_prevalence[0])

    def test_hand_example(self):
        forest = make_forest([(0, -1, 0, 0, -1, 2, 1), (1, 0, 1, 0, 0, 1, 0)])
        assert sample_estimates(forest).rds2_prevalence[0] == pytest.approx(1 / 3)

    def test_single_member(self):
        forest = make_forest([(0, -1, 0, 0, -1, 7, 1)])
        assert sample_estimates(forest).rds2_prevalence[0] == 1.0

    def test_zero_degree_rejected(self):
        forest = make_forest([(0, -1, 0, 0, -1, 0, 1)])
        # an isolated seed gives a row with no RDS-II estimate, not a crash
        assert sample_estimates(forest).rds2_prevalence == (None,)

    def test_degree_scaling_invariance(self):
        base = [(i, -1 if i == 0 else 0, 0 if i == 0 else 1, 0, -1 if i == 0 else i - 1, d, v)
                for i, (d, v) in enumerate([(2, 1), (5, 0), (3, 1), (7, 0)])]
        forest = make_forest(base)
        scaled = make_forest([(n, r, w, s, c, 3 * d, v) for n, r, w, s, c, d, v in base])
        assert sample_estimates(scaled).rds2_prevalence[0] == pytest.approx(
            sample_estimates(forest).rds2_prevalence[0], rel=1e-12
        )

    def test_bounds(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            graph, _, z = random_graph(25, 0.5, rng)
            if graph.degrees.min() == 0:
                continue
            forest = run_rds(graph, z, SamplerConfig(2, 2, 15), rng)
            value = sample_estimates(forest).rds2_prevalence[0]
            assert 0.0 <= value <= 1.0


class TestLabelSwap:
    def test_swap_maps_prevalence_and_keeps_homophily(self):
        rng = np.random.default_rng(10)
        graph, _, z = random_graph(25, 0.4, rng)
        if graph.degrees.min() == 0:
            graph = complete_graph(25)
        forest = run_rds(graph, z, SamplerConfig(2, 2, 18), np.random.default_rng(3))
        swapped = RecruitmentForest(
            nodes=forest.nodes,
            recruiters=forest.recruiters,
            waves=forest.waves,
            seed_ids=forest.seed_ids,
            coupon_indices=forest.coupon_indices,
            degrees=forest.degrees,
            attributes=1 - forest.attributes,
            attribute_names=forest.attribute_names,
        )
        est, est_swap = sample_estimates(forest), sample_estimates(swapped)
        assert est_swap.rds2_prevalence[0] == pytest.approx(1.0 - est.rds2_prevalence[0], rel=1e-12)
        assert est.homophily[0] == est_swap.homophily[0]


class TestRelativeBias:
    def test_examples(self):
        assert relative_bias(1.0, 1.0) == 0.0
        assert relative_bias(1.1, 1.0) == pytest.approx(0.1)
        assert relative_bias(0.8, 1.0) == pytest.approx(-0.2)

    def test_undefined_markers(self):
        assert relative_bias(None, 1.0) is None
        assert relative_bias(1.0, None) is None
        assert relative_bias(1.0, 0.0) is None


class TestSampleEstimates:
    def test_multi_attribute_assembly(self):
        rng = np.random.default_rng(12)
        graph, _, _ = random_graph(30, 0.4, rng)
        z = rng.integers(0, 2, size=(30, 2)).astype(np.int8)
        forest = run_rds(graph, z, SamplerConfig(2, 2, 20), rng, ("a", "b"))
        est = sample_estimates(forest, graph)
        assert est.attribute_names == ("a", "b")
        assert len(est.diff_activity) == 2
        assert len(est.rds2_prevalence) == 2
        assert est.induced_homophily is not None
        without_graph = sample_estimates(forest)
        assert without_graph.induced_homophily is None
        assert est.sample_size == forest.size
        assert est.max_wave == forest.max_wave


@st.composite
def nested_cases(draw):
    """(graph, forest, sizes): a run over a sparse random graph, perhaps read back from its file, and sizes to cut it at.

    The graphs are sparse enough to hold isolated nodes, so runs reseed,
    sometimes on an isolated node, or end truncated.
    """
    n = draw(st.integers(1, 40))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=2 * n)) if pairs else []
    graph = Graph(n, [e[0] for e in edges], [e[1] for e in edges])
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    m = draw(st.integers(1, 16))
    z = rng.integers(0, 2, size=(n, m))
    target = draw(st.integers(1, n))
    config = SamplerConfig(
        draw(st.integers(1, target)),
        draw(st.integers(1, 3)),
        target,
        draw(st.sampled_from(SEED_SELECTION_MODES)),
        draw(st.booleans()),
    )
    forest = run_rds(graph, z, config, rng, tuple(f"z{j}" for j in range(m)))
    if draw(st.booleans()):
        # the file holds the reseeds, but not the reseed count or the truncation flag
        with tempfile.TemporaryDirectory() as folder:
            path = os.path.join(folder, "forest.csv")
            write_forest(forest, path)
            forest = read_forest(path)
    sizes = draw(st.lists(st.integers(1, target + 2), min_size=1, max_size=12))
    if draw(st.booleans()):
        sizes[draw(st.integers(0, len(sizes) - 1))] = forest.size
    return graph, forest, sizes


def assert_nested_equal_prefixes(forest, graph, sizes):
    """Estimates of ``forest`` at ``sizes`` equal those of each prefix, and independent oracles on it."""
    nested = sample_estimates(forest, graph, sizes)
    assert len(nested) == len(sizes)
    for size, est in zip(sizes, nested):
        cut = forest.prefix(size)
        assert est == sample_estimates(cut, graph)
        assert (est.sample_size, est.reseed_count, est.max_wave, est.truncated) == (
            cut.size, cut.reseed_count, cut.max_wave, cut.truncated
        )
        # sample_estimates shares its code across sizes, so oracles built from other code vouch for both
        tree = Graph(cut.size, cut.recruiter_entries, np.flatnonzero(cut.recruiters >= 0))
        weights = 1.0 / cut.degrees if np.all(cut.degrees > 0) else None
        for k in range(len(cut.attribute_names)):
            z = cut.attributes[:, k]
            assert (est.homophily[k], est.homophily_ratio[k]) == homophily_of(mixing_counts(tree, z))
            assert est.diff_activity[k] == or_none(_activity_ratio, z, cut.degrees)
            rds2 = None if weights is None else float(weights[z == 1].sum() / weights.sum())
            assert est.rds2_prevalence[k] == rds2
            assert est.crude_prevalence[k] == int(z.sum()) / cut.size
            if graph is not None:
                assert est.induced_homophily[k] == homophily_of(keep_mask_counts(cut, graph, k))[0]
    return nested


@settings(max_examples=300, deadline=None)
@given(nested_cases())
def test_nested_estimates_equal_estimates_of_each_prefix(case):
    graph, forest, sizes = case
    assert_nested_equal_prefixes(forest, graph, sizes)
    assert_nested_equal_prefixes(forest, None, sizes)
    whole = sample_estimates(forest, graph)
    assert (whole.sample_size, whole.reseed_count, whole.truncated) == (
        forest.size, forest.reseed_count, forest.truncated
    )


class TestNestedEstimates:
    # 0-1-2 and 4-5 are edges, node 3 is isolated
    GRAPH = Graph(6, [0, 1, 4], [1, 2, 5])
    Z = np.array([[1, 0], [0, 0], [1, 1], [0, 1], [1, 1], [0, 0]], dtype=np.int8)

    def forest(self):
        """A run that reseeds on the isolated node 3 at entry 3 and on node 4 at entry 4."""
        return RecruitmentForest(
            nodes=[0, 1, 2, 3, 4, 5],
            recruiters=[-1, 0, 1, -1, -1, 4],
            waves=[0, 1, 2, 0, 0, 1],
            seed_ids=[0, 0, 0, 1, 2, 2],
            coupon_indices=[-1, 0, 0, -1, -1, 0],
            degrees=self.GRAPH.degrees,
            attributes=self.Z,
            attribute_names=("a", "b"),
            reseed_count=2,
        )

    def test_an_isolated_reseed_past_a_cut_keeps_the_shorter_rds2(self):
        nested = assert_nested_equal_prefixes(self.forest(), self.GRAPH, [5, 3, 1, 6, 4, 2, 3])
        assert [est.rds2_prevalence[0] is None for est in nested] == [True, False, False, True, True, False, False]
        assert [est.reseed_count for est in nested] == [2, 0, 0, 2, 1, 0, 0]

    @pytest.mark.parametrize("sizes", [[0], [3, -1], [2, 0, 5, -4]])
    def test_a_size_below_one_raises_the_prefix_error(self, sizes):
        forest = self.forest()
        with pytest.raises(ValueError, match=r"^size must be an integer >= 1, got -?\d+$") as nested:
            sample_estimates(forest, self.GRAPH, sizes)
        with pytest.raises(ValueError) as cut:
            forest.prefix(next(size for size in sizes if size < 1))
        assert str(nested.value) == str(cut.value)

    def test_no_sizes_give_no_estimates(self):
        assert sample_estimates(self.forest(), self.GRAPH, []) == []

    def test_sizes_and_columns_past_one_mark(self):
        # 120 distinct sizes and 40 columns take 4 x 2 blocks of 64-bit marks
        rng = np.random.default_rng(21)
        graph, _, _ = random_graph(120, 0.08, rng)
        z = rng.integers(0, 2, size=(120, 40))
        forest = run_rds(graph, z, SamplerConfig(3, 3, 120), rng)
        nested = assert_nested_equal_prefixes(forest, graph, list(range(120, 0, -1)))
        assert all(est.induced_homophily is not None for est in nested)
