import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from scipy.stats import chisquare

from rdsim import (
    Graph,
    RecruitmentForest,
    SamplerConfig,
    read_forest,
    run_rds,
    write_forest,
)
from rdsim import sampler
from rdsim.sampler import _select_seeds
from rdsim.graph import MAX_NODE_COUNT
from conftest import complete_graph, path_graph, random_graph, star_graph


@pytest.fixture
def fix_seeds(monkeypatch):
    """``fix_seeds(nodes)`` makes ``run_rds`` start from ``nodes`` and draw nothing for them;
    ``fix_seeds(None)`` gives it back :func:`_select_seeds`."""

    def fix(nodes):
        def fixed(graph, config, rng):
            assert len(nodes) == config.num_seeds
            return np.asarray(nodes, dtype=np.int64)

        monkeypatch.setattr(sampler, "_select_seeds", _select_seeds if nodes is None else fixed)

    return fix


def forest_invariants(forest: RecruitmentForest, graph: Graph, config: SamplerConfig):
    """Assert every structural invariant of a recruitment forest."""
    nodes = forest.nodes
    assert np.unique(nodes).size == nodes.size, "a node was sampled twice"
    assert forest.size <= config.target_sample_size

    edge_set = set(zip(graph.src.tolist(), graph.dst.tolist()))
    wave_of = dict(zip(nodes.tolist(), forest.waves.tolist()))
    seed_of = dict(zip(nodes.tolist(), forest.seed_ids.tolist()))
    recruits_per_node: dict[int, int] = {}
    for i in range(forest.size):
        node = int(forest.nodes[i])
        recruiter = int(forest.recruiters[i])
        wave = int(forest.waves[i])
        assert forest.degrees[i] == graph.degrees[node]
        if recruiter < 0:
            assert wave == 0
            assert forest.coupon_indices[i] == -1
        else:
            pair = (min(recruiter, node), max(recruiter, node))
            assert pair in edge_set, "recruitment crossed a non-edge"
            assert wave == wave_of[recruiter] + 1
            assert seed_of[node] == seed_of[recruiter]
            assert 0 <= forest.coupon_indices[i] < config.coupons_per_node
            recruits_per_node[recruiter] = recruits_per_node.get(recruiter, 0) + 1
    assert all(count <= config.coupons_per_node for count in recruits_per_node.values())


class TestSelectSeeds:
    def test_all_nodes_any_mode(self):
        graph = star_graph(4)
        for mode in ("uniform", "degree"):
            config = SamplerConfig(5, 2, 5, seed_selection=mode)
            seeds = _select_seeds(graph, config, np.random.default_rng(0))
            assert sorted(seeds.tolist()) == [0, 1, 2, 3, 4]

    def test_uniform_frequencies(self):
        graph = path_graph(10)
        config = SamplerConfig(1, 2, 5)
        rng = np.random.default_rng(42)
        hits = np.zeros(10)
        draws = 100_000
        for _ in range(draws):
            hits[_select_seeds(graph, config, rng)[0]] += 1
        assert np.all(np.abs(hits / draws - 0.1) <= 0.01)

    def test_degree_proportional_star(self):
        graph = star_graph(4)  # center degree 4, leaves degree 1
        config = SamplerConfig(1, 2, 5, seed_selection="degree")
        rng = np.random.default_rng(43)
        center = 0
        draws = 100_000
        for _ in range(draws):
            center += _select_seeds(graph, config, rng)[0] == 0
        assert center / draws == pytest.approx(0.5, abs=0.01)

    def test_too_many_seeds(self):
        with pytest.raises(ValueError, match="^target_sample_size 4 exceeds the population size 3$"):
            run_rds(path_graph(3), np.zeros(3), SamplerConfig(4, 1, 4), np.random.default_rng(0))


class TestRunRds:
    def test_star_center_seed(self, fix_seeds):
        graph = star_graph(4)
        z = np.zeros(5, dtype=np.int8)
        config = SamplerConfig(1, 2, 3)
        fix_seeds([0])
        forest = run_rds(graph, z, config, np.random.default_rng(1))
        assert forest.size == 3
        assert forest.max_wave == 1
        recruiters, recruits = forest.recruitment_edges()
        assert recruiters.tolist() == [0, 0]
        assert set(recruits.tolist()) <= {1, 2, 3, 4}

    def test_forced_chain_on_path(self, fix_seeds):
        graph = path_graph(8)
        z = np.zeros(8, dtype=np.int8)
        config = SamplerConfig(1, 2, 8)
        fix_seeds([0])
        forest = run_rds(graph, z, config, np.random.default_rng(2))
        assert forest.nodes.tolist() == list(range(8))
        assert forest.waves.tolist() == list(range(8))
        assert forest.max_wave == 7

    def test_capacity_bound_on_waves(self, fix_seeds):
        # one seed and two coupons cannot reach 8 nodes in fewer than 3 waves
        graph = complete_graph(8)
        z = np.zeros(8, dtype=np.int8)
        config = SamplerConfig(1, 2, 8)
        fix_seeds([0])
        forest = run_rds(graph, z, config, np.random.default_rng(3))
        assert forest.size == 8
        assert forest.max_wave >= 3

    def test_invariants_random(self):
        rng = np.random.default_rng(7)
        for trial in range(40):
            n = int(rng.integers(6, 30))
            graph, edges, z = random_graph(n, float(rng.uniform(0.1, 0.6)), rng)
            config = SamplerConfig(
                num_seeds=int(rng.integers(1, 4)),
                coupons_per_node=int(rng.integers(1, 4)),
                target_sample_size=int(rng.integers(4, n + 1)),
                reseed_on_death=bool(rng.integers(0, 2)),
            )
            if config.target_sample_size < config.num_seeds:
                continue
            forest = run_rds(graph, z, config, rng)
            forest_invariants(forest, graph, config)
            if config.reseed_on_death:
                assert forest.size == config.target_sample_size
                assert not forest.truncated
            else:
                assert forest.truncated == (forest.size < config.target_sample_size)

    def test_unbounded_coupons_is_breadth_first(self, fix_seeds):
        rng = np.random.default_rng(11)
        graph = complete_graph(3)  # placeholder replaced below
        # build a connected random graph
        while True:
            graph, edges, _ = random_graph(14, 0.25, rng)
            # connectivity check by BFS from 0
            seen = {0}
            frontier = [0]
            while frontier:
                nxt = []
                for v in frontier:
                    for u in graph.neighbors(v).tolist():
                        if u not in seen:
                            seen.add(u)
                            nxt.append(u)
                frontier = nxt
            if len(seen) == 14:
                break
        z = np.zeros(14, dtype=np.int8)
        config = SamplerConfig(1, 14, 10)
        fix_seeds([0])
        forest = run_rds(graph, z, config, np.random.default_rng(5))
        # independent BFS distances from node 0
        dist = {0: 0}
        frontier = [0]
        while frontier:
            nxt = []
            for v in frontier:
                for u in graph.neighbors(v).tolist():
                    if u not in dist:
                        dist[u] = dist[v] + 1
                        nxt.append(u)
            frontier = nxt
        for node, wave in zip(forest.nodes.tolist(), forest.waves.tolist()):
            assert wave == dist[node]
        # prefix property: every node strictly closer than the deepest sampled wave is sampled
        max_wave = forest.max_wave
        sampled = set(forest.nodes.tolist())
        for node, d in dist.items():
            if d < max_wave:
                assert node in sampled

    def test_determinism(self):
        rng_graph = np.random.default_rng(13)
        graph, _, z = random_graph(25, 0.3, rng_graph)
        config = SamplerConfig(2, 2, 15)
        a = run_rds(graph, z, config, np.random.default_rng(99))
        b = run_rds(graph, z, config, np.random.default_rng(99))
        assert a.nodes.tolist() == b.nodes.tolist()
        assert a.recruiters.tolist() == b.recruiters.tolist()
        assert a.waves.tolist() == b.waves.tolist()
        assert a.coupon_indices.tolist() == b.coupon_indices.tolist()

    def test_reseeding_crosses_components(self, fix_seeds):
        # two disjoint triangles: a single seed can reach at most 3 nodes
        edges = [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)]
        graph = Graph(6, [e[0] for e in edges], [e[1] for e in edges])
        z = np.zeros(6, dtype=np.int8)
        config = SamplerConfig(1, 2, 6, reseed_on_death=True)
        fix_seeds([0])
        forest = run_rds(graph, z, config, np.random.default_rng(21))
        assert forest.size == 6
        assert forest.reseed_count >= 1
        reseed_rows = np.flatnonzero(forest.recruiters < 0)
        assert np.all(forest.waves[reseed_rows] == 0)
        assert np.unique(forest.seed_ids[reseed_rows]).size == reseed_rows.size

    def test_truncation_without_reseeding(self, fix_seeds):
        edges = [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)]
        graph = Graph(6, [e[0] for e in edges], [e[1] for e in edges])
        z = np.zeros(6, dtype=np.int8)
        config = SamplerConfig(1, 2, 6, reseed_on_death=False)
        fix_seeds([0])
        forest = run_rds(graph, z, config, np.random.default_rng(22))
        assert forest.truncated
        assert forest.size == 3

    def test_sample_size_validation(self):
        graph = path_graph(4)
        config = SamplerConfig(1, 2, 5)
        with pytest.raises(ValueError, match="exceeds"):
            run_rds(graph, np.zeros(4, dtype=np.int8), config, np.random.default_rng(0))

    def test_multi_attribute_columns(self):
        graph = complete_graph(6)
        z = np.array([[1, 0], [0, 1], [1, 1], [0, 0], [1, 0], [0, 1]], dtype=np.int8)
        config = SamplerConfig(1, 3, 6)
        forest = run_rds(graph, z, config, np.random.default_rng(31), ("first", "second"))
        assert forest.attribute_names == ("first", "second")
        for i, node in enumerate(forest.nodes.tolist()):
            assert forest.attributes[i].tolist() == z[node].tolist()


@st.composite
def component_graphs(draw):
    """(graph, attribute matrix): a few components, isolated nodes among them, labels shuffled."""
    sizes = draw(st.lists(st.integers(1, 6), min_size=1, max_size=5))
    n = sum(sizes)
    label = draw(st.permutations(range(n)))
    src, dst = [], []
    start = 0
    for size in sizes:
        pairs = [(i, j) for i in range(start, start + size) for j in range(i + 1, start + size)]
        for i, j in draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []:
            src.append(label[i])
            dst.append(label[j])
        start += size
    m = draw(st.integers(1, 2))
    cells = draw(st.lists(st.integers(0, 1), min_size=n * m, max_size=n * m))
    return Graph(n, np.array(src, dtype=np.int64), np.array(dst, dtype=np.int64)), np.reshape(cells, (n, m))


@settings(max_examples=150, deadline=None)
@given(data=st.data(), case=component_graphs(), reseed=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_run_rds_forests_hold_their_invariants(data, case, reseed, seed):
    graph, z = case
    n = graph.node_count
    num_seeds = data.draw(st.integers(1, min(n, 3)))
    config = SamplerConfig(
        num_seeds=num_seeds,
        coupons_per_node=data.draw(st.integers(1, 3)),
        target_sample_size=data.draw(st.integers(num_seeds, n)),
        seed_selection=data.draw(st.sampled_from(("uniform", "degree"))),
        reseed_on_death=reseed,
    )
    forest = run_rds(graph, z, config, np.random.default_rng(seed))
    edges = set(zip(graph.src.tolist(), graph.dst.tolist()))
    recruiters, recruits = forest.recruitment_edges()
    for a, b in zip(recruiters.tolist(), recruits.tolist()):
        assert (min(a, b), max(a, b)) in edges
    assert forest.degrees.tolist() == graph.degrees[forest.nodes].tolist()
    assert np.array_equal(forest.attributes, z[forest.nodes])
    entries = forest.recruiter_entries
    assert forest.nodes[entries].tolist() == recruiters.tolist()
    assert np.all(np.diff(entries) >= 0), "recruiters must serve in admission order"
    assert np.all(forest.coupon_indices[forest.recruiters >= 0] < config.coupons_per_node)
    recruit_rows = np.flatnonzero(forest.recruiters >= 0)
    for entry in np.unique(entries).tolist():
        rows = recruit_rows[entries == entry]
        assert rows.tolist() == list(range(rows[0], rows[0] + rows.size)), "recruits must be contiguous"
        assert forest.coupon_indices[rows].tolist() == list(range(rows.size))
    assert forest.truncated == (forest.size < config.target_sample_size)
    assert not (forest.truncated and reseed)


def recruitment_frequencies(graph, config, outcome, runs, seed):
    """Counts of ``outcome(forest)`` over ``runs`` recruitment runs from one stream."""
    z = np.zeros(graph.node_count, dtype=np.int8)
    rng = np.random.default_rng(seed)
    counts = {}
    for _ in range(runs):
        key = outcome(run_rds(graph, z, config, rng))
        counts[key] = counts.get(key, 0) + 1
    return counts


def assert_uniform(counts, outcomes):
    assert set(counts) == set(outcomes)
    assert chisquare([counts[key] for key in outcomes]).pvalue > 1e-3


def picks_in_coupon_order(forest):
    recruits = forest.recruiters >= 0
    assert forest.coupon_indices[recruits].tolist() == list(range(int(recruits.sum())))
    return tuple(forest.nodes[recruits].tolist())


def test_picks_are_uniform_ordered_draws_without_replacement(fix_seeds):
    # the centre of a 5-leaf star recruits 3: 5 * 4 * 3 = 60 equally likely ordered picks
    leaves = range(1, 6)
    outcomes = [(a, b, c) for a in leaves for b in leaves for c in leaves if len({a, b, c}) == 3]
    config = SamplerConfig(1, 3, 4)
    fix_seeds([0])
    counts = recruitment_frequencies(star_graph(5), config, picks_in_coupon_order, 24_000, 5)
    assert_uniform(counts, outcomes)


def test_all_open_neighbours_come_in_uniform_order(fix_seeds):
    # the centre has 4 neighbours and 4 coupons, but seed 1 is sampled: all 3! orders of 2, 3, 4
    graph = Graph(5, [0, 0, 0, 0], [1, 2, 3, 4])
    outcomes = [(2, 3, 4), (2, 4, 3), (3, 2, 4), (3, 4, 2), (4, 2, 3), (4, 3, 2)]
    config = SamplerConfig(2, 4, 5)
    fix_seeds([0, 1])
    counts = recruitment_frequencies(graph, config, picks_in_coupon_order, 6_000, 7)
    assert_uniform(counts, outcomes)


def test_reseeds_are_uniform_over_the_unsampled(fix_seeds):
    # the chain 0 -> 1 dies, so the third entry is a reseed among nodes 2..7
    graph = Graph(8, [0, 2, 4], [1, 3, 5])

    def reseed(forest):
        assert forest.reseed_count == 1 and forest.recruiters[2] == -1
        return int(forest.nodes[2])

    fix_seeds([0])
    counts = recruitment_frequencies(graph, SamplerConfig(1, 2, 3), reseed, 6_000, 9)
    assert_uniform(counts, list(range(2, 8)))


TWO_TRIANGLES = Graph(6, [0, 0, 1, 3, 3, 4], [1, 2, 2, 4, 5, 5])


@pytest.mark.parametrize(
    "config",
    [
        SamplerConfig(1, 2, 6),  # reseeds once the first triangle is spent
        SamplerConfig(1, 2, 6, seed_selection="degree"),
        SamplerConfig(1, 2, 6, reseed_on_death=False),  # truncated at 3
    ],
    ids=["reseeding", "degree-seeds", "truncated"],
)
def test_run_draws_one_block_after_seed_selection(config):
    rng, twin = np.random.default_rng(123), np.random.default_rng(123)
    forest = run_rds(TWO_TRIANGLES, np.zeros(6, dtype=np.int8), config, rng)
    assert forest.truncated == (not config.reseed_on_death)
    _select_seeds(TWO_TRIANGLES, config, twin)
    twin.random(config.target_sample_size - config.num_seeds)
    assert rng.bit_generator.state == twin.bit_generator.state


FOREST_ARRAYS = ("nodes", "recruiters", "waves", "seed_ids", "coupon_indices", "degrees", "attributes")


def assert_same_forest(a: RecruitmentForest, b: RecruitmentForest):
    for name in FOREST_ARRAYS + ("recruiter_entries",):
        assert np.array_equal(getattr(a, name), getattr(b, name)), name
    assert a.attribute_names == b.attribute_names
    assert (a.reseed_count, a.truncated) == (b.reseed_count, b.truncated)


@settings(max_examples=200, deadline=None)
@given(data=st.data(), case=component_graphs(), reseed=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_a_shorter_run_is_a_prefix_of_a_longer_one(data, case, reseed, seed):
    graph, z = case
    n = graph.node_count
    num_seeds = data.draw(st.integers(1, min(n, 3)))
    longer = data.draw(st.integers(num_seeds, n))
    shorter = data.draw(st.integers(num_seeds, longer))
    coupons = data.draw(st.integers(1, 3))
    selection = data.draw(st.sampled_from(("uniform", "degree")))

    def run(target):
        config = SamplerConfig(num_seeds, coupons, target, selection, reseed)
        return run_rds(graph, z, config, np.random.default_rng(seed))

    assert_same_forest(run(longer).prefix(shorter), run(shorter))


@pytest.mark.parametrize("selection", ["uniform", "degree"])
def test_every_prefix_of_a_reseeding_run_is_the_shorter_run(selection):
    # six disjoint edges and three isolated nodes: a run to 15 reseeds at least 8 times
    graph = Graph(15, [0, 2, 4, 6, 8, 10], [1, 3, 5, 7, 9, 11])
    z = np.arange(15) % 2
    for seed in range(5):
        run = run_rds(graph, z, SamplerConfig(1, 1, 15, selection), np.random.default_rng(seed))
        assert run.reseed_count >= 8
        for size in range(1, 16):
            alone = run_rds(graph, z, SamplerConfig(1, 1, size, selection), np.random.default_rng(seed))
            assert_same_forest(run.prefix(size), alone)


def run_rds_by_list(graph, z, config, rng, attribute_names, seeds=None) -> RecruitmentForest:
    """The list-swapping loop that the position-only shuffle of ``run_rds`` replaced; ``z`` is (n, m)."""
    n_target = config.target_sample_size
    if seeds is None:
        seeds = _select_seeds(graph, config, rng)
    sampled = np.zeros(graph.node_count, dtype=bool)
    sampled[seeds] = True
    nodes = np.asarray(seeds, dtype=np.int64).tolist()
    recruiters = [-1] * len(nodes)
    waves = [0] * len(nodes)
    seed_ids = list(range(len(nodes)))
    coupon_indices = [-1] * len(nodes)
    head = 0
    reseed_count = 0
    truncated = False
    coupons = config.coupons_per_node
    num_seeds = config.num_seeds
    uniforms = rng.random(n_target - num_seeds).tolist()

    while len(nodes) < n_target:
        if head == len(nodes):
            if not config.reseed_on_death:
                truncated = True
                break
            unsampled = np.flatnonzero(~sampled)
            fresh = int(unsampled[int(uniforms[len(nodes) - num_seeds] * unsampled.size)])
            sampled[fresh] = True
            nodes.append(fresh)
            recruiters.append(-1)
            waves.append(0)
            seed_ids.append(num_seeds + reseed_count)
            coupon_indices.append(-1)
            reseed_count += 1
            continue
        recruiter, wave, seed_id = nodes[head], waves[head] + 1, seed_ids[head]
        head += 1
        neighbors = graph.neighbors(recruiter)
        open_list = neighbors[~sampled[neighbors]].tolist()
        size = len(open_list)
        budget = min(coupons, size, n_target - len(nodes))
        if budget <= 0:
            continue
        first = len(nodes) - num_seeds
        for t in range(budget):
            j = t + int(uniforms[first + t] * (size - t))
            open_list[t], open_list[j] = open_list[j], open_list[t]
            sampled[open_list[t]] = True
        nodes.extend(open_list[:budget])
        recruiters.extend([recruiter] * budget)
        waves.extend([wave] * budget)
        seed_ids.extend([seed_id] * budget)
        coupon_indices.extend(range(budget))

    node_arr = np.asarray(nodes, dtype=np.int64)
    return RecruitmentForest(
        nodes=node_arr,
        recruiters=recruiters,
        waves=waves,
        seed_ids=seed_ids,
        coupon_indices=coupon_indices,
        degrees=graph.degrees[node_arr],
        attributes=z[node_arr],
        attribute_names=attribute_names,
        truncated=truncated,
        reseed_count=reseed_count,
    )


@st.composite
def sparse_to_dense_graphs(draw):
    """(graph, attribute matrix): iid edges at a mean degree from 0 up to about n / 2, isolated nodes allowed."""
    n = draw(st.integers(1, 60))
    edge_prob = draw(st.floats(0.0, 0.5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    src, dst = np.triu_indices(n, 1)
    keep = rng.random(src.size) < edge_prob
    isolated = rng.random(n) < draw(st.floats(0.0, 0.3))
    keep &= ~isolated[src] & ~isolated[dst]
    z = rng.integers(0, 2, size=(n, draw(st.integers(1, 3))))
    return Graph(n, src[keep], dst[keep]), z


# fix_seeds sets or undoes its patch in every example, so no state crosses from one to the next
@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data(), case=sparse_to_dense_graphs(), reseed=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_run_rds_matches_the_list_swapping_loop(fix_seeds, data, case, reseed, seed):
    graph, z = case
    n = graph.node_count
    num_seeds = data.draw(st.integers(1, min(n, 5)))
    selection = data.draw(st.sampled_from(("uniform", "degree", "explicit")))
    config = SamplerConfig(
        num_seeds=num_seeds,
        coupons_per_node=data.draw(st.integers(1, 6)),
        target_sample_size=data.draw(st.integers(num_seeds, n)),
        seed_selection="uniform" if selection == "explicit" else selection,
        reseed_on_death=reseed,
    )
    seeds = data.draw(st.permutations(range(n)))[:num_seeds] if selection == "explicit" else None
    fix_seeds(seeds)
    names = tuple(f"z{k}" for k in range(z.shape[1]))
    rng, twin = np.random.default_rng(seed), np.random.default_rng(seed)
    forest = run_rds(graph, z, config, rng, names)
    assert_same_forest(forest, run_rds_by_list(graph, z, config, twin, names, seeds=seeds))
    assert rng.bit_generator.state == twin.bit_generator.state


def iid_graph(n: int, pairs: int, seed: int) -> Graph:
    """``n`` nodes joined by ``pairs`` uniform node pairs, less self-loops and repeats."""
    a, b = np.random.default_rng(seed).integers(0, n, size=(2, pairs))
    lo, hi = np.minimum(a, b), np.maximum(a, b)
    key = np.unique(lo[lo < hi] * n + hi[lo < hi])
    return Graph(n, key // n, key % n)


def mostly_isolated_graph() -> Graph:
    """2,000 nodes: about 150 edges among 300 of them, and 1,700 isolated nodes."""
    small = iid_graph(300, 150, 3)
    label = np.random.default_rng(3).permutation(2000)[:300]
    return Graph(2000, label[small.src], label[small.dst])


# shapes the hypothesis strategies never reach, as they draw graphs of 1 to 60 nodes:
# (graph, config, what the run must show to have reached the shape)
HAND_SHAPES = {
    "3000-node-path": (lambda: path_graph(3000), SamplerConfig(1, 1, 3000), lambda f: f.max_wave >= 1000),
    "isolated-reseeding": (mostly_isolated_graph, SamplerConfig(3, 3, 600), lambda f: f.reseed_count >= 100),
    "isolated-truncated": (
        mostly_isolated_graph,
        SamplerConfig(3, 3, 600, reseed_on_death=False),
        lambda f: f.truncated,
    ),
    "seeds-only": (lambda: iid_graph(200, 2000, 4), SamplerConfig(5, 2, 5), lambda f: f.size == 5),
    "table2": (
        lambda: iid_graph(1000, 50_000, 5),
        SamplerConfig(5, 2, 800),
        lambda f: f.size == 800 and np.count_nonzero(f.coupon_indices == 1) >= 300,
    ),
    "engage": (
        lambda: iid_graph(40_400, 336_000, 5),
        SamplerConfig(27, 6, 1179),
        lambda f: f.size == 1179 and f.max_wave >= 3,
    ),
}


@pytest.mark.parametrize("shape", HAND_SHAPES)
def test_run_rds_matches_the_list_swapping_loop_at_hand_shapes(shape):
    build, config, reached = HAND_SHAPES[shape]
    graph = build()
    z = np.random.default_rng(6).integers(0, 2, size=(graph.node_count, 2))
    rng, twin = np.random.default_rng(7), np.random.default_rng(7)
    forest = run_rds(graph, z, config, rng, ("z0", "z1"))
    assert reached(forest)
    assert_same_forest(forest, run_rds_by_list(graph, z, config, twin, ("z0", "z1")))
    assert rng.bit_generator.state == twin.bit_generator.state


def triangles_run(config, seed) -> RecruitmentForest:
    rng = np.random.default_rng(seed)
    return run_rds(TWO_TRIANGLES, np.zeros(6, dtype=np.int8), config, rng)


def test_prefix_at_or_past_the_end_is_the_run():
    forest = triangles_run(SamplerConfig(1, 2, 5), 4)
    assert forest.size == 5 and not forest.truncated
    assert forest.prefix(5) is forest
    assert forest.prefix(6) is forest


def test_prefix_of_a_truncated_run(fix_seeds):
    fix_seeds([0])
    forest = triangles_run(SamplerConfig(1, 2, 6, reseed_on_death=False), 4)
    assert forest.truncated and forest.size == 3
    # only a cut past the end of a truncated run stops short of its target
    assert forest.prefix(4) is forest
    cut = forest.prefix(3)
    assert not cut.truncated
    assert cut.nodes.tolist() == forest.nodes.tolist()


def test_prefix_of_the_seeds_alone(fix_seeds):
    fix_seeds([0, 1])
    forest = triangles_run(SamplerConfig(2, 2, 6), 5)
    assert forest.reseed_count == 1
    seeds = forest.prefix(2)
    assert seeds.nodes.tolist() == [0, 1]
    assert seeds.recruiters.tolist() == [-1, -1]
    assert seeds.recruiter_entries.size == 0
    assert (seeds.reseed_count, seeds.truncated) == (0, False)


def test_prefix_of_a_read_back_forest_with_reseeds(tmp_path, fix_seeds):
    fix_seeds([0, 1])
    forest = triangles_run(SamplerConfig(2, 2, 6), 5)
    assert forest.reseed_count == 1
    path = tmp_path / "forest.csv"
    write_forest(forest, path)
    back = read_forest(path)
    # the file holds the reseed entry, but not the count
    assert back.reseed_count == 0
    assert np.count_nonzero(back.recruiters < 0) == 3
    cut = back.prefix(2)
    assert cut.nodes.tolist() == [0, 1]
    assert cut.reseed_count == 0


def test_prefix_of_any_size_past_the_end_is_the_run():
    forest = triangles_run(SamplerConfig(1, 2, 5), 6)
    assert forest.prefix(2**80) is forest
    with pytest.raises(ValueError, match=r"^size must be an integer >= 1, got 2\.5$"):
        forest.prefix(2.5)


@pytest.mark.parametrize("size", [0, -1])
def test_prefix_needs_one_entry(size):
    forest = triangles_run(SamplerConfig(1, 2, 4), 6)
    with pytest.raises(ValueError, match=f"^size must be an integer >= 1, got {size}$"):
        forest.prefix(size)


def test_largest_uniform_scales_to_an_index_in_range():
    top = np.nextafter(1.0, 0.0)  # the largest value ``Generator.random`` returns
    sizes = {MAX_NODE_COUNT}
    for power in range(53):
        sizes.update({2**power - 1, 2**power, 2**power + 1})
    for k in sorted(sizes - {0}):
        assert int(top * k) < k, k


def test_size_errors_name_both_numbers():
    graph = path_graph(4)
    with pytest.raises(ValueError, match="target_sample_size 5 exceeds the population size 4"):
        run_rds(graph, np.zeros(4, dtype=np.int8), SamplerConfig(1, 2, 5), np.random.default_rng(0))
    with pytest.raises(ValueError, match="attribute matrix length 3 must equal the node count 4"):
        run_rds(graph, np.zeros(3, dtype=np.int8), SamplerConfig(1, 2, 3), np.random.default_rng(0))


STAR_COLUMNS = dict(  # a seed and its two recruits, without nodes and recruiters
    waves=[0, 1, 1],
    seed_ids=[0, 0, 0],
    coupon_indices=[-1, 0, 1],
    degrees=[2, 1, 1],
    attributes=[1, 0, 1],
    attribute_names=("z",),
)


def test_forest_records_recruiter_entries():
    forest = RecruitmentForest(nodes=[7, 3, 9], recruiters=[-1, 7, 7], **STAR_COLUMNS)
    assert forest.recruiter_entries.tolist() == [0, 0]
    assert not forest.recruiter_entries.flags.writeable


@pytest.mark.parametrize("recruiters", [[-1, 5, 7], [-1, 7, 9], [-1, 9, 7]])
def test_constructed_forest_needs_earlier_recruiters(recruiters):
    # 5 is absent; 9 is a later entry
    with pytest.raises(ValueError, match="is not an earlier entry"):
        RecruitmentForest(nodes=[7, 3, 9], recruiters=recruiters, **STAR_COLUMNS)


@pytest.mark.parametrize("count", [-4, -1])
def test_forest_rejects_a_negative_reseed_count(count):
    with pytest.raises(ValueError, match=f"reseed_count must be an integer >= 0, got {count}"):
        RecruitmentForest(nodes=[7, 3, 9], recruiters=[-1, 7, 7], **STAR_COLUMNS, reseed_count=count)


def test_forest_rejects_a_reseed_count_of_every_seed_entry():
    columns = dict(STAR_COLUMNS, waves=[0, 1, 0], seed_ids=[0, 0, 1], coupon_indices=[-1, 0, -1])
    # two seed entries: the first is no reseed, so one reseed at most
    assert RecruitmentForest(nodes=[7, 3, 9], recruiters=[-1, 7, -1], **columns, reseed_count=1).reseed_count == 1
    with pytest.raises(ValueError, match="reseed_count must be in 0..1 for 2 seed entries, not 2"):
        RecruitmentForest(nodes=[7, 3, 9], recruiters=[-1, 7, -1], **columns, reseed_count=2)


def test_forest_columns_must_have_equal_length():
    with pytest.raises(ValueError, match=r"^forest columns must have equal length$"):
        RecruitmentForest(nodes=[7, 3, 9], recruiters=[-1, 7], **STAR_COLUMNS)


def test_integer_columns_reject_floats():
    with pytest.raises(ValueError, match="nodes must be integers"):
        RecruitmentForest(nodes=[0.7, 1, 2], recruiters=[-1, 0, 0], **STAR_COLUMNS)
    with pytest.raises(ValueError, match="waves must be integers"):
        RecruitmentForest(nodes=[0, 1, 2], recruiters=[-1, 0, 0], **{**STAR_COLUMNS, "waves": [0, 1.0, 1]})


def test_forest_checks_attributes_before_narrowing():
    # int8 would wrap 2 to 2 and 513 to 1; neither is a binary attribute
    columns = dict(
        nodes=[0, 1],
        recruiters=[-1, 0],
        waves=[0, 1],
        seed_ids=[0, 0],
        coupon_indices=[-1, 0],
        degrees=[1, 1],
        attribute_names=("z",),
    )
    with pytest.raises(ValueError, match="0 or 1"):
        RecruitmentForest(attributes=np.array([2, 513]), **columns)
    with pytest.raises(ValueError, match="0 or 1"):
        RecruitmentForest(attributes=np.array([256, 1]), **columns)
    assert RecruitmentForest(attributes=np.array([1, 0]), **columns).attributes.tolist() == [[1], [0]]


class TestForestFile:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(17)
        graph, _, z = random_graph(20, 0.3, rng)
        config = SamplerConfig(2, 2, 12)
        forest = run_rds(graph, z, config, rng)
        path = tmp_path / "forest.csv"
        write_forest(forest, path)
        header = path.read_text().splitlines()[0]
        assert header == "node,recruiter,wave,seed_id,coupon_index,degree,z"
        back = read_forest(path)
        for field in ("nodes", "recruiters", "waves", "seed_ids", "coupon_indices", "degrees"):
            assert getattr(back, field).tolist() == getattr(forest, field).tolist()
        assert np.array_equal(back.attributes, forest.attributes)

    def test_seed_cells_empty(self, tmp_path, fix_seeds):
        graph = star_graph(3)
        config = SamplerConfig(1, 2, 3)
        fix_seeds([0])
        forest = run_rds(graph, np.zeros(4, dtype=np.int8), config, np.random.default_rng(3))
        path = tmp_path / "forest.csv"
        write_forest(forest, path)
        seed_line = path.read_text().splitlines()[1]
        fields = seed_line.split(",")
        assert fields[0] == "0"
        assert fields[1] == ""  # recruiter
        assert fields[4] == ""  # coupon index

    def test_bad_header(self, tmp_path):
        path = tmp_path / "forest.csv"
        path.write_text("node,wave\n0,0\n")
        with pytest.raises(ValueError, match="header"):
            read_forest(path)
