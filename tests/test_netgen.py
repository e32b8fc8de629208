import math
import re
import warnings
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.special import expit
from scipy.stats import binom, chi2, chisquare

from rdsim import (
    AttributeTargets,
    FitConvergenceError,
    Graph,
    InfeasibleTargetsError,
    NetworkTargets,
    assortativity_from_ratio,
    differential_activity,
    fit_dyad_model,
    generate_network,
    mixing_counts,
    ratio_from_assortativity,
    simulate_from_model,
    solve_dyad_classes,
)
from rdsim import netgen
from rdsim.netgen import (
    DyadModel,
    _apportion_counts,
    _binomial_counts,
    _decode_rectangular,
    _decode_triangular,
    _draw_graph,
    _PatternClasses,
    _sample_class_dyads,
)

# Sweep values from the single-attribute study grid.
GRID_P = (0.1, 0.5, 0.8)
GRID_DA = (0.5, 1.0, 4.0)
GRID_R = (1.0, 5.0)

# Cells whose moment system has no nonnegative solution (the cross-edge
# demand of the high-activity group exceeds the other group's edge ends);
# independent of mean degree.
STRUCTURALLY_INFEASIBLE = {
    (0.5, 4.0, 1.0),
    (0.8, 1.0, 1.0),
    (0.8, 4.0, 1.0),
    (0.8, 4.0, 5.0),
}
# Additionally infeasible at mean degree 99.9 (within-group-1 probability above 1).
DENSE_ONLY_INFEASIBLE = {
    (0.1, 4.0, 1.0),
    (0.1, 4.0, 5.0),
}


def solution_residuals(targets: NetworkTargets, solution) -> list[float]:
    """Independent substitution of the solved counts into the three moment equations."""
    n1, n0 = solution.n1, solution.n0
    total = targets.node_count * targets.mean_degree / 2.0
    eq1 = solution.e11 + solution.e10 + solution.e00 - total
    eq2 = solution.e11 - targets.homophily_ratio * solution.e10
    eq3 = (2 * solution.e11 + solution.e10) / n1 - targets.diff_activity * (
        2 * solution.e00 + solution.e10
    ) / n0
    scale = max(total, 1.0)
    return [abs(eq1) / scale, abs(eq2) / scale, abs(eq3) / max(targets.mean_degree, 1.0)]


def logit(q: float) -> float:
    return math.log(q / (1.0 - q))


def saturated_model(solution) -> DyadModel:
    """Single-attribute dyad model whose class log-odds are the solved probabilities."""
    theta_act = (logit(solution.q11) - logit(solution.q00)) / 2.0
    theta0 = logit(solution.q10) - theta_act
    theta_match = logit(solution.q00) - theta0
    return DyadModel(np.array([theta0, theta_match, theta_act]))


class TestSolveDyadClasses:
    def test_balanced_symmetric_cell(self):
        solution = solve_dyad_classes(NetworkTargets(1000, 0.5, 10.0, 1.0, 1.0))
        third = 5000.0 / 3.0
        assert solution.e11 == pytest.approx(third, rel=1e-12)
        assert solution.e10 == pytest.approx(third, rel=1e-12)
        assert solution.e00 == pytest.approx(third, rel=1e-12)
        assert solution.q11 == pytest.approx(third / 124750.0, rel=1e-12)  # C(500, 2) dyads
        assert solution.q00 == pytest.approx(solution.q11, rel=1e-12)
        assert solution.q10 == pytest.approx(third / 250000.0, rel=1e-12)
        assert round(solution.q11, 6) == 0.013360
        assert round(solution.q10, 7) == 0.0066667

    def test_zero_ratio_kills_within_group_one(self):
        solution = solve_dyad_classes(NetworkTargets(1000, 0.5, 10.0, 1.0, 0.0))
        assert solution.e11 == 0.0
        assert solution.q11 == 0.0

    def test_small_illustration_cell_feasible(self):
        solution = solve_dyad_classes(NetworkTargets(12, 0.33, 2.16, 1.16, 0.40))
        for q in (solution.q11, solution.q10, solution.q00):
            assert 0.0 <= q <= 1.0
        assert solution.n1 == 4

    @pytest.mark.parametrize("mean_degree", [20.0, 99.9])
    def test_grid_residuals_and_infeasible_cells(self, mean_degree):
        infeasible = set()
        for p in GRID_P:
            for da in GRID_DA:
                for r in GRID_R:
                    targets = NetworkTargets(1000, p, mean_degree, da, r)
                    try:
                        solution = solve_dyad_classes(targets)
                    except InfeasibleTargetsError:
                        infeasible.add((p, da, r))
                        continue
                    assert max(solution_residuals(targets, solution)) <= 1e-9
        expected = set(STRUCTURALLY_INFEASIBLE)
        if mean_degree == 99.9:
            expected |= DENSE_ONLY_INFEASIBLE
        assert infeasible == expected

    def test_infeasibility_names_the_bound(self):
        with pytest.raises(InfeasibleTargetsError, match="e00"):
            solve_dyad_classes(NetworkTargets(1000, 0.8, 20.0, 4.0, 1.0))
        with pytest.raises(InfeasibleTargetsError, match="q11"):
            solve_dyad_classes(NetworkTargets(1000, 0.1, 99.9, 4.0, 5.0))

    def test_edges_in_a_class_without_dyads_are_infeasible(self):
        # one node of ten carries the attribute, so the within-group-1 class has no dyad for its edge
        message = "infeasible targets: q11 requires 1 edges but the class has no dyads"
        with pytest.raises(InfeasibleTargetsError, match=f"^{re.escape(message)}$"):
            solve_dyad_classes(NetworkTargets(10, 0.1, 3.0, 1.0, 1.0))

    @settings(max_examples=300, deadline=None)
    @given(
        n=st.integers(10, 5000),
        p=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
        degree_share=st.floats(0.0, 1.0, exclude_min=True),
        activity=st.floats(0.2, 5.0),
        ratio=st.floats(0.0, 10.0),
    )
    def test_residuals_across_target_box(self, n, p, degree_share, activity, ratio):
        assume(1 <= round(p * n) <= n - 1)
        targets = NetworkTargets(n, p, degree_share * (n - 1), activity, ratio)
        try:
            solution = solve_dyad_classes(targets)
        except InfeasibleTargetsError:
            return
        total = n * targets.mean_degree / 2.0
        assert max(solution_residuals(targets, solution)) <= 1e-9 * max(total, 1.0)
        for q in (solution.q11, solution.q10, solution.q00):
            assert 0.0 <= q <= 1.0

    def test_targets_validation(self):
        with pytest.raises(ValueError):
            NetworkTargets(1, 0.5, 1.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            NetworkTargets(100, 0.001, 5.0, 1.0, 1.0)  # group rounds to zero
        with pytest.raises(ValueError):
            NetworkTargets(100, 0.5, 100.0, 1.0, 1.0)  # mean degree >= n-1
        with pytest.raises(ValueError):
            NetworkTargets(100, 0.5, 5.0, -1.0, 1.0)
        with pytest.raises(ValueError):
            NetworkTargets(100, 0.5, 5.0, 1.0, -0.1)

    def test_with_assortativity_round_trip(self):
        # an assortativity-scale target becomes a ratio before NetworkTargets
        ratio = ratio_from_assortativity(-0.196, 0.33, 1.16)
        targets = NetworkTargets(1000, 0.33, 10.0, 1.16, ratio)
        assert targets.homophily_ratio == pytest.approx(0.40, abs=0.01)
        assert assortativity_from_ratio(targets.homophily_ratio, 0.33, 1.16) == pytest.approx(-0.196, rel=1e-9)


def exact_dyad(t, size):
    """Dyad t of a ``size``-node group in Python integers: row i is the floor of the smaller root of start(i) = t."""
    b = 2 * size - 1
    disc = b * b - 8 * t
    root = math.isqrt(disc)
    root += root * root < disc  # ceil(sqrt(disc)), so (b - root) // 2 is the floor of the real root
    i = (b - root) // 2
    start = i * (b - i) // 2
    assert start <= t < start + size - 1 - i
    return i, i + 1 + t - start


class TestTriangularDecode:
    def test_exhaustive_small_groups(self):
        for size in (2, 3, 5, 11):
            count = size * (size - 1) // 2
            i, j = _decode_triangular(np.arange(count, dtype=np.int64), size)
            pairs = list(zip(i.tolist(), j.tolist()))
            assert pairs == [(a, b) for a in range(size) for b in range(a + 1, size)]

    def test_large_group_spot_checks(self):
        size = 40_400
        count = size * (size - 1) // 2
        rng = np.random.default_rng(12)
        t = rng.integers(0, count, size=10_000)
        t = np.concatenate([t, [0, count - 1]])
        i, j = _decode_triangular(t.astype(np.int64), size)
        assert np.all((0 <= i) & (i < j) & (j < size))
        back = i * (2 * size - i - 1) // 2 + (j - i - 1)
        assert np.array_equal(back, t)

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_row_boundaries_round_trip(self, data):
        # the float inverse is least accurate in the last rows of groups
        # above about 10**8 nodes, so draw those rows and sizes often
        size = data.draw(st.integers(2, 250_000) | st.integers(10**8, 2**30), label="size")
        row = data.draw(st.integers(0, size - 2) | st.integers(max(0, size - 50), size - 2), label="row")

        def row_offset(i):
            return i * (2 * size - i - 1) // 2

        t = np.array([row_offset(row) - 1, row_offset(row), row_offset(row + 1) - 1], dtype=np.int64)
        t = t[t >= 0]
        i, j = _decode_triangular(t, size)
        assert np.all((0 <= i) & (i < j) & (j < size))
        assert np.array_equal(row_offset(i) + (j - i - 1), t)
        assert (int(i[-2]), int(j[-2])) == (row, row + 1)
        assert (int(i[-1]), int(j[-1])) == (row, size - 1)

    def test_every_dyad_of_small_groups(self):
        for size in range(2, 65):
            count = size * (size - 1) // 2
            i, j = _decode_triangular(np.arange(count, dtype=np.int64), size)
            assert i.dtype == j.dtype == np.int64
            assert list(zip(i.tolist(), j.tolist())) == [(a, b) for a in range(size) for b in range(a + 1, size)]

    @settings(max_examples=300, deadline=None)
    @given(st.integers(2, 2**30) | st.integers(2**29, 2**30), st.data())
    def test_row_starts_match_exact_integer_decoding(self, size, data):
        # random rows plus the first and last, each at its start and one dyad either side
        rows = data.draw(st.lists(st.integers(0, size - 2), min_size=1, max_size=20), label="rows")
        starts = [row * (2 * size - row - 1) // 2 for row in rows + [0, size - 2]]
        count = size * (size - 1) // 2
        t = sorted(x for x in {s + d for s in starts for d in (-1, 0, 1)} if 0 <= x < count)
        i, j = _decode_triangular(np.array(t, dtype=np.int64), size)
        assert list(zip(i.tolist(), j.tolist())) == [exact_dyad(x, size) for x in t]


class TestRectangularDecode:
    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_matches_divmod(self, data):
        # group sizes up to 2**31 each, so the population reaches 2**62
        size_a = data.draw(st.integers(1, 2**31) | st.integers(2**31 - 2, 2**31), label="size_a")
        size_b = data.draw(st.integers(1, 2**31) | st.integers(2**31 - 2, 2**31), label="size_b")
        population = size_a * size_b
        index = st.integers(0, population - 1)
        # row boundaries: both ends of the first row, the start of the second, both ends of the last
        boundaries = (0, size_b - 1, size_b, population - size_b, population - 1)
        rows = st.sampled_from([x for x in boundaries if x < population])
        t = np.array(data.draw(st.lists(index | rows, min_size=1, max_size=50), label="t"), dtype=np.int64)
        i, j = _decode_rectangular(t, size_b)
        want_i, want_j = np.divmod(t, size_b)
        assert i.dtype == j.dtype == np.int64
        assert np.array_equal(i, want_i)
        assert np.array_equal(j, want_j)


class TestSampleClassDyads:
    @pytest.mark.parametrize("dtype", [np.uint32, np.int64])
    @pytest.mark.parametrize("within", [True, False])
    def test_returns_the_members_dtype_for_every_count(self, dtype, within):
        group_a = np.array([1, 4, 6, 9], dtype=dtype)
        group_b = None if within else np.array([0, 2, 3], dtype=dtype)
        population = 6 if within else 12
        for k in (0, 1, population - 1, population):
            src, dst = _sample_class_dyads(group_a, group_b, k, np.random.default_rng(k))
            assert src.dtype == dst.dtype == dtype
            assert src.size == dst.size == k
            pairs = {(int(u), int(v)) for u, v in zip(src, dst)}
            assert len(pairs) == k
            assert all(u in group_a and v in (group_a if within else group_b) for u, v in pairs)
            if within:
                assert np.all(src < dst)


def draw_graph_int64(classes, counts, rng):
    """The int64 draw path that uint32 members and floor-division decoding replaced."""
    src_parts = []
    dst_parts = []
    for a, b, k in zip(classes.class_a, classes.class_b, counts):
        group_a = classes.members[a].astype(np.int64)
        group_b = classes.members[b].astype(np.int64)
        size = group_a.size
        population = size * (size - 1) // 2 if a == b else size * group_b.size
        if k == 0:
            continue
        if k == population:
            chosen = np.arange(population, dtype=np.int64)
        else:
            chosen = rng.choice(population, size=k, replace=False, shuffle=False).astype(np.int64, copy=False)
        if a == b:
            i, j = _decode_triangular(chosen, size)
            src_parts.append(group_a[i])
            dst_parts.append(group_a[j])
        else:
            i, j = np.divmod(chosen, group_b.size)
            src_parts.append(group_a[i])
            dst_parts.append(group_b[j])
    src = np.concatenate(src_parts, dtype=np.int64) if src_parts else np.empty(0, dtype=np.int64)
    dst = np.concatenate(dst_parts, dtype=np.int64) if dst_parts else np.empty(0, dtype=np.int64)
    return Graph(classes.n, src, dst)


class TestDrawGraph:
    @staticmethod
    def assert_matches_int64_route(classes, counts, seed):
        rng = np.random.default_rng(seed)
        twin = np.random.default_rng(seed)
        graph = _draw_graph(classes, counts, rng)
        expected = draw_graph_int64(classes, counts, twin)
        for got, want in [
            (graph.src, expected.src),
            (graph.dst, expected.dst),
            (graph.degrees, expected.degrees),
            (graph._indptr, expected._indptr),
            (graph._indices, expected._indices),
        ]:
            assert got.dtype == want.dtype == np.int64
            assert np.array_equal(got, want)
        assert rng.bit_generator.state == twin.bit_generator.state

    def test_engage_shaped_draw_matches_int64_route(self):
        z = draw_cohort_covariates(40_400)
        model = fit_dyad_model(cohort_attribute_targets(), 16.63, z)
        classes = _PatternClasses(z)
        assert all(members.dtype == np.uint32 for members in classes.members)
        rng = np.random.default_rng(21)
        counts = list(_binomial_counts(classes, classes.probabilities(model.theta), rng))
        assert sum(counts) > 300_000
        self.assert_matches_int64_route(classes, counts, seed=7)

    def test_empty_and_complete_classes_match_int64_route(self):
        z = draw_cohort_covariates(60, seed=3)
        classes = _PatternClasses(z)
        capacities = classes.dyad_counts.astype(np.int64)
        # empty, complete and partial classes in turn
        counts = [[0, int(c), int(c) // 2][k % 3] for k, c in enumerate(capacities)]
        self.assert_matches_int64_route(classes, counts, seed=11)
        self.assert_matches_int64_route(classes, [0] * len(capacities), seed=11)

    def test_builds_through_the_module_graph_from_uint32_draws(self, monkeypatch):
        seen = []

        def recording_graph(n, src, dst):
            seen.append((src.dtype, dst.dtype))
            return Graph(n, src, dst)

        monkeypatch.setattr(netgen, "Graph", recording_graph)
        z = draw_cohort_covariates(500, seed=4)
        model = DyadModel(np.array([-3.0, 0.5, 0.1, -0.2, 0.3, 0.4, 0.2]))
        simulate_from_model(model, z, np.random.default_rng(5))
        assert seen == [(np.dtype(np.uint32), np.dtype(np.uint32))]


def unique_rows_reference(z):
    """Pattern classes from ``np.unique(z, axis=0)``: (patterns, members, class_a, class_b, dyad_counts, statistics)."""
    patterns, inverse = np.unique(z, axis=0, return_inverse=True)
    inverse = inverse.ravel()
    sizes = np.bincount(inverse, minlength=patterns.shape[0])
    order = np.argsort(inverse, kind="stable")
    bounds = np.cumsum(sizes)
    members = [order[start:stop] for start, stop in zip(np.r_[0, bounds[:-1]], bounds)]
    ai, bi = np.triu_indices(patterns.shape[0])
    counts = np.where(ai == bi, sizes[ai] * (sizes[ai] - 1) // 2, sizes[ai] * sizes[bi]).astype(np.float64)
    keep = counts > 0
    pa = patterns.astype(np.int64)[ai[keep]]
    pb = patterns.astype(np.int64)[bi[keep]]
    stats = np.ones((pa.shape[0], 1 + 2 * z.shape[1]))
    stats[:, 1::2] = pa == pb
    stats[:, 2::2] = pa + pb
    return patterns.astype(np.int64), members, ai[keep], bi[keep], counts[keep], stats


def rank_based_reference(z):
    """The earlier ``_PatternClasses`` build, from int64 codes and their ranks: the same six results."""
    m = z.shape[1]
    bits = np.arange(m - 1, -1, -1, dtype=np.int64)
    code = z.astype(np.int64) @ (1 << bits)
    codes, sizes = np.unique(code, return_counts=True)
    patterns = (codes[:, None] >> bits) & 1
    rank = np.searchsorted(codes, code).astype(np.min_scalar_type(codes.size - 1))
    order = np.argsort(rank, kind="stable").astype(np.uint32)
    members = np.split(order, np.cumsum(sizes)[:-1])
    ai, bi = np.triu_indices(codes.size)
    counts = np.where(ai == bi, sizes[ai] * (sizes[ai] - 1) // 2, sizes[ai] * sizes[bi]).astype(np.float64)
    keep = counts > 0
    pa = patterns[ai[keep]]
    pb = patterns[bi[keep]]
    stats = np.empty((pa.shape[0], 1 + 2 * m), dtype=np.float64)
    stats[:, 0] = 1.0
    stats[:, 1::2] = (pa == pb).astype(np.float64)
    stats[:, 2::2] = (pa + pb).astype(np.float64)
    return patterns, members, ai[keep], bi[keep], counts[keep], stats


@st.composite
def attribute_matrices(draw):
    """0/1 int8 matrices: random, one repeated row, or every pattern present."""
    n = draw(st.integers(2, 300), label="n")
    m = draw(st.integers(1, 8), label="m")
    kind = draw(st.sampled_from(["random", "repeated", "every"]), label="kind")
    if kind == "repeated":
        row = draw(arrays(np.int8, m, elements=st.integers(0, 1)), label="row")
        return np.tile(row, (n, 1))
    z = draw(arrays(np.int8, (n, m), elements=st.integers(0, 1)), label="z")
    if kind == "every":
        m = min(m, n.bit_length() - 1)
        every = (np.arange(2**m)[:, None] >> np.arange(m)) & 1
        z = z[:, :m]
        z[: 2**m] = every
        z = z[np.asarray(draw(st.permutations(range(n)), label="rows"))]
    return z


class TestPatternClasses:
    @settings(max_examples=200, deadline=None)
    @given(attribute_matrices())
    def test_matches_unique_rows_reference(self, z):
        classes = _PatternClasses(z)
        patterns, members, class_a, class_b, dyad_counts, stats = unique_rows_reference(z)
        assert classes.patterns.dtype == patterns.dtype
        assert np.array_equal(classes.patterns, patterns)
        assert len(classes.members) == len(members)
        for got, expected in zip(classes.members, members):
            assert np.array_equal(got, expected)
        for got, expected in [
            (classes.class_a, class_a),
            (classes.class_b, class_b),
            (classes.dyad_counts, dyad_counts),
            (classes.statistics, stats),
        ]:
            assert got.dtype == expected.dtype
            assert np.array_equal(got, expected)

    @settings(max_examples=100, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(2, 600),
        m=st.integers(1, 12),
        density=st.floats(0.0, 1.0),
    )
    @example(seed=0, n=600, m=12, density=0.5)  # about 560 patterns: ranks past uint8
    def test_members_are_stable_argsort_of_code(self, seed, n, m, density):
        z = (np.random.default_rng(seed).random((n, m)) < density).astype(np.int8)
        code = z.astype(np.int64) @ (1 << np.arange(m - 1, -1, -1, dtype=np.int64))
        sizes = np.unique(code, return_counts=True)[1]
        expected = np.split(np.argsort(code, kind="stable"), np.cumsum(sizes)[:-1])
        members = _PatternClasses(z).members
        assert len(members) == len(expected)
        for got, want in zip(members, expected):
            assert np.array_equal(got, want)

    # code widths: uint8 up to 8 columns, uint16 up to 16, uint32 up to 32, uint64 above
    @pytest.mark.parametrize("m", [1, 3, 8, 9, 16, 17, 62])
    @pytest.mark.parametrize("density", [0.02, 0.5])
    def test_matches_rank_based_build(self, m, density):
        # rows drawn from at most 60 patterns, so the classes (and their
        # statistics, one row of 1 + 2m per class) stay few
        rng = np.random.default_rng((m, int(density * 100)))
        pool = (rng.random((60, m)) < density).astype(np.int8)
        z = pool[rng.integers(0, 60, size=3000)]
        classes = _PatternClasses(z)
        patterns, members, class_a, class_b, dyad_counts, stats = rank_based_reference(z)
        assert len(classes.members) == len(members)
        for got, expected in zip(classes.members, members):
            assert got.dtype == expected.dtype
            assert np.array_equal(got, expected)
        for got, expected in [
            (classes.patterns, patterns),
            (classes.class_a, class_a),
            (classes.class_b, class_b),
            (classes.dyad_counts, dyad_counts),
            (classes.statistics, stats),
        ]:
            assert got.dtype == expected.dtype
            assert np.array_equal(got, expected)

    def test_probabilities_match_expit_bit_for_bit(self):
        # one dyad class, statistics (1, 1, 0): its log-odds is theta[0] + theta[1]
        classes = _PatternClasses(np.zeros((2, 1), dtype=np.int8))
        grid = np.linspace(-40.0, 40.0, 16001)
        ours = np.array([classes.probabilities(np.array([v, 0.0, 0.0]))[0] for v in grid])
        assert np.array_equal(ours, expit(grid))

    def test_probability_underflows_to_zero_without_warning(self):
        classes = _PatternClasses(np.zeros((2, 1), dtype=np.int8))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert classes.probabilities(np.array([-800.0, 0.0, 0.0])).tolist() == [0.0]

    def test_attribute_count_bound(self):
        with pytest.raises(ValueError, match="at most 62 attributes"):
            _PatternClasses(np.zeros((2, 63), dtype=np.int8))
        # 62 columns still pack: the first column stays the most significant
        z = np.zeros((3, 62), dtype=np.int8)
        z[0, 0] = z[1, 61] = 1
        assert _PatternClasses(z).patterns.tolist() == [z[2].tolist(), z[1].tolist(), z[0].tolist()]


def apportion_by_loop(expected, capacities, total):
    """The cycling largest-remainder loop that ``_apportion_counts`` replaced."""
    floors = [min(int(np.floor(e)), cap) for e, cap in zip(expected, capacities)]
    remainder = total - sum(floors)
    if remainder < 0:
        raise ValueError("total below the summed floors")
    fractions = [e - f for e, f in zip(expected, floors)]
    order = sorted(range(len(expected)), key=lambda idx: -fractions[idx])
    counts = list(floors)
    pos = 0
    while remainder > 0:
        idx = order[pos % len(order)]
        if counts[idx] < capacities[idx]:
            counts[idx] += 1
            remainder -= 1
        pos += 1
        if pos > 4 * len(order) and remainder > 0:
            raise InfeasibleTargetsError("total edge count exceeds the dyad capacity of all classes")
    return counts


class TestApportionment:
    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(
            st.tuples(st.integers(0, 10**6), st.floats(0.0, 1.0) | st.sampled_from([0.0, 0.5, 1.0])),
            min_size=1,
            max_size=8,
        )
    )
    def test_matches_loop_at_rounded_expected_total(self, classes):
        capacities = [cap for cap, _ in classes]
        expected = [cap * q for cap, q in classes]
        total = int(round(sum(expected)))
        # generate_network passes float dyad counts as the capacities
        assert _apportion_counts(np.array(expected), np.array(capacities, dtype=float), total) == apportion_by_loop(
            expected, capacities, total
        )

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(st.tuples(st.integers(0, 50), st.floats(0.0, 1.0)), min_size=1, max_size=6),
        st.integers(-3, 8),
    )
    def test_any_total_matches_loop_or_fails(self, classes, offset):
        # away from the rounded total the loop may skip full classes or wrap
        # around; the one-pass split raises instead of guessing
        capacities = [cap for cap, _ in classes]
        expected = [cap * q for cap, q in classes]
        total = sum(min(int(e), cap) for e, cap in zip(expected, capacities)) + offset
        try:
            counts = _apportion_counts(expected, capacities, total)
        except InfeasibleTargetsError:
            return
        assert counts == apportion_by_loop(expected, capacities, total)
        assert sum(counts) == total

    def test_exact_total_with_fractional_thirds(self):
        counts = _apportion_counts([5000 / 3] * 3, [124750, 250000, 124750], 5000)
        assert sum(counts) == 5000
        assert all(abs(c - 5000 / 3) <= 1.0 for c in counts)

    def test_integral_case_unchanged(self):
        assert _apportion_counts([10.0, 20.0, 30.0], [100, 100, 100], 60) == [10, 20, 30]


class TestGenerateNetwork:
    def test_forced_complete_graph(self):
        # q = 1 in every class: N=10, p=0.5, mean degree 9, ratio C(5,2)/25
        targets = NetworkTargets(10, 0.5, 9.0, 1.0, 0.4)
        solution = solve_dyad_classes(targets)
        assert (solution.q11, solution.q10, solution.q00) == (1.0, 1.0, 1.0)
        graph, z = generate_network(targets, np.random.default_rng(0))
        assert graph.edge_count == 45
        assert z.sum() == 5

    def test_attribute_block_assignment(self):
        targets = NetworkTargets(100, 0.33, 5.0, 1.0, 1.0)
        _, z = generate_network(targets, np.random.default_rng(1))
        assert z.sum() == 33
        assert z[:33].all() and not z[33:].any()

    def test_exact_count_mode_edge_total(self):
        # the total is exact and each class lands within one of its expected count
        thirds = NetworkTargets(1000, 0.5, 10.0, 1.0, 1.0)
        skewed = NetworkTargets(1000, 0.3, 15.0, 2.0, 3.0)
        for targets in (thirds, skewed):
            solution = solve_dyad_classes(targets)
            for seed in range(5):
                graph, z = generate_network(targets, np.random.default_rng(seed), mode="exact-count")
                assert graph.edge_count == round(solution.total_edges)
                counts = mixing_counts(graph, z)
                assert abs(counts.within_1 - solution.e11) <= 1.0
                assert abs(counts.cross - solution.e10) <= 1.0
                assert abs(counts.within_0 - solution.e00) <= 1.0

    @pytest.mark.parametrize(
        "targets",
        [
            NetworkTargets(1000, 0.5, 10.0, 1.0, 1.0),
            NetworkTargets(1000, 0.1, 20.0, 0.5, 5.0),
            NetworkTargets(500, 0.3, 15.0, 2.0, 3.0),
            NetworkTargets(300, 0.8, 8.0, 0.5, 5.0),
            NetworkTargets(12, 0.33, 2.16, 1.16, 0.40),
        ],
        ids=["balanced", "sparse-minority", "active-minority", "majority", "illustration"],
    )
    def test_same_draws_as_saturated_model(self, targets):
        # generate_network is simulate_from_model on the closed-form class probabilities
        model = saturated_model(solve_dyad_classes(targets))
        for seed in range(20):
            graph, z = generate_network(targets, np.random.default_rng((9, seed)))
            simulated = simulate_from_model(model, z, np.random.default_rng((9, seed)))
            assert np.array_equal(graph.src, simulated.src)
            assert np.array_equal(graph.dst, simulated.dst)

    def test_bernoulli_mode_concentration(self):
        # mean realized activity ratio and edge ratio over 100 draws
        targets = NetworkTargets(1000, 0.5, 10.0, 1.0, 1.0)
        das, ratios = [], []
        for seed in range(100):
            graph, z = generate_network(targets, np.random.default_rng((2024, seed)))
            das.append(differential_activity(graph, z))
            counts = mixing_counts(graph, z)
            ratios.append(counts.within_1 / counts.cross)
        assert 0.98 <= np.mean(das) <= 1.02
        assert 0.95 <= np.mean(ratios) <= 1.05

    def test_realized_statistic_unbiasedness(self):
        # mean realized class counts within 3 standard errors of the solved moments
        targets = NetworkTargets(500, 0.5, 12.0, 2.0, 2.0)
        solution = solve_dyad_classes(targets)
        reps = 200
        sums = np.zeros(3)
        for seed in range(reps):
            graph, z = generate_network(targets, np.random.default_rng((77, seed)))
            counts = mixing_counts(graph, z)
            sums += (counts.within_1, counts.cross, counts.within_0)
        means = sums / reps
        dyads = np.array(
            [solution.n1 * (solution.n1 - 1) // 2, solution.n1 * solution.n0, solution.n0 * (solution.n0 - 1) // 2]
        )
        expected = np.array([solution.e11, solution.e10, solution.e00])
        qs = expected / dyads
        ses = np.sqrt(expected * (1.0 - qs) / reps)
        assert np.all(np.abs(means - expected) <= 3.0 * ses)

    def test_determinism(self):
        targets = NetworkTargets(300, 0.4, 8.0, 1.5, 2.0)
        a, _ = generate_network(targets, np.random.default_rng(5))
        b, _ = generate_network(targets, np.random.default_rng(5))
        assert np.array_equal(a.src, b.src) and np.array_equal(a.dst, b.dst)

    def test_mode_validation(self):
        targets = NetworkTargets(100, 0.5, 5.0, 1.0, 1.0)
        with pytest.raises(ValueError, match="mode"):
            generate_network(targets, np.random.default_rng(0), mode="magic")


def brute_force_expected(theta: np.ndarray, z: np.ndarray) -> np.ndarray:
    """O(N^2) oracle: sum statistic * probability over every node pair."""
    n, m = z.shape
    out = np.zeros(1 + 2 * m)
    for i in range(n):
        for j in range(i + 1, n):
            stats = [1.0]
            for k in range(m):
                stats.append(1.0 if z[i, k] == z[j, k] else 0.0)
                stats.append(float(z[i, k] + z[j, k]))
            stats = np.asarray(stats)
            out += stats * expit(float(stats @ theta))
    return out


class TestExpectedStatistics:
    def test_homogeneous_model(self):
        n = 30
        z = np.zeros((n, 1), dtype=np.int8)
        z[:10, 0] = 1
        model = DyadModel(np.array([-1.3, 0.0, 0.0]))
        stats = _PatternClasses(z).expected(model.theta)
        assert stats[0] == pytest.approx(math.comb(n, 2) * expit(-1.3), rel=1e-12)

    def test_vanishing_intercept_limit(self):
        z = np.zeros((20, 1), dtype=np.int8)
        z[:5, 0] = 1
        model = DyadModel(np.array([-40.0, 0.0, 0.0]))
        assert np.all(_PatternClasses(z).expected(model.theta) < 1e-12)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(31)
        for m in (1, 2, 3):
            for _ in range(3):
                n = int(rng.integers(5, 41))
                z = rng.integers(0, 2, size=(n, m)).astype(np.int8)
                theta = rng.normal(scale=0.8, size=1 + 2 * m)
                model = DyadModel(theta)
                fast = _PatternClasses(z).expected(model.theta)
                slow = brute_force_expected(theta, z)
                assert np.allclose(fast, slow, rtol=1e-12, atol=1e-9)

    def test_consistency_with_class_solution(self):
        # coefficients assembled from the class log-odds reproduce the solved moments
        targets = NetworkTargets(200, 0.4, 10.0, 1.5, 2.0)
        solution = solve_dyad_classes(targets)
        z = np.zeros((200, 1), dtype=np.int8)
        z[: solution.n1, 0] = 1
        stats = _PatternClasses(z).expected(saturated_model(solution).theta)
        assert stats[0] == pytest.approx(solution.total_edges, abs=1e-9)
        assert stats[1] == pytest.approx(solution.e11 + solution.e00, abs=1e-9)
        assert stats[2] == pytest.approx(2 * solution.e11 + solution.e10, abs=1e-9)


def cohort_attribute_targets():
    return (
        AttributeTargets("CAS", 0.579, 1.18, assortativity=0.17),
        AttributeTargets("CIR", 0.439, 0.95, assortativity=0.09),
        AttributeTargets("HIV+", 0.127, 1.32, assortativity=0.38),
    )


def draw_cohort_covariates(n, seed=2025):
    from rdsim import CovariateSpec, binary_sampler

    spec = CovariateSpec(
        names=("CAS", "CIR", "HIV+"),
        marginals=[0.579, 0.439, 0.127],
        correlations=[[1.0, 0.104, 0.023], [0.104, 1.0, 0.046], [0.023, 0.046, 1.0]],
    )
    return binary_sampler(spec).sample(n, np.random.default_rng(seed))


class TestFitDyadModel:
    def test_single_attribute_reproduces_solver_moments(self):
        targets = NetworkTargets(1000, 0.5, 10.0, 1.0, 1.0)
        solution = solve_dyad_classes(targets)
        z = np.zeros((1000, 1), dtype=np.int8)
        z[:500, 0] = 1
        model = fit_dyad_model(
            [AttributeTargets("z", 0.5, 1.0, homophily_ratio=1.0)], 10.0, z
        )
        stats = _PatternClasses(z).expected(model.theta)
        goal = np.array(
            [solution.total_edges, solution.e11 + solution.e00, 2 * solution.e11 + solution.e10]
        )
        assert np.max(np.abs(stats - goal) / np.maximum(np.abs(goal), 1.0)) <= 1e-6

    def test_neutral_targets_give_homogeneous_model(self):
        # uniform tie probability satisfies activity 1 and ratio (n1-1)/(2*n0)
        n, n1 = 100, 50
        z = np.zeros((n, 1), dtype=np.int8)
        z[:n1, 0] = 1
        neutral_ratio = (n1 - 1) / (2.0 * (n - n1))
        mean_degree = 8.0
        model = fit_dyad_model(
            [AttributeTargets("z", 0.5, 1.0, homophily_ratio=neutral_ratio)], mean_degree, z
        )
        assert abs(model.theta[1]) < 1e-6
        assert abs(model.theta[2]) < 1e-6
        density = mean_degree / (n - 1)
        assert model.theta[0] == pytest.approx(math.log(density / (1 - density)), abs=1e-6)

    @pytest.mark.parametrize("size", [0, 1, 2, 4, 6])
    def test_model_takes_one_intercept_and_two_terms_per_attribute(self, size):
        with pytest.raises(ValueError, match=f"theta must have 1 \\+ 2m entries for some m >= 1, got {size}"):
            DyadModel(np.zeros(size))

    def test_model_keeps_a_read_only_copy(self):
        theta = np.array([-1.0, 0.5, 0.2, 0.1, -0.3])
        model = DyadModel(theta)
        theta[0] = 9.0
        assert model.theta.tolist() == [-1.0, 0.5, 0.2, 0.1, -0.3]
        assert not model.theta.flags.writeable
        with pytest.raises(ValueError, match="finite"):
            DyadModel(np.array([0.0, np.nan, 0.0]))

    def test_cohort_fit_converges_at_desk_scale(self):
        z = draw_cohort_covariates(4040)
        model = fit_dyad_model(cohort_attribute_targets(), 16.63, z)
        assert model.theta.size == 7

    def test_fixed_point_on_refit(self, monkeypatch):
        monkeypatch.setattr(netgen, "_FIT_TOL", 1e-12)
        z = draw_cohort_covariates(2020)
        first = fit_dyad_model(cohort_attribute_targets(), 16.63, z)
        achieved = _PatternClasses(z).expected(first.theta)
        # translate the achieved statistics back into per-attribute targets
        n = z.shape[0]
        total = achieved[0]
        refit_targets = []
        for k, name in enumerate(t.name for t in cohort_attribute_targets()):
            n1 = int(z[:, k].sum())
            n0 = n - n1
            match, ends = achieved[1 + 2 * k], achieved[2 + 2 * k]
            e10 = total - match
            e11 = (ends - e10) / 2.0
            e00 = match - e11
            refit_targets.append(
                AttributeTargets(
                    name,
                    n1 / n,
                    ((2 * e11 + e10) / n1) / ((2 * e00 + e10) / n0),
                    homophily_ratio=e11 / e10,
                )
            )
        second = fit_dyad_model(refit_targets, 2.0 * total / n, z)
        assert np.max(np.abs(first.theta - second.theta)) <= 1e-8

    def test_nonconvergence_raises_with_residuals(self, monkeypatch):
        # Da = 50 fails in the moment solve (negative e00), before any Newton step
        monkeypatch.setattr(netgen, "_FIT_MAX_ITER", 5)
        z = np.zeros((40, 1), dtype=np.int8)
        z[:20, 0] = 1
        with pytest.raises(InfeasibleTargetsError):
            fit_dyad_model([AttributeTargets("z", 0.5, 50.0, homophily_ratio=1.0)], 30.0, z)

    def test_iteration_cap_raises_with_residuals(self, monkeypatch):
        monkeypatch.setattr(netgen, "_FIT_MAX_ITER", 1)
        z = np.zeros((40, 1), dtype=np.int8)
        z[:20, 0] = 1
        with pytest.raises(FitConvergenceError, match="after 1 iterations") as caught:
            fit_dyad_model([AttributeTargets("z", 0.5, 1.5, homophily_ratio=0.8)], 6.0, z)
        residuals = caught.value.residuals
        assert residuals.shape == (3,)
        assert np.all(np.isfinite(residuals))

    def test_assortativity_out_of_reach_at_the_realized_prevalence_is_infeasible(self):
        # -0.95 is within reach at the target prevalence 0.5, not at the 60 of 200 drawn
        z = (np.arange(200) < 60).astype(np.int8)
        message = (
            "attribute 'A' at realized group sizes (60, 140): "
            "assortativity -0.95 not attainable: must be in (-0.6, 1)"
        )
        with pytest.raises(InfeasibleTargetsError, match=f"^{re.escape(message)}$"):
            fit_dyad_model([AttributeTargets("A", 0.5, 1.0, assortativity=-0.95)], 6.0, z)

    def test_mean_degree_past_the_population_names_the_bound(self):
        # the bound NetworkTargets states, not an infeasible attribute
        z = (np.arange(100) < 50).astype(np.int8)
        with pytest.raises(ValueError, match=f"^{re.escape('mean_degree must be in (0, node_count - 1]')}$"):
            fit_dyad_model([AttributeTargets("A", 0.5, 1.0, homophily_ratio=1.0)], 5000.0, z)

    def test_one_target_per_attribute_column(self):
        z = np.zeros((40, 2), dtype=np.int8)
        z[:20, 0] = 1
        z[::2, 1] = 1
        with pytest.raises(ValueError, match=r"^need exactly one AttributeTargets per attribute column$"):
            fit_dyad_model([AttributeTargets("A", 0.5, 1.0, homophily_ratio=1.0)], 6.0, z)

    def test_empty_realized_group_is_infeasible(self):
        z = np.zeros(200, dtype=np.int8)
        with pytest.raises(InfeasibleTargetsError, match=re.escape("attribute 'A' at realized group sizes (0, 200): ")):
            fit_dyad_model([AttributeTargets("A", 0.5, 1.0, assortativity=-0.95)], 6.0, z)


class TestSimulateFromModel:
    def test_probability_extremes(self):
        z = np.zeros((15, 1), dtype=np.int8)
        z[:5, 0] = 1
        empty = simulate_from_model(
            DyadModel(np.array([-40.0, 0.0, 0.0])), z, np.random.default_rng(0)
        )
        assert empty.edge_count == 0
        full = simulate_from_model(
            DyadModel(np.array([40.0, 0.0, 0.0])), z, np.random.default_rng(0)
        )
        assert full.edge_count == math.comb(15, 2)

    def test_cohort_model_realizes_activity_targets(self):
        z = draw_cohort_covariates(4040)
        model = fit_dyad_model(cohort_attribute_targets(), 16.63, z)
        sums = np.zeros(3)
        reps = 50
        for seed in range(reps):
            graph = simulate_from_model(model, z, np.random.default_rng((4, seed)))
            for k in range(3):
                sums[k] += differential_activity(graph, z[:, k])
        means = sums / reps
        for mean, target in zip(means, cohort_attribute_targets()):
            assert mean == pytest.approx(target.diff_activity, rel=0.03)

    def test_model_z_mismatch_rejected(self):
        z = np.zeros((10, 2), dtype=np.int8)
        with pytest.raises(ValueError):
            simulate_from_model(DyadModel(np.array([0.0, 0.0, 0.0])), z, np.random.default_rng(0))

    def test_fitted_model_is_its_coefficients(self):
        z1 = draw_cohort_covariates(600)
        z2 = draw_cohort_covariates(600, seed=7)
        assert z2.shape == z1.shape and not np.array_equal(z1, z2)
        model = fit_dyad_model(cohort_attribute_targets(), 8.0, z1)
        assert list(vars(model)) == ["theta"]
        bare = DyadModel(model.theta)
        for z in (z1, z2):
            graph = simulate_from_model(model, z, np.random.default_rng(3))
            expected = simulate_from_model(bare, z, np.random.default_rng(3))
            assert np.array_equal(graph.src, expected.src)
            assert np.array_equal(graph.dst, expected.dst)


class TestAttributeTargets:
    def test_exactly_one_homophily_scale(self):
        with pytest.raises(ValueError):
            AttributeTargets("x", 0.5, 1.0)
        with pytest.raises(ValueError):
            AttributeTargets("x", 0.5, 1.0, homophily_ratio=1.0, assortativity=0.1)

    def test_assortativity_out_of_reach_at_its_own_prevalence_is_refused(self):
        message = "attribute 'x': assortativity -1.0 not attainable: must be in (-1, 1)"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            AttributeTargets("x", 0.5, 1.0, assortativity=-1.0)

    def test_fit_converts_assortativity_at_the_realized_prevalence(self):
        # targets say prevalence 0.5; the attribute drawn holds 20 of 50 nodes
        z = (np.arange(50) < 20).astype(np.int8)
        fit = fit_dyad_model([AttributeTargets("x", 0.5, 1.0, assortativity=0.2)], 6.0, z)
        realized = fit_dyad_model(
            [AttributeTargets("x", 0.5, 1.0, homophily_ratio=ratio_from_assortativity(0.2, 0.4, 1.0))], 6.0, z
        )
        targeted = fit_dyad_model(
            [AttributeTargets("x", 0.5, 1.0, homophily_ratio=ratio_from_assortativity(0.2, 0.5, 1.0))], 6.0, z
        )
        assert np.array_equal(fit.theta, realized.theta)
        assert not np.allclose(fit.theta, targeted.theta)


def refused(text: str):
    """``pytest.raises`` for a ``ValueError`` whose whole message is ``text``."""
    return pytest.raises(ValueError, match=f"^{re.escape(text)}$")


# each target range and the one text that refuses it, whichever entry point is handed the value
TARGET_RANGES = {
    "prevalence": ((math.nan, math.inf, -math.inf, 0.0, 1.0), "prevalence must be strictly inside (0, 1)"),
    "diff_activity": ((math.nan, math.inf, -math.inf, 0.0, -1.0), "diff_activity must be positive and finite"),
    "homophily_ratio": ((math.nan, math.inf, -math.inf, -0.1), "homophily_ratio must be nonnegative and finite"),
}


@pytest.mark.parametrize(
    "field, value",
    [(field, value) for field, (values, _) in TARGET_RANGES.items() for value in values],
)
def test_a_target_out_of_range_has_one_text_at_every_entry_point(field, value):
    given = {"prevalence": 0.3, "diff_activity": 1.5, "homophily_ratio": 2.0, field: value}
    p, da, ratio = given["prevalence"], given["diff_activity"], given["homophily_ratio"]
    text = TARGET_RANGES[field][1]
    with refused(text):
        assortativity_from_ratio(ratio, p, da)
    with refused(text):
        NetworkTargets(100, p, 5.0, da, ratio)
    with refused(f"attribute 'x': {text}"):
        AttributeTargets("x", p, da, homophily_ratio=ratio)
    if field != "homophily_ratio":
        # an assortativity is converted at the target's prevalence and activity, which meet the same rule
        with refused(f"attribute 'x': {text}"):
            AttributeTargets("x", p, da, assortativity=0.1)
        with refused(text):
            ratio_from_assortativity(0.1, p, da)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_a_non_finite_assortativity_is_out_of_reach(value):
    with pytest.raises(ValueError, match=f"^attribute 'x': assortativity {value} not attainable"):
        AttributeTargets("x", 0.5, 1.0, assortativity=value)


@contextmanager
def consumed_class_counts():
    """The edge count of each class that the draws in the block take, in draw order."""
    seen = []

    def binomial(classes, probabilities, rng):
        for count in _binomial_counts(classes, probabilities, rng):
            seen.append(count)
            yield count

    def apportion(expected, capacities, total):
        counts = _apportion_counts(expected, capacities, total)
        seen.extend(counts)
        return counts

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(netgen, "_binomial_counts", binomial)
        patch.setattr(netgen, "_apportion_counts", apportion)
        yield seen


def recount_class_edges(graph: Graph, z: np.ndarray, classes: _PatternClasses) -> list[int]:
    """Edges per dyad class of ``classes``, counted from each edge's two endpoint patterns."""
    pattern_of = {tuple(row): c for c, row in enumerate(classes.patterns.tolist())}
    node_pattern = [pattern_of[tuple(row)] for row in z.tolist()]
    class_of = {pair: c for c, pair in enumerate(zip(classes.class_a.tolist(), classes.class_b.tolist()))}
    counts = [0] * len(class_of)
    for u, v in zip(graph.src.tolist(), graph.dst.tolist()):
        counts[class_of[tuple(sorted((node_pattern[u], node_pattern[v])))]] += 1
    return counts


def assert_class_counts_are_the_truth(graph: Graph, z: np.ndarray, consumed: list[int]):
    """The draw's class counts are the graph's, and their statistics are its edge-scan truth."""
    z = z.reshape(graph.node_count, -1)
    classes = _PatternClasses(z)
    assert consumed == recount_class_edges(graph, z, classes)
    truth = [graph.edge_count]
    for column in z.T:
        counts = mixing_counts(graph, column)
        truth += [counts.within_1 + counts.within_0, int(graph.degrees @ column)]
    assert (classes.statistics.T @ np.array(consumed, dtype=np.int64)).tolist() == truth


class TestClassCountTruth:
    """Oracle for a truth read off the draw: each class's consumed edge count against an edge scan."""

    @settings(max_examples=100, deadline=None)
    @given(
        n1=st.integers(2, 100),
        n0=st.integers(2, 100),
        q11=st.floats(0.0, 0.9),
        q10=st.floats(0.01, 0.9),
        q00=st.floats(0.0, 0.9),
        mode=st.sampled_from(netgen.GENERATION_MODES),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_generate_network(self, n1, n0, q11, q10, q00, mode, seed):
        # targets read off class probabilities, so every draw is feasible
        e11, e10, e00 = q11 * n1 * (n1 - 1) / 2, q10 * n1 * n0, q00 * n0 * (n0 - 1) / 2
        n = n1 + n0
        activity = ((2 * e11 + e10) / n1) / ((2 * e00 + e10) / n0)
        targets = NetworkTargets(n, n1 / n, 2 * (e11 + e10 + e00) / n, activity, e11 / e10)
        with consumed_class_counts() as consumed:
            graph, z = generate_network(targets, np.random.default_rng(seed), mode)
        assert len(consumed) == 3
        assert_class_counts_are_the_truth(graph, z, consumed)

    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    @settings(max_examples=50, deadline=None)
    @given(data=st.data(), seed=st.integers(0, 2**32 - 1))
    def test_simulate_from_model(self, m, data, seed):
        n = data.draw(st.integers(2, 120), label="n")
        z = data.draw(arrays(np.int8, (n, m), elements=st.integers(0, 1)), label="z")
        theta = data.draw(arrays(np.float64, 1 + 2 * m, elements=st.floats(-3.0, 1.5)), label="theta")
        with consumed_class_counts() as consumed:
            graph = simulate_from_model(DyadModel(theta), z, np.random.default_rng(seed))
        assert_class_counts_are_the_truth(graph, z, consumed)


# ---------------------------------------------------------------------------
# The law of one draw
# ---------------------------------------------------------------------------

# A correct generator fails each law test with probability at most LAW_ALPHA:
# a test that takes several p-values asserts each above LAW_ALPHA over their
# number (Bonferroni). The seeds are fixed, so a run passes or fails every time.
LAW_ALPHA = 1e-3
LAW_DRAWS = 2000

# 12 nodes, 3 of each pattern of two attributes, shuffled: 10 dyad classes of 66 dyads
LAW_Z = np.array([[a, b] for a in (0, 1) for b in (0, 1) for _ in range(3)], dtype=np.int8)[
    np.random.default_rng(1).permutation(12)
]
# class tie probabilities from 0.35 to 0.77
LAW_MODEL = DyadModel(np.array([-0.4, 0.6, 0.3, -0.5, 0.4]))
# 12 nodes, 6 carrying the attribute: exact counts 6, 7 and 11 in classes of 15, 36 and 15 dyads
LAW_TARGETS = NetworkTargets(12, 0.5, 4.0, 1.5, 1.5)


def inclusion_rows(graphs) -> np.ndarray:
    """Row r is True at the dyads of ``graphs[r]``, dyads numbered row-major over i < j."""
    n = graphs[0].node_count
    rows = np.zeros((len(graphs), n * (n - 1) // 2), dtype=bool)
    for r, graph in enumerate(graphs):
        i, j = graph.src, graph.dst
        rows[r, i * (2 * n - i - 1) // 2 + j - i - 1] = True
    return rows


def dyad_classes(classes: _PatternClasses) -> np.ndarray:
    """The class of each dyad, numbered as in ``inclusion_rows``, as a position in ``classes``' class arrays."""
    pattern = np.empty(classes.n, dtype=np.int64)
    for c, members in enumerate(classes.members):
        pattern[members] = c
    position = {pair: c for c, pair in enumerate(zip(classes.class_a.tolist(), classes.class_b.tolist()))}
    i, j = np.triu_indices(classes.n, k=1)
    a, b = np.minimum(pattern[i], pattern[j]), np.maximum(pattern[i], pattern[j])
    return np.array([position[pair] for pair in zip(a.tolist(), b.tolist())])


def binomial_terms(hits, trials: int, p) -> np.ndarray:
    """Pearson term of each count in ``hits`` against Binomial(trials, p): a one-degree chi-square."""
    return (hits - trials * p) ** 2 / (trials * p * (1 - p))


def pooled(observed, expected, least: float = 5.0):
    """Adjacent bins merged until each expects at least ``least``; a short last bin joins the one before."""
    obs, exp = [0], [0.0]
    for o, e in zip(observed, expected):
        if exp[-1] >= least:
            obs.append(0)
            exp.append(0.0)
        obs[-1] += o
        exp[-1] += e
    if exp[-1] < least and len(exp) > 1:
        o, e = obs.pop(), exp.pop()
        obs[-1] += o
        exp[-1] += e
    return obs, exp


@pytest.fixture(scope="module")
def bernoulli_draws():
    """(rows, class of each dyad, class tie probabilities) of LAW_MODEL's draws on LAW_Z."""
    rng = np.random.default_rng(2026)
    rows = inclusion_rows([simulate_from_model(LAW_MODEL, LAW_Z, rng) for _ in range(LAW_DRAWS)])
    classes = _PatternClasses(LAW_Z)
    return rows, dyad_classes(classes), classes.probabilities(LAW_MODEL.theta)


@pytest.fixture(scope="module")
def exact_count_draws():
    """(rows, class of each dyad, class edge counts) of LAW_TARGETS' draws in exact-count mode."""
    rng = np.random.default_rng(2027)
    graphs, zs = zip(*(generate_network(LAW_TARGETS, rng, mode="exact-count") for _ in range(LAW_DRAWS)))
    rows = inclusion_rows(graphs)
    cls = dyad_classes(_PatternClasses(zs[0]))
    counts = np.stack([np.bincount(cls, weights=row) for row in rows])
    # exact-count mode fixes every class's count, so each draw has the first draw's counts
    assert np.all(counts == counts[0])
    return rows, cls, counts[0]


class TestGeneratorLaw:
    """The law of a draw: in ``bernoulli`` mode each dyad is an independent
    Bernoulli(q_c) of its class c; in ``exact-count`` mode each class's edge
    set is a uniform subset of its fixed size.
    """

    def test_each_dyad_is_included_at_its_class_probability(self, bernoulli_draws):
        rows, cls, q = bernoulli_draws
        # the dyads are independent, so the terms sum to a chi-square with one degree per dyad
        terms = binomial_terms(rows.sum(axis=0), LAW_DRAWS, q[cls])
        assert rows.shape[1] == 66 and q.size == 10
        assert chi2.sf(terms.sum(), terms.size) > LAW_ALPHA

    def test_each_class_count_is_binomial(self, bernoulli_draws):
        rows, cls, q = bernoulli_draws
        for c, (dyads, p) in enumerate(zip(np.bincount(cls), q)):
            counts = rows[:, cls == c].sum(axis=1)
            observed = np.bincount(counts, minlength=dyads + 1)
            obs, exp = pooled(observed, LAW_DRAWS * binom.pmf(np.arange(dyads + 1), dyads, p))
            assert chisquare(obs, exp).pvalue > LAW_ALPHA / q.size

    @pytest.mark.parametrize("mode", ["bernoulli", "exact-count"])
    def test_pair_inclusion_within_a_class_follows_its_law(self, mode, request):
        rows, cls, law = request.getfixturevalue(f"{mode.replace('-', '_')}_draws")
        dyads = np.bincount(cls)
        if mode == "bernoulli":
            both = law**2  # independent dyads
        else:
            both = law * (law - 1) / (dyads * (dyads - 1))  # two dyads of a uniform k-subset
        pvalues = []
        for c in range(dyads.size):
            members = np.flatnonzero(cls == c)
            a, b = np.triu_indices(members.size, k=1)
            hits = (rows[:, members[a]] & rows[:, members[b]]).sum(axis=0)
            pvalues.extend(chi2.sf(binomial_terms(hits, LAW_DRAWS, both[c]), 1))
        assert min(pvalues) > LAW_ALPHA / len(pvalues)

    def test_exact_count_classes_are_uniform_subsets(self, exact_count_draws):
        rows, cls, counts = exact_count_draws
        # a uniform k-subset of D dyads puts each dyad in with chance k/D; over
        # the draws the D counts sum to a constant, and (D - 1)/D times their
        # terms is a chi-square with D - 1 degrees
        statistic, degrees = 0.0, 0
        for c, k in enumerate(counts):
            members = cls == c
            dyads = int(members.sum())
            statistic += (dyads - 1) / dyads * binomial_terms(rows[:, members].sum(axis=0), LAW_DRAWS, k / dyads).sum()
            degrees += dyads - 1
        assert chi2.sf(statistic, degrees) > LAW_ALPHA

    def test_one_large_class_is_uniform_where_choice_switches_algorithm(self):
        # 150 nodes of one pattern: one class of 11,175 dyads. numpy's choice
        # without replacement takes other routes with and without its shuffle
        # for populations above 10,000 when population // 50 < k <= population // 20.
        z = np.zeros((150, 1), dtype=np.int8)
        q = 400 / 11175
        model = DyadModel(np.array([math.log(q / (1 - q)), 0.0, 0.0]))
        rng = np.random.default_rng(2028)
        graphs = [simulate_from_model(model, z, rng) for _ in range(300)]
        assert all(11175 // 50 < graph.edge_count <= 11175 // 20 for graph in graphs)
        terms = binomial_terms(inclusion_rows(graphs).sum(axis=0), len(graphs), q)
        assert chi2.sf(terms.sum(), terms.size) > LAW_ALPHA
