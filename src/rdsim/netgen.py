"""Population network generation by dyad-class moment matching.

Networks with prescribed prevalence, mean degree, differential activity,
and homophily are generated from dyad-independent tie models. Dyads fall
into classes by the unordered pair of endpoint attribute patterns, with
one tie probability per class. With a single binary attribute the three
classes (both ends carrying the attribute, mixed, neither) get their
probabilities in closed form from the target moments; the logistic model
is saturated there, so that is its exact fit. With several attributes, a
logistic dyad model with one intercept plus per-attribute match and
activity coefficients is fitted by Newton moment matching.

Both generators share one draw path. Each class draws its edge count
(binomial, or apportioned to an exact edge total); given the count, the
edges are a uniform subset of the class's dyads, which is
distribution-identical to independent per-dyad Bernoulli draws and scales
to populations where enumerating all dyads is impractical. Node indices
travel as ``uint32`` from the class member lists through the draws to
:class:`~rdsim.graph.Graph`, which takes them at that width, so the
per-class gathers and their concatenation move half the bytes of int64.

A class's subset is drawn with ``rng.choice(..., replace=False,
shuffle=False)``: ``Graph`` sorts the edges into canonical order, so the
random order that the shuffle would add is thrown away, and skipping it
leaves each class a uniform subset. :func:`_sample_class_dyads` says
where the set and the stream differ from the shuffled call's.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import exp, log

import numpy as np

from .errors import FitConvergenceError, InfeasibleTargetsError, _check_choice, _check_count, _check_real
from .graph import Graph, _as_attributes, _check_targets, ratio_from_assortativity

__all__ = [
    "NetworkTargets",
    "DyadClassSolution",
    "AttributeTargets",
    "DyadModel",
    "solve_dyad_classes",
    "generate_network",
    "fit_dyad_model",
    "simulate_from_model",
]

GENERATION_MODES = ("bernoulli", "exact-count")

# attribute patterns are packed into unsigned codes, one bit per attribute,
# and unpacked from their int64 values
MAX_PATTERN_ATTRIBUTES = 62

# fit_dyad_model accepts a fit once every moment residual, relative to its
# target, is at most _FIT_TOL, and gives up after _FIT_MAX_ITER Newton steps.
_FIT_TOL = 1e-6
_FIT_MAX_ITER = 100


def _check_population(node_count: int, mean_degree: float) -> None:
    """Refuse fewer than two nodes, or a mean degree that is no number or outside ``(0, node_count - 1]``."""
    _check_count("node_count", node_count, 2)
    # mean_degree = n-1 is allowed: it forces the complete graph
    if not 0.0 < _check_real("mean_degree", mean_degree) <= node_count - 1:
        raise ValueError("mean_degree must be in (0, node_count - 1]")


def _check_attribute_count(m: int) -> None:
    """Refuse more attributes than a pattern code holds."""
    if m > MAX_PATTERN_ATTRIBUTES:
        raise ValueError(f"a network takes at most {MAX_PATTERN_ATTRIBUTES} attributes, got {m}")


@dataclass(frozen=True)
class NetworkTargets:
    """Desired population-network characteristics for one binary attribute.

    Attributes:
        node_count: Population size N.
        prevalence: Attribute prevalence p; both groups must round to at
            least one node.
        mean_degree: Target average degree, in (0, N-1].
        diff_activity: Target ratio of group mean degrees (value-1 over
            value-0), positive and finite.
        homophily_ratio: Target within-1/cross edge ratio, nonnegative, finite.
    """

    node_count: int
    prevalence: float
    mean_degree: float
    diff_activity: float
    homophily_ratio: float

    def __post_init__(self):
        _check_population(self.node_count, self.mean_degree)
        _check_targets(self.prevalence, self.diff_activity, self.homophily_ratio)
        if min(self.group_sizes) < 1:
            raise ValueError("both attribute groups must round to at least one node")

    @property
    def group_sizes(self) -> tuple[int, int]:
        """(n1, n0): attribute-present and attribute-absent group sizes."""
        n1 = int(round(self.prevalence * self.node_count))
        return n1, self.node_count - n1


@dataclass(frozen=True)
class DyadClassSolution:
    """Expected edge counts and per-dyad probabilities per attribute class.

    ``e11/e10/e00`` are expected edge counts for within-group-1, cross, and
    within-group-0 dyads; ``q11/q10/q00`` the matching Bernoulli
    probabilities given group sizes ``n1``/``n0``.
    """

    n1: int
    n0: int
    e11: float
    e10: float
    e00: float
    q11: float
    q10: float
    q00: float

    @property
    def total_edges(self) -> float:
        return self.e11 + self.e10 + self.e00


def _probability(count: float, dyads: int, label: str) -> float:
    if count == 0.0:
        return 0.0
    if dyads == 0:
        raise InfeasibleTargetsError(
            f"infeasible targets: {label} requires {count:.6g} edges but the class has no dyads"
        )
    q = count / dyads
    if q > 1.0 + 1e-12:
        raise InfeasibleTargetsError(
            f"infeasible targets: dyad probability {label} = {count:.6g}/{dyads} = {q:.6g} exceeds 1"
        )
    return min(q, 1.0)


def solve_dyad_classes(targets: NetworkTargets) -> DyadClassSolution:
    """Solve the three dyad-class moments implied by ``targets``.

    The expected counts are the unique solution of
      (i)   e11 + e10 + e00 = N * mean_degree / 2
      (ii)  e11 = homophily_ratio * e10
      (iii) (2 e11 + e10)/n1 = diff_activity * (2 e00 + e10)/n0
    with n1 = round(p*N). Residuals are exact up to floating point.

    Raises:
        InfeasibleTargetsError: If any expected count is negative or any
            per-dyad probability exceeds 1; the message names the violated
            bound.
    """
    n1, n0 = targets.group_sizes
    total = targets.node_count * targets.mean_degree / 2.0
    ratio = targets.homophily_ratio
    activity = targets.diff_activity

    e10 = 2.0 * total * activity * n1 / ((2.0 * ratio + 1.0) * (n0 + activity * n1))
    e11 = ratio * e10
    e00 = total - e11 - e10

    slack = 1e-9 * max(total, 1.0)
    if e00 < -slack:
        raise InfeasibleTargetsError(
            f"infeasible targets: expected within-group-0 edge count e00 = {e00:.6g} < 0 "
            f"(cross-group demand e10 = {e10:.6g} exceeds the group-0 edge ends)"
        )
    e00 = max(e00, 0.0)

    return DyadClassSolution(
        n1=n1,
        n0=n0,
        e11=e11,
        e10=e10,
        e00=e00,
        q11=_probability(e11, n1 * (n1 - 1) // 2, "q11"),
        q10=_probability(e10, n1 * n0, "q10"),
        q00=_probability(e00, n0 * (n0 - 1) // 2, "q00"),
    )


# ---------------------------------------------------------------------------
# Dyad-class sampling machinery
# ---------------------------------------------------------------------------


def _decode_triangular(t: np.ndarray, size: int) -> tuple[np.ndarray, np.ndarray]:
    """Map linear dyad indices to (i, j), i < j, within a ``size``-node group.

    Dyads are enumerated row-major: row i holds the ``size - 1 - i`` dyads
    from index ``start(i) = i*(b-i)/2`` on, ``b = 2*size - 1``, so index t
    is dyad (i, i + 1 + t - start(i)), where i is the floor of the smaller
    root ``(b - sqrt(b*b - 8t))/2`` of ``start(i) = t``.

    The root is taken in float64 from a discriminant formed exactly in
    int64 (``size`` up to 2**30), and one correction makes it exact. The
    estimate is never below the true row i: the discriminant is at most
    ``(b - 2i)**2``, rounding and the square root are monotone, and the
    rounded square root of an integer square below 2**62 is exact, so the
    float root is at least i. Its error is below 2**-20, so the estimate is
    at most i + 1, and it is i + 1 exactly when ``start`` of it exceeds t.
    """
    b = 2 * size - 1
    i = np.floor((b - np.sqrt((b * b - 8 * t).astype(np.float64))) / 2.0).astype(np.int64)
    start = i * (b - i) // 2
    over = start > t
    i -= over
    start -= over * (size - 1 - i)
    return i, t - start + i + 1


def _decode_rectangular(t: np.ndarray, size: int) -> tuple[np.ndarray, np.ndarray]:
    """Map linear dyad indices to (i, j) = ``divmod(t, size)`` across two groups.

    Row i holds the ``size`` dyads of node i of the first group. Floor
    division by a scalar runs through numpy's libdivide path, which
    ``np.divmod`` does not take, so j comes from one multiply instead.
    """
    i = t // size
    return i, t - i * size


def _sample_class_dyads(
    group_a: np.ndarray, group_b: np.ndarray | None, k: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Draw ``k`` distinct dyads uniformly from one dyad class.

    ``group_b is None`` means the within-group class of ``group_a``.

    The dyad indices come unshuffled, since ``Graph`` sorts the edges
    anyway and a uniform ``k``-subset is uniform in any order. numpy draws
    by Floyd's algorithm up to a population of 10,000 and, above it, for
    ``k`` up to ``population // 50`` with the shuffle but up to
    ``population // 20`` without; otherwise it shuffles the tail of the
    whole range, the same with or without ``shuffle``. From one state,
    this call draws the same set as ``choice(population, k,
    replace=False)`` wherever both take the same path. On Floyd's path it
    skips the shuffle of the ``k`` draws, so the state after it, and every
    later draw, differs. A ``k`` between the two cut-offs above 10,000
    picks a different set (``default_rng(1).choice(10**6, 50000,
    replace=False)`` does).
    """
    if group_b is None:
        size = group_a.size
        population = size * (size - 1) // 2
    else:
        population = group_a.size * group_b.size
    if k == 0:
        # the members' dtype, or concatenating the parts would widen them
        empty = np.empty(0, dtype=group_a.dtype)
        return empty, empty.copy()
    if k == population:
        chosen = np.arange(population, dtype=np.int64)
    else:
        chosen = rng.choice(population, size=k, replace=False, shuffle=False).astype(np.int64, copy=False)
    if group_b is None:
        i, j = _decode_triangular(chosen, group_a.size)
        return group_a[i], group_a[j]
    i, j = _decode_rectangular(chosen, group_b.size)
    return group_a[i], group_b[j]


def _draw_graph(classes: _PatternClasses, counts, rng: np.random.Generator) -> Graph:
    """Graph with ``k`` uniform dyads from each dyad class of ``classes``.

    ``counts`` gives one ``k`` per class, in class order. It is consumed
    one class at a time, so a lazy iterable can draw each class's count
    from ``rng`` just before that class's dyads. The per-class parts are
    released once concatenated, before ``Graph`` allocates its arrays.
    """
    src_parts = []
    dst_parts = []
    for a, b, k in zip(classes.class_a, classes.class_b, counts):
        group_b = None if a == b else classes.members[b]
        src, dst = _sample_class_dyads(classes.members[a], group_b, k, rng)
        src_parts.append(src)
        dst_parts.append(dst)
    src = np.concatenate(src_parts)
    del src_parts
    dst = np.concatenate(dst_parts)
    del dst_parts
    return Graph(classes.n, src, dst)


def _binomial_counts(classes: _PatternClasses, probabilities: np.ndarray, rng: np.random.Generator):
    """Binomial edge count of each class at its tie probability, drawn lazily."""
    for count, q in zip(classes.dyad_counts, probabilities):
        yield int(rng.binomial(int(count), q))


def _apportion_counts(expected: np.ndarray, capacities: np.ndarray, total: int) -> list[int]:
    """Split ``total`` edges over classes, nearest to their expected counts.

    Largest-remainder apportionment: floors (capped at the capacity)
    first, then one more edge for each of the ``total - sum(floors)``
    classes with the largest fractional parts, ties in class order. Keeps
    the grand total exact and every class within one of its expected count;
    an ``InfeasibleTargetsError`` if the leftover does not fit that way.
    """
    expected = np.asarray(expected, dtype=float)
    capacities = np.asarray(capacities)
    floors = np.minimum(np.floor(expected), capacities).astype(np.int64)
    remainder = total - int(floors.sum())
    chosen = np.argsort(floors - expected, kind="stable")[:remainder]
    if not 0 <= remainder <= expected.size or np.any(floors[chosen] >= capacities[chosen]):
        raise InfeasibleTargetsError(
            f"infeasible targets: {total} edges do not fit the classes' expected counts and capacities"
        )
    floors[chosen] += 1
    return floors.tolist()


def generate_network(
    targets: NetworkTargets, rng: np.random.Generator, mode: str = "bernoulli"
) -> tuple[Graph, np.ndarray]:
    """Generate a network realizing ``targets`` plus its attribute vector.

    Exactly ``n1 = round(p*N)`` nodes (indices 0..n1-1) carry the
    attribute. In ``bernoulli`` mode each dyad class draws a binomial edge
    count at its class probability; in ``exact-count`` mode the class
    counts are fixed so the realized edge total equals
    ``round(N * mean_degree / 2)`` exactly. Either way the chosen edges are
    a uniform subset of the class dyads.

    Returns:
        (graph, attribute values) with the graph simple and undirected.
    """
    _check_choice("mode", mode, GENERATION_MODES)
    solution = solve_dyad_classes(targets)
    z = np.zeros(targets.node_count, dtype=np.int8)
    z[: solution.n1] = 1
    z.flags.writeable = False

    # One attribute saturates the logistic model, so the closed-form class
    # probabilities are its exact fit; a class's activity statistic a+b
    # (0, 1 or 2) picks its probability.
    classes = _PatternClasses(z)
    activity = classes.statistics[:, 2].astype(np.int64)
    q = np.array([solution.q00, solution.q10, solution.q11])[activity]
    if mode == "exact-count":
        total = int(round(solution.total_edges))
        counts = _apportion_counts(classes.dyad_counts * q, classes.dyad_counts, total)
    else:
        counts = _binomial_counts(classes, q, rng)
    return _draw_graph(classes, counts, rng), z


# ---------------------------------------------------------------------------
# Multi-attribute dyad models
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AttributeTargets:
    """Per-attribute targets for a multi-attribute dyad model.

    Homophily is given either on the within/cross-ratio scale
    (``homophily_ratio``) or the assortativity scale (``assortativity``),
    exactly one of the two, in the ranges of :class:`NetworkTargets`.
    """

    name: str
    prevalence: float
    diff_activity: float
    homophily_ratio: float | None = None
    assortativity: float | None = None

    def __post_init__(self):
        try:
            if (self.homophily_ratio is None) == (self.assortativity is None):
                raise ValueError("give exactly one of homophily_ratio or assortativity")
            if self.assortativity is None:
                _check_targets(self.prevalence, self.diff_activity, self.homophily_ratio)
            else:
                # checks the prevalence and activity too; a draw's prevalence is checked by the fit
                ratio_from_assortativity(self.assortativity, self.prevalence, self.diff_activity)
        except ValueError as exc:
            raise ValueError(f"attribute {self.name!r}: {exc}") from None


@dataclass(frozen=True)
class DyadModel:
    """Dyad-independent logistic tie model over binary attribute patterns.

    The log-odds of a tie between nodes with attribute rows ``a`` and ``b``
    is ``theta[0] + sum_k theta[1+2k]*[a_k == b_k] + theta[2+2k]*(a_k+b_k)``:
    an edge intercept plus per-attribute homophily-match and activity
    terms. The statistic vector follows the same layout: total edges, then
    per attribute the matched-edge count and the group-1 edge-end count, so
    a model over m attributes has ``1 + 2m`` entries. The attribute matrix
    it is drawn over must have those m columns.
    """

    theta: np.ndarray

    def __post_init__(self):
        given = np.asarray(self.theta, dtype=object).ravel().tolist()
        theta = np.array([_check_real("theta entry", v) for v in given])
        if theta.size < 3 or theta.size % 2 == 0:
            raise ValueError(f"theta must have 1 + 2m entries for some m >= 1, got {theta.size}")
        if not np.all(np.isfinite(theta)):
            raise ValueError("theta must be finite")
        theta.flags.writeable = False
        object.__setattr__(self, "theta", theta)


def _logistic(v: float) -> float:
    try:
        return 1.0 / (1.0 + exp(-v))
    except OverflowError:  # exp(-v) beyond the float range: the tie probability is 0
        return 0.0


class _PatternClasses:
    """Dyads grouped by the unordered pair of endpoint attribute patterns.

    ``members[c]`` holds the ``uint32`` indices of the nodes with pattern
    ``c``, ascending; ``uint32`` covers every node count up to
    :data:`~rdsim.graph.MAX_NODE_COUNT`.
    """

    def __init__(self, z: np.ndarray):
        z = _as_attributes(z)
        self.n, self.m = z.shape
        _check_count("node_count", self.n, 2)
        _check_attribute_count(self.m)
        # each row packed into the narrowest unsigned integer that holds m
        # bits, first column most significant, so sorted codes follow the
        # lexicographic order of the rows; up to 16 bits numpy's stable sort
        # is a radix sort
        code = np.zeros(self.n, dtype=np.min_scalar_type((1 << self.m) - 1))
        # the 0/1 columns as uint8, so that |= keeps the code's dtype
        for column in z.T.view(np.uint8):
            code <<= 1
            code |= column
        order = np.argsort(code, kind="stable")
        code = code[order]
        starts = np.flatnonzero(np.concatenate(([True], code[1:] != code[:-1])))
        codes = code[starts].astype(np.int64)
        sizes = np.diff(starts, append=self.n)
        bits = np.arange(self.m - 1, -1, -1, dtype=np.int64)
        self.patterns = (codes[:, None] >> bits) & 1
        self.members = np.split(order.astype(np.uint32), starts[1:])

        ai, bi = np.triu_indices(codes.size)
        counts = np.where(
            ai == bi,
            sizes[ai] * (sizes[ai] - 1) // 2,
            sizes[ai] * sizes[bi],
        ).astype(np.float64)
        keep = counts > 0
        self.class_a = ai[keep]
        self.class_b = bi[keep]
        self.dyad_counts = counts[keep]

        pa = self.patterns[self.class_a]
        pb = self.patterns[self.class_b]
        stats = np.empty((self.class_a.size, 1 + 2 * self.m), dtype=np.float64)
        stats[:, 0] = 1.0
        stats[:, 1::2] = (pa == pb).astype(np.float64)
        stats[:, 2::2] = (pa + pb).astype(np.float64)
        self.statistics = stats

    def probabilities(self, theta: np.ndarray) -> np.ndarray:
        if theta.size != self.statistics.shape[1]:
            raise ValueError("model and attribute matrix disagree on attribute count")
        # libm's exp per class: numpy's vectorized exp can differ in the last
        # ulp with the host's instruction set, and so would the draws
        return np.array([_logistic(v) for v in (self.statistics @ theta).tolist()])

    def expected(self, theta: np.ndarray) -> np.ndarray:
        return self.statistics.T @ (self.dyad_counts * self.probabilities(theta))


def _target_statistics(
    attribute_targets: list[AttributeTargets], mean_degree: float, classes: _PatternClasses
) -> np.ndarray:
    n = classes.n
    total = n * mean_degree / 2.0
    goal = np.empty(1 + 2 * classes.m)
    goal[0] = total
    sizes = np.array([members.size for members in classes.members], dtype=np.int64)
    z_counts = sizes @ classes.patterns
    for k, target in enumerate(attribute_targets):
        n1 = int(z_counts[k])
        try:
            ratio = target.homophily_ratio
            if ratio is None:
                ratio = ratio_from_assortativity(target.assortativity, n1 / n, target.diff_activity)
            realized = NetworkTargets(n, n1 / n, mean_degree, target.diff_activity, ratio)
        except ValueError as exc:
            raise InfeasibleTargetsError(
                f"attribute {target.name!r} at realized group sizes ({n1}, {n - n1}): {exc}"
            ) from None
        solution = solve_dyad_classes(realized)
        goal[1 + 2 * k] = solution.e11 + solution.e00
        goal[2 + 2 * k] = 2.0 * solution.e11 + solution.e10
    return goal


def fit_dyad_model(attribute_targets, mean_degree: float, z: np.ndarray) -> DyadModel:
    """Fit dyad-model coefficients so expected statistics hit their targets.

    Per-attribute moment targets (matched edges, group-1 edge ends) are
    derived from each attribute's realized group sizes in ``z`` combined
    with its target differential activity and homophily; the total edge
    target is ``n * mean_degree / 2``. Damped Newton iteration on the
    exponential-family moment map, with the analytic Jacobian
    ``sum_class count * pi * (1 - pi) * g g^T``.

    Args:
        attribute_targets: One :class:`AttributeTargets` per column of ``z``.
        mean_degree: Target average degree.
        z: Binary attribute matrix, shape (n, m).

    Returns:
        Fitted :class:`DyadModel`.

    Raises:
        ValueError: If ``z`` has fewer than two rows or ``mean_degree`` is
            outside ``(0, n - 1]``, the bounds of :class:`NetworkTargets`.
        InfeasibleTargetsError: If any per-attribute moment solve fails, or an
            attribute's group in ``z`` is empty or its assortativity is out of
            reach at the realized prevalence (named with the group sizes).
        FitConvergenceError: If some relative moment residual is above
            ``_FIT_TOL`` after ``_FIT_MAX_ITER`` Newton steps; carries the
            final residual vector.
    """
    attribute_targets = list(attribute_targets)
    classes = _PatternClasses(z)
    if len(attribute_targets) != classes.m:
        raise ValueError("need exactly one AttributeTargets per attribute column")
    _check_population(classes.n, mean_degree)
    goal = _target_statistics(attribute_targets, mean_degree, classes)
    scale = np.maximum(np.abs(goal), 1.0)

    n = classes.n
    theta = np.zeros(1 + 2 * classes.m)
    density = min(max(mean_degree / (n - 1), 1e-12), 1.0 - 1e-9)
    theta[0] = log(density / (1.0 - density))

    def residual(vec: np.ndarray) -> np.ndarray:
        return classes.expected(vec) - goal

    res = residual(theta)
    best = np.max(np.abs(res) / scale)
    for _ in range(_FIT_MAX_ITER):
        if best <= _FIT_TOL:
            break
        pi = classes.probabilities(theta)
        weights = classes.dyad_counts * pi * (1.0 - pi)
        jacobian = classes.statistics.T @ (classes.statistics * weights[:, None])
        try:
            step = np.linalg.solve(jacobian, res)
        except np.linalg.LinAlgError as exc:
            raise FitConvergenceError(
                f"singular Jacobian at residual {best:.3g}", residuals=res
            ) from exc
        damping = 1.0
        for _ in range(20):
            candidate = theta - damping * step
            cand_res = residual(candidate)
            cand_norm = np.max(np.abs(cand_res) / scale)
            if cand_norm < best:
                theta, res, best = candidate, cand_res, cand_norm
                break
            damping *= 0.5
        else:
            raise FitConvergenceError(
                f"no descent found at residual {best:.3g}", residuals=res
            )
    if best > _FIT_TOL:
        raise FitConvergenceError(
            f"residual {best:.3g} above tolerance {_FIT_TOL} after {_FIT_MAX_ITER} iterations",
            residuals=res,
        )
    return DyadModel(theta)


def simulate_from_model(model: DyadModel, z: np.ndarray, rng: np.random.Generator) -> Graph:
    """Draw one network from a fitted dyad model given attributes ``z``.

    Each joint-pattern dyad class draws a binomial edge count at its tie
    probability, then places the edges on a uniform subset of the class
    dyads (exactly the independent-Bernoulli law).
    """
    classes = _PatternClasses(z)
    counts = _binomial_counts(classes, classes.probabilities(model.theta), rng)
    return _draw_graph(classes, counts, rng)
