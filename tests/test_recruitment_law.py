"""The law of a whole recruitment run, enumerated exactly on small graphs.

``law`` lists every outcome of a run with its exact probability, as
``fractions.Fraction``s, from the sampling rules alone: ordered uniform
seeds, or seeds drawn one by one with probability proportional to degree
among the nodes not yet drawn; then each entry in first-in-first-out order
recruits an ordered uniform draw of min(coupons, open neighbours, remaining
budget) of its neighbours not yet sampled; when every entry has recruited
and the sample is short, a uniform draw among the unsampled nodes reseeds
it, or the run ends truncated. It shares no code and no random stream with
``run_rds``: it reads the edge list, not the ``Graph``, and draws nothing.

An outcome is the entry sequence as (node, recruiter) pairs, with its
reseed count and truncation flag, which fixes the whole forest. Each case
draws ``LAW_RUNS`` runs of ``run_rds`` and tests their outcome counts
against the law by chi-square.

``exact_estimates`` gives every ``SampleEstimates`` field of an outcome as
a ``Fraction``, from the textbook formulas over the edge list and the
attribute ``Z``, sharing no code with ``sample_estimates``. Each field's
exact mean and variance under the law, given that the field is defined,
then bound the mean of ``sample_estimates`` over the same runs.
"""

import itertools
import math
from collections import Counter
from dataclasses import fields
from fractions import Fraction

import numpy as np
import pytest
from scipy.stats import chi2

from rdsim import Graph, SampleEstimates, SamplerConfig, run_rds, sample_estimates

# A correct sampler fails each case with probability at most LAW_ALPHA, fixed
# before any run; the cases keep to at most about 200 outcomes, so that every
# expected count over LAW_RUNS runs stays near 5 or more.
LAW_ALPHA = 1e-3
LAW_RUNS = 4000
LAW_SEED = 2032
# A run mean of a correct estimator lies more than MEAN_SES standard errors from
# its exact mean with probability about 6e-5 per field and case (the normal
# tail beyond 4), fixed before any run.
MEAN_SES = 4

NODES = 8
# one component with degrees 1 to 4: node 7 hangs off node 5, so chains can die
CONNECTED = [(0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (1, 4), (2, 3), (3, 5), (4, 5), (5, 6), (5, 7), (4, 6)]
# a 5-node and a 3-node component: a run that starts in one must reseed to reach the other
TWO_COMPONENTS = [(0, 1), (0, 2), (1, 2), (2, 3), (3, 4), (5, 6), (6, 7)]
# both groups in every component; run_rds draws the same runs whatever the attribute
Z = (1, 0, 0, 1, 0, 1, 1, 0)


def law(edges, config: SamplerConfig) -> dict:
    """{(entries, reseed count, truncated): exact probability} over every run on ``edges``."""
    neighbours = [[b for a, b in edges if a == v] + [a for a, b in edges if b == v] for v in range(NODES)]
    target, coupons, seeds = config.target_sample_size, config.coupons_per_node, config.num_seeds
    outcomes = Counter()

    def serve(entries, head, p):
        # entries[:head] have recruited; the rest wait in admission order
        sampled = {node for node, _ in entries}
        if len(entries) == target or (head == len(entries) and not config.reseed_on_death):
            reseeds = sum(recruiter < 0 for _, recruiter in entries) - seeds
            outcomes[entries, reseeds, len(entries) < target] += p
        elif head == len(entries):
            unsampled = [v for v in range(NODES) if v not in sampled]
            for v in unsampled:
                serve(entries + ((v, -1),), head, p / len(unsampled))
        else:
            recruiter = entries[head][0]
            open_ = [v for v in neighbours[recruiter] if v not in sampled]
            k = min(coupons, len(open_), target - len(entries))
            for picks in itertools.permutations(open_, k):
                recruits = tuple((v, recruiter) for v in picks)
                serve(entries + recruits, head + 1, p / math.perm(len(open_), k))

    starts = {(): Fraction(1)}
    for _ in range(seeds):
        drawn = {}
        for start, p in starts.items():
            rest = [v for v in range(NODES) if v not in {node for node, _ in start}]
            weights = [1] * len(rest)
            if config.seed_selection == "degree" and any(neighbours[v] for v in rest):
                weights = [len(neighbours[v]) for v in rest]
            for v, weight in zip(rest, weights):
                if weight:
                    drawn[start + ((v, -1),)] = p * Fraction(weight, sum(weights))
        starts = drawn
    for start, p in starts.items():
        serve(start, 0, p)
    return outcomes


CASES = {
    # (edges, seeds, coupons, target, seed selection, reseed on death)
    "two-coupons": (CONNECTED, 1, 2, 4, "uniform", True),
    "truncation": (CONNECTED, 1, 1, 5, "uniform", False),
    "reseeds": (TWO_COMPONENTS, 1, 2, 5, "uniform", True),
    "degree-seeds": (CONNECTED, 1, 2, 4, "degree", True),
    "degree-seeds-then-reseeds": (TWO_COMPONENTS, 1, 1, 4, "degree", True),
}


@pytest.fixture(scope="module", params=CASES)
def runs(request):
    """A case's name, exact law and graph, with ``LAW_RUNS`` runs of ``run_rds`` on it, shared by both tests."""
    edges, seeds, coupons, target, selection, reseed = CASES[request.param]
    config = SamplerConfig(seeds, coupons, target, selection, reseed)
    src, dst = np.array(edges).T
    graph = Graph(NODES, src, dst)
    rng = np.random.default_rng(LAW_SEED)
    forests = [run_rds(graph, np.array(Z, dtype=np.int8), config, rng) for _ in range(LAW_RUNS)]
    return request.param, law(edges, config), graph, forests


def outcome(forest):
    """The law's key for a forest: its entries as (node, recruiter) pairs, reseed count and truncation."""
    entries = tuple(zip(forest.nodes.tolist(), forest.recruiters.tolist()))
    return entries, forest.reseed_count, forest.truncated


def test_run_rds_follows_the_exact_law(runs):
    case, exact, _, forests = runs
    edges, _, _, _, _, reseed = CASES[case]
    assert sum(exact.values()) == 1
    assert len(exact) <= 200
    # each case reaches the rules it is named for
    assert any(truncated for _, _, truncated in exact) == (not reseed)
    assert any(reseeds for _, reseeds, _ in exact) == (edges is TWO_COMPONENTS)

    observed = Counter(outcome(forest) for forest in forests)
    assert set(observed) <= set(exact)

    expected = np.array([float(p) for p in exact.values()]) * LAW_RUNS
    counts = np.array([observed[key] for key in exact])
    statistic = ((counts - expected) ** 2 / expected).sum()
    assert chi2.sf(statistic, len(exact) - 1) >= LAW_ALPHA


def newman(ties):
    """Newman's assortativity of the attribute over ``ties``: (sum e_ii - sum a_i^2) / (1 - sum a_i^2)."""
    e = [[Fraction(0)] * 2 for _ in range(2)]
    for a, b in ties:
        e[Z[a]][Z[b]] += Fraction(1, 2 * len(ties))
        e[Z[b]][Z[a]] += Fraction(1, 2 * len(ties))
    square = sum(sum(row) ** 2 for row in e)
    return (e[0][0] + e[1][1] - square) / (1 - square) if ties and square != 1 else None


def exact_estimates(edges, outcome) -> dict:
    """Every ``SampleEstimates`` field of one outcome, as a Fraction, or None where it is undefined."""
    entries, reseeds, truncated = outcome
    degree = Counter(itertools.chain.from_iterable(edges))
    wave = {}
    for node, recruiter in entries:
        wave[node] = 0 if recruiter < 0 else wave[recruiter] + 1
    sampled = [node for node, _ in entries]
    groups = [[v for v in sampled if Z[v] == value] for value in (0, 1)]
    ends = [sum(degree[v] for v in group) for group in groups]
    inverse = [sum(Fraction(1, degree[v]) for v in group) for group in groups]
    ties = [(recruiter, node) for node, recruiter in entries if recruiter >= 0]
    cross = sum(Z[a] != Z[b] for a, b in ties)
    return {
        "sample_size": len(entries),
        "max_wave": max(wave.values()),
        "reseed_count": reseeds,
        "truncated": int(truncated),
        "diff_activity": (
            Fraction(ends[1], len(groups[1])) / Fraction(ends[0], len(groups[0])) if all(groups) and ends[0] else None
        ),
        "homophily": newman(ties),
        "homophily_ratio": Fraction(sum(Z[a] & Z[b] for a, b in ties), cross) if cross else None,
        "rds2_prevalence": inverse[1] / sum(inverse),
        "crude_prevalence": Fraction(len(groups[1]), len(entries)),
        "induced_homophily": newman([(a, b) for a, b in edges if a in sampled and b in sampled]),
    }


def test_sample_estimates_match_their_exact_means(runs):
    case, exact, graph, forests = runs
    edges = CASES[case][0]
    names = [f.name for f in fields(SampleEstimates) if f.name != "attribute_names"]
    values = {outcome: exact_estimates(edges, outcome) for outcome in exact}
    assert all(list(row) == names for row in values.values())
    drawn = {name: [] for name in names}
    for forest in forests:
        estimates = sample_estimates(forest, graph)
        for name in names:
            value = getattr(estimates, name)
            value = value[0] if isinstance(value, tuple) else value
            # defined in a run exactly where the law's outcome defines it
            assert (value is None) == (values[outcome(forest)][name] is None), name
            if value is not None:
                drawn[name].append(float(value))
    for name in names:
        defined = {key: p for key, p in exact.items() if values[key][name] is not None}
        p_defined = sum(defined.values())
        mean = sum(p * values[key][name] for key, p in defined.items()) / p_defined
        variance = sum(p * values[key][name] ** 2 for key, p in defined.items()) / p_defined - mean**2
        se = math.sqrt(variance / len(drawn[name]))
        assert abs(np.mean(drawn[name]) - float(mean)) <= MEAN_SES * se, (name, float(mean), se)
