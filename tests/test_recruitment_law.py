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
"""

import itertools
import math
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from scipy.stats import chi2

from rdsim import Graph, SamplerConfig, run_rds

# A correct sampler fails each case with probability at most LAW_ALPHA, fixed
# before any run; the cases keep to at most about 200 outcomes, so that every
# expected count over LAW_RUNS runs stays near 5 or more.
LAW_ALPHA = 1e-3
LAW_RUNS = 4000
LAW_SEED = 2032

NODES = 8
# one component with degrees 1 to 4: node 7 hangs off node 5, so chains can die
CONNECTED = [(0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (1, 4), (2, 3), (3, 5), (4, 5), (5, 6), (5, 7), (4, 6)]
# a 5-node and a 3-node component: a run that starts in one must reseed to reach the other
TWO_COMPONENTS = [(0, 1), (0, 2), (1, 2), (2, 3), (3, 4), (5, 6), (6, 7)]


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


@pytest.mark.parametrize("case", CASES)
def test_run_rds_follows_the_exact_law(case):
    edges, seeds, coupons, target, selection, reseed = CASES[case]
    config = SamplerConfig(seeds, coupons, target, selection, reseed)
    exact = law(edges, config)
    assert sum(exact.values()) == 1
    assert len(exact) <= 200
    # each case reaches the rules it is named for
    assert any(truncated for _, _, truncated in exact) == (not reseed)
    assert any(reseeds for _, reseeds, _ in exact) == (edges is TWO_COMPONENTS)

    src, dst = np.array(edges).T
    graph = Graph(NODES, src, dst)
    z = np.zeros(NODES, dtype=np.int8)
    rng = np.random.default_rng(LAW_SEED)
    observed = Counter()
    for _ in range(LAW_RUNS):
        forest = run_rds(graph, z, config, rng)
        entries = tuple(zip(forest.nodes.tolist(), forest.recruiters.tolist()))
        observed[entries, forest.reseed_count, forest.truncated] += 1
    assert set(observed) <= set(exact)

    expected = np.array([float(p) for p in exact.values()]) * LAW_RUNS
    counts = np.array([observed[outcome] for outcome in exact])
    statistic = ((counts - expected) ** 2 / expected).sum()
    assert chi2.sf(statistic, len(exact) - 1) >= LAW_ALPHA
