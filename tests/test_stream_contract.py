"""The numpy calls the random streams consume, pinned at one fixed state.

Every rdsim stream is a sequence of numpy ``Generator`` calls, so each
output byte rests on what those calls return for a given state.
``tests/test_golden.py`` fails when any output moves; this module names the
call that moved. Each test seeds ``default_rng`` from one entropy tuple
shaped like the harness's, makes one call with the argument shapes the
streams use, and pins its first values and the next raw 64-bit word, so a
call that consumes the stream differently fails too.

The pins were made with numpy 2.4.6, the version ``golden_digests.json``
records. On another numpy a failing test here names the call whose draws
changed.
"""

from __future__ import annotations

import numpy as np
import pytest

PINNED_NUMPY = "2.4.6"

# master seed, stream tag, then plan fields, as in harness's _entropy
ENTROPY = (11, 2, 1000, 99900, 5, 2, 0, 0, 300000, 2)


def drawn(call):
    """``call`` applied to a fresh generator at ``ENTROPY``, and the raw word that follows it."""
    rng = np.random.default_rng(ENTROPY)
    values = call(rng)
    return values, int(rng.bit_generator.random_raw())


def assert_pinned(got, want):
    assert got == want, f"numpy {np.__version__} draws {got}; numpy {PINNED_NUMPY} drew {want}"


def test_default_rng_from_an_entropy_tuple():
    state = np.random.default_rng(ENTROPY).bit_generator.state
    assert_pinned(
        (state["bit_generator"], state["state"]["state"], state["state"]["inc"]),
        ("PCG64", 209954022091201282772209944407878229813, 93586807369600346423857088330297460841),
    )


def test_random():
    # run_rds: one uniform per non-seed entry
    assert_pinned(
        drawn(lambda rng: rng.random(4).tolist()),
        ([0.8668733698302951, 0.7557600519243834, 0.9809583622415671, 0.13828867296500202], 12127696426460331517),
    )


def test_choice_without_replacement():
    # _select_seeds, uniform seeds: the shuffled call, since seed order is recruitment order
    assert_pinned(
        drawn(lambda rng: rng.choice(1000, 5, replace=False).tolist()),
        ([864, 637, 193, 755, 565], 10634140421252683704),
    )


def test_choice_with_probabilities():
    # _select_seeds, degree-weighted seeds: one pick per call
    weights = np.arange(1, 1001, dtype=float)
    weights /= weights.sum()
    assert_pinned(
        drawn(lambda rng: [int(rng.choice(1000, p=weights)) for _ in range(4)]),
        ([931, 869, 990, 371], 12127696426460331517),
    )


def test_integers():
    # _select_seeds, degree-weighted seeds once only isolated nodes are left
    assert_pinned(
        drawn(lambda rng: [int(rng.integers(k)) for k in (2, 7, 1000, 40400)]),
        ([0, 6, 638, 30532], 18095487855235456604),
    )


def test_binomial():
    # class edge counts, from a small class to a full-scale engage class
    shapes = ((10, 0.5), (44850, 0.1), (204020100, 0.0004), (816_000_000, 0.00002))
    assert_pinned(
        drawn(lambda rng: [int(rng.binomial(count, q)) for count, q in shapes]),
        ([7, 4421, 81492, 16439], 5786378772463354191),
    )


def test_standard_normal():
    # the covariate draw's latent normals, one row per node
    assert_pinned(
        drawn(lambda rng: rng.standard_normal((4, 3)).tolist()),
        (
            [
                [-0.8995174272909788, -0.045101444126022155, 1.0965306198868054],
                [-0.24566910576725973, -0.8617692720654393, -1.1953617709166697],
                [-1.3846165750963961, -1.4092966531552353, -0.6407624472529705],
                [-0.6134528865880698, 1.2698859973570946, 0.07372404452713174],
            ],
            13558336073022374904,
        ),
    )


def test_unshuffled_choice_by_floyds_algorithm():
    # class dyads, k <= population // 20: Floyd's algorithm
    assert_pinned(
        drawn(lambda rng: rng.choice(10**6, 6, replace=False, shuffle=False).tolist()),
        ([194429, 866869, 638487, 755758, 565251, 980958], 2550975758478311386),
    )


def test_unshuffled_choice_by_tail_shuffle():
    # class dyads, k > population // 20 above a population of 10,000: a partial shuffle of the range
    assert_pinned(
        drawn(lambda rng: rng.choice(20_000, 1_500, replace=False, shuffle=False)[:6].tolist()),
        ([7013, 10957, 17793, 13631, 768, 3640], 6326860291961933815),
    )


@pytest.mark.parametrize(
    "population, k",
    [
        (5_000, 300),  # at most 10,000: Floyd's algorithm for both calls
        (10**6, 20_000),  # k <= population // 50: Floyd's algorithm for both calls
        (20_000, 1_500),  # k > population // 20: the tail shuffle for both calls
    ],
)
def test_unshuffled_choice_draws_the_shuffled_set_on_the_same_path(population, k):
    shuffled = np.random.default_rng(ENTROPY).choice(population, k, replace=False)
    unshuffled = np.random.default_rng(ENTROPY).choice(population, k, replace=False, shuffle=False)
    assert np.array_equal(np.sort(shuffled), np.sort(unshuffled))


def test_unshuffled_choice_draws_another_set_between_the_cutoffs():
    # population // 50 < k <= population // 20: the tail shuffle with the shuffle, Floyd's without
    shuffled = np.random.default_rng(1).choice(10**6, 50_000, replace=False)
    unshuffled = np.random.default_rng(1).choice(10**6, 50_000, replace=False, shuffle=False)
    assert not np.array_equal(np.sort(shuffled), np.sort(unshuffled))
