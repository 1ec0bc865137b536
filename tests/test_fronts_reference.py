"""The vectorised front algebra equals the loop-based reference bit for bit."""

import dataclasses
import functools
from unittest import mock

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ttpsolve import evolve, fronts
from ttpsolve.pwt_dp import REWARD_EQ_ATOL, DpFront, merge_fronts, staircase

import reference_fronts as ref

# reward offsets of a point from its weight's shared ladder value: equal,
# within, at and just beyond the cross-front tolerance, and clearly apart
JITTER = (0.0, 0.0, 0.0, 0.5 * REWARD_EQ_ATOL, REWARD_EQ_ATOL, -REWARD_EQ_ATOL,
          1.5 * REWARD_EQ_ATOL, -3.0, 2.5)


def make_front(rewards, weights, capacity):
    n = len(rewards)
    return DpFront(tour=np.array([1]), rewards=np.asarray(rewards, np.float64),
                   weights=np.asarray(weights, np.int64),
                   plans_packed=np.zeros((n, 0), np.uint8), m=0, capacity=capacity)


@st.composite
def populations(draw):
    """Strict-staircase fronts that share, nearly share and dominate points.

    Fronts draw their rewards from one ladder over the weights, so equal
    weights give equal or near-equal rewards; a per-front offset lets one
    front dominate another.  Some fronts are repeated (as the same object
    or as a copy), and some populations are shifted to all rewards <= 0.
    """
    capacity = draw(st.integers(1, 12))
    steps = draw(st.lists(st.integers(1, 5), min_size=capacity + 1, max_size=capacity + 1))
    # with no shift the ladder starts at exactly 0.0, where a jitter of
    # REWARD_EQ_ATOL lands exactly on the tolerance
    ladder = (np.cumsum(steps) - steps[0]) * 10.0 + draw(st.sampled_from([0.0, -35.5, 3.25]))
    pop = []
    for _ in range(draw(st.integers(1, 6))):
        weights = sorted(draw(st.sets(st.integers(0, capacity), min_size=1)))
        offset = draw(st.sampled_from([0.0, 0.0, -15.0, 15.0]))
        rewards = [ladder[w] + offset + draw(st.sampled_from(JITTER)) for w in weights]
        pop.append(make_front(rewards, weights, capacity))
    for i in draw(st.lists(st.integers(0, len(pop) - 1), max_size=3)):
        f = pop[i]
        pop.append(f if draw(st.booleans()) else
                   make_front(f.rewards.copy(), f.weights.copy(), capacity))
    if draw(st.booleans()):
        top = max(f.rewards.max() for f in pop)
        pop = [make_front(f.rewards - top, f.weights, capacity) for f in pop]
    return draw(st.permutations(pop))


SINGLE = [make_front([-4.0, 2.0, 7.5], [0, 3, 5], 6)]
# the two weight-0 rewards differ by exactly REWARD_EQ_ATOL, so they are shared
AT_TOLERANCE = [make_front([0.0, 5.0], [0, 2], 4),
                make_front([REWARD_EQ_ATOL, 6.0], [0, 3], 4)]


# every front holds a head (a point that stands for a surface point), so the
# first removal always reruns the pool's scan; removing the second front
# uncovers the first's (4, 2)
HEAD_REMOVED = [make_front([2.0, 4.0], [0, 2], 4),
                make_front([0.0, 5.0], [0, 2], 4),
                make_front([1.0, 6.0], [0, 3], 4)]


# the minimum-value fronts hold only shared surface points: A and its exact
# copy share (1, 0) and (3, 2), which A, listed first, holds the heads of;
# C alone holds (5, 4).  Removing the copy first is a removal of a front
# without heads that still changes A's LHV, which becomes exclusive.
SHARED_A = make_front([1.0, 3.0], [0, 2], 6)
SHARED_MIN = [SHARED_A, make_front([1.0, 3.0], [0, 2], 6), make_front([0.5, 5.0], [0, 4], 6)]
COPY_FIRST, A_FIRST = 0, 1   # seeds whose first tie-break picks index 1 / index 0
# the third front has an empty membership row (every point is dominated),
# so the first removal, its own, needs no rescoring; the second does
DOMINATED = [SHARED_A, SHARED_MIN[2], make_front([0.0, 2.0], [0, 2], 6)]


def assert_same_array(got, want):
    assert got.dtype == want.dtype
    assert np.array_equal(got, want)


@settings(max_examples=300, deadline=None)
@given(populations())
@example(SINGLE)
@example(AT_TOLERANCE)
def test_surface_and_indicators_match_reference(pop):
    got, want = fronts.surface(pop), ref.surface(pop)
    assert_same_array(got.rewards, want.rewards)
    assert_same_array(got.weights, want.weights)
    assert_same_array(got.membership, want.membership)
    for kind in fronts.INDICATOR_KINDS:
        expect = ref.all_indicators(want, kind)
        values = fronts.all_indicators(got, kind)
        assert values.dtype == expect.dtype
        assert values.tolist() == expect.tolist()


@st.composite
def staircases(draw):
    """The staircase of random points, a subset of it, and a capacity.

    Weights come from a small range, where many points share a weight, or
    from beyond 2**53, where distinct int64 weights can round to one float.
    """
    n = draw(st.integers(0, 40))
    base = draw(st.sampled_from([0, 2**62]))
    weights = np.array(draw(st.lists(st.integers(0, draw(st.sampled_from([12, 5000]))),
                                     min_size=n, max_size=n)), np.int64) + base
    rewards = np.array(draw(st.lists(st.floats(-20.0, 1e4, allow_subnormal=False),
                                     min_size=n, max_size=n)), np.float64)
    keep = staircase(rewards, weights)
    subset = draw(st.lists(st.booleans(), min_size=keep.size, max_size=keep.size))
    keep = keep[np.array(subset, bool)]
    capacity = base + draw(st.integers(0, 5001))
    return rewards[keep], weights[keep], capacity


@settings(max_examples=300, deadline=None)
@given(staircases())
def test_hv_of_staircase_needs_no_sort(case):
    """On a staircase or any subset of one (weights ascending), ``_hv``
    without a sort equals the reference, which sorts, bit for bit."""
    got, want = fronts._hv(*case), ref._hv(*case)
    assert got.hex() == want.hex()


def assert_same_surface(got, want):
    assert_same_array(got.rewards, want.rewards)
    assert_same_array(got.weights, want.weights)
    assert_same_array(got.membership, want.membership)
    assert got.capacity == want.capacity


@st.composite
def removals(draw):
    """A population and a live index for each removal, down to one front."""
    pop = draw(populations())
    return pop, [draw(st.integers(0, k - 1)) for k in range(len(pop), 1, -1)]


@settings(max_examples=300, deadline=None)
@given(removals())
@example((HEAD_REMOVED, [1, 0]))
def test_pool_removals_match_reference(case):
    pop, order = case
    pool, live = fronts.SurfacePool(pop), list(pop)
    assert_same_surface(pool.surface, ref.surface(live))
    for i in order:
        live.pop(i)
        assert_same_surface(pool.remove(i), ref.surface(live))


@st.composite
def trimmings(draw):
    pop = draw(populations())
    return pop, draw(st.integers(0, len(pop) - 1)), draw(st.integers(0, 2**32 - 1))


@settings(max_examples=300, deadline=None)
@given(trimmings())
@example((HEAD_REMOVED, 1, 0))
@example((HEAD_REMOVED, 0, 7))
@example((SHARED_MIN, 1, COPY_FIRST))
@example((SHARED_MIN, 1, A_FIRST))
def test_trimming_matches_reference(case):
    """Same survivors in the same order, and the same tie-break draws; the
    survivors' values and the pool's surface are those of the survivors."""
    front_list, mu, seed = case
    for kind in fronts.INDICATOR_KINDS:
        values = ref.all_indicators(ref.surface(front_list), kind)
        pop = [evolve.Individual(tour=f.tour, front=f, value=float(v))
               for f, v in zip(front_list, values)]
        got_rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        # the reference first: the trimming rescores the survivors in place
        want = ref.trim(pop, mu, want_rng, kind)
        pool = fronts.SurfacePool(front_list)
        got = evolve.survivor_select(pop, mu, got_rng, kind, pool)
        assert [id(ind) for ind in got] == [id(ind) for ind in want]
        assert got_rng.bit_generator.state == want_rng.bit_generator.state
        if got:
            surf = ref.surface([ind.front for ind in got])
            want_values = ref.all_indicators(surf, kind)
            assert np.array([ind.value for ind in got]).tobytes() == want_values.tobytes()
            assert_same_surface(pool.surface, surf)


def expected_rescorings(front_list, mu, seed, kind):
    """``ref.trim``'s removals that drop a front holding a surface point
    and leave a front to rescore."""
    live = list(front_list)
    values = ref.all_indicators(ref.surface(live), kind)
    rng, count = np.random.default_rng(seed), 0
    while len(live) > mu:
        gone = int(rng.choice(np.flatnonzero(values == values.min())))
        contributed = ref.surface(live).membership[gone].any()
        live.pop(gone)
        if live:
            count += bool(contributed)
            values = ref.all_indicators(ref.surface(live), kind)
    return count


@settings(max_examples=200, deadline=None)
@given(trimmings())
@example((SHARED_MIN, 1, COPY_FIRST))
@example((DOMINATED, 1, 0))
def test_trimming_rescores_only_after_contributor_removals(case):
    """``all_indicators`` runs once per removal of a front that holds a
    surface point and never for a front with an empty membership row."""
    front_list, mu, seed = case
    for kind in fronts.INDICATOR_KINDS:
        values = fronts.all_indicators(fronts.surface(front_list), kind)
        pop = [evolve.Individual(tour=f.tour, front=f, value=float(v))
               for f, v in zip(front_list, values)]
        with mock.patch.object(fronts, "all_indicators", wraps=fronts.all_indicators) as spy:
            evolve.survivor_select(pop, mu, np.random.default_rng(seed), kind,
                                   fronts.SurfacePool(front_list))
        assert spy.call_count == expected_rescorings(front_list, mu, seed, kind)


@settings(max_examples=200, deadline=None)
@given(populations())
@example(SINGLE)
def test_archive_matches_reference(pop):
    """Fronts added one per batch match the reference after each add; the
    same fronts in one batch, or in two, match it after the last add (with
    one front, the first of two batches is empty)."""
    archive, want = evolve._Archive(pop[0].capacity), ref.ReferenceArchive()
    for f in pop:
        archive.add([f])
        want.add(f)
        assert_same_array(archive.rewards, want.rewards)
        assert_same_array(archive.weights, want.weights)
    half = len(pop) // 2
    for batches in ([pop], [pop[:half], pop[half:]]):
        batched = evolve._Archive(pop[0].capacity)
        for batch in batches:
            batched.add(batch)
        assert_same_array(batched.rewards, want.rewards)
        assert_same_array(batched.weights, want.weights)
        assert batched.best_reward == archive.best_reward
        assert np.array_equal(batched.best_tour, archive.best_tour)


def test_archive_best_tour_is_first_of_tied_tops():
    """Of two fronts tied on the top reward, the first one sets ``best_tour``."""
    low, first, second = (dataclasses.replace(make_front(r, [0, 2], 4), tour=np.array(t))
                          for r, t in (([1.0, 3.0], [1, 2, 3]), ([0.0, 7.5], [1, 3, 2]),
                                       ([2.0, 7.5], [1, 2, 3])))
    archive = evolve._Archive(4)
    archive.add([low, first, second])
    assert archive.best_reward == 7.5
    assert archive.best_tour.tolist() == [1, 3, 2]


def tour_front(rewards, weights, tour):
    return dataclasses.replace(make_front(rewards, weights, 4), tour=np.array(tour))


def test_archive_best_tour_is_the_lighter_of_reward_tied_tops():
    """Of two fronts tied on the top reward at different weights, the lighter
    top is the archive's top point, and its tour is ``best_tour``."""
    heavy = tour_front([0.0, 7.5], [0, 3], [1, 3, 2, 4])
    light = tour_front([1.0, 7.5], [0, 2], [1, 2, 3, 4])
    for batches in ([[heavy, light]], [[heavy], [light]]):
        archive = evolve._Archive(4)
        for batch in batches:
            archive.add(batch)
        assert (archive.best_reward, archive.weights[-1]) == (7.5, 2)
        assert archive.best_tour.tolist() == [1, 2, 3, 4]


def test_archive_keeps_its_tour_on_an_exact_tie_with_a_later_front():
    heavy = tour_front([0.0, 7.5], [0, 3], [1, 3, 2, 4])
    light = tour_front([1.0, 7.5], [0, 2], [1, 2, 3, 4])
    tied = tour_front([2.0, 7.5], [0, 2], [1, 2, 4, 3])
    archive = evolve._Archive(4)
    for front in (heavy, light, tied):
        archive.add([front])
    assert archive.best_tour.tolist() == [1, 2, 3, 4]


# the top point (6, 1) is the only point of the second front; the third
# front's (6, 2) and (1, 0) are dominated
SINGLE_POINT_TOP = [make_front([0.0, 5.0], [0, 3], 4), make_front([6.0], [1], 4),
                    make_front([1.0, 6.0], [0, 2], 4)]


@settings(max_examples=200, deadline=None)
@given(populations())
@example(SINGLE_POINT_TOP)
@example(HEAD_REMOVED)
@example(SHARED_MIN)
def test_merge_fronts_is_the_pairwise_fold(pop):
    """One merge of many fronts keeps the points and the tour of merging them
    two at a time; the tour is that of the earliest front holding the top point."""
    pop = [dataclasses.replace(f, tour=np.array([i])) for i, f in enumerate(pop)]
    merged, folded = merge_fronts(*pop), functools.reduce(merge_fronts, pop)
    assert_same_array(merged.rewards, folded.rewards)
    assert_same_array(merged.weights, folded.weights)
    top = merged.rewards[-1], merged.weights[-1]
    holder = next(i for i, f in enumerate(pop)
                  if ((f.rewards == top[0]) & (f.weights == top[1])).any())
    assert merged.tour.tolist() == folded.tour.tolist() == [holder]
