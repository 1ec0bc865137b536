"""The list-based Inver-over loop against the numpy-indexed reference.

``reference_inver_over.inver_over_py`` is the original loop that draws from
``numpy.random.RandomState`` one call at a time.  ``_kernels.run_inver_over``
must reproduce its final population bit for bit.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import reference_inver_over as reference
from conftest import INSTANCES
from ttpsolve import _kernels
from ttpsolve.instance_io import _ceil2d, parse_instance


def run_both(pop, dist, generations, p_random, seed):
    """The final populations of the loop and of the reference, each run on
    a copy of ``pop``."""
    results = []
    for loop in (_kernels.run_inver_over, reference.inver_over_py):
        out = pop.copy()
        loop(out, dist, generations, p_random, seed)
        results.append(out)
    return results


def assert_bit_identical(results):
    pop, ref_pop = results
    assert pop.dtype == ref_pop.dtype and pop.tobytes() == ref_pop.tobytes()


@settings(max_examples=60, deadline=None)
@given(n=st.sampled_from([3, 4, 8, 16, 64, 76]),
       ps=st.sampled_from([2, 3, 32, 33]),
       p_random=st.sampled_from([0.0, 0.02, 1.0]),
       generations=st.integers(0, 4),
       spread=st.sampled_from([3, 100]),
       layout=st.integers(0, 2**32 - 1),
       seed=st.integers(0, 2**31 - 2))
@example(n=4, ps=2, p_random=0.02, generations=40, spread=3, layout=0, seed=0)
@example(n=64, ps=33, p_random=1.0, generations=3, spread=100, layout=1, seed=1)
@example(n=300, ps=3, p_random=0.02, generations=2, spread=100, layout=2, seed=3)
@example(n=5, ps=2, p_random=0.0, generations=1, spread=100, layout=0, seed=1)
def test_inver_over_matches_reference(n, ps, p_random, generations, spread, layout, seed):
    """Power-of-two ``n`` and ``ps`` hit the rejection mask's edge; a small
    coordinate spread gives duplicate cities and zero-length edges.  At
    n = 300 the city labels lie above CPython's small-int cache, so the
    loop's ``list.index`` lookups match by value, not identity.  The n = 5
    example makes one reversal, which wraps past index 0; the n = 4 one
    reverses a segment that starts at index 0."""
    rng = np.random.default_rng(layout)
    xy = rng.integers(0, spread, size=(n, 2)).astype(np.float64)
    dist = _ceil2d(xy[:, None], xy[None])
    pop = np.array([rng.permutation(n) for _ in range(ps)], np.int64)
    assert_bit_identical(run_both(pop, dist, generations, p_random, seed))


@pytest.mark.parametrize("name", ["tiny4.ttp", "eil51_n50_uncorr.ttp", "eil76_n75_uncorr.ttp"])
def test_inver_over_matches_reference_on_instances(name):
    inst = parse_instance((INSTANCES / name).read_text())
    rng = np.random.default_rng(3)
    pop = np.array([np.concatenate(([0], rng.permutation(np.arange(1, inst.n))))
                    for _ in range(50)], np.int64)
    dist = _ceil2d(inst.coords[:, None], inst.coords[None])
    assert_bit_identical(run_both(pop, dist, 20, 0.02, 11))


SPECIAL_RANGES = [1, 2, 3, 4, 5, 7, 8, 9, 16, 17, 33, 64, 75, 76,
                  2**16, 2**31 - 1, 2**31, 2**31 + 1, 2**32]


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1),
       calls=st.lists(st.one_of(st.none(), st.sampled_from(SPECIAL_RANGES),
                                st.integers(1, 2**32)), max_size=200))
def test_replay_matches_random_state(seed, calls):
    """``None`` stands for ``random_sample()``, an int r for ``randint(r)``."""
    rs = np.random.RandomState(seed)
    replay = _kernels._RandomStateReplay(seed)
    for r in calls:
        if r is None:
            assert replay.random_sample() == rs.random_sample()
        else:
            assert replay.randint_of(r)() == rs.randint(r)


def test_replay_carries_words_across_chunks():
    """Several chunks of words, with odd word counts between the two-word
    ``random_sample`` draws, so some straddle a chunk boundary."""
    rs = np.random.RandomState(5)
    replay = _kernels._RandomStateReplay(5)
    draws = {r: replay.randint_of(r) for r in (1, 2, 3, 33, 2**31 + 1)}
    for step in range(3 * _kernels._RandomStateReplay._CHUNK):
        r = (1, 2, 3, 33, 2**31 + 1, None)[step % 6]
        if r is None:
            assert replay.random_sample() == rs.random_sample()
        else:
            assert draws[r]() == rs.randint(r)
    assert replay.random_sample() == rs.random_sample()
