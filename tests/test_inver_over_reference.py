"""The table-driven Inver-over loop against the numpy-indexed reference.

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
@example(n=256, ps=3, p_random=0.02, generations=2, spread=100, layout=3, seed=4)
@example(n=257, ps=3, p_random=0.02, generations=2, spread=100, layout=4, seed=5)
@example(n=8, ps=257, p_random=0.0, generations=2, spread=100, layout=5, seed=6)
def test_inver_over_matches_reference(n, ps, p_random, generations, spread, layout, seed):
    """Power-of-two ``n`` and ``ps`` hit the rejection mask's edge; a small
    coordinate spread gives duplicate cities and zero-length edges.  At
    n = 300 the city labels lie above CPython's small-int cache, so the
    loop's ``list.index`` lookups match by value, not identity.  The n = 5
    example makes one reversal, which wraps past index 0; the n = 4 one
    reverses a segment that starts at index 0.  The loop holds a tour in a
    ``bytearray`` up to n = 256, whose tours hold city 255, and in a list
    from n = 257 on.  At ps = 257 every partner draw of the non-random
    branch reads a 9-bit mask, so word bits above the low byte decide it."""
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


def test_inver_over_matches_reference_across_chunks(monkeypatch):
    """With ``p_random = 1`` every step takes a random partner city, whose
    draw is rejected about 40% of the time on eil76 (76 of 128 masked
    values are cities), so a call reads several chunks and some refills
    land inside a rejection retry."""
    refill = _kernels._RandomStateReplay.refill
    refills = []

    def counting_refill(self, k):
        refills.append(k)
        return refill(self, k)

    monkeypatch.setattr(_kernels._RandomStateReplay, "refill", counting_refill)
    inst = parse_instance((INSTANCES / "eil76_n75_uncorr.ttp").read_text())
    rng = np.random.default_rng(5)
    pop = np.array([np.concatenate(([0], rng.permutation(np.arange(1, inst.n))))
                    for _ in range(50)], np.int64)
    dist = _ceil2d(inst.coords[:, None], inst.coords[None])
    assert_bit_identical(run_both(pop, dist, 5, 1.0, 7))
    assert len(refills) >= 5


class TableWalk:
    """Reads ``_RandomStateReplay``'s tables by ``run_inver_over``'s rules:
    ``randint(r)`` is the masked rejection on ``words``, and a
    ``random_sample()`` is the two words at ``k`` with its flag ``low[k]``.
    Each read is preceded by the kernel's refill check."""

    def __init__(self, seed, p_random):
        self.replay = _kernels._RandomStateReplay(seed, p_random)
        self.words, self.low, self.limit = self.replay.refill(0)
        self.k = 0
        self.refills = 0

    def check(self):
        if self.k > self.limit:
            self.words, self.low, self.limit = self.replay.refill(self.k)
            self.k = 0
            self.refills += 1

    def randint(self, r):
        top = r - 1
        mask = (1 << top.bit_length()) - 1
        self.check()
        v = self.words[self.k] & mask
        self.k += 1
        while v > top:
            self.check()
            v = self.words[self.k] & mask
            self.k += 1
        return v

    def random_sample(self):
        """The value and its ``low`` flag."""
        self.check()
        k = self.k
        self.k += 2
        w1, w2 = self.words[k], self.words[k + 1]
        return ((w1 >> 5) * 67108864.0 + (w2 >> 6)) / 9007199254740992.0, self.low[k]


def assert_walk_matches(seed, p_random, calls):
    """``None`` stands for ``random_sample()``, an int r for ``randint(r)``."""
    rs = np.random.RandomState(seed)
    walk = TableWalk(seed, p_random)
    for r in calls:
        if r is None:
            value, low = walk.random_sample()
            assert value == rs.random_sample()
            assert low == (value <= p_random)
        else:
            assert walk.randint(r) == rs.randint(r)
    return walk


SPECIAL_RANGES = [2, 3, 4, 5, 7, 8, 9, 16, 17, 33, 64, 75, 76,
                  2**16, 2**31 - 1, 2**31, 2**31 + 1, 2**32]


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1),
       p_random=st.sampled_from([0.0, 0.02, 1.0, None]),
       calls=st.lists(st.one_of(st.none(), st.sampled_from(SPECIAL_RANGES),
                                st.integers(2, 2**32)), max_size=200))
def test_replay_matches_random_state(seed, p_random, calls):
    """``p_random = None`` stands for the walk's first ``random_sample()``
    value, so that draw sits exactly on the threshold and must read low."""
    if p_random is None:
        p_random = np.random.RandomState(seed).random_sample()
    assert_walk_matches(seed, p_random, [None] + calls)


def test_replay_carries_words_across_chunks():
    """Several chunks of words, with odd word counts between the two-word
    ``random_sample`` draws, so refills carry tails of different lengths;
    one threshold is a sample drawn after the second refill."""
    pattern = (2, 3, 33, 2**31 + 1, None)
    calls = [pattern[step % 5] for step in range(4 * _kernels._RandomStateReplay._CHUNK)]
    rs = np.random.RandomState(5)
    samples = []
    for r in calls:
        if r is None:
            samples.append(rs.random_sample())
        else:
            rs.randint(r)
    for p_random in (0.0, 0.02, 1.0, samples[2 * len(samples) // 3]):
        assert assert_walk_matches(5, p_random, calls).refills >= 3
