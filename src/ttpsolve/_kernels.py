"""Hot numeric kernels with a numba fast path and a pure-python fallback.

Set ``TTPSOLVE_NO_NUMBA=1`` to force the fallback path (useful for
debugging).  Both paths produce identical results for the DP merge.  The
Inver-over loops are stream-compatible only within one backend, because
numba's np.random is a separate Mersenne Twister instance: the jitted loop
seeds that one, while the fallback replays ``numpy.random.RandomState(seed)``
from raw 32-bit words drawn in bulk, applying RandomState's own masked
rejection for ``randint`` and its two-word formula for ``random_sample`` (the
legacy stream is frozen, so the replay is exact).  The segment-wise DP merge,
which serves a whole batch of tours, is numpy only.

Both numpy DP merges order cells by one rule, ``_merge_order``: a stable
sort by weight (within a segment) merges the keep run and the take run, each
already strictly increasing in weight, keep cell first at an equal weight;
a take cell then swaps ahead only where its reward is strictly greater.
That is the loop's ``old_b[i] >= tb[j]`` pick, so all three merges agree.
"""

import os

import numpy as np

NUMBA_ENABLED = os.environ.get("TTPSOLVE_NO_NUMBA", "").lower() not in ("1", "true", "yes")
if NUMBA_ENABLED:
    try:
        from numba import njit
    except ImportError:  # pragma: no cover
        NUMBA_ENABLED = False

if not NUMBA_ENABLED:
    def njit(*args, **kwargs):
        if len(args) == 1 and callable(args[0]):
            return args[0]
        return lambda func: func


# ---------------------------------------------------------------------------
# DP column merge
# ---------------------------------------------------------------------------

def _merge_order(key, b_all):
    """Merge order of keep cells followed by take cells, by ``key`` ascending.

    Both halves of ``key`` must be strictly increasing, so a key is shared
    by at most one keep/take pair.  The stable sort merges the two runs and
    puts the keep cell first at an equal key; a take cell then swaps ahead
    only if its reward is strictly greater.  Returns ``order`` and
    ``b_all[order]``.
    """
    order = np.argsort(key, kind="stable")
    k_sorted = key[order]
    b_sorted = b_all[order]
    swap = np.flatnonzero((k_sorted[1:] == k_sorted[:-1]) & (b_sorted[1:] > b_sorted[:-1]))
    order[swap], order[swap + 1] = order[swap + 1], order[swap]
    b_sorted[swap], b_sorted[swap + 1] = b_sorted[swap + 1], b_sorted[swap]
    return order, b_sorted


def dp_merge_py(old_w, old_b, item_w, item_p, rdist, vmax, nu, cap):
    """Vectorised keep-vs-take column update with dominance pruning.

    ``old_w``/``old_b`` is the predecessor column as a strictly increasing
    staircase (weight ascending, reward strictly increasing).  ``rdist`` is
    the rent-weighted distance remaining after the item's node.  Returns the
    pruned successor column plus back-links for plan reconstruction:
    ``(w, b, took, prev)`` where ``prev`` indexes the predecessor column.
    Cells are ordered by weight, then best reward first, the keep cell first
    on a full tie (``_merge_order``); a cell survives if it beats every cell
    before it.
    """
    k = int(np.searchsorted(old_w, cap - item_w, side="right"))
    tw = old_w[:k] + item_w
    tb = old_b[:k] + item_p - rdist * (1.0 / (vmax - nu * tw) - 1.0 / (vmax - nu * old_w[:k]))

    n_old = old_w.size
    w_all = np.concatenate((old_w, tw))
    order, b_sorted = _merge_order(w_all, np.concatenate((old_b, tb)))
    runmax = np.maximum.accumulate(b_sorted)
    keep = np.empty(b_sorted.size, bool)
    keep[0] = True
    keep[1:] = b_sorted[1:] > runmax[:-1]
    sel = order[keep]
    took = sel >= n_old
    return w_all[sel], b_sorted[keep], took.astype(np.uint8), sel - n_old * took


@njit(cache=True)
def _dp_merge_loop(old_w, old_b, item_w, item_p, rdist, vmax, nu, cap):
    n_old = old_w.size
    k = 0
    while k < n_old and old_w[k] + item_w <= cap:
        k += 1
    tw = np.empty(k, np.int64)
    tb = np.empty(k, np.float64)
    for t in range(k):
        tw[t] = old_w[t] + item_w
        tb[t] = old_b[t] + item_p - rdist * (
            1.0 / (vmax - nu * tw[t]) - 1.0 / (vmax - nu * old_w[t])
        )

    out_w = np.empty(n_old + k, np.int64)
    out_b = np.empty(n_old + k, np.float64)
    out_t = np.empty(n_old + k, np.uint8)
    out_p = np.empty(n_old + k, np.int64)
    i = 0
    j = 0
    cnt = 0
    last_b = -np.inf
    while i < n_old or j < k:
        if j >= k:
            pick_keep = True
        elif i >= n_old:
            pick_keep = False
        elif old_w[i] < tw[j]:
            pick_keep = True
        elif old_w[i] > tw[j]:
            pick_keep = False
        else:
            pick_keep = old_b[i] >= tb[j]
        if pick_keep:
            w, b, tk, pv = old_w[i], old_b[i], 0, i
            i += 1
        else:
            w, b, tk, pv = tw[j], tb[j], 1, j
            j += 1
        if b > last_b:
            out_w[cnt] = w
            out_b[cnt] = b
            out_t[cnt] = tk
            out_p[cnt] = pv
            last_b = b
            cnt += 1
    return out_w[:cnt], out_b[:cnt], out_t[:cnt], out_p[:cnt]


dp_merge_jit = _dp_merge_loop if NUMBA_ENABLED else None
dp_merge = dp_merge_jit if NUMBA_ENABLED else dp_merge_py


def dp_merge_segments(old_w, old_b, seg, n_seg, item_w, item_p, rdist, vmax, nu, cap):
    """``dp_merge_py`` applied to many columns at once, one item per column.

    The columns lie flat in ``old_w``/``old_b``, grouped by the
    non-decreasing segment id ``seg``; segment ``s`` takes the item
    ``(item_w[s], item_p[s], rdist[s])``.  Every segment's result equals
    ``dp_merge_py`` on that column bit for bit: the take rewards use the
    same expression in the same operand order, and the sort and pruning are
    the same within each segment.  Returns the flat successor columns
    ``(w, b, seg, took, prev)``; ``prev`` indexes the flat predecessor.
    Rewards must be finite.  Numpy only: there is no numba twin.
    """
    n_old = old_w.size
    src = np.flatnonzero(old_w + item_w[seg] <= cap)
    t_seg = seg[src]
    tw = old_w[src] + item_w[t_seg]
    tb = old_b[src] + item_p[t_seg] - rdist[t_seg] * (
        1.0 / (vmax - nu * tw) - 1.0 / (vmax - nu * old_w[src]))

    w_all = np.concatenate((old_w, tw))
    s_all = np.concatenate((seg, t_seg))

    # per segment: the order of dp_merge_py.  Weights never exceed cap, so
    # the key keeps segments apart, and within a segment both sides have
    # strictly increasing weights, as _merge_order needs.
    order, b_sorted = _merge_order(s_all * (cap + 1) + w_all, np.concatenate((old_b, tb)))
    s_sorted = s_all[order]
    # running max within each segment over a padded (segment x width) grid
    # whose column 0 is -inf, so runmax at cell pos is the best reward before pos
    counts = np.bincount(s_sorted, minlength=n_seg)
    width = int(counts.max()) + 1
    cell = s_sorted * width + np.arange(s_sorted.size) - (np.cumsum(counts) - counts)[s_sorted]
    grid = np.full(n_seg * width, -np.inf)
    grid[cell + 1] = b_sorted
    runmax = np.maximum.accumulate(grid.reshape(n_seg, width), axis=1).ravel()
    keep = b_sorted > runmax[cell]
    sel = order[keep]
    prev = np.concatenate((np.arange(n_old), src))[sel]
    return w_all[sel], b_sorted[keep], s_all[sel], (sel >= n_old).astype(np.uint8), prev


# ---------------------------------------------------------------------------
# Inver-over generation loop
# ---------------------------------------------------------------------------

@njit(cache=True)
def _inver_over_loop(pop, dist, generations, p_random, seed):
    """Canonical Inver-over over a population of cyclic 0-based tours.

    Mutates ``pop`` in place and returns the tour lengths.  Acceptance is
    monotone: a mutated individual replaces its ancestor only when not
    longer.
    """
    np.random.seed(seed)
    ps, n = pop.shape
    pos = np.empty((ps, n), np.int64)
    for s in range(ps):
        for idx in range(n):
            pos[s, pop[s, idx]] = idx
    lengths = np.zeros(ps, np.int64)
    for s in range(ps):
        for idx in range(n):
            lengths[s] += dist[pop[s, idx], pop[s, (idx + 1) % n]]

    cur = np.empty(n, np.int64)
    curpos = np.empty(n, np.int64)
    for _ in range(generations):
        for s in range(ps):
            cur[:] = pop[s]
            curpos[:] = pos[s]
            delta = 0
            c = cur[np.random.randint(n)]
            while True:
                if np.random.random() <= p_random:
                    c2 = cur[np.random.randint(n)]
                    while c2 == c:
                        c2 = cur[np.random.randint(n)]
                else:
                    other = np.random.randint(ps)
                    while other == s:
                        other = np.random.randint(ps)
                    c2 = pop[other, (pos[other, c] + 1) % n]
                i = curpos[c]
                succ = cur[(i + 1) % n]
                pred = cur[(i - 1) % n]
                if c2 == succ or c2 == pred:
                    break
                j = curpos[c2]
                nxt2 = cur[(j + 1) % n]
                delta += dist[c, c2] + dist[succ, nxt2] - dist[c, succ] - dist[c2, nxt2]
                # reverse the cyclic segment succ(c) .. c2
                a = (i + 1) % n
                b = j
                seg = (b - a) % n + 1
                for t in range(seg // 2):
                    ia = (a + t) % n
                    ib = (b - t) % n
                    ca, cb = cur[ia], cur[ib]
                    cur[ia], cur[ib] = cb, ca
                    curpos[ca], curpos[cb] = ib, ia
                c = c2
            if delta <= 0:
                pop[s] = cur
                pos[s] = curpos
                lengths[s] += delta
    return lengths


class _RandomStateReplay:
    """Replays ``numpy.random.RandomState(seed)`` draws from raw MT19937 words.

    Legacy ``RandomState`` promises a frozen stream.  ``randint(r)`` (for
    ``r - 1 < 2**32``) takes one 32-bit word per try and accepts its low
    bits ``w & mask`` once they are at most ``r - 1``, where ``mask`` is the
    smallest all-ones mask covering ``r - 1``; ``r == 1`` draws no word.
    ``random_sample()`` takes two words and returns
    ``((w1 >> 5) * 2**26 + (w2 >> 6)) / 2**53``.  ``randint(0, 2**32,
    dtype=uint32)`` hands out those same words one per value, so drawing
    them in chunks and replaying both rules on Python ints gives every
    value, and consumes every word, exactly as the per-call methods would.
    A chunk's unused words carry over to the next draw.
    """

    _CHUNK = 4096

    def __init__(self, seed):
        self._next_word = self._words(np.random.RandomState(seed)).__next__

    @classmethod
    def _words(cls, rs):
        while True:
            yield from rs.randint(0, 2**32, size=cls._CHUNK, dtype=np.uint32).tolist()

    def randint_of(self, r):
        """A function that replays ``RandomState.randint(r)`` on each call."""
        if r == 1:
            return lambda: 0
        next_word = self._next_word
        top = r - 1
        mask = (1 << top.bit_length()) - 1

        def randint():
            v = next_word() & mask
            while v > top:
                v = next_word() & mask
            return v
        return randint

    def random_sample(self):
        """Replays ``RandomState.random_sample()``."""
        next_word = self._next_word
        return ((next_word() >> 5) * 67108864.0 + (next_word() >> 6)) / 9007199254740992.0


def inver_over_py(pop, dist, generations, p_random, seed, hook=None):
    """Pure-python twin of the Inver-over loop; supports an acceptance hook.

    Mutates ``pop`` in place and returns the tour lengths, bit for bit as
    the scalar loop drawing from ``RandomState(seed)`` one call at a time:
    the loop runs on Python lists and replays those draws from bulk-drawn
    MT19937 words (see ``_RandomStateReplay``).
    ``hook(ancestor_length, accepted_length)`` fires on every acceptance,
    which lets tests assert the monotone-acceptance property directly.
    """
    ps, n = pop.shape
    d = dist.tolist()
    tours = pop.tolist()
    pos = np.argsort(pop, axis=1).tolist()
    lengths = [int(dist[pop[s], np.roll(pop[s], -1)].sum()) for s in range(ps)]
    rng = _RandomStateReplay(seed)
    random_city = rng.randint_of(n)
    random_other = rng.randint_of(ps)
    random_sample = rng.random_sample
    for _ in range(generations):
        for s in range(ps):
            cur = tours[s][:]
            curpos = pos[s][:]
            delta = 0
            c = cur[random_city()]
            while True:
                if random_sample() <= p_random:
                    c2 = cur[random_city()]
                    while c2 == c:
                        c2 = cur[random_city()]
                else:
                    other = random_other()
                    while other == s:
                        other = random_other()
                    c2 = tours[other][(pos[other][c] + 1) % n]
                i = curpos[c]
                succ = cur[(i + 1) % n]
                if c2 == succ or c2 == cur[i - 1]:
                    break
                j = curpos[c2]
                nxt2 = cur[(j + 1) % n]
                delta += d[c][c2] + d[succ][nxt2] - d[c][succ] - d[c2][nxt2]
                # reverse the cyclic segment succ(c) .. c2 in place
                a = (i + 1) % n
                if a <= j:
                    cur[a:j + 1] = cur[a:j + 1][::-1]
                    for k in range(a, j + 1):
                        curpos[cur[k]] = k
                else:
                    seg = cur[a:] + cur[:j + 1]
                    seg.reverse()
                    cur[a:] = seg[:n - a]
                    cur[:j + 1] = seg[n - a:]
                    for k in range(a, n):
                        curpos[cur[k]] = k
                    for k in range(j + 1):
                        curpos[cur[k]] = k
                c = c2
            if delta <= 0:
                if hook is not None:
                    hook(lengths[s], lengths[s] + delta)
                tours[s] = cur
                pos[s] = curpos
                lengths[s] += delta
    pop[:] = tours
    return np.array(lengths, np.int64)


inver_over_jit = _inver_over_loop if NUMBA_ENABLED else None


def run_inver_over(pop, dist, generations, p_random, seed, hook=None):
    """Dispatch to the jitted loop unless a hook demands the python twin."""
    if hook is None and inver_over_jit is not None:
        return inver_over_jit(pop, dist, generations, p_random, seed)
    return inver_over_py(pop, dist, generations, p_random, seed, hook=hook)
