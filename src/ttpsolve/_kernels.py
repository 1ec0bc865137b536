"""The two hot kernels: the exact DP column merge and the Inver-over loop.

Each kernel has one source, in numpy and plain Python, so a run depends
only on its seed.  Every Pareto filter is one running max,
``staircase_heads``.  ``dp_merge`` updates one DP column with back-links;
``dp_merge_segments`` updates many columns of a batch at once, points only.
Both prune by one rule, ``_survivors``: a stable sort by weight (within a
segment) merges the keep run and the take run, each already strictly
increasing in weight, keep cell first at an equal weight; a cell survives
if its reward beats every reward before it, and where both cells of an
equal-weight pair survive, the keep cell is dropped.  The running max after
a pair does not depend on the pair's order, and a take survives exactly
when it would ahead of its keep, so this keeps the cells of the scalar
merge's ``old_b[i] >= tb[j]`` pick, and both merges equal it
(``tests/reference_dp_merge.py``).

``run_inver_over`` runs on byte tours (a ``bytearray`` per tour) up to 256
cities and on Python lists above that; one loop body serves both, since
indexing, slicing, ``index`` and ``reverse`` mean the same on either, and
on bytes ``index`` is a ``memchr`` and a slice copies no object references.
It replays ``numpy.random.RandomState(seed)`` from raw 32-bit words drawn
in chunks (the legacy stream is frozen, so the replay is exact).  Each
chunk comes as two tables that build no Python lists: a ``memoryview`` of
the words and a ``bytes`` flag per word saying whether the
``random_sample`` starting there is at most ``p_random``; the loop applies
RandomState's masked rejection for ``randint`` inline on the words.  The
partner city of the non-random branch comes from a successor dict per
tour, rebuilt only when a tour is replaced.  The current city's index
``i`` is carried from step to step: a reversal puts the partner city
``c2`` at ``i + 1``, which is where the walk goes next; ``c2``'s index
comes from the tour's ``index``.
"""

import numpy as np

# perfbench's result stamp reads this; there is no compiled backend
NUMBA_ENABLED = False


# ---------------------------------------------------------------------------
# Running-max filter and DP column merge
# ---------------------------------------------------------------------------

def staircase_heads(values, order):
    """The entries of ``order`` whose value (not NaN) beats every value
    before them; on a subsequence of ``pwt_dp.staircase_order``, the
    staircase of those points."""
    v = values[order]
    keep = np.empty(v.size, bool)
    keep[:1] = True
    # without NaN, fmax is maximum, and runs faster
    np.greater(v[1:], np.fmax.accumulate(v)[:-1], out=keep[1:])
    # gathering through nonzero beats a boolean mask at DP column sizes
    return order[keep.nonzero()[0]]


def _survivors(key, b_all, seg=None):
    """Indices of the cells that survive the merge, in merge order.

    ``b_all`` holds the keep cells followed by the take cells and ``key``
    their sort keys; both halves of ``key`` must be strictly increasing, so
    a key is shared by at most one keep/take pair.  The stable sort merges
    the two runs, keep cell first at an equal key, and a cell survives if
    its reward beats every reward before it (within its segment, where
    ``seg`` gives the cells' segment ids).  Where both cells of an
    equal-key pair survive, the take beat its keep and the keep is dropped.
    """
    v = b_all
    if seg is not None:
        # numpy orders complex numbers lexicographically, so a (segment,
        # reward) pair beats the running max before it at its segment's
        # first cell or where its reward beats every earlier one there
        v = np.empty(b_all.size, np.complex128)
        v.real = seg
        v.imag = b_all
    sel = staircase_heads(v, key.argsort(kind="stable"))
    k_sel = key[sel]
    last = np.empty(sel.size, bool)
    last[-1:] = True
    np.not_equal(k_sel[1:], k_sel[:-1], out=last[:-1])
    return sel[last]


def dp_merge(old_w, old_b, item_w, item_p, rdist, vmax, nu, cap):
    """Vectorised keep-vs-take column update with dominance pruning.

    ``old_w``/``old_b`` is the predecessor column as a strictly increasing
    staircase (weight ascending, reward strictly increasing).  ``rdist`` is
    the rent-weighted distance remaining after the item's node.  Returns the
    pruned successor column plus back-links for plan reconstruction:
    ``(w, b, took, prev)`` where ``prev`` indexes the predecessor column.
    Cells are ordered by weight, keep cell first at an equal weight; a cell
    survives if it beats every cell before it, and of an equal-weight pair
    the keep is dropped where the take survives (``_survivors``).
    """
    k = int(np.searchsorted(old_w, cap - item_w, side="right"))
    tw = old_w[:k] + item_w
    tb = old_b[:k] + item_p - rdist * (1.0 / (vmax - nu * tw) - 1.0 / (vmax - nu * old_w[:k]))

    n_old = old_w.size
    w_all = np.concatenate((old_w, tw))
    b_all = np.concatenate((old_b, tb))
    sel = _survivors(w_all, b_all)
    took = sel >= n_old
    return w_all[sel], b_all[sel], took.astype(np.uint8), sel - n_old * took


def dp_merge_segments(old_w, old_b, seg, item_w, item_p, rdist, vmax, nu, cap):
    """``dp_merge`` applied to many columns at once, one item per column.

    The columns lie flat in ``old_w``/``old_b``, grouped by the
    non-decreasing segment id ``seg``; segment ``s`` takes the item
    ``(item_w[s], item_p[s], rdist[s])``.  Every segment's result equals
    ``dp_merge`` on that column bit for bit: the take rewards use the
    same expression in the same operand order, and the sort and pruning are
    the same within each segment.  Returns the flat successor columns
    ``(w, b, seg)``, no back-links.  Rewards must be finite, and ``n``
    segments need ``n * (cap + 1) <= 2**63`` (``dp_fronts`` splits its batch
    so): the sort key ``seg * cap + seg + w`` then stays in int64 at every
    step, as ``(n - 1) * cap < n * (cap + 1)`` and the key is below that.
    """
    tw = old_w + item_w[seg]
    fit = tw <= cap
    tw = tw[fit]
    t_seg = seg[fit]
    tb = old_b[fit] + item_p[t_seg] - rdist[t_seg] * (
        1.0 / (vmax - nu * tw) - 1.0 / (vmax - nu * old_w[fit]))

    w_all = np.concatenate((old_w, tw))
    b_all = np.concatenate((old_b, tb))
    s_all = np.concatenate((seg, t_seg))
    # weights never exceed cap, so the key keeps segments apart, and within
    # a segment both halves have strictly increasing weights
    sel = _survivors(s_all * cap + s_all + w_all, b_all, s_all)
    return w_all[sel], b_all[sel], s_all[sel]


# ---------------------------------------------------------------------------
# Inver-over generation loop
# ---------------------------------------------------------------------------

class _RandomStateReplay:
    """Replays ``numpy.random.RandomState(seed)`` draws from raw MT19937 words.

    Legacy ``RandomState`` promises a frozen stream.  ``randint(r)`` (for
    ``2 <= r <= 2**32``) takes one 32-bit word per try and accepts its low
    bits ``w & mask`` once they are at most ``r - 1``, where ``mask`` is the
    smallest all-ones mask covering ``r - 1``.  ``random_sample()`` takes
    two words and returns ``((w1 >> 5) * 2**26 + (w2 >> 6)) / 2**53``.
    ``randint(0, 2**32, dtype=uint32)`` hands out those same words one per
    value, so a caller that applies both rules to words drawn in bulk gets
    every value, and consumes every word, as the per-call methods would.

    ``refill(k)`` hands out the next table: the unread tail of the last one
    (from index ``k`` on) followed by a fresh chunk of ``_CHUNK`` words.
    It gives ``words``, a ``memoryview`` of the words, whose items index as
    Python ints; ``low``, a ``bytes`` where ``low[k]`` is 1 if the
    ``random_sample()`` starting at word ``k`` is at most ``p_random`` and 0
    otherwise (each term of the formula is exact in float64, so numpy
    computes the value Python would); and ``limit``, the last index at
    which a reader may still take ``_AHEAD`` words without a new check.
    """

    _CHUNK = 4096
    # the most words run_inver_over reads between two refill checks: a
    # random_sample and a first draw, then the next tour's first city
    _AHEAD = 4

    def __init__(self, seed, p_random):
        self._rs = np.random.RandomState(seed)
        self._p_random = p_random
        self._w = np.empty(0, np.uint32)

    def refill(self, k):
        """``(words, low, limit)`` of the words from index ``k`` on plus a chunk."""
        w = np.concatenate((self._w[k:],
                            self._rs.randint(0, 2**32, size=self._CHUNK, dtype=np.uint32)))
        self._w = w
        sample = ((w[:-1] >> 5) * 67108864.0 + (w[1:] >> 6)) / 9007199254740992.0
        return memoryview(w), (sample <= self._p_random).tobytes(), w.size - self._AHEAD


def _successors(tour):
    """``succ[c]``, the city after ``c`` in the cyclic ``tour``."""
    return dict(zip(tour, tour[1:] + tour[:1]))


def run_inver_over(pop, dist, generations, p_random, seed):
    """Canonical Inver-over over a population of cyclic 0-based tours.

    Mutates ``pop`` in place.  Acceptance is monotone: a mutated individual
    replaces its ancestor only when not longer.  With fewer than 3 cities
    no reversal is possible, so ``pop`` is left as it is.  Otherwise the
    result is bit for bit that of the scalar loop drawing from
    ``RandomState(seed)`` one call at a time
    (``tests/reference_inver_over.py``): this loop runs on a ``bytearray``
    per tour when ``n <= 256`` (every city fits in a byte) and on a Python
    list otherwise, looks partner cities up in a successor dict per tour,
    and reads the draws from ``_RandomStateReplay``'s tables, applying the
    masked rejection inline.  It checks for a refill before each step and
    each retried draw; a step reads at most ``_AHEAD`` words past a check.
    """
    ps, n = pop.shape
    if n < 3:
        return
    d = dist.tolist()
    # every 0-based city of up to 256 fits in a byte
    seq = bytearray if n <= 256 else list
    tours = [seq(t) for t in pop.tolist()]
    succ = [_successors(t) for t in tours]
    rng = _RandomStateReplay(seed, p_random)
    words, low, limit = rng.refill(0)
    k = 0
    top_city, top_other = n - 1, ps - 1
    mask_city = (1 << top_city.bit_length()) - 1
    mask_other = (1 << top_other.bit_length()) - 1
    for _ in range(generations):
        for s in range(ps):
            cur = tours[s][:]
            delta = 0
            moved = False
            i = words[k] & mask_city
            k += 1
            while i > top_city:
                if k > limit:
                    words, low, limit = rng.refill(k)
                    k = 0
                i = words[k] & mask_city
                k += 1
            c = cur[i]
            while True:
                if k > limit:
                    words, low, limit = rng.refill(k)
                    k = 0
                # words k, k + 1 are the random_sample(), k + 2 the first draw
                if low[k]:
                    j = words[k + 2] & mask_city
                    k += 3
                    while j > top_city or cur[j] == c:
                        if k > limit:
                            words, low, limit = rng.refill(k)
                            k = 0
                        j = words[k] & mask_city
                        k += 1
                    c2 = cur[j]
                else:
                    other = words[k + 2] & mask_other
                    k += 3
                    while other > top_other or other == s:
                        if k > limit:
                            words, low, limit = rng.refill(k)
                            k = 0
                        other = words[k] & mask_other
                        k += 1
                    c2 = succ[other][c]
                    j = cur.index(c2)
                nxt = cur[(i + 1) % n]
                if c2 == nxt or c2 == cur[i - 1]:
                    break
                nxt2 = cur[(j + 1) % n]
                delta += d[c][c2] + d[nxt][nxt2] - d[c][nxt] - d[c2][nxt2]
                # reverse the cyclic segment succ(c) .. c2 in place; c2
                # lands next to c, at i + 1
                a = (i + 1) % n
                if a <= j:
                    cur[a:j + 1] = cur[j:a - 1:-1] if a else cur[j::-1]
                else:
                    seg = cur[a:] + cur[:j + 1]
                    seg.reverse()
                    cur[a:] = seg[:n - a]
                    cur[:j + 1] = seg[n - a:]
                i = a
                c = c2
                moved = True
            if delta <= 0 and moved:
                tours[s] = cur
                succ[s] = _successors(cur)
    pop[:] = [list(t) for t in tours]
