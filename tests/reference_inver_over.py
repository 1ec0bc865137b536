"""The original numpy-indexed Inver-over loop, kept as the reference.

``inver_over_py`` below is the scalar-at-a-time loop that draws from
``numpy.random.RandomState`` one call at a time.  The property tests in
``test_inver_over_reference.py`` require ``ttpsolve._kernels.run_inver_over``
to reproduce its final population bit for bit.  Do not optimise this file.
"""

import numpy as np


def inver_over_py(pop, dist, generations, p_random, seed):
    """Pure-python twin of the Inver-over loop; mutates ``pop`` in place."""
    rng = np.random.RandomState(seed)
    ps, n = pop.shape
    pos = np.argsort(pop, axis=1)
    for _ in range(generations):
        for s in range(ps):
            cur = pop[s].copy()
            curpos = pos[s].copy()
            delta = 0
            c = cur[rng.randint(n)]
            while True:
                if rng.random_sample() <= p_random:
                    c2 = cur[rng.randint(n)]
                    while c2 == c:
                        c2 = cur[rng.randint(n)]
                else:
                    other = rng.randint(ps)
                    while other == s:
                        other = rng.randint(ps)
                    c2 = pop[other, (pos[other, c] + 1) % n]
                i = curpos[c]
                succ = cur[(i + 1) % n]
                if c2 == succ or c2 == cur[(i - 1) % n]:
                    break
                j = curpos[c2]
                nxt2 = cur[(j + 1) % n]
                delta += dist[c, c2] + dist[succ, nxt2] - dist[c, succ] - dist[c2, nxt2]
                a, b = (i + 1) % n, j
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
