"""The original list-and-loop tour operators, kept as oracles.

``order_crossover_ref`` fills the slots outside the window one by one from a
list comprehension over parent ``b``; ``jump_mutate_ref`` deletes the moved
city and inserts it again.  ``tests/test_tours.py`` requires
``ttpsolve.tours.order_crossover`` and ``jump_mutate`` to equal them on
every cut position.  Do not optimise this file.
"""

import numpy as np


def order_crossover_ref(a, b, i, j):
    n = a.size
    child = np.empty(n, np.int64)
    child[0] = 1
    window = a[i - 1:j]
    in_window = np.zeros(n + 1, bool)
    in_window[window] = True
    child[i - 1:j] = window
    fill = [c for c in b if not in_window[c] and c != 1]
    slots = [p for p in range(1, n) if not (i - 1 <= p < j)]
    for p, c in zip(slots, fill):
        child[p] = c
    return child


def jump_mutate_ref(t, frm, to):
    out = np.delete(t, frm - 1)
    return np.insert(out, to - 1, t[frm - 1])
