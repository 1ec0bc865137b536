"""Tour representation, length evaluation, Inver-over seeding and the
variation operators (2OPT segment reversal, JUMP reinsertion, two-cut
order crossover).

A tour is a numpy int64 array of 1-based city labels whose first element is
city 1.  Positions in operator signatures are 1-based as well, so position
1 is the fixed depot slot.
"""

import numpy as np

from . import _kernels
from .instance_io import Instance, distance

# inner-loop probability of picking the partner city at random instead of
# copying an adjacency from another individual (Inver-over default)
P_RANDOM_DEFAULT = 0.02


def make_tour(cities) -> np.ndarray:
    t = np.asarray(cities, np.int64)
    check_tour(t)
    return t


def check_tour(t: np.ndarray):
    if t[0] != 1:
        raise ValueError("tour must start at city 1")
    if len(np.unique(t)) != t.size or t.min() != 1 or t.max() != t.size:
        raise ValueError("tour is not a permutation of 1..n")


def is_valid_tour(t: np.ndarray, n: int | None = None) -> bool:
    if n is not None and t.size != n:
        return False
    return bool(t[0] == 1 and t.min() == 1 and t.max() == t.size
                and len(np.unique(t)) == t.size)


def _dist_matrix(inst: Instance) -> np.ndarray:
    if inst.dist_matrix is not None:
        return inst.dist_matrix
    from .instance_io import _ceil2d_matrix
    return _ceil2d_matrix(inst.coords)


def tour_length(inst: Instance, t: np.ndarray) -> int:
    if inst.dist_matrix is not None:
        p = t - 1
        return int(inst.dist_matrix[p, np.roll(p, -1)].sum())
    total = 0
    for a, b in zip(t, np.roll(t, -1)):
        total += distance(inst, int(a), int(b))
    return total


def reverse_tour(t: np.ndarray) -> np.ndarray:
    """Reverse the visiting order while keeping city 1 first."""
    out = t.copy()
    out[1:] = out[1:][::-1]
    return out


def two_opt_mutate(t: np.ndarray, i: int, j: int) -> np.ndarray:
    """Reverse positions i..j (1-based, city 1 at position 1 is fixed)."""
    if not (1 < i <= j <= t.size):
        raise IndexError(f"2OPT positions out of range: i={i}, j={j}, n={t.size}")
    out = t.copy()
    out[i - 1:j] = out[i - 1:j][::-1]
    return out


def jump_mutate(t: np.ndarray, frm: int, to: int) -> np.ndarray:
    """Remove the city at position ``frm`` and reinsert it at position ``to``."""
    if not (1 < frm <= t.size) or not (1 < to <= t.size):
        raise IndexError(f"JUMP positions out of range: from={frm}, to={to}, n={t.size}")
    out = np.delete(t, frm - 1)
    return np.insert(out, to - 1, t[frm - 1])


def crossover(a: np.ndarray, b: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Two-cut order crossover: keep a window of ``a``, fill from ``b``.

    The cities inside the chosen window come from parent ``a`` at their
    positions; the remaining slots are filled with the other cities in the
    relative order they appear in parent ``b``.
    """
    n = a.size
    if n <= 2:
        return a.copy()
    i, j = sorted(rng.integers(2, n + 1, size=2))
    return order_crossover(a, b, int(i), int(j))


def order_crossover(a: np.ndarray, b: np.ndarray, i: int, j: int) -> np.ndarray:
    """Deterministic core of :func:`crossover` with explicit cut positions."""
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


def inver_over(inst: Instance, pop_size: int, generations: int,
               p_random: float = P_RANDOM_DEFAULT,
               rng: np.random.Generator | None = None,
               hook=None) -> list:
    """Seed ``pop_size`` tours with the Inver-over heuristic.

    Each individual repeatedly inverts segments guided by adjacencies found
    in other individuals (or, with probability ``p_random``, by a random
    partner city) and accepts the result only when not longer.  ``hook``
    only observes: it receives ``(ancestor_length, accepted_length)`` per
    acceptance and does not change the tours.
    """
    if pop_size < 2:
        raise ValueError("inver_over needs pop_size >= 2")
    if generations < 0:
        raise ValueError("generations must be >= 0")
    if not 0.0 <= p_random <= 1.0:
        raise ValueError("p_random must lie in [0, 1]")
    rng = rng if rng is not None else np.random.default_rng()
    n = inst.n
    pop = np.empty((pop_size, n), np.int64)
    for s in range(pop_size):
        pop[s, 0] = 0
        pop[s, 1:] = rng.permutation(np.arange(1, n))
    dist = _dist_matrix(inst)
    seed = int(rng.integers(0, 2**31 - 1))
    _kernels.run_inver_over(pop, dist, generations, p_random, seed, hook=hook)
    tours = []
    for s in range(pop_size):
        rot = np.roll(pop[s], -int(np.where(pop[s] == 0)[0][0]))
        tours.append(rot + 1)
    return tours
