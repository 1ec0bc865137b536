"""Tour representation, length evaluation, Inver-over seeding and the
variation operators (2OPT segment reversal, JUMP reinsertion, two-cut
order crossover).

A tour is a numpy int64 array of 1-based city labels whose first element is
city 1.  Positions in operator signatures are 1-based as well, so position
1 is the fixed depot slot.
"""

import numbers
from collections.abc import Sequence

import numpy as np

from . import _kernels
from .instance_io import Instance, _ceil2d

# inner-loop probability of picking the partner city at random instead of
# copying an adjacency from another individual (Inver-over default)
P_RANDOM_DEFAULT = 0.02


def make_tour(cities, n: int | None = None) -> np.ndarray:
    """The tour of a sequence of 1-based city numbers, which must be integers
    (not bools, and not floats even when whole), checked by :func:`check_tour`."""
    if isinstance(cities, np.ndarray):
        if cities.dtype.kind not in "iu":
            raise ValueError(f"city numbers must be integers, not {cities.dtype}")
    elif isinstance(cities, (str, bytes)) or not isinstance(cities, Sequence):
        raise ValueError(f"a tour must be a list of city numbers, not {cities!r}")
    else:
        for c in cities:
            if isinstance(c, bool) or not isinstance(c, numbers.Integral):
                raise ValueError(f"city numbers must be integers, not {c!r}")
    t = np.asarray(cities, np.int64)
    check_tour(t, n)
    return t


def check_tour(t: np.ndarray, n: int | None = None):
    """Raise ValueError unless ``t`` starts at city 1, is a permutation of
    1..t.size and, given ``n``, visits all ``n`` cities of the instance."""
    if t.size == 0 or t[0] != 1:
        raise ValueError("tour must start at city 1")
    if len(np.unique(t)) != t.size or t.min() != 1 or t.max() != t.size:
        raise ValueError("tour is not a permutation of 1..n")
    if n is not None and t.size != n:
        raise ValueError(f"tour has {t.size} cities, the instance has n={n}")


def is_valid_tour(t: np.ndarray, n: int | None = None) -> bool:
    try:
        check_tour(t, n)
    except ValueError:
        return False
    return True


def _legs(inst: Instance, t: np.ndarray) -> np.ndarray:
    """int64 lengths of the legs leaving each position of tour ``t``, or of
    each row of a ``(tours, n)`` tour matrix."""
    xy = inst.coords[t - 1]
    return _ceil2d(xy, np.roll(xy, -1, axis=-2))


def tour_length(inst: Instance, t: np.ndarray) -> int:
    return int(_legs(inst, t).sum())


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
    out = t.copy()
    if frm < to:
        out[frm - 1:to - 1] = t[frm:to]
    else:
        out[to:frm] = t[to - 1:frm - 1]
    out[to - 1] = t[frm - 1]
    return out


def random_positions(rng: np.random.Generator, n: int) -> tuple:
    """Two positions drawn uniformly from 2..n.

    They equal ``rng.integers(2, n + 1, size=2)`` and leave the stream in
    the same state, at about half the cost: each value takes its own
    bounded draw from the bit generator, whose buffered 32-bit half-words
    carry over between calls, so splitting the call changes no draw.
    """
    return int(rng.integers(2, n + 1)), int(rng.integers(2, n + 1))


def crossover(a: np.ndarray, b: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Two-cut order crossover: keep a window of ``a``, fill from ``b``.

    The cities inside the chosen window come from parent ``a`` at their
    positions; the remaining slots are filled with the other cities in the
    relative order they appear in parent ``b``.
    """
    n = a.size
    if n <= 2:
        return a.copy()
    i, j = sorted(random_positions(rng, n))
    return order_crossover(a, b, i, j)


def order_crossover(a: np.ndarray, b: np.ndarray, i: int, j: int) -> np.ndarray:
    """Deterministic core of :func:`crossover` with explicit cut positions."""
    window = a[i - 1:j]
    skip = np.zeros(a.size + 1, bool)
    skip[window] = True
    skip[1] = True
    fill = b[~skip[b]]
    return np.concatenate(([1], fill[:i - 2], window, fill[i - 2:]))


def inver_over(inst: Instance, pop_size: int, generations: int,
               p_random: float = P_RANDOM_DEFAULT,
               rng: np.random.Generator | None = None) -> list:
    """Seed ``pop_size`` tours with the Inver-over heuristic.

    Each individual repeatedly inverts segments guided by adjacencies found
    in other individuals (or, with probability ``p_random``, by a random
    partner city) and accepts the result only when not longer.
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
    dist = _ceil2d(inst.coords[:, None], inst.coords[None])
    seed = int(rng.integers(0, 2**31 - 1))
    _kernels.run_inver_over(pop, dist, generations, p_random, seed)
    # rotate each tour to start at city 1
    at = (pop == 0).argmax(1)[:, None] + np.arange(n)
    return list(np.take_along_axis(pop, at % n, axis=1) + 1)
