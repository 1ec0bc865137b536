"""Front algebra: the surface of a front collection, hypervolume, and the
two front-level loss indicators.

A ``SurfacePool`` sorts the points of a front collection once and then
yields the surface after each removal of a front, as IBEA's survivor trim
needs.  A removed front that holds no *head* (a point the staircase scan
keeps) leaves the surface points exactly as they were, so only its
membership row goes; otherwise the scan reruns on the sorted order masked
to the remaining fronts.  ``surface`` is a pool's initial surface, so every
surface comes from one code path.

The hypervolume is the standard dominated-region area w.r.t. the reference
point (0, C): only points with positive reward and weight below capacity
count, and each contributes a rectangle spanning to the next heavier
qualifying point (capacity closes the last strip).
"""

from dataclasses import dataclass

import numpy as np

from ._kernels import staircase_heads
from .pwt_dp import REWARD_EQ_ATOL, staircase_order

LSC = "lsc"
LHV = "lhv"
INDICATOR_KINDS = (LSC, LHV)


@dataclass(frozen=True)
class Surface:
    """Pareto front of the union of member fronts, with contributor sets.

    ``membership[f, p]`` says front ``f`` holds a point equal to surface
    point ``p`` (weight exact, reward within the cross-front tolerance).
    """
    rewards: np.ndarray
    weights: np.ndarray
    membership: np.ndarray  # (n_fronts, n_points) bool
    capacity: int


def surface(fronts) -> Surface:
    """Surface of the union of the given DP fronts (see :class:`SurfacePool`)."""
    return SurfacePool(fronts).surface


class SurfacePool:
    """The surface of a shrinking set of DP fronts, sorted once.

    The fronts' points are concatenated and put in ``staircase`` scan order
    once.  ``remove(i)`` drops live front ``i`` and returns the surface of
    the fronts that remain, equal bit for bit to :func:`surface` on them.

    A *head* is a point that the running max of the scan keeps, i.e. the
    point that stands for a surface point.  A front that holds no head has
    every point at or below the running max before it, so dropping it
    changes no later comparison: the surface points stay as they are and
    only the front's membership row goes.  Only when the front holds a head
    is the scan rerun, on the sorted order masked to the live fronts; since
    the sort is stable (tied points stay in concatenation order), that is
    the scan order of the smaller concatenation.

    Every front must be a strict staircase (as ``DpFront`` guarantees), so a
    surface point matches at most one point of each front: the one with the
    same weight.  The pool keeps the fronts' points, not the fronts.
    """

    def __init__(self, fronts):
        fronts = list(fronts)
        if not fronts:
            raise ValueError("surface needs at least one front")
        self._rewards = np.concatenate([f.rewards for f in fronts])
        self._weights = np.concatenate([f.weights for f in fronts]).astype(np.int64)
        self._owner = np.repeat(np.arange(len(fronts)), [f.rewards.size for f in fronts])
        self._order = staircase_order(self._rewards, self._weights)
        self._count, self._capacity = len(fronts), fronts[0].capacity
        self._ids = list(range(self._count))   # live index -> front id
        self.surface = self._scan()

    def _scan(self) -> Surface:
        live = np.zeros(self._count, bool)
        live[self._ids] = True
        heads = staircase_heads(self._rewards, self._order[live[self._owner[self._order]]])
        self._has_head = np.zeros(live.size, bool)
        self._has_head[self._owner[heads]] = True
        surf_r, surf_w = self._rewards[heads], self._weights[heads]

        # rows of removed fronts are built too, then dropped
        at = np.minimum(np.searchsorted(surf_w, self._weights), surf_w.size - 1)
        hit = (surf_w[at] == self._weights) \
            & (np.abs(self._rewards - surf_r[at]) <= REWARD_EQ_ATOL)
        membership = np.zeros((live.size, surf_r.size), bool)
        membership[self._owner[hit], at[hit]] = True
        return Surface(rewards=surf_r, weights=surf_w, membership=membership[live],
                       capacity=self._capacity)

    def remove(self, i: int) -> Surface:
        """Drop live front ``i`` (its row in ``surface.membership``)."""
        if self._has_head[self._ids.pop(i)]:
            self.surface = self._scan()
        else:
            s = self.surface
            rows = s.membership
            self.surface = Surface(s.rewards, s.weights,
                                   np.concatenate((rows[:i], rows[i + 1:])), s.capacity)
        return self.surface


def _hv(rewards, weights, capacity) -> float:
    """Dominated area of a staircase w.r.t. reference (0, C).

    The points must come weight ascending with rewards strictly increasing,
    as ``staircase`` returns them (a surface, any subset of one, the
    archive), so each strip runs to the next point without a sort.
    """
    qual = (rewards > 0) & (weights < capacity)
    if not qual.any():
        return 0.0
    r = rewards[qual]
    w = weights[qual].astype(np.float64)
    nxt = np.concatenate((w[1:], [float(capacity)]))
    return float((r * (nxt - w)).sum())


def all_indicators(s: Surface, kind: str) -> np.ndarray:
    """Loss indicator of every member front w.r.t. surface ``s``.

    LSC is the share of surface points the front contributes.  LHV is the
    hypervolume share lost when the points contributed exclusively by the
    front are removed; shared points survive the removal.  A zero-volume
    surface falls back to LSC so the result stays in [0, 1].
    """
    if kind not in INDICATOR_KINDS:
        raise ValueError(f"unknown indicator kind: {kind}")
    total = 0.0 if kind == LSC else _hv(s.rewards, s.weights, s.capacity)
    if total == 0.0:
        return s.membership.sum(axis=1) / s.rewards.size
    # a front that owns no surface point alone loses nothing on removal
    exclusive = s.membership & (s.membership.sum(axis=0) == 1)
    out = np.zeros(s.membership.shape[0])
    for fi in np.flatnonzero(exclusive.any(axis=1)):
        rest = ~exclusive[fi]
        out[fi] = 1.0 - _hv(s.rewards[rest], s.weights[rest], s.capacity) / total
    return out
