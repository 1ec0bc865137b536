"""Loop-based front algebra kept as the reference for the vectorised code.

``surface``, ``all_indicators``, ``_hv`` and ``ReferenceArchive.add`` are
the original one-point-at-a-time Pareto loops and per-front indicator loop;
``trim`` is IBEA's survivor trimming with a fresh surface after every
removal.
The property tests in ``test_fronts_reference.py`` require the production
code in ``ttpsolve.fronts`` and ``ttpsolve.evolve`` to reproduce them bit
for bit.  Do not optimise this file.
"""

import numpy as np

from ttpsolve.fronts import INDICATOR_KINDS, LSC, Surface
from ttpsolve.pwt_dp import REWARD_EQ_ATOL


def surface(fronts) -> Surface:
    """Surface of the union of the given DP fronts."""
    fronts = tuple(fronts)
    if not fronts:
        raise ValueError("surface needs at least one front")
    capacity = fronts[0].capacity
    rewards = np.concatenate([f.rewards for f in fronts])
    weights = np.concatenate([f.weights for f in fronts]).astype(np.int64)
    order = np.lexsort((np.arange(rewards.size), -rewards, weights))
    keep_r, keep_w = [], []
    best = -np.inf
    for idx in order:
        if rewards[idx] > best:
            keep_r.append(rewards[idx])
            keep_w.append(weights[idx])
            best = rewards[idx]
    surf_r = np.array(keep_r)
    surf_w = np.array(keep_w, np.int64)

    membership = np.zeros((len(fronts), surf_r.size), bool)
    for fi, f in enumerate(fronts):
        at = np.searchsorted(f.weights, surf_w)
        ok = at < f.weights.size
        ok[ok] &= f.weights[at[ok]] == surf_w[ok]
        ok[ok] &= np.abs(f.rewards[at[ok]] - surf_r[ok]) <= REWARD_EQ_ATOL
        membership[fi] = ok
    return Surface(rewards=surf_r, weights=surf_w, membership=membership, capacity=capacity)


def _hv(rewards, weights, capacity) -> float:
    qual = (rewards > 0) & (weights < capacity)
    if not qual.any():
        return 0.0
    r = rewards[qual]
    w = weights[qual].astype(np.float64)
    order = np.argsort(w)
    r, w = r[order], w[order]
    nxt = np.concatenate((w[1:], [float(capacity)]))
    return float((r * (nxt - w)).sum())


def all_indicators(s: Surface, kind: str) -> np.ndarray:
    """Indicator values for every member front in one pass."""
    if kind not in INDICATOR_KINDS:
        raise ValueError(f"unknown indicator kind: {kind}")
    counts = s.membership.sum(axis=0)
    if kind == LSC:
        return s.membership.sum(axis=1) / s.rewards.size
    total = _hv(s.rewards, s.weights, s.capacity)
    if total == 0.0:
        return s.membership.sum(axis=1) / s.rewards.size
    out = np.empty(s.membership.shape[0])
    sole = counts == 1
    for fi in range(s.membership.shape[0]):
        rest = ~(s.membership[fi] & sole)
        out[fi] = 1.0 - _hv(s.rewards[rest], s.weights[rest], s.capacity) / total
    return out


def trim(pop, mu, rng, kind):
    """Survivors of removing a minimal-value individual until ``mu`` remain.

    Ties break by ``rng.choice``; after every removal but the last, the rest
    are rescored against the surface of their fronts, built from scratch.
    The first removal reads the incoming ``ind.value``s, which stay as they
    are.
    """
    pop = list(pop)
    values = np.array([ind.value for ind in pop])
    while len(pop) > mu:
        gone = int(rng.choice(np.flatnonzero(values == values.min())))
        pop.pop(gone)
        if len(pop) > mu:
            values = all_indicators(surface([ind.front for ind in pop]), kind)
    return pop


class ReferenceArchive:
    """The point-set half of the best-ever Pareto archive."""

    def __init__(self):
        self.rewards = np.zeros(0)
        self.weights = np.zeros(0, np.int64)

    def add(self, front):
        rewards = np.concatenate((self.rewards, front.rewards))
        weights = np.concatenate((self.weights, front.weights))
        order = np.lexsort((np.arange(rewards.size), -rewards, weights))
        keep_r, keep_w = [], []
        best = -np.inf
        for idx in order:
            if rewards[idx] > best:
                keep_r.append(rewards[idx])
                keep_w.append(weights[idx])
                best = rewards[idx]
        self.rewards = np.array(keep_r)
        self.weights = np.array(keep_w, np.int64)
