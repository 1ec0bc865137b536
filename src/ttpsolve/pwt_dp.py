"""Exact packing evaluation for a fixed tour.

For one tour the set of achievable (reward, weight) outcomes has a complete
non-dominated staircase which a knapsack-style dynamic program recovers
exactly: items are processed in tour order, each column is derived from its
predecessor by a keep-vs-take step, and dominated cells are pruned
immediately.  Columns are sparse (only surviving cells are stored).
``dp_front`` retains only the final column and every column's (took, prev)
back-links, and rebuilds packing plans by back-walking them; the batched
``dp_fronts`` keeps no links and yields points only.

``brute_force_front`` enumerates all packings and is the independent oracle
for the DP.
"""

from dataclasses import dataclass, field
import json

import numpy as np

from . import _kernels
from .instance_io import Instance
from .tours import tour_length

REWARD_RTOL = 1e-9       # oracle-equivalence tolerance on rewards
REWARD_EQ_ATOL = 1e-6    # cross-front point-equality tolerance
BRUTE_FORCE_MAX_ITEMS = 24


@dataclass(frozen=True)
class DpFront:
    """Complete non-dominated (reward, weight) set of one tour.

    ``rewards`` and ``weights`` are parallel arrays sorted by weight with
    strictly increasing rewards.  ``plans_packed`` holds one packing per
    point as packbits rows (None on a points-only front from ``dp_fronts``);
    ``plans`` unpacks them to boolean flags.
    """
    tour: np.ndarray
    rewards: np.ndarray
    weights: np.ndarray
    plans_packed: np.ndarray | None
    m: int
    capacity: int

    @property
    def points(self):
        return list(zip(self.rewards.tolist(), self.weights.tolist()))

    @property
    def plans(self) -> np.ndarray:
        if self.plans_packed is None:
            raise ValueError("a points-only front (from dp_fronts) has no plans; use dp_front")
        if self.m == 0:
            return np.zeros((len(self.rewards), 0), bool)
        return np.unpackbits(self.plans_packed, axis=1, count=self.m).astype(bool)

    def plan_items(self, i: int) -> list:
        """1-based item indices of the packing behind point ``i``."""
        return [int(k) + 1 for k in np.flatnonzero(self.plans[i])]

    def to_json(self) -> str:
        return json.dumps({
            "tour": self.tour.tolist(),
            "points": [[r, int(w)] for r, w in zip(self.rewards, self.weights)],
            "plans": [self.plan_items(i) for i in range(len(self.rewards))],
        })


def staircase(rewards: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Indices of the Pareto staircase of (reward, weight) points.

    The kept points are ordered by weight ascending with strictly increasing
    rewards; a point survives only if it beats every lighter (or equally
    heavy, better-ranked) point.  Among points equal in both coordinates the
    earliest index wins.  Rewards must not be NaN.
    """
    order = np.lexsort((np.arange(rewards.size), -rewards, weights))
    b = rewards[order]
    keep = np.ones(b.size, bool)
    keep[1:] = b[1:] > np.maximum.accumulate(b[:-1])
    return order[keep]


def _pack_plans(plans: np.ndarray) -> np.ndarray:
    if plans.shape[1] == 0:
        return np.zeros((plans.shape[0], 0), np.uint8)
    return np.packbits(plans.astype(np.uint8), axis=1)


def evaluate(inst: Instance, t: np.ndarray, taken: np.ndarray):
    """Reward and total weight of one packing on one tour.

    The velocity on the leg leaving a node reflects every item collected up
    to and including that node.  Packings above capacity are evaluated all
    the same; feasibility is the caller's concern.
    """
    taken = np.asarray(taken, bool)
    node_weight = np.zeros(inst.n + 1, np.int64)
    node_profit = np.zeros(inst.n + 1, np.int64)
    for k in np.flatnonzero(taken):
        node_weight[inst.items[k].node] += inst.items[k].weight
        node_profit[inst.items[k].node] += inst.items[k].profit
    dist = inst.dist_matrix
    time = 0.0
    w = 0
    for idx in range(inst.n):
        city = int(t[idx])
        w += int(node_weight[city])
        nxt = int(t[(idx + 1) % inst.n])
        if dist is not None:
            d = int(dist[city - 1, nxt - 1])
        else:
            from .instance_io import distance
            d = distance(inst, city, nxt)
        time += d / (inst.vmax - inst.nu * w)
    reward = float(node_profit.sum() - inst.rent * time)
    weight = int(taken.astype(np.int64) @ inst.item_weight) if inst.m else 0
    return reward, weight


def _item_order(inst: Instance, t: np.ndarray) -> np.ndarray:
    """Items sorted by tour position of their node, then by item index."""
    pos_of_city = np.empty(inst.n + 1, np.int64)
    pos_of_city[t] = np.arange(inst.n)
    return np.lexsort((np.arange(inst.m), pos_of_city[inst.item_node]))


def _suffix_rdist(inst: Instance, t: np.ndarray) -> np.ndarray:
    """suffix[i] = rent-weighted distance of legs leaving positions i..n-1."""
    p = t - 1
    legs = (inst.dist_matrix[p, np.roll(p, -1)]
            if inst.dist_matrix is not None else
            np.array([  # fallback for on-demand distances
                _leg(inst, t, i) for i in range(inst.n)], np.int64))
    suffix = np.concatenate((np.cumsum(legs[::-1])[::-1], [0]))
    return inst.rent * suffix.astype(np.float64)


def _leg(inst, t, i):
    from .instance_io import distance
    return distance(inst, int(t[i]), int(t[(i + 1) % inst.n]))


def _base_column(inst: Instance, t: np.ndarray):
    """The empty packing, charged with the full tour cost at top speed."""
    return (np.zeros(1, np.int64),
            np.array([-inst.rent * tour_length(inst, t) / inst.vmax], np.float64))


def _dp_columns(inst: Instance, t: np.ndarray):
    """An iterator over the pruned DP columns plus the processed-item order.

    Each column ``(w, b, took, prev)`` is merged from its predecessor, the
    first from :func:`_base_column`; each item column adds only the cost
    differences caused by taking that item.  Columns are made as the
    iterator advances, so a caller keeps only what it needs of them.
    """
    order = _item_order(inst, t)
    return _merged_columns(inst, t, order), order


def _merged_columns(inst: Instance, t: np.ndarray, order: np.ndarray):
    rdist = _suffix_rdist(inst, t)
    pos_of_city = np.empty(inst.n + 1, np.int64)
    pos_of_city[t] = np.arange(inst.n)
    col_w, col_b = _base_column(inst, t)
    for k in order:
        iw = int(inst.item_weight[k])
        ip = float(inst.item_profit[k])
        rd = float(rdist[pos_of_city[inst.item_node[k]]])
        col_w, col_b, took, prev = _kernels.dp_merge(
            col_w, col_b, iw, ip, rd, inst.vmax, inst.nu, inst.capacity)
        yield col_w, col_b, took, prev


def dp_front(inst: Instance, t: np.ndarray) -> DpFront:
    """Exact DP front for tour ``t`` with recoverable packing plans."""
    columns, order = _dp_columns(inst, t)
    w, b = _base_column(inst, t)
    links = []
    for w, b, took, prev in columns:
        links.append((took, prev))
    # back-walk every final cell at once, collecting flags by item rank
    by_rank = np.zeros((inst.m, w.size), bool)
    cur = np.arange(w.size)
    for j in range(inst.m - 1, -1, -1):
        took, prev = links[j]
        by_rank[j] = took[cur]
        cur = prev[cur]
    plans = np.zeros((w.size, inst.m), bool)
    plans[:, order] = by_rank.T
    return DpFront(tour=t.copy(), rewards=b, weights=w, plans_packed=_pack_plans(plans),
                   m=inst.m, capacity=inst.capacity)


def dp_fronts(inst: Instance, tours) -> list:
    """The points of ``[dp_front(inst, t) for t in tours]``, as one batched DP.

    All tours advance together: item rank ``j`` is one segment-wise merge
    over the flat concatenation of every tour's column, where each tour
    takes its own ``j``-th item in tour order.  Rewards and weights are
    bit-identical to :func:`dp_front`'s; no links are kept, so the fronts
    have ``plans_packed=None``.  This pays off for many narrow columns;
    :func:`dp_front` stays the path for one wide tour and for plans.

    The merge sorts on an int64 key ``segment * (cap + 1) + weight``, where
    ``cap = min(capacity, total item weight)`` takes the same items as the
    capacity.  A batch needs ``len(tours) * (cap + 1) < 2**63``; a larger
    one raises ``ValueError``.
    """
    n_seg = len(tours)
    if n_seg == 0:
        return []
    cap = min(inst.capacity, sum(inst.item_weight.tolist()))
    if n_seg * (cap + 1) >= 2**63:
        raise ValueError(f"dp_fronts: {n_seg} tours at capacity {cap} overflow the int64 sort "
                         "key (needs tours x (min(capacity, total item weight) + 1) < 2**63)")
    orders = np.array([_item_order(inst, t) for t in tours], np.int64).reshape(n_seg, inst.m)
    rd_rows = np.empty((n_seg, inst.m))
    for s, t in enumerate(tours):
        pos_of_city = np.empty(inst.n + 1, np.int64)
        pos_of_city[t] = np.arange(inst.n)
        rd_rows[s] = _suffix_rdist(inst, t)[pos_of_city[inst.item_node[orders[s]]]]
    item_w = inst.item_weight[orders]
    item_p = inst.item_profit[orders].astype(np.float64)

    seg = np.arange(n_seg)
    w = np.zeros(n_seg, np.int64)
    b = np.array([-inst.rent * tour_length(inst, t) / inst.vmax for t in tours], np.float64)
    for j in range(inst.m):
        w, b, seg = _kernels.dp_merge_segments(
            w, b, seg, n_seg, item_w[:, j], item_p[:, j], rd_rows[:, j], inst.vmax, inst.nu, cap)

    cuts = np.cumsum(np.bincount(seg, minlength=n_seg))[:-1]
    return [DpFront(tour=t.copy(), rewards=rs.copy(), weights=ws.copy(), plans_packed=None,
                    m=inst.m, capacity=inst.capacity)
            for t, rs, ws in zip(tours, np.split(b, cuts), np.split(w, cuts))]


def brute_force_front(inst: Instance, t: np.ndarray) -> DpFront:
    """Enumerate all packings, Pareto-filter the feasible ones.

    Independent of the DP path on purpose; rewards come from a vectorised
    direct evaluation of every packing.
    """
    if inst.m > BRUTE_FORCE_MAX_ITEMS:
        raise ValueError(f"brute force refuses m > {BRUTE_FORCE_MAX_ITEMS}")
    m = inst.m
    n_pack = 1 << m
    packs = ((np.arange(n_pack)[:, None] >> np.arange(m)[None, :]) & 1).astype(bool)
    weights = packs @ inst.item_weight if m else np.zeros(1, np.int64)
    feasible = weights <= inst.capacity
    packs, weights = packs[feasible], weights[feasible]

    pos_of_city = np.empty(inst.n + 1, np.int64)
    pos_of_city[t] = np.arange(inst.n)
    item_pos = pos_of_city[inst.item_node] if m else np.zeros(0, np.int64)
    p = t - 1
    legs = (inst.dist_matrix[p, np.roll(p, -1)]
            if inst.dist_matrix is not None else
            np.array([_leg(inst, t, i) for i in range(inst.n)], np.int64))
    # collected[i, pos] = weight on board when leaving tour position pos
    onboard = (packs[:, None, :] * (item_pos[None, None, :] <= np.arange(inst.n)[None, :, None])) \
        @ inst.item_weight if m else np.zeros((packs.shape[0], inst.n), np.int64)
    times = (legs[None, :] / (inst.vmax - inst.nu * onboard)).sum(axis=1)
    rewards = (packs @ inst.item_profit if m else np.zeros(1)) - inst.rent * times

    # on ties the earliest-enumerated packing wins
    keep = staircase(rewards, weights)
    return DpFront(tour=t.copy(), rewards=rewards[keep], weights=weights[keep],
                   plans_packed=_pack_plans(packs[keep]), m=m, capacity=inst.capacity)


def best_reward(f: DpFront) -> float:
    """Single-objective value of the tour: the maximal front reward."""
    return float(f.rewards.max())


def merge_fronts(a: DpFront, b: DpFront) -> DpFront:
    """Pareto merge of two fronts, keeping ``a``'s tour and, if both have them, plans."""
    rewards = np.concatenate((a.rewards, b.rewards))
    weights = np.concatenate((a.weights, b.weights))
    keep = staircase(rewards, weights)
    packed = None
    if a.plans_packed is not None and b.plans_packed is not None:
        packed = np.concatenate((a.plans_packed, b.plans_packed))[keep]
    return DpFront(tour=a.tour.copy(), rewards=rewards[keep], weights=weights[keep],
                   plans_packed=packed, m=a.m, capacity=a.capacity)
