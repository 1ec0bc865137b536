"""Exact packing evaluation for a fixed tour.

For one tour the set of achievable (reward, weight) outcomes has a complete
non-dominated staircase which a knapsack-style dynamic program recovers
exactly: items are processed in tour order, each column is derived from its
predecessor by a keep-vs-take step, and dominated cells are pruned
immediately.  Columns are sparse (only surviving cells are stored).
Both paths take their inputs from one ``_setup``.  ``dp_front`` retains
only the final column and every column's (took, prev) back-links, each
prev in the narrowest unsigned type that indexes its predecessor column
(3 bytes a cell below 65,536 cells), and rebuilds packing plans by
back-walking them: each column's links are freed as the walk reads them,
and each item's plan bit is set in place in the packed rows.  The batched
``dp_fronts`` keeps no links and yields points only.
"""

from dataclasses import dataclass
import json

import numpy as np

from . import _kernels
from .instance_io import INT64_MAX, Instance
from .tours import _legs

REWARD_RTOL = 1e-9       # oracle-equivalence tolerance on rewards
REWARD_EQ_ATOL = 1e-6    # cross-front point-equality tolerance


@dataclass(frozen=True)
class DpFront:
    """Complete non-dominated (reward, weight) set of one tour.

    ``rewards`` and ``weights`` are parallel arrays sorted by weight with
    strictly increasing rewards.  ``plans_packed`` holds one packing per
    point as packbits rows (None on a points-only front from ``dp_fronts``);
    ``plans`` unpacks them to boolean flags, a bool view of the unpacked bytes.
    """
    tour: np.ndarray
    rewards: np.ndarray
    weights: np.ndarray
    plans_packed: np.ndarray | None
    m: int
    capacity: int

    @property
    def plans(self) -> np.ndarray:
        return self._unpack(slice(None))

    def _unpack(self, rows) -> np.ndarray:
        if self.plans_packed is None:
            raise ValueError("a points-only front (from dp_fronts) has no plans; use dp_front")
        # the unpacked values are 0 and 1 already
        return np.unpackbits(self.plans_packed[rows], axis=-1, count=self.m).view(bool)

    def plan_items(self, i: int) -> list:
        """1-based item indices of the packing behind point ``i``."""
        return (np.flatnonzero(self._unpack(i)) + 1).tolist()

    def to_json(self) -> str:
        plans = self.plans
        return json.dumps({
            "tour": self.tour.tolist(),
            "points": [[r, int(w)] for r, w in zip(self.rewards, self.weights)],
            "plans": [(np.flatnonzero(row) + 1).tolist() for row in plans],
        })


def staircase(rewards: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Indices of the Pareto staircase of (reward, weight) points.

    The kept points are ordered by weight ascending with strictly increasing
    rewards; a point survives only if it beats every lighter (or equally
    heavy, better-ranked) point.  Among points equal in both coordinates the
    earliest index wins.  Rewards must not be NaN.
    """
    return _kernels.staircase_heads(rewards, staircase_order(rewards, weights))


def staircase_order(rewards: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """The order :func:`staircase` scans points in: weight ascending, then
    reward descending; the sort is stable, so tied points keep index order."""
    return np.lexsort((-rewards, weights))


def evaluate(inst: Instance, t: np.ndarray, taken: np.ndarray):
    """Reward and total weight of one packing on one tour.

    The velocity on the leg leaving a node reflects every item collected up
    to and including that node.  A packing above capacity raises
    ``ValueError``: its speed model does not hold, and may reach zero.
    """
    taken = np.asarray(taken, bool)
    item_w = inst.item_weight[taken]
    weight = int(item_w.sum())
    if weight > inst.capacity:
        raise ValueError(f"packing weight {weight} exceeds the capacity {inst.capacity}")
    node_weight = np.zeros(inst.n + 1, np.int64)
    np.add.at(node_weight, inst.item_node[taken], item_w)
    node_weight = node_weight.tolist()
    time = 0.0
    w = 0
    # legs in tour order, so the float sum keeps its order
    for city, d in zip(t.tolist(), _legs(inst, t).tolist()):
        w += node_weight[city]
        time += d / (inst.vmax - inst.nu * w)
    return float(inst.item_profit[taken].sum() - inst.rent * time), weight


def _setup(inst: Instance, tour_mat: np.ndarray):
    """The DP inputs of each row of a ``(tours, n)`` tour matrix.

    Returns ``(orders, item_w, item_p, rd_rows, b)``, one row per tour:
    the tour's items sorted by the tour position of their node, then by
    item index (a stable sort); the weights (int64) and profits (float64)
    of the items in that order; the rent-weighted distance from each
    ordered item's node back to the depot; and the base reward, the empty
    packing charged with the full tour at top speed.  The legs and their
    suffix sums stay integers until the rent factor.
    """
    rows = np.arange(tour_mat.shape[0])[:, None]
    pos_of_city = np.empty((tour_mat.shape[0], inst.n + 1), np.int64)
    pos_of_city[rows, tour_mat] = np.arange(inst.n)
    item_pos = pos_of_city[:, inst.item_node]
    orders = np.argsort(item_pos, axis=1, kind="stable")
    suffix = np.cumsum(_legs(inst, tour_mat)[:, ::-1], axis=1)[:, ::-1]
    rd_rows = inst.rent * suffix[rows, item_pos[rows, orders]].astype(np.float64)
    return (orders, inst.item_weight[orders], inst.item_profit[orders].astype(np.float64),
            rd_rows, -inst.rent * suffix[:, 0] / inst.vmax)


def dp_front(inst: Instance, t: np.ndarray) -> DpFront:
    """Exact DP front for tour ``t`` with recoverable packing plans; one
    ``dp_merge`` per item in tour order, on Python scalars."""
    orders, item_w, item_p, rd_rows, b = _setup(inst, t[None])
    w = np.zeros(1, np.int64)
    links = []
    for iw, ip, r in zip(item_w[0].tolist(), item_p[0].tolist(), rd_rows[0].tolist()):
        # a prev indexes the column before the merge, so its last index fits
        link_type = np.min_scalar_type(w.size - 1)
        w, b, took, prev = _kernels.dp_merge(w, b, iw, ip, r, inst.vmax, inst.nu, inst.capacity)
        links.append((took, prev.astype(link_type)))
    # back-walk every final cell at once, last item first, freeing each
    # column's links as they are read and setting the item's bit in
    # np.packbits' order; the cursor stays intp, as narrow indices walk slower
    packed = np.zeros((w.size, -(-inst.m // 8)), np.uint8)
    cur = np.arange(w.size)
    for item in orders[0, ::-1].tolist():
        took, prev = links.pop()
        packed[:, item >> 3] |= took[cur] << (7 - (item & 7))
        cur = prev[cur].astype(np.intp)
    return DpFront(tour=t.copy(), rewards=b, weights=w, plans_packed=packed,
                   m=inst.m, capacity=inst.capacity)


def dp_fronts(inst: Instance, tours) -> list:
    """The points of ``[dp_front(inst, t) for t in tours]``, as one batched DP.

    All tours advance together: item rank ``j`` is one segment-wise merge
    over the flat concatenation of every tour's column, where each tour
    takes its own ``j``-th item in tour order.  Rewards and weights are
    bit-identical to :func:`dp_front`'s at every capacity; no links are
    kept, so the fronts have ``plans_packed=None``.  :func:`dp_front` is the
    path for plans.

    ``cap = min(capacity, total item weight)`` takes the same items as the
    capacity.  The tours run in the largest sub-batches that the sort key
    bound of :func:`_kernels.dp_merge_segments` admits, at least one tour
    each; fronts are per tour, so the split changes no point.
    """
    cap = min(inst.capacity, sum(inst.item_weight.tolist()))
    per_batch = (INT64_MAX + 1) // (cap + 1)
    if len(tours) > per_batch:
        return [f for k in range(0, len(tours), per_batch)
                for f in dp_fronts(inst, tours[k:k + per_batch])]
    n_seg = len(tours)
    tour_mat = np.array(tours, np.int64).reshape(n_seg, inst.n)
    _, item_w, item_p, rd_rows, b = _setup(inst, tour_mat)
    seg = np.arange(n_seg)
    w = np.zeros(n_seg, np.int64)
    for j in range(inst.m):
        w, b, seg = _kernels.dp_merge_segments(
            w, b, seg, item_w[:, j], item_p[:, j], rd_rows[:, j], inst.vmax, inst.nu, cap)

    ends = np.cumsum(np.bincount(seg, minlength=n_seg)).tolist()
    return [DpFront(tour=t.copy(), rewards=b[lo:hi].copy(), weights=w[lo:hi].copy(),
                    plans_packed=None, m=inst.m, capacity=inst.capacity)
            for t, lo, hi in zip(tours, [0] + ends[:-1], ends)]


def merge_fronts(*fronts: DpFront) -> DpFront:
    """Pareto merge of the fronts' points, with the tour of the earliest front
    that holds its top point (the best reward, at the least weight); no plans."""
    rewards = np.concatenate([f.rewards for f in fronts])
    weights = np.concatenate([f.weights for f in fronts])
    keep = staircase(rewards, weights)
    ends = np.cumsum([f.rewards.size for f in fronts])
    top = fronts[int(np.searchsorted(ends, keep[-1], side="right"))]
    return DpFront(tour=top.tour.copy(), rewards=rewards[keep], weights=weights[keep],
                   plans_packed=None, m=top.m, capacity=top.capacity)
