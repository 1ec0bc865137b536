"""The exhaustive packing oracle, kept as the reference for the DP.

``brute_force_front`` enumerates every packing of one tour and
Pareto-filters the feasible ones; ``tests/test_pwt_dp.py`` and
``tests/test_acceptance.py`` require ``ttpsolve.pwt_dp.dp_front`` and
``dp_fronts`` to equal it.  Do not optimise this file.
"""

import numpy as np

from ttpsolve.instance_io import Instance
from ttpsolve.pwt_dp import DpFront, staircase
from ttpsolve.tours import _legs

BRUTE_FORCE_MAX_ITEMS = 24


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
    legs = _legs(inst, t)
    # collected[i, pos] = weight on board when leaving tour position pos
    onboard = (packs[:, None, :] * (item_pos[None, None, :] <= np.arange(inst.n)[None, :, None])) \
        @ inst.item_weight if m else np.zeros((packs.shape[0], inst.n), np.int64)
    times = (legs[None, :] / (inst.vmax - inst.nu * onboard)).sum(axis=1)
    rewards = (packs @ inst.item_profit if m else np.zeros(1)) - inst.rent * times

    # on ties the earliest-enumerated packing wins
    keep = staircase(rewards, weights)
    return DpFront(tour=t.copy(), rewards=rewards[keep], weights=weights[keep],
                   plans_packed=np.packbits(packs[keep], axis=1), m=m, capacity=inst.capacity)
