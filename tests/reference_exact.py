"""Exact whole-problem fronts of small instances, the solver's ground truth.

``exact_instance(n, per_city)`` takes the first ``n`` cities of eil51
(``scripts/make_instances.EIL51``) and ``per_city`` bounded-strongly-
correlated items at every city but the depot (profit = weight + 100,
weight uniform on 1..1000; Polyakovskiy et al., GECCO 2014), drawn from
``default_rng([seed, n, per_city])``, with capacity 1/3 of the total item
weight, speeds 0.1..1 and rent 1.

``true_front`` is the Pareto merge of the DP fronts of every tour that
starts at city 1, ``(n - 1)!`` of them: every solution of the instance is
one of those tours with one of its packings.  ``exhaustive_front`` gets
the same front without the DP, by ``evaluate`` on every tour and every
packing within the capacity; it is for the smallest sizes only.
"""

import importlib.util
import itertools

import numpy as np

from ttpsolve.instance_io import Item, make_instance
from ttpsolve.pwt_dp import dp_fronts, evaluate, merge_fronts, staircase

from conftest import INSTANCES

_spec = importlib.util.spec_from_file_location(
    "make_instances", INSTANCES.parent / "scripts" / "make_instances.py")
_make_instances = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(_make_instances)


def exact_instance(n, per_city, seed=1):
    rng = np.random.default_rng([seed, n, per_city])
    items = [Item(profit=int(w) + 100, weight=int(w), node=node)
             for node in range(2, n + 1) for w in rng.integers(1, 1001, size=per_city)]
    capacity = sum(it.weight for it in items) // 3
    return make_instance(f"eil51_first{n}_bsc{per_city}", _make_instances.EIL51[:n], items,
                         capacity, 0.1, 1.0, 1.0)


def all_tours(n):
    """Every tour of ``n`` cities that starts at city 1."""
    return [np.array((1, *p), np.int64) for p in itertools.permutations(range(2, n + 1))]


def true_front(inst):
    """``(rewards, weights)`` of the instance's Pareto front, by the DP."""
    front = merge_fronts(*dp_fronts(inst, all_tours(inst.n)))
    return front.rewards, front.weights


def exhaustive_front(inst):
    """``(rewards, weights)`` of the instance's Pareto front, by ``evaluate``
    on every tour with every packing within the capacity."""
    packs = (np.arange(1 << inst.m)[:, None] >> np.arange(inst.m)) & 1 == 1
    packs = packs[packs @ inst.item_weight <= inst.capacity]
    rewards, weights = [], []
    for t in all_tours(inst.n):
        for taken in packs:
            r, w = evaluate(inst, t, taken)
            rewards.append(r)
            weights.append(w)
    rewards, weights = np.array(rewards), np.array(weights, np.int64)
    keep = staircase(rewards, weights)
    return rewards[keep], weights[keep]
