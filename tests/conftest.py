from pathlib import Path

import numpy as np
import pytest

from ttpsolve import evolve, fronts
from ttpsolve.instance_io import Item, make_instance

INSTANCES = Path(__file__).resolve().parent.parent / "instances"

TINY4_TEXT = """\
PROBLEM NAME: tiny4
KNAPSACK DATA TYPE: unknown
DIMENSION: 4
NUMBER OF ITEMS: 3
CAPACITY OF KNAPSACK: 5
MIN SPEED: 0.1
MAX SPEED: 1.0
RENTING RATIO: 1.0
EDGE_WEIGHT_TYPE: CEIL_2D
NODE_COORD_SECTION\t(INDEX, X, Y):
1 0 0
2 0 3
3 4 3
4 4 0
ITEMS SECTION\t(INDEX, PROFIT, WEIGHT, ASSIGNED NODE NUMBER):
1 20 2 2
2 30 3 3
3 25 2 4
"""


@pytest.fixture(scope="session")
def tiny4():
    return make_instance("tiny4", [(0, 0), (0, 3), (4, 3), (4, 0)],
                         [Item(20, 2, 2), Item(30, 3, 3), Item(25, 2, 4)],
                         capacity=5, vmin=0.1, vmax=1.0, rent=1.0)


def random_instance(rng, n_max=6, m_max=12, c_max=30):
    """Small random instance for oracle-equivalence testing."""
    n = int(rng.integers(2, n_max + 1))
    m = int(rng.integers(0, m_max + 1))
    cap = int(rng.integers(0, c_max + 1))
    coords = rng.integers(0, 60, (n, 2)).astype(float)
    items = [Item(int(rng.integers(1, 11)), int(rng.integers(1, 11)),
                  int(rng.integers(2, n + 1))) for _ in range(m)]
    vmin = float(rng.uniform(0.05, 0.5))
    vmax = vmin + float(rng.uniform(0.2, 1.0))
    return make_instance("rnd", coords, items, cap, vmin, vmax,
                         float(rng.uniform(0.1, 3.0)))


def random_tour(rng, n):
    return np.concatenate(([1], rng.permutation(np.arange(2, n + 1)))).astype(np.int64)


def run_with_surfaces(inst, cfg):
    """``run_ibea(inst, cfg)`` and each generation's population surface as
    ``(reward, weight)`` pairs: the surface of the pool that the generation
    scored against, read after the trim.  Each record's ``population_hv``
    must be that surface's HV."""
    pool, surfaces, compute_indicators = None, [], evolve.compute_indicators

    def keeping_compute_indicators(pop, kind):
        nonlocal pool
        pool = compute_indicators(pop, kind)
        return pool

    def on_record(rec):
        surf = pool.surface
        assert rec.population_hv == fronts._hv(surf.rewards, surf.weights, inst.capacity)
        surfaces.append(list(zip(surf.rewards.tolist(), surf.weights.tolist())))

    evolve.compute_indicators = keeping_compute_indicators
    try:
        res = evolve.run_ibea(inst, cfg, callback=on_record)
    finally:
        evolve.compute_indicators = compute_indicators
    return res, surfaces
