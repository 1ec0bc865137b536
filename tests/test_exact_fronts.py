"""IBEA runs on instances small enough to know their whole Pareto front
(``tests/reference_exact.py``): nothing a run reports may beat the truth."""

import os

import numpy as np
import pytest

from ttpsolve import fronts as fr
from ttpsolve.evolve import IbeaConfig, run_ibea
from ttpsolve.pwt_dp import REWARD_RTOL, evaluate

from reference_exact import exact_instance, exhaustive_front, true_front


@pytest.fixture(scope="module")
def exact7():
    """n = 7 with 2 items per city: 720 tours, a 72-point true front."""
    inst = exact_instance(7, 2)
    rewards, weights = true_front(inst)
    assert rewards.size == 72
    return inst, rewards, weights


def test_true_front_equals_every_tour_and_packing():
    inst = exact_instance(5, 2)
    rewards, weights = true_front(inst)
    want_r, want_w = exhaustive_front(inst)
    assert np.array_equal(weights, want_w)
    np.testing.assert_allclose(rewards, want_r, rtol=REWARD_RTOL, atol=0)


def run_under_the_true_front(front, selection, indicator, seed):
    """One IBEA run at mu = lambda = 10, 30 generations and no seeding,
    checked against the true front ``(inst, rewards, weights)``: every point
    of the final population's fronts lies on or under it, and no record's
    best reward beats the true top; both sides are the same per-tour DP
    points, so these checks are exact.  The archive's HV is at most the
    true HV, and the best plan evaluates to the best reward.  Returns the
    final population's points."""
    inst, true_r, true_w = front
    res = run_ibea(inst, IbeaConfig(mu=10, lam=10, generations=30, seeding_generations=0,
                                    selection=selection, indicator=indicator, seed=seed))
    points = {(r, w) for ind in res.final_population
              for r, w in zip(ind.front.rewards.tolist(), ind.front.weights.tolist())}
    for r, w in points:
        under = np.searchsorted(true_w, w, side="right") - 1
        assert under >= 0 and true_r[under] >= r, (r, w)
    assert all(rec.best_reward <= true_r[-1] for rec in res.records)
    true_hv = fr._hv(true_r, true_w, inst.capacity)
    assert all(rec.archive_hv <= true_hv * (1 + REWARD_RTOL) for rec in res.records)
    taken = np.isin(np.arange(1, inst.m + 1), res.best_plan)
    reward, weight = evaluate(inst, res.best_tour, taken)
    assert weight <= inst.capacity
    assert reward == pytest.approx(res.best_reward, rel=REWARD_RTOL)
    return points


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("indicator", ["lsc", "lhv"])
@pytest.mark.parametrize("selection", ["fps", "uar"])
def test_run_stays_on_or_under_the_true_front(exact7, selection, indicator, seed):
    """``run_under_the_true_front`` on n = 7; fps with LHV finds every true point."""
    points = run_under_the_true_front(exact7, selection, indicator, seed)
    true_r, true_w = exact7[1:]
    if (selection, indicator) == ("fps", "lhv"):
        assert set(zip(true_r.tolist(), true_w.tolist())) <= points


@pytest.fixture(scope="module")
def exact8():
    """n = 8 with 3 items per city: 5,040 tours, a 219-point true front."""
    inst = exact_instance(8, 3)
    rewards, weights = true_front(inst)
    assert rewards.size == 219
    return inst, rewards, weights


@pytest.mark.skipif(os.environ.get("TTPSOLVE_EXTENDED") != "1",
                    reason="extended mode: set TTPSOLVE_EXTENDED=1 (~3 s)")
@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("indicator", ["lsc", "lhv"])
@pytest.mark.parametrize("selection", ["fps", "uar"])
def test_run_stays_on_or_under_the_n8_true_front(exact8, selection, indicator, seed):
    """``run_under_the_true_front`` on n = 8, where no setting is asked to
    find every true point; the count found is printed."""
    points = run_under_the_true_front(exact8, selection, indicator, seed)
    true_r, true_w = exact8[1:]
    found = len(set(zip(true_r.tolist(), true_w.tolist())) & points)
    print(f"\nn = 8 {selection}-{indicator} seed {seed}: {found} of {true_r.size} true points")
