import numpy as np
import pytest
from hypothesis import example, given, settings

from ttpsolve.fronts import LHV, LSC, SurfacePool, _hv, all_indicators, surface
from ttpsolve.pwt_dp import dp_front, staircase
from ttpsolve.tours import make_tour

from conftest import random_instance, random_tour
from test_fronts_reference import make_front, populations


@pytest.fixture(scope="module")
def pair(tiny4):
    fwd = dp_front(tiny4, make_tour([1, 2, 3, 4]))
    rev = dp_front(tiny4, make_tour([1, 4, 3, 2]))
    return fwd, rev


def arrays(pts):
    """(rewards, weights) arrays of a list of (reward, weight) pairs."""
    return (np.array([p[0] for p in pts], np.float64),
            np.array([p[1] for p in pts], np.int64))


def staircase_points(pts):
    """The (reward, weight) pairs that ``staircase`` keeps, weight ascending."""
    rewards, weights = arrays(pts)
    keep = staircase(rewards, weights)
    return list(zip(rewards[keep].tolist(), weights[keep].tolist()))


def contributors(s, p):
    return np.flatnonzero(s.membership[:, p]).tolist()


def test_pareto_filter_example():
    pts = [(8.75, 2), (7.782609, 3), (16.776786, 4)]
    assert staircase_points(pts) == [(8.75, 2), (16.776786, 4)]


def test_pareto_filter_empty():
    assert staircase_points([]) == []


def test_pareto_filter_duplicates():
    assert staircase_points([(5, 1), (5, 1)]) == [(5, 1)]


def test_surface_of_pair(pair):
    s = surface(pair)
    assert s.weights.tolist() == [0, 2, 4]
    assert s.rewards == pytest.approx([-14.0, 8.75, 19.348214], abs=1e-6)
    assert contributors(s, 0) == [0, 1]
    assert contributors(s, 1) == [0]
    assert contributors(s, 2) == [1]


def test_surface_single_front(pair):
    fwd, _ = pair
    s = surface([fwd])
    assert np.array_equal(s.weights, fwd.weights)
    assert all(contributors(s, i) == [0] for i in range(len(s.rewards)))


def test_surface_identical_fronts(pair):
    fwd, _ = pair
    s = surface([fwd, fwd])
    assert np.array_equal(s.weights, fwd.weights)
    assert all(contributors(s, i) == [0, 1] for i in range(len(s.rewards)))


def test_pool_and_indicators_reject_bad_input(pair):
    with pytest.raises(ValueError, match="surface needs at least one front"):
        SurfacePool([])
    with pytest.raises(ValueError, match="unknown indicator kind: hv"):
        all_indicators(surface(pair), "hv")


def test_hypervolume_examples(pair):
    fwd, _ = pair
    assert _hv(fwd.rewards, fwd.weights, 5) == pytest.approx(34.276786, abs=1e-5)
    s = surface(pair)
    assert _hv(s.rewards, s.weights, 5) == pytest.approx(36.848214, abs=1e-5)


def test_hypervolume_nonpositive_rewards():
    assert _hv(*arrays([(-3.0, 1), (0.0, 2)]), 10) == 0.0


def test_hypervolume_ignores_dominated_insertions():
    pts = [(2.0, 1), (5.0, 4)]
    base = _hv(*arrays(pts), 10)
    assert _hv(*arrays(staircase_points(pts + [(1.5, 3)])), 10) == pytest.approx(base)


def test_hypervolume_monotone_under_addition():
    rng = np.random.default_rng(3)
    pts = [(2.0, 3), (6.0, 7)]
    for _ in range(50):
        cand = (float(rng.uniform(0.1, 10)), int(rng.integers(0, 10)))
        filtered = staircase_points(pts + [cand])
        if (cand in filtered and cand[0] > 0 and cand[1] < 10
                and len(filtered) == 3):
            assert _hv(*arrays(filtered), 10) >= _hv(*arrays(pts), 10) - 1e-12


def test_indicator_examples(pair):
    fwd, rev = pair
    s = surface(pair)
    assert all_indicators(s, LSC)[0] == pytest.approx(2 / 3)
    assert all_indicators(s, LSC)[1] == pytest.approx(2 / 3)
    assert all_indicators(s, LHV)[0] == pytest.approx(1 - 19.348214 / 36.848214, abs=1e-5)
    assert all_indicators(s, LHV)[1] == pytest.approx(1 - 26.25 / 36.848214, abs=1e-5)


def test_indicator_bounds_and_lsc_sum():
    rng = np.random.default_rng(17)
    for _ in range(25):
        inst = random_instance(rng)
        fronts = [dp_front(inst, random_tour(rng, inst.n)) for _ in range(4)]
        s = surface(fronts)
        for kind in (LSC, LHV):
            vals = all_indicators(s, kind)
            assert np.all(vals >= -1e-12) and np.all(vals <= 1 + 1e-12)
        assert all_indicators(s, LSC).sum() >= 1.0 - 1e-12


def test_full_and_absent_front(pair):
    fwd, _ = pair
    s = surface([fwd])
    assert all_indicators(s, LSC)[0] == 1.0
    assert all_indicators(s, LHV)[0] == 1.0


def test_noncontributing_front(tiny4, pair):
    fwd, rev = pair
    # a front whose every point is dominated contributes nothing
    import ttpsolve.pwt_dp as dp
    dom = dp.DpFront(tour=rev.tour, rewards=np.array([-20.0, 1.0]),
                     weights=np.array([0, 2], np.int64),
                     plans_packed=np.zeros((2, 1), np.uint8), m=3, capacity=5)
    s = surface([fwd, dom])
    assert all_indicators(s, LSC)[1] == 0.0
    assert all_indicators(s, LHV)[1] == 0.0


def test_lhv_zero_volume_fallback():
    import ttpsolve.pwt_dp as dp
    f = dp.DpFront(tour=np.array([1, 2]), rewards=np.array([-5.0]),
                   weights=np.array([0], np.int64),
                   plans_packed=np.zeros((1, 0), np.uint8), m=0, capacity=4)
    s = surface([f])
    assert all_indicators(s, LHV)[0] == 1.0  # falls back to LSC


ALL_NON_POSITIVE = [make_front([-4.0, -2.0, 0.0], [0, 3, 5], 6),
                    make_front([-3.0, -1.5], [1, 4], 6)]


@settings(max_examples=300, deadline=None)
@given(populations())
@example(ALL_NON_POSITIVE)
def test_indicator_invariants(pop):
    """Both kinds lie in [0, 1]; LSC values sum to at least 1 because every
    surface point has an owner (less k float roundings of k terms); a
    zero-volume surface, such as one with every reward <= 0, gives LHV ==
    LSC."""
    s = surface(pop)
    values = {kind: all_indicators(s, kind) for kind in (LSC, LHV)}
    for v in values.values():
        assert v.shape == (len(pop),)
        assert np.all((v >= 0.0) & (v <= 1.0))
    assert values[LSC].sum() >= 1.0 - len(pop) * np.finfo(np.float64).eps
    if _hv(s.rewards, s.weights, s.capacity) == 0.0:
        assert values[LHV].tolist() == values[LSC].tolist()
    if s.rewards.max() <= 0.0:
        assert _hv(s.rewards, s.weights, s.capacity) == 0.0
