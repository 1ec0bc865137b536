import hashlib
import importlib.util
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ttpsolve.instance_io import Item, make_instance, parse_instance
from ttpsolve.pwt_dp import (
    DpFront, _dp_columns, _pack_plans, best_reward, brute_force_front, dp_front,
    dp_fronts, evaluate, merge_fronts, staircase,
)
from ttpsolve.tours import make_tour, reverse_tour

from conftest import INSTANCES, random_instance, random_tour

MAKE_INSTANCES = INSTANCES.parent / "scripts" / "make_instances.py"

FWD = [1, 2, 3, 4]
REV = [1, 4, 3, 2]

# frozen from the brute-force oracle (all 2^3 packings, Pareto-filtered)
FWD_POINTS = [(-14.0, 0), (8.75, 2), (16.776786, 4)]
REV_POINTS = [(-14.0, 0), (5.375, 2), (7.782609, 3), (19.348214, 4)]


def assert_points(front, expected):
    assert front.weights.tolist() == [w for _, w in expected]
    assert front.rewards == pytest.approx([r for r, _ in expected], abs=1e-6)


def test_evaluate_empty_packing(tiny4):
    r, w = evaluate(tiny4, make_tour(FWD), np.zeros(3, bool))
    assert (r, w) == (-14.0, 0)


def test_evaluate_single_item(tiny4):
    r, w = evaluate(tiny4, make_tour(FWD), np.array([False, False, True]))
    assert w == 2
    assert r == pytest.approx(25 - (10 + 4 / 0.64))


def test_evaluate_two_items(tiny4):
    r, w = evaluate(tiny4, make_tour(FWD), np.array([True, False, True]))
    assert w == 4
    assert r == pytest.approx(45 - (3 + 7 / 0.64 + 4 / 0.28), abs=1e-6)


def test_evaluate_infeasible_still_evaluates(tiny4):
    r, w = evaluate(tiny4, make_tour(FWD), np.ones(3, bool))
    assert w == 7 and np.isfinite(r)


def test_dp_front_forward(tiny4):
    assert_points(dp_front(tiny4, make_tour(FWD)), FWD_POINTS)


def test_dp_front_reversed(tiny4):
    assert_points(dp_front(tiny4, make_tour(REV)), REV_POINTS)


def test_brute_force_matches_dp_on_tiny4(tiny4):
    for t in (FWD, REV):
        f, g = dp_front(tiny4, make_tour(t)), brute_force_front(tiny4, make_tour(t))
        assert np.array_equal(f.weights, g.weights)
        assert f.rewards == pytest.approx(g.rewards.tolist(), rel=1e-9)


def test_best_reward(tiny4):
    assert best_reward(dp_front(tiny4, make_tour(FWD))) == pytest.approx(16.776786, abs=1e-6)
    assert best_reward(dp_front(tiny4, make_tour(REV))) == pytest.approx(19.348214, abs=1e-6)


def test_no_items():
    inst = make_instance("bare", [(0, 0), (0, 3), (4, 3), (4, 0)], [], 10, 0.1, 1.0, 2.0)
    f = dp_front(inst, make_tour(FWD))
    assert f.points == [(-28.0, 0)]
    assert_same_front(dp_fronts(inst, [make_tour(FWD)] * 2)[1], f)
    assert brute_force_front(inst, make_tour(FWD)).points == [(-28.0, 0)]
    assert best_reward(f) == -28.0


def test_zero_capacity(tiny4):
    inst = make_instance("c0", tiny4.coords, list(tiny4.items), 0, 0.1, 1.0, 1.0)
    for fn in (dp_front, brute_force_front):
        f = fn(inst, make_tour(FWD))
        assert f.weights.tolist() == [0]
        assert f.rewards[0] == pytest.approx(-14.0)


def test_brute_force_refuses_large_m():
    items = [Item(1, 1, 2) for _ in range(25)]
    inst = make_instance("big", [(0, 0), (1, 0)], items, 30, 0.1, 1.0, 1.0)
    with pytest.raises(ValueError):
        brute_force_front(inst, make_tour([1, 2]))


def test_oracle_equivalence_randomized():
    rng = np.random.default_rng(123)
    for _ in range(150):
        inst = random_instance(rng)
        t = random_tour(rng, inst.n)
        f, g = dp_front(inst, t), brute_force_front(inst, t)
        assert np.array_equal(f.weights, g.weights)
        np.testing.assert_allclose(f.rewards, g.rewards, rtol=1e-9, atol=1e-12)


def test_staircase_property():
    rng = np.random.default_rng(7)
    for _ in range(50):
        inst = random_instance(rng)
        f = dp_front(inst, random_tour(rng, inst.n))
        assert np.all(np.diff(f.weights) > 0)
        assert np.all(np.diff(f.rewards) > 0)
        assert f.weights[0] == 0


def test_plan_consistency():
    rng = np.random.default_rng(99)
    for _ in range(40):
        inst = random_instance(rng)
        t = random_tour(rng, inst.n)
        f = dp_front(inst, t)
        plans = f.plans
        for i in range(len(f.rewards)):
            r, w = evaluate(inst, t, plans[i])
            assert w == f.weights[i]
            assert r == pytest.approx(f.rewards[i], rel=1e-9, abs=1e-12)


def test_column_monotonicity(tiny4):
    rng = np.random.default_rng(31)
    for _ in range(30):
        inst = random_instance(rng)
        t = random_tour(rng, inst.n)
        columns, _ = _dp_columns(inst, t)
        for w, b, _, _ in columns:
            assert np.all(np.diff(w) > 0)
            assert np.all(np.diff(b) > 0)
            assert np.all(w <= inst.capacity)


def test_dominated_cell_elimination_fires(tiny4):
    # the single-item packing at node 2 lands on (−0.1875, 2), which the
    # node-4 packing (8.75, 2) dominates; the front must not contain it
    r, w = evaluate(tiny4, make_tour(FWD), np.array([True, False, False]))
    assert w == 2 and r == pytest.approx(-0.1875)
    f = dp_front(tiny4, make_tour(FWD))
    at2 = f.rewards[f.weights.tolist().index(2)]
    assert at2 == pytest.approx(8.75)


def test_front_json_roundtrip(tiny4):
    f = dp_front(tiny4, make_tour(FWD))
    doc = json.loads(f.to_json())
    assert doc["tour"] == FWD
    assert doc["points"][1] == [8.75, 2]
    assert doc["plans"][0] == []
    assert doc["plans"][-1] == [1, 3]


def test_merge_fronts(tiny4):
    a = dp_front(tiny4, make_tour(FWD))
    b = dp_front(tiny4, make_tour(REV))
    m = merge_fronts(a, b)
    assert m.weights.tolist() == [0, 2, 4]
    assert m.rewards == pytest.approx([-14.0, 8.75, 19.348214], abs=1e-6)


def test_determinism(tiny4):
    rng = np.random.default_rng(5)
    inst = random_instance(rng)
    t = random_tour(rng, inst.n)
    f, g = dp_front(inst, t), dp_front(inst, t)
    assert np.array_equal(f.rewards, g.rewards)
    assert np.array_equal(f.weights, g.weights)
    assert np.array_equal(f.plans_packed, g.plans_packed)


def test_staircase_ties_earliest_wins():
    rewards = np.array([3.0, 5.0, 3.0, 1.0, 5.0, 4.0, 2.0])
    weights = np.array([2, 4, 2, 0, 4, 5, 2])
    # (3, 2) sits at 0 and 2, (5, 4) at 1 and 4; (4, 5) and (2, 2) are dominated
    assert staircase(rewards, weights).tolist() == [3, 0, 1]
    assert staircase(np.zeros(0), np.zeros(0, np.int64)).tolist() == []


def test_merge_fronts_tie_keeps_first_plan():
    def front(plan):
        return DpFront(tour=make_tour(FWD), rewards=np.array([6.5]),
                       weights=np.array([3], np.int64),
                       plans_packed=_pack_plans(np.array([plan], bool)), m=2, capacity=5)
    a, b = front([True, False]), front([False, True])
    assert merge_fronts(a, b).plans.tolist() == [[True, False]]
    assert merge_fronts(b, a).plans.tolist() == [[False, True]]


@st.composite
def batch_inputs(draw):
    """A small instance plus a batch of its tours.

    Coordinates on a 3x3 grid make coincident cities (zero legs) likely,
    and a zero rent makes rewards plain profit sums, so reward ties are
    common; capacity is often exactly the weight of a subset of items.
    Batches may repeat a tour, and their columns differ in width.
    """
    n = draw(st.integers(2, 6))
    m = draw(st.integers(0, 9))
    coords = draw(st.lists(st.tuples(st.integers(0, 2), st.integers(0, 2)),
                           min_size=n, max_size=n))
    items = [Item(draw(st.integers(1, 6)), draw(st.integers(1, 5)), draw(st.integers(2, n)))
             for _ in range(m)]
    if m and draw(st.booleans()):
        subset = draw(st.lists(st.sampled_from(items), min_size=1, unique_by=id))
        cap = sum(it.weight for it in subset)
    else:
        cap = draw(st.integers(0, 25))
    inst = make_instance("batch", coords, items, cap, draw(st.sampled_from([0.1, 0.3])),
                         1.0, draw(st.sampled_from([0.0, 1.0, 2.5])))
    pool = draw(st.lists(st.permutations(range(2, n + 1)), min_size=1, max_size=4))
    picks = draw(st.lists(st.integers(0, len(pool) - 1), min_size=1, max_size=8))
    return inst, [make_tour([1, *pool[i]]) for i in picks]


def assert_same_front(got, want):
    """``got``, a points-only ``dp_fronts`` front, has ``want``'s points bit for bit."""
    assert got.tour.tolist() == want.tour.tolist()
    for g, w in ((got.rewards, want.rewards), (got.weights, want.weights)):
        assert g.dtype == w.dtype and g.shape == w.shape
        assert g.tobytes() == w.tobytes()
    assert (got.m, got.capacity) == (want.m, want.capacity)
    assert got.plans_packed is None


@settings(max_examples=300, deadline=None)
@given(batch_inputs())
def test_dp_fronts_equals_dp_front(args):
    inst, tours_ = args
    got = dp_fronts(inst, tours_)
    assert len(got) == len(tours_)
    for t, f in zip(tours_, got):
        assert_same_front(f, dp_front(inst, t))
    # a batch of one gives the same front as the batch it came from
    assert_same_front(dp_fronts(inst, tours_[-1:])[0], got[-1])


def test_dp_fronts_empty_batch(tiny4):
    assert dp_fronts(tiny4, []) == []


def test_dp_fronts_front_has_no_plans(tiny4):
    f = dp_fronts(tiny4, [make_tour(FWD)])[0]
    assert f.points == dp_front(tiny4, make_tour(FWD)).points
    for use in (lambda: f.plans, lambda: f.plan_items(0), f.to_json):
        with pytest.raises(ValueError, match="use dp_front"):
            use()
    # merging keeps plans only when both fronts have them
    g = dp_front(tiny4, make_tour(REV))
    assert merge_fronts(f, g).plans_packed is None
    assert merge_fronts(g, f).plans_packed is None
    assert merge_fronts(g, g).plans.tolist() == g.plans.tolist()


def test_dp_fronts_eil51_mixed_widths():
    inst = parse_instance((INSTANCES / "eil51_n50_uncorr.ttp").read_text())
    rng = np.random.default_rng(51)
    tours_ = [random_tour(rng, inst.n) for _ in range(12)]
    tours_ += tours_[:3]
    got = dp_fronts(inst, tours_)
    assert len({f.rewards.size for f in got}) > 1
    for t, f in zip(tours_, got):
        assert_same_front(f, dp_front(inst, t))


def test_dp_fronts_matches_oracle():
    rng = np.random.default_rng(4242)
    for _ in range(100):
        inst = random_instance(rng)
        tours_ = [random_tour(rng, inst.n) for _ in range(int(rng.integers(1, 5)))]
        for t, f in zip(tours_, dp_fronts(inst, tours_)):
            g = brute_force_front(inst, t)
            assert np.array_equal(f.weights, g.weights)
            np.testing.assert_allclose(f.rewards, g.rewards, rtol=1e-9, atol=1e-12)


def eil76_strongly_correlated():
    """eil76 with 3 strongly correlated items per city (profit = weight +
    100, weight uniform on 1..1000; Polyakovskiy et al., GECCO 2014) and
    capacity 1/11 of the total weight: DP columns about 2,400 cells wide."""
    spec = importlib.util.spec_from_file_location("make_instances", MAKE_INSTANCES)
    make_instances = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(make_instances)
    rng = np.random.default_rng(76)
    items = [Item(profit=int(w) + 100, weight=int(w), node=node)
             for node in range(2, len(make_instances.EIL76) + 1)
             for w in rng.integers(1, 1001, size=3)]
    capacity = sum(it.weight for it in items) // 11
    inst = make_instance("eil76_bsc3", make_instances.EIL76, items, capacity, 0.1, 1.0, 1.0)
    rng = np.random.default_rng(2014)
    return inst, [random_tour(rng, inst.n) for _ in range(3)]


# sha256 of rewards, weights and plans_packed bytes of dp_front on the three
# tours of eil76_strongly_correlated(), frozen before the merge used a stable
# weight sort and the DP kept only back-links
GOLDEN_DP_WIDE = [
    "7046e32ff6a69664c453bba5800b23146875dd2d071835cf844e5cd1eb98bdfe",
    "fdd6fcbee64b962e403e5564966cec3cac60a8815a13b1f32b69f5ab1edadfb2",
    "1a5885734da91009737376d5ddd059ffc7d39dd754bed9dffef0a137f69ef923",
]


def test_dp_front_wide_golden():
    inst, tours_ = eil76_strongly_correlated()
    digests = []
    for t in tours_:
        f = dp_front(inst, t)
        assert f.rewards.size > 2000
        digest = hashlib.sha256()
        for a in (f.rewards, f.weights, f.plans_packed):
            digest.update(a.tobytes())
        digests.append(digest.hexdigest())
    assert digests == GOLDEN_DP_WIDE


def test_dp_fronts_equals_dp_front_wide():
    inst, tours_ = eil76_strongly_correlated()
    for t, f in zip(tours_, dp_fronts(inst, tours_)):
        assert_same_front(f, dp_front(inst, t))


@pytest.mark.parametrize("n_tours", [1, 2, 6])
def test_dp_fronts_sort_key_bound(tiny4, n_tours):
    """The sort key is bounded by min(capacity, total item weight): at the
    largest such bound that fits int64, ``dp_fronts`` gives ``dp_front``'s
    points whatever the capacity above it; one more raises a ValueError
    naming the bound and the batch size."""
    fit = (2**63 - 1) // n_tours - 1
    tours_ = ([make_tour(FWD), make_tour(REV)] * 3)[:n_tours]
    for total in (fit, fit + 1):
        heavy = [Item(it.profit, w, it.node) for it, w in
                 zip(tiny4.items, (total // 2, total // 4, total - total // 2 - total // 4))]
        for cap in (total, 2**63 - 1):
            inst = make_instance("tiny4", tiny4.coords, heavy, cap,
                                 tiny4.vmin, tiny4.vmax, tiny4.rent)
            if total == fit:
                for t, f in zip(tours_, dp_fronts(inst, tours_)):
                    assert_same_front(f, dp_front(inst, t))
            else:
                with pytest.raises(ValueError, match=f"{n_tours} tours at capacity {total}"):
                    dp_fronts(inst, tours_)


def test_dp_fronts_rejects_wrapping_capacity():
    """A capacity beyond the key's range is refused only if the items weigh
    that much too; light items leave ``dp_front``'s points."""
    text = (INSTANCES / "tiny4.ttp").read_text().replace(
        "CAPACITY OF KNAPSACK: 5", "CAPACITY OF KNAPSACK: 4000000000000000000")
    tours_ = [make_tour(FWD), make_tour(REV)] * 3
    inst = parse_instance(text)
    for t, f in zip(tours_, dp_fronts(inst, tours_)):
        assert f.rewards.size == 6
        assert_same_front(f, dp_front(inst, t))
    heavy = parse_instance(text.replace(" 2 2\n", " 2000000000000000000 2\n")
                           .replace(" 3 3\n", " 3000000000000000000 3\n"))
    assert all(dp_front(heavy, t).rewards.size > 1 for t in tours_)
    with pytest.raises(ValueError, match="6 tours at capacity 4000000000000000000"):
        dp_fronts(heavy, tours_)
