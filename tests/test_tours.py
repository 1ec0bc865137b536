import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ttpsolve
from ttpsolve import _kernels
from ttpsolve.instance_io import _ceil2d, make_instance
from ttpsolve.tours import (
    crossover, inver_over, is_valid_tour, jump_mutate, make_tour,
    order_crossover, reverse_tour, tour_length, two_opt_mutate,
)

from conftest import random_tour
from reference_operators import jump_mutate_ref, order_crossover_ref


def perm_strategy(min_n=3, max_n=12):
    return st.integers(min_n, max_n).flatmap(
        lambda n: st.permutations(list(range(2, n + 1))).map(
            lambda rest: make_tour([1] + list(rest))))


def test_tour_length_examples(tiny4):
    assert tour_length(tiny4, make_tour([1, 2, 3, 4])) == 14
    assert tour_length(tiny4, make_tour([1, 4, 3, 2])) == 14


def test_tour_length_two_cities():
    inst = make_instance("pair", [(0, 0), (7, 0)], [], 0, 0.1, 1.0, 1.0)
    assert tour_length(inst, make_tour([1, 2])) == 14


def test_tour_invariant_rejects_bad():
    with pytest.raises(ValueError):
        make_tour([2, 1, 3])
    with pytest.raises(ValueError):
        make_tour([1, 2, 2])
    with pytest.raises(ValueError, match="city numbers must be integers, not float64"):
        make_tour(np.array([1.0, 2.0, 3.0]))


def test_is_valid_tour_rejects_empty():
    assert is_valid_tour(np.zeros(0, np.int64)) is False


def test_make_tour_checks_the_instance_size():
    assert make_tour([1, 3, 2], 3).tolist() == [1, 3, 2]
    with pytest.raises(ValueError, match=r"^tour has 3 cities, the instance has n=4$"):
        make_tour([1, 3, 2], 4)
    assert is_valid_tour(make_tour([1, 3, 2]), 3) and not is_valid_tour(make_tour([1, 3, 2]), 4)


@pytest.mark.parametrize("cities", [1, "1234", None, {1: 1}])
def test_make_tour_refuses_a_non_sequence(cities):
    with pytest.raises(ValueError, match="^a tour must be a list of city numbers, not "):
        make_tour(cities)


def test_two_opt_examples():
    t = make_tour([1, 2, 3, 4])
    assert two_opt_mutate(t, 2, 3).tolist() == [1, 3, 2, 4]
    assert two_opt_mutate(t, 2, 4).tolist() == [1, 4, 3, 2]
    assert two_opt_mutate(t, 3, 3).tolist() == [1, 2, 3, 4]


def test_two_opt_out_of_range():
    t = make_tour([1, 2, 3, 4])
    with pytest.raises(IndexError):
        two_opt_mutate(t, 1, 3)
    with pytest.raises(IndexError):
        two_opt_mutate(t, 2, 5)


def test_jump_examples():
    t = make_tour([1, 2, 3, 4])
    assert jump_mutate(t, 4, 2).tolist() == [1, 4, 2, 3]
    assert jump_mutate(t, 3, 3).tolist() == [1, 2, 3, 4]
    assert jump_mutate(t, 2, 4).tolist() == [1, 3, 4, 2]


def test_jump_out_of_range():
    t = make_tour([1, 2, 3, 4])
    with pytest.raises(IndexError):
        jump_mutate(t, 1, 2)
    with pytest.raises(IndexError):
        jump_mutate(t, 2, 5)


def test_crossover_hand_trace():
    a = make_tour([1, 2, 3, 4, 5])
    b = make_tour([1, 5, 4, 3, 2])
    assert order_crossover(a, b, 3, 4).tolist() == [1, 5, 3, 4, 2]


def test_crossover_identical_parents():
    rng = np.random.default_rng(0)
    a = make_tour([1, 4, 2, 5, 3])
    for _ in range(10):
        assert crossover(a, a, rng).tolist() == a.tolist()


@settings(max_examples=60, deadline=None)
@given(perm_strategy(), st.data())
def test_operators_preserve_tour_invariant(t, data):
    n = t.size
    i = data.draw(st.integers(2, n))
    j = data.draw(st.integers(i, n))
    assert is_valid_tour(two_opt_mutate(t, i, j), n)
    frm = data.draw(st.integers(2, n))
    to = data.draw(st.integers(2, n))
    assert is_valid_tour(jump_mutate(t, frm, to), n)
    other = data.draw(perm_strategy(n, n))
    assert is_valid_tour(crossover(t, other, np.random.default_rng(0)), n)


@settings(max_examples=25, deadline=None)
@given(perm_strategy(3, 60), st.data())
def test_order_crossover_equals_reference(a, data):
    """Every window ``2 <= i <= j <= n``, one-city windows included."""
    b = data.draw(perm_strategy(a.size, a.size))
    for i in range(2, a.size + 1):
        for j in range(i, a.size + 1):
            got = order_crossover(a, b, i, j)
            assert got.dtype == np.int64
            assert got.tolist() == order_crossover_ref(a, b, i, j).tolist()


@settings(max_examples=25, deadline=None)
@given(perm_strategy(3, 60))
def test_jump_equals_reference(t):
    """Every pair of positions ``frm`` and ``to``, ``frm == to`` included."""
    for frm in range(2, t.size + 1):
        for to in range(2, t.size + 1):
            got = jump_mutate(t, frm, to)
            assert got.dtype == np.int64
            assert got.tolist() == jump_mutate_ref(t, frm, to).tolist()


@settings(max_examples=40, deadline=None)
@given(perm_strategy(), st.data())
def test_two_opt_involution(t, data):
    n = t.size
    i = data.draw(st.integers(2, n))
    j = data.draw(st.integers(i, n))
    assert two_opt_mutate(two_opt_mutate(t, i, j), i, j).tolist() == t.tolist()


def test_tour_length_reversal_invariant():
    rng = np.random.default_rng(7)
    coords = rng.uniform(0, 100, (10, 2))
    inst = make_instance("rev", coords, [], 0, 0.1, 1.0, 1.0)
    for _ in range(20):
        t = random_tour(rng, 10)
        assert tour_length(inst, t) == tour_length(inst, reverse_tour(t))


def _square_instance(rng, n=8):
    coords = rng.uniform(0, 50, (n, 2))
    return make_instance("sq", coords, [], 0, 0.1, 1.0, 1.0)


def test_inver_over_returns_valid_tours():
    rng = np.random.default_rng(5)
    inst = _square_instance(rng)
    for t in inver_over(inst, 6, 50, rng=rng):
        assert is_valid_tour(t, inst.n)


def test_inver_over_monotone_acceptance():
    """An individual is replaced only by a tour no longer than itself, so
    each ends no longer than it started."""
    rng = np.random.default_rng(9)
    inst = _square_instance(rng, n=12)
    dist = _ceil2d(inst.coords[:, None], inst.coords[None])
    pop = np.array([rng.permutation(inst.n) for _ in range(5)], np.int64)

    def lengths():
        return dist[pop, np.roll(pop, -1, axis=1)].sum(axis=1)

    before = lengths()
    _kernels.run_inver_over(pop, dist, 40, 0.02, 3)
    after = lengths()
    assert np.all(after <= before)
    assert np.any(after < before), "expected at least one improvement"


def test_inver_over_three_cities_all_equal():
    inst = make_instance("tri", [(0, 0), (3, 0), (0, 4)], [], 0, 0.1, 1.0, 1.0)
    lengths = {tour_length(inst, t) for t in inver_over(inst, 4, 20,
                                                        rng=np.random.default_rng(0))}
    assert len(lengths) == 1


def test_inver_over_requires_population():
    inst = make_instance("tri", [(0, 0), (3, 0), (0, 4)], [], 0, 0.1, 1.0, 1.0)
    with pytest.raises(ValueError):
        inver_over(inst, 1, 10, rng=np.random.default_rng(0))


def test_inver_over_improves_random_tours():
    rng = np.random.default_rng(11)
    inst = _square_instance(rng, n=20)
    seeded = inver_over(inst, 8, 400, rng=np.random.default_rng(1))
    fresh = [random_tour(np.random.default_rng(2), 20) for _ in range(8)]
    assert min(tour_length(inst, t) for t in seeded) < \
        min(tour_length(inst, t) for t in fresh)


def test_inver_over_one_city_returns():
    """With one city the random partner redraw can only draw that city
    again, so the seeding must return without running the loop.  It runs
    in a child process so that a hang fails the test instead of the suite."""
    code = ("import numpy as np\n"
            "from ttpsolve.instance_io import make_instance\n"
            "from ttpsolve.tours import inver_over\n"
            "inst = make_instance('one', [(0, 0)], [], 0, 0.1, 1.0, 1.0)\n"
            "tours = inver_over(inst, 2, 1, 1.0, np.random.default_rng(0))\n"
            "print([t.tolist() for t in tours])\n")
    src = str(Path(ttpsolve.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, timeout=20)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[[1], [1]]"
