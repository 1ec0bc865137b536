import dataclasses
import gc
import re
import tracemalloc
from types import SimpleNamespace
from typing import get_args

import numpy as np
import pytest

from conftest import INSTANCES, run_with_surfaces

from ttpsolve import evolve, fronts, pwt_dp, tours
from ttpsolve.evolve import (
    SELECTION_SCHEMES, IbeaConfig, Individual, _FrontCache, compute_indicators, mate,
    parent_select, run_ibea, selection_probabilities, survivor_select,
)
from ttpsolve.instance_io import parse_instance
from ttpsolve.pwt_dp import REWARD_RTOL, dp_front, evaluate, merge_fronts
from ttpsolve.tours import is_valid_tour, make_tour, reverse_tour

TINY4_OPT = 19.348214285714285


def _pop(tiny4, tours_):
    return [Individual(tour=make_tour(t), front=dp_front(tiny4, make_tour(t)))
            for t in tours_]


def _pool(pop):
    return fronts.SurfacePool([ind.front for ind in pop])


def test_compute_indicators_pair(tiny4):
    pop = _pop(tiny4, [[1, 2, 3, 4], [1, 4, 3, 2]])
    compute_indicators(pop, "lhv")
    assert pop[0].value == pytest.approx(0.474921, abs=1e-5)
    assert pop[1].value == pytest.approx(0.287618, abs=1e-5)


def test_compute_indicators_single(tiny4):
    pop = _pop(tiny4, [[1, 2, 3, 4]])
    compute_indicators(pop, "lhv")
    assert pop[0].value == 1.0


def test_compute_indicators_identical_tours(tiny4):
    pop = _pop(tiny4, [[1, 2, 3, 4], [1, 2, 3, 4]])
    for kind in ("lhv", "lsc"):
        compute_indicators(pop, kind)
        assert pop[0].value == pop[1].value


def test_survivor_select_removes_min(tiny4):
    pop = _pop(tiny4, [[1, 2, 3, 4], [1, 4, 3, 2], [1, 3, 2, 4]])
    for ind, v in zip(pop, (0.9, 0.5, 0.1)):
        ind.value = v
    out = survivor_select(pop, 2, np.random.default_rng(0), "lhv", _pool(pop))
    assert len(out) == 2
    assert all(ind is not pop[2] for ind in out)


def test_survivor_select_identity(tiny4):
    pop = _pop(tiny4, [[1, 2, 3, 4], [1, 4, 3, 2]])
    pool = compute_indicators(pop, "lhv")
    out = survivor_select(pop, 2, np.random.default_rng(0), "lhv", pool)
    assert [id(i) for i in out] == [id(i) for i in pop]


def test_survivor_tie_break_uniform(tiny4):
    t = make_tour([1, 2, 3, 4])
    front = dp_front(tiny4, t)
    removed = np.zeros(3)
    for trial in range(10_000):
        pop = [Individual(tour=t, front=front, value=0.5) for _ in range(3)]
        out = survivor_select(pop, 2, np.random.default_rng(trial), "lhv", _pool(pop))
        kept = {id(i) for i in out}
        gone = next(k for k, ind in enumerate(pop) if id(ind) not in kept)
        removed[gone] += 1
    freq = removed / removed.sum()
    assert np.all(np.abs(freq - 1 / 3) < 0.02)


def test_cheap_draws_equal_the_numpy_calls():
    """``survivor_select`` draws a tie as ``ties[rng.integers(0, ties.size)]``
    and ``mate`` draws cut positions with ``tours.random_positions``: each
    gives the value of the call it replaced (``rng.choice(ties)``, and
    ``rng.integers(2, n + 1, size=2)``) and leaves the stream where that
    call does, so trimming and mating keep their draws."""
    for seed in range(8):
        mine, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
        for size in range(1, 51):
            ties = np.arange(size) * 7 + 3
            for _ in range(3):
                assert ties[mine.integers(0, ties.size)] == theirs.choice(ties)
                assert mine.bit_generator.state == theirs.bit_generator.state
        for n in list(range(2, 61)) + [1000, 2**32, 2**40]:
            mine.random(), theirs.random()
            assert tours.random_positions(mine, n) == \
                tuple(theirs.integers(2, n + 1, size=2).tolist())
            assert mine.bit_generator.state == theirs.bit_generator.state


def _ts_select_with_choice(pop, lam, rng, tournament_size):
    """``parent_select``'s ``ts`` branch as it was when it drew each winner
    with ``rng.choice(best)``."""
    out = []
    values = np.array([ind.value for ind in pop])
    for _ in range(lam):
        contenders = rng.integers(0, len(pop), size=tournament_size)
        cv = values[contenders]
        best = contenders[np.flatnonzero(cv == cv.max())]
        out.append(pop[int(rng.choice(best))])
    return out


def test_tournament_select_keeps_its_draws():
    """Values from a set of three give tied tournaments of every size."""
    for seed in range(6):
        values = np.random.default_rng(100 + seed).integers(0, 3, size=2 + 7 * seed) / 2
        pop = [SimpleNamespace(value=float(v)) for v in values]
        for size in (1, 2, 3, 4):
            mine, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
            got = parent_select(pop, "ts", 25, mine, tournament_size=size)
            want = _ts_select_with_choice(pop, 25, theirs, size)
            assert [id(ind) for ind in got] == [id(ind) for ind in want]
            assert mine.bit_generator.state == theirs.bit_generator.state


def test_selection_probabilities_closed_forms():
    assert selection_probabilities("exp", 4) == pytest.approx(
        [0.533333, 0.266667, 0.133333, 0.066667], abs=1e-6)
    assert selection_probabilities("iq", 4) == pytest.approx(
        [0.702439, 0.175610, 0.078049, 0.043902], abs=1e-5)
    assert selection_probabilities("har", 4) == pytest.approx(
        [0.48, 0.24, 0.16, 0.12], abs=1e-9)
    assert selection_probabilities("uar", 4) == pytest.approx([0.25] * 4)
    with pytest.raises(ValueError, match="no closed form for scheme: fps"):
        selection_probabilities("fps", 4)


def test_selection_empirical_frequencies(tiny4):
    # mu=6 with distinct indicator values; 1e5 draws per scheme, 1% absolute
    mu, draws = 6, 100_000
    pop = _pop(tiny4, [[1, 2, 3, 4]] * mu)
    values = [0.9, 0.7, 0.5, 0.3, 0.2, 0.1]
    for ind, v in zip(pop, values):
        ind.value = v
    for scheme in ("exp", "iq", "har", "uar", "as_bst", "as_ext"):
        rng = np.random.default_rng(42)
        parents = parent_select(pop, scheme, draws, rng)
        by_id = {id(ind): k for k, ind in enumerate(pop)}
        counts = np.zeros(mu)
        for p in parents:
            counts[by_id[id(p)]] += 1
        expect = selection_probabilities(scheme, mu)
        assert np.all(np.abs(counts / draws - expect) < 0.01), scheme


def test_fps_proportional(tiny4):
    pop = _pop(tiny4, [[1, 2, 3, 4]] * 3)
    for ind, v in zip(pop, (0.6, 0.3, 0.1)):
        ind.value = v
    rng = np.random.default_rng(1)
    parents = parent_select(pop, "fps", 60_000, rng)
    counts = np.array([sum(p is ind for p in parents) for ind in pop]) / 60_000
    assert counts == pytest.approx([0.6, 0.3, 0.1], abs=0.01)


def test_fps_zero_sum_falls_back_to_uniform(tiny4):
    pop = _pop(tiny4, [[1, 2, 3, 4]] * 4)
    for ind in pop:
        ind.value = 0.0
    parents = parent_select(pop, "fps", 40_000, np.random.default_rng(2))
    counts = np.array([sum(p is ind for p in parents) for ind in pop]) / 40_000
    assert counts == pytest.approx([0.25] * 4, abs=0.01)


def test_tournament_prefers_better(tiny4):
    pop = _pop(tiny4, [[1, 2, 3, 4]] * 2)
    pop[0].value, pop[1].value = 0.9, 0.1
    parents = parent_select(pop, "ts", 10_000, np.random.default_rng(3),
                            tournament_size=2)
    share_best = sum(p is pop[0] for p in parents) / 10_000
    assert share_best == pytest.approx(0.75, abs=0.02)  # best-of-2 closed form


def test_mate_no_crossover_is_mutated_copy(tiny4):
    cfg = IbeaConfig(mu=4, generations=1, crossover_prob=0.0, seed=0)
    pop = _pop(tiny4, [[1, 2, 3, 4], [1, 4, 3, 2], [1, 3, 2, 4], [1, 2, 4, 3]])
    children = mate(pop, cfg, np.random.default_rng(0))
    assert len(children) == 4
    assert all(is_valid_tour(c, 4) for c in children)


def test_mate_identical_parents_crossover_identity(tiny4):
    cfg = IbeaConfig(mu=2, generations=1, crossover_prob=1.0, mutation_split=1.0,
                     seed=0)
    pop = _pop(tiny4, [[1, 2, 3, 4], [1, 2, 3, 4]])
    rng = np.random.default_rng(0)
    # undo the single 2OPT by checking validity + multiset equality only
    for child in mate(pop, cfg, rng):
        assert is_valid_tour(child, 4)


def _mate_with_pairs_list(parents, cfg, rng):
    """Oracle: ``mate`` as a list of 2λ (first, second) parent pairs, cut to
    λ; an odd last parent pairs with parent 0."""
    lam = len(parents)
    pairs = []
    for i in range(0, lam - 1, 2):
        a, b = parents[i], parents[i + 1]
        pairs.extend([(a, b), (b, a)])
    if lam % 2 == 1:
        pairs.append((parents[-1], parents[0]))
    children = []
    for a, b in pairs[:lam]:
        child = tours.crossover(a.tour, b.tour, rng) if rng.random() < cfg.crossover_prob \
            else a.tour.copy()
        if rng.random() < cfg.mutation_split:
            i, j = sorted(tours.random_positions(rng, child.size))
            child = tours.two_opt_mutate(child, i, j)
        else:
            child = tours.jump_mutate(child, *tours.random_positions(rng, child.size))
        children.append(child)
    return children


@pytest.mark.parametrize("lam", [1, 2, 3, 4, 5])
def test_mate_pairs_each_child_with_its_partner(lam):
    """Children come in pairs (a, b), (b, a); an odd last parent mates with
    parent 0.  Every parent differs, so a wrong partner changes a child."""
    cfg = IbeaConfig(mu=2, lam=lam, crossover_prob=1.0)
    for seed in range(5):
        shuffle = np.random.default_rng(1000 + seed)
        parents = [SimpleNamespace(tour=make_tour([1, *(shuffle.permutation(11) + 2)]))
                   for _ in range(lam)]
        mine, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
        got = mate(parents, cfg, mine)
        want = _mate_with_pairs_list(parents, cfg, theirs)
        assert [c.tolist() for c in got] == [c.tolist() for c in want]
        assert mine.bit_generator.state == theirs.bit_generator.state


def test_run_alpha_zero(tiny4):
    cfg = IbeaConfig(mu=4, generations=0, seed=1, seeding_generations=10)
    res = run_ibea(tiny4, cfg)
    assert len(res.records) == 1
    assert res.records[0].generation == 0
    assert len(res.final_population) == 4


def test_run_result_memory_is_flat_in_the_generations():
    """The memory that a ``run_ibea`` result holds grows by at most 1 KB per
    generation from 50 to 200 generations on eil51.  With each record's
    surface list it grew by about 4.5 KB per generation."""
    eil51 = parse_instance((INSTANCES / "eil51_n50_uncorr.ttp").read_text())

    def held(generations):
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            res = run_ibea(eil51, IbeaConfig(mu=10, generations=generations,
                                             seeding_generations=50, seed=1))
            gc.collect()
            return tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()

    assert (held(200) - held(50)) / 150 <= 1024


def test_run_determinism(tiny4):
    cfg = IbeaConfig(mu=4, generations=12, seed=77, seeding_generations=20)
    a, a_surfaces = run_with_surfaces(tiny4, cfg)
    b, b_surfaces = run_with_surfaces(tiny4, cfg)
    assert a.best_reward == b.best_reward
    assert a_surfaces == b_surfaces
    assert a.best_tour.tolist() == b.best_tour.tolist()


def test_run_reaches_tiny4_optimum(tiny4):
    cfg = IbeaConfig(mu=4, generations=50, seed=5, seeding_generations=20)
    res = run_ibea(tiny4, cfg)
    assert res.best_reward == pytest.approx(TINY4_OPT, abs=1e-6)


def test_archive_monotone_and_population_size(tiny4):
    sizes = []
    cfg = IbeaConfig(mu=4, generations=30, seed=9, seeding_generations=20)
    res = run_ibea(tiny4, cfg)
    best = [r.best_reward for r in res.records]
    arch = [r.archive_hv for r in res.records]
    assert all(b2 >= b1 for b1, b2 in zip(best, best[1:]))
    assert all(a2 >= a1 - 1e-12 for a1, a2 in zip(arch, arch[1:]))
    assert len(res.final_population) == 4


def _fresh_front(inst, tour, both):
    """The DP front of one tour, merged with its reversal's if ``both``."""
    front = dp_front(inst, tour)
    if both:
        front = merge_fronts(front, dp_front(inst, reverse_tour(tour)))
    return front


def _top_orientation(inst, tour, both):
    """``tour``, or with ``both`` its reversal where the reversal's top point
    is better: a higher reward, or an equal one at less weight."""
    if both:
        fwd, rev = dp_front(inst, tour), dp_front(inst, reverse_tour(tour))
        if (rev.rewards[-1], -rev.weights[-1]) > (fwd.rewards[-1], -fwd.weights[-1]):
            return rev.tour
    return tour


def _assert_same_points(got, want):
    assert got.rewards.tobytes() == want.rewards.tobytes()
    assert np.array_equal(got.weights, want.weights)


@pytest.mark.parametrize("indicator", ["lhv", "lsc"])
@pytest.mark.parametrize("both", [False, True])
def test_final_population_fronts_values_and_surface(tiny4, indicator, both):
    """Every final front is its tour's own DP front; the values and the last
    record's surface are those of the final population."""
    eil51 = parse_instance((INSTANCES / "eil51_n50_uncorr.ttp").read_text())
    for inst, seed in ((tiny4, 3), (eil51, 1)):
        res, surfaces = run_with_surfaces(inst, IbeaConfig(
            mu=6, generations=21, seed=seed, seeding_generations=20,
            indicator=indicator, both_orientations=both))
        pop = res.final_population
        for ind in pop:
            assert ind.front.tour.tolist() == _top_orientation(inst, ind.tour, both).tolist()
            _assert_same_points(ind.front, _fresh_front(inst, ind.tour, both))
        surf = fronts.surface([ind.front for ind in pop])
        assert [ind.value for ind in pop] == fronts.all_indicators(surf, indicator).tolist()
        assert surfaces[-1] == list(zip(surf.rewards.tolist(), surf.weights.tolist()))
        assert res.records[-1].population_hv == fronts._hv(surf.rewards, surf.weights,
                                                           inst.capacity)


@pytest.mark.parametrize("both", [False, True])
def test_fill_batches_the_tours_as_given(tiny4, monkeypatch, both):
    """One ``dp_fronts`` batch over the tours in order, repeats included,
    then their reversals if ``both``."""
    batches, dp_fronts = [], pwt_dp.dp_fronts

    def recording_dp_fronts(inst, batch):
        batches.append([t.tolist() for t in batch])
        return dp_fronts(inst, batch)

    monkeypatch.setattr(pwt_dp, "dp_fronts", recording_dp_fronts)
    a, b = make_tour([1, 2, 3, 4]), make_tour([1, 3, 2, 4])
    cache = _FrontCache(tiny4, both)
    cache.fill([a, b, a.copy(), b, a])
    want = [[1, 2, 3, 4], [1, 3, 2, 4], [1, 2, 3, 4], [1, 3, 2, 4], [1, 2, 3, 4]]
    if both:
        want += [[1, 4, 3, 2], [1, 4, 2, 3], [1, 4, 3, 2], [1, 4, 2, 3], [1, 4, 3, 2]]
    assert batches == [want]
    for t in (a, b):
        _assert_same_points(cache.get(t.copy()), _fresh_front(tiny4, t, both))
    # the next batch replaces this one
    cache.fill([b])
    with pytest.raises(KeyError):
        cache.get(a)


@pytest.mark.parametrize("both", [False, True])
def test_best_plan_reproduces_best_reward(tiny4, both):
    """``best_plan`` packed on ``best_tour`` is feasible and earns ``best_reward``."""
    eil51 = parse_instance((INSTANCES / "eil51_n50_uncorr.ttp").read_text())
    for inst, seed in ((tiny4, 3), (tiny4, 6), (eil51, 1), (eil51, 7)):
        res = run_ibea(inst, IbeaConfig(mu=6, generations=8, seed=seed, seeding_generations=20,
                                        both_orientations=both))
        taken = np.zeros(inst.m, bool)
        taken[np.asarray(res.best_plan, np.int64) - 1] = True
        reward, weight = evaluate(inst, res.best_tour, taken)
        assert weight <= inst.capacity
        assert reward == pytest.approx(res.best_reward, rel=REWARD_RTOL)


@pytest.mark.parametrize("both", [False, True])
def test_run_ibea_rebuilds_the_best_plan_with_one_dp_front(tiny4, monkeypatch, both):
    """The loop's fronts come from ``dp_fronts``; after it, one ``dp_front``
    on ``best_tour`` rebuilds the plan, as that tour names the orientation."""
    calls, dp_front_ = [], pwt_dp.dp_front

    def recording_dp_front(inst, t):
        calls.append(t.tolist())
        return dp_front_(inst, t)

    monkeypatch.setattr(pwt_dp, "dp_front", recording_dp_front)
    res = run_ibea(tiny4, IbeaConfig(mu=4, generations=6, seed=3, seeding_generations=10,
                                     both_orientations=both))
    assert calls == [res.best_tour.tolist()]


def test_callback_stops_early(tiny4):
    cfg = IbeaConfig(mu=4, generations=100, seed=2, seeding_generations=10)
    res = run_ibea(tiny4, cfg, callback=lambda rec: rec.generation < 5)
    assert res.records[-1].generation == 5


def test_callback_sees_every_record(tiny4):
    """Generation 0 (the seed tours) and each of the ``generations`` after it
    reach the callback once, the last one included."""
    seen = []
    cfg = IbeaConfig(mu=4, generations=6, seed=2, seeding_generations=10)
    res = run_ibea(tiny4, cfg, callback=seen.append)
    assert [rec.generation for rec in seen] == list(range(7))
    assert seen == res.records


def test_both_orientations_front_merges(tiny4):
    cfg = IbeaConfig(mu=4, generations=5, seed=4, seeding_generations=10,
                     both_orientations=True)
    res = run_ibea(tiny4, cfg)
    # merged fronts see both orientations, so the optimum shows up at once
    assert res.best_reward == pytest.approx(TINY4_OPT, abs=1e-6)


def test_config_validation():
    with pytest.raises(ValueError):
        IbeaConfig(mu=1)
    with pytest.raises(ValueError):
        IbeaConfig(crossover_prob=1.5)
    with pytest.raises(ValueError):
        IbeaConfig(indicator="nope")
    with pytest.raises(ValueError):
        IbeaConfig(selection="nope")
    with pytest.raises(ValueError, match="generations must be >= 0"):
        IbeaConfig(generations=-1)
    for size in (0, -1):
        with pytest.raises(ValueError, match="tournament_size must be >= 1"):
            IbeaConfig(selection="ts", tournament_size=size)
    assert IbeaConfig(generations=0, tournament_size=1).tournament_size == 1
    with pytest.raises(ValueError, match="lambda must be >= 1"):
        IbeaConfig(lam=0)


def test_config_refuses_a_negative_seed():
    with pytest.raises(ValueError, match=r"^seed must be >= 0$"):
        IbeaConfig(seed=-1)
    assert IbeaConfig(seed=0).seed == 0


def test_config_bounds_every_number_field():
    """Every int or float field of ``IbeaConfig`` has a ``_BOUNDS`` row."""
    numeric = {f.name for f in dataclasses.fields(IbeaConfig)
               if {int, float} & set(get_args(f.type) or (f.type,))}
    assert numeric == {name for name, _, _ in evolve._BOUNDS}


@pytest.mark.parametrize("field", ["crossover_prob", "mutation_split", "seeding_p_random"])
def test_config_refuses_nan_probabilities(field):
    with pytest.raises(ValueError, match=re.escape("must lie in [0, 1]")):
        IbeaConfig(**{field: float("nan")})


@pytest.mark.parametrize("field", ["crossover_prob", "mutation_split"])
def test_config_operator_probabilities_name_themselves(field):
    with pytest.raises(ValueError, match=rf"^{field} must lie in \[0, 1\]$"):
        IbeaConfig(**{field: 1.5})


def test_config_reports_the_first_broken_bound():
    """A config that breaks every bound names them one at a time, in order,
    as each is mended: ``tournament_size=0, lam=0`` names tournament_size."""
    config = dict(mu=1, generations=-1, tournament_size=0, lam=0, crossover_prob=2.0,
                  mutation_split=-1.0, seeding_p_random=2.0, seeding_generations=-1)
    mended = dict(mu=4, generations=0, tournament_size=1, lam=1, crossover_prob=0.5,
                  mutation_split=0.5, seeding_p_random=0.5, seeding_generations=0)
    messages = {
        "mu": r"mu must be >= 2",
        "generations": r"generations must be >= 0",
        "tournament_size": r"tournament_size must be >= 1",
        "lam": r"lambda must be >= 1",
        "crossover_prob": r"(crossover_prob|probabilities) must lie in \[0, 1\]",
        "mutation_split": r"(mutation_split|probabilities) must lie in \[0, 1\]",
        "seeding_p_random": r"seeding_p_random must lie in \[0, 1\]",
        "seeding_generations": r"seeding_generations must be >= 0",
    }
    for name, message in messages.items():
        with pytest.raises(ValueError) as exc:
            IbeaConfig(**config)
        assert re.fullmatch(message, str(exc.value)), (name, str(exc.value))
        config[name] = mended[name]
    assert IbeaConfig(**config).lam == 1


@pytest.mark.parametrize("field, value, needle", [
    ("both_orientations", "no", "both_orientations must be bool, not 'no'"),
    ("both_orientations", 1, "both_orientations must be bool, not 1"),
    ("mu", 2.5, "mu must be int, not 2.5"),
    ("mu", True, "mu must be int, not True"),
    ("seed", "3", "seed must be int, not '3'"),
    ("lam", 4.0, "lam must be int or null, not 4.0"),
    ("lam", False, "lam must be int or null, not False"),
    ("crossover_prob", "high", "crossover_prob must be float, not 'high'"),
    ("crossover_prob", True, "crossover_prob must be float, not True"),
    ("indicator", None, "indicator must be str, not None"),
])
def test_config_rejects_wrong_types(field, value, needle):
    """A library caller gets the type rule the command line applies to a
    config file, before any value is used."""
    with pytest.raises(ValueError, match=re.escape(needle)):
        IbeaConfig(**{field: value})


def test_config_choices_live_in_field_metadata():
    """The allowed indicators and selection schemes are each field's
    ``choices``, and a value outside them is named in the error."""
    choices = {f.name: f.metadata["choices"] for f in dataclasses.fields(IbeaConfig)
               if "choices" in f.metadata}
    assert choices == {"indicator": fronts.INDICATOR_KINDS, "selection": SELECTION_SCHEMES}
    with pytest.raises(ValueError, match=re.escape("indicator must be one of lsc, lhv, not 'hv'")):
        IbeaConfig(indicator="hv")
    with pytest.raises(ValueError, match="selection must be one of exp, iq, .*, not 'FPS'"):
        IbeaConfig(selection="FPS")


def test_config_accepts_any_integer_and_integer_probabilities():
    cfg = IbeaConfig(mu=np.int64(4), lam=None, seed=np.uint32(7), crossover_prob=1,
                     mutation_split=np.float64(0.25), seeding_generations=np.int32(0))
    assert cfg.lam == 4 and cfg.crossover_prob == 1
    assert IbeaConfig(lam=np.int16(3)).lam == 3


# Frozen (best_reward, population_hv, archive_hv) of short seeded eil51 runs.
# A change that is meant to keep run_ibea's behaviour must keep these bits;
# one that changes it on purpose re-freezes them here and says why.
GOLDEN_EIL51 = {
    False: (473.93757298673364, 410521.1942520221, 410521.1942520221),
    True: (617.3348490388231, 468167.3068409893, 468167.3068409893),
}
# best_plan of the same runs; a change that keeps run_ibea's behaviour keeps these
GOLDEN_EIL51_BEST_PLAN = {
    False: [2, 6, 17, 23, 24, 25, 27, 30, 36, 48, 49],
    True: [2, 6, 24, 25, 27, 36, 47, 48, 49],
}


@pytest.mark.parametrize("both", [False, True])
def test_run_ibea_golden_fingerprint_eil51(both):
    inst = parse_instance((INSTANCES / "eil51_n50_uncorr.ttp").read_text())
    cfg = IbeaConfig(mu=20, lam=20, generations=5, seeding_generations=200,
                     seed=7, both_orientations=both)
    res = run_ibea(inst, cfg)
    last = res.records[-1]
    assert (last.best_reward, last.population_hv, last.archive_hv) == GOLDEN_EIL51[both]
    assert res.best_plan == GOLDEN_EIL51_BEST_PLAN[both]
