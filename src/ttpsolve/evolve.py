"""Hybrid indicator-based evolutionary driver over TSP tours.

Each individual is a tour; its fitness is a front-level loss indicator
computed against the surface of the whole population's DP fronts.  The
generation loop is: indicators, survivor trim (with indicator recomputation
after every removal), parent selection by one of eight schemes, mating
(order crossover + one mutation per child), then appending the children
with freshly computed fronts.
"""

from collections import OrderedDict
from dataclasses import dataclass
import time

import numpy as np

from . import fronts as fr
from . import pwt_dp, tours
from .instance_io import Instance

SELECTION_SCHEMES = ("exp", "iq", "har", "fps", "ts", "as_bst", "as_ext", "uar")


@dataclass
class IbeaConfig:
    mu: int = 50
    generations: int = 100          # the generation limit
    lam: int | None = None          # offspring per generation; defaults to mu
    indicator: str = fr.LHV
    selection: str = "fps"
    crossover_prob: float = 0.8
    mutation_split: float = 0.5     # probability of 2OPT over JUMP
    tournament_size: int = 2
    seed: int = 0
    both_orientations: bool = False
    seeding_generations: int = 1000
    seeding_p_random: float = tours.P_RANDOM_DEFAULT
    recompute_on_removal: bool = True   # rescore after each removal; off = fast mode
    dp_cache_size: int = 4096
    debug_check_cache: bool = False

    def __post_init__(self):
        if self.mu < 2:
            raise ValueError("mu must be >= 2")
        if self.lam is None:
            self.lam = self.mu
        if self.lam < 1:
            raise ValueError("lambda must be >= 1")
        for p in (self.crossover_prob, self.mutation_split):
            if not 0.0 <= p <= 1.0:
                raise ValueError("probabilities must lie in [0, 1]")
        if not 0.0 <= self.seeding_p_random <= 1.0:
            raise ValueError("seeding_p_random must lie in [0, 1]")
        if self.seeding_generations < 0:
            raise ValueError("seeding_generations must be >= 0")
        if self.indicator not in fr.INDICATOR_KINDS:
            raise ValueError(f"unknown indicator: {self.indicator}")
        if self.selection not in SELECTION_SCHEMES:
            raise ValueError(f"unknown selection scheme: {self.selection}")


@dataclass
class Individual:
    tour: np.ndarray
    front: pwt_dp.DpFront
    value: float = 0.0


@dataclass
class RunRecord:
    generation: int
    surface_points: list
    population_hv: float
    best_reward: float
    archive_hv: float
    wall_ms: float

    def to_json_dict(self):
        return {
            "generation": self.generation,
            "surface": [[r, int(w)] for r, w in self.surface_points],
            "population_hv": self.population_hv,
            "best_reward": self.best_reward,
            "archive_hv": self.archive_hv,
            "wall_ms": self.wall_ms,
        }


@dataclass
class RunResult:
    records: list
    archive_points: list            # best-ever Pareto archive over all fronts
    best_reward: float
    best_tour: np.ndarray           # the orientation that best_plan is packed on
    best_plan: list                 # 1-based item indices, rebuilt once at the end
    final_population: list


class _FrontCache:
    """Bounded LRU of DP fronts keyed by the exact tour.

    ``fill`` computes the fronts of a whole generation in one batched DP;
    ``get`` then finds them, and computes a front itself only on a miss.
    """

    def __init__(self, inst, maxsize, both_orientations):
        self.inst = inst
        self.maxsize = maxsize
        self.both = both_orientations
        self.data = OrderedDict()

    def get(self, tour):
        key = tour.tobytes()
        hit = self.data.get(key)
        if hit is not None:
            self.data.move_to_end(key)
            return hit
        front = _fresh_front(self.inst, tour, self.both)
        self._store(key, front)
        return front

    def fill(self, tour_list):
        """Compute the fronts of every tour not cached, in one DP batch."""
        misses = {}
        for t in tour_list:
            key = t.tobytes()
            if key not in self.data:
                misses.setdefault(key, t)
        batch = list(misses.values())
        if self.both:
            batch += [tours.reverse_tour(t) for t in batch]
        found = pwt_dp.dp_fronts(self.inst, batch)
        if self.both:
            half = len(found) // 2
            found = [pwt_dp.merge_fronts(a, b) for a, b in zip(found[:half], found[half:])]
        for key, front in zip(misses, found):
            self._store(key, front)

    def _store(self, key, front):
        self.data[key] = front
        if len(self.data) > self.maxsize:
            self.data.popitem(last=False)


def _fresh_front(inst, tour, both_orientations):
    """The DP front of one tour, merged with its reversal's if asked."""
    front = pwt_dp.dp_front(inst, tour)
    if both_orientations:
        front = pwt_dp.merge_fronts(front, pwt_dp.dp_front(inst, tours.reverse_tour(tour)))
    return front


def _best_solution(inst, tour, both_orientations):
    """The orientation of ``tour`` and the 1-based plan behind its top reward.

    The reversal wins only where ``merge_fronts`` would keep its top point.
    """
    front = pwt_dp.dp_front(inst, tour)
    if both_orientations:
        rev = pwt_dp.dp_front(inst, tours.reverse_tour(tour))
        if (rev.rewards[-1], -rev.weights[-1]) > (front.rewards[-1], -front.weights[-1]):
            front = rev
    return front.tour, front.plan_items(front.rewards.size - 1)


def _same_front(a, b):
    return a.rewards.tobytes() == b.rewards.tobytes() and np.array_equal(a.weights, b.weights)


def compute_indicators(pop, kind):
    """Build the population surface and refresh every individual's value."""
    surf = fr.surface([ind.front for ind in pop])
    values = fr.all_indicators(surf, kind)
    for ind, v in zip(pop, values):
        ind.value = float(v)
    return surf


def survivor_select(pop, mu, rng, kind, recompute=True):
    """Trim to ``mu`` by repeated removal of a minimal-indicator individual.

    Ties break uniformly at random.  By default the surface-relative
    indicators are recomputed after every removal but the last, since
    removing a contributor changes the surface.  The survivors' values are
    therefore stale on return; the caller refreshes them with
    :func:`compute_indicators`, which also yields the survivors' surface.
    """
    pop = list(pop)
    while len(pop) > mu:
        values = np.array([ind.value for ind in pop])
        worst = np.flatnonzero(values == values.min())
        pop.pop(int(rng.choice(worst)))
        if recompute and len(pop) > mu:
            compute_indicators(pop, kind)
    return pop


def rank_order(pop):
    """Indices ordered best-first (descending indicator, stable)."""
    values = np.array([ind.value for ind in pop])
    return np.argsort(-values, kind="stable")


def selection_probabilities(scheme, mu):
    """Closed-form per-rank probabilities of the rank-based schemes."""
    ranks = np.arange(1, mu + 1, dtype=np.float64)
    if scheme == "exp":
        weights = 2.0 ** -ranks
    elif scheme == "iq":
        weights = ranks ** -2.0
    elif scheme == "har":
        weights = ranks ** -1.0
    elif scheme == "uar":
        weights = np.ones(mu)
    elif scheme == "as_bst":
        weights = (ranks <= np.ceil(mu / 2)).astype(float)
    elif scheme == "as_ext":
        q = np.ceil(mu / 4)
        weights = ((ranks <= q) | (ranks > mu - q)).astype(float)
    else:
        raise ValueError(f"no closed form for scheme: {scheme}")
    return weights / weights.sum()


def parent_select(pop, scheme, lam, rng, tournament_size=2):
    """Draw ``lam`` parents (with replacement) under the given scheme."""
    mu = len(pop)
    if scheme == "fps":
        values = np.array([ind.value for ind in pop])
        total = values.sum()
        if total <= 0:
            probs = np.full(mu, 1.0 / mu)
        else:
            probs = values / total
        idx = rng.choice(mu, size=lam, p=probs)
        return [pop[i] for i in idx]
    if scheme == "ts":
        out = []
        values = np.array([ind.value for ind in pop])
        for _ in range(lam):
            contenders = rng.integers(0, mu, size=tournament_size)
            cv = values[contenders]
            best = contenders[np.flatnonzero(cv == cv.max())]
            out.append(pop[int(rng.choice(best))])
        return out
    ranked = rank_order(pop)
    probs = selection_probabilities(scheme, mu)
    draws = rng.choice(mu, size=lam, p=probs)
    return [pop[int(ranked[d])] for d in draws]


def mate(parents, cfg, rng):
    """Consume parents in consecutive pairs; each pair yields two children.

    A child is the order-crossover of its pair with probability
    ``crossover_prob``, otherwise a copy of its first parent; every child is
    then mutated exactly once (2OPT or JUMP, positions uniform at random).
    """
    lam = len(parents)
    children = []
    pairs = []
    for i in range(0, lam - 1, 2):
        a, b = parents[i], parents[i + 1]
        pairs.extend([(a, b), (b, a)])
    if lam % 2 == 1:
        pairs.append((parents[-1], parents[0]))
    for a, b in pairs[:lam]:
        if rng.random() < cfg.crossover_prob:
            child = tours.crossover(a.tour, b.tour, rng)
        else:
            child = a.tour.copy()
        n = child.size
        if n > 2:
            if rng.random() < cfg.mutation_split:
                i, j = sorted(rng.integers(2, n + 1, size=2))
                child = tours.two_opt_mutate(child, int(i), int(j))
            else:
                frm, to = rng.integers(2, n + 1, size=2)
                child = tours.jump_mutate(child, int(frm), int(to))
        children.append(child)
    return children


class _Archive:
    """Best-ever Pareto archive over every front produced in a run (points only)."""

    def __init__(self, capacity):
        self.capacity = capacity
        self.rewards = np.zeros(0)
        self.weights = np.zeros(0, np.int64)
        self.best_reward = -np.inf
        self.best_tour = None

    def add(self, front):
        top = float(front.rewards.max())
        if top > self.best_reward:
            self.best_reward = top
            self.best_tour = front.tour.copy()
        rewards = np.concatenate((self.rewards, front.rewards))
        weights = np.concatenate((self.weights, front.weights))
        keep = pwt_dp.staircase(rewards, weights)
        self.rewards = rewards[keep]
        self.weights = weights[keep]

    def hv(self):
        return fr._hv(self.rewards, self.weights, self.capacity)

    def points(self):
        return list(zip(self.rewards.tolist(), self.weights.tolist()))


def run_ibea(inst: Instance, cfg: IbeaConfig, callback=None) -> RunResult:
    """Run the hybrid loop for ``cfg.generations`` generations.

    Deterministic in (seed, config, instance): all stochastic choices come
    from per-purpose streams derived from the master seed.  ``callback``
    receives each RunRecord; returning False stops the run early.
    """
    ss = np.random.SeedSequence(cfg.seed)
    rng_seed, rng_sel, rng_mate, rng_tie = (np.random.default_rng(s) for s in ss.spawn(4))
    cache = _FrontCache(inst, cfg.dp_cache_size, cfg.both_orientations)
    archive = _Archive(inst.capacity)
    t0 = time.perf_counter()

    seed_tours = tours.inver_over(inst, cfg.mu, cfg.seeding_generations,
                                  cfg.seeding_p_random, rng_seed)
    pop = []
    cache.fill(seed_tours)
    for t in seed_tours:
        front = cache.get(t)
        archive.add(front)
        pop.append(Individual(tour=t, front=front))

    records = []
    gen = 0
    while True:
        if len(pop) > cfg.mu:
            compute_indicators(pop, cfg.indicator)
            pop = survivor_select(pop, cfg.mu, rng_tie, cfg.indicator,
                                  recompute=cfg.recompute_on_removal)
        surf = compute_indicators(pop, cfg.indicator)
        if cfg.debug_check_cache and gen % 10 == 0:
            # draws no random numbers, so the check leaves the run unchanged
            ind = pop[(gen // 10) % len(pop)]
            if not _same_front(ind.front, _fresh_front(inst, ind.tour, cfg.both_orientations)):
                raise AssertionError("DP front cache incoherent")
        rec = RunRecord(
            generation=gen,
            surface_points=list(zip(surf.rewards.tolist(), surf.weights.tolist())),
            population_hv=fr._hv(surf.rewards, surf.weights, inst.capacity),
            best_reward=archive.best_reward,
            archive_hv=archive.hv(),
            wall_ms=(time.perf_counter() - t0) * 1e3,
        )
        records.append(rec)
        if callback is not None and callback(rec) is False:
            break
        if gen >= cfg.generations:
            break
        gen += 1
        parents = parent_select(pop, cfg.selection, cfg.lam, rng_sel, cfg.tournament_size)
        children = mate(parents, cfg, rng_mate)
        cache.fill(children)
        for child in children:
            front = cache.get(child)
            archive.add(front)
            pop.append(Individual(tour=child, front=front))

    best_tour, best_plan = _best_solution(inst, archive.best_tour, cfg.both_orientations)
    return RunResult(records=records, archive_points=archive.points(),
                     best_reward=archive.best_reward, best_tour=best_tour,
                     best_plan=best_plan, final_population=pop)
