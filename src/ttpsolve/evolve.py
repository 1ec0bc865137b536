"""Hybrid indicator-based evolutionary driver over TSP tours.

Each individual is a tour; its fitness is a front-level loss indicator
computed against the surface of the whole population's DP fronts.  Each
generation makes children (the Inver-over seed tours in generation 0;
parent selection by one of eight schemes, then order crossover + one
mutation per child, after that), admits them with their fronts from one
batched DP, and then scores and trims the population against one
``fronts.SurfacePool`` that sorts its points once.  No front outlives its
generation's batch.  The trim rescores only after removals that change the
surface (see :func:`survivor_select`).
"""

from dataclasses import dataclass, field, fields
import numbers
import time
from typing import get_args

import numpy as np

from . import fronts as fr
from . import pwt_dp, tours
from .instance_io import Instance

SELECTION_SCHEMES = ("exp", "iq", "har", "fps", "ts", "as_bst", "as_ext", "uar")
# what a field's annotated type admits, where not itself; no type but bool admits a bool
_ADMITS = {int: numbers.Integral, float: numbers.Real}
# IbeaConfig's bounds (field, low, high) in the order checked; high 1 marks a probability
_BOUNDS = (("mu", 2, np.inf), ("generations", 0, np.inf), ("tournament_size", 1, np.inf),
           ("lam", 1, np.inf), ("crossover_prob", 0, 1), ("mutation_split", 0, 1),
           ("seeding_p_random", 0, 1), ("seeding_generations", 0, np.inf), ("seed", 0, np.inf))


@dataclass
class IbeaConfig:
    mu: int = 50
    generations: int = 100          # the generation limit
    lam: int | None = None          # offspring per generation; defaults to mu
    indicator: str = field(default=fr.LHV, metadata={"choices": fr.INDICATOR_KINDS})
    selection: str = field(default="fps", metadata={"choices": SELECTION_SCHEMES})
    crossover_prob: float = 0.8
    mutation_split: float = 0.5     # probability of 2OPT over JUMP
    tournament_size: int = 2
    seed: int = 0
    both_orientations: bool = False
    seeding_generations: int = 1000
    seeding_p_random: float = tours.P_RANDOM_DEFAULT

    def __post_init__(self):
        for f in fields(self):
            value, allowed = getattr(self, f.name), get_args(f.type) or (f.type,)
            if not any(isinstance(value, _ADMITS.get(t, t))
                       and (t is bool or not isinstance(value, bool)) for t in allowed):
                names = " or ".join("null" if t is type(None) else t.__name__ for t in allowed)
                raise ValueError(f"{f.name} must be {names}, not {value!r}")
            choices = f.metadata.get("choices")
            if choices is not None and value not in choices:
                raise ValueError(f"{f.name} must be one of {', '.join(choices)}, not {value!r}")
        if self.lam is None:
            self.lam = self.mu
        for name, low, high in _BOUNDS:
            if not low <= getattr(self, name) <= high:   # refuses NaN too
                rule = "must lie in [0, 1]" if high == 1 else f"must be >= {low}"
                raise ValueError(f"{'lambda' if name == 'lam' else name} {rule}")


@dataclass
class Individual:
    tour: np.ndarray
    front: pwt_dp.DpFront
    value: float = 0.0


@dataclass
class RunRecord:
    """One generation's outcome, as ``bench_cli.write_records`` writes it."""
    generation: int
    population_hv: float
    best_reward: float
    archive_hv: float
    wall_ms: float


@dataclass
class RunResult:
    """``records`` holds one RunRecord per generation run.  ``best_reward``
    is the archive's top point and ``best_tour`` its tour, the orientation
    that ``best_plan`` is packed on."""
    records: list
    best_reward: float
    best_tour: np.ndarray
    best_plan: list                 # 1-based item indices, rebuilt once at the end
    final_population: list


class _FrontCache:
    """The DP fronts of the last batch, keyed by the exact tour.  With both
    orientations a front merges the tour's and its reversal's, and its tour
    is the orientation that holds its top point."""

    def __init__(self, inst, both_orientations):
        self.inst = inst
        self.both = both_orientations
        self.data = {}

    def get(self, tour):
        return self.data[tour.tobytes()]

    def fill(self, tour_list):
        """Replace the batch by one DP batch over ``tour_list`` as given."""
        batch = list(tour_list)
        if self.both:
            batch += [tours.reverse_tour(t) for t in tour_list]
        found = pwt_dp.dp_fronts(self.inst, batch)
        if self.both:
            found = [pwt_dp.merge_fronts(a, b) for a, b in zip(found, found[len(tour_list):])]
        self.data = {t.tobytes(): f for t, f in zip(tour_list, found)}


def compute_indicators(pop, kind):
    """Score every individual against the population surface; return its pool."""
    pool = fr.SurfacePool([ind.front for ind in pop])
    for ind, v in zip(pop, fr.all_indicators(pool.surface, kind)):
        ind.value = float(v)
    return pool


def survivor_select(pop, mu, rng, kind, pool):
    """Trim to ``mu`` by repeated removal of a minimal-indicator individual.

    ``pool`` is the :class:`fronts.SurfacePool` of ``pop``'s fronts that
    :func:`compute_indicators` scored them against.  Ties break uniformly at
    random, by ``ties[rng.integers(0, ties.size)]``: the draw (and the
    stream state after it) of ``rng.choice(ties)``, at a quarter of the
    cost.  After every removal the rest are rescored against
    ``pool.remove(gone)``, since removing a contributor changes the surface;
    the survivors come back in population order with fresh values, and
    ``pool.surface`` is their surface.

    A removed front whose membership row is empty contributes no surface
    point: the surface points, every column sum and so every exclusive set
    and the HV total stay as they were, so rescoring would give the rest
    the same values bit for bit.  Such a removal only drops its value.
    """
    pop = list(pop)
    values = np.array([ind.value for ind in pop])
    while len(pop) > mu:
        ties = (values == values.min()).nonzero()[0]
        gone = int(ties[rng.integers(0, ties.size)])
        pop.pop(gone)
        if pop:
            contributed = pool.surface.membership[gone].any()
            surf = pool.remove(gone)
            values = fr.all_indicators(surf, kind) if contributed \
                else np.concatenate((values[:gone], values[gone + 1:]))
    for ind, v in zip(pop, values.tolist()):
        ind.value = v
    return pop


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
    values = np.array([ind.value for ind in pop])
    if scheme == "fps":
        total = values.sum()
        if total <= 0:
            probs = np.full(mu, 1.0 / mu)
        else:
            probs = values / total
        idx = rng.choice(mu, size=lam, p=probs)
        return [pop[i] for i in idx]
    if scheme == "ts":
        out = []
        for _ in range(lam):
            contenders = rng.integers(0, mu, size=tournament_size)
            cv = values[contenders]
            best = contenders[(cv == cv.max()).nonzero()[0]]
            out.append(pop[int(best[rng.integers(0, best.size)])])
        return out
    ranked = np.argsort(-values, kind="stable")     # best first
    draws = rng.choice(mu, size=lam, p=selection_probabilities(scheme, mu))
    return [pop[int(ranked[d])] for d in draws]


def mate(parents, cfg, rng):
    """Consume parents in consecutive pairs; each pair yields two children.

    Child ``k`` takes parent ``k`` and its partner ``k ^ 1`` (parent 0 for an
    odd last parent): their order-crossover with probability
    ``crossover_prob``, otherwise a copy of parent ``k``; every child is
    then mutated exactly once (2OPT or JUMP, positions uniform at random).
    """
    children = []
    for k, a in enumerate(parents):
        b = parents[k ^ 1 if k ^ 1 < len(parents) else 0]
        if rng.random() < cfg.crossover_prob:
            child = tours.crossover(a.tour, b.tour, rng)
        else:
            child = a.tour.copy()
        n = child.size
        if n > 2:
            if rng.random() < cfg.mutation_split:
                i, j = sorted(tours.random_positions(rng, n))
                child = tours.two_opt_mutate(child, i, j)
            else:
                child = tours.jump_mutate(child, *tours.random_positions(rng, n))
        children.append(child)
    return children


class _Archive:
    """Best-ever Pareto archive over every front produced in a run: one
    points-only front, whose tour is its top point's (see ``merge_fronts``).
    ``best_reward`` and ``best_tour`` are read off that point."""

    def __init__(self, capacity):
        self.capacity = capacity
        self.front = pwt_dp.DpFront(tour=np.zeros(0, np.int64), rewards=np.zeros(0),
                                    weights=np.zeros(0, np.int64), plans_packed=None,
                                    m=0, capacity=capacity)

    def add(self, batch):
        """Merge a batch of fronts after the kept one, so that the kept one
        wins exact ties; this equals adding them one at a time."""
        if batch:
            self.front = pwt_dp.merge_fronts(self.front, *batch)

    rewards = property(lambda self: self.front.rewards)
    weights = property(lambda self: self.front.weights)
    best_tour = property(lambda self: self.front.tour)
    best_reward = property(lambda self: float(self.rewards[-1]) if self.rewards.size else -np.inf)

    def hv(self):
        return fr._hv(self.rewards, self.weights, self.capacity)


def run_ibea(inst: Instance, cfg: IbeaConfig, callback=None) -> RunResult:
    """Run the hybrid loop for ``cfg.generations`` generations.

    Generation 0's children are the Inver-over seed tours, so a run yields
    ``generations + 1`` records.  Deterministic in (seed, config, instance):
    all stochastic choices come from streams derived from the master seed.
    ``callback`` receives each RunRecord; returning False stops the run.
    """
    ss = np.random.SeedSequence(cfg.seed)
    rng_seed, rng_sel, rng_mate, rng_tie = (np.random.default_rng(s) for s in ss.spawn(4))
    cache = _FrontCache(inst, cfg.both_orientations)
    archive = _Archive(inst.capacity)
    t0 = time.perf_counter()

    pop, records = [], []
    for gen in range(cfg.generations + 1):
        if gen == 0:
            children = tours.inver_over(inst, cfg.mu, cfg.seeding_generations,
                                        cfg.seeding_p_random, rng_seed)
        else:
            parents = parent_select(pop, cfg.selection, cfg.lam, rng_sel, cfg.tournament_size)
            children = mate(parents, cfg, rng_mate)
        cache.fill(children)
        batch = [cache.get(t) for t in children]
        archive.add(batch)
        pop += [Individual(tour=t, front=f) for t, f in zip(children, batch)]
        pool = compute_indicators(pop, cfg.indicator)
        pop = survivor_select(pop, cfg.mu, rng_tie, cfg.indicator, pool)
        rec = RunRecord(
            generation=gen,
            population_hv=fr._hv(pool.surface.rewards, pool.surface.weights, inst.capacity),
            best_reward=archive.best_reward,
            archive_hv=archive.hv(),
            wall_ms=(time.perf_counter() - t0) * 1e3,
        )
        records.append(rec)
        if callback is not None and callback(rec) is False:
            break

    best = pwt_dp.dp_front(inst, archive.best_tour)
    return RunResult(records=records, best_reward=archive.best_reward, best_tour=best.tour,
                     best_plan=best.plan_items(-1), final_population=pop)
