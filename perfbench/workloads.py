"""Workloads of the ttpsolve benchmark.

Run by ``run.py`` in a fresh interpreter, one workload per process:

    python3 perfbench/workloads.py --workload dp-wide --seed 1 --seconds 25 \
        --trace 0 --instance PATH --out DIR

and prints one JSON object: the metrics, the op counts, the fingerprint of
episode 0 and the environment stamp.

An *episode* is a fixed job made from ``(seed, episode index)``: one IBEA
run, a stream of DP fronts, or a batch of Inver-over calls.  A run repeats
episodes with fresh seed-derived inputs until ``--seconds`` is spent, so the
work measured grows with the time given while every episode stays a fixed
budget; quality and fingerprints come from episode 0, which every run
completes.  An *op* is the unit timed inside an episode.  Correctness checks
run after the episode's timer stops; a failed check counts its op as failed.

With ``--trace 1`` the run alternates an untraced episode with a traced
replay of the same episode.  The replay must reproduce the untraced
fingerprint, and the pair gives ``trace.overhead_ratio``.
"""

import argparse
import hashlib
import importlib.util
import json
import resource
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

from ttpsolve import _kernels, bench_cli, evolve, fronts, instance_io, pwt_dp, tours  # noqa: E402

from tracer import NullTracer, Tracer  # noqa: E402

MIN_EPISODES = 2        # untraced episodes per run, whatever --seconds says
EPISODE_ROOT = "episode"

E2E_UNITS = {
    "wall_s": "s",
    "op_ms_tail": "ms",
    "ops_per_s": "1/s",
    "peak_rss_mb": "MB",
}

# printed next to the result but not gated: the op median flips between the
# host's fast and slow states from run to run (see README), and the quality
# values each belong to one workload
INFO_UNITS = {
    "op_ms_p50": "ms",
    "best_reward": "reward",
    "population_hv": "area",
    "archive_hv": "area",
    "best_tour_len": "distance",
    "front_points": "count",
}

LAYER_UNITS = {
    "instance_io.parse_instance.s": "s",
    "tours.inver_over.s": "s",
    "tours.inver_over.calls": "count",
    "tours.operators.s": "s",
    "kernels.run_inver_over.s": "s",
    "kernels.dp_merge.s": "s",
    "kernels.dp_merge.calls": "count",
    "kernels.dp_merge.cells": "count",
    "kernels.dp_merge.max_cells": "count",
    "kernels.dp_merge.ns_per_cell": "ns",
    "pwt_dp.dp_front.s": "s",
    "pwt_dp.dp_front.self_s": "s",
    "pwt_dp.dp_front.calls": "count",
    "pwt_dp.dp_front.points": "count",
    "fronts.surface.s": "s",
    "fronts.surface.calls": "count",
    "fronts.surface.points_in": "count",
    "fronts.surface.points_out": "count",
    "fronts.all_indicators.s": "s",
    "fronts._hv.calls": "count",
    "fronts._hv.s": "s",
    "evolve.survivor_select.self_s": "s",
    "evolve.survivor_select.removals": "count",
    "evolve.compute_indicators.calls": "count",
    "evolve.parent_select.s": "s",
    "evolve.mate.self_s": "s",
    "evolve._Archive.add.s": "s",
    "evolve._FrontCache.get.calls": "count",
    "evolve._FrontCache.hit_ratio": "ratio",
    "evolve.run_ibea.self_s": "s",
    "bench_cli.write_records.s": "s",
    "bench_cli.final_metrics.s": "s",
    "trace.overhead_ratio": "ratio",
    "trace.accounted_ratio": "ratio",
}

# traced module self times must cover at least this share of traced wall time
MIN_ACCOUNTED = 0.98


def episode_rng(seed, k, *stream):
    return np.random.default_rng([seed, k, *stream])


def rewards_match(a, b):
    return abs(a - b) <= pwt_dp.REWARD_RTOL * max(1.0, abs(a), abs(b))


@dataclass
class Episode:
    """Timings, per-op check results and fingerprint of one episode."""
    wall_s: float
    op_s: list
    op_failed: list
    fingerprint: object
    quality: dict


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

class IbeaEil51:
    """``run_ibea`` at the reference size; an op is one generation.

    Op latency is the time between consecutive callback records; the first
    record, which includes seeding, counts only toward ``wall_s``.  The
    records are then persisted and read back through ``bench_cli``.
    """

    instance = "instances/eil51_n50_uncorr.ttp"

    def __init__(self, inst, seed, out_dir, mu=50, generations=15, seeding_generations=150):
        self.inst = inst
        self.seed = seed
        self.out_dir = Path(out_dir)
        self.mu = mu
        self.generations = generations
        self.seeding_generations = seeding_generations

    def episode(self, k, tracer):
        cfg = evolve.IbeaConfig(
            mu=self.mu, lam=self.mu, generations=self.generations,
            indicator=fronts.LHV, selection="fps",
            seeding_generations=self.seeding_generations,
            seed=int(np.random.SeedSequence([self.seed, k]).generate_state(1)[0]))
        run_dir = self.out_dir / f"ibea-{k}"
        run_dir.mkdir(parents=True, exist_ok=True)
        stamps = []

        def on_record(rec):
            stamps.append(perf_counter())
            tracer.op += 1

        with tracer.root(EPISODE_ROOT) as timed:
            res = evolve.run_ibea(self.inst, cfg, callback=on_record)
            bench_cli.write_records(run_dir / "rep_000.jsonl", res.records)
            final = bench_cli.final_metrics(run_dir)
        last = res.records[-1]
        fingerprint = [last.best_reward, last.population_hv, last.archive_hv]
        return Episode(timed.seconds, np.diff(stamps).tolist(),
                       self.check(cfg, res, final), fingerprint,
                       {"best_reward": last.best_reward,
                        "population_hv": last.population_hv,
                        "archive_hv": last.archive_hv})

    def check(self, cfg, res, final):
        recs = res.records
        failed = [recs[i].best_reward < recs[i - 1].best_reward
                  or recs[i].archive_hv < recs[i - 1].archive_hv
                  for i in range(1, len(recs))]
        last = recs[-1]
        taken = np.zeros(self.inst.m, bool)
        taken[np.asarray(res.best_plan, np.int64) - 1] = True
        reward, weight = pwt_dp.evaluate(self.inst, res.best_tour, taken)
        final_ok = (
            len(res.final_population) == cfg.mu
            and tours.is_valid_tour(res.best_tour, self.inst.n)
            and weight <= self.inst.capacity
            and rewards_match(reward, res.best_reward)
            and res.best_reward == last.best_reward
            and final == [{"final_hypervolume": last.population_hv,
                           "best_reward": last.best_reward,
                           "archive_hv": last.archive_hv}])
        if not final_ok:
            failed[-1] = True
        return failed


def dp_wide_instance_text(seed):
    """eil76 with three strongly correlated items per city, as file text.

    Profit is weight + 100 with weight uniform on 1..1000 (the strongly
    correlated profile of Polyakovskiy et al., GECCO 2014); capacity is
    1/11 of the total weight, so DP columns are thousands of cells wide.
    """
    spec = importlib.util.spec_from_file_location(
        "make_instances", ROOT / "scripts" / "make_instances.py")
    make_instances = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(make_instances)
    rng = np.random.default_rng([seed, 76])
    n = len(make_instances.EIL76)
    items = []
    for node in range(2, n + 1):
        for w in rng.integers(1, 1001, size=3):
            items.append(instance_io.Item(profit=int(w) + 100, weight=int(w), node=node))
    capacity = int(sum(it.weight for it in items) / 11)
    inst = instance_io.make_instance(f"eil76_n225_bsc_s{seed}", make_instances.EIL76, items,
                                     capacity=capacity, vmin=0.1, vmax=1.0, rent=1.0)
    return instance_io.serialize_instance(inst)


def random_tour(n, rng):
    return np.concatenate(([1], 1 + rng.permutation(np.arange(1, n)))).astype(np.int64)


class DpWide:
    """``pwt_dp.dp_front`` over seeded random tours; an op is one front."""

    instance = None     # generated by run.py from the seed

    def __init__(self, inst, seed, out_dir, fronts_per_episode=40):
        self.inst = inst
        self.seed = seed
        self.fronts_per_episode = fronts_per_episode

    def episode(self, k, tracer):
        rng = episode_rng(self.seed, k)
        tour_list = [random_tour(self.inst.n, rng) for _ in range(self.fronts_per_episode)]
        op_s, results = [], []
        with tracer.root(EPISODE_ROOT) as timed:
            for t in tour_list:
                tracer.op += 1
                start = perf_counter()
                front = pwt_dp.dp_front(self.inst, t)
                op_s.append(perf_counter() - start)
                results.append(front)
        pick = episode_rng(self.seed, k, 1)
        digest = hashlib.sha256()
        for f in results:
            digest.update(f.rewards.tobytes())
            digest.update(f.weights.tobytes())
        failed = [not check_front(self.inst, t, f, pick) for t, f in zip(tour_list, results)]
        return Episode(timed.seconds, op_s, failed, digest.hexdigest()[:16],
                       {"front_points": sum(f.rewards.size for f in results)})


def check_front(inst, tour, front, rng):
    """Strict staircase within capacity whose top and one random point
    are reproduced by ``pwt_dp.evaluate`` from their plans."""
    r, w = front.rewards, front.weights
    if r.size == 0 or r.size != w.size or not np.array_equal(front.tour, tour):
        return False
    if w[0] < 0 or w[-1] > inst.capacity or np.any(np.diff(w) <= 0) or np.any(np.diff(r) <= 0):
        return False
    plans = front.plans
    for i in (r.size - 1, int(rng.integers(r.size))):
        reward, weight = pwt_dp.evaluate(inst, tour, plans[i])
        if weight != w[i] or not rewards_match(reward, r[i]):
            return False
    return True


class SeedEil76:
    """``tours.inver_over`` calls, each with its own seed-derived rng; an op
    is one call."""

    instance = "instances/eil76_n75_uncorr.ttp"

    def __init__(self, inst, seed, out_dir, calls_per_episode=6, pop_size=50, generations=20):
        self.inst = inst
        self.seed = seed
        self.calls_per_episode = calls_per_episode
        self.pop_size = pop_size
        self.generations = generations

    def episode(self, k, tracer):
        rngs = [episode_rng(self.seed, k, j) for j in range(self.calls_per_episode)]
        op_s, results = [], []
        with tracer.root(EPISODE_ROOT) as timed:
            for rng in rngs:
                tracer.op += 1
                start = perf_counter()
                seeded = tours.inver_over(self.inst, self.pop_size, self.generations, rng=rng)
                op_s.append(perf_counter() - start)
                results.append(seeded)
        failed = [len(seeded) != self.pop_size
                  or not all(tours.is_valid_tour(t, self.inst.n) for t in seeded)
                  for seeded in results]
        lengths = sorted(tours.tour_length(self.inst, t) for seeded in results for t in seeded)
        return Episode(timed.seconds, op_s, failed, lengths, {"best_tour_len": lengths[0]})


WORKLOADS = {"ibea-eil51": IbeaEil51, "dp-wide": DpWide, "seed-eil76": SeedEil76}


# ---------------------------------------------------------------------------
# tracing
# ---------------------------------------------------------------------------

def _count_cells(tracer, args, result):
    cells = result[0].size
    tracer.counts["kernels.dp_merge.cells"] += cells
    tracer.maxima["kernels.dp_merge.max_cells"] = max(
        tracer.maxima["kernels.dp_merge.max_cells"], cells)


def _count_points(tracer, args, result):
    tracer.counts["pwt_dp.dp_front.points"] += result.rewards.size


def _count_surface(tracer, args, result):
    tracer.counts["fronts.surface.points_in"] += sum(f.rewards.size for f in result.fronts)
    tracer.counts["fronts.surface.points_out"] += result.rewards.size


def _count_removals(tracer, args, result):
    tracer.counts["evolve.survivor_select.removals"] += len(args[0]) - len(result)


def install(tracer):
    """Wrap every layer boundary the per-layer metrics are taken at."""
    w = tracer.wrap
    w(instance_io, "parse_instance", "instance_io.parse_instance")
    w(tours, "inver_over", "tours.inver_over")
    for name in ("crossover", "two_opt_mutate", "jump_mutate"):
        w(tours, name, "tours." + name)
    w(_kernels, "run_inver_over", "kernels.run_inver_over")
    w(_kernels, "dp_merge", "kernels.dp_merge", _count_cells)
    w(pwt_dp, "dp_front", "pwt_dp.dp_front", _count_points)
    w(fronts, "surface", "fronts.surface", _count_surface)
    w(fronts, "all_indicators", "fronts.all_indicators")
    w(fronts, "_hv", "fronts._hv")
    w(evolve, "run_ibea", "evolve.run_ibea")
    w(evolve, "compute_indicators", "evolve.compute_indicators")
    w(evolve, "survivor_select", "evolve.survivor_select", _count_removals)
    w(evolve, "parent_select", "evolve.parent_select")
    w(evolve, "mate", "evolve.mate")
    w(evolve._Archive, "add", "evolve._Archive.add")
    w(evolve._FrontCache, "get", "evolve._FrontCache.get")
    w(bench_cli, "write_records", "bench_cli.write_records")
    w(bench_cli, "final_metrics", "bench_cli.final_metrics")


def layer_metrics(tracer, traced_episodes, overhead_ratio):
    """Per-layer metrics per traced episode (parse_instance: per process)."""
    tot, self_s = tracer.totals()
    n = traced_episodes

    def s(name):
        return tot[name]["s"] / n

    def own(name):
        return tot[name]["self_s"] / n

    def calls(name):
        return tot[name]["calls"] / n

    def count(name):
        return tracer.counts[name] / n

    roots = [sid for sid, span in enumerate(tracer.spans)
             if span[0] == EPISODE_ROOT and span[3] < 0]
    root_s = sum(tracer.spans[sid][2] - tracer.spans[sid][1] for sid in roots)
    root_self = sum(self_s[sid] for sid in roots)
    cells = tracer.counts["kernels.dp_merge.cells"]
    gets = tot["evolve._FrontCache.get"]["calls"]
    misses = tracer.children_named("evolve._FrontCache.get", "pwt_dp.dp_front")
    return {
        "instance_io.parse_instance.s": tot["instance_io.parse_instance"]["s"],
        "tours.inver_over.s": s("tours.inver_over"),
        "tours.inver_over.calls": calls("tours.inver_over"),
        "tours.operators.s": sum(s("tours." + op) for op in
                                 ("crossover", "two_opt_mutate", "jump_mutate")),
        "kernels.run_inver_over.s": s("kernels.run_inver_over"),
        "kernels.dp_merge.s": s("kernels.dp_merge"),
        "kernels.dp_merge.calls": calls("kernels.dp_merge"),
        "kernels.dp_merge.cells": count("kernels.dp_merge.cells"),
        "kernels.dp_merge.max_cells": tracer.maxima["kernels.dp_merge.max_cells"],
        "kernels.dp_merge.ns_per_cell":
            tot["kernels.dp_merge"]["s"] * 1e9 / cells if cells else 0.0,
        "pwt_dp.dp_front.s": s("pwt_dp.dp_front"),
        "pwt_dp.dp_front.self_s": own("pwt_dp.dp_front"),
        "pwt_dp.dp_front.calls": calls("pwt_dp.dp_front"),
        "pwt_dp.dp_front.points": count("pwt_dp.dp_front.points"),
        "fronts.surface.s": s("fronts.surface"),
        "fronts.surface.calls": calls("fronts.surface"),
        "fronts.surface.points_in": count("fronts.surface.points_in"),
        "fronts.surface.points_out": count("fronts.surface.points_out"),
        "fronts.all_indicators.s": s("fronts.all_indicators"),
        "fronts._hv.calls": calls("fronts._hv"),
        "fronts._hv.s": s("fronts._hv"),
        "evolve.survivor_select.self_s": own("evolve.survivor_select"),
        "evolve.survivor_select.removals": count("evolve.survivor_select.removals"),
        "evolve.compute_indicators.calls": calls("evolve.compute_indicators"),
        "evolve.parent_select.s": s("evolve.parent_select"),
        "evolve.mate.self_s": own("evolve.mate"),
        "evolve._Archive.add.s": s("evolve._Archive.add"),
        "evolve._FrontCache.get.calls": gets / n,
        "evolve._FrontCache.hit_ratio": (gets - misses) / gets if gets else 0.0,
        "evolve.run_ibea.self_s": own("evolve.run_ibea"),
        "bench_cli.write_records.s": s("bench_cli.write_records"),
        "bench_cli.final_metrics.s": s("bench_cli.final_metrics"),
        "trace.overhead_ratio": overhead_ratio,
        "trace.accounted_ratio": (root_s - root_self) / root_s if root_s else 0.0,
    }


# ---------------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------------

def tail_percentile(n):
    """Highest whole percentile with at least ten of ``n`` ops above it
    (under linear interpolation), or None when ``n`` is too small."""
    if n < 11:
        return None
    return min(99, -(-100 * (n - 10) // (n - 1)) - 1)


def end_to_end(episodes):
    """End-to-end metrics, the tail percentile used and the op median."""
    ops = np.array([x for e in episodes for x in e.op_s])
    q = tail_percentile(ops.size)
    return {
        "wall_s": float(np.median([e.wall_s for e in episodes])),
        "op_ms_tail": float(np.percentile(ops, q) * 1e3) if q is not None else None,
        "ops_per_s": ops.size / sum(e.wall_s for e in episodes),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }, q, float(np.percentile(ops, 50) * 1e3)


def run_untraced(work, seconds):
    episodes = []
    start = perf_counter()
    longest = 0.0
    while len(episodes) < MIN_EPISODES or perf_counter() - start + longest <= seconds:
        t0 = perf_counter()
        episodes.append(work.episode(len(episodes), NullTracer()))
        longest = max(longest, perf_counter() - t0)
    return episodes


def run_traced(work, seconds, tracer):
    """Pairs of (untraced, traced) runs of the same episode."""
    pairs = []
    start = perf_counter()
    longest = 0.0
    while not pairs or perf_counter() - start + longest <= seconds:
        t0 = perf_counter()
        k = len(pairs)
        plain = work.episode(k, NullTracer())
        install(tracer)
        try:
            traced = work.episode(k, tracer)
        finally:
            tracer.unwrap_all()
        if traced.fingerprint != plain.fingerprint:
            print(f"episode {k}: traced replay changed the fingerprint", file=sys.stderr)
            traced.op_failed = [True] * len(traced.op_failed)
        pairs.append((plain, traced))
        longest = max(longest, perf_counter() - t0)
    return pairs


def measure(name, seed, seconds, trace, instance_path, out_dir, spans_path=None, **sizes):
    """Run one workload and return the result object ``run.py`` prints from."""
    tracer = Tracer()
    if trace:
        install(tracer)
    try:
        inst = instance_io.parse_instance(Path(instance_path).read_text())
    finally:
        tracer.unwrap_all()
    work = WORKLOADS[name](inst, seed, out_dir, **sizes)
    checks_ok = True
    info = {}
    if trace:
        pairs = run_traced(work, seconds, tracer)
        episodes = [e for pair in pairs for e in pair]
        overhead = (sum(t.wall_s for _, t in pairs) / sum(p.wall_s for p, _ in pairs)) - 1.0
        metrics = layer_metrics(tracer, len(pairs), overhead)
        if metrics["trace.accounted_ratio"] < MIN_ACCOUNTED:
            print(f"traced module self times cover {metrics['trace.accounted_ratio']:.4f} "
                  "of traced wall time", file=sys.stderr)
            checks_ok = False
        units, q = LAYER_UNITS, None
        if spans_path is not None:
            tracer.write(spans_path)
    else:
        episodes = run_untraced(work, seconds)
        metrics, q, info["op_ms_p50"] = end_to_end(episodes)
        units = E2E_UNITS
    attempted = sum(len(e.op_failed) for e in episodes)
    failed = sum(sum(e.op_failed) for e in episodes)
    return {
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        "attempted": attempted,
        "failed": failed,
        "checks_ok": checks_ok,
        "episodes": len(episodes),
        "episode0_ops": len(episodes[0].op_failed),
        "tail_percentile": q,
        "fingerprint": episodes[0].fingerprint,
        "info_metrics": {k: {"value": v, "unit": INFO_UNITS[k]}
                         for k, v in {**info, **episodes[0].quality}.items()},
        "stamp": {
            "kernel_backend": "numba" if _kernels.NUMBA_ENABLED else "numpy-fallback",
            "python": sys.version.split()[0],
            "numpy": np.__version__,
            "scipy": scipy.__version__,
        },
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--instance", required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--spans")
    args = ap.parse_args(argv)
    result = measure(args.workload, args.seed, args.seconds, args.trace,
                     args.instance, args.out, spans_path=args.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
