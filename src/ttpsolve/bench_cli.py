"""Benchmark harness: experiment configs, run-record persistence, Welch
statistics, log-p aggregation, plot-data emission, and the command line.

Subcommands: ``run``, ``summarize``, ``plotdata``, ``dpfront``,
``seed-tours``.  Record files are JSON lines (one
generation record per line); summaries are single JSON documents.  The
``TTPSOLVE_WORKERS`` env var sets the number of concurrent repetition
workers for ``run``.
"""

import argparse
import concurrent.futures
import dataclasses
import json
import math
import os
import sys
import typing
from pathlib import Path

import numpy as np
import yaml
from scipy import special

from . import fronts as fr
from . import pwt_dp, tours
from .evolve import IbeaConfig, run_ibea
from .instance_io import parse_instance

FLOAT_FMT = "%.9g"


# ---------------------------------------------------------------------------
# statistics
# ---------------------------------------------------------------------------

def welch_t_test(a, b):
    """Welch's unequal-variance t-test, two-sided.

    Returns (t, df, p) with df by Welch-Satterthwaite and p taken from the
    t-distribution via the regularized incomplete beta.
    """
    a = np.asarray(a, np.float64)
    b = np.asarray(b, np.float64)
    if a.size < 2 or b.size < 2:
        raise ValueError("welch_t_test needs at least two observations per sample")
    va, vb = a.var(ddof=1), b.var(ddof=1)
    if va == 0.0 and vb == 0.0:
        raise ValueError("welch_t_test is undefined when both variances are zero")
    sea, seb = va / a.size, vb / b.size
    se2 = sea + seb
    t = (a.mean() - b.mean()) / math.sqrt(se2)
    df = se2 ** 2 / (sea ** 2 / (a.size - 1) + seb ** 2 / (b.size - 1))
    p = 2.0 * float(special.stdtr(df, -abs(t)))
    return float(t), float(df), min(p, 1.0)


def log_p_measure(p, mean_cfg, mean_base):
    """Signed -log10(p): positive when the configuration's mean is larger."""
    mag = -math.log10(max(p, 1e-300))
    if mean_cfg < mean_base:
        return -mag
    return mag


def box_stats(values):
    """Median/quartiles by linear interpolation; whiskers at 1.5 IQR."""
    values = np.sort(np.asarray(values, np.float64))
    q1, med, q3 = np.percentile(values, [25, 50, 75])
    iqr = q3 - q1
    lo_lim, hi_lim = q1 - 1.5 * iqr, q3 + 1.5 * iqr
    inside = values[(values >= lo_lim) & (values <= hi_lim)]
    outliers = values[(values < lo_lim) | (values > hi_lim)]
    return {
        "median": float(med), "q1": float(q1), "q3": float(q3),
        "whisker_low": float(inside.min()), "whisker_high": float(inside.max()),
        "outliers": outliers.tolist(),
    }


# ---------------------------------------------------------------------------
# records on disk
# ---------------------------------------------------------------------------

def write_records(path, records):
    with open(path, "w") as fh:
        for rec in records:
            fh.write(json.dumps(rec.to_json_dict()) + "\n")


def read_records(path):
    with open(path) as fh:
        return [json.loads(ln) for ln in fh if ln.strip()]


def final_metrics(run_dir):
    """Per-repetition final (population_hv, best_reward) of one run dir."""
    out = []
    for rep in sorted(Path(run_dir).glob("rep_*.jsonl")):
        records = read_records(rep)
        if not records:
            raise ValueError(f"no records in {rep}")
        last = records[-1]
        out.append({"final_hypervolume": last["population_hv"],
                    "best_reward": last["best_reward"],
                    "archive_hv": last["archive_hv"]})
    return out


def summarize(record_sets, baseline_label):
    """Cross-configuration summary table.

    ``record_sets`` maps a configuration label to its per-repetition final
    metrics (as produced by :func:`final_metrics`).  Every configuration is
    Welch-tested against the baseline per metric; the signed -log10 p is
    reported alongside mean/max/SD (sample SD, n-1).
    """
    if baseline_label not in record_sets:
        raise ValueError(f"baseline {baseline_label!r} not among configurations")
    metrics = ("final_hypervolume", "best_reward")
    base = {m: [rep[m] for rep in record_sets[baseline_label]] for m in metrics}
    table = {}
    for label, reps in record_sets.items():
        row = {}
        for m in metrics:
            vals = np.array([rep[m] for rep in reps], np.float64)
            entry = {
                "mean": float(vals.mean()),
                "max": float(vals.max()),
                "sd": float(vals.std(ddof=1)) if vals.size > 1 else 0.0,
            }
            if label == baseline_label:
                entry["log_p_vs_baseline"] = 0.0
            else:
                try:
                    _, _, p = welch_t_test(vals, base[m])
                    entry["log_p_vs_baseline"] = log_p_measure(
                        p, entry["mean"], float(np.mean(base[m])))
                except ValueError:
                    entry["log_p_vs_baseline"] = None
            row[m] = entry
        table[label] = row
    return {"baseline": baseline_label, "configurations": table}


# ---------------------------------------------------------------------------
# plot data
# ---------------------------------------------------------------------------

def emit_front_csv(front_list, path):
    """Fig-2-style scatter: one row per front point."""
    with open(path, "w") as fh:
        fh.write("reward,weight,front_id\n")
        for fid, front in enumerate(front_list):
            for r, w in zip(front.rewards, front.weights):
                fh.write(f"{FLOAT_FMT % r},{int(w)},{fid}\n")


def emit_convergence_csv(rep_records, path):
    with open(path, "w") as fh:
        fh.write("rep,generation,population_hv,best_reward,archive_hv\n")
        for rep, records in enumerate(rep_records):
            for rec in records:
                fh.write(f"{rep},{rec['generation']},"
                         f"{FLOAT_FMT % rec['population_hv']},"
                         f"{FLOAT_FMT % rec['best_reward']},"
                         f"{FLOAT_FMT % rec['archive_hv']}\n")


def emit_boxplot_csv(labelled_values, path):
    """Reward-distribution summaries, one row per label."""
    with open(path, "w") as fh:
        fh.write("label,median,q1,q3,whisker_low,whisker_high,outliers\n")
        for label, values in labelled_values.items():
            s = box_stats(values)
            outliers = " ".join(FLOAT_FMT % v for v in s["outliers"])
            fh.write(f"{label},{FLOAT_FMT % s['median']},{FLOAT_FMT % s['q1']},"
                     f"{FLOAT_FMT % s['q3']},{FLOAT_FMT % s['whisker_low']},"
                     f"{FLOAT_FMT % s['whisker_high']},{outliers}\n")


# ---------------------------------------------------------------------------
# run orchestration
# ---------------------------------------------------------------------------

def _check_config_type(path, key, val):
    """Reject a config-file value whose YAML type does not fit its field."""
    hint = int if key == "reps" else typing.get_type_hints(IbeaConfig)[key]
    allowed = typing.get_args(hint) or (hint,)
    names = " or ".join("null" if t is type(None) else t.__name__ for t in allowed)
    if float in allowed:
        allowed += (int,)
    if isinstance(val, bool) != (bool in allowed) or not isinstance(val, allowed):
        raise ValueError(f"{path}: {key} must be {names}, not {val!r}")


def _config_from_args(args):
    fields = {}
    if args.config:
        with open(args.config) as fh:
            try:
                loaded = yaml.safe_load(fh) or {}
            except yaml.YAMLError as exc:
                raise ValueError(f"{args.config}: not valid YAML: {' '.join(str(exc).split())}")
        if not isinstance(loaded, dict):
            raise ValueError(f"{args.config}: config must be a mapping of field: value")
        known = {f.name for f in dataclasses.fields(IbeaConfig)} | {"reps"}
        unknown = sorted(str(k) for k in loaded if k not in known)
        if unknown:
            raise ValueError(f"{args.config}: unknown config key(s): {', '.join(unknown)}")
        for key, val in loaded.items():
            _check_config_type(args.config, key, val)
        fields.update(loaded)
    for f in dataclasses.fields(IbeaConfig):
        val = getattr(args, f.name, None)
        if val is not None:
            fields[f.name] = val
    reps = fields.pop("reps", None)
    if getattr(args, "reps", None) is not None:
        reps = args.reps
    reps = 1 if reps is None else int(reps)
    if reps < 1:
        raise ValueError("reps must be >= 1")
    return IbeaConfig(**fields), reps


def _one_rep(instance_text, cfg_dict, seed):
    inst = parse_instance(instance_text)
    cfg = IbeaConfig(**{**cfg_dict, "seed": seed})
    return run_ibea(inst, cfg)


def cli_run(args):
    with open(args.instance) as fh:
        text = fh.read()
    inst = parse_instance(text)
    cfg, reps = _config_from_args(args)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    cfg_dict = dataclasses.asdict(cfg)
    del cfg_dict["seed"]
    label = f"{cfg.selection}-{cfg.indicator}"
    workers = int(os.environ.get("TTPSOLVE_WORKERS", "1"))
    seeds = [cfg.seed + i for i in range(reps)]

    if workers > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_one_rep, [text] * reps, [cfg_dict] * reps, seeds))
    else:
        results = [_one_rep(text, cfg_dict, s) for s in seeds]

    for i, res in enumerate(results):
        write_records(out_dir / f"rep_{i:03d}.jsonl", res.records)
    summary = {
        "instance": inst.name,
        "label": label,
        "config": {**cfg_dict, "seed": cfg.seed, "reps": reps},
        "repetitions": [
            {"seed": s,
             "final_hypervolume": res.records[-1].population_hv,
             "best_reward": res.best_reward,
             "archive_hv": res.records[-1].archive_hv,
             "best_tour": res.best_tour.tolist(),
             "best_plan": res.best_plan}
            for s, res in zip(seeds, results)
        ],
    }
    rewards = [r["best_reward"] for r in summary["repetitions"]]
    summary["best_reward_mean"] = float(np.mean(rewards))
    summary["best_reward_max"] = float(np.max(rewards))
    with open(out_dir / "summary.json", "w") as fh:
        json.dump(summary, fh, indent=2)
    print(f"wrote {reps} record file(s) and summary.json to {out_dir}")
    return 0


def cli_summarize(args):
    record_sets = {}
    instances = set()
    for run_dir in args.records:
        with open(Path(run_dir) / "summary.json") as fh:
            meta = json.load(fh)
        record_sets[meta["label"]] = final_metrics(run_dir)
        instances.add(meta["instance"])
    if len(instances) > 1:
        raise ValueError(f"mismatched instance sets: {sorted(instances)}")
    table = summarize(record_sets, args.baseline)
    out = json.dumps(table, indent=2)
    if args.out:
        Path(args.out).write_text(out + "\n")
    else:
        print(out)
    return 0


def _instance_tour(inst, cities):
    """``tours.make_tour(cities)``, checked to visit all of ``inst``'s cities."""
    if not isinstance(cities, list):
        raise ValueError(f"a tour must be a list of city numbers, not {cities!r}")
    t = tours.make_tour(cities)
    if t.size != inst.n:
        raise ValueError(f"tour has {t.size} cities, the instance has n={inst.n}")
    return t


def cli_plotdata(args):
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    if args.mode == "fronts":
        if args.instance is None or args.tours is None:
            raise ValueError("plotdata --mode fronts needs --instance and --tours")
        with open(args.instance) as fh:
            inst = parse_instance(fh.read())
        with open(args.tours) as fh:
            doc = json.load(fh)
        if not isinstance(doc, list):
            raise ValueError(f"{args.tours}: expected a JSON list of tours")
        tour_list = [_instance_tour(inst, t) for t in doc]
        front_list = []
        for t in tour_list:
            front_list.append(pwt_dp.dp_front(inst, t))
            if args.both_orientations:
                front_list.append(pwt_dp.dp_front(inst, tours.reverse_tour(t)))
        emit_front_csv(front_list, out_dir / "fronts.csv")
    elif not args.records:
        raise ValueError(f"plotdata --mode {args.mode} needs --records")
    elif args.mode == "convergence":
        rep_files = sorted(Path(args.records[0]).glob("rep_*.jsonl"))
        if not rep_files:
            raise ValueError(f"{args.records[0]}: no rep_*.jsonl record files")
        emit_convergence_csv([read_records(p) for p in rep_files], out_dir / "convergence.csv")
    else:  # boxplot
        labelled = {}
        for run_dir in args.records:
            with open(Path(run_dir) / "summary.json") as fh:
                meta = json.load(fh)
            if not meta["repetitions"]:
                raise ValueError(f"{run_dir}: summary.json lists no repetitions")
            labelled[meta["label"]] = [r["best_reward"] for r in meta["repetitions"]]
        emit_boxplot_csv(labelled, out_dir / "boxplot.csv")
    print(f"plot data written to {out_dir}")
    return 0


def cli_dpfront(args):
    with open(args.instance) as fh:
        inst = parse_instance(fh.read())
    t = _instance_tour(inst, [int(x) for x in args.tour.split(",")])
    front = pwt_dp.dp_front(inst, t)
    line = front.to_json()
    if args.out:
        Path(args.out).write_text(line + "\n")
    else:
        print(line)
    return 0


def cli_seed_tours(args):
    with open(args.instance) as fh:
        inst = parse_instance(fh.read())
    rng = np.random.default_rng(args.seed)
    result = tours.inver_over(inst, args.pop, args.generations, args.p_random, rng)
    payload = {
        "tours": [t.tolist() for t in result],
        "lengths": [tours.tour_length(inst, t) for t in result],
    }
    out = json.dumps(payload)
    if args.out:
        Path(args.out).write_text(out + "\n")
    else:
        print(out)
    print(f"best length: {min(payload['lengths'])}", file=sys.stderr)
    return 0


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def build_parser():
    p = argparse.ArgumentParser(prog="ttpsolve",
                                description="bi-objective travelling thief solver")
    sub = p.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="execute repeated IBEA runs")
    run.add_argument("--instance", required=True)
    run.add_argument("--config", help="YAML/JSON config file; flags override")
    run.add_argument("--out", default="runs/out")
    run.add_argument("--reps", type=int)
    run.add_argument("--mu", type=int)
    run.add_argument("--generations", type=int)
    run.add_argument("--lam", type=int)
    run.add_argument("--indicator", choices=["lhv", "lsc"])
    run.add_argument("--selection",
                     choices=["exp", "iq", "har", "fps", "ts", "as_bst", "as_ext", "uar"])
    run.add_argument("--crossover-prob", dest="crossover_prob", type=float)
    run.add_argument("--mutation-split", dest="mutation_split", type=float)
    run.add_argument("--tournament-size", dest="tournament_size", type=int)
    run.add_argument("--seed", type=int)
    run.add_argument("--both-orientations", dest="both_orientations",
                     action="store_const", const=True)
    run.add_argument("--seeding-generations", dest="seeding_generations", type=int)
    run.set_defaults(func=cli_run)

    summ = sub.add_parser("summarize", help="cross-configuration statistics")
    summ.add_argument("--records", nargs="+", required=True, help="run output dirs")
    summ.add_argument("--baseline", required=True, help="baseline label, e.g. uar-lhv")
    summ.add_argument("--out")
    summ.set_defaults(func=cli_summarize)

    plot = sub.add_parser("plotdata", help="emit CSV data behind the plots")
    plot.add_argument("--mode", choices=["fronts", "convergence", "boxplot"],
                      required=True)
    plot.add_argument("--instance")
    plot.add_argument("--tours", help="JSON file with a list of tours (fronts mode)")
    plot.add_argument("--both-orientations", dest="both_orientations",
                      action="store_true")
    plot.add_argument("--records", nargs="*", default=[])
    plot.add_argument("--out", default="plots")
    plot.set_defaults(func=cli_plotdata)

    dpf = sub.add_parser("dpfront", help="one-shot DP front for a given tour")
    dpf.add_argument("--instance", required=True)
    dpf.add_argument("--tour", required=True, help="comma-separated 1-based cities")
    dpf.add_argument("--out")
    dpf.set_defaults(func=cli_dpfront)

    seed = sub.add_parser("seed-tours", help="Inver-over seeding only")
    seed.add_argument("--instance", required=True)
    seed.add_argument("--pop", type=int, default=50)
    seed.add_argument("--generations", type=int, default=10000)
    seed.add_argument("--p-random", dest="p_random", type=float,
                      default=tours.P_RANDOM_DEFAULT)
    seed.add_argument("--seed", type=int, default=0)
    seed.add_argument("--out")
    seed.set_defaults(func=cli_seed_tours)
    return p


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
