"""Benchmark harness: experiment configs, run-record persistence, Welch
statistics, log-p aggregation, plot-data emission, and the command line.

Subcommands: ``run``, ``summarize``, ``plotdata``, ``dpfront``,
``seed-tours``.  Record files are JSON lines (one
generation record per line); summaries are single JSON documents.  The
``TTPSOLVE_WORKERS`` env var sets the number of concurrent repetition
workers for ``run``, at most one per repetition; each worker writes the
record file of the repetition it ran.
"""

import argparse
import concurrent.futures
import dataclasses
import itertools
import json
import math
import os
import sys
from pathlib import Path
from typing import get_args

import numpy as np

from . import pwt_dp, tours
from .evolve import IbeaConfig, run_ibea
from .instance_io import parse_instance

FLOAT_FMT = "%.9g"
# the keys of a record line that its readers check; a line holds them, then ``wall_ms``
RECORD_KEYS = ("generation", "population_hv", "best_reward", "archive_hv")


# ---------------------------------------------------------------------------
# statistics
# ---------------------------------------------------------------------------

def welch_t_test(a, b):
    """Welch's unequal-variance t-test, two-sided.

    Returns (t, df, p) with df by Welch-Satterthwaite and p taken from the
    t-distribution via the regularized incomplete beta.  ``scipy.special``
    is imported here, so only ``summarize`` loads it.
    """
    from scipy import special

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
    """One JSON line per ``RunRecord``: its :data:`RECORD_KEYS`, then ``wall_ms``."""
    with open(path, "w") as fh:
        for rec in records:
            fh.write(json.dumps(dataclasses.asdict(rec)) + "\n")


def _invalid_json(where, exc):
    return ValueError(f"{where}: invalid JSON ({exc.msg} at column {exc.colno})")


def read_json(path):
    """The JSON document in ``path``; a malformed one raises a ValueError naming the file."""
    with open(path) as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise _invalid_json(f"{path}, line {exc.lineno}", exc) from None


def _finite_number(value):
    """Whether a JSON value is a finite int or float: not NaN, Infinity or a bool."""
    return isinstance(value, (int, float)) and not isinstance(value, bool) \
        and abs(value) <= sys.float_info.max


def read_records(path):
    """The records of a JSONL file; a malformed line, or one that is not an
    object with finite numbers for every key of :data:`RECORD_KEYS`, raises a
    ValueError naming the file, the line and the key.  Other keys are read
    as they are, such as the ``surface`` list that older run dirs hold."""
    records = []
    with open(path) as fh:
        for lineno, ln in enumerate(fh, 1):
            if not ln.strip():
                continue
            where = f"{path}, line {lineno}"
            try:
                rec = json.loads(ln)
            except json.JSONDecodeError as exc:
                raise _invalid_json(where, exc) from None
            if not isinstance(rec, dict):
                raise ValueError(f"{where}: expected a JSON object")
            for key in RECORD_KEYS:
                value = rec.get(key)
                if not _finite_number(value):
                    raise ValueError(f"{where}: {key!r} is missing or not a number: "
                                     f"expected a finite number, got {value!r}")
            records.append(rec)
    return records


def _rep_file(run_dir, i):
    """The record file of repetition ``i`` in ``run_dir``."""
    return Path(run_dir) / f"rep_{i:03d}.jsonl"


def _rep_files(run_dir):
    """The record files of one run dir, in repetition order.

    With a ``summary.json``, these are ``rep_000.jsonl``, ``rep_001.jsonl``,
    ... for exactly the repetitions it lists; a missing one raises a
    ValueError, and any further ``rep_*.jsonl`` (left by an earlier run
    with more repetitions) is not read.  Without one, as ``write_records``
    alone leaves a dir, they are the files from ``rep_000.jsonl`` on, up to
    the first missing index.
    """
    run_dir = Path(run_dir)
    if not (run_dir / "summary.json").exists():
        found = list(itertools.takewhile(
            Path.is_file, (_rep_file(run_dir, i) for i in itertools.count())))
        if not found:
            raise ValueError(f"{run_dir}: no {_rep_file(run_dir, 0).name} record file")
        return found
    reps = len(read_summary(run_dir)["repetitions"])
    paths = [_rep_file(run_dir, i) for i in range(reps)]
    for path in paths:
        if not path.is_file():
            raise ValueError(f"{run_dir}: {path.name} is missing "
                             f"(summary.json lists {reps} repetition(s))")
    return paths


def final_metrics(run_dir):
    """Per-repetition final (population_hv, best_reward) of one run dir,
    one entry per record file of :func:`_rep_files`."""
    out = []
    for rep in _rep_files(run_dir):
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
    """One row per record: ``rep``, then its :data:`RECORD_KEYS`."""
    with open(path, "w") as fh:
        fh.write(",".join(("rep",) + RECORD_KEYS) + "\n")
        for rep, records in enumerate(rep_records):
            for rec in records:
                gen, *values = (rec[k] for k in RECORD_KEYS)
                fh.write(",".join([str(rep), str(gen)] + [FLOAT_FMT % v for v in values]) + "\n")


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

def _config_from_args(args):
    fields = {}
    if args.config:
        import yaml

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
        reps = loaded.get("reps")
        if "reps" in loaded and (isinstance(reps, bool) or not isinstance(reps, int)):
            raise ValueError(f"{args.config}: reps must be int, not {reps!r}")
        fields.update(loaded)
    for name in [f.name for f in dataclasses.fields(IbeaConfig)] + ["reps"]:
        val = getattr(args, name, None)
        if val is not None:
            fields[name] = val
    reps = fields.pop("reps", 1)
    if reps < 1:
        raise ValueError("reps must be >= 1")
    return IbeaConfig(**fields), reps


def _one_rep(path, instance_text, cfg_dict, seed):
    """Run one repetition, write its records to ``path`` and return its
    ``summary.json`` entry, so a pool worker sends back no records or population."""
    res = run_ibea(parse_instance(instance_text), IbeaConfig(**{**cfg_dict, "seed": seed}))
    write_records(path, res.records)
    last = res.records[-1]
    return {"seed": seed,
            "final_hypervolume": last.population_hv,
            "best_reward": res.best_reward,
            "archive_hv": last.archive_hv,
            "best_tour": res.best_tour.tolist(),
            "best_plan": res.best_plan}


def _workers(reps):
    """``TTPSOLVE_WORKERS`` (default 1, at least 1), capped at ``reps``: the
    process pool starts all its workers at once, used or not."""
    raw = os.environ.get("TTPSOLVE_WORKERS", "1")
    try:
        workers = int(raw)
    except ValueError:
        raise ValueError(f"TTPSOLVE_WORKERS must be an integer, not {raw!r}") from None
    if workers < 1:
        raise ValueError(f"TTPSOLVE_WORKERS must be at least 1, not {raw!r}")
    return min(workers, reps)


def cli_run(args):
    text = Path(args.instance).read_text()
    inst = parse_instance(text)
    cfg, reps = _config_from_args(args)
    workers = _workers(reps)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = [_rep_file(out_dir, i) for i in range(reps)]
    # drop an earlier run's summary.json, the record files this run writes
    # and the one after them first: a rerun cut short then leaves no summary,
    # and the record files read without one end at this run's last
    for old in [out_dir / "summary.json", *paths, _rep_file(out_dir, reps)]:
        old.unlink(missing_ok=True)

    cfg_dict = dataclasses.asdict(cfg)
    del cfg_dict["seed"]
    label = f"{cfg.selection}-{cfg.indicator}"
    seeds = [cfg.seed + i for i in range(reps)]

    jobs = (paths, [text] * reps, [cfg_dict] * reps, seeds)
    if workers > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
            repetitions = list(pool.map(_one_rep, *jobs))
    else:
        repetitions = list(map(_one_rep, *jobs))

    summary = {
        "instance": inst.name,
        "label": label,
        "config": {**cfg_dict, "seed": cfg.seed, "reps": reps},
        "repetitions": repetitions,
    }
    # written by rename, so a summary.json is always whole and marks a complete run
    tmp = out_dir / "summary.json.tmp"
    try:
        with open(tmp, "w") as fh:
            json.dump(summary, fh, indent=2)
        os.replace(tmp, out_dir / "summary.json")
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    print(f"wrote {reps} record file(s) and summary.json to {out_dir}")
    return 0


def read_summary(run_dir):
    """``run_dir/summary.json``, checked for what summarize and plotdata read,
    and to list at least one repetition."""
    path = Path(run_dir) / "summary.json"
    meta = read_json(path)
    if not isinstance(meta, dict):
        raise ValueError(f"{path}: expected a JSON object")
    for key, kind in (("label", str), ("instance", str), ("repetitions", list)):
        if not isinstance(meta.get(key), kind):
            raise ValueError(f"{path}: {key!r} is missing or of the wrong type")
    for i, rep in enumerate(meta["repetitions"]):
        if not isinstance(rep, dict) or "best_reward" not in rep:
            raise ValueError(f"{path}: repetition {i} has no 'best_reward'")
        if not _finite_number(rep["best_reward"]):
            raise ValueError(f"{path}: repetition {i}: 'best_reward' {rep['best_reward']!r} "
                             "is not a finite number")
    if not meta["repetitions"]:
        raise ValueError(f"{path.parent}: summary.json lists no repetitions")
    return meta


def read_labelled(run_dirs):
    """``{label: (run_dir, summary)}`` over ``run_dirs``; the label keys the
    outputs, so two dirs with one label raise ``ValueError``."""
    labelled = {}
    for run_dir in run_dirs:
        meta = read_summary(run_dir)
        label = meta["label"]
        if label in labelled:
            raise ValueError(f"label {label!r} repeats: {labelled[label][0]} and {run_dir}")
        labelled[label] = (run_dir, meta)
    return labelled


def _write_out(text, out):
    """A command's result: ``text`` and a newline into the file ``out``, or onto stdout."""
    if out:
        Path(out).write_text(text + "\n")
    else:
        print(text)


def _read_instance(path):
    return parse_instance(Path(path).read_text())


def cli_summarize(args):
    record_sets = {}
    instances = set()
    for label, (run_dir, meta) in read_labelled(args.records).items():
        record_sets[label] = final_metrics(run_dir)
        instances.add(meta["instance"])
    if len(instances) > 1:
        raise ValueError(f"mismatched instance sets: {sorted(instances)}")
    _write_out(json.dumps(summarize(record_sets, args.baseline), indent=2), args.out)
    return 0


def cli_plotdata(args):
    """Read and check every input, then make ``--out`` and write ``<mode>.csv`` there."""
    if args.mode == "fronts":
        if args.instance is None or args.tours is None:
            raise ValueError("plotdata --mode fronts needs --instance and --tours")
        inst = _read_instance(args.instance)
        doc = read_json(args.tours)
        if not isinstance(doc, list):
            raise ValueError(f"{args.tours}: expected a JSON list of tours")
        tour_list = [tours.make_tour(t, inst.n) for t in doc]
        if args.both_orientations:      # each tour, then its reversal
            tour_list = [u for t in tour_list for u in (t, tours.reverse_tour(t))]
        emit, data = emit_front_csv, pwt_dp.dp_fronts(inst, tour_list)
    elif not args.records:
        raise ValueError(f"plotdata --mode {args.mode} needs --records")
    elif args.mode == "convergence":
        if len(args.records) > 1:
            raise ValueError("plotdata --mode convergence takes one --records dir, "
                             f"got {len(args.records)}")
        emit, data = emit_convergence_csv, [read_records(p) for p in _rep_files(args.records[0])]
    else:  # boxplot
        rewards = {}
        for label, (_, meta) in read_labelled(args.records).items():
            rewards[label] = [r["best_reward"] for r in meta["repetitions"]]
        emit, data = emit_boxplot_csv, rewards
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    emit(data, out_dir / f"{args.mode}.csv")
    print(f"plot data written to {out_dir}")
    return 0


def cli_dpfront(args):
    inst = _read_instance(args.instance)
    try:
        cities = [int(x) for x in args.tour.split(",")]
    except ValueError:
        raise ValueError("--tour must be comma-separated city numbers, "
                         f"not {args.tour!r}") from None
    t = tours.make_tour(cities, inst.n)
    _write_out(pwt_dp.dp_front(inst, t).to_json(), args.out)
    return 0


def cli_seed_tours(args):
    if args.seed < 0:
        raise ValueError("seed must be >= 0")
    inst = _read_instance(args.instance)
    rng = np.random.default_rng(args.seed)
    result = tours.inver_over(inst, args.pop, args.generations, args.p_random, rng)
    payload = {
        "tours": [t.tolist() for t in result],
        "lengths": [tours.tour_length(inst, t) for t in result],
    }
    _write_out(json.dumps(payload), args.out)
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
    # one flag per config field: --seeding-p-random sets seeding_p_random
    for f in dataclasses.fields(IbeaConfig):
        flag = "--" + f.name.replace("_", "-")
        if f.type is bool:
            run.add_argument(flag, dest=f.name, action="store_const", const=True)
        else:
            kind = next(t for t in get_args(f.type) or (f.type,) if t is not type(None))
            run.add_argument(flag, dest=f.name, type=kind, choices=f.metadata.get("choices"))
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
