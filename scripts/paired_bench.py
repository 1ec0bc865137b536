"""Paired benchmark runs of two ttpsolve checkouts, one workload.

    python3 scripts/paired_bench.py --parent ../parent --change . \\
        --workload seed-eil76 --pairs 10 --seconds 30 --seed-base 9100

Pair ``i`` runs ``perfbench/run.py --trace 0`` with seed ``seed-base + i``
in both checkouts, the parent first in even pairs and the change first in
odd ones, so drift over time falls on both sides alike.  Each run's
end-to-end metrics are printed as it ends; then one row per metric: each
side's median and quartiles, the pairs the change wins (ties count for
neither side) and a verdict against the metric's bound in the change's
``BENCHMARK.json``:

- ``better``: the change wins at least nine tenths of the pairs and its
  median beats the parent's by more than the distance between the
  parent's quartiles, or every change run beats every parent run;
- ``unresolved``: otherwise, where that distance is wider than the bound
  (relative to the parent's median);
- ``worse``: otherwise, where the change's median is worse than the
  parent's by more than the bound;
- ``within bound``: the rest.

Each side's failed ops over its attempted ops, summed over its runs, are
printed after the rows, and then each checkout's code size: the line count
of its ``src/ttpsolve/*.py``, in total and per module.  Exits 1 if any run
reports ``correct: false`` or exits non-zero, if a pair's two episode-0
fingerprints differ, if the change's failed share exceeds the parent's, or
if a metric reads ``worse``, as a benchmark gate would reject the change.
Nothing in either checkout is edited, apart from what ``perfbench/run.py``
itself writes to its ``out/``.
"""

import argparse
import json
import math
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")


def quartiles(values):
    """``(q1, median, q3)``, inclusive quartiles as numpy's default."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, med, q3


def verdict(parent, change, better, bound):
    """The row of one metric from its per-pair values of both sides."""
    sign = 1.0 if better == "lower" else -1.0
    wins = sum(sign * (p - c) > 0 for p, c in zip(parent, change))
    p1, pm, p3 = quartiles(parent)
    c1, cm, c3 = quartiles(change)
    spread = p3 - p1
    gain = sign * (pm - cm)
    separated = all(sign * (p - c) > 0 for p in parent for c in change)
    if (wins >= math.ceil(0.9 * len(parent)) and gain > spread) or separated:
        status = "better"
    elif spread > bound * abs(pm):
        status = "unresolved"
    elif -gain > bound * abs(pm):
        status = "worse"
    else:
        status = "within bound"
    return {"parent": (p1, pm, p3), "change": (c1, cm, c3), "wins": wins,
            "pairs": len(parent), "rel_change": (cm - pm) / pm if pm else math.nan,
            "status": status}


def failed_shares(pairs):
    """``{side: (failed, attempted, share)}``, each summed over the side's runs."""
    out = {}
    for side in SIDES:
        failed = sum(pair[side]["failed"] for pair in pairs)
        attempted = sum(pair[side]["attempted"] for pair in pairs)
        out[side] = (failed, attempted, failed / attempted if attempted else 0.0)
    return out


def summarize(pairs, end_to_end):
    """Rows of every end-to-end metric and the faults of the runs.

    ``pairs`` holds one ``{"parent": run, "change": run}`` per pair, where
    a run is ``{"seed", "correct", "fingerprint", "attempted", "failed",
    "metrics": {name: value}}``; ``end_to_end`` is ``BENCHMARK.json``'s
    list of the same name.  A fault is a run that is not correct, a pair
    whose two fingerprints differ, or a change whose share of failed ops
    exceeds the parent's.
    """
    faults = []
    for pair in pairs:
        for side in SIDES:
            if not pair[side]["correct"]:
                faults.append(f"{side} seed {pair[side]['seed']}: correct is false")
        if pair["parent"]["fingerprint"] != pair["change"]["fingerprint"]:
            faults.append(f"seed {pair['parent']['seed']}: episode-0 fingerprints differ")
    shares = failed_shares(pairs)
    if shares["change"][2] > shares["parent"][2]:
        faults.append(f"failed op share rises: parent {shares['parent'][2]:.4g}, "
                      f"change {shares['change'][2]:.4g}")
    rows = {}
    for spec in end_to_end:
        name = spec["name"]
        rows[name] = verdict([pair["parent"]["metrics"][name] for pair in pairs],
                             [pair["change"]["metrics"][name] for pair in pairs],
                             spec["better"], spec["bound"])
    return rows, faults


def format_rows(workload, rows, units):
    lines = [f"{'workload':<11} {'metric':<12} {'parent q1/med/q3':>27} "
             f"{'change q1/med/q3':>27} {'change':>8} {'wins':>6}  verdict"]
    for name, row in rows.items():
        cols = ["/".join(f"{v:.4g}" for v in row[side]) for side in SIDES]
        lines.append(f"{workload:<11} {name:<12} {cols[0]:>27} {cols[1]:>27} "
                     f"{row['rel_change']:>+8.1%} {row['wins']:>2}/{row['pairs']:<3}  "
                     f"{row['status']} ({units[name]})")
    return "\n".join(lines)


def format_shares(workload, shares):
    return "  ".join([f"{workload:<11} failed ops"] + [
        f"{side} {failed}/{attempted} ({share:.2%})"
        for side, (failed, attempted, share) in shares.items()])


def code_size(checkout):
    """``{module: lines}`` over ``checkout``'s ``src/ttpsolve/*.py``, by name;
    a line is a newline, as ``wc -l`` counts it."""
    return {p.stem: p.read_bytes().count(b"\n")
            for p in sorted((checkout / "src" / "ttpsolve").glob("*.py"))}


def format_sizes(sizes):
    """One line: each side's total ``src/ttpsolve`` lines, then per module."""
    return "  ".join(["code size"] + [
        f"{side} {sum(lines.values())} ({', '.join(f'{m} {n}' for m, n in lines.items())})"
        for side, lines in sizes.items()])


def run_once(checkout, workload, seed, seconds):
    """One ``perfbench/run.py --trace 0`` run in ``checkout``."""
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                          cwd=checkout, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        return {"seed": seed, "correct": False, "fingerprint": None, "attempted": 0,
                "failed": 0, "metrics": {}, "error": f"exit code {proc.returncode}"}
    info, result = json.loads(lines[-2])["info"], json.loads(lines[-1])
    return {"seed": seed, "correct": result["correct"], "fingerprint": info["fingerprint"],
            "attempted": result["attempted"], "failed": result["failed"],
            "metrics": {k: v["value"] for k, v in result["metrics"].items()}}


def main(argv=None):
    ap = argparse.ArgumentParser(description="paired perfbench runs of two checkouts")
    ap.add_argument("--parent", type=Path, required=True, help="the parent checkout")
    ap.add_argument("--change", type=Path, required=True, help="the change's checkout")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--seed-base", type=int, required=True)
    args = ap.parse_args(argv)
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")

    end_to_end = json.loads((args.change / "BENCHMARK.json").read_text())["end_to_end"]
    units = {spec["name"]: spec["unit"] for spec in end_to_end}
    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    pairs = []
    for i in range(args.pairs):
        seed = args.seed_base + i
        pair = {}
        for side in (SIDES if i % 2 == 0 else SIDES[::-1]):
            run = run_once(checkouts[side], args.workload, seed, args.seconds)
            pair[side] = run
            values = " ".join(f"{k}={v:.4g}" for k, v in run["metrics"].items())
            print(f"{args.workload} seed {seed} {side}: correct={run['correct']} "
                  f"failed={run['failed']}/{run['attempted']} {values}", flush=True)
            if "error" in run:
                print(f"paired_bench: {side} run failed ({run['error']})", file=sys.stderr)
                return 1
        pairs.append(pair)

    rows, faults = summarize(pairs, end_to_end)
    print(format_rows(args.workload, rows, units))
    print(format_shares(args.workload, failed_shares(pairs)))
    print(format_sizes({side: code_size(path) for side, path in checkouts.items()}))
    for fault in faults:
        print(f"paired_bench: {fault}", file=sys.stderr)
    worse = [name for name, row in rows.items() if row["status"] == "worse"]
    for name in worse:
        print(f"paired_bench: {name} reads worse", file=sys.stderr)
    return 1 if faults or worse else 0


if __name__ == "__main__":
    sys.exit(main())
