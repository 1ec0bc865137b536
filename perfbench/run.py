"""Run one workload of the ttpsolve benchmark and print its metrics.

    python3 perfbench/run.py --workload ibea-eil51 --seed 1 --seconds 25 --trace 0

Run it from the root of a ttpsolve source checkout; it imports the package
from ``src/`` of that checkout.  With ``--trace 0`` it prints the end-to-end
metrics, with ``--trace 1`` the per-layer metrics of a traced run (see
``workloads.py``).  The last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; the line before it holds
the op count, the tail percentile, the metrics that are reported but not
gated (op median, workload quality, op_fail_ratio), the fingerprint and the
environment stamp.

``setup_s`` is the median over fresh interpreters that each start,
``import ttpsolve`` and parse the workload's instance, run before and after
the workload.  The workload itself runs in one more fresh interpreter with
BLAS thread pools pinned to 1.
Episode-0 fingerprints are kept in ``perfbench/out/fingerprints.json`` per
source digest; a later run with the same seed and sources that disagrees
counts episode 0's ops as failed.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = ("ibea-eil51", "dp-wide", "seed-eil76")
REQUIRED = ("src/ttpsolve/__init__.py", "scripts/make_instances.py",
            "instances/eil51_n50_uncorr.ttp", "instances/eil76_n75_uncorr.ttp")
# fresh-interpreter set-ups per run, half before and half after the workload,
# after one discarded warm-up start
SETUP_SAMPLES = 11
CHILD_TIMEOUT_S = 170
PINNED_THREADS = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
                  "MKL_NUM_THREADS": "1"}
SETUP_CODE = ("import sys; sys.path.insert(0, sys.argv[1]); import ttpsolve; "
              "from ttpsolve import instance_io; "
              "instance_io.parse_instance(open(sys.argv[2]).read())")


def source_digest():
    """Digest of everything that decides a run's outputs."""
    digest = hashlib.sha256()
    files = sorted([*ROOT.glob("src/ttpsolve/*.py"), *HERE.glob("*.py"),
                    *ROOT.glob("instances/*.ttp"), ROOT / "scripts" / "make_instances.py"])
    for path in files:
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def setup_samples(instance_path, env, count):
    samples = []
    for _ in range(count):
        start = time.perf_counter()
        # no timeout: a wait with a timeout polls, which rounds to tens of ms
        subprocess.run([sys.executable, "-c", SETUP_CODE, str(ROOT / "src"), str(instance_path)],
                       env=env, check=True)
        samples.append(time.perf_counter() - start)
    return samples


def check_fingerprint(key, fingerprint):
    """Compare with the stored fingerprint of the same key, then store it."""
    store_path = OUT / "fingerprints.json"
    store = json.loads(store_path.read_text()) if store_path.exists() else {}
    agrees = store.get(key, fingerprint) == fingerprint
    store[key] = fingerprint
    tmp = store_path.with_suffix(".tmp")
    tmp.write_text(json.dumps(store, indent=1, sort_keys=True))
    os.replace(tmp, store_path)
    return agrees


def main(argv=None):
    ap = argparse.ArgumentParser(description="ttpsolve benchmark: one workload, one run")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)

    missing = [p for p in REQUIRED if not (ROOT / p).is_file()]
    if missing:
        print(f"run.py: {ROOT} is not a ttpsolve checkout (missing {', '.join(missing)})",
              file=sys.stderr)
        return 2

    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    run_dir = OUT / f"{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}"
    run_dir.mkdir(parents=True, exist_ok=True)
    try:
        instance_path = workloads.WORKLOADS[args.workload].instance
        if instance_path is None:
            instance_path = run_dir / "instance.ttp"
            instance_path.write_text(workloads.dp_wide_instance_text(args.seed))
        else:
            instance_path = ROOT / instance_path
        env = {**os.environ, **PINNED_THREADS}

        if not args.trace:
            setup = setup_samples(instance_path, env, 1 + SETUP_SAMPLES // 2)[1:]
        cmd = [sys.executable, str(HERE / "workloads.py"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--instance", str(instance_path),
               "--out", str(run_dir)]
        if args.trace:
            cmd += ["--spans", str(OUT / f"spans-{args.workload}.jsonl")]
        proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True,
                              timeout=CHILD_TIMEOUT_S)
        if proc.returncode != 0:
            print(f"run.py: workload process exited with {proc.returncode}", file=sys.stderr)
            return 1
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if not args.trace:
            setup += setup_samples(instance_path, env, SETUP_SAMPLES - len(setup))
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    digest = source_digest()
    failed = result["failed"]
    key = f"{digest}:{args.workload}:{args.seed}"
    if not check_fingerprint(key, result["fingerprint"]):
        print(f"run.py: fingerprint differs from an earlier run with seed {args.seed}",
              file=sys.stderr)
        failed += result["episode0_ops"]
    failed = min(failed, result["attempted"])

    metrics = result["metrics"]
    if not args.trace:
        metrics["setup_s"] = {"value": statistics.median(setup), "unit": "s"}
    extra = {"op_fail_ratio": {"value": failed / result["attempted"], "unit": "ratio"},
             **result["info_metrics"]}
    info = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "ops": result["attempted"], "episodes": result["episodes"],
        "tail_percentile": result["tail_percentile"],
        "extra_metrics": extra,
        "fingerprint": result["fingerprint"],
        "stamp": {**result["stamp"], "nproc": os.cpu_count(),
                  "cpu_affinity": len(os.sched_getaffinity(0)),
                  "blas_threads": PINNED_THREADS, "git_commit": git_commit(),
                  "source_digest": digest},
    }
    print(json.dumps({"info": info}))
    print(json.dumps({"correct": failed == 0 and result["checks_ok"],
                      "attempted": result["attempted"], "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
