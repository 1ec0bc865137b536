"""Tests of the benchmark itself: output schema, correctness checks, tracer.

    python -m pytest perfbench
"""

import dataclasses
import json
import shutil
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())

TINY = {
    "ibea-eil51": {"mu": 4, "generations": 6, "seeding_generations": 2},
    "dp-wide": {"fronts_per_episode": 6},
    "seed-eil76": {"calls_per_episode": 6, "pop_size": 4, "generations": 2},
}


def instance_for(name, seed, tmp_path):
    path = workloads.WORKLOADS[name].instance
    if path is not None:
        return ROOT / path
    out = tmp_path / "dp-wide.ttp"
    out.write_text(workloads.dp_wide_instance_text(seed))
    return out


def measure(name, tmp_path, trace=0, seed=3):
    return workloads.measure(name, seed, 0, trace, instance_for(name, seed, tmp_path),
                             tmp_path, **TINY[name])


def units(entries):
    return {m["name"]: m["unit"] for m in entries}


def test_metric_lists_match_benchmark_json():
    assert units(BENCH["end_to_end"]) == {**workloads.E2E_UNITS, "setup_s": "s"}
    assert units(BENCH["per_layer"]) == workloads.LAYER_UNITS
    assert [w["name"] for w in BENCH["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_untraced_run_reports_every_end_to_end_metric(name, tmp_path):
    result = measure(name, tmp_path)
    assert result["failed"] == 0 and result["attempted"] > 0 and result["checks_ok"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == workloads.E2E_UNITS
    assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_traced_run_reports_every_layer_and_accounts_for_wall_time(name, tmp_path):
    result = measure(name, tmp_path, trace=1)
    assert result["failed"] == 0 and result["checks_ok"]
    metrics = result["metrics"]
    assert {k: v["unit"] for k, v in metrics.items()} == workloads.LAYER_UNITS
    assert metrics["trace.accounted_ratio"]["value"] == pytest.approx(1.0, abs=0.02)


def test_ibea_trace_counts_layers(tmp_path):
    m = {k: v["value"] for k, v in measure("ibea-eil51", tmp_path, trace=1)["metrics"].items()}
    mu, gens = TINY["ibea-eil51"]["mu"], TINY["ibea-eil51"]["generations"]
    assert m["tours.inver_over.calls"] == 1
    assert m["evolve._FrontCache.get.calls"] == mu * (gens + 1)
    assert m["evolve.survivor_select.removals"] == mu * gens
    assert m["pwt_dp.dp_front.calls"] <= m["evolve._FrontCache.get.calls"]
    assert 0 <= m["evolve._FrontCache.hit_ratio"] <= 1


def test_cli_prints_result_line_last(tmp_path):
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "seed-eil76",
                           "--seed", "5", "--seconds", "0", "--trace", "0"],
                          cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units(BENCH["end_to_end"])
    info = json.loads(lines[-2])["info"]
    assert info["extra_metrics"]["op_fail_ratio"]["value"] == 0
    assert info["extra_metrics"]["op_ms_p50"]["unit"] == "ms"
    assert info["extra_metrics"]["best_tour_len"]["value"] > 0
    assert info["stamp"]["kernel_backend"] in ("numba", "numpy-fallback")


def test_cli_refuses_directory_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "dp-wide",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_dominated_point_fails_the_op(tmp_path, monkeypatch):
    dp_front = workloads.pwt_dp.dp_front

    def corrupted(inst, t):
        f = dp_front(inst, t)
        return dataclasses.replace(f, rewards=np.append(f.rewards, f.rewards[-1] - 1.0),
                                   weights=np.append(f.weights, f.weights[-1] + 1))

    monkeypatch.setattr(workloads.pwt_dp, "dp_front", corrupted)
    result = measure("dp-wide", tmp_path)
    assert result["failed"] == result["attempted"] > 0


def test_wrong_plan_fails_the_op(tmp_path, monkeypatch):
    dp_front = workloads.pwt_dp.dp_front

    def corrupted(inst, t):
        f = dp_front(inst, t)
        return dataclasses.replace(f, plans_packed=np.zeros_like(f.plans_packed))

    monkeypatch.setattr(workloads.pwt_dp, "dp_front", corrupted)
    result = measure("dp-wide", tmp_path)
    assert result["failed"] == result["attempted"] > 0


def test_repeated_city_fails_the_op(tmp_path, monkeypatch):
    inver_over = workloads.tours.inver_over

    def corrupted(*args, **kwargs):
        seeded = inver_over(*args, **kwargs)
        seeded[0][2] = seeded[0][1]
        return seeded

    monkeypatch.setattr(workloads.tours, "inver_over", corrupted)
    result = measure("seed-eil76", tmp_path)
    assert result["failed"] == result["attempted"] > 0


def test_fingerprint_disagreement_is_detected(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "OUT", tmp_path)
    assert run.check_fingerprint("digest:dp-wide:1", "aa")
    assert run.check_fingerprint("digest:dp-wide:1", "aa")
    assert not run.check_fingerprint("digest:dp-wide:1", "bb")
    assert run.check_fingerprint("digest:dp-wide:2", "cc")


def test_same_seed_gives_same_fingerprint(tmp_path):
    first = measure("ibea-eil51", tmp_path)
    again = measure("ibea-eil51", tmp_path)
    assert first["fingerprint"] == again["fingerprint"]
    assert measure("ibea-eil51", tmp_path, seed=4)["fingerprint"] != first["fingerprint"]


def test_tracer_self_times_add_up():
    mod = types.SimpleNamespace()
    mod.leaf = lambda x: sum(range(x))
    mod.mid = lambda x: mod.leaf(x) + mod.leaf(x)
    tracer = Tracer()
    tracer.wrap(mod, "leaf", "leaf")
    tracer.wrap(mod, "mid", "mid")
    with tracer.root("episode") as root:
        tracer.op += 1
        mod.mid(20000)
    tracer.unwrap_all()
    assert mod.mid(3) == 6 and len(tracer.spans) == 4
    totals, self_s = tracer.totals()
    assert totals["leaf"]["calls"] == 2 and totals["mid"]["calls"] == 1
    assert sum(self_s) == pytest.approx(root.seconds, rel=1e-9)
    assert totals["mid"]["self_s"] == pytest.approx(
        totals["mid"]["s"] - totals["leaf"]["s"], rel=1e-9)
    assert tracer.children_named("mid", "leaf") == 1
    assert {span[4] for span in tracer.spans[1:]} == {1}


def test_tail_percentile_leaves_ten_ops_above():
    assert workloads.tail_percentile(10) is None
    for n in (11, 30, 57, 400, 5000):
        q = workloads.tail_percentile(n)
        values = np.arange(n, dtype=float)
        assert (values > np.percentile(values, q)).sum() >= 10
        assert q == 99 or (values > np.percentile(values, q + 1)).sum() < 10
