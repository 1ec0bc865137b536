import argparse
import csv
import dataclasses
import json
import math
import os
import pickle
import re
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml

from ttpsolve import bench_cli
from ttpsolve.bench_cli import (
    RECORD_KEYS, box_stats, emit_boxplot_csv, emit_convergence_csv, emit_front_csv,
    final_metrics, log_p_measure, main, read_records, summarize, welch_t_test, write_records,
)
from ttpsolve.evolve import SELECTION_SCHEMES, IbeaConfig, RunRecord, run_ibea
from ttpsolve.fronts import INDICATOR_KINDS
from ttpsolve.instance_io import parse_instance
from ttpsolve.pwt_dp import REWARD_RTOL, dp_front, evaluate
from ttpsolve.tours import make_tour, reverse_tour

from conftest import INSTANCES, TINY4_TEXT, random_tour


def test_welch_identical_samples():
    t, df, p = welch_t_test([1, 2, 3, 4, 5], [1, 2, 3, 4, 5])
    assert t == 0.0 and p == 1.0


def test_welch_shifted_fixture():
    t, df, p = welch_t_test([1, 2, 3, 4, 5], [2, 3, 4, 5, 6])
    assert t == pytest.approx(-1.0)
    assert df == pytest.approx(8.0)
    assert p == pytest.approx(0.3466, abs=0.0005)


def test_import_loads_scipy_special_and_yaml_on_first_use():
    """Importing the CLI loads neither ``scipy.special`` nor ``yaml``; the
    first ``welch_t_test`` loads scipy.special and gives the same p."""
    code = ("import sys\n"
            "import ttpsolve.bench_cli as b\n"
            "print(sorted(m for m in ('scipy.special', 'yaml') if m in sys.modules))\n"
            "p = b.welch_t_test([1, 2, 3, 4, 5], [2, 3, 4, 5, 6])[2]\n"
            "print('scipy.special' in sys.modules, repr(p))\n")
    src = str(Path(bench_cli.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, timeout=60)
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines() == ["[]", "True 0.34659350708733416"]


def test_welch_degenerate():
    with pytest.raises(ValueError):
        welch_t_test([1], [1, 2, 3])
    with pytest.raises(ValueError):
        welch_t_test([2, 2, 2], [3, 3, 3])


def test_welch_one_flat_sample_ok():
    t, df, p = welch_t_test([2, 2, 2], [1, 2, 3, 4])
    assert math.isfinite(t) and math.isfinite(p)


def test_welch_antisymmetry():
    rng = np.random.default_rng(0)
    a, b = rng.normal(0, 1, 10), rng.normal(0.5, 2, 12)
    t1, df1, p1 = welch_t_test(a, b)
    t2, df2, p2 = welch_t_test(b, a)
    assert t1 == pytest.approx(-t2)
    assert df1 == pytest.approx(df2)
    assert p1 == pytest.approx(p2)


def test_log_p_measure():
    assert log_p_measure(4.75e-7, 10.0, 5.0) == pytest.approx(6.32, abs=0.01)
    assert log_p_measure(4.75e-7, 5.0, 10.0) == pytest.approx(-6.32, abs=0.01)
    assert log_p_measure(1.0, 5.0, 5.0) == 0.0


def test_box_stats_1_to_100():
    s = box_stats(list(range(1, 101)))
    assert s["median"] == 50.5
    assert s["q1"] == 25.75
    assert s["q3"] == 75.25
    assert s["outliers"] == []


def test_box_stats_outliers():
    s = box_stats([1, 2, 3, 4, 5, 100])
    assert 100 in s["outliers"]
    assert s["whisker_high"] <= 5


def test_summarize_self_comparison():
    reps = [{"final_hypervolume": v, "best_reward": v} for v in (1.0, 2.0, 3.0)]
    table = summarize({"uar-lhv": reps, "fps-lhv": reps}, "uar-lhv")
    row = table["configurations"]["fps-lhv"]["best_reward"]
    assert row["log_p_vs_baseline"] == 0.0
    assert row["mean"] == 2.0 and row["max"] == 3.0


def test_summarize_sd_zero_for_identical_runs():
    reps = [{"final_hypervolume": 4.0, "best_reward": 7.0}] * 30
    varied = [{"final_hypervolume": v, "best_reward": v} for v in range(30)]
    table = summarize({"uar-lhv": varied, "fps-lhv": reps}, "uar-lhv")
    assert table["configurations"]["fps-lhv"]["best_reward"]["sd"] == 0.0


def test_summarize_requires_baseline():
    with pytest.raises(ValueError):
        summarize({"a": []}, "missing")


def test_front_csv(tmp_path, tiny4):
    fronts = [dp_front(tiny4, make_tour([1, 2, 3, 4])),
              dp_front(tiny4, make_tour([1, 4, 3, 2]))]
    path = tmp_path / "fronts.csv"
    emit_front_csv(fronts, path)
    rows = list(csv.DictReader(path.open()))
    assert len(rows) == 7  # 3 + 4 points
    assert {r["front_id"] for r in rows} == {"0", "1"}
    # numbers parse back at 9 significant digits
    assert float(rows[1]["reward"]) == pytest.approx(8.75)


def test_convergence_csv_empty(tmp_path):
    path = tmp_path / "c.csv"
    emit_convergence_csv([], path)
    assert path.read_text() == "rep,generation,population_hv,best_reward,archive_hv\n"


def test_convergence_csv_columns_are_rep_and_the_record_keys(tmp_path):
    """The header is ``rep`` and then :data:`RECORD_KEYS`; a row writes the
    generation as read and every other key with ``FLOAT_FMT``."""
    path = tmp_path / "c.csv"
    records = [{"generation": 0, "population_hv": 1.0 / 3, "best_reward": -2.5,
                "archive_hv": 4e12, "wall_ms": 9.0},
               {"generation": 1.0, "population_hv": 7, "best_reward": 0.1,
                "archive_hv": 123456789.123}]
    emit_convergence_csv([records[:1], records], path)
    assert path.read_text().splitlines() == [
        ",".join(("rep",) + RECORD_KEYS),
        "0,0,0.333333333,-2.5,4e+12",
        "1,0,0.333333333,-2.5,4e+12",
        "1,1.0,7,0.1,123456789",
    ]


def test_boxplot_csv(tmp_path):
    path = tmp_path / "b.csv"
    emit_boxplot_csv({"cfg": list(range(1, 101))}, path)
    rows = list(csv.DictReader(path.open()))
    assert float(rows[0]["median"]) == 50.5


# ---------------------------------------------------------------------------
# CLI end-to-end
# ---------------------------------------------------------------------------

@pytest.fixture()
def tiny4_file(tmp_path):
    p = tmp_path / "tiny4.ttp"
    p.write_text(TINY4_TEXT)
    return p


def _run_cli(tiny4_file, out, extra=()):
    return main(["run", "--instance", str(tiny4_file), "--out", str(out),
                 "--indicator", "lhv", "--selection", "fps", "--mu", "4",
                 "--generations", "10", "--seeding-generations", "20",
                 "--reps", "2", "--seed", "7", *extra])


def test_cli_run_artifacts(tiny4_file, tmp_path):
    out = tmp_path / "out"
    assert _run_cli(tiny4_file, out) == 0
    assert (out / "rep_000.jsonl").exists()
    assert (out / "rep_001.jsonl").exists()
    summary = json.loads((out / "summary.json").read_text())
    assert summary["label"] == "fps-lhv"
    assert len(summary["repetitions"]) == 2
    recs = read_records(out / "rep_000.jsonl")
    assert [r["generation"] for r in recs] == list(range(11))
    best = [r["best_reward"] for r in recs]
    assert all(b2 >= b1 for b1, b2 in zip(best, best[1:]))


def test_cli_run_deterministic_modulo_walltime(tiny4_file, tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    _run_cli(tiny4_file, out1)
    _run_cli(tiny4_file, out2)
    for rep in ("rep_000.jsonl", "rep_001.jsonl"):
        r1 = read_records(out1 / rep)
        r2 = read_records(out2 / rep)
        for d1, d2 in zip(r1, r2):
            d1.pop("wall_ms")
            d2.pop("wall_ms")
        assert r1 == r2


def _clock_free(path):
    """The bytes of a record file with every ``wall_ms`` value zeroed."""
    return re.sub(rb'"wall_ms": [^}]*}', b'"wall_ms": 0}', path.read_bytes())


def test_cli_run_writes_the_same_files_with_one_and_two_workers(tmp_path, monkeypatch):
    """Each worker writes its repetition's records; one worker and a pool of
    two write the same bytes, and each record file is ``write_records`` of
    ``run_ibea`` for its seed (up to the wall clock)."""
    args = ["run", "--instance", str(INSTANCES / "eil51_n50_uncorr.ttp"), "--mu", "8",
            "--generations", "3", "--seeding-generations", "10", "--reps", "3", "--seed", "11"]
    for workers in ("1", "2"):
        monkeypatch.setenv("TTPSOLVE_WORKERS", workers)
        assert main([*args, "--out", str(tmp_path / workers)]) == 0
    one, two = tmp_path / "1", tmp_path / "2"
    assert sorted(p.name for p in one.iterdir()) == sorted(p.name for p in two.iterdir()) == \
        ["rep_000.jsonl", "rep_001.jsonl", "rep_002.jsonl", "summary.json"]
    assert (one / "summary.json").read_bytes() == (two / "summary.json").read_bytes()
    inst = parse_instance((INSTANCES / "eil51_n50_uncorr.ttp").read_text())
    for i, seed in enumerate((11, 12, 13)):
        name = f"rep_{i:03d}.jsonl"
        write_records(tmp_path / name, run_ibea(inst, IbeaConfig(
            mu=8, generations=3, seeding_generations=10, seed=seed)).records)
        assert _clock_free(one / name) == _clock_free(two / name) == \
            _clock_free(tmp_path / name)


def test_one_rep_returns_only_its_summary_entry(tmp_path):
    text = (INSTANCES / "eil51_n50_uncorr.ttp").read_text()
    cfg = {"mu": 8, "generations": 3, "seeding_generations": 10}
    entry = bench_cli._one_rep(tmp_path / "rep.jsonl", text, cfg, 11)
    res = run_ibea(parse_instance(text), IbeaConfig(**cfg, seed=11))
    assert type(entry) is dict
    assert entry == {"seed": 11,
                     "final_hypervolume": res.records[-1].population_hv,
                     "best_reward": res.best_reward,
                     "archive_hv": res.records[-1].archive_hv,
                     "best_tour": res.best_tour.tolist(),
                     "best_plan": res.best_plan}
    assert (tmp_path / "rep.jsonl").read_text().count("\n") == 4
    # what a pool worker sends back is that entry, not the run's records
    assert len(pickle.dumps(entry)) < 1500


def test_cli_run_rejects_zero_reps(tiny4_file, tmp_path):
    rc = main(["run", "--instance", str(tiny4_file), "--out",
               str(tmp_path / "x"), "--reps", "0"])
    assert rc != 0


def test_cli_run_unreadable_instance(tmp_path):
    rc = main(["run", "--instance", str(tmp_path / "nope.ttp"),
               "--out", str(tmp_path / "x")])
    assert rc != 0


def test_cli_summarize_and_plotdata(tiny4_file, tmp_path):
    out_fps = tmp_path / "fps"
    out_uar = tmp_path / "uar"
    _run_cli(tiny4_file, out_fps)
    main(["run", "--instance", str(tiny4_file), "--out", str(out_uar),
          "--indicator", "lhv", "--selection", "uar", "--mu", "4",
          "--generations", "10", "--seeding-generations", "20",
          "--reps", "2", "--seed", "3"])
    summ_path = tmp_path / "summary.json"
    rc = main(["summarize", "--records", str(out_fps), str(out_uar),
               "--baseline", "uar-lhv", "--out", str(summ_path)])
    assert rc == 0
    table = json.loads(summ_path.read_text())
    assert set(table["configurations"]) == {"fps-lhv", "uar-lhv"}

    # summarize agrees with direct recomputation from the record files
    mets = final_metrics(out_fps)
    by_hand = np.mean([m["best_reward"] for m in mets])
    assert table["configurations"]["fps-lhv"]["best_reward"]["mean"] == \
        pytest.approx(by_hand)

    plots = tmp_path / "plots"
    rc = main(["plotdata", "--mode", "convergence", "--records", str(out_fps),
               "--out", str(plots)])
    assert rc == 0 and (plots / "convergence.csv").exists()
    rc = main(["plotdata", "--mode", "boxplot", "--records", str(out_fps),
               str(out_uar), "--out", str(plots)])
    assert rc == 0 and (plots / "boxplot.csv").exists()


def test_stale_repetitions_are_not_read(tiny4_file, tmp_path):
    out = tmp_path / "out"
    for selection, reps in (("uar", "4"), ("fps", "2")):
        assert main(["run", "--instance", str(tiny4_file), "--out", str(out),
                     "--selection", selection, "--mu", "4", "--generations", "3",
                     "--seeding-generations", "5", "--reps", reps, "--seed", "3"]) == 0
    assert (out / "rep_003.jsonl").exists()
    summary = json.loads((out / "summary.json").read_text())
    assert [m["best_reward"] for m in final_metrics(out)] == \
        [r["best_reward"] for r in summary["repetitions"]]
    plots = tmp_path / "plots"
    assert main(["plotdata", "--mode", "convergence", "--records", str(out),
                 "--out", str(plots)]) == 0
    with open(plots / "convergence.csv") as fh:
        assert {row["rep"] for row in csv.DictReader(fh)} == {"0", "1"}


def test_repetitions_are_read_in_index_order(tmp_path):
    # rep_1000.jsonl sorts between rep_100.jsonl and rep_101.jsonl by name
    reps = 1001
    for i in range(reps):
        (tmp_path / f"rep_{i:03d}.jsonl").write_text(json.dumps(
            {"generation": 0, "population_hv": 0.0, "best_reward": i, "archive_hv": 0.0}) + "\n")
    # without a summary.json, the files from rep_000.jsonl on are read
    assert [m["best_reward"] for m in final_metrics(tmp_path)] == list(range(reps))
    (tmp_path / "summary.json").write_text(json.dumps(
        {"label": "L", "instance": "tiny4", "repetitions": [{"best_reward": 0.0}] * reps}))
    assert [m["best_reward"] for m in final_metrics(tmp_path)] == list(range(reps))
    (tmp_path / "rep_1000.jsonl").unlink()
    with pytest.raises(ValueError, match="rep_1000.jsonl is missing"):
        final_metrics(tmp_path)


def test_cli_dpfront(tiny4_file, capsys):
    rc = main(["dpfront", "--instance", str(tiny4_file), "--tour", "1,2,3,4"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["points"][1] == [8.75, 2]


def test_cli_seed_tours(tiny4_file, tmp_path):
    out = tmp_path / "tours.json"
    rc = main(["seed-tours", "--instance", str(tiny4_file), "--pop", "4",
               "--generations", "10", "--seed", "1", "--out", str(out)])
    assert rc == 0
    doc = json.loads(out.read_text())
    assert len(doc["tours"]) == 4
    assert all(t[0] == 1 for t in doc["tours"])
    assert min(doc["lengths"]) == 14  # the tiny4 perimeter tour


def test_cli_plotdata_fronts(tiny4_file, tmp_path):
    tours_file = tmp_path / "tours.json"
    tours_file.write_text(json.dumps([[1, 2, 3, 4]]))
    plots = tmp_path / "plots"
    rc = main(["plotdata", "--mode", "fronts", "--instance", str(tiny4_file),
               "--tours", str(tours_file), "--both-orientations",
               "--out", str(plots)])
    assert rc == 0
    rows = list(csv.DictReader((plots / "fronts.csv").open()))
    assert len(rows) == 7


@pytest.mark.parametrize("both", [False, True])
@pytest.mark.parametrize("name, n_tours", [("tiny4", 3), ("eil51_n50_uncorr", 6)])
def test_cli_plotdata_fronts_writes_each_tours_dp_front(tmp_path, name, n_tours, both):
    """``plotdata --mode fronts`` writes the CSV that ``emit_front_csv``
    writes from each tour's ``dp_front``; with ``--both-orientations`` each
    tour's front is followed by its reversal's."""
    inst_file = INSTANCES / f"{name}.ttp"
    inst = parse_instance(inst_file.read_text())
    rng = np.random.default_rng(6)
    tour_list = [random_tour(rng, inst.n) for _ in range(n_tours)]
    tours_file = tmp_path / "tours.json"
    tours_file.write_text(json.dumps([t.tolist() for t in tour_list]))
    want = []
    for t in tour_list:
        want.append(dp_front(inst, t))
        if both:
            want.append(dp_front(inst, reverse_tour(t)))
    emit_front_csv(want, tmp_path / "want.csv")
    plots = tmp_path / "plots"
    assert main(["plotdata", "--mode", "fronts", "--instance", str(inst_file),
                 "--tours", str(tours_file), "--out", str(plots),
                 *(["--both-orientations"] if both else [])]) == 0
    assert (plots / "fronts.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()


def test_cli_run_summary_keys(tiny4_file, tmp_path):
    """``summary.json`` holds the instance, the label, the config and the
    repetitions, and nothing else: every other figure comes from them."""
    out = tmp_path / "out"
    assert _run_cli(tiny4_file, out) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert list(summary) == ["instance", "label", "config", "repetitions"]


def test_cli_config_file(tiny4_file, tmp_path):
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text("mu: 4\ngenerations: 5\nselection: uar\nindicator: lsc\n"
                   "seeding_generations: 10\nreps: 1\n")
    out = tmp_path / "out"
    rc = main(["run", "--instance", str(tiny4_file), "--config", str(cfg),
               "--out", str(out), "--seed", "2"])
    assert rc == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["label"] == "uar-lsc"


def test_cli_config_file_accepts_null_lam_and_integer_probability(tiny4_file, tmp_path):
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text("mu: 4\nlam: null\ngenerations: 1\ncrossover_prob: 1\n"
                   "seeding_p_random: 0\nseeding_generations: 0\nboth_orientations: false\n")
    out = tmp_path / "out"
    assert main(["run", "--instance", str(tiny4_file), "--config", str(cfg),
                 "--out", str(out)]) == 0
    config = json.loads((out / "summary.json").read_text())["config"]
    assert config["lam"] == 4 and config["crossover_prob"] == 1


def test_cli_summarize_empty_record_file(tmp_path, capsys):
    run_dir = tmp_path / "empty"
    run_dir.mkdir()
    (run_dir / "summary.json").write_text(
        json.dumps({"label": "L", "instance": "tiny4", "repetitions": [{"best_reward": 1.0}]}))
    (run_dir / "rep_000.jsonl").write_text("")
    rc = main(["summarize", "--records", str(run_dir), "--baseline", "L"])
    assert rc == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    assert err[0].startswith("error:") and "rep_000.jsonl" in err[0]


@pytest.mark.parametrize("text, needle", [
    ("mu: 4\nmu_typo: 5\n1: 2\n", "unknown config key(s): 1, mu_typo"),
    ("- mu\n- 4\n", "mapping"),
    ("mu: [4\n", "not valid YAML"),
    ("mu: abc\n", "mu must be int, not 'abc'"),
    ("mu: 4.5\n", "mu must be int"),
    ("lam: true\n", "lam must be int or null"),
    ("both_orientations: 1\n", "both_orientations must be bool"),
    ("crossover_prob: high\n", "crossover_prob must be float"),
    ("reps: two\n", "reps must be int"),
    ("seeding_p_random: 2.0\n", "seeding_p_random must lie in [0, 1]"),
    ("seeding_generations: -1\n", "seeding_generations must be >= 0"),
])
def test_cli_run_bad_config_one_error_line(tiny4_file, tmp_path, capsys, text, needle):
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(text)
    rc = main(["run", "--config", str(cfg), "--instance", str(tiny4_file),
               "--out", str(tmp_path / "o")])
    assert rc == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    assert err[0].startswith("error:") and needle in err[0]


@pytest.mark.parametrize("missing", ["--instance", "--tours"])
def test_cli_plotdata_fronts_needs_inputs(tiny4_file, tmp_path, capsys, missing):
    tours_file = tmp_path / "tours.json"
    tours_file.write_text(json.dumps([[1, 2, 3, 4]]))
    given = {"--instance": str(tiny4_file), "--tours": str(tours_file)}
    del given[missing]
    rc = main(["plotdata", "--mode", "fronts", *[x for kv in given.items() for x in kv],
               "--out", str(tmp_path / "plots")])
    assert rc == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error:")


@pytest.mark.parametrize("tour", [[1, 2, 3], [1, 2, 3, 4, 5]])
def test_cli_dpfront_wrong_tour_length(tiny4_file, capsys, tour):
    rc = main(["dpfront", "--instance", str(tiny4_file), "--tour", ",".join(map(str, tour))])
    assert rc == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert err == [f"error: tour has {len(tour)} cities, the instance has n=4"]


@pytest.mark.parametrize("tour", [[1, 2, 3], [1, 2, 3, 4, 5]])
def test_cli_plotdata_fronts_wrong_tour_length(tiny4_file, tmp_path, capsys, tour):
    tours_file = tmp_path / "tours.json"
    tours_file.write_text(json.dumps([[1, 2, 3, 4], tour]))
    rc = main(["plotdata", "--mode", "fronts", "--instance", str(tiny4_file),
               "--tours", str(tours_file), "--out", str(tmp_path / "plots")])
    assert rc == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert err == [f"error: tour has {len(tour)} cities, the instance has n=4"]


# every IbeaConfig field but seed, each off its default
NON_DEFAULT_CONFIG = {
    "mu": 4, "generations": 3, "lam": 3, "indicator": "lsc", "selection": "uar",
    "crossover_prob": 0.5, "mutation_split": 0.25, "tournament_size": 3,
    "both_orientations": True, "seeding_generations": 5, "seeding_p_random": 0.5,
}


def test_cli_config_file_values_reach_every_rep(tiny4_file, tmp_path, monkeypatch):
    assert set(NON_DEFAULT_CONFIG) == {f.name for f in dataclasses.fields(IbeaConfig)} - {"seed"}
    assert all(getattr(IbeaConfig(), k) != v for k, v in NON_DEFAULT_CONFIG.items())
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(yaml.safe_dump({**NON_DEFAULT_CONFIG, "reps": 3}))
    seen = []

    def recording_run_ibea(inst, rep_cfg):
        seen.append(rep_cfg)
        return run_ibea(inst, rep_cfg)

    monkeypatch.delenv("TTPSOLVE_WORKERS", raising=False)
    monkeypatch.setattr(bench_cli, "run_ibea", recording_run_ibea)
    out = tmp_path / "out"
    assert main(["run", "--instance", str(tiny4_file), "--config", str(cfg),
                 "--out", str(out), "--seed", "5"]) == 0
    assert [c.seed for c in seen] == [5, 6, 7]
    for rep_cfg in seen:
        assert {k: getattr(rep_cfg, k) for k in NON_DEFAULT_CONFIG} == NON_DEFAULT_CONFIG
    config = json.loads((out / "summary.json").read_text())["config"]
    assert config == {**NON_DEFAULT_CONFIG, "seed": 5, "reps": 3}


def test_cli_run_capacity_beyond_batch_key(tmp_path):
    """A capacity beyond the batch key's range runs, whether the items weigh
    little or that much too (the DP batch then splits)."""
    huge = TINY4_TEXT.replace("CAPACITY OF KNAPSACK: 5", "CAPACITY OF KNAPSACK: 5000000000000000000")
    inst_file = tmp_path / "huge.ttp"
    args = ["run", "--instance", str(inst_file), "--out", str(tmp_path / "o"), "--mu", "6",
            "--generations", "2", "--seeding-generations", "0", "--both-orientations"]
    inst_file.write_text(huge)
    assert main(args) == 0
    summary = json.loads((tmp_path / "o" / "summary.json").read_text())
    # the knapsack takes every item at no speed loss: 75 profit less 14 rent
    assert summary["repetitions"][0]["best_reward"] == pytest.approx(61.0)
    assert summary["repetitions"][0]["best_plan"] == [1, 2, 3]
    # every item at 2e18: a batch of two tours already overflows the key,
    # so the DP runs one tour at a time
    inst_file.write_text(huge.replace(" 2 2\n", " 2000000000000000000 2\n")
                         .replace(" 3 3\n", " 2000000000000000000 3\n")
                         .replace(" 2 4\n", " 2000000000000000000 4\n"))
    heavy = parse_instance(inst_file.read_text())
    assert main(args) == 0
    rep = json.loads((tmp_path / "o" / "summary.json").read_text())["repetitions"][0]
    taken = np.isin(np.arange(1, heavy.m + 1), rep["best_plan"])
    reward, weight = evaluate(heavy, np.array(rep["best_tour"]), taken)
    assert reward == pytest.approx(rep["best_reward"], rel=REWARD_RTOL)
    assert 0 < weight <= heavy.capacity


def _write_cli_inputs(tmp_path):
    summaries = {
        "no_reps": {"label": "L", "instance": "tiny4", "repetitions": [{"best_reward": 1.0}]},
        "empty_run": {"label": "L", "instance": "tiny4", "repetitions": []},
        "list_summary": [1, 2],
        "no_label": {"instance": "tiny4", "repetitions": []},
        "no_instance": {"label": "L", "repetitions": []},
        "no_repetitions": {"label": "L", "instance": "tiny4"},
        "rep_without_reward": {"label": "L", "instance": "tiny4",
                               "repetitions": [{"best_reward": 1.0}, {"seed": 2}]},
        "null_reward": {"label": "L", "instance": "tiny4",
                        "repetitions": [{"best_reward": 3.0}, {"best_reward": None}]},
        "bool_rep_reward": {"label": "L", "instance": "tiny4",
                            "repetitions": [{"best_reward": 3.0}, {"best_reward": True}]},
        "text_reward": {"label": "L", "instance": "tiny4",
                        "repetitions": [{"best_reward": "x"}]},
        "inf_reward": {"label": "L", "instance": "tiny4",
                       "repetitions": [{"best_reward": 3.0}, {"best_reward": math.inf}]},
        "nan_reward": {"label": "L", "instance": "tiny4",
                       "repetitions": [{"best_reward": math.nan}]},
        "huge_reward": {"label": "L", "instance": "tiny4",
                        "repetitions": [{"best_reward": 10**400}]},
    }
    for name, doc in summaries.items():
        (tmp_path / name).mkdir()
        (tmp_path / name / "summary.json").write_text(json.dumps(doc))
    (tmp_path / "huge_capacity.ttp").write_text(
        TINY4_TEXT.replace("CAPACITY OF KNAPSACK: 5", "CAPACITY OF KNAPSACK: " + "9" * 401))
    (tmp_path / "text_dimension.ttp").write_text(
        TINY4_TEXT.replace("DIMENSION: 4", "DIMENSION: four"))
    # the header and section lines of tiny4, with no cities and no items
    no_cities = TINY4_TEXT.replace("DIMENSION: 4", "DIMENSION: 0").replace(
        "NUMBER OF ITEMS: 3", "NUMBER OF ITEMS: 0").splitlines()
    (tmp_path / "no_cities.ttp").write_text(
        "\n".join(ln for ln in no_cities if not ln[:1].isdigit()) + "\n")
    # two runs that differ only in their seed share the label fps-lhv
    for name, seed in (("fps_seed_1", 1), ("fps_seed_50", 50)):
        (tmp_path / name).mkdir()
        (tmp_path / name / "summary.json").write_text(json.dumps(
            {"label": "fps-lhv", "instance": "tiny4", "config": {"seed": seed},
             "repetitions": [{"best_reward": 1.0}]}))
    (tmp_path / "int_tour.json").write_text("[1]")
    (tmp_path / "not_list.json").write_text("5")
    (tmp_path / "float_city.json").write_text("[[1, 2.7, 3, 4]]")
    (tmp_path / "empty_tour.json").write_text("[[]]")
    (tmp_path / "bad_json").mkdir()
    (tmp_path / "bad_json" / "summary.json").write_text("{oops")
    (tmp_path / "bad_jsonl").mkdir()
    (tmp_path / "bad_jsonl" / "summary.json").write_text(json.dumps(summaries["no_reps"]))
    record = {"generation": 0, "population_hv": 1.0, "best_reward": 1.0, "archive_hv": 1.0}
    (tmp_path / "bad_jsonl" / "rep_000.jsonl").write_text(
        json.dumps(record) + "\n\n" + '{"generation": 1,\n')
    (tmp_path / "bad_tours.json").write_text("[[1, 2,\n 3")
    # a summary of two repetitions beside the record file of one
    (tmp_path / "one_of_two").mkdir()
    (tmp_path / "one_of_two" / "summary.json").write_text(json.dumps(
        {"label": "L", "instance": "tiny4",
         "repetitions": [{"best_reward": 1.0}, {"best_reward": 1.0}]}))
    (tmp_path / "one_of_two" / "rep_000.jsonl").write_text(json.dumps(record) + "\n")
    for name, line in (("list_record", "[1, 2]"),
                       ("no_hv", json.dumps({k: v for k, v in record.items()
                                             if k != "population_hv"})),
                       ("text_generation", json.dumps({**record, "generation": "0"})),
                       ("bool_reward", json.dumps({**record, "best_reward": True})),
                       # json writes and reads these as NaN, Infinity and -Infinity
                       ("nan_hv", json.dumps({**record, "population_hv": math.nan})),
                       ("nan_generation", json.dumps({**record, "generation": math.nan})),
                       ("inf_archive_hv", json.dumps({**record, "archive_hv": math.inf})),
                       ("neg_inf_reward", json.dumps({**record, "best_reward": -math.inf}))):
        (tmp_path / name).mkdir()
        (tmp_path / name / "summary.json").write_text(json.dumps(summaries["no_reps"]))
        (tmp_path / name / "rep_000.jsonl").write_text(json.dumps(record) + "\n" + line + "\n")
    (tmp_path / "bare").mkdir()
    # two well-formed runs of one repetition each, on different instances
    for name, label, instance in (("tiny4_run", "A", "tiny4"), ("eil51_run", "B", "eil51")):
        (tmp_path / name).mkdir()
        (tmp_path / name / "summary.json").write_text(json.dumps(
            {"label": label, "instance": instance, "repetitions": [{"best_reward": 1.0}]}))
        (tmp_path / name / "rep_000.jsonl").write_text(json.dumps(record) + "\n")


def _bad_input(number, argv, needle):
    """One case of ``test_cli_bad_input_one_error_line``.  Its id carries
    the case's own fixed ``number``, not its place in the list, so adding a
    case renames no other; a new case takes the next unused number."""
    return pytest.param(argv, needle, id=f"argv{number}-{needle}")


@pytest.mark.parametrize("argv, needle", [
    _bad_input(0, ["plotdata", "--mode", "convergence"], "needs --records"),
    _bad_input(1, ["plotdata", "--mode", "boxplot"], "needs --records"),
    _bad_input(2, ["plotdata", "--mode", "convergence", "--records", "{tmp}/no_reps"],
               "rep_000.jsonl is missing"),
    _bad_input(3, ["plotdata", "--mode", "boxplot", "--records", "{tmp}/empty_run"],
               "no repetitions"),
    _bad_input(4, ["plotdata", "--mode", "fronts", "--instance", "{tiny4}", "--tours",
                   "{tmp}/int_tour.json"], "a tour must be a list of city numbers, not 1"),
    _bad_input(5, ["plotdata", "--mode", "fronts", "--instance", "{tiny4}", "--tours",
                   "{tmp}/not_list.json"], "expected a JSON list of tours"),
    _bad_input(6, ["seed-tours", "--instance", "{tiny4}", "--pop", "4", "--generations", "-1"],
               "generations must be >= 0"),
    _bad_input(7, ["seed-tours", "--instance", "{tiny4}", "--pop", "4", "--p-random", "2"],
               "p_random must lie in [0, 1]"),
    _bad_input(8, ["plotdata", "--mode", "fronts", "--instance", "{tiny4}", "--tours",
                   "{tmp}/float_city.json"], "city numbers must be integers, not 2.7"),
    _bad_input(9, ["plotdata", "--mode", "convergence", "--records", "{tmp}/no_reps",
                   "{tmp}/empty_run"], "takes one --records dir, got 2"),
    _bad_input(10, ["summarize", "--records", "{tmp}/no_reps", "--baseline", "L"],
               "rep_000.jsonl is missing"),
    _bad_input(11, ["plotdata", "--mode", "fronts", "--instance", "{tiny4}", "--tours",
                    "{tmp}/empty_tour.json"], "tour must start at city 1"),
    _bad_input(12, ["summarize", "--records", "{tmp}/list_summary", "--baseline", "L"],
               "list_summary/summary.json: expected a JSON object"),
    _bad_input(13, ["plotdata", "--mode", "boxplot", "--records", "{tmp}/list_summary"],
               "list_summary/summary.json: expected a JSON object"),
    _bad_input(14, ["summarize", "--records", "{tmp}/no_label", "--baseline", "L"],
               "no_label/summary.json: 'label' is missing"),
    _bad_input(15, ["summarize", "--records", "{tmp}/no_instance", "--baseline", "L"],
               "no_instance/summary.json: 'instance' is missing"),
    _bad_input(16, ["plotdata", "--mode", "boxplot", "--records", "{tmp}/no_repetitions"],
               "no_repetitions/summary.json: 'repetitions' is missing"),
    _bad_input(17, ["plotdata", "--mode", "boxplot", "--records", "{tmp}/rep_without_reward"],
               "rep_without_reward/summary.json: repetition 1 has no 'best_reward'"),
    _bad_input(18, ["summarize", "--records", "{tmp}/bad_json", "--baseline", "L"],
               "bad_json/summary.json, line 1: invalid JSON (Expecting property name"),
    _bad_input(19, ["plotdata", "--mode", "boxplot", "--records", "{tmp}/bad_json"],
               "bad_json/summary.json, line 1: invalid JSON"),
    _bad_input(20, ["summarize", "--records", "{tmp}/bad_jsonl", "--baseline", "L"],
               "bad_jsonl/rep_000.jsonl, line 3: invalid JSON"),
    _bad_input(21, ["plotdata", "--mode", "convergence", "--records", "{tmp}/bad_jsonl"],
               "bad_jsonl/rep_000.jsonl, line 3: invalid JSON"),
    _bad_input(22, ["plotdata", "--mode", "fronts", "--instance", "{tiny4}", "--tours",
                    "{tmp}/bad_tours.json"], "bad_tours.json, line 2: invalid JSON"),
    _bad_input(23, ["summarize", "--records", "{tmp}/list_record", "--baseline", "L"],
               "list_record/rep_000.jsonl, line 2: expected a JSON object"),
    _bad_input(24, ["plotdata", "--mode", "convergence", "--records", "{tmp}/list_record"],
               "list_record/rep_000.jsonl, line 2: expected a JSON object"),
    _bad_input(25, ["summarize", "--records", "{tmp}/no_hv", "--baseline", "L"],
               "no_hv/rep_000.jsonl, line 2: 'population_hv' is missing or not a number"),
    _bad_input(26, ["plotdata", "--mode", "convergence", "--records", "{tmp}/no_hv"],
               "no_hv/rep_000.jsonl, line 2: 'population_hv' is missing or not a number"),
    _bad_input(27, ["plotdata", "--mode", "convergence", "--records", "{tmp}/text_generation"],
               "text_generation/rep_000.jsonl, line 2: 'generation' is missing or not a number"),
    _bad_input(28, ["summarize", "--records", "{tmp}/bool_reward", "--baseline", "L"],
               "bool_reward/rep_000.jsonl, line 2: 'best_reward' is missing or not a number"),
    _bad_input(29, ["dpfront", "--instance", "{tmp}/huge_capacity.ttp", "--tour", "1,2,3,4"],
               "CAPACITY OF KNAPSACK 999"),
    _bad_input(30, ["seed-tours", "--instance", "{tmp}/no_cities.ttp", "--pop", "4"],
               "DIMENSION 0 is below 1"),
    _bad_input(31, ["run", "--instance", "{tmp}/no_cities.ttp", "--out", "{tmp}/o"],
               "DIMENSION 0 is below 1"),
    _bad_input(32, ["run", "--instance", "{tiny4}", "--out", "{tmp}/o", "--selection", "ts",
                    "--tournament-size", "0"], "tournament_size must be >= 1"),
    _bad_input(33, ["run", "--instance", "{tiny4}", "--out", "{tmp}/o", "--selection", "ts",
                    "--tournament-size", "-1"], "tournament_size must be >= 1"),
    _bad_input(34, ["run", "--instance", "{tiny4}", "--out", "{tmp}/o", "--generations", "-1"],
               "generations must be >= 0"),
    _bad_input(35, ["summarize", "--records", "{tmp}/fps_seed_1", "{tmp}/fps_seed_50", "--baseline",
                    "fps-lhv"], "label 'fps-lhv' repeats: {tmp}/fps_seed_1 and {tmp}/fps_seed_50"),
    _bad_input(36, ["plotdata", "--mode", "boxplot", "--records", "{tmp}/fps_seed_1",
                    "{tmp}/fps_seed_50"],
               "label 'fps-lhv' repeats: {tmp}/fps_seed_1 and {tmp}/fps_seed_50"),
    _bad_input(37, ["plotdata", "--mode", "boxplot", "--records", "{tmp}/null_reward"],
               "null_reward/summary.json: repetition 1: 'best_reward' None is not a finite number"),
    _bad_input(38, ["plotdata", "--mode", "boxplot", "--records", "{tmp}/bool_rep_reward"],
               "bool_rep_reward/summary.json: repetition 1: "
               "'best_reward' True is not a finite number"),
    _bad_input(39, ["plotdata", "--mode", "boxplot", "--records", "{tmp}/text_reward"],
               "text_reward/summary.json: repetition 0: 'best_reward' 'x' is not a finite number"),
    _bad_input(40, ["plotdata", "--mode", "boxplot", "--records", "{tmp}/inf_reward"],
               "inf_reward/summary.json: repetition 1: 'best_reward' inf is not a finite number"),
    _bad_input(41, ["plotdata", "--mode", "boxplot", "--records", "{tmp}/nan_reward"],
               "nan_reward/summary.json: repetition 0: 'best_reward' nan is not a finite number"),
    _bad_input(42, ["plotdata", "--mode", "boxplot", "--records", "{tmp}/huge_reward"],
               "huge_reward/summary.json: repetition 0: 'best_reward' 1000"),
    _bad_input(43, ["summarize", "--records", "{tmp}/null_reward", "--baseline", "L"],
               "null_reward/summary.json: repetition 1: 'best_reward' None is not a finite number"),
    _bad_input(44, ["summarize", "--records", "{tmp}/text_reward", "--baseline", "L"],
               "text_reward/summary.json: repetition 0: 'best_reward' 'x' is not a finite number"),
    _bad_input(45, ["summarize", "--records", "{tmp}/one_of_two", "--baseline", "L"],
               "one_of_two: rep_001.jsonl is missing (summary.json lists 2 repetition(s))"),
    _bad_input(46, ["plotdata", "--mode", "convergence", "--records", "{tmp}/one_of_two"],
               "one_of_two: rep_001.jsonl is missing (summary.json lists 2 repetition(s))"),
    _bad_input(47, ["summarize", "--records", "{tmp}/empty_run", "--baseline", "L"],
               "empty_run: summary.json lists no repetitions"),
    _bad_input(48, ["plotdata", "--mode", "convergence", "--records", "{tmp}/empty_run"],
               "empty_run: summary.json lists no repetitions"),
    _bad_input(49, ["summarize", "--records", "{tmp}/nan_hv", "--baseline", "L"],
               "nan_hv/rep_000.jsonl, line 2: 'population_hv' is missing or not a number: "
               "expected a finite number, got nan"),
    _bad_input(50, ["plotdata", "--mode", "convergence", "--records", "{tmp}/nan_hv"],
               "nan_hv/rep_000.jsonl, line 2: 'population_hv' is missing or not a number: "
               "expected a finite number, got nan"),
    _bad_input(51, ["plotdata", "--mode", "convergence", "--records", "{tmp}/nan_generation"],
               "nan_generation/rep_000.jsonl, line 2: 'generation' is missing or not a number: "
               "expected a finite number, got nan"),
    _bad_input(52, ["summarize", "--records", "{tmp}/inf_archive_hv", "--baseline", "L"],
               "inf_archive_hv/rep_000.jsonl, line 2: 'archive_hv' is missing or not a number: "
               "expected a finite number, got inf"),
    _bad_input(53, ["summarize", "--records", "{tmp}/neg_inf_reward", "--baseline", "L"],
               "neg_inf_reward/rep_000.jsonl, line 2: 'best_reward' is missing or not a number: "
               "expected a finite number, got -inf"),
    _bad_input(54, ["plotdata", "--mode", "convergence", "--records", "{tmp}/bare"],
               "bare: no rep_000.jsonl record file"),
    _bad_input(55, ["summarize", "--records", "{tmp}/tiny4_run", "{tmp}/eil51_run", "--baseline",
                    "A"], "mismatched instance sets: ['eil51', 'tiny4']"),
    _bad_input(56, ["run", "--instance", "{tiny4}", "--out", "{tmp}/o", "--seed", "-1"],
               "seed must be >= 0"),
    _bad_input(57, ["dpfront", "--instance", "{tiny4}", "--tour", "1,2,x"],
               "--tour must be comma-separated city numbers, not '1,2,x'"),
    _bad_input(58, ["dpfront", "--instance", "{tiny4}", "--tour", "1,2,3,4,"],
               "--tour must be comma-separated city numbers, not '1,2,3,4,'"),
    _bad_input(59, ["dpfront", "--instance", "{tmp}/text_dimension.ttp", "--tour", "1,2,3,4"],
               "DIMENSION 'four' is not an integer"),
    _bad_input(60, ["seed-tours", "--instance", "{tiny4}", "--pop", "4", "--seed", "-1"],
               "seed must be >= 0"),
])
def test_cli_bad_input_one_error_line(tiny4_file, tmp_path, capsys, argv, needle):
    _write_cli_inputs(tmp_path)
    argv = [a.format(tmp=tmp_path, tiny4=tiny4_file) for a in argv]
    needle = needle.format(tmp=tmp_path)
    out = tmp_path / "plots"
    rc = main(argv + (["--out", str(out)] if argv[0] == "plotdata" else []))
    assert rc == 2
    captured = capsys.readouterr()
    err = captured.err.strip().splitlines()
    assert len(err) == 1
    assert err[0].startswith("error:") and needle in err[0]
    assert captured.out == ""
    assert not list(out.glob("*.csv"))


# the plotdata cases of test_cli_bad_input_one_error_line, read from its own list
_PLOTDATA_BAD_INPUT = [p for m in test_cli_bad_input_one_error_line.pytestmark
                       if m.name == "parametrize" for p in m.args[1]
                       if p.values[0][0] == "plotdata"]


@pytest.mark.parametrize("argv, needle", _PLOTDATA_BAD_INPUT)
def test_cli_plotdata_refused_leaves_no_out(tiny4_file, tmp_path, argv, needle):
    """A refused plotdata exits before it makes its ``--out`` dir."""
    _write_cli_inputs(tmp_path)
    argv = [a.format(tmp=tmp_path, tiny4=tiny4_file) for a in argv]
    out = tmp_path / "plots" / "made_anyway"
    assert main(argv + ["--out", str(out)]) == 2
    assert not (tmp_path / "plots").exists()


@pytest.mark.parametrize("workers, reps, pools", [("64", 2, [2]), ("2", 3, [2]), ("64", 1, []),
                                                  ("1", 2, [])])
def test_cli_run_caps_workers_at_reps(tiny4_file, tmp_path, monkeypatch, workers, reps, pools):
    """The pool is a stand-in that records ``max_workers`` and maps in this
    process; the pooled run writes the serial run's summary."""
    started = []

    class SerialPool:
        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr(bench_cli.concurrent.futures, "ProcessPoolExecutor", SerialPool)
    args = ["--reps", str(reps), "--mu", "4", "--generations", "2", "--seeding-generations", "3"]
    monkeypatch.delenv("TTPSOLVE_WORKERS", raising=False)
    assert main(["run", "--instance", str(tiny4_file), "--out", str(tmp_path / "a"), *args]) == 0
    monkeypatch.setenv("TTPSOLVE_WORKERS", workers)
    assert main(["run", "--instance", str(tiny4_file), "--out", str(tmp_path / "b"), *args]) == 0
    assert started == pools
    serial, pooled = (json.loads((tmp_path / d / "summary.json").read_text()) for d in "ab")
    assert pooled == serial


def test_cli_run_rejects_non_integer_workers(tiny4_file, tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("TTPSOLVE_WORKERS", "two")
    assert main(["run", "--instance", str(tiny4_file), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert err == ["error: TTPSOLVE_WORKERS must be an integer, not 'two'"]


@pytest.mark.parametrize("workers", ["0", "-2"])
def test_cli_run_rejects_workers_below_one(tiny4_file, tmp_path, monkeypatch, capsys, workers):
    """One error line and exit 2, before any file is written."""
    monkeypatch.setenv("TTPSOLVE_WORKERS", workers)
    out = tmp_path / "o"
    assert main(["run", "--instance", str(tiny4_file), "--out", str(out)]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert err == [f"error: TTPSOLVE_WORKERS must be at least 1, not {workers!r}"]
    assert not out.exists()


@pytest.mark.parametrize("how", ["flag", "config"])
def test_cli_run_refused_seed_keeps_the_earlier_run(tiny4_file, tmp_path, capsys, how):
    """A negative seed is refused before the run dir is touched: the
    earlier run's summary.json and record file keep their bytes."""
    out = tmp_path / "o"
    args = ["run", "--instance", str(tiny4_file), "--out", str(out),
            "--mu", "4", "--generations", "2", "--seeding-generations", "3"]
    assert main([*args, "--seed", "1"]) == 0
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    assert sorted(before) == ["rep_000.jsonl", "summary.json"]
    capsys.readouterr()
    if how == "flag":
        refused = [*args, "--seed", "-1"]
    else:
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text("seed: -1\n")
        refused = [*args, "--config", str(cfg)]
    assert main(refused) == 2
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before
    assert capsys.readouterr().err == "error: seed must be >= 0\n"


def test_cli_run_interrupted_rerun_leaves_no_earlier_files(tiny4_file, tmp_path, monkeypatch):
    """A rerun into a used dir removes the earlier run's summary.json and the
    record files it is about to write before its first repetition, so a
    rerun cut short leaves only its own record files and no summary."""
    monkeypatch.delenv("TTPSOLVE_WORKERS", raising=False)
    out = tmp_path / "o"
    args = ["run", "--instance", str(tiny4_file), "--out", str(out), "--reps", "3",
            "--mu", "4", "--generations", "2", "--seeding-generations", "3"]
    assert main([*args, "--selection", "fps", "--seed", "1"]) == 0
    calls = []

    def interrupted_run_ibea(inst, cfg):
        calls.append(cfg.seed)
        if len(calls) == 2:
            raise KeyboardInterrupt
        return run_ibea(inst, cfg)

    monkeypatch.setattr(bench_cli, "run_ibea", interrupted_run_ibea)
    with pytest.raises(KeyboardInterrupt):
        main([*args, "--selection", "uar", "--seed", "50"])
    assert sorted(p.name for p in out.iterdir()) == ["rep_000.jsonl"]
    assert main(["summarize", "--records", str(out), "--baseline", "fps-lhv"]) == 2


def test_cli_run_stopped_in_the_summary_write_leaves_no_summary(tiny4_file, tmp_path,
                                                                monkeypatch):
    """summary.json is written by rename: a run stopped while writing it
    leaves none, and its record files read as an incomplete run."""
    monkeypatch.delenv("TTPSOLVE_WORKERS", raising=False)

    def interrupted_dump(obj, fh, **kwargs):
        fh.write(json.dumps(obj, **kwargs)[:40])
        raise KeyboardInterrupt

    monkeypatch.setattr(json, "dump", interrupted_dump)
    out = tmp_path / "out"
    with pytest.raises(KeyboardInterrupt):
        _run_cli(tiny4_file, out)
    monkeypatch.undo()
    assert not (out / "summary.json").exists()
    assert final_metrics(out) == [
        {"final_hypervolume": r[-1]["population_hv"], "best_reward": r[-1]["best_reward"],
         "archive_hv": r[-1]["archive_hv"]}
        for r in (read_records(out / "rep_000.jsonl"), read_records(out / "rep_001.jsonl"))]


@pytest.mark.parametrize("stop", [KeyboardInterrupt, OSError])
def test_cli_run_stopped_in_the_summary_write_leaves_no_temporary_file(tiny4_file, tmp_path,
                                                                       monkeypatch, stop):
    """A summary write that raises removes ``summary.json.tmp`` and re-raises."""
    monkeypatch.delenv("TTPSOLVE_WORKERS", raising=False)

    def interrupted_dump(obj, fh, **kwargs):
        fh.write(json.dumps(obj, **kwargs)[:40])
        raise stop

    monkeypatch.setattr(json, "dump", interrupted_dump)
    out = tmp_path / "out"
    if stop is OSError:
        assert _run_cli(tiny4_file, out) == 2
    else:
        with pytest.raises(stop):
            _run_cli(tiny4_file, out)
    monkeypatch.undo()
    assert sorted(p.name for p in out.iterdir()) == ["rep_000.jsonl", "rep_001.jsonl"]


def test_rerun_stopped_before_its_summary_reads_only_its_repetitions(tiny4_file, tmp_path,
                                                                     monkeypatch):
    """A rerun removes the record file past its last repetition, so one
    stopped before its summary does not read an earlier run's further files."""
    monkeypatch.delenv("TTPSOLVE_WORKERS", raising=False)
    out = tmp_path / "out"
    args = ["run", "--instance", str(tiny4_file), "--out", str(out), "--mu", "4",
            "--generations", "3", "--seeding-generations", "5", "--seed", "3"]
    assert main([*args, "--selection", "fps", "--reps", "4"]) == 0
    one_rep = bench_cli._one_rep

    def stopped_after_last_rep(path, *rest):
        entry = one_rep(path, *rest)
        if path.name == "rep_001.jsonl":
            raise KeyboardInterrupt
        return entry

    monkeypatch.setattr(bench_cli, "_one_rep", stopped_after_last_rep)
    with pytest.raises(KeyboardInterrupt):
        main([*args, "--selection", "uar", "--reps", "2"])
    assert (out / "rep_003.jsonl").exists() and not (out / "summary.json").exists()
    assert [m["best_reward"] for m in final_metrics(out)] == \
        [read_records(out / f"rep_00{i}.jsonl")[-1]["best_reward"] for i in range(2)]
    plots = tmp_path / "plots"
    assert main(["plotdata", "--mode", "convergence", "--records", str(out),
                 "--out", str(plots)]) == 0
    with open(plots / "convergence.csv") as fh:
        assert {row["rep"] for row in csv.DictReader(fh)} == {"0", "1"}


def test_readme_cli_commands_parse():
    """Every ``ttpsolve`` command in README's CLI block, its backslash
    continuations joined, parses: a renamed or removed flag fails here."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = readme.split("\n## CLI\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    commands = [shlex.split(ln)[1:] for ln in block.replace("\\\n", " ").splitlines()
                if ln.startswith("ttpsolve ")]
    assert len(commands) == 8
    parser = bench_cli.build_parser()
    for argv in commands:
        assert parser.parse_args(argv).func.__name__ == "cli_" + argv[0].replace("-", "_")


def test_cli_dpfront_item_weight_beyond_int64(tmp_path, capsys):
    inst_file = tmp_path / "heavy.ttp"
    inst_file.write_text(TINY4_TEXT.replace("\n1 20 2 2\n", "\n1 20 99999999999999999999 2\n"))
    rc = main(["dpfront", "--instance", str(inst_file), "--tour", "1,2,3,4"])
    assert rc == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    assert err[0].startswith("error:") and "total weight" in err[0]


def test_run_parser_choices_are_the_config_constants():
    parser = bench_cli.build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    choices = {a.dest: a.choices for a in sub.choices["run"]._actions}
    assert list(choices["indicator"]) == list(INDICATOR_KINDS)
    assert list(choices["selection"]) == list(SELECTION_SCHEMES)


def test_run_parser_has_a_flag_per_config_field():
    parser = bench_cli.build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    dests = {opt: a.dest for a in sub.choices["run"]._actions for opt in a.option_strings}
    for f in dataclasses.fields(IbeaConfig):
        assert dests["--" + f.name.replace("_", "-")] == f.name


def test_cli_run_flags_reach_summary_config(tiny4_file, tmp_path, monkeypatch):
    """Each config field's flag, ``--seeding-p-random`` among them, reaches
    the summary's config."""
    values = {**NON_DEFAULT_CONFIG, "seeding_p_random": 0.25}
    flags = []
    for name, value in values.items():
        flag = "--" + name.replace("_", "-")
        flags += [flag] if value is True else [flag, str(value)]
    monkeypatch.delenv("TTPSOLVE_WORKERS", raising=False)
    out = tmp_path / "out"
    assert main(["run", "--instance", str(tiny4_file), "--out", str(out), "--seed", "5",
                 *flags]) == 0
    config = json.loads((out / "summary.json").read_text())["config"]
    assert config == {**values, "seed": 5, "reps": 1}


def test_write_records_line_holds_the_checked_keys_then_wall_ms(tmp_path):
    records = [RunRecord(generation=g, population_hv=g / 3,
                         best_reward=-math.inf if g == 0 else 7.5 * g,
                         archive_hv=1e-300 * g, wall_ms=0.25 + g)
               for g in range(3)]
    path = tmp_path / "rep_000.jsonl"
    write_records(path, records)
    lines = path.read_text().splitlines()
    assert len(lines) == len(records)
    for line, rec in zip(lines, records):
        got = json.loads(line)
        assert list(got) == ["generation", "population_hv", "best_reward", "archive_hv",
                             "wall_ms"]
        assert got == {k: getattr(rec, k) for k in got}


def test_run_record_fields_are_the_record_line_keys():
    """A RunRecord holds what its record line holds and nothing else."""
    assert [f.name for f in dataclasses.fields(RunRecord)] == [*RECORD_KEYS, "wall_ms"]


def test_run_dir_with_surface_lists_still_reads(tiny4_file, tmp_path, monkeypatch):
    """Record lines that still hold a ``surface`` list, as older run dirs
    do, read, summarize and plot as the same lines without it."""
    monkeypatch.delenv("TTPSOLVE_WORKERS", raising=False)
    new, old = tmp_path / "new", tmp_path / "old"
    assert main(["run", "--instance", str(tiny4_file), "--out", str(new), "--reps", "2",
                 "--mu", "4", "--generations", "3", "--seeding-generations", "3"]) == 0
    old.mkdir()
    (old / "summary.json").write_text((new / "summary.json").read_text())
    for rep in ("rep_000.jsonl", "rep_001.jsonl"):
        lines, scalars = [], []
        for rec in read_records(new / rep):
            rec.pop("surface", None)
            scalars.append(rec)
            lines.append(json.dumps({"generation": rec["generation"],
                                     "surface": [[45.0, 4], [75.0, 7]], **rec}))
        (old / rep).write_text("\n".join(lines) + "\n")
        old_records = read_records(old / rep)
        assert all(r.pop("surface") == [[45.0, 4], [75.0, 7]] for r in old_records)
        assert old_records == scalars
    assert final_metrics(old) == final_metrics(new)
    for d in (new, old):
        assert main(["summarize", "--records", str(d), "--baseline", "fps-lhv",
                     "--out", str(d / "table.json")]) == 0
        assert main(["plotdata", "--mode", "convergence", "--records", str(d),
                     "--out", str(d / "plots")]) == 0
    assert (old / "table.json").read_text() == (new / "table.json").read_text()
    assert (old / "plots" / "convergence.csv").read_text() == \
        (new / "plots" / "convergence.csv").read_text()
