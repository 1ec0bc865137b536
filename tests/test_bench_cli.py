import csv
import dataclasses
import json
import math
from pathlib import Path

import numpy as np
import pytest
import yaml

from ttpsolve import bench_cli
from ttpsolve.bench_cli import (
    box_stats, emit_boxplot_csv, emit_convergence_csv, emit_front_csv,
    final_metrics, log_p_measure, main, read_records, summarize, welch_t_test,
)
from ttpsolve.evolve import IbeaConfig, run_ibea
from ttpsolve.pwt_dp import dp_front
from ttpsolve.tours import make_tour

from conftest import INSTANCES, TINY4_TEXT


def test_welch_identical_samples():
    t, df, p = welch_t_test([1, 2, 3, 4, 5], [1, 2, 3, 4, 5])
    assert t == 0.0 and p == 1.0


def test_welch_shifted_fixture():
    t, df, p = welch_t_test([1, 2, 3, 4, 5], [2, 3, 4, 5, 6])
    assert t == pytest.approx(-1.0)
    assert df == pytest.approx(8.0)
    assert p == pytest.approx(0.3466, abs=0.0005)


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
    (run_dir / "summary.json").write_text(json.dumps({"label": "L", "instance": "tiny4"}))
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
    "recompute_on_removal": False, "dp_cache_size": 64, "debug_check_cache": True,
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


def test_cli_run_capacity_beyond_batch_key(tmp_path, capsys):
    """A capacity beyond the batch key's range runs when the items weigh
    little; items that weigh that much too give one error line."""
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
    # every item at 2e18: a batch of two tours already overflows the key
    inst_file.write_text(huge.replace(" 2 2\n", " 2000000000000000000 2\n")
                         .replace(" 3 3\n", " 2000000000000000000 3\n")
                         .replace(" 2 4\n", " 2000000000000000000 4\n"))
    capsys.readouterr()
    assert main(args) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    assert err[0].startswith("error:") and "capacity 5000000000000000000" in err[0]


def _write_cli_inputs(tmp_path):
    (tmp_path / "no_reps").mkdir()
    (tmp_path / "no_reps" / "summary.json").write_text(json.dumps({"label": "L"}))
    (tmp_path / "empty_run").mkdir()
    (tmp_path / "empty_run" / "summary.json").write_text(
        json.dumps({"label": "L", "instance": "tiny4", "repetitions": []}))
    (tmp_path / "int_tour.json").write_text("[1]")
    (tmp_path / "not_list.json").write_text("5")


@pytest.mark.parametrize("argv, needle", [
    (["plotdata", "--mode", "convergence"], "needs --records"),
    (["plotdata", "--mode", "boxplot"], "needs --records"),
    (["plotdata", "--mode", "convergence", "--records", "{tmp}/no_reps"], "no rep_*.jsonl"),
    (["plotdata", "--mode", "boxplot", "--records", "{tmp}/empty_run"], "no repetitions"),
    (["plotdata", "--mode", "fronts", "--instance", "{tiny4}", "--tours", "{tmp}/int_tour.json"],
     "a tour must be a list of city numbers, not 1"),
    (["plotdata", "--mode", "fronts", "--instance", "{tiny4}", "--tours", "{tmp}/not_list.json"],
     "expected a JSON list of tours"),
    (["seed-tours", "--instance", "{tiny4}", "--pop", "4", "--generations", "-1"],
     "generations must be >= 0"),
    (["seed-tours", "--instance", "{tiny4}", "--pop", "4", "--p-random", "2"],
     "p_random must lie in [0, 1]"),
])
def test_cli_bad_input_one_error_line(tiny4_file, tmp_path, capsys, argv, needle):
    _write_cli_inputs(tmp_path)
    argv = [a.format(tmp=tmp_path, tiny4=tiny4_file) for a in argv]
    out = tmp_path / "plots"
    rc = main(argv + (["--out", str(out)] if argv[0] == "plotdata" else []))
    assert rc == 2
    captured = capsys.readouterr()
    err = captured.err.strip().splitlines()
    assert len(err) == 1
    assert err[0].startswith("error:") and needle in err[0]
    assert captured.out == ""
    assert not list(out.glob("*.csv"))


def test_cli_dpfront_item_weight_beyond_int64(tmp_path, capsys):
    inst_file = tmp_path / "heavy.ttp"
    inst_file.write_text(TINY4_TEXT.replace("\n1 20 2 2\n", "\n1 20 99999999999999999999 2\n"))
    rc = main(["dpfront", "--instance", str(inst_file), "--tour", "1,2,3,4"])
    assert rc == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    assert err[0].startswith("error:") and "total weight" in err[0]
