"""``scripts/paired_bench.py``'s summary of canned paired runs."""

import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("paired_bench", ROOT / "scripts" / "paired_bench.py")
paired_bench = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(paired_bench)

END_TO_END = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]


def run(seed, correct=True, fingerprint=(1.0, 2.0), failed=0, attempted=40, **metrics):
    values = {"wall_s": 1.0, "op_ms_tail": 50.0, "ops_per_s": 6.0, "setup_s": 0.3,
              "peak_rss_mb": 80.0}
    values.update(metrics)
    return {"seed": seed, "correct": correct, "fingerprint": list(fingerprint),
            "attempted": attempted, "failed": failed, "metrics": values}


def canned_pairs():
    """Ten pairs: the change's op tail ~35% lower in 9, tied in 1; its
    ops_per_s higher in 9; the parent's wall_s so spread that it says
    nothing; setup_s 30% worse on the change; peak_rss_mb equal."""
    pairs = []
    for i in range(10):
        tail = 70.0 + i
        pairs.append({
            "parent": run(100 + i, op_ms_tail=tail, ops_per_s=6.0 + 0.01 * i,
                          wall_s=1.0 + (0.5 if i % 2 else -0.5), setup_s=0.30),
            "change": run(100 + i, op_ms_tail=tail if i == 3 else 0.65 * tail,
                          ops_per_s=6.0 + 0.01 * i + (0.0 if i == 0 else 1.0),
                          wall_s=1.0, setup_s=0.39),
        })
    return pairs


def test_summary_rows():
    rows, faults = paired_bench.summarize(canned_pairs(), END_TO_END)
    assert faults == []
    assert list(rows) == [spec["name"] for spec in END_TO_END]
    tail = rows["op_ms_tail"]
    assert (tail["wins"], tail["pairs"], tail["status"]) == (9, 10, "better")
    assert tail["parent"] == (72.25, 74.5, 76.75)
    assert rows["ops_per_s"]["wins"] == 9 and rows["ops_per_s"]["status"] == "better"
    assert rows["wall_s"]["status"] == "unresolved"
    assert rows["setup_s"]["status"] == "worse"
    assert rows["peak_rss_mb"]["wins"] == 0
    assert rows["peak_rss_mb"]["status"] == "within bound"
    table = paired_bench.format_rows("seed-eil76", rows, {s["name"]: s["unit"] for s in END_TO_END})
    assert len(table.splitlines()) == 1 + len(END_TO_END)


def test_eight_wins_of_ten_are_no_gain():
    pairs = canned_pairs()
    pairs[5]["change"]["metrics"]["op_ms_tail"] = pairs[5]["parent"]["metrics"]["op_ms_tail"] + 1
    rows, _ = paired_bench.summarize(pairs, END_TO_END)
    assert rows["op_ms_tail"]["wins"] == 8
    assert rows["op_ms_tail"]["status"] == "within bound"


def test_change_beating_every_parent_run_resolves_a_wide_spread():
    pairs = canned_pairs()
    for pair in pairs:
        pair["change"]["metrics"]["wall_s"] = 0.4
    rows, _ = paired_bench.summarize(pairs, END_TO_END)
    assert rows["wall_s"]["status"] == "better"


def test_faults_name_incorrect_runs_and_differing_fingerprints():
    pairs = canned_pairs()
    pairs[2]["change"]["correct"] = False
    pairs[7]["change"]["fingerprint"] = [1.0, 2.5]
    _, faults = paired_bench.summarize(pairs, END_TO_END)
    assert faults == ["change seed 102: correct is false",
                      "seed 107: episode-0 fingerprints differ"]


def test_a_rising_failed_share_is_a_fault():
    """Shares are summed over each side's runs: the parent fails 1 of 400
    ops, the change 2 of 300; a change that fails a smaller share is no fault."""
    pairs = canned_pairs()
    pairs[4]["parent"]["failed"] = 1
    pairs[6]["change"]["failed"] = 2
    for pair in pairs:
        pair["change"]["attempted"] = 30
    shares = paired_bench.failed_shares(pairs)
    assert shares == {"parent": (1, 400, 0.0025), "change": (2, 300, 2 / 300)}
    _, faults = paired_bench.summarize(pairs, END_TO_END)
    assert faults == ["failed op share rises: parent 0.0025, change 0.006667"]
    line = paired_bench.format_shares("ibea-eil51", shares)
    assert "parent 1/400 (0.25%)" in line and "change 2/300 (0.67%)" in line
    pairs[6]["change"]["failed"] = 0
    assert paired_bench.summarize(pairs, END_TO_END)[1] == []


def make_checkout(root, modules, **values):
    """A checkout whose ``src/ttpsolve`` holds ``modules`` (``{name: lines}``),
    whose ``perfbench/run.py`` prints a correct run with fixed metrics (1.0,
    or as ``values`` names them), and whose ``BENCHMARK.json`` is this repo's."""
    pkg = root / "src" / "ttpsolve"
    pkg.mkdir(parents=True)
    for name, lines in modules.items():
        (pkg / f"{name}.py").write_text("x = 1\n" * lines)
    (pkg / "notes.txt").write_text("not a module\n")
    (root / "perfbench").mkdir()
    metrics = {spec["name"]: {"value": values.get(spec["name"], 1.0)} for spec in END_TO_END}
    (root / "perfbench" / "run.py").write_text(
        "import json\n"
        "print(json.dumps({'info': {'fingerprint': [1.0, 2.0]}}))\n"
        f"print(json.dumps({{'correct': True, 'attempted': 4, 'failed': 0, "
        f"'metrics': {metrics!r}}}))\n")
    (root / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    return root


def test_code_size_is_printed_per_checkout(tmp_path, capsys):
    parent = make_checkout(tmp_path / "parent", {"b": 4, "__init__": 2, "a": 10})
    change = make_checkout(tmp_path / "change", {"__init__": 2, "a": 7})
    assert paired_bench.code_size(parent) == {"__init__": 2, "a": 10, "b": 4}
    assert paired_bench.main(["--parent", str(parent), "--change", str(change),
                              "--workload", "w", "--pairs", "1", "--seconds", "0.1",
                              "--seed-base", "1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[-1] == ("code size  parent 16 (__init__ 2, a 10, b 4)"
                         "  change 9 (__init__ 2, a 7)")


def test_a_worse_metric_exits_1(tmp_path, capsys):
    """A ``worse`` row fails the run, as a benchmark gate would; a ``better``
    one does not."""
    parent = make_checkout(tmp_path / "parent", {"a": 1}, peak_rss_mb=50.0)
    argv = ["--parent", str(parent), "--workload", "w", "--pairs", "2", "--seconds", "0.1",
            "--seed-base", "1"]
    worse = make_checkout(tmp_path / "worse", {"a": 1}, peak_rss_mb=60.0)
    assert paired_bench.main(argv + ["--change", str(worse)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert err == ["paired_bench: peak_rss_mb reads worse"]
    better = make_checkout(tmp_path / "better", {"a": 1}, peak_rss_mb=40.0)
    assert paired_bench.main(argv + ["--change", str(better)]) == 0
    assert capsys.readouterr().err == ""
