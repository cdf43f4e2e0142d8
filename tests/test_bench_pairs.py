"""tools/bench_pairs.py: the summary of alternating parent/change benchmark pairs."""
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "bench_pairs.py"


def _tool():
    spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def run_output(rss, train_s, seed, knn=100.0, failed=0):
    """The two stdout lines of one perfbench/run.py --trace 0 run."""
    info = {"info": {"workload": "scale", "seed": seed,
                     "quality_by_seed": {str(seed * 1000): {"knn_acc": knn}}}}
    result = {"correct": not failed, "attempted": 4, "failed": failed,
              "metrics": {"peak_rss_mb": {"value": rss, "unit": "MB"},
                          "train_s": {"value": train_s, "unit": "s"},
                          "knn_acc": {"value": knn, "unit": "%"}}}
    return json.dumps(info) + "\n" + json.dumps(result) + "\n"


def write_side(path, runs):
    path.write_text("".join(run_output(*run) for run in runs))
    return path


def test_summary_of_pairs_in_file_order(tmp_path):
    parent = write_side(tmp_path / "parent.txt", [(46.0, 2.0, 1), (46.2, 2.4, 2),
                                                   (45.8, 2.2, 3), (46.1, 2.2, 4)])
    change = write_side(tmp_path / "change.txt", [(44.5, 2.1, 1), (44.4, 2.3, 2),
                                                   (46.0, 2.2, 3), (44.6, 2.0, 4)])
    tool = _tool()
    entry = tool.summarize(tool.read_runs(parent), tool.read_runs(change),
                           tool.directions(ROOT / "BENCHMARK.json"))
    assert entry["pairs"] == 4 and entry["all_correct"]
    assert entry["attempted"] == {"parent": 16, "change": 16}
    rss = entry["metrics"]["peak_rss_mb"]
    # inclusive quartiles of 45.8, 46.0, 46.1, 46.2
    assert rss["parent"] == pytest.approx({"median": 46.05, "q1": 45.95, "q3": 46.125,
                                           "iqr": 0.175})
    assert rss["change"]["median"] == pytest.approx(44.55)
    assert rss["median_change_pct"] == pytest.approx(100 * (44.55 - 46.05) / 46.05)
    # pair 3 reads 45.8 -> 46.0, the only pair the change loses
    assert rss["change_better_pairs"] == 3 and rss["tied_pairs"] == 0
    train = entry["metrics"]["train_s"]
    assert train["change_better_pairs"] == 2 and train["tied_pairs"] == 1
    knn = entry["metrics"]["knn_acc"]  # higher is better; every pair ties
    assert knn["change_better_pairs"] == 0 and knn["tied_pairs"] == 4
    assert entry["per_pair"]["peak_rss_mb"]["change"] == [44.5, 44.4, 46.0, 44.6]
    assert entry["quality_identical_by_dataset"]
    assert entry["quality_by_dataset"]["parent"]["3000"] == {"knn_acc": 100.0}


def test_claim_needs_nine_tenths_of_the_pairs_and_a_gap_over_the_parent_iqr(tmp_path):
    tool = _tool()
    better = tool.directions(ROOT / "BENCHMARK.json")
    parent_rss = [46.0 + 0.1 * i for i in range(10)]  # IQR 0.45
    parent_runs = [(rss, 2.0, i) for i, rss in enumerate(parent_rss)]
    for change_rss, met in (([44.5] * 10, True),
                            ([44.5] * 8 + [47.0] * 2, False),             # 8 of 10 pairs
                            ([rss - 0.05 for rss in parent_rss], False)):  # gap under the IQR
        change_runs = [(rss, 2.0, i) for i, rss in enumerate(change_rss)]
        entry = tool.summarize(
            tool.read_runs(write_side(tmp_path / "p.txt", parent_runs)),
            tool.read_runs(write_side(tmp_path / "c.txt", change_runs)), better)
        claim = tool.judge(entry, "peak_rss_mb", better["peak_rss_mb"])
        assert claim["met"] is met, change_rss
        assert claim["pairs"] == 10


def test_command_line_writes_one_bench_file(tmp_path):
    parent = write_side(tmp_path / "parent.txt", [(46.0, 2.0, 1), (46.1, 2.0, 2)])
    change = write_side(tmp_path / "change.txt", [(44.0, 2.0, 1), (44.1, 2.0, 2, 99.0)])
    notes = tmp_path / "notes.json"
    notes.write_text(json.dumps({"change": "one bank per epoch"}))
    proc = subprocess.run([sys.executable, str(TOOL), "--workload", "scale", str(parent),
                           str(change), "--claim", "scale", "peak_rss_mb",
                           "--describe", str(notes)],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    assert list(out) == ["change", "claim", "workloads"]
    assert out["claim"]["workload"] == "scale" and out["claim"]["change_better_pairs"] == 2
    assert not out["workloads"]["scale"]["quality_identical_by_dataset"]


def test_unequal_pair_counts_are_refused(tmp_path):
    parent = write_side(tmp_path / "parent.txt", [(46.0, 2.0, 1), (46.1, 2.0, 2)])
    change = write_side(tmp_path / "change.txt", [(44.0, 2.0, 1)])
    proc = subprocess.run([sys.executable, str(TOOL), "--workload", "scale", str(parent),
                           str(change)], capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2
    assert "2 parent runs but 1 change runs" in proc.stderr


def test_one_pair_is_refused(tmp_path):
    tool = _tool()
    runs = tool.read_runs(write_side(tmp_path / "one.txt", [(46.0, 2.0, 1)]))
    with pytest.raises(ValueError, match="at least 2 pairs"):
        tool.summarize(runs, runs, tool.directions(ROOT / "BENCHMARK.json"))
