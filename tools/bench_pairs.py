"""Summarize alternating benchmark pairs of a parent commit and a change.

Reads what `perfbench/run.py` printed for each side: one file per side and
workload, holding the runs in pair order (run i of the parent file and run i
of the change file are pair i). A file may hold run.py's whole stdout: each
line that parses to an object with "metrics" is one run's result, and an
"info" line before it adds that run's per-dataset quality. The tool does not
run anything.

For every metric of the result lines it writes, per side, the median and the
quartiles q1 and q3 (statistics.quantiles, inclusive method) with their
distance `iqr`; `change_better_pairs`, the pairs where the change read
better in the direction BENCHMARK.json gives the metric, and `tied_pairs`,
where both read the same; and `median_change_pct`, the change's median
relative to the parent's. With --claim WORKLOAD METRIC it also judges one
claimed gain: met when the change reads better in at least nine tenths of the
pairs and the medians differ, in the better direction, by more than the
parent's IQR.

Usage:
    python tools/bench_pairs.py --workload scale parent_scale.txt change_scale.txt \\
        --workload wide parent_wide.txt change_wide.txt \\
        --claim scale peak_rss_mb --describe notes.json > BENCH_N.json

--describe names a JSON object whose keys (say "change", "method",
"machine") are written first, ahead of "claim" and "workloads".
"""
from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SIDES = ("parent", "change")
BETTER_SHARE = 0.9  # a claimed gain must win at least this share of the pairs


def read_runs(path) -> list[dict]:
    """The result objects of a file of run.py output, in order; each carries
    the quality by dataset of the "info" line before it, if any, under
    "quality_by_seed"."""
    runs, info = [], None
    for line in Path(path).read_text().splitlines():
        line = line.strip()
        if not line.startswith("{"):
            continue
        obj = json.loads(line)
        if "info" in obj:
            info = obj["info"]
        elif "metrics" in obj:
            runs.append(dict(obj, quality_by_seed=(info or {}).get("quality_by_seed")))
            info = None
    if not runs:
        raise ValueError(f"{path}: no run.py result line")
    return runs


def directions(benchmark_path) -> dict[str, str]:
    """Metric name -> "lower" or "higher", from BENCHMARK.json."""
    spec = json.loads(Path(benchmark_path).read_text())
    return {m["name"]: m["better"] for key in ("end_to_end", "per_layer")
            for m in spec.get(key, [])}


def spread(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "iqr": q3 - q1}


def compare(parent: list[float], change: list[float], better: str) -> dict:
    """The summary of one metric over the pairs (parent[i], change[i])."""
    sign = -1.0 if better == "lower" else 1.0
    out = {"parent": spread(parent), "change": spread(change)}
    base = out["parent"]["median"]
    out["median_change_pct"] = (100.0 * (out["change"]["median"] - base) / base
                                if base else None)
    out["change_better_pairs"] = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    out["tied_pairs"] = sum(c == p for p, c in zip(parent, change))
    return out


def summarize(parent_runs: list[dict], change_runs: list[dict], better: dict) -> dict:
    """The workload entry of a BENCH file for runs paired in order."""
    if len(parent_runs) != len(change_runs):
        raise ValueError(f"{len(parent_runs)} parent runs but {len(change_runs)} change runs")
    if len(parent_runs) < 2:
        raise ValueError("quartiles need at least 2 pairs")
    runs = dict(zip(SIDES, (parent_runs, change_runs)))
    names = [name for name in parent_runs[0]["metrics"] if name in better]
    values = {name: {side: [r["metrics"][name]["value"] for r in runs[side]] for side in SIDES}
              for name in names}
    entry = {
        "pairs": len(parent_runs),
        "failed_attempts": {side: sum(r["failed"] for r in runs[side]) for side in SIDES},
        "attempted": {side: sum(r["attempted"] for r in runs[side]) for side in SIDES},
        "all_correct": all(r["correct"] for side in SIDES for r in runs[side]),
        "metrics": {name: compare(values[name]["parent"], values[name]["change"], better[name])
                    for name in names},
        "per_pair": values,
    }
    quality = {side: {seed: q for r in runs[side] for seed, q in
                      (r["quality_by_seed"] or {}).items()} for side in SIDES}
    if quality["parent"] or quality["change"]:
        entry["quality_by_dataset"] = quality
        entry["quality_identical_by_dataset"] = quality["parent"] == quality["change"]
    return entry


def judge(entry: dict, metric: str, better: str) -> dict:
    """Whether the claimed gain of `metric` holds over the pairs of `entry`."""
    m = entry["metrics"][metric]
    parent, change = m["parent"]["median"], m["change"]["median"]
    gap = (parent - change) if better == "lower" else (change - parent)
    return {"metric": metric, "parent_median": parent, "change_median": change,
            "median_change_pct": m["median_change_pct"],
            "change_better_pairs": m["change_better_pairs"], "pairs": entry["pairs"],
            "parent_iqr": m["parent"]["iqr"], "median_gap": gap,
            "met": (m["change_better_pairs"] >= BETTER_SHARE * entry["pairs"]
                    and gap > m["parent"]["iqr"])}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", nargs=3, action="append", required=True,
                        metavar=("NAME", "PARENT_FILE", "CHANGE_FILE"))
    parser.add_argument("--claim", nargs=2, metavar=("WORKLOAD", "METRIC"))
    parser.add_argument("--describe", type=Path, metavar="FILE",
                        help="JSON object of descriptive keys written first")
    args = parser.parse_args(argv)
    better = directions(ROOT / "BENCHMARK.json")
    out = json.loads(args.describe.read_text()) if args.describe else {}
    try:
        workloads = {name: summarize(read_runs(parent), read_runs(change), better)
                     for name, parent, change in args.workload}
        if args.claim:
            name, metric = args.claim
            out["claim"] = dict(judge(workloads[name], metric, better[metric]), workload=name)
    except (OSError, ValueError, KeyError) as exc:
        print(f"bench_pairs: {exc}", file=sys.stderr)
        return 2
    out["workloads"] = workloads
    json.dump(out, sys.stdout, indent=1)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
