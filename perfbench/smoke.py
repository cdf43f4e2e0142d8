"""Toy-size smoke run of the benchmark harness (about ten seconds).

    python3 perfbench/smoke.py

Runs run.py on the "smoke" workload of spec.json (n=120, t_max=2), untraced
and traced, and asserts that each prints every metric BENCHMARK.json names,
with the unit given there, that every check passed, and that every layer
metric has an entry in spec.json's layer_targets.
"""
from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run(trace: int) -> dict:
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", "smoke",
                           "--seed", "1", "--seconds", "1", "--trace", str(trace)],
                          cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, f"run.py --trace {trace} exited {proc.returncode}:\n{proc.stderr}"
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    targets = json.loads((HERE / "spec.json").read_text())["layer_targets"]
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        result = run(trace)
        assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        want = {m["name"]: m["unit"] for m in bench[key]}
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        assert got == want, f"{key}: printed {got}, BENCHMARK.json names {want}"
        for name, metric in result["metrics"].items():
            assert isinstance(metric["value"], (int, float)), (name, metric)
        print(f"{key}: {len(got)} metrics, all with units, {result['attempted']} attempts")
    untargeted = [m["name"] for m in bench["per_layer"]
                  if not any(m["name"] == t or m["name"].startswith(t + ".")
                             for t in targets)]
    assert not untargeted, f"per-layer metrics without a layer target: {untargeted}"
    print("smoke ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
