"""The benchmark's traced pipeline, run as the benchmark runs it, on this checkout.

perfbench/pipeline.py wraps the package's functions by name. A traced run
reports a problem when the outputs are wrong, and perfbench/run.py fails it
when a wrapped function exists but is never called; both are checked here
on the toy-size "smoke" workload (about a second).
"""
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_traced_smoke_pipeline_calls_every_wrapped_function():
    # no bytecode is written, so the run leaves perfbench/ as it found it
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run([sys.executable, str(ROOT / "perfbench" / "pipeline.py"),
                           "--workload", "smoke", "--seed", "1", "--mode", "traced"],
                          cwd=ROOT, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert out["problems"] == []
    trace = out["trace"]
    silent = [name for name, calls in trace["calls"].items()
              if calls == 0 and name not in trace["absent"]]
    assert silent == []
    # the epoch spans the per-epoch timings are read from exist by these names
    assert not {"training.warmup", "training.pretrain_epoch", "training.finetune"} & set(
        trace["absent"])
