"""One benchmark attempt, run by run.py in a fresh process.

Sets up one workload (import plus dataset_from_config) and, unless --mode is
"setup", runs the pipeline pretrain -> finetune -> test_accuracy on it, with
the package traced in --mode traced. Checks the outputs and prints one JSON
line. Exit code 3 means the package could not be set up at all.

numpy is imported inside the functions, after setup() has started its clock,
because setup_s includes importing it.
"""
from __future__ import annotations

import argparse
import importlib.util
import json
import math
import platform
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
ORACLES = ROOT / "tests" / "oracles.py"
SETUP_FAILED = 3


def setup(overrides: dict, seed: int):
    """Import the package from this checkout and generate the workload's data."""
    started = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import selcontrast
    from selcontrast import training
    if not Path(selcontrast.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"selcontrast imported from {selcontrast.__file__}, not {SRC}")
    cfg = training.benchmark_config(seed=seed, data_seed=seed, noise_seed=seed, **overrides)
    ds = training.dataset_from_config(cfg)
    return training, cfg, ds, time.perf_counter() - started


def last_selective_record(history, cfg):
    """Warm-up records carry placeholder precisions, so quality comes from here."""
    selective = [rec for rec in history if rec.epoch > cfg.t_warm]
    if not selective:
        raise ValueError("no selective epoch ran; quality metrics are undefined")
    return selective[-1]


def check_outputs(result, cfg, noisy_train) -> list[str]:
    """Every way the pipeline's outputs can be wrong, as messages. Quality
    floors are checked by run.py over the run's datasets."""
    import numpy as np

    problems = []
    if len(result.history) != cfg.t_max:
        problems.append(f"history has {len(result.history)} records, want {cfg.t_max}")
    for rec in result.history:
        values = (rec.l_mix, rec.l_cls, rec.l_sim, rec.l_all)
        if not all(math.isfinite(v) for v in values):
            problems.append(f"epoch {rec.epoch}: non-finite loss {values}")
    state = result.selection
    if state is None or state.confident.size == 0:
        problems.append("final confident set is empty")
    else:
        # A class with fewer examples than the quota keeps all of them.
        sizes = [len(kept) for kept in state.confident_by_class]
        class_sizes = np.bincount(noisy_train, minlength=len(sizes))
        want = [min(state.per_class_quota, int(n)) for n in class_sizes]
        if sizes != want:
            problems.append(f"per-class confident sizes {sizes}, want {want} "
                            f"(quota {state.per_class_quota})")
        ends = np.fromiter((i for pair in state.pairs for i in pair), dtype=np.int64,
                           count=2 * len(state.pairs)).reshape(-1, 2)
        mixed = int(np.sum(noisy_train[ends[:, 0]] != noisy_train[ends[:, 1]]))
        if mixed:
            problems.append(f"{mixed} selected pairs join different noisy labels")
    return problems


def check_against_oracle(captured, final_state) -> list[str]:
    """Re-derive the last selection with tests/oracles.py from the inputs that
    run_selection actually received, and compare every part of it."""
    spec = importlib.util.spec_from_file_location("oracles", ORACLES)
    oracles = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(oracles)

    bank, noisy, pseudo, alpha, beta, state = captured
    confident, g_prime, gamma, g_second, union = oracles.brute_force_selection(
        bank.z, noisy, pseudo.y_hat, pseudo.q_hat, alpha, beta)
    problems = []
    if state is not final_state:
        problems.append("the last run_selection result is not the selection pretrain returned")
    if [int(i) for i in state.confident] != confident:
        problems.append("confident set differs from the oracle")
    if state.pairs_confident != g_prime:
        problems.append("confident pairs differ from the oracle")
    if not (state.sim_threshold == gamma or (math.isinf(gamma)
                                             and math.isinf(state.sim_threshold))):
        problems.append(f"threshold {state.sim_threshold!r} != oracle {gamma!r}")
    if state.pairs_similar != g_second:
        problems.append("similar pairs differ from the oracle")
    if state.pairs != union:
        problems.append("pair union differs from the oracle")
    return problems


def run_pipeline(training, cfg, ds, workload: dict, traced: bool) -> dict:
    import numpy as np
    from tracing import SelectionCapture, Tracer

    capture = SelectionCapture() if workload["oracle"] else None
    tracer = Tracer() if traced else None
    if tracer is not None:
        tracer.install(capture)
    elif capture is not None:
        capture.install()

    started = time.perf_counter()
    result = training.pretrain(ds, cfg)
    params = training.finetune(result.params, ds, cfg, selection=result.selection)
    train_s = time.perf_counter() - started
    if tracer is not None:
        tracer.mark_end()
    test_acc = training.test_accuracy(params, ds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    record = last_selective_record(result.history, cfg)
    noisy_train = ds.noisy_labels[ds.train_indices()]
    problems = check_outputs(result, cfg, noisy_train)
    if capture is not None:
        problems += check_against_oracle(capture.last, result.selection)
    out = {
        "train_s": train_s,
        "peak_rss_mb": peak_rss_mb,
        "quality": {"test_acc": test_acc, "knn_acc": record.knn_accuracy,
                    "prec_T": record.precision_examples,
                    "prec_G": record.precision_pairs},
        "problems": problems,
        "env": {"python": platform.python_version(), "numpy": np.__version__,
                "blas": _blas_name(np)},
    }
    if tracer is not None:
        out["trace"] = tracer.summary()
    return out


def _blas_name(np) -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas['name']} {blas.get('version', '')}".strip()
    except (KeyError, TypeError, ValueError):
        return "unknown"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("setup", "plain", "traced"), required=True)
    args = parser.parse_args(argv)
    workload = json.loads((HERE / "spec.json").read_text())["workloads"][args.workload]
    try:
        training, cfg, ds, setup_s = setup(workload["overrides"], args.seed)
    except (ImportError, OSError) as exc:
        print(f"cannot set up the package: {exc}", file=sys.stderr)
        return SETUP_FAILED
    out = {"setup_s": setup_s}
    if args.mode != "setup":
        out.update(run_pipeline(training, cfg, ds, workload, args.mode == "traced"))
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
