"""Command-line harness: gen | train | eval | sweep | dump-proj.

Exit codes: 0 success, 1 configuration/usage error, 2 runtime failure.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import time
from pathlib import Path

import numpy as np

from .data import NoiseSpec, dump_features_csv, inject_noise, load_features_csv, make_blobs
from .evaluation import dump_projection_2d
from .network import forward, load_checkpoint, save_checkpoint
from .training import (RunConfig, benchmark_config, compute_selection, dataset_from_config,
                       finetune, model_metrics, pretrain, test_accuracy, write_metrics_csv)

REPORT_SCHEMA_VERSION = 1

SWEEP_AXES = ("lambda_s", "alpha", "beta", "noise_rate", "warmup_kind")


class CliError(Exception):
    """Configuration or usage problem; maps to exit code 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); route through CliError
        raise CliError(f"{message}\n{self.format_usage()}")


def _add_config_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="JSON file of RunConfig keys")
    for f in dataclasses.fields(RunConfig):
        flag = "--" + f.name.replace("_", "-")
        if f.name == "lr_schedule":
            parser.add_argument(flag, default=None, metavar="JSON",
                                help="e.g. '[[126,0.1],[201,0.1]]'")
        elif isinstance(f.default, bool):
            parser.add_argument(flag, action=argparse.BooleanOptionalAction, default=None)
        else:
            kind = type(f.default) if f.default is not dataclasses.MISSING else str
            parser.add_argument(flag, type=kind, default=None)


def _resolve_config(args) -> RunConfig:
    try:
        if args.config:
            cfg = RunConfig.from_json(args.config)
        else:
            cfg = benchmark_config()
        for f in dataclasses.fields(RunConfig):
            value = getattr(args, f.name, None)
            if value is None:
                continue
            if f.name == "lr_schedule":
                value = json.loads(value)
            setattr(cfg, f.name, value)
        cfg.lr_schedule = [[int(e), float(m)] for e, m in cfg.lr_schedule]
        return cfg.validate()
    except (OSError, ValueError, TypeError, json.JSONDecodeError) as exc:
        raise CliError(f"bad configuration: {exc}") from exc


def build_parser() -> _Parser:
    parser = _Parser(prog="selcontrast", description=__doc__)
    sub = parser.add_subparsers(dest="command", parser_class=_Parser)

    gen = sub.add_parser("gen", help="generate a blob dataset CSV")
    gen.add_argument("--n", type=int, default=500)
    gen.add_argument("--classes", type=int, default=4)
    gen.add_argument("--dim", type=int, default=16)
    gen.add_argument("--spread", type=float, default=0.5)
    gen.add_argument("--seed", type=int, default=1)
    gen.add_argument("--noise-kind", choices=("symmetric", "asymmetric"),
                     default="symmetric")
    gen.add_argument("--noise-rate", type=float, default=0.0)
    gen.add_argument("--noise-seed", type=int, default=0)
    gen.add_argument("--out", required=True)

    train = sub.add_parser("train", help="pretrain (and fine-tune) on one dataset")
    _add_config_flags(train)
    train.add_argument("--data", help="dataset CSV; generated from config when absent")
    train.add_argument("--metrics", help="per-epoch metrics CSV path")
    train.add_argument("--out-dir", help="directory for metrics/config/report/checkpoint")
    train.add_argument("--checkpoint", help="final model JSON path")
    train.add_argument("--report", help="summary report JSON path")
    train.add_argument("--dump-selection", help="final selection JSON path")
    train.add_argument("--dump-pseudo", help="final pseudo-label CSV path")
    train.add_argument("--finetune", action=argparse.BooleanOptionalAction, default=True)
    train.add_argument("--fixed-clock", action="store_true",
                       help="write 0.000 wall seconds for byte-reproducible metrics")

    ev = sub.add_parser("eval", help="metrics of a checkpoint on a dataset")
    _add_config_flags(ev)
    ev.add_argument("--checkpoint", required=True)
    ev.add_argument("--data", required=True)
    ev.add_argument("--out", help="write the JSON report here instead of stdout")

    sweep = sub.add_parser("sweep", help="grid over one config axis x seeds")
    _add_config_flags(sweep)
    sweep.add_argument("--axis", required=True, choices=SWEEP_AXES)
    sweep.add_argument("--values", required=True,
                       help="comma-separated axis values")
    sweep.add_argument("--seeds", default="1,2,3", help="comma-separated run seeds")
    sweep.add_argument("--out", required=True, help="summary CSV path")
    sweep.add_argument("--finetune", action=argparse.BooleanOptionalAction, default=True)

    proj = sub.add_parser("dump-proj", help="2-d projection CSV of the embeddings")
    _add_config_flags(proj)
    proj.add_argument("--checkpoint", required=True)
    proj.add_argument("--data", required=True)
    proj.add_argument("--out", required=True)
    proj.add_argument("--split", choices=("train", "test"), default="train")
    return parser


def _cmd_gen(args) -> int:
    ds = make_blobs(args.n, args.classes, args.dim, args.spread, args.seed)
    if args.noise_rate > 0:
        ds = inject_noise(ds, NoiseSpec(kind=args.noise_kind, rate=args.noise_rate,
                                        rng_seed=args.noise_seed))
    dump_features_csv(ds, args.out)
    corrupted = int(np.sum(ds.noisy_labels != ds.true_labels))
    print(f"wrote {args.out}: n={ds.n} classes={ds.n_classes} dim={ds.dim} "
          f"train={len(ds.train_indices())} test={len(ds.test_indices())} "
          f"corrupted={corrupted}")
    return 0


def _load_dataset(args, cfg: RunConfig):
    if getattr(args, "data", None):
        try:
            return load_features_csv(args.data)
        except (OSError, ValueError) as exc:
            raise CliError(f"bad dataset: {exc}") from exc
    return dataset_from_config(cfg)


def _cmd_train(args) -> int:
    cfg = _resolve_config(args)
    out_dir = Path(args.out_dir) if args.out_dir else None
    if out_dir:
        out_dir.mkdir(parents=True, exist_ok=True)
    metrics_path = Path(args.metrics) if args.metrics else (
        out_dir / "metrics.csv" if out_dir else None)

    ds = _load_dataset(args, cfg)
    clock = (lambda: 0.0) if args.fixed_clock else time.perf_counter
    result = pretrain(ds, cfg, time_source=clock)
    final_params = result.params
    do_finetune = args.finetune and cfg.t_finetune > 0
    # The selection fine-tuning uses and the dumps describe: the last selective
    # epoch's, or, when only warm-up ran, one made from the warmed-up model.
    state = result.selection
    if state is None and (do_finetune or args.dump_selection or args.dump_pseudo):
        state = compute_selection(result.params, ds, cfg)
    report = {
        "schema_version": REPORT_SCHEMA_VERSION,
        "config": cfg.as_dict(),
        "n_train": int(len(ds.train_indices())),
        "n_test": int(len(ds.test_indices())),
        "pretrain_test_accuracy": result.history[-1].test_accuracy,
        "pretrain_knn_accuracy": result.history[-1].knn_accuracy,
        "finetuned_test_accuracy": None,
    }
    if do_finetune:
        final_params = finetune(result.params, ds, cfg, selection=state)
        report["finetuned_test_accuracy"] = test_accuracy(final_params, ds)

    if metrics_path:
        write_metrics_csv(result.history, metrics_path)
        cfg.to_json(metrics_path.with_suffix(".config.json")
                    if not out_dir else out_dir / "config.json")
    ckpt_path = Path(args.checkpoint) if args.checkpoint else (
        out_dir / "checkpoint.json" if out_dir else None)
    if ckpt_path:
        save_checkpoint(final_params, ckpt_path)
    report_path = Path(args.report) if args.report else (
        out_dir / "report.json" if out_dir else None)
    if report_path:
        with open(report_path, "w") as fh:
            json.dump(report, fh, indent=2)
            fh.write("\n")

    if args.dump_selection or args.dump_pseudo:
        train_idx = ds.train_indices()
        if args.dump_selection:
            payload = {
                "epoch_tag": state.epoch_tag,
                "per_class_quota": state.per_class_quota,
                "sim_threshold": state.sim_threshold,
                "train_row_indices": train_idx.tolist(),
                "confident_by_class": [c.tolist() for c in state.confident_by_class],
                "pairs_confident": sorted(state.pairs_confident),
                "pairs_similar": sorted(state.pairs_similar),
            }
            with open(args.dump_selection, "w") as fh:
                json.dump(payload, fh)
                fh.write("\n")
        if args.dump_pseudo:
            pseudo = state.pseudo
            n_classes = pseudo.q_hat.shape[1]
            header = "index,y_hat," + ",".join(f"q_{c}" for c in range(n_classes))
            lines = [header]
            for i in range(len(pseudo.y_hat)):
                qs = ",".join(f"{v:.6f}" for v in pseudo.q_hat[i])
                lines.append(f"{int(train_idx[i])},{int(pseudo.y_hat[i])},{qs}")
            Path(args.dump_pseudo).write_text("\n".join(lines) + "\n")

    final_acc = report["finetuned_test_accuracy"]
    if final_acc is None:
        final_acc = report["pretrain_test_accuracy"]
    print(f"test_acc={final_acc:.4f} knn_acc={report['pretrain_knn_accuracy']:.4f} "
          f"n_T={result.history[-1].n_confident}")
    return 0


def _cmd_eval(args) -> int:
    cfg = _resolve_config(args)
    try:
        params = load_checkpoint(args.checkpoint)
    except (OSError, ValueError, KeyError) as exc:
        raise CliError(f"bad checkpoint: {exc}") from exc
    ds = _load_dataset(args, cfg)
    knn_accuracy, accuracy = model_metrics(params, ds, cfg)
    report = {
        "schema_version": REPORT_SCHEMA_VERSION,
        "n_train": int(len(ds.train_indices())),
        "n_test": int(len(ds.test_indices())),
        "knn_accuracy": knn_accuracy,
        "test_accuracy": accuracy,
    }
    text = json.dumps(report, indent=2) + "\n"
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)
    return 0


def _parse_axis_values(axis: str, raw: str) -> list:
    values = [v.strip() for v in raw.split(",") if v.strip()]
    if not values:
        raise CliError("--values needs at least one entry")
    if axis == "warmup_kind":
        return values
    try:
        return [float(v) for v in values]
    except ValueError as exc:
        raise CliError(f"non-numeric value for axis {axis}: {exc}") from exc


def emit_summary(results: list[dict], path) -> None:
    """Aggregate per-run sweep results into a per-value summary CSV.

    Rows keep the order values first appeared in. Failed runs leave their
    cells empty; the std is over the successful replicates (0 for a single
    one). mean_prec_T skips runs whose last epoch selected no example, and is
    empty when no run selected one.
    """
    order, grouped = [], {}
    for row in results:
        key = row["value"]
        if key not in grouped:
            grouped[key] = []
            order.append(key)
        grouped[key].append(row)
    lines = ["value,mean_test_acc,std_test_acc,mean_prec_T"]
    for key in order:
        good = [r for r in grouped[key] if r.get("error") is None]
        if good:
            accs = np.array([r["test_acc"] for r in good])
            precs = [r["prec_T"] for r in good if r["prec_T"] is not None]
            mean_prec = f"{np.mean(precs):.4f}" if precs else ""
            lines.append(f"{key},{accs.mean():.4f},{accs.std():.4f},{mean_prec}")
        else:
            lines.append(f"{key},,,")
    Path(path).write_text("\n".join(lines) + "\n")


def run_sweep(cfg: RunConfig, axis: str, values: list, seeds: list[int],
              with_finetune: bool = True) -> list[dict]:
    """One full run per (value, seed); failures are recorded, not raised."""
    results = []
    for value in values:
        for seed in seeds:
            run_cfg = dataclasses.replace(cfg, seed=seed)
            setattr(run_cfg, axis, value)
            row = {"value": value, "seed": seed, "error": None}
            try:
                run_cfg.validate()
                ds = dataset_from_config(run_cfg)
                result = pretrain(ds, run_cfg)
                if with_finetune and run_cfg.t_finetune > 0:
                    params = finetune(result.params, ds, run_cfg,
                                      selection=result.selection)
                    row["test_acc"] = test_accuracy(params, ds)
                else:
                    row["test_acc"] = result.history[-1].test_accuracy
                row["prec_T"] = result.history[-1].precision_examples
            except Exception as exc:  # noqa: BLE001 - survive and report
                row["error"] = f"{type(exc).__name__}: {exc}"
            results.append(row)
    return results


def _cmd_sweep(args) -> int:
    cfg = _resolve_config(args)
    values = _parse_axis_values(args.axis, args.values)
    try:
        seeds = [int(s) for s in args.seeds.split(",") if s.strip()]
    except ValueError as exc:
        raise CliError(f"bad --seeds: {exc}") from exc
    if not seeds:
        raise CliError("--seeds needs at least one entry")
    results = run_sweep(cfg, args.axis, values, seeds, with_finetune=args.finetune)
    emit_summary(results, args.out)
    failures = [r for r in results if r["error"] is not None]
    for row in failures:
        print(f"run value={row['value']} seed={row['seed']} failed: {row['error']}",
              file=sys.stderr)
    print(f"wrote {args.out}: {len(results) - len(failures)}/{len(results)} runs ok")
    return 2 if failures else 0


def _cmd_dump_proj(args) -> int:
    cfg = _resolve_config(args)
    try:
        params = load_checkpoint(args.checkpoint)
    except (OSError, ValueError, KeyError) as exc:
        raise CliError(f"bad checkpoint: {exc}") from exc
    ds = _load_dataset(args, cfg)
    idx = ds.train_indices() if args.split == "train" else ds.test_indices()
    z = forward(params, ds.instances[idx]).z
    if args.split == "train":
        mask = compute_selection(params, ds, cfg, train_z=z).confident_mask(len(idx))
    else:
        mask = np.zeros(len(idx), dtype=bool)
    dump_projection_2d(z, ds.true_labels[idx], ds.noisy_labels[idx], mask, args.out)
    print(f"wrote {args.out}: {len(idx)} points")
    return 0


_COMMANDS = {
    "gen": _cmd_gen,
    "train": _cmd_train,
    "eval": _cmd_eval,
    "sweep": _cmd_sweep,
    "dump-proj": _cmd_dump_proj,
}


def cli_run(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command is None:
            raise CliError(parser.format_usage())
        return _COMMANDS[args.command](args)
    except CliError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    except Exception as exc:  # noqa: BLE001 - runtime failure contract
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(cli_run())


if __name__ == "__main__":
    main()
