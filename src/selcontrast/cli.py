"""Command-line harness: gen | train | eval | sweep | dump-proj.

Exit codes: 0 success, 1 configuration/usage error, 2 runtime failure.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
import time
from pathlib import Path

import numpy as np

from .data import dump_features_csv, load_features_csv
from .evaluation import dump_projection_2d
from .neighbors import GRID_BITS
from .network import load_checkpoint, save_checkpoint
from .training import (DATASET_KEYS, PROBE_KEYS, SELECTION_KEYS, PretrainResult, RunConfig,
                       compute_selection, dataset_from_config, embed_rows, finetune,
                       model_metrics, pretrain, test_accuracy, train_embedding, write_metrics_csv)

REPORT_SCHEMA_VERSION = 1

_FIELDS = {f.name: f for f in dataclasses.fields(RunConfig)}


class CliError(Exception):
    """Configuration or usage problem; maps to exit code 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); route through CliError
        raise CliError(f"{message}\n{self.format_usage()}")


def _flag(key: str) -> str:
    return "--" + key.replace("_", "-")


def _key_parser(key: str):
    """The one string-to-value conversion of RunConfig key `key`, for its flag
    and sweep's --values: JSON for lr_schedule, its default's type otherwise."""
    return json.loads if key == "lr_schedule" else type(_FIELDS[key].default)


def _add_config_flags(parser: argparse.ArgumentParser, keys, config_file=True) -> None:
    """One override flag per RunConfig key in `keys`, after --config unless
    config_file is False."""
    if config_file:
        parser.add_argument("--config", help="JSON file of RunConfig keys")
    for key in keys:
        extra = ({"metavar": "JSON", "help": "e.g. '[[126,0.1],[201,0.1]]'"}
                 if key == "lr_schedule" else {})
        parser.add_argument(_flag(key), type=_key_parser(key), default=None, **extra)


def _resolve_config(args) -> RunConfig:
    """RunConfig's defaults, then the --config file's keys, then every given
    flag, validated."""
    try:
        cfg = RunConfig.from_json(args.config) if getattr(args, "config", None) else RunConfig()
        for key in _FIELDS:
            value = getattr(args, key, None)
            if value is not None:
                setattr(cfg, key, value)
        return cfg.validate()
    except (OSError, ValueError, TypeError) as exc:
        raise CliError(f"bad configuration: {exc}") from exc


def build_parser() -> _Parser:
    parser = _Parser(prog="selcontrast", description=__doc__)
    sub = parser.add_subparsers(dest="command", parser_class=_Parser)

    gen = sub.add_parser("gen", help="generate the dataset CSV a config describes")
    _add_config_flags(gen, DATASET_KEYS, config_file=False)
    gen.add_argument("--out", required=True)

    train = sub.add_parser("train", help="pretrain (and fine-tune) on one dataset")
    _add_config_flags(train, _FIELDS)
    train.add_argument("--data", help="dataset CSV, used instead of the config's "
                                      "dataset keys; generated from them when absent")
    train.add_argument("--out-dir", help="directory for metrics/config/report/checkpoint")
    train.add_argument("--dump-selection", help="final selection JSON path")
    train.add_argument("--dump-pseudo", help="final pseudo-label CSV path")
    train.add_argument("--fixed-clock", action="store_true",
                       help="write 0.000 wall seconds for byte-reproducible metrics")

    ev = sub.add_parser("eval", help="metrics of a checkpoint on a dataset")
    _add_config_flags(ev, PROBE_KEYS)
    ev.add_argument("--checkpoint", required=True)
    ev.add_argument("--data", required=True)
    ev.add_argument("--out", help="write the JSON report here instead of stdout")

    sweep = sub.add_parser("sweep", help="one train run per (axis value, seed); CSV of "
                                         "mean/std final test_acc and mean prec_T per value")
    _add_config_flags(sweep, _FIELDS)
    # --seeds sets the seed, and an lr_schedule value holds commas
    sweep.add_argument("--axis", required=True, metavar="KEY",
                       choices=[key for key in _FIELDS if key not in ("seed", "lr_schedule")],
                       help="any config key but seed and lr_schedule; its own flag "
                            "is refused")
    sweep.add_argument("--values", required=True,
                       help="comma-separated axis values, each parsed like the "
                            "key's flag, e.g. --axis count_labels --values pseudo,noisy")
    sweep.add_argument("--seeds", default="1,2,3", help="comma-separated run seeds")
    sweep.add_argument("--out", required=True, help="summary CSV path")

    proj = sub.add_parser("dump-proj", help="2-d projection CSV of the embeddings")
    _add_config_flags(proj, SELECTION_KEYS)
    proj.add_argument("--checkpoint", required=True)
    proj.add_argument("--data", required=True)
    proj.add_argument("--out", required=True)
    proj.add_argument("--split", choices=("train", "test"), default="train")
    return parser


def _cmd_gen(args) -> int:
    ds = _load_dataset(args, _resolve_config(args))
    dump_features_csv(ds, args.out)
    corrupted = int(np.sum(ds.noisy_labels != ds.true_labels))
    print(f"wrote {args.out}: n={ds.n} classes={ds.n_classes} dim={ds.dim} "
          f"train={len(ds.train_indices())} test={len(ds.test_indices())} "
          f"corrupted={corrupted}")
    return 0


def _refuse_given(args, names, reason: str) -> None:
    """Fail naming each option of `names` (argparse dests) that was given."""
    given = [_flag(name) for name in names if getattr(args, name, None) is not None]
    if given:
        raise CliError(f"{', '.join(given)} cannot be combined with {reason}")


def _load_dataset(args, cfg: RunConfig):
    """The --data CSV when given, which no dataset flag may accompany and
    whose train and test splits may not be empty; otherwise the dataset cfg's
    dataset keys describe."""
    if getattr(args, "data", None):
        _refuse_given(args, DATASET_KEYS, "--data")
        try:
            ds = load_features_csv(args.data)
        except (OSError, ValueError) as exc:
            raise CliError(f"bad dataset: {exc}") from exc
        for split, rows in (("train", ds.train_indices()), ("test", ds.test_indices())):
            if not len(rows):
                raise CliError(f"bad dataset: {args.data}: the {split} split is empty")
        return ds
    try:
        return dataset_from_config(cfg)
    except ValueError as exc:
        raise CliError(f"bad configuration: {exc}") from exc


def _dump_selection(state, train_idx, path) -> None:
    """Write the state that defines the selection as one JSON object, no
    entry of which grows with the pair count. Pair {i, j}, i != j, of train
    rows train_row_indices[i] and [j] is selected when noisy_labels[i] ==
    noisy_labels[j] and either both are in confident_by_class or
    z_grid[i] . z_grid[j] > ldexp(sim_threshold, 48). z_grid holds the bank's
    rows as the exact integers ldexp(z, 24); sim_threshold is null when there
    is no confident pair, and then no pair is similar."""
    payload = {
        "epoch_tag": state.epoch_tag,
        "per_class_quota": state.per_class_quota,
        "train_row_indices": train_idx.tolist(),
        "noisy_labels": state.noisy_labels.tolist(),
        "confident_by_class": [c.tolist() for c in state.confident_by_class],
        "sim_threshold": None if math.isinf(state.sim_threshold) else state.sim_threshold,
        "z_grid": np.ldexp(state.z, GRID_BITS).astype(np.int64).tolist(),
    }
    with open(path, "w") as fh:
        json.dump(payload, fh, allow_nan=False)
        fh.write("\n")


def _end_run(result: PretrainResult, ds, cfg: RunConfig):
    """The end of every run, train's and each of sweep's: fine-tune exactly
    when t_finetune > 0. Returns (final params, train's report.json fields,
    final test accuracy): the fine-tuned accuracy, else the last record's."""
    report = {
        "schema_version": REPORT_SCHEMA_VERSION,
        "config": cfg.as_dict(),
        "n_train": int(len(ds.train_indices())),
        "n_test": int(len(ds.test_indices())),
        "pretrain_test_accuracy": result.history[-1].test_accuracy,
        "pretrain_knn_accuracy": result.history[-1].knn_accuracy,
        "finetuned_test_accuracy": None,
    }
    if cfg.t_finetune == 0:
        return result.params, report, report["pretrain_test_accuracy"]
    params = finetune(result.params, ds, cfg, selection=result.selection)
    report["finetuned_test_accuracy"] = test_accuracy(params, ds)
    return params, report, report["finetuned_test_accuracy"]


def _cmd_train(args) -> int:
    cfg = _resolve_config(args)
    ds = _load_dataset(args, cfg)
    out_dir = Path(args.out_dir) if args.out_dir else None
    # every output directory exists before training, so no write after it fails
    directories = [out_dir] if out_dir else []
    directories += [Path(dump).parent for dump in (args.dump_selection, args.dump_pseudo) if dump]
    for directory in directories:
        directory.mkdir(parents=True, exist_ok=True)
    clock = (lambda: 0.0) if args.fixed_clock else time.perf_counter
    result = pretrain(ds, cfg, time_source=clock)

    # what pretraining produced is written before fine-tuning, which may fail
    if out_dir:
        write_metrics_csv(result.history, out_dir / "metrics.csv")
        cfg.to_json(out_dir / "config.json")
    train_idx = ds.train_indices()
    if args.dump_selection:
        _dump_selection(result.selection, train_idx, args.dump_selection)
    if args.dump_pseudo:
        pseudo = result.selection.pseudo
        n_classes = pseudo.q_hat.shape[1]
        header = "index,y_hat," + ",".join(f"q_{c}" for c in range(n_classes))
        lines = [header]
        for i in range(len(pseudo.y_hat)):
            qs = ",".join(f"{v:.6f}" for v in pseudo.q_hat[i])
            lines.append(f"{int(train_idx[i])},{int(pseudo.y_hat[i])},{qs}")
        Path(args.dump_pseudo).write_text("\n".join(lines) + "\n")

    final_params, report, final_acc = _end_run(result, ds, cfg)
    if out_dir:
        save_checkpoint(final_params, out_dir / "checkpoint.json")
        with open(out_dir / "report.json", "w") as fh:
            json.dump(report, fh, indent=2)
            fh.write("\n")
    print(f"test_acc={final_acc:.4f} knn_acc={report['pretrain_knn_accuracy']:.4f} "
          f"n_T={result.selection.confident.size}")
    return 0


def _cmd_eval(args) -> int:
    cfg = _resolve_config(args)
    try:
        params = load_checkpoint(args.checkpoint)
    except (OSError, ValueError) as exc:
        raise CliError(f"bad checkpoint: {exc}") from exc
    ds = _load_dataset(args, cfg)
    knn_accuracy, accuracy = model_metrics(params, ds, cfg, train_embedding(params, ds))
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


def run_sweep(cfg: RunConfig, axis: str, values: list, seeds: list[int]) -> list[dict]:
    """One train run of `cfg` per (value, seed), with the key `axis` set to
    the value. A row's test_acc is the run's final test accuracy, the one
    train prints; failures are recorded, not raised."""
    results = []
    for value in values:
        for seed in seeds:
            row = {"value": value, "seed": seed, "error": None}
            try:
                run_cfg = dataclasses.replace(cfg, seed=seed, **{axis: value}).validate()
                ds = dataset_from_config(run_cfg)
                result = pretrain(ds, run_cfg)
                row["test_acc"] = _end_run(result, ds, run_cfg)[2]
                row["prec_T"] = result.history[-1].precision_examples
            except Exception as exc:  # noqa: BLE001 - survive and report
                row["error"] = f"{type(exc).__name__}: {exc}"
            results.append(row)
    return results


def _parse_list(text: str, parse, option: str) -> list:
    """The comma-separated entries of `text`, each converted by `parse`."""
    try:
        entries = [parse(entry.strip()) for entry in text.split(",") if entry.strip()]
    except ValueError as exc:
        raise CliError(f"bad {option}: {exc}") from exc
    if not entries:
        raise CliError(f"{option} needs at least one entry")
    return entries


def _cmd_sweep(args) -> int:
    _refuse_given(args, (args.axis, "seed"),
                  f"--axis {args.axis} and --seeds, which set those keys")
    cfg = _resolve_config(args)
    values = _parse_list(args.values, _key_parser(args.axis), "--values")
    seeds = _parse_list(args.seeds, int, "--seeds")
    results = run_sweep(cfg, args.axis, values, seeds)
    emit_summary(results, args.out)
    failures = [r for r in results if r["error"] is not None]
    for row in failures:
        print(f"run value={row['value']} seed={row['seed']} failed: {row['error']}",
              file=sys.stderr)
    print(f"wrote {args.out}: {len(results) - len(failures)}/{len(results)} runs ok")
    return 2 if failures else 0


def _cmd_dump_proj(args) -> int:
    if args.split == "test":  # nothing is selected on the test split
        _refuse_given(args, ("config", *SELECTION_KEYS), "--split test")
    cfg = _resolve_config(args)
    try:
        params = load_checkpoint(args.checkpoint)
    except (OSError, ValueError) as exc:
        raise CliError(f"bad checkpoint: {exc}") from exc
    ds = _load_dataset(args, cfg)
    if args.split == "train":
        idx = ds.train_indices()
        bank = train_embedding(params, ds)
        z = bank.z
        mask = compute_selection(bank, ds, cfg).is_confident
    else:
        idx = ds.test_indices()
        z = embed_rows(params, ds.instances, idx)[0]
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
