"""End-to-end checks of the command-line harness, driven in-process via cli_run."""
import dataclasses
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from oracles import dump_pairs

import selcontrast
import selcontrast.cli as cli
from selcontrast.cli import cli_run, emit_summary
from selcontrast.data import dump_features_csv, load_features_csv
from selcontrast.network import load_checkpoint
from selcontrast.neighbors import grid_rows
from selcontrast.selection import SelectionState
from selcontrast.training import METRICS_COLUMNS, RunConfig

# Small enough that a full train run takes well under a second: the dataset
# keys, which `gen` takes and `train --data` refuses, then the rest.
TINY_DATA = ["--n", "80", "--classes", "2", "--dim", "6", "--cluster-spread", "0.4",
             "--noise-rate", "0.2"]
TINY_RUN = [
    "--t-max", "2", "--t-warm", "1", "--t-finetune", "2",
    "--batch-size", "16", "--k", "10", "--k-eval", "10", "--hidden-dim", "16",
    "--proj-dim", "8", "--lr", "0.05", "--lr-schedule", "[]",
]
TINY = TINY_DATA + TINY_RUN
TINY_EPOCHS = 2  # keep in sync with --t-max above


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    """One generated dataset plus a completed train run, shared by the module."""
    root = tmp_path_factory.mktemp("cli")
    data = root / "ds.csv"
    assert cli_run(["gen", *TINY_DATA, "--data-seed", "3", "--out", str(data)]) == 0
    out_dir = root / "run"
    assert cli_run(["train", *TINY_RUN, "--data", str(data),
                    "--out-dir", str(out_dir), "--fixed-clock"]) == 0
    return {"data": data, "out_dir": out_dir,
            "checkpoint": out_dir / "checkpoint.json"}


def test_gen_writes_header_plus_n_rows(tmp_path, capsys):
    out = tmp_path / "ds.csv"
    assert cli_run(["gen", "--n", "60", "--classes", "3", "--dim", "5",
                    "--data-seed", "2", "--noise-rate", "0", "--out", str(out)]) == 0
    lines = out.read_text().strip().split("\n")
    assert len(lines) == 1 + 60
    ds = load_features_csv(out)
    assert (ds.n, ds.n_classes, ds.dim) == (60, 3, 5)
    assert np.array_equal(ds.noisy_labels, ds.true_labels)  # no noise requested
    assert "wrote" in capsys.readouterr().out


def test_gen_corrupts_only_the_train_split(tmp_path):
    out = tmp_path / "noisy.csv"
    assert cli_run(["gen", "--n", "100", "--classes", "4", "--dim", "6",
                    "--noise-rate", "0.4", "--out", str(out)]) == 0
    ds = load_features_csv(out)
    train, test = ds.train_indices(), ds.test_indices()
    assert np.any(ds.noisy_labels[train] != ds.true_labels[train])
    assert np.array_equal(ds.noisy_labels[test], ds.true_labels[test])


def test_module_entry_point_runs_under_runtime_warnings_as_errors(tmp_path):
    # `python -m selcontrast.cli` warns when importing the package already
    # imported the cli module; with -W error that warning is a crash
    src = str(Path(selcontrast.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = tmp_path / "ds.csv"
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "selcontrast.cli", "gen",
         "--n", "20", "--classes", "2", "--dim", "3", "--out", str(out)],
        env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    assert load_features_csv(out).n == 20


def test_train_metrics_has_one_row_per_epoch(trained):
    lines = (trained["out_dir"] / "metrics.csv").read_text().strip().split("\n")
    assert lines[0] == ",".join(METRICS_COLUMNS)
    assert len(lines) == 1 + TINY_EPOCHS


def test_train_report_fields(trained):
    report = json.loads((trained["out_dir"] / "report.json").read_text())
    assert report["schema_version"] == 1
    assert report["n_train"] + report["n_test"] == 80
    assert 0.0 <= report["finetuned_test_accuracy"] <= 100.0
    assert report["config"]["t_max"] == TINY_EPOCHS
    # the out-dir also captures the resolved config as its own file
    saved = json.loads((trained["out_dir"] / "config.json").read_text())
    assert saved == report["config"]


def test_train_checkpoint_feeds_eval(trained, tmp_path):
    params = load_checkpoint(trained["checkpoint"])
    assert np.all(np.isfinite(params.enc_w1))
    out = tmp_path / "eval.json"
    assert cli_run(["eval", "--checkpoint", str(trained["checkpoint"]),
                    "--data", str(trained["data"]), "--k-eval", "10",
                    "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert 0.0 <= report["test_accuracy"] <= 100.0
    assert 0.0 <= report["knn_accuracy"] <= 100.0
    assert report["n_train"] + report["n_test"] == 80


def test_eval_prints_json_to_stdout_without_out_flag(trained, capsys):
    assert cli_run(["eval", "--checkpoint", str(trained["checkpoint"]),
                    "--data", str(trained["data"]), "--k-eval", "10"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["schema_version"] == 1


def test_train_without_finetune_leaves_report_field_null(tmp_path, trained):
    assert cli_run(["train", *TINY_RUN, "--data", str(trained["data"]), "--t-finetune", "0",
                    "--out-dir", str(tmp_path), "--fixed-clock"]) == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["finetuned_test_accuracy"] is None
    assert 0.0 <= report["pretrain_test_accuracy"] <= 100.0
    assert report["config"]["t_finetune"] == 0  # the report names the run that ran


def test_fixed_clock_runs_are_byte_identical(tmp_path, trained):
    blobs = []
    for name in ("a", "b"):
        assert cli_run(["train", *TINY_RUN, "--data", str(trained["data"]),
                        "--out-dir", str(tmp_path / name), "--t-finetune", "0",
                        "--fixed-clock"]) == 0
        blobs.append((tmp_path / name / "metrics.csv").read_bytes())
    assert blobs[0] == blobs[1]


DUMP_KEYS = {"epoch_tag", "per_class_quota", "train_row_indices", "noisy_labels",
             "confident_by_class", "sim_threshold", "z_grid"}


def test_train_dumps_selection_and_pseudo_labels(tmp_path, trained):
    sel, pseudo = tmp_path / "sel.json", tmp_path / "pseudo.csv"
    assert cli_run(["train", *TINY_RUN, "--data", str(trained["data"]), "--t-finetune", "0",
                    "--dump-selection", str(sel), "--dump-pseudo", str(pseudo),
                    "--fixed-clock"]) == 0
    payload = json.loads(sel.read_text())
    assert set(payload) == DUMP_KEYS
    n_train = len(payload["train_row_indices"])
    assert len(payload["noisy_labels"]) == len(payload["z_grid"]) == n_train
    assert all(len(row) == 8 for row in payload["z_grid"])  # --proj-dim 8
    lines = pseudo.read_text().strip().split("\n")
    assert lines[0] == "index,y_hat,q_0,q_1"
    assert len(lines) == 1 + n_train
    first = lines[1].split(",")
    assert abs(float(first[2]) + float(first[3]) - 1.0) < 1e-6


def _leaves(value) -> int:
    """The number of scalars in a parsed JSON value."""
    return sum(map(_leaves, value)) if isinstance(value, list) else 1


@pytest.mark.parametrize("seed", [1, 2, 5, 1 << 16])
@pytest.mark.parametrize("threshold", [0.3, float("inf")])
def test_selection_dump_is_json_dump_of_the_sorted_pairs(tmp_path, seed, threshold):
    # the file is one strict json.dump of the selection's state, from which
    # the plain-loop oracle rebuilds exactly the state's pairs, in sorted order
    rng = np.random.default_rng(seed)
    noisy = rng.integers(0, 3, size=30)
    confident = np.flatnonzero(rng.random(30) < 0.5)
    z = rng.normal(size=(30, 3))
    state = SelectionState(noisy_labels=noisy,
                           confident_by_class=[confident[noisy[confident] == c]
                                               for c in range(3)],
                           confident=confident, sim_threshold=threshold,
                           z=grid_rows(z / np.linalg.norm(z, axis=1, keepdims=True)),
                           per_class_quota=4, epoch_tag=7)
    train_idx = np.arange(100, 130)
    cli._dump_selection(state, train_idx, tmp_path / "sel.json")
    payload = {"epoch_tag": 7, "per_class_quota": 4,
               "train_row_indices": train_idx.tolist(),
               "noisy_labels": noisy.tolist(),
               "confident_by_class": [c.tolist() for c in state.confident_by_class],
               "sim_threshold": None if threshold == float("inf") else threshold,
               "z_grid": np.ldexp(state.z, 24).astype(np.int64).tolist()}
    assert (tmp_path / "sel.json").read_text() == json.dumps(payload, allow_nan=False) + "\n"
    g_prime, g_second = dump_pairs(payload)
    assert sorted(g_prime) == sorted(state.pairs_confident) and len(g_prime) > 5
    assert sorted(g_second) == sorted(state.pairs_similar)
    assert (len(g_second) > 5) == (threshold < 1)
    # O(n d): no entry holds one scalar per pair, whatever the pair count
    assert {key: _leaves(value) for key, value in payload.items()} == {
        "epoch_tag": 1, "per_class_quota": 1, "sim_threshold": 1, "train_row_indices": 30,
        "noisy_labels": 30, "confident_by_class": len(confident), "z_grid": 30 * 3}


def _record_calls(monkeypatch, name):
    """Record (keyword arguments, result) of each call to selcontrast.cli.<name>."""
    calls = []
    original = getattr(cli, name)

    def recording(*args, **kwargs):
        result = original(*args, **kwargs)
        calls.append((kwargs, result))
        return result
    monkeypatch.setattr(cli, name, recording)
    return calls


def _assert_dumps_describe(state, sel, pseudo):
    payload = json.loads(sel.read_text())
    assert dump_pairs(payload) == (state.pairs_confident, state.pairs_similar)
    assert payload["confident_by_class"] == [c.tolist() for c in state.confident_by_class]
    assert payload["sim_threshold"] == state.sim_threshold
    assert payload["epoch_tag"] == state.epoch_tag
    rows = [line.split(",") for line in pseudo.read_text().strip().split("\n")[1:]]
    assert [int(r[1]) for r in rows] == state.pseudo.y_hat.tolist()
    np.testing.assert_allclose([[float(v) for v in r[2:]] for r in rows],
                               state.pseudo.q_hat, atol=5e-7)


def _train_with_dumps(tmp_path, trained, *extra):
    sel, pseudo = tmp_path / "sel.json", tmp_path / "pseudo.csv"
    assert cli_run(["train", *TINY_RUN, *extra, "--data", str(trained["data"]),
                    "--dump-selection", str(sel), "--dump-pseudo", str(pseudo),
                    "--fixed-clock"]) == 0
    return sel, pseudo


def test_dumped_selection_is_the_one_finetuning_used(tmp_path, trained, monkeypatch):
    pretrained = _record_calls(monkeypatch, "pretrain")
    finetuned = _record_calls(monkeypatch, "finetune")
    sel, pseudo = _train_with_dumps(tmp_path, trained)
    ((_, result),) = pretrained
    assert finetuned[0][0]["selection"] is result.selection
    assert result.selection.epoch_tag == TINY_EPOCHS
    _assert_dumps_describe(result.selection, sel, pseudo)


def test_dump_without_selective_epoch_selects_once_from_warmed_up_model(
        tmp_path, trained, monkeypatch):
    # pretrain makes the selection from the embedding its one record
    # measured, so the train split is embedded once in the whole run
    from selcontrast import training
    pretrained = _record_calls(monkeypatch, "pretrain")
    finetuned = _record_calls(monkeypatch, "finetune")
    embedded = []
    for module in (cli, training):
        def counting(params, ds, real=module.train_embedding):
            embedded.append(module.__name__)
            return real(params, ds)
        monkeypatch.setattr(module, "train_embedding", counting)
    sel, pseudo = _train_with_dumps(tmp_path, trained, "--t-max", "1")
    ((_, result),) = pretrained
    assert result.selection.epoch_tag == 0
    assert finetuned[0][0]["selection"] is result.selection
    assert len(embedded) == 1
    _assert_dumps_describe(result.selection, sel, pseudo)


def test_config_file_with_flag_override(tmp_path, trained):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"t_max": 2, "t_warm": 1, "t_finetune": 0,
                                    "batch_size": 16, "k": 10, "k_eval": 10,
                                    "lr": 0.05, "lr_schedule": [],
                                    "lambda_s": 0.01, "hidden_dim": 16,
                                    "proj_dim": 8}))
    assert cli_run(["train", "--config", str(cfg_path), "--data", str(trained["data"]),
                    "--lambda-s", "0.05", "--out-dir", str(tmp_path / "run"),
                    "--fixed-clock"]) == 0
    cfg = json.loads((tmp_path / "run" / "report.json").read_text())["config"]
    assert cfg["lambda_s"] == 0.05  # flag beats file
    assert cfg["t_max"] == 2        # file beats built-in default


def test_sweep_summary_table(tmp_path):
    out = tmp_path / "sweep.csv"
    assert cli_run(["sweep", *TINY, "--axis", "lambda_s", "--values", "0.0,0.01",
                    "--seeds", "2,2", "--out", str(out), "--t-finetune", "0"]) == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "value,mean_test_acc,std_test_acc,mean_prec_T"
    assert [line.split(",")[0] for line in lines[1:]] == ["0.0", "0.01"]
    for line in lines[1:]:
        cells = line.split(",")
        assert 0.0 <= float(cells[1]) <= 100.0
        assert float(cells[2]) == 0.0  # identical replicate seeds -> zero spread
        assert 0.0 <= float(cells[3]) <= 100.0


def test_sweep_summary_skips_empty_precision(tmp_path):
    out = tmp_path / "sweep.csv"
    emit_summary([{"value": 1, "seed": 1, "error": None, "test_acc": 50.0, "prec_T": 80.0},
                  {"value": 1, "seed": 2, "error": None, "test_acc": 70.0, "prec_T": None},
                  {"value": 2, "seed": 1, "error": None, "test_acc": 40.0, "prec_T": None}],
                 out)
    assert out.read_text().split("\n")[1:3] == ["1,60.0000,10.0000,80.0000",
                                                "2,40.0000,0.0000,"]


def test_sweep_failed_runs_leave_empty_cells_and_exit_2(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    code = cli_run(["sweep", *TINY, "--axis", "alpha", "--values", "0.5,2.0",
                    "--seeds", "2", "--out", str(out), "--t-finetune", "0"])
    assert code == 2
    lines = out.read_text().strip().split("\n")
    assert len(lines) == 3
    assert lines[2] == "2.0,,,"
    good = lines[1].split(",")
    assert good[0] == "0.5" and good[1] != ""
    assert "failed" in capsys.readouterr().err


def test_sweep_rejects_unknown_axis(tmp_path):
    # seed is set by --seeds, and an lr_schedule value holds commas
    for axis in ("no_such_key", "seed", "lr_schedule"):
        assert cli_run(["sweep", "--axis", axis, "--values", "1",
                        "--out", str(tmp_path / "s.csv")]) == 1
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("key", [f.name for f in dataclasses.fields(RunConfig)
                                 if f.name not in ("seed", "lr_schedule")])
def test_sweep_axis_is_any_config_key_but_seed_and_lr_schedule(key):
    argv = ["sweep", "--axis", key, "--values", "1", "--out", "s.csv"]
    assert cli.build_parser().parse_args(argv).axis == key


def _without(flags: list[str], flag: str) -> list[str]:
    """`flags` minus `flag` and the value after it."""
    at = flags.index(flag)
    return flags[:at] + flags[at + 2:]


def test_sweep_axis_k_runs_integer_values(tmp_path, monkeypatch):
    seen = []

    def spying(ds, cfg, real=cli.pretrain):
        seen.append(cfg.k)
        return real(ds, cfg)
    monkeypatch.setattr(cli, "pretrain", spying)
    out = tmp_path / "sweep.csv"
    assert cli_run(["sweep", *_without(TINY, "--k"), "--axis", "k", "--values", "5,10",
                    "--seeds", "1", "--out", str(out)]) == 0
    assert seen == [5, 10] and all(type(k) is int for k in seen)
    assert [line.split(",")[0] for line in out.read_text().split("\n")[1:3]] == ["5", "10"]


def test_sweep_axis_count_labels_runs_the_label_correction_ablation(tmp_path):
    out = tmp_path / "sweep.csv"
    assert cli_run(["sweep", *TINY, "--axis", "count_labels", "--values", "pseudo,noisy",
                    "--seeds", "1", "--out", str(out)]) == 0
    rows = [line.split(",") for line in out.read_text().strip().split("\n")[1:]]
    assert [row[0] for row in rows] == ["pseudo", "noisy"]
    assert all(row[1] != "" for row in rows)


@pytest.mark.parametrize("flag", ["--alpha", "--seed"])
def test_sweep_refuses_the_flags_of_the_keys_it_sets(tmp_path, capsys, flag):
    assert cli_run(["sweep", *TINY, "--axis", "alpha", "--values", "0.5", flag, "3",
                    "--out", str(tmp_path / "sweep.csv")]) == 1
    assert f"{flag} cannot be combined with --axis alpha" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_sweep_row_test_acc_is_trains_final_accuracy(tmp_path, monkeypatch):
    rows = []
    monkeypatch.setattr(cli, "emit_summary",
                        lambda results, path: rows.extend(results))
    assert cli_run(["sweep", *TINY, "--axis", "alpha", "--values", "0.3", "--seeds", "2",
                    "--out", str(tmp_path / "sweep.csv")]) == 0
    assert cli_run(["train", *TINY, "--alpha", "0.3", "--seed", "2",
                    "--out-dir", str(tmp_path / "run")]) == 0
    report = json.loads((tmp_path / "run" / "report.json").read_text())
    assert report["finetuned_test_accuracy"] is not None
    assert [row["test_acc"] for row in rows] == [report["finetuned_test_accuracy"]]


def test_dump_proj_train_split(tmp_path, trained, monkeypatch):
    from selcontrast import training
    rows = []
    for module in (cli, training):  # forward is looked up in both modules
        def counting(params, x, project=True, backprop=True, real=module.forward):
            rows.append(len(x))
            return real(params, x, project=project, backprop=backprop)
        monkeypatch.setattr(module, "forward", counting)
    out = tmp_path / "proj.csv"
    assert cli_run(["dump-proj", "--k", "10", "--checkpoint", str(trained["checkpoint"]),
                    "--data", str(trained["data"]), "--out", str(out)]) == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "x,y,true_label,noisy_label,in_T"
    ds = load_features_csv(trained["data"])
    assert len(lines) == 1 + len(ds.train_indices())
    assert any(line.endswith(",1") for line in lines[1:])  # confident points marked
    assert rows == [len(ds.train_indices())]  # one embedding serves the plot and the selection


def test_dump_proj_test_split_marks_nothing_confident(tmp_path, trained):
    out = tmp_path / "proj.csv"
    assert cli_run(["dump-proj", "--checkpoint", str(trained["checkpoint"]),
                    "--data", str(trained["data"]), "--out", str(out),
                    "--split", "test"]) == 0
    lines = out.read_text().strip().split("\n")
    ds = load_features_csv(trained["data"])
    assert len(lines) == 1 + len(ds.test_indices())
    assert all(line.endswith(",0") for line in lines[1:])


@pytest.mark.parametrize("split, flags, refused", [
    ("test", ["--k", "3", "--alpha", "0.9"], "--k, --alpha"),
    ("test", ["--config", "c.json"], "--config"),
    ("train", ["--k", "3", "--alpha", "0.9"], None),
])
def test_dump_proj_test_split_refuses_selection_flags(tmp_path, trained, capsys, split, flags,
                                                      refused):
    # the test split selects nothing, so no selection key may be given for it
    out = tmp_path / "proj.csv"
    code = cli_run(["dump-proj", *flags, "--checkpoint", str(trained["checkpoint"]),
                    "--data", str(trained["data"]), "--out", str(out), "--split", split])
    if refused is None:
        assert code == 0 and out.exists()
    else:
        assert code == 1 and not out.exists()
        assert f"{refused} cannot be combined with --split test" in capsys.readouterr().err


def test_unknown_flag_exits_1(capsys):
    assert cli_run(["train", "--bogus-flag", "1"]) == 1
    assert "usage" in capsys.readouterr().err


def test_missing_command_exits_1(capsys):
    assert cli_run([]) == 1
    capsys.readouterr()


def test_invalid_config_value_exits_1(capsys):
    assert cli_run(["train", *TINY, "--alpha", "1.5", "--fixed-clock"]) == 1
    assert "alpha" in capsys.readouterr().err


def test_zero_epochs_exits_1(capsys):
    # no epoch means no record to report, so the config is refused up front
    assert cli_run(["train", *TINY, "--t-max", "0", "--t-warm", "0", "--fixed-clock"]) == 1
    err = capsys.readouterr().err
    assert "bad configuration" in err and "t_max" in err


def test_unknown_config_key_exits_1(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"not_a_key": 1}))
    assert cli_run(["train", "--config", str(bad)]) == 1
    assert "not_a_key" in capsys.readouterr().err


def test_missing_data_file_exits_1(tmp_path, capsys):
    assert cli_run(["train", *TINY_RUN, "--data", str(tmp_path / "nope.csv")]) == 1
    assert "bad dataset" in capsys.readouterr().err


def test_corrupt_checkpoint_exits_1(tmp_path, trained, capsys):
    bad = tmp_path / "ckpt.json"
    bad.write_text("{}")
    assert cli_run(["eval", "--checkpoint", str(bad),
                    "--data", str(trained["data"])]) == 1
    assert "checkpoint" in capsys.readouterr().err


def test_checkpoint_with_wrong_projection_shape_exits_1(tmp_path, trained, capsys):
    blob = json.loads(trained["checkpoint"].read_text())
    blob["tensors"]["proj_w1"] = np.zeros((32, 10)).tolist()
    bad = tmp_path / "ckpt.json"
    bad.write_text(json.dumps(blob))
    assert cli_run(["eval", "--checkpoint", str(bad), "--data", str(trained["data"]),
                    "--k-eval", "10"]) == 1
    err = capsys.readouterr().err
    assert "bad checkpoint" in err and "proj_w1" in err


def _refuse_constant(name):
    raise ValueError(f"{name} is not strict JSON")


def test_train_with_nothing_selected_exits_2_naming_the_quota(tmp_path, capsys):
    # k >= n_train - 1 on balanced clean data: every per-class quota is 0
    # (tests/test_training.py pins the records), so fine-tuning has nothing to fit
    out_dir, sel = tmp_path / "run", tmp_path / "sel.json"
    assert cli_run(["train", "--n", "100", "--noise-rate", "0", "--k", "500",
                    "--t-max", "3", "--t-finetune", "1", "--fixed-clock",
                    "--out-dir", str(out_dir), "--dump-selection", str(sel)]) == 2
    err = capsys.readouterr().err
    assert "ValueError: no confident examples selected: per_class_quota is 0\n" in err
    # what pretraining produced is on disk; nothing after fine-tuning is
    rows = (out_dir / "metrics.csv").read_text().strip().split("\n")
    n_t = rows[0].split(",").index("n_T")
    assert [row.split(",")[n_t] for row in rows[1:]] == ["0", "0", "0"]
    assert json.loads((out_dir / "config.json").read_text())["k"] == 500
    assert sorted(path.name for path in out_dir.iterdir()) == ["config.json", "metrics.csv"]
    # the selection dump is strict JSON: no cut is null, not Infinity
    payload = json.loads(sel.read_text(), parse_constant=_refuse_constant)
    assert payload["sim_threshold"] is None
    assert payload["per_class_quota"] == 0
    assert payload["confident_by_class"] == [[], [], [], []]  # 4 classes by default


def test_train_creates_the_dump_directories(tmp_path, trained):
    sel, pseudo = tmp_path / "a" / "b" / "sel.json", tmp_path / "c" / "pseudo.csv"
    assert cli_run(["train", *TINY_RUN, "--data", str(trained["data"]), "--t-finetune", "0",
                    "--dump-selection", str(sel), "--dump-pseudo", str(pseudo),
                    "--fixed-clock"]) == 0
    assert set(json.loads(sel.read_text())) == DUMP_KEYS
    assert pseudo.read_text().startswith("index,y_hat,")


@pytest.mark.parametrize("command", ["gen", "train", "sweep"])
@pytest.mark.parametrize("flags, message", [
    (["--cluster-spread", "0"], "cluster_spread must be positive"),
    (["--classes", "1"], "need at least 2 classes"),
    (["--n", "3"], "need at least one example per class"),
    (["--noise-rate", "1.5"], "noise_rate must lie in [0, 1]"),
    (["--dim", "1"], "dim must be >= 2"),
    # 2 examples per class give no test row under the 80/20 split
    (["--n", "8", "--classes", "4"], "n=8 leaves the test split of 4 classes empty"),
])
def test_bad_dataset_key_exits_1(tmp_path, capsys, command, flags, message):
    # refused before any run starts, so sweep records no failed run
    out = {"gen": ["--out", str(tmp_path / "ds.csv")],
           "train": ["--t-max", "1"],
           "sweep": ["--t-max", "1", "--axis", "alpha", "--values", "0.5", "--seeds", "1",
                     "--out", str(tmp_path / "sweep.csv")]}[command]
    assert cli_run([command, *flags, *out]) == 1
    assert f"bad configuration: {message}" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("flags, message", [
    (["--drop-prob", "1.5"], "drop_prob must lie in [0, 1]"),
    (["--jitter-sigma", "-1"], "jitter_sigma must be >= 0"),
    (["--scale-low", "0"], "scale_range must satisfy 0 < low <= high"),
    (["--scale-low", "2"], "scale_range must satisfy 0 < low <= high"),
    (["--hidden-dim", "0"], "hidden_dim must be >= 1"),
    (["--proj-dim", "0"], "proj_dim must be >= 1"),
])
@pytest.mark.parametrize("command", ["train", "sweep"])
def test_bad_augmentation_or_width_key_exits_1(tmp_path, capsys, command, flags, message):
    out = (["--out-dir", str(tmp_path / "run")] if command == "train" else
           ["--axis", "alpha", "--values", "0.5", "--seeds", "1",
            "--out", str(tmp_path / "sweep.csv")])
    assert cli_run([command, *flags, "--t-max", "1", *out]) == 1
    assert f"bad configuration: {message}" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("keys, message", [
    ({"t_max": 3.0}, "t_max must be int, got 3.0"),
    ({"batch_size": 64.0}, "batch_size must be int, got 64.0"),
    ({"k": True}, "k must be int, got True"),
    ({"lr": False}, "lr must be float, got False"),
    ({"projection": 1}, "projection must be str, got 1"),
    ({"lr_schedule": [[1.5, 0.1]]}, "bad lr_schedule entry [1.5, 0.1]"),
])
@pytest.mark.parametrize("command", ["train", "sweep"])
def test_config_file_value_of_the_wrong_type_exits_1(tmp_path, capsys, command, keys,
                                                     message):
    # a JSON number or bool is refused as the flag's parser refuses it, before
    # any run starts, where it would fail with a raw TypeError
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(keys))
    out = (["--out-dir", str(tmp_path / "run")] if command == "train" else
           ["--axis", "alpha", "--values", "0.5", "--seeds", "1",
            "--out", str(tmp_path / "sweep.csv")])
    assert cli_run([command, "--config", str(cfg_path), *out]) == 1
    assert f"bad configuration: {message}" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == [cfg_path]


def test_config_file_and_flags_start_from_the_same_defaults(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"seed": 1}))
    short = [*TINY_DATA, "--t-max", "2", "--t-finetune", "1", "--fixed-clock"]
    assert cli_run(["train", "--config", str(cfg_path), *short,
                    "--out-dir", str(tmp_path / "a")]) == 0
    assert cli_run(["train", "--seed", "1", *short, "--out-dir", str(tmp_path / "b")]) == 0
    for name in ("config.json", "metrics.csv", "report.json"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_train_data_refuses_dataset_flags(tmp_path, trained, capsys):
    out_dir = tmp_path / "run"
    assert cli_run(["train", *TINY_RUN, "--data", str(trained["data"]), "--n", "5000",
                    "--classes", "7", "--noise-rate", "0.9",
                    "--out-dir", str(out_dir)]) == 1
    err = capsys.readouterr().err
    assert "--n, --classes, --noise-rate cannot be combined with --data" in err
    assert not out_dir.exists()


@pytest.mark.parametrize("empty", ["train", "test"])
@pytest.mark.parametrize("command", ["train", "eval"])
def test_data_with_an_empty_split_exits_1(tmp_path, trained, capsys, command, empty):
    # refused before training: with no train row nothing votes, with no test
    # row the probe divides by zero
    ds = load_features_csv(trained["data"])
    data = tmp_path / "ds.csv"
    split = np.full(ds.n, "test" if empty == "train" else "train")
    # test labels are clean
    dump_features_csv(dataclasses.replace(ds, noisy_labels=ds.true_labels, split=split), data)
    args = (["train", *TINY_RUN, "--out-dir", str(tmp_path / "run")] if command == "train"
            else ["eval", "--checkpoint", str(trained["checkpoint"]), "--k-eval", "10",
                  "--out", str(tmp_path / "report.json")])
    assert cli_run([*args, "--data", str(data)]) == 1
    assert f"bad dataset: {data}: the {empty} split is empty" in capsys.readouterr().err
    assert sorted(path.name for path in tmp_path.iterdir()) == ["ds.csv"]


@pytest.mark.parametrize("command", ["train", "eval", "dump-proj"])
def test_data_with_a_non_finite_feature_exits_1_naming_the_line(tmp_path, trained, capsys,
                                                                command):
    # refused before training, which would otherwise fail on a non-finite update
    rows = trained["data"].read_text().split("\n")
    cells = rows[3].split(",")
    cells[1] = "nan"
    rows[3] = ",".join(cells)
    data = tmp_path / "ds.csv"
    data.write_text("\n".join(rows))
    extra = {"train": ["--out-dir", str(tmp_path / "run")],
             "eval": ["--checkpoint", str(trained["checkpoint"])],
             "dump-proj": ["--checkpoint", str(trained["checkpoint"]),
                           "--out", str(tmp_path / "proj.csv")]}[command]
    assert cli_run([command, "--data", str(data), *extra]) == 1
    assert f"bad dataset: {data}: line 4: feature_1 nan is not finite" in (
        capsys.readouterr().err)
    assert sorted(path.name for path in tmp_path.iterdir()) == ["ds.csv"]


def test_train_data_accepts_dataset_keys_from_a_config_file(tmp_path, trained):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"n": 5000, "classes": 7}))
    assert cli_run(["train", "--config", str(cfg_path), *TINY_RUN,
                    "--data", str(trained["data"]), "--out-dir", str(tmp_path / "run"),
                    "--fixed-clock"]) == 0
    report = json.loads((tmp_path / "run" / "report.json").read_text())
    assert report["n_train"] + report["n_test"] == 80  # the CSV's rows, not n


def test_gen_then_train_on_its_csv_matches_train_alone(tmp_path):
    # gen takes train's dataset keys and defaults, so its CSV is the dataset
    # train generates for itself, to the bit
    data = tmp_path / "ds.csv"
    assert cli_run(["gen", "--out", str(data)]) == 0
    short = ["--t-max", "2", "--t-finetune", "1", "--fixed-clock"]
    assert cli_run(["train", *short, "--data", str(data), "--out-dir",
                    str(tmp_path / "a")]) == 0
    assert cli_run(["train", *short, "--out-dir", str(tmp_path / "b")]) == 0
    for name in ("metrics.csv", "config.json", "report.json", "checkpoint.json"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_each_subcommand_takes_only_the_options_it_reads(capsys):
    subparsers = next(action for action in cli.build_parser()._actions
                      if action.dest == "command")
    counts = {name: sum(1 for action in parser._actions if action.dest != "help")
              for name, parser in subparsers.choices.items()}
    assert counts == {"gen": 9, "train": 43, "eval": 6, "sweep": 42, "dump-proj": 9}
    assert cli_run(["eval", "--checkpoint", "c.json", "--data", "d.csv",
                    "--hidden-dim", "3"]) == 1
    assert "--hidden-dim" in capsys.readouterr().err


def test_readme_config_table_names_exactly_the_config_keys():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("## Configuration keys\n", 1)[1].split("\n## ", 1)[0]
    rows = [line for line in section.splitlines() if line.startswith("|")]
    documented = re.findall(r"`([a-z0-9_]+)`", "\n".join(rows))
    assert sorted(documented) == sorted(f.name for f in dataclasses.fields(RunConfig))
    # the section's example config file loads
    example = section.split("```json\n", 1)[1].split("```", 1)[0]
    RunConfig.from_dict(json.loads(example))


def test_mismatched_checkpoint_is_runtime_error(tmp_path, trained, capsys):
    # model trained on 6-dim instances, evaluated against 5-dim data
    other = tmp_path / "other.csv"
    assert cli_run(["gen", "--n", "40", "--classes", "2", "--dim", "5",
                    "--out", str(other)]) == 0
    assert cli_run(["eval", "--checkpoint", str(trained["checkpoint"]),
                    "--data", str(other)]) == 2
    capsys.readouterr()
