"""End-to-end checks of the command-line harness, driven in-process via cli_run."""
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import selcontrast
import selcontrast.cli as cli
from selcontrast.cli import cli_run, emit_summary
from selcontrast.data import load_features_csv
from selcontrast.network import load_checkpoint
from selcontrast.training import METRICS_COLUMNS

# Small enough that a full train run takes well under a second.
TINY = [
    "--n", "80", "--classes", "2", "--dim", "6", "--cluster-spread", "0.4",
    "--noise-rate", "0.2", "--t-max", "2", "--t-warm", "1", "--t-finetune", "2",
    "--batch-size", "16", "--k", "10", "--k-eval", "10", "--hidden-dim", "16",
    "--proj-dim", "8", "--lr", "0.05", "--lr-schedule", "[]",
]
TINY_EPOCHS = 2  # keep in sync with --t-max above


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    """One generated dataset plus a completed train run, shared by the module."""
    root = tmp_path_factory.mktemp("cli")
    data = root / "ds.csv"
    assert cli_run(["gen", "--n", "80", "--classes", "2", "--dim", "6",
                    "--spread", "0.4", "--seed", "3", "--noise-rate", "0.2",
                    "--out", str(data)]) == 0
    out_dir = root / "run"
    assert cli_run(["train", *TINY, "--data", str(data),
                    "--out-dir", str(out_dir), "--fixed-clock"]) == 0
    return {"data": data, "out_dir": out_dir,
            "checkpoint": out_dir / "checkpoint.json"}


def test_gen_writes_header_plus_n_rows(tmp_path, capsys):
    out = tmp_path / "ds.csv"
    assert cli_run(["gen", "--n", "60", "--classes", "3", "--dim", "5",
                    "--seed", "2", "--out", str(out)]) == 0
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
    report_path = tmp_path / "report.json"
    assert cli_run(["train", *TINY, "--data", str(trained["data"]), "--no-finetune",
                    "--report", str(report_path), "--fixed-clock"]) == 0
    report = json.loads(report_path.read_text())
    assert report["finetuned_test_accuracy"] is None
    assert 0.0 <= report["pretrain_test_accuracy"] <= 100.0


def test_fixed_clock_runs_are_byte_identical(tmp_path, trained):
    blobs = []
    for name in ("a", "b"):
        metrics = tmp_path / f"{name}.csv"
        assert cli_run(["train", *TINY, "--data", str(trained["data"]),
                        "--metrics", str(metrics), "--no-finetune",
                        "--fixed-clock"]) == 0
        blobs.append(metrics.read_bytes())
    assert blobs[0] == blobs[1]


def test_train_dumps_selection_and_pseudo_labels(tmp_path, trained):
    sel, pseudo = tmp_path / "sel.json", tmp_path / "pseudo.csv"
    assert cli_run(["train", *TINY, "--data", str(trained["data"]), "--no-finetune",
                    "--dump-selection", str(sel), "--dump-pseudo", str(pseudo),
                    "--fixed-clock"]) == 0
    payload = json.loads(sel.read_text())
    assert set(payload) >= {"per_class_quota", "sim_threshold", "train_row_indices",
                            "confident_by_class", "pairs_confident", "pairs_similar"}
    for i, j in payload["pairs_confident"]:
        assert i < j
    lines = pseudo.read_text().strip().split("\n")
    assert lines[0] == "index,y_hat,q_0,q_1"
    assert len(lines) == 1 + len(payload["train_row_indices"])
    first = lines[1].split(",")
    assert abs(float(first[2]) + float(first[3]) - 1.0) < 1e-6


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
    assert payload["pairs_confident"] == [list(p) for p in sorted(state.pairs_confident)]
    assert payload["pairs_similar"] == [list(p) for p in sorted(state.pairs_similar)]
    assert payload["confident_by_class"] == [c.tolist() for c in state.confident_by_class]
    assert payload["sim_threshold"] == state.sim_threshold
    assert payload["epoch_tag"] == state.epoch_tag
    rows = [line.split(",") for line in pseudo.read_text().strip().split("\n")[1:]]
    assert [int(r[1]) for r in rows] == state.pseudo.y_hat.tolist()
    np.testing.assert_allclose([[float(v) for v in r[2:]] for r in rows],
                               state.pseudo.q_hat, atol=5e-7)


def _train_with_dumps(tmp_path, trained, *extra):
    sel, pseudo = tmp_path / "sel.json", tmp_path / "pseudo.csv"
    assert cli_run(["train", *TINY, *extra, "--data", str(trained["data"]),
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
    pretrained = _record_calls(monkeypatch, "pretrain")
    finetuned = _record_calls(monkeypatch, "finetune")
    made = _record_calls(monkeypatch, "compute_selection")
    sel, pseudo = _train_with_dumps(tmp_path, trained, "--t-max", "1")
    assert pretrained[0][1].selection is None
    ((_, state),) = made
    assert finetuned[0][0]["selection"] is state
    _assert_dumps_describe(state, sel, pseudo)


def test_config_file_with_flag_override(tmp_path, trained):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"t_max": 2, "t_warm": 1, "t_finetune": 0,
                                    "batch_size": 16, "k": 10, "k_eval": 10,
                                    "lr": 0.05, "lr_schedule": [],
                                    "lambda_s": 0.01, "hidden_dim": 16,
                                    "proj_dim": 8}))
    report_path = tmp_path / "report.json"
    assert cli_run(["train", "--config", str(cfg_path), "--data", str(trained["data"]),
                    "--lambda-s", "0.05", "--report", str(report_path),
                    "--no-finetune", "--fixed-clock"]) == 0
    cfg = json.loads(report_path.read_text())["config"]
    assert cfg["lambda_s"] == 0.05  # flag beats file
    assert cfg["t_max"] == 2        # file beats built-in default


def test_sweep_summary_table(tmp_path):
    out = tmp_path / "sweep.csv"
    assert cli_run(["sweep", *TINY, "--axis", "lambda_s", "--values", "0.0,0.01",
                    "--seeds", "2,2", "--out", str(out), "--no-finetune"]) == 0
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
                    "--seeds", "2", "--out", str(out), "--no-finetune"])
    assert code == 2
    lines = out.read_text().strip().split("\n")
    assert len(lines) == 3
    assert lines[2] == "2.0,,,"
    good = lines[1].split(",")
    assert good[0] == "0.5" and good[1] != ""
    assert "failed" in capsys.readouterr().err


def test_sweep_rejects_unknown_axis(tmp_path):
    assert cli_run(["sweep", "--axis", "tau", "--values", "0.1",
                    "--out", str(tmp_path / "s.csv")]) == 1


def test_dump_proj_train_split(tmp_path, trained, monkeypatch):
    from selcontrast import training
    rows = []
    for module in (cli, training):  # forward is looked up in both modules
        def counting(params, x, project=True, real=module.forward):
            rows.append(len(x))
            return real(params, x, project=project)
        monkeypatch.setattr(module, "forward", counting)
    out = tmp_path / "proj.csv"
    assert cli_run(["dump-proj", *TINY, "--checkpoint", str(trained["checkpoint"]),
                    "--data", str(trained["data"]), "--out", str(out)]) == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "x,y,true_label,noisy_label,in_T"
    ds = load_features_csv(trained["data"])
    assert len(lines) == 1 + len(ds.train_indices())
    assert any(line.endswith(",1") for line in lines[1:])  # confident points marked
    assert rows == [len(ds.train_indices())]  # one embedding serves the plot and the selection


def test_dump_proj_test_split_marks_nothing_confident(tmp_path, trained):
    out = tmp_path / "proj.csv"
    assert cli_run(["dump-proj", *TINY, "--checkpoint", str(trained["checkpoint"]),
                    "--data", str(trained["data"]), "--out", str(out),
                    "--split", "test"]) == 0
    lines = out.read_text().strip().split("\n")
    ds = load_features_csv(trained["data"])
    assert len(lines) == 1 + len(ds.test_indices())
    assert all(line.endswith(",0") for line in lines[1:])


def test_unknown_flag_exits_1(capsys):
    assert cli_run(["train", "--bogus-flag", "1"]) == 1
    assert "usage" in capsys.readouterr().err


def test_missing_command_exits_1(capsys):
    assert cli_run([]) == 1
    capsys.readouterr()


def test_invalid_config_value_exits_1(capsys):
    assert cli_run(["train", *TINY, "--alpha", "1.5", "--fixed-clock"]) == 1
    assert "alpha" in capsys.readouterr().err


def test_unknown_config_key_exits_1(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"not_a_key": 1}))
    assert cli_run(["train", "--config", str(bad)]) == 1
    assert "not_a_key" in capsys.readouterr().err


def test_missing_data_file_exits_1(tmp_path, capsys):
    assert cli_run(["train", *TINY, "--data", str(tmp_path / "nope.csv")]) == 1
    capsys.readouterr()


def test_corrupt_checkpoint_exits_1(tmp_path, trained, capsys):
    bad = tmp_path / "ckpt.json"
    bad.write_text("{}")
    assert cli_run(["eval", "--checkpoint", str(bad),
                    "--data", str(trained["data"])]) == 1
    assert "checkpoint" in capsys.readouterr().err


def test_mismatched_checkpoint_is_runtime_error(tmp_path, trained, capsys):
    # model trained on 6-dim instances, evaluated against 5-dim data
    other = tmp_path / "other.csv"
    assert cli_run(["gen", "--n", "40", "--classes", "2", "--dim", "5",
                    "--out", str(other)]) == 0
    assert cli_run(["eval", "--checkpoint", str(trained["checkpoint"]),
                    "--data", str(other)]) == 2
    capsys.readouterr()
