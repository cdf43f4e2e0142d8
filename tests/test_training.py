"""Tests for the training loops: warm-up behavior, per-epoch selection,
determinism, fallback paths, fine-tuning and the cross-entropy control.
"""
import tracemalloc

import numpy as np
import pytest

from selcontrast.data import Dataset, NoiseSpec, inject_noise, make_blobs
from selcontrast.network import OptState, apply_lr_schedule, forward, init_params
from selcontrast.training import (METRICS_COLUMNS, EpochRecord, RunConfig,
                                  benchmark_config, compute_selection, dataset_from_config,
                                  finetune, pretrain, pretrain_epoch,
                                  train_cross_entropy_baseline, warmup,
                                  write_metrics_csv)
from selcontrast.training import test_accuracy as model_test_accuracy


def tiny_config(**overrides):
    base = dict(n=80, classes=2, dim=6, t_max=3, t_warm=1, t_finetune=2,
                batch_size=16, k=10, k_eval=10, lr=0.01, lr_schedule=[],
                noise_rate=0.2, noise_seed=1, seed=1)
    base.update(overrides)
    return benchmark_config(**base)


def minority_swamped_dataset():
    """One tight cluster where class-1 labels are a 25% minority everywhere:
    each neighborhood votes class 0, class 1 never agrees, and the 0.5-fractile
    budget over agreement counts {many, 0} collapses to zero."""
    rng = np.random.default_rng(0)
    n = 40
    instances = rng.normal(size=(n, 6)) * 0.1
    labels = np.zeros(n, dtype=np.int64)
    labels[rng.permutation(36)[:9]] = 1  # train-only minority
    split = np.array(["train"] * 36 + ["test"] * 4)
    return Dataset(instances=instances, true_labels=labels.copy(),
                   noisy_labels=labels.copy(), split=split, n_classes=2)


# ---------------------------------------------------------------------------
# config plumbing
# ---------------------------------------------------------------------------

def test_config_round_trip_json(tmp_path):
    cfg = tiny_config(lambda_s=0.005, warmup_kind="supervised",
                      lr_schedule=[[2, 0.1]])
    path = tmp_path / "cfg.json"
    cfg.to_json(path)
    loaded = RunConfig.from_json(path)
    assert loaded == cfg


def test_config_rejects_unknown_keys():
    with pytest.raises(ValueError, match="unknown"):
        RunConfig.from_dict({"alhpa": 0.5})


def test_config_validation_messages():
    with pytest.raises(ValueError):
        tiny_config(alpha=1.5)
    with pytest.raises(ValueError):
        tiny_config(tau=0.0)
    with pytest.raises(ValueError):
        tiny_config(t_warm=9, t_max=3)
    with pytest.raises(ValueError):
        tiny_config(warmup_kind="contrastive")


def test_dataset_from_config_matches_direct_generation():
    cfg = tiny_config()
    ds = dataset_from_config(cfg)
    direct = inject_noise(make_blobs(cfg.n, cfg.classes, cfg.dim, cfg.cluster_spread,
                                     cfg.data_seed),
                          NoiseSpec(kind=cfg.noise_kind, rate=cfg.noise_rate,
                                    rng_seed=cfg.noise_seed))
    np.testing.assert_array_equal(ds.instances, direct.instances)
    np.testing.assert_array_equal(ds.noisy_labels, direct.noisy_labels)


# ---------------------------------------------------------------------------
# warm-up
# ---------------------------------------------------------------------------

def test_warmup_loss_decreases_for_most_seeds():
    decreased = 0
    for seed in range(1, 11):
        cfg = tiny_config(n=64, seed=seed, noise_seed=seed, t_warm=1, t_max=1)
        ds = dataset_from_config(cfg)
        params = init_params(ds.dim, ds.n_classes, hidden=cfg.hidden_dim,
                             proj_dim=cfg.proj_dim, seed=[cfg.seed, 0, 0])
        losses = []
        warmup(params, ds, cfg, on_step=lambda i, v: losses.append(v))
        if losses[-1] < losses[0]:
            decreased += 1
    assert decreased >= 9


@pytest.mark.parametrize("kind", ["unsupervised", "supervised"])
def test_warmup_kinds_run_with_finite_losses(kind):
    cfg = tiny_config(warmup_kind=kind)
    ds = dataset_from_config(cfg)
    params = init_params(ds.dim, ds.n_classes, hidden=cfg.hidden_dim,
                         proj_dim=cfg.proj_dim, seed=[cfg.seed, 0, 0])
    losses = []
    warmup(params, ds, cfg, on_step=lambda i, v: losses.append(v))
    assert losses and np.all(np.isfinite(losses))


def test_zero_like_lr_keeps_params_unchanged():
    cfg = tiny_config(lr=1e-300)
    ds = dataset_from_config(cfg)
    params = init_params(ds.dim, ds.n_classes, hidden=cfg.hidden_dim,
                         proj_dim=cfg.proj_dim, seed=[cfg.seed, 0, 0])
    before = params.copy()
    warmup(params, ds, cfg)
    for (name, arr), (_, ref) in zip(params.named_arrays(), before.named_arrays()):
        np.testing.assert_allclose(arr, ref, rtol=0, atol=1e-280, err_msg=name)


# ---------------------------------------------------------------------------
# pretrain
# ---------------------------------------------------------------------------

def test_pretrain_history_has_one_record_per_epoch():
    cfg = tiny_config(t_max=4)
    ds = dataset_from_config(cfg)
    result = pretrain(ds, cfg)
    assert len(result.history) == 4
    assert [r.epoch for r in result.history] == [1, 2, 3, 4]
    assert result.history[0].n_confident == 0  # warm-up rows carry no selection
    assert result.history[0].precision_examples is None
    assert result.history[0].precision_pairs is None
    assert result.selection is not None


@pytest.mark.parametrize("batch_size", [35, 64])
def test_small_train_split_and_trailing_batch_of_one(batch_size):
    # 45 points in 3 classes leave 36 train rows: batch_size 35 ends each
    # epoch on a batch of a single example, 64 exceeds the whole split
    cfg = tiny_config(n=45, classes=3, dim=5, t_max=3, t_finetune=2,
                      batch_size=batch_size)
    ds = dataset_from_config(cfg)
    assert len(ds.train_indices()) == 36
    initial = init_params(ds.dim, ds.n_classes, hidden=cfg.hidden_dim,
                          proj_dim=cfg.proj_dim, seed=[cfg.seed, 0, 0])
    steps = []
    warmup(initial.copy(), ds, cfg, on_step=lambda i, v: steps.append(v))
    assert len(steps) == -(-36 // batch_size) and np.all(np.isfinite(steps))

    result = pretrain(ds, cfg)
    assert [r.epoch for r in result.history] == [1, 2, 3]
    for record in result.history:
        assert np.all(np.isfinite([record.l_mix, record.l_cls, record.l_sim, record.l_all]))
    assert all(r.n_confident > 0 for r in result.history[1:])  # selective, no fallback
    tuned = finetune(result.params, ds, cfg, selection=result.selection)
    control = train_cross_entropy_baseline(ds, cfg, epochs=2)
    for trained, start in ((tuned, result.params), (control, initial)):
        for name, arr in trained.named_arrays():
            assert np.all(np.isfinite(arr)), name
        assert not np.array_equal(trained.cls_w, start.cls_w)


def test_pretrain_bitwise_deterministic():
    cfg = tiny_config()
    ds = dataset_from_config(cfg)
    a = pretrain(ds, cfg, time_source=lambda: 0.0)
    b = pretrain(ds, cfg, time_source=lambda: 0.0)
    for (name, arr), (_, ref) in zip(a.params.named_arrays(), b.params.named_arrays()):
        np.testing.assert_array_equal(arr, ref, err_msg=name)
    assert [r.csv_row() for r in a.history] == [r.csv_row() for r in b.history]


def test_pretrain_seed_changes_trajectory():
    cfg1, cfg2 = tiny_config(seed=1), tiny_config(seed=2)
    ds = dataset_from_config(cfg1)
    a = pretrain(ds, cfg1)
    b = pretrain(ds, cfg2)
    assert not np.array_equal(a.params.enc_w1, b.params.enc_w1)


def test_zero_noise_selection_is_perfectly_precise():
    cfg = tiny_config(noise_rate=0.0, t_max=3)
    ds = dataset_from_config(cfg)
    result = pretrain(ds, cfg)
    for record in result.history:
        if record.n_confident > 0:
            assert record.precision_examples == pytest.approx(100.0)
            assert record.precision_pairs == pytest.approx(100.0)


def test_swamped_minority_triggers_unsupervised_fallback(caplog):
    ds = minority_swamped_dataset()
    cfg = tiny_config(n=40, noise_rate=0.0)
    params = init_params(ds.dim, ds.n_classes, hidden=cfg.hidden_dim,
                         proj_dim=cfg.proj_dim, seed=[cfg.seed, 0, 0])
    with caplog.at_level("WARNING"):
        params, selection, record, _ = pretrain_epoch(params, ds, cfg, epoch=2)
    assert selection.confident.size == 0
    assert record.n_confident == 0
    assert record.sim_threshold == float("inf")
    assert np.isfinite(record.l_all)
    assert any("empty confident set" in m for m in caplog.messages)


def test_pretrain_epoch_emits_selection_counts():
    cfg = tiny_config()
    ds = dataset_from_config(cfg)
    params = init_params(ds.dim, ds.n_classes, hidden=cfg.hidden_dim,
                         proj_dim=cfg.proj_dim, seed=[cfg.seed, 0, 0])
    params, selection, record, _ = pretrain_epoch(params, ds, cfg, epoch=2)
    assert record.n_confident == selection.confident.size
    assert record.n_pairs_confident == len(selection.pairs_confident)
    assert record.n_pairs_similar == len(selection.pairs_similar)
    assert record.n_confident > 0


@pytest.mark.parametrize("projection", ["linear", "mlp"])
def test_zero_embedding_row_stops_the_selection(projection):
    # a projection head of zeros maps every row to the zero vector, which the
    # forward pass leaves at norm 0; the bank must refuse it by row
    cfg = tiny_config(projection=projection)
    ds = dataset_from_config(cfg)
    params = init_params(ds.dim, ds.n_classes, hidden=cfg.hidden_dim,
                         proj_dim=cfg.proj_dim, projection=projection, seed=[cfg.seed, 0, 0])
    for name, array in params.named_arrays():
        if name.startswith("proj"):
            array[...] = 0.0
    with pytest.raises(ValueError, match=r"bank row 0 has norm 0\.0+, expected 1"):
        compute_selection(params, ds, cfg)


# ---------------------------------------------------------------------------
# selection memory: one (n, n) float64 similarity matrix plus the three
# (n, n) bool masks a SelectionState stores, and no other (n, n) array
# ---------------------------------------------------------------------------

def memory_config():
    return benchmark_config(n=1500, t_max=3, t_finetune=0)  # 1200 train rows


def selection_bound(n_train):
    """Bytes of the similarity matrix and three masks, plus a slack of n^2
    bytes for the embeddings, the pseudo-labels and the row-block temporaries."""
    return 8 * n_train ** 2 + 3 * n_train ** 2 + n_train ** 2


def traced_peak(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_compute_selection_peak_memory():
    cfg = memory_config()
    ds = dataset_from_config(cfg)
    n_train = len(ds.train_indices())
    params = init_params(ds.dim, ds.n_classes, hidden=cfg.hidden_dim,
                         proj_dim=cfg.proj_dim, seed=[cfg.seed, 0, 0])
    peak = traced_peak(lambda: compute_selection(params, ds, cfg))
    assert peak <= selection_bound(n_train), f"{peak / n_train ** 2:.2f} n^2 bytes"


# Parameters and momentum buffers of the hidden-64 network, the minibatch
# forward caches and the epoch records: well under 256 KiB.
NETWORK_ALLOWANCE = 256 * 1024


def test_pretrain_never_holds_two_selections():
    cfg = memory_config()
    ds = dataset_from_config(cfg)
    n_train = len(ds.train_indices())
    peak = traced_peak(lambda: pretrain(ds, cfg))
    assert peak <= selection_bound(n_train) + NETWORK_ALLOWANCE, \
        f"{peak / n_train ** 2:.2f} n^2 bytes"


# ---------------------------------------------------------------------------
# fine-tuning
# ---------------------------------------------------------------------------

def test_finetune_improves_or_matches_clean_baseline():
    cfg = tiny_config(noise_rate=0.0, t_max=3, t_finetune=3)
    ds = dataset_from_config(cfg)
    result = pretrain(ds, cfg)
    tuned = finetune(result.params, ds, cfg, selection=result.selection)
    ce = train_cross_entropy_baseline(ds, cfg, epochs=cfg.t_max + cfg.t_finetune)
    assert model_test_accuracy(tuned, ds) >= model_test_accuracy(ce, ds) - 1e-9


def test_finetune_freezes_projection_and_respects_encoder_scale():
    cfg = tiny_config(freeze_encoder=True)
    ds = dataset_from_config(cfg)
    result = pretrain(ds, cfg)
    tuned = finetune(result.params, ds, cfg, selection=result.selection)
    np.testing.assert_array_equal(tuned.proj_w1, result.params.proj_w1)
    np.testing.assert_array_equal(tuned.enc_w1, result.params.enc_w1)
    assert not np.array_equal(tuned.cls_w, result.params.cls_w)


def test_finetune_fresh_head_starts_from_zero():
    cfg = tiny_config(t_finetune=0)
    ds = dataset_from_config(cfg)
    result = pretrain(ds, cfg)
    tuned = finetune(result.params, ds, cfg, selection=result.selection)
    np.testing.assert_array_equal(tuned.cls_w, np.zeros_like(tuned.cls_w))


def test_finetune_can_keep_pretraining_head():
    cfg = tiny_config(retrain_classifier=False, t_finetune=0)
    ds = dataset_from_config(cfg)
    result = pretrain(ds, cfg)
    tuned = finetune(result.params, ds, cfg, selection=result.selection)
    np.testing.assert_array_equal(tuned.cls_w, result.params.cls_w)


def test_finetune_head_fits_confident_set_on_frozen_encoder():
    cfg = tiny_config(freeze_encoder=True, t_finetune=10, t_max=4)
    ds = dataset_from_config(cfg)
    result = pretrain(ds, cfg)
    tuned = finetune(result.params, ds, cfg, selection=result.selection)
    train_idx = np.asarray(ds.train_indices())[result.selection.confident]
    cache = forward(tuned, ds.instances[train_idx])
    acc = np.mean(np.argmax(cache.p_hat, axis=1) == ds.noisy_labels[train_idx])
    assert acc == pytest.approx(1.0)


def test_finetune_rejects_empty_selection():
    ds = minority_swamped_dataset()
    cfg = tiny_config(n=40, noise_rate=0.0)
    params = init_params(ds.dim, ds.n_classes, hidden=cfg.hidden_dim,
                         proj_dim=cfg.proj_dim, seed=[cfg.seed, 0, 0])
    params, selection, _, _ = pretrain_epoch(params, ds, cfg, epoch=2)
    with pytest.raises(ValueError, match="lower alpha"):
        finetune(params, ds, cfg, selection=selection)


def test_finetune_without_selection_recomputes_it():
    cfg = tiny_config()
    ds = dataset_from_config(cfg)
    result = pretrain(ds, cfg)
    tuned_explicit = finetune(result.params, ds, cfg, selection=None)
    assert model_test_accuracy(tuned_explicit, ds) > 0.0


# ---------------------------------------------------------------------------
# forward accounting: each forward computes only what someone reads
# ---------------------------------------------------------------------------

class ForwardLog:
    """Replaces training.forward with a wrapper that logs each call as
    (whole, rows, project): whole is "train" or "test" when the input is
    exactly that split, in dataset order, and None for a minibatch."""

    def __init__(self, monkeypatch, ds):
        import selcontrast.training as training
        real = training.forward
        splits = {"train": ds.instances[ds.train_indices()],
                  "test": ds.instances[ds.test_indices()]}
        self.calls = []

        def logged(params, x, project=True):
            whole = next((name for name, rows in splits.items()
                          if np.shape(x) == rows.shape and np.array_equal(x, rows)), None)
            self.calls.append((whole, len(x), project))
            return real(params, x, project=project)
        monkeypatch.setattr(training, "forward", logged)

    def count(self, whole, project, since=0):
        return sum(1 for w, _, p in self.calls[since:] if w == whole and p == project)


def test_each_forward_computes_only_what_is_read(monkeypatch):
    cfg = tiny_config(t_warm=1, t_max=4, t_finetune=2)
    ds = dataset_from_config(cfg)
    log = ForwardLog(monkeypatch, ds)
    result = pretrain(ds, cfg)
    assert all(r.n_confident > 0 for r in result.history[1:])  # no fallback epoch
    n_batches = -(-len(ds.train_indices()) // cfg.batch_size)
    selective = cfg.t_max - cfg.t_warm
    # the train split is embedded once per epoch record, and each selective
    # epoch selects from the embedding the previous record measured
    assert log.count("train", True) == cfg.t_max
    assert log.count("train", False) == 0
    assert log.count("test", True) == cfg.t_max  # the kNN probe reads z
    # warm-up and mixed views project; plain views only feed the classifier
    assert log.count(None, True) == cfg.t_max * n_batches
    assert log.count(None, False) == selective * n_batches

    start = len(log.calls)
    finetune(result.params, ds, cfg, selection=result.selection)
    model_test_accuracy(result.params, ds)
    n_ft_batches = -(-result.selection.confident.size // cfg.batch_size)
    tail = log.calls[start:]
    assert len(tail) == cfg.t_finetune * n_ft_batches + 1
    assert all(whole is None and not project for whole, _, project in tail[:-1])
    assert tail[-1] == ("test", len(ds.test_indices()), False)  # test_accuracy


def test_bank_is_embedded_afresh_after_parameters_change(monkeypatch):
    cfg = tiny_config(t_warm=1, t_max=2)
    ds = dataset_from_config(cfg)
    params = init_params(ds.dim, ds.n_classes, hidden=cfg.hidden_dim,
                         proj_dim=cfg.proj_dim, seed=[cfg.seed, 0, 0])
    log = ForwardLog(monkeypatch, ds)
    # warm-up without history measures nothing, so it hands over no embedding
    params, train_z = warmup(params, ds, cfg)
    assert train_z is None and log.count("train", True) == 0
    start = len(log.calls)
    params, selection, _, train_z = pretrain_epoch(params, ds, cfg, epoch=2)
    assert log.count("train", True, since=start) == 2  # the bank, then the record
    assert selection.confident.size > 0
    np.testing.assert_array_equal(train_z, forward(params, ds.instances[ds.train_indices()]).z)

    # fine-tuning without a selection embeds the parameters it is given
    start = len(log.calls)
    tuned = finetune(params, ds, cfg, selection=None)
    assert log.count("train", True, since=start) == 1
    reference = finetune(params, ds, cfg, selection=compute_selection(params, ds, cfg))
    for (name, arr), (_, ref) in zip(tuned.named_arrays(), reference.named_arrays()):
        np.testing.assert_array_equal(arr, ref, err_msg=name)


def test_reusing_the_record_embedding_changes_nothing():
    # pretrain hands each epoch the embedding the previous record measured;
    # embedding afresh at every selection must give the same bits
    cfg = tiny_config(t_warm=1, t_max=4, lr_schedule=[[3, 0.5]])
    ds = dataset_from_config(cfg)
    result = pretrain(ds, cfg, time_source=lambda: 0.0)

    params = init_params(ds.dim, ds.n_classes, hidden=cfg.hidden_dim,
                         proj_dim=cfg.proj_dim, projection=cfg.projection,
                         seed=[cfg.seed, 0, 0])
    opt = OptState.for_params(params, cfg.lr, cfg.momentum, cfg.weight_decay,
                              cfg.lr_schedule)
    history = []
    warmup(params, ds, cfg, opt=opt, history=history, time_source=lambda: 0.0)
    for epoch in range(cfg.t_warm + 1, cfg.t_max + 1):
        apply_lr_schedule(opt, epoch)
        params, selection, record, _ = pretrain_epoch(params, ds, cfg, epoch, opt=opt,
                                                      time_source=lambda: 0.0)
        history.append(record)
    assert history == result.history
    np.testing.assert_array_equal(selection.pair_mask, result.selection.pair_mask)
    for (name, arr), (_, ref) in zip(params.named_arrays(), result.params.named_arrays()):
        np.testing.assert_array_equal(arr, ref, err_msg=name)


# ---------------------------------------------------------------------------
# cross-entropy control
# ---------------------------------------------------------------------------

def test_baseline_learns_clean_separable_data():
    cfg = tiny_config(noise_rate=0.0)
    ds = dataset_from_config(cfg)
    ce = train_cross_entropy_baseline(ds, cfg, epochs=20)
    assert model_test_accuracy(ce, ds) >= 90.0


def test_baseline_deterministic():
    cfg = tiny_config()
    ds = dataset_from_config(cfg)
    a = train_cross_entropy_baseline(ds, cfg, epochs=3)
    b = train_cross_entropy_baseline(ds, cfg, epochs=3)
    np.testing.assert_array_equal(a.cls_w, b.cls_w)


# ---------------------------------------------------------------------------
# metrics CSV
# ---------------------------------------------------------------------------

def test_metrics_csv_layout(tmp_path):
    record = EpochRecord(epoch=1, l_mix=1.5, l_cls=0.25, l_sim=0.125, l_all=1.75,
                         n_confident=10, n_pairs_confident=45, n_pairs_similar=3,
                         sim_threshold=0.75, precision_examples=90.0,
                         precision_pairs=80.0, knn_accuracy=95.0,
                         test_accuracy=85.0, seconds=0.5)
    path = tmp_path / "metrics.csv"
    write_metrics_csv([record], path)
    lines = path.read_text().strip().split("\n")
    assert lines[0] == ",".join(METRICS_COLUMNS)
    fields = lines[1].split(",")
    assert fields[0] == "1"
    assert fields[1] == "1.500000"
    assert fields[5] == "10"
    assert fields[8] == "0.750000"
    assert fields[9] == "90.0000"
    assert fields[13] == "0.500"


def test_metrics_csv_infinite_threshold(tmp_path):
    record = EpochRecord(epoch=1, l_mix=0.0, l_cls=0.0, l_sim=0.0, l_all=0.0,
                         n_confident=0, n_pairs_confident=0, n_pairs_similar=0,
                         sim_threshold=float("inf"), precision_examples=None,
                         precision_pairs=None, knn_accuracy=0.0,
                         test_accuracy=0.0, seconds=0.0)
    path = tmp_path / "metrics.csv"
    write_metrics_csv([record], path)
    # nothing selected: infinite threshold and empty precision cells
    assert ",0,0,0,inf,,,0.0000," in path.read_text()
