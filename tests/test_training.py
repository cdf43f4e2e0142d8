"""Tests for the training loops: warm-up behavior, per-epoch selection,
determinism, fallback paths, fine-tuning and the cross-entropy control.
"""
import copy
import dataclasses
import time
import tracemalloc

import numpy as np
import pytest
from oracles import MaskPairs, cast_params, reference_selective_step

from selcontrast.data import Dataset, inject_noise, make_blobs, mixup
from selcontrast.evaluation import weighted_knn_eval
from selcontrast.network import OptState, apply_lr_schedule, forward, init_params
from selcontrast import neighbors, training
from selcontrast.selection import run_selection
from selcontrast.training import (DATASET_KEYS, METRICS_COLUMNS, PROBE_KEYS, SELECTION_KEYS,
                                  EpochRecord, RunConfig, benchmark_config, compute_selection,
                                  dataset_from_config, finetune, model_metrics, pretrain,
                                  pretrain_epoch, train_cross_entropy_baseline,
                                  train_embedding, warmup, write_metrics_csv)
from selcontrast.training import test_accuracy as model_test_accuracy


def tiny_config(**overrides):
    base = dict(n=80, classes=2, dim=6, t_max=3, t_warm=1, t_finetune=2,
                batch_size=16, k=10, k_eval=10, lr=0.01, lr_schedule=[],
                noise_rate=0.2, noise_seed=1, seed=1)
    base.update(overrides)
    return benchmark_config(**base)


# The wide benchmark workload's network and noise (perfbench/spec.json).
WIDE = dict(noise_kind="asymmetric", dim=64, hidden_dim=512, proj_dim=128, projection="mlp")


def fresh_start(cfg, ds):
    """The initial parameters pretrain makes for cfg, and a fresh optimizer."""
    params = init_params(ds.dim, ds.n_classes, hidden=cfg.hidden_dim,
                         proj_dim=cfg.proj_dim, projection=cfg.projection,
                         seed=[cfg.seed, 0, 0])
    return params, OptState.for_params(params, cfg.lr, cfg.momentum, cfg.weight_decay,
                                       cfg.lr_schedule)


def record_step_losses(monkeypatch):
    """Wrap the two selection-free losses as training calls them; returns the
    list that gets each minibatch's loss value."""
    values = []
    for name in ("unsup_contrastive", "masked_contrastive"):
        def recording(*args, real=getattr(training, name)):
            value, grad = real(*args)
            values.append(value)
            return value, grad
        monkeypatch.setattr(training, name, recording)
    return values


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
    with pytest.raises(ValueError, match="t_max"):
        tiny_config(t_warm=0, t_max=0)
    # 0 freezes the encoder; a negative scale would step it up its gradient
    with pytest.raises(ValueError, match="finetune_encoder_scale"):
        tiny_config(finetune_encoder_scale=-0.1)
    with pytest.raises(ValueError, match="jitter_sigma must be >= 0"):
        tiny_config(jitter_sigma=-0.1)
    with pytest.raises(ValueError, match=r"drop_prob must lie in \[0, 1\]"):
        tiny_config(drop_prob=1.5)
    with pytest.raises(ValueError, match="scale_range must satisfy 0 < low <= high"):
        tiny_config(scale_low=1.2, scale_high=0.8)


def test_defaults_are_the_benchmark_config():
    # one default set: a config file, a flag and benchmark_config all start here
    assert RunConfig() == benchmark_config()


def test_validate_normalizes_the_lr_schedule():
    # the one place a schedule read from JSON or a flag gets its types
    cfg = RunConfig(lr_schedule=[(3, 1), ["7", "0.5"]]).validate()
    assert cfg.lr_schedule == [[3, 1.0], [7, 0.5]]
    assert [[type(e), type(m)] for e, m in cfg.lr_schedule] == [[int, float]] * 2


def test_validate_refuses_a_truncating_lr_schedule_entry():
    # int() would truncate a float or bool epoch and float() take a bool
    for entry in ([1.5, 0.1], [True, 2], [2, False], [np.float64(3.0), 0.5], [3]):
        with pytest.raises(ValueError, match="bad lr_schedule entry"):
            RunConfig.from_dict({"lr_schedule": [entry]})


@pytest.mark.parametrize("n, classes", [(8, 4), (10, 5), (4, 2)])
def test_validate_refuses_sizes_that_leave_the_test_split_empty(n, classes):
    # under the 80/20 split a class gives a test row only from 3 examples on
    assert not len(make_blobs(n, classes, 2, 0.5, seed=1).test_indices())
    with pytest.raises(ValueError, match="leaves the test split of .* classes empty"):
        benchmark_config(n=n, classes=classes)
    benchmark_config(n=n + 1, classes=classes)  # one class of 3 gives one test row


def test_validate_holds_each_key_to_its_defaults_type():
    # the rule the flags parse by: an int key takes an int, a float key an
    # int or a float and stores a float, and no key takes a bool
    cfg = RunConfig.from_dict({"lr": 1, "tau": np.float64(0.5)})
    assert (type(cfg.lr), type(cfg.tau)) == (float, float)
    assert (cfg.lr, cfg.tau) == (1.0, 0.5)
    for key, value in [("t_max", 3.0), ("k", True), ("lr", True), ("seed", "1"),
                       ("warmup_kind", 0), ("lr_schedule", 5)]:
        with pytest.raises(ValueError, match=f"{key} must be "):
            RunConfig.from_dict({key: value})


def test_dataset_from_config_matches_direct_generation():
    cfg = tiny_config()
    ds = dataset_from_config(cfg)
    direct = inject_noise(make_blobs(cfg.n, cfg.classes, cfg.dim, cfg.cluster_spread,
                                     cfg.data_seed),
                          cfg.noise_kind, cfg.noise_rate, seed=cfg.noise_seed)
    np.testing.assert_array_equal(ds.instances, direct.instances)
    np.testing.assert_array_equal(ds.noisy_labels, direct.noisy_labels)


class ReadLog:
    """A RunConfig stand-in that records the name of every attribute read."""

    def __init__(self, cfg):
        self.cfg = cfg
        self.read = set()

    def __getattr__(self, name):  # called only for names the log itself lacks
        self.read.add(name)
        return getattr(self.cfg, name)


def test_each_key_tuple_is_exactly_what_its_function_reads():
    cfg = tiny_config()
    assert cfg.noise_rate > 0  # the noise keys are read only then
    ds = dataset_from_config(cfg)
    params, _ = fresh_start(cfg, ds)
    train_z = train_embedding(params, ds)
    for keys, call in ((DATASET_KEYS, dataset_from_config),
                       (PROBE_KEYS, lambda c: model_metrics(params, ds, c, train_z)),
                       (SELECTION_KEYS, lambda c: compute_selection(train_z, ds, c))):
        log = ReadLog(cfg)
        call(log)
        assert len(set(keys)) == len(keys)
        assert log.read == set(keys)


def test_model_metrics_clips_k_eval_to_train_size():
    cfg = tiny_config(k_eval=500)
    ds = dataset_from_config(cfg)
    params, _ = fresh_start(cfg, ds)
    train_z = train_embedding(params, ds)
    test_idx = ds.test_indices()
    test_z = forward(params, ds.instances[test_idx], backprop=False).z
    assert cfg.k_eval > len(train_z)
    knn, _ = model_metrics(params, ds, cfg, train_z)
    assert knn == weighted_knn_eval(train_z, ds.noisy_labels[ds.train_indices()], test_z,
                                    ds.true_labels[test_idx], k=len(train_z),
                                    tau=cfg.tau_knn)


@pytest.mark.parametrize("hidden,projection", [(64, "linear"), (512, "mlp")])
def test_train_embedding_blocks_equal_the_whole_split_forward(hidden, projection):
    # 800 train rows in row blocks (512 rows at hidden 64, 64 at hidden 512):
    # the float32 network's blocks are bit-equal to one forward over the
    # split, and the embedding comes back widened to float64, exactly
    cfg = benchmark_config(n=1000, hidden_dim=hidden, projection=projection)
    ds = dataset_from_config(cfg)
    params, _ = fresh_start(cfg, ds)
    assert len(neighbors.row_blocks(len(ds.train_indices()), hidden)) > 1
    z = train_embedding(params, ds)
    whole = forward(params, ds.instances[ds.train_indices()], backprop=False).z
    assert whole.dtype == np.float32 and z.dtype == np.float64
    assert z.tobytes() == whole.astype(np.float64).tobytes()


def test_compute_selection_clips_k_to_population():
    cfg = tiny_config()
    ds = dataset_from_config(cfg)
    params, _ = fresh_start(cfg, ds)
    train_z = train_embedding(params, ds)
    for k in (len(train_z), 500):
        cfg.k = k
        assert compute_selection(train_z, ds, cfg).pseudo.k == len(train_z) - 1


# ---------------------------------------------------------------------------
# warm-up
# ---------------------------------------------------------------------------

def test_warmup_loss_decreases_for_most_seeds(monkeypatch):
    losses = record_step_losses(monkeypatch)
    decreased = 0
    for seed in range(1, 11):
        cfg = tiny_config(n=64, seed=seed, noise_seed=seed, t_warm=1, t_max=1)
        ds = dataset_from_config(cfg)
        params, opt = fresh_start(cfg, ds)
        losses.clear()
        warmup(params, opt, ds, cfg, 1, time.perf_counter)
        if losses[-1] < losses[0]:
            decreased += 1
    assert decreased >= 9


@pytest.mark.parametrize("kind", ["unsupervised", "supervised"])
def test_warmup_kinds_run_with_finite_losses(monkeypatch, kind):
    cfg = tiny_config(warmup_kind=kind)
    ds = dataset_from_config(cfg)
    params, opt = fresh_start(cfg, ds)
    losses = record_step_losses(monkeypatch)
    record, _ = warmup(params, opt, ds, cfg, 1, time.perf_counter)
    assert losses and np.all(np.isfinite(losses))
    assert record.l_all == record.l_mix == float(np.mean(losses))


def test_zero_like_lr_keeps_params_unchanged():
    cfg = tiny_config(lr=1e-300)
    ds = dataset_from_config(cfg)
    params, opt = fresh_start(cfg, ds)
    before = params.copy()
    warmup(params, opt, ds, cfg, 1, time.perf_counter)
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


@pytest.mark.parametrize("n_train, batch_size", [(37, 16), (36, 36), (36, 64), (37, 2)])
def test_view_batches_give_every_row_two_twinned_views(n_train, batch_size):
    # identity augmentation, so each view must equal its origin's row
    cfg = tiny_config(batch_size=batch_size, jitter_sigma=0.0, drop_prob=0.0,
                      scale_low=1.0, scale_high=1.0)
    x = np.random.default_rng(0).normal(size=(n_train, 5))
    noisy = np.arange(n_train) % 3
    batches = list(training._view_batches(x, noisy, cfg, np.random.default_rng(1)))
    full, rest = divmod(n_train, batch_size)
    assert [len(views) // 2 for views, *_ in batches] == [batch_size] * full + [rest] * (rest > 0)
    for views, origins, labels, twin in batches:
        nb = len(views) // 2
        np.testing.assert_array_equal(origins[nb:], origins[:nb])  # [batch; batch]
        np.testing.assert_array_equal(views, x[origins])
        np.testing.assert_array_equal(labels, noisy[origins])
        positions = np.arange(2 * nb)
        np.testing.assert_array_equal(twin[twin], positions)  # an involution
        assert np.all(twin != positions)  # without a fixed point
        np.testing.assert_array_equal(origins[twin], origins)
    origins = np.concatenate([origins for _, origins, _, _ in batches])
    np.testing.assert_array_equal(np.bincount(origins, minlength=n_train), 2)


@pytest.mark.parametrize("batch_size", [35, 64])
def test_small_train_split_and_trailing_batch_of_one(monkeypatch, batch_size):
    # 45 points in 3 classes leave 36 train rows: batch_size 35 ends each
    # epoch on a batch of a single example, 64 exceeds the whole split
    cfg = tiny_config(n=45, classes=3, dim=5, t_max=3, t_finetune=2,
                      batch_size=batch_size)
    ds = dataset_from_config(cfg)
    assert len(ds.train_indices()) == 36
    initial, opt = fresh_start(cfg, ds)
    steps = record_step_losses(monkeypatch)
    warmup(initial.copy(), opt, ds, cfg, 1, time.perf_counter)
    assert len(steps) == -(-36 // batch_size) and np.all(np.isfinite(steps))

    result = pretrain(ds, cfg)
    assert [r.epoch for r in result.history] == [1, 2, 3]
    for record in result.history:
        assert np.all(np.isfinite([record.l_mix, record.l_cls, record.l_sim, record.l_all]))
    assert all(r.n_confident > 0 for r in result.history[1:])  # selective, no fallback
    tuned = finetune(result.params, ds, cfg, selection=result.selection)
    control = train_cross_entropy_baseline(ds, dataclasses.replace(cfg, t_max=2, t_finetune=0))
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
    params, opt = fresh_start(cfg, ds)
    with caplog.at_level("WARNING"):
        selection, record, _ = pretrain_epoch(params, opt, ds, cfg, 2,
                                              train_embedding(params, ds), time.perf_counter)
    assert selection.confident.size == 0
    assert record.n_confident == 0
    assert record.sim_threshold == float("inf")
    assert np.isfinite(record.l_all)
    assert any("empty confident set" in m for m in caplog.messages)


def test_pretrain_epoch_emits_selection_counts():
    cfg = tiny_config()
    ds = dataset_from_config(cfg)
    params, opt = fresh_start(cfg, ds)
    selection, record, _ = pretrain_epoch(params, opt, ds, cfg, 2, train_embedding(params, ds),
                                          time.perf_counter)
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
    with pytest.raises(ValueError, match=r"bank row 0 has norm 0\.0+, expected 1 "
                                         r"\(a zero projection output\)"):
        compute_selection(train_embedding(params, ds), ds, cfg)


def test_knn_probe_names_a_zero_embedding_row():
    z = np.eye(3)[[0, 1, 2, 0]]
    z[2] = 0.0
    with pytest.raises(ValueError, match=r"train embeddings row 2 is a zero vector "
                                         r"\(a zero projection output\)"):
        weighted_knn_eval(z, np.array([0, 1, 2, 0]), np.eye(3), np.arange(3), k=2, tau=0.1)


def test_narrow_network_with_dead_projection_rows_trains_to_the_end():
    # at hidden width 4 some rows of most runs' batches have all-dead ReLUs
    # and a zero projection output; their zero gradient keeps the projection
    # finite, so no zero embedding reaches the probe or the bank
    for seed in range(1, 11):
        cfg = benchmark_config(hidden_dim=4, seed=seed, t_max=5, t_finetune=1)
        ds = dataset_from_config(cfg)
        result = pretrain(ds, cfg)
        assert len(result.history) == 5, seed
        tuned = finetune(result.params, ds, cfg, result.selection)
        assert all(np.all(np.isfinite(arr)) for _, arr in tuned.named_arrays()), seed


# ---------------------------------------------------------------------------
# selection memory: no (n, n) array, in the selection or the kNN probe
# ---------------------------------------------------------------------------

def memory_config(**overrides):
    return benchmark_config(n=5000, t_max=3, t_finetune=0, **overrides)  # 4000 train rows


def quadratic_bound(n_train):
    """2 n^2 bytes: a quarter of one (n, n) float64 matrix."""
    return 2 * n_train ** 2


def selection_bound(cfg, n_train):
    """Bytes of a selection's peak, O(n d + n k) with no term in n^2 and
    none per pair: the train rows, their embedding and the bank's grid copy
    (8 n (dim + 2 proj_dim)); the vote's neighbour ids, uint16 below
    n = 65537 (2 n k); and one row block with its temporaries, 48 bytes per
    cell of max(_BLOCK_ELEMENTS, _MIN_BLOCK_ROWS n)."""
    cells = max(neighbors._BLOCK_ELEMENTS, neighbors._MIN_BLOCK_ROWS * n_train)
    return 8 * n_train * (cfg.dim + 2 * cfg.proj_dim) + 2 * n_train * cfg.k + 48 * cells


def traced_peak(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def assert_selection_within_bound(cfg, collapsed=False):
    ds = dataset_from_config(cfg)
    n_train = len(ds.train_indices())
    params = init_params(ds.dim, ds.n_classes, hidden=cfg.hidden_dim,
                         proj_dim=cfg.proj_dim, seed=[cfg.seed, 0, 0])
    if collapsed:
        params.proj_w1[...] = 0.0
        params.proj_b1[...] = 1.0
    selections = []
    # the train split is embedded inside the traced call, as an epoch does it
    peak = traced_peak(lambda: selections.append(
        compute_selection(train_embedding(params, ds), ds, cfg)))
    state, = selections
    bound = selection_bound(cfg, n_train)
    assert 8 * state.n_pairs_confident > bound  # one float per pair would not fit
    assert peak <= bound, f"{peak / 2 ** 20:.2f} MiB"


def test_compute_selection_peak_memory():
    assert_selection_within_bound(memory_config())


def test_compute_selection_peak_memory_of_a_collapsed_embedding():
    # every row embeds to one vector, so every confident similarity is one
    # value, which the cut narrows down to a single key; the vote's
    # neighbour sets all tie, and alpha = 1 keeps a quota
    assert_selection_within_bound(memory_config(alpha=1.0), collapsed=True)


# Parameters and momentum buffers of the hidden-64 network, the minibatch
# forward caches and the epoch records: well under 256 KiB.
NETWORK_ALLOWANCE = 256 * 1024


def test_pretrain_never_holds_two_selections():
    cfg = memory_config()
    ds = dataset_from_config(cfg)
    n_train = len(ds.train_indices())
    peak = traced_peak(lambda: pretrain(ds, cfg))
    assert peak <= quadratic_bound(n_train) + NETWORK_ALLOWANCE, \
        f"{peak / n_train ** 2:.2f} n^2 bytes"


def test_knn_probe_peak_memory():
    rng = np.random.default_rng(11)
    train, test = rng.normal(size=(4000, 32)), rng.normal(size=(1000, 32))
    labels = rng.integers(0, 4, size=4000)
    full_matrix = 8 * len(test) * len(train)
    peak = traced_peak(lambda: weighted_knn_eval(train, labels, test, labels[:1000], k=200,
                                                   tau=0.1))
    assert peak <= full_matrix // 4, f"{peak / full_matrix:.3f} of the (1000, 4000) matrix"


def test_selective_step_allocates_no_gradient_dict_at_wide_shapes():
    # one steady-state step of the wide configuration (batch 64, so 128
    # views; dim 64, hidden 512, MLP projection to 128: 626,308 parameters),
    # in two halves: the mixed views' forward, mixup loss and a backward
    # into the optimizer's workspace, then, with the mixed cache dropped, the
    # plain views' forward, losses and a backward added into the workspace
    # in row chunks, then sgd_step. So one view set's activations and one
    # backward's temporaries are alive at a time (1.5 MiB in float32), not
    # both caches with a whole enc_w2 product or a fresh gradient dict
    # (2.4 MiB in float32)
    cfg = benchmark_config(noise_kind="asymmetric", dim=64, hidden_dim=512, proj_dim=128,
                           projection="mlp")
    rng = np.random.default_rng(5)
    params = init_params(64, 4, hidden=512, proj_dim=128, projection="mlp", seed=5)
    opt = OptState.for_params(params, cfg.lr, cfg.momentum, cfg.weight_decay)
    n_train, nb = 400, cfg.batch_size
    noisy = rng.integers(0, 4, size=n_train)
    selection = MaskPairs.of([(i, j) for i in range(0, n_train, 3)
                              for j in range(i + 1, n_train, 7) if noisy[i] == noisy[j]], n_train)
    confident = rng.random(n_train) < 0.7

    def batch():
        rows = rng.choice(n_train, size=nb, replace=False)
        twin = np.concatenate([np.arange(nb) + nb, np.arange(nb)])
        return (rng.normal(size=(2 * nb, 64)), np.concatenate([rows, rows]),
                np.concatenate([noisy[rows], noisy[rows]]), twin)

    training._selective_step(params, opt, batch(), selection, confident, cfg, rng)
    step_batch = batch()
    peak = traced_peak(lambda: training._selective_step(params, opt, step_batch, selection,
                                                        confident, cfg, rng))
    gradient_dict = sum(arr.nbytes for _, arr in params.named_arrays())
    assert gradient_dict == params.enc_w1.itemsize * 626_308
    assert peak < 0.75 * gradient_dict, f"{peak / 2 ** 20:.2f} MiB"


@pytest.mark.parametrize("case", ["linear", "mlp", "no_scored_row", "no_pairs", "wide",
                                  "selection", "float64"])
def test_selective_step_matches_the_joint_reference_bitwise(case):
    # three steps (32, 32, then a trailing 16 rows) against the oracle step,
    # which holds both caches, computes every loss, reads each pair mask with
    # a pair_block call of its own, stores the mixed views' gradients in a
    # fresh dict and adds the plain views' before its SGD step: parameters,
    # momentum buffers and losses agree bit for bit. "selection" reads the
    # pairs from a SelectionState made by run_selection; "float64" runs the
    # mlp case on the parameters widened to float64
    hidden, dim = (512, 64) if case == "wide" else (16, 6)
    projection = "linear" if case == "linear" else "mlp"
    cfg = benchmark_config(dim=dim, hidden_dim=hidden, proj_dim=8, projection=projection,
                           batch_size=32, lr=0.05)
    rng = np.random.default_rng(21)
    n_train = 80
    x_train, noisy = rng.normal(size=(n_train, dim)), rng.integers(0, 3, size=n_train)
    batches = list(training._view_batches(x_train, noisy, cfg, rng))
    assert [len(b[1]) for b in batches] == [64, 64, 32]
    confident = rng.random(n_train) < 0.6
    if case == "no_scored_row":
        confident[batches[1][1]] = False
    pairs = MaskPairs.of([] if case == "no_pairs" else
                         [(i, j) for i in range(n_train) for j in range(i + 1, n_train)
                          if noisy[i] == noisy[j] and (i + j) % 3 == 0], n_train)
    if case == "selection":
        z = rng.normal(size=(n_train, 5))
        bank = neighbors.EmbeddingBank(z / np.linalg.norm(z, axis=1, keepdims=True))
        pseudo = neighbors.aggregate_pseudo_labels(bank, noisy, k=10, n_classes=3)
        pairs = run_selection(bank, noisy, pseudo, alpha=0.5, beta=0.25)
        confident = pairs.is_confident
        assert pairs.n_pairs_confident > 0 and pairs.n_pairs_similar > 0
    params = init_params(dim, 3, hidden=hidden, proj_dim=8, projection=projection, seed=21)
    if case == "float64":
        params = cast_params(params, np.float64)
    opt = OptState.for_params(params, cfg.lr, cfg.momentum, cfg.weight_decay)
    ref_params = params.copy()
    ref_buffers = {name: buf.copy() for name, buf in opt.buffers.items()}
    rng_step, rng_ref = np.random.default_rng(22), np.random.default_rng(22)
    for step, batch in enumerate(batches):
        losses = training._selective_step(params, opt, batch, pairs, confident, cfg, rng_step)
        expected = reference_selective_step(ref_params, ref_buffers, batch, pairs, confident,
                                            cfg, rng_ref)
        assert losses == expected, step
        assert (losses[1] == 0.0) == (case == "no_scored_row" and step == 1), step
    for (name, arr), (_, ref) in zip(params.named_arrays(), ref_params.named_arrays()):
        assert arr.tobytes() == ref.tobytes(), name
        assert opt.buffers[name].tobytes() == ref_buffers[name].tobytes(), name


def test_float32_step_computes_in_float32_throughout(monkeypatch):
    # every array a selective step's forward caches hold, every upstream
    # gradient its losses hand to backward and every opt.grads entry is
    # float32: no float64 mixup weight or pair target promotes the step
    seen = []
    real_forward, real_backward = training.forward, training.backward

    def forward_spy(params, x, **kwargs):
        cache = real_forward(params, x, **kwargs)
        seen.extend((f"cache.{f.name}", getattr(cache, f.name))
                    for f in dataclasses.fields(cache) if getattr(cache, f.name) is not None)
        return cache

    def backward_spy(params, cache, grad_z=None, grad_p=None, **kwargs):
        seen.extend((name, g) for name, g in (("grad_z", grad_z), ("grad_p", grad_p))
                    if g is not None)
        return real_backward(params, cache, grad_z, grad_p, **kwargs)

    monkeypatch.setattr(training, "forward", forward_spy)
    monkeypatch.setattr(training, "backward", backward_spy)
    cfg = benchmark_config(dim=6, hidden_dim=8, proj_dim=4, projection="mlp", batch_size=8)
    rng = np.random.default_rng(24)
    x_train, noisy = rng.normal(size=(16, 6)), rng.integers(0, 2, size=16)
    pairs = MaskPairs.of([(i, j) for i in range(16) for j in range(i + 1, 16)
                          if noisy[i] == noisy[j]], 16)
    params = init_params(6, 2, hidden=8, proj_dim=4, projection="mlp", seed=24)
    opt = OptState.for_params(params, cfg.lr, cfg.momentum, cfg.weight_decay)
    batch = next(training._view_batches(x_train, noisy, cfg, rng))
    training._selective_step(params, opt, batch, pairs, np.ones(16, dtype=bool), cfg, rng)
    seen += [(f"opt.grads[{name}]", g) for name, g in opt.grads.items()]
    assert {"cache.x", "cache.proj_act1", "grad_z", "grad_p"} <= {name for name, _ in seen}
    assert [name for name, arr in seen if arr.dtype != np.float32] == []


class CountingPairs(MaskPairs):
    """MaskPairs that counts its pair_block calls."""

    calls = 0

    def pair_block(self, rows, cols):
        self.calls += 1
        return super().pair_block(rows, cols)


def test_selective_step_reads_pairs_once():
    # the mixup masks and the similarity targets are all sliced from one
    # pair_block over the step's views
    cfg = benchmark_config(dim=6, hidden_dim=8, proj_dim=4, batch_size=16)
    rng = np.random.default_rng(23)
    n_train = 40
    x_train, noisy = rng.normal(size=(n_train, 6)), rng.integers(0, 3, size=n_train)
    pairs = CountingPairs.of([(i, j) for i in range(n_train) for j in range(i + 1, n_train)
                              if noisy[i] == noisy[j]], n_train)
    params = init_params(6, 3, hidden=8, proj_dim=4, seed=23)
    opt = OptState.for_params(params, cfg.lr, cfg.momentum, cfg.weight_decay)
    confident = np.ones(n_train, dtype=bool)
    for step, batch in enumerate(training._view_batches(x_train, noisy, cfg, rng)):
        training._selective_step(params, opt, batch, pairs, confident, cfg, rng)
        assert pairs.calls == step + 1, step


def test_selective_step_with_a_zero_projection_row_stays_finite():
    # the first step of this hidden-8 run mixes two views whose encoder
    # output v is zero (every ReLU dead), so their projection output is zero;
    # their zero normalization gradient keeps proj_b1's update at the scale
    # of the others, not the 1/_NORM_FLOOR scale
    cfg = benchmark_config(dim=6, hidden_dim=8, proj_dim=4, batch_size=16)
    rng = np.random.default_rng(23)
    n_train = 40
    x_train, noisy = rng.normal(size=(n_train, 6)), rng.integers(0, 3, size=n_train)
    pairs = MaskPairs.of([(i, j) for i in range(n_train) for j in range(i + 1, n_train)
                          if noisy[i] == noisy[j]], n_train)
    params = init_params(6, 3, hidden=8, proj_dim=4, seed=23)
    opt = OptState.for_params(params, cfg.lr, cfg.momentum, cfg.weight_decay)
    batch = next(training._view_batches(x_train, noisy, cfg, rng))
    mixed_x = mixup(batch[0], cfg.alpha_m, copy.deepcopy(rng))[0]  # the step's draw
    mixed = forward(params, mixed_x)
    dead = mixed.z_norm == 0.0
    assert dead.any() and not mixed.v[dead].any()
    before = params.copy()
    training._selective_step(params, opt, batch, pairs, np.ones(n_train, dtype=bool), cfg, rng)
    for name, arr in params.named_arrays():
        assert np.all(np.isfinite(arr)), name
    # lr 0.01: a proj_b1 gradient below 100 per entry
    assert np.abs(params.proj_b1 - before.proj_b1).max() < 1.0


# ---------------------------------------------------------------------------
# loss scale
# ---------------------------------------------------------------------------

def test_paper_recipe_keeps_the_classifier_off_chance():
    # n = 2000 at the paper's batch, k and lr: with contrastive values that
    # are anchor means, L_mix does not outweigh L_cls by the batch's 2N, so
    # the classifier learns in the selective epochs and leaves chance (25
    # for 4 classes) far behind
    cfg = benchmark_config(n=2000, batch_size=128, k=250, lr=0.1, t_max=3, t_finetune=0)
    last = pretrain(dataset_from_config(cfg), cfg).history[-1]
    assert last.l_cls < 1.0  # below log 4, the uniform prediction's loss
    assert last.test_accuracy >= 90.0


def test_wide_run_does_not_underflow():
    # float32 arithmetic is slow on subnormal operands; a saturated softmax
    # makes them (and zeros) in p_hat and in the gradients behind it. Under
    # anchor-mean contrastive losses the softmax does not saturate, and no
    # numpy call of a wide-shaped run underflows
    cfg = benchmark_config(seed=1, t_max=2, t_finetune=1, **WIDE)
    ds = dataset_from_config(cfg)
    with np.errstate(under="raise"):
        result = pretrain(ds, cfg)
        finetune(result.params, ds, cfg, result.selection)


# ---------------------------------------------------------------------------
# fine-tuning
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("seed", [1, 4, 6, 7])
def test_finetune_on_wide_is_steady_in_its_epoch_count(seed):
    # fine-tuning the classifier on the confident set neither loses what the
    # selective epochs reached nor swings with the number of fine-tune
    # epochs: at 5, 10 and 20 epochs the fine-tuned test accuracy is within
    # 2 points (2 test rows) of the last record's
    cfg = benchmark_config(seed=seed, **WIDE)
    ds = dataset_from_config(cfg)
    result = pretrain(ds, cfg)
    last = result.history[-1].test_accuracy
    for epochs in (5, 10, 20):
        tuned = finetune(result.params, ds, dataclasses.replace(cfg, t_finetune=epochs),
                         result.selection)
        assert abs(model_test_accuracy(tuned, ds) - last) <= 2.0, (epochs, last)


def test_finetune_improves_or_matches_clean_baseline():
    cfg = tiny_config(noise_rate=0.0, t_max=3, t_finetune=3)
    ds = dataset_from_config(cfg)
    result = pretrain(ds, cfg)
    tuned = finetune(result.params, ds, cfg, selection=result.selection)
    ce = train_cross_entropy_baseline(ds, cfg)
    assert model_test_accuracy(tuned, ds) >= model_test_accuracy(ce, ds) - 1e-9


def test_finetune_freezes_projection_and_respects_encoder_scale():
    cfg = tiny_config(finetune_encoder_scale=0.0)
    ds = dataset_from_config(cfg)
    result = pretrain(ds, cfg)
    tuned = finetune(result.params, ds, cfg, selection=result.selection)
    np.testing.assert_array_equal(tuned.proj_w1, result.params.proj_w1)
    np.testing.assert_array_equal(tuned.enc_w1, result.params.enc_w1)
    assert not np.array_equal(tuned.cls_w, result.params.cls_w)


@pytest.mark.parametrize("frozen", [False, True])
def test_finetune_optimizer_holds_arrays_only_for_trained_tensors(monkeypatch, frozen):
    # the projection head (and an encoder frozen by finetune_encoder_scale 0)
    # gets neither a momentum buffer nor a gradient workspace array
    cfg = tiny_config(t_max=2, t_finetune=1, projection="mlp",
                      finetune_encoder_scale=0.0 if frozen else 0.1)
    ds = dataset_from_config(cfg)
    result = pretrain(ds, cfg)
    opts = []
    real = training.sgd_step

    def spy(params, grads, opt):
        opts.append(opt)
        return real(params, grads, opt)
    monkeypatch.setattr(training, "sgd_step", spy)
    tuned = finetune(result.params, ds, cfg, selection=result.selection)
    assert opts and all(opt is opts[0] for opt in opts)
    trained = {"cls_w", "cls_b"}
    if not frozen:
        trained |= {"enc_w1", "enc_b1", "enc_w2", "enc_b2"}
    assert set(opts[0].buffers) == set(opts[0].grads) == trained
    for (name, arr), (_, ref) in zip(tuned.named_arrays(), result.params.named_arrays()):
        assert np.array_equal(arr, ref) == (name not in trained), name


def test_finetune_fresh_head_starts_from_zero():
    cfg = tiny_config(t_finetune=0)
    ds = dataset_from_config(cfg)
    result = pretrain(ds, cfg)
    tuned = finetune(result.params, ds, cfg, selection=result.selection)
    np.testing.assert_array_equal(tuned.cls_w, np.zeros_like(tuned.cls_w))


def test_finetune_head_fits_confident_set_on_frozen_encoder():
    cfg = tiny_config(finetune_encoder_scale=0.0, t_finetune=10, t_max=4)
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
    params, opt = fresh_start(cfg, ds)
    selection, _, _ = pretrain_epoch(params, opt, ds, cfg, 2, train_embedding(params, ds),
                                     time.perf_counter)
    with pytest.raises(ValueError, match="no confident examples selected: "
                                         "per_class_quota is 0$"):
        finetune(params, ds, cfg, selection=selection)


def test_neighbourhood_of_the_whole_split_selects_nothing():
    # with k >= n_train - 1 each example's vote runs over all the others, in
    # which its own class is one short on balanced data, so no vote agrees
    # with its label: every agreement count, and so the quota, is 0
    cfg = benchmark_config(n=100, noise_rate=0, k=500, t_max=3, t_finetune=1)
    ds = dataset_from_config(cfg)
    assert cfg.k >= len(ds.train_indices()) - 1
    result = pretrain(ds, cfg)
    selective = result.history[cfg.t_warm:]
    assert selective and all(r.n_confident == 0 and r.sim_threshold == float("inf")
                             for r in selective)
    assert result.selection.per_class_quota == 0


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
        self.whole_backprop = []  # backprop of each whole-split forward

        def logged(params, x, project=True, backprop=True):
            whole = next((name for name, rows in splits.items()
                          if np.shape(x) == rows.shape and np.array_equal(x, rows)), None)
            self.calls.append((whole, len(x), project))
            if whole is not None:
                self.whole_backprop.append(backprop)
            return real(params, x, project=project, backprop=backprop)
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
    # the whole-split embeddings are never backpropagated, so they keep no activations
    assert len(log.whole_backprop) == 2 * cfg.t_max + 1 and not any(log.whole_backprop)


def test_pretrain_without_warmup_selects_from_the_initial_embedding(monkeypatch):
    # with t_warm = 0 nothing has been measured before epoch 1, so pretrain
    # embeds the initial parameters once for the first selection
    cfg = tiny_config(t_warm=0, t_max=3)
    ds = dataset_from_config(cfg)
    initial, _ = fresh_start(cfg, ds)
    expected = compute_selection(train_embedding(initial, ds), ds, cfg, epoch_tag=1)
    kinds = []
    for name in ("warmup", "pretrain_epoch"):
        def counting(*args, name=name, real=getattr(training, name)):
            kinds.append(name)
            return real(*args)
        monkeypatch.setattr(training, name, counting)
    log = ForwardLog(monkeypatch, ds)
    result = pretrain(ds, cfg)
    assert kinds == ["pretrain_epoch"] * cfg.t_max
    assert [r.epoch for r in result.history] == [1, 2, 3]
    assert all(r.precision_examples is not None for r in result.history)
    assert log.count("train", True) == cfg.t_max + 1
    first = result.history[0]
    assert expected.confident.size > 0
    assert first.n_confident == expected.confident.size
    assert first.sim_threshold == expected.sim_threshold


def test_bank_is_embedded_afresh_after_parameters_change(monkeypatch):
    # each epoch embeds the parameters it trained once, for its record, and
    # hands that embedding on; the next epoch selects from it as it is
    cfg = tiny_config(t_warm=1, t_max=2)
    ds = dataset_from_config(cfg)
    params, opt = fresh_start(cfg, ds)
    log = ForwardLog(monkeypatch, ds)
    _, train_z = warmup(params, opt, ds, cfg, 1, time.perf_counter)
    assert log.count("train", True) == 1
    np.testing.assert_array_equal(train_z, forward(params, ds.instances[ds.train_indices()]).z)
    start = len(log.calls)
    selection, _, train_z = pretrain_epoch(params, opt, ds, cfg, 2, train_z, time.perf_counter)
    assert log.count("train", True, since=start) == 1  # the record's; the bank was handed on
    assert selection.confident.size > 0
    np.testing.assert_array_equal(train_z, forward(params, ds.instances[ds.train_indices()]).z)


def test_warmup_only_pretrain_selects_from_the_last_record_embedding(monkeypatch):
    # with no selective epoch, pretrain still returns the selection that
    # fine-tuning and the dumps use, made from the embedding the last record
    # measured: the train split is embedded once per record and never again
    cfg = tiny_config(t_warm=2, t_max=2)
    ds = dataset_from_config(cfg)
    embeddings, made = [], []

    def recording_embedding(params, ds, real=training.train_embedding):
        embeddings.append(real(params, ds))
        return embeddings[-1]

    def recording_selection(train_z, *args, real=training.compute_selection, **kwargs):
        made.append(train_z)
        return real(train_z, *args, **kwargs)
    monkeypatch.setattr(training, "train_embedding", recording_embedding)
    monkeypatch.setattr(training, "compute_selection", recording_selection)
    log = ForwardLog(monkeypatch, ds)
    result = pretrain(ds, cfg)
    assert log.count("train", True) == cfg.t_max
    assert len(made) == 1 and made[0] is embeddings[-1]

    monkeypatch.undo()
    expected = compute_selection(train_embedding(result.params, ds), ds, cfg)
    state = result.selection
    assert state.epoch_tag == 0
    assert state.confident.size > 0
    np.testing.assert_array_equal(state.confident, expected.confident)
    assert state.per_class_quota == expected.per_class_quota
    assert state.sim_threshold == expected.sim_threshold
    assert state.pairs == expected.pairs
    np.testing.assert_array_equal(state.pseudo.q_hat, expected.pseudo.q_hat)


def test_reusing_the_record_embedding_changes_nothing():
    # pretrain hands each epoch the embedding the previous record measured;
    # embedding afresh at every epoch must give the same bits
    cfg = tiny_config(t_warm=1, t_max=4, lr_schedule=[[3, 0.5]])
    ds = dataset_from_config(cfg)
    result = pretrain(ds, cfg, time_source=lambda: 0.0)

    params, opt = fresh_start(cfg, ds)
    history = []
    for epoch in range(1, cfg.t_max + 1):
        apply_lr_schedule(opt, epoch)
        fresh = train_embedding(params, ds)
        if epoch <= cfg.t_warm:
            record, _ = warmup(params, opt, ds, cfg, epoch, lambda: 0.0)
        else:
            selection, record, _ = pretrain_epoch(params, opt, ds, cfg, epoch, fresh,
                                                  lambda: 0.0)
        history.append(record)
    assert history == result.history
    assert selection.sim_threshold == result.selection.sim_threshold
    assert selection.pairs == result.selection.pairs
    for (name, arr), (_, ref) in zip(params.named_arrays(), result.params.named_arrays()):
        np.testing.assert_array_equal(arr, ref, err_msg=name)


# ---------------------------------------------------------------------------
# cross-entropy control
# ---------------------------------------------------------------------------

def test_baseline_learns_clean_separable_data():
    cfg = tiny_config(noise_rate=0.0, t_max=20, t_finetune=0)
    ds = dataset_from_config(cfg)
    ce = train_cross_entropy_baseline(ds, cfg)
    assert model_test_accuracy(ce, ds) >= 90.0


def test_baseline_deterministic():
    cfg = tiny_config(t_max=3, t_finetune=0)
    ds = dataset_from_config(cfg)
    a = train_cross_entropy_baseline(ds, cfg)
    b = train_cross_entropy_baseline(ds, cfg)
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
