"""Training loops: contrastive warm-up, per-epoch selection + composite loss,
classifier fine-tuning on the confident set, and a cross-entropy baseline.
"""
from __future__ import annotations

import dataclasses
import json
import logging
import time
from dataclasses import dataclass, field

import numpy as np

from .data import AugmentationSpec, Dataset, NoiseSpec, augment, inject_noise, make_blobs, mixup
from .evaluation import selection_precision, weighted_knn_eval
from .losses import (BatchView, classification_loss, compute_loss_bundle, masked_contrastive,
                     unsup_contrastive)
from .network import (NetworkParams, OptState, apply_lr_schedule, backward, forward,
                      init_params, sgd_step)
from .neighbors import EmbeddingBank, aggregate_pseudo_labels
from .selection import SelectionState, run_selection

logger = logging.getLogger(__name__)

UNSUPERVISED = "unsupervised"
SUPERVISED = "supervised"

# Independent RNG streams per run seed.
_STREAM_INIT = 0
_STREAM_TRAIN = 1
_STREAM_FINETUNE = 3
_STREAM_BASELINE = 4

METRICS_COLUMNS = ["epoch", "L_mix", "L_cls", "L_sim", "L_all", "n_T", "n_Gp", "n_Gpp",
                   "gamma", "prec_T", "prec_G", "knn_acc", "test_acc", "seconds"]


@dataclass
class RunConfig:
    """Flat run configuration; every field is a JSON config key of the same name.

    Loop sizes default to the full-scale recipe; benchmark_config() returns the
    small synthetic-benchmark variant used throughout the tests.
    """

    # selection
    alpha: float = 0.5            # fractile for the per-class confident budget
    beta: float = 0.25            # fractile for the pair similarity cut
    # losses
    tau: float = 0.1              # contrastive temperature
    alpha_m: float = 1.0          # Beta parameter for interpolation weights
    lambda_c: float = 1.0         # classification loss weight
    lambda_s: float = 0.01        # similarity loss weight
    # neighborhoods
    k: int = 250                  # neighbors for label correction (clipped to n-1)
    k_eval: int = 200             # neighbors for the KNN probe (clipped to n)
    tau_knn: float = 0.1          # KNN vote temperature
    knn_vote: str = "noisy"       # which train labels the KNN probe votes with
    count_labels: str = "pseudo"  # posterior counts corrected ("pseudo") or raw labels
    # optimization
    t_warm: int = 1
    t_max: int = 250
    t_finetune: int = 70
    batch_size: int = 128
    lr: float = 0.1
    lr_schedule: list = field(default_factory=lambda: [[126, 0.1], [201, 0.1]])
    momentum: float = 0.9
    weight_decay: float = 1e-4
    warmup_kind: str = UNSUPERVISED
    seed: int = 1
    # fine-tuning
    finetune_lr: float = 0.001
    finetune_encoder_scale: float = 0.1
    freeze_encoder: bool = False
    retrain_classifier: bool = True
    # architecture
    hidden_dim: int = 64
    proj_dim: int = 32
    projection: str = "linear"
    # augmentation
    jitter_sigma: float = 0.5
    drop_prob: float = 0.1
    scale_low: float = 0.9
    scale_high: float = 1.1
    # dataset (used when the harness generates data itself)
    n: int = 500
    classes: int = 4
    dim: int = 16
    cluster_spread: float = 0.5
    noise_kind: str = "symmetric"
    noise_rate: float = 0.4
    noise_seed: int = 0
    data_seed: int = 1

    def validate(self) -> "RunConfig":
        checks = [
            (0.0 <= self.alpha <= 1.0, "alpha must lie in [0, 1]"),
            (0.0 <= self.beta <= 1.0, "beta must lie in [0, 1]"),
            (self.tau > 0, "tau must be positive"),
            (self.alpha_m > 0, "alpha_m must be positive"),
            (self.k >= 1, "k must be >= 1"),
            (self.k_eval >= 1, "k_eval must be >= 1"),
            (self.tau_knn > 0, "tau_knn must be positive"),
            (self.knn_vote in ("noisy", "true"), "knn_vote must be 'noisy' or 'true'"),
            (self.count_labels in ("pseudo", "noisy"),
             "count_labels must be 'pseudo' or 'noisy'"),
            (0 <= self.t_warm <= self.t_max, "need 0 <= t_warm <= t_max"),
            (self.t_finetune >= 0, "t_finetune must be >= 0"),
            (self.batch_size >= 2, "batch_size must be >= 2"),
            (self.lr > 0, "lr must be positive"),
            (self.finetune_lr > 0, "finetune_lr must be positive"),
            (self.warmup_kind in (UNSUPERVISED, SUPERVISED),
             f"warmup_kind must be '{UNSUPERVISED}' or '{SUPERVISED}'"),
            (self.projection in ("linear", "mlp"), "projection must be 'linear' or 'mlp'"),
            (self.noise_kind in ("symmetric", "asymmetric"),
             "noise_kind must be 'symmetric' or 'asymmetric'"),
            (0.0 <= self.noise_rate <= 1.0, "noise_rate must lie in [0, 1]"),
        ]
        for ok, message in checks:
            if not ok:
                raise ValueError(message)
        for entry in self.lr_schedule:
            if len(entry) != 2:
                raise ValueError("lr_schedule entries must be [epoch, multiplier]")
        return self

    def as_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "RunConfig":
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        cfg = cls(**data)
        cfg.lr_schedule = [[int(e), float(m)] for e, m in cfg.lr_schedule]
        return cfg.validate()

    def to_json(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.as_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")

    @classmethod
    def from_json(cls, path) -> "RunConfig":
        with open(path) as fh:
            return cls.from_dict(json.load(fh))

    def augmentation(self) -> AugmentationSpec:
        return AugmentationSpec(jitter_sigma=self.jitter_sigma, drop_prob=self.drop_prob,
                                scale_range=(self.scale_low, self.scale_high))

    def weak_augmentation(self) -> AugmentationSpec:
        return AugmentationSpec(jitter_sigma=self.jitter_sigma)


def benchmark_config(**overrides) -> RunConfig:
    """Desk-scale blob benchmark: 500 points, 4 classes, 30 epochs."""
    base = dict(t_max=30, t_warm=1, t_finetune=20, batch_size=64, k=50,
                lr=0.01, lr_schedule=[])
    base.update(overrides)
    return RunConfig(**base).validate()


def dataset_from_config(cfg: RunConfig) -> Dataset:
    """Generate the blobs + label noise a config describes."""
    ds = make_blobs(cfg.n, cfg.classes, cfg.dim, cfg.cluster_spread, cfg.data_seed)
    if cfg.noise_rate > 0:
        ds = inject_noise(ds, NoiseSpec(kind=cfg.noise_kind, rate=cfg.noise_rate,
                                        rng_seed=cfg.noise_seed))
    return ds


@dataclass
class EpochRecord:
    """One metrics row; mirrors the metrics CSV columns."""

    epoch: int
    l_mix: float
    l_cls: float
    l_sim: float
    l_all: float
    n_confident: int
    n_pairs_confident: int
    n_pairs_similar: int
    sim_threshold: float
    precision_examples: float | None  # None when no example / pair was selected
    precision_pairs: float | None
    knn_accuracy: float
    test_accuracy: float
    seconds: float

    def csv_row(self) -> list[str]:
        return [str(self.epoch),
                f"{self.l_mix:.6f}", f"{self.l_cls:.6f}", f"{self.l_sim:.6f}",
                f"{self.l_all:.6f}",
                str(self.n_confident), str(self.n_pairs_confident),
                str(self.n_pairs_similar),
                f"{self.sim_threshold:.6f}",
                _cell(self.precision_examples), _cell(self.precision_pairs),
                f"{self.knn_accuracy:.4f}", f"{self.test_accuracy:.4f}",
                f"{self.seconds:.3f}"]


def _cell(value: float | None) -> str:
    """A precision cell: empty when there was nothing to measure."""
    return "" if value is None else f"{value:.4f}"


def write_metrics_csv(history: list[EpochRecord], path) -> None:
    lines = [",".join(METRICS_COLUMNS)]
    lines += [",".join(rec.csv_row()) for rec in history]
    with open(path, "w", newline="") as fh:
        fh.write("\n".join(lines) + "\n")


@dataclass
class PretrainResult:
    params: NetworkParams
    history: list[EpochRecord]
    selection: SelectionState | None


def _epoch_rng(seed: int, stream: int, epoch: int) -> np.random.Generator:
    return np.random.default_rng([seed, stream, epoch])


def _train_arrays(ds: Dataset):
    idx = ds.train_indices()
    return (ds.instances[idx], ds.true_labels[idx], ds.noisy_labels[idx])


def _augment_rows(rows: np.ndarray, spec: AugmentationSpec,
                  rng: np.random.Generator) -> np.ndarray:
    return np.stack([augment(row, spec, rng) for row in rows])


def _view_batches(x_train: np.ndarray, labels: np.ndarray, cfg: RunConfig,
                  rng: np.random.Generator):
    """Shuffle the train rows and yield one minibatch at a time as
    (views, origins, labels, twin): two augmented views per example, stacked
    [first views; second views], with each view's train row, label and the
    position of its twin view.

    Every contrastive epoch draws its batches here; the consumer may draw
    from `rng` between batches.
    """
    aug = cfg.augmentation()
    perm = rng.permutation(len(x_train))
    for start in range(0, len(perm), cfg.batch_size):
        batch_idx = perm[start:start + cfg.batch_size]
        nb = len(batch_idx)
        views = np.concatenate([_augment_rows(x_train[batch_idx], aug, rng),
                                _augment_rows(x_train[batch_idx], aug, rng)])
        twin = np.concatenate([np.arange(nb) + nb, np.arange(nb)])
        yield (views, np.concatenate([batch_idx, batch_idx]),
               np.concatenate([labels[batch_idx], labels[batch_idx]]), twin)


def _label_mask(labels: np.ndarray) -> np.ndarray:
    mask = labels[:, None] == labels[None, :]
    np.fill_diagonal(mask, False)
    return mask


def _contrastive_epoch(params, opt, ds, cfg, epoch, kind, on_step=None) -> float:
    """Selection-free epoch (warm-up or empty-selection fallback)."""
    x_train, _, noisy = _train_arrays(ds)
    rng = _epoch_rng(cfg.seed, _STREAM_TRAIN, epoch)
    values = []
    for views, origins, labels, twin in _view_batches(x_train, noisy, cfg, rng):
        cache = forward(params, views)
        if kind == SUPERVISED:
            value, grad_z = masked_contrastive(cache.z, _label_mask(labels), cfg.tau)
        else:
            value, grad_z = unsup_contrastive(
                BatchView(z=cache.z, p_hat=cache.p_hat, origins=origins, labels=labels,
                          twin=twin), cfg.tau)
        sgd_step(params, backward(params, cache, grad_z=grad_z), opt)
        values.append(value)
        if on_step is not None:
            on_step(len(values) - 1, value)
    return float(np.mean(values))


def _cross_entropy_epoch(params, opt, x_train, labels, rows, cfg, rng,
                         aug: AugmentationSpec | None = None) -> None:
    """One epoch of classifier cross-entropy over the train `rows` in random
    order, one weak view per row when `aug` is given, raw rows otherwise."""
    perm = rows[rng.permutation(len(rows))]
    for start in range(0, len(perm), cfg.batch_size):
        batch_idx = perm[start:start + cfg.batch_size]
        x = x_train[batch_idx] if aug is None else _augment_rows(x_train[batch_idx], aug, rng)
        cache = forward(params, x, project=False)
        _, grad_p = classification_loss(cache.p_hat, labels[batch_idx],
                                        np.ones(len(batch_idx), dtype=bool))
        sgd_step(params, backward(params, cache, grad_p=grad_p), opt)


def _train_embedding(params: NetworkParams, ds: Dataset) -> np.ndarray:
    """The unit projections z of the train rows under `params`."""
    return forward(params, ds.instances[ds.train_indices()]).z


def model_metrics(params: NetworkParams, ds: Dataset, cfg: RunConfig,
                  train_z: np.ndarray | None = None) -> tuple[float, float]:
    """(weighted-KNN accuracy, classifier accuracy) on the test split, in
    percent; the probe votes with the train labels cfg.knn_vote names.

    train_z is the train rows' embedding z under `params`, when the caller
    already has it.
    """
    _, true_train, noisy_train = _train_arrays(ds)
    if train_z is None:
        train_z = _train_embedding(params, ds)
    test_idx = ds.test_indices()
    test_cache = forward(params, ds.instances[test_idx])
    vote = noisy_train if cfg.knn_vote == "noisy" else true_train
    knn = weighted_knn_eval(train_z, vote, test_cache.z, ds.true_labels[test_idx],
                            k=min(cfg.k_eval, len(train_z)), tau=cfg.tau_knn)
    preds = np.argmax(test_cache.p_hat, axis=1)
    test_acc = 100.0 * float(np.mean(preds == ds.true_labels[test_idx]))
    return knn, test_acc


def _record(epoch, losses, selection, prec, metrics, seconds) -> EpochRecord:
    l_mix, l_cls, l_sim, l_all = losses
    if selection is None:
        n_conf = n_gp = n_gpp = 0
        threshold = float("inf")
    else:
        n_conf = int(selection.confident.size)
        n_gp = selection.n_pairs_confident
        n_gpp = selection.n_pairs_similar
        threshold = selection.sim_threshold
    return EpochRecord(epoch=epoch, l_mix=l_mix, l_cls=l_cls, l_sim=l_sim, l_all=l_all,
                       n_confident=n_conf, n_pairs_confident=n_gp, n_pairs_similar=n_gpp,
                       sim_threshold=threshold, precision_examples=prec[0],
                       precision_pairs=prec[1], knn_accuracy=metrics[0],
                       test_accuracy=metrics[1], seconds=seconds)


def compute_selection(params: NetworkParams, ds: Dataset, cfg: RunConfig,
                      epoch_tag: int = 0, train_z: np.ndarray | None = None) -> SelectionState:
    """Embed the train split with `params`, vote pseudo-labels among each
    example's k nearest neighbors and select confident examples and pairs.

    The one way a selection is made: each selective epoch, fine-tuning without
    a given selection, and the command line when no selective epoch ran.
    train_z is the train rows' embedding z under `params`, when the caller
    already has it.
    """
    x_train, _, noisy_train = _train_arrays(ds)
    if train_z is None:
        train_z = _train_embedding(params, ds)
    bank = EmbeddingBank(train_z, epoch_tag=epoch_tag)
    pseudo = aggregate_pseudo_labels(bank, noisy_train, k=min(cfg.k, len(x_train) - 1),
                                     n_classes=ds.n_classes, count_labels=cfg.count_labels)
    return run_selection(bank, noisy_train, pseudo, cfg.alpha, cfg.beta,
                         epoch_tag=epoch_tag)


def warmup(params: NetworkParams, ds: Dataset, cfg: RunConfig, opt: OptState | None = None,
           history: list | None = None, on_step=None,
           time_source=time.perf_counter) -> tuple[NetworkParams, np.ndarray | None]:
    """Epochs 1..t_warm of selection-free contrastive training (in place).

    Returns (params, train_z): train_z is the train rows' embedding z under
    the returned params, which the last epoch record was measured on, or
    None when no record was made (no history, or t_warm == 0).
    """
    if opt is None:
        opt = OptState.for_params(params, cfg.lr, cfg.momentum, cfg.weight_decay,
                                  cfg.lr_schedule)
    train_z = None
    for epoch in range(1, cfg.t_warm + 1):
        apply_lr_schedule(opt, epoch)
        started = time_source()
        value = _contrastive_epoch(params, opt, ds, cfg, epoch, cfg.warmup_kind,
                                   on_step=on_step)
        if history is not None:
            train_z = _train_embedding(params, ds)
            history.append(_record(epoch, (value, 0.0, 0.0, value), None, (None, None),
                                   model_metrics(params, ds, cfg, train_z),
                                   time_source() - started))
    return params, train_z


def pretrain_epoch(params: NetworkParams, ds: Dataset, cfg: RunConfig, epoch: int,
                   opt: OptState | None = None, time_source=time.perf_counter,
                   train_z: np.ndarray | None = None):
    """One selective epoch: embed, select, then composite-loss minibatches.

    train_z is the train rows' embedding z under `params` when the caller
    already has it, as the last epoch record measured it; the train rows are
    embedded here otherwise.
    Returns (params, SelectionState, EpochRecord, train_z), where train_z is
    the embedding of the returned params that the record was measured on.
    The caller owns learning-rate scheduling; a fresh optimizer (with cold
    momentum) is built when none is given.
    """
    if opt is None:
        opt = OptState.for_params(params, cfg.lr, cfg.momentum, cfg.weight_decay,
                                  cfg.lr_schedule)
    started = time_source()
    x_train, true_train, noisy_train = _train_arrays(ds)
    n_train = len(x_train)
    # The embedding returned for the next epoch outlives this epoch's (n, n)
    # selection arrays. Allocated before them, it does not sit above them on
    # the heap, so the allocator can return their pages once they are freed;
    # allocated last, it kept them resident and raised the peak RSS of the
    # `scale` benchmark workload by 13 MB under glibc.
    next_z = np.empty((n_train, params.proj_dim))
    selection = compute_selection(params, ds, cfg, epoch_tag=epoch, train_z=train_z)

    if selection.confident.size == 0:
        logger.warning("epoch %d: empty confident set; training unsupervised", epoch)
        value = _contrastive_epoch(params, opt, ds, cfg, epoch, UNSUPERVISED)
        losses = (value, 0.0, 0.0, value)
    else:
        rng = _epoch_rng(cfg.seed, _STREAM_TRAIN, epoch)
        confident = selection.confident_mask(n_train)
        sums = np.zeros(4)
        steps = 0
        for views, origins, labels, twin in _view_batches(x_train, noisy_train, cfg, rng):
            mixed_x, partner, lam, dominant = mixup(views, cfg.alpha_m, rng)
            mixed_cache = forward(params, mixed_x)
            plain_cache = forward(params, views, project=False)  # only p_hat is read
            mixed_batch = BatchView(z=mixed_cache.z, p_hat=mixed_cache.p_hat,
                                    origins=origins[dominant], labels=labels[dominant],
                                    twin=twin, mix_a=origins, mix_b=origins[partner], lam=lam)
            plain_batch = BatchView(z=None, p_hat=plain_cache.p_hat,
                                    origins=origins, labels=labels, twin=twin)
            bundle = compute_loss_bundle(mixed_batch, plain_batch, selection.pair_mask,
                                         scored=confident[origins], tau=cfg.tau,
                                         lambda_cls=cfg.lambda_c, lambda_sim=cfg.lambda_s)
            grads = backward(params, mixed_cache, grad_z=bundle.grad_z)
            backward(params, plain_cache, grad_p=bundle.grad_p, into=grads)
            sgd_step(params, grads, opt)
            sums += (bundle.l_mix, bundle.l_cls, bundle.l_sim, bundle.l_all)
            steps += 1
        losses = tuple(sums / steps)

    train_z = next_z
    np.copyto(train_z, _train_embedding(params, ds))
    record = _record(epoch, losses, selection,
                     selection_precision(selection, true_train, noisy_train),
                     model_metrics(params, ds, cfg, train_z), time_source() - started)
    return params, selection, record, train_z


def pretrain(ds: Dataset, cfg: RunConfig, time_source=time.perf_counter,
             on_epoch=None) -> PretrainResult:
    """Warm-up followed by selective epochs up to t_max.

    The returned history has exactly t_max records; selection is the final
    epoch's (None when t_max == t_warm).
    """
    cfg.validate()
    params = init_params(ds.dim, ds.n_classes, hidden=cfg.hidden_dim,
                         proj_dim=cfg.proj_dim, projection=cfg.projection,
                         seed=[cfg.seed, _STREAM_INIT, 0])
    opt = OptState.for_params(params, cfg.lr, cfg.momentum, cfg.weight_decay,
                              cfg.lr_schedule)
    history: list[EpochRecord] = []
    params, train_z = warmup(params, ds, cfg, opt=opt, history=history,
                             time_source=time_source)
    selection = None
    for epoch in range(cfg.t_warm + 1, cfg.t_max + 1):
        apply_lr_schedule(opt, epoch)
        selection = None  # free the last epoch's masks before the next are built
        # train_z embeds the parameters this epoch starts from: nothing trained
        # since the last record measured it
        params, selection, record, train_z = pretrain_epoch(
            params, ds, cfg, epoch, opt=opt, time_source=time_source, train_z=train_z)
        history.append(record)
        if on_epoch is not None:
            on_epoch(record, selection)
    return PretrainResult(params=params, history=history, selection=selection)


def finetune(params: NetworkParams, ds: Dataset, cfg: RunConfig,
             selection: SelectionState | None = None,
             time_source=time.perf_counter) -> NetworkParams:
    """Cross-entropy training of the classifier head on the confident examples.

    The head restarts from zeros unless cfg.retrain_classifier is False (a
    zero linear head is the symmetric start for this convex sub-problem and
    stays stable whatever scale the encoder output has reached); the encoder
    follows at finetune_encoder_scale times the head's learning rate (or not
    at all with freeze_encoder); the projection head is untouched.
    Raises when the confident set is empty.
    """
    cfg.validate()
    if selection is None:
        selection = compute_selection(params, ds, cfg)
    if selection.confident.size == 0:
        raise ValueError("no confident examples selected; lower alpha and retry")

    params = params.copy()
    if cfg.retrain_classifier:
        params.cls_w = np.zeros_like(params.cls_w)
        params.cls_b = np.zeros_like(params.cls_b)

    encoder_scale = 0.0 if cfg.freeze_encoder else cfg.finetune_encoder_scale
    lr_scale = {name: encoder_scale for name in
                ("enc_w1", "enc_b1", "enc_w2", "enc_b2")}
    lr_scale.update({name: 0.0 for name, _ in params.named_arrays()
                     if name.startswith("proj")})
    opt = OptState.for_params(params, cfg.finetune_lr, cfg.momentum, cfg.weight_decay,
                              schedule=[], lr_scale=lr_scale)

    x_train, _, noisy_train = _train_arrays(ds)
    aug = cfg.weak_augmentation()
    for epoch in range(1, cfg.t_finetune + 1):
        _cross_entropy_epoch(params, opt, x_train, noisy_train, selection.confident, cfg,
                             _epoch_rng(cfg.seed, _STREAM_FINETUNE, epoch), aug)
    return params


def train_cross_entropy_baseline(ds: Dataset, cfg: RunConfig,
                                 epochs: int | None = None) -> NetworkParams:
    """Plain cross-entropy on all noisy train labels; the no-selection control.

    Matches the main pipeline's architecture, optimizer and learning-rate
    schedule, and runs t_max + t_finetune epochs unless told otherwise.
    Trains on the raw instances — augmentation belongs to the contrastive
    method, not to the vanilla control it is compared against.
    """
    cfg.validate()
    if epochs is None:
        epochs = cfg.t_max + cfg.t_finetune
    params = init_params(ds.dim, ds.n_classes, hidden=cfg.hidden_dim,
                         proj_dim=cfg.proj_dim, projection=cfg.projection,
                         seed=[cfg.seed, _STREAM_INIT, 0])
    opt = OptState.for_params(params, cfg.lr, cfg.momentum, cfg.weight_decay,
                              cfg.lr_schedule)
    x_train, _, noisy_train = _train_arrays(ds)
    rows = np.arange(len(x_train))
    for epoch in range(1, epochs + 1):
        apply_lr_schedule(opt, epoch)
        _cross_entropy_epoch(params, opt, x_train, noisy_train, rows, cfg,
                             _epoch_rng(cfg.seed, _STREAM_BASELINE, epoch))
    return params


def test_accuracy(params: NetworkParams, ds: Dataset) -> float:
    """Classifier accuracy (percent) on the test split."""
    test_idx = ds.test_indices()
    cache = forward(params, ds.instances[test_idx], project=False)
    preds = np.argmax(cache.p_hat, axis=1)
    return 100.0 * float(np.mean(preds == ds.true_labels[test_idx]))
