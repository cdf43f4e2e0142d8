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

from .data import Dataset, augment, check_blob_args, inject_noise, make_blobs, mixup
from .evaluation import selection_precision, weighted_knn_eval
from .losses import (classification_loss, masked_contrastive, mixup_contrastive,
                     similarity_loss, total_loss, unsup_contrastive)
from .network import (NetworkParams, OptState, apply_lr_schedule, backward, forward,
                      init_params, sgd_step)
from .neighbors import EmbeddingBank, aggregate_pseudo_labels, row_blocks
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

    The defaults are the one set every run starts from: the desk-scale noisy
    blob benchmark (500 points, 4 classes, 30 epochs). A config file or a
    flag changes a key from there; the README gives the paper-scale loop
    keys as a config file.
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
    k: int = 50                   # neighbors for label correction (clipped to n-1)
    k_eval: int = 200             # neighbors for the KNN probe (clipped to n)
    tau_knn: float = 0.1          # KNN vote temperature
    count_labels: str = "pseudo"  # posterior counts corrected ("pseudo") or raw labels
    # optimization
    t_warm: int = 1
    t_max: int = 30
    t_finetune: int = 20
    batch_size: int = 64
    lr: float = 0.01
    lr_schedule: list = field(default_factory=list)
    momentum: float = 0.9
    weight_decay: float = 1e-4
    warmup_kind: str = UNSUPERVISED
    seed: int = 1
    # fine-tuning
    finetune_lr: float = 0.001
    finetune_encoder_scale: float = 0.1  # 0 freezes the encoder
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
        """Raise ValueError on the first bad field (each has its default's
        type, as the flags parse it: a float key also takes an int and stores
        a float, no key takes a bool); otherwise normalize lr_schedule to
        [[int, float], ...] and return self."""
        for f in dataclasses.fields(self):
            kind = type(f.default_factory() if f.default is dataclasses.MISSING else f.default)
            value = getattr(self, f.name)
            accepted = (int, float) if kind is float else kind
            if isinstance(value, bool) or not isinstance(value, accepted):
                raise ValueError(f"{f.name} must be {kind.__name__}, got {value!r}")
            setattr(self, f.name, float(value) if kind is float else value)
        checks = [
            (0.0 <= self.alpha <= 1.0, "alpha must lie in [0, 1]"),
            (0.0 <= self.beta <= 1.0, "beta must lie in [0, 1]"),
            (self.tau > 0, "tau must be positive"),
            (self.alpha_m > 0, "alpha_m must be positive"),
            (self.k >= 1, "k must be >= 1"),
            (self.k_eval >= 1, "k_eval must be >= 1"),
            (self.tau_knn > 0, "tau_knn must be positive"),
            (self.count_labels in ("pseudo", "noisy"),
             "count_labels must be 'pseudo' or 'noisy'"),
            (self.t_max >= 1, "t_max must be >= 1"),
            (0 <= self.t_warm <= self.t_max, "need 0 <= t_warm <= t_max"),
            (self.t_finetune >= 0, "t_finetune must be >= 0"),
            (self.batch_size >= 2, "batch_size must be >= 2"),
            (self.lr > 0, "lr must be positive"),
            (self.finetune_lr > 0, "finetune_lr must be positive"),
            (self.finetune_encoder_scale >= 0, "finetune_encoder_scale must be >= 0"),
            (self.hidden_dim >= 1, "hidden_dim must be >= 1"),
            (self.proj_dim >= 1, "proj_dim must be >= 1"),
            (self.warmup_kind in (UNSUPERVISED, SUPERVISED),
             f"warmup_kind must be '{UNSUPERVISED}' or '{SUPERVISED}'"),
            (self.projection in ("linear", "mlp"), "projection must be 'linear' or 'mlp'"),
            (self.noise_kind in ("symmetric", "asymmetric"),
             "noise_kind must be 'symmetric' or 'asymmetric'"),
            (0.0 <= self.noise_rate <= 1.0, "noise_rate must lie in [0, 1]"),
            (self.jitter_sigma >= 0, "jitter_sigma must be >= 0"),
            (0.0 <= self.drop_prob <= 1.0, "drop_prob must lie in [0, 1]"),
            (0 < self.scale_low <= self.scale_high, "scale_range must satisfy 0 < low <= high"),
            (any(n_test for _, n_test in check_blob_args(self.n, self.classes, self.dim,
                                                         self.cluster_spread)),
             f"n={self.n} leaves the test split of {self.classes} classes empty"),
        ]
        for ok, message in checks:
            if not ok:
                raise ValueError(message)
        for entry in self.lr_schedule:
            if (len(entry) != 2 or isinstance(entry[0], (bool, float))
                    or isinstance(entry[1], bool)):
                raise ValueError(f"bad lr_schedule entry {entry!r}: need [int epoch, multiplier]")
        self.lr_schedule = [[int(e), float(m)] for e, m in self.lr_schedule]
        return self

    def as_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "RunConfig":
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        return cls(**data).validate()

    def to_json(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.as_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")

    @classmethod
    def from_json(cls, path) -> "RunConfig":
        with open(path) as fh:
            return cls.from_dict(json.load(fh))


def benchmark_config(**overrides) -> RunConfig:
    """The default run with `overrides` applied, validated."""
    return RunConfig(**overrides).validate()


# The RunConfig keys dataset_from_config reads.
DATASET_KEYS = ("n", "classes", "dim", "cluster_spread", "noise_kind", "noise_rate",
                "noise_seed", "data_seed")


def dataset_from_config(cfg: RunConfig) -> Dataset:
    """Generate the blobs + label noise a config describes."""
    ds = make_blobs(cfg.n, cfg.classes, cfg.dim, cfg.cluster_spread, cfg.data_seed)
    if cfg.noise_rate > 0:
        ds = inject_noise(ds, cfg.noise_kind, cfg.noise_rate, cfg.noise_seed)
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
    """Trained parameters, one record per epoch, and the selection that
    fine-tuning and the selection dumps use."""

    params: NetworkParams
    history: list[EpochRecord]
    selection: SelectionState


def _epoch_rng(seed: int, stream: int, epoch: int) -> np.random.Generator:
    return np.random.default_rng([seed, stream, epoch])


def _view_batches(ds: Dataset, cfg: RunConfig, rng: np.random.Generator):
    """Shuffle the train rows and yield one minibatch at a time as
    (views, origins, labels, twin): two augmented views per example, stacked
    [first views; second views], with each view's train row, noisy label and
    the position of its twin view.

    Draws the permutation, then one `augment` call per batch, on the rows
    origins = [batch; batch] of the train split, gathered from ds.instances
    per batch (no copy of the split is made). Every contrastive epoch draws
    its batches here; the consumer may draw from `rng` between batches.
    """
    train = ds.train_indices()
    perm = rng.permutation(len(train))
    for start in range(0, len(perm), cfg.batch_size):
        batch_idx = perm[start:start + cfg.batch_size]
        origins = np.concatenate([batch_idx, batch_idx])
        twin = np.roll(np.arange(len(origins)), len(batch_idx))
        rows = train[origins]
        yield (augment(ds.instances[rows], rng, cfg.jitter_sigma, cfg.drop_prob, cfg.scale_low,
                       cfg.scale_high), origins, ds.noisy_labels[rows], twin)


def _label_mask(labels: np.ndarray) -> np.ndarray:
    mask = labels[:, None] == labels[None, :]
    np.fill_diagonal(mask, False)
    return mask


def _contrastive_epoch(params, opt, ds, cfg, epoch, kind) -> float:
    """Selection-free epoch (warm-up or empty-selection fallback)."""
    rng = _epoch_rng(cfg.seed, _STREAM_TRAIN, epoch)
    values = []
    for views, _, labels, twin in _view_batches(ds, cfg, rng):
        cache = forward(params, views)
        if kind == SUPERVISED:
            value, grad_z = masked_contrastive(cache.z, _label_mask(labels), cfg.tau)
        else:
            value, grad_z = unsup_contrastive(cache.z, twin, cfg.tau)
        sgd_step(params, backward(params, cache, grad_z=grad_z, out=opt.grads), opt)
        values.append(value)
    return float(np.mean(values))


def _cross_entropy_epoch(params, opt, ds, rows, cfg, rng, weak_views: bool = False) -> None:
    """One epoch of classifier cross-entropy on the noisy labels of the
    dataset `rows` in random order, each batch gathered from ds.instances:
    one weak view per row (jitter only) when `weak_views`, raw rows
    otherwise."""
    perm = rows[rng.permutation(len(rows))]
    for start in range(0, len(perm), cfg.batch_size):
        batch_idx = perm[start:start + cfg.batch_size]
        x = ds.instances[batch_idx]
        x = augment(x, rng, cfg.jitter_sigma) if weak_views else x
        cache = forward(params, x, project=False)
        _, grad_p = classification_loss(cache.p_hat, ds.noisy_labels[batch_idx],
                                        np.ones(len(batch_idx), dtype=bool))
        sgd_step(params, backward(params, cache, grad_p=grad_p, out=opt.grads), opt)


def embed_rows(params: NetworkParams, x: np.ndarray, rows: np.ndarray,
               project: bool = True) -> tuple[np.ndarray | None, np.ndarray]:
    """(z, p_hat) of the rows x[rows] under `params`, in the network's
    dtype (z is None with project=False): the one read of a whole split.

    forward runs once per block of row_blocks(len(rows), params.hidden), so
    one block's activations are alive at a time. A block is bit-equal to the
    same rows of one forward over x[rows] when BLAS sums its products as it
    sums the whole's. None is a short remainder (their lengths differ by at
    most one row), but OpenBLAS 0.3.31 sums a product of at most about 1200
    cells in another order, e.g. 300 rows of 4 logits, so p_hat, n_classes
    wide, may differ from the whole's in its last bits.
    """
    z = np.empty((len(rows), params.proj_dim), params.enc_w1.dtype) if project else None
    p_hat = np.empty((len(rows), params.n_classes), params.enc_w1.dtype)
    for start, stop in row_blocks(len(rows), params.hidden):
        cache = forward(params, x[rows[start:stop]], project=project)
        p_hat[start:stop] = cache.p_hat
        if project:
            z[start:stop] = cache.z
        del cache  # this block's activations go before the next block's come
    return z, p_hat


def train_embedding(params: NetworkParams, ds: Dataset) -> EmbeddingBank:
    """The bank of the train rows under `params`: their unit projections z
    (embed_rows), widened (exactly) to float64 and rounded to the bank's grid.
    The one way the train split is embedded: each epoch's record makes one
    bank here, which its kNN probe reads, the record hands on and the next
    selection votes on.
    """
    return EmbeddingBank(embed_rows(params, ds.instances, ds.train_indices())[0])


# The RunConfig keys model_metrics reads.
PROBE_KEYS = ("k_eval", "tau_knn")


def model_metrics(params: NetworkParams, ds: Dataset, cfg: RunConfig,
                  bank: EmbeddingBank) -> tuple[float, float]:
    """(weighted-KNN accuracy, classifier accuracy) on the test split, in
    percent; the probe votes with the noisy train labels.

    bank is train_embedding(params, ds); the probe reads its rows as they are.
    """
    noisy_train = ds.noisy_labels[ds.train_indices()]
    test_idx = ds.test_indices()
    test_z, test_p_hat = embed_rows(params, ds.instances, test_idx)
    knn = weighted_knn_eval(bank, noisy_train, test_z, ds.true_labels[test_idx],
                            k=min(cfg.k_eval, bank.n), tau=cfg.tau_knn)
    return knn, _test_split_accuracy(test_p_hat, ds)


def _test_split_accuracy(p_hat: np.ndarray, ds: Dataset) -> float:
    """Argmax accuracy (percent) of p_hat, the test split's class posteriors."""
    return 100.0 * float(np.mean(np.argmax(p_hat, axis=1) == ds.true_labels[ds.test_indices()]))


def _record(params, ds, cfg, epoch, losses, selection, started,
            time_source) -> tuple[EpochRecord, EmbeddingBank]:
    """The tail of every epoch: embed the train split under the epoch's
    trained `params` once, measure the selection's precision (none after
    warm-up, selection None) and the probe on that bank, and return the
    record, whose losses are (l_mix, l_cls, l_sim, l_all), with the bank."""
    bank = train_embedding(params, ds)
    if selection is None:
        n_conf = n_gp = n_gpp = 0
        threshold = float("inf")
        prec = (None, None)
    else:
        n_conf = int(selection.confident.size)
        n_gp = selection.n_pairs_confident
        n_gpp = selection.n_pairs_similar
        threshold = selection.sim_threshold
        prec = selection_precision(selection, ds.true_labels[ds.train_indices()])
    knn, test_acc = model_metrics(params, ds, cfg, bank)
    record = EpochRecord(epoch, *losses, n_confident=n_conf, n_pairs_confident=n_gp,
                         n_pairs_similar=n_gpp, sim_threshold=threshold,
                         precision_examples=prec[0], precision_pairs=prec[1],
                         knn_accuracy=knn, test_accuracy=test_acc,
                         seconds=time_source() - started)
    return record, bank


# The RunConfig keys compute_selection reads.
SELECTION_KEYS = ("k", "alpha", "beta", "count_labels")


def compute_selection(bank: EmbeddingBank, ds: Dataset, cfg: RunConfig,
                      epoch_tag: int = 0) -> SelectionState:
    """Vote pseudo-labels among each train example's k nearest neighbors in
    the bank (train_embedding of some parameters) and select confident
    examples and pairs; the selection's z is bank.z.

    The one way a selection is made: each selective epoch, the end of a
    warm-up-only run, and dump-proj.
    """
    noisy_train = ds.noisy_labels[ds.train_indices()]
    pseudo = aggregate_pseudo_labels(bank, noisy_train, k=min(cfg.k, bank.n - 1),
                                     n_classes=ds.n_classes, count_labels=cfg.count_labels)
    return run_selection(bank, noisy_train, pseudo, cfg.alpha, cfg.beta,
                         epoch_tag=epoch_tag)


def warmup(params: NetworkParams, opt: OptState, ds: Dataset, cfg: RunConfig, epoch: int,
           time_source) -> tuple[EpochRecord, EmbeddingBank]:
    """One warm-up epoch of selection-free contrastive training (in place).

    Returns (record, bank): bank is train_embedding(params, ds) of the
    trained params, which the record's probe read.
    """
    started = time_source()
    value = _contrastive_epoch(params, opt, ds, cfg, epoch, cfg.warmup_kind)
    return _record(params, ds, cfg, epoch, (value, 0.0, 0.0, value), None, started,
                   time_source)


def _selective_step(params, opt, batch, selection, confident, cfg,
                    rng) -> tuple[float, float, float, float]:
    """One composite-loss minibatch of a selective epoch (in place); returns
    (l_mix, l_cls, l_sim, l_all).

    Mixup is drawn from `rng`. Every pair mask comes from one block,
    selection.pair_block(origins, origins) over the 2N views: a cell depends
    only on its two examples, so anchor i's ingredient a (origins[i])
    against view j's dominant ingredient (origins[dominant[j]]) is
    block[i, dominant[j]], and its ingredient b (origins[partner[i]]) is
    block[partner[i], dominant[j]]. The step runs in two halves that share
    only the parameters and opt's gradient workspace, so the two view sets'
    activations are never alive together: the mixed half runs Sup-CL on the
    mixed views and a backward that fills the workspace; the plain half runs
    the classification and similarity losses on a projection-free forward,
    a backward that adds into the workspace, and the SGD step. `batch` is
    one item of _view_batches, `confident` the train rows' mask of the
    confident set."""
    views, origins, labels, twin = batch
    mixed_x, partner, lam, dominant = mixup(views, cfg.alpha_m, rng)
    block = selection.pair_block(origins, origins)
    mixed = forward(params, mixed_x)
    l_mix, grad_z = mixup_contrastive(mixed.z, block[:, dominant], block[partner][:, dominant],
                                      twin, lam, cfg.tau)
    backward(params, mixed, grad_z=grad_z, out=opt.grads)
    del mixed, grad_z
    plain = forward(params, views, project=False)  # only p_hat is read
    l_cls, g_cls = classification_loss(plain.p_hat, labels, confident[origins])
    l_sim, g_sim = similarity_loss(plain.p_hat, block)
    grad_p = cfg.lambda_c * g_cls + cfg.lambda_s * g_sim
    sgd_step(params, backward(params, plain, grad_p=grad_p, into=opt.grads), opt)
    return l_mix, l_cls, l_sim, total_loss(l_mix, l_cls, l_sim, cfg.lambda_c, cfg.lambda_s)


def pretrain_epoch(params: NetworkParams, opt: OptState, ds: Dataset, cfg: RunConfig,
                   epoch: int, bank: EmbeddingBank, time_source):
    """One selective epoch (in place): select from bank, then composite-loss
    minibatches.

    bank is train_embedding(params, ds) of the params the epoch starts from.
    Returns (SelectionState, EpochRecord, bank), where the returned bank
    embeds the trained params and the record's probe read it.
    """
    started = time_source()
    selection = compute_selection(bank, ds, cfg, epoch_tag=epoch)

    if selection.confident.size == 0:
        logger.warning("epoch %d: empty confident set; training unsupervised", epoch)
        value = _contrastive_epoch(params, opt, ds, cfg, epoch, UNSUPERVISED)
        losses = (value, 0.0, 0.0, value)
    else:
        rng = _epoch_rng(cfg.seed, _STREAM_TRAIN, epoch)
        sums = np.zeros(4)
        steps = 0
        for batch in _view_batches(ds, cfg, rng):
            sums += _selective_step(params, opt, batch, selection, selection.is_confident,
                                    cfg, rng)
            steps += 1
        losses = tuple(sums / steps)

    record, bank = _record(params, ds, cfg, epoch, losses, selection, started, time_source)
    return selection, record, bank


def _start_run(ds: Dataset, cfg: RunConfig) -> tuple[NetworkParams, OptState]:
    """Validate cfg; the initial parameters and optimizer of pretrain and the baseline."""
    cfg.validate()
    params = init_params(ds.dim, ds.n_classes, hidden=cfg.hidden_dim,
                         proj_dim=cfg.proj_dim, projection=cfg.projection,
                         seed=[cfg.seed, _STREAM_INIT, 0])
    return params, OptState.for_params(params, cfg.lr, cfg.momentum, cfg.weight_decay,
                                       cfg.lr_schedule)


def pretrain(ds: Dataset, cfg: RunConfig, time_source=time.perf_counter) -> PretrainResult:
    """Epochs 1..t_max: warm-up up to t_warm, selective epochs after it.

    Owns the optimizer and its learning-rate schedule. Each selective epoch
    selects from the bank the previous epoch's record probed (nothing trains
    in between); with no warm-up, the first one selects from the initial
    parameters' bank. The returned history has exactly t_max records.
    selection is the last selective epoch's, or, when only warm-up ran, one
    made (epoch_tag 0) from the bank the last record probed.
    """
    params, opt = _start_run(ds, cfg)
    history: list[EpochRecord] = []
    # nothing is measured before the first epoch: without warm-up, embed the
    # initial parameters for the first selection
    bank = train_embedding(params, ds) if cfg.t_warm == 0 else None
    for epoch in range(1, cfg.t_max + 1):
        apply_lr_schedule(opt, epoch)
        if epoch <= cfg.t_warm:
            record, bank = warmup(params, opt, ds, cfg, epoch, time_source)
        else:
            selection = None  # the last epoch's selection is dead once this one votes
            selection, record, bank = pretrain_epoch(params, opt, ds, cfg, epoch, bank,
                                                     time_source)
        history.append(record)
    if cfg.t_warm == cfg.t_max:  # no selective epoch ran
        selection = compute_selection(bank, ds, cfg)
    return PretrainResult(params, history, selection)


def finetune(params: NetworkParams, ds: Dataset, cfg: RunConfig,
             selection: SelectionState) -> NetworkParams:
    """Cross-entropy training of the classifier head on the confident examples
    of `selection` (pretrain's), for cfg.t_finetune epochs.

    The head restarts from zeros (a zero linear head is the symmetric start
    for this convex sub-problem and stays stable whatever scale the encoder
    output has reached); the encoder follows at finetune_encoder_scale times
    the head's learning rate (0 freezes it); the projection head is untouched.
    Raises when the confident set is empty.
    """
    cfg.validate()
    if selection.confident.size == 0:
        raise ValueError("no confident examples selected: "
                         f"per_class_quota is {selection.per_class_quota}")

    params = params.copy()
    params.cls_w = np.zeros_like(params.cls_w)
    params.cls_b = np.zeros_like(params.cls_b)

    lr_scale = {name: cfg.finetune_encoder_scale for name in
                ("enc_w1", "enc_b1", "enc_w2", "enc_b2")}
    lr_scale.update({name: 0.0 for name, _ in params.named_arrays()
                     if name.startswith("proj")})
    opt = OptState.for_params(params, cfg.finetune_lr, cfg.momentum, cfg.weight_decay,
                              schedule=[], lr_scale=lr_scale)

    rows = ds.train_indices()[selection.confident]
    for epoch in range(1, cfg.t_finetune + 1):
        _cross_entropy_epoch(params, opt, ds, rows, cfg,
                             _epoch_rng(cfg.seed, _STREAM_FINETUNE, epoch), weak_views=True)
    return params


def train_cross_entropy_baseline(ds: Dataset, cfg: RunConfig) -> NetworkParams:
    """Plain cross-entropy on all noisy train labels; the no-selection control.

    Matches the main pipeline's architecture, optimizer and learning-rate
    schedule, and runs t_max + t_finetune epochs.
    Trains on the raw instances — augmentation belongs to the contrastive
    method, not to the vanilla control it is compared against.
    """
    params, opt = _start_run(ds, cfg)
    rows = ds.train_indices()
    for epoch in range(1, cfg.t_max + cfg.t_finetune + 1):
        apply_lr_schedule(opt, epoch)
        _cross_entropy_epoch(params, opt, ds, rows, cfg,
                             _epoch_rng(cfg.seed, _STREAM_BASELINE, epoch))
    return params


def test_accuracy(params: NetworkParams, ds: Dataset) -> float:
    """Classifier accuracy (percent) on the test split."""
    p_hat = embed_rows(params, ds.instances, ds.test_indices(), project=False)[1]
    return _test_split_accuracy(p_hat, ds)
