"""Synthetic vector datasets, label-noise injection, and feature-space augmentation."""
from __future__ import annotations

import csv
import math
from dataclasses import dataclass, replace

import numpy as np

TRAIN = "train"
TEST = "test"

_TEST_FRACTION = 0.2
# Minimum pairwise distance between cluster means, in units of cluster_spread.
_MEAN_SEPARATION = 10.0


@dataclass(frozen=True)
class Dataset:
    """Feature vectors with observed (possibly corrupted) and hidden clean labels.

    Corruption is confined to the train split; test labels stay clean so that
    generalization numbers are trustworthy.
    """

    instances: np.ndarray    # (n, dim) float64
    true_labels: np.ndarray  # (n,) int
    noisy_labels: np.ndarray  # (n,) int
    split: np.ndarray        # (n,) "train" | "test"
    n_classes: int

    def __post_init__(self):
        n = len(self.instances)
        if not (len(self.true_labels) == len(self.noisy_labels) == len(self.split) == n):
            raise ValueError("instances, labels and split must have equal length")
        if self.instances.ndim != 2:
            raise ValueError("instances must be a 2-d array")
        for name, labels in (("true_labels", self.true_labels),
                             ("noisy_labels", self.noisy_labels)):
            if n and (labels.min() < 0 or labels.max() >= self.n_classes):
                raise ValueError(f"{name} contains values outside [0, {self.n_classes})")
        bad_split = np.flatnonzero(~np.isin(self.split, (TRAIN, TEST)))
        if bad_split.size:
            raise ValueError(f"example {bad_split[0]}: split must be '{TRAIN}' or '{TEST}'")
        corrupted = np.flatnonzero((self.split == TEST) & (self.true_labels != self.noisy_labels))
        if corrupted.size:
            raise ValueError(
                f"test example {corrupted[0]} has a corrupted label; noise is train-only")

    @property
    def n(self) -> int:
        return len(self.instances)

    @property
    def dim(self) -> int:
        return self.instances.shape[1]

    def train_indices(self) -> np.ndarray:
        return np.flatnonzero(self.split == TRAIN)

    def test_indices(self) -> np.ndarray:
        return np.flatnonzero(self.split == TEST)


def check_blob_args(n: int, n_classes: int, dim: int,
                    cluster_spread: float) -> list[tuple[int, int]]:
    """Raise ValueError on the first make_blobs argument it refuses; otherwise
    return each class's (size, test rows) as make_blobs splits it 80/20."""
    if n_classes < 2:
        raise ValueError("need at least 2 classes")
    if n < n_classes:
        raise ValueError("need at least one example per class")
    if dim < 2:
        raise ValueError("dim must be >= 2")
    if cluster_spread <= 0:
        raise ValueError("cluster_spread must be positive")
    sizes = [n // n_classes + (1 if c < n % n_classes else 0) for c in range(n_classes)]
    return [(size, int(math.floor(_TEST_FRACTION * size + 0.5))) for size in sizes]


def make_blobs(n: int, n_classes: int, dim: int, cluster_spread: float, seed: int) -> Dataset:
    """Draw `n` points from `n_classes` isotropic Gaussian clusters.

    Cluster means are sampled once from the seed and rescaled so their minimum
    pairwise distance is a fixed multiple of cluster_spread, keeping classes
    well separated at any spread. Class sizes are balanced to within one
    example and a stratified 80/20 train/test split is assigned from the same
    seed. Noisy labels start out equal to the clean ones.
    """
    layout = check_blob_args(n, n_classes, dim, cluster_spread)
    rng = np.random.default_rng(seed)

    means = rng.standard_normal((n_classes, dim))
    gaps = np.linalg.norm(means[:, None, :] - means[None, :, :], axis=-1)
    min_gap = gaps[~np.eye(n_classes, dtype=bool)].min()
    means *= _MEAN_SEPARATION * cluster_spread / min_gap

    blocks, labels, split = [], [], []
    for c, (count, n_test) in enumerate(layout):
        blocks.append(means[c] + cluster_spread * rng.standard_normal((count, dim)))
        labels.extend([c] * count)
        tags = np.full(count, TRAIN, dtype="<U5")
        tags[rng.permutation(count)[:n_test]] = TEST
        split.append(tags)

    true_labels = np.asarray(labels, dtype=np.int64)
    return Dataset(
        instances=np.concatenate(blocks, axis=0),
        true_labels=true_labels,
        noisy_labels=true_labels.copy(),
        split=np.concatenate(split),
        n_classes=n_classes,
    )


def inject_noise(ds: Dataset, kind: str, rate: float, seed: int = 0) -> Dataset:
    """Return a copy of `ds` with corrupted train labels; instances, true
    labels, split and test labels are untouched.

    kind "symmetric" redraws the label of a fixed fraction `rate` of train
    examples uniformly over all classes (so a share rate/n_classes lands back
    on the original label). kind "asymmetric" flips each train label with
    probability `rate` from class c to class (c+1) mod n_classes.
    """
    if kind not in ("symmetric", "asymmetric"):
        raise ValueError(f"unknown noise kind: {kind!r}")
    if not 0.0 <= rate <= 1.0:
        raise ValueError("noise rate must lie in [0, 1]")
    if kind == "asymmetric" and ds.n_classes < 2:
        raise ValueError("asymmetric noise needs at least 2 classes")

    rng = np.random.default_rng(seed)
    train = ds.train_indices()
    noisy = ds.noisy_labels.copy()
    if kind == "symmetric":
        n_corrupt = int(math.floor(rate * len(train) + 0.5))
        chosen = train[rng.permutation(len(train))[:n_corrupt]]
        noisy[chosen] = rng.integers(0, ds.n_classes, size=n_corrupt)
    else:
        flip = train[rng.random(len(train)) < rate]
        noisy[flip] = (noisy[flip] + 1) % ds.n_classes
    return replace(ds, noisy_labels=noisy)


def augment(x: np.ndarray, rng: np.random.Generator, jitter_sigma: float, drop_prob: float = 0.0,
            scale_low: float = 1.0, scale_high: float = 1.0) -> np.ndarray:
    """One stochastic view of each row of `x`: add Gaussian jitter, zero random
    coordinates, multiply the row by a global scale drawn from
    [scale_low, scale_high].

    Draws three arrays for the whole batch, in this order: standard normals g
    of x's shape, uniforms u of x's shape, then one uniform s per row. The
    view is x + jitter_sigma * g, zeroed where u < drop_prob, times
    scale_low + (scale_high - scale_low) * s.
    """
    if x.ndim != 2:
        raise ValueError("augment expects a 2-d batch of rows")
    out = x + jitter_sigma * rng.standard_normal(x.shape)
    out[rng.random(x.shape) < drop_prob] = 0.0
    out *= (scale_low + (scale_high - scale_low) * rng.random(len(x)))[:, None]
    return out


def mixup(x: np.ndarray, alpha: float, rng: np.random.Generator):
    """Mix every row of `x` with a partner row of the same batch.

    Draws the partner permutation, then one lam ~ Beta(alpha, alpha) per row,
    and returns (mixed, partner, lam, dominant): mixed[i] = lam[i] * x[i] +
    (1 - lam[i]) * x[partner[i]], and dominant[i] is the index of the larger
    ingredient, i when lam[i] >= 0.5 (ties go to the row itself) and
    partner[i] otherwise.
    """
    if alpha <= 0:
        raise ValueError("mixup alpha must be positive")
    if x.ndim != 2:
        raise ValueError("mixup expects a 2-d batch of rows")
    partner = rng.permutation(len(x))
    lam = rng.beta(alpha, alpha, size=len(x))
    mixed = lam[:, None] * x + (1.0 - lam[:, None]) * x[partner]
    dominant = np.where(lam >= 0.5, np.arange(len(x)), partner)
    return mixed, partner, lam, dominant


def _feature_header(dim: int) -> list[str]:
    return [f"feature_{j}" for j in range(dim)] + ["true_label", "noisy_label", "split"]


def dump_features_csv(ds: Dataset, path) -> None:
    """Write the dataset as CSV: feature_0..feature_{dim-1}, labels, split."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(_feature_header(ds.dim))
        for i in range(ds.n):
            row = [repr(float(v)) for v in ds.instances[i]]
            row += [int(ds.true_labels[i]), int(ds.noisy_labels[i]), str(ds.split[i])]
            writer.writerow(row)


def load_features_csv(path) -> Dataset:
    """Read a dataset written by dump_features_csv.

    Malformed rows, negative labels and non-finite features raise ValueError
    naming the offending line. The class count is inferred as max(label) + 1.
    """
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows:
        raise ValueError(f"{path}: empty file")
    header = rows[0]
    if len(header) < 4 or header[-3:] != ["true_label", "noisy_label", "split"]:
        raise ValueError(f"{path}: line 1: expected header feature_*,true_label,noisy_label,split")
    dim = len(header) - 3

    feats, true_labels, noisy_labels, split = [], [], [], []
    for lineno, row in enumerate(rows[1:], start=2):
        if len(row) != dim + 3:
            raise ValueError(f"{path}: line {lineno}: expected {dim + 3} fields, got {len(row)}")
        try:
            feats.append([float(v) for v in row[:dim]])
            true_labels.append(int(row[dim]))
            noisy_labels.append(int(row[dim + 1]))
        except ValueError as exc:
            raise ValueError(f"{path}: line {lineno}: {exc}") from None
        split.append(row[dim + 2])

    true_arr = np.asarray(true_labels, dtype=np.int64)
    noisy_arr = np.asarray(noisy_labels, dtype=np.int64)
    if len(true_arr) == 0:
        raise ValueError(f"{path}: no data rows")
    n_classes = int(max(true_arr.max(), noisy_arr.max())) + 1
    for name, arr in (("true_label", true_arr), ("noisy_label", noisy_arr)):
        bad = np.flatnonzero(arr < 0)
        if bad.size:
            raise ValueError(f"{path}: line {bad[0] + 2}: {name} {arr[bad[0]]} is negative")
    instances = np.asarray(feats, dtype=np.float64)
    bad = np.argwhere(~np.isfinite(instances))
    if bad.size:
        row, col = bad[0]
        raise ValueError(f"{path}: line {row + 2}: {header[col]} {instances[row, col]} "
                         "is not finite")
    return Dataset(
        instances=instances,
        true_labels=true_arr,
        noisy_labels=noisy_arr,
        split=np.asarray(split, dtype="<U5"),
        n_classes=n_classes,
    )
