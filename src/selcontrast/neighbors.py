"""Exact cosine nearest neighbors and label aggregation over an embedding bank."""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

DEFAULT_K = 250

PSEUDO = "pseudo"
NOISY = "noisy"


@dataclass
class EmbeddingBank:
    """Snapshot of per-example unit-norm embeddings for one epoch."""

    z: np.ndarray  # (n, proj_dim), rows unit-norm
    epoch_tag: int = 0
    _sims: np.ndarray | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        norms = np.linalg.norm(self.z, axis=1)
        if not np.all(np.abs(norms - 1.0) <= 1e-6):  # NaN fails the comparison
            worst = int(np.argmax(np.abs(norms - 1.0)))
            raise ValueError(f"bank row {worst} has norm {norms[worst]:.8f}, expected 1")

    @property
    def n(self) -> int:
        return len(self.z)

    def similarity_matrix(self) -> np.ndarray:
        """Cached (n, n) matrix of pairwise dot products."""
        if self._sims is None:
            self._sims = self.z @ self.z.T
        return self._sims


# Row-block size of exact_topk, in matrix elements: 2**14 float64 values are
# 128 KB, so the per-block temporaries stay far below the (n, n) matrix.
_BLOCK_ELEMENTS = 1 << 14


def exact_topk(sims: np.ndarray, k: int, exclude_self: bool = False) -> np.ndarray:
    """(m, k) column indices of the k largest entries of each row of `sims`.

    Each row is ordered by descending similarity; exact ties resolve to the
    smaller column index. With exclude_self, `sims` is a square bank-against-
    itself matrix and row i never selects column i.

    Rows are processed in blocks: argpartition finds each row's k-th largest
    value, the k candidates are sorted by index and then stable-sorted by
    value. Only a row whose k-th value is tied with an entry outside the
    candidates is ranked in full.
    """
    sims = np.asarray(sims)
    if sims.ndim != 2:
        raise ValueError("similarities must be a 2-d matrix")
    m, n = sims.shape
    if exclude_self and m != n:
        raise ValueError(f"exclude_self needs a square matrix, got {m}x{n}")
    limit = n - 1 if exclude_self else n
    if not 1 <= k <= limit:
        raise ValueError(f"k={k} outside [1, {limit}]")

    out = np.empty((m, k), dtype=np.int64)
    step = max(1, _BLOCK_ELEMENTS // n)
    for start in range(0, m, step):
        block = sims[start:start + step]
        if exclude_self:
            block = block.copy()
            rows = np.arange(len(block))
            block[rows, start + rows] = -np.inf  # the query is never its own neighbor
        part = np.argpartition(block, n - k, axis=1)[:, n - k:]
        kth = np.take_along_axis(block, part[:, :1], axis=1)
        candidates = np.sort(part, axis=1)
        values = np.take_along_axis(block, candidates, axis=1)
        if np.isnan(values).any():  # partition ranks NaN above every number
            raise ValueError("similarities contain NaN")
        order = np.argsort(-values, axis=1, kind="stable")
        out[start:start + len(block)] = np.take_along_axis(candidates, order, axis=1)
        for r in np.flatnonzero(np.count_nonzero(block >= kth, axis=1) > k):
            out[start + r] = np.lexsort((np.arange(n), -block[r]))[:k]
    return out


@dataclass
class PseudoLabelState:
    """Neighbor-corrected labels and the class posterior estimated from them."""

    y_hat: np.ndarray  # (n,) corrected label per example
    q_hat: np.ndarray  # (n, n_classes), rows sum to 1
    k: int


def aggregate_pseudo_labels(bank: EmbeddingBank, noisy_labels: np.ndarray,
                            k: int | None = None, n_classes: int | None = None,
                            count_labels: str = PSEUDO) -> PseudoLabelState:
    """Two-pass neighborhood vote.

    Pass 1 sets y_hat[i] to the majority noisy label among i's top-k
    neighbors; a tied vote keeps i's own noisy label when it is among the
    tied classes and otherwise takes the smallest tied class. Pass 2, run
    only after every y_hat exists, sets q_hat[i, c] to the fraction of i's
    neighbors whose y_hat equals c. count_labels="noisy" is an ablation that
    builds q_hat from the neighbors' raw noisy labels instead.

    k defaults to min(250, n - 1).
    """
    if count_labels not in (PSEUDO, NOISY):
        raise ValueError(f"count_labels must be '{PSEUDO}' or '{NOISY}'")
    noisy_labels = np.asarray(noisy_labels)
    n = bank.n
    if len(noisy_labels) != n:
        raise ValueError("labels and bank must have equal length")
    if k is None:
        k = min(DEFAULT_K, n - 1)
    if not 1 <= k <= n - 1:
        raise ValueError(f"k={k} outside [1, {n - 1}]")
    if n_classes is None:
        n_classes = int(noisy_labels.max()) + 1
    if noisy_labels.min() < 0 or noisy_labels.max() >= n_classes:
        raise ValueError(f"labels must lie in [0, {n_classes})")

    hoods = exact_topk(bank.similarity_matrix(), k, exclude_self=True)
    own = noisy_labels.astype(np.int64, copy=False)
    offsets = (np.arange(n) * n_classes)[:, None]
    # keys[i, j] = i * n_classes + (label of i's j-th neighbor), so a single
    # bincount counts the votes of every row at once
    keys = own[hoods]
    keys += offsets
    votes = np.bincount(keys.ravel(), minlength=n * n_classes).reshape(n, n_classes)
    tied = votes == votes.max(axis=1, keepdims=True)
    y_hat = np.where(tied[np.arange(n), own], own, np.argmax(tied, axis=1))

    if count_labels == PSEUDO:
        np.take(y_hat, hoods, out=keys)
        keys += offsets
        votes = np.bincount(keys.ravel(), minlength=n * n_classes).reshape(n, n_classes)
    q_hat = votes / k
    return PseudoLabelState(y_hat=y_hat, q_hat=q_hat, k=k)
