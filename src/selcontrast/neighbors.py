"""Exact cosine nearest neighbors and label aggregation over an embedding bank."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

PSEUDO = "pseudo"
NOISY = "noisy"


# Bank rows are stored as multiples of 2**-GRID_BITS (see grid_rows).
GRID_BITS = 24


def grid_rows(z: np.ndarray) -> np.ndarray:
    """Round the float64 array z in place to the nearest multiple of 2**-24,
    ties to even, and return it.

    For rows of norm at most about 1, every product of two entries is then a
    multiple of 2**-48 and, by Cauchy-Schwarz, every partial sum of a dot
    product is at most about 1 in magnitude, so float64 holds each of them
    exactly. Any dot product of two grid rows is therefore exact: a row block
    z[rows] @ z[cols].T is bit-equal to the same cells of z @ z.T, whatever
    order or blocking the matrix product sums in.
    """
    np.ldexp(z, GRID_BITS, out=z)
    np.rint(z, out=z)
    return np.ldexp(z, -GRID_BITS, out=z)


@dataclass
class EmbeddingBank:
    """Snapshot of per-example unit-norm embeddings for one epoch, stored on
    the grid of grid_rows so that every similarity of two rows is exact."""

    z: np.ndarray  # (n, proj_dim), rows unit-norm, on the 2**-24 grid

    def __post_init__(self):
        self.z = grid_rows(np.array(self.z, dtype=np.float64))
        norms = np.sqrt(np.einsum("ij,ij->i", self.z, self.z))  # no (n, d) squares
        if not np.all(np.abs(norms - 1.0) <= 1e-6):  # NaN fails the comparison
            worst = int(np.argmax(np.abs(norms - 1.0)))
            cause = " (a zero projection output)" if norms[worst] == 0.0 else ""
            raise ValueError(f"bank row {worst} has norm {norms[worst]:.8f}, expected 1{cause}")

    @property
    def n(self) -> int:
        return len(self.z)


# Row blocks of every pass over similarities or pairs (row_blocks): the vote
# and the kNN probe (topk_blocks), the whole-split reads, the similarity cut,
# the similar-pair count and index and the pair precision. A block holds at
# most _BLOCK_ELEMENTS cells, 256 KB of float64, or _MIN_BLOCK_ROWS rows where
# that budget gives fewer.
# Timed on the 2400-row vote at k=250, a budget of 2**15 beat 2**13, 2**14,
# 2**16 and 2**17. The budget alone gives fewer than 16 rows past n = 2048
# and one row past n = 16384: a vote over 40000 rows (dim 32, k 250) took
# 17 s as a loop of one-row products against 9.6 s in blocks of 8 rows. On
# `train --n 50000 --t-max 3 --t-finetune 1 --k 250` (n_train 40000, 2 cores)
# a floor of 16 rows took a median 47.9 s over 3 runs against 60.8 s at 8
# rows; single runs at 32 and 64 rows took 58.1 and 57.3 s and peaked at 187
# and 250 MB RSS, against 153 MB at 16. Past about 19 rows the vote's scratch
# at n = 2400 would also outgrow the 2 MiB that tests/test_neighbors.py allows.
_BLOCK_ELEMENTS = 1 << 15
_MIN_BLOCK_ROWS = 16


def row_blocks(n_rows: int, n_cols: int | None = None) -> list[tuple[int, int]]:
    """(start, stop) ranges that cover n_rows rows of an (n_rows, n_cols)
    array, square when n_cols is None: the fewest blocks of at most
    max(_MIN_BLOCK_ROWS, _BLOCK_ELEMENTS // n_cols) rows each, in index order.
    Their lengths differ by at most one row, so no block is a short remainder:
    BLAS may sum a product of a few rows in another order than a longer one."""
    width = n_rows if n_cols is None else n_cols
    step = max(_MIN_BLOCK_ROWS, _BLOCK_ELEMENTS // max(width, 1))
    count = -(-n_rows // step)
    return [(n_rows * b // count, n_rows * (b + 1) // count) for b in range(count)]


def topk_blocks(query: np.ndarray, keys: np.ndarray, k: int, exclude_self: bool = False):
    """Exact k nearest key rows of each query row by dot product, one row
    block at a time.

    Yields (start, sims, hood) for consecutive blocks of query rows: sims is
    query[start:start + b] @ keys.T and hood the (b, k) key indices of each
    row's k largest similarities, in no particular order; where the k-th
    largest value is tied, the smaller key indices are the ones taken. With
    exclude_self the query rows are the key rows and row i never selects key
    i (its sims cell reads -inf). No (m, n) array is allocated: every block
    of a pass is computed into one buffer, so a yielded sims is valid only
    until the next block is drawn, and hood is a (b, k) array of its own.

    Within a block, argpartition finds each row's k candidates. Only a row
    whose k-th value is tied with an entry outside the candidates is ranked
    in full to apply the tie rule. A caller that needs the neighbours in rank
    order sorts the k of them itself.
    """
    query = np.asarray(query, dtype=np.float64)
    keys = np.asarray(keys, dtype=np.float64)
    if query.ndim != 2 or keys.ndim != 2 or query.shape[1] != keys.shape[1]:
        raise ValueError("query and keys must be 2-d arrays of equal width")
    m, n = len(query), len(keys)
    if exclude_self and m != n:
        raise ValueError(f"exclude_self needs a square similarity matrix, got {m}x{n}")
    limit = n - 1 if exclude_self else n
    if not 1 <= k <= limit:
        raise ValueError(f"k={k} outside [1, {limit}]")
    return _neighbor_blocks(query, keys, k, exclude_self)


def _neighbor_blocks(query, keys, k, exclude_self):
    """The generator behind topk_blocks, which checks the arguments first."""
    n = len(keys)
    blocks = row_blocks(len(query), n)
    buffer = np.empty((max((stop - start for start, stop in blocks), default=0), n))
    for start, stop in blocks:
        block = np.matmul(query[start:stop], keys.T, out=buffer[:stop - start])
        if exclude_self:
            rows = np.arange(len(block))
            block[rows, start + rows] = -np.inf  # the query is never its own neighbor
        # a copy, so the (b, n) partition indices are freed at once
        hood = np.argpartition(block, n - k, axis=1)[:, n - k:].copy()
        values = np.take_along_axis(block, hood, axis=1)
        if np.isnan(values).any():  # partition ranks NaN above every number
            raise ValueError("similarities contain NaN")
        kth = values[:, :1]  # argpartition puts each row's k-th largest value first
        for r in np.flatnonzero(np.count_nonzero(block >= kth, axis=1) > k):
            hood[r] = np.lexsort((np.arange(n), -block[r]))[:k]
        yield start, block, hood


def _count_votes(labels: np.ndarray, n_classes: int) -> np.ndarray:
    """(b, n_classes) counts of each class in each row of a (b, k) label array.

    keys[i, j] = i * n_classes + labels[i, j], so one bincount counts every
    row at once.
    """
    keys = labels + (np.arange(len(labels)) * n_classes)[:, None]
    return np.bincount(keys.ravel(), minlength=len(labels) * n_classes
                       ).reshape(len(labels), n_classes)


@dataclass
class PseudoLabelState:
    """Neighbor-corrected labels and the class posterior estimated from them."""

    y_hat: np.ndarray  # (n,) corrected label per example
    q_hat: np.ndarray  # (n, n_classes), rows sum to 1
    k: int


def aggregate_pseudo_labels(bank: EmbeddingBank, noisy_labels: np.ndarray,
                            k: int, n_classes: int,
                            count_labels: str = PSEUDO) -> PseudoLabelState:
    """Two-pass neighborhood vote.

    Pass 1 sets y_hat[i] to the majority noisy label among i's top-k
    neighbors; a tied vote keeps i's own noisy label when it is among the
    tied classes and otherwise takes the smallest tied class. Pass 2, run
    only after every y_hat exists, sets q_hat[i, c] to the fraction of i's
    neighbors whose y_hat equals c. count_labels="noisy" is an ablation that
    builds q_hat from the neighbors' raw noisy labels instead.
    """
    if count_labels not in (PSEUDO, NOISY):
        raise ValueError(f"count_labels must be '{PSEUDO}' or '{NOISY}'")
    noisy_labels = np.asarray(noisy_labels)
    n = bank.n
    if len(noisy_labels) != n:
        raise ValueError("labels and bank must have equal length")
    if not 1 <= k <= n - 1:
        raise ValueError(f"k={k} outside [1, {n - 1}]")
    if noisy_labels.min() < 0 or noisy_labels.max() >= n_classes:
        raise ValueError(f"labels must lie in [0, {n_classes})")

    own = noisy_labels.astype(np.int64, copy=False)
    # pass 2 reads the neighbour sets again, kept in the narrowest dtype that
    # holds every index (uint16 up to n = 65536); pass 1's counts are the
    # noisy ablation's
    hoods = (np.empty((n, k), dtype=np.min_scalar_type(n - 1))
             if count_labels == PSEUDO else None)
    votes = np.empty((n, n_classes), dtype=np.int64)
    for start, _, hood in topk_blocks(bank.z, bank.z, k, exclude_self=True):
        stop = start + len(hood)
        votes[start:stop] = _count_votes(own[hood], n_classes)
        if hoods is not None:
            hoods[start:stop] = hood
    tied = votes == votes.max(axis=1, keepdims=True)
    y_hat = np.where(tied[np.arange(n), own], own, np.argmax(tied, axis=1))

    if hoods is not None:
        for start, stop in row_blocks(n, k):
            votes[start:stop] = _count_votes(y_hat[hoods[start:stop]], n_classes)
    q_hat = votes / k
    return PseudoLabelState(y_hat=y_hat, q_hat=q_hat, k=k)
