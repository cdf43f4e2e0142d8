"""Confident-example and confident-pair selection from neighborhood posteriors.

Examples whose observed label looks plausible under the neighbor posterior are
kept class-balanced; pairs are formed among them and extended by high-similarity
same-label pairs from the whole train set.

A selection stores per-example state only: the noisy labels, the confident
examples of each class, the similarity cut gamma and the bank's rows z. Pair
{i, j}, i != j, is selected when noisy[i] == noisy[j] and either both are
confident or z[i] . z[j] > gamma. The bank keeps its rows on the 2**-24 grid
of neighbors.grid_rows, so every such dot product is exact and a pair's
status does not depend on the row block that computes it.
SelectionState.pair_block(rows, cols) rebuilds any sub-mask, and training
and the pair precision read pairs only through it: a selective step makes
one call over its views' examples and slices every loss mask from that
block, which is exact because a cell depends on its two indices alone.
gamma is the exact nearest-rank fractile of the confident pairs'
similarities, found by counting them per bucket of their integer keys in a
few passes over each class's confident rows, without keeping one value per
pair. The similar-pair count and the read-only tuple sets `pairs_similar`
and `pairs` come from passes over each class's upper triangle, and
`pairs_confident` from confident_by_class alone. Every pass works in
neighbors.row_blocks, so nothing of size n x n is allocated.
"""
from __future__ import annotations

import itertools
import logging
import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import neighbors
from .neighbors import GRID_BITS, EmbeddingBank, PseudoLabelState, row_blocks

LOG_EPS = 1e-12

logger = logging.getLogger(__name__)

Pair = tuple[int, int]


def nearest_rank_fractile(values, fractile: float) -> float:
    """Nearest-rank order statistic: the ceil(fractile * m)-th smallest value.

    fractile 0 picks the minimum and 1 the maximum. The product is guarded
    against float fuzz so that e.g. 0.15 * 20 still ranks as 3.
    """
    ordered = np.sort(np.asarray(values))
    return ordered[_nearest_rank_index(len(ordered), fractile)]


def _nearest_rank_index(m: int, fractile: float) -> int:
    """Position of the nearest-rank fractile among m sorted values."""
    if not 0.0 <= fractile <= 1.0:
        raise ValueError("fractile must lie in [0, 1]")
    if m == 0:
        raise ValueError("fractile of an empty collection")
    rank = max(1, math.ceil(fractile * m - 1e-9))
    return min(rank, m) - 1


def same_label_blocks(labels: np.ndarray):
    """Yield (rows, cols) blocks that cover every pair i < j of equal label:
    for each label's members, in index order, rows is one of
    row_blocks(len(members)) and cols runs from its first row to the end, so
    np.triu(mask, 1) of a (rows, cols) mask keeps exactly the cells i < j."""
    for c in np.unique(labels):
        members = np.flatnonzero(labels == c)
        for start, stop in row_blocks(len(members)):
            yield members[start:stop], members[start:]


@dataclass
class SelectionState:
    """One epoch's selection: class-balanced confident examples plus the
    similarity cut that, with them, defines the selected pairs."""

    noisy_labels: np.ndarray         # (n,) labels the selection was made for
    confident_by_class: list[np.ndarray]
    confident: np.ndarray            # sorted union of confident_by_class
    sim_threshold: float             # similarity cut (inf when no confident pairs)
    z: np.ndarray                    # (n, d) the bank's grid rows it was made from
    per_class_quota: int
    epoch_tag: int = 0
    pseudo: PseudoLabelState | None = None  # the pseudo-labels it was built from
    is_confident: np.ndarray = field(init=False, repr=False, compare=False)  # (n,) bool

    def __post_init__(self):
        self.is_confident = np.zeros(len(self.noisy_labels), dtype=bool)
        self.is_confident[self.confident] = True

    def pair_block(self, rows, cols) -> np.ndarray:
        """(len(rows), len(cols)) mask, True where rows[a] and cols[b] form a
        selected pair: same noisy label, and both confident or z[rows[a]] .
        z[cols[b]] > sim_threshold. Index lists may repeat and come in any
        order; a cell where rows[a] == cols[b] is False."""
        rows = np.asarray(rows, dtype=np.int64)
        cols = np.asarray(cols, dtype=np.int64)
        mask = self._similar_block(rows, cols)
        mask |= np.logical_and.outer(self.is_confident[rows], self.is_confident[cols])
        mask &= np.equal.outer(self.noisy_labels[rows], self.noisy_labels[cols])
        mask &= np.not_equal.outer(rows, cols)
        return mask

    def _similar_block(self, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        """z[rows] . z[cols] > sim_threshold, cell by cell."""
        if math.isinf(self.sim_threshold):
            return np.zeros((len(rows), len(cols)), dtype=bool)
        return self.z[rows] @ self.z[cols].T > self.sim_threshold

    @property
    def n_pairs_confident(self) -> int:
        return sum(len(members) * (len(members) - 1) // 2 for members in self.confident_by_class)

    @cached_property
    def n_pairs_similar(self) -> int:
        return sum(int(np.count_nonzero(block)) for _, _, block in self._similar_upper())

    @cached_property
    def pairs_confident(self) -> frozenset[Pair]:
        return frozenset(pair for members in self.confident_by_class
                         for pair in itertools.combinations(sorted(members.tolist()), 2))

    @cached_property
    def pairs_similar(self) -> frozenset[Pair]:
        pairs = set()
        for rows, cols, block in self._similar_upper():
            r, c = np.nonzero(block)
            pairs.update(zip(rows[r].tolist(), cols[c].tolist()))
        return frozenset(pairs)

    @cached_property
    def pairs(self) -> frozenset[Pair]:
        return self.pairs_confident | self.pairs_similar

    def _similar_upper(self):
        """(rows, cols, mask) blocks that hold every same-label pair i < j
        above the similarity cut, in same_label_blocks."""
        if math.isinf(self.sim_threshold):
            return
        for rows, cols in same_label_blocks(self.noisy_labels):
            yield rows, cols, np.triu(self._similar_block(rows, cols), 1)


def select_confident_examples(pseudo: PseudoLabelState, noisy_labels: np.ndarray,
                              alpha: float) -> tuple[list[np.ndarray], int]:
    """Class-balanced low-loss examples whose label the neighborhood supports.

    The per-class budget is the alpha-fractile of the per-class counts of
    examples where the corrected label agrees with the observed one; each
    class then keeps its budget-many smallest values of
    -log(q_hat[i, noisy_i] + eps), ties resolved by index.

    Returns (per-class index arrays, budget).
    """
    noisy_labels = np.asarray(noisy_labels)
    n, n_classes = pseudo.q_hat.shape
    if len(noisy_labels) != n:
        raise ValueError("labels and posterior must have equal length")

    agree = pseudo.y_hat == noisy_labels
    agree_counts = [int(np.sum(agree & (noisy_labels == c))) for c in range(n_classes)]
    budget = int(nearest_rank_fractile(agree_counts, alpha))

    losses = -np.log(pseudo.q_hat[np.arange(n), noisy_labels] + LOG_EPS)
    per_class: list[np.ndarray] = []
    for c in range(n_classes):
        members = np.flatnonzero(noisy_labels == c)
        order = members[np.argsort(losses[members], kind="stable")]
        per_class.append(np.sort(order[:budget]))
    return per_class, budget


# A similarity of two bank rows is a multiple of 2**-_KEY_BITS, so its key
# ldexp(value, _KEY_BITS) is an integer; below 2 in magnitude it is below
# 2**(_KEY_BITS + 1). Each narrowing pass of _confident_pair_threshold counts
# the keys of one key range in 2**_FRACTILE_BUCKET_BITS buckets.
_KEY_BITS = 2 * GRID_BITS
_FRACTILE_BUCKET_BITS = 12


def _confident_pair_sims(z: np.ndarray, confident_by_class: list[np.ndarray]):
    """Yield z[i] . z[j] over the confident same-label pairs i < j, one row
    block of a class's confident rows at a time, as arrays of any shape that
    together hold each pair once."""
    for members in confident_by_class:
        rows = z[members]
        for start, stop in row_blocks(len(rows)):
            block = rows[start:stop] @ rows[start:].T
            b = stop - start
            yield block[:, :b][~np.tri(b, dtype=bool)]  # the square part, above its diagonal
            yield block[:, b:]


def _confident_pair_threshold(z: np.ndarray, confident_by_class: list[np.ndarray],
                              beta: float) -> float:
    """Nearest-rank beta-fractile of z[i] . z[j] over the confident same-label
    pairs i < j, found without holding the values.

    z holds grid rows (neighbors.grid_rows), so every value v is exact and its
    key ldexp(v, _KEY_BITS) an integer. Each pass recomputes the values in row
    blocks and counts them per bucket of one key range: the first range covers
    every value, and each later one is the bucket of the last pass that holds
    the rank. Once that bucket holds at most _BLOCK_ELEMENTS values, one more
    pass gathers them and a partition picks the rank among them; a bucket of a
    single key holds one value, which is the fractile. Memory stays at one row
    block, the bucket counts and at most one block of gathered values,
    whatever the number of pairs.
    """
    rank = _nearest_rank_index(sum(len(members) * (len(members) - 1) // 2
                                   for members in confident_by_class), beta)
    buckets = 1 << _FRACTILE_BUCKET_BITS
    shift = _KEY_BITS + 2  # keys lie in [lo, lo + 2**shift)
    lo = -(1 << (_KEY_BITS + 1))
    while True:
        shift = max(0, shift - _FRACTILE_BUCKET_BITS)
        # bucket of key = (key - lo) >> shift, plus one; keys below the range
        # count in bucket 0 and keys above it in the last
        counts = np.zeros(buckets + 2, dtype=np.int64)
        for sims in _confident_pair_sims(z, confident_by_class):
            index = np.ldexp(sims, _KEY_BITS - shift)
            index -= (lo >> shift) - 1
            np.floor(index, out=index)
            np.clip(index, 0, buckets + 1, out=index)
            counts += np.bincount(index.astype(np.intp).ravel(), minlength=buckets + 2)
        below = np.cumsum(counts)
        bucket = int(np.searchsorted(below, rank, side="right"))
        lo += (bucket - 1) << shift
        if shift == 0:
            return float(np.ldexp(lo, -_KEY_BITS))
        if counts[bucket] <= neighbors._BLOCK_ELEMENTS:
            rank -= int(below[bucket - 1])  # its rank among the bucket's values
            break
    low, high = np.ldexp(lo, -_KEY_BITS), np.ldexp(lo + (1 << shift), -_KEY_BITS)
    values = np.concatenate([sims[(sims >= low) & (sims < high)]
                             for sims in _confident_pair_sims(z, confident_by_class)])
    values.partition(rank)
    return float(values[rank])


def select_confident_pairs(bank: EmbeddingBank, noisy_labels: np.ndarray,
                           confident_by_class: list[np.ndarray], beta: float) -> float:
    """The similarity cut of the similar-pair stage: same-label pairs from the
    whole bank are selected when their similarity strictly exceeds the
    beta-fractile of the confident pairs' similarities.

    confident_by_class[c] holds confident examples whose noisy label is c; the
    confident pairs are the pairs inside one such block. Returns the cut,
    which SelectionState.pair_block applies; with no confident pairs it is
    +inf and selects nothing.
    """
    noisy_labels = np.asarray(noisy_labels)
    if len(noisy_labels) != bank.n:
        raise ValueError("labels and bank must have equal length")
    for c, members in enumerate(confident_by_class):
        if np.any(noisy_labels[members] != c):
            raise ValueError(f"confident block {c} holds an example of another label")
    if not any(len(members) > 1 for members in confident_by_class):
        logger.warning("no confident pairs; similarity threshold degenerates to +inf")
        return float("inf")
    return _confident_pair_threshold(bank.z, confident_by_class, beta)


def run_selection(bank: EmbeddingBank, noisy_labels: np.ndarray, pseudo: PseudoLabelState,
                  alpha: float, beta: float, epoch_tag: int = 0) -> SelectionState:
    """Full per-epoch selection: confident examples, then the similarity cut."""
    noisy_labels = np.asarray(noisy_labels)
    per_class, budget = select_confident_examples(pseudo, noisy_labels, alpha)
    confident = np.sort(np.concatenate(per_class)) if per_class else np.empty(0, dtype=np.int64)
    threshold = select_confident_pairs(bank, noisy_labels, per_class, beta)
    return SelectionState(
        noisy_labels=noisy_labels,
        confident_by_class=per_class,
        confident=confident.astype(np.int64),
        sim_threshold=threshold,
        z=bank.z,
        per_class_quota=budget,
        epoch_tag=epoch_tag,
        pseudo=pseudo,
    )
