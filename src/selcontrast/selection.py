"""Confident-example and confident-pair selection from neighborhood posteriors.

Examples whose observed label looks plausible under the neighbor posterior are
kept class-balanced; pairs are formed among them and extended by high-similarity
same-label pairs from the whole train set.

A selection is stored as boolean (n, n) masks over the train set, each
symmetric with a False diagonal: pair {i, j} is selected when
same_label & (confident[i] & confident[j] | sims[i, j] > threshold). The tuple
sets `pairs_confident`, `pairs_similar` and `pairs` are read-only views derived
from those masks on first access; training reads only the masks.

Besides the bank's (n, n) float64 similarity matrix and the three stored
masks, a selection allocates nothing of size n x n: the threshold is read from
the confident set's per-class blocks and the similar-pair mask is written in
row blocks.
"""
from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .neighbors import EmbeddingBank, PseudoLabelState

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


# Row-block size of the passes over (n, n) masks, in matrix elements: the
# per-block bool temporaries stay at 256 KB whatever n is.
_BLOCK_ELEMENTS = 1 << 18


def row_blocks(n: int) -> list[tuple[int, int]]:
    """(start, stop) row ranges that cover an (n, n) matrix, _BLOCK_ELEMENTS
    elements at a time; the last block may be shorter."""
    step = max(1, _BLOCK_ELEMENTS // max(n, 1))
    return [(start, min(start + step, n)) for start in range(0, n, step)]


def _mask_pairs(mask: np.ndarray) -> frozenset[Pair]:
    """The (i, j), i < j, pairs a symmetric boolean mask selects."""
    rows, cols = np.nonzero(np.triu(mask, k=1))
    return frozenset(zip(rows.tolist(), cols.tolist()))


@dataclass
class SelectionState:
    """One epoch's selection: class-balanced confident examples plus the pair
    masks used as contrastive supervision."""

    confident_by_class: list[np.ndarray]
    confident: np.ndarray            # sorted union of confident_by_class
    confident_pair_mask: np.ndarray  # (n, n) same-label pairs inside the confident set
    similar_pair_mask: np.ndarray    # (n, n) same-label pairs above the similarity cut
    pair_mask: np.ndarray            # (n, n) union of the two
    sim_threshold: float             # similarity cut (inf when no confident pairs)
    per_class_quota: int
    epoch_tag: int = 0
    pseudo: PseudoLabelState | None = None  # the pseudo-labels it was built from

    def confident_mask(self, n: int) -> np.ndarray:
        mask = np.zeros(n, dtype=bool)
        mask[self.confident] = True
        return mask

    @property
    def n_pairs_confident(self) -> int:
        return int(np.count_nonzero(self.confident_pair_mask)) // 2

    @property
    def n_pairs_similar(self) -> int:
        return int(np.count_nonzero(self.similar_pair_mask)) // 2

    @cached_property
    def pairs_confident(self) -> frozenset[Pair]:
        return _mask_pairs(self.confident_pair_mask)

    @cached_property
    def pairs_similar(self) -> frozenset[Pair]:
        return _mask_pairs(self.similar_pair_mask)

    @cached_property
    def pairs(self) -> frozenset[Pair]:
        return _mask_pairs(self.pair_mask)


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


def _confident_pair_threshold(sims: np.ndarray, confident_by_class: list[np.ndarray],
                              beta: float) -> float:
    """Nearest-rank beta-fractile of sims[i, j] over the confident same-label
    pairs i < j. The values are read class block by class block from the
    upper triangle into one float per pair and sorted in place."""
    blocks = [np.sort(members) for members in confident_by_class]
    values = np.empty(sum(len(members) * (len(members) - 1) // 2 for members in blocks))
    pos = 0
    for members in blocks:
        for r in range(len(members) - 1):
            stop = pos + len(members) - r - 1
            np.take(sims[members[r]], members[r + 1:], out=values[pos:stop])
            pos = stop
    values.sort()  # the order np.sort gives, without its copy
    return float(values[_nearest_rank_index(len(values), beta)])


def _similar_pair_mask(sims: np.ndarray, labels: np.ndarray, threshold: float) -> np.ndarray:
    """Symmetric (n, n) mask of the same-label pairs i < j with
    sims[i, j] > threshold, filled one row block at a time: each block judges
    its upper-triangle pairs, then copies its lower triangle from the rows
    above, which are complete."""
    n = len(labels)
    out = np.empty((n, n), dtype=bool)
    index = np.arange(n)
    for start, stop in row_blocks(n):
        upper = out[start:stop, start:]
        np.greater(sims[start:stop, start:], threshold, out=upper)
        upper &= labels[start:stop, None] == labels[None, start:]
        upper &= index[start:stop, None] < index[None, start:]
        out[start:stop, :start] = out[:start, start:stop].T
        diagonal = out[start:stop, start:stop]
        diagonal |= diagonal.T  # numpy buffers the overlapping transpose
    return out


def _confident_pair_mask(n: int, confident_by_class: list[np.ndarray]) -> np.ndarray:
    """Symmetric (n, n) mask of the pairs inside each class's confident block."""
    out = np.zeros((n, n), dtype=bool)
    for members in confident_by_class:
        out[np.ix_(members, members)] = True
        out[members, members] = False
    return out


def select_confident_pairs(bank: EmbeddingBank, noisy_labels: np.ndarray,
                           confident_by_class: list[np.ndarray],
                           beta: float) -> tuple[np.ndarray, float]:
    """Same-label pairs from the whole bank whose similarity strictly exceeds
    the beta-fractile of the confident pairs' similarities.

    confident_by_class[c] holds confident examples whose noisy label is c; the
    confident pairs are the pairs inside one such block. Returns the (n, n)
    mask of the selected pairs, symmetric with a False diagonal, and the
    threshold. Pair (i, j), i < j, is judged by sims[i, j] from the upper
    triangle and the result mirrored, so a matrix product that is not
    bit-symmetric cannot split a pair. With no confident pairs the threshold
    is +inf and the result empty.
    """
    noisy_labels = np.asarray(noisy_labels)
    n = len(noisy_labels)
    if n != bank.n:
        raise ValueError("labels and bank must have equal length")
    for c, members in enumerate(confident_by_class):
        if np.any(noisy_labels[members] != c):
            raise ValueError(f"confident block {c} holds an example of another label")
    if not any(len(members) > 1 for members in confident_by_class):
        logger.warning("no confident pairs; similarity threshold degenerates to +inf")
        return np.zeros((n, n), dtype=bool), float("inf")
    sims = bank.similarity_matrix()
    threshold = _confident_pair_threshold(sims, confident_by_class, beta)
    return _similar_pair_mask(sims, noisy_labels, threshold), threshold


def run_selection(bank: EmbeddingBank, noisy_labels: np.ndarray, pseudo: PseudoLabelState,
                  alpha: float, beta: float, epoch_tag: int = 0) -> SelectionState:
    """Full per-epoch selection: confident examples, then both pair stages."""
    noisy_labels = np.asarray(noisy_labels)
    per_class, budget = select_confident_examples(pseudo, noisy_labels, alpha)
    confident = np.sort(np.concatenate(per_class)) if per_class else np.empty(0, dtype=np.int64)
    similar_pairs, threshold = select_confident_pairs(bank, noisy_labels, per_class, beta)
    confident_pairs = _confident_pair_mask(len(noisy_labels), per_class)
    return SelectionState(
        confident_by_class=per_class,
        confident=confident.astype(np.int64),
        confident_pair_mask=confident_pairs,
        similar_pair_mask=similar_pairs,
        pair_mask=confident_pairs | similar_pairs,
        sim_threshold=threshold,
        per_class_quota=budget,
        epoch_tag=epoch_tag,
        pseudo=pseudo,
    )
