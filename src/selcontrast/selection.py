"""Confident-example and confident-pair selection from neighborhood posteriors.

Examples whose observed label looks plausible under the neighbor posterior are
kept class-balanced; pairs are formed among them and extended by high-similarity
same-label pairs from the whole train set.

A selection is stored as boolean (n, n) masks over the train set, each
symmetric with a False diagonal: pair {i, j} is selected when
same_label & (confident[i] & confident[j] | sims[i, j] > threshold). The tuple
sets `pairs_confident`, `pairs_similar` and `pairs` are read-only views derived
from those masks on first access; training reads only the masks.
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
    if not 0.0 <= fractile <= 1.0:
        raise ValueError("fractile must lie in [0, 1]")
    ordered = np.sort(np.asarray(values))
    m = len(ordered)
    if m == 0:
        raise ValueError("fractile of an empty collection")
    rank = max(1, math.ceil(fractile * m - 1e-9))
    return ordered[min(rank, m) - 1]


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


def select_confident_pairs(bank: EmbeddingBank, same_label: np.ndarray,
                           confident_pair_mask: np.ndarray,
                           beta: float) -> tuple[np.ndarray, float]:
    """Same-label pairs from the whole bank whose similarity strictly exceeds
    the beta-fractile of the confident pairs' similarities.

    Both masks are (n, n), symmetric with a False diagonal. Pair (i, j), i < j,
    is judged by sims[i, j] from the upper triangle and the result mirrored,
    so a matrix product that is not bit-symmetric cannot split a pair.
    With no confident pairs the threshold is +inf and the result empty.
    """
    upper_confident = np.triu(confident_pair_mask, k=1)
    if not upper_confident.any():
        logger.warning("no confident pairs; similarity threshold degenerates to +inf")
        return np.zeros_like(same_label), float("inf")
    sims = bank.similarity_matrix()
    threshold = float(nearest_rank_fractile(sims[upper_confident], beta))
    above = np.triu(sims > threshold, k=1)
    above &= same_label
    return above | above.T, threshold


def run_selection(bank: EmbeddingBank, noisy_labels: np.ndarray, pseudo: PseudoLabelState,
                  alpha: float, beta: float, epoch_tag: int = 0) -> SelectionState:
    """Full per-epoch selection: confident examples, then both pair stages."""
    noisy_labels = np.asarray(noisy_labels)
    per_class, budget = select_confident_examples(pseudo, noisy_labels, alpha)
    confident = np.sort(np.concatenate(per_class)) if per_class else np.empty(0, dtype=np.int64)
    same_label = noisy_labels[:, None] == noisy_labels[None, :]
    np.fill_diagonal(same_label, False)
    is_confident = np.zeros(len(noisy_labels), dtype=bool)
    is_confident[confident] = True
    confident_pairs = same_label & is_confident[:, None] & is_confident[None, :]
    similar_pairs, threshold = select_confident_pairs(bank, same_label, confident_pairs, beta)
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
