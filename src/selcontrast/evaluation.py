"""Model-quality probes: weighted KNN accuracy, selection precision, 2-d dumps."""
from __future__ import annotations

import csv

import numpy as np

from .neighbors import EmbeddingBank, grid_rows, topk_blocks
from .selection import SelectionState, same_label_blocks


def _unit_rows(z: np.ndarray, what: str) -> np.ndarray:
    norms = np.linalg.norm(z, axis=1)
    zero = np.flatnonzero(norms == 0.0)
    if zero.size:
        raise ValueError(f"{what} row {zero[0]} is a zero vector (a zero projection output); "
                         "cosine is undefined")
    return z / norms[:, None]


def ranked_neighbors(sims: np.ndarray, hood: np.ndarray) -> np.ndarray:
    """Each row's neighbour indices `hood` in rank order: by descending
    similarity sims[row, index], exact ties to the smaller index."""
    hood = np.sort(hood, axis=1)
    values = np.take_along_axis(sims, hood, axis=1)
    return np.take_along_axis(hood, np.argsort(-values, axis=1, kind="stable"), axis=1)


def weighted_knn_eval(train_z: EmbeddingBank | np.ndarray, train_labels: np.ndarray,
                      test_z: np.ndarray, test_labels: np.ndarray,
                      k: int, tau: float) -> float:
    """Accuracy (percent) of a soft nearest-neighbor vote in embedding space.

    Each test point's k nearest train points by cosine similarity vote for
    their label with weight exp(similarity / tau); ties in the vote go to the
    smaller class index. Array inputs are normalized internally, so any
    common rescaling of the embeddings leaves the predictions unchanged, and
    rounded to the bank's grid (neighbors.grid_rows), which makes every
    similarity exact. train_z may instead be an EmbeddingBank, whose rows are
    unit and on the grid already: they are read as they are, with no copy.
    The test rows vote one row block at a time.
    """
    train_labels = np.asarray(train_labels)
    test_labels = np.asarray(test_labels)
    bank = train_z if isinstance(train_z, EmbeddingBank) else EmbeddingBank(
        _unit_rows(np.asarray(train_z, dtype=np.float64), "train embeddings"))
    if not 1 <= k <= bank.n:
        raise ValueError(f"k={k} outside [1, {bank.n}]")
    if tau <= 0:
        raise ValueError("tau must be positive")

    qz = grid_rows(_unit_rows(np.asarray(test_z, dtype=np.float64), "test embeddings"))
    n_classes = int(train_labels.max()) + 1
    vote_labels = train_labels.astype(np.int64)

    scores = np.zeros((len(qz), n_classes))
    for start, sims, hood in topk_blocks(qz, bank.z, k):
        order = ranked_neighbors(sims, hood)
        weights = np.take_along_axis(sims, order, axis=1)
        weights /= tau
        np.exp(weights, out=weights)
        # one add.at over offset class slots, row by row in rank order: every
        # score is summed in the same order as a per-row vote would
        slots = vote_labels[order]
        slots += (np.arange(len(order)) * n_classes)[:, None]
        np.add.at(scores[start:start + len(order)].reshape(-1), slots.ravel(), weights.ravel())
    preds = np.argmax(scores, axis=1)
    correct = int(np.count_nonzero(preds == test_labels))
    return 100.0 * correct / len(test_labels)


def pair_precision(pairs, true_labels: np.ndarray, noisy_labels: np.ndarray) -> float | None:
    """Percent of selected pairs whose endpoints share a true class, or None
    when no pair is selected. `pairs` is a selection (anything with
    pair_block(rows, cols), such as a SelectionState) over the examples the
    label arrays describe. It joins only examples of equal noisy label, so
    only same_label_blocks(noisy_labels) are read, with no (n, n) temporary."""
    true_labels = np.asarray(true_labels)
    selected = good = 0
    for rows, cols in same_label_blocks(np.asarray(noisy_labels)):
        block = np.triu(pairs.pair_block(rows, cols), 1)
        selected += int(np.count_nonzero(block))
        block &= np.equal.outer(true_labels[rows], true_labels[cols])
        good += int(np.count_nonzero(block))
    if selected == 0:
        return None
    return 100.0 * good / selected


def selection_precision(state: SelectionState,
                        true_labels: np.ndarray) -> tuple[float | None, float | None]:
    """Percent of confident examples whose noisy label (state.noisy_labels,
    the labels the selection was made from) is the true one, and percent of
    selected pairs whose endpoints share a true class.

    An empty set has no precision: its entry is None.
    """
    true_labels = np.asarray(true_labels)
    noisy_labels = state.noisy_labels
    prec_examples = None
    if state.confident.size:
        hits = np.sum(true_labels[state.confident] == noisy_labels[state.confident])
        prec_examples = float(100.0 * hits / state.confident.size)
    # pairs never cross the selection's labels
    return prec_examples, pair_precision(state, true_labels, noisy_labels)


def project_2d(x: np.ndarray) -> np.ndarray:
    """Project rows of x onto their top-2 principal components.

    The first output column carries at least as much variance as the second.
    """
    x = np.asarray(x, dtype=np.float64)
    if len(x) < 3:
        raise ValueError("need at least 3 points for a 2-d projection")
    centered = x - x.mean(axis=0)
    _, _, vt = np.linalg.svd(centered, full_matrices=False)
    return centered @ vt[:2].T


def dump_projection_2d(z: np.ndarray, true_labels: np.ndarray, noisy_labels: np.ndarray,
                       confident_mask: np.ndarray, path) -> None:
    """Write a 2-d principal-component view of the embeddings as CSV with
    columns x, y, true_label, noisy_label, in_T."""
    coords = project_2d(z)
    true_labels = np.asarray(true_labels)
    noisy_labels = np.asarray(noisy_labels)
    confident_mask = np.asarray(confident_mask, dtype=bool)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["x", "y", "true_label", "noisy_label", "in_T"])
        for i in range(len(coords)):
            writer.writerow([f"{coords[i, 0]:.8f}", f"{coords[i, 1]:.8f}",
                             int(true_labels[i]), int(noisy_labels[i]),
                             int(confident_mask[i])])
