"""Contrastive, classification and pair-similarity losses with analytic gradients.

Every loss takes plain arrays. A minibatch of 2N views is described by its
embeddings z or softmax outputs p_hat, by twin (twin[i] is the other view
built from view i's input) and, where pairs matter, by boolean (2N, 2N)
masks whose cell (i, j) says whether view i's and view j's examples form a
selected pair; the selective step slices all of them from one
SelectionState.pair_block. positive_mask is the one place that adds the
twin to a view's positives.

Conventions: every value is a mean. A contrastive value is the (weighted)
mean over the 2N anchors, as Sup-CL's reference code averages it, so its
scale and its gradient's do not grow with the batch; the classification and
similarity values are means over their scored items. Gradients come back
with respect to the quantities the network exposes (normalized embeddings z
and softmax outputs p_hat), so the network's backward pass composes them.
Each loss computes in the dtype of its z or p_hat (float32 in training):
row weights, mixup weights and pair targets are cast to it, so a gradient
comes back in that dtype; the values are python floats.
"""
from __future__ import annotations

import numpy as np

CE_EPS = 1e-12   # guard inside -log(prob)
BCE_EPS = 1e-7   # clamp for dot-product probabilities


def positive_mask(pair_mask: np.ndarray, twin: np.ndarray) -> np.ndarray:
    """Each view's contrastive positives: its selected pairs (pair_mask) and
    its twin, never itself. Returns a new (m, m) mask."""
    mask = np.array(pair_mask, dtype=bool)
    m = len(twin)
    if mask.shape != (m, m):
        raise ValueError("pair mask shape mismatch")
    mask[np.arange(m), twin] = True
    np.fill_diagonal(mask, False)
    return mask


def masked_contrastive(z: np.ndarray, pos_mask: np.ndarray, tau: float,
                       row_weights: np.ndarray | None = None) -> tuple[float, np.ndarray]:
    """Anchor-wise masked log-softmax loss over dot-product similarities.

    For each anchor i the loss is the mean over its positives g of
    -log(exp(z_i . z_g / tau) / sum_{a != i} exp(z_i . z_a / tau)); the value
    is the mean over the m anchors of row_weights[i] (default 1) times that
    loss, i.e. the weighted sum divided by m. Rows without positives
    contribute nothing but still count in m. Returns (value, gradient with
    respect to z).
    """
    return _masked_term(z, _anchor_softmax(z, tau), pos_mask, tau, row_weights)


def _anchor_softmax(z: np.ndarray, tau: float) -> tuple[np.ndarray, np.ndarray]:
    """(log_prob, softmax) of each anchor's similarities z_i . z_a / tau over
    the other anchors a != i; the diagonal of log_prob is 0."""
    if tau <= 0:
        raise ValueError("temperature must be positive")
    sims = (z @ z.T) / tau
    np.fill_diagonal(sims, -np.inf)  # anchors never score against themselves
    shift = sims.max(axis=1, keepdims=True)
    expd = np.exp(sims - shift)
    denom = expd.sum(axis=1, keepdims=True)
    log_prob = (sims - shift) - np.log(denom)
    np.fill_diagonal(log_prob, 0.0)  # masked out; keeps 0 * -inf out of the sum
    return log_prob, expd / denom


def _masked_term(z: np.ndarray, anchor_softmax: tuple[np.ndarray, np.ndarray],
                 pos_mask: np.ndarray, tau: float,
                 row_weights: np.ndarray | None) -> tuple[float, np.ndarray]:
    """masked_contrastive for one positive mask, given _anchor_softmax(z, tau):
    the row weights are divided by m, which makes value and gradient means
    over the anchors."""
    log_prob, softmax = anchor_softmax
    m = len(z)
    if pos_mask.shape != (m, m):
        raise ValueError("positive mask shape mismatch")
    if np.any(np.diagonal(pos_mask)):
        raise ValueError("an anchor cannot be its own positive")
    weights = np.ones(m, z.dtype) if row_weights is None else np.asarray(row_weights, z.dtype)
    weights = weights / m  # the mean over anchors

    counts = pos_mask.sum(axis=1, dtype=z.dtype)  # small integers, exact in any float
    active = counts > 0
    per_anchor = np.zeros(m, z.dtype)
    per_anchor[active] = -(pos_mask[active] * log_prob[active]).sum(axis=1) / counts[active]
    value = float((weights * per_anchor).sum())

    coeff = softmax.copy()
    coeff[active] -= pos_mask[active] / counts[active, None]
    coeff[~active] = 0.0
    coeff *= weights[:, None]
    np.fill_diagonal(coeff, 0.0)
    grad = (coeff @ z + coeff.T @ z) / tau
    return value, grad


def unsup_contrastive(z: np.ndarray, twin: np.ndarray, tau: float) -> tuple[float, np.ndarray]:
    """Instance-discrimination loss: the only positive of a view is its twin."""
    m = len(twin)
    return masked_contrastive(z, positive_mask(np.zeros((m, m), dtype=bool), twin), tau)


def mixup_contrastive(z: np.ndarray, pair_a: np.ndarray, pair_b: np.ndarray,
                      twin: np.ndarray, lam: np.ndarray, tau: float) -> tuple[float, np.ndarray]:
    """Interpolation-weighted contrastive loss on mixed views.

    Anchor i contributes lam[i] times the pair-supervised loss under its
    ingredient-a identity plus (1 - lam[i]) times the loss under its
    ingredient b; the other views always take part under their dominant
    identity. The two weights sum to one per anchor, so the value is a mean
    over anchors like masked_contrastive's. pair_a[i, j] (pair_b[i, j])
    says whether anchor i's ingredient a (b) forms a selected pair with view
    j's dominant ingredient; the twin is added by positive_mask.
    """
    lam = np.asarray(lam, dtype=z.dtype)
    if np.any(lam < 0.0) or np.any(lam > 1.0):
        raise ValueError("lam must lie in [0, 1]")
    shared = _anchor_softmax(z, tau)  # the masks differ, the similarities do not
    val_a, grad_a = _masked_term(z, shared, positive_mask(pair_a, twin), tau, lam)
    val_b, grad_b = _masked_term(z, shared, positive_mask(pair_b, twin), tau, 1.0 - lam)
    return val_a + val_b, grad_a + grad_b


def classification_loss(p_hat: np.ndarray, labels: np.ndarray,
                        scored: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean cross-entropy -log(p_hat[label] + eps) over the scored views.

    Returns (value, gradient with respect to p_hat); unscored rows get zero
    gradient, and an empty score set yields a zero loss.
    """
    labels = np.asarray(labels)
    scored = np.asarray(scored, dtype=bool)
    grad = np.zeros_like(p_hat)
    count = int(scored.sum())
    if count == 0:
        return 0.0, grad
    rows = np.flatnonzero(scored)
    probs = p_hat[rows, labels[rows]]
    value = float(np.mean(-np.log(probs + CE_EPS)))
    grad[rows, labels[rows]] = -1.0 / (probs + CE_EPS) / count
    return value, grad


def similarity_loss(p_hat: np.ndarray, targets: np.ndarray) -> tuple[float, np.ndarray]:
    """Binary cross-entropy between prediction agreement and pair membership.

    For every ordered view pair (i, j != i) the agreement p_hat_i . p_hat_j,
    clamped to [eps, 1 - eps], is scored against targets[i, j], the 0/1
    indicator of the two views' examples forming a selected pair; the value
    is the mean over all ordered pairs. Returns (value, gradient with
    respect to p_hat).
    """
    m = len(p_hat)
    if m < 2:
        return 0.0, np.zeros_like(p_hat)
    targets = np.asarray(targets, dtype=p_hat.dtype)

    raw = p_hat @ p_hat.T
    agree = np.clip(raw, BCE_EPS, 1.0 - BCE_EPS)
    off = ~np.eye(m, dtype=bool)
    losses = -(targets * np.log(agree) + (1.0 - targets) * np.log(1.0 - agree))
    count = m * (m - 1)
    value = float(losses[off].sum() / count)

    d_agree = (-targets / agree + (1.0 - targets) / (1.0 - agree)) / count
    d_agree[~off] = 0.0
    d_agree[(raw < BCE_EPS) | (raw > 1.0 - BCE_EPS)] = 0.0  # clamp is flat
    grad = d_agree @ p_hat + d_agree.T @ p_hat
    return value, grad


def total_loss(l_mix: float, l_cls: float, l_sim: float,
               lambda_cls: float, lambda_sim: float) -> float:
    """Training objective: l_mix + lambda_cls * l_cls + lambda_sim * l_sim."""
    return l_mix + lambda_cls * l_cls + lambda_sim * l_sim
