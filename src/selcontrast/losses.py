"""Contrastive, classification and pair-similarity losses with analytic gradients.

Conventions: contrastive values are summed over anchors; the classification
and similarity values are means over their scored items. Gradients come back
with respect to the quantities the network exposes (normalized embeddings z
and softmax outputs p_hat), so the network's backward pass composes them.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

CE_EPS = 1e-12   # guard inside -log(prob)
BCE_EPS = 1e-7   # clamp for dot-product probabilities


@dataclass
class BatchView:
    """A 2N-view minibatch: two stochastic views per drawn example.

    origins holds each view's dataset index (for mixed views, the index of the
    dominant ingredient); twin[i] is the other view built from the same input.
    For mixed batches, mix_a/mix_b give both ingredient indices and lam the
    mixing weight of ingredient a.
    """

    z: np.ndarray | None     # (2N, proj_dim); None when no loss reads it
    p_hat: np.ndarray        # (2N, n_classes)
    origins: np.ndarray      # (2N,)
    labels: np.ndarray       # (2N,) noisy labels matching origins
    twin: np.ndarray         # (2N,)
    mix_a: np.ndarray | None = None
    mix_b: np.ndarray | None = None
    lam: np.ndarray | None = None

    @property
    def n_views(self) -> int:
        return len(self.origins)


@dataclass
class LossBundle:
    """Per-batch training losses and the gradients to feed backward.

    grad_z applies to the contrastive (possibly mixed) views' embeddings;
    grad_p applies to the plain views' softmax outputs and already carries the
    classification/similarity weights.
    """

    l_mix: float
    l_cls: float
    l_sim: float
    l_all: float
    grad_z: np.ndarray
    grad_p: np.ndarray


def _twin_mask(twin: np.ndarray) -> np.ndarray:
    m = len(twin)
    mask = np.zeros((m, m), dtype=bool)
    mask[np.arange(m), twin] = True
    return mask


def masked_contrastive(z: np.ndarray, pos_mask: np.ndarray, tau: float,
                       row_weights: np.ndarray | None = None) -> tuple[float, np.ndarray]:
    """Anchor-wise masked log-softmax loss over dot-product similarities.

    For each anchor i the loss is the mean over its positives g of
    -log(exp(z_i . z_g / tau) / sum_{a != i} exp(z_i . z_a / tau)), the total
    is the row_weights-weighted sum over anchors. Rows without positives
    contribute nothing. Returns (value, gradient with respect to z).
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
    """masked_contrastive for one positive mask, given _anchor_softmax(z, tau)."""
    log_prob, softmax = anchor_softmax
    m = len(z)
    if pos_mask.shape != (m, m):
        raise ValueError("positive mask shape mismatch")
    if np.any(np.diagonal(pos_mask)):
        raise ValueError("an anchor cannot be its own positive")
    weights = np.ones(m) if row_weights is None else np.asarray(row_weights, dtype=np.float64)

    counts = pos_mask.sum(axis=1)
    active = counts > 0
    per_anchor = np.zeros(m)
    per_anchor[active] = -(pos_mask[active] * log_prob[active]).sum(axis=1) / counts[active]
    value = float((weights * per_anchor).sum())

    coeff = softmax.copy()
    coeff[active] -= pos_mask[active] / counts[active, None]
    coeff[~active] = 0.0
    coeff *= weights[:, None]
    np.fill_diagonal(coeff, 0.0)
    grad = (coeff @ z + coeff.T @ z) / tau
    return value, grad


def unsup_contrastive(batch: BatchView, tau: float) -> tuple[float, np.ndarray]:
    """Instance-discrimination loss: the only positive of a view is its twin."""
    return masked_contrastive(batch.z, _twin_mask(batch.twin), tau)


def _selected_positive_mask(batch: BatchView, pair_mask: np.ndarray,
                            anchor_origins: np.ndarray) -> np.ndarray:
    """Selected-pair positives per anchor, with the twin always included.

    pair_mask is the selection's symmetric (n, n) boolean pair mask over the
    dataset indices the origins refer to; its diagonal is False.
    """
    mask = pair_mask[np.ix_(anchor_origins, batch.origins)]
    mask |= _twin_mask(batch.twin)
    np.fill_diagonal(mask, False)
    return mask


def sup_contrastive(batch: BatchView, pair_mask: np.ndarray,
                    tau: float) -> tuple[float, np.ndarray]:
    """Pair-supervised contrastive loss.

    A view's positives are the views whose origin forms a selected pair with
    its own origin, plus its twin; a view with no selected partner therefore
    degrades to the instance-discrimination term.
    """
    mask = _selected_positive_mask(batch, pair_mask, batch.origins)
    return masked_contrastive(batch.z, mask, tau)


def mixup_contrastive(batch: BatchView, pair_mask: np.ndarray,
                      tau: float) -> tuple[float, np.ndarray]:
    """Interpolation-weighted contrastive loss on mixed views.

    Each anchor contributes lam times the pair-supervised loss under its
    ingredient-a identity plus (1 - lam) times the loss under ingredient b;
    other views always participate under their dominant identity.
    """
    if batch.mix_a is None or batch.mix_b is None or batch.lam is None:
        raise ValueError("mixup_contrastive needs a mixed batch (mix_a/mix_b/lam)")
    lam = np.asarray(batch.lam, dtype=np.float64)
    if np.any(lam < 0.0) or np.any(lam > 1.0):
        raise ValueError("lam must lie in [0, 1]")
    mask_a = _selected_positive_mask(batch, pair_mask, batch.mix_a)
    mask_b = _selected_positive_mask(batch, pair_mask, batch.mix_b)
    shared = _anchor_softmax(batch.z, tau)  # the masks differ, the similarities do not
    val_a, grad_a = _masked_term(batch.z, shared, mask_a, tau, lam)
    val_b, grad_b = _masked_term(batch.z, shared, mask_b, tau, 1.0 - lam)
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


def similarity_loss(batch: BatchView, pair_mask: np.ndarray) -> tuple[float, np.ndarray]:
    """Binary cross-entropy between prediction agreement and pair membership.

    For every ordered view pair (i, j != i) the agreement p_hat_i . p_hat_j,
    clamped to [eps, 1 - eps], is scored against the 0/1 indicator of the
    origin pair being selected; the value is the mean over all ordered pairs.
    Returns (value, gradient with respect to p_hat).
    """
    m = batch.n_views
    if m < 2:
        return 0.0, np.zeros_like(batch.p_hat)
    targets = pair_mask[np.ix_(batch.origins, batch.origins)].astype(np.float64)
    np.fill_diagonal(targets, 0.0)

    raw = batch.p_hat @ batch.p_hat.T
    agree = np.clip(raw, BCE_EPS, 1.0 - BCE_EPS)
    off = ~np.eye(m, dtype=bool)
    losses = -(targets * np.log(agree) + (1.0 - targets) * np.log(1.0 - agree))
    count = m * (m - 1)
    value = float(losses[off].sum() / count)

    d_agree = (-targets / agree + (1.0 - targets) / (1.0 - agree)) / count
    d_agree[~off] = 0.0
    d_agree[(raw < BCE_EPS) | (raw > 1.0 - BCE_EPS)] = 0.0  # clamp is flat
    grad = d_agree @ batch.p_hat + d_agree.T @ batch.p_hat
    return value, grad


def total_loss(l_mix: float, l_cls: float, l_sim: float,
               lambda_cls: float, lambda_sim: float) -> float:
    """Training objective: l_mix + lambda_cls * l_cls + lambda_sim * l_sim."""
    return l_mix + lambda_cls * l_cls + lambda_sim * l_sim


def compute_loss_bundle(mixed: BatchView, plain: BatchView, pair_mask: np.ndarray,
                        scored: np.ndarray, tau: float,
                        lambda_cls: float, lambda_sim: float) -> LossBundle:
    """Full objective for one step: interpolation-weighted contrastive loss on
    the mixed views, classification and similarity losses on the plain views."""
    l_mix, grad_z = mixup_contrastive(mixed, pair_mask, tau)
    l_cls, grad_cls = classification_loss(plain.p_hat, plain.labels, scored)
    l_sim, grad_sim = similarity_loss(plain, pair_mask)
    return LossBundle(
        l_mix=l_mix, l_cls=l_cls, l_sim=l_sim,
        l_all=total_loss(l_mix, l_cls, l_sim, lambda_cls, lambda_sim),
        grad_z=grad_z,
        grad_p=lambda_cls * grad_cls + lambda_sim * grad_sim,
    )
