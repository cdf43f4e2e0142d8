"""Tests for the loss zoo: frozen analytic values, independent scalar oracles,
finite-difference gradient checks and the reduction identities.
"""
import math

import numpy as np
import pytest
from oracles import pair_mask

from selcontrast.losses import (BatchView, classification_loss,
                                compute_loss_bundle, mixup_contrastive,
                                similarity_loss, sup_contrastive, total_loss,
                                unsup_contrastive)


def unit_rows(m):
    m = np.asarray(m, dtype=np.float64)
    return m / np.linalg.norm(m, axis=1, keepdims=True)


def plain_batch(z, labels, origins=None):
    """Two-view batch layout used by the trainer: twin(i) = i +- N."""
    m = len(z)
    n = m // 2
    if origins is None:
        origins = np.concatenate([np.arange(n), np.arange(n)])
    twin = np.concatenate([np.arange(n) + n, np.arange(n)])
    p_hat = np.full((m, 2), 0.5)
    return BatchView(z=np.asarray(z, float), p_hat=p_hat,
                     origins=np.asarray(origins),
                     labels=np.asarray(labels), twin=twin)


def random_batch(rng, n=3, proj_dim=4, classes=3):
    z = unit_rows(rng.normal(size=(2 * n, proj_dim)))
    labels_per_origin = rng.integers(0, classes, size=n)
    labels = np.concatenate([labels_per_origin, labels_per_origin])
    logits = rng.normal(size=(2 * n, classes))
    p = np.exp(logits) / np.exp(logits).sum(axis=1, keepdims=True)
    batch = plain_batch(z, labels)
    batch.p_hat = p
    return batch


def scalar_masked_loss(z, mask, tau, weights=None):
    """Term-by-term python reimplementation of the anchor-wise loss."""
    m = len(z)
    total = 0.0
    for i in range(m):
        positives = [g for g in range(m) if mask[i][g]]
        if not positives:
            continue
        denom = sum(math.exp(np.dot(z[i], z[a]) / tau) for a in range(m) if a != i)
        anchor = -sum(math.log(math.exp(np.dot(z[i], z[g]) / tau) / denom)
                      for g in positives) / len(positives)
        total += anchor if weights is None else weights[i] * anchor
    return total


def fd_grad_z(loss_fn, z, step=1e-6):
    g = np.zeros_like(z)
    for i in range(z.shape[0]):
        for j in range(z.shape[1]):
            zp, zm = z.copy(), z.copy()
            zp[i, j] += step
            zm[i, j] -= step
            g[i, j] = (loss_fn(zp) - loss_fn(zm)) / (2 * step)
    return g


# ---------------------------------------------------------------------------
# frozen analytic values
# ---------------------------------------------------------------------------

def test_identical_embeddings_give_four_log_three():
    z = unit_rows(np.ones((4, 3)))
    batch = plain_batch(z, labels=[0, 0, 0, 0])
    value, _ = unsup_contrastive(batch, tau=0.1)
    assert value == pytest.approx(4 * math.log(3), rel=1e-12)
    # same with every pair selected: positives change, the value does not,
    # because all candidates are indistinguishable
    all_pairs = pair_mask({(0, 1)}, 2)
    value_sup, _ = sup_contrastive(batch, all_pairs, tau=0.1)
    assert value_sup == pytest.approx(4 * math.log(3), rel=1e-12)


def test_uniform_predictions_give_log_c():
    p = np.full((6, 10), 0.1)
    value, _ = classification_loss(p, np.zeros(6, dtype=int), np.ones(6, bool))
    assert value == pytest.approx(math.log(10), rel=1e-9)


def test_one_hot_predictions_give_zero_loss():
    p = np.zeros((3, 4))
    p[np.arange(3), [1, 2, 0]] = 1.0
    value, _ = classification_loss(p, np.array([1, 2, 0]), np.ones(3, bool))
    assert value == pytest.approx(0.0, abs=1e-9)


def test_similarity_loss_uniform_two_classes_gives_log_two():
    z = unit_rows(np.ones((4, 2)))
    batch = plain_batch(z, labels=[0, 0, 0, 0])
    batch.p_hat = np.full((4, 2), 0.5)  # every agreement is exactly 0.5
    # select every ordered origin pair -> all targets 1
    pairs = pair_mask({(0, 1)}, 2)
    value, _ = similarity_loss(batch, pairs)
    # 4 ordered view pairs carry target 1 (origins {0,1} cross terms);
    # 8 remaining ordered pairs carry target 0; all see s = 0.5 -> ln 2 each
    assert value == pytest.approx(math.log(2), rel=1e-9)


def test_similarity_loss_perfect_agreement_is_tiny():
    # one-hot same class on selected pair, orthogonal one-hots elsewhere
    p = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.0, 1.0]])
    z = unit_rows(np.ones((4, 2)))
    batch = plain_batch(z, labels=[0, 1, 0, 1], origins=[0, 1, 0, 1])
    batch.p_hat = p
    # views 0/2 share origin 0, views 1/3 share origin 1; select no pairs:
    # cross-origin targets 0 with s=0 -> ~0; same-origin ordered pairs are
    # self-pairs by origin and never selected, s=... index 0 vs 2: origins
    # equal -> target 0 but s = 1 -> large loss. So instead select {0,1}:
    pairs = pair_mask({(0, 1)}, 2)
    value, _ = similarity_loss(batch, pairs)
    # pairs (0,1),(0,3),(2,1),(2,3) ordered both ways: target 1, s=0 -> huge;
    # this instance instead demonstrates the worst case is finite (clamped)
    assert np.isfinite(value)


def test_similarity_loss_matched_structure_near_zero():
    # agreement 1 on selected pairs and 0 on unselected ones -> loss ~ 0
    p = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.0, 1.0]])
    z = unit_rows(np.ones((4, 2)))
    batch = plain_batch(z, labels=[0, 0, 1, 1], origins=[0, 1, 2, 3])
    batch.p_hat = p
    value, _ = similarity_loss(batch, pair_mask({(0, 1), (2, 3)}, 4))
    assert value == pytest.approx(0.0, abs=1e-5)


def test_total_loss_weighted_sum_exact():
    rng = np.random.default_rng(0)
    for _ in range(20):
        lm, lc, ls = rng.normal(size=3)
        wc, ws = rng.random(2)
        assert total_loss(lm, lc, ls, wc, ws) == lm + wc * lc + ws * ls


# ---------------------------------------------------------------------------
# reduction identities
# ---------------------------------------------------------------------------

def test_sup_equals_unsup_without_selected_pairs():
    rng = np.random.default_rng(1)
    batch = random_batch(rng, n=4)
    v_sup, g_sup = sup_contrastive(batch, pair_mask(set(), 4), tau=0.1)
    v_uns, g_uns = unsup_contrastive(batch, tau=0.1)
    assert v_sup == v_uns
    np.testing.assert_array_equal(g_sup, g_uns)


def test_mixup_at_lambda_one_equals_pure_sup():
    rng = np.random.default_rng(2)
    batch = random_batch(rng, n=3)
    pairs = pair_mask({(0, 1), (1, 2)}, 3)
    batch.mix_a = batch.origins.copy()
    batch.mix_b = np.roll(batch.origins, 1)
    batch.lam = np.ones(batch.n_views)
    v_mix, g_mix = mixup_contrastive(batch, pairs, tau=0.1)
    v_sup, g_sup = sup_contrastive(batch, pairs, tau=0.1)
    assert v_mix == v_sup
    np.testing.assert_array_equal(g_mix, g_sup)


def test_mixup_at_lambda_zero_keeps_only_ingredient_b():
    rng = np.random.default_rng(3)
    batch = random_batch(rng, n=3)
    pairs = pair_mask({(0, 2)}, 3)
    batch.mix_a = np.roll(batch.origins, 1)
    batch.mix_b = batch.origins.copy()
    batch.lam = np.zeros(batch.n_views)
    v_mix, g_mix = mixup_contrastive(batch, pairs, tau=0.1)
    # with lam = 0 everywhere, the dominant identities equal origins = mix_b
    v_sup, g_sup = sup_contrastive(batch, pairs, tau=0.1)
    assert v_mix == v_sup
    np.testing.assert_array_equal(g_mix, g_sup)


@pytest.mark.parametrize("seed", [6, 7, 8])
def test_mixup_shared_softmax_equals_two_masked_calls_exactly(seed):
    # one similarity/softmax for both masks must not change a single bit of
    # what two independent masked_contrastive calls give
    from selcontrast.losses import _selected_positive_mask, masked_contrastive
    rng = np.random.default_rng(seed)
    batch = random_batch(rng, n=5)
    batch.mix_a = batch.origins.copy()
    batch.mix_b = rng.permutation(batch.origins)
    batch.lam = rng.random(batch.n_views)
    pairs = pair_mask({(0, 1), (1, 3), (2, 4)}, 5)
    value, grad = mixup_contrastive(batch, pairs, tau=0.1)
    v_a, g_a = masked_contrastive(batch.z, _selected_positive_mask(batch, pairs, batch.mix_a),
                                  0.1, row_weights=batch.lam)
    v_b, g_b = masked_contrastive(batch.z, _selected_positive_mask(batch, pairs, batch.mix_b),
                                  0.1, row_weights=1.0 - batch.lam)
    assert value == v_a + v_b
    np.testing.assert_array_equal(grad, g_a + g_b)


def test_bundle_additivity_exact():
    rng = np.random.default_rng(4)
    batch = random_batch(rng, n=4)
    mixed = random_batch(rng, n=4)
    mixed.mix_a = mixed.origins.copy()
    mixed.mix_b = np.roll(mixed.origins, 2)
    mixed.lam = rng.random(mixed.n_views)
    pairs = pair_mask({(0, 1), (2, 3)}, 4)
    scored = rng.random(batch.n_views) < 0.5
    bundle = compute_loss_bundle(mixed, batch, pairs, scored,
                                 tau=0.1, lambda_cls=0.7, lambda_sim=0.013)
    assert bundle.l_all == bundle.l_mix + 0.7 * bundle.l_cls + 0.013 * bundle.l_sim


def test_mixup_lambda_half_is_half_sum_of_anchor_losses():
    rng = np.random.default_rng(5)
    batch = random_batch(rng, n=3)
    pairs = pair_mask({(0, 1)}, 3)
    batch.mix_a = batch.origins.copy()
    batch.mix_b = np.roll(batch.origins, 1)
    batch.lam = np.full(batch.n_views, 0.5)
    v_mix, _ = mixup_contrastive(batch, pairs, tau=0.2)
    batch_a = BatchView(z=batch.z, p_hat=batch.p_hat, origins=batch.origins,
                        labels=batch.labels, twin=batch.twin)
    v_a, _ = sup_contrastive(batch_a, pairs, tau=0.2)
    batch_b = BatchView(z=batch.z, p_hat=batch.p_hat, origins=batch.origins,
                        labels=batch.labels, twin=batch.twin)
    # ingredient-b identities differ; compute its anchor loss with origins
    # swapped to mix_b while the batch context (others' identities) is fixed
    from selcontrast.losses import _selected_positive_mask, masked_contrastive
    mask_b = _selected_positive_mask(batch, pairs, batch.mix_b)
    v_b = masked_contrastive(batch.z, mask_b, 0.2)[0]
    assert v_mix == pytest.approx(0.5 * v_a + 0.5 * v_b, rel=1e-12)


# ---------------------------------------------------------------------------
# scalar oracles and finite differences
# ---------------------------------------------------------------------------

def test_unsup_value_matches_scalar_reimplementation():
    rng = np.random.default_rng(6)
    batch = random_batch(rng, n=3)
    mask = np.zeros((6, 6), dtype=bool)
    mask[np.arange(6), batch.twin] = True
    expected = scalar_masked_loss(batch.z, mask, tau=0.1)
    value, _ = unsup_contrastive(batch, tau=0.1)
    assert value == pytest.approx(expected, rel=1e-9)


def test_sup_value_matches_scalar_reimplementation():
    rng = np.random.default_rng(7)
    batch = random_batch(rng, n=3)
    pairs = {(0, 1), (0, 2)}
    mask = np.zeros((6, 6), dtype=bool)
    for i in range(6):
        for g in range(6):
            if i == g:
                continue
            a, b = int(batch.origins[i]), int(batch.origins[g])
            if a != b and ((min(a, b), max(a, b)) in pairs):
                mask[i, g] = True
        mask[i, batch.twin[i]] = True
    expected = scalar_masked_loss(batch.z, mask, tau=0.1)
    value, _ = sup_contrastive(batch, pair_mask(pairs, 3), tau=0.1)
    assert value == pytest.approx(expected, rel=1e-9)


def test_unsup_gradient_matches_finite_differences():
    rng = np.random.default_rng(8)
    batch = random_batch(rng, n=3)

    def loss_of(z):
        b = BatchView(z=z, p_hat=batch.p_hat, origins=batch.origins,
                      labels=batch.labels, twin=batch.twin)
        return unsup_contrastive(b, tau=0.1)[0]

    _, grad = unsup_contrastive(batch, tau=0.1)
    numeric = fd_grad_z(loss_of, batch.z)
    np.testing.assert_allclose(grad, numeric, rtol=1e-4, atol=1e-7)


def test_mixup_gradient_matches_finite_differences():
    rng = np.random.default_rng(9)
    batch = random_batch(rng, n=3)
    pairs = pair_mask({(0, 1), (1, 2)}, 3)
    batch.mix_a = batch.origins.copy()
    batch.mix_b = np.roll(batch.origins, 1)
    batch.lam = rng.random(batch.n_views)

    def loss_of(z):
        b = BatchView(z=z, p_hat=batch.p_hat, origins=batch.origins,
                      labels=batch.labels, twin=batch.twin,
                      mix_a=batch.mix_a, mix_b=batch.mix_b, lam=batch.lam)
        return mixup_contrastive(b, pairs, tau=0.1)[0]

    _, grad = mixup_contrastive(batch, pairs, tau=0.1)
    numeric = fd_grad_z(loss_of, batch.z)
    np.testing.assert_allclose(grad, numeric, rtol=1e-4, atol=1e-7)


def test_classification_gradient_matches_finite_differences():
    rng = np.random.default_rng(10)
    p = rng.dirichlet(np.ones(4), size=5)
    labels = rng.integers(0, 4, size=5)
    scored = np.array([True, False, True, True, False])

    value, grad = classification_loss(p, labels, scored)
    step = 1e-7
    for i in range(5):
        for c in range(4):
            pp, pm = p.copy(), p.copy()
            pp[i, c] += step
            pm[i, c] -= step
            num = (classification_loss(pp, labels, scored)[0]
                   - classification_loss(pm, labels, scored)[0]) / (2 * step)
            assert grad[i, c] == pytest.approx(num, rel=1e-4, abs=1e-6)


def test_similarity_gradient_matches_finite_differences():
    rng = np.random.default_rng(11)
    batch = random_batch(rng, n=3)
    pairs = pair_mask({(0, 1)}, 3)

    def loss_of(p):
        b = BatchView(z=batch.z, p_hat=p, origins=batch.origins,
                      labels=batch.labels, twin=batch.twin)
        return similarity_loss(b, pairs)[0]

    _, grad = similarity_loss(batch, pairs)
    step = 1e-6
    numeric = np.zeros_like(batch.p_hat)
    for i in range(batch.n_views):
        for c in range(batch.p_hat.shape[1]):
            pp, pm = batch.p_hat.copy(), batch.p_hat.copy()
            pp[i, c] += step
            pm[i, c] -= step
            numeric[i, c] = (loss_of(pp) - loss_of(pm)) / (2 * step)
    np.testing.assert_allclose(grad, numeric, rtol=1e-4, atol=1e-7)


def test_similarity_clamp_zeroes_gradient():
    # agreements outside [eps, 1-eps] sit on the clamp plateau
    p = np.array([[1.0, 0.0], [1.0, 0.0]])
    z = unit_rows(np.ones((2, 2)))
    batch = BatchView(z=z, p_hat=p, origins=np.array([0, 1]),
                      labels=np.array([0, 0]), twin=np.array([1, 0]))
    # agreement = 1 > 1 - eps with target 1 -> flat region, zero gradient
    value, grad = similarity_loss(batch, pair_mask({(0, 1)}, 2))
    np.testing.assert_array_equal(grad, np.zeros_like(p))


def test_empty_scored_set_gives_zero_loss_and_gradient():
    p = np.full((4, 3), 1 / 3)
    value, grad = classification_loss(p, np.zeros(4, dtype=int),
                                      np.zeros(4, dtype=bool))
    assert value == 0.0
    np.testing.assert_array_equal(grad, np.zeros_like(p))


def test_contrastive_rejects_nonpositive_tau():
    rng = np.random.default_rng(12)
    batch = random_batch(rng, n=2)
    with pytest.raises(ValueError):
        unsup_contrastive(batch, tau=0.0)


def test_mixup_rejects_lambda_outside_unit_interval():
    rng = np.random.default_rng(13)
    batch = random_batch(rng, n=2)
    batch.mix_a = batch.origins.copy()
    batch.mix_b = np.roll(batch.origins, 1)
    batch.lam = np.array([0.5, 0.5, 1.2, 0.5])
    with pytest.raises(ValueError):
        mixup_contrastive(batch, pair_mask(set(), 2), tau=0.1)
