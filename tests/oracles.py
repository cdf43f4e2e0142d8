"""Independent reference implementations shared by the test modules.

Everything here deliberately avoids the package's own helpers: plain python
loops, ``sorted()`` and ``math`` where possible, so the tests compare two
genuinely separate derivations. The neighbor references rank one row at a
time with a full ``np.lexsort``; the kNN probe reference keeps numpy's ``exp``
and a per-row ``np.add.at``, so its class scores are summed in the same order
as the package's and compare bit for bit. The adapters at the end translate
between pair sets, boolean pair masks and the pair_block interface that the
selective step and the pair precision read, so that a hand-picked set of
pairs can be fed to them, sliced into the losses' masks and compared with
the oracle's sets. The network references (forward, backward, the SGD step)
keep the operations and their order of the straightforward formulas: every
pre-activation, a fresh dict of gradients per call, so the lean package
versions compare bit for bit. They compute in the dtype of the parameters
(float32 or float64), as the package does.
The reference selective step composes them with the package's mixup and
loss functions in the joint order the step first had, and reads its three
pair masks with three pair_block calls rather than slicing one block.
dump_pairs rebuilds a selection's pairs from its `--dump-selection` JSON
alone, in Python integers.
"""
import dataclasses
import math

import numpy as np


def brute_force_selection(z, noisy, y_hat, q_hat, alpha, beta):
    """Reference confident-example / confident-pair selection.

    Returns (confident_indices, same_label_confident_pairs, sim_threshold,
    above_threshold_pairs, union). Conventions mirrored: nearest-rank fractile
    max(1, ceil(f*m - 1e-9)); per-class budget from the alpha-fractile of
    noisy==pseudo agreement counts over all classes; within a class, members
    ranked by cross-entropy of the posterior against the noisy label (ties by
    index); the similarity cut is strictly greater-than.
    """
    n = len(noisy)
    classes = q_hat.shape[1]
    agree = [sum(1 for i in range(n) if y_hat[i] == noisy[i] and noisy[i] == c)
             for c in range(classes)]
    ordered = sorted(agree)
    rank = max(1, math.ceil(alpha * len(ordered) - 1e-9))
    budget = ordered[min(rank, len(ordered)) - 1]

    confident = []
    for c in range(classes):
        members = [i for i in range(n) if noisy[i] == c]
        members.sort(key=lambda i: (-math.log(q_hat[i, noisy[i]] + 1e-12), i))
        confident.extend(members[:budget])
    confident = sorted(confident)

    g_prime = {(i, j) for i in confident for j in confident
               if i < j and noisy[i] == noisy[j]}
    sims = z @ z.T
    if g_prime:
        pair_sims = sorted(sims[i, j] for i, j in g_prime)
        rank = max(1, math.ceil(beta * len(pair_sims) - 1e-9))
        gamma = pair_sims[min(rank, len(pair_sims)) - 1]
        g_second = {(i, j) for i in range(n) for j in range(i + 1, n)
                    if noisy[i] == noisy[j] and sims[i, j] > gamma}
    else:
        gamma, g_second = math.inf, set()
    return confident, g_prime, gamma, g_second, g_prime | g_second


def ranked_topk(sims, k, exclude_self=False):
    """Reference top-k: each row ranked in full by descending similarity, ties
    to the smaller column index; with exclude_self row i never picks column i."""
    sims = np.asarray(sims, dtype=np.float64)
    out = np.empty((len(sims), k), dtype=np.int64)
    for i, row in enumerate(sims):
        keys = row.copy()
        if exclude_self:
            keys[i] = -np.inf
        out[i] = np.lexsort((np.arange(len(keys)), -keys))[:k]
    return out


def reference_pseudo_labels(sims, noisy, k, n_classes, count_noisy=False):
    """Reference two-pass vote over ranked_topk neighborhoods: (y_hat, q_hat).

    A tied majority keeps the example's own label when it is tied, otherwise
    the smallest tied class; q_hat counts the neighbors' y_hat (or their noisy
    labels with count_noisy) divided by k.
    """
    hoods = ranked_topk(sims, k, exclude_self=True)
    n = len(noisy)
    y_hat = []
    for i in range(n):
        votes = [0] * n_classes
        for j in hoods[i]:
            votes[int(noisy[j])] += 1
        tied = [c for c in range(n_classes) if votes[c] == max(votes)]
        own = int(noisy[i])
        y_hat.append(own if own in tied else tied[0])
    counted = [int(c) for c in noisy] if count_noisy else y_hat
    q_hat = np.zeros((n, n_classes))
    for i in range(n):
        for c in range(n_classes):
            q_hat[i, c] = sum(1 for j in hoods[i] if counted[j] == c) / k
    return np.array(y_hat, dtype=np.int64), q_hat


def reference_knn_predictions(train_z, train_labels, test_z, k, tau):
    """Reference weighted-kNN class predictions, one test row at a time: the k
    most cosine-similar train rows vote exp(similarity / tau) for their label,
    and a tied score goes to the smaller class. The unit rows are rounded to
    the package's 2**-24 grid first, as the probe rounds them."""
    train_z = np.asarray(train_z, dtype=np.float64)
    test_z = np.asarray(test_z, dtype=np.float64)
    tz = train_z / np.linalg.norm(train_z, axis=1)[:, None]
    qz = test_z / np.linalg.norm(test_z, axis=1)[:, None]
    tz, qz = (np.ldexp(np.rint(np.ldexp(u, 24)), -24) for u in (tz, qz))  # the 2**-24 grid
    sims = qz @ tz.T
    n_classes = int(np.max(train_labels)) + 1
    preds = []
    for row, order in zip(sims, ranked_topk(sims, k)):
        scores = np.zeros(n_classes)
        np.add.at(scores, np.asarray(train_labels)[order], np.exp(row[order] / tau))
        preds.append(int(np.argmax(scores)))
    return np.array(preds, dtype=np.int64)


def cast_params(params, dtype):
    """A copy of `params` with every tensor cast to `dtype`. Widening float32
    to float64 is exact: the copy holds the same network, which then
    computes in float64."""
    return dataclasses.replace(params, **{name: arr.astype(dtype)
                                          for name, arr in params.named_arrays()})


def reference_forward(params, x, project=True):
    """The network's forward pass in plain numpy formulas that keep every
    intermediate: a dict with x, enc_pre1, enc_act1, enc_pre2, v, logits and
    p_hat, plus proj_pre1, proj_act1 (MLP projection only), z_raw, z_norm
    and z with `project`. The operations and their order are the package's,
    so the outputs compare bit for bit."""
    r = {"x": np.atleast_2d(np.asarray(x, dtype=params.enc_w1.dtype))}
    r["enc_pre1"] = r["x"] @ params.enc_w1.T + params.enc_b1
    r["enc_act1"] = np.maximum(r["enc_pre1"], 0.0)
    r["enc_pre2"] = r["enc_act1"] @ params.enc_w2.T + params.enc_b2
    r["v"] = np.maximum(r["enc_pre2"], 0.0)
    if project:
        r["proj_pre1"] = r["v"] @ params.proj_w1.T + params.proj_b1
        if params.projection == "mlp":
            r["proj_act1"] = np.maximum(r["proj_pre1"], 0.0)
            r["z_raw"] = r["proj_act1"] @ params.proj_w2.T + params.proj_b2
        else:
            r["z_raw"] = r["proj_pre1"]
        r["z_norm"] = np.linalg.norm(r["z_raw"], axis=1)
        r["z"] = r["z_raw"] / np.maximum(r["z_norm"], 1e-30)[:, None]
    r["logits"] = r["v"] @ params.cls_w.T + params.cls_b
    shifted = r["logits"] - r["logits"].max(axis=1, keepdims=True)
    exp = np.exp(shifted)
    r["p_hat"] = exp / exp.sum(axis=1, keepdims=True)
    return r


def reference_backward(params, ref, grad_z=None, grad_p=None, into=None):
    """Gradients of every parameter from a reference_forward dict, with each
    ReLU mask taken from its pre-activation (pre > 0). Returns a fresh dict
    keyed like params.named_arrays(), zeros for a head without an upstream
    gradient; with `into`, adds the gradients it computed into into's arrays
    and returns `into`."""
    grads = {}
    gv = None
    if grad_z is not None:
        gz = np.asarray(grad_z, dtype=ref["z"].dtype)
        tangent = gz - (gz * ref["z"]).sum(axis=1, keepdims=True) * ref["z"]
        # a row whose norm is below the floor has no direction: zero gradient
        live = ~(ref["z_norm"] < 1e-30)
        gu = np.zeros_like(tangent)
        gu[live] = tangent[live] / ref["z_norm"][live, None]
        if params.projection == "mlp":
            grads["proj_w2"] = gu.T @ ref["proj_act1"]
            grads["proj_b2"] = gu.sum(axis=0)
            g_pre = (gu @ params.proj_w2) * (ref["proj_pre1"] > 0.0)
        else:
            g_pre = gu
        grads["proj_w1"] = g_pre.T @ ref["v"]
        grads["proj_b1"] = g_pre.sum(axis=0)
        gv = g_pre @ params.proj_w1
    if grad_p is not None:
        gp = np.asarray(grad_p, dtype=ref["p_hat"].dtype)
        g_logits = ref["p_hat"] * (gp - (gp * ref["p_hat"]).sum(axis=1, keepdims=True))
        grads["cls_w"] = g_logits.T @ ref["v"]
        grads["cls_b"] = g_logits.sum(axis=0)
        gv_cls = g_logits @ params.cls_w
        gv = gv_cls if gv is None else gv + gv_cls
    if gv is None:
        gv = np.zeros_like(ref["v"])
    g_pre2 = gv * (ref["enc_pre2"] > 0.0)
    grads["enc_w2"] = g_pre2.T @ ref["enc_act1"]
    grads["enc_b2"] = g_pre2.sum(axis=0)
    g_pre1 = (g_pre2 @ params.enc_w2) * (ref["enc_pre1"] > 0.0)
    grads["enc_w1"] = g_pre1.T @ ref["x"]
    grads["enc_b1"] = g_pre1.sum(axis=0)
    if into is not None:
        for name, grad in grads.items():
            into[name] += grad
        return into
    return {name: grads.get(name, np.zeros_like(arr)) for name, arr in params.named_arrays()}


def reference_sgd_step(params, grads, buffers, lr, momentum, weight_decay, lr_scale=None):
    """Momentum SGD on copies: returns (new params by name, new buffers by
    name) for every tensor with a buffer, computed as buf <- (wd * p + g) +
    mom * buf, p <- p - (lr * scale) * buf, one rounded operation at a time."""
    new_params, new_buffers = {}, {}
    for name, arr in params.named_arrays():
        if name in buffers:
            buf = (weight_decay * arr + grads[name]) + momentum * buffers[name]
            new_buffers[name] = buf
            new_params[name] = arr - (lr * (lr_scale or {}).get(name, 1.0)) * buf
    return new_params, new_buffers


def reference_selective_step(params, buffers, batch, pairs, confident, cfg, rng):
    """One selective step in the joint order: mixup drawn from `rng`, both
    views' reference caches, every loss, the mixed views' gradients in a
    fresh dict with the plain views' added, then reference_sgd_step at cfg's
    lr. Each pair mask is a pair_block call of its own: the mixed views'
    ingredients a (mix_a, the views' own origins) and b (mix_b, their
    partners' origins) against every mixed view's dominant ingredient, and
    the plain views' origins against each other. Updates `params` and
    `buffers` (by name) in place and returns (l_mix, l_cls, l_sim, l_all)."""
    from selcontrast.data import mixup
    from selcontrast.losses import (classification_loss, mixup_contrastive, similarity_loss,
                                    total_loss)
    views, origins, labels, twin = batch
    mixed_x, partner, lam, dominant = mixup(views, cfg.alpha_m, rng)
    mixed_ref = reference_forward(params, mixed_x)
    plain_ref = reference_forward(params, views, project=False)
    mix_a, mix_b = origins, origins[partner]
    pair_a = pairs.pair_block(mix_a, origins[dominant])
    pair_b = pairs.pair_block(mix_b, origins[dominant])
    l_mix, grad_z = mixup_contrastive(mixed_ref["z"], pair_a, pair_b, twin, lam, cfg.tau)
    l_cls, grad_cls = classification_loss(plain_ref["p_hat"], labels, confident[origins])
    l_sim, grad_sim = similarity_loss(plain_ref["p_hat"], pairs.pair_block(origins, origins))
    grads = reference_backward(params, mixed_ref, grad_z=grad_z)
    reference_backward(params, plain_ref, grad_p=cfg.lambda_c * grad_cls
                       + cfg.lambda_s * grad_sim, into=grads)
    new_params, new_buffers = reference_sgd_step(params, grads, buffers, cfg.lr,
                                                 cfg.momentum, cfg.weight_decay)
    for name, arr in new_params.items():
        setattr(params, name, arr)
    buffers.update(new_buffers)
    return l_mix, l_cls, l_sim, total_loss(l_mix, l_cls, l_sim, cfg.lambda_c, cfg.lambda_s)


def pair_mask(pairs, n):
    """Symmetric (n, n) boolean mask of a collection of index pairs."""
    mask = np.zeros((n, n), dtype=bool)
    for i, j in pairs:
        if i == j:
            raise ValueError(f"self-pair ({i}, {j}) is not a valid pair")
        mask[i, j] = mask[j, i] = True
    return mask


def mask_pairs(mask):
    """Sorted list of the (i, j), i < j, pairs a boolean mask selects; fails
    unless the mask is symmetric with a False diagonal."""
    n = len(mask)
    out = []
    for i in range(n):
        if mask[i][i]:
            raise AssertionError(f"mask selects the self-pair ({i}, {i})")
        for j in range(i + 1, n):
            if bool(mask[i][j]) != bool(mask[j][i]):
                raise AssertionError(f"mask is not symmetric at ({i}, {j})")
            if mask[i][j]:
                out.append((i, j))
    return out


class MaskPairs:
    """A boolean (n, n) pair mask behind the pair_block(rows, cols) interface
    the selective step and the pair precision read."""

    def __init__(self, mask):
        self.mask = np.asarray(mask, dtype=bool)

    @classmethod
    def of(cls, pairs, n):
        return cls(pair_mask(pairs, n))

    def pair_block(self, rows, cols):
        rows, cols = np.asarray(rows), np.asarray(cols)
        block = self.mask[np.ix_(rows, cols)]
        block[rows[:, None] == cols[None, :]] = False
        return block


def full_mask(selection, n):
    """The (n, n) mask a pair_block reader selects, built from one block."""
    return selection.pair_block(np.arange(n), np.arange(n))


def dump_pairs(payload):
    """(confident pairs, similar pairs) as sets of (i, j), i < j, rebuilt from
    a parsed `train --dump-selection` payload alone, one pair at a time: the
    same noisy label, and both confident, or an integer dot product of the
    z_grid rows above the cut scaled by 2**48 (exact: the cut is a multiple
    of 2**-48 and a null cut selects nothing)."""
    noisy, z = payload["noisy_labels"], payload["z_grid"]
    confident = {i for members in payload["confident_by_class"] for i in members}
    gamma = payload["sim_threshold"]
    cut = None if gamma is None else math.ldexp(gamma, 48)
    g_prime, g_second = set(), set()
    for i in range(len(noisy)):
        for j in range(i + 1, len(noisy)):
            if noisy[i] != noisy[j]:
                continue
            if i in confident and j in confident:
                g_prime.add((i, j))
            if cut is not None and sum(a * b for a, b in zip(z[i], z[j])) > cut:
                g_second.add((i, j))
    return g_prime, g_second
