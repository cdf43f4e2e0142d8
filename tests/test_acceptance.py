"""Acceptance gate: nine pinned criteria for the selective contrastive pipeline.

Each criterion is one test that prints a single PASS/FAIL line with the
measured numbers (visible under ``pytest tests/test_acceptance.py -v -s`` or in
the captured-output section of a failure). Tolerances, seed counts and wall
budgets are pinned here and must not be loosened to make a run green.

1. analytic gradients of all five losses, composed through the network, match
   central finite differences (rel. error < 1e-4, >= 20 random batches, < 30 s),
   on float64 copies of the network's float32 parameters
2. the selection pipeline equals an independent brute-force reimplementation
   on 50 random instances, exactly (< 10 s)
3. reduction identities: twin-only supervision == instance discrimination
   (1e-12); interpolation endpoints reduce to the pure anchor loss exactly;
   the composite objective is exactly additive
4. confident-set label precision reaches 84% within 30 epochs on the noisy
   blob benchmark in >= 8 of 10 seeds (< 3 min)
5. pretraining + fine-tuning beats a plain cross-entropy model trained with
   the same architecture, epoch budget and learning rate by >= 5 accuracy
   points, mean over 5 seeds (< 5 min)
6. under asymmetric noise the recovered pair set (same-label pairs plus
   high-similarity pairs) has pair precision >= the same-label pairs alone,
   on >= 4 of 5 seeds
7. sweeping the similarity-loss weight over 4 orders of magnitude moves mean
   test accuracy by <= 5 points, under fine-tune streams 3 (the run's own),
   5 and 7 alike
8. identical config + seeds reproduce byte-identical metrics CSVs
9. structural invariants hold on random (untrained) parameters: unit-norm
   embeddings (1e-6), row-stochastic posteriors (1e-9), class-balanced
   confident sets, strictly-greater similarity cut, scale-invariant KNN eval
"""
import time

import numpy as np
from oracles import MaskPairs, brute_force_selection, cast_params

from selcontrast.cli import cli_run, run_sweep
from selcontrast.evaluation import pair_precision, weighted_knn_eval
from selcontrast.losses import (classification_loss, masked_contrastive, mixup_contrastive,
                                positive_mask, similarity_loss, total_loss, unsup_contrastive)
from selcontrast.neighbors import EmbeddingBank, PseudoLabelState, aggregate_pseudo_labels
from selcontrast.network import backward, forward, init_params
from selcontrast.selection import run_selection
from selcontrast.training import (benchmark_config, dataset_from_config, finetune,
                                  pretrain, train_cross_entropy_baseline)
from selcontrast.training import test_accuracy as model_test_accuracy

FD_STEP = 1e-5


def _report(n: int, ok: bool, detail: str) -> bool:
    print(f"criterion {n}: {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


def _unit_rows(m: np.ndarray) -> np.ndarray:
    return m / np.linalg.norm(m, axis=1, keepdims=True)


# ---------------------------------------------------------------------------
# criterion 1: gradients through the full network
# ---------------------------------------------------------------------------

def _margins_ok(params, x) -> bool:
    """All ReLU pre-activations sit well away from the kink and the projection
    norms away from zero, so central differences with step 1e-5 are trusted.
    The pre-activations are recomputed here, as the cache keeps only the
    activations."""
    cache = forward(params, x)
    pre = [cache.x @ params.enc_w1.T + params.enc_b1,
           cache.enc_act1 @ params.enc_w2.T + params.enc_b2]
    if cache.proj_act1 is not None:
        pre.append(cache.v @ params.proj_w1.T + params.proj_b1)
    margin = min(np.abs(p).min() for p in pre)
    return margin > 1e-3 and cache.z_norm.min() > 0.05


def _draw_gradient_trial(trial: int):
    """A random small batch (2N <= 12 views, input dim <= 8) plus params whose
    activation margins make finite differences reliable. The params are
    init_params' float32 tensors widened to float64, where steps of 1e-5 and
    a tolerance of 1e-4 are meaningful; the code is the one that trains."""
    for attempt in range(64):
        rng = np.random.default_rng([9000, trial, attempt])
        n_pool = int(rng.integers(3, 7))
        dim = int(rng.integers(3, 9))
        classes = int(rng.integers(2, 4))
        projection = "mlp" if trial % 2 else "linear"
        params = cast_params(init_params(dim, classes, hidden=5, proj_dim=4,
                                         projection=projection,
                                         seed=int(rng.integers(1 << 31))), np.float64)

        labels_pool = rng.integers(0, classes, size=n_pool)
        pair_mat = np.zeros((n_pool, n_pool), dtype=bool)
        for i in range(n_pool):
            for j in range(i + 1, n_pool):
                if rng.random() < 0.5:
                    pair_mat[i, j] = pair_mat[j, i] = True

        m = 2 * n_pool
        origins = np.concatenate([np.arange(n_pool)] * 2)
        twin = np.concatenate([np.arange(n_pool) + n_pool, np.arange(n_pool)])
        x_plain = rng.normal(size=(m, dim))
        perm = rng.permutation(m)
        lam = rng.uniform(0.1, 0.9, size=m)
        x_mix = lam[:, None] * x_plain + (1.0 - lam)[:, None] * x_plain[perm]
        mix_a, mix_b = origins, origins[perm]

        if _margins_ok(params, np.vstack([x_plain, x_mix])):
            return (params, x_plain, x_mix, origins, twin, labels_pool[origins],
                    MaskPairs(pair_mat), mix_a, mix_b, lam)
    raise AssertionError(f"no well-conditioned draw for trial {trial}")


def _flat(grads: dict, params) -> np.ndarray:
    return np.concatenate([grads[name].ravel() for name, _ in params.named_arrays()])


def _fd_flat(loss_of, params) -> np.ndarray:
    chunks = []
    for _, arr in params.named_arrays():
        flat = arr.ravel()
        grad = np.empty(flat.size)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + FD_STEP
            plus = loss_of()
            flat[i] = orig - FD_STEP
            minus = loss_of()
            flat[i] = orig
            grad[i] = (plus - minus) / (2.0 * FD_STEP)
        chunks.append(grad)
    return np.concatenate(chunks)


def test_criterion_1_gradients_match_finite_differences():
    started = time.perf_counter()
    tau = 0.2
    n_batches = 20
    worst = 0.0
    for trial in range(n_batches):
        (params, x_plain, x_mix, origins, twin, labels, pair_mat,
         mix_a, mix_b, lam) = _draw_gradient_trial(trial)
        scored = np.zeros(len(origins), dtype=bool)
        scored[::2] = True
        mixed_origins = np.where(lam >= 0.5, mix_a, mix_b)
        plain_pairs = pair_mat.pair_block(origins, origins)
        pair_a = pair_mat.pair_block(mix_a, mixed_origins)
        pair_b = pair_mat.pair_block(mix_b, mixed_origins)

        cases = [
            ("instance-contrastive", x_plain,
             lambda c: unsup_contrastive(c.z, twin, tau) + (None,)),
            ("pair-contrastive", x_plain,
             lambda c: masked_contrastive(c.z, positive_mask(plain_pairs, twin), tau)
             + (None,)),
            ("mixed-contrastive", x_mix,
             lambda c: mixup_contrastive(c.z, pair_a, pair_b, twin, lam, tau) + (None,)),
            ("classification", x_plain,
             lambda c: (lambda v, gp: (v, None, gp))(
                 *classification_loss(c.p_hat, labels, scored))),
            ("similarity", x_plain,
             lambda c: (lambda v, gp: (v, None, gp))(
                 *similarity_loss(c.p_hat, plain_pairs))),
        ]
        for name, x_in, loss_fn in cases:
            cache = forward(params, x_in)
            _, grad_z, grad_p = loss_fn(cache)
            zeroed = {name: np.zeros_like(arr) for name, arr in params.named_arrays()}
            analytic = _flat(backward(params, cache, grad_z=grad_z, grad_p=grad_p,
                                      out=zeroed), params)
            fd = _fd_flat(lambda: loss_fn(forward(params, x_in))[0], params)
            rel = np.linalg.norm(fd - analytic) / max(np.linalg.norm(fd),
                                                      np.linalg.norm(analytic), 1e-300)
            worst = max(worst, rel)
            assert rel < 1e-4, f"{name} gradient off by {rel:.3e} on batch {trial}"
    elapsed = time.perf_counter() - started
    ok = worst < 1e-4 and elapsed < 30.0
    _report(1, ok, f"max relative gradient error {worst:.2e} over {n_batches} "
                   f"batches x 5 losses in {elapsed:.1f}s (budget 30s)")
    assert ok


# ---------------------------------------------------------------------------
# criterion 2: selection pipeline == brute force
# ---------------------------------------------------------------------------

def test_criterion_2_selection_matches_brute_force():
    started = time.perf_counter()
    n_instances = 50
    for trial in range(n_instances):
        rng = np.random.default_rng([9200, trial])
        n = int(rng.integers(6, 13))
        classes = int(rng.integers(2, 4))
        z = _unit_rows(rng.normal(size=(n, 3)))
        noisy = rng.integers(0, classes, size=n)
        y_hat = np.where(rng.random(n) < 0.5, noisy, rng.integers(0, classes, size=n))
        q_hat = rng.dirichlet(np.ones(classes), size=n)
        alpha = float(rng.choice([0.0, 0.2, 0.4, 0.5, 0.6, 0.8, 1.0]))
        beta = float(rng.choice([0.0, 0.25, 0.5, 0.75, 1.0]))

        bank = EmbeddingBank(z=z)
        state = run_selection(bank, noisy, PseudoLabelState(y_hat=y_hat, q_hat=q_hat, k=3),
                              alpha=alpha, beta=beta)
        exp_t, exp_gp, exp_gamma, exp_gpp, exp_g = brute_force_selection(
            bank.z, noisy, y_hat, q_hat, alpha, beta)  # the grid rows the selection used

        assert list(state.confident) == exp_t, f"confident set differs on {trial}"
        assert state.pairs_confident == exp_gp, f"same-label pairs differ on {trial}"
        if np.isinf(exp_gamma):
            assert np.isinf(state.sim_threshold), f"threshold differs on {trial}"
        else:
            assert state.sim_threshold == exp_gamma, f"threshold differs on {trial}"
        assert state.pairs_similar == exp_gpp, f"similar pairs differ on {trial}"
        assert state.pairs == exp_g, f"pair union differs on {trial}"
    elapsed = time.perf_counter() - started
    ok = elapsed < 10.0
    _report(2, ok, f"{n_instances}/{n_instances} random instances identical "
                   f"(sets, threshold, union) in {elapsed:.1f}s (budget 10s)")
    assert ok


# ---------------------------------------------------------------------------
# criterion 3: reduction identities
# ---------------------------------------------------------------------------

def _random_views(rng, n_pool: int, classes: int = 3):
    m = 2 * n_pool
    z = _unit_rows(rng.normal(size=(m, 4)))
    logits = rng.normal(size=(m, classes))
    p_hat = np.exp(logits) / np.exp(logits).sum(axis=1, keepdims=True)
    origins = np.concatenate([np.arange(n_pool)] * 2)
    twin = np.concatenate([np.arange(n_pool) + n_pool, np.arange(n_pool)])
    labels = rng.integers(0, classes, size=n_pool)[origins]
    return z, p_hat, origins, twin, labels


def test_criterion_3_reduction_identities():
    worst_twin = 0.0
    endpoints_exact = True
    additive_exact = True
    for trial in range(10):
        rng = np.random.default_rng([9300, trial])
        z, _, origins, twin, _ = _random_views(rng, int(rng.integers(3, 7)))

        def sup_cl(pairs):
            return masked_contrastive(
                z, positive_mask(pairs.pair_block(origins, origins), twin), tau=0.2)

        # twin-only supervision collapses to instance discrimination (1e-12)
        n_pool = int(origins.max()) + 1
        v_sup, g_sup = sup_cl(MaskPairs.of(set(), n_pool))
        v_uns, g_uns = unsup_contrastive(z, twin, tau=0.2)
        worst_twin = max(worst_twin, abs(v_sup - v_uns),
                         float(np.abs(g_sup - g_uns).max()))

        # interpolation endpoints reduce to the pure anchor loss, exactly
        pairs = MaskPairs.of({(i, j) for i in range(n_pool)
                              for j in range(i + 1, n_pool) if rng.random() < 0.5}, n_pool)
        perm = rng.permutation(len(origins))
        m = len(origins)
        own, other = pairs.pair_block(origins, origins), pairs.pair_block(origins[perm], origins)
        v1, g1 = mixup_contrastive(z, own, other, twin, np.ones(m), tau=0.2)
        vs, gs = sup_cl(pairs)
        endpoints_exact &= (v1 == vs) and bool(np.all(g1 == gs))

        v0, g0 = mixup_contrastive(z, other, own, twin, np.zeros(m), tau=0.2)
        endpoints_exact &= (v0 == vs) and bool(np.all(g0 == gs))

        # composite objective is exactly additive
        l_mix, l_cls, l_sim = rng.normal(size=3)
        lam_c, lam_s = rng.uniform(0.001, 2.0, size=2)
        additive_exact &= (total_loss(l_mix, l_cls, l_sim, lam_c, lam_s)
                           == l_mix + lam_c * l_cls + lam_s * l_sim)

    ok = worst_twin <= 1e-12 and endpoints_exact and additive_exact
    _report(3, ok, f"twin-only vs instance loss max |diff| {worst_twin:.1e} "
                   f"(tol 1e-12); interpolation endpoints exact: {endpoints_exact}; "
                   f"objective additivity exact: {additive_exact}")
    assert ok


# ---------------------------------------------------------------------------
# criterion 4: confident-set precision on the noisy benchmark
# ---------------------------------------------------------------------------

def test_criterion_4_confident_set_precision():
    started = time.perf_counter()
    threshold = 84.0  # no-selection baseline + 20 points
    peaks = []
    for seed in range(1, 11):
        cfg = benchmark_config(seed=seed, data_seed=seed, noise_seed=seed)
        result = pretrain(dataset_from_config(cfg), cfg)
        # warm-up rows carry no selection; scan only epochs that selected
        with_sel = [r.precision_examples for r in result.history if r.n_confident > 0]
        peaks.append(max(with_sel))
    wins = sum(p >= threshold for p in peaks)
    elapsed = time.perf_counter() - started
    ok = wins >= 8 and elapsed < 180.0
    _report(4, ok, f"{wins}/10 seeds reached confident-set precision >= "
                   f"{threshold}% within 30 epochs (peaks {min(peaks):.1f}-"
                   f"{max(peaks):.1f}) in {elapsed:.0f}s (budget 180s)")
    assert ok


# ---------------------------------------------------------------------------
# criterion 5: end-to-end gap over plain cross-entropy
# ---------------------------------------------------------------------------

def test_criterion_5_accuracy_gap_over_cross_entropy():
    started = time.perf_counter()
    gaps = []
    for seed in range(1, 6):
        cfg = benchmark_config(seed=seed, data_seed=seed, noise_seed=seed)
        ds = dataset_from_config(cfg)
        result = pretrain(ds, cfg)
        tuned = finetune(result.params, ds, cfg, selection=result.selection)
        ours = model_test_accuracy(tuned, ds)
        # same architecture, total epoch budget and learning rate
        plain = model_test_accuracy(train_cross_entropy_baseline(ds, cfg), ds)
        gaps.append(ours - plain)
    mean_gap = float(np.mean(gaps))
    elapsed = time.perf_counter() - started
    ok = mean_gap >= 5.0 and elapsed < 300.0
    _report(5, ok, f"mean test-accuracy gap {mean_gap:+.2f} points over plain "
                   f"cross-entropy (need >= +5) across 5 seeds in {elapsed:.0f}s "
                   f"(budget 300s)")
    assert ok


# ---------------------------------------------------------------------------
# criterion 6: pair recovery under asymmetric noise
# ---------------------------------------------------------------------------

def test_criterion_6_pair_recovery_under_asymmetric_noise():
    wins = 0
    details = []
    for seed in range(1, 6):
        cfg = benchmark_config(seed=seed, data_seed=seed, noise_seed=seed,
                               noise_kind="asymmetric", noise_rate=0.4)
        ds = dataset_from_config(cfg)
        result = pretrain(ds, cfg)
        true_train = ds.true_labels[ds.train_indices()]
        noisy_train = ds.noisy_labels[ds.train_indices()]
        prec_same_label = pair_precision(
            MaskPairs.of(result.selection.pairs_confident, len(true_train)), true_train,
            noisy_train)
        prec_union = pair_precision(result.selection, true_train, noisy_train)
        wins += prec_union >= prec_same_label
        details.append(f"{prec_same_label:.1f}->{prec_union:.1f}")
    ok = wins >= 4
    _report(6, ok, f"{wins}/5 seeds: union pair precision >= same-label pair "
                   f"precision ({', '.join(details)})")
    assert ok


# ---------------------------------------------------------------------------
# criterion 7: similarity-weight insensitivity
# ---------------------------------------------------------------------------

def test_criterion_7_similarity_weight_insensitivity():
    values = [0.1, 0.05, 0.01, 0.005, 0.001, 0.0001]
    rows = run_sweep(benchmark_config(), "lambda_s", values, seeds=[1, 2, 3])
    errors = [r["error"] for r in rows if r["error"] is not None]
    assert not errors, f"sweep runs failed: {errors}"
    means = [float(np.mean([r["test_acc"] for r in rows if r["value"] == v]))
             for v in values]
    spread = max(means) - min(means)
    ok = spread <= 5.0
    _report(7, ok, f"mean accuracy spread {spread:.2f} points (tol 5.0) over "
                   f"similarity weights {values}")
    assert ok


def test_criterion_7_holds_under_other_finetune_streams(monkeypatch):
    # criterion 7's grid with each run pretrained once and fine-tuned under
    # three fine-tune streams (pretraining does not read that stream): the
    # weak-view draws are one valid sample of many, so no stream may break it
    import selcontrast.training as training
    values = [0.1, 0.05, 0.01, 0.005, 0.001, 0.0001]
    streams = [3, 5, 7]
    accs = {stream: {value: [] for value in values} for stream in streams}
    for value in values:
        for seed in (1, 2, 3):
            cfg = benchmark_config(lambda_s=value, seed=seed)
            ds = dataset_from_config(cfg)
            result = pretrain(ds, cfg)
            for stream in streams:
                monkeypatch.setattr(training, "_STREAM_FINETUNE", stream)
                tuned = finetune(result.params, ds, cfg, selection=result.selection)
                accs[stream][value].append(model_test_accuracy(tuned, ds))
    spreads = {}
    for stream, by_value in accs.items():
        means = [float(np.mean(by_value[value])) for value in values]
        spreads[stream] = max(means) - min(means)
    ok = max(spreads.values()) <= 5.0
    _report(7, ok, "mean accuracy spread per fine-tune stream "
                   + ", ".join(f"{s}: {d:.2f}" for s, d in spreads.items())
                   + " points (tol 5.0)")
    assert ok


# ---------------------------------------------------------------------------
# criterion 8: byte-identical reruns
# ---------------------------------------------------------------------------

def test_criterion_8_byte_identical_reruns(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    benchmark_config().to_json(cfg_path)
    blobs = []
    for name in ("first", "second"):
        out_dir = tmp_path / name
        code = cli_run(["train", "--config", str(cfg_path), "--out-dir", str(out_dir),
                        "--fixed-clock"])
        assert code == 0
        blobs.append(((out_dir / "metrics.csv").read_bytes(),
                      (out_dir / "checkpoint.json").read_bytes()))
    same_metrics = blobs[0][0] == blobs[1][0]
    same_ckpt = blobs[0][1] == blobs[1][1]
    ok = same_metrics and same_ckpt
    _report(8, ok, f"reruns byte-identical: metrics CSV {same_metrics} "
                   f"({len(blobs[0][0])} bytes), checkpoint {same_ckpt}")
    assert ok


# ---------------------------------------------------------------------------
# criterion 9: structural invariants on untrained models
# ---------------------------------------------------------------------------

def _knn_predictions(train_z, train_labels, test_z, k):
    preds = []
    for row in test_z:
        for c in range(int(train_labels.max()) + 1):
            if weighted_knn_eval(train_z, train_labels, row[None, :],
                                 np.array([c]), k=k, tau=0.1) == 100.0:
                preds.append(c)
                break
    return preds


def test_criterion_9_structural_invariants():
    # unit-norm embeddings from random parameters, both projection kinds;
    # a fully dead ReLU row has an undefined direction and must map to the
    # exact zero vector (documented degenerate convention), never to junk
    worst_norm = 0.0
    degenerate = 0
    for seed, kind in [(0, "linear"), (1, "mlp"), (2, "linear"), (3, "mlp")]:
        rng = np.random.default_rng([9900, seed])
        dim = int(rng.integers(3, 10))
        params = init_params(dim, int(rng.integers(2, 6)), hidden=8, proj_dim=5,
                             projection=kind, seed=seed)
        cache = forward(params, rng.normal(size=(50, dim)))
        live = cache.z_norm > 0.0
        norms = np.linalg.norm(cache.z, axis=1)
        worst_norm = max(worst_norm, float(np.abs(norms[live] - 1.0).max()))
        assert np.all(cache.z[~live] == 0.0)
        degenerate += int(np.sum(~live))
    assert worst_norm <= 1e-6

    # row-stochastic neighbor posteriors
    rng = np.random.default_rng(991)
    z = _unit_rows(rng.normal(size=(40, 6)))
    noisy = rng.integers(0, 4, size=40)
    pseudo = aggregate_pseudo_labels(EmbeddingBank(z=z), noisy, k=7, n_classes=4)
    worst_row = float(np.abs(pseudo.q_hat.sum(axis=1) - 1.0).max())
    assert worst_row <= 1e-9
    assert np.all(pseudo.q_hat >= 0.0)

    # class-balanced confident sets and strictly-greater similarity cut
    for trial in range(10):
        rng = np.random.default_rng([9901, trial])
        n, classes = int(rng.integers(8, 20)), int(rng.integers(2, 4))
        z = _unit_rows(rng.normal(size=(n, 4)))
        noisy = rng.integers(0, classes, size=n)
        y_hat = np.where(rng.random(n) < 0.6, noisy, rng.integers(0, classes, size=n))
        q_hat = rng.dirichlet(np.ones(classes), size=n)
        state = run_selection(EmbeddingBank(z=z), noisy,
                              PseudoLabelState(y_hat=y_hat, q_hat=q_hat, k=3),
                              alpha=0.5, beta=0.25)
        for c, members in enumerate(state.confident_by_class):
            population = int(np.sum(noisy == c))
            assert len(members) == min(state.per_class_quota, population)
        sims = z @ z.T
        for i, j in state.pairs_similar:
            assert sims[i, j] > state.sim_threshold

    # KNN evaluation is invariant to rescaling either embedding table
    rng = np.random.default_rng(992)
    train_z = rng.normal(size=(30, 4))
    train_labels = rng.integers(0, 3, size=30)
    test_z = rng.normal(size=(12, 4))
    base = _knn_predictions(train_z, train_labels, test_z, k=5)
    scaled = _knn_predictions(train_z * 0.2, train_labels, test_z * 13.0, k=5)
    assert base == scaled

    _report(9, True, f"unit-norm dev {worst_norm:.1e} (tol 1e-6, {degenerate} "
                     f"degenerate rows -> exact zero); posterior row dev "
                     f"{worst_row:.1e} (tol 1e-9); class balance, strict "
                     f"threshold and KNN scale invariance hold")
