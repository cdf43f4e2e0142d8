"""Tests for the three-head network: forward oracle, analytic gradients vs
central finite differences, optimizer arithmetic, and checkpoint round-trips.
"""
import numpy as np
import pytest

from selcontrast.network import (ForwardCache, NetworkParams, OptState,
                                 apply_lr_schedule, backward, forward, he_init,
                                 init_params, load_checkpoint, save_checkpoint,
                                 sgd_step)


def small_params(seed=0, dim=3, hidden=4, proj_dim=2, n_classes=3, projection="linear"):
    return init_params(dim, n_classes, hidden=hidden, proj_dim=proj_dim,
                       projection=projection, seed=seed)


# ---------------------------------------------------------------------------
# forward
# ---------------------------------------------------------------------------

def test_forward_matches_straight_line_reimplementation():
    """Layer-by-layer scalar re-evaluation of one example, no shared code."""
    # seed chosen so every hidden unit is active for this input (the scalar
    # oracle below still applies max(0, .) faithfully)
    params = small_params(seed=18)
    x = np.array([[0.3, -1.2, 0.7]])
    cache = forward(params, x)

    h1 = [max(0.0, sum(params.enc_w1[r][c] * x[0][c] for c in range(3))
              + params.enc_b1[r]) for r in range(4)]
    v = [max(0.0, sum(params.enc_w2[r][c] * h1[c] for c in range(4))
             + params.enc_b2[r]) for r in range(4)]
    u = [sum(params.proj_w1[r][c] * v[c] for c in range(4)) + params.proj_b1[r]
         for r in range(2)]
    norm = (u[0] ** 2 + u[1] ** 2) ** 0.5
    z = [ui / norm for ui in u]
    logits = [sum(params.cls_w[r][c] * v[c] for c in range(4)) + params.cls_b[r]
              for r in range(3)]
    m = max(logits)
    exps = [np.exp(l - m) for l in logits]
    p = [e / sum(exps) for e in exps]

    np.testing.assert_allclose(cache.v[0], v, rtol=0, atol=1e-12)
    np.testing.assert_allclose(cache.z[0], z, rtol=0, atol=1e-12)
    np.testing.assert_allclose(cache.p_hat[0], p, rtol=0, atol=1e-12)


def test_forward_zero_params_gives_uniform_predictions():
    params = small_params(seed=1, n_classes=5)
    for _, arr in params.named_arrays():
        arr[...] = 0.0
    cache = forward(params, np.random.default_rng(0).normal(size=(4, 3)))
    np.testing.assert_allclose(cache.p_hat, np.full((4, 5), 0.2), rtol=0, atol=1e-15)


def test_forward_unit_norm_and_simplex_invariants():
    params = small_params(seed=2, projection="mlp")
    x = np.random.default_rng(3).normal(size=(16, 3))
    cache = forward(params, x)
    np.testing.assert_allclose(np.linalg.norm(cache.z, axis=1), 1.0, rtol=0, atol=1e-6)
    assert np.all(cache.p_hat >= 0)
    np.testing.assert_allclose(cache.p_hat.sum(axis=1), 1.0, rtol=0, atol=1e-9)


def test_forward_is_pure():
    params = small_params(seed=4)
    x = np.random.default_rng(1).normal(size=(5, 3))
    a, b = forward(params, x), forward(params, x)
    np.testing.assert_array_equal(a.z, b.z)
    np.testing.assert_array_equal(a.p_hat, b.p_hat)


def test_forward_rejects_wrong_input_dim():
    with pytest.raises(ValueError):
        forward(small_params(), np.zeros((2, 7)))


def test_forward_softmax_stable_at_large_logits():
    params = small_params(seed=6)
    params.cls_w *= 1e3
    cache = forward(params, np.random.default_rng(2).normal(size=(3, 3)))
    assert np.all(np.isfinite(cache.p_hat))
    np.testing.assert_allclose(cache.p_hat.sum(axis=1), 1.0, rtol=0, atol=1e-9)


@pytest.mark.parametrize("projection", ["linear", "mlp"])
def test_projection_free_forward_matches_full_forward(projection):
    params = small_params(seed=3, projection=projection)
    x = np.random.default_rng(11).normal(size=(6, 3))
    full, lean = forward(params, x), forward(params, x, project=False)
    for name in ("v", "logits", "p_hat"):
        np.testing.assert_array_equal(getattr(lean, name), getattr(full, name), err_msg=name)
    for name in ("proj_pre1", "proj_act1", "z_raw", "z_norm", "z"):
        assert getattr(lean, name) is None, name


# ---------------------------------------------------------------------------
# backward vs central finite differences
# ---------------------------------------------------------------------------

def fd_param_gradients(params, x, scalar_of_cache, step=1e-5):
    """Central finite differences of scalar_of_cache(forward(params, x))."""
    grads = {}
    for name, arr in params.named_arrays():
        g = np.zeros_like(arr)
        flat = arr.ravel()
        for idx in range(flat.size):
            orig = flat[idx]
            flat[idx] = orig + step
            hi = scalar_of_cache(forward(params, x))
            flat[idx] = orig - step
            lo = scalar_of_cache(forward(params, x))
            flat[idx] = orig
            g.ravel()[idx] = (hi - lo) / (2 * step)
        grads[name] = g
    return grads


def relative_error(a, b):
    denom = max(np.linalg.norm(a), np.linalg.norm(b), 1e-12)
    return np.linalg.norm(a - b) / denom


@pytest.mark.parametrize("projection", ["linear", "mlp"])
def test_backward_matches_finite_differences(projection):
    # seed picked so all pre-activations sit well away from the ReLU kink
    # (central differences are only trustworthy off the non-smooth point)
    rng = np.random.default_rng(7)
    params = small_params(seed=0, projection=projection)
    x = rng.normal(size=(8, 3))
    gz = rng.normal(size=(8, 2))
    gp = rng.normal(size=(8, 3))

    def scalar(cache):
        return float(np.sum(cache.z * gz) + np.sum(cache.p_hat * gp))

    cache = forward(params, x)
    analytic = backward(params, cache, grad_z=gz, grad_p=gp)
    numeric = fd_param_gradients(params, x, scalar)
    for name in numeric:
        assert relative_error(analytic[name], numeric[name]) < 1e-4, name


def test_backward_zero_upstream_gives_zero_gradients():
    params = small_params(seed=9)
    x = np.random.default_rng(4).normal(size=(3, 3))
    cache = forward(params, x)
    grads = backward(params, cache, grad_z=np.zeros((3, 2)))
    for name, g in grads.items():
        np.testing.assert_array_equal(g, np.zeros_like(g), err_msg=name)


@pytest.mark.parametrize("projection", ["linear", "mlp"])
def test_backward_grad_z_needs_the_projection(projection):
    params = small_params(seed=8, projection=projection)
    cache = forward(params, np.random.default_rng(12).normal(size=(4, 3)), project=False)
    with pytest.raises(ValueError, match="projection"):
        backward(params, cache, grad_z=np.ones((4, 2)))
    grads = backward(params, cache, grad_p=np.ones((4, 3)))  # the classifier path works
    assert set(grads) == {name for name, _ in params.named_arrays()}


@pytest.mark.parametrize("projection", ["linear", "mlp"])
def test_backward_into_equals_sum_of_two_full_backwards_bitwise(projection):
    # the selective step: contrastive gradients on the mixed views, then the
    # plain views' classifier gradients added in from a projection-free cache
    rng = np.random.default_rng(13)
    params = small_params(seed=14, projection=projection)
    x_mixed, x_plain = rng.normal(size=(8, 3)), rng.normal(size=(8, 3))
    gz, gp = rng.normal(size=(8, 2)), rng.normal(size=(8, 3))
    mixed = backward(params, forward(params, x_mixed), grad_z=gz)
    plain = backward(params, forward(params, x_plain), grad_p=gp)
    into = backward(params, forward(params, x_mixed), grad_z=gz)
    assert backward(params, forward(params, x_plain, project=False), grad_p=gp,
                    into=into) is into
    assert set(into) == set(mixed)
    for name in mixed:
        np.testing.assert_array_equal(into[name], mixed[name] + plain[name], err_msg=name)


def test_normalization_jacobian_output_is_tangent():
    """The gradient passed through L2 normalization must be orthogonal to z."""
    params = small_params(seed=10)
    x = np.random.default_rng(5).normal(size=(4, 3))
    cache = forward(params, x)
    gz = np.random.default_rng(6).normal(size=(4, 2))
    tangent = (gz - (gz * cache.z).sum(axis=1, keepdims=True) * cache.z)
    np.testing.assert_allclose((tangent * cache.z).sum(axis=1), 0.0, rtol=0, atol=1e-10)


# ---------------------------------------------------------------------------
# optimizer
# ---------------------------------------------------------------------------

def test_sgd_step_scalar_arithmetic():
    params = small_params(seed=11)
    for _, arr in params.named_arrays():
        arr[...] = 0.0
    params.enc_w1[0, 0] = 1.0
    grads = {name: np.zeros_like(arr) for name, arr in params.named_arrays()}
    grads["enc_w1"] = np.zeros_like(params.enc_w1)
    grads["enc_w1"][0, 0] = 1.0
    opt = OptState.for_params(params, lr=0.1, momentum=0.0, weight_decay=0.0,
                              schedule=[])
    sgd_step(params, grads, opt)
    assert params.enc_w1[0, 0] == pytest.approx(0.9, abs=0)


def test_sgd_step_momentum_and_weight_decay_formula():
    params = small_params(seed=12)
    reference = params.copy()
    rng = np.random.default_rng(8)
    grads = {name: rng.normal(size=arr.shape) for name, arr in params.named_arrays()}
    opt = OptState.for_params(params, lr=0.05, momentum=0.9, weight_decay=1e-2,
                              schedule=[])
    # preload nonzero buffers so the momentum term participates
    for name in opt.buffers:
        opt.buffers[name] = rng.normal(size=opt.buffers[name].shape)
    buffers_before = {n: b.copy() for n, b in opt.buffers.items()}
    sgd_step(params, grads, opt)
    for name, arr in reference.named_arrays():
        buf = 0.9 * buffers_before[name] + grads[name] + 1e-2 * arr
        np.testing.assert_allclose(dict(params.named_arrays())[name],
                                   arr - 0.05 * buf, rtol=0, atol=1e-15)


def test_sgd_zero_everything_leaves_params_unchanged():
    params = small_params(seed=13)
    before = params.copy()
    grads = {name: np.zeros_like(arr) for name, arr in params.named_arrays()}
    opt = OptState.for_params(params, lr=0.1, momentum=0.0, weight_decay=0.0,
                              schedule=[])
    sgd_step(params, grads, opt)
    for name, arr in params.named_arrays():
        np.testing.assert_array_equal(arr, dict(before.named_arrays())[name])


def test_sgd_lr_scale_zero_freezes_tensor():
    params = small_params(seed=14)
    before = params.enc_w1.copy()
    grads = {name: np.ones_like(arr) for name, arr in params.named_arrays()}
    opt = OptState.for_params(params, lr=0.1, momentum=0.9, weight_decay=1e-4,
                              schedule=[], lr_scale={"enc_w1": 0.0})
    sgd_step(params, grads, opt)
    sgd_step(params, grads, opt)
    np.testing.assert_array_equal(params.enc_w1, before)
    assert not np.array_equal(params.enc_w2,
                              dict(small_params(seed=14).named_arrays())["enc_w2"])


def test_sgd_quadratic_bowl_converges():
    params = small_params(seed=15)
    for _, arr in params.named_arrays():
        arr[...] = 0.0
    params.enc_w1[0, 0] = 1.0
    opt = OptState.for_params(params, lr=0.1, momentum=0.0, weight_decay=0.0,
                              schedule=[])
    for _ in range(100):
        grads = {name: np.zeros_like(arr) for name, arr in params.named_arrays()}
        grads["enc_w1"] = params.enc_w1.copy()  # gradient of (1/2) w^2
        sgd_step(params, grads, opt)
    assert abs(params.enc_w1[0, 0]) < 1e-4


def test_lr_schedule_multiplies_at_epoch_boundaries():
    params = small_params(seed=16)
    opt = OptState.for_params(params, lr=1.0, momentum=0.0, weight_decay=0.0,
                              schedule=[[3, 0.1], [5, 0.5]])
    lrs = []
    for epoch in range(1, 7):
        apply_lr_schedule(opt, epoch)
        lrs.append(opt.lr)
    np.testing.assert_allclose(lrs, [1.0, 1.0, 0.1, 0.1, 0.05, 0.05], rtol=1e-12)


def test_sgd_nan_gradient_raises_and_names_tensor():
    params = small_params(seed=17)
    grads = {name: np.zeros_like(arr) for name, arr in params.named_arrays()}
    grads["proj_w1"][0, 0] = np.nan
    opt = OptState.for_params(params, lr=0.1, momentum=0.0, weight_decay=0.0,
                              schedule=[])
    with pytest.raises(FloatingPointError, match="proj_w1"):
        sgd_step(params, grads, opt)


def test_sgd_non_finite_last_tensor_leaves_everything_unchanged():
    params = small_params(seed=18)
    rng = np.random.default_rng(9)
    grads = {name: rng.normal(size=arr.shape) for name, arr in params.named_arrays()}
    last = params.named_arrays()[-1][0]
    grads[last][0] = np.inf
    opt = OptState.for_params(params, lr=0.1, momentum=0.9, weight_decay=1e-2,
                              schedule=[])
    for name in opt.buffers:
        opt.buffers[name] = rng.normal(size=opt.buffers[name].shape)
    params_before = params.copy()
    buffers_before = {n: b.copy() for n, b in opt.buffers.items()}
    with pytest.raises(FloatingPointError, match=last):
        sgd_step(params, grads, opt)
    for (name, arr), (_, ref) in zip(params.named_arrays(), params_before.named_arrays()):
        np.testing.assert_array_equal(arr, ref, err_msg=name)
    for name, buf in opt.buffers.items():
        np.testing.assert_array_equal(buf, buffers_before[name], err_msg=name)


def test_sgd_step_matches_in_place_reference_bitwise():
    params = small_params(seed=19)
    reference = params.copy()
    rng = np.random.default_rng(10)
    grads = {name: rng.normal(size=arr.shape) for name, arr in params.named_arrays()}
    opt = OptState.for_params(params, lr=0.05, momentum=0.9, weight_decay=1e-4,
                              schedule=[], lr_scale={"enc_w1": 0.5})
    ref_buffers = {n: b.copy() for n, b in opt.buffers.items()}
    for _ in range(3):
        sgd_step(params, grads, opt)
        for name, arr in reference.named_arrays():
            buf = ref_buffers[name]
            buf *= 0.9
            buf += grads[name] + 1e-4 * arr
            arr -= 0.05 * opt.lr_scale.get(name, 1.0) * buf
    for (name, arr), (_, ref) in zip(params.named_arrays(), reference.named_arrays()):
        np.testing.assert_array_equal(arr, ref, err_msg=name)
        np.testing.assert_array_equal(opt.buffers[name], ref_buffers[name], err_msg=name)


def test_sgd_step_allocates_no_tensor_sized_memory():
    import tracemalloc
    params = small_params(seed=20, dim=8, hidden=64, proj_dim=16, projection="mlp")
    rng = np.random.default_rng(11)
    grads = {name: rng.normal(size=arr.shape) for name, arr in params.named_arrays()}
    opt = OptState.for_params(params, lr=0.05, momentum=0.9, weight_decay=1e-4,
                              schedule=[])
    sgd_step(params, grads, opt)  # the first step allocates the optimizer's arrays
    largest = max(arr.nbytes for _, arr in params.named_arrays())
    tracemalloc.start()
    try:
        sgd_step(params, grads, opt)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < largest // 2, (peak, largest)


# ---------------------------------------------------------------------------
# initialization / checkpoints
# ---------------------------------------------------------------------------

def test_init_params_deterministic_and_seed_sensitive():
    a, b = small_params(seed=21), small_params(seed=21)
    c = small_params(seed=22)
    np.testing.assert_array_equal(a.enc_w1, b.enc_w1)
    assert not np.array_equal(a.enc_w1, c.enc_w1)


def test_he_init_scale():
    rng = np.random.default_rng(0)
    w = he_init(rng, 400, 100)
    assert w.shape == (400, 100)
    assert np.std(w) == pytest.approx(np.sqrt(2.0 / 100), rel=0.05)


def test_mlp_projection_has_two_layers():
    params = small_params(seed=23, projection="mlp")
    assert params.proj_w2 is not None
    names = [n for n, _ in params.named_arrays()]
    assert "proj_w2" in names and "proj_b2" in names


def test_checkpoint_round_trip(tmp_path):
    params = small_params(seed=24, projection="mlp")
    path = tmp_path / "ckpt.json"
    save_checkpoint(params, path)
    loaded = load_checkpoint(path)
    for (name, arr), (name2, arr2) in zip(params.named_arrays(),
                                          loaded.named_arrays()):
        assert name == name2
        np.testing.assert_array_equal(arr, arr2, err_msg=name)
    x = np.random.default_rng(9).normal(size=(4, 3))
    np.testing.assert_array_equal(forward(params, x).p_hat, forward(loaded, x).p_hat)


def test_checkpoint_missing_tensor_rejected(tmp_path):
    import json
    params = small_params(seed=25)
    path = tmp_path / "ckpt.json"
    save_checkpoint(params, path)
    blob = json.loads(path.read_text())
    del blob["tensors"]["cls_w"]
    path.write_text(json.dumps(blob))
    with pytest.raises(ValueError, match="cls_w"):
        load_checkpoint(path)
