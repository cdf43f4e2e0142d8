"""Tests for the three-head network: forward oracle, analytic gradients vs
central finite differences, optimizer arithmetic, and checkpoint round-trips.

The network trains in float32. The bit-for-bit oracle tests run in float32
and float64; the finite-difference and exact-formula tests run on float64
casts of the same parameters (cast_params), where their tolerances hold.
"""
import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import cast_params, reference_backward, reference_forward, reference_sgd_step
from selcontrast import network
from selcontrast.network import (ForwardCache, NetworkParams, OptState,
                                 apply_lr_schedule, backward, forward, he_init,
                                 init_params, load_checkpoint, save_checkpoint,
                                 sgd_step)


# The bit-for-bit tests run in the training dtype and in float64.
DTYPES = (np.float32, np.float64)


def small_params(seed=0, dim=3, hidden=4, proj_dim=2, n_classes=3, projection="linear",
                 dtype=np.float32):
    return cast_params(init_params(dim, n_classes, hidden=hidden, proj_dim=proj_dim,
                                   projection=projection, seed=seed), dtype)


def zeroed(params):
    """A gradient workspace of zeros, one array per tensor, for backward(out=)."""
    return {name: np.zeros_like(arr) for name, arr in params.named_arrays()}


# ---------------------------------------------------------------------------
# forward
# ---------------------------------------------------------------------------

def test_forward_matches_straight_line_reimplementation():
    """Layer-by-layer scalar re-evaluation of one example, no shared code."""
    # seed chosen so every hidden unit is active for this input (the scalar
    # oracle below still applies max(0, .) faithfully)
    params = small_params(seed=18, dtype=np.float64)
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
    assert cache.p_hat.dtype == np.float32
    np.testing.assert_array_equal(cache.p_hat, np.full((4, 5), 1 / 5, dtype=np.float32))


def test_forward_unit_norm_and_simplex_invariants():
    # 2 projection entries and 3 softmax entries per row: a few roundings
    # each, in either dtype
    for dtype in DTYPES:
        params = small_params(seed=2, projection="mlp", dtype=dtype)
        x = np.random.default_rng(3).normal(size=(16, 3))
        cache = forward(params, x)
        eps = np.finfo(dtype).eps
        np.testing.assert_allclose(np.linalg.norm(cache.z, axis=1), 1.0, rtol=0, atol=4 * eps)
        assert np.all(cache.p_hat >= 0)
        np.testing.assert_allclose(cache.p_hat.sum(axis=1), 1.0, rtol=0, atol=4 * eps)


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
    for dtype in DTYPES:
        params = small_params(seed=6, dtype=dtype)
        params.cls_w *= 1e3
        cache = forward(params, np.random.default_rng(2).normal(size=(3, 3)))
        assert np.all(np.isfinite(cache.p_hat))
        np.testing.assert_allclose(cache.p_hat.sum(axis=1), 1.0, rtol=0,
                                   atol=4 * np.finfo(dtype).eps)


@pytest.mark.parametrize("projection", ["linear", "mlp"])
def test_projection_free_forward_matches_full_forward(projection):
    params = small_params(seed=3, projection=projection)
    x = np.random.default_rng(11).normal(size=(6, 3))
    full, lean = forward(params, x), forward(params, x, project=False)
    for name in ("v", "p_hat"):
        np.testing.assert_array_equal(getattr(lean, name), getattr(full, name), err_msg=name)
    for name in ("proj_act1", "z_norm", "z"):
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
    params = small_params(seed=0, projection=projection, dtype=np.float64)
    x = rng.normal(size=(8, 3))
    gz = rng.normal(size=(8, 2))
    gp = rng.normal(size=(8, 3))

    def scalar(cache):
        return float(np.sum(cache.z * gz) + np.sum(cache.p_hat * gp))

    cache = forward(params, x)
    analytic = backward(params, cache, grad_z=gz, grad_p=gp, out=zeroed(params))
    numeric = fd_param_gradients(params, x, scalar)
    for name in numeric:
        assert relative_error(analytic[name], numeric[name]) < 1e-4, name


def test_backward_zero_upstream_gives_zero_gradients():
    params = small_params(seed=9)
    x = np.random.default_rng(4).normal(size=(3, 3))
    cache = forward(params, x)
    stale = {name: np.full_like(arr, 7.0) for name, arr in params.named_arrays()}
    grads = backward(params, cache, grad_z=np.zeros((3, 2)), out=stale)
    for name, g in grads.items():
        np.testing.assert_array_equal(g, np.zeros_like(g), err_msg=name)


@pytest.mark.parametrize("projection", ["linear", "mlp"])
def test_backward_grad_z_needs_the_projection(projection):
    params = small_params(seed=8, projection=projection)
    cache = forward(params, np.random.default_rng(12).normal(size=(4, 3)), project=False)
    with pytest.raises(ValueError, match="projection"):
        backward(params, cache, grad_z=np.ones((4, 2)), out=zeroed(params))
    grads = backward(params, cache, grad_p=np.ones((4, 3)), out=zeroed(params))  # works
    assert set(grads) == {name for name, _ in params.named_arrays()}


@pytest.mark.parametrize("projection", ["linear", "mlp"])
def test_backward_into_equals_sum_of_two_full_backwards_bitwise(projection):
    # the selective step: contrastive gradients on the mixed views, then the
    # plain views' classifier gradients added in from a projection-free cache
    for dtype in DTYPES:
        rng = np.random.default_rng(13)
        params = small_params(seed=14, projection=projection, dtype=dtype)
        x_mixed, x_plain = rng.normal(size=(8, 3)), rng.normal(size=(8, 3))
        gz, gp = rng.normal(size=(8, 2)), rng.normal(size=(8, 3))
        mixed = backward(params, forward(params, x_mixed), grad_z=gz, out=zeroed(params))
        plain = backward(params, forward(params, x_plain), grad_p=gp, out=zeroed(params))
        into = backward(params, forward(params, x_mixed), grad_z=gz, out=zeroed(params))
        assert backward(params, forward(params, x_plain, project=False), grad_p=gp,
                        into=into) is into
        assert set(into) == set(mixed)
        for name in mixed:
            assert_bits_equal(into[name], mixed[name] + plain[name], f"{name}, {dtype}")


def test_backward_into_adds_in_row_chunks_at_wide_shapes():
    # hidden 512: enc_w2's gradient (1 MiB in float32, 2 MiB in float64) is
    # added in 8 row chunks of _SGD_CHUNK cells, bit-equal to adding the whole
    # product, and the plain views' backward never holds a product the size
    # of one such matrix
    for dtype in DTYPES:
        params = cast_params(init_params(64, 4, hidden=512, proj_dim=128, projection="mlp",
                                         seed=24), dtype)
        assert params.enc_w2.size // network._SGD_CHUNK == 8
        rng = np.random.default_rng(24)
        x_mixed, x_plain = rng.normal(size=(128, 64)), rng.normal(size=(128, 64))
        start = reference_backward(params, reference_forward(params, x_mixed),
                                   grad_z=rng.normal(size=(128, 128)))
        gp = rng.normal(size=(128, 4)) * 1e-2
        into = {name: grad.copy() for name, grad in start.items()}
        cache = forward(params, x_plain, project=False)
        tracemalloc.start()
        try:
            backward(params, cache, grad_p=gp, into=into)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        expected = reference_backward(params, reference_forward(params, x_plain, project=False),
                                      grad_p=gp, into=start)
        for name in expected:
            assert_bits_equal(into[name], expected[name], f"{name}, {dtype}")
        assert peak < params.enc_w2.nbytes, f"{peak / 2 ** 20:.2f} MiB, {dtype}"


@pytest.mark.parametrize("dim,hidden,proj_dim,projection",
                         [(16, 64, 32, "linear"), (64, 512, 128, "mlp")])
def test_float32_backward_is_within_a_few_eps_of_float64(dim, hidden, proj_dim, projection):
    # the desk and wide shapes at 128 views: each float32 gradient against
    # the one the same parameters, widened to float64, give. A gradient is a
    # chain of at most seven rounded products and sums whose error grows
    # with about the square root of their length; seeds 0-4 of this draw
    # measured at most 6.4 eps in relative Frobenius norm, and the bound is
    # 64 eps
    eps = np.finfo(np.float32).eps
    rng = np.random.default_rng(36)
    narrow = init_params(dim, 4, hidden=hidden, proj_dim=proj_dim, projection=projection,
                         seed=36)
    wide = cast_params(narrow, np.float64)
    x, gz, gp = (rng.normal(size=(128, d)) for d in (dim, proj_dim, 4))
    grads = [backward(p, forward(p, x), gz, gp, out=zeroed(p)) for p in (narrow, wide)]
    for name, exact in grads[1].items():
        assert grads[0][name].dtype == np.float32, name
        error = np.linalg.norm(grads[0][name] - exact) / np.linalg.norm(exact)
        assert error < 64 * eps, f"{name}: {error / eps:.1f} eps"


def assert_bits_equal(actual, expected, what):
    actual, expected = np.asarray(actual), np.asarray(expected)
    assert actual.shape == expected.shape and actual.dtype == expected.dtype, what
    assert actual.tobytes() == expected.tobytes(), what


def with_exact_zeros_and_nan(params, x, special, rng):
    """Make some pre-activations exactly +0 or -0 ("zeros": zero weight rows,
    signed-zero biases, a zero input row) or NaN ("nan": one NaN bias)."""
    if special == "zeros":
        layers = [("enc_w1", "enc_b1"), ("enc_w2", "enc_b2")]
        if params.projection == "mlp":
            layers.append(("proj_w1", "proj_b1"))
        for w, b in layers:
            rows = rng.choice(len(getattr(params, b)), size=2, replace=False)
            getattr(params, w)[rows] = 0.0
            getattr(params, b)[rows] = [0.0, -0.0]
        x[0] = 0.0
    elif special == "nan":
        name = rng.choice(["enc_b1", "enc_b2"] + (["proj_b1"] if params.projection == "mlp" else []))
        getattr(params, name)[0] = np.nan
    return params, x


@settings(max_examples=300, deadline=None, derandomize=True)
@given(dtype=st.sampled_from(DTYPES), seed=st.integers(0, 2**32 - 1),
       projection=st.sampled_from(["linear", "mlp"]), project=st.booleans(),
       m=st.sampled_from([1, 3, 8]),
       heads=st.sampled_from(["z", "p", "both", "none"]),
       mode=st.sampled_from(["out", "into"]),
       special=st.sampled_from([None, "zeros", "nan"]))
def test_forward_and_backward_match_the_pre_activation_oracles_bitwise(
        dtype, seed, projection, project, m, heads, mode, special):
    # the lean forward keeps activations and takes its ReLU masks from them;
    # the oracle keeps every pre-activation, masks with pre > 0 and builds a
    # fresh dict per backward, where the package writes into (out) or adds
    # into (into) a workspace; outputs and gradients agree bit for bit,
    # including at exact +-0 and NaN pre-activations. Every failure names the
    # drawn example, so that one hypothesis cannot reproduce can be replayed
    example = (f"dtype={np.dtype(dtype).name}, seed={seed}, projection={projection!r}, "
               f"project={project}, m={m}, heads={heads!r}, mode={mode!r}, special={special!r}")
    rng = np.random.default_rng(seed)
    dim, hidden, proj_dim, classes = (int(v) for v in rng.integers(2, 7, size=4))
    params = small_params(seed=seed, dim=dim, hidden=hidden, proj_dim=proj_dim,
                          n_classes=classes, projection=projection, dtype=dtype)
    params, x = with_exact_zeros_and_nan(params, rng.normal(size=(m, dim)), special, rng)
    cache, ref = forward(params, x, project=project), reference_forward(params, x, project)
    for name in ("x", "enc_act1", "v", "p_hat") + (("proj_act1", "z_norm", "z") if project else ()):
        if name == "proj_act1" and projection == "linear":
            assert cache.proj_act1 is None, example
        else:
            assert_bits_equal(getattr(cache, name), ref[name], f"{name}; {example}")

    gz = rng.normal(size=(m, proj_dim)) if heads in ("z", "both") and project else None
    gp = rng.normal(size=(m, classes)) if heads in ("p", "both") else None
    if mode == "out":
        workspace = {name: np.full_like(arr, 7.0) for name, arr in params.named_arrays()}
        grads = backward(params, cache, gz, gp, out=workspace)
        assert grads is workspace, example
        expected = reference_backward(params, ref, gz, gp)
    else:
        # the selective step: a mixed batch's gradients, then these added in
        x_mixed = rng.normal(size=(m, dim))
        gz_mixed = rng.normal(size=(m, proj_dim))
        start = reference_backward(params, reference_forward(params, x_mixed), gz_mixed)
        grads = backward(params, cache, gz, gp, into={n: g.copy() for n, g in start.items()})
        expected = reference_backward(params, ref, gz, gp, into=start)
    assert set(grads) == set(expected), example
    for name in expected:
        assert_bits_equal(grads[name], expected[name], f"{name}; {example}")


def test_backward_out_skips_tensors_it_has_no_array_for():
    # a workspace without the frozen tensors: their gradients are not stored
    params = small_params(seed=31, projection="mlp")
    rng = np.random.default_rng(31)
    x, gp = rng.normal(size=(5, 3)), rng.normal(size=(5, 3))
    workspace = {name: np.empty_like(arr) for name, arr in params.named_arrays()
                 if name.startswith("cls")}
    backward(params, forward(params, x, project=False), grad_p=gp, out=workspace)
    expected = reference_backward(params, reference_forward(params, x, project=False), grad_p=gp)
    assert set(workspace) == {"cls_w", "cls_b"}
    for name, grad in workspace.items():
        assert_bits_equal(grad, expected[name], name)


def test_backward_takes_exactly_one_of_into_and_out():
    params = small_params(seed=32)
    with pytest.raises(ValueError, match="not both"):
        backward(params, forward(params, np.ones((2, 3))), grad_p=np.ones((2, 3)),
                 into={}, out={})
    with pytest.raises(ValueError, match="one of them"):  # no fresh dict
        backward(params, forward(params, np.ones((2, 3))), grad_p=np.ones((2, 3)))


def test_normalization_jacobian_output_is_tangent():
    """The gradient passed through L2 normalization must be orthogonal to z."""
    params = small_params(seed=10, dtype=np.float64)
    x = np.random.default_rng(5).normal(size=(4, 3))
    cache = forward(params, x)
    gz = np.random.default_rng(6).normal(size=(4, 2))
    tangent = (gz - (gz * cache.z).sum(axis=1, keepdims=True) * cache.z)
    np.testing.assert_allclose((tangent * cache.z).sum(axis=1), 0.0, rtol=0, atol=1e-10)


@pytest.mark.parametrize("projection", ["linear", "mlp"])
def test_zero_projection_row_gets_no_gradient(projection):
    # a zero input row under zero biases leaves v at zero, so its projection
    # output is zero and z is the zero vector; its normalization gradient is
    # zero, so backward gives every tensor exactly the gradient it gives
    # when that row's upstream grad_z is zero
    for dtype in DTYPES:
        params = small_params(seed=16, projection=projection, dtype=dtype)
        rng = np.random.default_rng(17)
        x = rng.normal(size=(6, 3))
        x[2] = 0.0
        gz, gp = rng.normal(size=(6, 2)), rng.normal(size=(6, 3))
        cache = forward(params, x)
        assert cache.z_norm[2] == 0.0 and not cache.z[2].any()
        quiet = gz.copy()
        quiet[2] = 0.0
        grads = backward(params, cache, gz, gp, out=zeroed(params))
        expected = backward(params, cache, quiet, gp, out=zeroed(params))
        for name, g in grads.items():
            assert_bits_equal(g, expected[name], name)


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
    params = small_params(seed=12, dtype=np.float64)
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


@pytest.mark.parametrize("where", ["param", "buffer"])
def test_sgd_non_contiguous_tensor_raises_before_any_write(where):
    # sgd_step works on flat views; a tensor or buffer that has none is
    # refused before the tensors in front of it are touched
    params = small_params(seed=23)
    rng = np.random.default_rng(14)
    grads = {name: rng.normal(size=arr.shape) for name, arr in params.named_arrays()}
    opt = OptState.for_params(params, lr=0.1, momentum=0.9, weight_decay=1e-2,
                              schedule=[])
    if where == "param":
        params.cls_w = np.asfortranarray(params.cls_w)
    else:
        opt.buffers["cls_w"] = np.asfortranarray(rng.normal(size=params.cls_w.shape))
    params_before = params.copy()
    buffers_before = {n: b.copy() for n, b in opt.buffers.items()}
    with pytest.raises(ValueError, match="cls_w"):
        sgd_step(params, grads, opt)
    for (n, arr), (_, ref) in zip(params.named_arrays(), params_before.named_arrays()):
        np.testing.assert_array_equal(arr, ref, err_msg=n)
    for n, buf in opt.buffers.items():
        np.testing.assert_array_equal(buf, buffers_before[n], err_msg=n)


@pytest.mark.parametrize("name", ["enc_w1", "enc_w2", "cls_w"])
def test_sgd_non_finite_last_chunk_leaves_everything_unchanged(monkeypatch, name):
    # every chunk of every tensor is checked before any is stored: an inf in
    # the last chunk of a tensor split into several leaves its earlier chunks,
    # and the tensors before it, as they were
    monkeypatch.setattr(network, "_SGD_CHUNK", 5)
    params = small_params(seed=21)
    rng = np.random.default_rng(12)
    grads = {n: rng.normal(size=arr.shape) for n, arr in params.named_arrays()}
    assert grads[name].size > 2 * network._SGD_CHUNK
    grads[name].flat[-1] = np.inf
    opt = OptState.for_params(params, lr=0.1, momentum=0.9, weight_decay=1e-2,
                              schedule=[])
    for n in opt.buffers:
        opt.buffers[n] = rng.normal(size=opt.buffers[n].shape)
    params_before = params.copy()
    buffers_before = {n: b.copy() for n, b in opt.buffers.items()}
    with pytest.raises(FloatingPointError, match=name):
        sgd_step(params, grads, opt)
    for (n, arr), (_, ref) in zip(params.named_arrays(), params_before.named_arrays()):
        np.testing.assert_array_equal(arr, ref, err_msg=n)
    for n, buf in opt.buffers.items():
        np.testing.assert_array_equal(buf, buffers_before[n], err_msg=n)


def test_sgd_step_matches_in_place_reference_bitwise(monkeypatch):
    # one chunk per tensor, where the whole network fits in the chunk pair and
    # pass 2 copies every chunk, and chunks of 5 and 7, which split every
    # weight matrix with a shorter last chunk and leave most chunks for pass 2
    # to recompute; in both dtypes
    for dtype, chunk in itertools.product(DTYPES, (network._SGD_CHUNK, 5, 7)):
        monkeypatch.setattr(network, "_SGD_CHUNK", chunk)
        params = small_params(seed=19, dtype=dtype)
        reference = params.copy()
        rng = np.random.default_rng(10)
        grads = {name: rng.normal(size=arr.shape).astype(dtype)
                 for name, arr in params.named_arrays()}
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
            assert_bits_equal(arr, ref, f"{name}, chunk {chunk}, {dtype}")
            assert_bits_equal(opt.buffers[name], ref_buffers[name],
                              f"{name}, chunk {chunk}, {dtype}")


@pytest.fixture
def check_calls(monkeypatch):
    """Counts sgd_step's calls of the checking pass."""
    calls = []
    real = network._check_update

    def counted(*args):
        calls.append(1)
        return real(*args)
    monkeypatch.setattr(network, "_check_update", counted)
    return calls


def bound_test_step(dtype, lr, momentum=0.9, weight_decay=1e-4, seed=33, big=None):
    """Parameters (with one entry set to `big`, if given), random gradients,
    an OptState with random momentum buffers, all in `dtype`, and the oracle's
    step from them: (params, grads, opt, new_params, new_buffers)."""
    params = small_params(seed=seed, projection="mlp", dtype=dtype)
    if big is not None:
        params.enc_w2[1, 2] = big
    rng = np.random.default_rng(seed)
    grads = {name: rng.normal(size=arr.shape).astype(dtype)
             for name, arr in params.named_arrays()}
    opt = OptState.for_params(params, lr=lr, momentum=momentum, weight_decay=weight_decay,
                              lr_scale={"cls_b": 0.5})
    for name in opt.buffers:
        opt.buffers[name][...] = rng.normal(size=opt.buffers[name].shape)
    with np.errstate(over="ignore", invalid="ignore"):
        new_params, new_buffers = reference_sgd_step(params, grads, opt.buffers, lr, momentum,
                                                     weight_decay, opt.lr_scale)
    return params, grads, opt, new_params, new_buffers


# sgd_step's bound on |lr * scale|, |momentum| and |weight_decay|, per dtype
BOUND_EXPONENTS = [(np.float32, 30), (np.float64, 200)]


@pytest.mark.parametrize("case", ["self_dot_overflows", "lr_above_bound"])
def test_sgd_step_outside_the_bound_checks_first_and_stores_the_reference_bits(
        check_calls, case):
    # in each dtype, an entry of 2**(maxexp/2 + 2) makes p.p overflow, and an
    # lr of twice the bound exceeds it, though each update is finite: both
    # take the checked path and store what the in-place formula gives
    for dtype, exponent in BOUND_EXPONENTS:
        if case == "self_dot_overflows":
            big = 2.0 ** (np.finfo(dtype).maxexp // 2 + 2)
            params, grads, opt, new_params, new_buffers = bound_test_step(dtype, 0.05, big=big)
        else:
            params, grads, opt, new_params, new_buffers = bound_test_step(
                dtype, 2.0 ** (exponent + 1))
        check_calls.clear()
        sgd_step(params, grads, opt)
        assert len(check_calls) == 1, dtype
        for name, arr in params.named_arrays():
            assert np.all(np.isfinite(arr)), (name, dtype)
            assert_bits_equal(arr, new_params[name], f"{name}, {dtype}")
            assert_bits_equal(opt.buffers[name], new_buffers[name], f"{name}, {dtype}")


@pytest.mark.parametrize("dtype", DTYPES)
def test_sgd_step_outside_the_bound_that_overflows_stores_nothing(check_calls, dtype):
    # an lr of 2**(maxexp - 1) takes some new value past the largest finite
    # one: the checked path raises and leaves parameters and buffers as they were
    params, grads, opt, new_params, _ = bound_test_step(dtype,
                                                        2.0 ** (np.finfo(dtype).maxexp - 1))
    first = next(name for name, arr in new_params.items() if not np.all(np.isfinite(arr)))
    params_before = params.copy()
    buffers_before = {n: b.copy() for n, b in opt.buffers.items()}
    with pytest.raises(FloatingPointError, match=first):
        sgd_step(params, grads, opt)
    assert len(check_calls) == 1
    for (name, arr), (_, ref) in zip(params.named_arrays(), params_before.named_arrays()):
        assert_bits_equal(arr, ref, name)
        assert_bits_equal(opt.buffers[name], buffers_before[name], name)


def test_sgd_step_within_the_bound_runs_one_pass(check_calls):
    # in each dtype, lr, momentum and weight decay at the bound: one pass,
    # the oracle's bits
    for dtype, exponent in BOUND_EXPONENTS:
        assert network._step_bound(dtype) == 2.0 ** exponent
        params, grads, opt, new_params, new_buffers = bound_test_step(
            dtype, 2.0 ** exponent, momentum=-(2.0 ** exponent), weight_decay=2.0 ** exponent,
            seed=34)
        sgd_step(params, grads, opt)
        assert check_calls == [], dtype
        for name, arr in params.named_arrays():
            assert np.all(np.isfinite(arr)), (name, dtype)
            assert_bits_equal(arr, new_params[name], f"{name}, {dtype}")
            assert_bits_equal(opt.buffers[name], new_buffers[name], f"{name}, {dtype}")


def test_optimizer_holds_arrays_only_for_trained_tensors():
    params = small_params(seed=35, projection="mlp")
    frozen = {"proj_w1": 0.0, "proj_b1": 0.0, "proj_w2": 0.0, "proj_b2": 0.0, "enc_w1": 0.0}
    opt = OptState.for_params(params, lr=0.1, momentum=0.9, weight_decay=1e-4,
                              lr_scale={**frozen, "enc_b1": 0.5})
    trained = {name for name, _ in params.named_arrays()} - set(frozen)
    assert set(opt.buffers) == set(opt.grads) == trained
    before = params.copy()
    grads = {name: np.ones_like(arr) for name, arr in params.named_arrays()}
    sgd_step(params, grads, opt)
    for (name, arr), (_, ref) in zip(params.named_arrays(), before.named_arrays()):
        assert np.array_equal(arr, ref) == (name in frozen), name


def test_sgd_step_allocates_no_tensor_sized_memory():
    for dtype in DTYPES:
        params = small_params(seed=20, dim=8, hidden=64, proj_dim=16, projection="mlp",
                              dtype=dtype)
        rng = np.random.default_rng(11)
        grads = {name: rng.normal(size=arr.shape).astype(dtype)
                 for name, arr in params.named_arrays()}
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
        assert peak < largest // 2, (peak, largest, dtype)


def test_sgd_first_step_allocates_one_chunk_pair_at_wide_shapes():
    # hidden 512 with an MLP projection to 128 (626,308 parameters): the
    # optimizer keeps only the momentum buffers, so a fresh OptState's first
    # step allocates its two chunk-sized arrays (256 KB of float32), not one
    # staging array per tensor (5.0 MB)
    params = init_params(64, 4, hidden=512, proj_dim=128, projection="mlp", seed=22)
    assert sum(arr.size for _, arr in params.named_arrays()) == 626_308
    rng = np.random.default_rng(13)
    grads = {name: rng.normal(size=arr.shape).astype(arr.dtype)
             for name, arr in params.named_arrays()}
    opt = OptState.for_params(params, lr=0.05, momentum=0.9, weight_decay=1e-4,
                              schedule=[])
    tracemalloc.start()
    try:
        sgd_step(params, grads, opt)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    pair = sum(arr.nbytes for arr in opt.chunk_pair)
    assert pair == 2 * network._SGD_CHUNK * params.enc_w1.itemsize
    assert peak < 2 * pair, (peak, pair)


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


@pytest.mark.parametrize("projection", ["linear", "mlp"])
def test_copy_holds_the_same_bits_in_arrays_of_its_own(projection):
    params = small_params(seed=26, projection=projection)
    copied = params.copy()
    assert copied.projection == projection
    assert [name for name, _ in copied.named_arrays()] == [n for n, _ in params.named_arrays()]
    for (name, arr), (_, twin) in zip(params.named_arrays(), copied.named_arrays()):
        assert_bits_equal(twin, arr, name)
        assert not np.shares_memory(twin, arr), name
    if projection == "linear":
        assert copied.proj_w2 is None and copied.proj_b2 is None


def test_checkpoint_round_trip(tmp_path):
    params = small_params(seed=24, projection="mlp")
    path = tmp_path / "ckpt.json"
    save_checkpoint(params, path)
    loaded = load_checkpoint(path)
    for (name, arr), (name2, arr2) in zip(params.named_arrays(),
                                          loaded.named_arrays()):
        assert name == name2
        assert arr2.dtype == np.float32, name
        assert_bits_equal(arr2, arr, name)
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


def test_checkpoint_of_version_1_is_refused(tmp_path):
    # version 1 files held float64 values; loading one would round them
    import json
    path = tmp_path / "ckpt.json"
    save_checkpoint(small_params(seed=25), path)
    blob = json.loads(path.read_text())
    assert blob["format_version"] == 2
    blob["format_version"] = 1
    path.write_text(json.dumps(blob))
    with pytest.raises(ValueError, match="unsupported checkpoint version 1"):
        load_checkpoint(path)


def _edited_checkpoint(tmp_path, projection, edit):
    import json
    path = tmp_path / "ckpt.json"
    save_checkpoint(small_params(seed=26, projection=projection), path)
    blob = json.loads(path.read_text())
    edit(blob["tensors"])
    path.write_text(json.dumps(blob))
    return path


@pytest.mark.parametrize("projection,name", [("linear", "proj_w1"), ("linear", "proj_b1"),
                                             ("mlp", "proj_w1"), ("mlp", "proj_b1"),
                                             ("mlp", "proj_w2"), ("mlp", "proj_b2")])
def test_checkpoint_projection_shapes_are_checked(tmp_path, projection, name):
    def widen(tensors):  # the last axis: a matrix's fan-in, a bias's length
        shape = np.shape(tensors[name])
        tensors[name] = np.zeros((*shape[:-1], shape[-1] + 1)).tolist()
    path = _edited_checkpoint(tmp_path, projection, widen)
    with pytest.raises(ValueError, match=f"'{name}' has shape"):
        load_checkpoint(path)


def test_checkpoint_unknown_or_missing_projection_tensors_rejected(tmp_path):
    # a linear head's checkpoint carrying a second projection layer, and an
    # mlp head's checkpoint without one
    def add(tensors):
        tensors["proj_w2"], tensors["proj_b2"] = tensors["proj_w1"], tensors["proj_b1"]
    with pytest.raises(ValueError, match=r"unknown tensors: \['proj_b2', 'proj_w2'\]"):
        load_checkpoint(_edited_checkpoint(tmp_path, "linear", add))
    with pytest.raises(ValueError, match=r"missing tensors: \['proj_w2'\]"):
        load_checkpoint(_edited_checkpoint(tmp_path, "mlp",
                                           lambda tensors: tensors.pop("proj_w2")))
