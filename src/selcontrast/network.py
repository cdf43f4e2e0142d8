"""Small MLP with a normalized projection head and a softmax classifier head.

All forward/backward math is explicit numpy; gradients are summed over the
batch and the caller picks the reduction by scaling upstream gradients.

The network computes in the dtype of its parameters. init_params and
load_checkpoint make float32 tensors (PARAM_DTYPE), so activations,
gradients, momentum buffers and the SGD step are float32; forward casts its
input to the parameters' dtype. The same code runs in float64 when it is
handed float64 parameters, which is how the finite-difference tests check it.
Whatever reads an embedding for selection or the kNN probe upcasts it to
float64 first, exactly. A whole split is read one row block at a time
(training.embed_rows), so that read's activations stay bounded.

A projection row whose norm is below _NORM_FLOOR (an all-zero projection
output, e.g. from dead ReLUs) normalizes to the zero vector in forward and
gets a zero gradient in backward: no direction is defined there, so nothing
flows back through that row's normalization.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace

import numpy as np

LINEAR = "linear"
MLP = "mlp"

# Norms below this floor are treated as zero during normalization: such a
# row's z is the zero vector, and backward gives it a zero gradient.
_NORM_FLOOR = 1e-30

# The dtype of the tensors init_params and load_checkpoint make.
PARAM_DTYPE = np.float32

# Version 2 holds float32 values; version 1 files held float64 ones.
_CHECKPOINT_VERSION = 2

# Elements per chunk of sgd_step (and of backward's into= row chunks): 128 KB
# of float32. At the shapes of the wide benchmark workload (2 cores, OpenBLAS
# 0.3.31), 2**15 and 2**16 were equally fast in float32 (1.13 and 1.11 ms per
# step) of 2**13 to 2**17, and 2**15 was the fastest in float64 (2.23 ms).
_SGD_CHUNK = 1 << 15


@dataclass
class NetworkParams:
    """Weights of encoder (dim -> hidden -> hidden), projection head
    (hidden -> proj_dim, unit-normalized) and classifier head (hidden -> n_classes).

    projection "linear" uses a single affine map; "mlp" inserts one ReLU
    hidden layer of width `hidden` before projecting.
    """

    enc_w1: np.ndarray  # (hidden, dim)
    enc_b1: np.ndarray  # (hidden,)
    enc_w2: np.ndarray  # (hidden, hidden)
    enc_b2: np.ndarray  # (hidden,)
    proj_w1: np.ndarray  # linear: (proj_dim, hidden); mlp: (hidden, hidden)
    proj_b1: np.ndarray
    cls_w: np.ndarray   # (n_classes, hidden)
    cls_b: np.ndarray   # (n_classes,)
    projection: str = LINEAR
    proj_w2: np.ndarray | None = None  # mlp only: (proj_dim, hidden)
    proj_b2: np.ndarray | None = None

    def named_arrays(self):
        """Deterministically ordered (name, array) pairs of trainable tensors."""
        pairs = [("enc_w1", self.enc_w1), ("enc_b1", self.enc_b1),
                 ("enc_w2", self.enc_w2), ("enc_b2", self.enc_b2),
                 ("proj_w1", self.proj_w1), ("proj_b1", self.proj_b1)]
        if self.projection == MLP:
            pairs += [("proj_w2", self.proj_w2), ("proj_b2", self.proj_b2)]
        pairs += [("cls_w", self.cls_w), ("cls_b", self.cls_b)]
        return pairs

    @property
    def dim(self) -> int:
        return self.enc_w1.shape[1]

    @property
    def hidden(self) -> int:
        return self.enc_w1.shape[0]

    @property
    def proj_dim(self) -> int:
        return self.proj_w1.shape[0] if self.projection == LINEAR else self.proj_w2.shape[0]

    @property
    def n_classes(self) -> int:
        return self.cls_w.shape[0]

    def copy(self) -> "NetworkParams":
        return replace(self, **{name: arr.copy() for name, arr in self.named_arrays()})


@dataclass
class ForwardCache:
    """The outputs of one forward pass and what backward reads of it.

    backward takes each ReLU mask from the layer's output, `act > 0`, which
    equals `pre > 0` for every float (±0 and NaN included), so no
    pre-activation is kept. The projection fields are None when forward ran
    with project=False, and proj_act1 is None for a linear projection. A
    selective step holds one cache at a time: the mixed views' until their
    backward, then the plain views' projection-free one.
    """

    x: np.ndarray
    enc_act1: np.ndarray          # first encoder layer's ReLU output
    v: np.ndarray                 # encoder output, (batch, hidden)
    proj_act1: np.ndarray | None  # mlp only: the projection's ReLU output
    z_norm: np.ndarray | None     # (batch,) euclidean norms of z before normalization
    z: np.ndarray | None          # unit rows, (batch, proj_dim)
    p_hat: np.ndarray             # softmax rows, (batch, n_classes)


def he_init(rng: np.random.Generator, fan_out: int, fan_in: int) -> np.ndarray:
    """He fan-in Gaussian weights in PARAM_DTYPE, rounded from float64 draws
    (so the generator's stream is the same whatever the dtype)."""
    w = rng.standard_normal((fan_out, fan_in))
    w *= np.sqrt(2.0 / fan_in)  # in place: no second float64 array
    return w.astype(PARAM_DTYPE)


def init_params(dim: int, n_classes: int, hidden: int = 64, proj_dim: int = 32,
                projection: str = LINEAR, seed=0) -> NetworkParams:
    """He fan-in Gaussian weights, zero biases, seeded; float32 tensors."""
    if projection not in (LINEAR, MLP):
        raise ValueError(f"unknown projection kind {projection!r}")
    rng = np.random.default_rng(seed)
    proj_out1 = proj_dim if projection == LINEAR else hidden
    params = NetworkParams(
        enc_w1=he_init(rng, hidden, dim), enc_b1=np.zeros(hidden, PARAM_DTYPE),
        enc_w2=he_init(rng, hidden, hidden), enc_b2=np.zeros(hidden, PARAM_DTYPE),
        proj_w1=he_init(rng, proj_out1, hidden), proj_b1=np.zeros(proj_out1, PARAM_DTYPE),
        cls_w=he_init(rng, n_classes, hidden), cls_b=np.zeros(n_classes, PARAM_DTYPE),
        projection=projection,
    )
    if projection == MLP:
        params.proj_w2 = he_init(rng, proj_dim, hidden)
        params.proj_b2 = np.zeros(proj_dim, PARAM_DTYPE)
    return params


def _affine(a: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ w.T + b, the bias added in place into the product."""
    out = a @ w.T
    out += b
    return out


def _relu_layer(a: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    """max(a @ w.T + b, 0), computed in the product's array."""
    out = _affine(a, w, b)
    return np.maximum(out, 0.0, out=out)


def forward(params: NetworkParams, x: np.ndarray, project: bool = True) -> ForwardCache:
    """Run the network on a (batch, dim) matrix, cast to the parameters' dtype.

    The projection output is L2-normalized per row; a zero pre-normalization
    row (degenerate parameters) maps to the zero vector rather than erroring.
    With project=False the projection head is skipped and the cache's
    projection fields are None; v and p_hat are the same either way. Biases,
    ReLUs, the normalization and the softmax run in place in each layer's
    product. The cache keeps every activation backward reads.
    """
    x = np.atleast_2d(np.asarray(x, dtype=params.enc_w1.dtype))
    if x.shape[1] != params.dim:
        raise ValueError(f"input has dim {x.shape[1]}, params expect {params.dim}")

    enc_act1 = _relu_layer(x, params.enc_w1, params.enc_b1)
    v = _relu_layer(enc_act1, params.enc_w2, params.enc_b2)

    p_hat = _affine(v, params.cls_w, params.cls_b)  # the logits, then their softmax
    p_hat -= p_hat.max(axis=1, keepdims=True)
    np.exp(p_hat, out=p_hat)
    p_hat /= p_hat.sum(axis=1, keepdims=True)

    proj_act1 = z_norm = z = None
    if project:
        if params.projection == MLP:
            proj_act1 = _relu_layer(v, params.proj_w1, params.proj_b1)
            z = _affine(proj_act1, params.proj_w2, params.proj_b2)
        else:
            z = _affine(v, params.proj_w1, params.proj_b1)
        # A zero projection output (degenerate parameters, such as all-zero
        # weights, or a row whose ReLUs are all dead under zero projection
        # biases) normalizes to the zero vector instead of erroring; the
        # embedding bank and the kNN probe refuse it by row.
        z_norm = np.linalg.norm(z, axis=1)
        z /= np.maximum(z_norm, _NORM_FLOOR)[:, None]

    return ForwardCache(x=x, enc_act1=enc_act1, v=v, proj_act1=proj_act1,
                        z_norm=z_norm, z=z, p_hat=p_hat)


def _weight_grad(target: dict, name: str, g: np.ndarray, a: np.ndarray, add: bool) -> None:
    """Store (or with add, add) g.T @ a, the batch-summed gradient of weight
    matrix `name`, in target[name]; a name target lacks is skipped. With add
    the product is made and added in row chunks of at most _SGD_CHUNK cells
    (one row at least), so no tensor-sized product is allocated."""
    if name in target:
        out = target[name]
        if add:
            rows = max(1, _SGD_CHUNK // out.shape[1])
            for lo in range(0, len(out), rows):
                out[lo:lo + rows] += g.T[lo:lo + rows] @ a
        else:
            np.matmul(g.T, a, out=out)


def _bias_grad(target: dict, name: str, g: np.ndarray, add: bool) -> None:
    """As _weight_grad, for the bias gradient g.sum(axis=0)."""
    if name in target:
        if add:
            target[name] += g.sum(axis=0)
        else:
            np.sum(g, axis=0, out=target[name])


def backward(params: NetworkParams, cache: ForwardCache,
             grad_z: np.ndarray | None = None,
             grad_p: np.ndarray | None = None,
             into: dict[str, np.ndarray] | None = None,
             out: dict[str, np.ndarray] | None = None) -> dict[str, np.ndarray]:
    """Backpropagate upstream gradients on z (normalized projection) and
    p_hat (softmax output) to all parameters, in the cache's dtype (the
    upstream gradients are cast to it).

    The gradients are summed over the batch and land in a dict of arrays
    shaped like the parameters (such as an OptState's `grads` workspace),
    which is returned. With `out` they are written into its arrays, a head
    whose upstream gradient is omitted has its arrays zeroed, and a tensor
    `out` has no array for is skipped. With `into`, a dict an earlier
    backward filled, they are added into its arrays, each weight gradient
    in row chunks of at most _SGD_CHUNK cells so that no tensor-sized
    product is made, and a head without an upstream gradient adds nothing.
    A selective step calls backward twice on opt.grads: `out` with the mixed
    views' cache, then `into` with the plain views'. Each upstream gradient
    is released once the next layer's exists, so at most two (batch, hidden)
    gradients are alive at once. The ReLU masks are read from the cached
    activations. grad_z needs a cache built with the projection head.
    """
    if grad_z is not None and cache.z is None:
        raise ValueError("grad_z given, but the cache has no projection "
                         "(forward ran with project=False)")
    if (into is None) == (out is None):
        raise ValueError("give backward `into` or `out`, one of them and not both")
    add = into is not None
    target = into if add else out
    if not add:
        for name, arr in target.items():
            if ((grad_z is None and name.startswith("proj"))
                    or (grad_p is None and name.startswith("cls"))):
                arr.fill(0.0)

    g = None  # the gradient on the current layer's output, replaced layer by layer
    if grad_z is not None:
        gz = np.asarray(grad_z, dtype=cache.z.dtype)
        # d/du (u/|u|) applied to gz: remove the component along z, divide by
        # |u|; a row below the norm floor has no direction and gets zero.
        dead = cache.z_norm < _NORM_FLOOR
        g = ((gz - (gz * cache.z).sum(axis=1, keepdims=True) * cache.z)
             / np.where(dead, 1.0, cache.z_norm)[:, None])
        g[dead] = 0.0
        if params.projection == MLP:
            _weight_grad(target, "proj_w2", g, cache.proj_act1, add)
            _bias_grad(target, "proj_b2", g, add)
            g = g @ params.proj_w2
            g *= cache.proj_act1 > 0.0
        _weight_grad(target, "proj_w1", g, cache.v, add)
        _bias_grad(target, "proj_b1", g, add)
        g = g @ params.proj_w1

    if grad_p is not None:
        gp = np.asarray(grad_p, dtype=cache.p_hat.dtype)
        # Softmax Jacobian: g_logits = p * (gp - <gp, p>).
        g_logits = cache.p_hat * (gp - (gp * cache.p_hat).sum(axis=1, keepdims=True))
        _weight_grad(target, "cls_w", g_logits, cache.v, add)
        _bias_grad(target, "cls_b", g_logits, add)
        if g is None:
            g = g_logits @ params.cls_w
        else:
            g += g_logits @ params.cls_w

    if g is None:
        g = np.zeros_like(cache.v)
    g *= cache.v > 0.0  # the gradient on the second encoder pre-activation
    _weight_grad(target, "enc_w2", g, cache.enc_act1, add)
    _bias_grad(target, "enc_b2", g, add)
    g = g @ params.enc_w2
    g *= cache.enc_act1 > 0.0
    _weight_grad(target, "enc_w1", g, cache.x, add)
    _bias_grad(target, "enc_b1", g, add)
    return target


@dataclass
class OptState:
    """SGD with classical momentum and L2 weight decay added to the gradient
    (coupled, not decoupled):
    buf <- momentum * buf + grad + weight_decay * param; param <- param - lr * buf.

    lr_scale holds optional per-tensor learning-rate multipliers (0 freezes a
    tensor entirely, including its weight decay); which tensors are trained
    is fixed when the state is built. Besides the parameters it holds, per
    trained tensor (lr_scale not 0), two tensor-sized arrays: the momentum
    buffer and the tensor's array of the gradient workspace `grads`, which
    backward(..., out=opt.grads) fills once per step. It also holds one pair
    of chunk-sized arrays that sgd_step computes in (allocated on the first
    step).
    """

    lr: float
    momentum: float
    weight_decay: float
    schedule: list[tuple[int, float]] = field(default_factory=list)
    buffers: dict[str, np.ndarray] = field(default_factory=dict)
    lr_scale: dict[str, float] = field(default_factory=dict)
    grads: dict[str, np.ndarray] = field(default_factory=dict, repr=False)
    chunk_pair: tuple[np.ndarray, np.ndarray] | None = field(default=None, repr=False)

    @classmethod
    def for_params(cls, params: NetworkParams, lr: float, momentum: float,
                   weight_decay: float, schedule=None,
                   lr_scale: dict[str, float] | None = None) -> "OptState":
        opt = cls(lr=lr, momentum=momentum, weight_decay=weight_decay,
                  schedule=[(int(e), float(m)) for e, m in (schedule or [])],
                  lr_scale=dict(lr_scale or {}))
        for name, arr in params.named_arrays():
            if opt.lr_scale.get(name, 1.0) != 0.0:
                opt.buffers[name] = np.zeros_like(arr)
                opt.grads[name] = np.zeros_like(arr)
        return opt


def apply_lr_schedule(opt: OptState, epoch: int) -> None:
    """Multiply the learning rate by every schedule entry registered for `epoch`."""
    for at_epoch, mult in opt.schedule:
        if at_epoch == epoch:
            opt.lr *= mult


def _check_update(chunks, wd: float, mom: float, pair) -> None:
    """Compute every chunk's new momentum buffer and value into `pair`, as
    sgd_step would store them, and raise FloatingPointError naming the first
    tensor with a non-finite new value; store nothing."""
    for name, p, buf, g, step in chunks:
        b, v = pair[0][:p.size], pair[1][:p.size]
        np.multiply(p, wd, out=b)
        b += g
        b += np.multiply(buf, mom, out=v)
        np.subtract(p, np.multiply(b, step, out=v), out=v)
        if not np.isfinite(v).all():
            raise FloatingPointError(f"non-finite values in tensor '{name}' after update")


def _step_bound(dtype) -> float:
    """sgd_step's no-overflow bound on |weight_decay|, |momentum| and
    |lr * scale| for tensors of `dtype`: 2**min(200, maxexp // 4 - 2), where
    every finite value of the dtype is below 2**maxexp (see sgd_step)."""
    return 2.0 ** min(200, np.finfo(dtype).maxexp // 4 - 2)


def sgd_step(params: NetworkParams, grads: dict[str, np.ndarray], opt: OptState) -> NetworkParams:
    """One in-place momentum-SGD update of every trained tensor, or of none.

    Each trained tensor is flattened and cut into chunks of _SGD_CHUNK
    elements, and each chunk is updated in place with one chunk-sized
    scratch: buf <- (wd * p + g) + mom * buf, then p <- p - (lr * scale) *
    buf, rounded step by step as written in the tensors' dtype (the scalars
    are rounded to it). That one pass is the whole step when no new value
    can overflow, which an exact bound shows. Let every finite value of the
    dtype be below 2**M (M = finfo.maxexp: 128 for float32, 1024 for
    float64). Every p.p, g.g and buf.buf is finite, so every entry is below
    2**(M/2) in magnitude. Let |wd|, |mom| and every |lr * scale| be at most
    2**b. Rounding is monotone and powers of two are representable, so a
    rounded result never exceeds a power-of-two bound of its exact value:
    every new buffer entry is at most 2**(b + M/2 + 2) and every new value
    at most 2**(2b + M/2 + 3) in magnitude, which is finite when
    2b + M/2 + 3 <= M - 1, that is b <= M/4 - 2 (_step_bound). float32
    takes b = 30: buffers at most 2**96, values at most 2**127. float64
    allows 254 and keeps 200: buffers at most 2**714, values at most 2**915.
    When the bound does not hold, a first pass (_check_update) computes
    every chunk's new values into opt's chunk pair with the same operations
    and checks that they are finite, storing nothing; FloatingPointError then
    names the first non-finite tensor and the parameters and buffers are
    left as they were. Trained tensors and their buffers must be
    C-contiguous, as every constructor here makes them; ValueError is raised
    otherwise, before anything is written.
    """
    wd, mom = opt.weight_decay, opt.momentum
    dtype = params.enc_w1.dtype
    bound = _step_bound(dtype)
    bounded = abs(wd) <= bound and abs(mom) <= bound
    chunks = []
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow here only means "check"
        for name, arr in params.named_arrays():
            scale = opt.lr_scale.get(name, 1.0)
            if scale != 0.0:
                buf = opt.buffers[name]
                if not (arr.flags.c_contiguous and buf.flags.c_contiguous):
                    raise ValueError(f"tensor '{name}' or its momentum buffer is not C-contiguous")
                p, buf = arr.reshape(-1), buf.reshape(-1)  # views, as both are contiguous
                g = np.asarray(grads[name]).reshape(-1)
                step = opt.lr * scale
                bounded = (bounded and abs(step) <= bound
                           and math.isfinite(np.dot(p, p)) and math.isfinite(np.dot(g, g))
                           and math.isfinite(np.dot(buf, buf)))
                chunks += [(name, p[lo:lo + _SGD_CHUNK], buf[lo:lo + _SGD_CHUNK],
                            g[lo:lo + _SGD_CHUNK], step)
                           for lo in range(0, p.size, _SGD_CHUNK)]
        size = min(_SGD_CHUNK, sum(chunk[1].size for chunk in chunks))
        if opt.chunk_pair is None or opt.chunk_pair[0].size < size:
            opt.chunk_pair = (np.empty(size, dtype), np.empty(size, dtype))
        if not bounded:
            _check_update(chunks, wd, mom, opt.chunk_pair)
    scratch = opt.chunk_pair[0]
    for _, p, buf, g, step in chunks:
        s = scratch[:p.size]
        np.multiply(buf, mom, out=s)
        np.multiply(p, wd, out=buf)
        buf += g
        buf += s
        p -= np.multiply(buf, step, out=s)
    return params


def save_checkpoint(params: NetworkParams, path) -> None:
    """Serialize parameters to versioned JSON (each float32 value is written
    as the float64 number equal to it, so loading restores its bits)."""
    tensors = {name: arr.tolist() for name, arr in params.named_arrays()}
    payload = {
        "format_version": _CHECKPOINT_VERSION,
        "projection": params.projection,
        "tensors": tensors,
    }
    with open(path, "w") as fh:
        json.dump(payload, fh)


def load_checkpoint(path) -> NetworkParams:
    """Load parameters written by save_checkpoint as float32 tensors,
    validating version, names and shapes."""
    with open(path) as fh:
        payload = json.load(fh)
    tensors = payload.get("tensors") if isinstance(payload, dict) else None
    if not isinstance(tensors, dict):
        raise ValueError("checkpoint is not a JSON object with a 'tensors' object")
    version = payload.get("format_version")
    if version != _CHECKPOINT_VERSION:
        raise ValueError(f"unsupported checkpoint version {version!r}")
    projection = payload.get("projection", LINEAR)
    if projection not in (LINEAR, MLP):
        raise ValueError(f"unknown projection kind {projection!r}")
    tensors = {name: np.asarray(data, dtype=PARAM_DTYPE) for name, data in tensors.items()}
    out_w = "proj_w1" if projection == LINEAR else "proj_w2"
    names = {"enc_w1", "enc_b1", "enc_w2", "enc_b2", "proj_w1", "proj_b1", "cls_w", "cls_b"}
    if projection == MLP:
        names |= {"proj_w2", "proj_b2"}
    for problem, found in (("missing", names - set(tensors)),
                           ("unknown", set(tensors) - names)):
        if found:
            raise ValueError(f"checkpoint has {problem} tensors: {sorted(found)}")
    # the widths are read off these three weights; every shape is checked after
    if any(tensors[name].ndim != 2 for name in ("enc_w1", "cls_w", out_w)):
        raise ValueError(f"checkpoint tensors enc_w1, cls_w and {out_w} must be matrices")
    hidden, dim = tensors["enc_w1"].shape
    n_classes, proj_dim = tensors["cls_w"].shape[0], tensors[out_w].shape[0]
    proj_out1 = proj_dim if projection == LINEAR else hidden
    expect = {"enc_w1": (hidden, dim), "enc_b1": (hidden,),
              "enc_w2": (hidden, hidden), "enc_b2": (hidden,),
              "proj_w1": (proj_out1, hidden), "proj_b1": (proj_out1,),
              "proj_w2": (proj_dim, hidden), "proj_b2": (proj_dim,),
              "cls_w": (n_classes, hidden), "cls_b": (n_classes,)}
    for name, arr in tensors.items():
        if arr.shape != expect[name]:
            raise ValueError(f"checkpoint tensor '{name}' has shape "
                             f"{arr.shape}, expected {expect[name]}")
    return NetworkParams(projection=projection, **tensors)
