"""Small MLP with a normalized projection head and a softmax classifier head.

All forward/backward math is explicit numpy; gradients are summed over the
batch and the caller picks the reduction by scaling upstream gradients.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

LINEAR = "linear"
MLP = "mlp"

# Norms below this floor are treated as zero during normalization.
_NORM_FLOOR = 1e-30

_CHECKPOINT_VERSION = 1

# Elements per chunk of sgd_step; of 2**12 to 2**16, 2**15 (256 KB of float64)
# was the fastest at the shapes of the wide benchmark workload.
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
        return NetworkParams(
            enc_w1=self.enc_w1.copy(), enc_b1=self.enc_b1.copy(),
            enc_w2=self.enc_w2.copy(), enc_b2=self.enc_b2.copy(),
            proj_w1=self.proj_w1.copy(), proj_b1=self.proj_b1.copy(),
            cls_w=self.cls_w.copy(), cls_b=self.cls_b.copy(),
            projection=self.projection,
            proj_w2=None if self.proj_w2 is None else self.proj_w2.copy(),
            proj_b2=None if self.proj_b2 is None else self.proj_b2.copy(),
        )


@dataclass
class ForwardCache:
    """Per-example intermediates kept for the backward pass.

    The projection fields are None when forward ran with project=False.
    """

    x: np.ndarray
    enc_pre1: np.ndarray
    enc_act1: np.ndarray
    enc_pre2: np.ndarray
    v: np.ndarray        # encoder output, (batch, hidden)
    proj_pre1: np.ndarray | None
    proj_act1: np.ndarray | None  # mlp only
    z_raw: np.ndarray | None    # pre-normalization projection, (batch, proj_dim)
    z_norm: np.ndarray | None   # (batch,) euclidean norms of z_raw
    z: np.ndarray | None        # unit rows, (batch, proj_dim)
    logits: np.ndarray
    p_hat: np.ndarray    # softmax rows, (batch, n_classes)


def he_init(rng: np.random.Generator, fan_out: int, fan_in: int) -> np.ndarray:
    return rng.standard_normal((fan_out, fan_in)) * np.sqrt(2.0 / fan_in)


def init_params(dim: int, n_classes: int, hidden: int = 64, proj_dim: int = 32,
                projection: str = LINEAR, seed=0) -> NetworkParams:
    """He fan-in Gaussian weights, zero biases, seeded."""
    if projection not in (LINEAR, MLP):
        raise ValueError(f"unknown projection kind {projection!r}")
    rng = np.random.default_rng(seed)
    proj_out1 = proj_dim if projection == LINEAR else hidden
    params = NetworkParams(
        enc_w1=he_init(rng, hidden, dim), enc_b1=np.zeros(hidden),
        enc_w2=he_init(rng, hidden, hidden), enc_b2=np.zeros(hidden),
        proj_w1=he_init(rng, proj_out1, hidden), proj_b1=np.zeros(proj_out1),
        cls_w=he_init(rng, n_classes, hidden), cls_b=np.zeros(n_classes),
        projection=projection,
    )
    if projection == MLP:
        params.proj_w2 = he_init(rng, proj_dim, hidden)
        params.proj_b2 = np.zeros(proj_dim)
    return params


def forward(params: NetworkParams, x: np.ndarray, project: bool = True) -> ForwardCache:
    """Run the network on a (batch, dim) matrix.

    The projection output is L2-normalized per row; a zero pre-normalization
    row (degenerate parameters) maps to the zero vector rather than erroring.
    With project=False the projection head is skipped and the cache's
    projection fields are None; v, logits and p_hat are the same either way.
    """
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    if x.shape[1] != params.dim:
        raise ValueError(f"input has dim {x.shape[1]}, params expect {params.dim}")

    enc_pre1 = x @ params.enc_w1.T + params.enc_b1
    enc_act1 = np.maximum(enc_pre1, 0.0)
    enc_pre2 = enc_act1 @ params.enc_w2.T + params.enc_b2
    v = np.maximum(enc_pre2, 0.0)

    proj_pre1 = proj_act1 = z_raw = z_norm = z = None
    if project:
        proj_pre1 = v @ params.proj_w1.T + params.proj_b1
        if params.projection == MLP:
            proj_act1 = np.maximum(proj_pre1, 0.0)
            z_raw = proj_act1 @ params.proj_w2.T + params.proj_b2
        else:
            z_raw = proj_pre1
        # A zero projection output (possible only for degenerate parameters,
        # e.g. all-zero weights) normalizes to the zero vector instead of
        # erroring; the embedding bank still enforces unit norms before any
        # selection runs.
        z_norm = np.linalg.norm(z_raw, axis=1)
        z = z_raw / np.maximum(z_norm, _NORM_FLOOR)[:, None]

    logits = v @ params.cls_w.T + params.cls_b
    shifted = logits - logits.max(axis=1, keepdims=True)
    exp = np.exp(shifted)
    p_hat = exp / exp.sum(axis=1, keepdims=True)

    return ForwardCache(x=x, enc_pre1=enc_pre1, enc_act1=enc_act1, enc_pre2=enc_pre2,
                        v=v, proj_pre1=proj_pre1, proj_act1=proj_act1, z_raw=z_raw,
                        z_norm=z_norm, z=z, logits=logits, p_hat=p_hat)


def backward(params: NetworkParams, cache: ForwardCache,
             grad_z: np.ndarray | None = None,
             grad_p: np.ndarray | None = None,
             into: dict[str, np.ndarray] | None = None) -> dict[str, np.ndarray]:
    """Backpropagate upstream gradients on z (normalized projection) and
    p_hat (softmax output) to all parameters.

    Returns a dict keyed like named_arrays(), with gradients summed over the
    batch; a head whose upstream gradient is omitted gets zero gradients.
    With `into`, a dict an earlier backward returned, the gradients are added
    into its arrays instead, a head without an upstream gradient adds
    nothing, and `into` is returned. grad_z needs a cache built with the
    projection head.
    """
    if grad_z is not None and cache.z is None:
        raise ValueError("grad_z given, but the cache has no projection "
                         "(forward ran with project=False)")
    grads: dict[str, np.ndarray] = {}
    gv = None
    if grad_z is not None:
        gz = np.asarray(grad_z, dtype=np.float64)
        # d/du (u/|u|) applied to gz: remove the component along z, divide by |u|.
        gu = ((gz - (gz * cache.z).sum(axis=1, keepdims=True) * cache.z)
              / np.maximum(cache.z_norm, _NORM_FLOOR)[:, None])
        if params.projection == MLP:
            grads["proj_w2"] = gu.T @ cache.proj_act1
            grads["proj_b2"] = gu.sum(axis=0)
            g_act = gu @ params.proj_w2
            g_pre = g_act * (cache.proj_pre1 > 0.0)
        else:
            g_pre = gu
        grads["proj_w1"] = g_pre.T @ cache.v
        grads["proj_b1"] = g_pre.sum(axis=0)
        gv = g_pre @ params.proj_w1

    if grad_p is not None:
        gp = np.asarray(grad_p, dtype=np.float64)
        # Softmax Jacobian: g_logits = p * (gp - <gp, p>).
        g_logits = cache.p_hat * (gp - (gp * cache.p_hat).sum(axis=1, keepdims=True))
        grads["cls_w"] = g_logits.T @ cache.v
        grads["cls_b"] = g_logits.sum(axis=0)
        gv_cls = g_logits @ params.cls_w
        gv = gv_cls if gv is None else gv + gv_cls

    if gv is None:
        gv = np.zeros_like(cache.v)
    g_pre2 = gv * (cache.enc_pre2 > 0.0)
    grads["enc_w2"] = g_pre2.T @ cache.enc_act1
    grads["enc_b2"] = g_pre2.sum(axis=0)
    g_pre1 = (g_pre2 @ params.enc_w2) * (cache.enc_pre1 > 0.0)
    grads["enc_w1"] = g_pre1.T @ cache.x
    grads["enc_b1"] = g_pre1.sum(axis=0)

    if into is not None:
        for name, grad in grads.items():
            into[name] += grad
        return into
    for name, arr in params.named_arrays():
        if name not in grads:
            grads[name] = np.zeros_like(arr)
    return grads


@dataclass
class OptState:
    """SGD with classical momentum and L2 weight decay added to the gradient
    (coupled, not decoupled):
    buf <- momentum * buf + grad + weight_decay * param; param <- param - lr * buf.

    lr_scale holds optional per-tensor learning-rate multipliers (0 freezes a
    tensor entirely, including its weight decay). Besides the parameters it
    holds one tensor-sized array per trained tensor, the momentum buffer, and
    one pair of chunk-sized arrays that sgd_step computes in (allocated on
    the first step).
    """

    lr: float
    momentum: float = 0.9
    weight_decay: float = 1e-4
    schedule: list[tuple[int, float]] = field(default_factory=list)
    buffers: dict[str, np.ndarray] = field(default_factory=dict)
    lr_scale: dict[str, float] = field(default_factory=dict)
    chunk_pair: tuple[np.ndarray, np.ndarray] | None = field(default=None, repr=False)

    @classmethod
    def for_params(cls, params: NetworkParams, lr: float, momentum: float = 0.9,
                   weight_decay: float = 1e-4, schedule=None,
                   lr_scale: dict[str, float] | None = None) -> "OptState":
        opt = cls(lr=lr, momentum=momentum, weight_decay=weight_decay,
                  schedule=[(int(e), float(m)) for e, m in (schedule or [])],
                  lr_scale=dict(lr_scale or {}))
        for name, arr in params.named_arrays():
            opt.buffers[name] = np.zeros_like(arr)
        return opt


def apply_lr_schedule(opt: OptState, epoch: int) -> None:
    """Multiply the learning rate by every schedule entry registered for `epoch`."""
    for at_epoch, mult in opt.schedule:
        if at_epoch == epoch:
            opt.lr *= mult


def sgd_step(params: NetworkParams, grads: dict[str, np.ndarray], opt: OptState) -> NetworkParams:
    """One in-place momentum-SGD update of every tensor, or of none.

    Each trained tensor is flattened and cut into chunks of _SGD_CHUNK
    elements. Pass 1 computes every chunk's new momentum buffer and new value
    into opt's chunk pair and checks that the values are finite, storing
    nothing: the chunks are laid out one after another in the pair, and one
    that does not fit starts again at its front, so only the chunks since then
    are still held at the end. Only when every new value is finite does pass 2
    store them: it copies the chunks still held and recomputes each other
    chunk in place, with the same operations in the same order, so it stores
    the values pass 1 checked, bit for bit. Otherwise FloatingPointError names
    the first non-finite tensor and the parameters and buffers are left as
    they were. Trained tensors and their buffers must be C-contiguous, as
    every constructor here makes them; ValueError is raised otherwise, before
    anything is written.
    """
    chunks = []
    for name, arr in params.named_arrays():
        scale = opt.lr_scale.get(name, 1.0)
        if scale != 0.0:
            buf = opt.buffers[name]
            if not (arr.flags.c_contiguous and buf.flags.c_contiguous):
                raise ValueError(f"tensor '{name}' or its momentum buffer is not C-contiguous")
            p, buf = arr.reshape(-1), buf.reshape(-1)  # views, as both are contiguous
            g = np.asarray(grads[name]).reshape(-1)
            chunks += [(name, p[lo:lo + _SGD_CHUNK], buf[lo:lo + _SGD_CHUNK],
                        g[lo:lo + _SGD_CHUNK], opt.lr * scale)
                       for lo in range(0, p.size, _SGD_CHUNK)]
    size = min(_SGD_CHUNK, sum(chunk[1].size for chunk in chunks))
    if opt.chunk_pair is None or opt.chunk_pair[0].size < size:
        opt.chunk_pair = (np.empty(size), np.empty(size))
    next_buf, next_val = opt.chunk_pair
    wd, mom = opt.weight_decay, opt.momentum
    # buf = (wd * p + g) + mom * buf, p = p - (lr * scale) * buf, rounded step by
    # step as that formula is (addition commutes), without temporaries
    held, at = [], 0
    for name, p, buf, g, step in chunks:
        if at + p.size > size:
            held, at = [], 0
        b, v = next_buf[at:at + p.size], next_val[at:at + p.size]
        at += p.size
        np.multiply(p, wd, out=b)
        b += g
        b += np.multiply(buf, mom, out=v)
        np.subtract(p, np.multiply(b, step, out=v), out=v)
        if not np.isfinite(v).all():
            raise FloatingPointError(f"non-finite values in tensor '{name}' after update")
        held.append((b, v))
    first = len(chunks) - len(held)  # the held chunks are the last ones
    for (_, p, buf, _, _), (b, v) in zip(chunks[first:], held):
        np.copyto(buf, b)  # before any recomputation overwrites the pair
        np.copyto(p, v)
    for _, p, buf, g, step in chunks[:first]:
        s = next_val[:p.size]
        np.multiply(buf, mom, out=s)
        np.multiply(p, wd, out=buf)
        buf += g
        buf += s
        p -= np.multiply(buf, step, out=s)
    return params


def save_checkpoint(params: NetworkParams, path) -> None:
    """Serialize parameters to versioned JSON."""
    tensors = {name: arr.tolist() for name, arr in params.named_arrays()}
    payload = {
        "format_version": _CHECKPOINT_VERSION,
        "projection": params.projection,
        "tensors": tensors,
    }
    with open(path, "w") as fh:
        json.dump(payload, fh)


def load_checkpoint(path) -> NetworkParams:
    """Load parameters written by save_checkpoint, validating version and shapes."""
    with open(path) as fh:
        payload = json.load(fh)
    version = payload.get("format_version")
    if version != _CHECKPOINT_VERSION:
        raise ValueError(f"unsupported checkpoint version {version!r}")
    projection = payload.get("projection", LINEAR)
    tensors = {name: np.asarray(data, dtype=np.float64)
               for name, data in payload["tensors"].items()}
    required = {"enc_w1", "enc_b1", "enc_w2", "enc_b2", "proj_w1", "proj_b1", "cls_w", "cls_b"}
    if projection == MLP:
        required |= {"proj_w2", "proj_b2"}
    missing = required - set(tensors)
    if missing:
        raise ValueError(f"checkpoint missing tensors: {sorted(missing)}")
    params = NetworkParams(
        enc_w1=tensors["enc_w1"], enc_b1=tensors["enc_b1"],
        enc_w2=tensors["enc_w2"], enc_b2=tensors["enc_b2"],
        proj_w1=tensors["proj_w1"], proj_b1=tensors["proj_b1"],
        cls_w=tensors["cls_w"], cls_b=tensors["cls_b"],
        projection=projection,
        proj_w2=tensors.get("proj_w2"), proj_b2=tensors.get("proj_b2"),
    )
    hidden = params.hidden
    expect = {"enc_w1": (hidden, params.dim), "enc_b1": (hidden,),
              "enc_w2": (hidden, hidden), "enc_b2": (hidden,),
              "cls_w": (params.n_classes, hidden), "cls_b": (params.n_classes,)}
    for name, shape in expect.items():
        if tensors[name].shape != shape:
            raise ValueError(f"checkpoint tensor '{name}' has shape "
                             f"{tensors[name].shape}, expected {shape}")
    return params
