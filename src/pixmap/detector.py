"""Minimal convolutional detector with hand-derived gradients.

The network is deliberately tiny so its backward pass stays checkable
against finite differences and a full training run takes seconds:

    conv 3x3 (3->8) -> ReLU -> 2x2 mean pool -> conv 3x3 (8->16) -> ReLU
    -> global mean pool -> linear (16->1) -> sigmoid

Convolutions are valid (no padding, stride 1). The mean pool uses stride-2
windows that shrink to partial windows on odd edges, so any input of at
least 7x7 flows through. Its forward and backward passes each loop over
the four window taps, one path for even and odd sides alike. The
optimizer is Adam with fixed betas (``ADAM_BETA1``, ``ADAM_BETA2``) and
decoupled weight decay (weights shrink by lr * wd before the moment
update). Each training step runs the forward pass once and caches only
what the backward pass reads: the input batch, conv2's im2col matrix, the
ReLU masks ``m1``/``m2`` (``a > 0``, taken before each ReLU runs in place)
and the pool's window counts. conv1 runs over ``_FORWARD_CHUNK``-sample
chunks whose im2col matrices are dropped at once; its weight gradient
rebuilds them from the input, chunk by chunk. conv2's matrix is freed
before its input gradient allocates a matrix of the same size.
Every kernel computes in its input's dtype with a fixed reduction order,
so identical seeds give bit-identical weights. A batch is cast to its
weights' dtype: :func:`train` and :func:`load_params` give float32
weights, so training and scoring run in float32, while the float64
weights of :func:`init_params` keep a pass in float64. Weights, gradients
and Adam moments are dicts of arrays keyed by the names of ``_SHAPES``,
in its order.

:func:`train` and :func:`evaluate` build every batch with
``reducers.crop_batch``, the path ``spectrum`` and ``map`` use too;
training hands it one crop seed per sample and ``(path, epoch)`` tags,
evaluation no seeds (centre crops) and ``(path,)`` tags.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .config import TrainConfig
from .errors import PixmapError
from .image import format_rows, parse_rows, read_ascii_lines, read_ppm, write_atomic
from .reducers import ReducerSpec, crop_batch
from .rng import SplitMix64, derive_seed, seeded_permutations
from .synthgen import ManifestEntry

LOSS_EPS = 1e-7
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8

_SHAPES = {
    "conv1_w": (8, 3, 3, 3),
    "conv1_b": (8,),
    "conv2_w": (16, 8, 3, 3),
    "conv2_b": (16,),
    "linear_w": (1, 16),
    "linear_b": (1,),
}


def _finite(params: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
    """``params`` in ``_SHAPES`` order; a tensor with a non-finite value raises ``bad-params``."""
    for name in _SHAPES:
        if not np.all(np.isfinite(params[name])):
            raise PixmapError("bad-params", f"{name} contains non-finite values")
    return {name: params[name] for name in _SHAPES}


def init_params(seed: int) -> dict[str, np.ndarray]:
    """He-uniform weights, zero biases, drawn from one seeded stream."""
    rng = SplitMix64(seed)
    out = {}
    for name, shape in _SHAPES.items():
        if name.endswith("_b"):
            out[name] = np.zeros(shape)
        else:
            fan_in = int(np.prod(shape[1:]))
            bound = np.sqrt(6.0 / fan_in)
            out[name] = rng.uniforms(int(np.prod(shape)), -bound, bound).reshape(shape)
    return out


# --- layers -------------------------------------------------------------------


def _im2col(x):
    """The 3x3 windows of NCHW ``x`` as an (n, cin*9, P) matrix, rows ordered (cin, u, v).

    One strided view of ``x`` is copied once, so ``W @ cols`` lands directly
    in NCHW and the backward matmuls need no transposing copy.
    """
    n, cin, h, wd = x.shape
    sn, sc, sh, sw = x.strides
    windows = np.lib.stride_tricks.as_strided(
        x, (n, cin, 3, 3, h - 2, wd - 2), (sn, sc, sh, sw, sh, sw), writeable=False
    )
    return np.ascontiguousarray(windows).reshape(n, cin * 9, (h - 2) * (wd - 2))


def _conv_forward(x, w, b):
    """Valid 3x3 convolution; returns (out, cols), where ``cols`` is ``_im2col(x)``.

    The training step keeps conv2's ``cols`` for its weight gradient and
    drops conv1's, which :func:`_conv1_param_grads` rebuilds.
    """
    n, _, h, wd = x.shape
    cout = w.shape[0]
    cols = _im2col(x)
    out = w.reshape(cout, -1) @ cols
    out += b[:, None]
    return out.reshape(n, cout, h - 2, wd - 2), cols


def _conv_param_grads(grad_out, cols):
    """Weight and bias gradients of _conv_forward, from its im2col ``cols``."""
    g = grad_out.reshape(*grad_out.shape[:2], -1)
    grad_w = (g @ cols.transpose(0, 2, 1)).sum(axis=0)
    return grad_w.reshape(g.shape[1], -1, 3, 3), g.sum(axis=(0, 2))


def _conv1_param_grads(grad_out, x):
    """``_conv_param_grads(grad_out, _im2col(x))`` bit for bit, holding one chunk's columns at a time.

    Each sample's ``g @ cols.T`` is the same GEMM as in the whole-batch
    product and lands in the same (n, cout, cin*9) buffer, which is summed
    over samples once.
    """
    g = grad_out.reshape(*grad_out.shape[:2], -1)
    per_sample = np.empty((len(x), g.shape[1], x.shape[1] * 9), dtype=g.dtype)
    for start in range(0, len(x), _FORWARD_CHUNK):
        stop = start + _FORWARD_CHUNK
        np.matmul(g[start:stop], _im2col(x[start:stop]).transpose(0, 2, 1), out=per_sample[start:stop])
    return per_sample.sum(axis=0).reshape(g.shape[1], -1, 3, 3), g.sum(axis=(0, 2))


def _conv_input_grad(grad_out, x_shape, w):
    """Gradient of _conv_forward at its input; needs no im2col matrix."""
    n, cin, h, wd = x_shape
    cout, oh, ow = grad_out.shape[1], h - 2, wd - 2
    gpatch = (w.reshape(cout, -1).T @ grad_out.reshape(n, cout, oh * ow)).reshape(n, cin, 3, 3, oh, ow)
    grad_x = np.zeros(x_shape, dtype=gpatch.dtype)
    for u in range(3):
        for v in range(3):
            grad_x[:, :, u : u + oh, v : v + ow] += gpatch[:, :, u, v]
    return grad_x


def _meanpool_forward(x):
    """2x2 mean pool over stride-2 windows; returns (pooled, counts).

    Windows on an odd edge are partial, and ``counts`` holds each window's
    number of taps. The sums start from zeros and add the (0,0), (0,1),
    (1,0), (1,1) taps in that order.
    """
    n, c, h, w = x.shape
    sums = np.zeros((n, c, (h + 1) // 2, (w + 1) // 2), dtype=x.dtype)
    counts = np.zeros(sums.shape[2:], dtype=x.dtype)
    for dy in (0, 1):
        for dx in (0, 1):
            sub = x[:, :, dy::2, dx::2]
            sums[:, :, : sub.shape[2], : sub.shape[3]] += sub
            counts[: sub.shape[2], : sub.shape[3]] += 1
    return sums / counts, counts


def _keep(mask, x):
    """``np.where(mask, x, 0.0)`` bit for bit, for float ``x`` broadcast to ``mask``.

    x's bit pattern is ANDed with all-ones or all-zero words of its own
    width, so signed zeros and NaNs pass unchanged and every dropped entry
    is +0.0. With no branch per element it is several times faster than
    ``np.where`` on a random mask.
    """
    word = np.dtype(f"u{x.dtype.itemsize}")
    out = -mask.astype(word)
    out &= x.view(word)
    return out.view(x.dtype)


def _pool_relu_backward(grad_out, counts, mask):
    """Gradient at conv1's pre-ReLU output from the pooled gradient; ``mask`` is ``a1 > 0``.

    The stride-2 windows tile the input, so each tap's slice is assigned
    once and no entry needs a zero fill.
    """
    grad = np.empty(mask.shape, dtype=grad_out.dtype)
    spread = grad_out / counts
    for dy in (0, 1):
        for dx in (0, 1):
            sub = grad[:, :, dy::2, dx::2]
            sub[...] = spread[:, :, : sub.shape[2], : sub.shape[3]]
    return _keep(mask, grad)


def _sigmoid(z):
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def _check_batch(params: dict[str, np.ndarray], batch):
    """``batch`` as an array of the weights' dtype; a bad shape raises ``bad-batch``."""
    x = np.asarray(batch, dtype=params["conv1_w"].dtype)
    if x.ndim != 4 or x.shape[1] != 3:
        raise PixmapError("bad-batch", f"batch must be NxCxHxW with C=3, got {x.shape}")
    if x.shape[2] < 7 or x.shape[3] < 7:
        raise PixmapError("bad-batch", f"spatial dims must be >= 7, got {x.shape[2:]}" )
    return x


# Samples per batch that evaluate() scores with one head call, and per chunk
# that evaluate() crops and reduces, forward() runs through the conv layers
# and the training step builds conv1's im2col matrix for. At the default
# 32-px crop a chunk's float32 conv1 matrix is 0.78 MB, against 3.1 MB for
# a 32-sample training batch and 6.2 MB for a whole eval batch, so it
# stays in cache and is never held for the backward pass.
_EVAL_BATCH = 64
_FORWARD_CHUNK = 8


def _features(params: dict[str, np.ndarray], x):
    """conv1 -> ReLU -> pool -> conv2 -> ReLU -> mean; returns (g, (x, m1, counts, p1_shape, m2, cols2)).

    conv1 runs one ``_FORWARD_CHUNK`` at a time and keeps no im2col matrix.
    """
    n, _, h, w = x.shape
    a1 = np.empty((n, params["conv1_w"].shape[0], h - 2, w - 2), dtype=x.dtype)
    for start in range(0, n, _FORWARD_CHUNK):
        stop = start + _FORWARD_CHUNK
        a1[start:stop] = _conv_forward(x[start:stop], params["conv1_w"], params["conv1_b"])[0]
    m1 = a1 > 0
    p1, counts = _meanpool_forward(np.maximum(a1, 0.0, out=a1))
    del a1
    a2, cols2 = _conv_forward(p1, params["conv2_w"], params["conv2_b"])
    m2 = a2 > 0
    g = np.maximum(a2, 0.0, out=a2).mean(axis=(2, 3))
    return g, (x, m1, counts, p1.shape, m2, cols2)


def _head(params: dict[str, np.ndarray], g):
    return _sigmoid((g @ params["linear_w"].T + params["linear_b"])[:, 0])


def _forward_full(params: dict[str, np.ndarray], batch):
    g, cache = _features(params, _check_batch(params, batch))
    return _head(params, g), g, cache


def forward(params: dict[str, np.ndarray], batch) -> np.ndarray:
    """Per-sample fake probabilities in (0, 1) for an NxCxHxW batch.

    The conv layers run over chunks of ``_FORWARD_CHUNK`` samples; each
    sample's features are computed on their own, so chunking changes no
    bit. The linear head runs once over the whole batch: BLAS may round a
    row differently in a block of another size, so chunking it would not
    match :func:`_forward_full`.
    """
    x = _check_batch(params, batch)
    g = np.empty((len(x), params["linear_w"].shape[1]), dtype=x.dtype)
    for start in range(0, len(x), _FORWARD_CHUNK):
        g[start : start + _FORWARD_CHUNK] = _features(params, x[start : start + _FORWARD_CHUNK])[0]
    return _head(params, g)


def loss(probs, labels) -> float:
    """Mean binary cross-entropy with probabilities clamped to [eps, 1-eps]."""
    p = np.clip(np.asarray(probs, dtype=np.float64), LOSS_EPS, 1.0 - LOSS_EPS)
    y = np.asarray(labels, dtype=np.float64)
    return float(-np.mean(y * np.log(p) + (1.0 - y) * np.log(1.0 - p)))


def _forward_backward(params: dict[str, np.ndarray], batch, labels):
    """One forward pass plus the exact gradient; returns (probs, grads).

    Where the probability clamp is active the computed loss is locally
    constant in the logit, so those samples contribute zero gradient,
    matching finite differences of the actual loss. conv1's input gradient
    is never needed, so it is not computed. A batch already in the weights'
    dtype is held, not copied, for conv1's weight gradient.
    """
    probs, g, (x, m1, counts, p1_shape, m2, cols2) = _forward_full(params, batch)
    y = np.asarray(labels, dtype=probs.dtype)  # float64 labels would upcast the whole backward pass
    n = len(probs)
    clamped = (probs < LOSS_EPS) | (probs > 1.0 - LOSS_EPS)
    dz = np.where(clamped, 0.0, probs - y) / n

    grad_linear_w = (dz[:, None] * g).sum(axis=0, keepdims=True)
    grad_linear_b = np.array([dz.sum()])
    dg = dz[:, None] * params["linear_w"][0][None, :]

    # grad steps back from conv2's output to conv1's; rebinding frees each step's.
    grad = _keep(m2, (dg / (m2.shape[2] * m2.shape[3]))[:, :, None, None])
    grad_conv2_w, grad_conv2_b = _conv_param_grads(grad, cols2)
    del m2, cols2  # before conv2's input gradient allocates its patch matrix
    grad = _conv_input_grad(grad, p1_shape, params["conv2_w"])
    grad = _pool_relu_backward(grad, counts, m1)
    grad_conv1_w, grad_conv1_b = _conv1_param_grads(grad, x)

    return probs, {
        "conv1_w": grad_conv1_w,
        "conv1_b": grad_conv1_b,
        "conv2_w": grad_conv2_w,
        "conv2_b": grad_conv2_b,
        "linear_w": grad_linear_w,
        "linear_b": grad_linear_b,
    }


def backward(params: dict[str, np.ndarray], batch, labels) -> dict[str, np.ndarray]:
    """Exact gradient of loss(forward(batch)) for every parameter tensor."""
    return _forward_backward(params, batch, labels)[1]


# --- optimizer ------------------------------------------------------------------


@dataclass
class AdamState:
    """Adam's moments by tensor name, empty until the first step, and the step count."""

    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)
    t: int = 0


def adam_step(
    params: dict[str, np.ndarray],
    grads: dict[str, np.ndarray],
    state: AdamState,
    config: TrainConfig,
) -> dict[str, np.ndarray]:
    """One Adam update with bias correction and decoupled weight decay; a non-finite result is ``bad-params``.

    A missing moment starts at 0.0, so the moments take the gradients' dtype.
    """
    state.t += 1
    t = state.t
    new = {}
    for name, theta in params.items():
        g = grads[name]
        theta = theta * (1.0 - config.lr * config.weight_decay)
        m = state.m[name] = ADAM_BETA1 * state.m.get(name, 0.0) + (1.0 - ADAM_BETA1) * g
        v = state.v[name] = ADAM_BETA2 * state.v.get(name, 0.0) + (1.0 - ADAM_BETA2) * g * g
        m_hat = m / (1.0 - ADAM_BETA1**t)
        v_hat = v / (1.0 - ADAM_BETA2**t)
        new[name] = theta - config.lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
    return _finite(new)


# --- training / evaluation --------------------------------------------------------


def load_images(entries, root) -> list[np.ndarray]:
    """Decode every entry's PPM under ``root``, in manifest order.

    The commands decode each split once with this and hand the images to
    :func:`train` and :func:`evaluate`.
    """
    return [read_ppm(Path(root) / e.path) for e in entries]


@np.errstate(all="ignore")
def train(
    entries: tuple[ManifestEntry, ...], images: list[np.ndarray], config: TrainConfig
) -> tuple[dict[str, np.ndarray], list[float]]:
    """Train on decoded manifest images; returns final float32 weights and per-epoch mean loss.

    Each epoch reshuffles the sample order, redraws every random crop, and
    redraws any stochastic reducer state, all from seeds derived off
    ``config.seed``, the sample path, and the epoch index, so equal inputs
    give bit-identical weights; a crop is seeded by ``derive_seed(seed,
    "crop", epoch, path)``. A non-finite update raises ``diverged``, and
    so do final weights that score the last batch NaN: finite weights can
    still overflow the next forward pass.
    """
    if not entries:
        raise PixmapError("empty-manifest", "training manifest has no entries")
    labels_present = {e.label for e in entries}
    if labels_present != {0, 1}:
        raise PixmapError("single-class", f"training needs both labels, got {labels_present}")

    params = {k: v.astype(np.float32) for k, v in init_params(derive_seed(config.seed, "init")).items()}
    reducer_root = derive_seed(config.seed, "reducer")
    state = AdamState()
    trace = []
    n = len(entries)
    for epoch in range(config.epochs):
        order = seeded_permutations([derive_seed(config.seed, "order", epoch)], n)[0].tolist()
        epoch_loss = 0.0
        for start in range(0, n, config.batch_size):
            chunk = order[start : start + config.batch_size]
            paths = [entries[i].path for i in chunk]
            datas = [images[i] for i in chunk]
            seeds = [derive_seed(config.seed, "crop", epoch, path) for path in paths]
            tags = [(path, epoch) for path in paths]
            batch = crop_batch(datas, config.reducer, reducer_root, tags, config.crop, seeds).astype(np.float32)
            y = np.array([entries[i].label for i in chunk], dtype=np.float64)
            probs, grads = _forward_backward(params, batch, y)
            epoch_loss += loss(probs, y) * len(chunk)
            try:
                params = adam_step(params, grads, state, config)
            except PixmapError as exc:
                raise PixmapError("diverged", f"training diverged in epoch {epoch + 1}: {exc.message}") from exc
        trace.append(epoch_loss / n)
    if np.isnan(forward(params, batch)).any():
        raise PixmapError("diverged", f"training diverged in epoch {config.epochs}: the final weights score NaN")
    return params, trace


def accuracy_at_half(scores, labels) -> float:
    """Fraction correct with the tie convention score >= 0.5 -> fake."""
    pred = np.asarray(scores) >= 0.5
    return float(np.mean(pred == np.asarray(labels).astype(bool)))


def average_precision(scores, labels) -> float:
    """Area under the precision-recall step function.

    Thresholds sweep the descending unique scores with ties grouped: each
    group contributes (recall gain) * (precision after including the whole
    group).
    """
    s = np.asarray(scores, dtype=np.float64)
    y = np.asarray(labels)
    npos = int(np.sum(y == 1))
    if npos == 0:
        raise PixmapError("degenerate-labels", "average precision needs a positive sample")
    if np.isnan(s).any():  # a NaN score has no place in the ranking
        raise PixmapError("bad-scores", "average precision needs scores that are not NaN")
    order = np.argsort(-s, kind="stable")
    s = s[order]
    ends = np.flatnonzero(np.append(s[1:] != s[:-1], True))  # last index of each tie group
    tp = np.cumsum(y[order] == 1)[ends]
    terms = (np.diff(tp, prepend=0) / npos) * (tp / (ends + 1))
    return float(np.cumsum(terms)[-1])  # summed left to right, in the groups' order


@np.errstate(all="ignore")
def evaluate(
    params: dict[str, np.ndarray],
    entries: tuple[ManifestEntry, ...],
    images: list[np.ndarray],
    reducer: ReducerSpec,
    reducer_seed: int,
    crop_size: int,
) -> np.ndarray:
    """Center-crop, reduce, and score decoded manifest images: one fake probability per entry, in entry order.

    Stochastic reducers derive per-image state from the image path alone,
    so each entry's score does not depend on the manifest order. Each
    ``_FORWARD_CHUNK`` is cropped and reduced straight into one eval batch
    of the weights' dtype, allocated once the first chunk has passed the
    crop checks; the head scores a whole ``_EVAL_BATCH`` block at once, as
    :func:`forward` of ``crop_batch`` over the block would.
    """
    if not entries:
        raise PixmapError("empty-manifest", "evaluation manifest has no entries")
    scores = np.empty(len(entries))
    batch = None
    for start in range(0, len(entries), _EVAL_BATCH):
        stop = min(start + _EVAL_BATCH, len(entries))
        for lo in range(start, stop, _FORWARD_CHUNK):
            hi = min(lo + _FORWARD_CHUNK, stop)
            tags = [(e.path,) for e in entries[lo:hi]]
            part = crop_batch(images[lo:hi], reducer, reducer_seed, tags, crop_size)
            if batch is None:
                batch = np.empty((min(_EVAL_BATCH, len(entries)), *part.shape[1:]), dtype=params["conv1_w"].dtype)
            batch[lo - start : hi - start] = part
        scores[start:stop] = forward(params, batch[: stop - start])
    return scores


# --- weights file ---------------------------------------------------------------

_W1_MAGIC = "PIXMAP-W1"


def encode_params(params: dict[str, np.ndarray], reducer: ReducerSpec, reducer_seed: int, crop_size: int) -> bytes:
    """Weights as text: magic, preprocessing identity, tensors.

    Each value is written as the shortest decimal that reads back to its
    float64, so load_params recovers the exact bits of float32 weights.
    """
    lines = [
        _W1_MAGIC,
        f"reducer {reducer.canonical()}",
        f"reducer_seed {reducer_seed}",
        f"crop {crop_size}",
    ]
    for name, arr in params.items():
        dims = " ".join(str(d) for d in arr.shape)
        lines.append(f"tensor {name} {dims}")
        lines += format_rows(arr.reshape(arr.shape[0], -1))
    return ("\n".join(lines) + "\n").encode("ascii")


def save_params(path, params: dict[str, np.ndarray], reducer: ReducerSpec, reducer_seed: int, crop_size: int) -> None:
    write_atomic({path: encode_params(params, reducer, reducer_seed, crop_size)})


def load_params(path) -> tuple[dict[str, np.ndarray], ReducerSpec, int, int]:
    """Read the weights file at ``path``, the inverse of :func:`encode_params`: (params, reducer, reducer_seed, crop).

    A bad file raises PixmapError with code ``unsupported-format`` (not an
    ASCII weights file), ``malformed-header`` (a bad header or tensor line,
    or an unknown, repeated or misshapen tensor), ``malformed-payload`` (a
    value that is not a number, or a row of the wrong length),
    ``truncated-payload`` (the file ends inside a tensor or lacks one) or
    ``bad-params`` (a non-finite value, or one beyond float32's range).
    The weights come back as float32, the dtype :func:`train` writes.
    """
    lines = iter(read_ascii_lines(path, "unsupported-format", f"not a {_W1_MAGIC} file: {path}"))
    if next(lines, "").strip() != _W1_MAGIC:
        raise PixmapError("unsupported-format", f"not a {_W1_MAGIC} file: {path}")
    fields = {}
    for key in ("reducer", "reducer_seed", "crop"):
        tag, _, value = next(lines, "").strip().partition(" ")
        if tag != key:
            raise PixmapError("malformed-header", f"expected {key!r} line, got {tag!r}")
        fields[key] = value
    try:
        reducer_seed, crop_size = int(fields["reducer_seed"]), int(fields["crop"])
    except ValueError as exc:
        raise PixmapError("malformed-header", f"non-integer header value: {exc}") from exc
    reducer = ReducerSpec.parse(fields["reducer"])
    tensors = {}
    for line in lines:
        parts = line.split()
        if not parts:
            continue
        if parts[0] != "tensor" or len(parts) < 2:
            raise PixmapError("malformed-header", f"expected tensor line, got {line!r}")
        name, dims = parts[1], " ".join(parts[2:])
        if name not in _SHAPES or name in tensors:
            raise PixmapError("malformed-header", f"unknown or repeated tensor {name!r}")
        shape = _SHAPES[name]
        if dims != " ".join(str(d) for d in shape):
            raise PixmapError("malformed-header", f"tensor {name} must be {shape}, got {dims!r}")
        width = int(np.prod(shape[1:]))
        rows = parse_rows(lines, shape[0], width, f"tensor {name}")
        with np.errstate(over="ignore"):  # an overflow to inf is _finite's bad-params
            tensors[name] = rows.astype(np.float32).reshape(shape)
    missing = set(_SHAPES) - set(tensors)
    if missing:
        raise PixmapError("truncated-payload", f"missing tensors: {sorted(missing)}")
    return _finite(tensors), reducer, reducer_seed, crop_size
