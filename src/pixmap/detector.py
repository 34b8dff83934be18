"""Minimal convolutional detector with hand-derived gradients.

The network is deliberately tiny so its backward pass stays checkable
against finite differences and a full training run takes seconds:

    conv 3x3 (3->8) -> ReLU -> 2x2 mean pool -> conv 3x3 (8->16) -> ReLU
    -> global mean pool -> linear (16->1) -> sigmoid

Convolutions are valid (no padding, stride 1). The mean pool uses stride-2
windows that shrink to partial windows on odd edges, so any input of at
least 7x7 flows through. When conv1's output has even sides (30x30 at
the default 32-px crop) every window is full: the pool sums one reshaped
view, and its backward pass fuses with the ReLU mask into one broadcast.
Odd sides take a loop over the four window taps with partial windows.
The optimizer is Adam with decoupled weight decay (weights shrink by
lr * wd before the moment update). Each training step runs the forward
pass once and takes the gradients from its cache.
Everything is plain float64 numpy with a fixed reduction order, so
identical seeds give bit-identical weights.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .config import TrainConfig
from .errors import PixmapError
from .image import CropSpec, Image8, crop_origin, decode_ppm, format_rows, parse_rows, write_atomic
from .image import random_crop_origins
from .reducers import ReducerSpec, reduce_batch
from .rng import SplitMix64, derive_seed
from .synthgen import ManifestEntry

LOSS_EPS = 1e-7
ADAM_EPS = 1e-8

_SHAPES = {
    "conv1_w": (8, 3, 3, 3),
    "conv1_b": (8,),
    "conv2_w": (16, 8, 3, 3),
    "conv2_b": (16,),
    "linear_w": (1, 16),
    "linear_b": (1,),
}


@dataclass
class DetectorParams:
    conv1_w: np.ndarray
    conv1_b: np.ndarray
    conv2_w: np.ndarray
    conv2_b: np.ndarray
    linear_w: np.ndarray
    linear_b: np.ndarray

    def as_dict(self) -> dict[str, np.ndarray]:
        return {name: getattr(self, name) for name in _SHAPES}

    def copy(self) -> "DetectorParams":
        return DetectorParams(**{k: v.copy() for k, v in self.as_dict().items()})

    def __post_init__(self):
        for name, shape in _SHAPES.items():
            arr = np.asarray(getattr(self, name), dtype=np.float64)
            if arr.shape != shape:
                raise PixmapError("bad-params", f"{name} must have shape {shape}, got {arr.shape}")
            if not np.all(np.isfinite(arr)):
                raise PixmapError("bad-params", f"{name} contains non-finite values")
            setattr(self, name, arr)


def init_params(seed: int) -> DetectorParams:
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
    return DetectorParams(**out)


@dataclass(frozen=True)
class GeneratorStats:
    n: int
    accuracy: float
    average_precision: float | None


@dataclass(frozen=True)
class EvalReport:
    accuracy: float
    average_precision: float
    n: int
    per_generator: dict[str, GeneratorStats] = field(default_factory=dict)


# --- layers -------------------------------------------------------------------


def _conv_forward(x, w, b):
    """Valid 3x3 convolution via channel-major im2col.

    ``cols`` is (n, cin*9, P) with rows ordered (cin, u, v) like the flattened
    kernel, so ``W @ cols`` lands directly in NCHW and the backward matmuls
    need no transposing copy.
    """
    n, cin, h, wd = x.shape
    cout = w.shape[0]
    windows = np.lib.stride_tricks.sliding_window_view(x, (3, 3), axis=(2, 3))
    cols = np.ascontiguousarray(windows.transpose(0, 1, 4, 5, 2, 3)).reshape(
        n, cin * 9, (h - 2) * (wd - 2)
    )
    out = w.reshape(cout, -1) @ cols
    out += b[:, None]
    return out.reshape(n, cout, h - 2, wd - 2), cols


def _conv_backward(grad_out, cols, x_shape, w, input_grad=True):
    """Gradients of _conv_forward; grad_x is None when input_grad is False."""
    n, cin, h, wd = x_shape
    cout, oh, ow = grad_out.shape[1], h - 2, wd - 2
    g = grad_out.reshape(n, cout, oh * ow)
    grad_w = (g @ cols.transpose(0, 2, 1)).sum(axis=0).reshape(cout, cin, 3, 3)
    grad_b = g.sum(axis=(0, 2))
    if not input_grad:
        return None, grad_w, grad_b
    gpatch = (w.reshape(cout, -1).T @ g).reshape(n, cin, 3, 3, oh, ow)
    grad_x = np.zeros(x_shape)
    for u in range(3):
        for v in range(3):
            grad_x[:, :, u : u + oh, v : v + ow] += gpatch[:, :, u, v]
    return grad_x, grad_w, grad_b


def _meanpool_forward(x):
    """2x2 mean pool; returns (pooled, counts), counts None when every window is full.

    Both paths start from zeros and add the (0,0), (0,1), (1,0), (1,1)
    taps in that order, so they agree bit for bit.
    """
    n, c, h, w = x.shape
    if h % 2 == 0 and w % 2 == 0:
        windows = x.reshape(n, c, h // 2, 2, w // 2, 2)
        sums = np.zeros((n, c, h // 2, w // 2))
        for dy in (0, 1):
            for dx in (0, 1):
                sums += windows[:, :, :, dy, :, dx]
        return sums / 4.0, None
    sums = np.zeros((n, c, (h + 1) // 2, (w + 1) // 2))
    counts = np.zeros(sums.shape[2:])
    for dy in (0, 1):
        for dx in (0, 1):
            sub = x[:, :, dy::2, dx::2]
            sums[:, :, : sub.shape[2], : sub.shape[3]] += sub
            counts[: sub.shape[2], : sub.shape[3]] += 1
    return sums / counts, counts


def _keep(mask, x):
    """``np.where(mask, x, 0.0)`` bit for bit, for float64 ``x`` broadcast to ``mask``.

    x's bit pattern is ANDed with all-ones or all-zero words, so signed zeros
    and NaNs pass unchanged and every dropped entry is +0.0. With no branch per
    element it took 0.33 ms against 1.55 ms for ``np.where`` on a random
    32x8x30x30 mask (2-core x86 box, numpy 2.4).
    """
    out = -mask.astype(np.uint64)
    out &= x.view(np.uint64)
    return out.view(np.float64)


def _pool_relu_backward(grad_out, counts, a1):
    """Gradient at conv1's pre-ReLU output ``a1`` from the pooled gradient."""
    if counts is None:
        grad = np.empty(a1.shape)
        spread = grad_out / 4.0
        for dy in (0, 1):
            for dx in (0, 1):
                grad[:, :, dy::2, dx::2] = spread
    else:
        grad = np.zeros(a1.shape)
        spread = grad_out / counts
        for dy in (0, 1):
            for dx in (0, 1):
                sub = grad[:, :, dy::2, dx::2]
                sub += spread[:, :, : sub.shape[2], : sub.shape[3]]
    return _keep(a1 > 0, grad)


def _sigmoid(z):
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def _check_batch(batch):
    x = np.asarray(batch, dtype=np.float64)
    if x.ndim != 4 or x.shape[1] != 3:
        raise PixmapError("bad-batch", f"batch must be NxCxHxW with C=3, got {x.shape}")
    if x.shape[2] < 7 or x.shape[3] < 7:
        raise PixmapError("bad-batch", f"spatial dims must be >= 7, got {x.shape[2:]}" )
    return x


# Samples per chunk that forward() runs through the conv layers. At the
# default 32-px crop a chunk's conv1 im2col matrix is 1.5 MB instead of 12 MB
# for an eval batch of 64, so it stays in cache: a forward pass over 64
# samples took 7.2-9.1 ms against 9.0-10.7 ms unchunked (medians of 40
# interleaved runs, three sessions, 2-core x86 box, numpy 2.4, BLAS at one
# thread, the CLI's malloc settings).
_FORWARD_CHUNK = 8


def _features(params: DetectorParams, x):
    """conv1 -> ReLU -> pool -> conv2 -> ReLU -> global mean; returns (g, cache)."""
    a1, cols1 = _conv_forward(x, params.conv1_w, params.conv1_b)
    r1 = np.maximum(a1, 0.0)
    p1, counts = _meanpool_forward(r1)
    a2, cols2 = _conv_forward(p1, params.conv2_w, params.conv2_b)
    r2 = np.maximum(a2, 0.0)
    g = r2.mean(axis=(2, 3))
    return g, (x, a1, r1, p1, counts, a2, r2, g, cols1, cols2)


def _head(params: DetectorParams, g):
    return _sigmoid((g @ params.linear_w.T + params.linear_b)[:, 0])


def _forward_full(params: DetectorParams, batch):
    g, cache = _features(params, _check_batch(batch))
    return _head(params, g), cache


def forward(params: DetectorParams, batch) -> np.ndarray:
    """Per-sample fake probabilities in (0, 1) for an NxCxHxW batch.

    The conv layers run over chunks of ``_FORWARD_CHUNK`` samples; each
    sample's features are computed on their own, so chunking changes no
    bit. The linear head runs once over the whole batch: BLAS may round a
    row differently in a block of another size, so chunking it would not
    match :func:`_forward_full`.
    """
    x = _check_batch(batch)
    g = np.empty((len(x), params.linear_w.shape[1]))
    for start in range(0, len(x), _FORWARD_CHUNK):
        g[start : start + _FORWARD_CHUNK] = _features(params, x[start : start + _FORWARD_CHUNK])[0]
    return _head(params, g)


def loss(probs, labels) -> float:
    """Mean binary cross-entropy with probabilities clamped to [eps, 1-eps]."""
    p = np.clip(np.asarray(probs, dtype=np.float64), LOSS_EPS, 1.0 - LOSS_EPS)
    y = np.asarray(labels, dtype=np.float64)
    return float(-np.mean(y * np.log(p) + (1.0 - y) * np.log(1.0 - p)))


def _forward_backward(params: DetectorParams, batch, labels):
    """One forward pass plus the exact gradient; returns (probs, grads).

    Where the probability clamp is active the computed loss is locally
    constant in the logit, so those samples contribute zero gradient,
    matching finite differences of the actual loss. conv1's input gradient
    is never needed, so it is not computed.
    """
    probs, cache = _forward_full(params, batch)
    x, a1, r1, p1, counts, a2, r2, g, cols1, cols2 = cache
    y = np.asarray(labels, dtype=np.float64)
    n = len(probs)
    clamped = (probs < LOSS_EPS) | (probs > 1.0 - LOSS_EPS)
    dz = np.where(clamped, 0.0, probs - y) / n

    grad_linear_w = (dz[:, None] * g).sum(axis=0, keepdims=True)
    grad_linear_b = np.array([dz.sum()])
    dg = dz[:, None] * params.linear_w[0][None, :]

    da2 = _keep(a2 > 0, (dg / (r2.shape[2] * r2.shape[3]))[:, :, None, None])
    dp1, grad_conv2_w, grad_conv2_b = _conv_backward(da2, cols2, p1.shape, params.conv2_w)
    da1 = _pool_relu_backward(dp1, counts, a1)
    _, grad_conv1_w, grad_conv1_b = _conv_backward(
        da1, cols1, x.shape, params.conv1_w, input_grad=False
    )

    return probs, {
        "conv1_w": grad_conv1_w,
        "conv1_b": grad_conv1_b,
        "conv2_w": grad_conv2_w,
        "conv2_b": grad_conv2_b,
        "linear_w": grad_linear_w,
        "linear_b": grad_linear_b,
    }


def backward(params: DetectorParams, batch, labels) -> dict[str, np.ndarray]:
    """Exact gradient of loss(forward(batch)) for every parameter tensor."""
    return _forward_backward(params, batch, labels)[1]


# --- optimizer ------------------------------------------------------------------


@dataclass
class AdamState:
    m: dict[str, np.ndarray]
    v: dict[str, np.ndarray]
    t: int = 0

    @staticmethod
    def zeros() -> "AdamState":
        return AdamState(
            m={k: np.zeros(s) for k, s in _SHAPES.items()},
            v={k: np.zeros(s) for k, s in _SHAPES.items()},
        )


def adam_step(
    params: DetectorParams,
    grads: dict[str, np.ndarray],
    state: AdamState,
    config: TrainConfig,
) -> tuple[DetectorParams, AdamState]:
    """One Adam update with bias correction and decoupled weight decay."""
    state.t += 1
    t = state.t
    new = {}
    for name, theta in params.as_dict().items():
        g = grads[name]
        theta = theta * (1.0 - config.lr * config.weight_decay)
        m = state.m[name] = config.beta1 * state.m[name] + (1.0 - config.beta1) * g
        v = state.v[name] = config.beta2 * state.v[name] + (1.0 - config.beta2) * g * g
        m_hat = m / (1.0 - config.beta1**t)
        v_hat = v / (1.0 - config.beta2**t)
        new[name] = theta - config.lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
    return DetectorParams(**new), state


# --- training / evaluation --------------------------------------------------------


def load_images(entries, root) -> list[Image8]:
    """Decode every entry's PPM under ``root``, in manifest order.

    The commands decode each split once with this and hand the images to
    :func:`train` and :func:`evaluate`.
    """
    root = Path(root)
    images = []
    for e in entries:
        path = root / e.path
        if not path.is_file():
            raise PixmapError("missing-file", f"image not found: {path}")
        images.append(decode_ppm(path.read_bytes()))
    return images


def _sample_batch(images, entries, indices, reducer, reducer_root, crop_size, seed=None, epoch=None):
    """Crop, reduce and stack the indexed samples into an N x 3 x H x W batch.

    Training (``epoch`` given) takes a random crop seeded by
    ``derive_seed(seed, "crop", epoch, path)``, with every offset of the
    batch drawn at once by :func:`random_crop_origins`, and tags the reducer
    with ``(path, epoch)``; evaluation takes a centre crop and the tag
    ``(path,)``. The images may differ in size. Each crop is sliced straight
    into one uint8 array, which is transposed once to NCHW and reduced as a
    whole by :func:`reduce_batch`; the result equals stacking
    ``apply_reducer(crop(...))`` per sample, bit for bit.
    """
    paths = [entries[i].path for i in indices]
    datas = [images[i].data for i in indices]
    if epoch is None:
        center = CropSpec(crop_size, "center")
        origins = [crop_origin(d.shape[0], d.shape[1], center) for d in datas]
        tags = [(path,) for path in paths]
    else:
        seeds = [derive_seed(seed, "crop", epoch, path) for path in paths]
        origins = random_crop_origins([d.shape[:2] for d in datas], crop_size, seeds)
        tags = [(path, epoch) for path in paths]
    crops = np.empty((len(indices), crop_size, crop_size, 3), dtype=np.uint8)
    for k, (data, (top, left)) in enumerate(zip(datas, origins)):
        crops[k] = data[top : top + crop_size, left : left + crop_size]
    batch = np.ascontiguousarray(crops.transpose(0, 3, 1, 2))
    return reduce_batch(reducer, batch, reducer_root, tags)


def train(
    entries: list[ManifestEntry], images: list[Image8], config: TrainConfig
) -> tuple[DetectorParams, list[float]]:
    """Train on decoded manifest images; returns final weights and per-epoch mean loss.

    Each epoch reshuffles the sample order, redraws every random crop, and
    redraws any stochastic reducer state, all from seeds derived off
    ``config.seed``, the sample path, and the epoch index. Two runs with
    the same inputs produce bit-identical weights.
    """
    if not entries:
        raise PixmapError("empty-manifest", "training manifest has no entries")
    labels_present = {e.label for e in entries}
    if labels_present != {0, 1}:
        raise PixmapError("single-class", f"training needs both labels, got {labels_present}")
    config.reducer.validate_for_crop(config.crop)

    params = init_params(derive_seed(config.seed, "init"))
    reducer_root = derive_seed(config.seed, "reducer")
    state = AdamState.zeros()
    trace = []
    n = len(entries)
    for epoch in range(config.epochs):
        order = list(range(n))
        SplitMix64(derive_seed(config.seed, "order", epoch)).shuffle(order)
        epoch_loss = 0.0
        for start in range(0, n, config.batch_size):
            chunk = order[start : start + config.batch_size]
            batch = _sample_batch(
                images, entries, chunk, config.reducer, reducer_root, config.crop, config.seed, epoch
            )
            y = np.array([entries[i].label for i in chunk], dtype=np.float64)
            probs, grads = _forward_backward(params, batch, y)
            epoch_loss += loss(probs, y) * len(chunk)
            params, state = adam_step(params, grads, state, config)
        trace.append(epoch_loss / n)
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
    order = np.argsort(-s, kind="stable")
    s = s[order]
    y = y[order]
    ap = 0.0
    tp = 0
    seen = 0
    i = 0
    n = len(s)
    while i < n:
        j = i
        group_tp = 0
        while j < n and s[j] == s[i]:
            group_tp += int(y[j] == 1)
            j += 1
        prev_tp = tp
        tp += group_tp
        seen = j
        if group_tp:
            ap += ((tp - prev_tp) / npos) * (tp / seen)
        i = j
    return float(ap)


def evaluate(
    params: DetectorParams,
    entries: list[ManifestEntry],
    images: list[Image8],
    reducer: ReducerSpec,
    reducer_seed: int,
    crop_size: int,
    batch_size: int = 64,
) -> EvalReport:
    """Center-crop, reduce, and score decoded manifest images; accuracy at 0.5 plus AP.

    Stochastic reducers derive per-image state from the image path alone,
    so the report is invariant to manifest order.
    """
    if not entries:
        raise PixmapError("empty-manifest", "evaluation manifest has no entries")
    reducer.validate_for_crop(crop_size)
    scores = np.empty(len(entries))
    for start in range(0, len(entries), batch_size):
        chunk = range(start, min(start + batch_size, len(entries)))
        batch = _sample_batch(images, entries, chunk, reducer, reducer_seed, crop_size)
        scores[start : start + len(chunk)] = forward(params, batch)
    labels = np.array([e.label for e in entries])

    per_generator: dict[str, GeneratorStats] = {}
    real_mask = labels == 0
    for tag in sorted({e.generator for e in entries}):
        mask = np.array([e.generator == tag for e in entries])
        if tag == "real":
            per_generator[tag] = GeneratorStats(
                n=int(mask.sum()),
                accuracy=accuracy_at_half(scores[mask], labels[mask]),
                average_precision=None,
            )
        else:
            pool = mask | real_mask  # this generator's fakes against all reals
            ap = average_precision(scores[pool], labels[pool]) if real_mask.any() else None
            per_generator[tag] = GeneratorStats(
                n=int(mask.sum()),
                accuracy=accuracy_at_half(scores[pool], labels[pool]),
                average_precision=ap,
            )

    overall_ap = average_precision(scores, labels) if (labels == 1).any() else float("nan")
    return EvalReport(
        accuracy=accuracy_at_half(scores, labels),
        average_precision=overall_ap,
        n=len(entries),
        per_generator=per_generator,
    )


# --- weights file ---------------------------------------------------------------

_W1_MAGIC = "PIXMAP-W1"


def save_params(path, params: DetectorParams, reducer: ReducerSpec, reducer_seed: int, crop_size: int) -> None:
    """Write weights as text, atomically: magic, preprocessing identity, tensors.

    Values use shortest round-trip decimals, so load_params recovers the
    exact float64 bits.
    """
    lines = [
        _W1_MAGIC,
        f"reducer {reducer.canonical()}",
        f"reducer_seed {reducer_seed}",
        f"crop {crop_size}",
    ]
    for name, arr in params.as_dict().items():
        dims = " ".join(str(d) for d in arr.shape)
        lines.append(f"tensor {name} {dims}")
        lines += format_rows(arr.reshape(arr.shape[0], -1))
    write_atomic(path, ("\n".join(lines) + "\n").encode("ascii"))


def load_params(path) -> tuple[DetectorParams, ReducerSpec, int, int]:
    """Inverse of save_params; returns (params, reducer, reducer_seed, crop).

    A bad file raises PixmapError with code ``unsupported-format`` (not an
    ASCII weights file), ``malformed-header`` (a bad header or tensor line,
    or an unknown, repeated or misshapen tensor), ``malformed-payload`` (a
    value that is not a number, or a row of the wrong length),
    ``truncated-payload`` (the file ends inside a tensor or lacks one) or
    ``bad-params`` (a non-finite value).
    """
    try:
        lines = iter(Path(path).read_text(encoding="ascii").splitlines())
    except UnicodeDecodeError as exc:
        raise PixmapError("unsupported-format", f"not a {_W1_MAGIC} file: {path}") from exc
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
        tensors[name] = parse_rows(lines, shape[0], width, f"tensor {name}").reshape(shape)
    missing = set(_SHAPES) - set(tensors)
    if missing:
        raise PixmapError("truncated-payload", f"missing tensors: {sorted(missing)}")
    return DetectorParams(**tensors), reducer, reducer_seed, crop_size
