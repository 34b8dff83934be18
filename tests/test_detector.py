"""Detector math: forward oracle, gradients, Adam, metrics, training."""

import math
import tracemalloc

import numpy as np
import pytest

from pixmap import detector
from pixmap.detector import (
    AdamState,
    TrainConfig,
    _SHAPES,
    _conv_forward,
    _conv_input_grad,
    _conv_param_grads,
    _forward_backward,
    _meanpool_forward,
    accuracy_at_half,
    adam_step,
    average_precision,
    backward,
    evaluate,
    forward,
    init_params,
    load_images,
    load_params,
    loss,
    save_params,
    train,
)
from pixmap.config import DEFAULT_NOISE_SIGMA
from pixmap.errors import PixmapError
from pixmap.reducers import ReducerSpec
from pixmap.rng import SplitMix64, derive_seed
from pixmap.synthgen import build_benchmark, materialize, write_manifest_csv


def scalar_forward_oracle(params, x):
    """Straight-line scalar re-implementation of the forward pass."""

    def conv(inp, w, b):
        cin, h, wd = inp.shape
        cout = w.shape[0]
        out = np.zeros((cout, h - 2, wd - 2))
        for co in range(cout):
            for i in range(h - 2):
                for j in range(wd - 2):
                    s = b[co]
                    for ci in range(cin):
                        for u in range(3):
                            for v in range(3):
                                s += w[co, ci, u, v] * inp[ci, i + u, j + v]
                    out[co, i, j] = s
        return out

    def pool(inp):
        c, h, w = inp.shape
        oh, ow = (h + 1) // 2, (w + 1) // 2
        out = np.zeros((c, oh, ow))
        for ci in range(c):
            for i in range(oh):
                for j in range(ow):
                    cells = [
                        inp[ci, y, z]
                        for y in (2 * i, 2 * i + 1)
                        for z in (2 * j, 2 * j + 1)
                        if y < h and z < w
                    ]
                    out[ci, i, j] = sum(cells) / len(cells)
        return out

    a1 = conv(x, params["conv1_w"], params["conv1_b"])
    r1 = np.maximum(a1, 0)
    p1 = pool(r1)
    a2 = conv(p1, params["conv2_w"], params["conv2_b"])
    r2 = np.maximum(a2, 0)
    g = r2.mean(axis=(1, 2))
    z = float(params["linear_w"][0] @ g + params["linear_b"][0])
    return 1.0 / (1.0 + math.exp(-z))


def brute_force_ap(scores, labels):
    """Independent O(N^2) oracle: mean precision at each positive's score."""
    pairs = list(zip(scores, labels))
    positives = [s for s, y in pairs if y == 1]
    total = 0.0
    for s_i in positives:
        retrieved = [(s, y) for s, y in pairs if s >= s_i]
        tp = sum(1 for _, y in retrieved if y == 1)
        total += tp / len(retrieved)
    return total / len(positives)


def loop_ap(scores, labels):
    """The tie-group sweep as a scalar loop, one group at a time, summing left to right."""
    s = np.asarray(scores, dtype=np.float64)
    y = np.asarray(labels)
    npos = int(np.sum(y == 1))
    order = np.argsort(-s, kind="stable")
    s, y = s[order], y[order]
    ap, tp, i, n = 0.0, 0, 0, len(s)
    while i < n:
        j, group_tp = i, 0
        while j < n and s[j] == s[i]:
            group_tp += int(y[j] == 1)
            j += 1
        prev_tp, tp = tp, tp + group_tp
        if group_tp:
            ap += ((tp - prev_tp) / npos) * (tp / j)
        i = j
    return float(ap)


def _rand_batch(seed, n=2, h=9, w=9):
    return SplitMix64(seed).uniforms(n * 3 * h * w, -1.0, 1.0).reshape(n, 3, h, w)


def _float32(params):
    """``params`` cast to float32, the dtype train() and load_params() give."""
    return {name: value.astype(np.float32) for name, value in params.items()}


# --- forward -----------------------------------------------------------------


def test_forward_zero_params_gives_half():
    params = init_params(1)
    for name in _SHAPES:
        params[name][:] = 0.0
    probs = forward(params, _rand_batch(0))
    assert np.all(probs == 0.5)


def test_forward_constant_input_translation_invariant():
    params = init_params(2)
    const = np.full((1, 3, 12, 12), 0.3)
    a = forward(params, const)
    b = forward(params, np.full((1, 3, 12, 12), 0.3))
    assert a == pytest.approx(b)


def test_forward_matches_scalar_oracle():
    params = init_params(3)
    x = _rand_batch(7, n=1, h=8, w=8)
    got = forward(params, x)[0]
    want = scalar_forward_oracle(params, x[0])
    assert got == pytest.approx(want, rel=1e-12)


def test_forward_handles_minimum_size_and_rejects_smaller():
    params = init_params(4)
    probs = forward(params, _rand_batch(1, n=2, h=7, w=7))
    assert probs.shape == (2,) and np.all((probs > 0) & (probs < 1))
    with pytest.raises(PixmapError) as err:
        forward(params, _rand_batch(1, n=1, h=6, w=8))
    assert err.value.code == "bad-batch"
    with pytest.raises(PixmapError) as err:
        forward(params, np.zeros((1, 4, 8, 8)))
    assert err.value.code == "bad-batch"


@pytest.mark.parametrize("n", [1, 2, 3, 5, 7, 8, 9, 13, 64, 70])
@pytest.mark.parametrize("size", [32, 15])
def test_chunked_forward_equals_full_forward_bit_for_bit(monkeypatch, n, size):
    x = _rand_batch(n + size, n=n, h=size, w=size)
    real_head = detector._head
    for dtype in (np.float64, np.float32):  # the weights' dtype sets the pass's
        params = {name: value.astype(dtype) for name, value in init_params(5).items()}
        head_rows = []

        def counting_head(params, g):
            head_rows.append(len(g))
            return real_head(params, g)

        monkeypatch.setattr(detector, "_head", counting_head)
        got = forward(params, x)  # first, so no freed buffer of the full pass can fill its features
        monkeypatch.undo()
        assert got.dtype == dtype
        assert got.tobytes() == detector._forward_full(params, x)[0].tobytes()
        # BLAS rounds the head's rows by block position, so it must see the whole batch at once.
        assert head_rows == [n]


# --- loss -----------------------------------------------------------------------


def test_loss_values():
    assert loss([0.5, 0.5], [1, 0]) == pytest.approx(math.log(2.0), rel=1e-12)
    assert loss([1.0, 0.0], [1, 0]) <= 1e-6  # clamp keeps it finite, near zero
    assert loss([0.9, 0.2], [1, 0]) == pytest.approx(0.16425203348471906, rel=1e-9)


def test_loss_example_hand_value():
    want = -(math.log(0.9) + math.log(1 - 0.2)) / 2
    assert loss([0.9, 0.2], [1, 0]) == pytest.approx(want, rel=1e-12)


# --- backward -------------------------------------------------------------------


def finite_difference_check(seed, h=8, w=8, n=2, step=1e-5):
    params = init_params(derive_seed(seed, "params"))
    x = _rand_batch(derive_seed(seed, "batch"), n=n, h=h, w=w)
    y = np.array([i % 2 for i in range(n)], dtype=float)
    grads = backward(params, x, y)
    worst_rel, worst_abs = 0.0, 0.0
    for name in _SHAPES:
        arr = params[name]
        flat = arr.reshape(-1)
        for idx in range(flat.size):
            orig = flat[idx]
            flat[idx] = orig + step
            lp = loss(forward(params, x), y)
            flat[idx] = orig - step
            lm = loss(forward(params, x), y)
            flat[idx] = orig
            fd = (lp - lm) / (2 * step)
            an = grads[name].reshape(-1)[idx]
            diff = abs(fd - an)
            if diff > 1e-7:
                worst_rel = max(worst_rel, diff / max(abs(fd), abs(an)))
            worst_abs = max(worst_abs, diff)
    return worst_rel, worst_abs


def test_gradient_matches_finite_differences():
    for seed in range(3):
        worst_rel, _ = finite_difference_check(seed)
        assert worst_rel < 1e-4


@pytest.mark.parametrize("h,w", [(9, 9), (9, 8)])
def test_gradient_matches_finite_differences_partial_pool_windows(h, w):
    # conv1 output is 7x7 or 7x6: the pool takes its partial-window loop
    worst_rel, _ = finite_difference_check(3, h=h, w=w)
    assert worst_rel < 1e-4


def test_zero_input_kills_kernel_gradients_not_bias():
    params = init_params(5)
    params["conv1_b"][:] = 0.1
    params["conv2_b"][:] = 0.1
    x = np.zeros((2, 3, 8, 8))
    grads = backward(params, x, np.array([1.0, 0.0]))
    assert np.all(grads["conv1_w"] == 0)
    assert np.any(grads["conv1_b"] != 0)


def test_duplicated_batch_same_gradient():
    params = init_params(6)
    x = _rand_batch(9, n=1)
    y1 = np.array([1.0])
    g1 = backward(params, x, y1)
    g2 = backward(params, np.concatenate([x, x]), np.array([1.0, 1.0]))
    for name in _SHAPES:
        assert np.allclose(g1[name], g2[name], atol=1e-15)


def loop_conv_forward(x, w, b):
    """Valid 3x3 convolution with one explicit loop per output element."""
    n, _, h, wd = x.shape
    out = np.zeros((n, w.shape[0], h - 2, wd - 2))
    for k in range(n):
        for co in range(w.shape[0]):
            for i in range(h - 2):
                for j in range(wd - 2):
                    out[k, co, i, j] = b[co] + np.sum(w[co] * x[k, :, i : i + 3, j : j + 3])
    return out


def loop_conv_backward(grad_out, x, w):
    """Gradients of loop_conv_forward by scattering each output's gradient."""
    grad_x = np.zeros_like(x)
    grad_w = np.zeros_like(w)
    grad_b = np.zeros(w.shape[0])
    n, cout, oh, ow = grad_out.shape
    for k in range(n):
        for co in range(cout):
            for i in range(oh):
                for j in range(ow):
                    g = grad_out[k, co, i, j]
                    grad_w[co] += g * x[k, :, i : i + 3, j : j + 3]
                    grad_x[k, :, i : i + 3, j : j + 3] += g * w[co]
                    grad_b[co] += g
    return grad_x, grad_w, grad_b


@pytest.mark.parametrize("cin,h,w", [(3, 7, 9), (8, 9, 8), (3, 9, 8), (8, 7, 9)])
def test_conv_layer_matches_loop_oracle(cin, h, w):
    rng = SplitMix64(derive_seed(17, cin, h, w))
    cout = 5
    x = rng.uniforms(2 * cin * h * w, -1.0, 1.0).reshape(2, cin, h, w)
    wt = rng.uniforms(cout * cin * 9, -1.0, 1.0).reshape(cout, cin, 3, 3)
    b = rng.uniforms(cout, -1.0, 1.0)
    grad_out = rng.uniforms(2 * cout * (h - 2) * (w - 2), -1.0, 1.0).reshape(2, cout, h - 2, w - 2)

    out, cols = _conv_forward(x, wt, b)
    np.testing.assert_allclose(out, loop_conv_forward(x, wt, b), rtol=1e-12, atol=1e-12)

    want_x, want_w, want_b = loop_conv_backward(grad_out, x, wt)
    grad_x = _conv_input_grad(grad_out, x.shape, wt)
    grad_w, grad_b = _conv_param_grads(grad_out, cols)
    for got, want in ((grad_x, want_x), (grad_w, want_w), (grad_b, want_b)):
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)


def test_fused_step_matches_public_backward():
    params = init_params(12)
    x = _rand_batch(13, n=3, h=11, w=10)
    y = np.array([1.0, 0.0, 1.0])
    probs, grads = _forward_backward(params, x, y)
    assert np.array_equal(probs, forward(params, x))
    public = backward(params, x, y)
    for name in _SHAPES:
        assert np.array_equal(grads[name], public[name])


def reference_forward_backward(params, batch, labels):
    """The training step with every forward intermediate kept until the
    gradients are done, built from the module's own layers."""
    x = detector._check_batch(params, batch)
    a1, cols1 = _conv_forward(x, params["conv1_w"], params["conv1_b"])
    r1 = np.maximum(a1, 0.0)
    p1, counts = _meanpool_forward(r1)
    a2, cols2 = _conv_forward(p1, params["conv2_w"], params["conv2_b"])
    r2 = np.maximum(a2, 0.0)
    g = r2.mean(axis=(2, 3))
    probs = detector._head(params, g)
    y = np.asarray(labels, dtype=np.float64)
    clamped = (probs < detector.LOSS_EPS) | (probs > 1.0 - detector.LOSS_EPS)
    dz = np.where(clamped, 0.0, probs - y) / len(probs)
    grad_linear_w = (dz[:, None] * g).sum(axis=0, keepdims=True)
    grad_linear_b = np.array([dz.sum()])
    dg = dz[:, None] * params["linear_w"][0][None, :]
    da2 = detector._keep(a2 > 0, (dg / (r2.shape[2] * r2.shape[3]))[:, :, None, None])
    dp1 = _conv_input_grad(da2, p1.shape, params["conv2_w"])
    grad_conv2_w, grad_conv2_b = _conv_param_grads(da2, cols2)
    da1 = detector._pool_relu_backward(dp1, counts, a1 > 0)
    grad_conv1_w, grad_conv1_b = _conv_param_grads(da1, cols1)
    return probs, {
        "conv1_w": grad_conv1_w,
        "conv1_b": grad_conv1_b,
        "conv2_w": grad_conv2_w,
        "conv2_b": grad_conv2_b,
        "linear_w": grad_linear_w,
        "linear_b": grad_linear_b,
    }


@pytest.mark.parametrize("crop", [8, 9, 31, 32])  # odd crops take the partial-window pool
@pytest.mark.parametrize("n", [1, 7, 32])
def test_step_equals_full_cache_reference_bit_for_bit(n, crop):
    params = init_params(derive_seed(41, n, crop))
    x = _rand_batch(derive_seed(42, n, crop), n=n, h=crop, w=crop)
    y = (np.arange(n) % 2).astype(np.float64)
    probs, grads = _forward_backward(params, x, y)
    want_probs, want_grads = reference_forward_backward(params, x, y)
    assert probs.tobytes() == want_probs.tobytes()
    assert set(grads) == set(_SHAPES)
    for name in _SHAPES:
        assert grads[name].shape == _SHAPES[name]
        assert grads[name].tobytes() == want_grads[name].tobytes(), name


@pytest.mark.parametrize("crop", [8, 9, 32])
def test_float32_step_matches_float64_step(crop):
    # float32 rounds each product to about 6e-8 relative; summed over the
    # few thousand terms of a gradient entry that stays below 1e-4 of the
    # tensor's largest entry.
    params = init_params(derive_seed(43, crop))
    x = _rand_batch(derive_seed(44, crop), n=8, h=crop, w=crop)
    y = (np.arange(8) % 2).astype(np.float64)
    probs, grads = _forward_backward(_float32(params), x, y)
    want_probs, want_grads = _forward_backward(params, x, y)
    assert probs.dtype == np.float32
    np.testing.assert_allclose(probs, want_probs, rtol=1e-5)
    for name in _SHAPES:
        assert grads[name].dtype == np.float32, name
        scale = np.abs(want_grads[name]).max()
        np.testing.assert_allclose(grads[name], want_grads[name], rtol=0, atol=1e-4 * scale, err_msg=name)


def test_step_working_set_stays_small():
    # The traced numpy peak of one step at the default batch and crop. The
    # bound sits between the full-cache step's 19.5 MiB and this step's
    # 10.6 MiB, which caches only what the backward pass reads and frees
    # conv2's im2col matrix before its input gradient allocates one.
    params = init_params(3)
    x = _rand_batch(5, n=32, h=32, w=32)
    y = (np.arange(32) % 2).astype(np.float64)
    _forward_backward(params, x, y)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        _forward_backward(params, x, y)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - start <= 12 * 2**20


def loop_meanpool(x):
    """2x2 mean pool, one window at a time, summing from zero in (dy, dx) order."""
    n, c, h, w = x.shape
    out = np.zeros((n, c, (h + 1) // 2, (w + 1) // 2))
    for i in range(out.shape[2]):
        for j in range(out.shape[3]):
            acc, count = np.zeros((n, c)), 0
            for dy in (0, 1):
                for dx in (0, 1):
                    if 2 * i + dy < h and 2 * j + dx < w:
                        acc += x[:, :, 2 * i + dy, 2 * j + dx]
                        count += 1
            out[:, :, i, j] = acc / count
    return out


@pytest.mark.parametrize("h,w", [(6, 6), (8, 10), (7, 7), (7, 6), (6, 9)])
def test_meanpool_matches_window_loop(h, w):
    x = np.maximum(_rand_batch(derive_seed(31, h, w), n=2, h=h, w=w), 0.0)
    pooled, counts = _meanpool_forward(x)
    assert np.array_equal(pooled, loop_meanpool(x))
    taps = [np.minimum(2, side - 2 * np.arange((side + 1) // 2)) for side in (h, w)]
    assert np.array_equal(counts, np.outer(*taps))


def test_keep_equals_where_bit_for_bit():
    x64 = _rand_batch(16, n=2, h=5, w=7)
    x64.ravel()[::5] = -0.0
    x64.ravel()[1::7] = np.nan
    x64.ravel()[2::9] = -np.inf
    mask = _rand_batch(17, n=2, h=5, w=7) > 0
    for x in (x64, x64.astype(np.float32)):
        got = detector._keep(mask, x)
        assert got.dtype == x.dtype
        assert got.tobytes() == np.where(mask, x, 0.0).tobytes()
        column = x[:, :, :1, :1]  # broadcast to the mask, as the conv2 gradient is
        expected = np.where(mask, np.broadcast_to(column, mask.shape), 0.0)
        assert detector._keep(mask, column).tobytes() == expected.tobytes()


# --- adam -----------------------------------------------------------------------


def _config(**kw):
    base = dict(reducer=ReducerSpec.parse("none"), seed=1)
    base.update(kw)
    return TrainConfig(**base)


def test_adam_zero_grads_no_motion_without_decay():
    params = init_params(7)
    before = {k: v.copy() for k, v in params.items()}
    grads = {k: np.zeros(s) for k, s in _SHAPES.items()}
    updated = adam_step(params, grads, AdamState(), _config(weight_decay=0.0))
    for name in _SHAPES:
        assert np.array_equal(updated[name], before[name])


def test_adam_first_step_magnitude_is_lr():
    params = init_params(8)
    grads = {k: np.full(s, 0.37) for k, s in _SHAPES.items()}
    cfg = _config(weight_decay=0.0, lr=2e-4)
    updated = adam_step(params, grads, AdamState(), cfg)
    for name in _SHAPES:
        delta = updated[name] - params[name]
        assert np.allclose(np.abs(delta), cfg.lr, rtol=1e-6)
        assert np.all(np.sign(delta) == -1)  # descend against positive grads


def test_adam_step_keeps_float32():
    params = _float32(init_params(10))
    grads = _float32({k: np.full(s, 0.37) for k, s in _SHAPES.items()})
    state = AdamState()
    for _ in range(2):
        params = adam_step(params, grads, state, _config())
    for name in _SHAPES:
        assert params[name].dtype == state.m[name].dtype == state.v[name].dtype == np.float32


def test_adam_elementwise_independence_across_tensors():
    params = init_params(9)
    params["conv2_b"][:8] = params["conv1_b"]
    grads = {k: np.zeros(s) for k, s in _SHAPES.items()}
    grads["conv1_b"][:] = np.arange(8) * 0.1
    grads["conv2_b"][:8] = np.arange(8) * 0.1
    updated = adam_step(params, grads, AdamState(), _config())
    assert np.array_equal(updated["conv1_b"], updated["conv2_b"][:8])


def test_adam_decoupled_decay_shrinks_weights():
    params = init_params(10)
    grads = {k: np.zeros(s) for k, s in _SHAPES.items()}
    cfg = _config(weight_decay=0.5, lr=0.1)
    updated = adam_step(params, grads, AdamState(), cfg)
    assert np.allclose(updated["conv1_w"], params["conv1_w"] * (1 - 0.1 * 0.5))


# --- metrics --------------------------------------------------------------------


def test_accuracy_threshold_and_tie_convention():
    scores = np.array([0.9, 0.8, 0.1])
    labels = np.array([1, 1, 0])
    assert accuracy_at_half(scores, labels) == 1.0
    # every score exactly 0.5 predicts positive, so accuracy equals the
    # positive-class fraction
    scores = np.full(4, 0.5)
    labels = np.array([1, 0, 0, 0])
    assert accuracy_at_half(scores, labels) == 0.25


def test_ap_perfect_ranking():
    assert average_precision([0.9, 0.8, 0.1], [1, 1, 0]) == 1.0


def test_ap_frozen_example():
    got = average_precision([0.9, 0.6, 0.4], [0, 1, 1])
    assert got == pytest.approx(7 / 12, rel=1e-12)
    assert got == pytest.approx(brute_force_ap([0.9, 0.6, 0.4], [0, 1, 1]), rel=1e-12)


def test_ap_all_tied_scores():
    # one threshold group: precision = positive fraction at full recall
    assert average_precision([0.5, 0.5, 0.5, 0.5], [1, 0, 1, 0]) == pytest.approx(0.5)


def test_ap_rejects_nan_scores():
    with pytest.raises(PixmapError) as err:
        average_precision([0.9, float("nan"), 0.2], [1, 0, 1])
    assert err.value.code == "bad-scores"


def test_ap_requires_a_positive():
    with pytest.raises(PixmapError) as err:
        average_precision([0.4, 0.6], [0, 0])
    assert err.value.code == "degenerate-labels"


def test_ap_exhaustive_small_instances_match_oracle():
    grid = [round(0.1 * k, 1) for k in range(1, 10)]
    import itertools

    for n in (1, 2, 3):
        for scores in itertools.product(grid, repeat=n):
            for labels in itertools.product((0, 1), repeat=n):
                if sum(labels) == 0:
                    continue
                got = average_precision(list(scores), list(labels))
                want = brute_force_ap(list(scores), list(labels))
                assert got == pytest.approx(want, abs=1e-12)


def test_ap_random_grid_lists_match_oracle():
    import itertools

    rng = SplitMix64(123)
    grid = [round(0.1 * k, 1) for k in range(1, 10)]
    for n in range(4, 9):
        for _ in range(20):
            scores = [grid[rng.randrange(9)] for _ in range(n)]
            for labels in itertools.product((0, 1), repeat=n):
                if sum(labels) == 0:
                    continue
                got = average_precision(scores, labels)
                want = brute_force_ap(scores, labels)
                assert got == pytest.approx(want, abs=1e-12)


def test_ap_equals_tie_group_loop_bit_for_bit():
    # approx comparisons cannot see a change in summation order; float.hex can.
    rng = SplitMix64(321)
    for n in (1, 2, 3, 5, 17, 64, 128, 255, 300):
        for levels in (2, 7, 40, 1000):
            for _ in range(5):
                scores = [rng.randrange(levels) / levels for _ in range(n)]
                labels = [rng.randrange(2) for _ in range(n)]
                labels[rng.randrange(n)] = 1
                want = loop_ap(scores, labels)
                assert average_precision(scores, labels).hex() == want.hex(), (n, levels)


# --- train / evaluate --------------------------------------------------------------


@pytest.fixture(scope="module")
def tiny_benchmark(tmp_path_factory):
    root = tmp_path_factory.mktemp("tinybench")
    tr, te = build_benchmark("nearest", "bilinear", True, 8, seed=4)
    for split, entries in (("train", tr), ("test", te)):
        materialize(entries, root, 16, DEFAULT_NOISE_SIGMA)
        write_manifest_csv(root / f"{split}_manifest.csv", entries)
    return root, tr, te


def test_train_overfits_two_samples(tiny_benchmark):
    root, train_entries, _ = tiny_benchmark
    pair = [e for e in train_entries if e.label == 0][:1] + [
        e for e in train_entries if e.label == 1
    ][:1]
    cfg = _config(epochs=200, batch_size=2, crop=8, lr=0.02, weight_decay=0.0, seed=11)
    params, trace = train(pair, load_images(pair, root), cfg)
    assert trace[-1] < 0.01
    assert trace[-1] < trace[0]  # monotone improvement endpoint check


def test_train_deterministic_and_label_sensitive(tiny_benchmark):
    root, train_entries, _ = tiny_benchmark
    cfg = _config(epochs=2, batch_size=4, crop=8, seed=21)
    p1, t1 = train(train_entries, load_images(train_entries, root), cfg)
    p2, t2 = train(train_entries, load_images(train_entries, root), cfg)
    assert t1 == t2
    for name in _SHAPES:
        assert p1[name].tobytes() == p2[name].tobytes()

    flipped = [
        type(e)(e.path, 1 - e.label, "real" if e.label else "nearest", e.family, e.seed)
        for e in train_entries
    ]
    p3, _ = train(flipped, load_images(flipped, root), cfg)
    assert any(
        p1[name].tobytes() != p3[name].tobytes() for name in _SHAPES
    )


def test_train_runs_one_forward_pass_per_step(tiny_benchmark, monkeypatch):
    root, train_entries, _ = tiny_benchmark
    calls = []
    real_forward_full = detector._forward_full

    def counting_forward_full(params, batch):
        calls.append(len(batch))
        return real_forward_full(params, batch)

    monkeypatch.setattr(detector, "_forward_full", counting_forward_full)
    cfg = _config(epochs=3, batch_size=5, crop=8, seed=21)
    train(train_entries, load_images(train_entries, root), cfg)
    steps_per_epoch = -(-len(train_entries) // cfg.batch_size)
    assert len(calls) == cfg.epochs * steps_per_epoch
    assert sum(calls) == cfg.epochs * len(train_entries)


def test_train_returns_float32_weights(tiny_benchmark):
    root, train_entries, _ = tiny_benchmark
    params, _ = train(train_entries, load_images(train_entries, root), _config(epochs=1, crop=8))
    assert list(params) == list(_SHAPES)
    assert {params[name].dtype for name in _SHAPES} == {np.dtype(np.float32)}


def test_train_rejects_single_class(tiny_benchmark):
    root, train_entries, _ = tiny_benchmark
    reals = [e for e in train_entries if e.label == 0]
    with pytest.raises(PixmapError) as err:
        train(reals, load_images(reals, root), _config(crop=8))
    assert err.value.code == "single-class"


def test_train_rejects_bad_shuffle_patch(tiny_benchmark):
    root, train_entries, _ = tiny_benchmark
    with pytest.raises(PixmapError) as err:
        cfg = _config(reducer=ReducerSpec.parse("shuffle:3"), crop=8, epochs=1)
        train(train_entries, load_images(train_entries, root), cfg)
    assert err.value.code == "patch-mismatch"


def test_evaluate_order_invariant_fixed_mapping(tiny_benchmark):
    root, train_entries, test_entries = tiny_benchmark
    cfg = _config(reducer=ReducerSpec.parse("fixed"), epochs=1, batch_size=4, crop=8, seed=5)
    params, _ = train(train_entries, load_images(train_entries, root), cfg)
    rs = derive_seed(cfg.seed, "reducer")
    fwd = evaluate(params, test_entries, load_images(test_entries, root), cfg.reducer, rs, 8)
    reversed_entries = list(reversed(test_entries))
    rev = evaluate(
        params, reversed_entries, load_images(reversed_entries, root), cfg.reducer, rs, 8
    )
    assert rev.tobytes() == fwd[::-1].tobytes()


def test_evaluate_report_fields(tiny_benchmark):
    root, train_entries, test_entries = tiny_benchmark
    params = init_params(1)
    scores = evaluate(
        params, test_entries, load_images(test_entries, root), ReducerSpec.parse("none"), 0, 8
    )
    assert isinstance(scores, np.ndarray) and scores.dtype == np.float64
    assert scores.shape == (len(test_entries),)
    assert np.all((scores > 0.0) & (scores < 1.0))


# --- weights file ----------------------------------------------------------------


def test_weights_round_trip_exact(tmp_path):
    params = _float32(init_params(33))
    path = tmp_path / "model.w1"
    save_params(path, params, ReducerSpec.parse("shuffle:8"), reducer_seed=42, crop_size=32)
    loaded, reducer, reducer_seed, crop_size = load_params(path)
    for name in _SHAPES:
        assert loaded[name].tobytes() == params[name].tobytes()
    assert reducer.canonical() == "shuffle:8"
    assert reducer_seed == 42
    assert crop_size == 32
    save_params(tmp_path / "again.w1", loaded, reducer, reducer_seed, crop_size)
    assert (tmp_path / "again.w1").read_bytes() == path.read_bytes()


def test_weights_load_float64_values_rounded_to_float32(tmp_path):
    params = init_params(37)  # float64 weights: full-precision decimals in the file
    path = tmp_path / "model.w1"
    save_params(path, params, ReducerSpec.parse("none"), reducer_seed=1, crop_size=32)
    loaded = load_params(path)[0]
    for name in _SHAPES:
        assert loaded[name].dtype == np.float32
        assert loaded[name].tobytes() == params[name].astype(np.float32).tobytes()
    assert not np.array_equal(loaded["conv1_w"].astype(np.float64), params["conv1_w"])


def test_weights_reject_garbage(tmp_path):
    path = tmp_path / "bad.w1"
    path.write_text("NOT-A-MODEL\n")
    with pytest.raises(PixmapError):
        load_params(path)

    good = tmp_path / "good.w1"
    save_params(good, init_params(34), ReducerSpec.parse("none"), reducer_seed=1, crop_size=32)
    text = good.read_text()

    path.write_text(text + "tensor extra_w 1 1\n0.5\n")
    with pytest.raises(PixmapError) as err:
        load_params(path)
    assert err.value.code == "malformed-header"

    lines = text.splitlines()
    row = lines.index("tensor conv1_w 8 3 3 3") + 1
    lines[row] = lines[row].replace(lines[row].split()[3], "abc", 1)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(PixmapError) as err:
        load_params(path)
    assert err.value.code == "malformed-payload"

    for value in ("nan", "inf", "-inf"):
        lines[row] = " ".join([value] + text.splitlines()[row].split()[1:])
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(PixmapError) as err:
            load_params(path)
        assert (err.value.code, err.value.message) == ("bad-params", "conv1_w contains non-finite values")


def test_save_params_replaces_atomically(tmp_path):
    path = tmp_path / "model.w1"
    for seed in (35, 36):
        save_params(path, _float32(init_params(seed)), ReducerSpec.parse("npr"), reducer_seed=2, crop_size=16)
        assert load_params(path)[0]["conv1_w"].tobytes() == _float32(init_params(seed))["conv1_w"].tobytes()
    assert [p.name for p in tmp_path.iterdir()] == ["model.w1"]  # no temp file left
