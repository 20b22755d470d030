"""Tests for the dense-network engine: forward, backward, Adam, init, checkpoints."""

import json
import struct

import numpy as np
import pytest
from mpmath import mp

from swiptmod.nn import (ADAM_EPS, AdamState, CheckpointFormatError, DenseLayer,
                         NetworkParams, adam_step, init_params, load_checkpoint,
                         mlp_backward, mlp_forward, save_checkpoint, scratch,
                         softmax, xavier_uniform)
from swiptmod.channel import substream
from swiptmod.transceiver import decode
from test_golden import GOLDEN, stack


def _layer(w, b):
    return DenseLayer(weights=np.asarray(w, dtype=float),
                      biases=np.asarray(b, dtype=float))


def _grads(layers):
    """Gradient views [dW0, db0, dW1, ...] into one new vector."""
    arrays = [a for layer in layers for a in (layer.weights, layer.biases)]
    vec = np.empty(sum(a.size for a in arrays))
    offsets = np.cumsum([0] + [a.size for a in arrays])
    return [vec[o:o + a.size].reshape(a.shape) for o, a in zip(offsets, arrays)]


# ---------------------------------------------------------------------------
# forward pass of one dense layer: mlp_forward on a one-layer stack, with
# (features, batch) columns
# ---------------------------------------------------------------------------

def _dense_forward(layer, x):
    out, _ = mlp_forward([layer], x)
    return out


def test_dense_forward_identity():
    layer = _layer(np.eye(2), np.zeros(2))
    out = _dense_forward(layer, np.array([[1.0], [2.0]]))
    assert np.array_equal(out, [[1.0], [2.0]])


def test_dense_forward_relu_clamps_negative_bias():
    # every layer but the last is ReLU: post[1] is the hidden layer's output,
    # written over its pre-activation buffer
    layers = [_layer(np.zeros((2, 2)), [0.5, -1.0]), _layer(np.eye(2), np.zeros(2))]
    ws = {}
    out, post = mlp_forward(layers, np.zeros((2, 3)), ws)
    assert post[1] is ws[("", "z", 0)]
    assert np.array_equal(post[1], [[0.5] * 3, [0.0] * 3])
    assert np.array_equal(out, post[1])


def test_dense_forward_matches_manual_product():
    rng = substream(9, 0)
    w = rng.standard_normal((3, 2))
    b = rng.standard_normal(3)
    x = rng.standard_normal((2, 4))
    out = _dense_forward(_layer(w, b), x)
    manual = np.array([[w[i, 0] * x[0, j] + w[i, 1] * x[1, j] + b[i]
                        for j in range(4)] for i in range(3)])
    assert out.shape == (3, 4)
    assert np.allclose(out, manual, atol=1e-15)


def test_dense_forward_dimension_mismatch():
    layer = _layer(np.eye(2), np.zeros(2))
    with pytest.raises(ValueError):
        _dense_forward(layer, np.zeros((3, 1)))


# B = 2, 3, 4 and 100 are batch widths where OpenBLAS's SkylakeX kernel splits
# a 33-term dot product (an M=16 decoder's output layer with its bias folded
# in), so they also show that the later layers keep their separate add
FORWARD_BATCHES = (1, 2, 3, 4, 5, 8, 100, 400, 1600, 8192)


@pytest.mark.parametrize("batch", FORWARD_BATCHES)
@pytest.mark.parametrize("m", [4, 8, 16])
def test_forward_matches_matmul_plus_bias(m, batch):
    # each layer, given its input from the same pass, against W @ h + b[:, None]:
    # bit for bit on the stack golden.json was made on, within 1e-15 of the
    # sum of |terms| elsewhere
    on_golden_stack = json.loads(GOLDEN.read_text())["stack"] == stack()
    params = init_params([m, 2 * m, 2], [2, 2 * m, m], seed=100 * m + batch)
    rng = substream(m, batch)
    for layer in params.encoder + params.decoder:
        layer.biases[:] = rng.standard_normal(layer.out_dim)
    for layers, x in ((params.encoder, np.eye(m)),
                      (params.decoder, 0.1 * rng.standard_normal((2, batch)))):
        out, post = mlp_forward(layers, x, {})
        for li, layer in enumerate(layers):
            h = post[li]
            want = layer.weights @ h
            want += layer.biases[:, None]
            if li < len(layers) - 1:
                np.maximum(want, 0.0, out=want)
            if on_golden_stack:
                assert np.array_equal(post[li + 1], want), (li, batch)
            else:
                size = np.abs(layer.weights) @ np.abs(h) + np.abs(layer.biases)[:, None]
                assert np.all(np.abs(post[li + 1] - want) <= 1e-15 * size), (li, batch)


# ---------------------------------------------------------------------------
# softmax
# ---------------------------------------------------------------------------

def test_softmax_uniform_on_equal_logits():
    assert np.allclose(softmax(np.zeros(4)), 0.25, atol=1e-15)
    assert np.allclose(softmax(np.full(4, 17.3)), 0.25, atol=1e-15)


def test_softmax_extreme_logits_no_overflow():
    p = softmax(np.array([1000.0, 0.0]))
    assert np.all(np.isfinite(p))
    assert abs(p[0] - 1.0) < 1e-12
    assert p[1] < 1e-12


def test_softmax_against_high_precision():
    logits = [1.0, 2.0, 3.0]
    with mp.workdps(50):
        es = [mp.e ** v for v in logits]
        total = sum(es)
        expected = np.array([float(e / total) for e in es])
    assert np.allclose(softmax(np.array(logits)), expected, atol=1e-15)


def test_softmax_rejects_nan():
    with pytest.raises(FloatingPointError):
        softmax(np.array([1.0, np.nan]))


def test_softmax_in_place_matches_new_array():
    logits = substream(10, 1).standard_normal((4, 6)) * 10.0
    expected = softmax(logits)
    buf = logits.copy()
    assert softmax(buf, out=buf) is buf
    assert np.array_equal(buf, expected)
    with pytest.raises(FloatingPointError):   # -inf anywhere is rejected too
        softmax(np.array([[0.0, 1.0], [-np.inf, 2.0]]))


def test_forward_softmax_head_in_place_and_workspace_reuse():
    layers = init_params([4, 8, 2], [2, 8, 3], seed=1).decoder
    x = substream(15, 0).standard_normal((2, 5))
    out, post = mlp_forward(layers, x)
    assert out is post[-1]   # the last layer is linear
    # decode computes softmax_terms in place over its logits buffer
    ws = {}
    e, sums = decode(layers, x, ws)
    assert any(e is buf for buf in ws.values())
    assert np.array_equal(e / sums, softmax(out))
    assert np.all(e >= 0.0) and np.array_equal(e.max(axis=0), np.ones(5))
    ws = {}
    first, post_ws = mlp_forward(layers, x, ws, "dec")
    assert np.array_equal(first, out)
    assert any(first is buf for buf in ws.values())
    again, _ = mlp_forward(layers, x, ws, "dec")
    assert again is first   # the same buffers are refilled
    grads, ref = _grads(layers), _grads(layers)
    mlp_backward(layers, post_ws, out - 0.25, grads, {}, "dec")
    mlp_backward(layers, post, out - 0.25, ref)
    assert all(np.array_equal(a, b) for a, b in zip(grads, ref))


def test_scratch_shapes_of_one_key_share_a_growing_buffer():
    assert scratch(None, "k", (2, 3)) is None
    ws = {}
    full = scratch(ws, "k", (4, 8))
    tail = scratch(ws, "k", (4, 5))   # a short tail tile reuses the full one
    assert np.shares_memory(full, tail)
    assert scratch(ws, "k", (4, 5)) is tail   # cached while the shape stays
    assert np.shares_memory(scratch(ws, "k", (4, 8)), tail)
    grown = scratch(ws, "k", (6, 8))   # larger than any before: a new buffer
    assert not np.shares_memory(grown, full)
    assert np.shares_memory(scratch(ws, "k", (4, 8)), grown)
    ints = scratch(ws, "i", (3, 7), np.int64)
    mask = scratch(ws, "m", (5,), bool)
    assert not np.shares_memory(ints, grown) and not np.shares_memory(mask, grown)
    for buf, shape, dtype in ((tail, (4, 5), np.float64), (grown, (6, 8), np.float64),
                              (ints, (3, 7), np.int64), (mask, (5,), np.bool_)):
        assert type(buf) is np.ndarray and buf.flags.c_contiguous
        assert buf.shape == shape and buf.dtype == dtype
    narrow = scratch(ws, "m", (5,), np.uint16)   # same shape, another dtype
    assert narrow.dtype == np.uint16 and not np.shares_memory(narrow, mask)


def test_softmax_normalizes_columns_and_leaves_input_unchanged():
    logits = substream(10, 0).standard_normal((5, 7)) * 30.0
    before = logits.copy()
    probs = softmax(logits)
    assert np.array_equal(logits, before)
    assert np.allclose(probs.sum(axis=0), 1.0, atol=1e-15)
    for j in range(7):
        assert np.allclose(probs[:, j], softmax(logits[:, j]), rtol=0, atol=1e-15)


# ---------------------------------------------------------------------------
# backward
# ---------------------------------------------------------------------------

def test_backward_single_linear_layer_closed_form():
    # squared-error cost C = ||Wx + b - t||^2 on one sample:
    # dC/dW = 2(Wx+b-t) x^T, dC/db = 2(Wx+b-t)
    rng = substream(11, 0)
    layer = _layer(rng.standard_normal((3, 2)), rng.standard_normal(3))
    x = rng.standard_normal((2, 1))
    t = rng.standard_normal((3, 1))
    out, post = mlp_forward([layer], x)
    d_last_z = 2.0 * (out - t)
    grads = _grads([layer])
    dinp = mlp_backward([layer], post, d_last_z, grads)
    dw, db = grads
    resid = (out - t)[:, 0]
    assert np.allclose(dw, 2.0 * np.outer(resid, x[:, 0]), atol=1e-14)
    assert np.allclose(db, 2.0 * resid, atol=1e-14)
    assert np.allclose(dinp, layer.weights.T @ d_last_z, atol=1e-14)


def test_backward_zero_upstream_gives_zero_grads():
    rng = substream(12, 0)
    layers = [_layer(rng.standard_normal((4, 3)), rng.standard_normal(4)),
              _layer(rng.standard_normal((2, 4)), rng.standard_normal(2))]
    x = rng.standard_normal((3, 5))
    _, post = mlp_forward(layers, x)
    grads = _grads(layers)
    dinp = mlp_backward(layers, post, np.zeros((2, 5)), grads)
    for g in grads:
        assert not g.any()
    assert not dinp.any()


def test_backward_relu_mask_and_inputs_unchanged():
    rng = substream(14, 0)
    layers = [_layer(rng.standard_normal((4, 3)), rng.standard_normal(4)),
              _layer(rng.standard_normal((2, 4)), rng.standard_normal(2))]
    x = rng.standard_normal((3, 5))
    d = rng.standard_normal((2, 5))
    _, post = mlp_forward(layers, x)
    before = [a.copy() for a in post + [d]]
    grads = _grads(layers)
    dinp = mlp_backward(layers, post, d, grads)
    # the mask of the hidden pre-activation, recomputed here
    z0 = layers[0].weights @ x + layers[0].biases[:, None]
    dz0 = (layers[1].weights.T @ d) * (z0 > 0.0)
    assert np.allclose(grads[0], dz0 @ x.T, atol=1e-14)
    assert np.allclose(grads[1], dz0.sum(axis=1), atol=1e-14)
    assert np.allclose(grads[2], d @ post[1].T, atol=1e-14)
    assert np.allclose(grads[3], d.sum(axis=1), atol=1e-14)
    assert np.allclose(dinp, layers[0].weights.T @ dz0, atol=1e-14)
    assert all(np.array_equal(a, b) for a, b in zip(post + [d], before))


def test_backward_two_layer_matches_finite_differences():
    rng = substream(13, 0)
    layers = [_layer(rng.standard_normal((4, 3)), rng.standard_normal(4)),
              _layer(rng.standard_normal((2, 4)), rng.standard_normal(2))]
    x = rng.standard_normal((3, 6)) + 0.1  # keep away from ReLU kinks

    def cost():
        out, _ = mlp_forward(layers, x)
        return float(np.sum(out ** 2))

    out, post = mlp_forward(layers, x)
    grads = _grads(layers)
    mlp_backward(layers, post, 2.0 * out, grads)
    step = 1e-6
    for li, layer in enumerate(layers):
        for arr, grad in ((layer.weights, grads[2 * li]),
                          (layer.biases, grads[2 * li + 1])):
            flat = arr.reshape(-1)
            for j in range(flat.size):
                orig = flat[j]
                flat[j] = orig + step
                up = cost()
                flat[j] = orig - step
                dn = cost()
                flat[j] = orig
                fd = (up - dn) / (2 * step)
                assert grad.reshape(-1)[j] == pytest.approx(fd, rel=1e-5, abs=1e-7)


# ---------------------------------------------------------------------------
# Adam
# ---------------------------------------------------------------------------

def _scalar_params():
    return NetworkParams(
        encoder=[_layer([[0.5]], [0.0])], decoder=[])


def test_adam_zero_gradient_leaves_params_unchanged():
    params = _scalar_params()
    state = AdamState.for_params(params, learning_rate=0.01)
    before = [a.copy() for a in params.arrays()]
    for _ in range(3):
        adam_step(params.flat, np.zeros_like(params.flat), state)
    for a, b in zip(params.arrays(), before):
        assert np.array_equal(a, b)


def test_adam_first_step_magnitude_is_learning_rate():
    params = _scalar_params()
    lr = 0.01
    state = AdamState.for_params(params, learning_rate=lr)
    g = 0.37
    grads = np.array([g, 0.0])   # laid out like params.flat: W then b
    w0 = params.encoder[0].weights[0, 0]
    adam_step(params.flat, grads, state)
    # m_hat = g, v_hat = g^2 after bias correction, so |update| = lr*|g|/(|g|+eps)
    update = w0 - params.encoder[0].weights[0, 0]
    assert update == pytest.approx(lr * g / (abs(g) + ADAM_EPS), rel=1e-12)


def test_adam_constant_gradient_matches_hand_unrolled_recurrence():
    params = _scalar_params()
    lr, b1, b2, eps = 0.01, 0.9, 0.999, 1e-8
    state = AdamState.for_params(params, learning_rate=lr)
    g = -1.25
    grads = np.array([g, 0.0])
    # unroll the recurrences independently
    m = v = 0.0
    w = params.encoder[0].weights[0, 0]
    for t in range(1, 4):
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        m_hat = m / (1 - b1 ** t)
        v_hat = v / (1 - b2 ** t)
        w = w - lr * m_hat / (np.sqrt(v_hat) + eps)
        adam_step(params.flat, grads, state)
        assert params.encoder[0].weights[0, 0] == pytest.approx(w, rel=1e-14)


def test_adam_shape_mismatch_rejected():
    params = _scalar_params()
    state = AdamState.for_params(params, learning_rate=0.01)
    with pytest.raises(ValueError):
        adam_step(params.flat, np.zeros(5), state)


def test_adam_flat_matches_per_array_reference():
    # the flat update is the textbook per-array update, bit for bit
    params = init_params([4, 8, 2], [2, 8, 4], seed=6)
    state = AdamState.for_params(params, learning_rate=0.01)
    ref = [a.copy() for a in params.arrays()]
    moments = [[np.zeros_like(a) for a in ref] for _ in range(2)]
    rng = substream(6, 1)
    for t in range(1, 4):
        grads = rng.standard_normal(params.flat.size)
        adam_step(params.flat, grads, state)
        for p, g, m, v in zip(ref, params.views(grads), *moments):
            m *= 0.9
            m += (1.0 - 0.9) * g
            v *= 0.999
            v += (1.0 - 0.999) * g * g
            p -= 0.01 * (m / (1.0 - 0.9 ** t)) / (np.sqrt(v / (1.0 - 0.999 ** t)) + 1e-8)
        assert all(np.array_equal(a, b) for a, b in zip(params.arrays(), ref))


# ---------------------------------------------------------------------------
# initialization
# ---------------------------------------------------------------------------

def test_init_params_biases_zero_and_deterministic():
    p1 = init_params([4, 8, 2], [2, 8, 4], seed=7)
    p2 = init_params([4, 8, 2], [2, 8, 4], seed=7)
    p3 = init_params([4, 8, 2], [2, 8, 4], seed=8)
    for layer in p1.encoder + p1.decoder:
        assert not layer.biases.any()
    for a, b in zip(p1.arrays(), p2.arrays()):
        assert np.array_equal(a, b)
    assert any(not np.array_equal(a, b)
               for a, b in zip(p1.arrays(), p3.arrays()))


@pytest.mark.parametrize("enc,dec", [([4], [2, 4]), ([4, 0, 2], [2, 4]),
                                     ([4, 8, 2], [2, -1, 4])])
def test_init_params_rejects_bad_dims(enc, dec):
    with pytest.raises(ValueError):
        init_params(enc, dec, seed=0)


def test_xavier_variance():
    rng = substream(0, 0)
    samples = np.concatenate(
        [xavier_uniform(64, 64, rng).ravel() for _ in range(4)])
    assert samples.size >= 10_000
    expected = 2.0 / (64 + 64)  # uniform(-b, b) with b^2 = 6/(fi+fo)
    assert samples.var() == pytest.approx(expected, rel=0.1)
    bound = np.sqrt(6.0 / 128.0)
    assert np.max(np.abs(samples)) <= bound


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------

def test_checkpoint_round_trip(tmp_path):
    params = init_params([8, 16, 2], [2, 16, 8], seed=5)
    path = tmp_path / "ckpt.bin"
    save_checkpoint(path, params)
    loaded = load_checkpoint(path)
    for a, b in zip(params.arrays(), loaded.arrays()):
        assert np.array_equal(a, b)


def test_params_are_views_of_one_flat_vector(tmp_path):
    params = init_params([4, 8, 2], [2, 8, 3, 4], seed=5)
    arrays = params.arrays()
    assert params.flat.dtype == np.float64 and params.flat.flags.c_contiguous
    assert params.flat.size == sum(a.size for a in arrays)
    assert all(a.base is params.flat for a in arrays)
    assert np.array_equal(np.concatenate([a.ravel() for a in arrays]), params.flat)
    assert all(np.array_equal(v, a) for v, a in zip(params.views(params.flat), arrays))
    params.flat[:] = np.arange(params.flat.size)   # writes show through the layers
    assert params.decoder[-1].biases[-1] == params.flat.size - 1
    # the checkpoint payload is the vector itself, and a round trip is exact
    path = tmp_path / "ckpt.bin"
    save_checkpoint(path, params)
    blob = path.read_bytes()
    assert blob.endswith(params.flat.astype("<f8").tobytes())
    loaded = load_checkpoint(path)
    assert not np.shares_memory(loaded.flat, params.flat)
    assert all(a.base is loaded.flat for a in loaded.arrays())
    save_checkpoint(tmp_path / "again.bin", loaded)
    assert (tmp_path / "again.bin").read_bytes() == blob


def test_checkpoint_bad_magic(tmp_path):
    path = tmp_path / "ckpt.bin"
    path.write_bytes(b"NOTMAGIC" + bytes(64))
    with pytest.raises(CheckpointFormatError):
        load_checkpoint(path)


def test_checkpoint_truncated(tmp_path):
    params = init_params([4, 8, 2], [2, 8, 4], seed=1)
    path = tmp_path / "ckpt.bin"
    save_checkpoint(path, params)
    blob = path.read_bytes()
    path.write_bytes(blob[:len(blob) // 2])
    with pytest.raises(CheckpointFormatError):
        load_checkpoint(path)


def test_checkpoint_trailing_bytes_rejected(tmp_path):
    # the header fixes the payload size, so extra bytes are not a checkpoint
    params = init_params([4, 8, 2], [2, 8, 4], seed=1)
    path = tmp_path / "ckpt.bin"
    save_checkpoint(path, params)
    path.write_bytes(path.read_bytes() + bytes(64))
    with pytest.raises(CheckpointFormatError, match="does not match its header"):
        load_checkpoint(path)


@pytest.mark.parametrize("n_enc, n_dec", [(0, 0), (0, 2), (2, 0)])
def test_checkpoint_empty_stack_rejected(tmp_path, n_enc, n_dec):
    params = init_params([4, 8, 2], [2, 8, 4], seed=1)
    path = tmp_path / "ckpt.bin"
    save_checkpoint(path, params)
    blob = bytearray(path.read_bytes())
    blob[12:16] = struct.pack("<HH", n_enc, n_dec)
    path.write_bytes(bytes(blob))
    with pytest.raises(CheckpointFormatError):
        load_checkpoint(path)


def test_checkpoint_bad_version(tmp_path):
    params = init_params([4, 8, 2], [2, 8, 4], seed=1)
    path = tmp_path / "ckpt.bin"
    save_checkpoint(path, params)
    blob = bytearray(path.read_bytes())
    blob[8] = 99
    path.write_bytes(bytes(blob))
    with pytest.raises(CheckpointFormatError):
        load_checkpoint(path)
