"""Tests for the dense-network engine: forward, backward, Adam, init, checkpoints."""

import json
import os
import pickle
import platform
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from mpmath import mp

import swiptmod
from swiptmod.nn import (ADAM_EPS, ADAM_LR, CHECKPOINT_MAGIC, AdamState, CheckpointFormatError,
                         NetworkParams, adam_step, encoder_table, init_params, layout,
                         load_checkpoint, mlp_backward, mlp_forward, net_buffers,
                         save_checkpoint, scratch, softmax, xavier_uniform)
from swiptmod.channel import substream
from swiptmod.trainer import RunRecord
from swiptmod.transceiver import decode
from test_golden import GOLDEN, _openblas_core, stack


def _net(*arrays):
    """A net [W1, b1, W2, b2] of float arrays."""
    return [np.asarray(a, dtype=float) for a in arrays]


def _random_net(rng, n_in, hidden, n_out):
    return _net(rng.standard_normal((hidden, n_in)), rng.standard_normal(hidden),
                rng.standard_normal((n_out, hidden)), rng.standard_normal(n_out))


def _grads(net):
    """New gradient arrays [dW1, db1, dW2, db2]."""
    return [np.empty_like(a) for a in net]


# ---------------------------------------------------------------------------
# forward pass: one ReLU hidden layer and a linear output layer, on
# (features, batch) columns
# ---------------------------------------------------------------------------

def test_dense_forward_identity():
    net = _net(np.eye(2), np.zeros(2), np.eye(2), np.zeros(2))
    out, _ = mlp_forward(net, np.array([[1.0], [2.0]]))
    assert np.array_equal(out, [[1.0], [2.0]])


def test_dense_forward_relu_clamps_negative_bias():
    # the hidden layer is ReLU, written over its pre-activation buffer; the
    # output layer is linear
    net = _net(np.zeros((2, 2)), [0.5, -1.0], -np.eye(2), np.zeros(2))
    ws = {}
    x = np.zeros((2, 3))
    out, (saved_x, hidden) = mlp_forward(net, x, ws)
    assert any(hidden is buf for buf in ws.values()) and np.array_equal(saved_x, x)
    assert np.array_equal(hidden, [[0.5] * 3, [0.0] * 3])
    assert np.array_equal(out, -hidden)


def test_dense_forward_matches_manual_product():
    rng = substream(9, 0)
    w1, b1, w2, b2 = net = _random_net(rng, 2, 3, 2)
    x = rng.standard_normal((2, 4))
    out, _ = mlp_forward(net, x)
    h = [[max(w1[i, 0] * x[0, j] + w1[i, 1] * x[1, j] + b1[i], 0.0)
          for j in range(4)] for i in range(3)]
    manual = np.array([[sum(w2[i, k] * h[k][j] for k in range(3)) + b2[i]
                        for j in range(4)] for i in range(2)])
    assert out.shape == (2, 4)
    assert np.allclose(out, manual, atol=1e-14)


def test_dense_forward_dimension_mismatch():
    net = _net(np.eye(2), np.zeros(2), np.eye(2), np.zeros(2))
    with pytest.raises(ValueError):
        mlp_forward(net, np.zeros((3, 1)))


# B = 2, 3, 4 and 100 are batch widths where OpenBLAS's SkylakeX kernel splits
# a 33-term dot product (an M=16 decoder's output layer with its bias folded
# in), so they also show that the output layer keeps its separate add
FORWARD_BATCHES = (1, 2, 3, 4, 5, 8, 100, 400, 1600, 8192)


@pytest.mark.parametrize("batch", FORWARD_BATCHES)
@pytest.mark.parametrize("m", [4, 8, 16])
def test_forward_matches_matmul_plus_bias(m, batch):
    # each layer, given its input from the same pass, against W @ h + b[:, None]:
    # bit for bit on the stack golden.json was made on, within 1e-15 of the
    # sum of |terms| elsewhere
    on_golden_stack = json.loads(GOLDEN.read_text())["stack"] == stack()
    params = init_params(m, seed=100 * m + batch)
    rng = substream(m, batch)
    for b in (params.encoder + params.decoder)[1::2]:
        b[:] = rng.standard_normal(b.size)
    for net, x in ((params.encoder, np.eye(m)),
                   (params.decoder, 0.1 * rng.standard_normal((2, batch)))):
        out, (_, hidden) = mlp_forward(net, x, {})
        for (w, b), h, got, relu in ((net[:2], x, hidden, True),
                                     (net[2:], hidden, out, False)):
            want = w @ h
            want += b[:, None]
            if relu:
                np.maximum(want, 0.0, out=want)
            if on_golden_stack:
                assert np.array_equal(got, want), (relu, batch)
            else:
                size = np.abs(w) @ np.abs(h) + np.abs(b)[:, None]
                assert np.all(np.abs(got - want) <= 1e-15 * size), (relu, batch)


# encoder_table against mlp_forward on the M x M identity, bit for bit on any
# stack: each identity product is an exact zero but one, so each entry is one
# rounded add whatever the kernel's summation order


def _planted_encoder(m, seed):
    """A seeded encoder whose weights hold exact zeros of both signs and
    W1 == -b1 cancellations, so its hidden layer has exact zeros."""
    rng = substream(m, 23, seed)
    enc = _random_net(rng, m, 2 * m, 2)
    w1, b1, w2, _ = enc
    w1[rng.random(w1.shape) < 0.2] = 0.0
    w1[rng.random(w1.shape) < 0.1] = -0.0
    b1[rng.random(b1.size) < 0.1] = -0.0
    rows = np.flatnonzero(rng.random(b1.size) < 0.5)
    w1[rows, rng.integers(0, m, rows.size)] = -b1[rows]
    w2[rng.random(w2.shape) < 0.1] = -0.0
    return enc


def _encoder_table_mismatches() -> list:
    """(M, seed, array) wherever encoder_table's points or hidden layer, or
    mlp_backward's gradients on its saved tuple, differ in a byte from
    mlp_forward and mlp_backward on the identity, over M = 2..20 and 20
    seeds. The upstream gradient holds planted -0.0s, and the masked hidden
    gradient dz holds more."""
    bad, cancelled, neg_zero = [], 0, 0
    for m in range(2, 21):
        for seed in range(20):
            enc = _planted_encoder(m, seed)
            want, (eye, want_hidden) = mlp_forward(enc, np.eye(m))
            got, saved = encoder_table(enc)
            rng = substream(m, 24, seed)
            d_out = rng.standard_normal((2, m))
            d_out[rng.random(d_out.shape) < 0.2] = -0.0
            grads, ref = _grads(enc), _grads(enc)
            dz = mlp_backward(enc, saved, d_out, grads)
            mlp_backward(enc, (eye, want_hidden), d_out, ref)
            pairs = [("points", got, want), ("hidden", saved[1], want_hidden),
                     *zip(("dW1", "db1", "dW2", "db2"), grads, ref)]
            bad += [(m, seed, name) for name, a, b in pairs if a.tobytes() != b.tobytes()]
            cancelled += int(np.count_nonzero(enc[0] + enc[1][:, None] == 0.0))
            neg_zero += int(np.count_nonzero((dz == 0.0) & np.signbit(dz)))
    assert cancelled and neg_zero   # the planted cases are there
    return bad


def test_encoder_table_is_the_identity_forward_pass_bit_for_bit():
    assert _encoder_table_mismatches() == []


@pytest.mark.skipif(platform.machine() not in ("x86_64", "AMD64"),
                    reason="the Haswell kernel is an x86-64 core")
def test_encoder_table_bits_on_the_haswell_kernel():
    # the same check in a fresh interpreter whose OpenBLAS loads the Haswell
    # kernel (a no-op on another BLAS)
    tests, src = Path(__file__).parent, Path(swiptmod.__file__).parent.parent
    env = dict(os.environ, OPENBLAS_CORETYPE="Haswell",
               PYTHONPATH=os.pathsep.join([str(tests), str(src)]))
    code = ("import test_nn, test_golden; "
            "print(test_golden._openblas_core(), test_nn._encoder_table_mismatches())")
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    core, mismatches = run.stdout.split(maxsplit=1)
    assert mismatches.strip() == "[]", (core, mismatches)
    if _openblas_core() != "unknown":
        assert core == "Haswell"


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
    net = init_params(3, seed=1).decoder
    x = substream(15, 0).standard_normal((2, 5))
    out, saved = mlp_forward(net, x)
    # decode computes softmax_terms in place over its logits buffer
    ws = {}
    e, sums = decode(net, x, ws)
    assert any(e is buf for buf in ws.values())
    assert np.array_equal(e / sums, softmax(out))
    assert np.all(e >= 0.0) and np.array_equal(e.max(axis=0), np.ones(5))
    ws = {}
    first, saved_ws = mlp_forward(net, x, ws, "dec")
    assert np.array_equal(first, out)
    assert any(first is buf for buf in ws.values())
    again, _ = mlp_forward(net, x, ws, "dec")
    assert again is first   # the same buffers are refilled
    grads, ref = _grads(net), _grads(net)
    mlp_backward(net, saved_ws, out - 0.25, grads, net_buffers(net, 5))
    mlp_backward(net, saved, out - 0.25, ref)
    assert all(np.array_equal(a, b) for a, b in zip(grads, ref))


def test_scratch_shapes_of_one_key_share_a_growing_buffer():
    fresh = scratch(None, "k", (2, 3), np.int64)   # no workspace: a new array
    assert fresh.shape == (2, 3) and fresh.dtype == np.int64
    assert not np.shares_memory(fresh, scratch(None, "k", (2, 3), np.int64))
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
    # an identity hidden layer on a positive input makes the net the single
    # linear layer W2 x + b2; squared-error cost C = ||W2 x + b2 - t||^2 on
    # one sample: dC/dW2 = 2(W2 x+b2-t) x^T, dC/db2 = 2(W2 x+b2-t), and the
    # hidden layer's gradients are those of the identity's input
    rng = substream(11, 0)
    w = rng.standard_normal((3, 2))
    net = _net(np.eye(2), np.zeros(2), w, rng.standard_normal(3))
    x = np.abs(rng.standard_normal((2, 1))) + 0.1
    t = rng.standard_normal((3, 1))
    out, saved = mlp_forward(net, x)
    d_out = 2.0 * (out - t)
    grads = _grads(net)
    dinp = net[0].T @ mlp_backward(net, saved, d_out, grads)   # W1.T @ dz
    dw1, db1, dw2, db2 = grads
    resid = (out - t)[:, 0]
    assert np.allclose(dw2, 2.0 * np.outer(resid, x[:, 0]), atol=1e-14)
    assert np.allclose(db2, 2.0 * resid, atol=1e-14)
    assert np.allclose(dinp, w.T @ d_out, atol=1e-14)
    assert np.allclose(db1, dinp[:, 0], atol=1e-14)
    assert np.allclose(dw1, dinp @ x.T, atol=1e-14)


def test_backward_zero_upstream_gives_zero_grads():
    rng = substream(12, 0)
    net = _random_net(rng, 3, 4, 2)
    x = rng.standard_normal((3, 5))
    _, saved = mlp_forward(net, x)
    grads = _grads(net)
    dinp = net[0].T @ mlp_backward(net, saved, np.zeros((2, 5)), grads)
    for g in grads:
        assert not g.any()
    assert not dinp.any()


def test_backward_relu_mask_and_inputs_unchanged():
    rng = substream(14, 0)
    w1, b1, w2, _ = net = _random_net(rng, 3, 4, 2)
    x = rng.standard_normal((3, 5))
    d = rng.standard_normal((2, 5))
    _, saved = mlp_forward(net, x)
    inputs = list(saved) + [d]
    before = [a.copy() for a in inputs]
    grads = _grads(net)
    dz = mlp_backward(net, saved, d, grads)
    dinp = w1.T @ dz
    # the mask of the hidden pre-activation, recomputed here
    z1 = w1 @ x + b1[:, None]
    dz1 = (w2.T @ d) * (z1 > 0.0)
    assert np.allclose(grads[0], dz1 @ x.T, atol=1e-14)
    assert np.allclose(grads[1], dz1.sum(axis=1), atol=1e-14)
    assert np.allclose(grads[2], d @ saved[1].T, atol=1e-14)
    assert np.allclose(grads[3], d.sum(axis=1), atol=1e-14)
    assert np.allclose(dz, dz1, atol=1e-14)
    assert np.allclose(dinp, w1.T @ dz1, atol=1e-14)
    assert all(np.array_equal(a, b) for a, b in zip(inputs, before))


def test_backward_two_layer_matches_finite_differences():
    rng = substream(13, 0)
    net = _random_net(rng, 3, 4, 2)
    x = rng.standard_normal((3, 6)) + 0.1  # keep away from ReLU kinks

    def cost():
        out, _ = mlp_forward(net, x)
        return float(np.sum(out ** 2))

    out, saved = mlp_forward(net, x)
    grads = _grads(net)
    mlp_backward(net, saved, 2.0 * out, grads)
    step = 1e-6
    for arr, grad in zip(net, grads):
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
    """M=2 parameters, all zero but the first weight, 0.5."""
    params = NetworkParams(2)
    params.encoder[0][0, 0] = 0.5
    return params


def _first_only(g, params):
    """A gradient laid out like params.flat, g at the first weight, else 0."""
    grads = np.zeros_like(params.flat)
    grads[0] = g
    return grads


def test_adam_zero_gradient_leaves_params_unchanged():
    params = _scalar_params()
    state = AdamState.for_params(params)
    before = params.flat.copy()
    for _ in range(3):
        adam_step(params.flat, np.zeros_like(params.flat), state)
    assert np.array_equal(params.flat, before)


def test_adam_first_step_magnitude_is_learning_rate():
    params = _scalar_params()
    lr = ADAM_LR
    state = AdamState.for_params(params)
    g = 0.37
    w0 = params.encoder[0][0, 0]
    adam_step(params.flat, _first_only(g, params), state)
    # m_hat = g, v_hat = g^2 after bias correction, so |update| = lr*|g|/(|g|+eps)
    update = w0 - params.encoder[0][0, 0]
    assert update == pytest.approx(lr * g / (abs(g) + ADAM_EPS), rel=1e-12)
    assert not params.flat[1:].any()   # a zero gradient moves nothing


def test_adam_constant_gradient_matches_hand_unrolled_recurrence():
    params = _scalar_params()
    lr, b1, b2, eps = ADAM_LR, 0.9, 0.999, 1e-8
    state = AdamState.for_params(params)
    g = -1.25
    grads = _first_only(g, params)
    # unroll the recurrences independently
    m = v = 0.0
    w = params.encoder[0][0, 0]
    for t in range(1, 4):
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        m_hat = m / (1 - b1 ** t)
        v_hat = v / (1 - b2 ** t)
        w = w - lr * m_hat / (np.sqrt(v_hat) + eps)
        adam_step(params.flat, grads, state)
        assert params.encoder[0][0, 0] == pytest.approx(w, rel=1e-14)


def test_adam_shape_mismatch_rejected():
    params = _scalar_params()
    state = AdamState.for_params(params)
    with pytest.raises(ValueError):
        adam_step(params.flat, np.zeros(5), state)


def test_adam_flat_matches_per_array_reference():
    # the flat update is the textbook per-array update, bit for bit
    params = init_params(4, seed=6)
    state = AdamState.for_params(params)
    ref = [a.copy() for a in params.encoder + params.decoder]
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
            p -= ADAM_LR * (m / (1.0 - 0.9 ** t)) / (np.sqrt(v / (1.0 - 0.999 ** t)) + 1e-8)
        assert all(np.array_equal(a, b)
                   for a, b in zip(params.encoder + params.decoder, ref))


# ---------------------------------------------------------------------------
# initialization
# ---------------------------------------------------------------------------

def test_init_params_biases_zero_and_deterministic():
    p1 = init_params(4, seed=7)
    p2 = init_params(4, seed=7)
    p3 = init_params(4, seed=8)
    for b in (p1.encoder + p1.decoder)[1::2]:
        assert not b.any()
    assert np.array_equal(p1.flat, p2.flat)
    assert not np.array_equal(p1.flat, p3.flat)


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
    params = init_params(8, seed=5)
    path = tmp_path / "ckpt.bin"
    save_checkpoint(path, params)
    loaded = load_checkpoint(path)
    assert loaded.m == 8
    for a, b in zip(params.encoder + params.decoder, loaded.encoder + loaded.decoder):
        assert np.array_equal(a, b)


def test_params_are_views_of_one_flat_vector(tmp_path):
    params = init_params(4, seed=5)
    arrays = params.encoder + params.decoder
    assert [a.shape for a in arrays] == list(layout(4))
    assert params.flat.dtype == np.float64 and params.flat.flags.c_contiguous
    assert params.flat.size == sum(a.size for a in arrays)
    assert all(a.base is params.flat for a in arrays)
    assert np.array_equal(np.concatenate([a.ravel() for a in arrays]), params.flat)
    assert all(np.array_equal(v, a) for v, a in zip(params.views(params.flat), arrays))
    params.flat[:] = np.arange(params.flat.size)   # writes show through the views
    assert params.decoder[-1][-1] == params.flat.size - 1
    # the checkpoint payload is the vector itself, and a round trip is exact
    path = tmp_path / "ckpt.bin"
    save_checkpoint(path, params)
    blob = path.read_bytes()
    assert blob.endswith(params.flat.astype("<f8").tobytes())
    loaded = load_checkpoint(path)
    assert not np.shares_memory(loaded.flat, params.flat)
    assert all(a.base is loaded.flat for a in loaded.encoder + loaded.decoder)
    save_checkpoint(tmp_path / "again.bin", loaded)
    assert (tmp_path / "again.bin").read_bytes() == blob


def test_pickle_round_trip_keeps_the_flat_bytes_and_the_views():
    # multi_restart's worker sends its records back pickled
    params = init_params(5, seed=7)
    record = RunRecord(lam=0.5, seed=7, final_cost=1.25, params=params)
    for copy in (pickle.loads(pickle.dumps(params)),
                 pickle.loads(pickle.dumps(record)).params):
        assert copy.m == 5 and copy.flat.tobytes() == params.flat.tobytes()
        assert not np.shares_memory(copy.flat, params.flat)
        arrays = copy.encoder + copy.decoder
        assert [a.shape for a in arrays] == list(layout(5))
        assert all(np.shares_memory(a, copy.flat) for a in arrays)
        copy.flat[:] = np.arange(copy.flat.size)   # writes show through the views
        assert copy.encoder[0][0, 1] == 1.0 and copy.decoder[-1][-1] == copy.flat.size - 1


def test_checkpoint_bad_magic(tmp_path):
    path = tmp_path / "ckpt.bin"
    path.write_bytes(b"NOTMAGIC" + bytes(64))
    with pytest.raises(CheckpointFormatError):
        load_checkpoint(path)


def test_checkpoint_truncated(tmp_path):
    params = init_params(4, seed=1)
    path = tmp_path / "ckpt.bin"
    save_checkpoint(path, params)
    blob = path.read_bytes()
    path.write_bytes(blob[:len(blob) // 2])
    with pytest.raises(CheckpointFormatError):
        load_checkpoint(path)


def test_checkpoint_trailing_bytes_rejected(tmp_path):
    # the header fixes the payload size, so extra bytes are not a checkpoint
    params = init_params(4, seed=1)
    path = tmp_path / "ckpt.bin"
    save_checkpoint(path, params)
    path.write_bytes(path.read_bytes() + bytes(64))
    with pytest.raises(CheckpointFormatError, match="does not match its header"):
        load_checkpoint(path)


def write_raw_checkpoint(path, encoder, decoder):
    """A version-1 checkpoint whose header lists the given (out, in) weight
    shapes, with a zero payload of the size that header implies."""
    shapes = encoder + decoder
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC + struct.pack("<IHH", 1, len(encoder), len(decoder)))
        fh.write(b"".join(struct.pack("<II", *s) for s in shapes))
        fh.write(bytes(8 * sum(o * i + o for o, i in shapes)))


# the parent format read any stack whose payload fit its header; a
# checkpoint must now hold layout(M)'s four layers for its M
M4_ENCODER, M4_DECODER = [(8, 4), (2, 8)], [(8, 2), (4, 8)]
WRONG_SHAPES = {
    "0-0": ([], []),
    "0-2": ([], M4_DECODER),
    "2-0": (M4_ENCODER, []),
    "3-layer-encoder": ([(8, 4), (8, 8), (2, 8)], M4_DECODER),
    "hidden-3M": ([(12, 4), (2, 12)], [(12, 2), (4, 12)]),
    "decoder-for-M8": (M4_ENCODER, [(16, 2), (8, 16)]),
}


@pytest.mark.parametrize("encoder, decoder", list(WRONG_SHAPES.values()),
                         ids=list(WRONG_SHAPES))
def test_checkpoint_empty_stack_rejected(tmp_path, encoder, decoder):
    path = tmp_path / "ckpt.bin"
    write_raw_checkpoint(path, encoder, decoder)
    with pytest.raises(CheckpointFormatError, match="not the layers of an M-message"):
        load_checkpoint(path)
    # the same writer with M=4's own shapes gives a loadable file
    write_raw_checkpoint(path, M4_ENCODER, M4_DECODER)
    assert load_checkpoint(path).m == 4
    save_checkpoint(tmp_path / "saved.bin", NetworkParams(4))
    assert (tmp_path / "saved.bin").read_bytes() == path.read_bytes()


@pytest.mark.parametrize("m", [2, 3, 16])
def test_checkpoint_every_corrupt_header_byte_rejected(tmp_path, m):
    # each of the 48 header bytes set to 0x00, to 0xFF, and to itself with
    # bit i % 8 flipped, where that changes it; an M field that gains a high
    # byte must be rejected too, though 2M no longer fits the header's u32
    path = tmp_path / "ckpt.bin"
    save_checkpoint(path, init_params(m, seed=1))
    blob = path.read_bytes()
    cases = 0
    for i in range(48):
        for value in sorted({0x00, 0xFF, blob[i] ^ 1 << i % 8} - {blob[i]}):
            path.write_bytes(blob[:i] + bytes([value]) + blob[i + 1:])
            with pytest.raises(CheckpointFormatError):
                load_checkpoint(path)
            cases += 1
    assert cases >= 113


def test_checkpoint_bad_version(tmp_path):
    params = init_params(4, seed=1)
    path = tmp_path / "ckpt.bin"
    save_checkpoint(path, params)
    blob = bytearray(path.read_bytes())
    blob[8] = 99
    path.write_bytes(bytes(blob))
    with pytest.raises(CheckpointFormatError):
        load_checkpoint(path)
