"""Minimal dense-network engine.

Both networks have one fixed shape, set by the number of messages M: a ReLU
hidden layer 2M wide and a linear output layer (the encoder's 2-wide output,
the decoder's logits, whose softmax its callers apply). Forward pass,
hand-written reverse-mode gradients for the fixed encoder -> normalization ->
channel -> decoder graph (the chain itself lives in trainer.py), Adam
updates, Xavier/zero initialization and a binary checkpoint format.
Everything is float64 and deterministic given its inputs.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .channel import ROLE_INIT, substream

ADAM_LR = 0.01
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8

CHECKPOINT_MAGIC = b"SWPTAE01"
CHECKPOINT_VERSION = 1


class CheckpointFormatError(Exception):
    """Raised when a checkpoint file fails magic/version/shape validation."""


def layout(m: int) -> tuple[tuple[int, ...], ...]:
    """The eight array shapes of an M-message autoencoder, in `flat` order:
    the encoder's (W1, b1, W2, b2), M one-hot inputs to 2 outputs (re, im),
    then the decoder's, 2 inputs to M logits. Weights are (out, in)."""
    h = 2 * m
    return (h, m), (h,), (2, h), (2,), (h, 2), (h,), (m, h), (m,)


class NetworkParams:
    """Encoder and decoder of an M-message autoencoder over one contiguous
    float64 vector `flat`, all zeros when built.

    `encoder` and `decoder` are the views [W1, b1, W2, b2] into `flat`, laid
    out as layout(m); that order is also the checkpoint payload. Update the
    arrays in place, never rebind them. A pickle holds (m, flat) only, so an
    unpickled copy's views share its own `flat`.
    """

    def __init__(self, m: int, flat: np.ndarray | None = None):
        self.m = m
        if flat is None:
            flat = np.zeros(sum(math.prod(s) for s in layout(m)))
        self.flat = flat
        views = self.views(self.flat)
        self.encoder, self.decoder = views[:4], views[4:]

    def __reduce__(self):
        return NetworkParams, (self.m, self.flat)

    def views(self, vec: np.ndarray) -> list[np.ndarray]:
        """Views of a vector laid out like `flat`, shaped as layout(m)."""
        out, off = [], 0
        for shape in layout(self.m):
            size = math.prod(shape)
            out.append(vec[off:off + size].reshape(shape))
            off += size
        return out


def scratch(ws: dict | None, key, shape, dtype=float) -> np.ndarray:
    """Workspace buffer `key` shaped `shape`: a view of the key's one flat buffer,
    grown to the largest size asked for. Without a workspace, a new array."""
    if ws is None:
        return np.empty(shape, dtype)
    buf = ws.get(key)
    if buf is None or buf.shape != shape or buf.dtype != dtype:
        size = math.prod(shape)
        flat = None if buf is None else buf.base   # the view's flat owner
        if flat is None or flat.size < size or flat.dtype != dtype:
            flat = np.empty(size, dtype)
        buf = ws[key] = flat[:size].reshape(shape)
    return buf


def softmax_terms(logits: np.ndarray, out: np.ndarray | None = None):
    """The softmax over axis 0 before its division: (e, s) with
    e = exp(z - max z), whose top entry in each column is exactly 1.0, and s
    its column sums. Non-finite logits raise FloatingPointError. `e` goes to
    `out`, which may be `logits` itself; with out=None it is a new array.
    """
    z = np.asarray(logits, dtype=float)
    # ufunc reductions, not the .max/.min/.sum methods: the same reduction
    # without the methods' Python wrappers, a fixed cost of every small step
    top = np.maximum.reduce(z, axis=0)
    # all entries are finite iff the largest and the smallest are
    if not (np.isfinite(np.maximum.reduce(top, axis=None))
            and np.isfinite(np.minimum.reduce(z, axis=None))):
        raise FloatingPointError("non-finite logits passed to softmax")
    e = np.subtract(z, top, out=out)
    np.exp(e, out=e)
    return e, np.add.reduce(e, axis=0)


def softmax(logits: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Numerically stabilized softmax over axis 0, one column per sample:
    softmax_terms' e / s, in e's buffer (`out` as there)."""
    e, s = softmax_terms(logits, out)
    e /= s
    return e


class NetBuffers(NamedTuple):
    """Every buffer a net's forward and backward pass write for B columns,
    made once by net_buffers and passed as `ws` to mlp_forward (or
    encoder_table) and mlp_backward."""
    x: np.ndarray | None        # (in, B) input: the first rows of xb
    xb: np.ndarray | None       # (in + 1, B) input over a row of ones
    wb: np.ndarray | None       # (2M, in + 1) [W1 | b1]
    hidden: np.ndarray          # (2M, B)
    out: np.ndarray             # (out, B)
    d_hidden: np.ndarray        # (2M, B) the hidden layer's gradient
    mask: np.ndarray            # (2M, B) bool ReLU mask


def net_buffers(net, batch: int, table: bool = False) -> NetBuffers:
    """New NetBuffers for `net` (only its shapes are read) on `batch`
    columns, the input block's ones row written. table=True gives
    encoder_table's, for batch M, with no input block or [W1 | b1]."""
    w1, _, w2, _ = net
    width, rows = w1.shape
    x = xb = wb = None
    if not table:
        xb = np.empty((rows + 1, batch))
        xb[rows] = 1.0
        x, wb = xb[:rows], np.empty((width, rows + 1))
    return NetBuffers(x, xb, wb, np.empty((width, batch)), np.empty((w2.shape[0], batch)),
                      np.empty((width, batch)), np.empty((width, batch), bool))


def mlp_forward(net, x: np.ndarray, ws: NetBuffers | dict | None = None, key: str = ""):
    """Run a net [W1, b1, W2, b2] on (features, batch) columns.

    The hidden pre-activation W1 @ x + b1[:, None] is one matmul of [W1 | b1],
    copied into a workspace block, by x over a row of ones; the bias is the
    last term of each dot product, so for the decoder's 2-wide input this
    rounds as the matmul plus the add. Its ReLU is applied in place. The
    output layer is linear and adds its bias after the matmul, as BLAS may
    split its wider dot products into partial sums. Returns
    (output, (x, hidden)), which mlp_backward takes. `ws` is the net's bound
    NetBuffers, whose input block x is not copied when it is passed as x
    itself; or a workspace dict, whose buffers under `key` (which must
    differ between nets sharing one) hold every result; or None, for new
    buffers.
    """
    w1, b1, w2, b2 = net
    if isinstance(ws, NetBuffers):
        x_in, xb, wb, hidden, out = ws[:5]
    else:
        x = np.asarray(x, dtype=float)
        rows, batch = x.shape
        xb = scratch(ws, (key, "x"), (rows + 1, batch))
        xb[rows] = 1.0
        x_in, wb = xb[:rows], scratch(ws, (key, "wb"), (w1.shape[0], rows + 1))
        hidden = scratch(ws, (key, "z1"), (w1.shape[0], batch))
        out = scratch(ws, (key, "z2"), (w2.shape[0], batch))
    if x is not x_in:
        x_in[...] = x
    wb[:, :-1] = w1
    wb[:, -1] = b1
    np.matmul(wb, xb, out=hidden)
    np.maximum(hidden, 0.0, out=hidden)
    np.matmul(w2, hidden, out=out)
    out += b2[:, None]
    return out, (x_in, hidden)


def encoder_table(enc, ws: NetBuffers | None = None):
    """The encoder on its M one-hot messages, one column each: the hidden
    layer relu(W1 + b1[:, None]), then the points W2 @ hidden + b2[:, None].
    These are the bits of mlp_forward(enc, I) on the M x M identity, whose
    products are exact zeros but one, with no identity and no [W1 | b1]
    copy. Returns (points, (None, hidden)); mlp_backward reads the None input
    as the identity. The results land in `ws`, net_buffers(enc, M,
    table=True), or with ws=None in new arrays.
    """
    w1, b1, w2, b2 = enc
    hidden, out = ((np.empty(w1.shape), np.empty((2, w1.shape[1]))) if ws is None
                   else (ws.hidden, ws.out))
    np.add(w1, b1[:, None], out=hidden)
    np.maximum(hidden, 0.0, out=hidden)
    np.matmul(w2, hidden, out=out)
    out += b2[:, None]
    return out, (None, hidden)


def mlp_backward(net, saved, d_out: np.ndarray, grads, ws: NetBuffers | None = None):
    """Backpropagate through a net given d(cost)/d(output).

    All arrays are (features, batch). For a softmax+cross-entropy head the
    caller passes probs - onehot (already averaged over the batch). `saved`
    is mlp_forward's (x, hidden), or encoder_table's (None, hidden) for the
    identity input, whose dW1 = dz @ I is dz itself (+ 0.0 turns the mask's
    -0.0 into the product's +0.0); the ReLU passes the gradient where its
    output is positive, which is where its pre-activation was. Writes the
    gradients into `grads`, the views [dW1, db1, dW2, db2], and returns the
    hidden pre-activation's gradient dz, from which a caller that needs
    d(cost)/d(x) forms W1.T @ dz. dz and the mask are the net's NetBuffers
    `ws`, or new with ws=None.
    """
    _, _, w2, _ = net
    x, hidden = saved
    gw1, gb1, gw2, gb2 = grads
    dz, mask = ((np.empty(hidden.shape), np.empty(hidden.shape, bool)) if ws is None
                else (ws.d_hidden, ws.mask))
    np.matmul(d_out, hidden.T, out=gw2)
    np.add.reduce(d_out, axis=1, out=gb2)
    np.matmul(w2.T, d_out, out=dz)
    dz *= np.greater(hidden, 0.0, out=mask)
    if x is None:
        np.add(dz, 0.0, out=gw1)
    else:
        np.matmul(dz, x.T, out=gw1)
    np.add.reduce(dz, axis=1, out=gb1)
    return dz


@dataclass
class AdamState:
    """Adam moments over a flat parameter vector, with two reusable buffers."""
    first_moment: np.ndarray
    second_moment: np.ndarray
    buffers: np.ndarray   # (2, n)
    step_count: int

    @classmethod
    def for_params(cls, params: NetworkParams):
        n = params.flat.size
        return cls(np.zeros(n), np.zeros(n), np.empty((2, n)), 0)


def adam_step(param_vec: np.ndarray, grad_vec: np.ndarray, state: AdamState) -> None:
    """In-place Adam update with bias correction of a flat parameter vector."""
    if not param_vec.shape == grad_vec.shape == state.first_moment.shape:
        raise ValueError(f"gradient shape {grad_vec.shape} != parameter shape {param_vec.shape}")
    state.step_count += 1
    t = state.step_count
    b1, b2 = ADAM_BETA1, ADAM_BETA2
    m, v, g = state.first_moment, state.second_moment, grad_vec
    s, r = state.buffers
    m *= b1
    m += np.multiply(g, 1.0 - b1, out=s)
    v *= b2
    np.multiply(g, 1.0 - b2, out=s)
    s *= g
    v += s
    np.divide(m, 1.0 - b1 ** t, out=s)     # m_hat
    s *= ADAM_LR
    np.divide(v, 1.0 - b2 ** t, out=r)     # v_hat
    np.sqrt(r, out=r)
    r += ADAM_EPS
    s /= r
    param_vec -= s


def xavier_uniform(out_dim: int, in_dim: int, rng: np.random.Generator) -> np.ndarray:
    bound = np.sqrt(6.0 / (in_dim + out_dim))
    return rng.uniform(-bound, bound, size=(out_dim, in_dim))


def init_params(m: int, seed: int) -> NetworkParams:
    """Xavier-uniform weights, zero biases; a pure function of (M, seed).

    The four weight matrices are drawn from one substream, in `flat` order.
    """
    params = NetworkParams(m)
    rng = substream(seed, ROLE_INIT)
    for w in params.encoder[::2] + params.decoder[::2]:
        w[:] = xavier_uniform(*w.shape, rng)
    return params


def _header(m: int) -> bytes:
    """The 48 bytes before an M-message checkpoint's payload: magic, u32
    version, u16 numbers of encoder and decoder layers (2 and 2), and each
    layer's u32 (out, in) weight shape. The payload is NetworkParams.flat as
    little-endian float64 (each layer's row-major weights, then its biases,
    encoder first)."""
    return (CHECKPOINT_MAGIC + struct.pack("<IHH", CHECKPOINT_VERSION, 2, 2)
            + b"".join(struct.pack("<II", *s) for s in layout(m)[::2]))


def save_checkpoint(path, params: NetworkParams) -> None:
    with open(path, "wb") as fh:
        fh.write(_header(params.m))
        fh.write(params.flat.astype("<f8", copy=False).tobytes())


def load_checkpoint(path) -> NetworkParams:
    """The parameters saved in `path`. A file that does not start with
    _header(M), for the M of its first layer's input, raises
    CheckpointFormatError, as does a payload of another size."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:8] != CHECKPOINT_MAGIC:
        raise CheckpointFormatError(f"bad magic in {path}")
    m = int.from_bytes(blob[20:24], "little")   # the first layer's input width
    # its out width, 2M, must fit a u32 too
    if m >= 2 ** 31 or not blob.startswith(_header(m)):
        raise CheckpointFormatError(
            f"{path} has no version-{CHECKPOINT_VERSION} header, or one whose layer "
            f"shapes are not the layers of an M-message autoencoder")
    if len(blob) != 48 + 8 * sum(math.prod(s) for s in layout(m)):
        raise CheckpointFormatError(f"payload size of {path} does not match its header")
    params = NetworkParams(m)
    params.flat[:] = np.frombuffer(blob, dtype="<f8", offset=48)
    return params
