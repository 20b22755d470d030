"""Minimal dense-network engine.

Every stack has one fixed shape: ReLU hidden layers and a linear last layer
(the encoder's 2-wide output, the decoder's logits, whose softmax its callers
apply). Forward pass, hand-written reverse-mode gradients for the fixed
encoder -> normalization -> channel -> decoder graph (the chain itself lives
in trainer.py), Adam updates, Xavier/zero initialization and a binary
checkpoint format. Everything is float64 and deterministic given its inputs.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field

import numpy as np

from .channel import ROLE_INIT, substream

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8

CHECKPOINT_MAGIC = b"SWPTAE01"
CHECKPOINT_VERSION = 1


class CheckpointFormatError(Exception):
    """Raised when a checkpoint file fails magic/version/shape validation."""


@dataclass
class DenseLayer:
    weights: np.ndarray  # (out, in)
    biases: np.ndarray   # (out,)

    @property
    def in_dim(self) -> int:
        return self.weights.shape[1]

    @property
    def out_dim(self) -> int:
        return self.weights.shape[0]


@dataclass
class NetworkParams:
    """Encoder and decoder stacks over one contiguous float64 vector `flat`.

    Construction copies the layers' arrays into `flat` and makes each layer's
    weights and biases views into it, in arrays() order; that order is also
    the checkpoint payload. Update the arrays in place, never rebind them.
    """
    encoder: list[DenseLayer]
    decoder: list[DenseLayer]
    flat: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        self.flat = np.concatenate([a.ravel() for a in self.arrays()], dtype=float)
        views = self.views(self.flat)
        for layer, w, b in zip(self.encoder + self.decoder, views[::2], views[1::2]):
            layer.weights, layer.biases = w, b

    def arrays(self) -> list[np.ndarray]:
        """Flat list of parameter arrays, encoder first, W before b per layer."""
        return [a for layer in self.encoder + self.decoder
                for a in (layer.weights, layer.biases)]

    def views(self, vec: np.ndarray) -> list[np.ndarray]:
        """Views of a vector laid out like `flat`, shaped like arrays()."""
        out, off = [], 0
        for a in self.arrays():
            out.append(vec[off:off + a.size].reshape(a.shape))
            off += a.size
        return out


def scratch(ws: dict | None, key, shape, dtype=float) -> np.ndarray | None:
    """Workspace buffer `key` shaped `shape`: a view of the key's one flat buffer,
    grown to the largest size asked for. None without a workspace, so
    `out=scratch(...)` lets NumPy allocate on the same line."""
    if ws is None:
        return None
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
    top = z.max(axis=0)
    # all entries are finite iff the largest and the smallest are
    if not (np.isfinite(top.max()) and np.isfinite(z.min())):
        raise FloatingPointError("non-finite logits passed to softmax")
    e = np.subtract(z, top, out=out)
    np.exp(e, out=e)
    return e, e.sum(axis=0)


def softmax(logits: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Numerically stabilized softmax over axis 0, one column per sample:
    softmax_terms' e / s, in e's buffer (`out` as there)."""
    e, s = softmax_terms(logits, out)
    e /= s
    return e


def mlp_forward(layers: list[DenseLayer], x: np.ndarray, ws: dict | None = None,
                key: str = ""):
    """Run a stack of layers on (features, batch) columns.

    Every layer but the last is ReLU, applied in place over its
    pre-activation; the last is linear. The first layer is one matmul of
    [W | b], copied into a workspace block, by the input over a row of ones:
    the bias is the last term of each dot product, so for an identity or
    2-wide input this rounds as W @ x + b[:, None]. Later layers add their
    bias after the matmul, as BLAS may split their wider dot products into
    partial sums. Returns (output, post-activations); post[0] is the input
    itself and post[-1] the output. Every result lands in workspace buffers
    under `key`, which must differ between stacks sharing one workspace;
    with ws=None they are all new.
    """
    if ws is None:
        ws = {}
    post = [np.asarray(x, dtype=float)]
    rows, batch = post[0].shape
    h = scratch(ws, (key, "x"), (rows + 1, batch))
    h[:rows] = post[0]
    h[rows] = 1.0
    last = len(layers) - 1
    for li, layer in enumerate(layers):
        z = scratch(ws, (key, "z", li), (layer.out_dim, batch))
        if li == 0:
            wb = scratch(ws, (key, "wb"), (layer.out_dim, rows + 1))
            wb[:, :rows] = layer.weights
            wb[:, rows] = layer.biases
            np.matmul(wb, h, out=z)
        else:
            np.matmul(layer.weights, h, out=z)
            z += layer.biases[:, None]
        if li < last:
            np.maximum(z, 0.0, out=z)
        post.append(z)
        h = z
    return post[-1], post


def mlp_backward(layers: list[DenseLayer], post, d_last_z: np.ndarray,
                 grads: list[np.ndarray], ws: dict | None = None, key: str = ""):
    """Backpropagate through a stack given d(cost)/d(last pre-activation).

    All arrays are (features, batch). For a softmax+cross-entropy head the
    caller passes probs - onehot (already averaged over the batch). Reads
    post[:len(layers)]; a ReLU passes the gradient where its output is
    positive, which is where its pre-activation was. Writes the layer
    gradients into `grads`, the views [dW0, db0, dW1, ...], and returns
    d(cost)/d(input); an empty stack passes d_last_z through. `ws` and `key`
    are as in mlp_forward.
    """
    dz = d_last_z
    dinp = d_last_z
    for li in reversed(range(len(layers))):
        np.matmul(dz, post[li].T, out=grads[2 * li])
        dz.sum(axis=1, out=grads[2 * li + 1])
        shape = (layers[li].in_dim, dz.shape[1])
        dinp = np.matmul(layers[li].weights.T, dz, out=scratch(ws, (key, "d", li), shape))
        if li > 0:
            dinp *= np.greater(post[li], 0.0,
                               out=scratch(ws, (key, "mask", li), shape, bool))
            dz = dinp
    return dinp


@dataclass
class AdamState:
    """Adam moments over a flat parameter vector, with two reusable buffers."""
    first_moment: np.ndarray
    second_moment: np.ndarray
    buffers: np.ndarray   # (2, n)
    step_count: int
    learning_rate: float

    @classmethod
    def for_params(cls, params: NetworkParams, learning_rate: float):
        n = params.flat.size
        return cls(np.zeros(n), np.zeros(n), np.empty((2, n)), 0, learning_rate)


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
    s *= state.learning_rate
    np.divide(v, 1.0 - b2 ** t, out=r)     # v_hat
    np.sqrt(r, out=r)
    r += ADAM_EPS
    s /= r
    param_vec -= s


def xavier_uniform(out_dim: int, in_dim: int, rng: np.random.Generator) -> np.ndarray:
    bound = np.sqrt(6.0 / (in_dim + out_dim))
    return rng.uniform(-bound, bound, size=(out_dim, in_dim))


def _build_stack(dims: list[int], rng: np.random.Generator):
    return [DenseLayer(weights=xavier_uniform(dims[i + 1], dims[i], rng),
                       biases=np.zeros(dims[i + 1]))
            for i in range(len(dims) - 1)]


def init_params(enc_dims: list[int], dec_dims: list[int], seed: int) -> NetworkParams:
    """Xavier-uniform weights, zero biases; pure function of (dims, seed).

    The encoder's output is 2-wide (re, im); the decoder's are the logits.
    """
    for dims, name in ((enc_dims, "encoder"), (dec_dims, "decoder")):
        if len(dims) < 2 or any(d <= 0 for d in dims):
            raise ValueError(f"invalid {name} dims {dims}")
    rng = substream(seed, ROLE_INIT)
    encoder = _build_stack(list(enc_dims), rng)
    decoder = _build_stack(list(dec_dims), rng)
    return NetworkParams(encoder=encoder, decoder=decoder)


# ---------------------------------------------------------------------------
# Checkpoint format: magic, u32 version, u16 number of encoder/decoder layers,
# per-layer u32 (out, in), then NetworkParams.flat as little-endian float64
# (each layer's row-major weights, then its biases, encoder first).
# ---------------------------------------------------------------------------

def save_checkpoint(path, params: NetworkParams) -> None:
    layers = params.encoder + params.decoder
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<IHH", CHECKPOINT_VERSION,
                             len(params.encoder), len(params.decoder)))
        fh.write(b"".join(struct.pack("<II", *l.weights.shape) for l in layers))
        fh.write(params.flat.astype("<f8", copy=False).tobytes())


def load_checkpoint(path) -> NetworkParams:
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:8] != CHECKPOINT_MAGIC:
        raise CheckpointFormatError(f"bad magic in {path}")
    try:
        version, n_enc, n_dec = struct.unpack_from("<IHH", blob, 8)
        shapes = [struct.unpack_from("<II", blob, 16 + 8 * i)
                  for i in range(n_enc + n_dec)]
    except struct.error as exc:
        raise CheckpointFormatError(f"truncated header in {path}") from exc
    if version != CHECKPOINT_VERSION:
        raise CheckpointFormatError(f"unsupported checkpoint version {version}")
    if not (n_enc and n_dec):
        raise CheckpointFormatError(f"empty encoder or decoder in {path}")
    off = 16 + 8 * len(shapes)
    if off + 8 * sum(o * i + o for o, i in shapes) != len(blob):
        raise CheckpointFormatError(f"payload size of {path} does not match its header")
    layers = [DenseLayer(np.empty((o, i)), np.empty(o)) for o, i in shapes]
    params = NetworkParams(encoder=layers[:n_enc], decoder=layers[n_enc:])
    params.flat[:] = np.frombuffer(blob, dtype="<f8", count=params.flat.size, offset=off)
    return params
