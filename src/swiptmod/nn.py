"""Minimal dense-network engine.

Forward pass, hand-written reverse-mode gradients for the fixed
encoder -> normalization -> channel -> decoder graph (the chain itself lives
in trainer.py), Adam updates, Xavier/zero initialization and a binary
checkpoint format. Everything is float64 and deterministic given its inputs.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .channel import ROLE_INIT, substream

RELU = "relu"
LINEAR = "linear"
SOFTMAX = "softmax"

CHECKPOINT_MAGIC = b"SWPTAE01"
CHECKPOINT_VERSION = 1


class CheckpointFormatError(Exception):
    """Raised when a checkpoint file fails magic/version/shape validation."""


@dataclass
class DenseLayer:
    weights: np.ndarray  # (out, in)
    biases: np.ndarray   # (out,)
    activation: str

    @property
    def in_dim(self) -> int:
        return self.weights.shape[1]

    @property
    def out_dim(self) -> int:
        return self.weights.shape[0]


@dataclass
class NetworkParams:
    encoder: list[DenseLayer]
    decoder: list[DenseLayer]

    def arrays(self) -> list[np.ndarray]:
        """Flat list of parameter arrays, encoder first, W before b per layer."""
        out = []
        for layer in self.encoder + self.decoder:
            out.append(layer.weights)
            out.append(layer.biases)
        return out


def apply_activation(z: np.ndarray, kind: str) -> np.ndarray:
    if kind == RELU:
        return np.maximum(z, 0.0)
    if kind == LINEAR:
        return z
    if kind == SOFTMAX:
        return softmax(z)
    raise ValueError(f"unknown activation {kind!r}")


def softmax(logits: np.ndarray) -> np.ndarray:
    """Numerically stabilized softmax over axis 0, one column per sample.

    The input is left unchanged; the result is a new array.
    """
    z = np.asarray(logits, dtype=float)
    if not np.all(np.isfinite(z)):
        raise FloatingPointError("non-finite logits passed to softmax")
    e = z - z.max(axis=0)
    np.exp(e, out=e)
    e /= e.sum(axis=0)
    return e


def mlp_forward(layers: list[DenseLayer], x: np.ndarray):
    """Run a stack of layers on (features, batch) columns.

    Returns (output, pre-activations, post-activations); post[0] is the input
    itself and post[-1] the network output.
    """
    zs = []
    post = [np.asarray(x, dtype=float)]
    h = post[0]
    for layer in layers:
        z = layer.weights @ h
        z += layer.biases[:, None]
        zs.append(z)
        h = apply_activation(z, layer.activation)
        post.append(h)
    return h, zs, post


def mlp_backward(layers: list[DenseLayer], zs, post, d_last_z: np.ndarray):
    """Backpropagate through a stack given d(cost)/d(last pre-activation).

    All arrays are (features, batch). For a softmax+cross-entropy head the
    caller passes probs - onehot (already averaged over the batch); for a
    linear head the upstream gradient itself. Reads post[:len(layers)] and
    zs[:len(layers) - 1]. Returns ([(dW, db), ...], d_input); an empty stack
    passes d_last_z through.
    """
    grads = [None] * len(layers)
    dz = d_last_z
    dinp = d_last_z
    for li in reversed(range(len(layers))):
        grads[li] = (dz @ post[li].T, dz.sum(axis=1))
        dinp = layers[li].weights.T @ dz
        if li > 0:
            kind = layers[li - 1].activation
            if kind == RELU:
                dinp *= zs[li - 1] > 0.0
            elif kind != LINEAR:
                raise ValueError(f"no elementwise gradient for activation {kind!r}")
            dz = dinp
    return grads, dinp


@dataclass
class AdamState:
    first_moment: list[np.ndarray]
    second_moment: list[np.ndarray]
    step_count: int
    learning_rate: float
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8

    @classmethod
    def for_params(cls, params: NetworkParams, learning_rate: float,
                   beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        arrays = params.arrays()
        return cls(first_moment=[np.zeros_like(a) for a in arrays],
                   second_moment=[np.zeros_like(a) for a in arrays],
                   step_count=0, learning_rate=learning_rate,
                   beta1=beta1, beta2=beta2, eps=eps)


def adam_step(param_arrays: list[np.ndarray], grad_arrays: list[np.ndarray],
              state: AdamState) -> None:
    """In-place Adam update with bias correction."""
    if len(param_arrays) != len(grad_arrays):
        raise ValueError("parameter/gradient list length mismatch")
    state.step_count += 1
    t = state.step_count
    b1, b2 = state.beta1, state.beta2
    for p, g, m, v in zip(param_arrays, grad_arrays,
                          state.first_moment, state.second_moment):
        if p.shape != g.shape:
            raise ValueError(f"gradient shape {g.shape} != parameter shape {p.shape}")
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * g * g
        m_hat = m / (1.0 - b1 ** t)
        v_hat = v / (1.0 - b2 ** t)
        p -= state.learning_rate * m_hat / (np.sqrt(v_hat) + state.eps)


def xavier_uniform(out_dim: int, in_dim: int, rng: np.random.Generator) -> np.ndarray:
    bound = np.sqrt(6.0 / (in_dim + out_dim))
    return rng.uniform(-bound, bound, size=(out_dim, in_dim))


def _build_stack(dims: list[int], final_act: str, rng: np.random.Generator):
    layers = []
    for i in range(len(dims) - 1):
        act = final_act if i == len(dims) - 2 else RELU
        layers.append(DenseLayer(weights=xavier_uniform(dims[i + 1], dims[i], rng),
                                 biases=np.zeros(dims[i + 1]),
                                 activation=act))
    return layers


def init_params(enc_dims: list[int], dec_dims: list[int], seed: int) -> NetworkParams:
    """Xavier-uniform weights, zero biases; pure function of (dims, seed).

    Encoder hidden layers are ReLU with a linear 2-wide output (re, im);
    decoder hidden layers are ReLU with a softmax output.
    """
    for dims, name in ((enc_dims, "encoder"), (dec_dims, "decoder")):
        if len(dims) < 2 or any(d <= 0 for d in dims):
            raise ValueError(f"invalid {name} dims {dims}")
    rng = substream(seed, ROLE_INIT)
    encoder = _build_stack(list(enc_dims), LINEAR, rng)
    decoder = _build_stack(list(dec_dims), SOFTMAX, rng)
    return NetworkParams(encoder=encoder, decoder=decoder)


# ---------------------------------------------------------------------------
# Checkpoint format: magic, u32 version, u16 number of encoder/decoder layers,
# per-layer u32 (out, in), then row-major little-endian float64 weights and
# biases, encoder first.
# ---------------------------------------------------------------------------

def save_checkpoint(path, params: NetworkParams) -> None:
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<IHH", CHECKPOINT_VERSION,
                             len(params.encoder), len(params.decoder)))
        for layer in params.encoder + params.decoder:
            fh.write(struct.pack("<II", layer.out_dim, layer.in_dim))
        for layer in params.encoder + params.decoder:
            fh.write(np.ascontiguousarray(layer.weights, dtype="<f8").tobytes())
            fh.write(np.ascontiguousarray(layer.biases, dtype="<f8").tobytes())


def load_checkpoint(path) -> NetworkParams:
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:8] != CHECKPOINT_MAGIC:
        raise CheckpointFormatError(f"bad magic in {path}")
    try:
        version, n_enc, n_dec = struct.unpack_from("<IHH", blob, 8)
    except struct.error as exc:
        raise CheckpointFormatError(f"truncated header in {path}") from exc
    if version != CHECKPOINT_VERSION:
        raise CheckpointFormatError(f"unsupported checkpoint version {version}")
    off = 16
    shapes = []
    for _ in range(n_enc + n_dec):
        try:
            out_dim, in_dim = struct.unpack_from("<II", blob, off)
        except struct.error as exc:
            raise CheckpointFormatError(f"truncated shape table in {path}") from exc
        shapes.append((out_dim, in_dim))
        off += 8
    layers = []
    for out_dim, in_dim in shapes:
        need = 8 * (out_dim * in_dim + out_dim)
        if off + need > len(blob):
            raise CheckpointFormatError(f"truncated payload in {path}")
        w = np.frombuffer(blob, dtype="<f8", count=out_dim * in_dim, offset=off)
        off += 8 * out_dim * in_dim
        b = np.frombuffer(blob, dtype="<f8", count=out_dim, offset=off)
        off += 8 * out_dim
        layers.append(DenseLayer(weights=w.reshape(out_dim, in_dim).astype(float),
                                 biases=b.astype(float), activation=LINEAR))
    encoder, decoder = layers[:n_enc], layers[n_enc:]
    for stack, final in ((encoder, LINEAR), (decoder, SOFTMAX)):
        for i, layer in enumerate(stack):
            layer.activation = final if i == len(stack) - 1 else RELU
    return NetworkParams(encoder=encoder, decoder=decoder)
