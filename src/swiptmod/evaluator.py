"""Monte-Carlo SER estimation, delivered-power measurement and baselines."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import ROLE_EVAL, sample_noise, substream
from .nn import DenseLayer
from .transceiver import EPS_LOG, Constellation, decode

DEFAULT_BLOCK = 1 << 16
MIN_SAMPLES = 1_000


@dataclass
class EvalReport:
    ser: float
    ser_stderr: float
    p_del: float
    rate_bits: float
    num_samples: int
    cross_entropy: float = math.nan


def _ml_detect_batch(points: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Minimum-distance detection (ML for AWGN); ties to the lowest index."""
    pr, pi = points.real[:, None], points.imag[:, None]
    return np.argmin((y.real - pr) ** 2 + (y.imag - pi) ** 2, axis=0)


def estimate_ser(constellation: Constellation, decoder: list[DenseLayer] | None,
                 sigma2: float, num_samples: int, seed: int,
                 block_size: int = DEFAULT_BLOCK, num_shards: int = 1) -> EvalReport:
    """Monte-Carlo symbol error rate over the AWGN channel.

    Messages are drawn uniformly. Noise comes from fixed-size blocks, each
    with its own (seed, ROLE_EVAL, block) substream, so the result does not
    depend on how blocks are distributed over shards (error counts are merged
    by summation). decoder=None selects minimum-distance detection.
    """
    if num_samples < MIN_SAMPLES:
        raise ValueError(f"estimate_ser needs at least {MIN_SAMPLES} samples")
    points = constellation.points
    m = constellation.size
    num_blocks = (num_samples + block_size - 1) // block_size
    shard_errors = np.zeros(num_shards, dtype=np.int64)
    ce_sum = 0.0
    for blk in range(num_blocks):
        n = min(block_size, num_samples - blk * block_size)
        rng = substream(seed, ROLE_EVAL, blk)
        s = rng.integers(0, m, size=n)
        noise = sample_noise(n, sigma2, rng)
        y = points[s] + noise[:, 0] + 1j * noise[:, 1]
        if decoder is None:
            s_hat = _ml_detect_batch(points, y)
        else:
            probs = decode(decoder, y)
            s_hat = np.argmax(probs, axis=0)
            ce_sum += float(-np.log(np.maximum(probs[s, np.arange(n)],
                                               EPS_LOG)).sum())
        shard_errors[blk % num_shards] += int(np.sum(s_hat != s))
    errors = int(shard_errors.sum())
    ser = errors / num_samples
    stderr = math.sqrt(ser * (1.0 - ser) / num_samples)
    ce = ce_sum / num_samples if decoder is not None else math.nan
    return EvalReport(ser=ser, ser_stderr=stderr, p_del=math.nan,
                      rate_bits=math.log2(m), num_samples=num_samples,
                      cross_entropy=ce)


_QAM_GRIDS = {4: (2, 2), 8: (4, 2), 16: (4, 4), 32: (8, 4)}
_SUPPORTED_M = (4, 8, 16, 32)


def classical_baseline(kind: str, m: int, p_a: float) -> Constellation:
    """Uniform square/rectangular QAM or a PSK ring, mean power p_a."""
    if m not in _SUPPORTED_M:
        raise ValueError(f"unsupported constellation size {m}, pick from {_SUPPORTED_M}")
    if kind.upper() == "QAM":
        cols, rows = _QAM_GRIDS[m]
        re = np.arange(-(cols - 1), cols, 2, dtype=float)
        im = np.arange(-(rows - 1), rows, 2, dtype=float)
        pts = (re[:, None] + 1j * im[None, :]).ravel()
    elif kind.upper() == "PSK":
        pts = np.exp(2j * np.pi * np.arange(m) / m)
    else:
        raise ValueError(f"unknown baseline kind {kind!r}")
    probs = np.full(m, 1.0 / m)
    pts = pts * math.sqrt(p_a / float(np.mean(np.abs(pts) ** 2)))
    return Constellation(points=pts, probabilities=probs)
