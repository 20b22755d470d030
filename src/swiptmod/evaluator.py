"""Monte-Carlo SER estimation of a constellation and its decoder."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import ROLE_EVAL, sample_noise, substream
from .nn import DenseLayer, scratch
from .transceiver import EPS_LOG, Constellation, decode

BLOCK_SIZE = 1 << 16   # samples per RNG block, each with its own substream
MIN_SAMPLES = 1_000
_TILE = 1 << 13   # samples per compute tile: its (M, tile) buffers stay in cache
_COLS = np.arange(_TILE)
_WS = {}   # estimate_ser's buffers; kept between calls, so no call re-faults them


@dataclass
class EvalReport:
    ser: float
    ser_stderr: float
    rate_bits: float
    num_samples: int
    cross_entropy: float = math.nan


def _first_match(a: np.ndarray, extreme: np.ndarray, out: np.ndarray,
                 mask: np.ndarray) -> None:
    """Row index of each column's first entry equal to `extreme` (its max or
    min), so ties go to the lowest index as with np.argmax/np.argmin."""
    for k in range(a.shape[0] - 1, -1, -1):
        np.putmask(out, np.equal(a[k], extreme, out=mask), k)


def estimate_ser(constellation: Constellation, decoder: list[DenseLayer] | None,
                 sigma2: float, num_samples: int, seed: int) -> EvalReport:
    """Monte-Carlo symbol error rate over the AWGN channel.

    Uniform messages and their noise come from blocks of BLOCK_SIZE samples,
    each with its own (seed, ROLE_EVAL, block) substream, so the result
    depends only on (seed, num_samples): not on the tile size, nor on earlier
    calls. decoder=None selects minimum-distance detection; a decoder must
    map 2 inputs to M outputs. Each block's messages are drawn whole; its
    noise is drawn and detected in column tiles of _TILE samples. Every
    buffer lives in the module workspace _WS, kept from call to call, so
    this is not thread-safe.
    """
    if num_samples < MIN_SAMPLES:
        raise ValueError(f"estimate_ser needs at least {MIN_SAMPLES} samples")
    if not (math.isfinite(sigma2) and sigma2 >= 0.0):
        raise ValueError(f"noise variance must be finite and >= 0, got {sigma2}")
    points = constellation.points
    if not np.isfinite(points).all():
        raise ValueError("non-finite constellation points")
    m = constellation.size
    if decoder is not None and (decoder[0].in_dim, decoder[-1].out_dim) != (2, m):
        raise ValueError(f"decoder maps {decoder[0].in_dim} inputs to "
                         f"{decoder[-1].out_dim} outputs, need 2 to {m}")
    pr, pi = points.real, points.imag
    num_blocks = (num_samples + BLOCK_SIZE - 1) // BLOCK_SIZE
    ws = _WS   # kept from call to call
    errors = 0
    ce_sum = 0.0
    for blk in range(num_blocks):
        n = min(BLOCK_SIZE, num_samples - blk * BLOCK_SIZE)
        rng = substream(seed, ROLE_EVAL, blk)
        s = rng.integers(0, m, size=n)
        picked = scratch(ws, "picked", (n,)) if decoder is not None else None
        for t0 in range(0, n, _TILE):
            w = min(_TILE, n - t0)
            st = s[t0:t0 + w]
            noise = sample_noise(w, sigma2, rng, out=scratch(ws, "noise", (w, 2)))
            y = scratch(ws, "y", (2, w))
            for row, part in enumerate((pr, pi)):
                np.take(part, st, out=y[row], mode="clip")
                y[row] += noise[:, row]
            if decoder is None:
                a = np.subtract(y[0], pr[:, None], out=scratch(ws, "d2", (m, w)))
                np.square(a, out=a)
                d = np.subtract(y[1], pi[:, None], out=scratch(ws, "d", (m, w)))
                a += np.square(d, out=d)
                top = a.min(axis=0, out=scratch(ws, "top", (w,)))
            else:
                a = decode(decoder, y, ws)
                top = a.max(axis=0, out=scratch(ws, "top", (w,)))
                idx = np.multiply(st, w, out=scratch(ws, "idx", (w,), np.int64))
                idx += _COLS[:w]
                np.take(a.reshape(-1), idx, out=picked[t0:t0 + w], mode="clip")
            s_hat = scratch(ws, "s_hat", (w,), np.int64)
            _first_match(a, top, s_hat, mask := scratch(ws, "mask", (w,), bool))
            errors += int(np.count_nonzero(np.not_equal(s_hat, st, out=mask)))
        if decoder is not None:   # one sum per block keeps the summation order
            p = np.maximum(picked, EPS_LOG, out=picked)
            ce_sum -= float(np.log(p, out=p).sum())
    ser = errors / num_samples
    stderr = math.sqrt(ser * (1.0 - ser) / num_samples)
    ce = ce_sum / num_samples if decoder is not None else math.nan
    return EvalReport(ser=ser, ser_stderr=stderr, rate_bits=math.log2(m),
                      num_samples=num_samples, cross_entropy=ce)
