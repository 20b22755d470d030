"""Monte-Carlo SER estimation of a constellation and its decoder."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import ROLE_EVAL, sample_noise, substream
from .nn import scratch
from .transceiver import EPS_LOG, Constellation, decode

BLOCK_SIZE = 1 << 16   # samples per RNG block, each with its own substream
MIN_SAMPLES = 1_000
_TILE = 1 << 13   # samples per compute tile: its (M, tile) buffers stay in cache
_COLS = np.arange(_TILE)
_WS = {}   # estimate_ser's buffers; kept between calls, so no call re-faults them
# no e = exp(z - max z) at or below this has e / s round to fl(1 / s): 1.0 and
# 1 - 2^-51 are 4 ulps apart, so their exact quotients are 2 ulps apart or more
NEAR_ONE = 1.0 - 2.0 ** -51


@dataclass
class EvalReport:
    ser: float
    ser_stderr: float
    rate_bits: float
    num_samples: int
    cross_entropy: float = math.nan


def _first(hits: np.ndarray, ranks: np.ndarray, ws: dict) -> np.ndarray:
    """Row index of each column's first nonzero entry of `hits`, an (M, w)
    0/1 buffer of the ranks' dtype, overwritten. Weighted by the reversed
    ranks M..1 (an (M, 1) column), the hits peak at the first one, whose
    rank is M minus its index. The result is a workspace buffer of the
    ranks' dtype."""
    m, w = hits.shape
    hits *= ranks
    best = hits.max(axis=0, out=scratch(ws, "best", (w,), ranks.dtype))
    return np.subtract(m, best, out=best)


def _decide(e: np.ndarray, sums: np.ndarray, ranks: np.ndarray, ws: dict) -> np.ndarray:
    """np.argmax of decode's probabilities e / sums over axis 0, without
    dividing e. Each column's top e is exactly 1.0, so its largest
    probability is fl(1 / sums), which no e <= NEAR_ONE reaches: the first
    e >= NEAR_ONE is the answer when it is 1.0, and the rare other columns
    are decided on their probabilities."""
    m, w = e.shape
    hits = scratch(ws, "hits", (m, w), ranks.dtype)
    s_hat = _first(np.greater_equal(e, NEAR_ONE, out=hits), ranks, ws)
    at = np.multiply(s_hat, w, out=scratch(ws, "at", (w,), np.int64), dtype=np.int64)
    at += _COLS[:w]
    first = np.take(e.reshape(-1), at, out=scratch(ws, "first", (w,)), mode="clip")
    near = np.flatnonzero(first != 1.0)
    if near.size:
        s_hat[near] = np.argmax(e[:, near] / sums[near], axis=0)
    return s_hat


def estimate_ser(constellation: Constellation, decoder: list[np.ndarray] | None,
                 sigma2: float, num_samples: int, seed: int) -> EvalReport:
    """Monte-Carlo symbol error rate over the AWGN channel.

    Uniform messages and their noise come from blocks of BLOCK_SIZE samples,
    each with its own (seed, ROLE_EVAL, block) substream, so the result
    depends only on (seed, num_samples): not on the tile size, nor on earlier
    calls. decoder=None selects minimum-distance detection; a decoder
    (nn.NetworkParams.decoder) must have M outputs. Each block's messages
    are drawn whole; its noise is drawn and detected in column tiles of
    _TILE samples. Every buffer lives in the module workspace _WS, kept from
    call to call, so this is not thread-safe.
    """
    if num_samples < MIN_SAMPLES:
        raise ValueError(f"estimate_ser needs at least {MIN_SAMPLES} samples")
    if not (math.isfinite(sigma2) and sigma2 >= 0.0):
        raise ValueError(f"noise variance must be finite and >= 0, got {sigma2}")
    points = constellation.points
    if not np.isfinite(points).all():
        raise ValueError("non-finite constellation points")
    m = constellation.size
    if decoder is not None and decoder[2].shape[0] != m:
        raise ValueError(f"decoder maps to {decoder[2].shape[0]} outputs, need {m}")
    pr, pi = points.real, points.imag
    ranks = np.arange(m, 0, -1, dtype=np.min_scalar_type(m))[:, None]
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
                hits = np.equal(a, top, out=scratch(ws, "hits", (m, w), ranks.dtype))
                s_hat = _first(hits, ranks, ws)
            else:
                e, sums = decode(decoder, y, ws)
                # each sample's probability of its own message: e / sums there
                idx = np.multiply(st, w, out=scratch(ws, "idx", (w,), np.int64))
                idx += _COLS[:w]
                own = np.take(e.reshape(-1), idx, out=picked[t0:t0 + w], mode="clip")
                own /= sums
                s_hat = _decide(e, sums, ranks, ws)
            wrong = np.not_equal(s_hat, st, out=scratch(ws, "wrong", (w,), bool))
            errors += int(np.count_nonzero(wrong))
        if decoder is not None:   # one sum per block keeps the summation order
            p = np.maximum(picked, EPS_LOG, out=picked)
            ce_sum -= float(np.log(p, out=p).sum())
    ser = errors / num_samples
    stderr = math.sqrt(ser * (1.0 - ser) / num_samples)
    ce = ce_sum / num_samples if decoder is not None else math.nan
    return EvalReport(ser=ser, ser_stderr=stderr, rate_bits=math.log2(m),
                      num_samples=num_samples, cross_entropy=ce)
