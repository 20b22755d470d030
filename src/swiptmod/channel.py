"""Complex-baseband AWGN channel and reproducible random-number streams."""

from __future__ import annotations

import numpy as np

# Stream roles. Every generator in the project is derived from
# (seed, role, *indices) through `substream`, so parallel restarts and
# Monte-Carlo shards can never consume overlapping noise.
ROLE_DATA = 0
ROLE_NOISE = 1
ROLE_INIT = 2
ROLE_EVAL = 3
ROLE_MISC = 4


def substream(seed: int, *indices: int) -> np.random.Generator:
    """Counter-based Philox generator for the stream keyed by (seed, *indices).

    Identical (seed, indices) always yields the identical sequence; distinct
    index tuples yield disjoint streams.
    """
    ss = np.random.SeedSequence(entropy=int(seed),
                                spawn_key=tuple(int(i) for i in indices))
    return np.random.Generator(np.random.Philox(ss))


def derive_seed(seed: int, *indices: int) -> int:
    """Deterministic child seed for (seed, *indices), e.g. one per restart."""
    ss = np.random.SeedSequence(entropy=int(seed),
                                spawn_key=tuple(int(i) for i in indices))
    return int(ss.generate_state(1, dtype=np.uint64)[0])


def sample_noise(num: int, sigma2: float, rng: np.random.Generator,
                 out: np.ndarray | None = None) -> np.ndarray:
    """(num, 2) array of real/imag noise components, variance sigma2/2 each,
    drawn into `out` if given; draws in chunks give the numbers of one draw."""
    out = np.empty((num, 2)) if out is None else out
    if sigma2 == 0.0:
        out.fill(0.0)
        return out
    rng.standard_normal(out=out)
    out *= np.sqrt(sigma2 / 2.0)
    return out
