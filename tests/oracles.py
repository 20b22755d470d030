"""Reference implementations the tests check the library against.

The QAM/PSK baselines, the Monte-Carlo P_del estimate and the scalar Model B
serve acceptance criteria 2-4 and the unit tests; no command runs them. The
Monte-Carlo check and Model B call the library's own harvester code
(pdel_with_grads, _model_b_terms), so the tests still exercise it.
"""

import math

import numpy as np

from swiptmod.harvester import (HarvesterModel, ModelBParams, _model_b_terms,
                                _rows, pdel_with_grads)
from swiptmod.transceiver import Constellation

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


def model_b_per_symbol(powers, prm: ModelBParams):
    """Per-symbol delivered power for input powers |x|^2 (array-valued)."""
    return _model_b_terms(np.asarray(powers, dtype=float), prm)[0]


def pdel_model_b(powers, prm: ModelBParams, probabilities=None) -> float:
    """Weighted Model B delivered power of input powers |x|^2, uniform
    weights by default."""
    p_in = np.asarray(powers, dtype=float).ravel()
    w = (np.full(p_in.size, 1.0 / p_in.size) if probabilities is None
         else np.asarray(probabilities, dtype=float))
    return float(w @ model_b_per_symbol(p_in, prm))


def pdel_monte_carlo_check(constellation: Constellation, model: HarvesterModel,
                           num_samples: int, rng: np.random.Generator,
                           num_groups: int = 100):
    """Monte-Carlo estimate of P_del with a batch-means standard error.

    Samples messages by their probabilities and re-estimates the model from
    each group of samples, weighted uniformly.
    """
    if num_samples < 10_000:
        raise ValueError("pdel_monte_carlo_check needs at least 1e4 samples")
    group = num_samples // num_groups
    estimates = np.empty(num_groups)
    probs = constellation.probabilities
    rows = _rows(constellation.points)
    uniform = np.full(group, 1.0 / group)
    for g in range(num_groups):
        idx = rng.choice(constellation.size, size=group, p=probs)
        estimates[g] = pdel_with_grads(rows[:, idx], model, uniform)[0]
    mean = float(estimates.mean())
    stderr = float(estimates.std(ddof=1) / np.sqrt(num_groups))
    return mean, stderr
