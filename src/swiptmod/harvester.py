"""Differentiable delivered-power models of the nonlinear energy harvester.

Model A (small input power): P_del = alpha*(Q + Qtilde) + beta*P + gamma,
a polynomial in the second/fourth moments of the baseband symbol.

Model B (large input power): a normalized logistic of the instantaneous input
power, saturating at L_s, applied per symbol and averaged.

Each model has one function giving P_del and its gradient together;
pdel_with_grads picks it, and pdel_exact is its value on a constellation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .transceiver import Constellation


@dataclass(frozen=True)
class ModelAParams:
    alpha: float
    beta: float
    gamma: float

    def __post_init__(self):
        if not (self.alpha > 0 and self.beta >= 0
                and math.isfinite(self.alpha + self.beta + self.gamma)):
            raise ValueError(f"Model A needs finite constants, alpha > 0 and "
                             f"beta >= 0, got {self}")


@dataclass(frozen=True)
class ModelBParams:
    ls: float   # saturation power
    a: float    # steepness, 1/W
    b: float    # knee position, W

    def __post_init__(self):
        if not (min(self.ls, self.a, self.b) > 0
                and math.isfinite(self.ls + self.a + self.b)):
            raise ValueError(f"Model B needs finite, positive constants, got {self}")

    @property
    def omega(self) -> float:
        # Same expression as the per-symbol sigmoid at zero input, so the
        # zero-input/zero-output cancellation is exact in floating point.
        return _sigmoid(-self.a * self.b)


HarvesterModel = ModelAParams | ModelBParams


def _sigmoid(t):
    scalar = np.ndim(t) == 0
    arr = np.atleast_1d(np.asarray(t, dtype=float))
    out = np.empty_like(arr)
    pos = arr >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-arr[pos]))
    e = np.exp(arr[~pos])
    out[~pos] = e / (1.0 + e)
    return float(out[0]) if scalar else out


def _weights_for(points: np.ndarray, probabilities) -> np.ndarray:
    if points.size == 0:
        raise ValueError("empty input to the harvester model")
    if probabilities is None:
        return np.full(points.shape[0], 1.0 / points.shape[0])
    return np.asarray(probabilities, dtype=float)


def pdel_model_a_with_grads(points, prm: ModelAParams, probabilities=None):
    """(P_del, dP_del/d re, dP_del/d im) for a weighted complex batch."""
    x = np.asarray(points, dtype=complex).ravel()
    w = _weights_for(x, probabilities)
    r, i = x.real, x.imag
    r2, i2 = r * r, i * i
    m2 = r2 + i2
    mu_r, mu_i = w @ r, w @ i
    p_r, p_i = w @ r2, w @ i2
    t_r, t_i = w @ (r2 * r), w @ (i2 * i)
    q_r, q_i = w @ (r2 * r2), w @ (i2 * i2)
    q = w @ (m2 * m2)
    p = p_r + p_i
    qt = (q_r + q_i + 2.0 * (mu_r * t_r + mu_i * t_i) + 6.0 * p_r * p_i
          + 6.0 * p_r * (p_r - mu_r ** 2) + 6.0 * p_i * (p_i - mu_i ** 2)) / 3.0
    p_del = prm.alpha * (q + qt) + prm.beta * p + prm.gamma

    # d(qt)/dr_k, every moment contributing a w_k factor
    dqt_r = (4.0 * r2 * r
             + 2.0 * (t_r + 3.0 * mu_r * r2)
             + 12.0 * r * p_i
             + 6.0 * (2.0 * r * (p_r - mu_r ** 2) + 2.0 * p_r * (r - mu_r))) * w / 3.0
    dqt_i = (4.0 * i2 * i
             + 2.0 * (t_i + 3.0 * mu_i * i2)
             + 12.0 * i * p_r
             + 6.0 * (2.0 * i * (p_i - mu_i ** 2) + 2.0 * p_i * (i - mu_i))) * w / 3.0
    dq_r = 4.0 * w * m2 * r
    dq_i = 4.0 * w * m2 * i
    dr = prm.alpha * (dq_r + dqt_r) + prm.beta * 2.0 * w * r
    di = prm.alpha * (dq_i + dqt_i) + prm.beta * 2.0 * w * i
    return float(p_del), dr, di


def _model_b_terms(p_in, prm: ModelBParams):
    """Per-symbol delivered power and its slope in the input power |x|^2."""
    sig = _sigmoid(prm.a * (p_in - prm.b))
    omega = prm.omega
    return ((prm.ls * sig - prm.ls * omega) / (1.0 - omega),
            prm.ls * prm.a * sig * (1.0 - sig) / (1.0 - omega))


def model_b_per_symbol(powers, prm: ModelBParams):
    """Per-symbol delivered power for input powers |x|^2 (array-valued)."""
    return _model_b_terms(np.asarray(powers, dtype=float), prm)[0]


def pdel_model_b(powers, prm: ModelBParams, probabilities=None) -> float:
    p_in = np.asarray(powers, dtype=float).ravel()
    w = _weights_for(p_in, probabilities)
    return float(w @ model_b_per_symbol(p_in, prm))


def pdel_model_b_with_grads(points, prm: ModelBParams, probabilities=None):
    """(P_del, dP_del/d re, dP_del/d im) for a weighted complex batch."""
    x = np.asarray(points, dtype=complex).ravel()
    w = _weights_for(x, probabilities)
    r, i = x.real, x.imag
    value, slope = _model_b_terms(r * r + i * i, prm)
    return float(w @ value), w * slope * 2.0 * r, w * slope * 2.0 * i


def pdel_with_grads(points, model: HarvesterModel, probabilities=None):
    """(P_del, dP_del/d re, dP_del/d im) of a weighted complex batch, uniform
    weights by default: the one delivered-power code, training and evaluation
    alike."""
    if isinstance(model, ModelAParams):
        return pdel_model_a_with_grads(points, model, probabilities)
    return pdel_model_b_with_grads(points, model, probabilities)


def pdel_exact(constellation: Constellation, model: HarvesterModel) -> float:
    """Probability-weighted delivered power of a finite constellation.

    Rejects non-finite points and negative or non-finite probabilities.
    """
    probs = constellation.probabilities
    if not (np.isfinite(constellation.points).all() and np.isfinite(probs).all()
            and (probs >= 0.0).all()):
        raise ValueError("pdel_exact needs finite points and finite, "
                         "non-negative probabilities")
    return pdel_with_grads(constellation.points, model, probs)[0]


def pdel_monte_carlo_check(constellation: Constellation, model: HarvesterModel,
                           num_samples: int, rng: np.random.Generator,
                           num_groups: int = 100):
    """Monte-Carlo estimate of P_del with a batch-means standard error.

    Samples messages by their probabilities and re-estimates the model from
    each group of samples; intended as a test oracle, not a production path.
    """
    if num_samples < 10_000:
        raise ValueError("pdel_monte_carlo_check needs at least 1e4 samples")
    group = num_samples // num_groups
    estimates = np.empty(num_groups)
    probs = constellation.probabilities
    for g in range(num_groups):
        idx = rng.choice(constellation.size, size=group, p=probs)
        estimates[g] = pdel_with_grads(constellation.points[idx], model)[0]
    mean = float(estimates.mean())
    stderr = float(estimates.std(ddof=1) / np.sqrt(num_groups))
    return mean, stderr
