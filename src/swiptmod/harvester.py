"""Differentiable delivered-power models of the nonlinear energy harvester.

Model A (small input power): P_del = alpha*(Q + Qtilde) + beta*P + gamma,
a polynomial in the second/fourth moments of the baseband symbol.

Model B (large input power): a normalized logistic of the instantaneous input
power, saturating at L_s, applied per symbol and averaged.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .transceiver import Constellation


@dataclass
class MomentSet:
    """The signal statistics feeding Model A.

    q, t, p are moments of |x|; the _r/_i entries are moments of the real and
    imaginary components (odd ones signed). t is unused by the Model A formula
    but computed for completeness.
    """
    q: float
    t: float
    p: float
    mu_r: float
    mu_i: float
    q_r: float
    t_r: float
    p_r: float
    q_i: float
    t_i: float
    p_i: float


@dataclass(frozen=True)
class ModelAParams:
    alpha: float
    beta: float
    gamma: float


@dataclass(frozen=True)
class ModelBParams:
    ls: float   # saturation power
    a: float    # steepness, 1/W
    b: float    # knee position, W

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
    if probabilities is None:
        return np.full(points.shape[0], 1.0 / points.shape[0])
    return np.asarray(probabilities, dtype=float)


def compute_moments(points, probabilities=None) -> MomentSet:
    """Moment statistics of a complex batch (mean) or constellation (weighted).

    Accepts a complex array plus optional probabilities, or a Constellation.
    """
    if isinstance(points, Constellation):
        probabilities = points.probabilities
        points = points.points
    x = np.asarray(points, dtype=complex).ravel()
    if x.size == 0:
        raise ValueError("empty input to compute_moments")
    w = _weights_for(x, probabilities)
    r, i = x.real, x.imag
    r2, i2 = r * r, i * i
    m2 = r2 + i2
    mag = np.sqrt(m2)
    return MomentSet(
        q=float(w @ (m2 * m2)),
        t=float(w @ (m2 * mag)),
        p=float(w @ m2),
        mu_r=float(w @ r),
        mu_i=float(w @ i),
        q_r=float(w @ (r2 * r2)),
        t_r=float(w @ (r2 * r)),
        p_r=float(w @ r2),
        q_i=float(w @ (i2 * i2)),
        t_i=float(w @ (i2 * i)),
        p_i=float(w @ i2),
    )


def q_tilde(m: MomentSet) -> float:
    return (m.q_r + m.q_i
            + 2.0 * (m.mu_r * m.t_r + m.mu_i * m.t_i)
            + 6.0 * m.p_r * m.p_i
            + 6.0 * m.p_r * (m.p_r - m.mu_r ** 2)
            + 6.0 * m.p_i * (m.p_i - m.mu_i ** 2)) / 3.0


def pdel_model_a(m: MomentSet, prm: ModelAParams) -> float:
    return prm.alpha * (m.q + q_tilde(m)) + prm.beta * m.p + prm.gamma


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


def model_b_per_symbol(powers, prm: ModelBParams):
    """Eq-per-symbol delivered power for input powers |x|^2 (array-valued)."""
    p_in = np.asarray(powers, dtype=float)
    omega = prm.omega
    psi = prm.ls * _sigmoid(prm.a * (p_in - prm.b))
    return (psi - prm.ls * omega) / (1.0 - omega)


def pdel_model_b(powers, prm: ModelBParams, probabilities=None) -> float:
    p_in = np.asarray(powers, dtype=float).ravel()
    w = _weights_for(p_in, probabilities)
    return float(w @ model_b_per_symbol(p_in, prm))


def pdel_model_b_with_grads(points, prm: ModelBParams, probabilities=None):
    """(P_del, dP_del/d re, dP_del/d im) for a weighted complex batch."""
    x = np.asarray(points, dtype=complex).ravel()
    w = _weights_for(x, probabilities)
    r, i = x.real, x.imag
    p_in = r * r + i * i
    sig = _sigmoid(prm.a * (p_in - prm.b))
    omega = prm.omega
    p_del = float(w @ ((prm.ls * sig - prm.ls * omega) / (1.0 - omega)))
    fprime = prm.ls * prm.a * sig * (1.0 - sig) / (1.0 - omega)
    dr = w * fprime * 2.0 * r
    di = w * fprime * 2.0 * i
    return p_del, dr, di


def pdel_with_grads(points, model: HarvesterModel, probabilities=None):
    if isinstance(model, ModelAParams):
        return pdel_model_a_with_grads(points, model, probabilities)
    return pdel_model_b_with_grads(points, model, probabilities)


def pdel_exact(constellation: Constellation, model: HarvesterModel) -> float:
    """Probability-weighted delivered power of a finite constellation."""
    if isinstance(model, ModelAParams):
        return pdel_model_a(compute_moments(constellation), model)
    return pdel_model_b(np.abs(constellation.points) ** 2, model,
                        constellation.probabilities)


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
        x = constellation.points[idx]
        if isinstance(model, ModelAParams):
            estimates[g] = pdel_model_a(compute_moments(x), model)
        else:
            estimates[g] = float(np.mean(model_b_per_symbol(np.abs(x) ** 2, model)))
    mean = float(estimates.mean())
    stderr = float(estimates.std(ddof=1) / np.sqrt(num_groups))
    return mean, stderr
