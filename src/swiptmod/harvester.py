"""Differentiable delivered-power models of the nonlinear energy harvester.

Model A (small input power): P_del = alpha*(Q + Qtilde) + beta*P + gamma,
a polynomial in the second/fourth moments of the baseband symbol.

Model B (large input power): a normalized logistic of the instantaneous input
power, saturating at L_s, applied per symbol and averaged.

Points are real (2, M) rows (re, im). Each model has one function giving
P_del and its (2, M) gradient together; pdel_with_grads picks it, and
pdel_exact is its value on a constellation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .nn import scratch
from .transceiver import Constellation


@dataclass(frozen=True)
class ModelAParams:
    alpha: float
    beta: float
    gamma: float

    def __post_init__(self):
        if not (self.alpha > 0 and self.beta >= 0
                and all(map(math.isfinite, (self.alpha, self.beta, self.gamma)))):
            raise ValueError(f"Model A needs finite constants, alpha > 0 and "
                             f"beta >= 0, got {self}")


@dataclass(frozen=True)
class ModelBParams:
    ls: float   # saturation power
    a: float    # steepness, 1/W
    b: float    # knee position, W

    def __post_init__(self):
        if not (min(self.ls, self.a, self.b) > 0
                and all(map(math.isfinite, (self.ls, self.a, self.b)))):
            raise ValueError(f"Model B needs finite, positive constants, got {self}")

    @cached_property
    def omega(self) -> float:
        # Same expression as the per-symbol sigmoid at zero input, so the
        # zero-input/zero-output cancellation is exact in floating point.
        return float(_sigmoid(-self.a * self.b))


HarvesterModel = ModelAParams | ModelBParams


def _sigmoid(t):
    """Logistic of t without overflow: exp(-|t|) is at most 1."""
    e = np.exp(-np.abs(t))
    return np.where(t >= 0, 1.0, e) / (1.0 + e)


def _rows(points) -> np.ndarray:
    """(2, M) real rows (re, im) of complex points."""
    z = np.asarray(points, dtype=complex).ravel()
    return np.array([z.real, z.imag])


def _model_a(x, prm: ModelAParams, w, ws):
    # rows: re, im, their squares, cubes and fourth powers, |x|^4, then |x|^2
    pw = scratch(ws, "pdel_pow", (10, x.shape[1]))
    sq = np.multiply(x, x, out=pw[2:4])
    pw[0:2] = x
    np.multiply(sq, x, out=pw[4:6])
    np.multiply(sq, sq, out=pw[6:8])
    m2 = np.add(sq[0], sq[1], out=pw[9])
    np.multiply(m2, m2, out=pw[8])
    mu_r, mu_i, p_r, p_i, t_r, t_i, q_r, q_i, q = (pw[:9] @ w).tolist()

    al, be = prm.alpha, prm.beta
    qt = (q_r + q_i + 2.0 * (mu_r * t_r + mu_i * t_i) + 6.0 * p_r * p_i
          + 6.0 * p_r * (p_r - mu_r ** 2) + 6.0 * p_i * (p_i - mu_i ** 2)) / 3.0
    p_del = al * (q + qt) + be * (p_r + p_i) + prm.gamma

    # dP_del/da_k on axis a (b the other axis) is w_k times the cubic
    #   al * (4/3 a^3 + 2 mu_a a^2 + (4 |x_k|^2 + 4 p_b + 8 p_a - 4 mu_a^2) a
    #         + 2/3 t_a - 4 p_a mu_a) + 2 be a,
    # evaluated by Horner's rule from the coefficients c[j], one per row k
    c = scratch(ws, "pdel_coef", (3, 2, 1))
    for k, (mu, pa, pb, t) in enumerate(((mu_r, p_r, p_i, t_r), (mu_i, p_i, p_r, t_i))):
        c[0, k, 0] = 2.0 * al * mu
        c[1, k, 0] = al * (4.0 * pb + 8.0 * pa - 4.0 * mu * mu) + 2.0 * be
        c[2, k, 0] = al * (2.0 * t / 3.0 - 4.0 * pa * mu)
    g = np.multiply(x, 4.0 * al / 3.0, out=scratch(ws, "pdel_grad", x.shape))
    g += c[0]
    g *= x
    m2 *= 4.0 * al
    g += m2
    g += c[1]
    g *= x
    g += c[2]
    g *= w
    return p_del, g


def _model_b_terms(p_in, prm: ModelBParams):
    """Per-symbol delivered power and its slope in the input power |x|^2."""
    sig = _sigmoid(prm.a * (p_in - prm.b))
    omega = prm.omega
    return ((prm.ls * sig - prm.ls * omega) / (1.0 - omega),
            prm.ls * prm.a * sig * (1.0 - sig) / (1.0 - omega))


def _model_b(x, prm: ModelBParams, w, ws):
    value, slope = _model_b_terms(x[0] * x[0] + x[1] * x[1], prm)
    g = np.multiply(x, w * slope * 2.0, out=scratch(ws, "pdel_grad", x.shape))
    return float(w @ value), g


def pdel_with_grads(x, model: HarvesterModel, weights, ws: dict | None = None):
    """(P_del, (2, M) gradient) of the real rows x = (re, im) weighted by the
    M `weights` (a message's probability, or its share of a batch): the one
    delivered-power code, training and evaluation alike. With a workspace
    the gradient is its buffer, overwritten by the next call."""
    x = np.asarray(x)
    if x.ndim != 2 or x.shape[0] != 2 or x.shape[1] == 0 or x.dtype.kind != "f":
        raise ValueError(f"pdel_with_grads needs non-empty (2, M) real rows, "
                         f"got {x.dtype} {x.shape}")
    w = np.asarray(weights, dtype=float)
    if isinstance(model, ModelAParams):
        return _model_a(x, model, w, ws)
    return _model_b(x, model, w, ws)


def pdel_exact(constellation: Constellation, model: HarvesterModel) -> float:
    """Probability-weighted delivered power of a finite constellation.

    Rejects non-finite points and negative or non-finite probabilities.
    """
    probs = constellation.probabilities
    if not (np.isfinite(constellation.points).all() and np.isfinite(probs).all()
            and (probs >= 0.0).all()):
        raise ValueError("pdel_exact needs finite points and finite, "
                         "non-negative probabilities")
    return pdel_with_grads(_rows(constellation.points), model, probs)[0]
