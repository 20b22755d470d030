"""Tests for the delivered-power models: closed forms, limits, gradients, and
a 60-digit moment reference for the value."""

import warnings

import numpy as np
import pytest
from mpmath import mp

from oracles import model_b_per_symbol, pdel_model_b, pdel_monte_carlo_check
from swiptmod.channel import ROLE_MISC, substream
from swiptmod.harvester import ModelAParams, ModelBParams, pdel_exact, pdel_with_grads
from swiptmod.transceiver import Constellation

MODEL_A = ModelAParams(alpha=0.3829, beta=0.0034, gamma=0.0)
MODEL_B = ModelBParams(ls=0.02, a=6400.0, b=0.003)
# Model A reduced to its fourth-moment part Q + Qtilde
FOURTH = ModelAParams(alpha=1.0, beta=0.0, gamma=0.0)


def _rows(points):
    points = np.asarray(points, dtype=complex)
    return np.stack([points.real, points.imag])


def _uniform(points):
    points = np.asarray(points, dtype=complex)
    return Constellation(points=points,
                         probabilities=np.full(points.size, 1.0 / points.size))


def _mp_pdel(points, probs, model):
    """P_del from 60-digit moments: the formulas written out independently."""
    with mp.workdps(60):
        w = [mp.mpf(float(p)) for p in probs]
        rs = [mp.mpf(float(x.real)) for x in points]
        is_ = [mp.mpf(float(x.imag)) for x in points]

        def mean(f):
            return sum(wk * f(r, i) for wk, r, i in zip(w, rs, is_))

        if isinstance(model, ModelBParams):
            def sig(t):
                return 1 / (1 + mp.exp(-t))
            omega = sig(-mp.mpf(model.a) * mp.mpf(model.b))
            return float(mean(lambda r, i: model.ls * (sig(model.a * (r * r + i * i
                                                                      - model.b)) - omega)
                              / (1 - omega)))
        q = mean(lambda r, i: (r * r + i * i) ** 2)
        p = mean(lambda r, i: r * r + i * i)
        mu_r, mu_i = mean(lambda r, i: r), mean(lambda r, i: i)
        p_r, p_i = mean(lambda r, i: r ** 2), mean(lambda r, i: i ** 2)
        t_r, t_i = mean(lambda r, i: r ** 3), mean(lambda r, i: i ** 3)
        q_r, q_i = mean(lambda r, i: r ** 4), mean(lambda r, i: i ** 4)
        qt = (q_r + q_i + 2 * (mu_r * t_r + mu_i * t_i) + 6 * p_r * p_i
              + 6 * p_r * (p_r - mu_r ** 2) + 6 * p_i * (p_i - mu_i ** 2)) / 3
        return float(model.alpha * (q + qt) + model.beta * p + model.gamma)


# ---------------------------------------------------------------------------
# moments, seen through P_del
# ---------------------------------------------------------------------------

def test_moments_single_real_point():
    c = 0.07
    const = _uniform([c])
    # one point: Qtilde = Q = c^4, so P_del = 2 alpha c^4 + beta c^2
    p_a, grad = pdel_with_grads(_rows(const.points), MODEL_A, const.probabilities)
    assert p_a == pytest.approx(2 * MODEL_A.alpha * c ** 4 + MODEL_A.beta * c ** 2,
                                rel=1e-14)
    assert grad[0, 0] == pytest.approx(8 * MODEL_A.alpha * c ** 3 + 2 * MODEL_A.beta * c,
                                       rel=1e-13)
    assert grad[1, 0] == 0.0
    assert pdel_exact(const, MODEL_B) == pytest.approx(
        float(model_b_per_symbol(np.array([c * c]), MODEL_B)[0]), rel=1e-15)


def test_moments_bpsk_symmetry():
    # +-1: odd moments vanish, P = Q = 1, Qtilde = (1 + 6) / 3
    value, (dr, di) = pdel_with_grads(np.array([[1.0, -1.0], [0.0, 0.0]]), FOURTH,
                                      np.full(2, 0.5))
    assert value == pytest.approx(1 + 7 / 3, rel=1e-15)
    assert dr[0] == -dr[1] and not di.any()


def test_moments_brute_force_high_precision():
    rng = substream(21, ROLE_MISC)
    for scale, model in ((0.1, MODEL_A), (0.05, MODEL_B),
                         (0.1, ModelAParams(alpha=0.3829, beta=0.0034, gamma=1e-3))):
        pts = scale * (rng.standard_normal(8) + 1j * rng.standard_normal(8))
        for probs in (np.full(8, 1 / 8), rng.dirichlet(np.ones(8))):
            got = pdel_exact(Constellation(points=pts, probabilities=probs), model)
            assert got == pytest.approx(_mp_pdel(pts, probs, model), rel=1e-12)


def test_moments_probability_weighted():
    const = Constellation(points=np.array([1 + 0j, 3 + 0j]),
                          probabilities=np.array([0.75, 0.25]))
    # P = 3, Q = Q_r = 21, mu_r = 1.5, T_r = 7.5: Qtilde = (21 + 22.5 + 13.5) / 3
    prm = ModelAParams(alpha=0.5, beta=0.25, gamma=0.125)
    assert pdel_exact(const, prm) == pytest.approx(
        0.5 * (21 + 19) + 0.25 * 3 + 0.125, rel=1e-14)


def test_moments_empty_input_rejected():
    for model in (MODEL_A, MODEL_B):
        with pytest.raises(ValueError):
            pdel_with_grads(np.empty((2, 0)), model, np.empty(0))
        with pytest.raises(ValueError, match="real rows"):
            pdel_with_grads(np.array([0.1 + 0.2j, 0.3]), model, np.full(2, 0.5))
        with pytest.raises(ValueError):
            pdel_exact(Constellation(points=[], probabilities=[]), model)


# ---------------------------------------------------------------------------
# Qtilde / Model A closed forms
# ---------------------------------------------------------------------------

def test_q_tilde_single_real_point():
    c = 0.4
    assert pdel_exact(_uniform([c]), FOURTH) == pytest.approx(2 * c ** 4, rel=1e-13)


def test_q_tilde_zero_constellation():
    value, grad = pdel_with_grads(np.zeros((2, 4)), FOURTH, np.full(4, 0.25))
    assert value == 0.0 and not grad.any()


def test_q_tilde_real_imag_swap_invariant():
    rng = substream(22, ROLE_MISC)
    pts = rng.standard_normal(6) + 1j * rng.standard_normal(6)
    swapped = pts.imag + 1j * pts.real
    assert pdel_exact(_uniform(pts), FOURTH) == pytest.approx(
        pdel_exact(_uniform(swapped), FOURTH), abs=1e-12)


def test_pdel_model_a_zero_constellation_is_gamma():
    prm = ModelAParams(alpha=0.3829, beta=0.0034, gamma=0.125)
    assert pdel_exact(_uniform(np.zeros(8)), prm) == 0.125


@pytest.mark.parametrize("point", [0.09 + 0j, 0.09j])
def test_pdel_model_a_single_point_closed_form(point):
    c = abs(point)
    expected = 2 * MODEL_A.alpha * c ** 4 + MODEL_A.beta * c ** 2
    assert pdel_exact(_uniform([point]), MODEL_A) == pytest.approx(expected, rel=1e-12)


def test_pdel_model_a_even_symmetry_invariances():
    rng = substream(23, ROLE_MISC)
    for _ in range(5):
        pts = 0.1 * (rng.standard_normal(8) + 1j * rng.standard_normal(8))
        base = pdel_exact(_uniform(pts), MODEL_A)
        for mapped in (-pts, np.conj(pts), 1j * pts):
            assert pdel_exact(_uniform(mapped), MODEL_A) == \
                pytest.approx(base, abs=1e-12)


def test_pdel_model_a_not_rotation_invariant():
    # a two-point On-Off constellation favors axis alignment: rotating the On
    # point off-axis changes the fourth-moment mixture terms
    c = 0.05
    axis = np.array([c + 0j, 0 + 0j])
    diag = np.array([c * np.exp(1j * np.pi / 4), 0 + 0j])
    p_axis = pdel_exact(_uniform(axis), MODEL_A)
    p_diag = pdel_exact(_uniform(diag), MODEL_A)
    assert abs(p_axis - p_diag) > 1e-9
    assert p_axis > p_diag  # the axis-aligned layout harvests more


@pytest.mark.parametrize("alpha,beta,gamma", [
    (0.0, 0.0034, 0.0), (-1.0, -2.0, 0.0), (0.3829, -0.1, 0.0),
    (np.nan, 0.0034, 0.0), (np.inf, 0.0034, 0.0), (0.3829, np.inf, 0.0),
    (0.3829, 0.0034, np.nan), (0.3829, 0.0034, -np.inf),
])
def test_model_a_params_reject_bad_constants(alpha, beta, gamma):
    with pytest.raises(ValueError, match="Model A"):
        ModelAParams(alpha=alpha, beta=beta, gamma=gamma)


# ---------------------------------------------------------------------------
# Model B
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("ls,a,b", [
    (0.0, 6400.0, 0.003), (0.02, -6400.0, 0.003), (0.02, 6400.0, 0.0),
    (np.nan, 6400.0, 0.003), (0.02, np.inf, 0.003), (0.02, 6400.0, np.nan),
])
def test_model_b_params_reject_bad_constants(ls, a, b):
    with pytest.raises(ValueError, match="Model B"):
        ModelBParams(ls=ls, a=a, b=b)


def test_model_b_zero_input_zero_output_exact():
    assert pdel_model_b(np.zeros(5), MODEL_B) == 0.0


def test_model_b_knee_value():
    omega = MODEL_B.omega
    expected = (0.01 - 0.02 * omega) / (1 - omega)
    got = pdel_model_b(np.array([0.003]), MODEL_B)
    assert got == pytest.approx(expected, rel=1e-12)
    assert got == pytest.approx(0.01, rel=1e-6)


def test_model_b_saturation():
    assert abs(pdel_model_b(np.array([0.03]), MODEL_B) - 0.02) < 1e-9


def test_model_b_finite_far_past_saturation_and_at_origin():
    # exp(-|t|) never overflows, so neither end warns or leaves a NaN
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        third = np.full(3, 1.0 / 3)
        far, far_grad = pdel_with_grads(np.full((2, 3), np.sqrt(500.0)), MODEL_B, third)
        zero, zero_grad = pdel_with_grads(np.zeros((2, 3)), MODEL_B, third)
    assert far == MODEL_B.ls and not far_grad.any()
    assert zero == 0.0 and not zero_grad.any()


def test_model_b_monotone_and_bounded_on_grid():
    grid = np.linspace(0.0, 0.05, 1000)
    vals = model_b_per_symbol(grid, MODEL_B)
    assert np.all(np.diff(vals) >= 0.0)
    assert vals[0] == 0.0
    assert np.all(vals >= 0.0)
    # mathematically vals < ls strictly; in float the sigmoid rounds to 1.0
    # deep in saturation, so equality is reachable
    assert np.all(vals <= MODEL_B.ls)
    assert vals[-1] == pytest.approx(MODEL_B.ls, abs=1e-9)


def test_model_b_batch_equals_weighted_sum():
    rng = substream(24, ROLE_MISC)
    powers = rng.uniform(0.0, 0.01, size=16)
    probs = rng.dirichlet(np.ones(16))
    batch = pdel_model_b(powers, MODEL_B, probabilities=probs)
    manual = sum(p * float(model_b_per_symbol(np.array([pw]), MODEL_B)[0])
                 for pw, p in zip(powers, probs))
    assert abs(batch - manual) < 1e-12


# ---------------------------------------------------------------------------
# Monte-Carlo oracle + exact evaluation
# ---------------------------------------------------------------------------

def test_model_a_monte_carlo_matches_closed_form():
    rng = substream(25, ROLE_MISC)
    pts = 0.05 * (rng.standard_normal(8) + 1j * rng.standard_normal(8))
    const = _uniform(pts)
    exact = pdel_exact(const, MODEL_A)
    est, stderr = pdel_monte_carlo_check(const, MODEL_A, 1_000_000,
                                         substream(25, ROLE_MISC, 1))
    assert abs(est - exact) <= 3 * stderr


def test_single_point_monte_carlo_is_exact():
    const = _uniform(np.array([0.04 + 0.01j]))
    for model in (MODEL_A, MODEL_B):
        est, _ = pdel_monte_carlo_check(const, model, 10_000,
                                        substream(26, ROLE_MISC))
        assert est == pytest.approx(pdel_exact(const, model), rel=1e-12)


def test_monte_carlo_check_sample_floor():
    const = _uniform(np.array([0.04 + 0j, -0.04 + 0j]))
    with pytest.raises(ValueError):
        pdel_monte_carlo_check(const, MODEL_A, 5000, substream(0, ROLE_MISC))


# ---------------------------------------------------------------------------
# gradients
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("model,scale", [(MODEL_A, 0.1), (MODEL_B, 0.05)])
def test_pdel_gradients_match_finite_differences(model, scale):
    rng = substream(27, ROLE_MISC)
    pts = scale * (rng.standard_normal(6) + 1j * rng.standard_normal(6))
    _, (dr, di) = pdel_with_grads(_rows(pts), model, np.full(6, 1.0 / 6))
    step = 1e-7

    def value(re, im):
        return pdel_exact(_uniform(re + 1j * im), model)

    re, im = pts.real.copy(), pts.imag.copy()
    for k in range(6):
        for comp, grad in ((re, dr), (im, di)):
            orig = comp[k]
            comp[k] = orig + step
            up = value(re, im)
            comp[k] = orig - step
            dn = value(re, im)
            comp[k] = orig
            fd = (up - dn) / (2 * step)
            assert grad[k] == pytest.approx(fd, rel=1e-6, abs=1e-10)
