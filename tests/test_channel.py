"""Tests for the AWGN channel and the reproducible stream derivation."""

import numpy as np
import pytest

from swiptmod.channel import (ROLE_EVAL, ROLE_NOISE, derive_seed, sample_noise,
                              substream)
from swiptmod.harvester import ModelAParams
from swiptmod.trainer import TrainConfig


def _cfg(p_a, snr):
    return TrainConfig(m=4, p_a=p_a, snr=snr,
                       harvester=ModelAParams(alpha=0.3829, beta=0.0034, gamma=0.0),
                       epochs=1, restarts=1, minibatch_size=100, train_set_size=100,
                       eval_samples=1000)


def test_snr_to_variance_values():
    assert _cfg(0.001, 50.0).sigma2() == pytest.approx(2e-5, rel=1e-12)
    assert _cfg(0.002, 50.0).sigma2() == pytest.approx(4e-5, rel=1e-12)


def test_snr_to_variance_noiseless_limit():
    assert _cfg(0.001, 1e12).sigma2() < 1e-14


@pytest.mark.parametrize("p_a,snr", [(0.0, 50.0), (-1.0, 50.0), (0.001, 0.0),
                                     (0.001, -3.0)])
def test_snr_to_variance_rejects_nonpositive(p_a, snr):
    with pytest.raises(ValueError):
        _cfg(p_a, snr)


def test_noise_variance_is_p_a_over_snr():
    assert _cfg(0.001, 50.0).sigma2() == 0.001 / 50.0


def test_sample_noise_zero_variance_is_zero():
    rng = substream(0, ROLE_NOISE)
    n = sample_noise(3, 0.0, rng)
    assert n.shape == (3, 2) and not n.any()
    assert sample_noise(3, 0.0, rng) is not n  # a fresh array on every call


def test_sample_noise_reproducible():
    n1 = sample_noise(16, 1e-4, substream(3, ROLE_NOISE))
    n2 = sample_noise(16, 1e-4, substream(3, ROLE_NOISE))
    assert n1.any() and np.array_equal(n1, n2)


def test_noise_component_statistics():
    sigma2 = 4e-5
    n = sample_noise(1_000_000, sigma2, substream(1, ROLE_NOISE))
    assert n.shape == (1_000_000, 2)
    # each component is N(0, sigma2/2); 5 sigma bands on mean and variance
    for comp in (n[:, 0], n[:, 1]):
        assert abs(comp.mean()) < 5 * np.sqrt(sigma2 / 2 / comp.size)
        assert comp.var() == pytest.approx(sigma2 / 2, rel=0.02)
    # components uncorrelated (circular symmetry)
    rho = np.corrcoef(n[:, 0], n[:, 1])[0, 1]
    assert abs(rho) < 5 / np.sqrt(n.shape[0])


def test_substream_determinism_and_disjointness():
    a1 = substream(42, ROLE_EVAL, 7).standard_normal(8)
    a2 = substream(42, ROLE_EVAL, 7).standard_normal(8)
    b = substream(42, ROLE_EVAL, 8).standard_normal(8)
    c = substream(43, ROLE_EVAL, 7).standard_normal(8)
    assert np.array_equal(a1, a2)
    assert not np.array_equal(a1, b)
    assert not np.array_equal(a1, c)


def test_derive_seed_stable():
    s1 = derive_seed(0, 1, 2)
    s2 = derive_seed(0, 1, 2)
    s3 = derive_seed(0, 1, 3)
    assert s1 == s2
    assert s1 != s3
    assert 0 <= s1 < 2 ** 64
