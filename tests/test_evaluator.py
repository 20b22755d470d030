"""Tests for SER estimation, power evaluation and classical baselines."""

import tracemalloc

import numpy as np
import pytest

from oracles import classical_baseline
from swiptmod.channel import ROLE_EVAL, sample_noise, substream
from swiptmod.evaluator import _decide, estimate_ser
from swiptmod.harvester import ModelAParams, ModelBParams, pdel_exact
from swiptmod.nn import NetworkParams, init_params, mlp_forward, softmax, softmax_terms
from swiptmod.transceiver import EPS_LOG, Constellation


def _uniform(points):
    points = np.asarray(points, dtype=complex)
    return Constellation(points=points,
                         probabilities=np.full(points.size, 1.0 / points.size))


# more samples than one compute tile (8192), so ties also fall in later tiles
TIE_SAMPLES = 20_000


def test_estimate_ser_ml_ties_go_to_lowest_index():
    # duplicated points: noiseless samples of messages 1 and 3 tie with 0 and 2
    const = _uniform([1 + 0j, 1 + 0j, -1 + 0j, -1 + 0j])
    report = estimate_ser(const, None, 0.0, TIE_SAMPLES, seed=2)
    s = substream(2, ROLE_EVAL, 0).integers(0, 4, size=TIE_SAMPLES)
    assert report.ser == np.isin(s, [1, 3]).sum() / TIE_SAMPLES


def test_estimate_ser_ml_ties_above_255_messages(monkeypatch):
    # M=300 needs 16-bit ranks: samples of 290 and 299 tie with their
    # duplicates 260 and 256 and decode to those
    monkeypatch.setattr("swiptmod.evaluator._WS", {})   # drop the (300, tile) buffers after
    points = 0.1 * np.exp(2j * np.pi * np.arange(300) / 300)
    points[[290, 299]] = points[[260, 256]]
    const = _uniform(points)
    report = estimate_ser(const, None, 0.0, TIE_SAMPLES, seed=6)
    s = substream(6, ROLE_EVAL, 0).integers(0, 300, size=TIE_SAMPLES)
    assert report.ser == np.isin(s, [290, 299]).sum() / TIE_SAMPLES > 0.0
    noisy = estimate_ser(const, None, 1e-6, TIE_SAMPLES, seed=6)
    assert noisy.ser > report.ser
    assert noisy.ser == _full_block_ser(const, None, 1e-6, TIE_SAMPLES, seed=6)[0]


def test_estimate_ser_nn_ties_go_to_lowest_index():
    # an all-zero decoder gives uniform probabilities: every sample decodes to 0
    decoder = init_params(4, seed=0).decoder
    for w in decoder[::2]:
        w[:] = 0.0
    report = estimate_ser(_uniform([1, 1j, -1, -1j]), decoder, 1e-3, TIE_SAMPLES, seed=4)
    s = substream(4, ROLE_EVAL, 0).integers(0, 4, size=TIE_SAMPLES)
    assert report.ser == np.count_nonzero(s) / TIE_SAMPLES
    assert report.cross_entropy == pytest.approx(np.log(4), rel=1e-15)


def test_estimate_ser_nn_matches_per_sample_reference(monkeypatch):
    monkeypatch.setattr("swiptmod.evaluator.BLOCK_SIZE", 1024)
    const = classical_baseline("QAM", 4, 0.01)
    decoder = init_params(4, seed=3).decoder
    decoder[0] *= 30.0   # a decoder that is right on most samples
    before = [a.copy() for a in decoder]
    points = const.points.copy()
    report = estimate_ser(const, decoder, 2e-3, 2500, seed=5)
    errors, ce = 0, 0.0
    for blk, n in enumerate((1024, 1024, 452)):
        rng = substream(5, ROLE_EVAL, blk)
        s = rng.integers(0, 4, size=n)
        noise = sample_noise(n, 2e-3, rng)
        for k in range(n):
            y = points[s[k]] + noise[k, 0] + 1j * noise[k, 1]
            w1, b1, w2, b2 = decoder
            h = np.maximum(w1 @ [y.real, y.imag] + b1, 0.0)
            logits = w2 @ h + b2
            p = np.exp(logits - logits.max())
            p /= p.sum()
            errors += int(np.argmax(p)) != s[k]
            ce -= np.log(max(p[s[k]], EPS_LOG))
    assert 0 < errors < 2500
    assert report.ser == errors / 2500
    assert report.cross_entropy == pytest.approx(ce / 2500, rel=1e-12)
    assert np.array_equal(const.points, points)
    assert all(np.array_equal(a, b) for a, b in zip(decoder, before))


def _full_block_ser(constellation, decoder, sigma2, num_samples, seed, block_size=1 << 16):
    """Reference: the evaluator before compute tiles, with one (M, block)
    array per block, np.argmax/np.argmin over axis 0 and a fancy-indexed
    cross-entropy pick. Returns (SER, CE)."""
    points, m = constellation.points, constellation.size
    errors, ce_sum = 0, 0.0
    for blk in range(-(-num_samples // block_size)):
        n = min(block_size, num_samples - blk * block_size)
        rng = substream(seed, ROLE_EVAL, blk)
        s = rng.integers(0, m, size=n)
        noise = sample_noise(n, sigma2, rng)
        y = points[s] + noise[:, 0] + 1j * noise[:, 1]
        if decoder is None:
            pr, pi = points.real[:, None], points.imag[:, None]
            s_hat = np.argmin((y.real - pr) ** 2 + (y.imag - pi) ** 2, axis=0)
        else:
            probs = softmax(mlp_forward(decoder, np.stack([y.real, y.imag]))[0])
            s_hat = np.argmax(probs, axis=0)
            ce_sum += float(-np.log(np.maximum(probs[s, np.arange(n)], EPS_LOG)).sum())
        errors += int(np.sum(s_hat != s))
    return errors / num_samples, ce_sum / num_samples


@pytest.mark.parametrize("ml", [False, True])
def test_estimate_ser_matches_full_block_reference(ml):
    # a full block, then a short block of two full tiles and a 37-sample tail
    n = (1 << 16) + 2 * 8192 + 37
    const = classical_baseline("QAM", 16, 0.01)
    decoder = init_params(16, seed=16).decoder
    for w in decoder[::2]:
        w *= 20.0
    decoder = None if ml else decoder
    report = estimate_ser(const, decoder, 3e-4, n, seed=7)
    ser, ce = _full_block_ser(const, decoder, 3e-4, n, seed=7)
    assert 0.0 < report.ser < 1.0
    assert report.ser == ser
    if ml:
        assert np.isnan(report.cross_entropy)
    else:
        assert report.cross_entropy.hex() == ce.hex()


# ---------------------------------------------------------------------------
# the NN decision on exp(z - max z): near-ties against divide, max, first match
# ---------------------------------------------------------------------------

ULP1 = 2.0 ** -53   # the spacing of floats just below 1.0


def _reference_decision(e, sums):
    """The decision before it moved onto e: divide the (M, w) block by the
    sums, take each column's max, and return its first match."""
    p = e / sums
    return np.argmax(p == p.max(axis=0), axis=0)


def _planted_columns(rng, m, w):
    """(e, sums) of w columns whose top e is 1.0 and which hold near-ties.

    Half are planted on e: entries 1 - k * 2^-53 (k = 1..5) at random rows,
    before or after the row of the exact 1.0. Half are planted on the logits:
    entries 0-4 ulps below the column max, run through softmax_terms.
    """
    half = w // 2
    e = rng.uniform(0.0, 0.9, size=(m, half))
    cols = np.arange(half)
    e[rng.integers(0, m, size=half), cols] = 1.0
    for _ in range(3):
        rows = rng.integers(0, m, size=half)
        keep = e[rows, cols] != 1.0
        e[rows[keep], cols[keep]] = 1.0 - rng.integers(1, 6, size=half)[keep] * ULP1
    z = rng.uniform(-3.0, 3.0, size=(m, w - half))
    cols = np.arange(w - half)
    top = rng.integers(0, m, size=w - half)
    z[top, cols] = 4.0
    for _ in range(3):
        rows = rng.integers(0, m, size=w - half)
        keep = rows != top
        below = np.full(keep.sum(), 4.0)
        for _ in range(int(rng.integers(0, 5))):
            below = np.nextafter(below, -np.inf)
        z[rows[keep], cols[keep]] = below
    ez, _ = softmax_terms(z)
    e = np.concatenate([e, ez], axis=1)
    return e, e.sum(axis=0)


def test_nn_decision_matches_divide_max_first_match_on_near_ties():
    rng = np.random.default_rng(17)
    naive_misses = 0
    for m in (4, 16, 300):
        ranks = np.arange(m, 0, -1, dtype=np.min_scalar_type(m))[:, None]
        for _ in range(4):
            e, sums = _planted_columns(rng, m, 8000)
            ref = _reference_decision(e, sums)
            assert np.array_equal(_decide(e, sums, ranks, {}), ref)
            # the first exact 1.0 alone misses the near-ties that round up
            naive_misses += np.count_nonzero(np.argmax(e == 1.0, axis=0) != ref)
    assert naive_misses > 100


def test_estimate_ser_nn_decides_planted_near_ties_as_the_reference(monkeypatch):
    # noiseless samples of points 0..M-1 on the real axis tell each tile's
    # messages; the fake decoder puts e = 1.0 at each sample's own message and
    # near-ties at random rows, so the exact-1.0 rule alone would make no error
    m, n = 16, 20_000
    const = _uniform(np.arange(m, dtype=float))
    rng = np.random.default_rng(5)
    errors, own = [0], []

    def planted_decode(decoder, y, ws):
        st = y[0].astype(int)
        w = st.size
        e = rng.uniform(0.0, 0.9, size=(m, w))
        cols = np.arange(w)
        for _ in range(3):
            e[rng.integers(0, m, size=w), cols] = 1.0 - rng.integers(1, 6, size=w) * ULP1
        e[st, cols] = 1.0
        sums = e.sum(axis=0)
        errors[0] += np.count_nonzero(_reference_decision(e, sums) != st)
        own.append(e[st, cols] / sums)
        return e, sums

    monkeypatch.setattr("swiptmod.evaluator.decode", planted_decode)
    decoder = init_params(m, seed=0).decoder
    report = estimate_ser(const, decoder, 0.0, n, seed=9)
    assert errors[0] > 0 and report.ser == errors[0] / n
    p = np.maximum(np.concatenate(own), EPS_LOG)
    assert report.cross_entropy.hex() == (-float(np.log(p).sum()) / n).hex()


@pytest.mark.parametrize("ml", [False, True])
def test_estimate_ser_memory_stays_tile_sized(ml):
    # one block-sized (16, 65536) float64 temporary alone is 8 MB
    const = classical_baseline("QAM", 16, 0.01)
    decoder = None if ml else init_params(16, seed=1).decoder
    tracemalloc.start()
    try:
        estimate_ser(const, decoder, 1e-3, 1 << 17, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16e6   # the full-block evaluator peaked at 55.6 MB (NN) and 20.4 MB (ML)


def test_estimate_ser_does_not_depend_on_earlier_calls(monkeypatch):
    n = (1 << 16) + 2 * 8192 + 37   # a full block, full tiles and a short tail
    const = classical_baseline("QAM", 16, 0.01)
    decoder = init_params(16, seed=16).decoder
    for w in decoder[::2]:
        w *= 20.0
    # leave other shapes in the workspace first: M=8 NN, ML, a 1,000-sample call
    estimate_ser(classical_baseline("PSK", 8, 0.01),
                 init_params(8, seed=8).decoder, 1e-3, 80_000, seed=1)
    estimate_ser(const, None, 3e-4, 20_000, seed=2)
    estimate_ser(const, decoder, 3e-4, 1_000, seed=3)
    warm = [estimate_ser(const, d, 3e-4, n, seed=7) for d in (decoder, None)]
    for d, w in zip((decoder, None), warm):
        monkeypatch.setattr("swiptmod.evaluator._WS", {})   # each cold call alone
        c = estimate_ser(const, d, 3e-4, n, seed=7)
        assert w.ser.hex() == c.ser.hex() and 0.0 < c.ser < 1.0
        assert w.cross_entropy.hex() == c.cross_entropy.hex()
    assert np.isfinite(warm[0].cross_entropy)


@pytest.mark.parametrize("ml", [False, True])
def test_estimate_ser_warm_workspace_allocates_little(ml, monkeypatch):
    monkeypatch.setattr("swiptmod.evaluator._WS", {})
    const = classical_baseline("QAM", 16, 0.01)
    decoder = None if ml else init_params(16, seed=1).decoder

    def peak():
        tracemalloc.start()
        try:
            estimate_ser(const, decoder, 1e-3, 1 << 17, seed=0)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    cold, warm = peak(), peak()
    # a (2^16,) block of messages is 0.5 MB; the cold NN call also fills the
    # decoder's (32, 8192) hidden buffer, 2 MB
    assert warm < 1.5e6 and warm < cold / 2


@pytest.mark.parametrize("sigma2", [-1.0, np.nan, np.inf])
@pytest.mark.parametrize("ml", [False, True])
def test_estimate_ser_rejects_bad_noise_variance(sigma2, ml):
    decoder = None if ml else init_params(4, seed=0).decoder
    with pytest.raises(ValueError, match="noise variance"):
        estimate_ser(classical_baseline("QAM", 4, 1.0), decoder, sigma2, 1000, seed=0)


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, -np.inf), complex(1.0, np.nan)])
def test_estimate_ser_rejects_non_finite_points(bad):
    points = classical_baseline("QAM", 4, 1.0).points
    points[2] = bad
    with pytest.raises(ValueError, match="non-finite constellation points"):
        estimate_ser(_uniform(points), None, 0.1, 1000, seed=0)


def test_estimate_ser_noiseless_ml_is_zero():
    const = classical_baseline("QAM", 16, 0.001)
    report = estimate_ser(const, None, 0.0, 10_000, seed=0)
    assert report.ser == 0.0
    assert report.rate_bits == 4.0


def test_estimate_ser_uniform_guesser():
    # a zero-weight decoder outputs uniform probabilities; argmax then always
    # picks the first index, message 0, so SER concentrates at 15/16
    const = classical_baseline("QAM", 16, 0.001)
    decoder = NetworkParams(16).decoder
    report = estimate_ser(const, decoder, 2e-5, 100_000, seed=1)
    assert abs(report.ser - 15 / 16) <= 3 * report.ser_stderr
    assert report.cross_entropy == pytest.approx(np.log(16), rel=1e-12)


def test_estimate_ser_deterministic():
    const = classical_baseline("PSK", 8, 0.001)
    r1 = estimate_ser(const, None, 2e-5, 200_000, seed=3)
    r2 = estimate_ser(const, None, 2e-5, 200_000, seed=3)
    assert r1.ser == r2.ser
    r4 = estimate_ser(const, None, 2e-5, 200_000, seed=4)
    assert r4.ser != r1.ser


def test_estimate_ser_sample_floor():
    const = classical_baseline("QAM", 4, 1.0)
    with pytest.raises(ValueError):
        estimate_ser(const, None, 0.1, 500, seed=0)


@pytest.mark.parametrize("dec_m", [4, 16])
def test_estimate_ser_rejects_mismatched_decoder(dec_m, monkeypatch):
    # an M=8 constellation needs a decoder with 8 outputs
    const = classical_baseline("PSK", 8, 0.001)
    decoder = init_params(dec_m, seed=0).decoder

    def no_draw(*args):
        raise AssertionError("drew samples before checking its arguments")
    monkeypatch.setattr("swiptmod.evaluator.substream", no_draw)
    with pytest.raises(ValueError, match="decoder maps"):
        estimate_ser(const, decoder, 1e-3, 1000, seed=0)


def test_pdel_exact_zero_constellation():
    const = _uniform(np.zeros(4))
    assert pdel_exact(const, ModelAParams(0.3829, 0.0034, 0.25)) == 0.25
    assert pdel_exact(const, ModelBParams(0.02, 6400.0, 0.003)) == 0.0


@pytest.mark.parametrize("model", [ModelAParams(0.3829, 0.0034, 0.0),
                                   ModelBParams(0.02, 6400.0, 0.003)])
@pytest.mark.parametrize("point, probs", [
    (np.nan, [0.25] * 4), (np.inf, [0.25] * 4), (1j * np.nan, [0.25] * 4),
    (0.0, [-1.0, 1.0, 0.5, 0.5]), (0.0, [np.nan, 0.25, 0.25, 0.25]),
    (0.0, [np.inf, 0.25, 0.25, 0.25]),
])
def test_pdel_exact_rejects_bad_points_and_probabilities(model, point, probs):
    pts = classical_baseline("QAM", 4, 1.0).points
    pts[0] = point
    with pytest.raises(ValueError, match="pdel_exact needs finite points"):
        pdel_exact(Constellation(points=pts, probabilities=np.array(probs)), model)


def test_classical_baseline_qpsk_points():
    const = classical_baseline("QAM", 4, 1.0)
    expected = {(s1 * np.sqrt(0.5), s2 * np.sqrt(0.5))
                for s1 in (-1, 1) for s2 in (-1, 1)}
    got = {(round(p.real, 12), round(p.imag, 12)) for p in const.points}
    assert got == {(round(a, 12), round(b, 12)) for a, b in expected}


@pytest.mark.parametrize("kind", ["QAM", "PSK"])
@pytest.mark.parametrize("m", [4, 8, 16, 32])
def test_classical_baseline_power_normalized(kind, m):
    const = classical_baseline(kind, m, 0.002)
    assert const.size == m
    assert const.mean_power() == pytest.approx(0.002, rel=1e-12)


def test_classical_baseline_rejects_bad_inputs():
    with pytest.raises(ValueError):
        classical_baseline("QAM", 7, 0.001)
    with pytest.raises(ValueError):
        classical_baseline("APSK", 16, 0.001)


def test_sixteen_qam_near_noiseless():
    const = classical_baseline("QAM", 16, 0.001)
    report = estimate_ser(const, None, 1e-9, 10_000, seed=0)
    assert report.ser == 0.0
