"""Tests for encoding, normalization, decoding, losses and the CSV interface."""

import numpy as np
import pytest
from mpmath import mp

from swiptmod.nn import LINEAR, RELU, SOFTMAX, DenseLayer, init_params
from swiptmod.transceiver import (CSV_HEADER, Constellation,
                                  ConstellationFormatError, batch_cross_entropy,
                                  decode, encode, export_constellation,
                                  normalize_power, read_constellation_csv,
                                  write_constellation_csv)


def _layer(w, b, act):
    return DenseLayer(weights=np.asarray(w, dtype=float),
                      biases=np.asarray(b, dtype=float), activation=act)


# ---------------------------------------------------------------------------
# encode
# ---------------------------------------------------------------------------

def test_one_hot_first_and_last():
    # a linear encoder reads column s of W0 for message s (0-based)
    enc = [_layer([[10.0, 11.0, 12.0, 13.0], [0.0, 0.0, 0.0, -1.0]], [0.0, 0.0], LINEAR)]
    assert np.array_equal(encode(enc, np.array([0, 3])), [10 + 0j, 13 - 1j])


def test_encode_deterministic_per_message():
    enc = init_params([4, 8, 2], [2, 8, 4], seed=3).encoder
    out = encode(enc, np.array([2, 2, 2, 0, 2]))
    assert out[0] == out[1] == out[2] == out[4]
    assert len(set(np.round(encode(enc, np.arange(4)), 12))) <= 4


def test_encode_zero_weights_gives_origin():
    enc = [_layer(np.zeros((2, 4)), np.zeros(2), LINEAR)]
    out = encode(enc, np.arange(4))
    assert np.array_equal(out, np.zeros(4, dtype=complex))


def test_encode_rejects_non_2d_output():
    enc = [_layer(np.zeros((3, 4)), np.zeros(3), LINEAR)]
    with pytest.raises(ValueError):
        encode(enc, np.arange(4))


# ---------------------------------------------------------------------------
# normalize_power
# ---------------------------------------------------------------------------

def test_normalize_single_symbol():
    scaled, scale, degenerate = normalize_power(np.array([3 + 4j]), 1.0)
    assert not degenerate
    assert scaled[0] == pytest.approx(0.6 + 0.8j, abs=1e-15)


def test_normalize_two_symbol_batch():
    scaled, _, degenerate = normalize_power(np.array([1.0 + 0j, 0.0 + 0j]), 1.0)
    assert not degenerate
    assert scaled[0] == pytest.approx(np.sqrt(2), abs=1e-15)
    assert scaled[1] == 0
    assert np.mean(np.abs(scaled) ** 2) == pytest.approx(1.0, abs=1e-15)


def test_normalize_already_normalized_unchanged():
    x = np.array([0.6 + 0.8j, -0.6 - 0.8j])  # mean power exactly 1
    scaled, scale, _ = normalize_power(x, 1.0)
    assert scale == pytest.approx(1.0, abs=1e-15)
    assert np.allclose(scaled, x, atol=1e-15)


def test_normalize_degenerate_batch_flagged():
    scaled, scale, degenerate = normalize_power(np.zeros(4, dtype=complex), 1.0)
    assert degenerate
    assert np.all(np.isfinite(scaled))
    assert np.isfinite(scale)


def test_normalize_empty_batch_rejected():
    with pytest.raises(ValueError):
        normalize_power(np.array([], dtype=complex), 1.0)


# ---------------------------------------------------------------------------
# decode
# ---------------------------------------------------------------------------

def test_decode_zero_weights_uniform():
    dec = [_layer(np.zeros((8, 2)), np.zeros(8), RELU),
           _layer(np.zeros((4, 8)), np.zeros(4), SOFTMAX)]
    probs = decode(dec, 0.3 - 0.7j)
    assert probs.shape == (4, 1)
    assert np.allclose(probs, 0.25, atol=1e-15)


def test_decode_reproducible_and_normalized():
    dec = init_params([4, 8, 2], [2, 8, 4], seed=6).decoder
    y = np.array([0.1 + 0.2j, -0.3 + 0.05j, 0.7 - 0.4j])
    before = y.copy()
    p1 = decode(dec, y)
    p2 = decode(dec, y)
    assert np.array_equal(y, before)
    assert p1.shape == (4, 3)
    assert np.array_equal(p1, p2)
    assert np.allclose(p1.sum(axis=0), 1.0, atol=1e-12)
    for j in range(3):   # each column is that sample decoded alone
        assert np.allclose(p1[:, j], decode(dec, y[j])[:, 0], rtol=0, atol=1e-15)


# ---------------------------------------------------------------------------
# cross entropy
# ---------------------------------------------------------------------------

def test_cross_entropy_perfect_prediction():
    probs = np.array([[0.0], [1.0], [0.0], [0.0]])
    assert batch_cross_entropy(probs, np.array([1])) == 0.0


def test_cross_entropy_uniform():
    m = 32
    ce = batch_cross_entropy(np.full((m, 3), 1.0 / m), np.array([4, 0, 31]))
    assert ce == pytest.approx(np.log(32), rel=1e-12)


def test_cross_entropy_against_high_precision():
    probs = np.array([[0.25], [0.25], [0.25], [0.25]])
    with mp.workdps(50):
        expected = float(-mp.log(mp.mpf(1) / 4))
    assert batch_cross_entropy(probs, np.array([0])) == pytest.approx(expected, rel=1e-15)


def test_cross_entropy_shape_mismatch():
    # more messages than probability columns
    with pytest.raises(IndexError):
        batch_cross_entropy(np.full((4, 2), 0.25), np.array([0, 1, 2]))


def test_batch_cross_entropy_matches_scalar_mean():
    rng = np.random.default_rng(0)
    probs = rng.dirichlet(np.ones(4), size=6).T   # (M, B) columns
    msgs = rng.integers(0, 4, size=6)
    scalar = np.mean([-np.log(probs[s, j]) for j, s in enumerate(msgs)])
    assert batch_cross_entropy(probs, msgs) == pytest.approx(scalar, rel=1e-12)


# ---------------------------------------------------------------------------
# export + CSV
# ---------------------------------------------------------------------------

def test_export_constellation_power_and_size():
    params = init_params([8, 16, 2], [2, 16, 8], seed=2)
    const = export_constellation(params.encoder, 8, 0.001)
    assert const.size == 8
    assert const.mean_power() == pytest.approx(0.001, rel=1e-12)
    assert np.allclose(const.probabilities, 1 / 8)


def test_export_constellation_degenerate_encoder():
    enc = [_layer(np.zeros((2, 4)), np.zeros(2), LINEAR)]
    with pytest.raises(ValueError):
        export_constellation(enc, 4, 0.001)


def test_csv_round_trip_byte_identical(tmp_path):
    params = init_params([8, 16, 2], [2, 16, 8], seed=4)
    const = export_constellation(params.encoder, 8, 0.002)
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    write_constellation_csv(const, p1)
    back = read_constellation_csv(p1)
    write_constellation_csv(back, p2)
    assert p1.read_bytes() == p2.read_bytes()
    assert np.array_equal(back.points, const.points)


@pytest.mark.parametrize("body,line", [
    ("", 0),
    ("wrong,header\n0,0.5,1,2\n", 1),
    (CSV_HEADER + "\n", 1),
    (CSV_HEADER + "\n0,0.5,1\n", 2),
    (CSV_HEADER + "\n0,0.5,1,2\n2,0.5,3,4\n", 3),
    (CSV_HEADER + "\n0,0.5,oops,2\n", 2),
])
def test_csv_format_errors_carry_line_numbers(tmp_path, body, line):
    path = tmp_path / "bad.csv"
    path.write_text(body)
    with pytest.raises(ConstellationFormatError) as exc:
        read_constellation_csv(path)
    assert exc.value.line == line


def test_constellation_shape_mismatch_rejected():
    with pytest.raises(ValueError):
        Constellation(points=np.zeros(3, dtype=complex),
                      probabilities=np.zeros(4))
