"""Tests for encoding, normalization, decoding, losses and the CSV interface."""

import numpy as np
import pytest
from mpmath import mp

from oracles import classical_baseline
from swiptmod.channel import ROLE_MISC, sample_noise, substream
from swiptmod.evaluator import estimate_ser
from swiptmod.harvester import ModelAParams
from swiptmod.nn import NetworkParams, init_params, mlp_forward
from swiptmod.trainer import network_cost
from swiptmod.transceiver import (CSV_HEADER, Constellation,
                                  ConstellationFormatError,
                                  DegenerateEncoderError, decode,
                                  export_constellation, normalize_power,
                                  read_constellation_csv,
                                  write_constellation_csv)

MODEL_A = ModelAParams(alpha=0.3829, beta=0.0034, gamma=0.0)


# ---------------------------------------------------------------------------
# encode: the export runs every message through the encoder once
# ---------------------------------------------------------------------------

def test_one_hot_first_and_last():
    # with an identity in W1's first M rows, the encoder reads column s of
    # W2 for message s (0-based)
    enc = NetworkParams(4).encoder
    enc[0][:4] = np.eye(4)
    enc[2][:, :4] = [[10.0, 11.0, 12.0, 13.0], [0.0, 0.0, 0.0, -1.0]]
    pts = export_constellation(enc, 4, 1.0).points
    scale = pts[0].real / 10.0
    assert np.allclose(pts, scale * np.array([10, 11, 12, 13 - 1j]), rtol=1e-15)


def test_encode_deterministic_per_message():
    enc = init_params(4, seed=3).encoder
    pts = export_constellation(enc, 4, 0.001).points
    assert np.array_equal(pts, export_constellation(enc, 4, 0.001).points)
    assert len(set(np.round(pts, 12))) == 4
    # point k is message k's encoder output on its own, scaled
    alone = [mlp_forward(enc, np.eye(4)[:, [k]])[0][:, 0] for k in range(4)]
    scale = np.sqrt(0.001 * 4 / sum(u @ u for u in alone))
    for k, u in enumerate(alone):
        assert pts[k] == pytest.approx(scale * (u[0] + 1j * u[1]), rel=1e-14)


def test_encode_zero_weights_gives_origin():
    # a training step on an all-zero encoder sends every message to the origin
    params = init_params(4, seed=0)
    for w in params.encoder[::2]:
        w[:] = 0.0
    noise = sample_noise(6, 2e-5, substream(0, ROLE_MISC))
    cost, info, grads = network_cost(params, np.arange(6) % 4, noise, 0.001,
                                     1e-4, MODEL_A)
    assert info["degenerate"]
    assert info["batch_power"] == 0.0 and info["p_del"] == 0.0
    assert np.isfinite(cost) and np.all(np.isfinite(grads))


# ---------------------------------------------------------------------------
# normalize_power: (2, M) points weighted by their counts in the batch
# ---------------------------------------------------------------------------

def test_normalize_single_symbol():
    scaled, scale, energy, degenerate, _ = normalize_power(np.array([[3.0], [4.0]]),
                                                           np.array([0]), 1.0)
    assert not degenerate and energy == 25.0
    assert scaled[:, 0] == pytest.approx([0.6, 0.8], abs=1e-15)


def test_normalize_two_symbol_batch():
    u = np.array([[1.0, 0.0], [0.0, 0.0]])
    scaled, _, _, degenerate, _ = normalize_power(u, np.arange(2), 1.0)
    assert not degenerate
    assert scaled[0, 0] == pytest.approx(np.sqrt(2), abs=1e-15)
    assert not scaled[:, 1].any()
    assert np.mean(np.sum(scaled ** 2, axis=0)) == pytest.approx(1.0, abs=1e-15)


def test_normalize_already_normalized_unchanged():
    u = np.array([[0.6, -0.6], [0.8, -0.8]])  # mean power exactly 1
    scaled, scale, _, _, _ = normalize_power(u, np.arange(2), 1.0)
    assert scale == pytest.approx(1.0, abs=1e-15)
    assert np.allclose(scaled, u, atol=1e-15)


def test_normalize_counts_weight_the_mean_power():
    u = np.array([[1.0, 3.0], [0.0, 0.0]])
    scaled, _, energy, _, counts = normalize_power(u, np.array([0, 1, 0, 0]), 2.0)
    assert energy == 12.0 and counts.tolist() == [3, 1]
    assert (3 * scaled[0, 0] ** 2 + scaled[0, 1] ** 2) / 4 == pytest.approx(2.0, rel=1e-15)
    # a message absent from the batch counts for nothing, but is scaled too
    scaled, _, energy, _, counts = normalize_power(u, np.array([0]), 2.0)
    assert energy == 1.0 and counts.tolist() == [1, 0] and scaled[0] == pytest.approx([np.sqrt(2), 3 * np.sqrt(2)])


def test_normalize_degenerate_batch_flagged():
    scaled, scale, _, degenerate, _ = normalize_power(np.zeros((2, 4)), np.arange(4), 1.0)
    assert degenerate
    assert np.all(np.isfinite(scaled))
    assert np.isfinite(scale)


def test_normalize_empty_batch_rejected():
    with pytest.raises(ValueError, match="empty symbol batch"):
        normalize_power(np.ones((2, 3)), np.array([], int), 1.0)


# ---------------------------------------------------------------------------
# decode
# ---------------------------------------------------------------------------

def test_decode_zero_weights_uniform():
    e, sums = decode(NetworkParams(4).decoder, np.array([[0.3], [-0.7]]))
    assert e.shape == (4, 1) and sums.shape == (1,)
    assert np.array_equal(e, np.ones((4, 1))) and sums[0] == 4.0


def test_decode_reproducible_and_normalized():
    dec = init_params(4, seed=6).decoder
    y = np.array([[0.1, -0.3, 0.7], [0.2, 0.05, -0.4]])   # (re, im) rows
    before = y.copy()
    e1, s1 = decode(dec, y)
    e2, s2 = decode(dec, y)
    assert np.array_equal(y, before)
    assert e1.shape == (4, 3) and s1.shape == (3,)
    assert np.array_equal(e1, e2) and np.array_equal(s1, s2)
    # e = exp(z - max z): each column's top entry is exactly 1, and s its sums
    assert np.array_equal(e1.max(axis=0), np.ones(3))
    assert np.array_equal(s1, e1.sum(axis=0))
    p1 = e1 / s1
    assert np.allclose(p1.sum(axis=0), 1.0, atol=1e-12)
    for j in range(3):   # each column is that sample decoded alone
        e, s = decode(dec, y[:, j:j + 1])
        assert np.allclose(p1[:, j], e[:, 0] / s[0], rtol=0, atol=1e-15)


# ---------------------------------------------------------------------------
# cross entropy: a training step's info["cross_entropy"] and estimate_ser's
# ---------------------------------------------------------------------------

def _step_ce(biases, msgs, seed=0):
    """A training step's cross entropy with a decoder whose output is
    softmax(biases) whatever its input."""
    params = init_params(4, seed)
    w1, _, w2, b2 = params.decoder
    w1[:] = w2[:] = 0.0
    b2[:] = biases
    noise = sample_noise(len(msgs), 2e-5, substream(seed, ROLE_MISC))
    _, info, _ = network_cost(params, np.asarray(msgs), noise, 0.001, 0.0, MODEL_A)
    return info["cross_entropy"]


def test_cross_entropy_perfect_prediction():
    # exp(-1000) underflows, so message 1 gets probability exactly 1
    assert _step_ce([0.0, 1000.0, 0.0, 0.0], [1, 1, 1]) == 0.0


def test_cross_entropy_uniform():
    dec = NetworkParams(32).decoder
    report = estimate_ser(classical_baseline("QAM", 32, 0.001), dec, 2e-5, 3000, seed=0)
    assert report.cross_entropy == pytest.approx(np.log(32), rel=1e-12)


def test_cross_entropy_against_high_precision():
    biases = [0.1, -0.3, 0.7, 0.2]
    msgs = [0, 2, 3, 3, 1]
    with mp.workdps(50):
        logz = mp.log(sum(mp.exp(mp.mpf(b)) for b in biases))
        expected = float(sum(logz - mp.mpf(biases[s]) for s in msgs) / len(msgs))
    assert _step_ce(biases, msgs) == pytest.approx(expected, rel=1e-15)


def test_cross_entropy_shape_mismatch():
    # more messages than noise rows
    params = init_params(4, seed=0)
    with pytest.raises(ValueError):
        network_cost(params, np.array([0, 1, 2]), np.zeros((2, 2)), 0.001, 0.0, MODEL_A)


def test_batch_cross_entropy_matches_scalar_mean():
    params = init_params(4, seed=5)
    rng = substream(5, ROLE_MISC)
    msgs = rng.integers(0, 4, size=6)
    noise = sample_noise(6, 2e-4, rng)
    _, info, _ = network_cost(params, msgs, noise, 0.01, 0.0, MODEL_A)
    u, _ = mlp_forward(params.encoder, np.eye(4))
    x, _, _, _, _ = normalize_power(u, msgs, 0.01)
    def own(j, s):   # sample j's probability of its own message s, decoded alone
        e, sums = decode(params.decoder, x[:, s:s + 1] + noise[j, :, None])
        return e[s, 0] / sums[0]
    scalar = np.mean([-np.log(own(j, s)) for j, s in enumerate(msgs)])
    assert info["cross_entropy"] == pytest.approx(scalar, rel=1e-12)


# ---------------------------------------------------------------------------
# export + CSV
# ---------------------------------------------------------------------------

def test_export_constellation_power_and_size():
    params = init_params(8, seed=2)
    const = export_constellation(params.encoder, 8, 0.001)
    assert const.size == 8
    assert const.mean_power() == pytest.approx(0.001, rel=1e-12)
    assert np.allclose(const.probabilities, 1 / 8)


def test_export_constellation_degenerate_encoder():
    with pytest.raises(DegenerateEncoderError):
        export_constellation(NetworkParams(4).encoder, 4, 0.001)
    assert issubclass(DegenerateEncoderError, ValueError)


def test_csv_round_trip_byte_identical(tmp_path):
    params = init_params(8, seed=4)
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
    (CSV_HEADER + "\n0,0.5,1,2\n1,0.5,nan,2\n", 3),   # non-finite real
    (CSV_HEADER + "\n0,0.5,-inf,2\n", 2),
    (CSV_HEADER + "\n0,0.5,1,inf\n", 2),              # non-finite imag
    (CSV_HEADER + "\n0,0.5,1,NaN\n", 2),
    (CSV_HEADER + "\n0,nan,1,2\n", 2),                # non-finite probability
    (CSV_HEADER + "\n0,inf,1,2\n", 2),
    (CSV_HEADER + "\n0,0.5,1,2\n1,-0.5,3,4\n", 3),   # negative probability
    # blank lines count: the line is the file's own line number
    ("\n" + CSV_HEADER + "\n0,0.5,1,2\n\n\n1,0.5,3\n", 6),
    ("\n\nwrong,header\n0,0.5,1,2\n", 3),
    ("\n" + CSV_HEADER + "\n\n", 2),
    (CSV_HEADER + "\n\n0,0.5,1,2\n\n2,0.5,3,4\n", 5),   # index checked by row
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
