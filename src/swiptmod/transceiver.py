"""Encoder/decoder mapping, power normalization and the constellation export.

Messages are 0-based indices throughout, the CSV export included.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .nn import encoder_table, mlp_forward, softmax_terms

EPS_NORM = 1e-20   # degenerate-batch guard on the pre-normalization energy
EPS_LOG = 1e-15    # clamp for log() in the cross entropy


class DegenerateEncoderError(ValueError):
    """The encoder maps every message to the origin, so there is no point to
    normalize, or some message to a non-finite point."""


class ConstellationFormatError(Exception):
    """Raised for malformed constellation CSV files (carries the line number)."""

    def __init__(self, message: str, line: int | None = None):
        super().__init__(message)
        self.line = line


@dataclass
class Constellation:
    """M complex points with their (uniform) symbol probabilities."""
    points: np.ndarray        # complex, shape (M,)
    probabilities: np.ndarray  # float, shape (M,)

    def __post_init__(self):
        self.points = np.asarray(self.points, dtype=complex)
        self.probabilities = np.asarray(self.probabilities, dtype=float)
        if self.points.shape != self.probabilities.shape:
            raise ValueError("points/probabilities shape mismatch")

    @property
    def size(self) -> int:
        return self.points.shape[0]

    def mean_power(self) -> float:
        return float(np.sum(self.probabilities * np.abs(self.points) ** 2))


def normalize_power(u: np.ndarray, msgs: np.ndarray, p_a: float):
    """Scale (2, M) encoder outputs so the batch msgs has mean power p_a.

    msgs are the batch's 0-based messages. Returns (scaled points, scale,
    energy, degenerate flag, counts), where counts_k, a float64, is how often
    message k occurs and energy is sum_k counts_k |u_k|^2; an all-but-zero
    energy keeps a clamped scale and is flagged degenerate.
    """
    x = np.asarray(msgs)
    if x.size == 0:
        raise ValueError("empty symbol batch")
    counts = np.bincount(x, minlength=u.shape[1]).astype(float)
    energy = float(np.add.reduce(u * u, axis=0) @ counts)
    degenerate = energy < EPS_NORM
    scale = math.sqrt(p_a * x.size / max(energy, EPS_NORM))
    return scale * u, scale, energy, degenerate, counts


def decode(decoder: list[np.ndarray], y: np.ndarray, ws: dict | None = None):
    """(2, B) real columns (re, im) of noisy symbols -> (e, s): the (M, B)
    columns exp(z - max z) of the logits z, computed in place over them, and
    their (B,) sums, so the probabilities are e / s. With a workspace e is
    its buffer, overwritten by the next call."""
    logits, _ = mlp_forward(decoder, y, ws)
    return softmax_terms(logits, out=logits)


def export_constellation(encoder: list[np.ndarray], m: int, p_a: float) -> Constellation:
    """The M messages' points, normalized as a batch holding each once."""
    u, _ = encoder_table(encoder)
    x, _, _, degenerate, _ = normalize_power(u, np.arange(m), p_a)
    if degenerate:
        raise DegenerateEncoderError("degenerate encoder: every message maps to the origin")
    if not np.isfinite(x).all():
        raise DegenerateEncoderError("degenerate encoder: non-finite constellation points")
    return Constellation(points=x[0] + 1j * x[1], probabilities=np.full(m, 1.0 / m))


# --- CSV interface: header index,probability,real,imag; 0-based index; ---
# --- 17-significant-digit decimals. ---

CSV_HEADER = "index,probability,real,imag"


def write_constellation_csv(constellation: Constellation, path) -> None:
    lines = [CSV_HEADER]
    for i, (pt, pr) in enumerate(zip(constellation.points,
                                     constellation.probabilities)):
        lines.append(f"{i},{pr:.17g},{pt.real:.17g},{pt.imag:.17g}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def read_constellation_csv(path) -> Constellation:
    try:
        with open(path) as fh:   # (line number, text) of each non-blank line
            rows = [(n, ln.strip()) for n, ln in enumerate(fh, start=1) if ln.strip()]
    except UnicodeDecodeError as exc:
        raise ConstellationFormatError(f"{path}: not UTF-8 text: {exc}") from exc
    if not rows:
        raise ConstellationFormatError(f"{path}: empty constellation CSV", line=0)
    lineno, header = rows[0]
    if header != CSV_HEADER:
        raise ConstellationFormatError(f"{path}:{lineno}: bad header {header!r}",
                                       line=lineno)
    if len(rows) == 1:
        raise ConstellationFormatError(f"{path}: no constellation rows", line=lineno)
    points, probs = [], []
    for want, (lineno, row) in enumerate(rows[1:]):
        parts = row.split(",")
        if len(parts) != 4:
            raise ConstellationFormatError(
                f"{path}:{lineno}: expected 4 fields, got {len(parts)}", line=lineno)
        try:
            idx = int(parts[0])
            pr, re, im = (float(p) for p in parts[1:])
        except ValueError as exc:
            raise ConstellationFormatError(
                f"{path}:{lineno}: unparseable row {row!r}", line=lineno) from exc
        if not all(map(math.isfinite, (pr, re, im))) or pr < 0.0:
            raise ConstellationFormatError(
                f"{path}:{lineno}: non-finite value or negative probability in {row!r}",
                line=lineno)
        if idx != want:
            raise ConstellationFormatError(
                f"{path}:{lineno}: index {idx} out of order", line=lineno)
        probs.append(pr)
        points.append(re + 1j * im)
    return Constellation(points=np.array(points), probabilities=np.array(probs))
