"""End-to-end training: minibatch loop on the composite cost, restarts, sweep.

The computation graph is fixed (one-hot -> encoder -> power normalization ->
AWGN -> decoder -> cross entropy + lambda / P_del) and its reverse-mode
gradients are written out by hand; noise realizations are constants during
backpropagation.
"""

from __future__ import annotations

import math
import sys
from collections.abc import Iterator
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import evaluator
from .channel import ROLE_DATA, ROLE_NOISE, derive_seed, sample_noise, substream
from .harvester import HarvesterModel, pdel_exact, pdel_with_grads
from .nn import (AdamState, NetworkParams, adam_step, encoder_table,
                 init_params, mlp_backward, mlp_forward, softmax)
from .transceiver import (EPS_LOG, Constellation, DegenerateEncoderError,
                          export_constellation, normalize_power)

EPS_PDEL = 1e-12   # clamp on P_del inside the cost
SER_MAX = 0.95   # a sweep stops after the first point whose SER exceeds this
_DRAW_CHUNK = 1 << 14   # samples drawn at once: the same numbers as per minibatch


class TrainingFailure(Exception):
    """All restarts diverged (non-finite cost)."""


@dataclass(frozen=True)
class TrainConfig:
    """Training constants, complete and checked once, when built.

    The epochs, restarts and sizes have no default: config.resolve fills the
    ones a config file leaves unset from its profile. A value outside its
    domain, or a lambda ladder that overflows, raises ValueError naming the
    field. The ladder's domain (a normal start, a factor >= 1.000001) keeps
    every rung's lambda_<.6e> directory name its own.
    """
    m: int
    p_a: float
    snr: float
    harvester: HarvesterModel
    epochs: int
    restarts: int
    minibatch_size: int
    train_set_size: int
    eval_samples: int
    lambda_start: float = 1e-5
    lambda_factor: float = 2.0
    lambda_max_points: int = 12
    seed: int = 0

    def __post_init__(self):
        def above(v, floor=0.0):
            return math.isfinite(v) and v > floor

        def at_least(v, floor):
            return math.isfinite(v) and v >= floor

        def count(v, floor=1):   # an int (not a bool) >= floor
            return isinstance(v, int) and not isinstance(v, bool) and v >= floor

        for name, ok, need in [
            ("m", count(self.m, 2), "an int >= 2"),
            ("harvester", isinstance(self.harvester, HarvesterModel),
             "a ModelAParams or ModelBParams"),
            ("p_a", above(self.p_a), "finite and positive"),
            ("snr", above(self.snr), "finite and positive"),
            ("epochs", count(self.epochs), "a positive int"),
            ("restarts", count(self.restarts), "a positive int"),
            ("train_set_size", count(self.train_set_size), "a positive int"),
            ("minibatch_size", count(self.minibatch_size)
             and self.minibatch_size <= self.train_set_size,
             "a positive int, at most train_set_size"),
            # the widest 7-digit name, 1.000001e+k, spans [1.0000005, 1.0000015)
            # * 10**k, a ratio of 1 + 9.99999e-7; a normal rung start * factor**k
            # rounds within a relative few 1e-16, so a factor >= 1.000001
            # (1 + 9.9999999992e-7 as a float) parts every pair of neighbours
            ("lambda_start", at_least(self.lambda_start, sys.float_info.min),
             f"finite and >= {sys.float_info.min!r}, the smallest normal float"),
            ("lambda_factor", at_least(self.lambda_factor, 1.000001),
             "finite and >= 1.000001"),
            ("lambda_max_points", count(self.lambda_max_points), "a positive int"),
            ("seed", count(self.seed, 0), "an int >= 0"),
            ("eval_samples", count(self.eval_samples, evaluator.MIN_SAMPLES),
             f"an int >= {evaluator.MIN_SAMPLES}"),
        ]:
            if not ok:
                raise ValueError(f"{name} must be {need}, got {getattr(self, name)!r}")
        try:   # the ladder's top rung, computed as lambda_schedule computes it
            top = self.lambda_start * self.lambda_factor ** (self.lambda_max_points - 2)
        except OverflowError:
            top = math.inf
        if not math.isfinite(top):
            raise ValueError("lambda_start * lambda_factor ** (lambda_max_points - 2) "
                             "must be a finite float")

    def sigma2(self) -> float:
        """Total complex-noise variance: P_a / snr (linear)."""
        return self.p_a / self.snr


@dataclass
class RunRecord:
    """One restart's outcome; a failed one keeps the defaults."""
    lam: float
    seed: int
    final_cost: float = math.nan
    ser: float = 1.0
    p_del: float = math.nan
    cross_entropy: float = math.nan
    constellation: Constellation | None = None
    failed: bool = False
    terminal: bool = False
    max_power_err: float = 0.0
    params: NetworkParams | None = None


def total_cost(batch_ce: float, p_del: float, lam: float) -> float:
    """Composite training cost: mean cross entropy plus lam / P_del (clamped)."""
    return batch_ce + lam / max(p_del, EPS_PDEL)


class StepBuffers(NamedTuple):
    """network_cost's constants and own buffers for M messages and batch B."""
    cols: np.ndarray       # arange(B)
    grads: NetworkParams   # the backward pass's targets
    y: np.ndarray          # (2, B) channel output
    pick_at: np.ndarray    # (B,) int: msgs * B + cols
    pick: np.ndarray       # (B,) each sample's probability of its message
    logp: np.ndarray       # (B,) its clamped log
    weights: np.ndarray    # (M,) counts / B
    dy: np.ndarray         # (2, B) the decoder's input gradient
    fold_at: np.ndarray    # (2, B) int: bincount bins (msgs, msgs + M)


def step_buffers(m: int, batch: int) -> StepBuffers:
    """New StepBuffers: train_run builds them once per restart."""
    return StepBuffers(np.arange(batch), NetworkParams(m), np.empty((2, batch)),
                       np.empty(batch, int), np.empty(batch), np.empty(batch),
                       np.empty(m), np.empty((2, batch)), np.empty((2, batch), int))


def network_cost(params: NetworkParams, messages: np.ndarray, noise: np.ndarray,
                 p_a: float, lam: float, harvester: HarvesterModel,
                 want_grads: bool = True, ws: dict | None = None):
    """Cost of one minibatch with frozen noise; optionally its gradients.

    messages are 0-based indices, noise is (B, 2) real/imag components.
    Returns (cost, info, grads) where grads is a vector laid out like
    params.flat (split it with params.views) or None. A workspace dict `ws`,
    reused from step to step, holds every buffer of the nets and the
    harvester. Its "step" entry, which train_run sets once per restart to
    step_buffers(M, B), holds this function's own; grads then is its
    gradient vector, valid until the next call. Without that entry they are
    built for the call and grads is a new vector.
    """
    enc, dec = params.encoder, params.decoder
    m = params.m
    msgs = np.asarray(messages, dtype=int)
    batch = msgs.shape[0]
    step = None if ws is None else ws.get("step")
    if step is None:
        step = step_buffers(m, batch)
    cols, grads, y, pick_at, pick, logp, weights, dy, fold_at = step

    # encoder on the M one-hot messages; the batch is a gather of its points
    u, saved_e = encoder_table(enc, ws)

    xk, scale, energy, degenerate, counts = normalize_power(u, msgs, p_a)
    # mode="clip" writes into `out` unbuffered; bincount/energy reject bad msgs
    xk.take(msgs, axis=1, out=y, mode="clip")
    y += noise.T

    logits, saved_d = mlp_forward(dec, y, ws, "dec")
    probs = softmax(logits, out=logits)

    # each sample's probability of its own message, at msgs * B + cols of the
    # flattened (M, B) probabilities
    np.multiply(msgs, batch, out=pick_at)
    pick_at += cols
    probs.take(pick_at, out=pick, mode="clip")
    np.maximum(pick, EPS_LOG, out=logp)
    ce = -float(np.add.reduce(np.log(logp, out=logp), axis=None)) / batch

    # per-point gradients weighted by counts/B are sums over that message's rows
    np.divide(counts, batch, out=weights)
    p_del, dpdel = pdel_with_grads(xk, harvester, weights, ws)
    cost = total_cost(ce, p_del, lam)
    info = {
        "cross_entropy": ce,
        "p_del": p_del,
        "degenerate": degenerate,
        "batch_power": float(np.add.reduce(xk * xk, axis=0) @ counts) / batch,
    }
    if not want_grads:
        return cost, info, None

    # softmax + cross entropy head, averaged over the batch; the logits buffer
    # holds the probabilities and becomes dlogits in place
    dlogits = probs
    pick -= 1.0
    dlogits.put(pick_at, pick)
    dlogits /= batch
    dz = mlp_backward(dec, saved_d, dlogits, grads.decoder, ws, "dec")
    # the decoder's input gradient; the encoder's input is the fixed one-hot
    # messages, so its own is never formed
    np.matmul(dec[0].T, dz, out=dy)

    # fold the (2, B) channel-input gradient onto the M points: one bincount
    # of row j's samples into bins j*M + msgs
    fold_at[0] = msgs
    np.add(msgs, m, out=fold_at[1])
    dx = np.bincount(fold_at.reshape(-1), weights=dy.reshape(-1),
                     minlength=2 * m).reshape(2, m)
    if lam > 0.0 and p_del > EPS_PDEL:
        dx += np.multiply(dpdel, -lam / (p_del * p_del), out=dpdel)

    # power normalization: x_k = scale(u) * u_k, energy = sum_k counts_k |u_k|^2
    if degenerate:
        du = scale * dx
    else:
        du = scale * (dx - (float(np.add.reduce(dx * u, axis=None)) / energy) * counts * u)

    # the encoder output layer is linear, so d(cost)/d(output) is du itself;
    # its input is one-hot, so d(cost)/d(W1) is the hidden gradient exactly
    mlp_backward(enc, saved_e, du, grads.encoder, ws, "enc")
    return cost, info, grads.flat


def evaluate(params: NetworkParams, cfg: TrainConfig, seed: int):
    """(constellation, EvalReport, P_del) of a trained autoencoder: its
    exported points, their SER over cfg.eval_samples draws from `seed`, and
    pdel_exact. An overflow or invalid operation anywhere, or non-finite
    logits, raises FloatingPointError; an encoder that maps every message to
    the origin, or to non-finite points, raises DegenerateEncoderError."""
    with np.errstate(over="raise", invalid="raise"):
        const = export_constellation(params.encoder, cfg.m, cfg.p_a)
        report = evaluator.estimate_ser(const, params.decoder, cfg.sigma2(),
                                        cfg.eval_samples, seed=seed)
        return const, report, pdel_exact(const, cfg.harvester)


def train_run(cfg: TrainConfig, lam: float, seed: int) -> RunRecord:
    """One full optimization run at a fixed lambda and restart seed."""
    sigma2 = cfg.sigma2()
    params = init_params(cfg.m, seed)
    state = AdamState.for_params(params)
    data_rng = substream(seed, ROLE_DATA)
    noise_rng = substream(seed, ROLE_NOISE)
    batch = cfg.minibatch_size
    steps = cfg.epochs * (cfg.train_set_size // batch)
    per_draw = max(1, _DRAW_CHUNK // batch)
    max_power_err = 0.0
    ws = {"step": step_buffers(cfg.m, batch)}

    # divergence shows as a non-finite cost, as softmax rejecting its logits,
    # or as an overflow or invalid operation in a step or in the final
    # evaluation; each raises, and the one except below fails the restart
    try:
        with np.errstate(over="raise", invalid="raise"):
            for first in range(0, steps, per_draw):
                k = min(per_draw, steps - first)
                msgs_k = data_rng.integers(0, cfg.m, size=(k, batch))
                noise_k = sample_noise(k * batch, sigma2, noise_rng).reshape(k, batch, 2)
                for msgs, noise in zip(msgs_k, noise_k):
                    cost, info, grads = network_cost(params, msgs, noise, cfg.p_a,
                                                     lam, cfg.harvester, ws=ws)
                    if not math.isfinite(cost):
                        raise FloatingPointError(f"non-finite cost {cost}")
                    if not info["degenerate"]:
                        max_power_err = max(max_power_err,
                                            abs(info["batch_power"] - cfg.p_a))
                    adam_step(params.flat, grads, state)
        # the evaluation needs neither the step buffers nor the last draw chunk
        del ws, msgs_k, noise_k, msgs, noise
        const, report, p_del = evaluate(params, cfg, seed)
    except (FloatingPointError, DegenerateEncoderError):
        # also when every point sits at the origin or is non-finite
        return RunRecord(lam=lam, seed=seed, failed=True)
    final_cost = total_cost(report.cross_entropy, p_del, lam)
    return RunRecord(lam=lam, seed=seed, final_cost=final_cost, ser=report.ser,
                     p_del=p_del, cross_entropy=report.cross_entropy,
                     constellation=const, max_power_err=max_power_err,
                     params=params)


def multi_restart(cfg: TrainConfig, lam: float, seeds: list[int]) -> RunRecord:
    """Best-of-restarts: the record minimizing final cost, ties to lowest seed."""
    if not seeds:
        raise ValueError("multi_restart needs at least one seed")
    records = [train_run(cfg, lam, s) for s in seeds]
    ok = [r for r in records if not r.failed]
    if not ok:
        raise TrainingFailure(f"all {len(seeds)} restarts diverged at lambda={lam}")
    return min(ok, key=lambda r: (r.final_cost, r.seed))


def lambda_schedule(cfg: TrainConfig) -> Iterator[float]:
    """0 followed by start * factor^k, capped at lambda_max_points values;
    lazy, so a long ladder cut short by the stop rule is never built."""
    yield 0.0
    for k in range(cfg.lambda_max_points - 1):
        yield cfg.lambda_start * cfg.lambda_factor ** k


def restart_seeds(cfg: TrainConfig, lam_index: int) -> list[int]:
    return [derive_seed(cfg.seed, lam_index, r) for r in range(cfg.restarts)]


def lambda_sweep(cfg: TrainConfig) -> Iterator[RunRecord]:
    """Yield each lambda point's best-of-restarts record, in schedule order,
    until one's SER exceeds SER_MAX: that record is marked terminal and is
    the last one."""
    for k, lam in enumerate(lambda_schedule(cfg)):
        rec = multi_restart(cfg, lam, restart_seeds(cfg, k))
        rec.terminal = rec.ser > SER_MAX
        yield rec
        if rec.terminal:
            return
