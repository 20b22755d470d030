"""End-to-end training: minibatch loop on the composite cost, restarts, sweep.

The computation graph is fixed (one-hot -> encoder -> power normalization ->
AWGN -> decoder -> cross entropy + lambda / P_del) and its reverse-mode
gradients are written out by hand; noise realizations are constants during
backpropagation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .channel import ROLE_DATA, ROLE_NOISE, derive_seed, sample_noise, substream
from .evaluator import MIN_SAMPLES
from .harvester import HarvesterModel, pdel_exact, pdel_with_grads
from .nn import (AdamState, NetworkParams, adam_step, init_params,
                 mlp_backward, mlp_forward, scratch, softmax)
from .transceiver import (EPS_LOG, Constellation, DegenerateEncoderError,
                          export_constellation, normalize_power)

EPS_PDEL = 1e-12   # clamp on P_del inside the cost


class TrainingFailure(Exception):
    """All restarts diverged (non-finite cost)."""


# Scale defaults of the two profiles, the sizes per message. TrainConfig
# resolves the desk row; config.resolve the row its `profile` key names.
PROFILES = {
    "desk": {"epochs": 1000, "restarts": 10, "minibatch_per_m": 100,
             "train_per_m": 10_000, "eval_per_m": 100_000},
    "paper": {"epochs": 5000, "restarts": 100, "minibatch_per_m": 1000,
              "train_per_m": 100_000, "eval_per_m": 5_000_000},
}
DESK = PROFILES["desk"]


@dataclass
class TrainConfig:
    m: int
    p_a: float
    snr: float
    harvester: HarvesterModel
    epochs: int = DESK["epochs"]
    minibatch_size: int | None = None     # default minibatch_per_m * M
    train_set_size: int | None = None     # default train_per_m * M
    learning_rate: float = 0.01
    restarts: int = DESK["restarts"]
    lambda_start: float = 1e-5
    lambda_factor: float = 2.0
    lambda_max_points: int = 12
    ser_max: float = 0.95
    seed: int = 0
    encoder_hidden: tuple[int, ...] | None = None   # default (2M,)
    decoder_hidden: tuple[int, ...] | None = None   # default (2M,)
    eval_samples: int | None = None       # default eval_per_m * M
    noise_variance: float | None = None   # explicit sigma^2 override

    def resolved(self) -> "TrainConfig":
        m = self.m
        return replace(
            self,
            minibatch_size=self.minibatch_size or DESK["minibatch_per_m"] * m,
            train_set_size=self.train_set_size or DESK["train_per_m"] * m,
            encoder_hidden=tuple(self.encoder_hidden or (2 * m,)),
            decoder_hidden=tuple(self.decoder_hidden or (2 * m,)),
            eval_samples=self.eval_samples or DESK["eval_per_m"] * m,
        )

    def encoder_dims(self) -> list[int]:
        return [self.m, *(self.encoder_hidden or (2 * self.m,)), 2]

    def decoder_dims(self) -> list[int]:
        return [2, *(self.decoder_hidden or (2 * self.m,)), self.m]

    def sigma2(self) -> float:
        """Total complex-noise variance: P_a / snr (linear), or the override."""
        if self.noise_variance is not None:
            return float(self.noise_variance)
        return self.p_a / self.snr

    def validate(self) -> None:
        if self.m < 2:
            raise ValueError("m must be >= 2")
        if self.p_a <= 0 or self.snr <= 0:
            raise ValueError("p_a and snr must be positive")
        if self.noise_variance is not None and self.noise_variance < 0:
            raise ValueError("noise_variance must be >= 0")
        cfg = self.resolved()
        if cfg.eval_samples < MIN_SAMPLES:
            raise ValueError(f"eval_samples must be >= {MIN_SAMPLES}")
        if cfg.minibatch_size <= 0 or cfg.train_set_size < cfg.minibatch_size:
            raise ValueError("need minibatch_size <= train_set_size, both positive")
        if self.epochs <= 0 or self.restarts <= 0:
            raise ValueError("epochs and restarts must be positive")
        if not 0.0 < self.ser_max < 1.0:
            raise ValueError("ser_max must lie in (0, 1)")
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")


@dataclass
class RunRecord:
    lam: float
    seed: int
    final_cost: float
    ser: float
    p_del: float
    cross_entropy: float
    constellation: Constellation | None
    failed: bool = False
    terminal: bool = False
    max_power_err: float = 0.0
    params: NetworkParams | None = None


def total_cost(batch_ce: float, p_del: float, lam: float) -> float:
    """Composite training cost: mean cross entropy plus lam / P_del (clamped)."""
    if lam == 0.0:
        return batch_ce
    return batch_ce + lam / max(p_del, EPS_PDEL)


def network_cost(params: NetworkParams, messages: np.ndarray, noise: np.ndarray,
                 p_a: float, lam: float, harvester: HarvesterModel,
                 want_grads: bool = True, ws: dict | None = None):
    """Cost of one minibatch with frozen noise; optionally its gradients.

    messages are 0-based indices, noise is (B, 2) real/imag components.
    Returns (cost, info, grads) where grads is a new vector laid out like
    params.flat (split it with params.views) or None. A workspace dict `ws`,
    reused from step to step, holds every batch-sized buffer; the results
    never point into it.
    """
    enc, dec = params.encoder, params.decoder
    msgs = np.asarray(messages, dtype=int)
    batch = msgs.shape[0]
    m = enc[0].in_dim

    # encoder on the M one-hot columns (first pre-activation W0 + b0[:, None]);
    # the batch is a gather of its output columns
    u, zs_e, post_e = mlp_forward(enc, np.eye(m), ws, "enc")

    xk, scale, energy, degenerate, counts = normalize_power(u, msgs, p_a)
    # mode="clip" writes into `out` unbuffered; bincount/energy reject bad msgs
    y = np.take(xk, msgs, axis=1, out=scratch(ws, "y", (2, batch)), mode="clip")
    y += noise.T

    logits, zs_d, post_d = mlp_forward(dec, y, ws, "dec")
    probs = softmax(logits, out=logits)

    cols = np.arange(batch)
    ce = float(-np.log(np.maximum(probs[msgs, cols], EPS_LOG)).mean())

    # per-point gradients weighted by counts/B are sums over that message's rows
    p_del, dpdel_r, dpdel_i = pdel_with_grads(xk[0] + 1j * xk[1],
                                              harvester, counts / batch)
    cost = total_cost(ce, p_del, lam)
    info = {
        "cross_entropy": ce,
        "p_del": p_del,
        "degenerate": degenerate,
        "batch_power": float(np.sum(xk * xk, axis=0) @ counts) / batch,
    }
    if not want_grads:
        return cost, info, None

    # softmax + cross entropy head, averaged over the batch; the logits buffer
    # holds the probabilities and becomes dlogits in place
    dlogits = probs
    dlogits[msgs, cols] -= 1.0
    dlogits /= batch
    grads = np.empty_like(params.flat)
    views = params.views(grads)
    dy = mlp_backward(dec, zs_d, post_d, dlogits, views[2 * len(enc):], ws, "dec")

    # fold the (2, B) channel-input gradient onto the M points
    dx = np.stack([np.bincount(msgs, weights=dy[j], minlength=m) for j in range(2)])
    if lam > 0.0 and p_del > EPS_PDEL:
        coef = -lam / (p_del * p_del)
        dx[0] += coef * dpdel_r
        dx[1] += coef * dpdel_i

    # power normalization: x_k = scale(u) * u_k, energy = sum_k counts_k |u_k|^2
    if degenerate:
        du = scale * dx
    else:
        du = scale * (dx - (float(np.sum(dx * u)) / energy) * counts * u)

    # the encoder output layer is linear, so d(cost)/d(last z) is du itself;
    # its input is the identity, so d(cost)/d(W0) is dz0 exactly
    mlp_backward(enc, zs_e, post_e, du, views[:2 * len(enc)], ws, "enc")
    return cost, info, grads


def train_run(cfg: TrainConfig, lam: float, seed: int) -> RunRecord:
    """One full optimization run at a fixed lambda and restart seed."""
    from .evaluator import estimate_ser

    cfg = cfg.resolved()
    cfg.validate()
    sigma2 = cfg.sigma2()
    params = init_params(cfg.encoder_dims(), cfg.decoder_dims(), seed)
    state = AdamState.for_params(params, cfg.learning_rate)
    data_rng = substream(seed, ROLE_DATA)
    noise_rng = substream(seed, ROLE_NOISE)
    steps_per_epoch = max(1, cfg.train_set_size // cfg.minibatch_size)
    max_power_err = 0.0
    failed = RunRecord(lam=lam, seed=seed, final_cost=math.nan, ser=1.0,
                       p_del=math.nan, cross_entropy=math.nan,
                       constellation=None, failed=True)
    ws = {}   # this restart's batch-sized buffers, reused by every step

    # divergence shows as a non-finite cost or as softmax rejecting its logits
    try:
        for _ in range(cfg.epochs):
            for _ in range(steps_per_epoch):
                msgs = data_rng.integers(0, cfg.m, size=cfg.minibatch_size)
                noise = sample_noise(cfg.minibatch_size, sigma2, noise_rng)
                cost, info, grads = network_cost(params, msgs, noise, cfg.p_a,
                                                 lam, cfg.harvester, ws=ws)
                if not math.isfinite(cost):
                    return failed
                if not info["degenerate"]:
                    max_power_err = max(max_power_err,
                                        abs(info["batch_power"] - cfg.p_a))
                adam_step(params.flat, grads, state)
        ws.clear()   # released before the evaluation's own large blocks
        const = export_constellation(params.encoder, cfg.m, cfg.p_a)
        report = estimate_ser(const, params.decoder, sigma2, cfg.eval_samples,
                              seed=seed)
    except (FloatingPointError, DegenerateEncoderError):
        return failed   # also when every point sits at the origin or is non-finite
    p_del = pdel_exact(const, cfg.harvester)
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


def lambda_schedule(cfg: TrainConfig) -> list[float]:
    """0 followed by start * factor^k, capped at lambda_max_points values."""
    lams = [0.0]
    k = 0
    while len(lams) < cfg.lambda_max_points:
        lams.append(cfg.lambda_start * cfg.lambda_factor ** k)
        k += 1
    return lams


def restart_seeds(cfg: TrainConfig, lam_index: int) -> list[int]:
    return [derive_seed(cfg.seed, lam_index, r) for r in range(cfg.restarts)]


def lambda_sweep(cfg: TrainConfig, progress=None) -> list[RunRecord]:
    """Sweep lambda upward until SER exceeds ser_max or the schedule ends.

    The violating record is retained and marked terminal.
    """
    cfg = cfg.resolved()
    records = []
    for k, lam in enumerate(lambda_schedule(cfg)):
        rec = multi_restart(cfg, lam, restart_seeds(cfg, k))
        records.append(rec)
        if progress is not None:
            progress(rec)
        if rec.ser > cfg.ser_max:
            rec.terminal = True
            break
    return records
