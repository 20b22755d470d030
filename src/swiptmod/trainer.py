"""End-to-end training: minibatch loop on the composite cost, restarts, sweep.

The computation graph is fixed (one-hot -> encoder -> power normalization ->
AWGN -> decoder -> cross entropy + lambda / P_del) and its reverse-mode
gradients are written out by hand; noise realizations are constants during
backpropagation.
"""

from __future__ import annotations

import math
import os
import pickle
import sys
import threading
from collections.abc import Iterable, Iterator
from contextlib import closing
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import evaluator
from .channel import ROLE_DATA, ROLE_NOISE, derive_seed, sample_noise, substream
from .harvester import (HarvesterModel, PdelBuffers, pdel_buffers, pdel_exact,
                        pdel_with_grads)
from .nn import (AdamState, NetBuffers, NetworkParams, adam_step, encoder_table,
                 init_params, mlp_backward, mlp_forward, net_buffers, softmax)
from .transceiver import (EPS_LOG, Constellation, DegenerateEncoderError,
                          export_constellation, normalize_power)

EPS_PDEL = 1e-12   # clamp on P_del inside the cost
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
    max_power_err: float = 0.0
    params: NetworkParams | None = None


def total_cost(batch_ce: float, p_del: float, lam: float) -> float:
    """Composite training cost: mean cross entropy plus lam / P_del (clamped)."""
    return batch_ce + lam / max(p_del, EPS_PDEL)


class StepWorkspace(NamedTuple):
    """Every buffer one network_cost step writes, for M messages and batch B."""
    cols: np.ndarray       # arange(B)
    grads: NetworkParams   # the backward pass's targets
    pick_at: np.ndarray    # (B,) int: msgs * B + cols
    pick: np.ndarray       # (B,) each sample's probability of its message
    logp: np.ndarray       # (B,) its clamped log
    weights: np.ndarray    # (M,) counts / B
    dy: np.ndarray         # (2, B) the decoder's input gradient
    fold_at: np.ndarray    # (2, B) int: bincount bins (msgs, msgs + M)
    enc: NetBuffers        # the encoder table's
    dec: NetBuffers        # the decoder's; its input block x is the channel output
    pdel: PdelBuffers      # the harvester's


def step_workspace(m: int, batch: int) -> StepWorkspace:
    """New StepWorkspace: a Restart builds it once."""
    grads = NetworkParams(m)
    return StepWorkspace(np.arange(batch), grads, np.empty(batch, int), np.empty(batch),
                         np.empty(batch), np.empty(m), np.empty((2, batch)),
                         np.empty((2, batch), int), net_buffers(grads.encoder, m, table=True),
                         net_buffers(grads.decoder, batch), pdel_buffers(m))


def network_cost(params: NetworkParams, messages: np.ndarray, noise: np.ndarray,
                 p_a: float, lam: float, harvester: HarvesterModel,
                 want_grads: bool = True, ws: StepWorkspace | None = None):
    """Cost of one minibatch with frozen noise; optionally its gradients.

    messages are 0-based indices, noise is (B, 2) real/imag components.
    Returns (cost, info, grads) where grads is a vector laid out like
    params.flat (split it with params.views) or None. Every buffer the step
    writes is in the StepWorkspace `ws`, which a Restart makes once, as
    step_workspace(M, B). With it, the messages must be an int array of B
    and nothing is checked; grads is its gradient vector, valid until the
    next call. Without it the messages are converted, one-off buffers are
    made for the call and grads is a new vector.
    """
    enc, dec = params.encoder, params.decoder
    m = params.m
    msgs = messages
    if ws is None:
        msgs = np.asarray(messages, dtype=int)
        ws = step_workspace(m, msgs.shape[0])
    cols, grads, pick_at, pick, logp, weights, dy, fold_at, enc_ws, dec_ws, pdel_ws = ws
    batch = cols.shape[0]

    # encoder on the M one-hot messages; the batch is a gather of its points
    u, saved_e = encoder_table(enc, enc_ws)

    xk, scale, energy, degenerate, counts = normalize_power(u, msgs, p_a)
    # the channel output lands in the decoder's input block, over its ones row;
    # mode="clip" writes into `out` unbuffered; bincount/energy reject bad msgs
    y = dec_ws.x
    xk.take(msgs, axis=1, out=y, mode="clip")
    y += noise.T

    logits, saved_d = mlp_forward(dec, y, dec_ws)
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
    p_del, dpdel = pdel_with_grads(xk, harvester, weights, pdel_ws)
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
    dz = mlp_backward(dec, saved_d, dlogits, grads.decoder, dec_ws)
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
    mlp_backward(enc, saved_e, du, grads.encoder, enc_ws)
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


class Restart:
    """One optimization run at a fixed lambda and restart seed, stepped in
    pieces: its parameters, Adam state, data and noise streams, step count,
    max_power_err and step workspace, all made once, when it is built.

    advance(steps) trains up to that many more steps and returns the
    Restart; finish() ends it: it drops the step workspace and the last draw
    chunk, evaluates the net and returns its RunRecord. Divergence shows as a
    non-finite cost, as softmax rejecting its logits, or as an overflow or
    invalid operation in a step or in the final evaluation; it fails the
    restart, so later advances do nothing and finish returns a failed record.
    """

    def __init__(self, cfg: TrainConfig, lam: float, seed: int):
        self.cfg, self.lam, self.seed = cfg, lam, seed
        self.params = init_params(cfg.m, seed)
        self.adam = AdamState.for_params(self.params)
        self.data_rng = substream(seed, ROLE_DATA)
        self.noise_rng = substream(seed, ROLE_NOISE)
        self.total_steps = cfg.epochs * (cfg.train_set_size // cfg.minibatch_size)
        self.step = 0
        self.max_power_err = 0.0
        self.failed = False
        self.ws = step_workspace(cfg.m, cfg.minibatch_size)
        self.chunk = None   # (messages, noise) of the draw chunk being walked

    def advance(self, steps: int) -> Restart:
        """Train min(steps, the steps left) more steps. The messages and noise
        of up to _DRAW_CHUNK samples (whole minibatches, at least one) are
        drawn at once, in chunks counted from the first step, so a restart
        advanced in pieces draws and trains as one advanced whole."""
        cfg, lam, params, state, ws = self.cfg, self.lam, self.params, self.adam, self.ws
        p_a, harvester, batch = cfg.p_a, cfg.harvester, cfg.minibatch_size
        per_draw = max(1, _DRAW_CHUNK // batch)
        end = min(self.step + steps, self.total_steps)
        max_power_err = self.max_power_err
        try:
            with np.errstate(over="raise", invalid="raise"):
                while not self.failed and self.step < end:
                    at = self.step % per_draw
                    if at == 0:
                        k = min(per_draw, self.total_steps - self.step)
                        msgs_k = self.data_rng.integers(0, cfg.m, size=(k, batch))
                        noise_k = sample_noise(k * batch, cfg.sigma2(), self.noise_rng)
                        self.chunk = msgs_k, noise_k.reshape(k, batch, 2)
                    msgs_k, noise_k = self.chunk
                    stop = min(len(msgs_k), at + end - self.step)
                    for msgs, noise in zip(msgs_k[at:stop], noise_k[at:stop]):
                        cost, info, grads = network_cost(params, msgs, noise, p_a, lam,
                                                         harvester, ws=ws)
                        if not math.isfinite(cost):
                            raise FloatingPointError(f"non-finite cost {cost}")
                        if not info["degenerate"]:
                            max_power_err = max(max_power_err,
                                                abs(info["batch_power"] - p_a))
                        adam_step(params.flat, grads, state)
                    self.step += stop - at
            self.max_power_err = max_power_err
        except FloatingPointError:
            self.failed = True
        return self

    def finish(self) -> RunRecord:
        """The RunRecord of the restart: failed, or its net evaluated with
        trainer.evaluate, which needs neither the step workspace nor the
        last draw chunk, so both are dropped first."""
        self.ws = self.chunk = None
        if not self.failed:
            try:
                const, report, p_del = evaluate(self.params, self.cfg, self.seed)
            except (FloatingPointError, DegenerateEncoderError):
                # also when every point sits at the origin or is non-finite
                self.failed = True
        if self.failed:
            return RunRecord(lam=self.lam, seed=self.seed, failed=True)
        return RunRecord(lam=self.lam, seed=self.seed,
                         final_cost=total_cost(report.cross_entropy, p_del, self.lam),
                         ser=report.ser, p_del=p_del, cross_entropy=report.cross_entropy,
                         constellation=const, max_power_err=self.max_power_err,
                         params=self.params)


def train_run(cfg: TrainConfig, lam: float, seed: int) -> RunRecord:
    """One full optimization run at a fixed lambda and restart seed: a
    Restart advanced through all its steps, then finished."""
    restart = Restart(cfg, lam, seed)
    return restart.advance(restart.total_steps).finish()


def multi_restart(cfg: TrainConfig, lam: float, seeds: list[int]) -> RunRecord:
    """Best-of-restarts: the record minimizing final cost, ties to lowest seed.

    The one-point case of lambda_sweep's path (see _point_records): with two
    or more seeds, two usable CPUs and no other Python thread running, a
    forked worker trains the odd-numbered seeds (seeds[1::2]) and this
    process the even-numbered ones; otherwise every seed trains here, in
    order. Both give the same records, bit for bit.
    """
    if not seeds:
        raise ValueError("multi_restart needs at least one seed")
    with closing(_point_records(cfg, [(lam, seeds)], len(seeds))) as points:
        return _best(next(points))


def _best(records: list[RunRecord]) -> RunRecord:
    """The record of least final cost, ties to the lowest seed; all failed
    raises TrainingFailure."""
    ok = [r for r in records if not r.failed]
    if not ok:
        raise TrainingFailure(f"all {len(records)} restarts diverged "
                              f"at lambda={records[0].lam}")
    return min(ok, key=lambda r: (r.final_cost, r.seed))


def _end_with(parent: int) -> None:
    """In the worker: have the kernel SIGKILL it when the parent ends, even
    by a signal. Linux only; elsewhere such a worker walks on through its
    points until its next point's records meet the closed pipe, or to the
    end of its ladder."""
    import ctypes   # loaded with NumPy already
    try:
        ctypes.CDLL(None).prctl(1, 9)   # PR_SET_PDEATHSIG, SIGKILL
    except AttributeError:   # no prctl
        return
    if os.getppid() != parent:   # it ended before prctl
        os._exit(1)


def _point_records(cfg: TrainConfig, points: Iterable[tuple[float, list[int]]],
                   jobs: int) -> Iterator[list[RunRecord]]:
    """train_run's records for each (lam, seeds) of `points`, in seed order,
    one list a point; `jobs` counts the restarts of all the points.

    The restarts are one list of jobs, numbered across the points. With two
    or more jobs, two usable CPUs and no other Python thread running, one
    worker is forked at the first point. It walks `points` itself, trains
    the odd-numbered jobs and pickles each point's records (or the
    exception its restarts raised) down a pipe as soon as it has trained
    them, so it trains ahead while this process trains the even-numbered
    jobs and reads the points in order. Each restart is seeded by its own
    seed, so the serial path, taken otherwise or when the fork fails, gives
    the same records. A worker that dies, or cannot send a point's records,
    raises TrainingFailure once it is reaped. Closing the generator before
    its last point (a caller that fails, say, to write a point), or an
    exception here, SIGKILLs and reaps the worker: what it trained ahead is
    discarded.
    """
    affinity = getattr(os, "sched_getaffinity", None)
    # a fork copies only this thread: any other would be left in an unknown state
    pid = None
    if not (jobs < 2 or affinity is None or len(affinity(0)) < 2
            or threading.active_count() > 1):
        parent = os.getpid()
        read_fd, write_fd = os.pipe()
        try:
            pid = os.fork()
        except OSError:   # EAGAIN, ENOMEM: serial training gives the same bytes
            os.close(read_fd)
            os.close(write_fd)
    if pid is None:
        for lam, seeds in points:
            yield [train_run(cfg, lam, s) for s in seeds]
        return
    if pid == 0:   # the worker never returns from here
        code = 1
        try:
            os.close(read_fd)
            _end_with(parent)
            with open(write_fd, "wb") as pipe:
                first = 0   # the number of the point's first job
                for lam, seeds in points:
                    try:
                        sent = True, [train_run(cfg, lam, s)
                                      for s in seeds[1 - first % 2::2]]
                    except BaseException as exc:   # say, a MemoryError: raised in the caller
                        sent = False, exc
                    pipe.write(pickle.dumps(sent))   # whole, or not at all
                    pipe.flush()
                    if not sent[0]:
                        break
                    first += len(seeds)
            code = 0
        finally:
            os._exit(code)
    os.close(write_fd)
    try:
        with open(read_fd, "rb") as pipe:
            first = 0
            for lam, seeds in points:
                mine = [train_run(cfg, lam, s) for s in seeds[first % 2::2]]
                try:
                    ok, theirs = pickle.load(pipe)
                except (EOFError, pickle.UnpicklingError):   # the worker has ended
                    code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
                    pid = None
                    ended = f"was killed by signal {-code}" if code < 0 else f"exited {code}"
                    raise TrainingFailure(f"the restart worker at lambda={lam} {ended} "
                                          "before sending its records") from None
                if not ok:
                    raise theirs
                merged = [None] * len(seeds)
                merged[first % 2::2], merged[1 - first % 2::2] = mine, theirs
                yield merged
                first += len(seeds)
    finally:
        if pid is not None:
            import signal   # here only: a module-level import adds to every RSS
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def lambda_schedule(cfg: TrainConfig) -> Iterator[float]:
    """0 followed by start * factor^k, lambda_max_points values in all;
    lazy, so a sweep that ends early never builds the rest. A sweep's
    restart worker walks its own copy, ahead of the caller by the points it
    trains before the caller reads them."""
    yield 0.0
    for k in range(cfg.lambda_max_points - 1):
        yield cfg.lambda_start * cfg.lambda_factor ** k


def restart_seeds(cfg: TrainConfig, lam_index: int) -> list[int]:
    return [derive_seed(cfg.seed, lam_index, r) for r in range(cfg.restarts)]


def lambda_sweep(cfg: TrainConfig) -> Iterator[RunRecord]:
    """Yield each lambda point's best-of-restarts record, in schedule order,
    for every point of the ladder. The points' restarts train as
    _point_records trains them, with one worker for the whole sweep;
    closing the generator early, or an exception, ends that worker."""
    points = ((lam, restart_seeds(cfg, k)) for k, lam in enumerate(lambda_schedule(cfg)))
    with closing(_point_records(cfg, points, cfg.lambda_max_points * cfg.restarts)) as trained:
        for records in trained:
            yield _best(records)
