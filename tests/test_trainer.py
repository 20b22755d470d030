"""Tests for the training loop, restart selection and the lambda schedule."""

import dataclasses
import errno
import math
import os
import signal
import subprocess
import sys
import threading
import time
import tracemalloc
import warnings
import weakref

import numpy as np
import pytest

from swiptmod import cli
from swiptmod.channel import ROLE_DATA, ROLE_MISC, ROLE_NOISE, sample_noise, substream
from swiptmod.harvester import ModelAParams, ModelBParams, pdel_exact
from swiptmod.nn import init_params
from swiptmod.trainer import (EPS_PDEL, SER_MAX, RunRecord, TrainConfig,
                              TrainingFailure, evaluate, lambda_schedule,
                              lambda_sweep, multi_restart, network_cost, Restart,
                              restart_seeds, step_workspace, total_cost, train_run)
from swiptmod.transceiver import export_constellation
from test_cli import TINY_A, _write_cfg

MODEL_A = ModelAParams(alpha=0.3829, beta=0.0034, gamma=0.0)
MODEL_B = ModelBParams(ls=0.02, a=6400.0, b=0.003)


def _tiny_cfg(**kw):
    base = dict(m=4, p_a=0.001, snr=50.0, harvester=MODEL_A, epochs=30,
                minibatch_size=100, train_set_size=200, restarts=1,
                eval_samples=2000, seed=0)
    base.update(kw)
    return TrainConfig(**base)


# ---------------------------------------------------------------------------
# total_cost
# ---------------------------------------------------------------------------

def test_total_cost_lambda_zero_is_pure_cross_entropy():
    assert total_cost(1.7, 1e-30, 0.0) == 1.7


def test_total_cost_arithmetic():
    assert total_cost(np.log(32), 0.01, 0.001) == pytest.approx(
        np.log(32) + 0.1, rel=1e-12)


def test_total_cost_clamps_vanishing_power():
    cost = total_cost(2.0, 0.0, 1.0)
    assert math.isfinite(cost)
    assert cost == pytest.approx(2.0 + 1.0 / EPS_PDEL, rel=1e-12)


# ---------------------------------------------------------------------------
# network_cost
# ---------------------------------------------------------------------------

def test_network_cost_minibatch_power_constraint():
    params = init_params(4, seed=1)
    rng = substream(1, ROLE_MISC)
    msgs = rng.integers(0, 4, size=64)
    noise = sample_noise(64, 2e-5, rng)
    _, info, _ = network_cost(params, msgs, noise, 0.001, 0.0, MODEL_A)
    assert abs(info["batch_power"] - 0.001) < 1e-9
    assert not info["degenerate"]


def test_network_cost_lambda_zero_equals_cross_entropy():
    params = init_params(4, seed=2)
    rng = substream(2, ROLE_MISC)
    msgs = rng.integers(0, 4, size=32)
    noise = sample_noise(32, 2e-5, rng)
    cost, info, _ = network_cost(params, msgs, noise, 0.001, 0.0, MODEL_A)
    assert cost == info["cross_entropy"]


def test_network_cost_leaves_inputs_unchanged():
    params = init_params(4, seed=4)
    rng = substream(4, ROLE_MISC)
    msgs = rng.integers(0, 4, size=16)
    noise = sample_noise(16, 2e-5, rng)
    inputs = params.encoder + params.decoder + [msgs, noise]
    before = [a.copy() for a in inputs]
    cost, _, grads = network_cost(params, msgs, noise, 0.001, 1e-3, MODEL_A)
    again, _, _ = network_cost(params, msgs, noise, 0.001, 1e-3, MODEL_A)
    assert cost == again
    for a, b in zip(inputs, before):
        assert np.array_equal(a, b)
    assert not any(np.shares_memory(g, a) for g in grads for a in inputs)


@pytest.mark.parametrize("model", [MODEL_A, MODEL_B], ids=["modelA", "modelB"])
@pytest.mark.parametrize("m", [4, 8, 16])
def test_network_cost_p_del_is_pdel_exact_of_the_export(model, m):
    # a batch holding each message once weights the points as the export does,
    # so the step's P_del and the reported one are the same code on the same bits
    p_a = 0.1 if isinstance(model, ModelAParams) else 0.004
    for seed in range(5):
        params = init_params(m, seed=100 + seed)
        msgs = substream(seed, ROLE_MISC).permutation(m)
        noise = np.zeros((m, 2))
        _, info, _ = network_cost(params, msgs, noise, p_a, 1e-3, model, ws={})
        const = export_constellation(params.encoder, m, p_a)
        assert info["p_del"] == pdel_exact(const, model)


def _desk_step(seed, m=16, batch=1600, p_a=0.004):
    params = init_params(m, seed=seed)
    rng = substream(seed, ROLE_MISC)
    msgs = rng.integers(0, m, size=batch)
    return params, msgs, sample_noise(batch, p_a / 50.0, rng)


def _step_workspace(m, batch):
    """A workspace with its step buffers, as a Restart builds it."""
    return {"step": step_workspace(m, batch)}


def test_network_cost_workspace_step_allocates_no_batch_matrix():
    params, msgs, noise = _desk_step(7)
    ws = _step_workspace(16, 1600)
    network_cost(params, msgs, noise, 0.004, 80.0, MODEL_B, ws=ws)
    tracemalloc.start()
    try:
        network_cost(params, msgs, noise, 0.004, 80.0, MODEL_B, ws=ws)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 1600 * 8   # below one (M, B) float64 array


def test_network_cost_workspace_results_are_independent():
    # at train-b-m16's step shape and at sweep-a-m8's (M=8, B=400, Model A)
    for m, batch, p_a, lam, model in ((16, 1600, 0.004, 80.0, MODEL_B),
                                      (8, 400, 0.001, 1e-5, MODEL_A)):
        params, msgs, noise = _desk_step(8, m, batch, p_a)
        ref_cost, ref_info, ref_grads = network_cost(params, msgs, noise, p_a,
                                                     lam, model)
        ws = _step_workspace(m, batch)
        cost, info, grads = network_cost(params, msgs, noise, p_a, lam, model, ws=ws)
        assert (cost, info) == (ref_cost, ref_info)
        assert np.array_equal(grads, ref_grads)
        kept = (cost, dict(info), grads.copy())
        _, msgs2, noise2 = _desk_step(9, m, batch, p_a)   # another batch, same workspace
        other = network_cost(params, msgs2, noise2, p_a, lam, model, ws=ws)
        assert other[0] != cost
        assert (cost, info) == kept[:2]
        # with step buffers the gradient is their vector, overwritten by the next call
        assert grads is ws["step"].grads.flat
        assert other[2] is grads and not np.array_equal(grads, kept[2])
        assert grads.shape == params.flat.shape
        assert not np.shares_memory(grads, params.flat)
        # the first batch again on the used workspace gives its bits again
        again_ws = network_cost(params, msgs, noise, p_a, lam, model, ws=ws)
        assert again_ws[:2] == kept[:2] and np.array_equal(again_ws[2], kept[2])
        # without one, every call returns a new vector
        again = network_cost(params, msgs, noise, p_a, lam, model)[2]
        assert np.array_equal(again, kept[2]) and not np.shares_memory(again, ref_grads)


def test_network_cost_workspace_follows_params_and_batch():
    # one workspace through networks and batch sizes of different shapes
    # gives what a fresh workspace gives at every call
    ws = {}
    for m, batch, seed in ((4, 64, 1), (4, 16, 1), (4, 16, 2), (8, 16, 3)):
        params = init_params(m, seed)
        rng = substream(seed, ROLE_MISC)
        msgs = rng.integers(0, m, size=batch)
        noise = sample_noise(batch, 2e-5, rng)
        ref = network_cost(params, msgs, noise, 0.001, 1e-3, MODEL_A)
        got = network_cost(params, msgs, noise, 0.001, 1e-3, MODEL_A, ws=ws)
        assert got[:2] == ref[:2] and np.array_equal(got[2], ref[2])


# (batch size, messages drawn from range(n)): a full batch, a batch in which
# message 3 never appears (zero count) and a single-row batch
_FD_BATCHES = {"": (8, 4), "-absent": (8, 3), "-single": (1, 4)}


@pytest.mark.parametrize("model, batch, drawn", [
    pytest.param(model, batch, drawn, id=f"model{k}{tag}")
    for tag, (batch, drawn) in _FD_BATCHES.items()
    for k, model in enumerate((MODEL_A, MODEL_B))])
def test_network_cost_gradients_match_finite_differences(model, batch, drawn):
    p_a = 0.1 if isinstance(model, ModelAParams) else 0.004
    params = init_params(4, seed=3)
    rng = substream(3, ROLE_MISC)
    msgs = rng.integers(0, drawn, size=batch)
    noise = sample_noise(batch, p_a / 50.0, rng)
    lam = 1e-3
    _, _, grads = network_cost(params, msgs, noise, p_a, lam, model)
    step = 1e-6
    for arr, grad in zip(params.encoder + params.decoder, params.views(grads)):
        flat = arr.reshape(-1)
        gflat = grad.reshape(-1)
        # spot-check a handful of coordinates per block to keep this fast;
        # the full-coverage sweep lives in the gradcheck module
        for j in range(0, flat.size, max(1, flat.size // 5)):
            orig = flat[j]
            flat[j] = orig + step
            up, _, _ = network_cost(params, msgs, noise, p_a, lam, model,
                                    want_grads=False)
            flat[j] = orig - step
            dn, _, _ = network_cost(params, msgs, noise, p_a, lam, model,
                                    want_grads=False)
            flat[j] = orig
            fd = (up - dn) / (2 * step)
            assert gflat[j] == pytest.approx(fd, rel=1e-4, abs=1e-8)


# ---------------------------------------------------------------------------
# train_run
# ---------------------------------------------------------------------------

def test_train_run_learns_four_point_constellation():
    cfg = _tiny_cfg(epochs=150, train_set_size=500, eval_samples=20_000)
    rec = train_run(cfg, 0.0, seed=1)
    assert not rec.failed
    assert rec.ser < 0.01
    assert rec.constellation.size == 4
    assert rec.max_power_err < 1e-9


def test_train_run_degenerate_encoder_is_failed(monkeypatch):
    # an encoder whose output layer is all zeros maps every message to the
    # origin; with the Adam update disabled it stays there to the end
    def zero_output_init(m, seed):
        params = init_params(m, seed)
        params.encoder[2][:] = 0.0
        return params
    monkeypatch.setattr("swiptmod.trainer.init_params", zero_output_init)
    monkeypatch.setattr("swiptmod.trainer.adam_step", lambda *args: None)
    rec = train_run(_tiny_cfg(epochs=1), 0.0, seed=1)
    assert rec.failed
    assert rec.constellation is None


def test_overflow_in_the_final_evaluation_fails_the_restart(monkeypatch):
    # points scaled by 1e100 are finite, but their fourth powers in Model A's
    # P_del overflow
    def huge_export(encoder, m, p_a):
        const = export_constellation(encoder, m, p_a)
        const.points *= 1e100
        return const
    monkeypatch.setattr("swiptmod.trainer.export_constellation", huge_export)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rec = train_run(_tiny_cfg(epochs=1), 1e-4, seed=1)
    assert rec.failed and rec.constellation is None
    assert math.isnan(rec.final_cost)


def test_train_run_deterministic():
    cfg = _tiny_cfg()
    r1 = train_run(cfg, 1e-4, seed=5)
    r2 = train_run(cfg, 1e-4, seed=5)
    assert r1.final_cost == r2.final_cost
    assert r1.ser == r2.ser
    assert r1.p_del == r2.p_del
    assert np.array_equal(r1.constellation.points, r2.constellation.points)


@pytest.mark.parametrize("m", [3, 5, 8, 16])
@pytest.mark.parametrize("batch", [1, 7, 400])
def test_chunked_draws_equal_per_step_draws(m, batch):
    # train_run draws several minibatches' messages and noise at once
    sigma2, chunks = 2e-5, (3, 1, 2)
    data, noise = substream(9, ROLE_DATA), substream(9, ROLE_NOISE)
    msgs = np.concatenate([data.integers(0, m, size=(k, batch)) for k in chunks])
    noises = np.concatenate([sample_noise(k * batch, sigma2, noise).reshape(k, batch, 2)
                             for k in chunks])
    data, noise = substream(9, ROLE_DATA), substream(9, ROLE_NOISE)
    normal = substream(9, ROLE_NOISE)   # rng.normal gives the same bits
    for step in range(sum(chunks)):
        assert data.integers(0, m, size=batch).tobytes() == msgs[step].tobytes()
        assert sample_noise(batch, sigma2, noise).tobytes() == noises[step].tobytes()
        assert normal.normal(0.0, np.sqrt(sigma2 / 2.0), size=(batch, 2)).tobytes() \
            == noises[step].tobytes()


@pytest.mark.parametrize("chunk", [1, 14, 21])
def test_train_run_does_not_depend_on_the_draw_chunk(chunk, monkeypatch):
    cfg = _tiny_cfg(m=5, epochs=10, minibatch_size=7, train_set_size=21)
    ref = train_run(cfg, 1e-4, seed=3)   # 30 steps, drawn in one chunk
    monkeypatch.setattr("swiptmod.trainer._DRAW_CHUNK", chunk)
    rec = train_run(cfg, 1e-4, seed=3)
    assert rec.params.flat.tobytes() == ref.params.flat.tobytes()
    assert (rec.final_cost, rec.ser, rec.max_power_err) == \
        (ref.final_cost, ref.ser, ref.max_power_err)


def test_train_run_drops_its_draw_chunks_before_the_evaluation(monkeypatch):
    chunks, evaluated = [], []

    def draw(*args, **kw):
        out = sample_noise(*args, **kw)
        chunks.append(weakref.ref(out))
        return out

    def evaluate_after_drops(*args):
        assert len(chunks) >= 2 and all(c() is None for c in chunks)
        evaluated.append(True)
        return evaluate(*args)
    monkeypatch.setattr("swiptmod.trainer.sample_noise", draw)
    monkeypatch.setattr("swiptmod.trainer.evaluate", evaluate_after_drops)
    rec = train_run(_tiny_cfg(epochs=100), 1e-4, seed=2)   # 200 steps, 2 chunks
    assert evaluated and not rec.failed


def test_train_run_improves_over_initialization():
    cfg = _tiny_cfg(epochs=100, train_set_size=500, eval_samples=4000)
    short = train_run(_tiny_cfg(epochs=1, train_set_size=100,
                                eval_samples=4000), 0.0, seed=2)
    rec = train_run(cfg, 0.0, seed=2)
    assert rec.final_cost < short.final_cost


# ---------------------------------------------------------------------------
# Restart
# ---------------------------------------------------------------------------

def _restart_bytes(restart):
    """Everything a Restart carries from step to step, as comparable bytes."""
    adam = restart.adam
    return (restart.params.flat.tobytes(), adam.first_moment.tobytes(),
            adam.second_moment.tobytes(), adam.step_count, restart.step,
            # the Philox counters, keys and buffers print in full
            repr(restart.data_rng.bit_generator.state),
            repr(restart.noise_rng.bit_generator.state), restart.max_power_err)


def _record_fields(rec):
    out = {}
    for field in dataclasses.fields(rec):
        value = getattr(rec, field.name)
        if field.name == "constellation":
            value = (value.points.tobytes(), value.probabilities.tobytes())
        elif field.name == "params":
            value = value.flat.tobytes()
        out[field.name] = value
    return out


@pytest.mark.parametrize("model", [MODEL_A, MODEL_B], ids=["modelA", "modelB"])
def test_restart_advanced_in_pieces_ends_in_the_bytes_of_one_advanced_whole(model):
    # batch 400 draws 40 steps per chunk: the pieces 1, 38 and 61 of 100 steps
    # stop inside the first chunk, and the last piece crosses two chunk starts
    p_a = 0.001 if model is MODEL_A else 0.004
    cfg = _tiny_cfg(m=8, p_a=p_a, harvester=model, epochs=20, minibatch_size=400,
                    train_set_size=2000)
    whole = Restart(cfg, 1e-4, seed=4)
    assert whole.advance(whole.total_steps) is whole and whole.total_steps == 100
    pieces = Restart(cfg, 1e-4, seed=4)
    for steps in (1, 38, 61):
        pieces.advance(steps)
    assert pieces.advance(5).step == 100   # past the end: no more steps
    assert _restart_bytes(pieces) == _restart_bytes(whole)
    rec, ref = pieces.finish(), whole.finish()
    assert not rec.failed
    assert _record_fields(rec) == _record_fields(ref)
    assert _record_fields(ref) == _record_fields(train_run(cfg, 1e-4, seed=4))


@pytest.mark.parametrize("model", [MODEL_A, MODEL_B], ids=["modelA", "modelB"])
def test_restart_warm_step_makes_no_workspace_lookups(model, monkeypatch):
    # every buffer a step writes is bound when the Restart is built
    p_a = 0.001 if model is MODEL_A else 0.004
    restart = Restart(_tiny_cfg(m=8, p_a=p_a, harvester=model, epochs=2,
                                minibatch_size=400, train_set_size=2000), 1e-4, seed=5)
    restart.advance(1)
    calls = []
    for name, module in list(sys.modules.items()):
        scratch = getattr(module, "scratch", None)
        if name.startswith("swiptmod") and scratch is not None:
            def counted(*args, scratch=scratch, **kw):
                calls.append(args[1])
                return scratch(*args, **kw)
            monkeypatch.setattr(module, "scratch", counted)
    assert restart.advance(9).step == 10 and not restart.failed
    assert calls == []


# ---------------------------------------------------------------------------
# multi_restart
# ---------------------------------------------------------------------------

def test_multi_restart_single_seed_matches_train_run():
    cfg = _tiny_cfg()
    direct = train_run(cfg, 0.0, seed=9)
    best = multi_restart(cfg, 0.0, [9])
    assert best.final_cost == direct.final_cost
    assert best.seed == 9


def test_multi_restart_picks_minimum_cost(monkeypatch):
    def fake_run(cfg, lam, seed):
        cost = {1: 2.0, 2: 1.5, 3: 3.0}[seed]
        return RunRecord(lam=lam, seed=seed, final_cost=cost, ser=0.1,
                         p_del=0.01, cross_entropy=cost, constellation=None)
    monkeypatch.setattr("swiptmod.trainer.train_run", fake_run)
    best = multi_restart(_tiny_cfg(), 0.0, [1, 2, 3])
    assert best.final_cost == 1.5
    assert best.seed == 2


def test_multi_restart_excludes_failed_runs(monkeypatch):
    def fake_run(cfg, lam, seed):
        if seed == 1:
            return RunRecord(lam=lam, seed=seed, final_cost=math.nan, ser=1.0,
                             p_del=math.nan, cross_entropy=math.nan,
                             constellation=None, failed=True)
        return RunRecord(lam=lam, seed=seed, final_cost=5.0, ser=0.2,
                         p_del=0.01, cross_entropy=5.0, constellation=None)
    monkeypatch.setattr("swiptmod.trainer.train_run", fake_run)
    best = multi_restart(_tiny_cfg(), 0.0, [1, 2])
    assert best.seed == 2


def test_multi_restart_all_failed_raises(monkeypatch):
    def fake_run(cfg, lam, seed):
        return RunRecord(lam=lam, seed=seed, final_cost=math.nan, ser=1.0,
                         p_del=math.nan, cross_entropy=math.nan,
                         constellation=None, failed=True)
    monkeypatch.setattr("swiptmod.trainer.train_run", fake_run)
    with pytest.raises(TrainingFailure):
        multi_restart(_tiny_cfg(), 0.0, [1, 2])


def test_multi_restart_needs_seeds():
    with pytest.raises(ValueError):
        multi_restart(_tiny_cfg(), 0.0, [])


# ---------------------------------------------------------------------------
# multi_restart in two processes: a forked worker trains seeds[1::2]
# ---------------------------------------------------------------------------

two_cpus = pytest.mark.skipif(
    len(getattr(os, "sched_getaffinity", lambda pid: ())(0)) < 2,
    reason="the two-process path needs two usable CPUs")


def _count_forks(monkeypatch) -> list:
    """os.fork, counted in the calling process: one entry per fork."""
    forks, fork = [], os.fork

    def counted():
        forks.append(os.getpid())
        return fork()
    monkeypatch.setattr(os, "fork", counted)
    return forks


def _one_cpu(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _assert_same_record(a: RunRecord, b: RunRecord):
    for field in dataclasses.fields(RunRecord):
        x, y = getattr(a, field.name), getattr(b, field.name)
        if field.name == "params":
            assert x.m == y.m and x.flat.tobytes() == y.flat.tobytes()
            assert all(np.shares_memory(v, x.flat) for v in x.encoder + x.decoder)
        elif field.name == "constellation":
            assert x.points.tobytes() == y.points.tobytes()
            assert x.probabilities.tobytes() == y.probabilities.tobytes()
        elif isinstance(x, float):
            assert x.hex() == y.hex(), field.name
        else:
            assert x == y, field.name


@two_cpus
@pytest.mark.parametrize("model", [MODEL_A, MODEL_B], ids=["modelA", "modelB"])
def test_multi_restart_two_processes_give_the_serial_winner(model, monkeypatch):
    cfg = _tiny_cfg(harvester=model, restarts=2)
    pair = restart_seeds(cfg, 1)
    forks = _count_forks(monkeypatch)
    # in one of the two orders the winner is the worker's, sent back pickled
    forked = [multi_restart(cfg, 1e-4, seeds) for seeds in (pair, pair[::-1])]
    assert forks == [os.getpid()] * 2
    _one_cpu(monkeypatch)
    serial = [multi_restart(cfg, 1e-4, seeds) for seeds in (pair, pair[::-1])]
    assert len(forks) == 2
    assert forked[0].seed == forked[1].seed
    for a, b in zip(forked, serial):
        _assert_same_record(a, b)
    _assert_same_record(serial[0], train_run(cfg, 1e-4, serial[0].seed))
    _assert_no_child_left()


def _tree(root) -> dict:
    """Every file under root, by its path relative to root: its bytes."""
    return {p.relative_to(root): p.read_bytes() for p in root.rglob("*") if p.is_file()}


@two_cpus
def test_sweep_trees_are_byte_identical_in_one_and_two_processes(tmp_path, monkeypatch):
    cfg = _write_cfg(tmp_path, dict(TINY_A, restarts=3))
    forks = _count_forks(monkeypatch)
    assert cli.main(["sweep", cfg, "--out", str(tmp_path / "two")]) == 0
    assert forks == [os.getpid()]   # one worker for the whole sweep
    _one_cpu(monkeypatch)
    assert cli.main(["sweep", cfg, "--out", str(tmp_path / "one")]) == 0
    assert len(forks) == 1
    two, one = _tree(tmp_path / "two"), _tree(tmp_path / "one")
    assert len(two) == 1 + 4 * TINY_A["lambda.max_points"]   # summary.csv, 4 per point
    assert two == one
    _assert_no_child_left()


@two_cpus
def test_a_failed_fork_trains_serially(tmp_path, monkeypatch):
    def no_fork():
        raise OSError(errno.EAGAIN, "Resource temporarily unavailable")
    cfg = _write_cfg(tmp_path, dict(TINY_A, restarts=3))
    fds = len(os.listdir("/dev/fd"))
    monkeypatch.setattr(os, "fork", no_fork)
    assert cli.main(["sweep", cfg, "--out", str(tmp_path / "failed")]) == 0
    assert len(os.listdir("/dev/fd")) == fds   # both pipe ends closed
    _one_cpu(monkeypatch)
    assert cli.main(["sweep", cfg, "--out", str(tmp_path / "one")]) == 0
    assert _tree(tmp_path / "failed") == _tree(tmp_path / "one")
    _assert_no_child_left()


def _pid_run(cfg, lam, seed):
    """A record of cost 1 (0.5 for seed 0) that names the process it ran in."""
    return RunRecord(lam=lam, seed=seed, final_cost=0.5 if seed == 0 else 1.0,
                     ser=0.1, p_del=0.01, cross_entropy=1.0,
                     max_power_err=float(os.getpid()))


@two_cpus
def test_multi_restart_worker_trains_the_odd_numbered_seeds(monkeypatch):
    monkeypatch.setattr("swiptmod.trainer.train_run", _pid_run)
    forks = _count_forks(monkeypatch)
    seeds = [4, 3, 2, 1]
    for k in range(4):   # seed 0 wins, at each place in turn
        best = multi_restart(_tiny_cfg(), 0.0, seeds[:k] + [0] + seeds[k:3])
        assert best.seed == 0
        assert (best.max_power_err == os.getpid()) == (k % 2 == 0)
    assert len(forks) == 4
    best = multi_restart(_tiny_cfg(), 0.0, [0])   # one seed: no worker
    assert best.max_power_err == os.getpid() and len(forks) == 4
    _assert_no_child_left()


@two_cpus
def test_multi_restart_stays_serial_beside_another_thread(monkeypatch):
    monkeypatch.setattr("swiptmod.trainer.train_run", _pid_run)
    forks = _count_forks(monkeypatch)
    release = threading.Event()
    other = threading.Thread(target=release.wait)
    other.start()
    try:
        best = multi_restart(_tiny_cfg(), 0.0, [1, 0, 2])
    finally:
        release.set()
        other.join(timeout=10)
    assert not other.is_alive()
    assert forks == [] and best.seed == 0 and best.max_power_err == os.getpid()
    assert multi_restart(_tiny_cfg(), 0.0, [1, 0, 2]).max_power_err != os.getpid()
    assert len(forks) == 1


@two_cpus
def test_an_exception_in_this_process_kills_and_reaps_the_worker(monkeypatch):
    parent = os.getpid()

    def run(cfg, lam, seed):
        if os.getpid() == parent:
            raise RuntimeError("this process's restart failed")
        time.sleep(60)   # the worker is still training when it is killed
    monkeypatch.setattr("swiptmod.trainer.train_run", run)
    t0 = time.monotonic()
    with pytest.raises(RuntimeError, match="this process's restart failed"):
        multi_restart(_tiny_cfg(), 0.0, [1, 2])
    assert time.monotonic() - t0 < 30
    _assert_no_child_left()


# the calling process forks a worker, waits until the worker has written its
# pid, then SIGKILLs itself: nothing of it runs after that
_KILLED_CALLER = """
import os, signal, sys, time
from swiptmod import trainer
from swiptmod.harvester import ModelAParams
caller, pid_file = os.getpid(), sys.argv[1]

def run(cfg, lam, seed):
    if os.getpid() != caller:
        with open(pid_file + ".tmp", "w") as fh:
            fh.write(str(os.getpid()))
        os.replace(pid_file + ".tmp", pid_file)
        time.sleep(60)
    while not os.path.exists(pid_file):
        time.sleep(0.01)
    os.kill(caller, signal.SIGKILL)
trainer.train_run = run
cfg = trainer.TrainConfig(m=4, p_a=0.001, snr=50.0, harvester=ModelAParams(0.38, 0.0034, 0.0),
                          epochs=1, restarts=2, minibatch_size=100, train_set_size=100,
                          eval_samples=2000)
trainer.multi_restart(cfg, 0.0, [1, 2])
"""


def _running(pid: int) -> bool:
    """Whether process pid exists and is not a zombie."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False


@two_cpus
@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="PR_SET_PDEATHSIG is Linux's")
def test_a_worker_ends_with_a_killed_caller(tmp_path):
    pid_file = tmp_path / "worker.pid"
    code = subprocess.run([sys.executable, "-c", _KILLED_CALLER, str(pid_file)],
                          timeout=60).returncode
    assert code == -signal.SIGKILL
    worker = int(pid_file.read_text())
    try:
        deadline = time.monotonic() + 10
        while _running(worker) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert not _running(worker)
    finally:
        if _running(worker):
            os.kill(worker, signal.SIGKILL)


@two_cpus
def test_a_worker_that_cannot_pickle_its_records_is_a_training_failure(monkeypatch):
    def run(cfg, lam, seed):
        return RunRecord(lam=lam, seed=seed, final_cost=1.0, params=lambda: None)
    monkeypatch.setattr("swiptmod.trainer.train_run", run)
    with pytest.raises(TrainingFailure, match="worker .* exited 1"):
        multi_restart(_tiny_cfg(), 0.0, [1, 2])
    _assert_no_child_left()


@two_cpus
def test_sweep_exits_4_when_the_worker_is_killed(tmp_path, monkeypatch, capsys):
    parent, run = os.getpid(), train_run

    def killed_in_the_worker(cfg, lam, seed):
        if os.getpid() != parent:
            os.kill(os.getpid(), signal.SIGKILL)
        return run(cfg, lam, seed)
    monkeypatch.setattr("swiptmod.trainer.train_run", killed_in_the_worker)
    cfg = _write_cfg(tmp_path, dict(TINY_A, restarts=2))
    assert cli.main(["sweep", cfg, "--out", str(tmp_path / "s")]) == 4
    err = capsys.readouterr().err
    assert err.startswith("training failure:") and len(err.splitlines()) == 1
    assert f"signal {int(signal.SIGKILL)}" in err
    _assert_no_child_left()


@two_cpus
def test_sweep_exits_4_on_a_memory_error_in_the_worker(tmp_path, monkeypatch, capsys):
    parent, run = os.getpid(), train_run

    def out_of_memory_in_the_worker(cfg, lam, seed):
        if os.getpid() != parent:
            raise MemoryError("the worker's networks do not fit")
        return run(cfg, lam, seed)
    monkeypatch.setattr("swiptmod.trainer.train_run", out_of_memory_in_the_worker)
    cfg = _write_cfg(tmp_path, dict(TINY_A, restarts=2))
    assert cli.main(["sweep", cfg, "--out", str(tmp_path / "s")]) == 4
    err = capsys.readouterr().err
    assert err == "out of memory: the worker's networks do not fit\n"
    _assert_no_child_left()


# the worker walks the whole ladder: job j of the flattened (point, restart)
# list is the worker's when j is odd, and it trains ahead of this process

_LADDER4 = dict(TINY_A, restarts=3, **{"lambda.max_points": 4})


def _fault(kind: str):
    if kind == "kill":
        os.kill(os.getpid(), signal.SIGKILL)
    raise MemoryError("the worker's networks do not fit")


@two_cpus
def test_the_worker_trains_the_odd_numbered_jobs_of_the_ladder(tmp_path, monkeypatch):
    log = tmp_path / "jobs.log"

    def logged(cfg, lam, seed):   # appends from both processes
        with open(log, "a") as fh:
            fh.write(f"{lam!r} {seed} {os.getpid()}\n")
        return _pid_run(cfg, lam, seed)
    monkeypatch.setattr("swiptmod.trainer.train_run", logged)
    forks = _count_forks(monkeypatch)
    cfg = _tiny_cfg(restarts=3, lambda_max_points=4)
    assert len(list(lambda_sweep(cfg))) == 4 and len(forks) == 1
    jobs = [(lam, s) for k, lam in enumerate(lambda_schedule(cfg))
            for s in restart_seeds(cfg, k)]
    lines = [line.split() for line in log.read_text().splitlines()]
    pid_of = {(float(lam), int(seed)): int(pid) for lam, seed, pid in lines}
    assert len(lines) == len(pid_of) == 12
    worker = [job for job in jobs if pid_of[job] != os.getpid()]
    assert worker == jobs[1::2] and len({pid_of[job] for job in worker}) == 1
    _assert_no_child_left()


@two_cpus
@pytest.mark.parametrize("kind", ["memory", "kill"])
def test_a_worker_fault_past_the_terminal_point_is_discarded(kind, tmp_path, monkeypatch):
    # point 2 is terminal; the worker faults in point 3, which the caller
    # never reads: its point 2 job waits until the worker has faulted
    parent, run, marker = os.getpid(), train_run, tmp_path / "faulted"
    waits = [True]

    def run_ahead(cfg, lam, seed):
        k = list(lambda_schedule(cfg)).index(lam)
        if k == 3 and os.getpid() != parent:
            marker.touch()
            _fault(kind)
        deadline = time.monotonic() + 30
        while (k == 2 and waits[0] and os.getpid() == parent and not marker.exists()
               and time.monotonic() < deadline):
            time.sleep(0.01)
        rec = run(cfg, lam, seed)
        if k == 2:
            rec.ser = 0.99
        return rec
    monkeypatch.setattr("swiptmod.trainer.train_run", run_ahead)
    cfg = _write_cfg(tmp_path, _LADDER4)
    assert cli.main(["sweep", cfg, "--out", str(tmp_path / "two")]) == 0
    assert marker.exists()
    waits[0] = False
    _one_cpu(monkeypatch)
    assert cli.main(["sweep", cfg, "--out", str(tmp_path / "one")]) == 0
    two = _tree(tmp_path / "two")
    assert len(two) == 1 + 4 * 3 and two == _tree(tmp_path / "one")
    _assert_no_child_left()


@two_cpus
@pytest.mark.parametrize("kind", ["memory", "kill"])
def test_a_worker_fault_at_a_reached_point_exits_4_after_the_points_before(
        kind, tmp_path, monkeypatch, capsys):
    parent, run = os.getpid(), train_run

    def fault_at_point_2(cfg, lam, seed):
        if lam == 1e-3 and os.getpid() != parent:
            _fault(kind)
        return run(cfg, lam, seed)
    cfg = _write_cfg(tmp_path, _LADDER4)
    full, out = tmp_path / "full", tmp_path / "s"
    assert cli.main(["sweep", cfg, "--out", str(full)]) == 0
    monkeypatch.setattr("swiptmod.trainer.train_run", fault_at_point_2)
    capsys.readouterr()
    assert cli.main(["sweep", cfg, "--out", str(out)]) == 4
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    assert err.startswith("out of memory:" if kind == "memory" else "training failure:")
    rows = (out / "desk" / "summary.csv").read_text().splitlines()
    assert rows == (full / "desk" / "summary.csv").read_text().splitlines()[:3]
    tree, whole = _tree(out), _tree(full)
    assert len(tree) == 1 + 4 * 2
    assert all(tree[p] == whole[p] for p in tree if p.name != "summary.csv")
    _assert_no_child_left()


@two_cpus
def test_a_sweep_that_ends_early_kills_its_worker(tmp_path, monkeypatch, capsys):
    # writing the second point fails while the worker is in a 30 s restart:
    # only a kill, not the closed pipe, ends it before that restart does
    parent, written = os.getpid(), []

    def slow_in_the_worker(cfg, lam, seed):
        if lam > 1e-4 and os.getpid() != parent:
            time.sleep(30)
        return _pid_run(cfg, lam, seed)

    def write(rec, resolved, root):
        written.append(rec.lam)
        if len(written) == 2:
            raise OSError(errno.ENOSPC, "No space left on device")
        return root / "point"
    monkeypatch.setattr("swiptmod.trainer.train_run", slow_in_the_worker)
    monkeypatch.setattr(cli, "_write_record", write)
    cfg = _write_cfg(tmp_path, dict(TINY_A, restarts=3, **{"lambda.max_points": 10}))
    t0 = time.monotonic()
    assert cli.main(["sweep", cfg, "--out", str(tmp_path / "s")]) == 3
    assert time.monotonic() - t0 < 10
    assert capsys.readouterr().err.startswith("i/o error:")
    assert written == [0.0, 1e-4]
    _assert_no_child_left()


# ---------------------------------------------------------------------------
# schedule + sweep
# ---------------------------------------------------------------------------

def test_lambda_schedule_geometric_with_zero_prefix():
    cfg = _tiny_cfg(lambda_start=1e-5, lambda_factor=2.0, lambda_max_points=5)
    assert list(lambda_schedule(cfg)) == [0.0, 1e-5, 2e-5, 4e-5, 8e-5]


def test_restart_seeds_distinct_per_lambda_index():
    cfg = _tiny_cfg(restarts=3)
    s0 = restart_seeds(cfg, 0)
    s1 = restart_seeds(cfg, 1)
    assert len(s0) == 3
    assert len(set(s0)) == 3
    assert set(s0).isdisjoint(s1)


def test_lambda_sweep_stop_rule(monkeypatch):
    sers = {0: 0.01, 1: 0.5, 2: 0.97, 3: 0.1}

    def fake_run(cfg, lam, seed):
        k = list(lambda_schedule(cfg)).index(lam)
        return RunRecord(lam=lam, seed=seed, final_cost=1.0, ser=sers[k],
                         p_del=0.01, cross_entropy=1.0, constellation=None)
    monkeypatch.setattr("swiptmod.trainer.train_run", fake_run)
    cfg = _tiny_cfg(lambda_max_points=4)
    records = list(lambda_sweep(cfg))
    assert len(records) == 3  # stops at the violating record
    assert records[-1].terminal
    assert sum(r.ser > SER_MAX for r in records) == 1
    _assert_no_child_left()


def test_lambda_sweep_runs_full_schedule(monkeypatch):
    def fake_run(cfg, lam, seed):
        return RunRecord(lam=lam, seed=seed, final_cost=1.0, ser=0.1,
                         p_del=0.01, cross_entropy=1.0, constellation=None)
    monkeypatch.setattr("swiptmod.trainer.train_run", fake_run)
    cfg = _tiny_cfg(lambda_max_points=4)
    records = list(lambda_sweep(cfg))
    assert [r.lam for r in records] == list(lambda_schedule(cfg))
    assert not records[-1].terminal
    _assert_no_child_left()


# ---------------------------------------------------------------------------
# config validation
# ---------------------------------------------------------------------------

_SCALE = {"epochs": 3, "restarts": 2, "minibatch_size": 100, "train_set_size": 2000,
          "eval_samples": 2000}


@pytest.mark.parametrize("name", _SCALE)
def test_config_scale_fields_are_required(name):
    # config.resolve fills them from a profile; a TrainConfig has no default
    base = dict(m=4, p_a=0.001, snr=50.0, harvester=MODEL_A, **_SCALE)
    del base[name]
    with pytest.raises(TypeError, match=name):
        TrainConfig(**base)


@pytest.mark.parametrize("kw", [
    dict(m=1), dict(p_a=0.0), dict(snr=-1.0), dict(epochs=0),
    dict(restarts=0),
    dict(minibatch_size=300, train_set_size=200),
    dict(eval_samples=999),
    dict(minibatch_size=0), dict(train_set_size=0),
    dict(lambda_start=0.0), dict(lambda_start=-1.0), dict(lambda_factor=1.0),
    dict(lambda_factor=0.5), dict(lambda_max_points=0),
    dict(p_a=math.nan), dict(snr=math.inf),
    dict(lambda_factor=math.inf), dict(seed=-1),
    dict(harvester=None), dict(harvester="A"),
    # a ladder whose top overflows: factor ** 2 raises, start * factor ** 2
    # rounds to inf, and factor ** 2 raises although start * factor ** 2 is finite
    dict(lambda_factor=1e300, lambda_max_points=4),
    dict(lambda_start=1e308, lambda_factor=10.0, lambda_max_points=3),
    dict(lambda_start=1e-100, lambda_factor=1e200, lambda_max_points=4),
    dict(lambda_start=math.inf),
    # a subnormal start, or a factor whose neighbouring rungs can share a
    # 7-digit lambda_<value> directory name
    dict(lambda_start=math.nextafter(sys.float_info.min, 0)), dict(lambda_start=5e-324),
    dict(lambda_factor=1.0000009999), dict(lambda_factor=1.0000001),
    # M's own int guard, and NaN or -inf where only +inf was tried
    dict(m=4.0), dict(m=True), dict(snr=math.nan), dict(p_a=-math.inf),
    dict(lambda_start=math.nan), dict(lambda_factor=math.nan),
])
def test_config_validate_rejects(kw):
    # checked once, when the config is built
    base = dict(m=4, p_a=0.001, snr=50.0, harvester=MODEL_A, **_SCALE)
    base.update(kw)
    with pytest.raises(ValueError, match=next(iter(kw))):
        TrainConfig(**base)


_COUNTS = {**_SCALE, "lambda_max_points": 4, "seed": 5}


@pytest.mark.parametrize("name", _COUNTS)
def test_config_counts_must_be_ints(name):
    # a float or bool count would reach range() or an RNG size in train_run
    base = dict(m=4, p_a=0.001, snr=50.0, harvester=MODEL_A, **_COUNTS)
    assert getattr(TrainConfig(**base), name) == _COUNTS[name]
    for bad in (float(_COUNTS[name]), True):
        with pytest.raises(ValueError, match=f"{name} must be"):
            TrainConfig(**dict(base, **{name: bad}))


def test_config_ladder_with_a_finite_top_accepted():
    cfg = TrainConfig(m=4, p_a=0.001, snr=50.0, harvester=MODEL_A, **_SCALE,
                      lambda_start=1.0, lambda_factor=1e300, lambda_max_points=3)
    assert list(lambda_schedule(cfg)) == [0.0, 1.0, 1e300]


def test_config_ladder_domain_edges_accepted():
    cfg = TrainConfig(m=4, p_a=0.001, snr=50.0, harvester=MODEL_A, **_SCALE,
                      lambda_start=sys.float_info.min, lambda_factor=1.000001)
    assert (cfg.lambda_start, cfg.lambda_factor) == (sys.float_info.min, 1.000001)


def test_config_explicit_values_kept_and_frozen():
    cfg = _tiny_cfg(minibatch_size=1)
    assert cfg.minibatch_size == 1
    with pytest.raises(dataclasses.FrozenInstanceError):
        cfg.minibatch_size = 0
    with pytest.raises(dataclasses.FrozenInstanceError):
        cfg.lambda_start = -1.0
