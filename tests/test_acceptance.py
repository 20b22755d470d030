"""Acceptance suite: the eight end-to-end properties of the toolkit.

Each test prints a single PASS/FAIL line. The training-based properties use
frozen desk-scale configurations (fixed seeds), so reruns are deterministic;
the two sweeps are shared module-scoped fixtures.
"""

import numpy as np
import pytest
from scipy import stats

from oracles import (classical_baseline, model_b_per_symbol, pdel_model_b,
                     pdel_monte_carlo_check)
from swiptmod import cli
from swiptmod.channel import ROLE_MISC, substream
from swiptmod.evaluator import estimate_ser
from swiptmod.gradcheck import run_gradcheck
from swiptmod.harvester import ModelAParams, ModelBParams, pdel_exact
from swiptmod.nn import init_params
from swiptmod.trainer import (TrainConfig, lambda_sweep, multi_restart,
                              restart_seeds)
from swiptmod.transceiver import Constellation

MODEL_A = ModelAParams(alpha=0.3829, beta=0.0034, gamma=0.0)
MODEL_B = ModelBParams(ls=0.02, a=6400.0, b=0.003)

SWEEP_A_CFG = TrainConfig(
    m=8, p_a=0.001, snr=50.0, harvester=MODEL_A,
    epochs=400, minibatch_size=400, train_set_size=2000, restarts=3,
    lambda_start=2.5e-7, lambda_factor=4.0, lambda_max_points=10,
    eval_samples=80_000, seed=0)

SWEEP_B_CFG = TrainConfig(
    m=8, p_a=0.002, snr=50.0, harvester=MODEL_B,
    epochs=3000, minibatch_size=800, train_set_size=4000, restarts=3,
    lambda_start=80.0, lambda_factor=5.0, lambda_max_points=4,
    eval_samples=80_000, seed=0)


def _report(criterion: str, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'}: {criterion} ({detail})")
    assert ok, f"{criterion}: {detail}"


@pytest.fixture(scope="module")
def sweep_a():
    return list(lambda_sweep(SWEEP_A_CFG))


@pytest.fixture(scope="module")
def sweep_b():
    return list(lambda_sweep(SWEEP_B_CFG))


def test_criterion_1_gradient_integrity():
    report = run_gradcheck(num_configs=20, seed=0)
    _report("criterion 1: gradient integrity", report.passed,
            f"max rel err {report.max_rel_err:.3e} < {report.tol:g} "
            f"over {len(report.configs)} configurations")


def test_criterion_2_harvester_oracle_equivalence():
    rng = substream(100, ROLE_MISC)
    worst_sigma = 0.0
    for k in range(10):
        pts = 0.05 * (rng.standard_normal(16) + 1j * rng.standard_normal(16))
        const = Constellation(points=pts, probabilities=np.full(16, 1 / 16))
        exact = pdel_exact(const, MODEL_A)
        est, stderr = pdel_monte_carlo_check(const, MODEL_A, 1_000_000,
                                             substream(100, ROLE_MISC, k + 1))
        worst_sigma = max(worst_sigma, abs(est - exact) / stderr)
    model_a_ok = worst_sigma <= 3.0

    rng = substream(101, ROLE_MISC)
    worst_b = 0.0
    for _ in range(10):
        powers = rng.uniform(0.0, 0.01, size=16)
        probs = rng.dirichlet(np.ones(16))
        batch = pdel_model_b(powers, MODEL_B, probabilities=probs)
        manual = sum(p * float(model_b_per_symbol(np.array([pw]), MODEL_B)[0])
                     for pw, p in zip(powers, probs))
        worst_b = max(worst_b, abs(batch - manual))
    model_b_ok = worst_b < 1e-12

    _report("criterion 2: harvester oracle equivalence",
            model_a_ok and model_b_ok,
            f"Model A worst deviation {worst_sigma:.2f} stderr, "
            f"Model B worst batch/exact gap {worst_b:.2e}")


def test_criterion_3_model_b_limits():
    at_zero = pdel_model_b(np.array([0.0]), MODEL_B)
    at_sat = pdel_model_b(np.array([0.03]), MODEL_B)
    ok = abs(at_zero) < 1e-12 and abs(at_sat - MODEL_B.ls) < 1e-9
    _report("criterion 3: Model B limits", ok,
            f"P_del(0)={at_zero:.2e}, |P_del(0.03)-L_s|={abs(at_sat - MODEL_B.ls):.2e}")


def test_criterion_4_information_only_baseline():
    cfg = TrainConfig(m=16, p_a=0.001, snr=50.0, harvester=MODEL_A,
                      epochs=1000, minibatch_size=1600, train_set_size=16_000,
                      restarts=10, eval_samples=1_600_000, seed=0)
    best = multi_restart(cfg, 0.0, restart_seeds(cfg, 0))
    qam = classical_baseline("QAM", 16, cfg.p_a)
    ref = estimate_ser(qam, None, cfg.sigma2(), 1_600_000, seed=0)
    ok = best.ser <= 1.5 * ref.ser
    _report("criterion 4: information-only baseline", ok,
            f"learned SER {best.ser:.5f} vs 1.5x 16-QAM ML "
            f"{1.5 * ref.ser:.5f} (QAM SER {ref.ser:.5f} "
            f"+- {ref.ser_stderr:.1e})")


def test_criterion_5_model_a_endpoint(sweep_a):
    rec = sweep_a[-1]
    amp2 = np.abs(rec.constellation.points) ** 2
    above = np.flatnonzero(amp2 > SWEEP_A_CFG.p_a)
    below = np.sum(amp2 < 0.1 * SWEEP_A_CFG.p_a)
    one_on = above.size == 1 and below == SWEEP_A_CFG.m - 1
    if above.size:
        phase = np.angle(rec.constellation.points[above[0]], deg=True)
        axis_err = min(abs(((phase - a) + 180) % 360 - 180)
                       for a in (0, 90, 180, -90))
    else:
        axis_err = float("nan")
    ok = one_on and axis_err <= 10.0
    _report("criterion 5: Model A one-point On-Off endpoint", ok,
            f"last lambda {rec.lam:.3g}: {above.size} point(s) above P_a, "
            f"{below}/{SWEEP_A_CFG.m - 1} below 0.1*P_a, axis offset "
            f"{axis_err:.2f} deg")


def test_criterion_6_model_b_endpoint(sweep_b):
    rec = sweep_b[-1]
    amps = np.abs(rec.constellation.points)
    threshold = 0.5 * np.sqrt(MODEL_B.ls)
    on = amps[amps > threshold]
    off = amps[amps <= threshold]
    spread = (on.max() - on.min()) / on.max() if on.size >= 2 else float("nan")
    ok = (on.size >= 2 and spread <= 0.10
          and np.all(off ** 2 < 0.1 * SWEEP_B_CFG.p_a))
    _report("criterion 6: Model B multi-point On-Off endpoint", ok,
            f"last lambda {rec.lam:.3g}: {on.size} On points "
            f"(amplitude spread {100 * spread:.1f}%), "
            f"{off.size} Off points all below 0.1*P_a="
            f"{np.all(off ** 2 < 0.1 * SWEEP_B_CFG.p_a)}")


def test_criterion_7_tradeoff_monotonicity(sweep_a, sweep_b):
    details = []
    ok = True
    for name, records in (("Model A", sweep_a), ("Model B", sweep_b)):
        lams = [r.lam for r in records]
        rho_p = stats.spearmanr(lams, [r.p_del for r in records]).statistic
        rho_ce = stats.spearmanr(lams,
                                 [r.cross_entropy for r in records]).statistic
        ok = ok and rho_p >= 0.9 and rho_ce >= 0.9
        details.append(f"{name}: rho(lambda,P_del)={rho_p:.3f}, "
                       f"rho(lambda,CE)={rho_ce:.3f}")
    _report("criterion 7: tradeoff monotonicity", ok, "; ".join(details))


def test_criterion_8_constraint_and_determinism(sweep_a, sweep_b, tmp_path):
    # minibatch power constraint, tracked across every training step
    worst_power = max(r.max_power_err for r in sweep_a + sweep_b)
    power_ok = worst_power <= 1e-9

    # byte-identical rerun of a full CLI training command
    import json
    cfg = {"M": 4, "p_a": 0.001, "snr": 50.0, "harvester.model": "A",
           "harvester.alpha": 0.3829, "harvester.beta": 0.0034,
           "harvester.gamma": 0.0, "epochs": 50, "minibatch_size": 100,
           "train_set_size": 500, "restarts": 2, "eval_samples": 10_000,
           "seed": 0}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    csvs = []
    for out in ("r1", "r2"):
        assert cli.main(["train", str(cfg_path), "--out",
                         str(tmp_path / out)]) == 0
        csvs.append((tmp_path / out / "desk" / "lambda_0.000000e+00" /
                     "constellation.csv").read_bytes())
    rerun_ok = csvs[0] == csvs[1]

    # the Monte-Carlo evaluation does not depend on earlier calls: the same
    # estimate before and after an NN-decoder call at another M, which
    # reshapes the buffers it shares with it in the evaluator's workspace
    const = classical_baseline("QAM", 16, 0.001)
    first = estimate_ser(const, None, 2e-5, 300_000, seed=7).ser
    decoder = init_params(8, seed=8).decoder
    estimate_ser(classical_baseline("PSK", 8, 0.001), decoder, 1e-3, 100_000, seed=1)
    again = estimate_ser(const, None, 2e-5, 300_000, seed=7).ser
    call_ok = first == again

    _report("criterion 8: constraint and determinism suite",
            power_ok and rerun_ok and call_ok,
            f"max minibatch power error {worst_power:.2e}, "
            f"rerun CSVs identical={rerun_ok}, "
            f"SER independent of earlier calls={call_ok}")
