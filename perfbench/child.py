"""One benchmark task in a fresh interpreter.

    python3 perfbench/child.py SPEC.json RESULT.json

``run.py`` writes the spec and starts this script with the BLAS thread
variables already set to 1, so NumPy loads single-threaded. The script
imports swiptmod from the spec's checkout, runs one task under a Tracer,
checks the task's outputs, times a frozen reference workload and writes
timings, op counts, output hashes and failed checks to RESULT.json.
"""

from __future__ import annotations

import hashlib
import json
import math
import platform
import resource
import statistics
import sys
from pathlib import Path

import spans


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _check_power(const, p_a: float, where: str, checks: list) -> None:
    power = const.mean_power()
    if not (math.isfinite(power) and abs(power - p_a) <= 1e-9 * p_a):
        checks.append(f"{where}: mean power {power!r} != p_a {p_a!r}")


def _timed(res: dict, fn, *args):
    """fn(*args), with its wall seconds stored as the task's time."""
    t0 = spans.clock()
    out = fn(*args)
    res["task_s"] = spans.clock() - t0
    return out


def _write_point(rec, p_a: float, out: Path) -> None:
    """The files the CLI writes for one lambda point, minus meta.json."""
    from swiptmod import nn, svgplot, transceiver
    out.mkdir(parents=True, exist_ok=True)
    nn.save_checkpoint(out / "checkpoint.bin", rec.params)
    transceiver.write_constellation_csv(rec.constellation, out / "constellation.csv")
    svgplot.write_constellation_svg(rec.constellation, p_a, out / "plot.svg")


def run_sweep(spec: dict, work: Path, res: dict) -> None:
    """`swiptmod sweep` through the CLI entry point, on the spec's config."""
    from swiptmod import cli
    from swiptmod.transceiver import read_constellation_csv
    cfg_path = work / "config.json"
    cfg_path.write_text(json.dumps(spec["config"]))
    out = work / "out"
    code = _timed(res, cli.main, ["sweep", str(cfg_path), "--out", str(out)])
    checks = res["checks"]
    if code != 0:   # counted as one failed lambda point
        checks.append(f"swiptmod sweep exited {code}")
        res["attempted"] += 1
        res["failed"] += 1
        return
    root = out / "desk"
    rows = (root / "summary.csv").read_text().splitlines()[1:]
    p_dels = []
    for row in rows:
        lam, _, cost, ce, ser, p_del, _ = (float(v) for v in row.split(","))
        res["attempted"] += 1
        ok = (all(math.isfinite(v) for v in (cost, ce, ser, p_del))
              and 0.0 <= ser <= 1.0 and p_del > 0.0)
        if not ok:
            checks.append(f"lambda {lam:g}: bad summary row {row}")
            res["failed"] += 1
        p_dels.append(p_del)
        const = read_constellation_csv(root / f"lambda_{lam:.6e}" / "constellation.csv")
        _check_power(const, spec["config"]["p_a"], f"lambda {lam:g}", checks)
    if not rows:
        checks.append("summary.csv has no lambda points")
    for path in sorted(root.rglob("*")):
        if path.name in ("summary.csv", "constellation.csv", "checkpoint.bin"):
            res["hashes"][str(path.relative_to(root))] = _sha256(path)
    res["values"] = {"lambda_points": len(rows), "pdel_max": max(p_dels, default=math.nan)}


def run_train(spec: dict, work: Path, res: dict) -> None:
    """One trainer.train_run on the spec's config, then its files written."""
    from swiptmod import config, trainer
    cfg = config.train_config_from(config.resolve(spec["config"]))
    rec = _timed(res, trainer.train_run, cfg, spec["lam"], spec["seed"])
    if rec.failed or not math.isfinite(rec.final_cost):
        res["checks"].append(f"train_run failed, final cost {rec.final_cost!r}")
        return
    if not (0.0 <= rec.ser <= 1.0 and math.isfinite(rec.p_del) and rec.p_del > 0.0):
        res["checks"].append(f"train_run: ser {rec.ser!r}, p_del {rec.p_del!r}")
    _check_power(rec.constellation, cfg.p_a, "train_run", res["checks"])
    out = Path(spec["out"]) if spec.get("out") else work / "out"
    _write_point(rec, cfg.p_a, out)
    for name in ("constellation.csv", "checkpoint.bin"):
        res["hashes"][name] = _sha256(out / name)
    res["values"] = {"steps": cfg.epochs * (cfg.train_set_size // cfg.minibatch_size),
                     "final_cost": rec.final_cost, "p_del": rec.p_del}


def run_eval(spec: dict, work: Path, res: dict) -> None:
    """Monte-Carlo SER of a checkpoint with its NN decoder and with ML detection."""
    from swiptmod import config, evaluator, harvester, nn, transceiver
    cfg = config.train_config_from(config.resolve(spec["config"]))
    params = nn.load_checkpoint(spec["checkpoint"])
    const = transceiver.export_constellation(params.encoder, cfg.m, cfg.p_a)
    sigma2, n, seed = cfg.sigma2(), spec["samples"], spec["seed"]

    def task():
        t0 = spans.clock()
        rep_nn = evaluator.estimate_ser(const, params.decoder, sigma2, n, seed=seed)
        t1 = spans.clock()
        rep_ml = evaluator.estimate_ser(const, None, sigma2, n, seed=seed)
        t2 = spans.clock()
        return rep_nn, rep_ml, harvester.pdel_exact(const, cfg.harvester), t1 - t0, t2 - t1

    rep_nn, rep_ml, p_del, nn_s, ml_s = _timed(res, task)
    values = {"ser_nn": rep_nn.ser, "ser_ml": rep_ml.ser,
              "cross_entropy": rep_nn.cross_entropy, "p_del": p_del}
    if not all(math.isfinite(v) for v in values.values()):
        res["checks"].append(f"eval: non-finite result {values}")
    # Minimum-distance detection is optimal for equiprobable points in AWGN,
    # and both estimates see the same messages and noise.
    slack = 4.0 * math.hypot(rep_nn.ser_stderr, rep_ml.ser_stderr) + 1.0 / n
    if not rep_ml.ser <= rep_nn.ser + slack:
        res["checks"].append(f"eval: ML SER {rep_ml.ser} above NN SER {rep_nn.ser}")
    res["hashes"]["report"] = hashlib.sha256(
        json.dumps(values, sort_keys=True).encode()).hexdigest()
    values.update(nn_samples_per_s=n / nn_s, ml_samples_per_s=n / ml_s)
    res["values"] = values


TASKS = {"sweep": run_sweep, "train": run_train, "eval": run_eval}


def _reference_steps(m: int, batch: int, steps: int) -> None:
    """Training steps of a frozen copy of the M-message autoencoder step.

    One-hot gather, ReLU encoder, power normalization, AWGN, ReLU decoder,
    softmax cross entropy, a fourth-moment harvester term, the hand-written
    backward pass with an np.add.at scatter, and Adam. It never calls
    swiptmod, so changes to swiptmod do not change its time.
    """
    import numpy as np
    rng = np.random.default_rng(12345)
    hid = 2 * m
    shapes = [(hid, m), (hid,), (2, hid), (2,), (hid, 2), (hid,), (m, hid), (m,)]
    params = [0.3 * rng.standard_normal(s) for s in shapes]
    first = [np.zeros(s) for s in shapes]
    second = [np.zeros(s) for s in shapes]
    rows = np.arange(batch)
    for t in range(1, steps + 1):
        we1, be1, we2, be2, wd1, bd1, wd2, bd2 = params
        msgs = rng.integers(0, m, size=batch)
        noise = rng.normal(0.0, 0.003, size=(batch, 2))
        z1 = we1.T[msgs] + be1
        a1 = np.maximum(z1, 0.0)
        u = a1 @ we2.T + be2
        energy = float(np.sum(u * u))
        scale = math.sqrt(1e-3 * batch / energy)
        x = scale * u
        y = x + noise
        z2 = y @ wd1.T + bd1
        a2 = np.maximum(z2, 0.0)
        logits = a2 @ wd2.T + bd2
        e = np.exp(logits - logits.max(axis=1, keepdims=True))
        probs = e / e.sum(axis=1, keepdims=True)
        r2 = x[:, 0] * x[:, 0] + x[:, 1] * x[:, 1]
        d = probs.copy()
        d[rows, msgs] -= 1.0
        d /= batch
        da2 = d @ wd2
        dz2 = da2 * (z2 > 0.0)
        dx = dz2 @ wd1 - (4e-3 / batch) * r2[:, None] * x
        du = scale * (dx - (float(np.sum(dx * u)) / energy) * u)
        dz1 = (du @ we2) * (z1 > 0.0)
        dwe1 = np.zeros((m, hid))
        np.add.at(dwe1, msgs, dz1)
        grads = [dwe1.T, dz1.sum(axis=0), du.T @ a1, du.sum(axis=0),
                 dz2.T @ y, dz2.sum(axis=0), d.T @ a2, d.sum(axis=0)]
        for p, g, m1, m2 in zip(params, grads, first, second):
            m1 *= 0.9
            m1 += 0.1 * g
            m2 *= 0.999
            m2 += 0.001 * g * g
            p -= 0.01 * (m1 / (1.0 - 0.9 ** t)) / (np.sqrt(m2 / (1.0 - 0.999 ** t)) + 1e-8)


def _reference_eval(m: int, blocks: int) -> None:
    """Monte-Carlo blocks of a frozen NN decoder and minimum-distance detector."""
    import numpy as np
    rng = np.random.default_rng(12345)
    points = rng.standard_normal(m) + 1j * rng.standard_normal(m)
    w1, b1 = rng.standard_normal((2 * m, 2)), rng.standard_normal(2 * m)
    w2, b2 = rng.standard_normal((m, 2 * m)), rng.standard_normal(m)
    n = 1 << 16
    for _ in range(blocks):
        s = rng.integers(0, m, size=n)
        noise = rng.normal(0.0, 0.1, size=(n, 2))
        y = points[s] + noise[:, 0] + 1j * noise[:, 1]
        h = np.maximum(np.stack([y.real, y.imag], axis=-1) @ w1.T + b1, 0.0)
        logits = h @ w2.T + b2
        e = np.exp(logits - logits.max(axis=1, keepdims=True))
        probs = e / e.sum(axis=1, keepdims=True)
        np.argmax(probs, axis=1)
        np.argmin(np.abs(y[:, None] - points[None, :]) ** 2, axis=1)


# Per task kind: frozen work of the same kind as the task, about 65 ms a pass.
# Its time, taken right after the task, tracks how fast the shared machine
# runs at that moment; run.py scales the task's times by it.
REFERENCES = {
    "sweep": lambda: (_reference_steps(8, 400, 40), _reference_eval(8, 1)),
    "train": lambda: _reference_steps(16, 1600, 32),
    "eval": lambda: _reference_eval(16, 1),
}


def reference_s(kind: str) -> float:
    """Seconds of one pass of the frozen reference work for a task kind."""
    t0 = spans.clock()
    REFERENCES[kind]()
    return spans.clock() - t0


def _environment() -> dict:
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}"}


def main(spec_path: str, result_path: str) -> int:
    spec = json.loads(Path(spec_path).read_text())
    src = Path(spec["root"]) / "src"
    sys.path.insert(0, str(src))
    import swiptmod
    if Path(swiptmod.__file__).resolve().parent != (src / "swiptmod").resolve():
        raise ImportError(f"swiptmod imported from {swiptmod.__file__}, not {src}")
    work = Path(spec["work"])
    work.mkdir(parents=True, exist_ok=True)
    res = {"traced": spec["traced"], "attempted": 0, "failed": 0,
           "checks": [], "hashes": {}, "values": {}}
    targets = spans.LAYER_TARGETS if spec["traced"] else spans.OPS_TARGETS
    with spans.Tracer(targets) as tracer:
        TASKS[spec["kind"]](spec, work, res)
    # before the reference work, whose arrays would count otherwise
    res["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    refs = [reference_s(spec["kind"]) for _ in range(5)][1:]   # pass 1 warms up
    res["reference_s"] = statistics.median(refs)
    ops = [s for s in tracer.spans
           if s.name in ("trainer.train_run", "evaluator.estimate_ser")]
    res["attempted"] += len(ops)
    res["failed"] += sum(bool(s.note) for s in ops)
    if any(s.note for s in ops):
        res["checks"].append("a restart failed")
    res["setup_s"] = (ops[0].start - spec["spawned_at"]) if ops else math.nan
    res["env"] = _environment()
    if spec["traced"]:
        res["layers"] = spans.summarize(tracer.spans)
    Path(result_path).write_text(json.dumps(res))
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
