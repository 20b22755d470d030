"""swiptmod benchmark: one workload, measured in fresh single-threaded children.

    python3 perfbench/run.py --workload sweep-a-m8 --seed 1 --seconds 36 --trace 0

Run from the root of a checkout that holds ``src/swiptmod``. Each task runs
in its own interpreter (``child.py``) with every BLAS thread variable set to
1. Tasks repeat with the same seed until ``--seconds`` have passed; their
outputs must be byte-identical and pass the checks in ``child.py``. The last
line of standard output is one JSON object: ``correct``, ``attempted`` and
``failed`` ops, and the metrics of ``BENCHMARK.json`` (``end_to_end`` with
``--trace 0``, ``per_layer`` with ``--trace 1``). The gated times are scaled
to nominal machine speed by a frozen reference workload timed in each task's
process. The exit code is 1 when a check fails and 2 when the checkout holds
no swiptmod. See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent   # the checkout: perfbench/ sits next to src/
sys.path.insert(0, str(HERE))
from spans import clock  # noqa: E402

THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
              "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
# One pass of child.py's reference work on the machine the benchmark was tuned
# on (2 cores, OpenBLAS 0.3.31, one thread), in a quiet period.
NOMINAL_REFERENCE_S = 0.065
CHILD_TIMEOUT_S = 150.0
RUN_LIMIT_S = 170.0   # no task starts that would end after this; a run must end by 180 s

MODEL_A = {"harvester.model": "A", "harvester.alpha": 0.3829,
           "harvester.beta": 0.0034, "harvester.gamma": 0.0}
MODEL_B = {"harvester.model": "B", "harvester.ls": 0.02, "harvester.a": 6400.0,
           "harvester.b": 0.003}

# Task sizes per workload; the smoke test passes smaller ones.
SIZES = {
    # configs/model_a_sweep.json with fewer epochs, so one sweep takes seconds.
    "sweep-a-m8": {"epochs": 20, "eval_samples": 80_000, "lambda.max_points": 10,
                   "restarts": 3, "minibatch_size": 400, "train_set_size": 2000},
    # desk M=16 (minibatch 100*M, train set 1e4*M), eval at the library's 1e4*M.
    "train-b-m16": {"epochs": 5, "minibatch_size": 1600, "train_set_size": 160_000,
                    "eval_samples": 160_000},
    # checkpoint from a short M=16 run; samples per estimate_ser call.
    "eval-m16": {"epochs": 2, "minibatch_size": 1600, "train_set_size": 16_000,
                 "eval_samples": 16_000, "samples": 2_097_152},
}


def plan(workload: str, seed: int, sizes: dict) -> tuple[dict | None, dict]:
    """(input-preparation spec or None, task spec) for one workload and seed."""
    if workload == "sweep-a-m8":
        config = {"M": 8, "p_a": 0.001, "snr": 50.0, **MODEL_A,
                  "lambda.start": 2.5e-7, "lambda.factor": 4.0, "seed": seed,
                  **sizes}
        return None, {"kind": "sweep", "config": config, "seed": seed}
    if workload == "train-b-m16":
        config = {"M": 16, "p_a": 0.002, "snr": 50.0, **MODEL_B, "restarts": 1,
                  "seed": seed, **sizes}
        return None, {"kind": "train", "config": config, "seed": seed, "lam": 80.0}
    if workload == "eval-m16":
        sizes = dict(sizes)
        samples = sizes.pop("samples")
        config = {"M": 16, "p_a": 0.001, "snr": 50.0, **MODEL_A, "restarts": 1,
                  "seed": seed, **sizes}
        prep = {"kind": "train", "config": config, "seed": seed, "lam": 0.0}
        task = {"kind": "eval", "config": config, "seed": seed, "samples": samples}
        return prep, task
    raise ValueError(f"unknown workload {workload!r}")


def matmul_flops_per_step(config: dict) -> float:
    """Dense-layer flops of one training step, computed from the layer shapes.

    The first encoder layer is a row gather; the other three (2M to 2, 2 to
    2M, 2M to M) each do one matmul forward and two backward (weight and
    input gradients).
    """
    m, batch = config["M"], config["minibatch_size"]
    hidden = 2 * m   # the default width; no workload sets another
    return 3 * 2.0 * batch * (hidden * 2 + 2 * hidden + hidden * m)


def run_child(root: Path, spec: dict, work: Path, traced: bool, timeout: float) -> dict:
    """Run one task in a fresh interpreter; its result, or a failure record."""
    work.mkdir(parents=True, exist_ok=True)
    spec = dict(spec, root=str(root), work=str(work), traced=traced)
    spec_path, result_path = work / "spec.json", work / "result.json"
    env = dict(os.environ, **{k: "1" for k in THREAD_ENV})
    env.pop("PYTHONPATH", None)
    with open(work / "stdout.txt", "wb") as out, open(work / "stderr.txt", "wb") as err:
        spec["spawned_at"] = clock()
        spec_path.write_text(json.dumps(spec))
        try:
            proc = subprocess.run([sys.executable, str(HERE / "child.py"),
                                   str(spec_path), str(result_path)],
                                  cwd=root, env=env, stdout=out, stderr=err,
                                  timeout=timeout)
            code = proc.returncode
        except subprocess.TimeoutExpired:
            code = "timeout"
    wall = clock() - spec["spawned_at"]
    if code != 0 or not result_path.is_file():
        tail = (work / "stderr.txt").read_text(errors="replace")[-2000:]
        return {"ok": False, "traced": traced, "wall": wall, "attempted": 1,
                "failed": 1, "checks": [f"child exited {code}: {tail}"]}
    res = json.loads(result_path.read_text())
    res.update(ok=True, wall=wall)
    return res


def measure(workload: str, seed: int, seconds: float, trace: bool, root: Path) -> dict:
    """Run one workload; returns the run's results and its work directory."""
    prep_spec, task_spec = plan(workload, seed, SIZES[workload])
    work = root / ".perfbench-work" / f"{workload}-{seed}-{os.getpid()}"
    if work.exists():
        shutil.rmtree(work)
    begin = clock()
    prep = None
    if prep_spec is not None:
        prep_spec["out"] = str(work / "input")
        prep = run_child(root, prep_spec, work / "prep", trace, CHILD_TIMEOUT_S)
        task_spec["checkpoint"] = str(work / "input" / "checkpoint.bin")
    tasks = []
    start = clock()
    min_tasks = 4 if trace else 3
    while prep is None or prep["ok"]:
        traced = trace and len(tasks) % 2 == 1
        timeout = min(CHILD_TIMEOUT_S, RUN_LIMIT_S + 5.0 - (clock() - begin))
        tasks.append(run_child(root, task_spec, work / f"task{len(tasks)}",
                               traced, timeout))
        if not tasks[-1]["ok"]:
            break
        elapsed = clock() - start
        typical = statistics.median(t["wall"] for t in tasks)
        if clock() - begin + typical > RUN_LIMIT_S:
            break
        if len(tasks) >= min_tasks and elapsed + 0.5 * typical >= seconds:
            break
    return {"workload": workload, "prep": prep, "tasks": tasks,
            "task_spec": task_spec, "prep_spec": prep_spec, "work": work}


def verdict(run: dict) -> tuple[int, int, list[str]]:
    """(attempted, failed, failed checks) over every child of a run."""
    children = [c for c in [run["prep"], *run["tasks"]] if c is not None]
    attempted = sum(c["attempted"] for c in children)
    failed = sum(c["failed"] for c in children)
    checks = [msg for c in children for msg in c["checks"]]
    hashes = [c["hashes"] for c in run["tasks"] if c["ok"]]
    if len(hashes) < 2:
        checks.append("fewer than two finished tasks to compare")
    elif any(h != hashes[0] for h in hashes[1:]):
        checks.append("same-seed tasks wrote different outputs")
    return attempted, failed, checks


def normalized(task: dict, key: str) -> float:
    """A task's time at nominal machine speed: seconds scaled by the reference.

    The machine's speed drifts by tens of percent over minutes. The reference
    work, timed in the same process right after the task, drifts with it.
    """
    return task[key] * NOMINAL_REFERENCE_S / task["reference_s"]


def _median(tasks, key, scale=normalized) -> float:
    return statistics.median(scale(t, key) for t in tasks)


def end_to_end(run: dict) -> dict:
    plain = [t for t in run["tasks"] if t["ok"] and not t["traced"]]
    return {
        "setup_s": (_median(plain, "setup_s"), "s"),
        "task_s": (_median(plain, "task_s"), "s"),
        "peak_rss_mb": (max(t["peak_rss_mb"] for t in plain), "MB"),
    }


def _merge(tables) -> dict:
    merged: dict[str, list] = {}
    for table in tables:
        for key, row in table.items():
            merged[key] = [a + b for a, b in zip(merged.get(key, [0, 0.0, 0.0, 0]), row)]
    return merged


def _pick(table: dict, name: str, site: str | None = None) -> list:
    """[calls, total s, self s, true notes] of one span name, at one site or all."""
    acc = [0, 0.0, 0.0, 0]
    for key, row in table.items():
        span_name, span_site = key.split("@")
        if span_name == name and site in (None, span_site):
            acc = [a + b for a, b in zip(acc, row)]
    return acc


def per_layer(run: dict) -> dict:
    """Per-layer figures from the traced children.

    Per-step and per-call figures also count a traced input preparation (the
    eval-m16 checkpoint's training); per-task figures count the tasks only.
    """
    traced = [t for t in run["tasks"] if t["ok"] and t["traced"]]
    plain = [t for t in run["tasks"] if t["ok"] and not t["traced"]]
    prep = [run["prep"]] if run["prep"] and run["prep"].get("layers") else []
    table = _merge(c["layers"] for c in traced + prep)
    steps = _pick(table, "trainer.network_cost", "trainer")[0]
    train_config = (run["prep_spec"] or run["task_spec"])["config"]

    def per_step(name, col=1):
        return (1e6 * _pick(table, name, "trainer")[col] / steps if steps else 0.0, "us")

    def per_call(name, scale, unit):
        calls, secs = _pick(table, name)[:2]
        return (scale * secs / calls if calls else 0.0, unit)

    writers = ("nn.save_checkpoint", "transceiver.write_constellation_csv",
               "svgplot.write_constellation_svg")
    points = _pick(table, "transceiver.write_constellation_csv")[0]
    write_s = sum(_pick(table, name)[1] for name in writers)
    restarts = _pick(table, "trainer.train_run")
    return {
        "trainer.network_cost.self_us_per_step": per_step("trainer.network_cost", 2),
        "trainer.train_run.self_us_per_step": per_step("trainer.train_run", 2),
        "harvester.pdel_with_grads.us_per_step": per_step("harvester.pdel_with_grads"),
        "nn.mlp_forward.us_per_step": per_step("nn.mlp_forward"),
        "nn.mlp_backward.us_per_step": per_step("nn.mlp_backward"),
        "nn.softmax.us_per_step": per_step("nn.softmax"),
        "nn.adam_step.us_per_step": per_step("nn.adam_step"),
        "channel.sample_noise.us_per_step": per_step("channel.sample_noise"),
        "trainer.steps": (steps, "count"),
        "trainer.restarts_attempted": (restarts[0], "count"),
        "trainer.restarts_failed": (restarts[3], "count"),
        "nn.matmul_flops_per_step": (matmul_flops_per_step(train_config), "flop_computed"),
        "harvester.pdel_exact.us_per_call": per_call("harvester.pdel_exact", 1e6, "us"),
        "transceiver.decode.us_per_block": per_call("transceiver.decode", 1e6, "us"),
        "evaluator.estimate_ser.busy_s": (
            _pick(_merge(t["layers"] for t in traced), "evaluator.estimate_ser")[1]
            / len(traced), "s"),
        "transceiver.export_constellation.us_per_call": per_call(
            "transceiver.export_constellation", 1e6, "us"),
        "cli.write_point_ms": (1e3 * write_s / points if points else 0.0, "ms"),
        "config.resolve_ms": per_call("config.resolve", 1e3, "ms"),
        "nn.init_params_ms": per_call("nn.init_params", 1e3, "ms"),
        "trace_overhead_frac": (
            _median(traced, "task_s") / _median(plain, "task_s") - 1.0, "frac"),
    }


def derived(run: dict, attempted: int, failed: int) -> dict:
    """The workload's own figures in the units users quote, unscaled; not gated."""
    plain = [t for t in run["tasks"] if t["ok"] and not t["traced"]]
    raw = lambda t, key: t[key]  # noqa: E731
    med = lambda key: statistics.median(t["values"][key] for t in plain)  # noqa: E731
    task_s = _median(plain, "task_s", raw)
    out = {"ops_attempted": (attempted, "count"),
           "ops_failed_frac": (failed / attempted, "frac"),
           "setup_raw_s": (_median(plain, "setup_s", raw), "s"),
           "task_raw_s": (task_s, "s"),
           "speed_factor": (statistics.median(
               NOMINAL_REFERENCE_S / t["reference_s"] for t in plain), "1")}
    if run["workload"] == "sweep-a-m8":
        out.update(sweep_s=(task_s, "s"), sweep_pdel_max=(med("pdel_max"), "W"),
                   lambda_points=(med("lambda_points"), "count"))
    elif run["workload"] == "train-b-m16":
        out.update(train_steps_per_s=(med("steps") / task_s, "1/s"),
                   train_final_cost=(med("final_cost"), "1"))
    else:
        out.update(eval_nn_samples_per_s=(med("nn_samples_per_s"), "1/s"),
                   eval_ml_samples_per_s=(med("ml_samples_per_s"), "1/s"),
                   eval_pdel=(med("p_del"), "W"))
    return out


def environment(root: Path, run: dict) -> dict:
    """Machine, toolchain and source state this result was measured on."""
    head = root / ".git" / "HEAD"
    commit = "unknown (not a git checkout)"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_path = root / ".git" / ref[5:]
            commit = ref_path.read_text().strip() if ref_path.is_file() else ref
        else:
            commit = ref
    lines = sum(len(p.read_text().splitlines())
                for p in sorted((root / "src" / "swiptmod").glob("*.py")))
    child_env = next((t["env"] for t in run["tasks"] if t["ok"]), {})
    return {"nproc": os.cpu_count(), **child_env,
            "thread_env": {k: "1" for k in THREAD_ENV}, "git_commit": commit,
            "src_swiptmod_lines": lines}


def _show(title: str, metrics: dict) -> None:
    print(title)
    for name, (value, unit) in metrics.items():
        print(f"  {name:46s} {value:>16.6g} {unit}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(SIZES))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "swiptmod" / "__init__.py").is_file():
        print(f"perfbench: no src/swiptmod under {ROOT}", file=sys.stderr)
        return 2
    run = measure(args.workload, args.seed, args.seconds, bool(args.trace), ROOT)
    attempted, failed, checks = verdict(run)
    correct = not checks and failed == 0
    print(f"perfbench: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace} "
          f"tasks={len(run['tasks'])} (traced {sum(t['traced'] for t in run['tasks'])})")
    print("env: " + json.dumps(environment(ROOT, run), sort_keys=True))
    for msg in checks:
        print(f"CHECK FAILED: {msg}")
    if not correct:
        print(f"perfbench: outputs kept in {run['work']}", file=sys.stderr)
        metrics = {}
    else:
        shutil.rmtree(run["work"], ignore_errors=True)
        try:
            run["work"].parent.rmdir()
        except OSError:
            pass   # another run's work directory is still there
        metrics = per_layer(run) if args.trace else end_to_end(run)
        _show("derived (not gated):", derived(run, attempted, failed))
        _show("metrics:", metrics)
    print(json.dumps({"correct": correct, "attempted": max(attempted, 1),
                      "failed": failed,
                      "metrics": {k: {"value": v, "unit": u}
                                  for k, (v, u) in metrics.items()}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
