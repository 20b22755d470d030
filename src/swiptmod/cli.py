"""Command-line shell: train / sweep / eval / plot / gradcheck."""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from contextlib import closing
from pathlib import Path

import numpy as np

from . import config as cfgmod
from .config import ConfigError
from .gradcheck import run_gradcheck
from .nn import CheckpointFormatError, load_checkpoint, save_checkpoint
from .svgplot import write_constellation_svg
from .trainer import (RunRecord, TrainConfig, TrainingFailure, evaluate,
                      lambda_sweep, multi_restart, restart_seeds)
from .transceiver import (ConstellationFormatError, DegenerateEncoderError,
                          read_constellation_csv, write_constellation_csv)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_TRAINING = 4
POINT_DIR = "lambda_{:.6e}"   # each lambda point's directory; names rise with lambda


def _out_root(resolved: dict, out: str) -> Path:
    """<out>/<profile>/, created: an unwritable root fails before training."""
    root = Path(out) / resolved["profile"]
    root.mkdir(parents=True, exist_ok=True)
    return root


def _write_record(rec: RunRecord, resolved: dict, root: Path) -> Path:
    """The four files of one lambda point, in root/lambda_<value>/."""
    out_dir = root / POINT_DIR.format(rec.lam)
    out_dir.mkdir(exist_ok=True)
    meta = {
        "lambda": rec.lam,
        "seed": rec.seed,
        "final_cost": rec.final_cost,
        "ser": rec.ser,
        "p_del": rec.p_del,
        "cross_entropy": rec.cross_entropy,
        "epochs": resolved["epochs"],
        "M": resolved["M"],
        "P_a": resolved["p_a"],
        "snr": resolved["snr"],
        "harvester_model": resolved["harvester.model"],
        "max_power_err": rec.max_power_err,
    }
    with open(out_dir / "meta.json", "w") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
        fh.write("\n")
    write_constellation_csv(rec.constellation, out_dir / "constellation.csv")
    save_checkpoint(out_dir / "checkpoint.bin", rec.params)
    write_constellation_svg(rec.constellation, resolved["p_a"],
                            out_dir / "plot.svg",
                            title=f"lambda={rec.lam:g}  M={resolved['M']}")
    return out_dir


def _load_config(args) -> tuple[dict, TrainConfig]:
    """args.config's resolved dict and the TrainConfig built from it."""
    resolved = cfgmod.resolve(cfgmod.load_config_file(args.config))
    return resolved, cfgmod.train_config_from(resolved)


def cmd_train(args) -> int:
    lam = args.lam
    if not (math.isfinite(lam) and lam >= 0):
        raise ConfigError(f"--lambda must be finite and >= 0, got {lam}")
    resolved, cfg = _load_config(args)
    root = _out_root(resolved, args.out)
    rec = multi_restart(cfg, lam, restart_seeds(cfg, 0))
    out_dir = _write_record(rec, resolved, root)
    print(f"lambda={lam:g} seed={rec.seed} cost={rec.final_cost:.6g} "
          f"ser={rec.ser:.6g} p_del={rec.p_del:.6g} -> {out_dir}")
    return EXIT_OK


def cmd_sweep(args) -> int:
    """Writes each point, then its summary.csv row, as soon as it is chosen;
    the sweep is closed on every path, which ends its restart worker."""
    resolved, cfg = _load_config(args)
    root = _out_root(resolved, args.out)
    summary = root / "summary.csv"
    lines = ["lambda,seed,final_cost,cross_entropy,ser,p_del,terminal"]
    written = set()
    with closing(lambda_sweep(cfg)) as records:
        for rec in records:
            print(f"lambda={rec.lam:.6e} cost={rec.final_cost:.6g} "
                  f"ser={rec.ser:.6g} p_del={rec.p_del:.6g}", flush=True)
            written.add(_write_record(rec, resolved, root).name)
            # a constant terminal field: perfbench/child.py unpacks seven fields
            lines.append(f"{rec.lam:.17g},{rec.seed},{rec.final_cost:.17g},"
                         f"{rec.cross_entropy:.17g},{rec.ser:.17g},{rec.p_del:.17g},0")
            # renamed over the old file, so a kill leaves the old rows or the new
            tmp = root / "summary.csv.tmp"
            tmp.write_text("\n".join(lines) + "\n")
            os.replace(tmp, summary)
    print(f"sweep: {len(lines) - 1} lambda points -> {summary}")
    stale = sorted(p.name for p in root.glob("lambda_*") if p.name not in written)
    if stale:   # left by an earlier run into the same root; kept, not listed
        print(f"sweep: {root} also holds {' '.join(stale)} from an earlier run, "
              f"which {summary.name} does not list", file=sys.stderr)
    return EXIT_OK


def cmd_eval(args) -> int:
    if args.seed < 0:
        raise ConfigError(f"--seed must be >= 0, got {args.seed}")
    _, cfg = _load_config(args)
    params = load_checkpoint(args.checkpoint)
    if params.m != cfg.m:
        raise CheckpointFormatError(
            f"checkpoint M={params.m} and config M={cfg.m} do not match")
    try:   # a degenerate encoder, non-finite logits, or an overflow anywhere
        _, report, p_del = evaluate(params, cfg, args.seed)
    except (FloatingPointError, DegenerateEncoderError) as exc:
        print(f"unusable checkpoint {args.checkpoint}: {exc}", file=sys.stderr)
        return EXIT_TRAINING
    payload = {
        "ser": report.ser,
        "ser_stderr": report.ser_stderr,
        "p_del": p_del,
        "rate_bits": report.rate_bits,
        "num_samples": report.num_samples,
        "cross_entropy": report.cross_entropy,
    }
    sys.stdout.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return EXIT_OK


def cmd_plot(args) -> int:
    const = read_constellation_csv(args.csv)
    with np.errstate(over="ignore"):   # an overflow shows as an infinite power
        p_a = const.mean_power()
    if not math.isfinite(p_a):
        raise ConstellationFormatError(f"{args.csv}: the points' mean power overflows")
    write_constellation_svg(const, p_a, args.out)
    print(f"wrote {args.out}")
    return EXIT_OK


def cmd_gradcheck(args) -> int:
    report = run_gradcheck()
    for name, err in sorted(report.worst_blocks().items()):
        print(f"{name:>8s}  worst rel err {err:.3e}")
    print(f"overall max rel err {report.max_rel_err:.3e} "
          f"(tolerance {report.tol:g}) -> {'PASS' if report.passed else 'FAIL'}")
    return EXIT_OK if report.passed else 1


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="swiptmod",
        description="Learned modulation design for SWIPT over AWGN")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="best-of-restarts training at one lambda")
    p.add_argument("config")
    p.add_argument("--lambda", dest="lam", type=float, default=0.0)
    p.add_argument("--out", default="runs", help="output root")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("sweep", help="best-of-restarts training at each lambda of the ladder")
    p.add_argument("config")
    p.add_argument("--out", default="runs", help="output root")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("eval", help="evaluate a checkpoint (SER + delivered power)")
    p.add_argument("checkpoint")
    p.add_argument("config")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("plot", help="render a constellation CSV to SVG")
    p.add_argument("csv")
    p.add_argument("out")
    p.set_defaults(func=cmd_plot)

    p = sub.add_parser("gradcheck", help="finite-difference gradient verification")
    p.set_defaults(func=cmd_gradcheck)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (CheckpointFormatError, ConstellationFormatError) as exc:
        print(f"format error: {exc}", file=sys.stderr)
        return EXIT_IO
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except TrainingFailure as exc:
        print(f"training failure: {exc}", file=sys.stderr)
        return EXIT_TRAINING
    except MemoryError as exc:   # say, a restart's networks at a huge M
        print(f"out of memory: {exc}", file=sys.stderr)
        return EXIT_TRAINING


if __name__ == "__main__":
    sys.exit(main())
