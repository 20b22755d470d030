"""Command-line shell: train / sweep / eval / plot / gradcheck."""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from pathlib import Path

from . import config as cfgmod
from .config import ConfigError
from .evaluator import MIN_SAMPLES, estimate_ser
from .harvester import pdel_exact
from .gradcheck import run_gradcheck
from .nn import CheckpointFormatError, load_checkpoint, save_checkpoint
from .svgplot import write_constellation_svg
from .trainer import (RunRecord, TrainingFailure, lambda_sweep, multi_restart,
                      restart_seeds)
from .transceiver import (ConstellationFormatError, export_constellation,
                          read_constellation_csv, write_constellation_csv)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_TRAINING = 4

OUT_ROOT_ENV = "SWIPTMOD_OUT_ROOT"


def _lambda_dirname(lam: float) -> str:
    return f"lambda_{lam:.6e}"


def _out_root(resolved: dict, flag: str | None) -> Path:
    root = flag or os.environ.get(OUT_ROOT_ENV) or resolved["out_dir"]
    return Path(root) / resolved["profile"]


def _write_record(rec: RunRecord, resolved: dict, out_dir: Path) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
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
        "terminal": rec.terminal,
        "max_power_err": rec.max_power_err,
    }
    with open(out_dir / "meta.json", "w") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
        fh.write("\n")
    write_constellation_csv(rec.constellation, out_dir / "constellation.csv")
    if rec.params is not None:
        save_checkpoint(out_dir / "checkpoint.bin", rec.params)
    write_constellation_svg(rec.constellation, resolved["p_a"],
                            out_dir / "plot.svg",
                            title=f"lambda={rec.lam:g}  M={resolved['M']}")


def _load_resolved(args, overrides=None) -> dict:
    raw = cfgmod.load_config_file(args.config)
    ov = dict(overrides or {})
    if getattr(args, "paper_scale", False):
        ov["profile"] = "paper"
    return cfgmod.resolve(raw, ov)


def cmd_train(args) -> int:
    lam = args.lam
    if not (math.isfinite(lam) and lam >= 0):
        raise ConfigError(f"--lambda must be finite and >= 0, got {lam}")
    resolved = _load_resolved(args, {"seed": args.seed})
    cfg = cfgmod.train_config_from(resolved)
    rec = multi_restart(cfg, lam, restart_seeds(cfg, 0))
    out_dir = _out_root(resolved, args.out) / _lambda_dirname(lam)
    _write_record(rec, resolved, out_dir)
    print(f"lambda={lam:g} seed={rec.seed} cost={rec.final_cost:.6g} "
          f"ser={rec.ser:.6g} p_del={rec.p_del:.6g} -> {out_dir}")
    return EXIT_OK


def cmd_sweep(args) -> int:
    resolved = _load_resolved(args)
    cfg = cfgmod.train_config_from(resolved)
    root = _out_root(resolved, args.out)

    def progress(rec: RunRecord) -> None:
        print(f"lambda={rec.lam:.6e} cost={rec.final_cost:.6g} "
              f"ser={rec.ser:.6g} p_del={rec.p_del:.6g}", flush=True)

    records = lambda_sweep(cfg, progress=progress)
    lines = ["lambda,seed,final_cost,cross_entropy,ser,p_del,terminal"]
    for rec in records:
        _write_record(rec, resolved, root / _lambda_dirname(rec.lam))
        lines.append(f"{rec.lam:.17g},{rec.seed},{rec.final_cost:.17g},"
                     f"{rec.cross_entropy:.17g},{rec.ser:.17g},"
                     f"{rec.p_del:.17g},{int(rec.terminal)}")
    root.mkdir(parents=True, exist_ok=True)
    with open(root / "summary.csv", "w") as fh:
        fh.write("\n".join(lines) + "\n")
    print(f"sweep: {len(records)} lambda points -> {root / 'summary.csv'}")
    return EXIT_OK


def _unusable_checkpoint(path, exc: Exception) -> int:
    print(f"unusable checkpoint {path}: {exc}", file=sys.stderr)
    return EXIT_TRAINING


def cmd_eval(args) -> int:
    if args.seed < 0:
        raise ConfigError(f"--seed must be >= 0, got {args.seed}")
    resolved = _load_resolved(args)
    cfg = cfgmod.train_config_from(resolved)
    samples = cfg.eval_samples if args.samples is None else args.samples
    if samples < MIN_SAMPLES:
        raise ConfigError(f"eval needs at least {MIN_SAMPLES} samples, got {samples}")
    params = load_checkpoint(args.checkpoint)
    expect_enc = cfg.encoder_dims()
    got_enc = [params.encoder[0].in_dim] + [l.out_dim for l in params.encoder]
    expect_dec = cfg.decoder_dims()
    got_dec = [params.decoder[0].in_dim] + [l.out_dim for l in params.decoder]
    if got_enc != expect_enc or got_dec != expect_dec:
        raise CheckpointFormatError(
            f"checkpoint dims encoder={got_enc} decoder={got_dec} do not match "
            f"config dims encoder={expect_enc} decoder={expect_dec}")
    try:   # a degenerate encoder (a ValueError) or non-finite decoder output
        const = export_constellation(params.encoder, cfg.m, cfg.p_a)
        report = estimate_ser(const, params.decoder, cfg.sigma2(), samples,
                              seed=args.seed)
    except (FloatingPointError, ValueError) as exc:
        return _unusable_checkpoint(args.checkpoint, exc)
    payload = {
        "ser": report.ser,
        "ser_stderr": report.ser_stderr,
        "p_del": pdel_exact(const, cfg.harvester),
        "rate_bits": report.rate_bits,
        "num_samples": report.num_samples,
        "cross_entropy": report.cross_entropy,
    }
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    sys.stdout.write(text)
    return EXIT_OK


def cmd_plot(args) -> int:
    if not (math.isfinite(args.p_a) and args.p_a > 0):
        raise ConfigError(f"--p-a must be finite and positive, got {args.p_a}")
    const = read_constellation_csv(args.csv)
    write_constellation_svg(const, args.p_a, args.out)
    print(f"wrote {args.out}")
    return EXIT_OK


def cmd_gradcheck(args) -> int:
    if args.configs < 1:
        raise ConfigError(f"--configs must be >= 1, got {args.configs}")
    if args.seed < 0:
        raise ConfigError(f"--seed must be >= 0, got {args.seed}")
    report = run_gradcheck(num_configs=args.configs, seed=args.seed,
                           corrupt=args.corrupt)
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
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", default=None, help="output root (overrides config)")
    p.add_argument("--paper-scale", action="store_true",
                   help="use the full-size training constants")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("sweep", help="incremental lambda sweep with SER stop rule")
    p.add_argument("config")
    p.add_argument("--out", default=None)
    p.add_argument("--paper-scale", action="store_true")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("eval", help="evaluate a checkpoint (SER + delivered power)")
    p.add_argument("checkpoint")
    p.add_argument("config")
    p.add_argument("--samples", type=int, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    p.add_argument("--paper-scale", action="store_true")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("plot", help="render a constellation CSV to SVG")
    p.add_argument("csv")
    p.add_argument("out")
    p.add_argument("--p-a", dest="p_a", type=float, default=0.001,
                   help="average power for the reference circle")
    p.set_defaults(func=cmd_plot)

    p = sub.add_parser("gradcheck", help="finite-difference gradient verification")
    p.add_argument("--configs", type=int, default=20)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--corrupt", action="store_true", help=argparse.SUPPRESS)
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


if __name__ == "__main__":
    sys.exit(main())
