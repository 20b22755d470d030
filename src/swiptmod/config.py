"""Flat-key JSON configuration schema, validation and TrainConfig assembly.

Precedence: CLI flag > config file > default. Harvester constants are
mandatory for the selected model (they are calibration inputs, not universal
truths). The ``paper`` profile switches to the full-size training constants;
``desk`` keeps runs laptop-sized.
"""

from __future__ import annotations

import json
from dataclasses import fields

from .evaluator import MIN_SAMPLES
from .harvester import ModelAParams, ModelBParams
from .trainer import PROFILES, TrainConfig


class ConfigError(Exception):
    """Invalid configuration; the message names the offending key."""


def _positive(v):
    return v > 0


def _non_negative(v):
    return v >= 0


def _fraction(v):
    return 0.0 < v < 1.0


def _int_list(v):
    return isinstance(v, list) and all(isinstance(x, int) and x > 0 for x in v)


_DEFAULT = {f.name: f.default for f in fields(TrainConfig)}

# key -> (type, predicate or None, default or None); the epochs, restarts and
# per-M sizes left unset come from the selected profile in trainer.PROFILES
SCHEMA = {
    "profile": (str, lambda v: v in PROFILES, "desk"),
    "M": (int, lambda v: v >= 2, 16),
    "p_a": (float, _positive, 0.001),
    "snr": (float, _positive, 50.0),
    "noise_variance": (float, _non_negative, None),
    "harvester.model": (str, lambda v: v in ("A", "B"), "A"),
    "harvester.alpha": (float, None, None),
    "harvester.beta": (float, None, None),
    "harvester.gamma": (float, None, None),
    "harvester.ls": (float, _positive, None),
    "harvester.a": (float, _positive, None),
    "harvester.b": (float, _positive, None),
    "epochs": (int, _positive, None),
    "minibatch_size": (int, _positive, None),
    "train_set_size": (int, _positive, None),
    "learning_rate": (float, _positive, _DEFAULT["learning_rate"]),
    "restarts": (int, _positive, None),
    "lambda.start": (float, _positive, _DEFAULT["lambda_start"]),
    "lambda.factor": (float, lambda v: v > 1.0, _DEFAULT["lambda_factor"]),
    "lambda.max_points": (int, _positive, _DEFAULT["lambda_max_points"]),
    "ser_max": (float, _fraction, _DEFAULT["ser_max"]),
    "seed": (int, None, _DEFAULT["seed"]),
    "encoder_hidden": (list, _int_list, None),
    "decoder_hidden": (list, _int_list, None),
    "eval_samples": (int, lambda v: v >= MIN_SAMPLES, None),
    "out_dir": (str, None, "runs"),
}

_MODEL_A_KEYS = ("harvester.alpha", "harvester.beta", "harvester.gamma")
_MODEL_B_KEYS = ("harvester.ls", "harvester.a", "harvester.b")


def load_config_file(path) -> dict:
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"config file {path} must hold a JSON object")
    return raw


def resolve(raw: dict, overrides: dict | None = None) -> dict:
    """Validate a flat config dict and fill defaults; returns the merged view."""
    cfg = dict(raw)
    for k, v in (overrides or {}).items():
        if v is not None:
            cfg[k] = v
    for key in cfg:
        if key not in SCHEMA:
            raise ConfigError(f"unknown config key: {key}")
    out = {}
    for key, (typ, pred, default) in SCHEMA.items():
        if key in cfg:
            val = cfg[key]
            if typ is float and isinstance(val, int) and not isinstance(val, bool):
                val = float(val)
            if not isinstance(val, typ) or isinstance(val, bool):
                raise ConfigError(f"config key {key}: expected {typ.__name__}, "
                                  f"got {type(val).__name__}")
            if pred is not None and not pred(val):
                raise ConfigError(f"config key {key}: value {val!r} out of domain")
            out[key] = val
        else:
            out[key] = default

    model = out["harvester.model"]
    required = _MODEL_A_KEYS if model == "A" else _MODEL_B_KEYS
    for key in required:
        if out[key] is None:
            raise ConfigError(f"missing required config key for harvester "
                              f"model {model}: {key}")
    if model == "A" and out["harvester.alpha"] <= 0:
        raise ConfigError("config key harvester.alpha: must be positive")
    if model == "A" and out["harvester.beta"] < 0:
        raise ConfigError("config key harvester.beta: must be non-negative")

    profile = PROFILES[out["profile"]]
    m = out["M"]
    for key, per_m in (("minibatch_size", "minibatch_per_m"),
                       ("train_set_size", "train_per_m"),
                       ("eval_samples", "eval_per_m")):
        if out[key] is None:
            out[key] = profile[per_m] * m
    if out["epochs"] is None:
        out["epochs"] = profile["epochs"]
    if out["restarts"] is None:
        out["restarts"] = profile["restarts"]
    if out["minibatch_size"] > out["train_set_size"]:
        raise ConfigError("config key minibatch_size: exceeds train_set_size")
    return out


def harvester_from(resolved: dict):
    if resolved["harvester.model"] == "A":
        return ModelAParams(alpha=resolved["harvester.alpha"],
                            beta=resolved["harvester.beta"],
                            gamma=resolved["harvester.gamma"])
    return ModelBParams(ls=resolved["harvester.ls"], a=resolved["harvester.a"],
                        b=resolved["harvester.b"])


def train_config_from(resolved: dict) -> TrainConfig:
    cfg = TrainConfig(
        m=resolved["M"],
        p_a=resolved["p_a"],
        snr=resolved["snr"],
        harvester=harvester_from(resolved),
        epochs=resolved["epochs"],
        minibatch_size=resolved["minibatch_size"],
        train_set_size=resolved["train_set_size"],
        learning_rate=resolved["learning_rate"],
        restarts=resolved["restarts"],
        lambda_start=resolved["lambda.start"],
        lambda_factor=resolved["lambda.factor"],
        lambda_max_points=resolved["lambda.max_points"],
        ser_max=resolved["ser_max"],
        seed=resolved["seed"],
        encoder_hidden=tuple(resolved["encoder_hidden"])
        if resolved["encoder_hidden"] else None,
        decoder_hidden=tuple(resolved["decoder_hidden"])
        if resolved["decoder_hidden"] else None,
        eval_samples=resolved["eval_samples"],
        noise_variance=resolved["noise_variance"],
    ).resolved()
    cfg.validate()
    return cfg
