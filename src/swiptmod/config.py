"""Flat-key JSON configuration: key and type checks, defaults, profile fill.

Precedence: CLI flag > config file > default. Harvester constants are
mandatory for the selected model (they are calibration inputs, not universal
truths). The ``paper`` profile switches to the full-size training constants;
``desk`` keeps runs laptop-sized. Domain rules live in the types that hold
the values (TrainConfig, ModelAParams, ModelBParams); this module adds only
what a file alone can get wrong: unknown keys, JSON types, and the NaN and
Infinity literals that Python's json reads.
"""

from __future__ import annotations

import json
import math
from dataclasses import fields

from .harvester import ModelAParams, ModelBParams
from .trainer import PROFILES, TrainConfig


class ConfigError(Exception):
    """Invalid configuration; the message names the offending key."""


_DEFAULT = {f.name: f.default for f in fields(TrainConfig)}

# key -> (type, default or None); the epochs, restarts and per-M sizes left
# unset come from the selected profile in trainer.PROFILES
SCHEMA = {
    "profile": (str, "desk"),
    "M": (int, 16),
    "p_a": (float, 0.001),
    "snr": (float, 50.0),
    "noise_variance": (float, None),
    "harvester.model": (str, "A"),
    "harvester.alpha": (float, None),
    "harvester.beta": (float, None),
    "harvester.gamma": (float, None),
    "harvester.ls": (float, None),
    "harvester.a": (float, None),
    "harvester.b": (float, None),
    "epochs": (int, None),
    "minibatch_size": (int, None),
    "train_set_size": (int, None),
    "learning_rate": (float, _DEFAULT["learning_rate"]),
    "restarts": (int, None),
    "lambda.start": (float, _DEFAULT["lambda_start"]),
    "lambda.factor": (float, _DEFAULT["lambda_factor"]),
    "lambda.max_points": (int, _DEFAULT["lambda_max_points"]),
    "ser_max": (float, _DEFAULT["ser_max"]),
    "seed": (int, _DEFAULT["seed"]),
    "encoder_hidden": (list, None),
    "decoder_hidden": (list, None),
    "eval_samples": (int, None),
    "out_dir": (str, "runs"),
}
_MODELS = {"A": ModelAParams, "B": ModelBParams}
_CHOICES = {"profile": tuple(PROFILES), "harvester.model": tuple(_MODELS)}
# TrainConfig fields whose config key has another name
_KEY_OF = {"m": "M", "lambda_start": "lambda.start",
           "lambda_factor": "lambda.factor", "lambda_max_points": "lambda.max_points"}


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
    for key, (typ, default) in SCHEMA.items():
        val = cfg.get(key, default)
        if key in cfg:
            if typ is float and isinstance(val, int) and not isinstance(val, bool):
                val = float(val)
            if not isinstance(val, typ) or isinstance(val, bool):
                raise ConfigError(f"config key {key}: expected {typ.__name__}, "
                                  f"got {type(val).__name__}")
            if typ is float and not math.isfinite(val):
                raise ConfigError(f"config key {key}: value {val!r} is not finite")
            if key in _CHOICES and val not in _CHOICES[key]:
                raise ConfigError(f"config key {key}: value {val!r} out of domain")
        out[key] = val

    model = out["harvester.model"]
    for f in fields(_MODELS[model]):
        if out[f"harvester.{f.name}"] is None:
            raise ConfigError(f"missing required config key for harvester "
                              f"model {model}: harvester.{f.name}")

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
    return out


def harvester_from(resolved: dict):
    cls = _MODELS[resolved["harvester.model"]]
    return cls(**{f.name: resolved[f"harvester.{f.name}"] for f in fields(cls)})


def train_config_from(resolved: dict) -> TrainConfig:
    """The TrainConfig of a resolve() output; a rejected value is a ConfigError."""
    kw = {f.name: resolved[_KEY_OF.get(f.name, f.name)]
          for f in fields(TrainConfig) if f.name != "harvester"}
    try:
        return TrainConfig(harvester=harvester_from(resolved), **kw)
    except ValueError as exc:
        raise ConfigError(f"invalid training config: {exc}") from exc
