"""Flat-key JSON configuration: key and type checks, defaults, profile fill.

Each key comes from the config file, else its default. Harvester constants
are mandatory for the selected model (they are calibration inputs, not
universal truths). The ``paper`` profile switches to the full-size training
constants; ``desk`` keeps runs laptop-sized. Domain rules live in the types
that hold the values (TrainConfig, ModelAParams, ModelBParams); this module
adds only what a file alone can get wrong: unknown keys, the other harvester
model's keys, JSON types, and the NaN and Infinity literals that Python's
json reads.
"""

from __future__ import annotations

import json
import math
from dataclasses import fields

from .harvester import ModelAParams, ModelBParams
from .trainer import TrainConfig


class ConfigError(Exception):
    """Invalid configuration; the message names the offending key."""


_DEFAULT = {f.name: f.default for f in fields(TrainConfig)}
_MODELS = {"A": ModelAParams, "B": ModelBParams}

# Scale defaults of the two profiles, by config key; the three sizes are per
# message. resolve fills the ones a file leaves unset from the row its
# `profile` key names.
PROFILES = {
    "desk": {"epochs": 1000, "restarts": 10, "minibatch_size": 100,
             "train_set_size": 10_000, "eval_samples": 100_000},
    "paper": {"epochs": 5000, "restarts": 100, "minibatch_size": 1000,
              "train_set_size": 100_000, "eval_samples": 5_000_000},
}
_PER_M = ("minibatch_size", "train_set_size", "eval_samples")

# key -> (type, default or None); the epochs, restarts and sizes left unset
# come from the selected profile's row of PROFILES
SCHEMA = {
    "profile": (str, "desk"),
    "M": (int, 16),
    "p_a": (float, 0.001),
    "snr": (float, 50.0),
    "harvester.model": (str, "A"),
    **{f"harvester.{f.name}": (float, None)
       for cls in _MODELS.values() for f in fields(cls)},
    "epochs": (int, None),
    "minibatch_size": (int, None),
    "train_set_size": (int, None),
    "restarts": (int, None),
    "lambda.start": (float, _DEFAULT["lambda_start"]),
    "lambda.factor": (float, _DEFAULT["lambda_factor"]),
    "lambda.max_points": (int, _DEFAULT["lambda_max_points"]),
    "seed": (int, _DEFAULT["seed"]),
    "eval_samples": (int, None),
}
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
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"config file {path} must hold a JSON object")
    return raw


def resolve(cfg: dict) -> dict:
    """Validate a flat config dict and fill defaults; returns the merged view."""
    for key in cfg:
        if key not in SCHEMA:
            raise ConfigError(f"unknown config key: {key}")
    out = {}
    for key, (typ, default) in SCHEMA.items():
        val = cfg.get(key, default)
        if key in cfg:
            if typ is float and isinstance(val, int) and not isinstance(val, bool):
                try:
                    val = float(val)
                except OverflowError:   # an int too large for a float
                    val = math.inf if val > 0 else -math.inf
            if not isinstance(val, typ) or isinstance(val, bool):
                raise ConfigError(f"config key {key}: expected {typ.__name__}, "
                                  f"got {type(val).__name__}")
            if typ is float and not math.isfinite(val):
                raise ConfigError(f"config key {key}: value {val!r} is not finite")
            if key in _CHOICES and val not in _CHOICES[key]:
                raise ConfigError(f"config key {key}: value {val!r} out of domain")
        out[key] = val

    model = out["harvester.model"]
    own = [f"harvester.{f.name}" for f in fields(_MODELS[model])]
    for key in cfg:
        if key.startswith("harvester.") and key not in own and key != "harvester.model":
            raise ConfigError(f"config key {key} is not a constant of harvester "
                              f"model {model}")
    for key in own:
        if out[key] is None:
            raise ConfigError(f"missing required config key for harvester "
                              f"model {model}: {key}")

    for key, size in PROFILES[out["profile"]].items():
        if out[key] is None:
            out[key] = size * out["M"] if key in _PER_M else size
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
