"""Tests for configuration loading, validation and profile resolution."""

import json
import math
from pathlib import Path

import pytest

from swiptmod.config import (ConfigError, harvester_from, load_config_file,
                             resolve, train_config_from)
from swiptmod.harvester import ModelAParams, ModelBParams

VALID_A = {
    "M": 8,
    "p_a": 0.001,
    "snr": 50.0,
    "harvester.model": "A",
    "harvester.alpha": 0.3829,
    "harvester.beta": 0.0034,
    "harvester.gamma": 0.0,
    "epochs": 50,
    "restarts": 2,
    "seed": 1,
}

VALID_B = {
    "M": 8,
    "p_a": 0.002,
    "harvester.model": "B",
    "harvester.ls": 0.02,
    "harvester.a": 6400.0,
    "harvester.b": 0.003,
}


def test_resolve_fills_desk_defaults():
    out = resolve(VALID_A)
    assert out["profile"] == "desk"
    assert out["minibatch_size"] == 800       # 100 * M
    assert out["train_set_size"] == 80_000    # 1e4 * M
    assert out["eval_samples"] == 800_000     # 1e5 * M


def test_resolve_paper_profile():
    out = resolve(dict(VALID_A, profile="paper"))
    assert out["epochs"] == 50  # explicit value wins over the profile
    del out
    cfg = dict(VALID_A)
    del cfg["epochs"], cfg["restarts"]
    out = resolve(dict(cfg, profile="paper"))
    assert out["epochs"] == 5000
    assert out["restarts"] == 100
    assert out["minibatch_size"] == 8000      # 1e3 * M
    assert out["train_set_size"] == 800_000   # 1e5 * M
    assert out["eval_samples"] == 40_000_000  # 5e6 * M


def test_missing_harvester_keys_named_in_error():
    cfg = dict(VALID_A)
    del cfg["harvester.beta"]
    with pytest.raises(ConfigError, match="harvester.beta"):
        resolve(cfg)
    cfg = dict(VALID_B)
    del cfg["harvester.ls"]
    with pytest.raises(ConfigError, match="harvester.ls"):
        resolve(cfg)


def test_unknown_key_rejected():
    with pytest.raises(ConfigError, match="lambda.stop"):
        resolve(dict(VALID_A, **{"lambda.stop": 3}))


def test_int_promoted_to_float_but_bool_rejected():
    out = resolve(dict(VALID_A, snr=50))
    assert out["snr"] == 50.0
    with pytest.raises(ConfigError):
        resolve(dict(VALID_A, snr=True))


def test_minibatch_exceeding_train_set_rejected():
    with pytest.raises(ConfigError, match="minibatch_size"):
        train_config_from(resolve(dict(VALID_A, minibatch_size=1000,
                                       train_set_size=500)))


def test_harvester_from_both_models():
    prm = harvester_from(resolve(VALID_A))
    assert prm == ModelAParams(alpha=0.3829, beta=0.0034, gamma=0.0)
    prm = harvester_from(resolve(VALID_B))
    assert prm == ModelBParams(ls=0.02, a=6400.0, b=0.003)


def test_train_config_from_round_trip():
    cfg = train_config_from(resolve(VALID_A))
    assert cfg.m == 8
    assert cfg.p_a == 0.001
    assert cfg.epochs == 50
    assert cfg.restarts == 2
    assert cfg.minibatch_size == 800


def test_eval_samples_floor_accepted():
    assert resolve(dict(VALID_A, eval_samples=1000))["eval_samples"] == 1000
    assert train_config_from(resolve(dict(VALID_A, eval_samples=1000))).eval_samples == 1000


def test_load_config_file(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(VALID_A))
    assert load_config_file(path) == VALID_A
    with pytest.raises(ConfigError):
        load_config_file(tmp_path / "missing.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigError):
        load_config_file(bad)
    arr = tmp_path / "arr.json"
    arr.write_text("[1, 2]")
    with pytest.raises(ConfigError):
        load_config_file(arr)


# every mutation of a valid config must be rejected with a ConfigError
_BAD_MUTATIONS = [
    {"M": 1}, {"M": 0}, {"M": -4}, {"M": 2.5}, {"M": "8"},
    {"p_a": 0.0}, {"p_a": -0.001}, {"p_a": "small"},
    {"snr": 0.0}, {"snr": -50}, {"snr": []},
    {"harvester.model": "C"}, {"harvester.model": 1}, {"harvester.model": None},
    {"harvester.alpha": -0.1}, {"harvester.alpha": 0.0},
    {"harvester.beta": -0.5}, {"harvester.alpha": "x"},
    {"epochs": 0}, {"epochs": -10}, {"epochs": 3.5},
    {"minibatch_size": 0}, {"minibatch_size": -8},
    {"train_set_size": 0}, {"train_set_size": -1},
    {"restarts": 0}, {"restarts": -1}, {"restarts": 1.5},
    {"lambda.start": 0.0}, {"lambda.start": -1e-5},
    {"lambda.factor": 1.0}, {"lambda.factor": 0.5}, {"lambda.factor": "two"},
    {"lambda.max_points": 0}, {"lambda.max_points": -3},
    {"seed": 1.5}, {"seed": "zero"},
    {"p_a": math.inf}, {"snr": math.inf},
    {"lambda.start": math.inf}, {"lambda.factor": math.inf},
    {"harvester.gamma": math.nan}, {"harvester.gamma": -math.inf},
    {"p_a": 10 ** 400}, {"harvester.gamma": -10 ** 400},
    {"eval_samples": 0}, {"eval_samples": -100}, {"eval_samples": 999},
    {"profile": "cluster"}, {"profile": 1},
    # retired keys, whatever their value: the output root is --out, and the
    # Adam step size and the SER stop level are constants
    {"out_dir": 3},
    {"learning_rate": 0.0}, {"learning_rate": -0.01}, {"learning_rate": "fast"},
    {"learning_rate": 1e400},
    {"ser_max": 0.0}, {"ser_max": 1.0}, {"ser_max": 1.5}, {"ser_max": -0.1},
    {"unknown_key": 1}, {"harvester": "A"}, {"alpha": 0.3},
]


@pytest.mark.parametrize("mutation", _BAD_MUTATIONS,
                         ids=[str(m) for m in _BAD_MUTATIONS])
def test_invalid_mutations_rejected(mutation):
    # through the pipeline every caller runs: the file checks, then the types
    cfg = dict(VALID_A)
    cfg.update(mutation)
    with pytest.raises(ConfigError):
        train_config_from(resolve(cfg))


def test_model_b_constants_checked_by_their_type():
    for key in ("harvester.ls", "harvester.a", "harvester.b"):
        with pytest.raises(ConfigError, match="Model B"):
            train_config_from(resolve(dict(VALID_B, **{key: 0.0})))


def test_removed_keys_rejected():
    # the hidden widths are fixed at 2M, the noise variance is p_a / snr, and
    # the Adam step size and the sweep's SER stop level are constants
    for key, val in (("encoder_hidden", [16]), ("decoder_hidden", [16]),
                     ("noise_variance", 2e-5), ("learning_rate", 0.01),
                     ("ser_max", 0.95)):
        with pytest.raises(ConfigError, match=f"unknown config key: {key}"):
            resolve(dict(VALID_A, **{key: val}))


@pytest.mark.parametrize("valid, key, val", [
    (VALID_A, "harvester.ls", 0.02), (VALID_A, "harvester.b", 0.003),
    (VALID_B, "harvester.alpha", 0.3829), (VALID_B, "harvester.gamma", 0.0),
], ids=["A-ls", "A-b", "B-alpha", "B-gamma"])
def test_other_models_harvester_key_rejected(valid, key, val):
    # a key the selected model does not read would be silently ignored
    with pytest.raises(ConfigError, match=key):
        resolve(dict(valid, **{key: val}))


def test_shipped_configs_resolve():
    # no other test or CI step loads some of them
    paths = sorted(Path(__file__).resolve().parents[1].glob("configs/*.json"))
    assert len(paths) == 3
    for path in paths:
        train_config_from(resolve(load_config_file(path)))
