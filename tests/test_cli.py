"""End-to-end tests of the command-line interface (in-process)."""

import itertools
import json
import math
import re
import sys
import warnings
from types import SimpleNamespace

import numpy as np
import pytest

from swiptmod import cli, config, trainer
from swiptmod.nn import init_params, save_checkpoint
from swiptmod.svgplot import render_constellation_svg
from swiptmod.transceiver import CSV_HEADER, Constellation, write_constellation_csv
from test_nn import M4_DECODER, WRONG_SHAPES, write_raw_checkpoint

TINY_A = {
    "M": 4,
    "p_a": 0.001,
    "snr": 50.0,
    "harvester.model": "A",
    "harvester.alpha": 0.3829,
    "harvester.beta": 0.0034,
    "harvester.gamma": 0.0,
    "epochs": 20,
    "minibatch_size": 100,
    "train_set_size": 200,
    "restarts": 1,
    "eval_samples": 2000,
    "lambda.start": 1e-4,
    "lambda.factor": 10.0,
    "lambda.max_points": 2,
    "seed": 0,
}


# bytes that do not decode as UTF-8
NON_UTF8 = b"\xff\xfe\x00bad\xff"


def _write_cfg(tmp_path, payload, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def _run_dir(out, lam=0.0):
    return out / "desk" / f"lambda_{lam:.6e}"


# ---------------------------------------------------------------------------
# train
# ---------------------------------------------------------------------------

def test_train_produces_artifacts_and_is_deterministic(tmp_path):
    cfg = _write_cfg(tmp_path, TINY_A)
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    assert cli.main(["train", cfg, "--out", str(out1)]) == 0
    assert cli.main(["train", cfg, "--out", str(out2)]) == 0
    d1, d2 = _run_dir(out1), _run_dir(out2)
    for name in ("meta.json", "constellation.csv", "checkpoint.bin", "plot.svg"):
        assert (d1 / name).exists()
    csv = (d1 / "constellation.csv").read_text()
    assert len(csv.strip().splitlines()) == 1 + TINY_A["M"]
    assert (d1 / "constellation.csv").read_bytes() == \
        (d2 / "constellation.csv").read_bytes()
    assert (d1 / "meta.json").read_bytes() == (d2 / "meta.json").read_bytes()


def test_train_missing_harvester_key_exit_2(tmp_path, capsys):
    broken = {k: v for k, v in TINY_A.items() if k != "harvester.alpha"}
    cfg = _write_cfg(tmp_path, broken)
    assert cli.main(["train", cfg, "--out", str(tmp_path / "o")]) == 2
    assert "harvester.alpha" in capsys.readouterr().err


def test_train_unreadable_config_exit_2(tmp_path):
    assert cli.main(["train", str(tmp_path / "nope.json")]) == 2


def test_sweep_non_utf8_config_exit_2(tmp_path, capsys):
    cfg = tmp_path / "bad.bin"
    cfg.write_bytes(NON_UTF8)
    assert cli.main(["sweep", str(cfg), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err.strip()
    assert err.startswith("config error:") and "bad.bin" in err and "\n" not in err


@pytest.mark.parametrize("ladder, field", [
    ({"lambda.start": 1e-5, "lambda.factor": 1.0000001, "lambda.max_points": 3},
     "lambda_factor"),
    ({"lambda.start": 5e-324, "lambda.factor": 1.4, "lambda.max_points": 3},
     "lambda_start"),
], ids=["factor-below-7-digits", "subnormal-start"])
def test_sweep_points_sharing_a_directory_exit_2(tmp_path, capsys, ladder, field):
    # each point's directory is lambda_<7 significant digits>: a ladder whose
    # rungs could share one name is outside TrainConfig's domain, for train too
    cfg = _write_cfg(tmp_path, dict(TINY_A, **ladder))
    out = tmp_path / "o"
    for command in ("sweep", "train"):
        assert cli.main([command, cfg, "--out", str(out)]) == 2, command
        err = capsys.readouterr().err.strip()
        assert err.startswith("config error:") and field in err and "\n" not in err
        assert not out.exists()


def _name_edge_starts():
    """The smallest normal float, and three floats from the lower edge of each
    7-digit name with mantissa 1.000000-1.000049 or 9.999950-9.999999 (the
    widest names and those across a decade), every tenth exponent and the top."""
    yield sys.float_info.min
    edges = [(99999995, -8)] + [(10 * n - 5, -7) for n in (*range(1000001, 1000050),
                                                           *range(9999950, 10000000))]
    for k in (*range(-307, 308, 10), 308):
        for digits, shift in edges:
            lam = float(f"{digits}e{k + shift}")
            for _ in range(3):
                if math.isfinite(lam):
                    yield lam
                lam = math.nextafter(lam, math.inf)


@pytest.mark.parametrize("factor, parts", [(1.000001, True), (1.0000009999, False)])
def test_smallest_lambda_factor_parts_neighbouring_point_directories(factor, parts):
    # TrainConfig's least factor keeps each rung's POINT_DIR its own, and a
    # factor just below it does not, so POINT_DIR's digits and that bound agree
    shared = 0
    for start in _name_edge_starts():
        ladder = SimpleNamespace(lambda_start=start, lambda_factor=factor,
                                 lambda_max_points=3)
        for lo, hi in itertools.pairwise(trainer.lambda_schedule(ladder)):
            shared += cli.POINT_DIR.format(lo) == cli.POINT_DIR.format(hi)
    assert (shared == 0) == parts, shared


@pytest.mark.parametrize("ladder", [{"lambda.factor": 1e300, "lambda.max_points": 4},
                                    {"lambda.start": 1e308, "lambda.max_points": 3}],
                         ids=["power-overflows", "product-is-inf"])
def test_sweep_overflowing_lambda_ladder_exit_2(tmp_path, capsys, ladder):
    # the ladder's top value must be a finite float, or no point trains
    cfg = _write_cfg(tmp_path, dict(TINY_A, **ladder))
    out = tmp_path / "o"
    assert cli.main(["sweep", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err.strip()
    assert err.startswith("config error:") and "lambda_factor" in err and "\n" not in err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["train", "CFG", "--paper-scale"], ["sweep", "CFG", "--paper-scale"],
    ["eval", "CKPT", "CFG", "--paper-scale"], ["plot", "CSV", "OUT", "--p-a", "0.001"],
    ["train", "CFG", "--seed", "1"], ["eval", "CKPT", "CFG", "--samples", "2000"],
    ["gradcheck", "--configs", "20"], ["gradcheck", "--seed", "0"],
], ids=["train", "sweep", "eval", "plot", "train-seed", "eval-samples",
        "gradcheck-configs", "gradcheck-seed"])
def test_removed_flags_exit_2(argv):
    # "profile": "paper" selects the paper scale; plot reads P_a off the CSV;
    # the config's seed is the only training seed, its eval_samples the only
    # eval sample count; gradcheck always checks its 20 configs from seed 0
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2


def test_train_too_few_eval_samples_exit_2(tmp_path, capsys):
    # rejected while the config is read, before any restart is trained
    cfg = _write_cfg(tmp_path, dict(TINY_A, eval_samples=500))
    assert cli.main(["train", cfg, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "eval_samples" in err and not (tmp_path / "o").exists()


@pytest.mark.parametrize("lam", ["-1", "-1e-9", "nan", "inf", "-inf"])
def test_train_bad_lambda_exit_2(tmp_path, capsys, lam):
    # rejected before any training and before the output dir exists
    cfg = _write_cfg(tmp_path, TINY_A)
    out = tmp_path / "o"
    assert cli.main(["train", cfg, f"--lambda={lam}", "--out", str(out)]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("config error:")
    assert "--lambda" in err[0] and not out.exists()


@pytest.mark.parametrize("key", ["p_a", "snr"])
@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_train_non_finite_config_value_exit_2(tmp_path, capsys, key, value):
    # Python's json reads the NaN and Infinity literals json.dumps writes
    cfg = _write_cfg(tmp_path, dict(TINY_A, **{key: value}))
    out = tmp_path / "o"
    assert cli.main(["train", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and key in err and "not finite" in err
    assert not out.exists()


def test_train_negative_config_seed_exit_2(tmp_path, capsys):
    cfg = _write_cfg(tmp_path, dict(TINY_A, seed=-1))
    out = tmp_path / "o"
    assert cli.main(["train", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err.strip()
    assert err.startswith("config error:") and "seed" in err and "\n" not in err
    assert not out.exists()


def test_out_dir_config_key_exit_2(tmp_path, capsys):
    # the output root is --out, else runs/: out_dir is an unknown key
    cfg = _write_cfg(tmp_path, dict(TINY_A, out_dir=str(tmp_path / "o")))
    for command in ("train", "sweep"):
        assert cli.main([command, cfg, "--out", str(tmp_path / "p")]) == 2
        err = capsys.readouterr().err.strip()
        assert err == "config error: unknown config key: out_dir"
    assert not (tmp_path / "o").exists() and not (tmp_path / "p").exists()


@pytest.mark.parametrize("command", ["train", "sweep"])
def test_networks_too_large_for_memory_exit_4(tmp_path, capsys, command):
    # M = 10**8 asks for about 284 PiB of parameters, more than any 64-bit
    # address space: the allocation fails before any memory is touched
    cfg = _write_cfg(tmp_path, dict(TINY_A, M=10 ** 8))
    assert cli.main([command, cfg, "--out", str(tmp_path / "o")]) == 4
    err = capsys.readouterr().err.strip()
    assert err.startswith("out of memory:") and "\n" not in err


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

def test_sweep_summary_and_rerun_identical(tmp_path):
    cfg = _write_cfg(tmp_path, TINY_A)
    out1, out2 = tmp_path / "s1", tmp_path / "s2"
    assert cli.main(["sweep", cfg, "--out", str(out1)]) == 0
    assert cli.main(["sweep", cfg, "--out", str(out2)]) == 0
    summary = out1 / "desk" / "summary.csv"
    lines = summary.read_text().strip().splitlines()
    assert lines[0] == "lambda,seed,final_cost,cross_entropy,ser,p_del,terminal"
    assert len(lines) == 1 + TINY_A["lambda.max_points"]
    assert summary.read_bytes() == (out2 / "desk" / "summary.csv").read_bytes()
    for lam in (0.0, 1e-4):
        assert (_run_dir(out1, lam) / "constellation.csv").read_bytes() == \
            (_run_dir(out2, lam) / "constellation.csv").read_bytes()


def test_sweep_names_stale_points_from_an_earlier_run(tmp_path, capsys):
    cfg = _write_cfg(tmp_path, TINY_A)
    out = tmp_path / "s"
    assert cli.main(["sweep", cfg, "--out", str(out)]) == 0
    first = capsys.readouterr()
    assert first.err == ""
    summary = out / "desk" / "summary.csv"
    before = summary.read_bytes()
    stale = out / "desk" / "lambda_9.000000e+09"
    stale.mkdir()
    assert cli.main(["sweep", cfg, "--out", str(out)]) == 0
    second = capsys.readouterr()
    assert second.out == first.out
    assert len(second.err.splitlines()) == 1
    assert "lambda_9.000000e+09" in second.err and "summary.csv" in second.err
    assert "lambda_0.000000e+00" not in second.err
    assert stale.is_dir() and summary.read_bytes() == before


def test_diverged_restarts_are_failed_and_sweep_exits_4(tmp_path, monkeypatch,
                                                         capsys):
    # a NaN decoder weight makes every logit non-finite on the first step
    init_params = trainer.init_params

    def nan_init(m, seed):
        params = init_params(m, seed)
        params.decoder[0][0, 0] = np.nan
        return params
    monkeypatch.setattr("swiptmod.trainer.init_params", nan_init)
    cfg = _write_cfg(tmp_path, TINY_A)
    train_cfg = config.train_config_from(config.resolve(TINY_A))
    assert trainer.train_run(train_cfg, 0.0, seed=1).failed
    assert cli.main(["sweep", cfg, "--out", str(tmp_path / "s")]) == 4
    assert "diverged" in capsys.readouterr().err


def test_nan_after_last_step_is_failed_and_sweep_exits_4(tmp_path, monkeypatch,
                                                         capsys):
    # one step per restart, whose Adam update leaves every parameter NaN: no
    # later step sees it, only the export and the evaluation do
    adam_step = trainer.adam_step

    def nan_step(param_vec, grad_vec, state):
        adam_step(param_vec, grad_vec, state)
        param_vec[:] = np.nan
    monkeypatch.setattr("swiptmod.trainer.adam_step", nan_step)
    one_step = dict(TINY_A, epochs=1, train_set_size=100)
    cfg = _write_cfg(tmp_path, one_step)
    train_cfg = config.train_config_from(config.resolve(one_step))
    assert trainer.train_run(train_cfg, 0.0, seed=1).failed
    assert cli.main(["sweep", cfg, "--out", str(tmp_path / "s")]) == 4
    assert "diverged" in capsys.readouterr().err


def test_overflow_in_a_step_fails_the_restart_and_sweep_exits_4(tmp_path, capsys):
    # at lambda 1.5e234 the power term's gradient overflows the Adam update:
    # the restart fails rather than finishing with frozen parameters
    cfg = _write_cfg(tmp_path, dict(TINY_A, M=3, **{"lambda.start": 1.5e234}))
    out = tmp_path / "s"
    assert cli.main(["sweep", cfg, "--out", str(out)]) == 4
    err = capsys.readouterr().err
    assert err.startswith("training failure:") and len(err.splitlines()) == 1
    rows = (out / "desk" / "summary.csv").read_text().splitlines()
    assert [row.split(",")[0] for row in rows[1:]] == ["0"]


@pytest.mark.parametrize("command", ["train", "sweep"])
def test_unwritable_out_exit_3_before_training(tmp_path, monkeypatch, capsys,
                                               command):
    def no_training(*args):
        raise AssertionError("trained before checking the output root")
    monkeypatch.setattr("swiptmod.cli.multi_restart", no_training)
    monkeypatch.setattr("swiptmod.trainer.train_run", no_training)
    cfg = _write_cfg(tmp_path, TINY_A)
    blocker = tmp_path / "file"
    blocker.write_text("")
    assert cli.main([command, cfg, "--out", str(blocker / "o")]) == 3
    out, err = capsys.readouterr()
    assert "lambda=" not in out
    assert err.startswith("i/o error:")


def test_sweep_failure_keeps_finished_points(tmp_path, monkeypatch, capsys):
    # the second lambda point fails: the first keeps its files and its row
    cfg = _write_cfg(tmp_path, TINY_A)
    full, out = tmp_path / "full", tmp_path / "s"
    assert cli.main(["sweep", cfg, "--out", str(full)]) == 0
    train_run = trainer.train_run

    def fail_second(cfg, lam, seed):   # its one restart diverges
        if lam == 1e-4:
            return trainer.RunRecord(lam=lam, seed=seed, failed=True)
        return train_run(cfg, lam, seed)
    monkeypatch.setattr("swiptmod.trainer.train_run", fail_second)
    capsys.readouterr()
    assert cli.main(["sweep", cfg, "--out", str(out)]) == 4
    assert capsys.readouterr().out.count("lambda=") == 1
    for name in ("meta.json", "constellation.csv", "checkpoint.bin", "plot.svg"):
        assert (_run_dir(out) / name).read_bytes() == \
            (_run_dir(full) / name).read_bytes()
    assert not _run_dir(out, 1e-4).exists()
    rows = (out / "desk" / "summary.csv").read_text().splitlines()
    assert len(rows) == 2
    assert rows == (full / "desk" / "summary.csv").read_text().splitlines()[:2]
    assert sorted(p.name for p in (out / "desk").iterdir()) == \
        [_run_dir(out).name, "summary.csv"]


def _log_uniform(rng, lo, hi):
    return float(10.0 ** rng.uniform(math.log10(lo), math.log10(hi)))


def _fuzz_config(rng):
    """A tiny sweep config with extreme but valid constants."""
    m = int(rng.integers(2, 5))
    train = int(rng.integers(1, 4)) * 10 * m
    cfg = {"M": m, "p_a": _log_uniform(rng, 1e-12, 1e6),
           "snr": _log_uniform(rng, 1e-6, 1e9), "epochs": int(rng.integers(1, 3)),
           "train_set_size": train, "minibatch_size": int(rng.integers(1, train + 1)),
           "restarts": int(rng.integers(1, 3)), "eval_samples": 1000,
           "lambda.start": _log_uniform(rng, 1e-300, 1e300),
           "lambda.factor": 1.0 + _log_uniform(rng, 1e-6, 1e12),
           "lambda.max_points": int(rng.integers(1, 4)),
           "seed": int(rng.integers(0, 2 ** 31))}
    if rng.random() < 0.5:
        cfg.update({"harvester.model": "A",
                    "harvester.alpha": _log_uniform(rng, 1e-12, 1e12),
                    "harvester.beta": _log_uniform(rng, 1e-12, 1e12) * (rng.random() < 0.8),
                    "harvester.gamma": rng.uniform(-1.0, 1.0) * _log_uniform(rng, 1e-12, 1e6)})
    else:
        cfg.update({"harvester.model": "B", "harvester.ls": _log_uniform(rng, 1e-9, 1e9),
                    "harvester.a": _log_uniform(rng, 1e-6, 1e12),
                    "harvester.b": _log_uniform(rng, 1e-12, 1e3)})
    return cfg


def test_sweep_fuzz_ends_in_a_documented_exit(tmp_path, capsys):
    # a seeded loop of tiny sweeps: each exits 0, 2, 3 or 4, raises nothing,
    # warns nothing and lists only finite values in summary.csv
    rng = np.random.default_rng(0)
    codes = set()
    for case in range(120):
        cfg = _fuzz_config(rng)
        path = _write_cfg(tmp_path, cfg, f"cfg{case}.json")
        out = tmp_path / f"s{case}"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                code = cli.main(["sweep", path, "--out", str(out)])
            except Exception as exc:
                raise AssertionError(f"case {case} raised: {cfg}") from exc
        capsys.readouterr()
        assert code in (0, 2, 3, 4), (case, cfg)
        assert not caught, (case, cfg, [str(w.message) for w in caught])
        summary = out / "desk" / "summary.csv"
        if summary.exists():
            for row in summary.read_text().splitlines()[1:]:
                assert all(math.isfinite(float(v)) for v in row.split(",")), (case, row)
        codes.add(code)
    assert {0, 4} <= codes   # the loop reaches both trained and failed sweeps


def _documented_exit(argv, case, capsys) -> int:
    """cli.main(argv)'s exit code, which must be 0, 2, 3 or 4, reached with
    no exception and no warning."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            code = cli.main(argv)
        except Exception as exc:
            raise AssertionError(f"case {case} raised: {argv}") from exc
    capsys.readouterr()
    assert code in (0, 2, 3, 4), (case, argv)
    assert not caught, (case, argv, [str(w.message) for w in caught])
    return code


def _fuzz_csv(rng, path):
    """A constellation CSV of 1-6 rows with extreme but finite values."""
    rows = [CSV_HEADER]
    for i in range(int(rng.integers(1, 7))):
        re, im = (float(rng.choice([-1.0, 1.0])) * _log_uniform(rng, 1e-300, 1e300)
                  * (rng.random() < 0.9) for _ in range(2))
        rows.append(f"{i},{_log_uniform(rng, 1e-300, 1e300):.17g},{re:.17g},{im:.17g}")
    path.write_text("\n".join(rows) + "\n")


def test_train_eval_plot_fuzz_end_in_a_documented_exit(tmp_path, capsys):
    # the sweep fuzz's configs through train at one lambda; eval of its
    # checkpoint and of a freshly initialized one with scaled weights; plot
    # of its CSV and of a CSV with extreme values
    rng = np.random.default_rng(1)
    codes = {"train": set(), "eval": set(), "plot": set()}
    for case in range(120):
        cfg = _fuzz_config(rng)
        path = _write_cfg(tmp_path, cfg, f"cfg{case}.json")
        out = tmp_path / f"t{case}"
        lam = 0.0 if rng.random() < 0.3 else _log_uniform(rng, 1e-300, 1e300)
        code = _documented_exit(["train", path, "--lambda", repr(lam), "--out", str(out)],
                                case, capsys)
        codes["train"].add(code)
        point = _run_dir(out, lam)
        ckpts = [point / "checkpoint.bin"] if code == 0 else []
        if code != 2:   # a config the CLI accepts
            m = cfg["M"]
            params = init_params(m, case)
            params.flat *= _log_uniform(rng, 1e-300, 1e300)
            ckpts.append(tmp_path / f"init{case}.bin")
            save_checkpoint(ckpts[-1], params)
        for ckpt in ckpts:
            argv = ["eval", str(ckpt), path, "--seed", str(int(rng.integers(0, 2 ** 31)))]
            codes["eval"].add(_documented_exit(argv, case, capsys))
        csvs = [point / "constellation.csv"] if code == 0 else []
        csvs.append(tmp_path / f"fuzz{case}.csv")
        _fuzz_csv(rng, csvs[-1])
        for csv in csvs:
            argv = ["plot", str(csv), str(tmp_path / f"plot{case}.svg")]
            codes["plot"].add(_documented_exit(argv, case, capsys))
    # the loop reaches both trained and failed runs, and plots both kinds of CSV
    assert {0, 4} <= codes["train"] and {0, 4} <= codes["eval"] and 0 in codes["plot"]


# ---------------------------------------------------------------------------
# eval
# ---------------------------------------------------------------------------

@pytest.fixture
def trained(tmp_path):
    cfg = _write_cfg(tmp_path, TINY_A)
    out = tmp_path / "o"
    assert cli.main(["train", cfg, "--out", str(out)]) == 0
    return cfg, _run_dir(out) / "checkpoint.bin"


def test_eval_reports_and_is_deterministic(trained, capsys):
    cfg, ckpt = trained
    assert cli.main(["eval", str(ckpt), cfg, "--seed", "5"]) == 0
    first = capsys.readouterr().out
    payload = json.loads(first)
    assert set(payload) >= {"ser", "ser_stderr", "p_del", "rate_bits",
                            "num_samples", "cross_entropy"}
    assert 0.0 <= payload["ser"] <= 1.0
    assert cli.main(["eval", str(ckpt), cfg, "--seed", "5"]) == 0
    assert capsys.readouterr().out == first


def test_eval_reproduces_the_trained_point(trained, capsys):
    # eval runs train_run's evaluation: the point's seed gives its meta.json
    # figures exactly
    cfg, ckpt = trained
    meta = json.loads((ckpt.parent / "meta.json").read_text())
    capsys.readouterr()
    assert cli.main(["eval", str(ckpt), cfg, "--seed", str(meta["seed"])]) == 0
    report = json.loads(capsys.readouterr().out)
    keys = ("ser", "p_del", "cross_entropy")
    assert [report[k] for k in keys] == [meta[k] for k in keys]


def test_eval_corrupted_checkpoint_exit_3(trained):
    cfg, ckpt = trained
    blob = bytearray(ckpt.read_bytes())
    blob[:4] = b"XXXX"
    bad = ckpt.parent / "bad.bin"
    bad.write_bytes(bytes(blob))
    assert cli.main(["eval", str(bad), cfg]) == 3


def test_eval_dim_mismatch_exit_3(trained, tmp_path, capsys):
    cfg, ckpt = trained
    bigger = _write_cfg(tmp_path, dict(TINY_A, M=8, minibatch_size=100),
                        name="cfg8.json")
    assert cli.main(["eval", str(ckpt), bigger]) == 3
    assert "do not match" in capsys.readouterr().err


def test_eval_wrong_shape_checkpoint_exit_3(tmp_path, capsys):
    # an M=4 checkpoint with a 3-layer encoder, its payload sized to its header
    ckpt = tmp_path / "deep.bin"
    write_raw_checkpoint(ckpt, WRONG_SHAPES["3-layer-encoder"][0], M4_DECODER)
    assert cli.main(["eval", str(ckpt), _write_cfg(tmp_path, TINY_A)]) == 3
    err = capsys.readouterr().err.strip()
    assert err.startswith("format error:") and "\n" not in err


@pytest.mark.parametrize("samples", ["999", "0"])
def test_eval_too_few_samples_exit_2(trained, tmp_path, capsys, samples):
    # the sample count is the config's eval_samples, floored at 1000
    _, ckpt = trained
    cfg = _write_cfg(tmp_path, dict(TINY_A, eval_samples=int(samples)), "few.json")
    assert cli.main(["eval", str(ckpt), cfg]) == 2
    err = capsys.readouterr().err.strip()
    assert err.startswith("config error") and "1000" in err and "\n" not in err


def test_eval_negative_seed_exit_2(trained, capsys):
    cfg, ckpt = trained
    assert cli.main(["eval", str(ckpt), cfg, "--seed", "-3"]) == 2
    err = capsys.readouterr().err.strip()
    assert err.startswith("config error:") and "--seed" in err and "\n" not in err


@pytest.mark.parametrize("layer, value, raised", [
    ("encoder", 0.0, "degenerate encoder"),      # every message at the origin
    ("decoder", np.nan, "non-finite logits"),
    ("encoder", np.nan, "non-finite"),           # NaN points reach estimate_ser
])
def test_eval_unusable_checkpoint_exit_4(tmp_path, capsys, layer, value, raised):
    params = init_params(4, seed=0)
    for out_layer in getattr(params, layer)[2:]:   # W2 and b2
        out_layer[:] = value
    ckpt = tmp_path / "broken.bin"
    save_checkpoint(ckpt, params)
    cfg = _write_cfg(tmp_path, TINY_A)
    assert cli.main(["eval", str(ckpt), cfg]) == 4
    err = capsys.readouterr().err.strip()
    assert err.startswith("unusable checkpoint") and raised in err
    assert "\n" not in err


# ---------------------------------------------------------------------------
# plot
# ---------------------------------------------------------------------------

def test_plot_from_csv(tmp_path):
    pts = 0.03 * np.exp(2j * np.pi * np.arange(32) / 32)
    const = Constellation(points=pts, probabilities=np.full(32, 1 / 32))
    csv = tmp_path / "c.csv"
    write_constellation_csv(const, csv)
    svg = tmp_path / "c.svg"
    assert cli.main(["plot", str(csv), str(svg)]) == 0
    assert svg.read_text().count('class="symbol"') == 32


def test_plot_circle_is_the_csv_mean_power(tmp_path):
    # a P_a = 0.002 constellation: the circle is sqrt(0.002), not sqrt(0.001)
    pts = np.sqrt(0.002) * np.exp(2j * np.pi * np.arange(8) / 8)
    const = Constellation(points=pts, probabilities=np.full(8, 1 / 8))
    csv, svg = tmp_path / "c.csv", tmp_path / "c.svg"
    write_constellation_csv(const, csv)
    assert cli.main(["plot", str(csv), str(svg)]) == 0
    ring = re.compile(r'r="[0-9.]+" fill="none"')
    drawn = ring.findall(svg.read_text())
    assert drawn == ring.findall(render_constellation_svg(const, 0.002))
    assert drawn != ring.findall(render_constellation_svg(const, 0.001))


def test_plot_malformed_csv_exit_3(tmp_path, capsys):
    csv = tmp_path / "bad.csv"
    csv.write_text("index,probability,real,imag\n0,0.5,oops,2\n")
    svg = tmp_path / "bad.svg"
    assert cli.main(["plot", str(csv), str(svg)]) == 3
    assert ":2" in capsys.readouterr().err
    assert not svg.exists()


def test_plot_non_finite_csv_exit_3(tmp_path, capsys):
    csv = tmp_path / "bad.csv"
    csv.write_text("index,probability,real,imag\n0,0.5,1,2\n1,0.5,nan,inf\n")
    svg = tmp_path / "bad.svg"
    assert cli.main(["plot", str(csv), str(svg)]) == 3
    assert ":3" in capsys.readouterr().err
    assert not svg.exists()


def test_plot_non_utf8_csv_exit_3(tmp_path, capsys):
    csv = tmp_path / "bad.bin"
    csv.write_bytes(NON_UTF8)
    svg = tmp_path / "bad.svg"
    assert cli.main(["plot", str(csv), str(svg)]) == 3
    err = capsys.readouterr().err.strip()
    assert err.startswith("format error:") and "bad.bin" in err and "\n" not in err
    assert not svg.exists()


def test_plot_empty_csv_exit_3(tmp_path):
    csv = tmp_path / "empty.csv"
    csv.write_text("")
    svg = tmp_path / "empty.svg"
    assert cli.main(["plot", str(csv), str(svg)]) == 3
    assert not svg.exists()


# ---------------------------------------------------------------------------
# gradcheck
# ---------------------------------------------------------------------------

def test_gradcheck_command_passes(capsys):
    assert cli.main(["gradcheck"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out


def test_gradcheck_corrupt_hook_fails(capsys, corrupt_gradients):
    assert cli.main(["gradcheck"]) == 1
    assert "FAIL" in capsys.readouterr().out
