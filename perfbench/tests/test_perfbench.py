"""Tests of the benchmark itself: python3 -m pytest perfbench/tests"""

import json
import shutil
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
REPO = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(REPO / "src"))

import run  # noqa: E402
import spans  # noqa: E402
from spans import Span, Tracer, self_times, summarize  # noqa: E402

SPEC = json.loads((REPO / "BENCHMARK.json").read_text())
E2E = {m["name"] for m in SPEC["end_to_end"]}
LAYERS = {m["name"] for m in SPEC["per_layer"]}

TINY = {
    "sweep-a-m8": {"epochs": 1, "eval_samples": 1000, "lambda.max_points": 2,
                   "restarts": 2, "minibatch_size": 40, "train_set_size": 80},
    "train-b-m16": {"epochs": 1, "minibatch_size": 160, "train_set_size": 320,
                    "eval_samples": 1000},
    "eval-m16": {"epochs": 1, "minibatch_size": 160, "train_set_size": 320,
                 "eval_samples": 1000, "samples": 4096},
}


# ---------------------------------------------------------------------------
# self time
# ---------------------------------------------------------------------------

def test_self_time_subtracts_children_once():
    spans_ = [Span("a", "m", 0.0, 10.0),
              Span("b", "m", 1.0, 3.0, parent=0),
              Span("c", "m", 2.5, 4.0, parent=0),    # overlaps b: union is 1..4
              Span("d", "m", 1.5, 2.0, parent=1),    # grandchild: only b loses it
              Span("e", "m", 9.0, 12.0, parent=0)]   # clipped to a's end
    assert self_times(spans_) == pytest.approx([10.0 - 3.0 - 1.0, 1.5, 1.5, 0.5, 3.0])


def test_summarize_groups_by_name_and_site():
    spans_ = [Span("x", "trainer", 0.0, 2.0, note=True),
              Span("x", "trainer", 2.0, 5.0, note=False),
              Span("x", "evaluator", 5.0, 6.0),
              Span("y", "trainer", 0.5, 1.0, parent=0)]
    table = summarize(spans_)
    assert table["x@trainer"] == pytest.approx([2, 5.0, 4.5, 1])
    assert table["x@evaluator"] == pytest.approx([1, 1.0, 1.0, 0])
    assert table["y@trainer"] == pytest.approx([1, 0.5, 0.5, 0])


# ---------------------------------------------------------------------------
# wrappers
# ---------------------------------------------------------------------------

def _current(targets):
    import importlib
    return [getattr(importlib.import_module(mod), attr) for mod, attr, _, _ in targets]


def test_wrappers_restored_after_a_traced_run():
    from swiptmod import config, trainer
    originals = _current(spans.LAYER_TARGETS)
    cfg = config.train_config_from(config.resolve(
        {**run.MODEL_A, "M": 4, "epochs": 1, "minibatch_size": 40,
         "train_set_size": 80, "restarts": 1, "eval_samples": 1000}))
    with Tracer(spans.LAYER_TARGETS) as tracer:
        assert all(hasattr(f, "__wrapped__") for f in _current(spans.LAYER_TARGETS))
        trainer.train_run(cfg, 0.0, seed=3)
    assert all(a is b for a, b in zip(_current(spans.LAYER_TARGETS), originals))
    table = summarize(tracer.spans)
    # calls made inside the package are seen at the importer's name
    assert table["trainer.network_cost@trainer"][0] == 2
    assert table["harvester.pdel_with_grads@trainer"][0] == 2
    assert table["transceiver.decode@evaluator"][0] == 1
    costs = [s for s in tracer.spans if s.name == "trainer.network_cost"]
    assert all(tracer.spans[s.parent].name == "trainer.train_run" for s in costs)


def test_wrappers_restored_after_an_exception():
    originals = _current(spans.LAYER_TARGETS)
    with pytest.raises(RuntimeError):
        with Tracer(spans.LAYER_TARGETS):
            raise RuntimeError("boom")
    assert all(a is b for a, b in zip(_current(spans.LAYER_TARGETS), originals))


# ---------------------------------------------------------------------------
# output checks
# ---------------------------------------------------------------------------

def _task(hashes, **kw):
    return {"ok": True, "traced": False, "attempted": 3, "failed": 0, "checks": [],
            "hashes": hashes, **kw}


def test_verdict_flags_outputs_that_differ_between_repetitions():
    same = {"prep": None, "tasks": [_task({"a": "1"}), _task({"a": "1"})]}
    assert run.verdict(same) == (6, 0, [])
    differ = {"prep": None, "tasks": [_task({"a": "1"}), _task({"a": "2"})]}
    assert run.verdict(differ)[2] == ["same-seed tasks wrote different outputs"]


def test_end_to_end_scales_times_by_the_reference_and_skips_traced_tasks():
    nominal = run.NOMINAL_REFERENCE_S
    tasks = [_task({}, setup_s=0.2, task_s=4.0, reference_s=2 * nominal, peak_rss_mb=70.0),
             _task({}, setup_s=0.3, task_s=3.0, reference_s=nominal, peak_rss_mb=80.0),
             _task({}, setup_s=0.1, task_s=1.0, reference_s=nominal, peak_rss_mb=60.0),
             _task({}, setup_s=9.0, task_s=9.0, reference_s=nominal, peak_rss_mb=99.0,
                   traced=True)]
    metrics = run.end_to_end({"tasks": tasks})
    assert metrics["setup_s"] == (pytest.approx(0.1), "s")
    assert metrics["task_s"] == (pytest.approx(2.0), "s")
    assert metrics["peak_rss_mb"] == (80.0, "MB")


def test_matmul_flops_counts_every_layer_but_the_gather():
    # M=8, batch 400: layers 16x2, 2x16, 16x8 -> 192 multiply-adds per row
    assert run.matmul_flops_per_step({"M": 8, "minibatch_size": 400}) == 3 * 2 * 400 * 192


# ---------------------------------------------------------------------------
# smoke runs through the command line entry point
# ---------------------------------------------------------------------------

def _main(monkeypatch, capsys, root, workload, trace, seed=1):
    monkeypatch.setattr(run, "SIZES", TINY)
    monkeypatch.setattr(run, "ROOT", root)
    code = run.main(["--workload", workload, "--seed", str(seed),
                     "--seconds", "0", "--trace", str(trace)])
    return code, capsys.readouterr().out.splitlines()


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(TINY))
def test_smoke_run_prints_exactly_the_declared_metrics(monkeypatch, capsys,
                                                       workload, trace):
    code, lines = _main(monkeypatch, capsys, REPO, workload, trace)
    result = json.loads(lines[-1])
    assert code == 0 and result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    declared = LAYERS if trace else E2E
    assert set(result["metrics"]) == declared
    table = lines[lines.index("metrics:") + 1:-1]
    assert {line.split()[0] for line in table} == declared
    for name, metric in result["metrics"].items():
        assert metric["value"] == metric["value"], name     # not NaN
    assert not (REPO / ".perfbench-work").exists()


def test_held_out_seed_runs_and_differs(monkeypatch, capsys):
    _, lines = _main(monkeypatch, capsys, REPO, "train-b-m16", 0, seed=1)
    _, held_out = _main(monkeypatch, capsys, REPO, "train-b-m16", 0, seed=100_003)
    assert json.loads(held_out[-1])["correct"]
    derived = lambda ls: [l for l in ls if l.strip().startswith("train_final_cost")]  # noqa: E731
    assert derived(lines) != derived(held_out)


def test_broken_program_fails_the_output_check(monkeypatch, capsys, tmp_path):
    shutil.copytree(REPO / "src" / "swiptmod", tmp_path / "src" / "swiptmod")
    path = tmp_path / "src" / "swiptmod" / "transceiver.py"
    text = path.read_text()
    broken = text.replace("p_a * x.size / max", "1.01 * p_a * x.size / max")
    assert broken != text
    path.write_text(broken)
    code, lines = _main(monkeypatch, capsys, tmp_path, "train-b-m16", 0)
    result = json.loads(lines[-1])
    assert code == 1 and result["correct"] is False
    assert any("mean power" in line for line in lines)


def test_no_program_exits_nonzero_without_a_result(monkeypatch, capsys, tmp_path):
    code, lines = _main(monkeypatch, capsys, tmp_path, "eval-m16", 0)
    assert code == 2 and lines == []
