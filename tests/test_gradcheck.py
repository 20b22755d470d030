"""Tests for the finite-difference verification harness itself."""

from swiptmod.gradcheck import run_gradcheck


def test_gradcheck_small_sample_passes():
    report = run_gradcheck(num_configs=6, seed=0)
    assert report.passed
    assert report.max_rel_err < report.tol
    assert len(report.configs) == 6
    models = {c.model for c in report.configs}
    lams = {c.lam for c in report.configs}
    assert models == {"ModelA", "ModelB"}
    assert lams == {0.0, 1e-4, 1e-2}


def test_gradcheck_detects_corrupted_gradient(corrupt_gradients):
    report = run_gradcheck(num_configs=2, seed=0)
    assert not report.passed


def test_gradcheck_worst_blocks_structure():
    report = run_gradcheck(num_configs=3, seed=1)
    worst = report.worst_blocks()
    assert set(worst) == {"enc0.W", "enc0.b", "enc1.W", "enc1.b",
                          "dec0.W", "dec0.b", "dec1.W", "dec1.b"}
    assert all(v >= 0.0 for v in worst.values())
