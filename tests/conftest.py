"""Shared fixtures."""

import pytest

from swiptmod import gradcheck


@pytest.fixture
def corrupt_gradients(monkeypatch):
    """Make gradcheck's analytic gradient wrong in its first component, so a
    working finite-difference comparison must fail."""
    network_cost = gradcheck.network_cost

    def corrupted(*args, **kwargs):
        cost, info, grads = network_cost(*args, **kwargs)
        if grads is not None:
            grads = grads.copy()
            grads[0] *= 1.001
            grads[0] += 1e-4
        return cost, info, grads
    monkeypatch.setattr(gradcheck, "network_cost", corrupted)
