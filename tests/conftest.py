"""Fixtures shared by the test modules."""

from types import SimpleNamespace

import pytest

import mialab.training as training


@pytest.fixture
def clip_checks(monkeypatch):
    """Counts the model-steps whose post-clip norm bound training.dp_step
    checked: len(grad) for every call that returned, through a wrapper
    installed on training.dp_step for the test's duration."""
    counter = SimpleNamespace(count=0)
    real = training.dp_step

    def counted(arch, params, X, y, dp, rngs, grad):
        real(arch, params, X, y, dp, rngs, grad)
        counter.count += len(grad)

    monkeypatch.setattr(training, "dp_step", counted)
    return counter
