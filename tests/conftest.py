"""Fixtures shared by the test modules."""

from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

import mialab.training as training
from mialab.training import ModelRecord


@pytest.fixture
def clip_checks(monkeypatch):
    """Counts the model-steps whose post-clip norm bound training.dp_step
    checked: len(grad) for every call that returned, through a wrapper
    installed on training.dp_step for the test's duration."""
    counter = SimpleNamespace(count=0)
    real = training.dp_step

    def counted(arch, params, ws, dp, rngs, grad):
        real(arch, params, ws, dp, rngs, grad)
        counter.count += len(grad)

    monkeypatch.setattr(training, "dp_step", counted)
    return counter


@pytest.fixture(params=["twice_the_points", "wider_input", "fewer_classes"])
def forge(request):
    """A function that copies a farm with its fingerprint kept and one thing
    changed: twice the points, one more input feature or one class fewer
    (with zero parameters of the changed architecture)."""
    def forged(farm):
        if request.param == "twice_the_points":
            return replace(farm, splits=np.concatenate([farm.splits, farm.splits], axis=1))
        if request.param == "wider_input":
            arch = replace(farm.arch, input_dim=farm.arch.input_dim + 1)
        else:
            arch = replace(farm.arch, num_classes=farm.arch.num_classes - 1)
        records = [ModelRecord(arch, r.seed, np.zeros(arch.param_count())) for r in farm.records]
        return replace(farm, arch=arch, records=records)
    return forged
