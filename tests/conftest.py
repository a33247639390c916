"""Shared fixtures: toy config and data, a toy-trained model, one-batch steps,
a failing file, and the acceptance summary."""

from __future__ import annotations

import builtins
import os

import numpy as np
import pytest
from hypothesis import settings

from clare.config import ExperimentConfig
from clare.dataio import make_toy_dataset
from clare.model import ClareModel, StepWorkspace, forward_backward
from clare.protocol import IncrementState, _phase_seed, run_increment


TOY_CLASSES = 3
TOY_DIM = 16

# Example counts for property tests that leave them to the profile: a few
# by default, so the suite stays quick, and more under
# ``HYPOTHESIS_PROFILE=ci``.
settings.register_profile("dev", max_examples=20)
settings.register_profile("ci", max_examples=300)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "dev"))


@pytest.fixture(scope="session")
def toy_config() -> ExperimentConfig:
    return ExperimentConfig(
        dataset="toy",
        toy_classes=TOY_CLASSES,
        toy_per_class=200,
        toy_dim=TOY_DIM,
        toy_spread=0.05,
        d_z=4,
        batch_size=32,
        lr=2e-3,
        g=1,
    ).resolved()


@pytest.fixture(scope="session")
def toy_data(toy_config):
    train = make_toy_dataset(TOY_CLASSES, 200, dim=TOY_DIM, spread=0.05, seed=101)
    test = make_toy_dataset(TOY_CLASSES, 100, dim=TOY_DIM, spread=0.05, seed=102)
    return train, test


@pytest.fixture(scope="session")
def toy_trained(toy_config, toy_data):
    """A model jointly trained on all toy classes, with its data and state."""
    train, test = toy_data
    state = run_increment(
        IncrementState(), train, test, toy_config, _phase_seed(5, 0)
    )
    return state


def filled_workspace(
    model: ClareModel, x: np.ndarray, labels: np.ndarray, noise: np.ndarray
) -> StepWorkspace:
    """A fresh ``StepWorkspace`` holding one given batch."""
    ws = StepWorkspace(model.dims, len(labels))
    ws.x[...] = x
    ws.labels[...] = labels
    ws.noise[...] = noise
    return ws


def step_on(
    model: ClareModel, x: np.ndarray, labels: np.ndarray, noise: np.ndarray, beta: float = 1.0
) -> dict[str, float]:
    """``forward_backward`` on one given batch, in a fresh workspace."""
    return forward_backward(model, filled_workspace(model, x, labels, noise), beta)


class FullDisk:
    """A file whose ``fail_at``-th write raises ``OSError(28)``."""

    def __init__(self, fh, fail_at: int):
        self.fh, self.writes, self.fail_at = fh, 0, fail_at

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()

    def write(self, data):
        self.writes += 1
        if self.writes == self.fail_at:
            raise OSError(28, "No space left on device")
        return self.fh.write(data)


def fill_disk(monkeypatch, directory, fail_at: int) -> None:
    """Make each file then opened for writing in ``directory`` a ``FullDisk``.

    Every other ``open`` is left alone; ``monkeypatch.undo()`` ends it.
    """
    directory = os.path.abspath(directory)
    real_open = builtins.open

    def opener(file, mode="r", *args, **kwargs):
        fh = real_open(file, mode, *args, **kwargs)
        if (
            isinstance(file, (str, os.PathLike))
            and any(flag in mode for flag in "wax")
            and os.path.dirname(os.path.abspath(file)) == directory
        ):
            return FullDisk(fh, fail_at)
        return fh

    monkeypatch.setattr(builtins, "open", opener)


# -- acceptance summary -------------------------------------------------------

_ACCEPTANCE_RESULTS: list[tuple[str, str, str]] = []


def record_acceptance(label: str, outcome: str, detail: str = "") -> None:
    _ACCEPTANCE_RESULTS.append((label, outcome, detail))


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _ACCEPTANCE_RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for label, outcome, detail in _ACCEPTANCE_RESULTS:
        suffix = f"  ({detail})" if detail else ""
        terminalreporter.write_line(f"{label}: {outcome}{suffix}")
