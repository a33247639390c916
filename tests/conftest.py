"""Shared fixtures: toy config and data, a toy-trained model, one-batch steps,
and the acceptance summary."""

from __future__ import annotations

import numpy as np
import pytest

from clare.config import ExperimentConfig
from clare.dataio import make_toy_dataset
from clare.model import ClareModel, StepWorkspace, forward_backward
from clare.protocol import IncrementState, _phase_seed, run_increment


TOY_CLASSES = 3
TOY_DIM = 16


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
    ws = StepWorkspace(model, len(labels))
    ws.x[...] = x
    ws.labels[...] = labels
    ws.noise[...] = noise
    return ws


def step_on(
    model: ClareModel, x: np.ndarray, labels: np.ndarray, noise: np.ndarray, beta: float = 1.0
) -> dict[str, float]:
    """``forward_backward`` on one given batch, in a fresh workspace."""
    return forward_backward(model, filled_workspace(model, x, labels, noise), beta)


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
