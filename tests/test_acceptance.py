"""The shipping gate: one test per promised behavior, one verdict line each.

Every test here states a user-visible guarantee. The desk-scale runs over
the full digit corpus only execute when the four IDX files are on disk
(``CLARE_DATA_DIR``); everything else runs everywhere, every time.
"""

from __future__ import annotations

import math
import os
import time

import numpy as np
import pytest
from conftest import record_acceptance, step_on

import clare.numkit as nk
from clare import kernels
from clare.config import ExperimentConfig
from clare.dataio import MNIST_FILES, load_mnist, parse_idx, subset_by_classes
from clare.harness import run_cli
from clare.metrics import average_over_tasks
from clare.model import ClareModel, expand_classes
from clare.protocol import build_schedule, run_experiment, run_finetune_baseline, run_joint_baseline
from oracles import finite_difference, kl_monte_carlo

MINI = dict(class_no=2, d_z=2, input_dim=6, enc_hidden=(8, 7), dec_hidden=(7, 8))


def _verdict(label: str, ok: bool, detail: str = "") -> None:
    record_acceptance(label, "PASS" if ok else "FAIL", detail)
    assert ok, f"{label}: {detail}"


def _skip(label: str, reason: str) -> None:
    record_acceptance(label, "SKIP", reason)
    pytest.skip(reason)


def _image_dir() -> str | None:
    directory = os.environ.get("CLARE_DATA_DIR", "")
    if not directory:
        return None
    for name in MNIST_FILES.values():
        path = os.path.join(directory, name)
        if not (os.path.exists(path) or os.path.exists(path + ".gz")):
            return None
    return directory


_CORPUS: dict[str, tuple] = {}


def _corpus(directory: str):
    if "pair" not in _CORPUS:
        _CORPUS["pair"] = load_mnist(directory)
    return _CORPUS["pair"]


def test_a01_every_gradient_matches_finite_differences():
    label = "A01 gradients vs finite differences"
    started = time.perf_counter()
    model = ClareModel(rng=np.random.default_rng(11), **MINI)
    rng = np.random.default_rng(12)
    x = rng.uniform(size=(4, 6))
    labels = rng.integers(0, 2, size=4)
    noise = rng.standard_normal((4, 2))

    def loss() -> float:
        return step_on(model, x, labels, noise)["total"]

    loss()
    analytic = {n: model.tape.grad(n).copy() for n in model.tape.names()}
    numeric = finite_difference(loss, model.tape)

    worst = 0.0
    for name in model.tape.names():
        want = numeric[name]
        denom = max(float(np.max(np.abs(want))), 1.0)
        worst = max(worst, float(np.max(np.abs(analytic[name] - want))) / denom)

    # Training never runs the output sigmoid's backward (the decoder's logits
    # go straight into the loss), so check that kernel on its own:
    # d/dw sum(sigmoid(x @ w.T)) = sigmoid_bwd(1, y).T @ x.
    tape = nk.ParamTape([("w", (3, 2))])
    tape.param("w")[...] = rng.standard_normal((3, 2))
    aux_x = rng.standard_normal((5, 2))
    y = kernels.sigmoid_fwd(aux_x @ tape.param("w").T)
    aux_analytic = kernels.sigmoid_bwd(np.ones_like(y), y).T @ aux_x
    aux_numeric = finite_difference(
        lambda: float(np.sum(kernels.sigmoid_fwd(aux_x @ tape.param("w").T))), tape
    )["w"]
    denom = max(float(np.max(np.abs(aux_numeric))), 1.0)
    worst = max(worst, float(np.max(np.abs(aux_analytic - aux_numeric))) / denom)

    elapsed = time.perf_counter() - started
    n_params = sum(model.tape.param(n).size for n in model.tape.names())
    _verdict(
        label,
        worst <= 1e-5 and elapsed < 5.0,
        f"worst rel err {worst:.2e} over {n_params} params in {elapsed:.2f}s",
    )


def test_a02_kl_agrees_with_monte_carlo():
    label = "A02 closed-form KL vs Monte Carlo"
    started = time.perf_counter()
    exact_zero = kernels.kl_terms(np.zeros((3, 4)), np.zeros((3, 4)))[0]
    rng = np.random.default_rng(13)
    worst = 0.0
    for _ in range(20):
        mu = rng.uniform(0.5, 2.0, size=4) * rng.choice([-1.0, 1.0], size=4)
        lv = rng.uniform(-1.5, 1.5, size=4)
        closed = kernels.kl_terms(mu[None, :], lv[None, :])[0]
        mc = kl_monte_carlo(mu, lv, 1_000_000, rng)
        worst = max(worst, abs(mc - closed) / closed)
    elapsed = time.perf_counter() - started
    _verdict(
        label,
        exact_zero == 0.0 and worst <= 0.02 and elapsed < 30.0,
        f"standard normal gives {exact_zero}, worst MC deviation "
        f"{100 * worst:.2f}% in {elapsed:.1f}s",
    )


def test_a03_expansion_preserves_old_class_outputs():
    label = "A03 class expansion invariance"
    started = time.perf_counter()
    model = ClareModel(rng=np.random.default_rng(14), **MINI)
    x = np.random.default_rng(15).uniform(size=(32, 6))
    before = model.class_logits(x)
    grown = expand_classes(model, 3, np.random.default_rng(16))
    after = grown.class_logits(x)
    elapsed = time.perf_counter() - started
    _verdict(
        label,
        bool(np.array_equal(after[:, :2], before)) and elapsed < 1.0,
        f"old logits bit-identical across 2->3 growth in {elapsed:.3f}s",
    )


def test_a04_replay_prevents_forgetting_on_separable_blobs(toy_config, toy_data):
    label = "A04 replay vs forgetting"
    started = time.perf_counter()
    train, test = toy_data
    schedule = build_schedule(train.classes(), g=1)

    with_replay = run_experiment(train, test, schedule, toy_config, seed=5)
    first_class_final = with_replay[-1].per_class[0]

    without = run_finetune_baseline(train, test, schedule, toy_config, seed=5)
    first_class_forgotten = without[-1].per_class[0]

    elapsed = time.perf_counter() - started
    _verdict(
        label,
        first_class_final >= 90.0 and first_class_forgotten < 20.0 and elapsed < 60.0,
        f"first class holds {first_class_final:.1f}% with replay, "
        f"{first_class_forgotten:.1f}% without, in {elapsed:.1f}s",
    )


def test_a05_identical_settings_reproduce_the_report(tmp_path):
    label = "A05 run-to-run determinism"
    out = tmp_path / "report.txt"
    args = [
        "--dataset", "toy", "--toy-classes", "3", "--toy-dim", "4",
        "--toy-per-class", "60", "--epochs", "4", "--batch", "16",
        "--latent-dim", "2", "--seed", "7", "--out", str(out),
    ]

    def stripped() -> str:
        lines = out.read_text().splitlines()
        return "\n".join(
            l for l in lines
            if ".seconds = " not in l and not l.startswith("total_seconds")
        )

    assert run_cli(args) == 0
    first = stripped()
    assert run_cli(args) == 0
    second = stripped()
    _verdict(
        label,
        first == second,
        "report text identical apart from wall-clock lines",
    )


def test_a06_idx_decoding_matches_the_format_definition():
    label = "A06 IDX hand-encoded fixture"
    blob = bytes(
        [0x00, 0x00, 0x08, 0x03,
         0x00, 0x00, 0x00, 0x01,
         0x00, 0x00, 0x00, 0x02,
         0x00, 0x00, 0x00, 0x02,
         0xAA, 0xBB, 0xCC, 0xDD]
    )
    header, array = parse_idx(blob)
    ok = (
        header.type_code == 0x08
        and header.dims == (1, 2, 2)
        and array.tolist() == [[[0xAA, 0xBB], [0xCC, 0xDD]]]
    )
    _verdict(label, ok, "rank-3 ubyte tensor decodes byte-for-byte")


def test_a06b_full_corpus_loads_with_documented_shape():
    label = "A06 full corpus dimensions"
    directory = _image_dir()
    if directory is None:
        _skip(label, "digit corpus not on disk")
    train, test = _corpus(directory)
    ok = (
        train.n == 60000 and test.n == 10000
        and train.dim == 784 and train.classes() == list(range(10))
    )
    _verdict(label, ok, f"train {train.n}x{train.dim}, test {test.n}x{test.dim}")


def test_a07_joint_upper_bound():
    label = "A07 joint training accuracy"
    directory = _image_dir()
    if directory is None:
        _skip(label, "digit corpus not on disk")
    started = time.perf_counter()
    train, test = _corpus(directory)
    config = ExperimentConfig(dataset="mnist", data_dir=directory).resolved()
    record = run_joint_baseline(train, test, config, seed=0)
    elapsed = time.perf_counter() - started
    _verdict(
        label,
        record.overall >= 95.0,
        f"all-classes accuracy {record.overall:.2f}% in {elapsed / 60:.1f}min",
    )


def test_a08_finetune_lower_bound_collapses_to_last_class():
    label = "A08 finetune forgetting floor"
    directory = _image_dir()
    if directory is None:
        _skip(label, "digit corpus not on disk")
    started = time.perf_counter()
    train, test = _corpus(directory)
    config = ExperimentConfig(dataset="mnist", data_dir=directory, g=1).resolved()
    schedule = build_schedule(train.classes(), g=1)
    records = run_finetune_baseline(train, test, schedule, config, seed=0)
    final = records[-1].overall
    elapsed = time.perf_counter() - started
    _verdict(
        label,
        8.0 <= final <= 16.0,
        f"final overall {final:.2f}% (chance-like) in {elapsed / 60:.1f}min",
    )


def test_a09_two_increments_of_five_classes():
    label = "A09 incremental g=5"
    directory = _image_dir()
    if directory is None:
        _skip(label, "digit corpus not on disk")
    started = time.perf_counter()
    train, test = _corpus(directory)
    config = ExperimentConfig(dataset="mnist", data_dir=directory, g=5).resolved()
    schedule = build_schedule(train.classes(), g=5)
    records = run_experiment(train, test, schedule, config, seed=0)
    elapsed = time.perf_counter() - started
    _verdict(
        label,
        records[0].overall >= 93.0 and records[1].overall >= 85.0,
        f"phase accuracies {records[0].overall:.2f}% / {records[1].overall:.2f}% "
        f"in {elapsed / 60:.1f}min",
    )


def test_a10_ten_increments_of_one_class():
    label = "A10 incremental g=1"
    directory = _image_dir()
    if directory is None:
        _skip(label, "digit corpus not on disk")
    started = time.perf_counter()
    train, test = _corpus(directory)
    config = ExperimentConfig(dataset="mnist", data_dir=directory, g=1).resolved()
    schedule = build_schedule(train.classes(), g=1)
    records = run_experiment(train, test, schedule, config, seed=0)
    avg5 = average_over_tasks(records, 5)
    avg10 = average_over_tasks(records, 10)
    drift_ok = all(
        records[i + 1].overall <= records[i].overall + 2.0
        for i in range(len(records) - 1)
    )
    elapsed = time.perf_counter() - started
    _verdict(
        label,
        avg5 >= 92.0 and avg10 >= 80.0 and drift_ok,
        f"avg5 {avg5:.2f}%, avg10 {avg10:.2f}%, monotone within 2pts, "
        f"in {elapsed / 60:.1f}min",
    )


def test_a11_summary_arithmetic_is_exact():
    label = "A11 task-average arithmetic"
    row = [100.0, 99.9, 98.6, 95.2, 93.4, 89.5, 87.6, 83.5, 81.3, 78.6]
    avg5 = average_over_tasks(row, 5)
    avg10 = average_over_tasks(row, 10)
    ok = (
        math.isclose(avg5, 97.42, rel_tol=0, abs_tol=1e-12)
        and math.isclose(avg10, 90.76, rel_tol=0, abs_tol=1e-12)
        and round(avg5, 1) == 97.4
        and round(avg10, 1) == 90.8
    )
    _verdict(label, ok, f"avg5 {avg5!r} -> {round(avg5, 1)}, avg10 {avg10!r} -> {round(avg10, 1)}")
