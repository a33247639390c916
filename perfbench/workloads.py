"""The three benchmark workloads: set-up, one timed repetition, output checks.

Each workload makes its inputs from the seed it is given, hands the program
only those inputs, and checks what comes back. A repetition is the unit the
timed section repeats; repeating it on one seed must reproduce its outputs
exactly (seconds aside), which the runner checks on every repetition.

- ``toy-quickstart``: the README quick-start (``--dataset toy --g 1``,
  16-dim blobs, 48-32 trunk, batch 128, 30 epochs). About 330 steps on tiny
  matrices, so Python dispatch sets its speed rather than BLAS.
- ``digits-g1``: an MNIST-shaped blob set (784 wide, 10 classes) written as
  the four IDX files and loaded through the digit CLI path; 784-512-256-64
  network, g=1, 10 increments, one epoch. BLAS-bound training on a replay
  mix that grows every increment.
- ``digits-replay-eval``: the inference half of an increment at digit
  scale: snapshot a seeded 10-class model, generate 6,000 replay samples per
  class and evaluate a 10k test set. No backward or optimizer runs, so a
  change to the training path should leave it unchanged.
"""

from __future__ import annotations

import io
import math
import os
import time
import zlib
from dataclasses import dataclass, field, replace

import numpy as np

from clare import harness, metrics, protocol, replay, report
from clare.config import ExperimentConfig
from clare.dataio import make_toy_dataset, write_idx
from clare.model import ClareModel
from clare.report import ResultsReport, RunResult

README_SEED = 7
README_ROW = "1 7 100.0 100.0 98.7"

DIGIT_CLASSES = 10
DIGIT_DIM = 784
DIGIT_TRAIN_PER_CLASS = 100
DIGIT_TEST_PER_CLASS = 100
REPLAY_PER_CLASS = 6000
REPLAY_TEST_PER_CLASS = 1000
WARMUP_ROWS = 128

IDX_NAMES = (
    "train-images-idx3-ubyte",
    "train-labels-idx1-ubyte",
    "t10k-images-idx3-ubyte",
    "t10k-labels-idx1-ubyte",
)


@dataclass
class Rep:
    """What one timed repetition produced.

    ``seconds`` covers the program calls only, not the benchmark's checks.
    ``fingerprint`` holds every output that must repeat exactly on one seed.
    ``checks`` maps a description of each output check to its verdict.
    ``phases`` holds rates the benchmark timed around single program calls.
    """

    seconds: float
    rows: int
    fingerprint: object
    checks: dict[str, bool]
    phases: dict[str, float] = field(default_factory=dict)
    records: list = field(default_factory=list)


def records_fingerprint(records) -> list:
    """Everything a run record holds apart from its wall-clock seconds."""
    return [
        (
            r.increment,
            list(r.classes_seen),
            r.overall,
            sorted(r.per_class.items()),
            sorted((k, list(v)) for k, v in r.trace.items()),
        )
        for r in records
    ]


def traces_finite(records) -> bool:
    return all(
        math.isfinite(v) for r in records for values in r.trace.values() for v in values
    )


def training_rows(train, epochs: int) -> int:
    """Rows through a training step over a g=1 schedule with replay.

    Increment ``k`` trains on the new class plus ``k`` replayed classes, each
    replayed at the new class's size (``balance_counts`` with one new class).
    """
    counts = [count for _, count in sorted(train.per_class_counts().items())]
    return epochs * sum((k + 1) * count for k, count in enumerate(counts))


def warm_training_step(train, config: ExperimentConfig, seed: int) -> None:
    """One training step at the workload's shapes: BLAS, kernels, optimizer.

    The first step in a process pays for BLAS start-up and first-touch page
    faults; set-up pays it here so the timed section starts warm.
    """
    config = replace(config, epochs=1, batch_size=WARMUP_ROWS)
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x57A2]))
    rows = rng.permutation(train.n)[:WARMUP_ROWS]
    classes, dense = np.unique(train.labels[rows], return_inverse=True)
    model = ClareModel(
        class_no=len(classes),
        d_z=config.d_z,
        input_dim=train.dim,
        enc_hidden=config.enc_hidden,
        dec_hidden=config.dec_hidden,
        rng=rng,
    )
    protocol.train_model(model, train.images[rows], dense, config, rng)


class Workload:
    """Set-up, one timed repetition, and what to check or report after them."""

    name: str
    why: str

    def setup(self, seed: int, workdir: str) -> dict:
        raise NotImplementedError

    def run_once(self, state: dict) -> Rep:
        raise NotImplementedError

    def finish(self, state: dict, reps: list[Rep]) -> dict[str, bool]:
        """Output checks made once, after the timed section."""
        return {}

    def extras(self, reps: list[Rep]) -> dict[str, tuple[float, str]]:
        """Workload-specific figures printed beside the end-to-end metrics."""
        return {}


class ToyQuickstart(Workload):
    name = "toy-quickstart"
    why = (
        "README quick-start: ~330 steps on tiny matrices, so per-op dispatch "
        "and the per-tensor Adam loop set the speed, not BLAS"
    )

    def setup(self, seed: int, workdir: str) -> dict:
        config = ExperimentConfig(dataset="toy", g=1, seed=seed).resolved()
        train, test = harness.load_datasets(config)
        warm_training_step(train, config, seed)
        return {"config": config, "train": train, "test": test, "seed": seed}

    def run_once(self, state: dict) -> Rep:
        config = state["config"]
        start = time.perf_counter()
        records = harness.run_mode("clare", state["train"], state["test"], config, state["seed"])
        seconds = time.perf_counter() - start
        return Rep(
            seconds=seconds,
            rows=training_rows(state["train"], config.epochs),
            fingerprint=records_fingerprint(records),
            checks={"loss traces are finite": traces_finite(records)},
            records=records,
        )

    def finish(self, state: dict, reps: list[Rep]) -> dict[str, bool]:
        """The README row, from the quick-start seed whatever the run's seed."""
        if state["seed"] == README_SEED:
            config, records = state["config"], reps[0].records
        else:
            config = replace(state["config"], seed=README_SEED)
            train, test = harness.load_datasets(config)
            records = harness.run_mode("clare", train, test, config, README_SEED)
        table = io.StringIO()
        results = ResultsReport(mode="clare", config=config, runs=[RunResult(README_SEED, records)])
        harness.print_table(results, table)
        row = " ".join(table.getvalue().splitlines()[1].split())
        return {f"README row is {README_ROW!r} (got {row!r})": row == README_ROW}

    def extras(self, reps: list[Rep]) -> dict[str, tuple[float, str]]:
        records = reps[0].records
        return {
            "acc_final": (records[-1].overall, "%"),
            "acc_avg": (metrics.average_over_tasks(records, len(records)), "%"),
        }


class DigitsG1(Workload):
    name = "digits-g1"
    why = (
        "MNIST-shaped 784-512-256-64 net, g=1 over 10 increments via IDX "
        "files: BLAS-bound training on a replay mix that grows each increment"
    )

    def setup(self, seed: int, workdir: str) -> dict:
        train_ss, test_ss = np.random.SeedSequence([seed, 0xD161]).spawn(2)
        train = make_toy_dataset(DIGIT_CLASSES, DIGIT_TRAIN_PER_CLASS, dim=DIGIT_DIM, seed=train_ss)
        test = make_toy_dataset(DIGIT_CLASSES, DIGIT_TEST_PER_CLASS, dim=DIGIT_DIM, seed=test_ss)
        side = int(round(DIGIT_DIM**0.5))
        arrays = (train.images, train.labels, test.images, test.labels)
        for name, array in zip(IDX_NAMES, arrays):
            if array.ndim == 2:
                array = np.round(array * 255.0).reshape(-1, side, side)
            with open(os.path.join(workdir, name), "wb") as fh:
                fh.write(write_idx(array.astype(np.uint8)))
        config = ExperimentConfig(
            dataset="mnist", data_dir=workdir, g=1, epochs=1, seed=seed
        ).resolved()
        train, test = harness.load_datasets(config)
        warm_training_step(train, config, seed)
        return {
            "config": config,
            "train": train,
            "test": test,
            "seed": seed,
            "report_path": os.path.join(workdir, "report.txt"),
        }

    def run_once(self, state: dict) -> Rep:
        config, seed = state["config"], state["seed"]
        start = time.perf_counter()
        records = harness.run_mode("clare", state["train"], state["test"], config, seed)
        results = ResultsReport(mode="clare", config=config, runs=[RunResult(seed, records)])
        report.write_report(results, state["report_path"])
        back = report.read_report(state["report_path"])
        seconds = time.perf_counter() - start
        fingerprint = records_fingerprint(records)
        return Rep(
            seconds=seconds,
            rows=training_rows(state["train"], config.epochs),
            fingerprint=fingerprint,
            checks={
                "loss traces are finite": traces_finite(records),
                "report round-trips through write_report/read_report":
                    records_fingerprint(back.runs[0].records) == fingerprint,
            },
        )


class DigitsReplayEval(Workload):
    name = "digits-replay-eval"
    why = (
        "inference half of a digit increment: 60k replay samples and a 10k "
        "evaluation, no backward or optimizer; training changes should not move it"
    )

    def setup(self, seed: int, workdir: str) -> dict:
        model_ss, test_ss, replay_ss = np.random.SeedSequence([seed, 0x2E7A]).spawn(3)
        model = ClareModel(
            class_no=DIGIT_CLASSES, input_dim=DIGIT_DIM, rng=np.random.default_rng(model_ss)
        )
        test = make_toy_dataset(DIGIT_CLASSES, REPLAY_TEST_PER_CLASS, dim=DIGIT_DIM, seed=test_ss)
        replay_seed = int(replay_ss.generate_state(1)[0])
        # Warm-up: one decode chunk and one evaluation batch at these shapes.
        replay.generate_replay(
            replay.take_snapshot(model, increment=0), {0: WARMUP_ROWS}, replay_seed
        )
        metrics.evaluate(model, test.images[:WARMUP_ROWS], test.labels[:WARMUP_ROWS])
        return {"model": model, "test": test, "replay_seed": replay_seed}

    def run_once(self, state: dict) -> Rep:
        model, test = state["model"], state["test"]
        counts = {cls: REPLAY_PER_CLASS for cls in range(DIGIT_CLASSES)}
        start = time.perf_counter()
        snapshot = replay.take_snapshot(model, increment=DIGIT_CLASSES - 1)
        buffer = replay.generate_replay(snapshot, counts, state["replay_seed"])
        replayed = time.perf_counter()
        overall, per_class = metrics.evaluate(model, test.images, test.labels)
        done = time.perf_counter()
        images, labels = buffer.images, buffer.labels
        checksum = zlib.crc32(labels.tobytes(), zlib.crc32(images.tobytes()))
        balanced = np.bincount(labels, minlength=DIGIT_CLASSES).tolist()
        return Rep(
            seconds=done - start,
            rows=len(buffer) + test.n,
            fingerprint=(checksum, overall, sorted(per_class.items())),
            checks={
                "replay labels are exactly balanced":
                    balanced == [REPLAY_PER_CLASS] * DIGIT_CLASSES,
                "replay images lie strictly inside (0, 1)":
                    bool(images.min() > 0.0 and images.max() < 1.0),
            },
            phases={
                "replay_samples_per_s": len(buffer) / (replayed - start),
                "eval_samples_per_s": test.n / (done - replayed),
            },
        )

    def extras(self, reps: list[Rep]) -> dict[str, tuple[float, str]]:
        return {
            name: (max(r.phases[name] for r in reps), "1/s")
            for name in ("replay_samples_per_s", "eval_samples_per_s")
        }


WORKLOADS = {w.name: w for w in (ToyQuickstart(), DigitsG1(), DigitsReplayEval())}
