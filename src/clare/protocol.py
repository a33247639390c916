"""The class-incremental protocol: schedules, increments, baselines.

Classes arrive in fixed-size groups. Each increment merges synthetic
replay of everything learned so far with the new group's real data,
retrains the joint model (from scratch by default, warm-started on
request), snapshots the decoder for the next round, and evaluates on the
held-out split restricted to the classes seen so far.

Class ids are compacted: the model always works on dense ids
``0..class_no-1`` in arrival order, and the state keeps the dense-to-
original mapping so records report original labels.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace

import numpy as np

from . import numkit as nk
from .config import ExperimentConfig
from .dataio import LabeledDataset, subset_by_classes
from .metrics import evaluate
from .model import ClareModel, StepWorkspace, expand_classes, forward_backward
from .replay import DecoderSnapshot, ReplayBuffer, balance_counts, generate_replay, take_snapshot

TRACE_KEYS = ("total", "classification", "reconstruction", "kl")


@dataclass
class Schedule:
    """Ordered groups of original class labels."""

    groups: list[list[int]]
    g: int


def build_schedule(class_ids: list[int], g: int) -> Schedule:
    """Split ``class_ids`` (ascending) into consecutive groups of size ``g``.

    The last group may be smaller when the counts do not divide evenly.
    """
    if g < 1:
        raise ValueError(f"g must be >= 1, got {g}")
    ids = sorted(int(c) for c in class_ids)
    if not ids:
        raise ValueError("schedule needs at least one class")
    if len(set(ids)) != len(ids):
        raise ValueError("duplicate class ids in schedule")
    groups = [ids[i : i + g] for i in range(0, len(ids), g)]
    return Schedule(groups=groups, g=g)


@dataclass
class MetricsRecord:
    """Evaluation snapshot after one increment; labels are originals."""

    increment: int
    classes_seen: list[int]
    overall: float
    per_class: dict[int, float]
    seconds: float
    trace: dict[str, list[float]] = field(default_factory=dict)


@dataclass
class IncrementState:
    """Everything carried between increments.

    ``learned`` is the dense-to-original label map: position = dense id.
    """

    learned: list[int] = field(default_factory=list)
    model: ClareModel | None = None
    snapshot: DecoderSnapshot | None = None
    history: list[MetricsRecord] = field(default_factory=list)


def _phase_seed(master_seed: int, phase: int) -> int:
    """Stable per-phase seed; adding later phases never shifts earlier ones."""
    return int(np.random.SeedSequence([master_seed, phase]).generate_state(1)[0])


def train_model(
    model: ClareModel,
    images: np.ndarray,
    labels: np.ndarray,
    config: ExperimentConfig,
    rng: np.random.Generator,
) -> dict[str, list[float]]:
    """Minimize the joint objective with shuffled minibatches.

    Returns per-epoch means of each loss component. One optimizer lives for
    the whole call; a fresh one is created per increment because class
    expansion changes parameter shapes. Each batch size gets one
    ``StepWorkspace``, allocated at its first step and reused after, so a
    short last batch has its own. A ``NonFiniteError`` is re-raised with the
    epoch and step (both counted from 0) where training diverged and the
    last loss components computed before it.
    """
    images = nk.as_f64(images)
    labels = np.asarray(labels, dtype=np.int64)
    n = images.shape[0]
    if n == 0:
        raise ValueError("cannot train on an empty dataset")
    if labels.shape[0] != n:
        raise ValueError(
            f"images and labels differ in length: {n} images, {labels.shape[0]} labels"
        )
    state = nk.OptimizerState(config.optimizer, config.lr)
    workspaces: dict[int, StepWorkspace] = {}
    trace: dict[str, list[float]] = {key: [] for key in TRACE_KEYS}
    parts: dict[str, float] = {}
    for epoch in range(config.epochs):
        sums = dict.fromkeys(TRACE_KEYS, 0.0)
        batches = 0
        for step, idx in enumerate(nk.iter_minibatches(n, config.batch_size, rng)):
            ws = workspaces.get(idx.shape[0])
            if ws is None:
                ws = workspaces[idx.shape[0]] = StepWorkspace(model, idx.shape[0])
            ws.gather(images, labels, idx)
            rng.standard_normal(out=ws.noise)
            try:
                parts = forward_backward(model, ws, config.beta)
                nk.optimizer_step(model.tape, state)
            except nk.NonFiniteError as err:
                last = ", ".join(f"{key}={value!r}" for key, value in parts.items())
                raise nk.NonFiniteError(
                    f"{err} at epoch {epoch}, step {step} "
                    f"(last loss components: {last or 'none yet'})"
                ) from err
            for key in TRACE_KEYS:
                sums[key] += parts[key]
            batches += 1
        for key in TRACE_KEYS:
            trace[key].append(sums[key] / batches)
    return trace


def run_increment(
    state: IncrementState,
    new_group_data: LabeledDataset,
    test_data: LabeledDataset,
    config: ExperimentConfig,
    seed: int,
    on_replay=None,
) -> IncrementState:
    """One increment: replay, merge, retrain, snapshot, evaluate.

    ``seed`` is this phase's derived seed. ``on_replay`` (when given) sees
    the generated buffer before training, for inspection dumps, with the
    original class labels; training uses the dense ids. Returns a new
    state; the input state is not modified.
    """
    if new_group_data.n == 0:
        raise ValueError("increment received an empty data group")
    if config.epochs is None or config.enc_hidden is None or config.dec_hidden is None:
        config = config.resolved()
    new_originals = sorted(new_group_data.class_index)
    overlap = set(new_originals) & set(state.learned)
    if overlap:
        raise ValueError(f"classes {sorted(overlap)} were already learned")

    phase = len(state.history)
    ss = np.random.SeedSequence(seed)
    init_ss, train_ss, replay_ss = ss.spawn(3)
    init_rng = np.random.default_rng(init_ss)
    train_rng = np.random.default_rng(train_ss)
    replay_seed = int(replay_ss.generate_state(1)[0])

    learned = list(state.learned) + new_originals
    dense_of = {orig: dense for dense, orig in enumerate(learned)}
    new_x = new_group_data.images
    new_y = np.array([dense_of[int(y)] for y in new_group_data.labels], dtype=np.int64)

    started = time.perf_counter()

    buffer: ReplayBuffer | None = None
    if state.learned and config.replay:
        if state.snapshot is None:
            raise ValueError("state has learned classes but no decoder snapshot")
        new_counts = {
            dense_of[orig]: int(rows.size)
            for orig, rows in new_group_data.class_index.items()
        }
        counts = balance_counts(list(range(len(state.learned))), new_counts)
        buffer = generate_replay(state.snapshot, counts, replay_seed)
        if on_replay is not None:
            on_replay(phase, replace(buffer, labels=np.asarray(state.learned)[buffer.labels]))

    if buffer is not None and len(buffer):
        merged_x = np.concatenate([buffer.images, new_x], axis=0)
        merged_y = np.concatenate([buffer.labels, new_y], axis=0)
    else:
        merged_x, merged_y = new_x, new_y
    order = train_rng.permutation(merged_x.shape[0])
    merged_x, merged_y = merged_x[order], merged_y[order]

    if config.start == "warm" and state.model is not None:
        model = expand_classes(state.model, len(learned), init_rng)
    else:
        model = ClareModel(
            class_no=len(learned),
            d_z=config.d_z,
            input_dim=new_group_data.dim,
            enc_hidden=config.enc_hidden,
            dec_hidden=config.dec_hidden,
            rng=init_rng,
        )

    try:
        trace = train_model(model, merged_x, merged_y, config, train_rng)
    except nk.NonFiniteError as err:
        raise nk.NonFiniteError(f"increment {phase}: {err}") from err
    snapshot = take_snapshot(model, increment=phase)

    seen_test = subset_by_classes(test_data, learned)
    dense_test = np.array([dense_of[int(y)] for y in seen_test.labels], dtype=np.int64)
    overall, per_class_dense = evaluate(model, seen_test.images, dense_test)
    per_class = {learned[dense]: acc for dense, acc in per_class_dense.items()}

    record = MetricsRecord(
        increment=phase,
        classes_seen=sorted(learned),
        overall=overall,
        per_class=per_class,
        seconds=time.perf_counter() - started,
        trace=trace,
    )
    return IncrementState(
        learned=learned,
        model=model,
        snapshot=snapshot,
        history=list(state.history) + [record],
    )


def run_experiment(
    train_data: LabeledDataset,
    test_data: LabeledDataset,
    schedule: Schedule,
    config: ExperimentConfig,
    seed: int,
    on_replay=None,
) -> list[MetricsRecord]:
    """Run every increment of ``schedule`` and return its metric records."""
    config = config.resolved()
    state = IncrementState()
    for phase, group in enumerate(schedule.groups):
        group_data = subset_by_classes(train_data, group)
        state = run_increment(
            state, group_data, test_data, config, _phase_seed(seed, phase), on_replay
        )
    return state.history


def run_joint_baseline(
    train_data: LabeledDataset,
    test_data: LabeledDataset,
    config: ExperimentConfig,
    seed: int,
) -> MetricsRecord:
    """Upper bound: all classes in one group, which skips the replay branch."""
    classes = train_data.classes()
    schedule = build_schedule(classes, g=len(classes))
    return run_experiment(train_data, test_data, schedule, config, seed)[0]


def run_finetune_baseline(
    train_data: LabeledDataset,
    test_data: LabeledDataset,
    schedule: Schedule,
    config: ExperimentConfig,
    seed: int,
) -> list[MetricsRecord]:
    """Lower bound: no replay, warm-started on each new group alone."""
    config = replace(config, replay=False, start="warm")
    return run_experiment(train_data, test_data, schedule, config, seed)
