"""The class-incremental protocol: schedules, increments, baselines.

Classes arrive in fixed-size groups. Each increment merges synthetic
replay of everything learned so far with the new group's real data,
retrains the joint model (from scratch by default, warm-started on
request), and evaluates on the held-out split restricted to the classes
seen so far. Only the trained model crosses to the next increment's replay.

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
from .dataio import LabeledDataset, as_pixels, scale_pixels, subset_by_classes
from .metrics import evaluate
from .model import ClareModel, StepWorkspace, expand_classes, forward_backward
from .replay import balance_counts, generate_replay

TRACE_KEYS = ("total", "classification", "reconstruction", "kl")


@dataclass
class Schedule:
    """Ordered groups of original class labels."""

    groups: list[list[int]]


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
    return Schedule(groups=groups)


@dataclass
class MetricsRecord:
    """Evaluation record after one increment; labels are originals."""

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
    ``model`` is the last increment's model; the next one replays from it.
    """

    learned: list[int] = field(default_factory=list)
    model: ClareModel | None = None
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

    Each step gathers its batch through a row order drawn from ``rng``
    first, so the images are never copied; a rejected call draws nothing.
    ``images`` holds float values or uint8 pixel bytes, which each step
    scales as it gathers them (``StepWorkspace.gather``).

    Returns per-epoch means of each loss component. One optimizer lives for
    the whole call; a fresh one is created per increment because class
    expansion changes parameter shapes. Each batch size gets one
    ``StepWorkspace``, allocated at its first step and reused after, so a
    short last batch has its own. A ``NonFiniteError`` is re-raised with the
    epoch and step (both counted from 0) where training diverged and the
    last loss components computed before it.
    """
    images = as_pixels(images)
    labels = np.asarray(labels, dtype=np.int64)
    if labels.shape[0] != images.shape[0]:
        raise ValueError(
            f"images and labels differ in length: {images.shape[0]} images, "
            f"{labels.shape[0]} labels"
        )
    n = images.shape[0]
    if n == 0:
        raise ValueError("cannot train on an empty dataset")
    rows = rng.permutation(n)
    state = nk.OptimizerState(config.lr)
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
            ws.gather(images, labels, rows[idx])
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
    """One increment: replay, merge, retrain, evaluate.

    ``seed`` is this phase's derived seed. Replay decodes from the input
    state's model. ``on_replay`` (when given) sees the generated buffer
    before training, for inspection dumps, with the original class labels;
    training uses the dense ids. Returns a new state. Once replay is made,
    the model is taken out of the input state (its ``model`` becomes
    ``None``) in either start mode, so the old parameters are freed before
    training: a scratch start frees them before it allocates new ones, a
    warm start once it has expanded them. This holds even when training then
    fails, so a retry needs a model put back, e.g. from ``load_model``; with
    replay on or a warm start, a state that has learned classes but no model
    raises ``ValueError``. Nothing else in the input state changes.
    """
    if new_group_data.n == 0:
        raise ValueError("increment received an empty data group")
    config = config.resolved()
    new_originals = sorted(new_group_data.class_index)
    overlap = set(new_originals) & set(state.learned)
    if overlap:
        raise ValueError(f"classes {sorted(overlap)} were already learned")
    if state.learned and state.model is None and (config.replay or config.start == "warm"):
        raise ValueError(
            "state has learned classes but no model to replay from; run_increment "
            "takes the model out of the state it is given, even when the increment "
            "then fails, so a retry needs the state it returned or "
            "IncrementState(learned, load_model(path), history)"
        )

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

    if state.learned and config.replay:
        new_counts = {
            dense_of[orig]: int(rows.size)
            for orig, rows in new_group_data.class_index.items()
        }
        counts = balance_counts(list(range(len(state.learned))), new_counts)
        # One training array: replay decodes into its head, the new images
        # are scaled into its tail (a plain assignment would cast pixel
        # bytes without scaling them).
        n_replay = sum(counts.values())
        train_x = np.empty((n_replay + new_group_data.n, new_group_data.dim))
        buffer = generate_replay(state.model, counts, replay_seed, out=train_x[:n_replay])
        scale_pixels(new_x, train_x[n_replay:])
        train_y = np.concatenate([buffer.labels, new_y])
        if on_replay is not None:
            on_replay(phase, replace(buffer, labels=np.asarray(state.learned)[buffer.labels]))
        del buffer
    else:
        train_x, train_y = new_x, new_y

    previous, state.model = state.model, None
    if config.start == "warm" and previous is not None:
        model = expand_classes(previous, len(learned), init_rng)
    else:
        # Replay was the old model's last use: free it before the new
        # parameters are allocated, so two models never share the heap.
        previous = None
        model = ClareModel(
            class_no=len(learned),
            d_z=config.d_z,
            input_dim=new_group_data.dim,
            enc_hidden=config.enc_hidden,
            dec_hidden=config.dec_hidden,
            rng=init_rng,
        )
    del previous

    try:
        trace = train_model(model, train_x, train_y, config, train_rng)
    except nk.NonFiniteError as err:
        raise nk.NonFiniteError(f"increment {phase}: {err}") from err
    # The seen test rows are copied next; the training array goes first.
    del train_x, train_y

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
