"""Increment scheduling, the training loop, and the baselines."""

from __future__ import annotations

import gc
import re
import tracemalloc
import weakref
from dataclasses import replace

import numpy as np
import pytest

from clare import numkit as nk
from clare import protocol
from clare.config import ExperimentConfig
from clare.dataio import LabeledDataset, make_toy_dataset, subset_by_classes
from clare.model import (
    ClareModel,
    StepWorkspace,
    expand_classes,
    forward_backward,
    load_model,
    save_model,
)
from clare.protocol import (
    IncrementState,
    _phase_seed,
    build_schedule,
    run_experiment,
    run_finetune_baseline,
    run_increment,
    run_joint_baseline,
    train_model,
)
from clare.replay import generate_replay

# Small enough to train in well under a second per increment.
FAST = ExperimentConfig(
    dataset="toy",
    toy_classes=3,
    toy_per_class=60,
    toy_dim=4,
    toy_spread=0.05,
    d_z=2,
    batch_size=16,
    lr=2e-3,
    epochs=8,
    enc_hidden=(12, 10),
    dec_hidden=(10, 12),
    g=1,
).resolved()


@pytest.fixture(scope="module")
def data():
    train = make_toy_dataset(3, 60, dim=4, spread=0.05, seed=201)
    test = make_toy_dataset(3, 30, dim=4, spread=0.05, seed=202)
    return train, test


class TestBuildSchedule:
    def test_even_split(self):
        s = build_schedule(list(range(10)), g=5)
        assert s.groups == [[0, 1, 2, 3, 4], [5, 6, 7, 8, 9]]

    def test_single_group(self):
        assert build_schedule(list(range(10)), g=10).groups == [list(range(10))]

    def test_remainder_group_allowed(self):
        s = build_schedule(list(range(10)), g=3)
        assert s.groups == [[0, 1, 2], [3, 4, 5], [6, 7, 8], [9]]

    def test_orders_ascending(self):
        assert build_schedule([4, 0, 2], g=2).groups == [[0, 2], [4]]

    def test_bad_inputs_rejected(self):
        with pytest.raises(ValueError):
            build_schedule([0, 1], g=0)
        with pytest.raises(ValueError):
            build_schedule([], g=1)
        with pytest.raises(ValueError, match="duplicate"):
            build_schedule([0, 0, 1], g=1)


class TestRunIncrement:
    def test_first_increment_from_nothing(self, data):
        train, test = data
        state = run_increment(
            IncrementState(), subset_by_classes(train, [0]), test, FAST, _phase_seed(1, 0)
        )
        assert state.learned == [0]
        assert state.model is not None and state.model.class_no == 1
        record = state.history[-1]
        assert record.increment == 0
        assert record.classes_seen == [0]
        assert set(record.per_class) == {0}
        assert 0.0 <= record.overall <= 100.0
        assert record.seconds > 0.0

    def test_trace_has_all_terms_per_epoch(self, data):
        train, test = data
        state = run_increment(
            IncrementState(), subset_by_classes(train, [0]), test, FAST, _phase_seed(1, 0)
        )
        trace = state.history[-1].trace
        assert set(trace) == {"total", "classification", "reconstruction", "kl"}
        for values in trace.values():
            assert len(values) == FAST.epochs
            assert np.isfinite(values).all()

    def test_labels_stay_original_even_when_dense_ids_differ(self, data):
        train, test = data
        # Learn class 2 first, then class 0: dense ids are 0 and 1 internally.
        state = run_increment(
            IncrementState(), subset_by_classes(train, [2]), test, FAST, _phase_seed(3, 0)
        )
        state = run_increment(
            state, subset_by_classes(train, [0]), test, FAST, _phase_seed(3, 1)
        )
        assert state.learned == [2, 0]
        record = state.history[-1]
        assert record.classes_seen == [0, 2]
        assert set(record.per_class) == {0, 2}

    def test_input_state_not_mutated(self, data):
        train, test = data
        empty = IncrementState()
        run_increment(empty, subset_by_classes(train, [0]), test, FAST, 17)
        assert empty.learned == []
        assert empty.model is None
        assert empty.history == []

    def test_relearning_a_class_rejected(self, data):
        train, test = data
        state = run_increment(
            IncrementState(), subset_by_classes(train, [0]), test, FAST, 5
        )
        with pytest.raises(ValueError, match="already learned"):
            run_increment(state, subset_by_classes(train, [0]), test, FAST, 6)

    def test_empty_group_rejected(self, data):
        train, test = data
        with pytest.raises(ValueError, match="empty"):
            run_increment(IncrementState(), subset_by_classes(train, []), test, FAST, 7)

    def test_replay_requires_a_model(self, data):
        train, test = data
        state = run_increment(
            IncrementState(), subset_by_classes(train, [0]), test, FAST, 8
        )
        state.model = None
        with pytest.raises(ValueError, match="no model to replay from"):
            run_increment(state, subset_by_classes(train, [1]), test, FAST, 9)
        assert state.learned == [0] and len(state.history) == 1

    @pytest.mark.parametrize("replay, start", [(True, "scratch"), (False, "warm")])
    def test_replay_or_a_warm_start_without_a_model_is_rejected(self, data, replay, start):
        # A warm start with no model must not quietly train from scratch.
        train, test = data
        state = run_increment(
            IncrementState(), subset_by_classes(train, [0]), test, FAST, 8
        )
        state.model = None
        history = list(state.history)
        config = replace(FAST, replay=replay, start=start)
        with pytest.raises(ValueError, match="no model to replay from"):
            run_increment(state, subset_by_classes(train, [1]), test, config, 9)
        assert state.learned == [0] and state.history == history

    @pytest.mark.parametrize("start", ["scratch", "warm"])
    def test_a_saved_model_continues_the_run_identically(self, data, start, tmp_path):
        # The model is the only state besides the label map and the records.
        train, test = data
        config = replace(FAST, start=start)
        first = run_increment(IncrementState(), subset_by_classes(train, [0]), test, config, 71)
        path = str(tmp_path / "model.clre")
        save_model(first.model, path)
        resumed = IncrementState(first.learned, load_model(path), first.history)
        want = run_increment(first, subset_by_classes(train, [1]), test, config, 72)
        got = run_increment(resumed, subset_by_classes(train, [1]), test, config, 72)
        assert got.history[-1].trace == want.history[-1].trace
        assert got.history[-1].per_class == want.history[-1].per_class
        assert np.array_equal(got.model.tape.flat_params, want.model.tape.flat_params)

    def test_on_replay_sees_balanced_buffers(self, data):
        train, test = data
        calls = []
        state = IncrementState()
        for phase, cls in enumerate([0, 1, 2]):
            state = run_increment(
                state,
                subset_by_classes(train, [cls]),
                test,
                FAST,
                _phase_seed(11, phase),
                on_replay=lambda phase, buf: calls.append((phase, len(buf))),
            )
        # No replay before anything is learned; then one share per old class.
        assert calls == [(1, 60), (2, 120)]

    def test_on_replay_sees_original_labels(self, data):
        # Classes 3, 5 and 7 train as dense ids 0, 1 and 2.
        original = np.array([3, 5, 7])
        train, test = (LabeledDataset(images=d.images, labels=original[d.labels]) for d in data)
        seen = []
        records = run_experiment(
            train, test, build_schedule([3, 5, 7], g=1), FAST, seed=12,
            on_replay=lambda phase, buf: seen.append(set(buf.labels.tolist())),
        )
        assert seen == [{3}, {3, 5}]
        assert [r.classes_seen for r in records] == [[3], [3, 5], [3, 5, 7]]


class TestDivergence:
    def test_nan_input_reports_increment_epoch_step_and_loss(self, data):
        train, test = data
        state = run_increment(
            IncrementState(), subset_by_classes(train, [0]), test, FAST, _phase_seed(1, 0)
        )
        group = subset_by_classes(train, [1])
        images = group.images.copy()
        images[5, 2] = np.nan
        with pytest.raises(nk.NonFiniteError) as err:
            run_increment(
                state, LabeledDataset(images, group.labels), test, FAST, _phase_seed(1, 1)
            )
        assert re.fullmatch(
            r"increment 1: non-finite value in total loss at epoch 0, step \d+ "
            r"\(last loss components: classification=\S+, reconstruction=\S+, "
            r"kl=\S+, total=\S+\)",
            str(err.value),
        ), str(err.value)

    def test_retry_after_a_failed_increment_says_the_model_was_taken(self, data):
        train, test = data
        state = run_increment(
            IncrementState(), subset_by_classes(train, [0]), test, FAST, _phase_seed(1, 0)
        )
        learned, history = list(state.learned), list(state.history)
        group = subset_by_classes(train, [1])
        images = group.images.copy()
        images[5, 2] = np.nan
        with pytest.raises(nk.NonFiniteError):
            run_increment(
                state, LabeledDataset(images, group.labels), test, FAST, _phase_seed(1, 1)
            )
        with pytest.raises(ValueError) as err:
            run_increment(state, group, test, FAST, _phase_seed(1, 1))
        assert str(err.value) == (
            "state has learned classes but no model to replay from; run_increment "
            "takes the model out of the state it is given, even when the increment "
            "then fails, so a retry needs the state it returned or "
            "IncrementState(learned, load_model(path), history)"
        )
        assert state.learned == learned and state.history == history

    def test_retry_from_a_reloaded_model_matches_an_unbroken_run(self, data, tmp_path):
        # The recovery the retry message names: put the saved model back.
        train, test = data
        state = run_increment(
            IncrementState(), subset_by_classes(train, [0]), test, FAST, _phase_seed(1, 0)
        )
        path = str(tmp_path / "model.bin")
        save_model(state.model, path)
        group = subset_by_classes(train, [1])
        images = group.images.copy()
        images[5, 2] = np.nan
        with pytest.raises(nk.NonFiniteError):
            run_increment(
                state, LabeledDataset(images, group.labels), test, FAST, _phase_seed(1, 1)
            )
        got, want = (
            run_increment(
                IncrementState(state.learned, load_model(path), state.history),
                group, test, FAST, _phase_seed(1, 1),
            )
            for _ in range(2)
        )
        assert got.learned == want.learned == [0, 1]
        assert np.array_equal(got.model.tape.flat_params, want.model.tape.flat_params)
        assert [r.overall for r in got.history] == [r.overall for r in want.history]

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergent_learning_rate_stops_at_the_second_step(self, data):
        train, test = data
        config = replace(FAST, lr=1e308)
        with pytest.raises(nk.NonFiniteError, match=r"^increment 0: .* at epoch 0, step 1 "):
            run_increment(IncrementState(), subset_by_classes(train, [0, 1]), test, config, 3)


class TestStepWorkspace:
    def _step(self, model, ws, state, images, labels, rows, rng):
        ws.gather(images, labels, rows)
        rng.standard_normal(out=ws.noise)
        forward_backward(model, ws)
        nk.optimizer_step(model.tape, state)

    @pytest.mark.parametrize("dtype", [np.float64, np.uint8])
    def test_steady_state_digit_step_allocates_under_2_mib(self, dtype):
        # 784-512-256-64 at batch 128: every activation and gradient lives in
        # the workspace or the tape; what is left is kernel temporaries, and
        # for pixel bytes the gathered batch before it is scaled.
        model = ClareModel(class_no=10, rng=np.random.default_rng(0))
        rng = np.random.default_rng(1)
        images = rng.uniform(size=(256, 784))
        if dtype == np.uint8:
            images = np.round(images * 255.0).astype(np.uint8)
        labels = rng.integers(0, 10, size=256)
        ws = StepWorkspace(model, 128)
        state = nk.OptimizerState(1e-3)
        self._step(model, ws, state, images, labels, np.arange(128), rng)
        buffers = dict(vars(ws))
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            self._step(model, ws, state, images, labels, np.arange(128, 256), rng)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20, f"step peak {peak / 2**20:.2f} MiB"
        assert vars(ws).keys() == buffers.keys()
        for name, value in buffers.items():
            assert vars(ws)[name] is value, name

    def test_one_workspace_per_batch_size_and_results_match_fresh_ones(self, monkeypatch):
        config = replace(FAST, epochs=2)
        rng = np.random.default_rng(5)
        images = rng.uniform(size=(40, 4))
        labels = rng.integers(0, 3, size=40)

        def fresh_model():
            return ClareModel(class_no=3, d_z=2, input_dim=4, enc_hidden=(12, 10),
                              dec_hidden=(10, 12), rng=np.random.default_rng(6))

        # Reference: a fresh workspace for every step, so nothing carries over.
        # train_model first draws a row order, then shuffles it each epoch.
        want = fresh_model()
        state = nk.OptimizerState(config.lr)
        ref_rng = np.random.default_rng(7)
        order = ref_rng.permutation(40)
        for _ in range(config.epochs):
            for idx in nk.iter_minibatches(40, config.batch_size, ref_rng):
                self._step(want, StepWorkspace(want, idx.shape[0]), state, images, labels,
                           order[idx], ref_rng)

        made, seen = [], []

        class Recording(StepWorkspace):
            def __init__(self, model, batch):
                super().__init__(model, batch)
                made.append(self)

        def spy(model, ws, beta=1.0):
            seen.append((ws, {name: id(value) for name, value in vars(ws).items()}))
            return forward_backward(model, ws, beta)

        monkeypatch.setattr(protocol, "StepWorkspace", Recording)
        monkeypatch.setattr(protocol, "forward_backward", spy)
        got = fresh_model()
        train_model(got, images, labels, config, np.random.default_rng(7))

        # Batches of 16, 16 and a short 8, twice: two workspaces, each reused.
        assert [ws.n for ws in made] == [16, 8]
        assert [ws.n for ws, _ in seen] == [16, 16, 8] * 2
        for ws, ids in seen:
            assert ids == {name: id(value) for name, value in vars(ws).items()}
        assert np.array_equal(got.tape.flat_params, want.tape.flat_params)

    @pytest.mark.parametrize("n_images, n_labels", [(10, 5), (5, 10)])
    def test_length_mismatch_rejected_before_drawing(self, n_images, n_labels):
        # gather() clips row indices, so extra images would silently reuse
        # the last label.
        model = ClareModel(class_no=3, d_z=2, input_dim=4, enc_hidden=(12, 10),
                           dec_hidden=(10, 12), rng=np.random.default_rng(0))
        before = model.tape.flat_params.copy()
        rng = np.random.default_rng(1)
        state = rng.bit_generator.state
        with pytest.raises(ValueError, match=f"{n_images} images, {n_labels} labels"):
            train_model(model, np.zeros((n_images, 4)), np.zeros(n_labels, dtype=np.int64),
                        FAST, rng)
        assert rng.bit_generator.state == state
        assert np.array_equal(model.tape.flat_params, before)


class TestDeterminism:
    def test_same_seed_reproduces_every_metric(self, data):
        train, test = data
        schedule = build_schedule([0, 1, 2], g=1)
        a = run_experiment(train, test, schedule, FAST, seed=33)
        b = run_experiment(train, test, schedule, FAST, seed=33)
        assert len(a) == len(b) == 3
        for ra, rb in zip(a, b):
            assert ra.overall == rb.overall
            assert ra.per_class == rb.per_class
            assert ra.trace == rb.trace

    def test_different_seeds_differ(self, data):
        train, test = data
        schedule = build_schedule([0, 1, 2], g=1)
        a = run_experiment(train, test, schedule, FAST, seed=33)
        b = run_experiment(train, test, schedule, FAST, seed=34)
        assert any(
            ra.trace["total"] != rb.trace["total"] for ra, rb in zip(a, b)
        )

    def test_phase_seeds_are_stable_and_distinct(self):
        seeds = [_phase_seed(99, phase) for phase in range(6)]
        assert seeds == [_phase_seed(99, phase) for phase in range(6)]
        assert len(set(seeds)) == 6


class TestBaselines:
    def test_single_group_schedule_is_the_joint_run(self, data):
        train, test = data
        schedule = build_schedule([0, 1, 2], g=3)
        incremental = run_experiment(train, test, schedule, FAST, seed=21)
        joint = run_joint_baseline(train, test, FAST, seed=21)
        assert len(incremental) == 1
        assert incremental[0].overall == joint.overall
        assert incremental[0].per_class == joint.per_class

    def test_finetune_on_one_group_matches_joint(self, data):
        train, test = data
        schedule = build_schedule([0, 1, 2], g=3)
        fine = run_finetune_baseline(train, test, schedule, FAST, seed=22)
        joint = run_joint_baseline(train, test, FAST, seed=22)
        assert len(fine) == 1
        assert fine[0].overall == joint.overall

    def test_finetune_ignores_config_replay_and_start(self, data):
        train, test = data
        schedule = build_schedule([0, 1, 2], g=1)
        base = replace(FAST, replay=True, start="scratch")
        fine = run_finetune_baseline(train, test, schedule, base, seed=23)
        forced = replace(FAST, replay=False, start="warm")
        manual = run_experiment(train, test, schedule, forced, seed=23)
        for rf, rm in zip(fine, manual):
            assert rf.overall == rm.overall
            assert rf.per_class == rm.per_class


class TestWarmStart:
    def test_model_grows_across_increments(self, data):
        train, test = data
        config = replace(FAST, start="warm")
        state = run_increment(
            IncrementState(), subset_by_classes(train, [0, 1]), test, config, 41
        )
        assert state.model.class_no == 2
        state = run_increment(
            state, subset_by_classes(train, [2]), test, config, 42
        )
        assert state.model.class_no == 3
        assert state.learned == [0, 1, 2]
        assert len(state.history) == 2

    def test_scratch_reinitializes_instead(self, data):
        train, test = data
        state = run_increment(
            IncrementState(), subset_by_classes(train, [0]), test, FAST, 43
        )
        first = state.model
        state = run_increment(
            state, subset_by_classes(train, [1]), test, FAST, 44
        )
        assert state.model is not first
        assert state.model.class_no == 2


class TestRunExperiment:
    def test_one_record_per_group_with_growing_coverage(self, data):
        train, test = data
        schedule = build_schedule([0, 1, 2], g=2)
        records = run_experiment(train, test, schedule, FAST, seed=51)
        assert [r.increment for r in records] == [0, 1]
        assert records[0].classes_seen == [0, 1]
        assert records[1].classes_seen == [0, 1, 2]
        assert set(records[1].per_class) == {0, 1, 2}


def _byte_twins(dataset: LabeledDataset) -> tuple[LabeledDataset, LabeledDataset]:
    """``dataset`` rounded to pixel bytes, and the float values those bytes hold."""
    pixels = np.round(dataset.images * 255.0).astype(np.uint8)
    return (LabeledDataset(pixels, dataset.labels),
            LabeledDataset(pixels / 255.0, dataset.labels))


class TestPixelBytes:
    def test_training_on_bytes_equals_training_on_their_values(self, data):
        pixels, values = _byte_twins(data[0])
        results = []
        for images in (pixels.images, values.images):
            model = ClareModel(class_no=3, d_z=2, input_dim=4, enc_hidden=(12, 10),
                               dec_hidden=(10, 12), rng=np.random.default_rng(4))
            trace = train_model(model, images, pixels.labels, replace(FAST, epochs=2),
                                np.random.default_rng(5))
            results.append((trace, model.tape.flat_params))
        assert results[0][0] == results[1][0]
        assert np.array_equal(results[0][1], results[1][1])

    @pytest.mark.parametrize("start", ["scratch", "warm"])
    def test_a_byte_corpus_runs_as_its_float_twin(self, data, start):
        # Every increment after the first scales its new rows into the tail
        # of the training array behind the replay.
        (train, values), (test, test_values) = _byte_twins(data[0]), _byte_twins(data[1])
        schedule = build_schedule([0, 1, 2], g=1)
        config = replace(FAST, epochs=2, start=start)
        got = run_experiment(train, test, schedule, config, seed=23)
        want = run_experiment(values, test_values, schedule, config, seed=23)
        assert len(got) == 3
        for a, b in zip(got, want):
            assert replace(a, seconds=0.0) == replace(b, seconds=0.0)


class TestIncrementMemory:
    # 9 replayed classes x 300 rows plus 300 new rows, 784 wide, on a
    # network small enough that the data dominates.
    TRAIN_BYTES = (9 * 300 + 300) * 784 * 8
    ARCH = dict(d_z=FAST.d_z, input_dim=784, enc_hidden=(8, 8), dec_hidden=(8, 8))

    def _peak(self, test_rows):
        config = replace(FAST, epochs=1, enc_hidden=(8, 8), dec_hidden=(8, 8))
        rng = np.random.default_rng(3)
        state = IncrementState(
            learned=list(range(9)), model=ClareModel(class_no=9, rng=rng, **self.ARCH)
        )
        group = LabeledDataset(rng.uniform(size=(300, 784)), np.full(300, 9))
        test = LabeledDataset(rng.uniform(size=(test_rows, 784)), np.arange(test_rows) % 10)
        tracemalloc.start()
        try:
            run_increment(state, group, test, config, 19)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_peak_is_one_training_array_plus_model_state(self):
        peak = self._peak(test_rows=20)
        # Parameters, gradients and Adam's two moments of the 10-class model.
        state_bytes = 4 * ClareModel(class_no=10, **self.ARCH).tape.flat_params.nbytes
        bound = 1.5 * self.TRAIN_BYTES + state_bytes
        assert peak < bound, (
            f"peak {peak / 2**20:.2f} MiB, bound {bound / 2**20:.2f} MiB, "
            f"training array {self.TRAIN_BYTES / 2**20:.2f} MiB"
        )

    def test_training_array_is_freed_before_the_seen_test_rows_are_copied(self):
        # The seen test split is as large as the training array; were both
        # alive at once, evaluation would set the peak at about twice it.
        peak = self._peak(test_rows=3000)
        assert peak < 1.5 * self.TRAIN_BYTES, (
            f"peak {peak / 2**20:.2f} MiB, "
            f"training array {self.TRAIN_BYTES / 2**20:.2f} MiB"
        )


class TestModelLifetime:
    def test_scratch_start_drops_the_previous_model_before_building_the_next(
        self, data, monkeypatch
    ):
        # Replay is the old model's last use; kept until the new one is
        # allocated (let alone trained), two models' parameters would share
        # the heap.
        train, test = data
        refs, reachable = [], []

        def build(*args, **kwargs):
            gc.collect()
            reachable.append([ref() is not None for ref in refs])
            model = ClareModel(*args, **kwargs)
            refs.append(weakref.ref(model))
            return model

        monkeypatch.setattr(protocol, "ClareModel", build)
        run_experiment(train, test, build_schedule([0, 1, 2], g=1), FAST, seed=61)
        assert reachable == [[], [False], [False, False]]

    def test_warm_start_drops_the_previous_model_before_training(self, data, monkeypatch):
        # expand_classes copies the old model, so neither run_experiment's
        # state nor run_increment's argument may keep it while the grown one
        # trains.
        train, test = data
        refs, reachable = [], []

        def spy(model, *args, **kwargs):
            gc.collect()
            reachable.append([ref() is not None for ref in refs])
            refs.append(weakref.ref(model))
            return train_model(model, *args, **kwargs)

        monkeypatch.setattr(protocol, "train_model", spy)
        config = replace(FAST, start="warm")
        run_experiment(train, test, build_schedule([0, 1, 2], g=1), config, seed=61)
        assert reachable == [[], [False], [False, False]]
        reachable.clear()
        refs.clear()
        run_finetune_baseline(train, test, build_schedule([0, 1, 2], g=1), FAST, seed=62)
        assert reachable == [[], [False], [False, False]]

    @pytest.mark.parametrize("start", ["warm", "scratch"])
    def test_increment_hands_over_the_input_model(self, data, start, monkeypatch):
        # Replay decodes from the input model; after that run_increment takes
        # it out of the input state in either start mode.
        train, test = data
        config = replace(FAST, start=start)
        first = run_increment(IncrementState(), subset_by_classes(train, [0]), test, config, 63)
        learned, history = list(first.learned), list(first.history)
        decoders = []

        def spy(decoder, *args, **kwargs):
            decoders.append(decoder)
            return generate_replay(decoder, *args, **kwargs)

        monkeypatch.setattr(protocol, "generate_replay", spy)
        model = first.model
        second = run_increment(first, subset_by_classes(train, [1]), test, config, 64)
        assert decoders == [model]
        assert first.model is None
        assert first.learned == learned and first.history == history
        assert second.model.class_no == 2

    def test_warm_start_expands_the_previous_model(self, data, monkeypatch):
        train, test = data
        trained, expanded = [], []

        def train_spy(model, *args, **kwargs):
            trained.append(model)
            return train_model(model, *args, **kwargs)

        def spy(model, new_class_no, rng):
            expanded.append((model, new_class_no))
            return expand_classes(model, new_class_no, rng)

        monkeypatch.setattr(protocol, "train_model", train_spy)
        monkeypatch.setattr(protocol, "expand_classes", spy)
        config = replace(FAST, start="warm")
        run_experiment(train, test, build_schedule([0, 1, 2], g=1), config, seed=61)
        assert len(trained) == 3
        # Each increment grows the model the one before it trained.
        assert [(m is trained[k], n) for k, (m, n) in enumerate(expanded)] == [
            (True, 2), (True, 3)
        ]
