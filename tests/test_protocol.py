"""Increment scheduling, the training loop, and the baselines."""

from __future__ import annotations

import gc
import re
import tracemalloc
import weakref
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    param_count,
    save_model,
)
from clare.protocol import (
    IncrementState,
    TrainingBuffers,
    _phase_seed,
    build_schedule,
    run_experiment,
    run_finetune_baseline,
    run_increment,
    run_joint_baseline,
    train_model,
)
from clare.replay import generate_replay
from conftest import step_on

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
        assert s == [[0, 1, 2, 3, 4], [5, 6, 7, 8, 9]]

    def test_returns_a_plain_list_of_lists(self):
        s = build_schedule([3, 1, 2], g=2)
        assert type(s) is list
        assert all(type(group) is list for group in s)

    def test_single_group(self):
        assert build_schedule(list(range(10)), g=10) == [list(range(10))]

    def test_remainder_group_allowed(self):
        s = build_schedule(list(range(10)), g=3)
        assert s == [[0, 1, 2], [3, 4, 5], [6, 7, 8], [9]]

    def test_orders_ascending(self):
        assert build_schedule([4, 0, 2], g=2) == [[0, 2], [4]]

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
        # A warm start with no model must not quietly train from scratch,
        # and its error names the warm start, not replay.
        train, test = data
        state = run_increment(
            IncrementState(), subset_by_classes(train, [0]), test, FAST, 8
        )
        state.model = None
        history = list(state.history)
        config = replace(FAST, replay=replay, start=start)
        need = "replay from" if replay else "warm-start from"
        with pytest.raises(ValueError, match=f"no model to {need};"):
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

    def _steady_state_peak(self, dtype, class_no) -> int:
        """Traced peak bytes of a second digit-shape step at batch 128.

        784-512-256-64 on a 10-class workspace (a model with fewer classes
        on its leading class columns). The step must keep every workspace
        buffer it was given.
        """
        model = ClareModel(class_no=class_no, rng=np.random.default_rng(0))
        rng = np.random.default_rng(1)
        images = rng.uniform(size=(256, 784))
        if dtype == np.uint8:
            images = np.round(images * 255.0).astype(np.uint8)
        labels = rng.integers(0, class_no, size=256)
        ws = StepWorkspace((10,) + model.dims[1:], 128)
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
        assert vars(ws).keys() == buffers.keys()
        for name, value in buffers.items():
            assert vars(ws)[name] is value, name
        return peak

    @pytest.mark.parametrize("class_no", [10, 1])
    @pytest.mark.parametrize("dtype", [np.float64, np.uint8])
    def test_steady_state_digit_step_allocates_under_half_a_mib(self, dtype, class_no):
        # Every activation, gradient and loss buffer lives in the workspace
        # or the tape; what is left is the latent-width kernels' results,
        # and for pixel bytes the gathered batch before it is scaled (100 KB).
        peak = self._steady_state_peak(dtype, class_no)
        assert peak < 2**20 // 2, f"step peak {peak / 2**20:.2f} MiB"

    @pytest.mark.parametrize("class_no", [10, 1])
    def test_steady_state_digit_step_on_float_images_allocates_under_256_kib(self, class_no):
        # No gathered bytes. The draw, its standard deviation and its
        # gradient have workspace buffers, so what is left is the results
        # of the cross-entropy (10 KiB) and the KL term (two 64 KiB arrays),
        # and numpy's 64 KiB buffer casting a boolean mask in a product.
        peak = self._steady_state_peak(np.float64, class_no)
        assert peak < 256 * 2**10, f"step peak {peak / 2**10:.1f} KiB"

    def test_one_workspace_per_run_and_results_match_fresh_buffers(self, data, monkeypatch):
        # Two increments in batches of 16, growing from 2 to 3 classes: 120
        # rows (a short batch of 8), then 120 replayed and 60 new rows (a
        # short batch of 4).
        train, test = data
        schedule = build_schedule([0, 1, 2], g=2)
        config = replace(FAST, epochs=2)
        evaluate = protocol.evaluate

        def fresh_buffers(model, images, labels, config, rng, *, buffers):
            # Reference training: a fresh workspace for every step and a fresh
            # optimizer per increment, with train_model's draws from ``rng``.
            n = len(labels)
            rows = rng.permutation(n)
            state = nk.OptimizerState(config.lr)
            trace = {key: [] for key in protocol.TRACE_KEYS}
            for _ in range(config.epochs):
                sums = dict.fromkeys(protocol.TRACE_KEYS, 0.0)
                steps = list(nk.iter_minibatches(n, config.batch_size, rng))
                for idx in steps:
                    ws = StepWorkspace(model.dims, idx.shape[0])
                    ws.gather(images, labels, rows[idx])
                    rng.standard_normal(out=ws.noise)
                    parts = forward_backward(model, ws, config.beta)
                    nk.optimizer_step(model.tape, state)
                    for key in protocol.TRACE_KEYS:
                        sums[key] += parts[key]
                for key in protocol.TRACE_KEYS:
                    trace[key].append(sums[key] / len(steps))
            return trace

        def run(training=None):
            models = []

            def spy_evaluate(model, images, labels):
                models.append((model.tape.capacity, model.tape.flat_params.copy()))
                return evaluate(model, images, labels)

            with monkeypatch.context() as m:
                m.setattr(protocol, "evaluate", spy_evaluate)
                if training is not None:
                    m.setattr(protocol, "train_model", training)
                records = run_experiment(train, test, schedule, config, seed=31)
            return [replace(r, seconds=0.0) for r in records], models

        want, want_models = run(fresh_buffers)

        made, seen = [], []

        class Recording(StepWorkspace):
            def __init__(self, dims, batch):
                super().__init__(dims, batch)
                made.append(self)

        def spy(model, ws, beta=1.0):
            # Every buffer of the step's workspace is, or is a view of, the
            # one workspace's current buffer of that name.
            (full,) = made
            views = all(
                np.shares_memory(value, getattr(full, name))
                for name, value in vars(ws).items()
                if isinstance(value, np.ndarray)
            )
            seen.append((ws.n, views))
            return forward_backward(model, ws, beta)

        moments = []
        optimizer_step = nk.optimizer_step

        def spy_optimizer(tape, state):
            optimizer_step(tape, state)
            moments.append((state.m, state.v))

        monkeypatch.setattr(protocol, "StepWorkspace", Recording)
        monkeypatch.setattr(protocol, "forward_backward", spy)
        monkeypatch.setattr(nk, "optimizer_step", spy_optimizer)
        got, got_models = run()

        assert [ws.n for ws in made] == [16]
        # One pair of Adam moments, of the final tape's size, serves every
        # step of both increments.
        assert len(moments) == len(seen)
        m, v = moments[0]
        assert m.size == v.size == param_count(made[0].dims)
        assert all(a is m and b is v for a, b in moments)
        assert [n for n, _ in seen] == ([16] * 7 + [8]) * 2 + ([16] * 11 + [4]) * 2
        assert all(views for _, views in seen)
        assert got == want
        # Both models reserve the 3-class tape's size.
        assert [cap for cap, _ in got_models] == [param_count(made[0].dims)] * 2
        assert len(got_models) == len(want_models) == 2
        for (_, got_params), (_, want_params) in zip(got_models, want_models):
            assert np.array_equal(got_params, want_params)

    @pytest.mark.parametrize("replay, rows", [(True, 300), (False, 100)])
    def test_the_run_workspace_has_the_largest_increments_rows(self, replay, rows, monkeypatch):
        # One row each of classes 0 and 1, then 100 of class 2: with replay,
        # the last increment trains on 100 new and 2 x 100 replayed rows,
        # more than the 102 rows of the training split.
        rng = np.random.default_rng(17)
        labels = np.array([0, 1] + [2] * 100)
        train = LabeledDataset(rng.uniform(size=(102, 4)), labels)
        made = []

        class Recording(StepWorkspace):
            def __init__(self, dims, batch):
                super().__init__(dims, batch)
                made.append(batch)

        monkeypatch.setattr(protocol, "StepWorkspace", Recording)
        config = replace(FAST, epochs=1, batch_size=20000, replay=replay)
        run_experiment(train, train, build_schedule([0, 1, 2], g=1), config, seed=3)
        assert made == [rows]

    @pytest.mark.parametrize("split", ["training", "test"])
    def test_a_scheduled_class_missing_from_a_split_is_rejected_first(
        self, data, split, monkeypatch
    ):
        train, test = data
        if split == "training":
            train = subset_by_classes(train, [0, 1])
        else:
            test = subset_by_classes(test, [0, 1])
        calls = []
        monkeypatch.setattr(protocol, "train_model", lambda *args, **kw: calls.append(args))
        missing = rf"^scheduled classes \[2\] are not in the {split} split$"
        with pytest.raises(ValueError, match=missing):
            run_experiment(train, test, build_schedule([0, 1, 2], g=1), FAST, seed=3)
        assert calls == []

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



class TestTrainingBuffers:
    """One workspace and one Adam state reused across train_model calls."""

    ARCH = dict(d_z=2, input_dim=4, enc_hidden=(12, 10), dec_hidden=(10, 12))

    def _train(self, class_no, buffers):
        # 40 rows in batches of 16: the last batch is short.
        model = ClareModel(class_no=class_no, **self.ARCH, rng=np.random.default_rng(class_no))
        rng = np.random.default_rng(50 + class_no)
        images = rng.uniform(size=(40, 4))
        labels = rng.integers(0, class_no, size=40)
        trace = train_model(model, images, labels, replace(FAST, epochs=2), rng, buffers=buffers)
        return trace, model.tape.flat_params

    def _buffers(self, class_no):
        dims = (class_no, 2, 4, (12, 10), (10, 12))
        return TrainingBuffers(dims, FAST.batch_size, FAST.lr)

    def test_a_reused_state_matches_fresh_ones(self):
        # The second model has one class fewer than the buffers: it steps on
        # the workspace's leading class columns and the moments' leading
        # entries, which restart from zero instead of carrying the first
        # call's values.
        buffers = self._buffers(3)
        ws = buffers.workspace
        moments = None
        for class_no in (3, 2):
            got_trace, got = self._train(class_no, buffers)
            moments = moments or (buffers.optimizer.m, buffers.optimizer.v)
            want_trace, want = self._train(class_no, None)
            assert got_trace == want_trace
            assert np.array_equal(got, want), class_no
        assert buffers.workspace is ws
        assert buffers.optimizer.m is moments[0] and buffers.optimizer.v is moments[1]

    def test_every_increment_steps_on_one_adam_scratch(self, data, monkeypatch):
        # Each increment's tape is longer than the last, but they share the
        # final model's capacity, which sizes the scratch rows too.
        sizes, seen = set(), []
        real = nk.optimizer_step

        def record(tape, state):
            real(tape, state)
            sizes.add(tape.flat_params.size)
            seen.append(state.scratch)

        monkeypatch.setattr(nk, "optimizer_step", record)
        train, test = data
        run_experiment(train, test, build_schedule([0, 1, 2], g=1), replace(FAST, epochs=1), 7)
        assert len(sizes) == 3
        assert all(scratch is seen[0] for scratch in seen)

    @pytest.mark.parametrize("batch, class_no, d_z", [(8, 3, 2), (16, 2, 2), (16, 3, 3)])
    def test_a_workspace_that_cannot_train_the_call_is_rejected_before_drawing(
        self, batch, class_no, d_z
    ):
        # Too few rows for a 16-row batch, too few classes for the model, or
        # another network: the call draws nothing and trains nothing.
        buffers = TrainingBuffers((class_no, d_z, 4, (12, 10), (10, 12)), batch, FAST.lr)
        model = ClareModel(class_no=3, **self.ARCH, rng=np.random.default_rng(3))
        before = model.tape.flat_params.copy()
        rng = np.random.default_rng(1)
        state = rng.bit_generator.state
        with pytest.raises(ValueError, match="no 16-row batch|workspace shapes"):
            train_model(model, np.zeros((40, 4)), np.zeros(40, dtype=np.int64), FAST, rng,
                        buffers=buffers)
        assert rng.bit_generator.state == state
        assert np.array_equal(model.tape.flat_params, before)
        assert buffers.optimizer.m is None

    def test_a_leading_view_rejects_other_row_counts(self):
        ws = self._buffers(3).workspace
        assert ws.leading(ws.n) is ws
        for k in (0, ws.n + 1):
            with pytest.raises(ValueError, match=f"no {k}-row batch"):
                ws.leading(k)

    @pytest.mark.parametrize("class_no, d_z", [(4, 2), (3, 3)])
    def test_forward_backward_rejects_another_network_or_more_classes(self, class_no, d_z):
        ws = self._buffers(3).workspace
        model = ClareModel(class_no=class_no, **{**self.ARCH, "d_z": d_z})
        with pytest.raises(ValueError, match="workspace shapes"):
            forward_backward(model, ws)

    @pytest.mark.parametrize("class_no", [1, 2, 3])
    def test_a_wider_workspace_steps_as_a_fresh_one(self, class_no):
        # A 3-class workspace holding stale values in its class columns gives
        # the losses and gradients of a workspace built for the model.
        rng = np.random.default_rng(40 + class_no)
        model = ClareModel(class_no=class_no, **self.ARCH, rng=rng)
        x, noise = rng.uniform(size=(16, 4)), rng.standard_normal((16, 2))
        labels = rng.integers(0, class_no, size=16)
        want = step_on(model, x, labels, noise)
        want_grads = model.tape.flat_grads.copy()
        ws = self._buffers(3).workspace
        ws.one_hot.fill(np.nan)
        ws.logits.fill(np.nan)
        ws.x[...], ws.labels[...], ws.noise[...] = x, labels, noise
        assert forward_backward(model, ws) == want
        assert np.array_equal(model.tape.flat_grads, want_grads)


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


@st.composite
def small_runs(draw):
    """A toy corpus, schedule and config: sparse original labels, uneven and
    one-row classes, any ``g``, batches of 1-40 rows, both start modes,
    replay on and off, and float or byte pixels."""
    labels = sorted(draw(st.sets(st.integers(0, 250), min_size=1, max_size=4)))
    counts = draw(st.lists(st.integers(1, 12), min_size=len(labels), max_size=len(labels)))
    g = draw(st.integers(1, len(labels)))
    config = replace(
        FAST,
        epochs=draw(st.integers(1, 2)),
        batch_size=draw(st.integers(1, 40)),
        start=draw(st.sampled_from(["scratch", "warm"])),
        replay=draw(st.booleans()),
    )
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def split(per_class):
        images = rng.uniform(size=(sum(per_class), 4))
        if draw(st.booleans()):
            images = np.round(images * 255.0).astype(np.uint8)
        rows = rng.permutation(len(images))
        return LabeledDataset(images[rows], np.repeat(labels, per_class)[rows])

    train, test = split(counts), split([2] * len(labels))
    return train, test, build_schedule(labels, g), config


class TestScheduleProperty:
    @settings(deadline=None)
    @given(run=small_runs(), seed=st.integers(0, 2**16))
    def test_a_run_equals_its_increments_on_fresh_buffers(self, run, seed):
        # The run's one set of training buffers against fresh buffers for
        # every train_model call (run_increment without ``buffers``).
        train, test, schedule, config = run
        records = run_experiment(train, test, schedule, config, seed)
        assert len(records) == len(schedule)
        assert all(np.isfinite(v).all() for r in records for v in r.trace.values())
        state = IncrementState()
        for phase, group in enumerate(schedule):
            state = run_increment(state, subset_by_classes(train, group), test, config,
                                  _phase_seed(seed, phase))
        assert [replace(r, seconds=0.0) for r in records] == [
            replace(r, seconds=0.0) for r in state.history
        ]


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
