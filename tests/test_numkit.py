"""Array ops, gradient rules, the parameter tape, and optimizer behavior."""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
import tracemalloc
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from numpy.testing import assert_allclose

import clare.numkit as nk
from clare import kernels
from clare.model import ClareModel
from conftest import step_on
from oracles import adam_oracle, finite_difference, sigmoid_bwd

FD_TOL = 1e-5
SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def _rel_err(got: np.ndarray, want: np.ndarray) -> float:
    denom = max(float(np.max(np.abs(want))), 1.0)
    return float(np.max(np.abs(got - want))) / denom


MINI = dict(class_no=2, d_z=2, input_dim=6, enc_hidden=(8, 7), dec_hidden=(7, 8))


def _mini_step(seed: int, **params):
    """A seeded mini model and batch; ``params`` overwrite named tensors."""
    rng = np.random.default_rng(seed)
    model = ClareModel(rng=rng, **MINI)
    for name, value in params.items():
        model.tape.param(name)[...] = value
    x = rng.uniform(size=(5, 6))
    labels = np.array([0, 1, 1, 0, 1])
    noise = rng.standard_normal((5, 2))
    return model, lambda: step_on(model, x, labels, noise)["total"]


class TestGradients:
    """Each gradient rule the training step uses, against central differences."""

    def _check(self, tape, loss, analytic, names=None, tol=FD_TOL):
        numeric = finite_difference(loss, tape, names)
        for name in names if names is not None else tape.names():
            err = _rel_err(analytic[name], numeric[name])
            assert err <= tol, f"{name}: rel err {err:.3g}"

    def _tape(self, rng, **shapes):
        tape = nk.ParamTape(shapes.items())
        for name, shape in shapes.items():
            tape.param(name)[...] = rng.standard_normal(shape)
        return tape

    def _linear_grads(self, tape, g, x):
        dw, db = np.empty_like(tape.param("w")), np.empty_like(tape.param("b"))
        nk.linear_backward(g, x, tape.param("w"), dw, db)
        return {"w": dw, "b": db}

    def test_linear_relu_chain(self):
        rng = np.random.default_rng(1)
        tape = self._tape(rng, w=(3, 4), b=(3,))
        x = rng.standard_normal((5, 4))

        def loss():
            pre = x @ tape.param("w").T + tape.param("b")
            return float(np.mean(kernels.relu_fwd(pre)))

        pre = x @ tape.param("w").T + tape.param("b")
        # The training step's ReLU mask rule: gradient passes where pre > 0.
        g = np.where(pre > 0, 1.0 / pre.size, 0.0)
        self._check(tape, loss, self._linear_grads(tape, g, x))

    def test_sigmoid(self):
        rng = np.random.default_rng(2)
        tape = self._tape(rng, p=(4, 3))

        def loss():
            return float(np.sum(kernels.sigmoid_fwd(tape.param("p"))))

        y = kernels.sigmoid_fwd(tape.param("p"))
        self._check(tape, loss, {"p": sigmoid_bwd(np.ones_like(y), y)})

    def test_concat_columns_routes_both_sides(self):
        # The step never concatenates [input, one-hot]: it adds the condition
        # column instead. Both column blocks of each first-layer weight must
        # still get the gradient the concatenated layer would.
        model, loss = _mini_step(3)
        loss()
        analytic = {n: model.tape.grad(n).copy() for n in ("enc_w1", "dec_w1")}
        self._check(model.tape, loss, analytic, names=("enc_w1", "dec_w1"))
        assert analytic["enc_w1"][:, :6].any() and analytic["enc_w1"][:, 6:].any()
        assert analytic["dec_w1"][:, :2].any() and analytic["dec_w1"][:, 2:].any()

    def test_clip_interior_points(self):
        # FD is only valid away from the clip boundaries, so keep values inside.
        model, loss = _mini_step(4, enc_blv=[0.5, -0.5])
        loss()
        analytic = {n: model.tape.grad(n).copy() for n in ("enc_wlv", "enc_blv")}
        assert analytic["enc_blv"].all()
        self._check(model.tape, loss, analytic, names=("enc_wlv", "enc_blv"))

    def test_clip_blocks_gradient_outside_range(self):
        model, loss = _mini_step(4, enc_blv=[30.0, -30.0])
        loss()
        assert not model.tape.grad("enc_wlv").any()
        assert not model.tape.grad("enc_blv").any()
        assert model.tape.grad("enc_wmu").any()

    def test_reparameterize_draw(self):
        rng = np.random.default_rng(5)
        tape = self._tape(rng, mu=(4, 3), lv=(4, 3))
        noise = rng.standard_normal((4, 3))
        w = rng.standard_normal((4, 3))

        def loss():
            return float(np.sum(w * kernels.reparam_fwd(tape.param("mu"), tape.param("lv"), noise)))

        analytic = {"mu": w, "lv": kernels.reparam_dlv(w, tape.param("lv"), noise)}
        self._check(tape, loss, analytic)

    def test_kl_to_standard_normal(self):
        rng = np.random.default_rng(6)
        tape = self._tape(rng, mu=(5, 2), lv=(5, 2))

        def loss():
            return kernels.kl_terms(tape.param("mu"), tape.param("lv"))[0]

        _, dmu, dlv = kernels.kl_terms(tape.param("mu"), tape.param("lv"))
        self._check(tape, loss, {"mu": dmu, "lv": dlv})

    def test_softmax_cross_entropy(self):
        rng = np.random.default_rng(7)
        tape = self._tape(rng, logits=(9, 4))
        labels = rng.integers(0, 4, size=9)

        def loss():
            return kernels.softmax_xent(tape.param("logits"), labels)[0]

        self._check(tape, loss, {"logits": kernels.softmax_xent(tape.param("logits"), labels)[1]})

    def test_bce_with_logits(self):
        rng = np.random.default_rng(8)
        tape = self._tape(rng, logits=(6, 5))
        tape.param("logits")[0, :2] = [40.0, -40.0]
        targets = rng.uniform(0, 1, size=(6, 5))

        def loss():
            return kernels.bce_logits(tape.param("logits"), targets)[0]

        self._check(tape, loss, {"logits": kernels.bce_logits(tape.param("logits"), targets)[1]})

    def test_sum_of_affine_outer_product_by_hand(self):
        # loss = sum(x @ W.T + b): dW stacks x's row once per output, db is ones.
        w = np.array([[0.3, -0.7], [1.1, 0.4]])
        x = np.array([[2.0, 5.0]])
        dw, db, dx = np.empty((2, 2)), np.empty(2), np.empty((1, 2))
        nk.linear_backward(np.ones((1, 2)), x, w, dw, db, dx)
        assert_allclose(dw, [[2.0, 5.0], [2.0, 5.0]], rtol=0, atol=0)
        assert_allclose(db, [1.0, 1.0], rtol=0, atol=0)
        assert_allclose(dx, [[1.4, -0.3]], rtol=1e-15)

    def test_cross_entropy_at_zero_weights_is_nonzero(self):
        # Uniform predictions still disagree with one-hot labels, so learning
        # must be able to start from an all-zero classifier.
        model, loss = _mini_step(9, cls_w=0.0)
        loss()
        g = model.tape.grad("cls_w")
        assert np.isfinite(g).all()
        assert np.abs(g).max() > 0.0

    def test_gradients_are_assigned_not_accumulated(self):
        model, loss = _mini_step(10)
        model.tape.flat_grads[...] = np.nan
        loss()
        first = model.tape.flat_grads.copy()
        assert np.isfinite(first).all()
        loss()
        assert np.array_equal(model.tape.flat_grads, first)
        assert model.tape.populated


def _tape_holding(value) -> nk.ParamTape:
    """A tape with the single parameter ``p`` set to ``value``."""
    tape = nk.ParamTape([("p", np.shape(value))])
    tape.param("p")[...] = value
    return tape


def _set_quadratic_grad(tape: nk.ParamTape) -> None:
    """Gradient of (p - 3)^2, as the step would leave it."""
    tape.grad("p")[...] = 2.0 * (tape.param("p") - 3.0)
    tape.populated = True


class TestOptimizers:
    @pytest.mark.parametrize("g", [0.001, 5.0, -37.0])
    def test_adam_first_step_has_lr_magnitude(self, g):
        tape = _tape_holding([[0.0]])
        tape.grad("p")[...] = g
        tape.populated = True
        nk.optimizer_step(tape, nk.OptimizerState(0.01))
        step = tape.param("p")[0, 0]
        assert step == pytest.approx(-np.sign(g) * 0.01, rel=1e-4)

    def test_adam_converges_on_quadratic(self):
        tape = _tape_holding([[0.0]])
        state = nk.OptimizerState(0.1)
        for _ in range(100):
            _set_quadratic_grad(tape)
            nk.optimizer_step(tape, state)
        assert tape.param("p")[0, 0] == pytest.approx(3.0, abs=0.05)

    def test_step_before_backward_rejected(self):
        tape = _tape_holding(np.ones(3))
        with pytest.raises(RuntimeError, match="before backward"):
            nk.optimizer_step(tape, nk.OptimizerState(0.1))

    def test_second_update_needs_fresh_gradients(self):
        tape = _tape_holding(np.ones((1, 1)))
        _set_quadratic_grad(tape)
        state = nk.OptimizerState(0.1)
        nk.optimizer_step(tape, state)
        with pytest.raises(RuntimeError, match="before backward"):
            nk.optimizer_step(tape, state)

    def test_moments_sized_up_front_serve_a_shorter_tape(self):
        # The first step sizes the moments by the tape's capacity; the tape
        # uses the leading entries, and a restart starts from zero moments
        # again, with the same memory, as does a shorter tape after it.
        state = nk.OptimizerState(0.1)
        got = nk.ParamTape([("p", (3,))], capacity=5)
        got.param("p")[...] = 1.0
        want = _tape_holding(np.ones(3))
        moments = None
        for _ in range(2):
            fresh = nk.OptimizerState(0.1)
            for tape, s in ((got, state), (want, fresh)):
                _set_quadratic_grad(tape)
                nk.optimizer_step(tape, s)
            moments = moments or (state.m, state.v)
            assert state.m.size == state.v.size == 5
            assert np.array_equal(got.flat_params, want.flat_params)
            assert np.array_equal(state.m[:3], fresh.m)
            assert np.array_equal(state.v[:3], fresh.v)
            state.restart(0.1)
            assert state.step == 0
        shorter = _tape_holding(np.ones(2))
        _set_quadratic_grad(shorter)
        nk.optimizer_step(shorter, state)
        assert state.m is moments[0] and state.v is moments[1]

    def test_a_longer_tape_gets_new_moments(self):
        state = nk.OptimizerState(0.1)
        for size in (2, 3):
            tape = _tape_holding(np.ones(size))
            _set_quadratic_grad(tape)
            nk.optimizer_step(tape, state)
            assert state.m.size == state.v.size == size
            assert np.isfinite(tape.flat_params).all()

    def test_state_takes_no_moment_size(self):
        # The moments are sized by the first tape they serve.
        with pytest.raises(TypeError):
            nk.OptimizerState(0.1, size=5)
        assert nk.OptimizerState(0.1).m is None

    def test_restart_checks_the_learning_rate(self):
        state = nk.OptimizerState(0.1)
        with pytest.raises(ValueError, match="finite and positive"):
            state.restart(float("nan"))

    def test_state_takes_only_a_learning_rate(self):
        # Adam is the only optimizer, so there is no kind to pass.
        with pytest.raises(TypeError):
            nk.OptimizerState("adam", 0.1)

    def test_bad_optimizer_settings_rejected(self):
        with pytest.raises(ValueError):
            nk.OptimizerState(0.0)

    @pytest.mark.parametrize("lr", [float("nan"), float("inf")])
    def test_non_finite_learning_rate_rejected(self, lr):
        with pytest.raises(ValueError, match="finite and positive"):
            nk.OptimizerState(lr)


class TestTapeContracts:
    def test_duplicate_name_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            nk.ParamTape([("w", (2,)), ("b", (2,)), ("w", (2,))])

    def test_unknown_leaf_rejected(self):
        tape = nk.ParamTape()
        with pytest.raises(KeyError):
            tape.param("nope")
        with pytest.raises(KeyError):
            tape.grad("nope")

    def test_capacity_is_the_size_of_each_flat_allocation(self):
        tape = nk.ParamTape([("w", (2, 3)), ("b", (2,))], capacity=20)
        assert tape.capacity == 20
        for flat in (tape.flat_params, tape.flat_grads):
            assert flat.size == 8 and flat.base.size == 20
            assert not flat.any()
        # A capacity below the tape's size is the size.
        assert nk.ParamTape([("w", (2, 3))], capacity=4).capacity == 6

    def test_params_stored_as_float64(self):
        tape = nk.ParamTape([("w", (2, 2))])
        tape.param("w")[...] = np.ones((2, 2), dtype=np.float32)
        assert tape.param("w").dtype == np.float64
        assert tape.flat_params.dtype == np.float64


# Shapes whose flat length spans several Adam blocks and ends in a ragged tail.
FLAT_SHAPES = [
    ("w1", (kernels.BLOCK // 64 + 3, 97)),
    ("b1", (kernels.BLOCK + 5,)),
    ("w2", (7, kernels.BLOCK // 4 + 1)),
    ("b2", (3,)),
]


def _flat_tape(seed: int = 0) -> nk.ParamTape:
    rng = np.random.default_rng(seed)
    tape = nk.ParamTape(FLAT_SHAPES)
    tape.flat_params[...] = rng.standard_normal(tape.flat_params.size)
    return tape


class TestFlatStore:
    def test_views_share_the_flat_buffers(self):
        tape = _flat_tape()
        assert tape.flat_params.size == sum(int(np.prod(s)) for _, s in FLAT_SHAPES)
        for name, shape in FLAT_SHAPES:
            assert tape.param(name).shape == shape
            assert tape.grad(name).shape == shape
            assert np.shares_memory(tape.param(name), tape.flat_params), name
            assert np.shares_memory(tape.grad(name), tape.flat_grads), name
        tape.grad("b2")[...] = 4.0
        assert np.array_equal(tape.flat_grads[-3:], [4.0, 4.0, 4.0])

    def test_flat_adam_is_bit_equal_to_the_per_tensor_formula(self):
        rng = np.random.default_rng(3)
        tape = _flat_tape(3)
        state = nk.OptimizerState(1e-3)
        want = {
            name: (tape.param(name).copy(), np.zeros(shape), np.zeros(shape))
            for name, shape in FLAT_SHAPES
        }
        for t in (1, 2, 3):
            scale = 10.0 ** rng.integers(-8, 3, tape.flat_grads.size)
            tape.flat_grads[...] = rng.standard_normal(tape.flat_grads.size) * scale
            tape.populated = True
            nk.optimizer_step(tape, state)
            for name, (p, m, v) in want.items():
                want[name] = adam_oracle(
                    p, tape.grad(name), m, v, t, 1e-3,
                    nk.OptimizerState.BETA1, nk.OptimizerState.BETA2, nk.OptimizerState.EPS,
                )
                assert np.array_equal(tape.param(name), want[name][0]), (t, name)
        assert state.m.shape == state.v.shape == tape.flat_params.shape
        moments = [np.concatenate([want[n][k].ravel() for n, _ in FLAT_SHAPES]) for k in (1, 2)]
        assert np.array_equal(state.m, moments[0])
        assert np.array_equal(state.v, moments[1])

    def test_adam_kernel_makes_no_full_size_temporary(self):
        rng = np.random.default_rng(8)
        n = 3 * kernels.BLOCK + 77
        p, g = rng.standard_normal(n), rng.standard_normal(n)
        m, v = rng.standard_normal(n), rng.uniform(size=n)
        b1, b2, eps = nk.OptimizerState.BETA1, nk.OptimizerState.BETA2, nk.OptimizerState.EPS
        want_m = m * b1 + (1.0 - b1) * g
        want_v = v * b2 + ((1.0 - b2) * g) * g
        want_p = p - (0.5 * (want_m / (1.0 - b1**3))) / (np.sqrt(want_v / (1.0 - b2**3)) + eps)
        scratch = np.empty((2, kernels.BLOCK))
        tracemalloc.start()
        try:
            finite = kernels.adam_step(p, g, m, v, 3, 0.5, b1, b2, eps, scratch)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert finite
        assert np.array_equal(m, want_m)
        assert np.array_equal(v, want_v)
        assert np.array_equal(p, want_p)
        assert peak < p.nbytes // 16, f"peak {peak} bytes"

    def test_one_finite_check_per_buffer(self, monkeypatch):
        # Every scan reads a slice of one flat buffer. Gradients are scanned
        # before the update and parameters and Adam's second moment during
        # it; at each worker count the slices of each buffer cover it
        # exactly once, and nothing else is scanned.
        real = kernels.all_finite
        for workers in (1, 2):
            tape = _flat_tape(4)
            state = nk.OptimizerState(1e-3)
            tape.flat_grads[...] = 1.0
            tape.populated = True
            state.m, state.v = np.zeros_like(tape.flat_params), np.zeros_like(tape.flat_params)
            buffers = {"grads": tape.flat_grads, "params": tape.flat_params, "v": state.v}
            scanned = {name: [] for name in buffers}

            def spy(x, row):
                (name,) = [k for k, buf in buffers.items() if np.shares_memory(x, buf)]
                start = (x.ctypes.data - buffers[name].ctypes.data) // x.itemsize
                scanned[name].append((start, start + x.size))
                return real(x, row)

            monkeypatch.setattr(kernels, "all_finite", spy)
            nk.optimizer_step(tape, state, _workers=workers)
            monkeypatch.setattr(kernels, "all_finite", real)
            for name, spans in scanned.items():
                spans.sort()
                ends = [0] + [stop for _, stop in spans]
                assert [start for start, _ in spans] == ends[:-1], (workers, name)
                assert ends[-1] == tape.flat_params.size, (workers, name)
            # Before anything moves, one scan per worker covers the gradients.
            assert len(scanned["grads"]) == workers

    def test_nan_in_last_gradient_is_named(self):
        tape = _flat_tape(5)
        tape.grad("b2")[2] = np.nan
        tape.populated = True
        with pytest.raises(nk.NonFiniteError, match=r"^non-finite value in gradient of 'b2'$"):
            nk.optimizer_step(tape, nk.OptimizerState(1e-3))

    def test_nan_in_parameter_buffer_is_named(self):
        tape = _flat_tape(6)
        tape.param("w2")[6, -1] = np.inf
        tape.populated = True
        with pytest.raises(nk.NonFiniteError, match=r"^non-finite value in parameter 'w2'$"):
            nk.optimizer_step(tape, nk.OptimizerState(1e-3))


def _run_steps(workers: int, steps: int = 3):
    """Seeded steps on a flat tape; returns the tape and optimizer state."""
    rng = np.random.default_rng(11)
    tape = _flat_tape(11)
    state = nk.OptimizerState(1e-3)
    for _ in range(steps):
        scale = 10.0 ** rng.integers(-8, 3, tape.flat_grads.size)
        tape.flat_grads[...] = rng.standard_normal(tape.flat_grads.size) * scale
        tape.populated = True
        nk.optimizer_step(tape, state, _workers=workers)
    return tape, state


class TestSplitOptimizer:
    """The optimizer's passes cut into one part per worker."""

    def test_flat_tape_is_split_but_not_a_whole_number_of_blocks(self):
        size = _flat_tape().flat_params.size
        assert size >= nk.SPLIT_MIN and size % kernels.BLOCK

    @pytest.mark.parametrize("workers", [1, 2])
    def test_adam_matches_the_oracle_at_each_worker_count(self, workers):
        tape, state = _run_steps(workers)
        ref = nk.ParamTape(FLAT_SHAPES)
        ref.flat_params[...] = _flat_tape(11).flat_params
        p, m, v = ref.flat_params, np.zeros_like(ref.flat_params), np.zeros_like(ref.flat_params)
        rng = np.random.default_rng(11)
        for t in (1, 2, 3):
            scale = 10.0 ** rng.integers(-8, 3, p.size)
            g = rng.standard_normal(p.size) * scale
            p, m, v = adam_oracle(
                p, g, m, v, t, 1e-3,
                nk.OptimizerState.BETA1, nk.OptimizerState.BETA2, nk.OptimizerState.EPS,
            )
        assert np.array_equal(tape.flat_params, p)
        assert np.array_equal(state.m, m)
        assert np.array_equal(state.v, v)
        assert state.scratch.shape == (2 * workers, kernels.BLOCK)

    def test_results_do_not_depend_on_the_worker_count(self):
        one, two, default = (_run_steps(w) for w in (1, 2, None))
        for tape, state in (two, default):
            assert np.array_equal(tape.flat_params, one[0].flat_params)
            assert np.array_equal(state.m, one[1].m)
            assert np.array_equal(state.v, one[1].v)

    def test_more_parts_than_cores_under_fast_thread_switching(self):
        # Parts beyond the pool's threads queue up; each writes only its own
        # slice, so no interleaving can change a bit.
        want = _run_steps(1, steps=4)[0].flat_params
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            got = _run_steps(5, steps=4)[0].flat_params
        finally:
            sys.setswitchinterval(interval)
        assert np.array_equal(got, want)

    def test_parts_are_cut_at_a_block_boundary(self, monkeypatch):
        sizes = []
        real = kernels.adam_step
        monkeypatch.setattr(
            kernels, "adam_step", lambda p, *args: (sizes.append(p.size), real(p, *args))[1]
        )
        _run_steps(2, steps=1)
        assert len(sizes) == 2 and sum(sizes) == _flat_tape().flat_params.size
        assert sizes[0] % kernels.BLOCK == 0

    @pytest.mark.parametrize("workers", [1, 2])
    def test_nan_gradient_in_the_second_half_is_named_and_moves_nothing(self, workers):
        tape = _flat_tape(12)
        before = tape.flat_params.copy()
        tape.grad("w2")[5, 9] = np.nan
        tape.populated = True
        state = nk.OptimizerState(1e-3)
        with pytest.raises(nk.NonFiniteError, match=r"^non-finite value in gradient of 'w2'$"):
            nk.optimizer_step(tape, state, _workers=workers)
        assert np.array_equal(tape.flat_params, before)
        assert state.step == 0 and state.m is None

    @pytest.mark.parametrize("workers", [1, 2])
    def test_bad_parameter_in_the_second_half_is_named(self, workers):
        tape = _flat_tape(13)
        tape.param("w2")[0, 0] = -np.inf
        tape.populated = True
        with pytest.raises(nk.NonFiniteError, match=r"^non-finite value in parameter 'w2'$"):
            nk.optimizer_step(tape, nk.OptimizerState(1e-3), _workers=workers)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("workers", [1, 2])
    def test_overflowing_second_moment_is_named(self, workers):
        # (1 - beta2) * g * g overflows for |g| near 1e160 while g itself
        # and the parameter update stay finite.
        tape = _flat_tape(14)
        tape.flat_grads[...] = 1.0
        tape.grad("b1")[7] = 1e160
        tape.populated = True
        state = nk.OptimizerState(1e-3)
        with pytest.raises(
            nk.NonFiniteError, match=r"^non-finite value in Adam second moment of 'b1'$"
        ):
            nk.optimizer_step(tape, state, _workers=workers)
        assert np.isfinite(tape.flat_params).all()

    def test_toy_sized_tape_never_starts_the_pool(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("a toy-sized tape reached the pool or BLAS")

        for name in ("workers", "_openblas_libraries"):
            monkeypatch.setattr(kernels, name, refuse)
        model, loss = _mini_step(15)
        assert model.tape.flat_params.size < nk.SPLIT_MIN
        state = nk.OptimizerState(1e-2)
        for _ in range(3):
            loss()
            nk.optimizer_step(model.tape, state)
        assert state.scratch.shape == (2, model.tape.flat_params.size)

    def test_one_usable_core_means_one_worker(self, monkeypatch):
        monkeypatch.setattr(kernels, "_workers", 0)
        monkeypatch.setattr(kernels, "_pool", None)
        monkeypatch.setattr(kernels.os, "sched_getaffinity", lambda pid: {0})
        monkeypatch.setattr(kernels, "_openblas_libraries", lambda: pytest.fail("BLAS touched"))
        assert kernels.workers() == 1
        assert kernels._pool is None
        tape, state = _run_steps(None)
        assert state.scratch.shape == (2, kernels.BLOCK)
        assert np.array_equal(tape.flat_params, _run_steps(1)[0].flat_params)

    def test_no_openblas_to_stop_means_one_worker(self, monkeypatch):
        monkeypatch.setattr(kernels, "_workers", 0)
        monkeypatch.setattr(kernels, "_pool", None)
        monkeypatch.setattr(kernels.os, "sched_getaffinity", lambda pid: {0, 1})
        monkeypatch.setattr(kernels, "_openblas_libraries", lambda: [])
        assert kernels.workers() == 1
        assert kernels._pool is None

    def test_fork_join_returns_in_order_and_waits_for_every_part(self, monkeypatch):
        # A pool with one thread, as on two cores, whatever this machine has.
        pool = ThreadPoolExecutor(1)
        stops = []

        class Blas:
            def blas_thread_shutdown_(self):
                stops.append(1)

        monkeypatch.setattr(kernels, "_workers", 2)
        monkeypatch.setattr(kernels, "_pool", pool)
        monkeypatch.setattr(kernels, "_blas", [Blas()])
        finished = []

        def part(k):
            if k == 0:
                raise ValueError("first part failed")
            time.sleep(0.05)
            finished.append(k)

        try:
            assert kernels.fork_join(lambda k: k * k, [1, 2, 3]) == [1, 4, 9]
            with pytest.raises(ValueError, match="first part failed"):
                kernels.fork_join(part, [0, 1, 2])
            assert sorted(finished) == [1, 2]
            # BLAS threads are stopped once per pass on the pool, and a pass
            # of one part leaves them alone.
            assert len(stops) == 2
            assert kernels.fork_join(lambda k: k, [5]) == [5]
            assert len(stops) == 2
        finally:
            pool.shutdown()

    def test_forked_child_starts_its_own_pool(self):
        want = _run_steps(1, steps=1)[0].flat_params
        _run_steps(2, steps=1)  # the parent's pool is running
        with warnings.catch_warnings():
            # Python 3.12 warns about forking a process that has threads.
            warnings.simplefilter("ignore", DeprecationWarning)
            pid = os.fork()
        if pid == 0:
            try:
                got = _run_steps(2, steps=1)[0].flat_params
                os._exit(0 if np.array_equal(got, want) else 1)
            finally:
                os._exit(2)
        deadline = time.monotonic() + 60.0
        while (done := os.waitpid(pid, os.WNOHANG)) == (0, 0):
            if time.monotonic() > deadline:
                os.kill(pid, 9)
                os.waitpid(pid, 0)
                pytest.fail("the forked child hung in the optimizer step")
            time.sleep(0.05)
        assert os.waitstatus_to_exitcode(done[1]) == 0

    def test_stopped_blas_threads_restart_with_the_next_product(self):
        # In a fresh process: a threaded product starts OpenBLAS's threads,
        # stopping them ends those threads, and the next product starts them
        # again with the same result.
        script = (
            "import json, os, numpy as np\n"
            "from clare import kernels\n"
            "threads = lambda: len(os.listdir('/proc/self/task'))\n"
            "a = np.random.default_rng(0).standard_normal((512, 512))\n"
            "want = a @ a\n"
            "before = threads()\n"
            "libs = kernels._openblas_libraries()\n"
            "for lib in libs:\n"
            "    lib.blas_thread_shutdown_()\n"
            "stopped = threads()\n"
            "same = bool(np.array_equal(a @ a, want))\n"
            "print(json.dumps([len(libs), before, stopped, threads(), same]))\n"
        )
        env = {k: v for k, v in os.environ.items() if not k.endswith("_NUM_THREADS")}
        env["PYTHONPATH"] = os.pathsep.join([SRC, env.get("PYTHONPATH", "")])
        done = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True
        )
        libs, before, stopped, after, same = json.loads(done.stdout)
        assert same
        assert after == before
        assert stopped <= before
        if libs and len(os.sched_getaffinity(0)) > 1:
            assert stopped < before


class TestNonFinite:
    def test_nan_gradient_is_a_hard_error(self):
        tape = _tape_holding([[1.0]])
        tape.grad("p")[...] = np.nan
        tape.populated = True
        with pytest.raises(nk.NonFiniteError):
            nk.optimizer_step(tape, nk.OptimizerState(0.1))
        assert tape.param("p")[0, 0] == 1.0

    def test_optimizer_checks_gradients(self):
        tape = _tape_holding([1.0])
        tape.grad("p")[0] = np.inf
        tape.populated = True
        with pytest.raises(nk.NonFiniteError):
            nk.optimizer_step(tape, nk.OptimizerState(0.1))


class TestDeterminism:
    def _train_once(self) -> np.ndarray:
        model, loss = _mini_step(123)
        state = nk.OptimizerState(1e-2)
        for _ in range(5):
            loss()
            nk.optimizer_step(model.tape, state)
        return model.tape.flat_params.copy()

    def test_same_seed_same_bits(self):
        assert np.array_equal(self._train_once(), self._train_once())


class TestInitializer:
    def test_glorot_bound(self):
        rng = np.random.default_rng(0)
        w = np.empty((300, 100))
        nk.glorot_uniform(rng, w)
        a = np.sqrt(6.0 / 400.0)
        assert np.abs(w).max() <= a
        # A uniform(-a, a) sample this large lands near zero mean.
        assert abs(w.mean()) < a / 10.0

    @pytest.mark.parametrize("shape", [(512, 794), (784, 512), (64, 256), (10, 64)])
    def test_in_place_draw_equals_numpy_uniform(self, shape):
        a = np.sqrt(6.0 / sum(shape))
        w = np.empty(shape)
        nk.glorot_uniform(np.random.default_rng(3), w)
        assert np.array_equal(w, np.random.default_rng(3).uniform(-a, a, shape))


class TestActivationProperties:
    def test_sigmoid_of_zero(self):
        assert kernels.sigmoid_fwd(np.zeros((1, 1)))[0, 0] == 0.5

    def test_softmax_huge_logit_stable(self):
        p = kernels.softmax_rows(np.array([[1000.0, 0.0]]))
        assert np.isfinite(p).all()
        assert p[0, 0] == pytest.approx(1.0, abs=1e-12)

    @settings(max_examples=50, deadline=None)
    @given(
        hnp.arrays(
            np.float64,
            hnp.array_shapes(min_dims=2, max_dims=2, min_side=1, max_side=6),
            elements=st.floats(-50, 50),
        )
    )
    def test_softmax_rows_are_distributions(self, x):
        p = kernels.softmax_rows(x)
        assert ((p > 0) & (p <= 1)).all()
        assert_allclose(p.sum(axis=1), 1.0, atol=1e-12)

    @settings(max_examples=50, deadline=None)
    @given(
        hnp.arrays(np.float64, (3, 4), elements=st.floats(-30, 30)),
        st.floats(-100, 100),
    )
    def test_softmax_shift_invariance(self, x, c):
        assert_allclose(kernels.softmax_rows(x + c), kernels.softmax_rows(x), atol=1e-9)

    @settings(max_examples=50, deadline=None)
    @given(
        hnp.arrays(
            np.float64,
            hnp.array_shapes(min_dims=2, max_dims=2, min_side=1, max_side=8),
            elements=st.floats(allow_nan=False, allow_infinity=False, width=32),
        )
    )
    def test_relu_is_pointwise_max(self, x):
        assert_allclose(kernels.relu_fwd(x), np.maximum(x, 0.0), rtol=0, atol=0)
