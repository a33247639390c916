"""Autodiff graph, tape, and optimizer behavior."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from numpy.testing import assert_allclose

import clare.numkit as nk
from clare import kernels
from oracles import adam_oracle, finite_difference, linear_oracle

FD_TOL = 1e-5


def _rel_err(got: np.ndarray, want: np.ndarray) -> float:
    denom = max(float(np.max(np.abs(want))), 1.0)
    return float(np.max(np.abs(got - want))) / denom


class TestLinearForward:
    def test_hand_example(self):
        w = np.array([[1.0, 1.0], [1.0, -1.0]])
        b = np.array([0.5, 0.0])
        x = np.array([[2.0, 3.0]])
        assert_allclose(nk.linear_forward(w, b, x), [[5.5, -1.0]], rtol=0, atol=0)

    def test_identity_passthrough(self):
        x = np.random.default_rng(0).standard_normal((4, 3))
        y = nk.linear_forward(np.eye(3), np.zeros(3), x)
        assert_allclose(y, x, rtol=0, atol=0)

    def test_matches_triple_loop_oracle(self):
        rng = np.random.default_rng(7)
        for n, d_in, d_out in [(1, 1, 1), (3, 5, 2), (8, 4, 9)]:
            w = rng.standard_normal((d_out, d_in))
            b = rng.standard_normal(d_out)
            x = rng.standard_normal((n, d_in))
            assert_allclose(nk.linear_forward(w, b, x), linear_oracle(w, b, x), rtol=1e-13)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            nk.linear_forward(np.ones((2, 3)), np.ones(2), np.ones((4, 5)))
        with pytest.raises(ValueError):
            nk.linear_forward(np.ones((2, 3)), np.ones(4), np.ones((4, 3)))


class TestGradients:
    """Every op's backward against central finite differences."""

    def _check(self, tape, build, tol=FD_TOL):
        loss = build()
        tape.zero_grads()
        nk.backward(loss, tape)
        analytic = {name: tape.grad(name).copy() for name in tape.names()}
        numeric = finite_difference(lambda: float(np.asarray(build().value)), tape)
        for name in tape.names():
            err = _rel_err(analytic[name], numeric[name])
            assert err <= tol, f"{name}: rel err {err:.3g}"

    def test_linear_relu_chain(self):
        rng = np.random.default_rng(1)
        tape = nk.ParamTape()
        tape.add("w", rng.standard_normal((3, 4)))
        tape.add("b", rng.standard_normal(3))
        x = rng.standard_normal((5, 4))

        def build():
            y = nk.relu(nk.linear_forward(tape.leaf("w"), tape.leaf("b"), nk.constant(x)))
            return nk.scale(nk.sum_all(y), 1.0 / y.value.size)

        self._check(tape, build)

    def test_sigmoid(self):
        rng = np.random.default_rng(2)
        tape = nk.ParamTape()
        tape.add("w", rng.standard_normal((2, 3)))
        x = rng.standard_normal((4, 3))

        def build():
            y = nk.sigmoid(nk.linear_forward(tape.leaf("w"), nk.constant(np.zeros(2)), nk.constant(x)))
            return nk.sum_all(y)

        self._check(tape, build)

    def test_concat_columns_routes_both_sides(self):
        rng = np.random.default_rng(3)
        tape = nk.ParamTape()
        tape.add("a", rng.standard_normal((3, 2)))
        tape.add("b", rng.standard_normal((3, 4)))

        def build():
            joined = nk.concat_columns(tape.leaf("a"), tape.leaf("b"))
            return nk.sum_all(nk.sigmoid(joined))

        self._check(tape, build)

    def test_clip_interior_points(self):
        # FD is only valid away from the clip boundaries, so keep values inside.
        rng = np.random.default_rng(4)
        tape = nk.ParamTape()
        tape.add("p", rng.uniform(-0.5, 0.5, size=(3, 3)))

        def build():
            return nk.sum_all(nk.sigmoid(nk.clip(tape.leaf("p"), -1.0, 1.0)))

        self._check(tape, build)

    def test_clip_blocks_gradient_outside_range(self):
        tape = nk.ParamTape()
        tape.add("p", np.array([[5.0, -5.0, 0.2]]))
        loss = nk.sum_all(nk.clip(tape.leaf("p"), -1.0, 1.0))
        nk.backward(loss, tape)
        assert_allclose(tape.grad("p"), [[0.0, 0.0, 1.0]], rtol=0, atol=0)

    def test_reparameterize_draw(self):
        rng = np.random.default_rng(5)
        tape = nk.ParamTape()
        tape.add("mu", rng.standard_normal((4, 3)))
        tape.add("lv", rng.uniform(-1, 1, size=(4, 3)))
        noise = rng.standard_normal((4, 3))

        def build():
            z = nk.reparameterize_draw(tape.leaf("mu"), tape.leaf("lv"), noise)
            return nk.sum_all(nk.sigmoid(z))

        self._check(tape, build)

    def test_kl_to_standard_normal(self):
        rng = np.random.default_rng(6)
        tape = nk.ParamTape()
        tape.add("mu", rng.standard_normal((5, 2)))
        tape.add("lv", rng.uniform(-2, 2, size=(5, 2)))

        def build():
            return nk.kl_to_standard_normal(tape.leaf("mu"), tape.leaf("lv"))

        self._check(tape, build)

    def test_softmax_cross_entropy(self):
        rng = np.random.default_rng(7)
        tape = nk.ParamTape()
        tape.add("w", rng.standard_normal((4, 6)))
        x = rng.standard_normal((9, 6))
        labels = rng.integers(0, 4, size=9)

        def build():
            logits = nk.linear_forward(tape.leaf("w"), nk.constant(np.zeros(4)), nk.constant(x))
            return nk.softmax_cross_entropy(logits, labels)

        self._check(tape, build)

    def test_bce_with_logits(self):
        rng = np.random.default_rng(8)
        tape = nk.ParamTape()
        tape.add("w", rng.standard_normal((5, 3)))
        x = rng.standard_normal((6, 3))
        targets = rng.uniform(0, 1, size=(6, 5))

        def build():
            logits = nk.linear_forward(tape.leaf("w"), nk.constant(np.zeros(5)), nk.constant(x))
            return nk.bce_with_logits(logits, targets)

        self._check(tape, build)

    def test_sum_of_affine_outer_product_by_hand(self):
        # loss = sum(x @ W.T + b): dW stacks x's row once per output, db is ones.
        tape = nk.ParamTape()
        tape.add("w", np.array([[0.3, -0.7], [1.1, 0.4]]))
        tape.add("b", np.array([0.0, 0.0]))
        x = np.array([[2.0, 5.0]])
        loss = nk.sum_all(nk.linear_forward(tape.leaf("w"), tape.leaf("b"), nk.constant(x)))
        nk.backward(loss, tape)
        assert_allclose(tape.grad("w"), [[2.0, 5.0], [2.0, 5.0]], rtol=0, atol=0)
        assert_allclose(tape.grad("b"), [1.0, 1.0], rtol=0, atol=0)

    def test_cross_entropy_at_zero_weights_is_nonzero(self):
        # Uniform predictions still disagree with one-hot labels, so learning
        # must be able to start from an all-zero classifier.
        tape = nk.ParamTape()
        tape.add("w", np.zeros((3, 4)))
        x = np.random.default_rng(9).standard_normal((6, 4))
        labels = np.array([0, 1, 2, 0, 1, 2])
        logits = nk.linear_forward(tape.leaf("w"), nk.constant(np.zeros(3)), nk.constant(x))
        loss = nk.softmax_cross_entropy(logits, labels)
        nk.backward(loss, tape)
        g = tape.grad("w")
        assert np.isfinite(g).all()
        assert np.abs(g).max() > 0.0

    def test_constant_branch_skipped(self):
        tape = nk.ParamTape()
        tape.add("w", np.ones((2, 2)))
        c = nk.constant(np.full((1, 2), 3.0))
        assert not c.requires_grad
        loss = nk.add(nk.sum_all(nk.linear_forward(tape.leaf("w"), nk.constant(np.zeros(2)), c)),
                      nk.sum_all(nk.sigmoid(c)))
        nk.backward(loss, tape)
        assert np.isfinite(tape.grad("w")).all()

    def test_gradients_accumulate_until_zeroed(self):
        tape = nk.ParamTape()
        tape.add("p", np.array([[1.0]]))

        def run():
            nk.backward(nk.scale(nk.sum_all(tape.leaf("p")), 3.0), tape)

        run()
        run()
        assert tape.grad("p")[0, 0] == pytest.approx(6.0)
        tape.zero_grads()
        assert tape.grad("p")[0, 0] == 0.0


def _quadratic_loss(tape: nk.ParamTape) -> nk.Node:
    # (p - 3)^2 assembled from existing ops: 2 * KL(N(p - 3, 1) || N(0, 1)).
    shifted = nk.add(tape.leaf("p"), nk.constant(np.array([[-3.0]])))
    return nk.scale(nk.kl_to_standard_normal(shifted, nk.constant(np.zeros((1, 1)))), 2.0)


class TestOptimizers:
    def test_sgd_single_step(self):
        tape = nk.ParamTape()
        tape.add("p", np.array([[1.0]]))
        loss = nk.scale(nk.sum_all(tape.leaf("p")), 2.0)  # gradient is exactly 2
        nk.backward(loss, tape)
        nk.optimizer_step(tape, nk.OptimizerState("sgd", 0.1))
        assert tape.param("p")[0, 0] == pytest.approx(0.8, abs=1e-15)

    @pytest.mark.parametrize("g", [0.001, 5.0, -37.0])
    def test_adam_first_step_has_lr_magnitude(self, g):
        tape = nk.ParamTape()
        tape.add("p", np.array([[0.0]]))
        nk.backward(nk.scale(nk.sum_all(tape.leaf("p")), g), tape)
        nk.optimizer_step(tape, nk.OptimizerState("adam", 0.01))
        step = tape.param("p")[0, 0]
        assert step == pytest.approx(-np.sign(g) * 0.01, rel=1e-4)

    def test_sgd_converges_on_quadratic(self):
        tape = nk.ParamTape()
        tape.add("p", np.array([[0.0]]))
        state = nk.OptimizerState("sgd", 0.1)
        for _ in range(100):
            tape.zero_grads()
            nk.backward(_quadratic_loss(tape), tape)
            nk.optimizer_step(tape, state)
        assert tape.param("p")[0, 0] == pytest.approx(3.0, abs=1e-6)

    def test_adam_converges_on_quadratic(self):
        tape = nk.ParamTape()
        tape.add("p", np.array([[0.0]]))
        state = nk.OptimizerState("adam", 0.1)
        for _ in range(100):
            tape.zero_grads()
            nk.backward(_quadratic_loss(tape), tape)
            nk.optimizer_step(tape, state)
        assert tape.param("p")[0, 0] == pytest.approx(3.0, abs=0.05)

    def test_step_before_backward_rejected(self):
        tape = nk.ParamTape()
        tape.add("p", np.ones(3))
        with pytest.raises(RuntimeError, match="before backward"):
            nk.optimizer_step(tape, nk.OptimizerState("sgd", 0.1))

    def test_zero_grads_revokes_population(self):
        tape = nk.ParamTape()
        tape.add("p", np.ones((1, 1)))
        nk.backward(nk.sum_all(tape.leaf("p")), tape)
        tape.zero_grads()
        with pytest.raises(RuntimeError):
            nk.optimizer_step(tape, nk.OptimizerState("sgd", 0.1))

    def test_bad_optimizer_settings_rejected(self):
        with pytest.raises(ValueError):
            nk.OptimizerState("momentum", 0.1)
        with pytest.raises(ValueError):
            nk.OptimizerState("sgd", 0.0)


class TestTapeContracts:
    def test_duplicate_name_rejected(self):
        tape = nk.ParamTape()
        tape.add("w", np.ones(2))
        with pytest.raises(ValueError, match="duplicate"):
            tape.add("w", np.ones(2))

    def test_set_param_shape_checked(self):
        tape = nk.ParamTape()
        tape.add("w", np.ones((2, 3)))
        with pytest.raises(ValueError, match="shape"):
            tape.set_param("w", np.ones((3, 2)))

    def test_unknown_leaf_rejected(self):
        tape = nk.ParamTape()
        with pytest.raises(KeyError):
            tape.leaf("nope")

    def test_copy_is_independent(self):
        tape = nk.ParamTape()
        tape.add("w", np.ones((2, 2)))
        other = tape.copy()
        other.param("w")[0, 0] = 99.0
        assert tape.param("w")[0, 0] == 1.0

    def test_params_stored_as_float64(self):
        tape = nk.ParamTape()
        arr = tape.add("w", np.ones((2, 2), dtype=np.float32))
        assert arr.dtype == np.float64


# Shapes whose flat length spans several Adam blocks and ends in a ragged tail.
FLAT_SHAPES = [
    ("w1", (kernels.ADAM_BLOCK // 64 + 3, 97)),
    ("b1", (kernels.ADAM_BLOCK + 5,)),
    ("w2", (7, kernels.ADAM_BLOCK // 4 + 1)),
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
        tape.zero_grads()
        assert not tape.flat_grads.any()

    def test_add_appends_to_the_flat_buffers(self):
        tape = nk.ParamTape()
        tape.add("a", np.array([[1.0, 2.0]]))
        tape.grad("a")[...] = 5.0
        b = tape.add("b", np.array([3.0]))
        assert np.array_equal(tape.flat_params, [1.0, 2.0, 3.0])
        assert np.array_equal(tape.flat_grads, [5.0, 5.0, 0.0])
        assert np.shares_memory(b, tape.flat_params)
        assert np.shares_memory(tape.param("a"), tape.flat_params)

    def test_copy_stays_independent(self):
        tape = _flat_tape(1)
        other = tape.copy()
        assert np.array_equal(other.flat_params, tape.flat_params)
        assert not np.shares_memory(other.flat_params, tape.flat_params)
        assert not np.shares_memory(other.flat_grads, tape.flat_grads)
        before = tape.flat_params.copy()
        other.param("w2")[...] = 99.0
        other.grad("w2")[...] = 1.0
        assert np.array_equal(tape.flat_params, before)
        assert not tape.flat_grads.any()
        assert np.shares_memory(other.param("w2"), other.flat_params)

    def test_set_param_keeps_aliasing_and_zeroes_that_gradient(self):
        tape = _flat_tape(2)
        tape.flat_grads[...] = 1.0
        view = tape.param("b1")
        tape.set_param("b1", np.full(view.shape, 0.25))
        assert tape.param("b1") is view
        assert np.shares_memory(tape.param("b1"), tape.flat_params)
        assert (tape.param("b1") == 0.25).all()
        assert not tape.grad("b1").any()
        for name in ("w1", "w2", "b2"):
            assert (tape.grad(name) == 1.0).all(), name

    def test_flat_adam_is_bit_equal_to_the_per_tensor_formula(self):
        rng = np.random.default_rng(3)
        tape = _flat_tape(3)
        state = nk.OptimizerState("adam", 1e-3)
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

    def test_one_finite_check_per_buffer(self, monkeypatch):
        tape = _flat_tape(4)
        checked = []
        real = nk.check_finite
        monkeypatch.setattr(nk, "check_finite", lambda v, what: (checked.append(v), real(v, what)))
        loss = nk.sum_all(nk.add(tape.leaf("w1"), tape.leaf("w1")))
        nk.backward(loss, tape)
        nk.optimizer_step(tape, nk.OptimizerState("adam", 1e-3))
        assert [id(v) for v in checked] == [
            id(tape.flat_grads), id(tape.flat_grads), id(tape.flat_params)
        ]

    def test_nan_in_last_gradient_is_named(self):
        tape = _flat_tape(5)
        tape.grad("b2")[2] = np.nan
        tape.populated = True
        with pytest.raises(nk.NonFiniteError, match=r"^non-finite value in gradient of 'b2'$"):
            nk.optimizer_step(tape, nk.OptimizerState("adam", 1e-3))

    def test_nan_in_parameter_buffer_is_named(self):
        tape = _flat_tape(6)
        tape.param("w2")[6, -1] = np.inf
        tape.populated = True
        with pytest.raises(nk.NonFiniteError, match=r"^non-finite value in parameter 'w2'$"):
            nk.optimizer_step(tape, nk.OptimizerState("sgd", 1e-3))

    def test_backward_names_the_bad_gradient(self):
        tape = _flat_tape(7)
        loss = nk.scale(nk.sum_all(tape.leaf("b1")), float("inf"))
        with pytest.raises(nk.NonFiniteError, match=r"^non-finite value in gradient of 'b1'$"):
            nk.backward(loss, tape)


class TestNonFinite:
    def test_nan_gradient_is_a_hard_error(self):
        tape = nk.ParamTape()
        tape.add("p", np.array([[1.0]]))
        loss = nk.scale(nk.sum_all(tape.leaf("p")), float("nan"))
        with pytest.raises(nk.NonFiniteError):
            nk.backward(loss, tape)

    def test_optimizer_checks_gradients(self):
        tape = nk.ParamTape()
        tape.add("p", np.array([1.0]))
        nk.backward(nk.sum_all(tape.leaf("p")), tape)
        tape.grad("p")[0] = np.inf
        with pytest.raises(nk.NonFiniteError):
            nk.optimizer_step(tape, nk.OptimizerState("sgd", 0.1))


class TestDeterminism:
    def _train_once(self) -> dict[str, np.ndarray]:
        rng = np.random.default_rng(123)
        tape = nk.ParamTape()
        tape.add("w", nk.glorot_uniform(rng, 2, 3))
        tape.add("b", np.zeros(2))
        x = rng.standard_normal((32, 3))
        labels = rng.integers(0, 2, size=32)
        state = nk.OptimizerState("adam", 1e-2)
        batch_rng = np.random.default_rng(456)
        for _ in range(5):
            for idx in nk.iter_minibatches(32, 8, batch_rng):
                tape.zero_grads()
                logits = nk.linear_forward(
                    tape.leaf("w"), tape.leaf("b"), nk.constant(x[idx])
                )
                nk.backward(nk.softmax_cross_entropy(logits, labels[idx]), tape)
                nk.optimizer_step(tape, state)
        return {name: tape.param(name).copy() for name in tape.names()}

    def test_same_seed_same_bits(self):
        first = self._train_once()
        second = self._train_once()
        for name in first:
            assert np.array_equal(first[name], second[name]), name


class TestInitializer:
    def test_glorot_bound(self):
        rng = np.random.default_rng(0)
        w = nk.glorot_uniform(rng, 300, 100)
        a = np.sqrt(6.0 / 400.0)
        assert w.shape == (300, 100)
        assert np.abs(w).max() <= a
        # A uniform(-a, a) sample this large lands near zero mean.
        assert abs(w.mean()) < a / 10.0


class TestActivationProperties:
    def test_sigmoid_of_zero(self):
        assert nk.sigmoid(np.zeros((1, 1)))[0, 0] == 0.5

    def test_softmax_huge_logit_stable(self):
        p = nk.softmax_rows(np.array([[1000.0, 0.0]]))
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
        p = nk.softmax_rows(x)
        assert ((p > 0) & (p <= 1)).all()
        assert_allclose(p.sum(axis=1), 1.0, atol=1e-12)

    @settings(max_examples=50, deadline=None)
    @given(
        hnp.arrays(np.float64, (3, 4), elements=st.floats(-30, 30)),
        st.floats(-100, 100),
    )
    def test_softmax_shift_invariance(self, x, c):
        assert_allclose(nk.softmax_rows(x + c), nk.softmax_rows(x), atol=1e-9)

    @settings(max_examples=50, deadline=None)
    @given(
        hnp.arrays(
            np.float64,
            hnp.array_shapes(min_dims=2, max_dims=2, min_side=1, max_side=8),
            elements=st.floats(allow_nan=False, allow_infinity=False, width=32),
        )
    )
    def test_relu_is_pointwise_max(self, x):
        assert_allclose(nk.relu(x), np.maximum(x, 0.0), rtol=0, atol=0)
