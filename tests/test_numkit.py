"""Array ops, gradient rules, the parameter tape, and optimizer behavior."""

from __future__ import annotations

import tracemalloc

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
    tape.set_param("p", value)
    return tape


def _set_quadratic_grad(tape: nk.ParamTape) -> None:
    """Gradient of (p - 3)^2, as the step would leave it."""
    tape.grad("p")[...] = 2.0 * (tape.param("p") - 3.0)
    tape.populated = True


class TestOptimizers:
    def test_sgd_single_step(self):
        tape = _tape_holding([[1.0]])
        tape.grad("p")[...] = 2.0
        tape.populated = True
        nk.optimizer_step(tape, nk.OptimizerState("sgd", 0.1))
        assert tape.param("p")[0, 0] == pytest.approx(0.8, abs=1e-15)

    @pytest.mark.parametrize("g", [0.001, 5.0, -37.0])
    def test_adam_first_step_has_lr_magnitude(self, g):
        tape = _tape_holding([[0.0]])
        tape.grad("p")[...] = g
        tape.populated = True
        nk.optimizer_step(tape, nk.OptimizerState("adam", 0.01))
        step = tape.param("p")[0, 0]
        assert step == pytest.approx(-np.sign(g) * 0.01, rel=1e-4)

    def test_sgd_converges_on_quadratic(self):
        tape = _tape_holding([[0.0]])
        state = nk.OptimizerState("sgd", 0.1)
        for _ in range(100):
            _set_quadratic_grad(tape)
            nk.optimizer_step(tape, state)
        assert tape.param("p")[0, 0] == pytest.approx(3.0, abs=1e-6)

    def test_adam_converges_on_quadratic(self):
        tape = _tape_holding([[0.0]])
        state = nk.OptimizerState("adam", 0.1)
        for _ in range(100):
            _set_quadratic_grad(tape)
            nk.optimizer_step(tape, state)
        assert tape.param("p")[0, 0] == pytest.approx(3.0, abs=0.05)

    def test_step_before_backward_rejected(self):
        tape = _tape_holding(np.ones(3))
        with pytest.raises(RuntimeError, match="before backward"):
            nk.optimizer_step(tape, nk.OptimizerState("sgd", 0.1))

    def test_second_update_needs_fresh_gradients(self):
        tape = _tape_holding(np.ones((1, 1)))
        _set_quadratic_grad(tape)
        state = nk.OptimizerState("sgd", 0.1)
        nk.optimizer_step(tape, state)
        with pytest.raises(RuntimeError, match="before backward"):
            nk.optimizer_step(tape, state)

    def test_bad_optimizer_settings_rejected(self):
        with pytest.raises(ValueError):
            nk.OptimizerState("momentum", 0.1)
        with pytest.raises(ValueError):
            nk.OptimizerState("sgd", 0.0)

    @pytest.mark.parametrize("lr", [float("nan"), float("inf")])
    def test_non_finite_learning_rate_rejected(self, lr):
        with pytest.raises(ValueError, match="finite and positive"):
            nk.OptimizerState("adam", lr)


class TestTapeContracts:
    def test_duplicate_name_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            nk.ParamTape([("w", (2,)), ("b", (2,)), ("w", (2,))])

    def test_set_param_shape_checked(self):
        tape = nk.ParamTape([("w", (2, 3))])
        with pytest.raises(ValueError, match="shape"):
            tape.set_param("w", np.ones((3, 2)))

    def test_unknown_leaf_rejected(self):
        tape = nk.ParamTape()
        with pytest.raises(KeyError):
            tape.param("nope")
        with pytest.raises(KeyError):
            tape.grad("nope")

    def test_params_stored_as_float64(self):
        tape = nk.ParamTape([("w", (2, 2))])
        tape.set_param("w", np.ones((2, 2), dtype=np.float32))
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

    def test_flat_sgd_is_bit_equal_to_the_textbook_update(self):
        rng = np.random.default_rng(7)
        tape = _flat_tape(7)
        state = nk.OptimizerState("sgd", 0.03)
        for _ in range(2):
            tape.flat_grads[...] = rng.standard_normal(tape.flat_grads.size)
            tape.populated = True
            want = tape.flat_params - 0.03 * tape.flat_grads
            nk.optimizer_step(tape, state)
            assert np.array_equal(tape.flat_params, want)
        assert state.scratch.shape == (1, kernels.BLOCK)

    def test_sgd_kernel_makes_no_full_size_temporary(self):
        rng = np.random.default_rng(8)
        n = 3 * kernels.BLOCK + 77
        p, g = rng.standard_normal(n), rng.standard_normal(n)
        want = p - 0.5 * g
        scratch = np.empty((1, kernels.BLOCK))
        tracemalloc.start()
        try:
            kernels.sgd_step(p, g, 0.5, scratch)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(p, want)
        assert peak < p.nbytes // 16, f"peak {peak} bytes"

    def test_one_finite_check_per_buffer(self, monkeypatch):
        tape = _flat_tape(4)
        checked = []
        real = nk.check_finite
        monkeypatch.setattr(nk, "check_finite", lambda v, what: (checked.append(v), real(v, what)))
        tape.flat_grads[...] = 1.0
        tape.populated = True
        nk.optimizer_step(tape, nk.OptimizerState("adam", 1e-3))
        assert [id(v) for v in checked] == [id(tape.flat_grads), id(tape.flat_params)]

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


class TestNonFinite:
    def test_nan_gradient_is_a_hard_error(self):
        tape = _tape_holding([[1.0]])
        tape.grad("p")[...] = np.nan
        tape.populated = True
        with pytest.raises(nk.NonFiniteError):
            nk.optimizer_step(tape, nk.OptimizerState("adam", 0.1))
        assert tape.param("p")[0, 0] == 1.0

    def test_optimizer_checks_gradients(self):
        tape = _tape_holding([1.0])
        tape.grad("p")[0] = np.inf
        tape.populated = True
        with pytest.raises(nk.NonFiniteError):
            nk.optimizer_step(tape, nk.OptimizerState("sgd", 0.1))


class TestDeterminism:
    def _train_once(self) -> np.ndarray:
        model, loss = _mini_step(123)
        state = nk.OptimizerState("adam", 1e-2)
        for _ in range(5):
            loss()
            nk.optimizer_step(model.tape, state)
        return model.tape.flat_params.copy()

    def test_same_seed_same_bits(self):
        assert np.array_equal(self._train_once(), self._train_once())


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
