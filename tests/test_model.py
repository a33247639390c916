"""Network wiring, the training objective's loss kernels, class expansion,
and checkpoints."""

from __future__ import annotations

import math
import os
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from numpy.testing import assert_allclose

import clare.numkit as nk
from clare import kernels
from clare import model as model_mod
from clare.dataio import toy_centers
from clare.metrics import evaluate
from clare.model import (
    ClareModel,
    expand_classes,
    load_model,
    one_hot,
    save_model,
    StepWorkspace,
    forward_backward,
)
from conftest import filled_workspace, fill_disk, step_on
from oracles import bce_oracle, cross_entropy_oracle, finite_difference, objective_oracle

MINI = dict(class_no=2, d_z=2, input_dim=6, enc_hidden=(8, 7), dec_hidden=(7, 8))


def mini_model(seed=0) -> ClareModel:
    return ClareModel(rng=np.random.default_rng(seed), **MINI)


class TestOneHot:
    def test_basic(self):
        assert_allclose(one_hot(np.array([0, 2]), 3), [[1, 0, 0], [0, 0, 1]], rtol=0, atol=0)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            one_hot(np.array([3]), 3)
        with pytest.raises(ValueError):
            one_hot(np.array([-1]), 3)

    def test_into_the_leading_columns_of_a_wider_buffer(self):
        labels = np.array([2, 0, 1, 2, 2])
        wide = np.full((5, 7), np.nan)
        got = one_hot(labels, 3, out=wide[:, :3])
        assert np.shares_memory(got, wide)
        assert np.array_equal(wide[:, :3], one_hot(labels, 3))
        assert np.isnan(wide[:, 3:]).all()

    @pytest.mark.parametrize("labels", [[0, 3, 1], [-1, 0, 2]])
    def test_an_out_of_range_label_raises_before_out_is_written(self, labels):
        out = np.full((3, 3), np.nan)
        with pytest.raises(ValueError, match="class index out of range"):
            one_hot(np.array(labels), 3, out=out)
        assert np.isnan(out).all()


class TestConstruction:
    def test_parameter_shapes(self):
        m = mini_model()
        want = {
            "enc_w1": (8, 8), "enc_b1": (8,),
            "enc_w2": (7, 8), "enc_b2": (7,),
            "enc_wmu": (2, 7), "enc_bmu": (2,),
            "enc_wlv": (2, 7), "enc_blv": (2,),
            "cls_w": (2, 2), "cls_b": (2,),
            "dec_w1": (7, 4), "dec_b1": (7,),
            "dec_w2": (8, 7), "dec_b2": (8,),
            "dec_w3": (6, 8), "dec_b3": (6,),
        }
        assert {n: m.tape.param(n).shape for n in m.tape.names()} == want

    def test_default_sizing(self):
        m = ClareModel(class_no=10, rng=np.random.default_rng(0))
        assert m.tape.param("enc_w1").shape == (512, 794)
        assert m.tape.param("dec_w3").shape == (784, 512)
        assert m.tape.param("cls_w").shape == (10, 64)

    def test_seeded_init_reproduces(self):
        a, b = mini_model(3), mini_model(3)
        for name in a.tape.names():
            assert np.array_equal(a.tape.param(name), b.tape.param(name))

    def test_distinct_seeds_differ(self):
        a, b = mini_model(3), mini_model(4)
        assert not np.array_equal(a.tape.param("enc_w1"), b.tape.param("enc_w1"))

    def test_biases_start_at_zero(self):
        m = mini_model()
        for name in m.tape.names():
            if name.endswith(("b1", "b2", "b3", "bmu", "blv", "_b")):
                assert not m.tape.param(name).any()

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(class_no=0),
            dict(class_no=2, d_z=0),
            dict(class_no=2, d_z=257),
            dict(class_no=2, input_dim=0),
            dict(class_no=2, enc_hidden=(8,)),
            dict(class_no=2, enc_hidden=(0, 7)),
            dict(class_no=2, dec_hidden=(7, 0)),
        ],
    )
    def test_bad_dimensions_rejected(self, kwargs):
        with pytest.raises(ValueError):
            ClareModel(**kwargs)


class TestForward:
    def test_shapes(self):
        m = mini_model()
        x = np.random.default_rng(1).uniform(0, 1, size=(5, 6))
        c = one_hot(np.array([0, 1, 0, 1, 0]), 2)
        xhat = m.decode(np.zeros((5, 2)), c)
        assert xhat.shape == (5, 6)
        assert ((xhat > 0) & (xhat < 1)).all()
        assert m.classify(x).shape == (5, 2)

    def test_zero_init_classifies_uniformly(self):
        m = ClareModel(rng=None, **MINI)
        p = m.classify(np.random.default_rng(0).uniform(size=(4, 6)))
        assert_allclose(p, 0.5, rtol=0, atol=0)

    def test_classify_rows_are_distributions(self):
        m = mini_model(9)
        p = m.classify(np.random.default_rng(2).uniform(size=(8, 6)))
        assert (p > 0).all()
        assert_allclose(p.sum(axis=1), 1.0, atol=1e-12)

    def test_log_var_clamped(self):
        m = mini_model()
        # Blow up the variance head so only the clamp keeps it in range.
        m.tape.param("enc_wlv")[...] = 1e4
        m.tape.param("enc_blv")[...] = -1e4
        rng = np.random.default_rng(3)
        x = rng.uniform(size=(16, 6))
        ws = filled_workspace(m, x, rng.integers(0, 2, size=16), rng.standard_normal((16, 2)))
        forward_backward(m, ws)
        assert np.abs(ws.lv_raw).max() > 10.0
        assert ws.lv.min() >= -10.0
        assert ws.lv.max() <= 10.0

    def test_input_validation(self):
        m = mini_model()
        with pytest.raises(ValueError):
            m.class_logits(np.zeros((2, 5)))
        with pytest.raises(ValueError):
            m.decode(np.zeros((2, 2)), np.zeros((2, 3)))
        with pytest.raises(ValueError):
            m.decode(np.zeros((2, 3)), np.zeros((2, 2)))
        with pytest.raises(ValueError):
            m.classify(np.zeros((2, 7)))

    def test_class_logits_read_no_condition_column_and_no_log_variance_head(self):
        m = mini_model(4)
        x = np.random.default_rng(5).uniform(size=(9, 6))
        want = m.class_logits(x)
        m.tape.param("enc_w1")[:, 6:] = np.nan
        m.tape.param("enc_wlv")[...] = np.nan
        m.tape.param("enc_blv")[...] = np.nan
        got = m.class_logits(x)
        assert np.isfinite(got).all()
        assert np.array_equal(got, want)

    def test_inference_runs_in_chunks_of_any_number_of_rows(self):
        m = ClareModel(class_no=3, d_z=4, input_dim=6, enc_hidden=(8, 7), dec_hidden=(7, 8),
                       rng=np.random.default_rng(9))
        rng = np.random.default_rng(10)
        rows, step = 600, model_mod._CLASSIFY_ROWS
        x = rng.uniform(size=(rows, 6))
        slices = [m.class_logits(x[i : i + step]) for i in range(0, rows, step)]
        assert np.array_equal(m.class_logits(x), np.concatenate(slices))
        rows, step = 2100, model_mod._DECODE_ROWS
        z = rng.standard_normal((rows, 4))
        c = one_hot(rng.integers(0, 3, rows), 3)
        slices = [m.decode(z[i : i + step], c[i : i + step]) for i in range(0, rows, step)]
        assert np.array_equal(m.decode(z, c), np.concatenate(slices))
        assert m.class_logits(np.zeros((0, 6))).shape == (0, 3)
        assert m.classify(np.zeros((0, 6))).shape == (0, 3)
        assert m.decode(np.zeros((0, 4)), np.zeros((0, 3))).shape == (0, 6)

    def test_class_logits_equal_the_training_step_logits(self):
        # Training and inference run the same encoder functions, so on a
        # training batch the classifier pass reproduces the step's logits
        # bit for bit, non-zero biases included.
        rng = np.random.default_rng(8)
        m = ClareModel(class_no=10, rng=rng)
        for name in ("enc_b1", "enc_b2", "enc_bmu", "cls_b"):
            m.tape.param(name)[...] = rng.uniform(-0.5, 0.5, size=m.tape.param(name).shape)
        x = rng.uniform(size=(128, 784))
        ws = filled_workspace(m, x, rng.integers(0, 10, size=128), rng.standard_normal((128, 64)))
        forward_backward(m, ws)
        assert np.array_equal(m.class_logits(x), ws.logits)

    def test_pixel_bytes_classify_as_their_scaled_floats(self):
        # 600 rows: two full classifier chunks and a short last one.
        rng = np.random.default_rng(12)
        m = ClareModel(class_no=10, rng=rng)
        for name in ("enc_b1", "enc_b2", "enc_bmu", "cls_b"):
            m.tape.param(name)[...] = rng.uniform(-0.5, 0.5, size=m.tape.param(name).shape)
        pixels = rng.integers(0, 256, size=(600, 784), dtype=np.uint8)
        values = pixels / 255.0
        assert 600 % model_mod._CLASSIFY_ROWS
        assert np.array_equal(m.class_logits(pixels), m.class_logits(values))
        labels = rng.integers(0, 10, size=600)
        assert evaluate(m, pixels, labels) == evaluate(m, values, labels)

    def test_class_logits_match_the_concatenated_encoder_at_digit_shape(self):
        m = ClareModel(class_no=10, rng=np.random.default_rng(6))
        x = np.random.default_rng(7).uniform(size=(300, 784))
        p = m.tape.param
        h = np.maximum(np.concatenate([x, np.zeros((300, 10))], axis=1) @ p("enc_w1").T
                       + p("enc_b1"), 0.0)
        h = np.maximum(h @ p("enc_w2").T + p("enc_b2"), 0.0)
        want = (h @ p("enc_wmu").T + p("enc_bmu")) @ p("cls_w").T + p("cls_b")
        got = m.class_logits(x)
        # BLAS may block the 784-wide product differently from the 794-wide
        # one, so the two agree to rounding, not bit for bit.
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()
        assert np.array_equal(got.argmax(axis=1), want.argmax(axis=1))


class TestReparameterize:
    """``kernels.reparam_fwd``, the step's latent draw."""

    def test_zero_noise_returns_mean(self):
        rng = np.random.default_rng(4)
        mu, lv = rng.standard_normal((3, 4)), rng.standard_normal((3, 4))
        assert np.array_equal(kernels.reparam_fwd(mu, lv, np.zeros((3, 4))), mu)

    def test_unit_variance_adds_noise_directly(self):
        rng = np.random.default_rng(5)
        mu = rng.standard_normal((3, 4))
        noise = rng.standard_normal((3, 4))
        z = kernels.reparam_fwd(mu, np.zeros((3, 4)), noise)
        assert_allclose(z, mu + noise, rtol=0, atol=0)

    def test_sample_moments(self):
        # mu = 1, variance = 4: the draws' sample moments must agree.
        n = 100_000
        noise = np.random.default_rng(6).standard_normal((n, 1))
        z = kernels.reparam_fwd(np.ones((n, 1)), np.full((n, 1), math.log(4.0)), noise)
        assert z.mean() == pytest.approx(1.0, abs=0.05)
        assert z.var() == pytest.approx(4.0, abs=0.2)


def kl(mu: np.ndarray, lv: np.ndarray) -> float:
    return kernels.kl_terms(mu, lv)[0]


class TestKLDivergence:
    """The loss value of ``kernels.kl_terms``, the step's KL term."""

    def test_standard_normal_is_zero(self):
        assert kl(np.zeros((4, 3)), np.zeros((4, 3))) == 0.0

    def test_unit_mean_shift_closed_form(self):
        # KL(N(1, 1) || N(0, 1)) = 1/2 per dimension.
        assert kl(np.ones((1, 1)), np.zeros((1, 1))) == pytest.approx(0.5, abs=1e-15)

    def test_matches_direct_formula(self):
        rng = np.random.default_rng(7)
        mu = rng.standard_normal((6, 3))
        lv = rng.uniform(-2, 2, size=(6, 3))
        want = float(np.mean(0.5 * np.sum(mu**2 + np.exp(lv) - 1.0 - lv, axis=1)))
        assert kl(mu, lv) == pytest.approx(want, rel=1e-13)

    def test_batch_mean_semantics(self):
        mu = np.array([[1.0, -2.0]])
        lv = np.array([[0.3, -0.7]])
        single = kl(mu, lv)
        tiled = kl(np.repeat(mu, 5, axis=0), np.repeat(lv, 5, axis=0))
        assert tiled == pytest.approx(single, rel=1e-14)

    @settings(max_examples=60, deadline=None)
    @given(
        hnp.arrays(np.float64, (3, 4), elements=st.floats(-20, 20)),
        hnp.arrays(np.float64, (3, 4), elements=st.floats(-10, 10)),
    )
    def test_never_negative(self, mu, lv):
        assert kl(mu, lv) >= 0.0


def logit(p: np.ndarray) -> np.ndarray:
    return np.log(p) - np.log1p(-p)


class TestReconstructionLoss:
    """The loss value of ``kernels.bce_logits`` on the logits of ``xhat``."""

    def test_uninformative_prediction_costs_log2_per_pixel(self):
        x = np.random.default_rng(8).uniform(size=(3, 784))
        got = kernels.bce_logits(np.zeros((3, 784)), x)[0]
        assert got == pytest.approx(784 * math.log(2.0), rel=1e-12)

    def test_perfect_zeros_limit(self):
        x = np.zeros((2, 10))
        assert kernels.bce_logits(logit(np.full((2, 10), 1e-9)), x)[0] < 1e-6

    def test_matches_direct_sum(self):
        rng = np.random.default_rng(9)
        x = rng.uniform(size=(5, 17))
        xhat = rng.uniform(0.02, 0.98, size=(5, 17))
        got = kernels.bce_logits(logit(xhat), x)[0]
        assert got == pytest.approx(bce_oracle(x, xhat), rel=1e-10)


class TestClassificationLoss:
    """The loss value of ``kernels.softmax_xent``, the step's classifier term."""

    def test_uniform_over_ten_classes(self):
        labels = np.array([0, 3, 7, 9])
        got = kernels.softmax_xent(np.zeros((4, 10)), labels)[0]
        assert got == pytest.approx(math.log(10.0), rel=1e-12)

    def test_certain_and_correct_costs_nothing(self):
        logits = 1000.0 * np.eye(3)
        got = kernels.softmax_xent(logits, np.array([0, 1, 2]))[0]
        assert got == pytest.approx(0.0, abs=1e-15)

    def test_matches_direct_mean(self):
        rng = np.random.default_rng(10)
        logits = rng.standard_normal((8, 5))
        probs = np.exp(logits) / np.exp(logits).sum(axis=1, keepdims=True)
        labels = rng.integers(0, 5, size=8)
        assert kernels.softmax_xent(logits, labels)[0] == pytest.approx(
            cross_entropy_oracle(probs, labels), rel=1e-12
        )


class TestTotalLoss:
    """The objective and gradients of the hand-written training step."""

    def _batch(self, m, seed=11, n=8):
        rng = np.random.default_rng(seed)
        x = rng.uniform(size=(n, m.input_dim))
        labels = rng.integers(0, m.class_no, size=n)
        noise = rng.standard_normal((n, m.d_z))
        return x, labels, noise

    def test_components_sum_to_total(self):
        m = mini_model(12)
        x, labels, noise = self._batch(m)
        for beta in (0.0, 1.0, 2.5):
            parts = step_on(m, x, labels, noise, beta=beta)
            want = parts["classification"] + parts["reconstruction"] + beta * parts["kl"]
            assert parts["total"] == pytest.approx(want, abs=1e-12)

    def test_components_match_standalone_functions(self):
        m = mini_model(13)
        x, labels, noise = self._batch(m)
        parts = step_on(m, x, labels, noise)

        params = {name: m.tape.param(name) for name in m.tape.names()}
        ce, rec, kl_want = objective_oracle(params, x, labels, noise)
        assert parts["classification"] == pytest.approx(ce, rel=1e-12)
        assert parts["kl"] == pytest.approx(kl_want, rel=1e-12)
        assert parts["reconstruction"] == pytest.approx(rec, rel=1e-10)

    def test_beta_reweights_only_kl(self):
        m = mini_model(14)
        x, labels, noise = self._batch(m)
        p0 = step_on(m, x, labels, noise, beta=0.0)
        p2 = step_on(m, x, labels, noise, beta=2.0)
        assert p2["total"] - p0["total"] == pytest.approx(2.0 * p0["kl"], rel=1e-12)
        assert p2["classification"] == p0["classification"]
        assert p2["reconstruction"] == p0["reconstruction"]

    def test_single_step_reduces_loss(self):
        m = mini_model(15)
        x, labels, noise = self._batch(m, n=16)
        before = step_on(m, x, labels, noise)
        nk.optimizer_step(m.tape, nk.OptimizerState(1e-3))
        after = step_on(m, x, labels, noise)
        assert after["total"] < before["total"]

    def test_beta_leaves_decoder_and_classifier_gradients_alone(self):
        m = mini_model(16)
        x, labels, noise = self._batch(m)

        def grads(beta):
            step_on(m, x, labels, noise, beta=beta)
            return {n: m.tape.grad(n).copy() for n in m.tape.names()}

        g0, g5 = grads(0.0), grads(5.0)
        for name in ("dec_w1", "dec_w2", "dec_w3", "cls_w", "cls_b"):
            assert np.array_equal(g0[name], g5[name]), name
        # The KL term does pull on the variance head.
        assert not np.array_equal(g0["enc_wlv"], g5["enc_wlv"])

    @pytest.mark.parametrize("dims", [
        (3, 64, 16, (48, 32), (32, 48)),
        (10, 64, 784, (512, 256), (256, 512)),
    ], ids=["toy", "digits"])
    def test_every_forward_product_of_a_step_runs_through_linear_forward(
        self, monkeypatch, dims
    ):
        # The benchmark's tracer counts the step's forward FLOPs from these
        # calls' weight shapes and row counts.
        c, d_z, d, (h1, h2), (g1, g2) = dims
        n = 24
        calls = []
        real = nk.linear_forward

        def record(w, b, x, out):
            calls.append((w.shape, len(x)))
            return real(w, b, x, out)

        monkeypatch.setattr(nk, "linear_forward", record)
        rng = np.random.default_rng(2)
        m = ClareModel(*dims, rng=rng)
        step_on(m, rng.uniform(size=(n, d)), rng.integers(0, c, n), rng.standard_normal((n, d_z)))
        trunk = [(h2, h1), (d_z, h2)]
        want = [(h1, d), (h1, c), *trunk, *trunk, (d_z, h2), (c, d_z),
                (g1, d_z), (g1, c), (g2, g1), (d, g2)]
        assert calls == [(shape, n) for shape in want]

    def test_noise_shape_checked(self):
        # The noise buffer belongs to the workspace, so a workspace built for
        # another latent width is refused rather than broadcast.
        m = mini_model()
        other = ClareModel(**{**MINI, "d_z": m.d_z + 1})
        with pytest.raises(ValueError, match="workspace shapes"):
            forward_backward(m, StepWorkspace(other.dims, 8))

    def test_labels_out_of_range_rejected(self):
        m = mini_model()
        x, labels, noise = self._batch(m)
        labels[3] = m.class_no
        with pytest.raises(ValueError, match="class index out of range"):
            step_on(m, x, labels, noise)

    def test_clip_beta_and_absent_class_match_finite_differences(self):
        # beta != 1, three classes with class 1 absent from the batch, and
        # two latent dimensions whose log-variance sits clipped at +10 / -10.
        m = ClareModel(
            class_no=3, d_z=3, input_dim=6, enc_hidden=(8, 7), dec_hidden=(7, 8),
            rng=np.random.default_rng(21),
        )
        m.tape.param("enc_blv")[:2] = [30.0, -30.0]
        rng = np.random.default_rng(22)
        x = rng.uniform(size=(6, 6))
        labels = np.array([0, 2, 2, 0, 2, 0])
        noise = rng.standard_normal((6, 3))

        def loss() -> float:
            return step_on(m, x, labels, noise, beta=0.5)["total"]

        loss()
        analytic = {n: m.tape.grad(n).copy() for n in m.tape.names()}
        numeric = finite_difference(loss, m.tape)
        for name in m.tape.names():
            want = numeric[name]
            err = np.max(np.abs(analytic[name] - want)) / max(np.max(np.abs(want)), 1.0)
            assert err <= 1e-5, f"{name}: rel err {err:.3g}"
        # The clip blocks every gradient into the two clipped dimensions, and
        # the absent class's condition columns get none.
        assert not analytic["enc_wlv"][:2].any() and not analytic["enc_blv"][:2].any()
        assert analytic["enc_wlv"][2].any()
        assert not analytic["enc_w1"][:, 6 + 1].any()
        assert not analytic["dec_w1"][:, 3 + 1].any()
        assert analytic["cls_w"][1].any()


class TestExpansion:
    def test_old_logits_unchanged(self):
        m2 = mini_model(17)
        x = np.random.default_rng(18).uniform(size=(6, 6))
        before = m2.class_logits(x)
        m3 = expand_classes(m2, 3, np.random.default_rng(19))
        after = m3.class_logits(x)
        assert after.shape == (6, 3)
        assert np.array_equal(after[:, :2], before)
        assert np.array_equal(np.argmax(after[:, :2], axis=1), np.argmax(before, axis=1))

    def test_repeated_expansion_keeps_original_slices(self):
        base = mini_model(20)
        twice = expand_classes(expand_classes(base, 3, np.random.default_rng(1)), 5,
                               np.random.default_rng(2))
        once = expand_classes(base, 5, np.random.default_rng(3))
        fresh = ClareModel(rng=np.random.default_rng(3), **{**MINI, "class_no": 5})
        for name in base.tape.names():
            old = base.tape.param(name)
            corner = tuple(slice(0, k) for k in old.shape)
            for grown in (twice, once):
                assert np.array_equal(grown.tape.param(name)[corner], old), name
            # Outside the corner, `once` holds the slices a fresh model draws.
            outside = np.ones(fresh.tape.param(name).shape, dtype=bool)
            outside[corner] = False
            assert np.array_equal(once.tape.param(name)[outside],
                                  fresh.tape.param(name)[outside]), name

    def test_decode_for_existing_classes_survives_growth(self):
        m5 = ClareModel(class_no=5, d_z=3, input_dim=12, enc_hidden=(10, 9),
                        dec_hidden=(9, 10), rng=np.random.default_rng(21))
        rng = np.random.default_rng(22)
        z = rng.standard_normal((10, 3))
        labels = rng.integers(0, 5, size=10)
        before = m5.decode(z, one_hot(labels, 5))
        m10 = expand_classes(m5, 10, np.random.default_rng(23))
        padded = np.zeros((10, 10))
        padded[:, :5] = one_hot(labels, 5)
        assert_allclose(m10.decode(z, padded), before, atol=1e-12)

    def test_shrinking_rejected(self):
        with pytest.raises(ValueError, match="grow"):
            expand_classes(mini_model(), 2, np.random.default_rng(0))

    def test_growth_keeps_the_tape_capacity(self):
        # A run reserves its largest tape for every model, warm starts too.
        base = ClareModel(rng=np.random.default_rng(24), capacity=10_000, **MINI)
        grown = expand_classes(base, 3, np.random.default_rng(25))
        assert base.tape.capacity == grown.tape.capacity == 10_000
        assert grown.tape.flat_params.size < 10_000
        assert grown.tape.flat_params.base.size == grown.tape.flat_grads.base.size == 10_000


class TestCheckpoint:
    def test_round_trip_bit_exact(self, tmp_path):
        m = mini_model(24)
        path = str(tmp_path / "model.clre")
        save_model(m, path)
        loaded = load_model(path)
        assert loaded.class_no == m.class_no
        assert loaded.d_z == m.d_z
        assert loaded.input_dim == m.input_dim
        assert loaded.enc_hidden == m.enc_hidden
        assert loaded.dec_hidden == m.dec_hidden
        assert loaded.tape.names() == m.tape.names()
        for name in m.tape.names():
            assert np.array_equal(loaded.tape.param(name), m.tape.param(name)), name

    def test_loaded_model_predicts_identically(self, tmp_path):
        m = mini_model(25)
        path = str(tmp_path / "model.clre")
        save_model(m, path)
        x = np.random.default_rng(26).uniform(size=(4, 6))
        assert np.array_equal(load_model(path).classify(x), m.classify(x))

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.clre"
        path.write_bytes(b"NOPE" + b"\x00" * 32)
        with pytest.raises(ValueError, match="magic"):
            load_model(str(path))

    def test_unsupported_version_rejected(self, tmp_path):
        # Version 1 was the named-tensor format, which nothing reads now. A
        # short file of another version names the version, not the length.
        path = tmp_path / "other.clre"
        for version, size in ((1, 600), (99, 4)):
            path.write_bytes(b"CLRE" + struct.pack("<III", version, 2, 2) + b"\x00" * size)
            with pytest.raises(ValueError,
                               match=f"unsupported checkpoint version {version}, expected 2"):
                load_model(str(path))

    @pytest.mark.parametrize("cut", [10, 18, 30, 200])
    def test_truncation_names_offset_and_tensor(self, tmp_path, cut):
        path = str(tmp_path / "model.clre")
        save_model(mini_model(28), path)
        with open(path, "rb") as fh:
            data = fh.read()
        with open(path, "wb") as fh:
            fh.write(data[:cut])
        with pytest.raises(ValueError, match=r"truncated checkpoint: .* at offset \d+") as err:
            load_model(path)
        if cut > 36:
            assert "of tensor 'enc_w1'" in str(err.value)

    def test_trailing_byte_is_rejected_at_its_offset(self, tmp_path):
        path = tmp_path / "long.clre"
        save_model(mini_model(30), str(path))
        size = path.stat().st_size
        path.write_bytes(path.read_bytes() + b"\x00")
        with pytest.raises(ValueError, match=f"trailing bytes .* at offset {size}, file has {size + 1}"):
            load_model(str(path))

    def test_layout_is_pinned_by_a_hand_encoded_file(self, tmp_path):
        # Every dimension 1: the 36-byte header, then 18 float64 values, the
        # i-th of which is i. Tensors are laid out in tape order, rows first,
        # and the class columns of enc_w1 and dec_w1 come last.
        header = b"CLRE" + b"\x02\x00\x00\x00" + b"\x01\x00\x00\x00" * 7
        data = header + struct.pack("<18d", *range(18))
        path = tmp_path / "unit.clre"
        path.write_bytes(data)
        m = load_model(str(path))
        assert (m.class_no, m.d_z, m.input_dim) == (1, 1, 1)
        assert m.enc_hidden == m.dec_hidden == (1, 1)
        want = {
            "enc_w1": [[0.0, 1.0]], "enc_b1": [2.0], "enc_wmu": [[5.0]],
            "enc_blv": [8.0], "cls_w": [[9.0]], "cls_b": [10.0],
            "dec_w1": [[11.0, 12.0]], "dec_w3": [[16.0]], "dec_b3": [17.0],
        }
        for name, value in want.items():
            assert np.array_equal(m.tape.param(name), value), name
        again = tmp_path / "again.clre"
        save_model(m, str(again))
        assert again.read_bytes() == data

    def test_huge_header_widths_are_rejected_before_allocating(self, tmp_path):
        header = struct.pack("<4s8I", b"CLRE", 2, 2, 2, 6, 2**31, 7, 7, 8)
        path = tmp_path / "huge.clre"
        path.write_bytes(header + b"\x00" * (100 - len(header)))
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="payload of tensor 'enc_w1'"):
                load_model(str(path))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024, peak

    def test_a_non_finite_parameter_is_rejected_naming_its_tensor(self, tmp_path):
        m = ClareModel(rng=np.random.default_rng(31), **dict(MINI, class_no=3))
        m.tape.param("cls_b")[1] = np.nan
        path = str(tmp_path / "nan.clre")
        save_model(m, path)
        with pytest.raises(ValueError, match="non-finite value in parameter 'cls_b'"):
            load_model(path)

    def test_a_failed_save_leaves_the_previous_checkpoint_whole(self, tmp_path, monkeypatch):
        path = str(tmp_path / "model.clre")
        old = mini_model(32)
        save_model(old, path)
        fill_disk(monkeypatch, tmp_path, 2)  # the second write, the payload, fails
        with pytest.raises(OSError, match="No space left"):
            save_model(mini_model(33), path)
        monkeypatch.undo()
        assert np.array_equal(load_model(path).tape.flat_params, old.tape.flat_params)
        assert os.listdir(tmp_path) == ["model.clre"]

    @pytest.mark.parametrize(
        "class_no, d_z, message",
        [(0, 2, "class_no must be >= 1"), (2, 257, "d_z must be in")],
    )
    def test_header_dimensions_the_model_rejects(self, tmp_path, class_no, d_z, message):
        dims = dict(MINI, class_no=class_no, d_z=d_z)
        size = sum(math.prod(shape) for _, shape in model_mod._param_shapes(**dims))
        header = struct.pack(
            "<4s8I", b"CLRE", 2, class_no, d_z, dims["input_dim"],
            *dims["enc_hidden"], *dims["dec_hidden"],
        )
        path = tmp_path / "bad.clre"
        path.write_bytes(header + b"\x00" * (8 * size))
        with pytest.raises(ValueError, match=message):
            load_model(str(path))


@pytest.fixture(scope="module")
def checkpoint_bytes(tmp_path_factory):
    path = str(tmp_path_factory.mktemp("ckpt") / "model.clre")
    model = mini_model(29)
    save_model(model, path)
    with open(path, "rb") as fh:
        return model, fh.read()


@settings(max_examples=200, deadline=None)
@given(choice=st.data())
def test_every_checkpoint_prefix_is_rejected_or_round_trips(
    checkpoint_bytes, tmp_path_factory, choice
):
    model, data = checkpoint_bytes
    cut = choice.draw(st.integers(min_value=0, max_value=len(data)), label="cut")
    path = str(tmp_path_factory.getbasetemp() / "prefix.clre")
    with open(path, "wb") as fh:
        fh.write(data[:cut])
    if cut < len(data):
        with pytest.raises(ValueError):
            load_model(path)
        return
    loaded = load_model(path)
    assert loaded.tape.names() == model.tape.names()
    assert np.array_equal(loaded.tape.flat_params, model.tape.flat_params)


class TestConditionalGeneration:
    def test_decoded_means_sit_on_class_centers(self, toy_trained, toy_config):
        model = toy_trained.model
        k, dim = toy_config.toy_classes, toy_config.toy_dim
        means = model.decode(np.zeros((k, model.d_z)), np.eye(k))
        centers = toy_centers(k, dim)
        worst = float(np.max(np.linalg.norm(means - centers, axis=1)))
        assert worst <= 0.15 * math.sqrt(dim), f"worst center distance {worst:.3f}"
