"""The elementwise kernels: stability at extreme inputs, and bit-exactness
against the branchwise formulas in ``oracles``."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from clare import kernels
from oracles import bce_logits_oracle, sigmoid_oracle


class TestStability:
    """The fused kernels hold up at extreme magnitudes."""

    def test_softmax_huge_gap_no_overflow(self):
        p = kernels.softmax_rows(np.array([[1000.0, 0.0]]))
        assert np.isfinite(p).all()
        assert p[0, 0] == pytest.approx(1.0, abs=1e-12)
        assert p[0, 1] > 0.0

    def test_sigmoid_saturation_stays_inside_unit_interval(self):
        y = kernels.sigmoid_fwd(np.array([[-800.0, 800.0]]))
        assert 0.0 < y[0, 0] < y[0, 1] < 1.0

    def test_bce_logits_huge_magnitude_finite(self):
        logits = np.array([[-500.0, 500.0]])
        targets = np.array([[1.0, 0.0]])
        loss, grad = kernels.bce_logits(logits, targets)
        assert np.isfinite(loss)
        assert np.isfinite(grad).all()


class TestNumpyAgainstOracles:
    @pytest.mark.parametrize("buffers", [0, 3])
    def test_bce_logits_is_bit_identical_to_the_branchwise_formula(self, buffers):
        # Also with three caller buffers, which start as NaN so that any
        # entry read before it is written shows.
        rng = np.random.default_rng(9)
        logits = rng.standard_normal((128, 784)) * 6.0
        logits[0, :8] = [800.0, -800.0, 0.0, -0.0, 40.0, -40.0, 5e-324, -5e-324]
        targets = rng.uniform(size=(128, 784))
        given = [np.full(logits.shape, np.nan) for _ in range(buffers)]

        def bce(logits, targets):
            loss, grad = kernels.bce_logits(logits, targets, *given)
            assert not given or grad is given[0]
            return loss, grad

        loss, grad = bce(logits, targets)
        want_loss, want_grad = bce_logits_oracle(logits, targets)
        assert loss == want_loss
        assert np.array_equal(grad, want_grad)
        # A non-finite logit makes the loss NaN; the gradient stays per element.
        logits[1, :3] = [np.inf, -np.inf, np.nan]
        with np.errstate(invalid="ignore"):
            loss, grad = bce(logits, targets)
            want_loss, want_grad = bce_logits_oracle(logits, targets)
        assert np.isnan(loss) and np.isnan(want_loss)
        assert np.array_equal(grad, want_grad, equal_nan=True)
        assert grad[1, 0] == (1.0 - targets[1, 0]) / 128
        assert grad[1, 1] == -targets[1, 1] / 128
        assert np.isnan(grad[1, 2])

    def test_bce_logits_makes_no_temporary_beyond_its_two_buffers(self):
        rng = np.random.default_rng(11)
        logits = rng.standard_normal((512, 784)) * 6.0
        targets = rng.uniform(size=logits.shape)
        bce = kernels.bce_logits
        bce(logits, targets)
        tracemalloc.start()
        try:
            bce(logits, targets)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # A boolean mask of the logits would add logits.nbytes / 8.
        assert peak < 2 * logits.nbytes + logits.nbytes // 32

    def test_bce_logits_into_caller_buffers_makes_no_image_sized_temporary(self):
        rng = np.random.default_rng(11)
        logits = rng.standard_normal((512, 784)) * 6.0
        targets = rng.uniform(size=logits.shape)
        buffers = [np.empty_like(logits) for _ in range(3)]
        kernels.bce_logits(logits, targets, *buffers)
        tracemalloc.start()
        try:
            kernels.bce_logits(logits, targets, *buffers)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < logits.nbytes // 32, f"peak {peak} bytes"

    def test_bce_logits_computes_the_exponential_once_with_caller_buffers(self, monkeypatch):
        # With a third buffer exp(-|l|) is held; with two it is recomputed.
        rng = np.random.default_rng(13)
        logits = rng.standard_normal((4, 6))
        targets = rng.uniform(size=logits.shape)
        calls = []
        real = np.exp

        def counted(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(kernels.np, "exp", counted)
        kernels.bce_logits(logits, targets, *(np.empty_like(logits) for _ in range(3)))
        assert len(calls) == 1
        kernels.bce_logits(logits, targets)
        assert len(calls) == 3

    @pytest.mark.parametrize("in_place", [False, True])
    def test_sigmoid_fwd_is_bit_identical_to_the_branchwise_formula(self, in_place):
        rng = np.random.default_rng(10)
        x = rng.standard_normal((1024, 784)) * 8.0
        specials = [800.0, -800.0, 40.0, -40.0, 0.0, -0.0, np.nan,
                    np.inf, -np.inf, 5e-324, -5e-324]
        x[0, : len(specials)] = specials
        x[-1, -len(specials) :] = specials
        want = sigmoid_oracle(x)
        sigmoid = kernels.sigmoid_fwd
        if in_place:
            y = x.copy()
            assert sigmoid(y, out=y) is y
        else:
            before = x.copy()
            y = sigmoid(x)
            assert np.array_equal(x, before, equal_nan=True)
        assert np.array_equal(y, want, equal_nan=True)
        for row, col in ((0, 6), (-1, 6 - len(specials))):
            assert np.isnan(y[row, col])
        assert y[0, 0] == y[0, 7] == 1.0 - kernels.UNIT_EPS
        assert y[0, 1] == y[0, 8] == kernels.UNIT_EPS
        assert y[0, 4] == y[0, 5] == y[0, 9] == y[0, 10] == 0.5

    @pytest.mark.parametrize("in_place", [False, True])
    def test_sigmoid_fwd_rows_wider_than_a_block(self, in_place):
        # Each block is then one row.
        rng = np.random.default_rng(12)
        x = rng.standard_normal((3, kernels.BLOCK + 5)) * 8.0
        x[:, 0] = [np.inf, -0.0, np.nan]
        x[:, -1] = [-np.inf, 5e-324, -800.0]
        want = sigmoid_oracle(x)
        sigmoid = kernels.sigmoid_fwd
        y = sigmoid(x, out=x) if in_place else sigmoid(x)
        assert np.array_equal(y, want, equal_nan=True)
