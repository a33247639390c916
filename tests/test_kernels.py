"""The elementwise kernels: stability at extreme inputs, and bit-exactness
against the branchwise formulas in ``oracles`` and against the training
step's kernels as first written."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from clare import kernels
from clare.model import LOG_VAR_MAX, LOG_VAR_MIN, ClareModel, StepWorkspace, forward_backward
from oracles import (
    bce_logits_oracle,
    kl_terms_oracle,
    reparam_dlv_oracle,
    reparam_fwd_oracle,
    sigmoid_oracle,
    softmax_xent_oracle,
)


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


@st.composite
def filled(draw, shape, low: float, high: float, edges):
    """A seeded uniform(low, high) array with entries hypothesis picks set to
    one of ``edges``."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    out = rng.uniform(low, high, shape)
    keep = np.nan  # marks an entry left as drawn
    picks = draw(hnp.arrays(np.float64, shape, elements=st.sampled_from([keep, *edges])))
    return np.where(np.isnan(picks), out, picks)


SIGNED_ZEROS = (0.0, -0.0)


@st.composite
def logits_and_labels(draw):
    """Logits with every label value present in the labels.

    With two or more classes, row 0's first logit is 800 above the rest, so
    ``exp`` underflows to zero there and the ``_TINY`` floor acts; other
    entries may be 720 apart, where ``exp`` is subnormal.
    """
    classes = draw(st.integers(1, 12))
    n = draw(st.integers(classes, 40))
    logits = draw(filled((n, classes), -30.0, 30.0, SIGNED_ZEROS + (720.0, -720.0, 1e4)))
    if classes > 1:
        logits[0, 0] = logits[0].max() + 800.0
    extra = draw(hnp.arrays(np.int64, n - classes, elements=st.integers(0, classes - 1)))
    labels = np.array(draw(st.permutations(np.concatenate([np.arange(classes), extra]))))
    return logits, labels


@st.composite
def latents(draw, count: int):
    """``count`` arrays of one ``(n, d_z)`` shape: a first (the mean or the
    gradient), the log-variance, then the rest.

    Log-variances include the clip bounds, which the first and last entries
    always hold; every array may hold zeros of either sign.
    """
    shape = (draw(st.integers(1, 128)), draw(st.integers(1, 64)))
    log_var = draw(filled(shape, LOG_VAR_MIN, LOG_VAR_MAX, (LOG_VAR_MIN, LOG_VAR_MAX) + SIGNED_ZEROS))
    log_var.flat[0], log_var.flat[-1] = LOG_VAR_MIN, LOG_VAR_MAX
    others = [draw(filled(shape, -4.0, 4.0, SIGNED_ZEROS)) for _ in range(count - 1)]
    return [others[0], log_var, *others[1:]]


class TestStepKernelsAgainstFirstWritten:
    """The step's cross-entropy, KL and reparameterization kernels compute
    each quantity once, with the operations of ``oracles``' versions."""

    @given(logits_and_labels())
    def test_softmax_xent(self, case):
        logits, labels = case
        before = logits.copy()
        loss, grad = kernels.softmax_xent(logits, labels)
        want_loss, want_grad = softmax_xent_oracle(logits, labels)
        assert loss == want_loss
        assert np.array_equal(grad, want_grad)
        assert np.array_equal(logits, before)

    @given(latents(2))
    def test_kl_terms(self, arrays):
        mu, log_var = arrays
        kl, dmu, dlv = kernels.kl_terms(mu, log_var)
        want_kl, want_dmu, want_dlv = kl_terms_oracle(mu, log_var)
        assert kl == want_kl
        assert np.array_equal(dmu, want_dmu)
        assert np.array_equal(dlv, want_dlv)

    @given(latents(4), st.booleans())
    def test_reparameterization(self, arrays, held):
        # ``held``: the caller passes ``reparam_std``'s result and output buffers.
        mu, log_var, noise, g = arrays
        if held:
            std = np.full_like(log_var, np.nan)
            assert kernels.reparam_std(log_var, out=std) is std
            z_out, dlv_out = np.full_like(mu, np.nan), np.full_like(mu, np.nan)
            z = kernels.reparam_fwd(mu, log_var, noise, std=std, out=z_out)
            dlv = kernels.reparam_dlv(g, log_var, noise, std=std, out=dlv_out)
            assert z is z_out and dlv is dlv_out
        else:
            z = kernels.reparam_fwd(mu, log_var, noise)
            dlv = kernels.reparam_dlv(g, log_var, noise)
        assert np.array_equal(z, reparam_fwd_oracle(mu, log_var, noise))
        assert np.array_equal(dlv, reparam_dlv_oracle(g, log_var, noise))


@pytest.mark.parametrize(
    "dims", [(3, 64, 16, (48, 32), (32, 48)), (10, 64, 784, (512, 256), (256, 512))],
    ids=["toy", "digit"],
)
def test_the_step_with_the_first_written_kernels_is_bit_identical(dims, monkeypatch):
    # The toy quick-start's and the digit network's shapes at batch 128. The
    # log-variance biases put some draws beyond each clip bound.
    rng = np.random.default_rng(21)
    model = ClareModel(*dims, rng=rng)
    model.tape.param("enc_blv")[:] = rng.uniform(-14.0, 14.0, dims[1])
    ws = StepWorkspace(dims, 128)
    ws.x[...] = rng.uniform(size=ws.x.shape)
    ws.labels[...] = rng.permutation(np.arange(128) % dims[0])
    rng.standard_normal(out=ws.noise)
    got = forward_backward(model, ws)
    grads = model.tape.flat_grads.copy()
    assert (ws.lv == LOG_VAR_MIN).any() and (ws.lv == LOG_VAR_MAX).any()
    for name, oracle in [
        ("softmax_xent", softmax_xent_oracle),
        ("kl_terms", kl_terms_oracle),
        ("reparam_fwd", reparam_fwd_oracle),
        ("reparam_dlv", reparam_dlv_oracle),
    ]:
        # The first-written kernels take no buffers.
        monkeypatch.setattr(kernels, name, lambda *args, _oracle=oracle, **_: _oracle(*args))
    want = forward_backward(model, ws)
    assert got == want
    assert np.array_equal(model.tape.flat_grads, grads)
