"""The numba and numpy kernel paths must be interchangeable."""

from __future__ import annotations

import os
import subprocess
import sys

import numpy as np
import pytest
from numpy.testing import assert_allclose

from clare import kernels
from oracles import bce_logits_oracle

needs_numba = pytest.mark.skipif(
    kernels.NUMBA_IMPLS is None, reason="numba is not importable"
)

RTOL = 1e-12
ATOL = 1e-14


def _pair(name):
    return kernels.NUMPY_IMPLS[name], kernels.NUMBA_IMPLS[name]


@needs_numba
class TestBackendParity:
    """Both implementations of every kernel agree on random inputs."""

    rng = np.random.default_rng(42)

    def test_relu(self):
        x = self.rng.standard_normal((7, 11))
        g = self.rng.standard_normal((7, 11))
        np_f, nb_f = _pair("relu_fwd")
        assert_allclose(np_f(x), nb_f(x), rtol=RTOL, atol=ATOL)
        np_b, nb_b = _pair("relu_bwd")
        assert_allclose(np_b(g, x), nb_b(g, x), rtol=RTOL, atol=ATOL)

    def test_sigmoid(self):
        x = self.rng.standard_normal((5, 9)) * 20.0
        np_f, nb_f = _pair("sigmoid_fwd")
        ynp, ynb = np_f(x), nb_f(x)
        assert_allclose(ynp, ynb, rtol=RTOL, atol=ATOL)
        g = self.rng.standard_normal((5, 9))
        np_b, nb_b = _pair("sigmoid_bwd")
        assert_allclose(np_b(g, ynp), nb_b(g, ynb), rtol=RTOL, atol=ATOL)

    def test_softmax_rows(self):
        x = self.rng.standard_normal((6, 10)) * 5.0
        np_f, nb_f = _pair("softmax_rows")
        assert_allclose(np_f(x), nb_f(x), rtol=RTOL, atol=ATOL)

    def test_softmax_xent(self):
        logits = self.rng.standard_normal((8, 5)) * 3.0
        labels = self.rng.integers(0, 5, size=8)
        np_f, nb_f = _pair("softmax_xent")
        loss_np, grad_np = np_f(logits, labels)
        loss_nb, grad_nb = nb_f(logits, labels)
        assert_allclose(loss_np, loss_nb, rtol=RTOL)
        assert_allclose(grad_np, grad_nb, rtol=RTOL, atol=ATOL)

    def test_bce_logits(self):
        logits = self.rng.standard_normal((4, 12)) * 8.0
        targets = self.rng.uniform(0, 1, size=(4, 12))
        np_f, nb_f = _pair("bce_logits")
        loss_np, grad_np = np_f(logits, targets)
        loss_nb, grad_nb = nb_f(logits, targets)
        assert_allclose(loss_np, loss_nb, rtol=RTOL)
        assert_allclose(grad_np, grad_nb, rtol=RTOL, atol=ATOL)

    def test_bce_probs(self):
        x = self.rng.uniform(0, 1, size=(4, 6))
        xhat = self.rng.uniform(0.01, 0.99, size=(4, 6))
        np_f, nb_f = _pair("bce_probs")
        assert_allclose(np_f(x, xhat), nb_f(x, xhat), rtol=RTOL)

    def test_kl_terms(self):
        mu = self.rng.standard_normal((5, 4))
        lv = self.rng.standard_normal((5, 4))
        np_f, nb_f = _pair("kl_terms")
        kl_np, dmu_np, dlv_np = np_f(mu, lv)
        kl_nb, dmu_nb, dlv_nb = nb_f(mu, lv)
        assert_allclose(kl_np, kl_nb, rtol=RTOL)
        assert_allclose(dmu_np, dmu_nb, rtol=RTOL, atol=ATOL)
        assert_allclose(dlv_np, dlv_nb, rtol=RTOL, atol=ATOL)

    def test_reparam(self):
        mu = self.rng.standard_normal((3, 4))
        lv = self.rng.standard_normal((3, 4))
        noise = self.rng.standard_normal((3, 4))
        g = self.rng.standard_normal((3, 4))
        np_f, nb_f = _pair("reparam_fwd")
        assert_allclose(np_f(mu, lv, noise), nb_f(mu, lv, noise), rtol=RTOL, atol=ATOL)
        np_b, nb_b = _pair("reparam_dlv")
        assert_allclose(np_b(g, lv, noise), nb_b(g, lv, noise), rtol=RTOL, atol=ATOL)

    def test_adam_step(self):
        p0 = self.rng.standard_normal(20)
        g = self.rng.standard_normal(20)
        args = (0.01, 0.9, 0.999, 1e-8)
        p_np, m_np, v_np = p0.copy(), np.zeros(20), np.zeros(20)
        p_nb, m_nb, v_nb = p0.copy(), np.zeros(20), np.zeros(20)
        np_f, nb_f = _pair("adam_step")
        for t in range(1, 6):
            np_f(p_np, g, m_np, v_np, t, *args)
            nb_f(p_nb, g, m_nb, v_nb, t, *args)
        assert_allclose(p_np, p_nb, rtol=RTOL, atol=ATOL)
        assert_allclose(m_np, m_nb, rtol=RTOL, atol=ATOL)
        assert_allclose(v_np, v_nb, rtol=RTOL, atol=ATOL)

    def test_sgd_step(self):
        p_np = self.rng.standard_normal(10)
        p_nb = p_np.copy()
        g = self.rng.standard_normal(10)
        np_f, nb_f = _pair("sgd_step")
        np_f(p_np, g, 0.05)
        nb_f(p_nb, g, 0.05)
        assert_allclose(p_np, p_nb, rtol=RTOL, atol=ATOL)


class TestEnvFlag:
    """CLARE_NUMBA=0 selects the numpy path at import time."""

    def _backend_under(self, env_value):
        env = dict(os.environ)
        if env_value is None:
            env.pop("CLARE_NUMBA", None)
        else:
            env["CLARE_NUMBA"] = env_value
        out = subprocess.run(
            [sys.executable, "-c", "import clare.kernels as k; print(k.backend_name())"],
            capture_output=True,
            text=True,
            env=env,
            check=True,
        )
        return out.stdout.strip()

    def test_flag_off_forces_numpy(self):
        assert self._backend_under("0") == "numpy"
        assert self._backend_under("off") == "numpy"

    @needs_numba
    def test_default_uses_numba(self):
        assert self._backend_under(None) == "numba"
        assert self._backend_under("1") == "numba"


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
    def test_bce_logits_is_bit_identical_to_the_branchwise_formula(self):
        rng = np.random.default_rng(9)
        logits = rng.standard_normal((128, 784)) * 6.0
        logits[0, :6] = [800.0, -800.0, 0.0, -0.0, 40.0, -40.0]
        targets = rng.uniform(size=(128, 784))
        loss, grad = kernels.NUMPY_IMPLS["bce_logits"](logits, targets)
        want_loss, want_grad = bce_logits_oracle(logits, targets)
        assert loss == want_loss
        assert np.array_equal(grad, want_grad)
