"""Hot numeric kernels with numba-compiled and pure-numpy implementations.

Every kernel exists twice: a vectorized numpy version and a fused loop
version compiled by numba. The active path is chosen once at import time:
set ``CLARE_NUMBA=0`` (or ``off``/``false``/``no``) to force the numpy
fallback; by default the numba path is used whenever numba imports.
Matrix products are deliberately *not* here: they stay on numpy's BLAS in
both paths, where a hand-rolled loop cannot compete.

All kernels are float64 in, float64 out. fastmath stays off so results are
reproducible and NaNs propagate instead of being optimized away.
"""

from __future__ import annotations

import math
import os

import numpy as np

try:
    from numba import njit

    _HAS_NUMBA = True
except ImportError:  # pragma: no cover - exercised only without numba
    _HAS_NUMBA = False

    def njit(*args, **kwargs):
        def wrap(func):
            return func

        if args and callable(args[0]):
            return args[0]
        return wrap


# Sigmoid outputs are clamped to the open unit interval so downstream
# log() calls can never see an exact 0 or 1.
UNIT_EPS = 1e-12

# Smallest positive normal float; softmax probabilities are floored here so
# rows stay strictly positive even for extreme logit gaps.
_TINY = np.finfo(np.float64).tiny

# Elements per block of the in-place numpy Adam pass: small enough that a
# block of p, g, m, v and the two scratch buffers stays in cache.
ADAM_BLOCK = 1 << 15


def _env_wants_numba() -> bool:
    flag = os.environ.get("CLARE_NUMBA", "").strip().lower()
    if flag in ("0", "off", "false", "no"):
        return False
    return _HAS_NUMBA


USE_NUMBA = _env_wants_numba()


# ---------------------------------------------------------------------------
# numpy implementations
# ---------------------------------------------------------------------------


def _np_relu_fwd(x: np.ndarray) -> np.ndarray:
    return np.maximum(x, 0.0)


def _np_relu_bwd(g: np.ndarray, x: np.ndarray) -> np.ndarray:
    return np.where(x > 0.0, g, 0.0)


def _np_sigmoid_fwd(x: np.ndarray) -> np.ndarray:
    # Split by sign so exp() never overflows.
    out = np.empty_like(x)
    pos = x >= 0.0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    np.clip(out, UNIT_EPS, 1.0 - UNIT_EPS, out=out)
    return out


def _np_sigmoid_bwd(g: np.ndarray, y: np.ndarray) -> np.ndarray:
    return g * y * (1.0 - y)


def _np_softmax_rows(x: np.ndarray) -> np.ndarray:
    m = x.max(axis=1, keepdims=True)
    e = np.exp(x - m)
    np.maximum(e, _TINY, out=e)
    return e / e.sum(axis=1, keepdims=True)


def _np_softmax_xent(logits: np.ndarray, labels: np.ndarray) -> tuple[float, np.ndarray]:
    n = logits.shape[0]
    m = logits.max(axis=1)
    lse = m + np.log(np.exp(logits - m[:, None]).sum(axis=1))
    loss = float(np.mean(lse - logits[np.arange(n), labels]))
    grad = _np_softmax_rows(logits)
    grad[np.arange(n), labels] -= 1.0
    grad /= n
    return loss, grad


def _np_bce_logits(logits: np.ndarray, targets: np.ndarray) -> tuple[float, np.ndarray]:
    n = logits.shape[0]
    # softplus form: max(l, 0) - l*t + log1p(exp(-|l|)) is exact and never
    # overflows, unlike -[t*log(sigmoid) + (1-t)*log(1-sigmoid)]. Two
    # full-size buffers, no boolean indexing: exp(-|l|) is computed twice
    # rather than held in a third.
    terms = np.maximum(logits, 0.0)
    e = np.multiply(logits, targets)
    terms -= e
    np.exp(np.negative(np.abs(logits, out=e), out=e), out=e)
    terms += np.log1p(e, out=e)
    loss = float(terms.sum() / n)
    # Unclamped sigmoid, where(l >= 0, 1, e) / (1 + e): the exact derivative.
    np.exp(np.negative(np.abs(logits, out=e), out=e), out=e)
    np.add(e, 1.0, out=terms)
    np.copyto(e, 1.0, where=logits >= 0.0)
    np.divide(e, terms, out=e)
    e -= targets
    e /= n
    return loss, e


def _np_bce_probs(x: np.ndarray, xhat: np.ndarray) -> float:
    n = x.shape[0]
    per_elem = -(x * np.log(xhat) + (1.0 - x) * np.log1p(-xhat))
    return float(per_elem.sum() / n)


def _np_kl_terms(mu: np.ndarray, log_var: np.ndarray) -> tuple[float, np.ndarray, np.ndarray]:
    n = mu.shape[0]
    # expm1 keeps exp(lv) - 1 - lv exact near zero; with plain exp() the
    # difference cancels to -lv and the divergence dips below zero.
    em1 = np.expm1(log_var)
    kl = float(0.5 * np.sum(mu * mu + em1 - log_var) / n)
    dmu = mu / n
    dlv = 0.5 * em1 / n
    return kl, dmu, dlv


def _np_reparam_fwd(mu: np.ndarray, log_var: np.ndarray, noise: np.ndarray) -> np.ndarray:
    return mu + np.exp(0.5 * log_var) * noise


def _np_reparam_dlv(g: np.ndarray, log_var: np.ndarray, noise: np.ndarray) -> np.ndarray:
    return 0.5 * np.exp(0.5 * log_var) * noise * g


def _np_adam_step(
    p: np.ndarray,
    g: np.ndarray,
    m: np.ndarray,
    v: np.ndarray,
    t: int,
    lr: float,
    beta1: float,
    beta2: float,
    eps: float,
    scratch: np.ndarray | None = None,
) -> None:
    # In place over fixed-size blocks with two small scratch buffers, the
    # rows of ``scratch`` (shape ``(2, min(n, ADAM_BLOCK))``, allocated here
    # when not given). Each element sees the IEEE operations of the textbook
    # expression in its order: m*b1 + (1-b1)*g, v*b2 + ((1-b2)*g)*g, then
    # p - (lr*(m/bc1)) / (sqrt(v/bc2) + eps).
    bc1 = 1.0 - beta1**t
    bc2 = 1.0 - beta2**t
    n = p.shape[0]
    if scratch is None:
        scratch = np.empty((2, min(n, ADAM_BLOCK)))
    scratch_a, scratch_b = scratch
    for start in range(0, n, ADAM_BLOCK):
        stop = min(start + ADAM_BLOCK, n)
        pb, gb, mb, vb = p[start:stop], g[start:stop], m[start:stop], v[start:stop]
        a = scratch_a[: stop - start]
        b = scratch_b[: stop - start]
        np.multiply(mb, beta1, out=mb)
        np.multiply(gb, 1.0 - beta1, out=a)
        np.add(mb, a, out=mb)
        np.multiply(vb, beta2, out=vb)
        np.multiply(gb, 1.0 - beta2, out=a)
        np.multiply(a, gb, out=a)
        np.add(vb, a, out=vb)
        np.divide(vb, bc2, out=a)
        np.sqrt(a, out=a)
        np.add(a, eps, out=a)
        np.divide(mb, bc1, out=b)
        np.multiply(b, lr, out=b)
        np.divide(b, a, out=b)
        np.subtract(pb, b, out=pb)


def _np_sgd_step(p: np.ndarray, g: np.ndarray, lr: float) -> None:
    p -= lr * g


# ---------------------------------------------------------------------------
# numba implementations
# ---------------------------------------------------------------------------

if _HAS_NUMBA:

    @njit(cache=True)
    def _nb_relu_fwd(x):
        out = np.empty_like(x)
        for i in range(x.shape[0]):
            for j in range(x.shape[1]):
                v = x[i, j]
                out[i, j] = v if v > 0.0 else 0.0
        return out

    @njit(cache=True)
    def _nb_relu_bwd(g, x):
        out = np.empty_like(g)
        for i in range(g.shape[0]):
            for j in range(g.shape[1]):
                out[i, j] = g[i, j] if x[i, j] > 0.0 else 0.0
        return out

    @njit(cache=True)
    def _nb_sigmoid_fwd(x):
        out = np.empty_like(x)
        lo = UNIT_EPS
        hi = 1.0 - UNIT_EPS
        for i in range(x.shape[0]):
            for j in range(x.shape[1]):
                v = x[i, j]
                if v >= 0.0:
                    s = 1.0 / (1.0 + math.exp(-v))
                else:
                    e = math.exp(v)
                    s = e / (1.0 + e)
                if s < lo:
                    s = lo
                elif s > hi:
                    s = hi
                out[i, j] = s
        return out

    @njit(cache=True)
    def _nb_sigmoid_bwd(g, y):
        out = np.empty_like(g)
        for i in range(g.shape[0]):
            for j in range(g.shape[1]):
                yy = y[i, j]
                out[i, j] = g[i, j] * yy * (1.0 - yy)
        return out

    @njit(cache=True)
    def _nb_softmax_rows(x):
        n, c = x.shape
        out = np.empty_like(x)
        for i in range(n):
            m = x[i, 0]
            for j in range(1, c):
                if x[i, j] > m:
                    m = x[i, j]
            s = 0.0
            for j in range(c):
                e = math.exp(x[i, j] - m)
                if e < _TINY:
                    e = _TINY
                out[i, j] = e
                s += e
            for j in range(c):
                out[i, j] /= s
        return out

    @njit(cache=True)
    def _nb_softmax_xent(logits, labels):
        n, c = logits.shape
        grad = np.empty_like(logits)
        loss = 0.0
        for i in range(n):
            m = logits[i, 0]
            for j in range(1, c):
                if logits[i, j] > m:
                    m = logits[i, j]
            s = 0.0
            for j in range(c):
                e = math.exp(logits[i, j] - m)
                if e < _TINY:
                    e = _TINY
                grad[i, j] = e
                s += e
            loss += m + math.log(s) - logits[i, labels[i]]
            for j in range(c):
                grad[i, j] /= s
            grad[i, labels[i]] -= 1.0
        for i in range(n):
            for j in range(c):
                grad[i, j] /= n
        return loss / n, grad

    @njit(cache=True)
    def _nb_bce_logits(logits, targets):
        n, d = logits.shape
        grad = np.empty_like(logits)
        loss = 0.0
        for i in range(n):
            for j in range(d):
                l = logits[i, j]
                t = targets[i, j]
                hinge = l if l > 0.0 else 0.0
                a = -l if l > 0.0 else l
                loss += hinge - l * t + math.log1p(math.exp(a))
                if l >= 0.0:
                    s = 1.0 / (1.0 + math.exp(-l))
                else:
                    e = math.exp(l)
                    s = e / (1.0 + e)
                grad[i, j] = (s - t) / n
        return loss / n, grad

    @njit(cache=True)
    def _nb_bce_probs(x, xhat):
        n, d = x.shape
        loss = 0.0
        for i in range(n):
            for j in range(d):
                loss -= x[i, j] * math.log(xhat[i, j]) + (1.0 - x[i, j]) * math.log1p(-xhat[i, j])
        return loss / n

    @njit(cache=True)
    def _nb_kl_terms(mu, log_var):
        n, d = mu.shape
        dmu = np.empty_like(mu)
        dlv = np.empty_like(log_var)
        acc = 0.0
        for i in range(n):
            for j in range(d):
                em1 = math.expm1(log_var[i, j])
                acc += mu[i, j] * mu[i, j] + em1 - log_var[i, j]
                dmu[i, j] = mu[i, j] / n
                dlv[i, j] = 0.5 * em1 / n
        return 0.5 * acc / n, dmu, dlv

    @njit(cache=True)
    def _nb_reparam_fwd(mu, log_var, noise):
        out = np.empty_like(mu)
        for i in range(mu.shape[0]):
            for j in range(mu.shape[1]):
                out[i, j] = mu[i, j] + math.exp(0.5 * log_var[i, j]) * noise[i, j]
        return out

    @njit(cache=True)
    def _nb_reparam_dlv(g, log_var, noise):
        out = np.empty_like(g)
        for i in range(g.shape[0]):
            for j in range(g.shape[1]):
                out[i, j] = 0.5 * math.exp(0.5 * log_var[i, j]) * noise[i, j] * g[i, j]
        return out

    @njit(cache=True)
    def _nb_adam_step(p, g, m, v, t, lr, beta1, beta2, eps, scratch=None):
        bc1 = 1.0 - beta1**t
        bc2 = 1.0 - beta2**t
        for i in range(p.shape[0]):
            gi = g[i]
            m[i] = beta1 * m[i] + (1.0 - beta1) * gi
            v[i] = beta2 * v[i] + (1.0 - beta2) * gi * gi
            p[i] -= lr * (m[i] / bc1) / (math.sqrt(v[i] / bc2) + eps)

    @njit(cache=True)
    def _nb_sgd_step(p, g, lr):
        for i in range(p.shape[0]):
            p[i] -= lr * g[i]


NUMPY_IMPLS = {
    "relu_fwd": _np_relu_fwd,
    "relu_bwd": _np_relu_bwd,
    "sigmoid_fwd": _np_sigmoid_fwd,
    "sigmoid_bwd": _np_sigmoid_bwd,
    "softmax_rows": _np_softmax_rows,
    "softmax_xent": _np_softmax_xent,
    "bce_logits": _np_bce_logits,
    "bce_probs": _np_bce_probs,
    "kl_terms": _np_kl_terms,
    "reparam_fwd": _np_reparam_fwd,
    "reparam_dlv": _np_reparam_dlv,
    "adam_step": _np_adam_step,
    "sgd_step": _np_sgd_step,
}

if _HAS_NUMBA:
    NUMBA_IMPLS = {
        "relu_fwd": _nb_relu_fwd,
        "relu_bwd": _nb_relu_bwd,
        "sigmoid_fwd": _nb_sigmoid_fwd,
        "sigmoid_bwd": _nb_sigmoid_bwd,
        "softmax_rows": _nb_softmax_rows,
        "softmax_xent": _nb_softmax_xent,
        "bce_logits": _nb_bce_logits,
        "bce_probs": _nb_bce_probs,
        "kl_terms": _nb_kl_terms,
        "reparam_fwd": _nb_reparam_fwd,
        "reparam_dlv": _nb_reparam_dlv,
        "adam_step": _nb_adam_step,
        "sgd_step": _nb_sgd_step,
    }
else:
    NUMBA_IMPLS = None

_ACTIVE = NUMBA_IMPLS if USE_NUMBA else NUMPY_IMPLS

relu_fwd = _ACTIVE["relu_fwd"]
relu_bwd = _ACTIVE["relu_bwd"]
sigmoid_fwd = _ACTIVE["sigmoid_fwd"]
sigmoid_bwd = _ACTIVE["sigmoid_bwd"]
softmax_rows = _ACTIVE["softmax_rows"]
softmax_xent = _ACTIVE["softmax_xent"]
bce_logits = _ACTIVE["bce_logits"]
bce_probs = _ACTIVE["bce_probs"]
kl_terms = _ACTIVE["kl_terms"]
reparam_fwd = _ACTIVE["reparam_fwd"]
reparam_dlv = _ACTIVE["reparam_dlv"]
adam_step = _ACTIVE["adam_step"]
sgd_step = _ACTIVE["sgd_step"]


def backend_name() -> str:
    """Name of the kernel path selected at import time."""
    return "numba" if USE_NUMBA else "numpy"


_WARMED = False


def warmup() -> None:
    """Run every active kernel once on tiny inputs.

    With the numba path this triggers JIT compilation up front so later
    calls (and timed sections) measure the algorithm, not the compiler.
    Idempotent and cheap on the numpy path.
    """
    global _WARMED
    if _WARMED:
        return
    x = np.array([[0.5, -0.25], [1.5, 0.0]])
    probs = np.array([[0.3, 0.7], [0.9, 0.1]])
    labels = np.array([0, 1], dtype=np.int64)
    one = np.array([0.5, -0.5])
    relu_bwd(x, relu_fwd(x))
    sigmoid_bwd(x, sigmoid_fwd(x))
    softmax_rows(x)
    softmax_xent(x, labels)
    bce_logits(x, probs)
    bce_probs(probs, probs)
    kl_terms(x, x)
    reparam_dlv(x, x, reparam_fwd(x, x, x))
    adam_step(one.copy(), one, np.zeros(2), np.zeros(2), 1, 0.1, 0.9, 0.999, 1e-8)
    sgd_step(one.copy(), one, 0.1)
    _WARMED = True
