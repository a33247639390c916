"""Hot elementwise numeric kernels: activations, fused losses, optimizers.

Each kernel is one vectorized numpy function. Matrix products are
deliberately *not* here: they stay on numpy's BLAS, where a hand-rolled loop
cannot compete.

All kernels are float64 in, float64 out. Where a kernel runs in place over
blocks, each element still sees the IEEE operations of the textbook
expression in its order, so results do not depend on the block size.
"""

from __future__ import annotations

import math

import numpy as np

# Sigmoid outputs are clamped to the open unit interval so downstream
# log() calls can never see an exact 0 or 1.
UNIT_EPS = 1e-12

# Smallest positive normal float; softmax probabilities are floored here so
# rows stay strictly positive even for extreme logit gaps.
_TINY = np.finfo(np.float64).tiny

# Elements per block of the in-place numpy passes (Adam, SGD, sigmoid):
# small enough that a block of every operand and scratch buffer stays in
# cache.
BLOCK = 1 << 15


def relu_fwd(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    return np.maximum(x, 0.0, out=out)


def sigmoid_fwd(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    # Mask-free over blocks of rows, so exp() never overflows and no
    # full-size temporary is made: e = exp(-|x|), then max(e, x >= 0) /
    # (1 + e), per element the IEEE operations of the two branches
    # 1 / (1 + exp(-x)) and exp(x) / (1 + exp(x)). The select is arithmetic:
    # e <= 1 where x >= 0 and e >= +0 elsewhere, and max() keeps a NaN. The
    # 0/1 mask is written into the output block once e is taken, so ``out``
    # may be ``x`` and ``e`` is the only scratch block.
    if out is None:
        out = np.empty_like(x)
    rows = max(1, BLOCK // max(1, math.prod(x.shape[1:])))
    e = np.empty((min(rows, x.shape[0]),) + x.shape[1:])
    for start in range(0, x.shape[0], rows):
        stop = min(start + rows, x.shape[0])
        xb, ob = x[start:stop], out[start:stop]
        eb = e[: stop - start]
        np.exp(np.copysign(xb, -1.0, out=eb), out=eb)
        np.greater_equal(xb, 0.0, out=ob)
        np.maximum(eb, ob, out=ob)
        eb += 1.0
        ob /= eb
        np.clip(ob, UNIT_EPS, 1.0 - UNIT_EPS, out=ob)
    return out


def softmax_rows(x: np.ndarray) -> np.ndarray:
    m = x.max(axis=1, keepdims=True)
    e = np.exp(x - m)
    np.maximum(e, _TINY, out=e)
    return e / e.sum(axis=1, keepdims=True)


def softmax_xent(logits: np.ndarray, labels: np.ndarray) -> tuple[float, np.ndarray]:
    n = logits.shape[0]
    m = logits.max(axis=1)
    lse = m + np.log(np.exp(logits - m[:, None]).sum(axis=1))
    loss = float(np.mean(lse - logits[np.arange(n), labels]))
    grad = softmax_rows(logits)
    grad[np.arange(n), labels] -= 1.0
    grad /= n
    return loss, grad


def bce_logits(logits: np.ndarray, targets: np.ndarray) -> tuple[float, np.ndarray]:
    n = logits.shape[0]
    # softplus form: max(l, 0) - l*t + log1p(exp(-|l|)) is exact and never
    # overflows, unlike -[t*log(sigmoid) + (1-t)*log(1-sigmoid)]. Two
    # full-size buffers, no boolean indexing: exp(-|l|) is computed twice
    # rather than held in a third.
    terms = np.maximum(logits, 0.0)
    e = np.multiply(logits, targets)
    terms -= e
    np.exp(np.copysign(logits, -1.0, out=e), out=e)
    terms += np.log1p(e, out=e)
    loss = float(terms.sum() / n)
    # Unclamped sigmoid, max(e, l >= 0) / (1 + e): the exact derivative, with
    # the 0/1 mask written into ``terms``, which becomes the gradient.
    np.exp(np.copysign(logits, -1.0, out=e), out=e)
    np.greater_equal(logits, 0.0, out=terms)
    np.maximum(e, terms, out=terms)
    e += 1.0
    terms /= e
    terms -= targets
    terms /= n
    return loss, terms


def kl_terms(mu: np.ndarray, log_var: np.ndarray) -> tuple[float, np.ndarray, np.ndarray]:
    n = mu.shape[0]
    # expm1 keeps exp(lv) - 1 - lv exact near zero; with plain exp() the
    # difference cancels to -lv and the divergence dips below zero.
    em1 = np.expm1(log_var)
    kl = float(0.5 * np.sum(mu * mu + em1 - log_var) / n)
    dmu = mu / n
    dlv = 0.5 * em1 / n
    return kl, dmu, dlv


def reparam_fwd(mu: np.ndarray, log_var: np.ndarray, noise: np.ndarray) -> np.ndarray:
    return mu + np.exp(0.5 * log_var) * noise


def reparam_dlv(g: np.ndarray, log_var: np.ndarray, noise: np.ndarray) -> np.ndarray:
    return 0.5 * np.exp(0.5 * log_var) * noise * g


def adam_step(
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
    # rows of ``scratch`` (shape ``(2, min(n, BLOCK))``, allocated here
    # when not given). Each element sees the IEEE operations of the textbook
    # expression in its order: m*b1 + (1-b1)*g, v*b2 + ((1-b2)*g)*g, then
    # p - (lr*(m/bc1)) / (sqrt(v/bc2) + eps).
    bc1 = 1.0 - beta1**t
    bc2 = 1.0 - beta2**t
    n = p.shape[0]
    if scratch is None:
        scratch = np.empty((2, min(n, BLOCK)))
    scratch_a, scratch_b = scratch
    for start in range(0, n, BLOCK):
        stop = min(start + BLOCK, n)
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


def sgd_step(
    p: np.ndarray, g: np.ndarray, lr: float, scratch: np.ndarray | None = None
) -> None:
    # In place over blocks, ``lr * g`` held in the first row of ``scratch``
    # (allocated here when not given): per element exactly p - lr*g.
    n = p.shape[0]
    if scratch is None:
        scratch = np.empty((1, min(n, BLOCK)))
    for start in range(0, n, BLOCK):
        stop = min(start + BLOCK, n)
        a = scratch[0, : stop - start]
        np.multiply(g[start:stop], lr, out=a)
        np.subtract(p[start:stop], a, out=p[start:stop])


def backend_name() -> str:
    """Name of the kernel implementation, recorded by the benchmark."""
    return "numpy"
