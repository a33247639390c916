"""Hot elementwise numeric kernels: activations, fused losses, the Adam update.

Each kernel is one vectorized numpy function. Matrix products are
deliberately *not* here: they stay on numpy's BLAS, where a hand-rolled loop
cannot compete.

``fork_join`` runs the parts of a split pass (today the optimizer's flat
buffers) on a small pool of worker threads; numpy releases the GIL inside
its loops, so the parts run in parallel.

All kernels are float64 in, float64 out. Where a kernel runs in place over
blocks, each element still sees the IEEE operations of the textbook
expression in its order, so results do not depend on the block size.
"""

from __future__ import annotations

import math
import os

import numpy as np

# Sigmoid outputs are clamped so decoded pixels (replay images) stay strictly
# inside (0, 1): unclamped, a logit past about 36.7 gives exactly 1.0. The
# clamp moves every output whose logit lies beyond about +-27.6.
UNIT_EPS = 1e-12

# Smallest positive normal float; softmax probabilities are floored here so
# rows stay strictly positive even for extreme logit gaps.
_TINY = np.finfo(np.float64).tiny

# Elements per block of the in-place numpy passes (Adam, sigmoid):
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
    # One exp(logits - max): the loss's log-sum-exp sums it before the
    # _TINY floor, then the floored rows are normalised in place, as
    # ``softmax_rows`` computes them, and become the gradient.
    n = logits.shape[0]
    rows = np.arange(n)
    m = np.maximum.reduce(logits, axis=1, keepdims=True)
    e = np.exp(np.subtract(logits, m))
    lse = m[:, 0] + np.log(np.add.reduce(e, axis=1))
    loss = float(np.add.reduce(lse - logits[rows, labels]) / n)
    np.maximum(e, _TINY, out=e)
    e /= np.add.reduce(e, axis=1, keepdims=True)
    e[rows, labels] -= 1.0
    e /= n
    return loss, e


def bce_logits(
    logits: np.ndarray,
    targets: np.ndarray,
    out: np.ndarray | None = None,
    e: np.ndarray | None = None,
    tmp: np.ndarray | None = None,
) -> tuple[float, np.ndarray]:
    n = logits.shape[0]
    # softplus form: max(l, 0) - l*t + log1p(exp(-|l|)) is exact and never
    # overflows, unlike -[t*log(sigmoid) + (1-t)*log(1-sigmoid)]. No boolean
    # indexing. ``out``, ``e`` and ``tmp`` are buffers shaped like the
    # logits, allocated here when not given; the gradient goes into ``out``.
    # With all three, exp(-|l|) is computed once and held in ``e``. Without
    # ``tmp``, two buffers do: ``e`` serves as ``tmp`` and exp(-|l|) is
    # computed again after the loss.
    if out is None:
        out = np.empty_like(logits)
    if e is None:
        e = np.empty_like(logits)
    held = tmp is not None
    if not held:
        tmp = e
    np.maximum(logits, 0.0, out=out)
    out -= np.multiply(logits, targets, out=tmp)
    np.exp(np.copysign(logits, -1.0, out=e), out=e)
    out += np.log1p(e, out=tmp)
    loss = float(np.add.reduce(out, axis=None) / n)
    if not held:
        np.exp(np.copysign(logits, -1.0, out=e), out=e)
    # Unclamped sigmoid, max(e, l >= 0) / (1 + e): the exact derivative, with
    # the 0/1 mask written into ``out``, which becomes the gradient.
    np.greater_equal(logits, 0.0, out=out)
    np.maximum(e, out, out=out)
    e += 1.0
    out /= e
    out -= targets
    out /= n
    return loss, out


def kl_terms(mu: np.ndarray, log_var: np.ndarray) -> tuple[float, np.ndarray, np.ndarray]:
    n = mu.shape[0]
    # expm1 keeps exp(lv) - 1 - lv exact near zero; with plain exp() the
    # difference cancels to -lv and the divergence dips below zero. The
    # terms (mu*mu + em1) - lv are summed in one buffer, which then takes
    # mu's gradient; em1's buffer takes log_var's.
    em1 = np.expm1(log_var)
    terms = np.multiply(mu, mu)
    terms += em1
    terms -= log_var
    kl = float(0.5 * np.add.reduce(terms, axis=None) / n)
    dmu = np.divide(mu, n, out=terms)
    em1 *= 0.5
    em1 /= n
    return kl, dmu, em1


def reparam_std(log_var: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """The draw's standard deviation ``exp(0.5 * log_var)``, into ``out`` when given."""
    out = np.multiply(log_var, 0.5, out=out)
    return np.exp(out, out=out)


def reparam_fwd(
    mu: np.ndarray,
    log_var: np.ndarray,
    noise: np.ndarray,
    std: np.ndarray | None = None,
    out: np.ndarray | None = None,
) -> np.ndarray:
    # mu + std * noise, into ``out`` when given. ``std`` is
    # ``reparam_std(log_var)``, computed here unless the caller holds it.
    if std is None:
        std = reparam_std(log_var)
    out = np.multiply(std, noise, out=out)
    out += mu
    return out


def reparam_dlv(
    g: np.ndarray,
    log_var: np.ndarray,
    noise: np.ndarray,
    std: np.ndarray | None = None,
    out: np.ndarray | None = None,
) -> np.ndarray:
    # ((0.5 * std) * noise) * g, with ``std`` and ``out`` as in ``reparam_fwd``.
    if std is None:
        std = reparam_std(log_var)
    out = np.multiply(std, 0.5, out=out)
    out *= noise
    out *= g
    return out


def all_finite(x: np.ndarray, row: np.ndarray) -> bool:
    """Whether every entry of the flat ``x`` is finite, scanned a block at a time.

    Each block's mask is written into ``row``, a float64 scratch row of at
    least ``min(x.size, BLOCK)`` entries viewed as booleans, so the scan
    makes no temporary array.
    """
    mask = row.view(np.bool_)
    for start in range(0, x.size, BLOCK):
        part = x[start : start + BLOCK]
        if not np.isfinite(part, out=mask[: part.size]).all():
            return False
    return True


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
) -> bool:
    # In place over fixed-size blocks with two small scratch buffers, the
    # rows of ``scratch`` (shape ``(2, min(n, BLOCK))``, allocated here
    # when not given). Each element sees the IEEE operations of the textbook
    # expression in its order: m*b1 + (1-b1)*g, v*b2 + ((1-b2)*g)*g, then
    # p - (lr*(m/bc1)) / (sqrt(v/bc2) + eps). Returns whether every updated
    # entry of ``p`` and ``v`` is finite, each block scanned while it is
    # still in cache.
    bc1 = 1.0 - beta1**t
    bc2 = 1.0 - beta2**t
    n = p.shape[0]
    if scratch is None:
        scratch = np.empty((2, min(n, BLOCK)))
    scratch_a, scratch_b = scratch
    finite = True
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
        finite = finite and all_finite(pb, scratch_a) and all_finite(vb, scratch_a)
    return finite


# ---------------------------------------------------------------------------
# worker pool
# ---------------------------------------------------------------------------

# Workers of a split pass: the calling thread plus up to this many minus one
# pool threads.
MAX_WORKERS = 2

_workers = 0  # 0 until the first ``workers()`` call
_pool = None  # the pool threads' executor, when there are any
_blas: list = []  # the loaded OpenBLAS libraries whose threads a split pass stops


def workers() -> int:
    """How many workers a split pass uses; starts the pool on the first call.

    That is ``min(MAX_WORKERS, usable cores)``, but one (no pool thread) when
    no loaded OpenBLAS lets ``fork_join`` stop its threads, which would
    otherwise keep spinning on the cores the pool needs.
    """
    global _workers, _pool, _blas
    if not _workers:
        cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
        count = min(MAX_WORKERS, cores)
        _blas = _openblas_libraries() if count > 1 else []
        if _blas:
            from concurrent.futures import ThreadPoolExecutor

            _pool = ThreadPoolExecutor(count - 1, thread_name_prefix="clare-kernels")
            # A forked child has none of the pool's threads: it starts its own.
            os.register_at_fork(after_in_child=_forget_pool)
        else:
            count = 1
        _workers = count
    return _workers


def _forget_pool() -> None:
    global _workers, _pool
    _workers, _pool = 0, None


def fork_join(fn, parts: list) -> list:
    """``[fn(part) for part in parts]``, the first part on the calling thread.

    The other parts go to the pool's threads, or run on the calling thread
    too when there is no pool. Returns once every part has finished, and
    re-raises the first failure only then, so no part is still writing when
    the caller sees the result or the error.

    A pass on the pool first stops OpenBLAS's threads. After each matrix
    product they spin for up to 2**28 clock cycles (about 0.1 s, OpenBLAS's
    default) waiting for the next one, on the cores the pool needs; the
    next matrix product starts them again. Nothing else in the program runs
    a matrix product meanwhile.
    """
    if len(parts) == 1 or workers() == 1:
        return [fn(part) for part in parts]
    for lib in _blas:
        lib.blas_thread_shutdown_()
    from concurrent.futures import wait

    futures = [_pool.submit(fn, part) for part in parts[1:]]
    try:
        first = fn(parts[0])
    finally:
        wait(futures)
    return [first] + [future.result() for future in futures]


def _openblas_libraries() -> list:
    """Every loaded OpenBLAS that exports ``blas_thread_shutdown_``."""
    import ctypes

    try:
        with open("/proc/self/maps") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line.rsplit("/", 1)[-1]}
    except OSError:
        return []
    found = []
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        if hasattr(lib, "blas_thread_shutdown_"):
            lib.blas_thread_shutdown_.argtypes = []
            lib.blas_thread_shutdown_.restype = ctypes.c_int
            found.append(lib)
    return found


def backend_name() -> str:
    """Name of the kernel implementation, recorded by the benchmark."""
    return "numpy"
