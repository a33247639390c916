"""Parameter store, array ops and optimizers over float64 numpy arrays.

``ParamTape`` holds every named parameter and its gradient as views into
two flat buffers. The ops here are plain array functions for inference and
for the hand-written training step in ``model``: ``linear_backward`` writes
a layer's weight and bias gradients straight into the tape's views. There
is no recorded graph; ``optimizer_step`` consumes the gradients the step
assigned, in one pass over the flat buffers.
"""

from __future__ import annotations

import math
from typing import Iterable

import numpy as np

from . import kernels


class NonFiniteError(FloatingPointError):
    """A NaN or Inf appeared in a value that must stay finite."""


def check_finite(value: np.ndarray | float, what: str) -> None:
    """Raise ``NonFiniteError`` naming ``what`` if ``value`` is not finite."""
    if isinstance(value, float):
        if not math.isfinite(value):
            raise NonFiniteError(f"non-finite value in {what}")
    elif not np.isfinite(value).all():
        raise NonFiniteError(f"non-finite value in {what}")


def as_f64(x) -> np.ndarray:
    return np.ascontiguousarray(np.asarray(x, dtype=np.float64))


class ParamTape:
    """Ordered named parameters with matching gradient buffers.

    Names are unique; insertion order is the iteration order everywhere
    (updates, serialization), which keeps seeded runs bit-reproducible.
    The tape owns two contiguous float64 vectors, one for parameters and one
    for gradients; every named tensor is a reshaped view into them, so the
    optimizer and the finite checks each make one pass over a flat buffer.
    Build a tape from its ``(name, shape)`` list in one allocation; ``add``
    appends by repacking, which leaves arrays it returned earlier detached
    from the tape.

    A training step assigns every gradient (nothing accumulates) and marks
    the tape populated; ``optimizer_step`` refuses to run on a tape whose
    gradients were not produced since the last update.
    """

    def __init__(self, shapes: Iterable[tuple[str, tuple[int, ...]]] = ()):
        self._allocate([(name, tuple(int(d) for d in shape)) for name, shape in shapes])
        self.populated = False

    def _allocate(self, shapes: list[tuple[str, tuple[int, ...]]]) -> None:
        """Zero-filled flat buffers laid out in ``shapes`` order, with views."""
        sizes = [math.prod(shape) for _, shape in shapes]
        self.flat_params = np.zeros(sum(sizes))
        self.flat_grads = np.zeros(sum(sizes))
        self._params: dict[str, np.ndarray] = {}
        self._grads: dict[str, np.ndarray] = {}
        offset = 0
        for (name, shape), size in zip(shapes, sizes):
            if name in self._params:
                raise ValueError(f"duplicate parameter name {name!r}")
            self._params[name] = self.flat_params[offset : offset + size].reshape(shape)
            self._grads[name] = self.flat_grads[offset : offset + size].reshape(shape)
            offset += size

    def add(self, name: str, value: np.ndarray) -> np.ndarray:
        if name in self._params:
            raise ValueError(f"duplicate parameter name {name!r}")
        arr = as_f64(value)
        params, grads = self.flat_params, self.flat_grads
        self._allocate([*self.shapes(), (name, arr.shape)])
        self.flat_params[: params.size] = params
        self.flat_grads[: grads.size] = grads
        self._params[name][...] = arr
        return self._params[name]

    def names(self) -> list[str]:
        return list(self._params)

    def shapes(self) -> list[tuple[str, tuple[int, ...]]]:
        return [(name, value.shape) for name, value in self._params.items()]

    def param(self, name: str) -> np.ndarray:
        return self._params[name]

    def grad(self, name: str) -> np.ndarray:
        return self._grads[name]

    def set_param(self, name: str, value: np.ndarray) -> None:
        """Copy ``value`` into the parameter's view and zero its gradient."""
        arr = as_f64(value)
        if arr.shape != self._params[name].shape:
            raise ValueError(
                f"shape mismatch for {name!r}: have {self._params[name].shape}, got {arr.shape}"
            )
        self._params[name][...] = arr
        self._grads[name][...] = 0.0

    def check_finite(self, which: str) -> None:
        """One finite reduction over the flat ``"params"`` or ``"grads"`` buffer.

        Only when it fails are the tensors searched, so the raised
        ``NonFiniteError`` names the first one holding a bad value.
        """
        flat = self.flat_grads if which == "grads" else self.flat_params
        try:
            check_finite(flat, f"flat {which} buffer")
        except NonFiniteError:
            bad = int(np.flatnonzero(~np.isfinite(flat))[0])
            end = 0
            for name, value in self._params.items():
                end += value.size
                if bad < end:
                    break
            what = f"gradient of {name!r}" if which == "grads" else f"parameter {name!r}"
            raise NonFiniteError(f"non-finite value in {what}") from None

    def copy(self) -> "ParamTape":
        other = ParamTape(self.shapes())
        other.flat_params[...] = self.flat_params
        return other

    def __contains__(self, name: str) -> bool:
        return name in self._params

    def __len__(self) -> int:
        return len(self._params)


# ---------------------------------------------------------------------------
# ops
# ---------------------------------------------------------------------------


def _require_2d(x: np.ndarray, what: str) -> None:
    if x.ndim != 2:
        raise ValueError(f"{what} must be 2-d, got shape {x.shape}")


def _check_linear_shapes(w: np.ndarray, b: np.ndarray, x: np.ndarray) -> None:
    _require_2d(w, "weight")
    _require_2d(x, "input")
    if b.ndim != 1:
        raise ValueError(f"bias must be 1-d, got shape {b.shape}")
    if x.shape[1] != w.shape[1]:
        raise ValueError(f"input shape {x.shape} does not match weight shape {w.shape}")
    if b.shape[0] != w.shape[0]:
        raise ValueError(f"bias shape {b.shape} does not match weight shape {w.shape}")


def linear_forward(w, b, x, out=None):
    """Affine map ``y[i, j] = sum_k x[i, k] * w[j, k] + b[j]``.

    ``w`` is stored output-major ``(out, in)``; the product runs on BLAS.
    When ``out`` is given, ``y`` is written into it, with the same
    arithmetic.
    """
    w, b, x = as_f64(w), as_f64(b), as_f64(x)
    _check_linear_shapes(w, b, x)
    if out is None:
        return x @ w.T + b
    np.matmul(x, w.T, out=out)
    out += b
    return out


def linear_backward(g, x, w, dw, db, dx=None) -> None:
    """Gradients of ``y = x @ w.T + b`` from ``g = dL/dy``, written in place.

    ``dw`` receives ``g.T @ x`` and ``db`` the column sums of ``g``, both
    assigned rather than accumulated; ``dx`` (when given) receives ``g @ w``.
    Any of them may be a strided view, such as a column block of a tape
    gradient.
    """
    np.matmul(g.T, x, out=dw)
    np.sum(g, axis=0, out=db)
    if dx is not None:
        np.matmul(g, w, out=dx)


def relu(x, out=None):
    """Elementwise ``max(x, 0)``, into ``out`` when given (it may be ``x``)."""
    return kernels.relu_fwd(as_f64(x), out=out)


def sigmoid(x, out=None):
    """Elementwise logistic function, clamped inside the open interval (0, 1).

    Written into ``out`` when given; ``out`` may be ``x``.
    """
    return kernels.sigmoid_fwd(as_f64(x), out=out)


def softmax_rows(x: np.ndarray) -> np.ndarray:
    """Row-wise softmax with the log-sum-exp shift.

    Rows sum to 1 within 1e-12 and stay strictly positive: exponentials are
    floored at the smallest normal float before normalizing, so even a row
    like ``[1000, 0]`` neither overflows nor produces an exact zero.
    """
    x = as_f64(x)
    _require_2d(x, "logits")
    return kernels.softmax_rows(x)


def concat_columns(a, b, out=None):
    """Concatenate two batches along columns (axis 1), into ``out`` when given."""
    a, b = as_f64(a), as_f64(b)
    if a.shape[0] != b.shape[0]:
        raise ValueError(f"batch sizes differ: {a.shape} vs {b.shape}")
    return np.concatenate([a, b], axis=1, out=out)


def clip(x, lo: float, hi: float):
    """Clamp values to ``[lo, hi]``."""
    return np.clip(as_f64(x), lo, hi)


def reparameterize_draw(mu, log_var, noise: np.ndarray):
    """``z = mu + exp(log_var / 2) * noise`` with externally supplied noise."""
    mu, log_var, noise = as_f64(mu), as_f64(log_var), as_f64(noise)
    if mu.shape != log_var.shape or mu.shape != noise.shape:
        raise ValueError(
            f"mu {mu.shape}, log_var {log_var.shape} and noise {noise.shape} "
            f"must share a shape"
        )
    return kernels.reparam_fwd(mu, log_var, noise)


def kl_to_standard_normal(mu, log_var):
    """Batch-mean KL divergence from ``N(mu, exp(log_var))`` to ``N(0, I)``.

    ``0.5 * sum(mu^2 + exp(log_var) - 1 - log_var)`` summed per sample,
    averaged over the batch. Zero exactly when ``mu = log_var = 0``.
    """
    kl, _, _ = kernels.kl_terms(as_f64(mu), as_f64(log_var))
    return kl


# ---------------------------------------------------------------------------
# init and optimizers
# ---------------------------------------------------------------------------


def glorot_uniform(rng: np.random.Generator, fan_out: int, fan_in: int) -> np.ndarray:
    """Weight matrix drawn uniform(-a, a) with ``a = sqrt(6 / (fan_in + fan_out))``."""
    a = math.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-a, a, size=(fan_out, fan_in))


class OptimizerState:
    """Plain SGD or bias-corrected Adam over a ParamTape.

    Adam uses the usual ``(beta1, beta2, eps) = (0.9, 0.999, 1e-8)``; its two
    moments are flat vectors matching the tape's flat buffers. Both kinds
    update in place over blocks whose temporaries are the rows of
    ``scratch`` (two for Adam, one for SGD). Moments and scratch are
    allocated on the first step and reused after it. The step counter is
    shared.
    """

    BETA1 = 0.9
    BETA2 = 0.999
    EPS = 1e-8

    def __init__(self, kind: str, lr: float):
        if kind not in ("sgd", "adam"):
            raise ValueError(f"unknown optimizer kind {kind!r}")
        if lr <= 0.0:
            raise ValueError(f"learning rate must be positive, got {lr}")
        self.kind = kind
        self.lr = lr
        self.step = 0
        self.m: np.ndarray | None = None
        self.v: np.ndarray | None = None
        self.scratch: np.ndarray | None = None


def optimizer_step(tape: ParamTape, state: OptimizerState) -> None:
    """Update every tape parameter in place from its gradient.

    One kernel call covers the whole flat parameter vector. Gradients are
    checked before anything moves and parameters after the update, which
    consumes the gradients: the next update needs a new backward pass.
    """
    if not tape.populated:
        raise RuntimeError("optimizer_step before backward: tape has no gradients")
    tape.populated = False
    tape.check_finite("grads")
    state.step += 1
    p, g = tape.flat_params, tape.flat_grads
    # Adam's blocked pass takes two scratch rows, SGD's one.
    shape = (2 if state.kind == "adam" else 1, min(p.size, kernels.BLOCK))
    if state.scratch is None or state.scratch.shape != shape:
        state.scratch = np.empty(shape)
    if state.kind == "adam":
        if state.m is None or state.m.shape != p.shape:
            state.m, state.v = np.zeros_like(p), np.zeros_like(p)
        kernels.adam_step(
            p, g, state.m, state.v, state.step, state.lr,
            OptimizerState.BETA1, OptimizerState.BETA2, OptimizerState.EPS, state.scratch,
        )
    else:
        kernels.sgd_step(p, g, state.lr, state.scratch)
    tape.check_finite("params")


def iter_minibatches(n: int, batch_size: int, rng: np.random.Generator) -> Iterable[np.ndarray]:
    """Yield index slices of a fresh permutation of ``range(n)``."""
    perm = rng.permutation(n)
    for start in range(0, n, batch_size):
        yield perm[start : start + batch_size]
