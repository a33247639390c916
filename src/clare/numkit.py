"""Parameter store, the linear layer and optimizers over float64 numpy arrays.

``ParamTape`` holds every named parameter and its gradient as views into
two flat buffers. ``linear_forward`` is the classifier pass's affine map;
``linear_backward`` writes a layer's weight and bias gradients for the
hand-written training step in ``model`` straight into the tape's views.
Activations are called from ``kernels`` directly. There is no recorded
graph; ``optimizer_step`` consumes the gradients the step assigned, in one
pass over the flat buffers.
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

    Names are unique; the order of the ``(name, shape)`` list the tape is
    built from is the iteration order everywhere (updates, serialization),
    which keeps seeded runs bit-reproducible.
    The tape owns two contiguous float64 vectors, one for parameters and one
    for gradients; every named tensor is a reshaped view into them, so the
    optimizer and the finite checks each make one pass over a flat buffer.
    Both are allocated once, zero-filled, when the tape is built.

    A training step assigns every gradient (nothing accumulates) and marks
    the tape populated; ``optimizer_step`` refuses to run on a tape whose
    gradients were not produced since the last update.
    """

    def __init__(self, shapes: Iterable[tuple[str, tuple[int, ...]]] = ()):
        shapes = [(name, tuple(int(d) for d in shape)) for name, shape in shapes]
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
        self.populated = False

    def names(self) -> list[str]:
        return list(self._params)

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
    ``w`` may be a row-strided view, such as the image columns of a wider
    weight, and is read in place rather than copied. When ``out`` is given,
    ``y`` is written into it, with the same arithmetic.
    """
    w, b, x = np.asarray(w, dtype=np.float64), as_f64(b), as_f64(x)
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
        if not (math.isfinite(lr) and lr > 0.0):
            raise ValueError(f"learning rate must be finite and positive, got {lr}")
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
