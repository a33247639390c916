"""Parameter store, the linear layer and the Adam optimizer over float64 numpy arrays.

``ParamTape`` holds every named parameter and its gradient as views into
two flat buffers. ``linear_forward`` runs every affine product of
``model``'s forward passes, training and inference alike, into a caller's
buffer. ``linear_backward`` writes a layer's weight and bias gradients for
the hand-written training step straight into the tape's views.
Activations are called from ``kernels`` directly.
``optimizer_step`` consumes the gradients the step assigned, in one pass
over the flat buffers.
"""

from __future__ import annotations

import math
from typing import Iterable

import numpy as np

from . import kernels


class NonFiniteError(FloatingPointError):
    """A NaN or Inf appeared in a value that must stay finite."""


def check_finite(value: float, what: str) -> None:
    """Raise ``NonFiniteError`` naming ``what`` if ``value`` is not finite."""
    if not math.isfinite(value):
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
    optimizer and its finite scans each make one pass over a flat buffer.
    Both are allocated once, zero-filled, when the tape is built, each as
    the leading part of an allocation of ``capacity`` entries (at least the
    tape's size). Tapes that grow by a few entries at a time but share one
    capacity have allocations of one size, so each can take exactly the
    memory the one before it freed.

    A training step assigns every gradient (nothing accumulates) and marks
    the tape populated; ``optimizer_step`` refuses to run on a tape whose
    gradients were not produced since the last update.
    """

    def __init__(self, shapes: Iterable[tuple[str, tuple[int, ...]]] = (), capacity: int = 0):
        shapes = [(name, tuple(int(d) for d in shape)) for name, shape in shapes]
        sizes = [math.prod(shape) for _, shape in shapes]
        self.capacity = max(sum(sizes), capacity)
        self.flat_params = np.zeros(self.capacity)[: sum(sizes)]
        self.flat_grads = np.zeros(self.capacity)[: sum(sizes)]
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

    def check_finite(self, flat: np.ndarray, what: str) -> None:
        """Raise ``NonFiniteError`` if the flat vector ``flat`` is not finite.

        ``flat`` is laid out like the tape: its parameters, its gradients or
        an optimizer moment. The error names ``what`` of the first tensor
        holding a bad value, e.g. ``gradient of 'w1'``.
        """
        bad = np.flatnonzero(~np.isfinite(flat))
        if bad.size:
            end = 0
            for name, value in self._params.items():
                end += value.size
                if bad[0] < end:
                    break
            raise NonFiniteError(f"non-finite value in {what} {name!r}")


# ---------------------------------------------------------------------------
# ops
# ---------------------------------------------------------------------------


def linear_forward(w, b, x, out) -> np.ndarray:
    """``y = x @ w.T + b`` into ``out``, which it returns.

    ``w`` may be a strided view, such as a column block of a tape weight,
    and ``b`` a bias vector or a 2-D addend of ``out``'s shape.
    """
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
    np.add.reduce(g, axis=0, out=db)
    if dx is not None:
        np.matmul(g, w, out=dx)


# ---------------------------------------------------------------------------
# init and optimizer
# ---------------------------------------------------------------------------


def glorot_uniform(rng: np.random.Generator, out: np.ndarray) -> None:
    """Fill the ``(fan_out, fan_in)`` weight matrix ``out`` with uniform(-a, a).

    ``a = sqrt(6 / (fan_in + fan_out))``. The draw goes straight into
    ``out`` and is bit for bit ``rng.uniform(-a, a, out.shape)``, which
    computes ``low + (high - low) * random()``.
    """
    fan_out, fan_in = out.shape
    a = math.sqrt(6.0 / (fan_in + fan_out))
    rng.random(out=out)
    out *= a - (-a)
    out += -a


class OptimizerState:
    """Bias-corrected Adam over a ParamTape.

    Adam uses the usual ``(beta1, beta2, eps) = (0.9, 0.999, 1e-8)``; its two
    moments are flat vectors at least as long as the tape's flat buffers,
    and a tape uses their leading entries. The update runs in place over
    blocks whose temporaries are rows of ``scratch``: each worker of
    ``optimizer_step`` owns two rows of ``min(tape.capacity, BLOCK)``
    entries. A step on a tape longer than the moments (or the first step)
    allocates them zeroed, with ``tape.capacity`` entries. So a run's tapes,
    which share one capacity, allocate the moments and the scratch once.
    The first step after ``restart`` zero-fills the part it uses, so one
    state serves a sequence of fresh optimizations without new memory.
    """

    BETA1 = 0.9
    BETA2 = 0.999
    EPS = 1e-8

    def __init__(self, lr: float):
        self.restart(lr)
        self.m: np.ndarray | None = None
        self.v: np.ndarray | None = None
        self.scratch: np.ndarray | None = None

    def restart(self, lr: float) -> None:
        """Begin a fresh optimization at ``lr``: the next step is step 1,
        from zero moments. Moments and scratch keep their memory."""
        if not (math.isfinite(lr) and lr > 0.0):
            raise ValueError(f"learning rate must be finite and positive, got {lr}")
        self.lr = lr
        self.step = 0


# Tapes shorter than this many entries stay on one worker: handing half of
# a few blocks to another thread costs more than it saves.
SPLIT_MIN = 4 * kernels.BLOCK


def optimizer_step(tape: ParamTape, state: OptimizerState, _workers: int | None = None) -> None:
    """Update every tape parameter in place from its gradient with Adam.

    Gradients are scanned before anything moves, and parameters and Adam's
    second moment block by block as the update writes them; the update
    consumes the gradients, so the next one needs a new backward pass. A
    failed scan raises ``NonFiniteError`` naming the first tensor with a bad
    value.

    A tape of at least ``SPLIT_MIN`` entries is cut at block boundaries into
    one contiguous part per worker (``kernels.workers()``; ``_workers``
    overrides the count), and each worker scans and updates its part with
    its own scratch rows; on a state's first step, each worker also
    zero-fills its part of the moments. Every element sees the same
    operations at any worker count, so the result does not depend on it.
    """
    if not tape.populated:
        raise RuntimeError("optimizer_step before backward: tape has no gradients")
    tape.populated = False
    p, g = tape.flat_params, tape.flat_grads
    if _workers is None:
        _workers = kernels.workers() if p.size >= SPLIT_MIN else 1
    blocks = -(-p.size // kernels.BLOCK)
    parts = max(1, min(_workers, blocks))
    # Adam's blocked pass takes two scratch rows per worker.
    shape = (parts * 2, min(tape.capacity, kernels.BLOCK))
    if state.scratch is None or state.scratch.shape != shape:
        state.scratch = np.empty(shape)
    cuts = [min(p.size, blocks * k // parts * kernels.BLOCK) for k in range(parts + 1)]
    spans = [
        (slice(cuts[k], cuts[k + 1]), state.scratch[2 * k : 2 * k + 2])
        for k in range(parts)
    ]

    def grads_finite(span) -> bool:
        part, scratch = span
        return kernels.all_finite(g[part], scratch[0])

    if not all(kernels.fork_join(grads_finite, spans)):
        tape.check_finite(g, "gradient of")
    state.step += 1
    if state.m is None or state.m.size < p.size:
        state.m, state.v = np.zeros(tape.capacity), np.zeros(tape.capacity)
    m, v = state.m[: p.size], state.v[: p.size]
    first = state.step == 1

    def update(span) -> bool:
        part, scratch = span
        if first:
            m[part] = 0.0
            v[part] = 0.0
        return kernels.adam_step(
            p[part], g[part], m[part], v[part], state.step, state.lr,
            OptimizerState.BETA1, OptimizerState.BETA2, OptimizerState.EPS, scratch,
        )

    if not all(kernels.fork_join(update, spans)):
        tape.check_finite(p, "parameter")
        tape.check_finite(v, "Adam second moment of")


def iter_minibatches(n: int, batch_size: int, rng: np.random.Generator) -> Iterable[np.ndarray]:
    """Yield index slices of a fresh permutation of ``range(n)``."""
    perm = rng.permutation(n)
    for start in range(0, n, batch_size):
        yield perm[start : start + batch_size]
