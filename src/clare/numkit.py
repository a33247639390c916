"""Minimal reverse-mode autodiff over float64 numpy arrays.

The graph language is deliberately tiny: leaves (parameters, constants),
linear layers, relu/sigmoid, column concatenation, clipping, the
reparameterization draw, and three fused scalar losses. That is every node
the models here need; there is no general dynamic autodiff.

Ops are polymorphic: called on plain arrays they return plain arrays
(inference path, nothing recorded), called on at least one ``Node`` they
return a ``Node`` recording parents and vector-Jacobian products for
``backward``. Parameters live in a ``ParamTape``; ``backward`` accumulates
gradients into the tape's flat gradient buffer, ``optimizer_step`` consumes
them in one pass.
"""

from __future__ import annotations

import math
from typing import Callable, Iterable

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


class Node:
    """One value in a recorded forward pass.

    ``vjps[i]`` maps the gradient w.r.t. this node's value to the gradient
    contribution for ``parents[i]``. Constants carry no parents and are
    skipped during backprop.
    """

    __slots__ = ("value", "parents", "vjps", "param_name", "requires_grad")

    def __init__(
        self,
        value,
        parents: tuple["Node", ...] = (),
        vjps: tuple[Callable, ...] = (),
        param_name: str | None = None,
    ):
        self.value = value
        self.parents = parents
        self.vjps = vjps
        self.param_name = param_name
        self.requires_grad = param_name is not None or any(p.requires_grad for p in parents)


def constant(value) -> Node:
    return Node(as_f64(value))


def _as_node(x) -> Node:
    return x if isinstance(x, Node) else constant(x)


def _any_node(*xs) -> bool:
    return any(isinstance(x, Node) for x in xs)


class ParamTape:
    """Ordered named parameters with matching gradient accumulators.

    Names are unique; insertion order is the iteration order everywhere
    (updates, serialization), which keeps seeded runs bit-reproducible.
    The tape owns two contiguous float64 vectors, one for parameters and one
    for gradients; every named tensor is a reshaped view into them, so the
    optimizer, ``zero_grads`` and the finite checks each make one pass over
    a flat buffer. Build a tape from its ``(name, shape)`` list in one
    allocation; ``add`` appends by repacking, which leaves arrays it returned
    earlier detached from the tape.

    Gradients must be zeroed at the start of every optimization step;
    ``backward`` marks the tape populated and ``optimizer_step`` refuses to
    run on a tape whose gradients were never produced.
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

    def zero_grads(self) -> None:
        self.flat_grads.fill(0.0)
        self.populated = False

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

    def leaf(self, name: str) -> Node:
        if name not in self._params:
            raise KeyError(f"unknown parameter {name!r}")
        return Node(self._params[name], param_name=name)

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


def linear_forward(w, b, x):
    """Affine map ``y[i, j] = sum_k x[i, k] * w[j, k] + b[j]``.

    ``w`` is stored output-major ``(out, in)``; the product runs on BLAS.
    """
    if _any_node(w, b, x):
        wn, bn, xn = _as_node(w), _as_node(b), _as_node(x)
        _check_linear_shapes(wn.value, bn.value, xn.value)
        y = xn.value @ wn.value.T + bn.value
        return Node(
            y,
            parents=(wn, bn, xn),
            vjps=(
                lambda g, xv=xn.value: g.T @ xv,
                lambda g: g.sum(axis=0),
                lambda g, wv=wn.value: g @ wv,
            ),
        )
    w, b, x = as_f64(w), as_f64(b), as_f64(x)
    _check_linear_shapes(w, b, x)
    return x @ w.T + b


def relu(x):
    """Elementwise ``max(x, 0)``."""
    if isinstance(x, Node):
        y = kernels.relu_fwd(x.value)
        return Node(y, parents=(x,), vjps=(lambda g, xv=x.value: kernels.relu_bwd(g, xv),))
    return kernels.relu_fwd(as_f64(x))


def sigmoid(x):
    """Elementwise logistic function, clamped inside the open interval (0, 1)."""
    if isinstance(x, Node):
        y = kernels.sigmoid_fwd(x.value)
        return Node(y, parents=(x,), vjps=(lambda g, yv=y: kernels.sigmoid_bwd(g, yv),))
    return kernels.sigmoid_fwd(as_f64(x))


def softmax_rows(x: np.ndarray) -> np.ndarray:
    """Row-wise softmax with the log-sum-exp shift.

    Rows sum to 1 within 1e-12 and stay strictly positive: exponentials are
    floored at the smallest normal float before normalizing, so even a row
    like ``[1000, 0]`` neither overflows nor produces an exact zero.
    """
    x = as_f64(x)
    _require_2d(x, "logits")
    return kernels.softmax_rows(x)


def concat_columns(a, b):
    """Concatenate two batches along columns (axis 1)."""
    if _any_node(a, b):
        an, bn = _as_node(a), _as_node(b)
        if an.value.shape[0] != bn.value.shape[0]:
            raise ValueError(
                f"batch sizes differ: {an.value.shape} vs {bn.value.shape}"
            )
        wa = an.value.shape[1]
        y = np.concatenate([an.value, bn.value], axis=1)
        return Node(
            y,
            parents=(an, bn),
            vjps=(lambda g: g[:, :wa], lambda g: g[:, wa:]),
        )
    a, b = as_f64(a), as_f64(b)
    if a.shape[0] != b.shape[0]:
        raise ValueError(f"batch sizes differ: {a.shape} vs {b.shape}")
    return np.concatenate([a, b], axis=1)


def clip(x, lo: float, hi: float):
    """Clamp values to ``[lo, hi]``; gradient is zero where clamping bit."""
    if isinstance(x, Node):
        y = np.clip(x.value, lo, hi)
        mask = (x.value > lo) & (x.value < hi)
        return Node(y, parents=(x,), vjps=(lambda g: g * mask,))
    return np.clip(as_f64(x), lo, hi)


def reparameterize_draw(mu, log_var, noise: np.ndarray):
    """``z = mu + exp(log_var / 2) * noise`` with externally supplied noise.

    Gradients flow to ``mu`` and ``log_var``; the noise is a constant, which
    is what makes the draw differentiable at all.
    """
    noise = as_f64(noise)
    if _any_node(mu, log_var):
        mn, ln = _as_node(mu), _as_node(log_var)
        if mn.value.shape != ln.value.shape or mn.value.shape != noise.shape:
            raise ValueError(
                f"mu {mn.value.shape}, log_var {ln.value.shape} and noise "
                f"{noise.shape} must share a shape"
            )
        z = kernels.reparam_fwd(mn.value, ln.value, noise)
        return Node(
            z,
            parents=(mn, ln),
            vjps=(
                lambda g: g,
                lambda g, lv=ln.value: kernels.reparam_dlv(g, lv, noise),
            ),
        )
    mu, log_var = as_f64(mu), as_f64(log_var)
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
    if _any_node(mu, log_var):
        mn, ln = _as_node(mu), _as_node(log_var)
        kl, dmu, dlv = kernels.kl_terms(mn.value, ln.value)
        return Node(kl, parents=(mn, ln), vjps=(lambda g: g * dmu, lambda g: g * dlv))
    kl, _, _ = kernels.kl_terms(as_f64(mu), as_f64(log_var))
    return kl


def softmax_cross_entropy(logits, labels: np.ndarray):
    """Mean ``-log softmax(logits)[label]``, fused with the log-sum-exp shift."""
    labels = np.asarray(labels, dtype=np.int64)
    if isinstance(logits, Node):
        _check_labels(labels, logits.value)
        loss, grad = kernels.softmax_xent(logits.value, labels)
        return Node(loss, parents=(logits,), vjps=(lambda g: g * grad,))
    logits = as_f64(logits)
    _check_labels(labels, logits)
    loss, _ = kernels.softmax_xent(logits, labels)
    return loss


def _check_labels(labels: np.ndarray, logits: np.ndarray) -> None:
    if labels.ndim != 1 or labels.shape[0] != logits.shape[0]:
        raise ValueError(f"labels shape {labels.shape} does not match logits {logits.shape}")
    if labels.size and (labels.min() < 0 or labels.max() >= logits.shape[1]):
        raise ValueError(
            f"label out of range: have classes [0, {logits.shape[1]}), "
            f"got {int(labels.min())}..{int(labels.max())}"
        )


def bce_with_logits(logits, targets):
    """Bernoulli cross-entropy straight from logits.

    Computed in the softplus form, summed per sample and averaged over the
    batch. Equal to ``-sum[t*log(s) + (1-t)*log(1-s)]`` for ``s =
    sigmoid(logits)`` but never overflows for large logits.
    """
    targets = as_f64(targets)
    if isinstance(logits, Node):
        if logits.value.shape != targets.shape:
            raise ValueError(f"logits {logits.value.shape} vs targets {targets.shape}")
        loss, grad = kernels.bce_logits(logits.value, targets)
        return Node(loss, parents=(logits,), vjps=(lambda g: g * grad,))
    logits = as_f64(logits)
    if logits.shape != targets.shape:
        raise ValueError(f"logits {logits.shape} vs targets {targets.shape}")
    loss, _ = kernels.bce_logits(logits, targets)
    return loss


def add(a, b):
    if _any_node(a, b):
        an, bn = _as_node(a), _as_node(b)
        return Node(an.value + bn.value, parents=(an, bn), vjps=(lambda g: g, lambda g: g))
    return a + b


def sum_all(x):
    """Sum every element down to a scalar."""
    if isinstance(x, Node):
        return Node(
            float(np.sum(x.value)),
            parents=(x,),
            vjps=(lambda g, shape=x.value.shape: np.full(shape, g),),
        )
    return float(np.sum(as_f64(x)))


def scale(a, s: float):
    if isinstance(a, Node):
        return Node(a.value * s, parents=(a,), vjps=(lambda g: g * s,))
    return a * s


# ---------------------------------------------------------------------------
# backward
# ---------------------------------------------------------------------------


def backward(loss: Node, tape: ParamTape) -> None:
    """Accumulate d(loss)/d(param) into ``tape`` for every tape leaf.

    ``loss`` must be the scalar root of a recorded forward pass; calling
    this on anything else is a usage error. Gradients add to whatever the
    accumulators already hold, so zero the tape at the start of each step.
    Raises ``NonFiniteError`` if any produced gradient is not finite.
    """
    if not isinstance(loss, Node):
        raise TypeError("backward needs the Node returned by a recorded forward pass")
    if isinstance(loss.value, np.ndarray) and loss.value.size != 1:
        raise ValueError(f"loss must be scalar, got shape {loss.value.shape}")

    # Iterative post-order: graphs are short chains, but avoid recursion anyway.
    topo: list[Node] = []
    seen: set[int] = set()
    stack: list[tuple[Node, bool]] = [(loss, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            topo.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for parent in node.parents:
            if id(parent) not in seen and parent.requires_grad:
                stack.append((parent, False))

    grads: dict[int, np.ndarray | float] = {id(loss): 1.0}
    for node in reversed(topo):
        g = grads.pop(id(node), None)
        if g is None:
            continue
        for parent, vjp in zip(node.parents, node.vjps):
            if not parent.requires_grad:
                continue
            contrib = vjp(g)
            key = id(parent)
            if key in grads:
                grads[key] = grads[key] + contrib
            else:
                grads[key] = contrib
        if node.param_name is not None:
            acc = tape.grad(node.param_name)
            acc += g
    tape.check_finite("grads")
    tape.populated = True


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
    moments are flat vectors matching the tape's flat buffers, allocated on
    the first step, and the step counter is shared.
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


def optimizer_step(tape: ParamTape, state: OptimizerState) -> None:
    """Update every tape parameter in place from its accumulated gradient.

    One kernel call covers the whole flat parameter vector. Gradients are
    checked before anything moves and parameters after the update.
    """
    if not tape.populated:
        raise RuntimeError("optimizer_step before backward: tape has no gradients")
    tape.check_finite("grads")
    state.step += 1
    p, g = tape.flat_params, tape.flat_grads
    if state.kind == "adam":
        if state.m is None or state.m.shape != p.shape:
            state.m, state.v = np.zeros_like(p), np.zeros_like(p)
        kernels.adam_step(
            p, g, state.m, state.v, state.step, state.lr,
            OptimizerState.BETA1, OptimizerState.BETA2, OptimizerState.EPS,
        )
    else:
        kernels.sgd_step(p, g, state.lr)
    tape.check_finite("params")


def iter_minibatches(n: int, batch_size: int, rng: np.random.Generator) -> Iterable[np.ndarray]:
    """Yield index slices of a fresh permutation of ``range(n)``."""
    perm = rng.permutation(n)
    for start in range(0, n, batch_size):
        yield perm[start : start + batch_size]
