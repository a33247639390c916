"""Independent reference implementations the tests check against.

Everything here is written the slow, obvious way (explicit loops, direct
formulas) so a bug in the library cannot hide in its own oracle.
"""

from __future__ import annotations

import numpy as np


def finite_difference(f, tape, names=None, h: float = 1e-5) -> dict[str, np.ndarray]:
    """Central finite differences of scalar ``f()`` w.r.t. tape parameters.

    ``f`` must recompute the loss from the tape's current parameter values.
    """
    grads: dict[str, np.ndarray] = {}
    for name in names if names is not None else tape.names():
        p = tape.param(name)
        flat = p.reshape(-1)
        g = np.zeros(flat.shape[0])
        for i in range(flat.shape[0]):
            orig = flat[i]
            flat[i] = orig + h
            fp = f()
            flat[i] = orig - h
            fm = f()
            flat[i] = orig
            g[i] = (fp - fm) / (2.0 * h)
        grads[name] = g.reshape(p.shape)
    return grads


def adam_oracle(
    p: np.ndarray, g: np.ndarray, m: np.ndarray, v: np.ndarray, t: int,
    lr: float, beta1: float, beta2: float, eps: float,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One bias-corrected Adam step on one tensor, as the textbook writes it.

    Returns new ``(p, m, v)`` arrays and leaves the inputs alone.
    """
    m = beta1 * m + (1.0 - beta1) * g
    v = beta2 * v + (1.0 - beta2) * g * g
    m_hat = m / (1.0 - beta1**t)
    v_hat = v / (1.0 - beta2**t)
    return p - lr * m_hat / (np.sqrt(v_hat) + eps), m, v


def kl_monte_carlo(
    mu: np.ndarray, log_var: np.ndarray, draws: int, rng: np.random.Generator
) -> float:
    """Monte-Carlo estimate of E_q[log q(z) - log p(z)] for diagonal Gaussians.

    ``mu``/``log_var`` are single vectors (one sample's latent parameters);
    q = N(mu, diag(exp(log_var))), p = N(0, I).
    """
    sigma = np.exp(0.5 * log_var)
    z = mu + sigma * rng.standard_normal((draws, mu.shape[0]))
    log_q = -0.5 * np.sum(((z - mu) / sigma) ** 2 + log_var + np.log(2 * np.pi), axis=1)
    log_p = -0.5 * np.sum(z**2 + np.log(2 * np.pi), axis=1)
    return float(np.mean(log_q - log_p))


def bce_oracle(x: np.ndarray, xhat: np.ndarray) -> float:
    """Direct per-element sum of the Bernoulli cross-entropy."""
    total = 0.0
    for i in range(x.shape[0]):
        for j in range(x.shape[1]):
            total -= x[i, j] * np.log(xhat[i, j]) + (1 - x[i, j]) * np.log(1 - xhat[i, j])
    return total / x.shape[0]


def bce_logits_oracle(logits: np.ndarray, targets: np.ndarray) -> tuple[float, np.ndarray]:
    """Bernoulli cross-entropy from logits and its gradient, branch by branch.

    The stable sigmoid's two branches are taken by boolean indexing, one
    element set at a time, with the same IEEE operations per element as a
    branch-free form must use.
    """
    n = logits.shape[0]
    per_elem = np.maximum(logits, 0.0) - logits * targets + np.log1p(np.exp(-np.abs(logits)))
    s = np.empty_like(logits)
    pos = logits >= 0.0
    s[pos] = 1.0 / (1.0 + np.exp(-logits[pos]))
    ex = np.exp(logits[~pos])
    s[~pos] = ex / (1.0 + ex)
    return float(per_elem.sum() / n), (s - targets) / n


def sigmoid_bwd(g: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Gradient through ``y = sigmoid(x)`` from ``g = dL/dy``, given ``y``."""
    return g * y * (1.0 - y)


def sigmoid_oracle(x: np.ndarray, eps: float = 1e-12) -> np.ndarray:
    """Logistic function branch by branch, clamped to ``[eps, 1 - eps]``.

    ``1 / (1 + exp(-x))`` where ``x >= 0`` and ``exp(x) / (1 + exp(x))``
    elsewhere, each branch taken by boolean indexing. A NaN takes the
    second branch and stays NaN.
    """
    s = np.empty_like(x)
    pos = x >= 0.0
    s[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    s[~pos] = ex / (1.0 + ex)
    return np.clip(s, eps, 1.0 - eps)


def cross_entropy_oracle(probs: np.ndarray, labels: np.ndarray) -> float:
    """Direct mean of -log p[true class]."""
    total = 0.0
    for i, label in enumerate(labels):
        total -= np.log(probs[i, label])
    return total / len(labels)


def objective_oracle(
    params: dict[str, np.ndarray], x: np.ndarray, labels: np.ndarray, noise: np.ndarray
) -> tuple[float, float, float]:
    """Classification, reconstruction and KL terms of the joint objective.

    Every first layer reads a concatenated input: the encoder ``[x, 0]`` for
    the classifier and ``[x, one_hot]`` for the VAE, the decoder
    ``[z, one_hot]``. Softmax, sigmoid and KL are the textbook formulas;
    log-variance is clamped to [-10, 10] as the model clamps it.
    """
    p = params
    n, k = len(labels), p["cls_w"].shape[0]
    code = np.zeros((n, k))
    code[np.arange(n), labels] = 1.0

    def encoder(c):
        h = np.maximum(np.concatenate([x, c], axis=1) @ p["enc_w1"].T + p["enc_b1"], 0.0)
        h = np.maximum(h @ p["enc_w2"].T + p["enc_b2"], 0.0)
        lv = np.clip(h @ p["enc_wlv"].T + p["enc_blv"], -10.0, 10.0)
        return h @ p["enc_wmu"].T + p["enc_bmu"], lv

    logits = encoder(np.zeros((n, k)))[0] @ p["cls_w"].T + p["cls_b"]
    probs = np.exp(logits) / np.exp(logits).sum(axis=1, keepdims=True)
    mu, lv = encoder(code)
    z = mu + np.exp(0.5 * lv) * noise
    h = np.maximum(np.concatenate([z, code], axis=1) @ p["dec_w1"].T + p["dec_b1"], 0.0)
    h = np.maximum(h @ p["dec_w2"].T + p["dec_b2"], 0.0)
    xhat = 1.0 / (1.0 + np.exp(-(h @ p["dec_w3"].T + p["dec_b3"])))
    kl = float(np.mean(0.5 * np.sum(mu**2 + np.exp(lv) - 1.0 - lv, axis=1)))
    return cross_entropy_oracle(probs, labels), bce_oracle(x, xhat), kl


def accuracy_oracle(preds: np.ndarray, labels: np.ndarray) -> float:
    """Hand-counted percentage of exact matches."""
    hits = 0
    for p, t in zip(preds, labels):
        if int(p) == int(t):
            hits += 1
    return 100.0 * hits / len(labels)


# The step's classifier, latent and KL kernels as first written: each
# quantity computed where it is used, through numpy's wrappers. The
# kernels compute each once and must match these bit for bit.

_TINY = np.finfo(np.float64).tiny


def softmax_xent_oracle(logits: np.ndarray, labels: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean cross-entropy of integer labels and its gradient, rows softmaxed twice."""
    n = logits.shape[0]
    m = logits.max(axis=1)
    lse = m + np.log(np.exp(logits - m[:, None]).sum(axis=1))
    loss = float(np.mean(lse - logits[np.arange(n), labels]))
    row_max = logits.max(axis=1, keepdims=True)
    e = np.exp(logits - row_max)
    np.maximum(e, _TINY, out=e)
    grad = e / e.sum(axis=1, keepdims=True)
    grad[np.arange(n), labels] -= 1.0
    grad /= n
    return loss, grad


def kl_terms_oracle(mu: np.ndarray, log_var: np.ndarray) -> tuple[float, np.ndarray, np.ndarray]:
    """Mean KL to the standard normal, and its gradients in ``mu`` and ``log_var``."""
    n = mu.shape[0]
    em1 = np.expm1(log_var)
    kl = float(0.5 * np.sum(mu * mu + em1 - log_var) / n)
    return kl, mu / n, 0.5 * em1 / n


def reparam_fwd_oracle(mu: np.ndarray, log_var: np.ndarray, noise: np.ndarray) -> np.ndarray:
    """The reparameterized draw ``mu + exp(0.5 * log_var) * noise``."""
    return mu + np.exp(0.5 * log_var) * noise


def reparam_dlv_oracle(g: np.ndarray, log_var: np.ndarray, noise: np.ndarray) -> np.ndarray:
    """The draw's gradient in ``log_var`` from ``g = dL/dz``."""
    return 0.5 * np.exp(0.5 * log_var) * noise * g
