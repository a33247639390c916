"""Joint classifier + conditional VAE over flattened images.

One shared encoder trunk feeds two consumers: a linear softmax classifier
reading the latent mean, and a conditional decoder reconstructing the input
from a sampled latent and a one-hot class code. Both train against a single
scalar objective: classification cross-entropy plus reconstruction
cross-entropy plus a weighted KL pull toward the standard normal prior.

Classification never sees a class code: the classifier path runs the
encoder with an all-zeros condition, at train time and test time alike, so
the label is an output of the network rather than an input to it. The
condition only steers the VAE branch, which is what lets the decoder later
produce samples for any requested class.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from typing import Callable, Mapping

import numpy as np

from . import numkit as nk
from .numkit import Node, ParamTape

LOG_VAR_MIN = -10.0
LOG_VAR_MAX = 10.0

CHECKPOINT_MAGIC = b"CLRE"
CHECKPOINT_VERSION = 1

# d_z beyond the trunk width adds parameters without adding information.
MAX_LATENT_DIM = 256


@dataclass
class LatentGaussian:
    """Diagonal Gaussian over the latent space: per-sample mean and log-variance."""

    mu: np.ndarray
    log_var: np.ndarray


def one_hot(labels: np.ndarray, class_no: int) -> np.ndarray:
    """Encode integer labels as one-hot rows of width ``class_no``."""
    labels = np.asarray(labels, dtype=np.int64)
    if labels.ndim != 1:
        raise ValueError(f"labels must be 1-d, got shape {labels.shape}")
    if labels.size and (labels.min() < 0 or labels.max() >= class_no):
        raise ValueError(
            f"class index out of range: have {class_no} classes, "
            f"got labels {int(labels.min())}..{int(labels.max())}"
        )
    out = np.zeros((labels.shape[0], class_no))
    out[np.arange(labels.shape[0]), labels] = 1.0
    return out


class ClareModel:
    """The joint network: encoder trunk, latent heads, classifier, decoder.

    Defaults follow the reference sizing for 28x28 images (784-16, trunk
    512-256); every dimension is configurable so miniature instances stay
    cheap to probe. All parameters live on a single ``ParamTape`` in a fixed
    order, which is also the checkpoint order and the layout of its flat
    buffers.
    """

    def __init__(
        self,
        class_no: int,
        d_z: int = 64,
        input_dim: int = 784,
        enc_hidden: tuple[int, int] = (512, 256),
        dec_hidden: tuple[int, int] = (256, 512),
        rng: np.random.Generator | None = None,
    ):
        if class_no < 1:
            raise ValueError(f"class_no must be >= 1, got {class_no}")
        if not 1 <= d_z <= MAX_LATENT_DIM:
            raise ValueError(f"d_z must be in [1, {MAX_LATENT_DIM}], got {d_z}")
        if input_dim < 1:
            raise ValueError(f"input_dim must be >= 1, got {input_dim}")
        if len(enc_hidden) != 2 or len(dec_hidden) != 2:
            raise ValueError("encoder and decoder each take exactly two hidden widths")
        self.class_no = class_no
        self.d_z = d_z
        self.input_dim = input_dim
        self.enc_hidden = tuple(int(h) for h in enc_hidden)
        self.dec_hidden = tuple(int(h) for h in dec_hidden)
        self._build(rng)

    def _build(self, rng: np.random.Generator | None) -> None:
        h1, h2 = self.enc_hidden
        g1, g2 = self.dec_hidden
        shapes = [
            ("enc_w1", (h1, self.input_dim + self.class_no)),
            ("enc_b1", (h1,)),
            ("enc_w2", (h2, h1)),
            ("enc_b2", (h2,)),
            ("enc_wmu", (self.d_z, h2)),
            ("enc_bmu", (self.d_z,)),
            ("enc_wlv", (self.d_z, h2)),
            ("enc_blv", (self.d_z,)),
            ("cls_w", (self.class_no, self.d_z)),
            ("cls_b", (self.class_no,)),
            ("dec_w1", (g1, self.d_z + self.class_no)),
            ("dec_b1", (g1,)),
            ("dec_w2", (g2, g1)),
            ("dec_b2", (g2,)),
            ("dec_w3", (self.input_dim, g2)),
            ("dec_b3", (self.input_dim,)),
        ]
        # One allocation for the whole tape; biases stay zero, and weights
        # draw Glorot values straight into their views, in tape order.
        self.tape = ParamTape(shapes)
        if rng is not None:
            for name, shape in shapes:
                if len(shape) == 2:
                    self.tape.param(name)[...] = nk.glorot_uniform(rng, *shape)

    # -- forward passes ----------------------------------------------------

    def _encoder(self, get: Callable[[str], object], x, c):
        h = nk.concat_columns(x, c)
        h = nk.relu(nk.linear_forward(get("enc_w1"), get("enc_b1"), h))
        h = nk.relu(nk.linear_forward(get("enc_w2"), get("enc_b2"), h))
        mu = nk.linear_forward(get("enc_wmu"), get("enc_bmu"), h)
        log_var = nk.clip(
            nk.linear_forward(get("enc_wlv"), get("enc_blv"), h),
            LOG_VAR_MIN,
            LOG_VAR_MAX,
        )
        return mu, log_var

    def _class_logits(self, get: Callable[[str], object], mu):
        return nk.linear_forward(get("cls_w"), get("cls_b"), mu)

    def encode(self, x: np.ndarray, c: np.ndarray) -> LatentGaussian:
        """Map inputs plus condition codes to the latent Gaussian.

        ``c`` rows are one-hot codes, or all-zeros on the classification
        path where no condition exists. ``log_var`` comes back clamped to
        ``[-10, 10]``.
        """
        x = nk.as_f64(x)
        c = nk.as_f64(c)
        self._check_input(x)
        self._check_condition(c, x.shape[0])
        mu, log_var = self._encoder(self.tape.param, x, c)
        return LatentGaussian(mu=mu, log_var=log_var)

    def decode(self, z: np.ndarray, c: np.ndarray) -> np.ndarray:
        """Reconstruct pixel probabilities from latents and one-hot codes."""
        z = nk.as_f64(z)
        c = nk.as_f64(c)
        if z.ndim != 2 or z.shape[1] != self.d_z:
            raise ValueError(f"z shape {z.shape} does not match d_z={self.d_z}")
        self._check_condition(c, z.shape[0])
        return decoder_forward(self.tape.param, z, c)

    def class_logits(self, x: np.ndarray) -> np.ndarray:
        """Classifier logits from the zero-condition latent mean."""
        x = nk.as_f64(x)
        self._check_input(x)
        zeros = np.zeros((x.shape[0], self.class_no))
        mu, _ = self._encoder(self.tape.param, x, zeros)
        return self._class_logits(self.tape.param, mu)

    def classify(self, x: np.ndarray) -> np.ndarray:
        """Class probabilities; rows sum to 1 and stay strictly positive."""
        return nk.softmax_rows(self.class_logits(x))

    # -- plumbing ----------------------------------------------------------

    def _check_input(self, x: np.ndarray) -> None:
        if x.ndim != 2 or x.shape[1] != self.input_dim:
            raise ValueError(
                f"input shape {x.shape} does not match input_dim={self.input_dim}"
            )

    def _check_condition(self, c: np.ndarray, batch: int) -> None:
        if c.shape != (batch, self.class_no):
            raise ValueError(
                f"condition shape {c.shape} does not match ({batch}, {self.class_no})"
            )

    def clone(self) -> "ClareModel":
        other = ClareModel.__new__(ClareModel)
        other.class_no = self.class_no
        other.d_z = self.d_z
        other.input_dim = self.input_dim
        other.enc_hidden = self.enc_hidden
        other.dec_hidden = self.dec_hidden
        other.tape = self.tape.copy()
        return other


def decoder_forward(params: Mapping[str, np.ndarray] | Callable[[str], object], z, c):
    """Run the decoder stack from a parameter mapping (model or snapshot)."""
    get = params if callable(params) else params.__getitem__
    h = nk.concat_columns(z, c)
    h = nk.relu(nk.linear_forward(get("dec_w1"), get("dec_b1"), h))
    h = nk.relu(nk.linear_forward(get("dec_w2"), get("dec_b2"), h))
    logits = nk.linear_forward(get("dec_w3"), get("dec_b3"), h)
    return nk.sigmoid(logits)


# ---------------------------------------------------------------------------
# losses
# ---------------------------------------------------------------------------


def reparameterize(latent: LatentGaussian, noise: np.ndarray) -> np.ndarray:
    """Draw ``z = mu + exp(log_var / 2) * noise`` from an encoded Gaussian."""
    return nk.reparameterize_draw(latent.mu, latent.log_var, noise)


def kl_divergence(latent: LatentGaussian) -> float:
    """Batch-mean KL from the encoded Gaussian to the standard normal prior."""
    return float(nk.kl_to_standard_normal(latent.mu, latent.log_var))


def reconstruction_loss(x: np.ndarray, xhat: np.ndarray) -> float:
    """Bernoulli cross-entropy between pixels and reconstructions.

    Summed per sample, averaged over the batch. ``xhat`` must lie strictly
    inside (0, 1); anything else means a reconstruction bypassed the output
    sigmoid and is rejected rather than silently log'd into inf.
    """
    from . import kernels

    x = nk.as_f64(x)
    xhat = nk.as_f64(xhat)
    if x.shape != xhat.shape:
        raise ValueError(f"x shape {x.shape} does not match xhat shape {xhat.shape}")
    if xhat.size and (xhat.min() <= 0.0 or xhat.max() >= 1.0):
        raise ValueError("reconstructions must lie strictly inside (0, 1)")
    return float(kernels.bce_probs(x, xhat))


def classification_loss(probabilities: np.ndarray, labels: np.ndarray) -> float:
    """Mean negative log-probability of the true class."""
    probabilities = nk.as_f64(probabilities)
    labels = np.asarray(labels, dtype=np.int64)
    if probabilities.ndim != 2:
        raise ValueError(f"probabilities must be 2-d, got shape {probabilities.shape}")
    if labels.shape != (probabilities.shape[0],):
        raise ValueError(
            f"labels shape {labels.shape} does not match probabilities "
            f"{probabilities.shape}"
        )
    if labels.size and (labels.min() < 0 or labels.max() >= probabilities.shape[1]):
        raise ValueError(
            f"class index out of range: have {probabilities.shape[1]} classes"
        )
    picked = probabilities[np.arange(labels.shape[0]), labels]
    return float(np.mean(-np.log(picked)))


def total_loss(
    model: ClareModel,
    x: np.ndarray,
    labels: np.ndarray,
    noise: np.ndarray,
    beta: float = 1.0,
) -> tuple[Node, dict[str, float]]:
    """Record the full training objective and return its root node.

    The returned node is ready for ``backward``; the dict carries the three
    component values (classification, reconstruction, kl) plus their total
    for logging. The classification term runs the encoder with a zero
    condition (the deployment path); the VAE terms run it with the true
    one-hot, then decode a reparameterized draw using ``noise``.
    """
    x = nk.as_f64(x)
    labels = np.asarray(labels, dtype=np.int64)
    model._check_input(x)
    c = one_hot(labels, model.class_no)
    noise = nk.as_f64(noise)
    if noise.shape != (x.shape[0], model.d_z):
        raise ValueError(
            f"noise shape {noise.shape} does not match ({x.shape[0]}, {model.d_z})"
        )

    leaf = model.tape.leaf

    # Classification path: zero condition, latent mean only.
    zeros = np.zeros((x.shape[0], model.class_no))
    mu0, _ = model._encoder(leaf, x, zeros)
    ce = nk.softmax_cross_entropy(model._class_logits(leaf, mu0), labels)

    # VAE path: true condition, sampled latent, reconstruction from logits.
    mu, log_var = model._encoder(leaf, x, c)
    z = nk.reparameterize_draw(mu, log_var, noise)
    h = nk.concat_columns(z, c)
    h = nk.relu(nk.linear_forward(leaf("dec_w1"), leaf("dec_b1"), h))
    h = nk.relu(nk.linear_forward(leaf("dec_w2"), leaf("dec_b2"), h))
    dec_logits = nk.linear_forward(leaf("dec_w3"), leaf("dec_b3"), h)
    rec = nk.bce_with_logits(dec_logits, x)

    kl = nk.kl_to_standard_normal(mu, log_var)

    total = nk.add(nk.add(ce, rec), nk.scale(kl, beta))
    nk.check_finite(float(total.value), "total loss")
    components = {
        "classification": float(ce.value),
        "reconstruction": float(rec.value),
        "kl": float(kl.value),
        "total": float(total.value),
    }
    return total, components


# ---------------------------------------------------------------------------
# class expansion
# ---------------------------------------------------------------------------


def expand_classes(
    model: ClareModel, new_class_no: int, rng: np.random.Generator
) -> ClareModel:
    """Widen every class-indexed parameter block to ``new_class_no``.

    Pre-existing slices are copied verbatim, so old-class logits and
    old-class reconstructions are bit-identical as long as the new one-hot
    positions stay zero. Newly added slices are freshly initialized.
    """
    if new_class_no <= model.class_no:
        raise ValueError(
            f"can only grow the class count: have {model.class_no}, got {new_class_no}"
        )
    grown = ClareModel(
        class_no=new_class_no,
        d_z=model.d_z,
        input_dim=model.input_dim,
        enc_hidden=model.enc_hidden,
        dec_hidden=model.dec_hidden,
        rng=rng,
    )
    old = model.class_no
    p, q = model.tape.param, grown.tape.param
    # Condition columns sit after the image block in enc_w1 and after the
    # latent block in dec_w1; class rows lead in cls_w / cls_b.
    q("enc_w1")[:, : model.input_dim + old] = p("enc_w1")
    q("dec_w1")[:, : model.d_z + old] = p("dec_w1")
    q("cls_w")[:old, :] = p("cls_w")
    q("cls_b")[:old] = p("cls_b")
    for name in model.tape.names():
        if name not in ("enc_w1", "dec_w1", "cls_w", "cls_b"):
            q(name)[...] = p(name)
    return grown


# ---------------------------------------------------------------------------
# checkpoint container
# ---------------------------------------------------------------------------


def write_container(path: str, class_no: int, d_z: int, params: Mapping[str, np.ndarray]) -> None:
    """Write named float64 tensors with a magic/version/shape header.

    Layout, all integers little-endian u32: magic ``CLRE``, format version,
    class_no, d_z, then for each tensor in mapping order its name length,
    utf-8 name, rank, dims, and raw little-endian float64 payload.
    """
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<III", CHECKPOINT_VERSION, class_no, d_z))
        for name, value in params.items():
            encoded = name.encode("utf-8")
            fh.write(struct.pack("<I", len(encoded)))
            fh.write(encoded)
            fh.write(struct.pack("<I", value.ndim))
            for dim in value.shape:
                fh.write(struct.pack("<I", dim))
            fh.write(np.ascontiguousarray(value, dtype="<f8").tobytes())


def read_container(path: str) -> tuple[int, int, dict[str, np.ndarray]]:
    """Inverse of ``write_container``; returns (class_no, d_z, params).

    Every read is bounds-checked: a truncated or malformed file raises
    ``ValueError`` naming the byte offset and, once known, the tensor.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    tensor = ""

    def take(offset: int, size: int, what: str) -> bytes:
        if offset + size > len(data):
            where = f" of tensor {tensor!r}" if tensor else ""
            raise ValueError(
                f"truncated checkpoint: {what}{where} needs {size} bytes at "
                f"offset {offset}, file has {len(data)}"
            )
        return data[offset : offset + size]

    def u32s(offset: int, count: int, what: str) -> tuple[int, ...]:
        return struct.unpack(f"<{count}I", take(offset, 4 * count, what))

    if take(0, 4, "magic") != CHECKPOINT_MAGIC:
        raise ValueError(f"bad checkpoint magic {data[:4]!r} at offset 0")
    version, class_no, d_z = u32s(4, 3, "header")
    if version != CHECKPOINT_VERSION:
        raise ValueError(
            f"unsupported checkpoint version {version}, expected {CHECKPOINT_VERSION}"
        )
    params: dict[str, np.ndarray] = {}
    offset = 16
    while offset < len(data):
        (name_len,) = u32s(offset, 1, "name length")
        offset += 4
        try:
            tensor = take(offset, name_len, "name").decode("utf-8")
        except UnicodeDecodeError as err:
            raise ValueError(f"tensor name at offset {offset} is not utf-8: {err}") from None
        if tensor in params:
            raise ValueError(f"duplicate tensor {tensor!r} at offset {offset}")
        offset += name_len
        (rank,) = u32s(offset, 1, "rank")
        offset += 4
        dims = u32s(offset, rank, "dims")
        offset += 4 * rank
        count = math.prod(dims)
        payload = take(offset, 8 * count, "payload")
        offset += 8 * count
        params[tensor] = np.frombuffer(payload, dtype="<f8").reshape(dims).astype(np.float64)
    return class_no, d_z, params


def save_model(model: ClareModel, path: str) -> None:
    """Checkpoint every parameter; the round trip is bit-exact."""
    write_container(
        path,
        model.class_no,
        model.d_z,
        {name: model.tape.param(name) for name in model.tape.names()},
    )


def load_model(path: str) -> ClareModel:
    """Rebuild a model from a checkpoint; dimensions come from the tensors."""
    class_no, d_z, params = read_container(path)
    required = (
        "enc_w1", "enc_w2", "dec_w1", "dec_w2", "dec_w3",
        "enc_wmu", "enc_wlv", "cls_w",
    )
    for name in required:
        if name not in params:
            raise ValueError(f"checkpoint is missing tensor {name!r}")
    input_dim = params["enc_w1"].shape[1] - class_no
    enc_hidden = (params["enc_w1"].shape[0], params["enc_w2"].shape[0])
    dec_hidden = (params["dec_w1"].shape[0], params["dec_w2"].shape[0])
    model = ClareModel(
        class_no=class_no,
        d_z=d_z,
        input_dim=input_dim,
        enc_hidden=enc_hidden,
        dec_hidden=dec_hidden,
        rng=None,
    )
    for name in model.tape.names():
        if name not in params:
            raise ValueError(f"checkpoint is missing tensor {name!r}")
        model.tape.set_param(name, params[name])
    return model
