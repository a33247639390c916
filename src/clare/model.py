"""Joint classifier + conditional VAE over flattened images.

One shared encoder trunk feeds two consumers: a linear softmax classifier
reading the latent mean, and a conditional decoder reconstructing the input
from a sampled latent and a one-hot class code. Both train against a single
scalar objective: classification cross-entropy plus reconstruction
cross-entropy plus a weighted KL pull toward the standard normal prior.
``forward_backward`` is the only implementation of that objective: one
hand-written pass over the ``kernels`` losses that also writes every
gradient. The model's own methods are inference only: the classifier pass
and the decoder. ``ClareModel.decode`` is the one place outside training
that decodes; replay calls it on the previous increment's model. Each
layer's forward is written once, in ``encoder_layer1``, ``encoder_trunk``,
``classifier_logits`` and ``decoder_logits``, and the training step and
inference both run it. Every affine product runs through
``numkit.linear_forward``.

Classification never sees a class code: the classifier path runs the
encoder with an all-zeros condition, at train time and test time alike, so
the label is an output of the network rather than an input to it. The
condition only steers the VAE branch, which is what lets the decoder later
produce samples for any requested class.
"""

from __future__ import annotations

import copy
import math
import struct

import numpy as np

from . import kernels
from . import numkit as nk
from .dataio import as_pixels, replacing, scale_pixels
from .numkit import ParamTape

LOG_VAR_MIN = -10.0
LOG_VAR_MAX = 10.0

CHECKPOINT_MAGIC = b"CLRE"
CHECKPOINT_VERSION = 2
# Magic, version, class_no, d_z, input_dim, the two encoder widths and the
# two decoder widths; the tape's flat parameters follow.
_HEADER = struct.Struct("<4s8I")

# d_z beyond the trunk width adds parameters without adding information.
MAX_LATENT_DIM = 256

# Rows per chunk of the inference passes. Each call allocates one chunk's
# activations and reuses them across its chunks, so their memory does not
# grow with the request. 256 classifier rows keep them under 2 MB at digit
# shape; 512- and 2048-row chunks raised the digit benchmark's peak resident
# memory by 8-9% in the runs tried. 1,024 decoder rows take 8 MB at digit
# shape.
_CLASSIFY_ROWS = 256
_DECODE_ROWS = 1024


def one_hot(labels: np.ndarray, class_no: int, out: np.ndarray | None = None) -> np.ndarray:
    """Encode integer labels as one-hot rows of width ``class_no``.

    The rows go into ``out`` when given (shape ``(len(labels), class_no)``,
    a view is fine), else into a new array. A label outside ``[0, class_no)``
    raises ``ValueError`` before anything is written.
    """
    labels = np.asarray(labels, dtype=np.int64)
    if labels.ndim != 1:
        raise ValueError(f"labels must be 1-d, got shape {labels.shape}")
    if labels.size:
        low, high = np.minimum.reduce(labels), np.maximum.reduce(labels)
        if low < 0 or high >= class_no:
            raise ValueError(
                f"class index out of range: have {class_no} classes, "
                f"got labels {int(low)}..{int(high)}"
            )
    if out is None:
        out = np.zeros((labels.shape[0], class_no))
    else:
        out.fill(0.0)
    out[np.arange(labels.shape[0]), labels] = 1.0
    return out


def _param_shapes(class_no: int, d_z: int, input_dim: int, enc_hidden, dec_hidden) -> list:
    """Every parameter's name and shape, in tape and checkpoint order.

    Every class-indexed axis ends in its class block: the condition columns
    of enc_w1 and dec_w1, the rows of cls_w and cls_b. So a model with fewer
    classes is the leading corner of each tensor, which is all
    ``expand_classes`` relies on.
    """
    h1, h2 = enc_hidden
    g1, g2 = dec_hidden
    return [
        ("enc_w1", (h1, input_dim + class_no)),
        ("enc_b1", (h1,)),
        ("enc_w2", (h2, h1)),
        ("enc_b2", (h2,)),
        ("enc_wmu", (d_z, h2)),
        ("enc_bmu", (d_z,)),
        ("enc_wlv", (d_z, h2)),
        ("enc_blv", (d_z,)),
        ("cls_w", (class_no, d_z)),
        ("cls_b", (class_no,)),
        ("dec_w1", (g1, d_z + class_no)),
        ("dec_b1", (g1,)),
        ("dec_w2", (g2, g1)),
        ("dec_b2", (g2,)),
        ("dec_w3", (input_dim, g2)),
        ("dec_b3", (input_dim,)),
    ]


def param_count(dims: tuple) -> int:
    """Entries of a tape for the architecture ``dims`` (``ClareModel.dims``)."""
    return sum(math.prod(shape) for _, shape in _param_shapes(*dims))


class ClareModel:
    """The joint network: encoder trunk, latent heads, classifier, decoder.

    Defaults follow the reference sizing for 28x28 images (784-512-256-64);
    every dimension is configurable so miniature instances stay cheap to
    probe. All parameters live on a single ``ParamTape`` in a fixed order,
    which is also the checkpoint order and the layout of its flat buffers.
    ``capacity`` goes to the tape: a run gives every model its largest
    model's parameter count (``param_count``).
    """

    def __init__(
        self,
        class_no: int,
        d_z: int = 64,
        input_dim: int = 784,
        enc_hidden: tuple[int, int] = (512, 256),
        dec_hidden: tuple[int, int] = (256, 512),
        rng: np.random.Generator | None = None,
        capacity: int = 0,
    ):
        if class_no < 1:
            raise ValueError(f"class_no must be >= 1, got {class_no}")
        if not 1 <= d_z <= MAX_LATENT_DIM:
            raise ValueError(f"d_z must be in [1, {MAX_LATENT_DIM}], got {d_z}")
        if input_dim < 1:
            raise ValueError(f"input_dim must be >= 1, got {input_dim}")
        if len(enc_hidden) != 2 or len(dec_hidden) != 2:
            raise ValueError("encoder and decoder each take exactly two hidden widths")
        if min(*enc_hidden, *dec_hidden) < 1:
            raise ValueError(
                f"hidden widths must be >= 1, got enc {tuple(enc_hidden)}, dec {tuple(dec_hidden)}"
            )
        self.class_no = class_no
        self.d_z = d_z
        self.input_dim = input_dim
        self.enc_hidden = tuple(int(h) for h in enc_hidden)
        self.dec_hidden = tuple(int(h) for h in dec_hidden)
        shapes = _param_shapes(*self.dims)
        # One allocation for the whole tape; biases stay zero, and weights
        # draw Glorot values straight into their views, in tape order.
        self.tape = ParamTape(shapes, capacity)
        if rng is not None:
            for name, shape in shapes:
                if len(shape) == 2:
                    nk.glorot_uniform(rng, self.tape.param(name))

    @property
    def dims(self) -> tuple:
        """The architecture, as ``_param_shapes`` and ``StepWorkspace`` take it."""
        return (self.class_no, self.d_z, self.input_dim, self.enc_hidden, self.dec_hidden)

    # -- forward passes ----------------------------------------------------

    def decode(self, z: np.ndarray, c: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Pixel probabilities from latents and one-hot codes.

        ``z`` must be ``(n, d_z)`` and ``c`` ``(n, class_no)``, and ``out``,
        when given, ``(n, input_dim)``; anything else raises ``ValueError``.
        The result goes into ``out``, allocated when not given. Runs
        ``decoder_logits`` and the output sigmoid over rows in chunks of
        ``_DECODE_ROWS``.
        """
        z, c = nk.as_f64(z), nk.as_f64(c)
        d_z, class_no = self.d_z, self.class_no
        if z.ndim != 2 or z.shape[1] != d_z or c.shape != (z.shape[0], class_no):
            raise ValueError(
                f"decoder takes z of shape (n, d_z={d_z}) and c of shape "
                f"(n, class_no={class_no}), got {z.shape} and {c.shape}"
            )
        n = len(z)
        shape = (n, self.input_dim)
        if out is None:
            out = np.empty(shape)
        elif out.shape != shape:
            raise ValueError(f"decoder output must have shape {shape}, got {out.shape}")
        rows = min(_DECODE_ROWS, n)
        g1, g2 = self.dec_hidden
        cond, h1, h2 = np.empty((rows, g1)), np.empty((rows, g1)), np.empty((rows, g2))
        for start in range(0, n, _DECODE_ROWS):
            stop = min(start + _DECODE_ROWS, n)
            k = stop - start
            logits = decoder_logits(
                self.tape.param, d_z, z[start:stop], c[start:stop],
                cond[:k], h1[:k], h2[:k], out[start:stop],
            )
            kernels.sigmoid_fwd(logits, out=logits)
        return out

    def class_logits(self, x: np.ndarray) -> np.ndarray:
        """Classifier logits from the zero-condition latent mean.

        Runs ``encoder_layer1``, ``encoder_trunk`` and ``classifier_logits``,
        as the training step does, over rows in chunks of ``_CLASSIFY_ROWS``.
        Pixel bytes (uint8) are scaled one chunk at a time into a chunk-sized
        buffer (``scale_pixels``); any other input is read as float64.
        """
        x = as_pixels(x)
        self._check_input(x)
        n = len(x)
        get = self.tape.param
        rows = min(_CLASSIFY_ROWS, n)
        scaled = np.empty((rows, self.input_dim)) if x.dtype == np.uint8 else None
        h1 = np.empty((rows, self.enc_hidden[0]))
        h2 = np.empty((rows, self.enc_hidden[1]))
        mu = np.empty((rows, self.d_z))
        out = np.empty((n, self.class_no))
        for start in range(0, n, _CLASSIFY_ROWS):
            stop = min(start + _CLASSIFY_ROWS, n)
            k = stop - start
            chunk = x[start:stop] if scaled is None else scale_pixels(x[start:stop], scaled[:k])
            encoder_layer1(get, self.input_dim, chunk, h1[:k])
            encoder_trunk(get, h1[:k], h2[:k], mu[:k])
            classifier_logits(get, mu[:k], out[start:stop])
        return out

    def classify(self, x: np.ndarray) -> np.ndarray:
        """Class probabilities; rows sum to 1 and stay strictly positive.

        A non-finite logit raises ``NonFiniteError`` naming its row.
        """
        logits = self.class_logits(x)
        bad = np.flatnonzero(~np.isfinite(logits).all(axis=1))
        if bad.size:
            raise nk.NonFiniteError(f"non-finite class score in row {bad[0]} of {len(logits)}")
        return kernels.softmax_rows(logits)

    # -- plumbing ----------------------------------------------------------

    def _check_input(self, x: np.ndarray) -> None:
        if x.ndim != 2 or x.shape[1] != self.input_dim:
            raise ValueError(
                f"input shape {x.shape} does not match input_dim={self.input_dim}"
            )


def encoder_layer1(get, d: int, x, out) -> np.ndarray:
    """Encoder layer 1 under a zero condition, before its ReLU, into ``out``.

    ``x @ enc_w1[:, :d].T + enc_b1``: a zero condition adds nothing, so only
    the ``d`` image columns of ``enc_w1`` are read, in place.
    """
    return nk.linear_forward(get("enc_w1")[:, :d], get("enc_b1"), x, out)


def encoder_trunk(get, h1, h2, mu) -> np.ndarray:
    """The encoder from layer 1's pre-activation ``h1`` to the latent mean.

    ReLU in place in ``h1``, layer 2 and its ReLU into ``h2``, then the mean
    head into ``mu``; every buffer has the rows of ``h1``. The log-variance
    head is not run: only the training step's one-hot pass needs it.
    """
    kernels.relu_fwd(h1, out=h1)
    kernels.relu_fwd(nk.linear_forward(get("enc_w2"), get("enc_b2"), h1, h2), out=h2)
    return nk.linear_forward(get("enc_wmu"), get("enc_bmu"), h2, mu)


def classifier_logits(get, mu, out) -> np.ndarray:
    """The classifier head ``mu @ cls_w.T + cls_b``, into ``out``."""
    return nk.linear_forward(get("cls_w"), get("cls_b"), mu, out)


def decoder_logits(get, d_z: int, z, c, cond, h1, h2, out) -> np.ndarray:
    """The decoder's forward layers, up to the output logits, into ``out``.

    Layer 1 reads ``[z, c]`` in split form, ``c @ Wc.T + (z @ Wz.T + b1)``,
    with ``dec_w1`` split after its first ``d_z`` columns; the latent part
    ``z @ Wz.T + b1`` stays in ``cond``. Both hidden layers pass through
    ReLU in place in ``h1`` and ``h2``. Every buffer must have ``len(z)``
    rows. Training, replay and ``decode`` all run the decoder through here.
    """
    w1 = get("dec_w1")
    nk.linear_forward(w1[:, :d_z], get("dec_b1"), z, cond)
    kernels.relu_fwd(nk.linear_forward(w1[:, d_z:], cond, c, h1), out=h1)
    kernels.relu_fwd(nk.linear_forward(get("dec_w2"), get("dec_b2"), h1, h2), out=h2)
    return nk.linear_forward(get("dec_w3"), get("dec_b3"), h2, out)


# ---------------------------------------------------------------------------
# training step
# ---------------------------------------------------------------------------


class StepWorkspace:
    """Activation and gradient buffers for training steps of up to ``batch`` rows.

    Built for an architecture (``ClareModel.dims``) and a batch size; every
    buffer is allocated here and reused by each ``forward_backward`` call,
    so a steady-state step allocates only the small arrays the cross-entropy
    and KL kernels return. Fill ``x``, ``labels`` and ``noise`` (``gather`` does the
    first two), then run the step, which writes ``one_hot`` from ``labels``.

    Rows ``[:n]`` of the stacked encoder buffers hold the zero-condition
    (classification) pass, rows ``[n:]`` the one-hot (VAE) pass. The forward
    products run per pass; the backward takes each weight gradient of the
    shared layers over both passes' rows in one product. The backward
    writes each ReLU's 0/1 mask over the activation it came from, so after
    a step ``h1``, ``h2``, ``d1`` and ``d2`` hold masks, and ``cond_d``
    holds the decoder's latent part ``z @ Wz.T + b1`` (``decoder_logits``).

    One workspace serves a whole run: a shorter batch runs on views of its
    leading rows (``leading``), and a model with fewer classes on the
    leading columns of ``one_hot`` and ``logits`` (``check``).
    """

    def __init__(self, dims: tuple, batch: int):
        c, d_z, d, (h1, h2), (g1, g2) = dims
        n = batch
        self.dims = dims
        self.n = n
        self.x = np.empty((n, d))
        self.labels = np.empty(n, dtype=np.int64)
        self.noise = np.empty((n, d_z))
        self.one_hot = np.empty((n, c))
        # encoder, both passes stacked by rows
        self.h1 = np.empty((2 * n, h1))
        self.h2 = np.empty((2 * n, h2))
        self.mu = np.empty((2 * n, d_z))
        self.lv_raw = np.empty((n, d_z))
        self.lv = np.empty((n, d_z))
        # the reparameterized draw: its standard deviation and the latent
        self.std = np.empty((n, d_z))
        self.z = np.empty((n, d_z))
        self.logits = np.empty((n, c))
        # decoder, and the reconstruction loss's gradient and scratch
        self.cond_d = np.empty((n, g1))
        self.d1 = np.empty((n, g1))
        self.d2 = np.empty((n, g2))
        self.out = np.empty((n, d))
        self.dout = np.empty((n, d))
        self.bce_e = np.empty((n, d))
        self.bce_tmp = np.empty((n, d))
        # the log-variance clip's masks
        self.inside = np.empty((n, d_z), dtype=bool)
        self.below = np.empty((n, d_z), dtype=bool)
        # gradients with respect to activations
        self.dh1 = np.empty((2 * n, h1))
        self.dh2 = np.empty((2 * n, h2))
        self.dh2_lv = np.empty((n, h2))
        self.dmu = np.empty((2 * n, d_z))
        self.dz = np.empty((n, d_z))
        self.dlv = np.empty((n, d_z))
        self.dd1 = np.empty((n, g1))
        self.dd2 = np.empty((n, g2))

    def check(self, model: ClareModel) -> None:
        """Raise ``ValueError`` unless ``model`` has ``dims``, or those with fewer classes."""
        if model.dims[1:] != self.dims[1:] or model.class_no > self.dims[0]:
            raise ValueError(f"workspace shapes {self.dims} do not match the model {model.dims}")

    def leading(self, k: int) -> StepWorkspace:
        """A ``k``-row workspace over this one's leading rows.

        Stacked encoder buffers give their first ``2k`` rows (``[:k]`` for
        the classifier pass, ``[k:2k]`` for the VAE pass), every other buffer
        its first ``k``; each view is one contiguous block. Nothing is
        allocated but the views.
        """
        if not 1 <= k <= self.n:
            raise ValueError(f"a {self.n}-row workspace has no {k}-row batch")
        if k == self.n:
            return self
        view = copy.copy(self)
        for name, value in vars(self).items():
            if isinstance(value, np.ndarray):
                # Stacked buffers have 2n rows, the rest n.
                setattr(view, name, value[: len(value) // self.n * k])
        view.n = k
        return view

    def gather(self, images: np.ndarray, labels: np.ndarray, rows: np.ndarray) -> None:
        """Copy minibatch ``rows`` of ``images`` and ``labels`` into the buffers.

        ``rows`` must be valid indices. Float64 images go straight into
        ``x``: mode ``"clip"`` lets ``np.take`` write into the buffer, where
        the default mode first copies. Pixel bytes (uint8) are gathered as
        bytes and scaled into ``x`` (``scale_pixels``).
        """
        if images.dtype == np.uint8:
            scale_pixels(np.take(images, rows, axis=0, mode="clip"), self.x)
        else:
            np.take(images, rows, axis=0, out=self.x, mode="clip")
        np.take(labels, rows, out=self.labels, mode="clip")


def forward_backward(model: ClareModel, ws: StepWorkspace, beta: float = 1.0) -> dict[str, float]:
    """One pass over the training objective; gradients go to the model's tape.

    The objective is classification cross-entropy (encoder run with a zero
    condition, the deployment path) plus reconstruction cross-entropy and
    ``beta`` times the KL term (encoder run with the true one-hot, decoder
    fed a reparameterized draw with ``ws.noise``). Every tape gradient is
    assigned, and the tape is marked populated for ``optimizer_step``.
    Returns the three component values and their total. Raises
    ``ValueError`` for a label outside the model's classes (``one_hot``) and
    ``NonFiniteError`` if the total is not finite.
    """
    ws.check(model)
    n, d, d_z = ws.n, model.input_dim, model.d_z
    labels = ws.labels
    p, g = model.tape.param, model.tape.grad
    x = ws.x
    # A workspace built for more classes lends its leading class columns.
    codes = one_hot(labels, model.class_no, out=ws.one_hot[:, : model.class_no])
    logits = ws.logits[:, : model.class_no]

    # Encoder layer 1: x @ Wx.T once for both passes. The one-hot condition
    # adds column W1[:, d + label], picked out by a (n, class_no) product.
    cls1, vae1 = ws.h1[:n], ws.h1[n:]
    encoder_layer1(p, d, x, cls1)
    nk.linear_forward(p("enc_w1")[:, d:], cls1, codes, vae1)
    h2_cls, h2_vae = ws.h2[:n], ws.h2[n:]
    mu0, mu = ws.mu[:n], ws.mu[n:]
    encoder_trunk(p, cls1, h2_cls, mu0)
    encoder_trunk(p, vae1, h2_vae, mu)
    # Log-variance head: VAE pass only; the classifier reads the mean.
    nk.linear_forward(p("enc_wlv"), p("enc_blv"), h2_vae, ws.lv_raw)
    np.maximum(ws.lv_raw, LOG_VAR_MIN, out=ws.lv)
    np.minimum(ws.lv, LOG_VAR_MAX, out=ws.lv)
    np.greater(ws.lv_raw, LOG_VAR_MIN, out=ws.inside)
    np.less(ws.lv_raw, LOG_VAR_MAX, out=ws.below)
    ws.inside &= ws.below

    classifier_logits(p, mu0, logits)
    ce, dlogits = kernels.softmax_xent(logits, labels)

    std = kernels.reparam_std(ws.lv, out=ws.std)
    z = kernels.reparam_fwd(mu, ws.lv, ws.noise, std=std, out=ws.z)
    decoder_logits(p, d_z, z, codes, ws.cond_d, ws.d1, ws.d2, ws.out)
    rec, dout = kernels.bce_logits(ws.out, x, ws.dout, ws.bce_e, ws.bce_tmp)
    kl, dmu_kl, dlv_kl = kernels.kl_terms(mu, ws.lv)

    total = ce + rec + kl * beta
    nk.check_finite(total, "total loss")

    # Decoder. Each ReLU passes gradient where its output is positive, which
    # is exactly where its input was (a NaN has already failed the check).
    # The 0/1 mask overwrites the activation after its last read.
    nk.linear_backward(dout, ws.d2, p("dec_w3"), g("dec_w3"), g("dec_b3"), ws.dd2)
    ws.dd2 *= np.greater(ws.d2, 0.0, out=ws.d2)
    nk.linear_backward(ws.dd2, ws.d1, p("dec_w2"), g("dec_w2"), g("dec_b2"), ws.dd1)
    ws.dd1 *= np.greater(ws.d1, 0.0, out=ws.d1)
    nk.linear_backward(ws.dd1, z, p("dec_w1")[:, :d_z], g("dec_w1")[:, :d_z], g("dec_b1"), ws.dz)
    np.matmul(ws.dd1.T, codes, out=g("dec_w1")[:, d_z:])

    # Latent: the draw, the KL pull and the clip.
    dmu0, dmu = ws.dmu[:n], ws.dmu[n:]
    np.multiply(dmu_kl, beta, out=dmu)
    dmu += ws.dz
    dlv = kernels.reparam_dlv(ws.dz, ws.lv, ws.noise, std=std, out=ws.dlv)
    dlv_kl *= beta
    dlv += dlv_kl
    dlv *= ws.inside

    # Classifier, then the encoder heads over both passes at once.
    nk.linear_backward(dlogits, mu0, p("cls_w"), g("cls_w"), g("cls_b"), dmu0)
    nk.linear_backward(ws.dmu, ws.h2, p("enc_wmu"), g("enc_wmu"), g("enc_bmu"), ws.dh2)
    nk.linear_backward(dlv, h2_vae, p("enc_wlv"), g("enc_wlv"), g("enc_blv"), ws.dh2_lv)
    ws.dh2[n:] += ws.dh2_lv
    ws.dh2 *= np.greater(ws.h2, 0.0, out=ws.h2)
    nk.linear_backward(ws.dh2, ws.h1, p("enc_w2"), g("enc_w2"), g("enc_b2"), ws.dh1)
    ws.dh1 *= np.greater(ws.h1, 0.0, out=ws.h1)

    # Encoder layer 1: both passes saw the same image, so their gradients
    # sum before the single image product; only the VAE pass saw a condition.
    d_cls, d_vae = ws.dh1[:n], ws.dh1[n:]
    np.matmul(d_vae.T, codes, out=g("enc_w1")[:, d:])
    d_cls += d_vae
    nk.linear_backward(d_cls, x, None, g("enc_w1")[:, :d], g("enc_b1"))

    model.tape.populated = True
    return {"classification": ce, "reconstruction": rec, "kl": kl, "total": total}


# ---------------------------------------------------------------------------
# class expansion
# ---------------------------------------------------------------------------


def expand_classes(
    model: ClareModel, new_class_no: int, rng: np.random.Generator
) -> ClareModel:
    """Widen every class-indexed parameter block to ``new_class_no``.

    Each old tensor is copied verbatim into the leading corner of its grown
    counterpart (``_param_shapes`` puts every class block last), so old-class
    logits and old-class reconstructions are bit-identical as long as the
    new one-hot positions stay zero. Newly added slices are freshly
    initialized. The grown tape keeps the source tape's capacity.
    """
    if new_class_no <= model.class_no:
        raise ValueError(
            f"can only grow the class count: have {model.class_no}, got {new_class_no}"
        )
    grown = ClareModel(new_class_no, *model.dims[1:], rng=rng, capacity=model.tape.capacity)
    for name in model.tape.names():
        old = model.tape.param(name)
        grown.tape.param(name)[tuple(slice(0, k) for k in old.shape)] = old
    return grown


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------


def save_model(model: ClareModel, path: str) -> None:
    """Write ``_HEADER`` and then the tape's flat parameters as little-endian
    float64; the round trip is bit-exact. The file is replaced atomically
    (``dataio.replacing``), so a failed save leaves any previous checkpoint
    there whole and no temporary."""
    header = _HEADER.pack(CHECKPOINT_MAGIC, CHECKPOINT_VERSION, model.class_no, model.d_z,
                          model.input_dim, *model.enc_hidden, *model.dec_hidden)
    with replacing(path, "wb") as fh:
        fh.write(header)
        fh.write(model.tape.flat_params.astype("<f8", copy=False).data)


def load_model(path: str) -> ClareModel:
    """Rebuild a model from a ``save_model`` file.

    The payload's length is checked against the header's dimensions before
    anything is allocated. A bad magic, a short file or extra bytes raise
    ``ValueError`` naming the offset (and, for a short payload, the tensor
    it ends in), and any version but ``CHECKPOINT_VERSION`` one naming that
    version; dimensions ``ClareModel`` rejects raise its ``ValueError``, and
    a non-finite parameter one naming its tensor.
    """
    with open(path, "rb") as fh:
        data = fh.read()

    def need(offset: int, size: int, what: str) -> None:
        if offset + size > len(data):
            raise ValueError(
                f"truncated checkpoint: {what} needs {size} bytes at "
                f"offset {offset}, file has {len(data)}"
            )

    need(0, 8, "magic and version")
    magic, version = struct.unpack_from("<4sI", data)
    if magic != CHECKPOINT_MAGIC:
        raise ValueError(f"bad checkpoint magic {magic!r} at offset 0")
    if version != CHECKPOINT_VERSION:
        raise ValueError(f"unsupported checkpoint version {version}, expected {CHECKPOINT_VERSION}")
    need(8, _HEADER.size - 8, "header")
    class_no, d_z, input_dim, h1, h2, g1, g2 = _HEADER.unpack_from(data)[2:]
    dims = (class_no, d_z, input_dim, (h1, h2), (g1, g2))
    offset = _HEADER.size
    for name, shape in _param_shapes(*dims):
        need(offset, 8 * math.prod(shape), f"payload of tensor {name!r}")
        offset += 8 * math.prod(shape)
    if offset != len(data):
        raise ValueError(
            f"trailing bytes in checkpoint: payload ends at offset {offset}, file has {len(data)}"
        )
    model = ClareModel(*dims, rng=None)
    model.tape.flat_params[...] = np.frombuffer(data, dtype="<f8", offset=_HEADER.size)
    try:
        model.tape.check_finite(model.tape.flat_params, "parameter")
    except nk.NonFiniteError as exc:
        raise ValueError(f"bad checkpoint: {exc}") from None
    return model
