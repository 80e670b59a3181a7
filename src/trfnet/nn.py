"""Minimal dense/sparse neural network machinery on numpy, double precision.

Everything the training loops need lives here: sparse linear layers with
fixed connectivity, a tied-transpose decoder, stable Bernoulli/Gaussian
reconstruction losses, softmax and multi-task sigmoid classification losses
with exact analytic gradients, Adam, and inverted dropout.

A sparse layer stores one value per connection.  Compute keeps dense BLAS
products: each call writes the values into a dense H x V weight buffer and
gathers the weight gradient from a dense H x V product buffer.  Those two
buffers (Buffers) belong to the caller that made them: a training loop keeps
one pair per layer for all its steps, a one-shot caller makes a fresh pair.
A pair is tied to the layer's index: a loop that changes the index must make
a new one.

There is one forward: every product of a sparse layer with a batch goes
through _pre_activation, which writes the values into the pair's w.
dae_gradients (its encoder), stack_forward (training, with dropout and
caches) and hidden_representation (eval, neither) call it.  No function here
reads MaskedLayer.weights or .mask.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DomainError

BERNOULLI = "bernoulli"
GAUSSIAN = "gaussian"
FAMILIES = (BERNOULLI, GAUSSIAN)


def sigmoid(z: np.ndarray) -> np.ndarray:
    """Overflow-safe logistic function."""
    z = np.asarray(z, dtype=np.float64)
    return _sigmoid_from(z, _exp_neg_abs(z))


def _exp_neg_abs(z: np.ndarray) -> np.ndarray:
    """exp(-|z|); min(z, -z) rather than -abs(z) so a nan keeps its sign bit."""
    return np.exp(np.minimum(z, -z))


def _sigmoid_from(z: np.ndarray, e: np.ndarray) -> np.ndarray:
    """sigmoid(z) given e = exp(-|z|): 1 / (1 + e) where z >= 0, else e / (1 + e)."""
    return np.where(z >= 0, 1.0, e) / (1.0 + e)


def relu(z: np.ndarray) -> np.ndarray:
    return np.maximum(z, 0.0)


def identity(z: np.ndarray) -> np.ndarray:
    return z


ACTIVATIONS = {"sigmoid": sigmoid, "relu": relu, "identity": identity}


def activation_fn(name: str):
    try:
        return ACTIVATIONS[name]
    except KeyError:
        raise ValueError(f"unknown activation {name!r}") from None


def activation_grad(name: str, pre: np.ndarray, out: np.ndarray) -> np.ndarray:
    """d activation / d preactivation, from whichever of (pre, out) is cheaper."""
    if name == "sigmoid":
        return out * (1.0 - out)
    if name == "relu":
        return (pre > 0).astype(np.float64)
    if name == "identity":
        return np.ones_like(pre)
    raise ValueError(f"unknown activation {name!r}")


@dataclass
class MaskedLayer:
    """One sparse H x V layer: connections as non-zeros, and two biases.

    index: sorted flat row-major positions (row * V + column); values: their
    weights.  bias_hidden (H) feeds the encoder, bias_visible (V) the decoder.
    """

    index: np.ndarray
    values: np.ndarray
    bias_hidden: np.ndarray
    bias_visible: np.ndarray
    activation: str = "sigmoid"

    @property
    def hidden_count(self) -> int:
        return self.bias_hidden.shape[0]

    @property
    def visible_count(self) -> int:
        return self.bias_visible.shape[0]

    def _scatter(self, values) -> np.ndarray:
        out = np.zeros((self.hidden_count, self.visible_count))
        out.ravel()[self.index] = values
        out.flags.writeable = False
        return out

    @property
    def weights(self) -> np.ndarray:
        """Read-only dense H x V weights, zero outside the connectivity.

        A fresh scatter per read, kept for tests and the benchmark only: no
        library function reads it (compute writes into a Buffers pair).
        """
        return self._scatter(self.values)

    @property
    def mask(self) -> np.ndarray:
        """Read-only dense H x V 0/1 connectivity; like weights, for tests
        and the benchmark only."""
        return self._scatter(1.0)


class Buffers(NamedTuple):
    """Dense H x V scratch for one layer, reused by the loop that owns it.

    w holds the weights: zero off the layer's index, and the values are
    written at the index before every use.  g receives each weight-gradient
    product, which is then gathered at the index.
    """

    w: np.ndarray
    g: np.ndarray


def buffers(layer: MaskedLayer) -> Buffers:
    """A fresh pair for layer; valid for as long as its index is unchanged."""
    shape = (layer.hidden_count, layer.visible_count)
    return Buffers(np.zeros(shape), np.empty(shape))


def _write_weights(layer: MaskedLayer, buf: Buffers) -> np.ndarray:
    """Write layer.values into buf.w at layer.index; return buf.w."""
    shape = (layer.hidden_count, layer.visible_count)
    if buf.w.shape != shape:
        raise ValueError(f"buffer shape {buf.w.shape} does not fit a layer of shape {shape}")
    buf.w.ravel()[layer.index] = layer.values
    return buf.w


# rows of the init uniform drawn at a time, so no dense H x V array is built
INIT_ROW_BLOCK = 64


def init_masked_layer(
    index: np.ndarray, shape: tuple[int, int], rng: np.random.Generator, activation: str = "sigmoid"
) -> MaskedLayer:
    """Uniform +-sqrt(6 / (fan_in + fan_out)) init with per-row fan-in.

    index holds the sorted flat row-major positions (row * V + column) of the
    connections of an H x V layer, shape = (H, V).  fan_in of row i is its
    connection count (the unit's true input width); fan_out is taken as the
    hidden width.  The full H x V uniform is drawn, in blocks of
    INIT_ROW_BLOCK rows, so the generator advances the same way whatever the
    connectivity; each block keeps only its connected entries.
    """
    h, v = shape
    index = np.asarray(index)
    if index.ndim != 1 or not np.issubdtype(index.dtype, np.integer):
        raise ValueError(f"index must be a 1-D integer array, got {index.dtype} of shape {index.shape}")
    if index.size and (index[0] < 0 or index[-1] >= h * v or (np.diff(index) <= 0).any()):
        raise ValueError(f"index must rise strictly inside [0, {h * v})")
    index = index.astype(np.int64)
    bounds = np.searchsorted(index, np.arange(h + 1) * v)
    limit = np.sqrt(6.0 / (np.diff(bounds) + h))
    values = np.empty(index.size)
    for r0 in range(0, h, INIT_ROW_BLOCK):
        r1 = min(r0 + INIT_ROW_BLOCK, h)
        u = rng.uniform(-1.0, 1.0, size=(r1 - r0, v))
        lo, hi = bounds[r0], bounds[r1]
        pos = index[lo:hi] - r0 * v
        values[lo:hi] = u.ravel()[pos] * limit[r0 + pos // v]
    return MaskedLayer(
        index=index,
        values=values,
        bias_hidden=np.zeros(h),
        bias_visible=np.zeros(v),
        activation=activation,
    )


@dataclass
class DenseLayer:
    """Fully connected O x I layer; the classifier head emits raw logits."""

    weights: np.ndarray
    bias: np.ndarray
    activation: str = "identity"

    @property
    def out_count(self) -> int:
        return self.weights.shape[0]

    @property
    def in_count(self) -> int:
        return self.weights.shape[1]


def init_dense_layer(out_count: int, in_count: int, rng: np.random.Generator, activation: str = "identity") -> DenseLayer:
    limit = np.sqrt(6.0 / (in_count + out_count))
    w = rng.uniform(-limit, limit, size=(out_count, in_count))
    return DenseLayer(weights=w, bias=np.zeros(out_count), activation=activation)


def _pre_activation(layer: MaskedLayer, x: np.ndarray, buf: Buffers) -> np.ndarray:
    """x @ W.T + bias_hidden, with W written into buf.w: the one product of a
    sparse layer with a batch."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != layer.visible_count:
        raise ValueError(f"encoder input: expected a batch of width {layer.visible_count}, got shape {x.shape}")
    return x @ _write_weights(layer, buf).T + layer.bias_hidden


def reconstruction_loss(x: np.ndarray, z_pre: np.ndarray, family: str) -> float:
    """Batch-mean reconstruction loss against pre-activation decoder output.

    Bernoulli: per-sample summed cross-entropy in the stable logit form, so
    any finite z is safe.  Gaussian: per-sample 0.5 * squared error.
    """
    x = np.asarray(x, dtype=np.float64)
    z = np.asarray(z_pre, dtype=np.float64)
    _check_same_shape(x, z)
    if family == BERNOULLI:
        return _bernoulli_loss(x, z, _exp_neg_abs(z))
    if family == GAUSSIAN:
        return float((0.5 * (x - z) ** 2).sum(axis=1).mean())
    raise ValueError(f"unknown family {family!r}")


def _check_same_shape(x: np.ndarray, z: np.ndarray) -> None:
    if x.shape != z.shape:
        raise ValueError(f"shape mismatch: x {x.shape} vs z {z.shape}")


def _bernoulli_loss(x: np.ndarray, z: np.ndarray, e: np.ndarray) -> float:
    """Bernoulli reconstruction_loss given e = exp(-|z|)."""
    if (x < 0).any() or (x > 1).any():
        raise DomainError("bernoulli loss needs targets in [0, 1]")
    elem = np.maximum(z, 0.0) - x * z + np.log1p(e)
    return float(elem.sum(axis=1).mean())


def dae_gradients(layer: MaskedLayer, x_clean: np.ndarray, x_tilde: np.ndarray, family: str, buf: Buffers):
    """Loss and exact gradients of the tied denoising autoencoder.

    Forward is corrupt -> sigmoid encoder -> tied-transpose decoder ->
    reconstruction loss against the clean batch.  The weight gradient sums
    the encoder and decoder contributions at the layer's index positions.
    buf is the layer's pair from buffers().
    """
    x_clean = np.asarray(x_clean, dtype=np.float64)
    h = sigmoid(_pre_activation(layer, x_tilde, buf))
    we = buf.w
    z = h @ we + layer.bias_visible

    b = x_clean.shape[0]
    if family == BERNOULLI:
        _check_same_shape(x_clean, z)
        e = _exp_neg_abs(z)
        loss = _bernoulli_loss(x_clean, z, e)
        dz = (_sigmoid_from(z, e) - x_clean) / b
    else:
        loss = reconstruction_loss(x_clean, z, family)
        dz = (z - x_clean) / b
    dh = dz @ we.T
    da = dh * h * (1.0 - h)
    np.matmul(da.T, x_tilde, out=buf.g)
    gw = buf.g.ravel()[layer.index]
    np.matmul(h.T, dz, out=buf.g)
    gw += buf.g.ravel()[layer.index]
    grads = {
        "weights": gw,
        "bias_hidden": da.sum(axis=0),
        "bias_visible": dz.sum(axis=0),
    }
    return loss, grads


def softmax_cross_entropy(logits: np.ndarray, labels: np.ndarray):
    """Mean cross-entropy of integer labels; returns (loss, dlogits).

    Every label must be a class index in [0, C) for C logit columns.
    """
    z = np.asarray(logits, dtype=np.float64)
    y = np.asarray(labels)
    if y.shape != (z.shape[0],):
        raise ValueError(f"expected {z.shape[0]} labels, got shape {y.shape}")
    if not np.issubdtype(y.dtype, np.integer):
        raise ValueError(f"class labels must be integers, got dtype {y.dtype}")
    bad = (y < 0) | (y >= z.shape[1])
    if bad.any():
        raise ValueError(f"label {int(y[bad][0])} is outside the {z.shape[1]} classes")
    shifted = z - z.max(axis=1, keepdims=True)
    log_norm = np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    log_probs = shifted - log_norm
    b = z.shape[0]
    loss = -float(log_probs[np.arange(b), y].mean())
    dlogits = np.exp(log_probs)
    dlogits[np.arange(b), y] -= 1.0
    return loss, dlogits / b


def multitask_sigmoid_loss(logits: np.ndarray, targets: np.ndarray):
    """Per-task binary cross-entropy over observed entries; -1 marks missing.

    The loss averages over observed (sample, task) pairs and missing entries
    get exactly zero gradient.
    """
    z = np.asarray(logits, dtype=np.float64)
    t = np.asarray(targets, dtype=np.float64)
    observed = t >= 0
    count = int(observed.sum())
    if count == 0:
        raise ValueError("no observed labels in batch")
    t_safe = np.where(observed, t, 0.0)
    e = _exp_neg_abs(z)
    elem = np.maximum(z, 0.0) - t_safe * z + np.log1p(e)
    loss = float((elem * observed).sum() / count)
    dlogits = (_sigmoid_from(z, e) - t_safe) * observed / count
    return loss, dlogits


class Adam:
    """Standard bias-corrected Adam over a named-parameter dict.

    step() mutates the parameter arrays in place.  A non-finite gradient
    aborts the step before any state changes.
    """

    def __init__(self, step_size: float = 1e-3, beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        self.step_size = step_size
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self.moments: dict[str, tuple[np.ndarray, np.ndarray]] = {}

    def step(self, params: dict[str, np.ndarray], grads: dict[str, np.ndarray]) -> None:
        for name, g in grads.items():
            if not np.isfinite(g).all():
                raise FloatingPointError(f"non-finite gradient for {name!r}; step aborted")
            if g.shape != params[name].shape:
                raise ValueError(f"gradient shape {g.shape} != parameter shape {params[name].shape} for {name!r}")
        self.t += 1
        c1 = 1.0 - self.beta1**self.t
        c2 = 1.0 - self.beta2**self.t
        for name, p in params.items():
            g = grads[name]
            if name not in self.moments:
                self.moments[name] = (np.zeros_like(p), np.zeros_like(p))
            m, v = self.moments[name]
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * g * g
            p -= self.step_size * (m / c1) / (np.sqrt(v / c2) + self.eps)


def dropout(x: np.ndarray, rate: float, rng: np.random.Generator):
    """Inverted dropout; returns (output, scale) with output = x * scale.

    The scale array re-multiplies gradients on the way back.  At rate 0 the
    transform is the identity and draws nothing from rng.
    """
    if not 0.0 <= rate < 1.0:
        raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
    x = np.asarray(x, dtype=np.float64)
    if rate == 0.0:
        return x, np.ones_like(x)
    keep = rng.random(x.shape) >= rate
    scale = keep / (1.0 - rate)
    return x * scale, scale


def stack_forward(
    layers: list[MaskedLayer],
    head: DenseLayer,
    x: np.ndarray,
    bufs: list[Buffers],
    dropout_rate: float = 0.0,
    rng: np.random.Generator | None = None,
):
    """Training forward through sparse hidden layers then the dense head.

    bufs holds one pair from buffers() per layer; each layer's weights are
    written into its w.  Dropout at dropout_rate applies to every hidden
    output.  Returns (logits, caches); caches feed stack_backward with the
    same bufs.  Scoring goes through hidden_representation instead.
    """
    _check_pairs(layers, bufs)
    caches = []
    out = np.asarray(x, dtype=np.float64)
    for layer, buf in zip(layers, bufs):
        pre = _pre_activation(layer, out, buf)
        act = activation_fn(layer.activation)(pre)
        dropped, scale = dropout(act, dropout_rate, rng)
        caches.append({"x": out, "pre": pre, "act": act, "scale": scale})
        out = dropped
    logits = out @ head.weights.T + head.bias
    caches.append({"x": out})
    return logits, caches


def stack_backward(layers: list[MaskedLayer], head: DenseLayer, caches, dlogits: np.ndarray, bufs: list[Buffers]):
    """Exact gradients for stack_forward, given the bufs it filled; returns
    {'head': ..., 'layers': [...]}."""
    head_in = caches[-1]["x"]
    grads_head = {"weights": dlogits.T @ head_in, "bias": dlogits.sum(axis=0)}
    dx, w = dlogits, head.weights
    grads_layers = []
    for layer, cache, buf in zip(reversed(layers), reversed(caches[:-1]), reversed(bufs)):
        # formed only for layer outputs, never for the network input
        dx = (dx @ w) * cache["scale"]
        dpre = dx * activation_grad(layer.activation, cache["pre"], cache["act"])
        np.matmul(dpre.T, cache["x"], out=buf.g)
        grads_layers.append({"weights": buf.g.ravel()[layer.index], "bias_hidden": dpre.sum(axis=0)})
        dx, w = dpre, buf.w
    grads_layers.reverse()
    return {"head": grads_head, "layers": grads_layers}


def hidden_representation(layers: list[MaskedLayer], x: np.ndarray, bufs: list[Buffers]) -> np.ndarray:
    """Eval forward through the hidden stack only: no dropout, no caches, no head.

    bufs holds one pair per layer, as for stack_forward.
    """
    _check_pairs(layers, bufs)
    out = x
    for layer, buf in zip(layers, bufs):
        out = activation_fn(layer.activation)(_pre_activation(layer, out, buf))
    return out


def _check_pairs(layers: list[MaskedLayer], bufs: list[Buffers]) -> None:
    if len(bufs) != len(layers):
        raise ValueError(f"need one buffer pair per layer: {len(bufs)} for {len(layers)}")
