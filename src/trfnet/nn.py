"""Minimal dense/sparse neural network machinery on numpy, double precision.

Everything the training loops need lives here: sparse linear layers with
fixed connectivity, a tied-transpose decoder, stable Bernoulli/Gaussian
reconstruction losses, softmax and multi-task sigmoid classification losses
with exact analytic gradients, Adam, and inverted dropout.

A training loop's trainable arrays form one list in one order: a layer's
[values, bias_hidden, bias_visible] for dae_gradients, stack_params(layers,
head) for stack_backward.  Adam binds the list once with one gradient array
per parameter (Adam.grads), which each writes in that order with out=;
Adam.step() checks them finite, then updates ADAM_BLOCK elements at a time in
block-sized scratch, with the bits of the whole-array update.  No array is
named.

A layer stores one value per connection; compute keeps dense BLAS products.
A full layer, one that holds every connection, stores no index (index is
None) and computes on values.reshape(H, V), so a dense network stores each
connection once, as its value.  Any other layer writes its values into a
dense H x V weight buffer at its index and gathers the weight gradient
there from a dense H x V product buffer.  Those two buffers
(Buffers) belong to the caller that made them: a training loop keeps one
pair per sparse layer for all its steps, a one-shot caller makes a fresh
pair.  A layer checks itself when it is made and is fixed after, so a pair
fits it for good: a loop that changes the index makes a new layer
(dataclasses.replace), which checks itself again, and a new pair for it.

dae_gradients adds the decoder bias in place and builds the Bernoulli loss
terms, then the output gradient, in the decoder output's own array, so a
step holds three batch x V float64 arrays at most (that one, exp(-|z|) and
the loss's scratch), with the same bits as the out-of-place expressions.

There is one forward, _pre_activation on the weights from _weights, and one
weight-gradient product, _weight_gradient.  dae_gradients, stack_forward
(training, with dropout and caches) and hidden_representation (eval,
neither) call them.  No function here reads MaskedLayer.weights or .mask.

Each activation takes out=.  The eval forward consumes its input: it keeps
no reference to it once layer 0's product exists and writes each activation
into the pre-activation array it just made, so a caller that passes the
N x V input as a temporary holds it only until that product, and one N x H
array (and a sigmoid's scratch) after.  stack_forward activates out of
place, because its caches keep both the pre-activation and the output.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, ClassVar, NamedTuple

import numpy as np

from .errors import DomainError

BERNOULLI = "bernoulli"
GAUSSIAN = "gaussian"
FAMILIES = (BERNOULLI, GAUSSIAN)


def sigmoid(z: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Overflow-safe logistic function, into out (fresh if None).

    out=z overwrites z: one scratch array the size of z and a bool mask.
    """
    z = np.asarray(z, dtype=np.float64)
    return _sigmoid_from(z >= 0, _exp_neg_abs(z), out)


def _exp_neg_abs(z: np.ndarray) -> np.ndarray:
    """exp(-|z|) in one fresh array; min(z, -z) rather than -abs(z) so a nan keeps its sign bit."""
    e = np.negative(z)
    np.minimum(z, e, out=e)
    return np.exp(e, out=e)


def _sigmoid_from(positive: np.ndarray, e: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """sigmoid(z) given positive = z >= 0 and e = exp(-|z|): 1 / (1 + e) where
    positive, else e / (1 + e).

    e is overwritten.  The result goes into out (fresh if None), which may be z.
    """
    if out is None:
        out = np.where(positive, 1.0, e)
    else:
        np.copyto(out, e)
        np.copyto(out, 1.0, where=positive)
    np.add(1.0, e, out=e)
    return np.divide(out, e, out=out)


def relu(z: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    return np.maximum(z, 0.0, out=out)


def identity(z: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    if out is None or out is z:
        return z
    np.copyto(out, z)
    return out


class Activation(NamedTuple):
    """An activation and its derivative: grad(pre, out) is d out / d pre,
    from whichever of the preactivation and the output is cheaper.

    fn(z, out=None) writes into out when given; out=z activates in place.
    """

    fn: Callable[..., np.ndarray]
    grad: Callable[[np.ndarray, np.ndarray], np.ndarray]


ACTIVATIONS = {
    "sigmoid": Activation(sigmoid, lambda pre, out: out * (1.0 - out)),
    "relu": Activation(relu, lambda pre, out: (pre > 0).astype(np.float64)),
    "identity": Activation(identity, lambda pre, out: np.ones_like(pre)),
}


def get_activation(name: str) -> Activation:
    try:
        return ACTIVATIONS[name]
    except KeyError:
        raise ValueError(f"unknown activation {name!r}") from None


@dataclass(frozen=True)
class MaskedLayer:
    """One sparse H x V layer: connections as non-zeros, and two biases.

    index: flat row-major positions (row * V + column) rising strictly inside
    [0, H * V); values: their weights.  bias_hidden (H) feeds the encoder,
    bias_visible (V) the decoder.  A full layer, one that holds every
    connection, has index None: its positions are arange(H * V), which its
    shape gives, so values.reshape(H, V) is its weight matrix, and a rising
    index of H * V entries becomes None.  The layer checks its index, values
    count and activation when it is made (ValueError) and is fixed after;
    values and biases train in place.  A read-only int64 index (a plan's, see
    ReceptiveFieldPlan.index) is kept as it is; any other is kept as int64
    behind a read-only view, and an int64 array is not copied.
    """

    index: np.ndarray | None
    values: np.ndarray
    bias_hidden: np.ndarray
    bias_visible: np.ndarray
    activation: str = "sigmoid"

    def __post_init__(self) -> None:
        get_activation(self.activation)
        size = self.hidden_count * self.visible_count
        index = self.index
        if index is not None:
            index = np.asarray(index)
            if index.ndim != 1 or not np.issubdtype(index.dtype, np.integer):
                raise ValueError(f"index must be a 1-D integer array, got {index.dtype} of shape {index.shape}")
            if index.size and (index[0] < 0 or index[-1] >= size or (index[1:] <= index[:-1]).any()):
                raise ValueError(f"index must rise strictly inside [0, {size})")
            if index.size == size:
                index = None
            elif index.dtype != np.int64 or index.flags.writeable:
                index = index.astype(np.int64, copy=False).view()
                index.flags.writeable = False
            object.__setattr__(self, "index", index)
        count = size if index is None else index.size
        if self.values.shape != (count,):
            raise ValueError(f"{self.values.size} weights for {count} connections, in shape {self.values.shape}")

    def __setstate__(self, state: dict) -> None:
        """A deep copy's index, its own array, is read-only too."""
        self.__dict__.update(state)
        if self.index is not None:
            self.index.flags.writeable = False

    @property
    def hidden_count(self) -> int:
        return self.bias_hidden.shape[0]

    @property
    def visible_count(self) -> int:
        return self.bias_visible.shape[0]

    def _scatter(self, values) -> np.ndarray:
        out = np.zeros((self.hidden_count, self.visible_count))
        out.ravel()[... if self.index is None else self.index] = values
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
    """Dense H x V scratch for one sparse layer, reused by the loop that owns it.

    w holds the weights: zero off the layer's index, and the values are
    written at the index before every use.  g receives each weight-gradient
    product, which is then gathered at the index.
    """

    w: np.ndarray
    g: np.ndarray


def buffers(layer: MaskedLayer) -> Buffers | None:
    """A fresh pair for layer, or None if it is full; the layer's index never
    changes, so the pair fits it for good (MaskedLayer checked the index)."""
    if layer.index is None:
        return None
    shape = (layer.hidden_count, layer.visible_count)
    return Buffers(np.zeros(shape), np.empty(shape))


def _weights(layer: MaskedLayer, buf: Buffers | None) -> np.ndarray:
    """The dense H x V weights: a full layer's values in place, else written into buf.w at the index."""
    shape = (layer.hidden_count, layer.visible_count)
    if layer.index is None:  # a full layer: values.reshape(H, V) is its weight matrix
        return layer.values.reshape(shape)
    if buf is None or buf.w.shape != shape:
        raise ValueError(f"buffer shape {buf and buf.w.shape} does not fit a sparse layer of shape {shape}")
    buf.w.ravel()[layer.index] = layer.values
    return buf.w


def _weight_gradient(layer: MaskedLayer, a: np.ndarray, b: np.ndarray, buf: Buffers | None, out=None) -> np.ndarray:
    """a.T @ b at the index, flat, into out (fresh if None): whole for a full layer, else gathered from
    buf.g by np.take in mode "clip", which does not buffer out and clips nothing (MaskedLayer checked the index)."""
    if layer.index is None:
        shape = (layer.hidden_count, layer.visible_count)
        return np.matmul(a.T, b, out=None if out is None else out.reshape(shape)).reshape(-1)
    np.matmul(a.T, b, out=buf.g)
    return np.take(buf.g.ravel(), layer.index, out=out, mode="clip")


# rows of the init uniform drawn at a time, so no dense H x V array is built
INIT_ROW_BLOCK = 64


def init_masked_layer(
    index: np.ndarray | None, shape: tuple[int, int], rng: np.random.Generator, activation: str = "sigmoid"
) -> MaskedLayer:
    """Uniform +-sqrt(6 / (fan_in + fan_out)) init with per-row fan-in.

    index holds the flat row-major positions (row * V + column) of the
    connections of an H x V layer, shape = (H, V); None, or a full-size
    index, gives a full layer.  The layer is made (and checks itself) first,
    on a copy of a writable index, so it never aliases an array the caller
    can change (a read-only one is kept as MaskedLayer keeps it), and then
    its values are filled in place.  fan_in of row i is its connection count
    (the unit's true input width); fan_out is taken as the hidden width.
    The full H x V uniform is drawn, in blocks of INIT_ROW_BLOCK rows, so
    the generator advances the same way whatever the connectivity; each
    block keeps only its connected entries, a full layer's block all of them.
    """
    h, v = shape
    if index is not None:
        index = np.asarray(index)
        if index.flags.writeable:
            index = index.copy()
    layer = MaskedLayer(index, np.empty(h * v if index is None else index.size), np.zeros(h), np.zeros(v), activation)
    index, values = layer.index, layer.values
    bounds = np.arange(h + 1) * v if index is None else np.searchsorted(index, np.arange(h + 1) * v)
    limit = np.sqrt(6.0 / (np.diff(bounds) + h))
    for r0 in range(0, h, INIT_ROW_BLOCK):
        r1 = min(r0 + INIT_ROW_BLOCK, h)
        u = rng.uniform(-1.0, 1.0, size=(r1 - r0, v))
        lo, hi = bounds[r0], bounds[r1]
        if index is None:
            np.multiply(u, limit[r0:r1, None], out=values[lo:hi].reshape(r1 - r0, v))
        else:
            pos = index[lo:hi] - r0 * v
            values[lo:hi] = u.ravel()[pos] * limit[r0 + pos // v]
    return layer


@dataclass(frozen=True)
class DenseLayer:
    """Fully connected O x I layer: the classifier head, which emits raw logits;
    made with 2-D weights and one bias per output (else ValueError), fixed after."""

    weights: np.ndarray
    bias: np.ndarray
    activation: ClassVar[str] = "identity"  # the model file names it, and load accepts no other

    def __post_init__(self) -> None:
        if self.weights.ndim != 2:
            raise ValueError(f"weights must be 2-D, got shape {self.weights.shape}")
        if self.bias.shape != (self.out_count,):
            raise ValueError(f"bias of {self.bias.size} for {self.out_count} outputs")

    @property
    def out_count(self) -> int:
        return self.weights.shape[0]

    @property
    def in_count(self) -> int:
        return self.weights.shape[1]


def init_dense_layer(out_count: int, in_count: int, rng: np.random.Generator) -> DenseLayer:
    limit = np.sqrt(6.0 / (in_count + out_count))
    w = rng.uniform(-limit, limit, size=(out_count, in_count))
    return DenseLayer(weights=w, bias=np.zeros(out_count))


def _pre_activation(layer: MaskedLayer, x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """x @ w.T + bias_hidden, for w from _weights: the one product of a layer with a batch.

    The bias is added in place, so the result is the only N x H array made.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != layer.visible_count:
        raise ValueError(f"encoder input: expected a batch of width {layer.visible_count}, got shape {x.shape}")
    pre = x @ w.T
    pre += layer.bias_hidden
    return pre


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


def _bernoulli_loss(x: np.ndarray, z: np.ndarray, e: np.ndarray, out: np.ndarray | None = None) -> float:
    """Bernoulli reconstruction_loss given e = exp(-|z|).

    max(z, 0) - x * z + log1p(e) is built in place, left to right, in out
    (fresh if None; out=z overwrites z), so it has the bits of that
    expression and one scratch array the size of z.
    """
    if (x < 0).any() or (x > 1).any():
        raise DomainError("bernoulli loss needs targets in [0, 1]")
    scratch = x * z
    elem = np.maximum(z, 0.0, out=out)
    elem -= scratch
    elem += np.log1p(e, out=scratch)
    return float(elem.sum(axis=1).mean())


def dae_gradients(layer: MaskedLayer, x_clean: np.ndarray, x_tilde: np.ndarray, family: str, buf: Buffers, grads):
    """The loss of the tied denoising autoencoder; its exact gradients go into grads.

    Forward is corrupt -> sigmoid encoder -> tied-transpose decoder ->
    reconstruction loss against the clean batch.  The weight gradient sums
    the encoder term, written into grads[0], and the decoder term, made fresh
    and added, at the layer's index.  buf is what buffers() gave the layer;
    grads is Adam.grads for [values, bias_hidden, bias_visible].
    """
    x_clean = np.asarray(x_clean, dtype=np.float64)
    we = _weights(layer, buf)
    h = sigmoid(_pre_activation(layer, x_tilde, we))
    z = h @ we
    z += layer.bias_visible

    b = x_clean.shape[0]
    if family == BERNOULLI:
        _check_same_shape(x_clean, z)
        positive = z >= 0
        e = _exp_neg_abs(z)
        loss = _bernoulli_loss(x_clean, z, e, out=z)  # z is spent: the sigmoid needs only its sign
        dz = _sigmoid_from(positive, e, out=z)
        del e, positive  # _sigmoid_from's scratch now
    else:
        loss = reconstruction_loss(x_clean, z, family)
        dz = z
    dz -= x_clean
    dz /= b
    dh = dz @ we.T
    da = dh * h * (1.0 - h)
    _weight_gradient(layer, da, x_tilde, buf, out=grads[0])
    grads[0] += _weight_gradient(layer, h, dz, buf)
    da.sum(axis=0, out=grads[1])
    dz.sum(axis=0, out=grads[2])
    return loss


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
    dlogits = (_sigmoid_from(z >= 0, e) - t_safe) * observed / count
    return loss, dlogits


# elements of a parameter that Adam updates at a time: its two scratch blocks
# and the matching blocks of parameter, gradient and moments stay in cache
ADAM_BLOCK = 1 << 15


class Adam:
    """Bias-corrected Adam (Kingma & Ba, 2015) over one bound list of arrays.

    Binding the list makes grads, one gradient array per parameter, of its
    shape.  A training step writes them in place and step() updates
    params[i] by grads[i].  A non-finite gradient aborts the step before any
    state changes.  Every parameter must be C-contiguous, since the update
    runs on flat views of it, ADAM_BLOCK elements at a time.
    """

    beta1 = 0.9
    beta2 = 0.999
    eps = 1e-8

    def __init__(self, params: list[np.ndarray], step_size: float = 1e-3):
        for i, p in enumerate(params):
            if not p.flags.c_contiguous:
                raise ValueError(f"parameter {i} is not C-contiguous; Adam updates it through a flat view")
        self.params = params
        self.grads = [np.zeros_like(p) for p in params]
        self.step_size = step_size
        self.t = 0
        self.moments = [(np.zeros_like(p), np.zeros_like(p)) for p in params]
        block = min(ADAM_BLOCK, max((p.size for p in params), default=0))
        self._scratch = (np.empty(block), np.empty(block))
        self._finite = np.empty(block, dtype=bool)

    def step(self) -> None:
        for i, g in enumerate(g.reshape(-1) for g in self.grads):
            for lo in range(0, g.size, ADAM_BLOCK):
                part = g[lo : lo + ADAM_BLOCK]
                if not np.isfinite(part, out=self._finite[: part.size]).all():
                    raise FloatingPointError(f"non-finite gradient for parameter {i}; step aborted")
        self.t += 1
        c1 = 1.0 - self.beta1**self.t
        c2 = 1.0 - self.beta2**self.t
        for p, g, (m, v) in zip(self.params, self.grads, self.moments):
            p, g, m, v = p.reshape(-1), g.reshape(-1), m.reshape(-1), v.reshape(-1)
            for lo in range(0, p.size, ADAM_BLOCK):
                hi = min(lo + ADAM_BLOCK, p.size)
                self._update(p[lo:hi], g[lo:hi], m[lo:hi], v[lo:hi], c1, c2)

    def _update(self, p, g, m, v, c1: float, c2: float) -> None:
        """The whole-array update p -= step * (m / c1) / (sqrt(v / c2) + eps)
        after the moment updates, on one block, operation for operation."""
        a, b = (s[: p.size] for s in self._scratch)
        m *= self.beta1
        np.multiply(1.0 - self.beta1, g, out=a)
        m += a
        v *= self.beta2
        np.multiply(1.0 - self.beta2, g, out=a)
        a *= g
        v += a
        np.divide(m, c1, out=a)
        np.multiply(self.step_size, a, out=a)
        np.divide(v, c2, out=b)
        np.sqrt(b, out=b)
        b += self.eps
        a /= b
        p -= a


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


def stack_params(layers: list[MaskedLayer], head: DenseLayer) -> list[np.ndarray]:
    """The stack's trainable arrays in stack_backward's order: each layer's
    values and bias_hidden, then the head's weights and bias."""
    return [a for layer in layers for a in (layer.values, layer.bias_hidden)] + [head.weights, head.bias]


def stack_forward(
    layers: list[MaskedLayer],
    head: DenseLayer,
    x: np.ndarray,
    bufs: list[Buffers | None],
    dropout_rate: float = 0.0,
    rng: np.random.Generator | None = None,
):
    """Training forward through sparse hidden layers then the dense head.

    bufs holds what buffers() gave each layer.  Dropout at dropout_rate
    applies to every hidden output.  Returns (logits, caches); caches feed stack_backward with the
    same bufs.  Scoring goes through hidden_representation instead.
    """
    _check_pairs(layers, bufs)
    caches = []
    out = np.asarray(x, dtype=np.float64)
    for layer, buf in zip(layers, bufs):
        w = _weights(layer, buf)
        pre = _pre_activation(layer, out, w)
        act = get_activation(layer.activation).fn(pre)
        dropped, scale = dropout(act, dropout_rate, rng)
        caches.append({"x": out, "w": w, "pre": pre, "act": act, "scale": scale})
        out = dropped
    logits = out @ head.weights.T
    logits += head.bias
    caches.append({"x": out})
    return logits, caches


def stack_backward(layers: list[MaskedLayer], head: DenseLayer, caches, dlogits: np.ndarray, bufs: list, grads) -> None:
    """Exact gradients for stack_forward, given the bufs it filled, written
    into grads: Adam.grads of stack_params, in its order."""
    np.matmul(dlogits.T, caches[-1]["x"], out=grads[-2])
    dlogits.sum(axis=0, out=grads[-1])
    dx, w = dlogits, head.weights
    for k in reversed(range(len(layers))):
        layer, cache = layers[k], caches[k]
        # formed only for layer outputs, never for the network input
        dx = (dx @ w) * cache["scale"]
        dpre = dx * get_activation(layer.activation).grad(cache["pre"], cache["act"])
        _weight_gradient(layer, dpre, cache["x"], bufs[k], out=grads[2 * k])
        dpre.sum(axis=0, out=grads[2 * k + 1])
        dx, w = dpre, cache["w"]


def hidden_representation(layers: list[MaskedLayer], x: np.ndarray, bufs: list[Buffers | None]) -> np.ndarray:
    """Eval forward through the hidden stack only: no dropout, no caches, no head.

    bufs holds what buffers() gave each layer, as for stack_forward.  x is
    consumed: it is never written to, and no reference to it is kept once
    layer 0's product exists, so a caller that passes it as a temporary has
    it freed there.  Each activation runs in place on the pre-activation
    array just made, so it holds at most one layer's input and product, or
    one product and a sigmoid's scratch.
    """
    _check_pairs(layers, bufs)
    for layer, buf in zip(layers, bufs):
        x = _pre_activation(layer, x, _weights(layer, buf))
        get_activation(layer.activation).fn(x, out=x)
    return x


def _check_pairs(layers: list[MaskedLayer], bufs: list[Buffers | None]) -> None:
    if len(bufs) != len(layers):
        raise ValueError(f"need one buffer pair per layer: {len(bufs)} for {len(layers)}")
