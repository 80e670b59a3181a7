"""Denoising-autoencoder training of one sparse layer, and data projection.

Training minimizes the reconstruction loss of clean inputs from corrupted
copies (clean -> corrupt -> encode -> decode) with minibatch Adam.  A trained
layer projects data two ways: real-valued activation probabilities for the
next layer's weight training, and a 0.5-thresholded binary view for the next
layer's structure learning.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import nn
from .data import BinaryDataset, Dataset, DiscretizationPolicy, discretize
from .errors import DomainError

MASKING = "masking"
GAUSSIAN_ADDITIVE = "gaussian-additive"


@dataclass(frozen=True)
class CorruptionConfig:
    """Input corruption: zero-masking with probability rate, or additive
    Gaussian noise with standard deviation rate."""

    kind: str = MASKING
    rate: float = 0.2
    seed: int = 0

    def __post_init__(self):
        if self.kind == MASKING:
            if not 0.0 <= self.rate <= 1.0:
                raise ValueError(f"masking rate must be in [0, 1], got {self.rate}")
        elif self.kind == GAUSSIAN_ADDITIVE:
            if not (math.isfinite(self.rate) and self.rate >= 0.0):
                raise ValueError(f"noise std must be finite and >= 0, got {self.rate}")
        else:
            raise ValueError(f"unknown corruption kind {self.kind!r}")


@dataclass(frozen=True)
class DaeHyper:
    epochs: int = 30
    batch_size: int = 128
    step_size: float = 1e-3
    loss_family: str = "auto"
    seed: int = 0

    def __post_init__(self):
        if self.epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {self.epochs}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if not (math.isfinite(self.step_size) and self.step_size > 0):
            raise ValueError(f"step_size must be finite and > 0, got {self.step_size}")
        if self.loss_family not in ("auto",) + nn.FAMILIES:
            raise ValueError(f"loss_family must be auto, {' or '.join(nn.FAMILIES)}, got {self.loss_family!r}")


def corrupt(x: np.ndarray, c: CorruptionConfig, rng: np.random.Generator) -> np.ndarray:
    """Draw one corrupted copy of a batch from rng."""
    x = np.asarray(x, dtype=np.float64)
    if c.kind == MASKING:
        return x * (rng.random(x.shape) >= c.rate)
    return x + rng.normal(0.0, c.rate, size=x.shape)


def resolve_family(values: np.ndarray, requested: str) -> str:
    """'auto' picks bernoulli for values inside [0, 1], gaussian otherwise.

    Only the smallest and largest value count, so an array of a dataset's
    bounds serves as well as its values.
    """
    if requested != "auto":
        return requested
    lo, hi = float(values.min()), float(values.max())
    return nn.BERNOULLI if 0.0 <= lo and hi <= 1.0 else nn.GAUSSIAN


def train_dae(
    index: np.ndarray, shape: tuple[int, int], d: Dataset, c: CorruptionConfig, h: DaeHyper
) -> tuple[nn.MaskedLayer, list[float]]:
    """Train one sparse layer as a denoising autoencoder on d's rows.

    The layer is H x V, shape = (H, V), with its connections at index: sorted
    flat row-major positions, as nn.init_masked_layer takes them.  All
    randomness (init, epoch shuffles, corruption draws) comes from a
    single generator seeded with h.seed, so runs are exactly repeatable.
    One pair of dense buffers serves every step, and each batch is made
    dense from d.rows alone.  Returns the layer and its
    training log: the sample-weighted mean batch loss per epoch.
    """
    if shape[1] != d.n_features:
        raise ValueError(f"layer width {shape[1]} != data width {d.n_features}")
    lo, hi = d.bounds()
    family = resolve_family(np.array([lo, hi]), h.loss_family)
    if family == nn.BERNOULLI and (lo < 0 or hi > 1):
        raise DomainError("bernoulli family needs data in [0, 1]")
    rng = np.random.default_rng(h.seed)
    layer = nn.init_masked_layer(index, shape, rng, activation="sigmoid")
    buf = nn.buffers(layer)
    adam = nn.Adam([layer.values, layer.bias_hidden, layer.bias_visible], h.step_size)
    n = d.n_samples
    log = []
    for _ in range(h.epochs):
        order = rng.permutation(n)
        total = 0.0
        for start in range(0, n, h.batch_size):
            batch = d.rows(order[start : start + h.batch_size])
            x_tilde = corrupt(batch, c, rng)
            loss, grads = nn.dae_gradients(layer, batch, x_tilde, family, buf)
            adam.step(grads)
            total += loss * batch.shape[0]
        log.append(total / n)
    return layer, log


def project(layer: nn.MaskedLayer, d: Dataset) -> tuple[Dataset, BinaryDataset]:
    """Map data through a trained encoder.

    Returns (probabilities, binary): sigmoid activations as a real dataset of
    width H, and their strict > 0.5 threshold for structure learning.  Labels
    ride along; feature names do not (hidden units are anonymous).
    """
    if d.n_features != layer.visible_count:
        raise ValueError(f"data width {d.n_features} != layer width {layer.visible_count}")
    acts = nn.hidden_representation([layer], d.dense(), [nn.buffers(layer)])
    probs = Dataset(acts, feature_names=None, labels=d.labels)
    return probs, discretize(probs, DiscretizationPolicy.fixed(0.5))
