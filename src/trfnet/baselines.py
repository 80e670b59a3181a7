"""Comparison models: dense feedforward nets, magnitude pruning, L1 training.

All three reuse the builder's training loop and metric definitions, so their
reports are directly comparable with structure-learned networks.  Dense nets
are sparse layers that hold every connection; pruning keeps a subset of them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import nn
from .builder import (
    FinetuneHyper,
    TrfNetwork,
    attach_head,
    clone,
    finetune,
    n_classes,
)
from .data import Dataset

L1_DEAD_THRESHOLD = 1e-3


@dataclass(frozen=True)
class DenseNetConfig:
    hidden_widths: tuple[int, ...] = (64,)
    activation: str = "relu"
    dropout_rate: float = 0.5
    epochs: int = 100
    batch_size: int = 128
    step_size: float = 1e-3
    patience: int = 5
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "hidden_widths", tuple(int(w) for w in self.hidden_widths))
        if not self.hidden_widths or any(w < 1 for w in self.hidden_widths):
            raise ValueError(f"hidden_widths must all be >= 1, got {self.hidden_widths}")
        hyper_from_config(self)  # the training fields are checked as a FinetuneHyper's


def hyper_from_config(cfg: DenseNetConfig) -> FinetuneHyper:
    return FinetuneHyper(
        epochs=cfg.epochs,
        batch_size=cfg.batch_size,
        step_size=cfg.step_size,
        dropout_rate=cfg.dropout_rate,
        patience=cfg.patience,
        activation=cfg.activation,
        seed=cfg.seed,
    )


def dense_network(input_width: int, cfg: DenseNetConfig, classes: int, head_mode: str = "softmax") -> TrfNetwork:
    """An untrained fully connected network in sparse-layer form."""
    rng = np.random.default_rng(cfg.seed)
    layers = []
    widths = (input_width,) + cfg.hidden_widths
    for v, h in zip(widths[:-1], widths[1:]):
        layers.append(nn.init_masked_layer(np.arange(h * v), (h, v), rng, activation=cfg.activation))
    net = TrfNetwork(layers=layers, plans=[None] * len(layers))
    return attach_head(net, classes, mode=head_mode, seed=cfg.seed + 1)


def train_dense(train: Dataset, cfg: DenseNetConfig, valid: Dataset | None = None, head_mode: str = "softmax"):
    """Fully connected baseline trained like any other network here."""
    net = dense_network(train.n_features, cfg, n_classes(train), head_mode)
    return finetune(net, train, valid, hyper_from_config(cfg))


def prune_and_retrain(
    net: TrfNetwork,
    keep_fraction: float,
    train: Dataset,
    hyper: FinetuneHyper,
    valid: Dataset | None = None,
):
    """Keep the top ceil(keep_fraction * H * V) connections by magnitude per
    hidden layer (all of them if fewer), clear the plans, and retrain.

    Ties in |w| break toward the lower flat index.  The classifier head is
    left dense; sparsity is a hidden-layer metric throughout.  The input
    network is not modified.
    """
    check_keep_fraction(keep_fraction)
    pruned = clone(net)
    for layer in pruned.layers:
        k = int(np.ceil(keep_fraction * layer.hidden_count * layer.visible_count))
        kept = np.sort(magnitude_top_k(layer.values, k))
        layer.index, layer.values = layer.index[kept], layer.values[kept]
    pruned.plans = [None] * pruned.depth
    return finetune(pruned, train, valid, hyper)


def check_keep_fraction(keep_fraction: float) -> None:
    if not 0.0 < keep_fraction <= 1.0:
        raise ValueError(f"keep_fraction must be in (0, 1], got {keep_fraction}")


def magnitude_top_k(weights: np.ndarray, k: int) -> np.ndarray:
    """Flat indices of the k largest |w|, ties toward lower index."""
    return np.argsort(-np.abs(weights).ravel(), kind="stable")[:k]


def train_l1(
    train: Dataset,
    cfg: DenseNetConfig,
    strength: float,
    valid: Dataset | None = None,
    head_mode: str = "softmax",
):
    """Dense training with an L1 weight penalty added to every batch loss.

    The penalty covers hidden and head weights, never biases; its subgradient
    at exactly zero is taken as zero.  The report's effective_sparsity is the
    fraction of hidden weights with |w| >= 0.001 after training.
    """
    check_l1_strength(strength)
    net = dense_network(train.n_features, cfg, n_classes(train), head_mode)
    hook = None if strength == 0 else (lambda model: l1_gradients(model, strength))
    net, report = finetune(net, train, valid, hyper_from_config(cfg), penalty_grads=hook)
    alive = sum(int((np.abs(l.values) >= L1_DEAD_THRESHOLD).sum()) for l in net.layers)
    total = sum(l.hidden_count * l.visible_count for l in net.layers)
    report.effective_sparsity = alive / total
    return net, report


def check_l1_strength(strength: float) -> None:
    if not (math.isfinite(strength) and strength >= 0):
        raise ValueError(f"strength must be finite and >= 0, got {strength}")


def l1_penalty(net: TrfNetwork, strength: float) -> float:
    weight_sum = sum(float(np.abs(l.values).sum()) for l in net.layers)
    weight_sum += float(np.abs(net.head.weights).sum())
    return strength * weight_sum


def l1_gradients(net: TrfNetwork, strength: float) -> dict[str, np.ndarray]:
    """Subgradient of the L1 penalty; sign(0) = 0 leaves zeros untouched."""
    grads = {f"w{i}": strength * np.sign(l.values) for i, l in enumerate(net.layers)}
    grads["head_w"] = strength * np.sign(net.head.weights)
    return grads
