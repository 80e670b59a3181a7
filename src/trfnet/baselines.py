"""Comparison models: dense feedforward nets, magnitude pruning, L1 training.

All three reuse the builder's training loop and metric definitions, so their
reports are directly comparable with structure-learned networks.  Dense nets
are sparse layers that hold every connection, so they store no index (see
nn.MaskedLayer); pruning keeps a subset of them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

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
from .errors import check_integers

L1_DEAD_THRESHOLD = 1e-3


@dataclass(frozen=True)
class DenseNetConfig:
    hidden_widths: tuple[int, ...] = (64,)
    dropout_rate: float = 0.5
    epochs: int = 100
    batch_size: int = 128
    step_size: float = 1e-3
    patience: int = 5
    seed: int = 0

    def __post_init__(self):
        check_integers(hidden_widths=tuple(self.hidden_widths))
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
        seed=cfg.seed,
    )


def dense_network(input_width: int, cfg: DenseNetConfig, classes: int) -> TrfNetwork:
    """An untrained fully connected network in sparse-layer form: full layers, with no index."""
    rng = np.random.default_rng(cfg.seed)
    layers = []
    widths = (input_width,) + cfg.hidden_widths
    for v, h in zip(widths[:-1], widths[1:]):
        layers.append(nn.init_masked_layer(None, (h, v), rng, activation=FinetuneHyper.activation))
    net = TrfNetwork(layers=layers, plans=[None] * len(layers))
    return attach_head(net, classes, seed=cfg.seed + 1)


def train_dense(train: Dataset, cfg: DenseNetConfig, valid: Dataset | None = None):
    """Fully connected baseline with a softmax head, trained like any other network here."""
    net = dense_network(train.n_features, cfg, n_classes(train))
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
    network is not modified.  A layer that keeps every connection is left
    as it is, so a full one stays full, with no index; a pruned layer is a
    new one, and a full layer pruned takes the kept positions themselves as
    its index.
    """
    check_keep_fraction(keep_fraction)
    pruned = clone(net)
    # a new list, so no cloned layer that a pruned one replaces lives on through the retraining
    pruned.layers = [_keep_top(layer, keep_fraction) for layer in pruned.layers]
    pruned.plans = [None] * pruned.depth
    return finetune(pruned, train, valid, hyper)


def _keep_top(layer: nn.MaskedLayer, keep_fraction: float) -> nn.MaskedLayer:
    """A new layer of layer's top ceil(keep_fraction * H * V) connections by magnitude, or layer if it holds no more."""
    k = int(np.ceil(keep_fraction * layer.hidden_count * layer.visible_count))
    if k >= layer.values.size:
        return layer
    kept = magnitude_top_k(layer.values, k)
    return replace(layer, index=kept if layer.index is None else layer.index[kept], values=layer.values[kept])


def check_keep_fraction(keep_fraction: float) -> None:
    if not 0.0 < keep_fraction <= 1.0:
        raise ValueError(f"keep_fraction must be in (0, 1], got {keep_fraction}")


def magnitude_top_k(weights: np.ndarray, k: int) -> np.ndarray:
    """Flat indices of the k largest |w| (all if fewer) in rising order, ties toward lower index.

    A partition finds the k-th largest magnitude; every entry above it is
    kept, and the lowest-index entries at it fill the rest.  A nan ranks
    below every number, as in a stable sort of -|w|.
    """
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    key = -np.abs(np.asarray(weights, dtype=np.float64)).ravel()
    if k >= key.size:
        return np.arange(key.size)
    np.copyto(key, np.inf, where=np.isnan(key))  # -|w| <= 0 < inf, so a nan sorts last
    kth = np.partition(key, k - 1)[k - 1] if k else -np.inf
    kept = key < kth
    ties = np.flatnonzero(key == kth)
    kept[ties[: k - np.count_nonzero(kept)]] = True
    return np.flatnonzero(kept)


def train_l1(train: Dataset, cfg: DenseNetConfig, strength: float, valid: Dataset | None = None):
    """Dense training with the L1 penalty strength * sum |w| added to every batch loss.

    The penalty covers hidden and head weights, never biases; l1_gradients
    adds its subgradient into each step's gradients as finetune's
    penalty_grads hook.  The report's effective_sparsity is the fraction of
    hidden weights with |w| >= 0.001 after training.
    """
    check_l1_strength(strength)
    net = dense_network(train.n_features, cfg, n_classes(train))
    hook = None if strength == 0 else (lambda weights, grads: l1_gradients(weights, grads, strength))
    net, report = finetune(net, train, valid, hyper_from_config(cfg), penalty_grads=hook)
    alive = sum(int((np.abs(l.values) >= L1_DEAD_THRESHOLD).sum()) for l in net.layers)
    total = sum(l.hidden_count * l.visible_count for l in net.layers)
    return net, replace(report, effective_sparsity=alive / total)


def check_l1_strength(strength: float) -> None:
    if not (math.isfinite(strength) and strength >= 0):
        raise ValueError(f"strength must be finite and >= 0, got {strength}")


def l1_gradients(weights: list[np.ndarray], grads: list[np.ndarray], strength: float) -> None:
    """Add strength * sign(w), the subgradient of strength * sum |w|, into each gradient in place.

    sign(0) = 0, and a nan weight makes its gradient nan.  The term is made nn.ADAM_BLOCK
    elements at a time, never whole, with the bits of adding it whole.
    """
    for w, g in zip(weights, grads):
        w, g = w.reshape(-1), g.reshape(-1)
        for lo in range(0, w.size, nn.ADAM_BLOCK):
            term = np.sign(w[lo : lo + nn.ADAM_BLOCK])
            term *= strength
            g[lo : lo + nn.ADAM_BLOCK] += term
