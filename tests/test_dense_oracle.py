"""Training on non-zeros only against the dense masked algorithm in oracles.py.

The two must agree bit for bit: the sparse code stores the connected weights
alone, the oracle keeps full H x V matrices and re-masks them after every
step, and both perform the same arithmetic on every connected position.
"""

import numpy as np
import pytest

from oracles import dense_finetune, dense_train_dae
from trfnet import nn
from trfnet.baselines import l1_gradients
from trfnet.builder import FinetuneHyper, TrfNetwork, attach_head, finetune
from trfnet.dae import CorruptionConfig, DaeHyper, train_dae
from trfnet.data import Dataset


def random_mask(h, v, seed, global_rows=2, full=False):
    """Random sparse rows, none empty, with the last rows all ones like global
    units; with full, every connection (the layer is copied, not scattered)."""
    if full:
        return np.ones((h, v), dtype=np.uint8)
    rng = np.random.default_rng(seed)
    a = (rng.random((h, v)) < 0.3).astype(np.uint8)
    a[np.arange(h), rng.integers(0, v, h)] = 1
    a[h - global_rows :] = 1
    return a


def assert_same_bits(layer, dense_w):
    """The layer's values are the oracle's connected weights, bit for bit,
    and the oracle holds zeros everywhere else."""
    flat = dense_w.ravel()
    assert layer.values.tobytes() == flat[layer.index].tobytes()
    outside = np.ones(flat.size, dtype=bool)
    outside[layer.index] = False
    assert not flat[outside].any()


@pytest.mark.parametrize(
    ("family", "full"),
    [(nn.BERNOULLI, False), (nn.GAUSSIAN, False), (nn.BERNOULLI, True), (nn.GAUSSIAN, True)],
    ids=["bernoulli", "gaussian", "bernoulli-full", "gaussian-full"],
)
def test_dae_matches_dense_masked_oracle(family, full):
    a = random_mask(9, 14, seed=1, full=full)
    rng = np.random.default_rng(2)
    if family == nn.BERNOULLI:
        values = (rng.random((40, 14)) < 0.4).astype(np.float64)
    else:
        values = rng.normal(size=(40, 14))
    # 5 epochs of 5 batches: 25 Adam steps
    layer, _ = train_dae(
        np.flatnonzero(a),
        a.shape,
        Dataset(values),
        CorruptionConfig("masking", 0.25),
        DaeHyper(epochs=5, batch_size=8, step_size=0.01, loss_family=family, seed=3),
    )
    w, bh, bv = dense_train_dae(
        a.astype(np.float64), values, 0.25, epochs=5, batch_size=8, step_size=0.01,
        seed=3, bernoulli=family == nn.BERNOULLI,
    )
    assert_same_bits(layer, w)
    assert layer.bias_hidden.tobytes() == bh.tobytes()
    assert layer.bias_visible.tobytes() == bv.tobytes()


def test_finetune_with_dropout_and_l1_matches_dense_masked_oracle():
    check_finetune_against_oracle(full=False)


def test_finetune_of_full_layers_matches_dense_masked_oracle():
    check_finetune_against_oracle(full=True)


def check_finetune_against_oracle(full):
    """Fine-tuning with dropout and L1 over two ReLU layers against dense_finetune."""
    rng = np.random.default_rng(4)
    masks = [random_mask(10, 12, seed=5, full=full), random_mask(6, 10, seed=6, full=full)]
    layers = [nn.init_masked_layer(np.flatnonzero(a), a.shape, rng, activation="relu") for a in masks]
    for layer in layers:
        layer.bias_hidden[:] = rng.normal(scale=0.1, size=layer.hidden_count)
    net = attach_head(TrfNetwork(layers=layers, plans=[None, None]), 3, seed=7)
    x = rng.normal(size=(60, 12))
    y = rng.integers(0, 3, size=60)
    train = Dataset(x[:45], labels=y[:45])
    valid = Dataset(x[45:], labels=y[45:])

    ws = [layer.weights.copy() for layer in layers]
    bhs = [layer.bias_hidden.copy() for layer in layers]
    head_w, head_b = net.head.weights.copy(), net.head.bias.copy()
    strength = 1e-3
    # 3 batches per epoch, 4 epochs; patience 4 never stops early
    hyper = FinetuneHyper(
        epochs=4, batch_size=16, step_size=0.01, dropout_rate=0.3, patience=4,
        activation="relu", seed=8,
    )
    finetune(net, train, valid, hyper, penalty_grads=lambda m, g: l1_gradients(m, g, strength))
    dense_finetune(
        [a.astype(np.float64) for a in masks], ws, bhs, head_w, head_b,
        (train.values, train.labels), (valid.values, valid.labels),
        epochs=4, batch_size=16, step_size=0.01, rate=0.3, seed=8, l1_strength=strength,
    )
    for layer, w, bh in zip(net.layers, ws, bhs):
        assert_same_bits(layer, w)
        assert layer.bias_hidden.tobytes() == bh.tobytes()
    assert net.head.weights.tobytes() == head_w.tobytes()
    assert net.head.bias.tobytes() == head_b.tobytes()
