"""Library code computes from the stored form of a sparse layer only.

A layer is index plus values.  MaskedLayer.weights and .mask are dense views
kept for tests and the benchmark; every library path must run with both
made unreadable.
"""

import numpy as np
import pytest

from trfnet import nn
from trfnet.baselines import DenseNetConfig, prune_and_retrain, train_dense, train_l1
from trfnet.builder import (
    BuildConfig,
    FinetuneHyper,
    attach_head,
    build_trf_net,
    evaluate,
    finetune,
    load,
    save,
)
from trfnet.dae import CorruptionConfig, DaeHyper
from trfnet.data import DiscretizationPolicy, split
from trfnet.interpret import EmbeddingTable, interpretability_score
from trfnet.synth import news_corpus


@pytest.fixture
def no_dense_views(monkeypatch):
    def refuse(layer):
        raise AssertionError("library code read a dense view of a sparse layer")

    monkeypatch.setattr(nn.MaskedLayer, "weights", property(refuse))
    monkeypatch.setattr(nn.MaskedLayer, "mask", property(refuse))


def test_no_library_path_reads_the_dense_views(no_dense_views, tmp_path):
    d = news_corpus(n_docs=160, vocab_size=96, n_classes=3, block_size=8, seed=4)
    train, valid, test = split(d, 0.6, 0.2, seed=0)
    cfg = BuildConfig(
        radius=2,
        stride=2,
        depth=2,
        policy=DiscretizationPolicy.fixed(0.0),
        dae=DaeHyper(epochs=2, batch_size=32),
        corruption=CorruptionConfig("masking", 0.2),
    )
    net = build_trf_net(train, cfg)
    attach_head(net, 3)
    hyper = FinetuneHyper(epochs=2, batch_size=32, seed=1)
    net, _ = finetune(net, train, valid, hyper)
    evaluate(net, test)
    assert net.mask_violation() == 0.0
    rng = np.random.default_rng(2)
    emb = EmbeddingTable(4, {name: rng.normal(size=4) for name in d.feature_names})
    interpretability_score(net, test, emb, 4)
    save(net, tmp_path / "net.trf")
    evaluate(load(tmp_path / "net.trf"), test)

    dense_cfg = DenseNetConfig(hidden_widths=(12,), epochs=2, batch_size=32)
    dense, _ = train_dense(train, dense_cfg, valid)
    prune_and_retrain(dense, 0.3, train, hyper, valid)
    train_l1(train, dense_cfg, 1e-4, valid)
