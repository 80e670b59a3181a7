"""A count corpus held as its nonzeros gives the same bits as the same corpus held dense.

The loader keeps a bag-of-words corpus as row pointers, columns and counts;
a Dataset built from the dense array of the same numbers keeps that array.
Every result downstream -- binaries, trees, DAE logs, models, reports and
unit descriptions -- must not depend on which of the two it was given.
"""

import numpy as np
import pytest

from trfnet.baselines import DenseNetConfig, hyper_from_config, prune_and_retrain, train_dense, train_l1
from trfnet.builder import BuildConfig, FinetuneHyper, attach_head, build_trf_net, evaluate, finetune, report_to_text, save
from trfnet.dae import CorruptionConfig, DaeHyper
from trfnet.data import (
    Dataset, DiscretizationPolicy, Nonzeros, _column_medians, discretize, load_sparse_bow, save_sparse_bow, split,
)
from trfnet.interpret import describe_units
from trfnet.synth import news_corpus
from trfnet.tree import chow_liu


@pytest.fixture(scope="module")
def dense_and_loaded(tmp_path_factory):
    """The same corpus twice: from disk (nonzeros) and as a dense array."""
    tmp = tmp_path_factory.mktemp("corpus")
    corpus = news_corpus(n_docs=240, vocab_size=120, n_classes=3, block_size=8, confusion=0.05, seed=4)
    save_sparse_bow(corpus, tmp / "d.txt", tmp / "v.txt")
    loaded = load_sparse_bow(tmp / "d.txt", tmp / "v.txt")
    dense = Dataset(loaded.dense(), loaded.feature_names, loaded.labels)
    assert isinstance(loaded.values, Nonzeros) and isinstance(dense.values, np.ndarray)
    return dense, loaded


def model_bytes(net, path) -> bytes:
    save(net, path)
    return path.read_bytes()


POLICIES = {
    "fixed-0": DiscretizationPolicy.fixed(0.0),
    "fixed-1": DiscretizationPolicy.fixed(1.0),
    "fixed-below-0": DiscretizationPolicy.fixed(-0.5),
    "median": DiscretizationPolicy.median(),
}


@pytest.mark.parametrize("policy", POLICIES.values(), ids=POLICIES.keys())
def test_binaries_and_trees_agree(dense_and_loaded, policy):
    dense, loaded = dense_and_loaded
    a, b = discretize(dense, policy), discretize(loaded, policy)
    for x, y in zip(a.ones(), b.ones()):
        np.testing.assert_array_equal(x, y)
    assert chow_liu(a).edges == chow_liu(b).edges


def as_nonzeros(values: np.ndarray) -> Dataset:
    rows, cols = np.nonzero(values)
    indptr = np.searchsorted(rows, np.arange(values.shape[0] + 1))
    return Dataset(Nonzeros(values.shape, indptr, cols, values[rows, cols]))


def test_median_from_nonzeros_is_numpys_median():
    """Odd and even N, columns with no, some and only nonzeros, ties in the middle."""
    rng = np.random.default_rng(8)
    for n in (1, 2, 5, 6, 9):
        values = rng.integers(0, 4, size=(n, 7)) * (rng.random((n, 7)) < 0.6) * rng.choice([1.0, 0.3], size=(n, 7))
        values[:, 0] = 0.0
        values[:, 1] = rng.integers(1, 3, size=n)
        loaded = as_nonzeros(values)
        assert _column_medians(loaded.values).tobytes() == np.median(values, axis=0).tobytes()
        policy = DiscretizationPolicy.median()
        for x, y in zip(discretize(Dataset(values), policy).ones(), discretize(loaded, policy).ones()):
            np.testing.assert_array_equal(x, y)


@pytest.mark.parametrize("fill", ["sparse", "full", "ones", "empty"])
def test_bounds_and_binary_check_count_the_zeros_left_out(fill):
    rng = np.random.default_rng(9)
    values = {
        "sparse": rng.integers(0, 3, size=(5, 4)) * 2.5,
        "full": rng.integers(1, 3, size=(5, 4)) * 2.5,
        "ones": (rng.random((5, 4)) < 0.5) * 1.0,
        "empty": np.zeros((5, 4)),
    }[fill]
    dense, loaded = Dataset(values), as_nonzeros(values)
    assert dense.bounds() == loaded.bounds()
    assert dense.is_binary() == loaded.is_binary()


@pytest.mark.parametrize("policy", [POLICIES["fixed-0"], POLICIES["median"]], ids=["fixed-0", "median"])
def test_build_finetune_evaluate_agree(dense_and_loaded, policy, tmp_path):
    outputs = []
    for d in dense_and_loaded:
        train, valid, test = split(d, 0.6, 0.2, seed=1)
        cfg = BuildConfig(
            radius=2, stride=2, depth=2, global_fraction=0.1, policy=policy,
            dae=DaeHyper(epochs=2, batch_size=32, seed=3), corruption=CorruptionConfig("masking", 0.2, seed=3), seed=3,
        )
        net = build_trf_net(train, cfg)
        built = model_bytes(net, tmp_path / "built.trf")
        attach_head(net, 3)
        net, report = finetune(net, train, valid, FinetuneHyper(epochs=3, batch_size=32, patience=3, seed=5))
        outputs.append((
            net.training_logs, built, model_bytes(net, tmp_path / "tuned.trf"),
            report_to_text(report), report_to_text(evaluate(net, test)), describe_units(net, test, 5),
        ))
    assert outputs[0] == outputs[1]


def test_baselines_agree(dense_and_loaded, tmp_path):
    outputs = []
    for d in dense_and_loaded:
        train, valid, test = split(d, 0.6, 0.2, seed=2)
        cfg = DenseNetConfig(hidden_widths=(16,), epochs=3, batch_size=32, patience=3, seed=6)
        dense_net, dense_report = train_dense(train, cfg, valid)
        pruned, pruned_report = prune_and_retrain(dense_net, 0.2, train, hyper_from_config(cfg), valid)
        l1, l1_report = train_l1(train, cfg, 1e-3, valid)
        outputs.append([
            (model_bytes(net, tmp_path / "m.trf"), report_to_text(report), report_to_text(evaluate(net, test)))
            for net, report in ((dense_net, dense_report), (pruned, pruned_report), (l1, l1_report))
        ])
    assert outputs[0] == outputs[1]
