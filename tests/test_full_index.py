"""Full layers view one shared read-only index instead of each holding a copy."""

import copy
import gc
import tracemalloc
import weakref

import numpy as np
import pytest

from trfnet import nn
from trfnet.baselines import DenseNetConfig, dense_network, hyper_from_config, prune_and_retrain
from trfnet.builder import clone, load, save

CFG = DenseNetConfig(hidden_widths=(6, 5), epochs=1, seed=3)


def full_indexes(net) -> list[np.ndarray]:
    return [layer.index for layer in net.layers]


def views_full_index(index: np.ndarray) -> bool:
    return not index.flags.writeable and np.shares_memory(index, nn.full_index(index.size))


def assert_shared(a, b):
    for x, y in zip(full_indexes(a), full_indexes(b), strict=True):
        assert views_full_index(x) and views_full_index(y)
        assert np.shares_memory(x, y)
        np.testing.assert_array_equal(x, np.arange(x.size))


class TestSharedIndex:
    def test_two_dense_networks_share_their_indexes(self):
        assert_shared(dense_network(8, CFG, 2), dense_network(8, DenseNetConfig(hidden_widths=(6, 5), seed=9), 2))

    def test_loaded_dense_model_shares_its_index(self, tmp_path):
        net = dense_network(8, CFG, 2)
        save(net, tmp_path / "m.trf")
        assert_shared(net, load(tmp_path / "m.trf"))

    def test_clone_shares_its_index(self):
        net = dense_network(8, CFG, 2)
        copy = clone(net)
        assert_shared(net, copy)
        assert not np.shares_memory(net.layers[0].values, copy.layers[0].values)

    def test_prune_keeping_every_connection_shares_its_index(self, blob_data):
        train, valid, _ = blob_data
        net = dense_network(train.n_features, CFG, 2)
        pruned, _ = prune_and_retrain(net, 1.0, train, hyper_from_config(CFG), valid)
        assert_shared(net, pruned)

    def test_sizes_do_not_share(self):
        a, b = nn.full_index(12), nn.full_index(13)
        assert not np.shares_memory(a, b)
        np.testing.assert_array_equal(b, np.arange(13))

    def test_in_place_write_raises(self):
        layer = dense_network(8, CFG, 2).layers[0]
        with pytest.raises(ValueError, match="read-only"):
            layer.index[0] = 5
        with pytest.raises(ValueError):
            layer.index.flags.writeable = True

    def test_freed_with_the_last_layer_that_views_it(self):
        net = dense_network(13, DenseNetConfig(hidden_widths=(7,), seed=3), 2)  # a size no other test holds
        bases = [weakref.ref(index.base) for index in full_indexes(net)]
        del net
        gc.collect()
        assert all(base() is None for base in bases)


class TestInitCopiesCallerArrays:
    @pytest.mark.parametrize("index", [np.array([0, 5, 7, 11]), np.arange(12)], ids=["sparse", "full"])
    def test_mutating_the_callers_index_leaves_the_layer_unchanged(self, index):
        layer = nn.init_masked_layer(index, (3, 4), np.random.default_rng(0))
        before = layer.index.copy()
        assert not np.shares_memory(layer.index, index)
        index[:] = 0
        np.testing.assert_array_equal(layer.index, before)

    def test_full_index_from_the_caller_becomes_the_shared_view(self):
        layer = nn.init_masked_layer(np.arange(12, dtype=np.int32), (3, 4), np.random.default_rng(0))
        assert views_full_index(layer.index)
        assert layer.index.dtype == np.int64


class TestMaskedLayerConstruction:
    def test_an_arange_index_becomes_the_shared_view(self):
        index = np.arange(12)
        layer = nn.MaskedLayer(index, np.zeros(12), np.zeros(3), np.zeros(4))
        assert views_full_index(layer.index)
        assert not np.shares_memory(layer.index, index)

    def test_a_full_size_index_that_is_not_arange_is_kept(self):
        index = np.arange(12)[::-1].copy()
        layer = nn.MaskedLayer(index, np.zeros(12), np.zeros(3), np.zeros(4))
        assert layer.index is index

    def test_deepcopy_keeps_the_view_and_copies_the_rest(self):
        layer = nn.MaskedLayer(np.arange(12), np.zeros(12), np.zeros(3), np.zeros(4), "relu")
        twin = copy.deepcopy(layer)
        assert twin.index is layer.index
        assert twin.activation == "relu"
        for name in ("values", "bias_hidden", "bias_visible"):
            assert not np.shares_memory(getattr(twin, name), getattr(layer, name))

    def test_deepcopy_of_a_sparse_layer_copies_its_index(self):
        layer = nn.MaskedLayer(np.array([0, 5, 7]), np.zeros(3), np.zeros(3), np.zeros(4))
        twin = copy.deepcopy(layer)
        assert not np.shares_memory(twin.index, layer.index)
        np.testing.assert_array_equal(twin.index, layer.index)


def test_dense_network_and_its_reload_hold_one_index(tmp_path):
    """dense_network(2000 -> 256) plus load of its file, under tracemalloc.

    With W the bytes of one 256 x 2000 float64 array, the two networks hold
    their two value arrays and one shared index, about 3 W; with an index
    each they would hold 4 W.  The peak is the first network (2 W) and the
    file's bytes and its lines (4/3 W each) while load decodes it line by
    line, 4.69 W measured; decoding the whole text before splitting it held
    a third 4/3 W copy, 6.03 W.  The values line is decoded in chunks
    straight into its array (W) while only the lines are held, 4.3 W in
    all; slicing that line and decoding it whole peaked at 7.01 W.  4.9 W is
    asserted here, 0.2 W above the measurement.
    """
    w = 256 * 2000 * 8
    cfg = DenseNetConfig(hidden_widths=(256,), seed=3)
    save(dense_network(2000, cfg, 2), tmp_path / "dense.trf")
    gc.collect()
    tracemalloc.start()
    try:
        net = dense_network(2000, cfg, 2)
        loaded = load(tmp_path / "dense.trf")
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.shares_memory(net.layers[0].index, loaded.layers[0].index)
    assert held < 3.5 * w
    assert peak < 4.9 * w
