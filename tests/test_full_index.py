"""A full layer stores no index: its positions are arange(H * V), which its shape gives."""

import base64
import copy
import gc
import tracemalloc

import numpy as np
import pytest

from test_builder import reseal
from trfnet import nn
from trfnet.baselines import DenseNetConfig, dense_network, hyper_from_config, prune_and_retrain
from trfnet.builder import TrfNetwork, clone, load, save
from trfnet.errors import ModelFormatError

CFG = DenseNetConfig(hidden_widths=(6, 5), epochs=1, seed=3)


def assert_full(net):
    for layer in net.layers:
        assert layer.index is None
        assert layer.values.size == layer.hidden_count * layer.visible_count


def bits(a) -> bytes:
    return np.asarray(a, dtype=np.float64).tobytes()


class TestFullLayersHoldNoIndex:
    def test_dense_network(self):
        assert_full(dense_network(8, CFG, 2))

    def test_load_of_a_dense_file(self, tmp_path):
        net = dense_network(8, CFG, 2)
        save(net, tmp_path / "m.trf")
        assert b"\nindex dense\n" in (tmp_path / "m.trf").read_bytes()
        loaded = load(tmp_path / "m.trf")
        assert_full(loaded)
        for a, b in zip(net.layers, loaded.layers):
            assert bits(a.values) == bits(b.values)

    def test_clone_copies_the_values(self):
        net = dense_network(8, CFG, 2)
        twin = clone(net)
        assert_full(twin)
        assert not np.shares_memory(net.layers[0].values, twin.layers[0].values)

    def test_prune_keeping_every_connection(self, blob_data):
        train, valid, _ = blob_data
        net = dense_network(train.n_features, CFG, 2)
        pruned, _ = prune_and_retrain(net, 1.0, train, hyper_from_config(CFG), valid)
        assert_full(pruned)

    def test_prune_takes_the_kept_positions_as_its_index(self, blob_data):
        train, valid, _ = blob_data
        net = dense_network(train.n_features, CFG, 2)
        pruned, _ = prune_and_retrain(net, 0.5, train, hyper_from_config(CFG), valid)
        for layer in pruned.layers:
            size = layer.hidden_count * layer.visible_count
            assert layer.index.dtype == np.int64
            assert layer.index.size == int(np.ceil(0.5 * size))
            np.testing.assert_array_equal(np.flatnonzero(layer.mask), layer.index)

    def test_dense_views(self):
        layer = dense_network(8, CFG, 2).layers[0]
        np.testing.assert_array_equal(layer.mask, 1.0)
        assert bits(layer.weights) == bits(layer.values.reshape(6, 8))


class TestConstruction:
    @pytest.mark.parametrize("dtype", [np.int64, np.int32])
    def test_a_callers_arange_index_becomes_none(self, dtype):
        layer = nn.MaskedLayer(np.arange(12, dtype=dtype), np.zeros(12), np.zeros(3), np.zeros(4))
        assert layer.index is None
        layer = nn.init_masked_layer(np.arange(12, dtype=dtype), (3, 4), np.random.default_rng(0))
        assert layer.index is None

    def test_a_full_size_index_that_is_not_arange_is_rejected(self, tmp_path):
        """The layer rejects it when it is made, and load rejects a file that holds it."""
        index = np.arange(12)[::-1].copy()
        with pytest.raises(ValueError, match=r"index must rise strictly inside \[0, 12\)"):
            nn.MaskedLayer(index, np.zeros(12), np.zeros(3), np.zeros(4))
        layer = nn.MaskedLayer(np.arange(11), np.zeros(11), np.zeros(3), np.zeros(4))
        head = nn.DenseLayer(np.zeros((2, 3)), np.zeros(2))
        save(TrfNetwork(layers=[layer], plans=[None], head=head), tmp_path / "m.trf")
        lines = (tmp_path / "m.trf").read_text().splitlines()
        i = next(i for i, ln in enumerate(lines) if ln.startswith("index "))
        lines[i] = "index " + base64.b64encode(index.astype("<i8").tobytes()).decode()
        lines[i + 1] = "values " + base64.b64encode(np.zeros(12).tobytes()).decode()
        (tmp_path / "m.trf").write_bytes(reseal(lines))
        with pytest.raises(ModelFormatError, match=r"layer 0: index must rise strictly inside \[0, 12\)"):
            load(tmp_path / "m.trf")

    def test_no_index_needs_every_value(self):
        with pytest.raises(ValueError, match="11 weights for 12 connections"):
            nn.MaskedLayer(None, np.zeros(11), np.zeros(3), np.zeros(4))

    @pytest.mark.parametrize("index", [np.array([0, 5, 7]), None], ids=["sparse", "full"])
    def test_deepcopy_copies_every_array(self, index):
        size = 12 if index is None else index.size
        layer = nn.MaskedLayer(index, np.arange(size, dtype=np.float64), np.ones(3), np.ones(4), "relu")
        twin = copy.deepcopy(layer)
        assert twin.activation == "relu"
        for name in ("index", "values", "bias_hidden", "bias_visible"):
            a, b = getattr(layer, name), getattr(twin, name)
            if a is None:
                assert b is None
                continue
            assert not np.shares_memory(a, b)
            np.testing.assert_array_equal(a, b)


class TestInit:
    def test_mutating_the_callers_sparse_index_leaves_the_layer_unchanged(self):
        index = np.array([0, 5, 7, 11])
        layer = nn.init_masked_layer(index, (3, 4), np.random.default_rng(0))
        assert not np.shares_memory(layer.index, index)
        index[:] = 0
        np.testing.assert_array_equal(layer.index, [0, 5, 7, 11])

    @pytest.mark.parametrize("h", [1, nn.INIT_ROW_BLOCK, 2 * nn.INIT_ROW_BLOCK + 5])
    def test_full_init_has_the_bits_of_one_draw(self, h):
        """The full path keeps every entry of the same uniform draw, times
        the same per-row limit, so it has the bits of one H x V draw."""
        v = 23
        rng = np.random.default_rng(4)
        layer = nn.init_masked_layer(None, (h, v), rng)
        ref = np.random.default_rng(4)
        expect = ref.uniform(-1.0, 1.0, size=(h, v)) * np.sqrt(6.0 / (np.full(h, v) + h))[:, None]
        assert layer.index is None
        assert bits(layer.values) == bits(expect.ravel())
        assert rng.random() == ref.random()

    def test_full_init_matches_the_sparse_path_on_the_rows_they_share(self):
        """A full layer and the same layer less one connection agree on every
        connection of the rows they share."""
        h, v = 70, 9
        full = nn.init_masked_layer(None, (h, v), np.random.default_rng(6))
        index = np.arange(1, h * v)  # row 0 loses column 0, so its fan-in differs
        sparse = nn.init_masked_layer(index, (h, v), np.random.default_rng(6))
        assert bits(full.values[v:]) == bits(sparse.values[v - 1 :])


def test_dense_network_and_its_reload_hold_no_index(tmp_path):
    """dense_network(2000 -> 256) plus load of its file, under tracemalloc.

    With W the bytes of one 256 x 2000 float64 array, the two networks hold
    their two value arrays and no index, 2.01 W measured; with one shared
    int64 index they held 3.01 W.  The peak is the first network (W) and the
    file's bytes and its lines (4/3 W each) while load decodes it line by
    line, 3.69 W measured (4.69 W with the shared index).  The values line is
    decoded in chunks straight into its array (W) while only the lines are
    held, 3.3 W in all.  2.2 W and 3.85 W are asserted here, within 0.2 W of
    the measurements.
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
    assert net.layers[0].index is None and loaded.layers[0].index is None
    assert held < 2.2 * w
    assert peak < 3.85 * w
