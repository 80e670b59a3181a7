import gc
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import central_diff_grads, l1_penalty, max_relative_error
from trfnet import nn
from trfnet.baselines import (
    DenseNetConfig,
    dense_network,
    hyper_from_config,
    l1_gradients,
    magnitude_top_k,
    prune_and_retrain,
    train_dense,
    train_l1,
)
from trfnet.builder import (
    BuildConfig,
    FinetuneHyper,
    attach_head,
    build_trf_net,
    clone,
    evaluate,
    finetune,
    load,
    report_to_text,
    save,
)
from trfnet.dae import DaeHyper
from trfnet.data import Dataset, DiscretizationPolicy
from trfnet.nn import MaskedLayer


def blob_config(**kw):
    base = dict(
        hidden_widths=(16,),
        dropout_rate=0.2,
        epochs=80,
        batch_size=32,
        step_size=5e-3,
        patience=15,
        seed=3,
    )
    base.update(kw)
    return DenseNetConfig(**base)


class TestDenseNetConfig:
    def test_is_a_finetune_hyper_with_its_defaults(self):
        cfg = DenseNetConfig()
        assert isinstance(cfg, FinetuneHyper)
        assert hyper_from_config(cfg) == FinetuneHyper()
        assert hyper_from_config(blob_config()) == FinetuneHyper(
            epochs=80, batch_size=32, step_size=5e-3, dropout_rate=0.2, patience=15, seed=3
        )

    @pytest.mark.parametrize("field", ["activation", "reinit"])
    def test_activation_and_reinit_cannot_be_set(self, field):
        with pytest.raises(TypeError, match=field):
            DenseNetConfig(**{field: "sigmoid" if field == "activation" else True})

    def test_checks_its_fine_tuning_fields_as_a_finetune_hyper_does(self):
        with pytest.raises(ValueError, match="dropout_rate"):
            DenseNetConfig(dropout_rate=1.0)
        with pytest.raises(ValueError, match="step_size"):
            DenseNetConfig(step_size=0.0)


class TestTrainDense:
    def test_blobs_reach_high_accuracy(self, blob_data):
        train, valid, test = blob_data
        net, _ = train_dense(train, blob_config(), valid)
        assert evaluate(net, test).accuracy >= 0.99

    def test_sparsity_is_one(self, blob_data):
        train, valid, _ = blob_data
        _, report = train_dense(train, blob_config(), valid)
        assert report.sparsity == 1.0

    def test_seeded_rerun_identical(self, tmp_path, blob_data):
        train, valid, _ = blob_data
        net1, _ = train_dense(train, blob_config(), valid)
        net2, _ = train_dense(train, blob_config(), valid)
        save(net1, tmp_path / "a.trf")
        save(net2, tmp_path / "b.trf")
        assert (tmp_path / "a.trf").read_bytes() == (tmp_path / "b.trf").read_bytes()


class TestFinetuneMemory:
    @pytest.mark.parametrize("kind", ["dense", "l1"])
    def test_peak_at_256_by_2000(self, kind):
        """tracemalloc peak of 8 epochs of a 2000 -> 256 network on 256 rows, in W,
        the bytes of one 256 x 2000 float64 array.

        The values, Adam's two moments and gradients, and one best-state copy
        make 5 W of it.  6.04 W was measured for both, with every step
        writing into Adam's gradients and the L1 penalty added in place.  A
        fresh gradient list per step and a fresh whole-layer L1 term read
        6.04 W (dense) and 6.15 W (L1), with the same bits.
        """
        w = 256 * 2000 * 8
        rng = np.random.default_rng(0)
        x = (rng.random((256, 2000)) < 0.05) * rng.poisson(2.0, (256, 2000)).astype(np.float64)
        train = Dataset(x, labels=rng.integers(0, 2, 256))
        cfg = DenseNetConfig(hidden_widths=(256,), epochs=8, seed=3)
        gc.collect()
        tracemalloc.start()
        try:
            if kind == "dense":
                train_dense(train, cfg)
            else:
                train_l1(train, cfg, 1e-5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 6.5 * w

    def test_prune_frees_the_cloned_full_layer_before_retraining(self):
        """tracemalloc peak of a keep-0.1 prune and 8 epochs of retraining of
        a trained 2000 -> 256 network, above the network, in W.

        3.70 W was measured: the pruned layer's buffer pair (2 W), its batch
        and, in the backward, Adam's gradients (0.1 W) and the int64 copy of
        one nn.ADAM_BLOCK slice of the read-only index that np.take makes
        (0.06 W).  One np.take over the whole index copied all of it (0.1 W)
        and read 3.74 W.  A pruned layer is a new one, so the clone's full
        layer must be dropped before retraining: a loop variable that kept it
        alive through the retraining read 4.64 W.
        """
        w = 256 * 2000 * 8
        rng = np.random.default_rng(0)
        x = (rng.random((256, 2000)) < 0.05) * rng.poisson(2.0, (256, 2000)).astype(np.float64)
        train = Dataset(x, labels=rng.integers(0, 2, 256))
        cfg = DenseNetConfig(hidden_widths=(256,), epochs=8, seed=3)
        net, _ = train_dense(train, cfg)
        gc.collect()
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            prune_and_retrain(net, 0.1, train, hyper_from_config(cfg))
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak < 3.8 * w


class TestPrune:
    def test_keeps_exactly_the_largest_weights(self, blob_data):
        train, valid, _ = blob_data
        net, _ = train_dense(train, blob_config(hidden_widths=(10,)), valid)
        # layer is 10 x 8 = 80 weights; keep_fraction 0.1 keeps ceil(8) = 8, 0.2 keeps 16
        before = net.layers[0].weights.copy()
        order = sorted(range(80), key=lambda i: (-abs(before.ravel()[i]), i))
        for keep, k in ((0.1, 8), (0.2, 16)):
            pruned, _ = prune_and_retrain(net, keep, train, hyper_from_config(blob_config()), valid)
            kept = np.flatnonzero(pruned.layers[0].mask.ravel())
            expected = np.sort(magnitude_top_k(before, k))
            np.testing.assert_array_equal(kept, expected)
            # retraining moved the kept weights and only those: the pruned ones stay zero
            np.testing.assert_array_equal(np.flatnonzero(pruned.layers[0].weights), expected)
            # sort oracle: kept entries are precisely the k largest by |w|
            np.testing.assert_array_equal(expected, np.sort(order[:k]))

    def test_keep_everything_changes_nothing_about_the_mask(self, blob_data):
        train, valid, _ = blob_data
        net, _ = train_dense(train, blob_config(), valid)
        pruned, _ = prune_and_retrain(net, 1.0, train, hyper_from_config(blob_config()), valid)
        np.testing.assert_array_equal(pruned.layers[0].mask, 1.0)
        # identity pruning plus retraining equals retraining the unpruned net
        twin, _ = prune_and_retrain(net, 1.0, train, hyper_from_config(blob_config()), valid)
        np.testing.assert_array_equal(pruned.layers[0].weights, twin.layers[0].weights)

    def test_pruned_entries_stay_zero_through_retraining(self, blob_data):
        train, valid, _ = blob_data
        net, _ = train_dense(train, blob_config(), valid)
        pruned, _ = prune_and_retrain(net, 0.2, train, hyper_from_config(blob_config()), valid)
        assert pruned.mask_violation() == 0.0
        for layer in pruned.layers:
            # every weight off the mask is exactly zero after retraining
            assert not np.any(layer.weights[layer.mask == 0])

    def test_input_network_untouched(self, blob_data):
        train, valid, _ = blob_data
        net, _ = train_dense(train, blob_config(), valid)
        before = net.layers[0].weights.copy()
        prune_and_retrain(net, 0.1, train, hyper_from_config(blob_config()), valid)
        np.testing.assert_array_equal(net.layers[0].weights, before)
        np.testing.assert_array_equal(net.layers[0].mask, 1.0)

    def test_sparsity_close_to_keep_fraction(self, blob_data):
        train, valid, _ = blob_data
        net, _ = train_dense(train, blob_config(), valid)
        _, report = prune_and_retrain(net, 0.25, train, hyper_from_config(blob_config()), valid)
        assert report.sparsity == pytest.approx(0.25, abs=1 / net.layers[0].mask.size)

    def test_pruned_trf_network_saves_without_stale_plans(self, tmp_path, small_corpus):
        cfg = BuildConfig(
            radius=2, stride=2, depth=2, policy=DiscretizationPolicy.fixed(0.0),
            dae=DaeHyper(epochs=1, batch_size=64), seed=0,
        )
        net = attach_head(build_trf_net(small_corpus, cfg), 3)
        before = [layer.weights.copy() for layer in net.layers]
        pruned, _ = prune_and_retrain(net, 0.1, small_corpus, FinetuneHyper(epochs=2, seed=0))
        save(pruned, tmp_path / "pruned.trf")
        back = load(tmp_path / "pruned.trf")
        assert back.plans == [None, None]
        assert back.mask_violation() == 0.0
        for weights, layer in zip(before, back.layers):
            k = int(np.ceil(0.1 * weights.size))
            # sort oracle over the dense weights, unconnected zeros included
            order = sorted(range(weights.size), key=lambda i: (-abs(weights.ravel()[i]), i))
            np.testing.assert_array_equal(layer.index, np.sort(order[:k]))

    def test_retrains_like_a_pruned_clone_built_by_hand(self, tmp_path, blob_data):
        """Retraining sees the kept connections only: nothing left from the
        dense training run, such as its dense weights, carries over."""
        train, valid, _ = blob_data
        hyper = hyper_from_config(blob_config(epochs=5))
        net, _ = train_dense(train, blob_config(epochs=5), valid)
        pruned, report = prune_and_retrain(net, 0.3, train, hyper, valid)
        by_hand = clone(net)
        layers = []
        for layer in by_hand.layers:
            assert layer.index is None  # a full layer: its positions are arange(H * V)
            k = int(np.ceil(0.3 * layer.hidden_count * layer.visible_count))
            kept = np.sort(magnitude_top_k(layer.values, k))
            positions = np.arange(layer.hidden_count * layer.visible_count)
            layers.append(
                MaskedLayer(
                    positions[kept], layer.values[kept], layer.bias_hidden, layer.bias_visible, layer.activation
                )
            )
        by_hand.layers, by_hand.plans = layers, [None] * len(layers)
        _, hand_report = finetune(by_hand, train, valid, hyper)
        save(pruned, tmp_path / "pruned.trf")
        save(by_hand, tmp_path / "by_hand.trf")
        assert (tmp_path / "pruned.trf").read_bytes() == (tmp_path / "by_hand.trf").read_bytes()
        assert report_to_text(report) == report_to_text(hand_report)

    def test_bad_fraction(self, blob_data):
        train, valid, _ = blob_data
        net, _ = train_dense(train, blob_config(), valid)
        with pytest.raises(ValueError):
            prune_and_retrain(net, 0.0, train, hyper_from_config(blob_config()), valid)


# magnitudes that tie often: zeros of both signs and each value with its negation
TIE_HEAVY = st.lists(
    st.sampled_from([0.0, -0.0, 0.5, -0.5, 1.0, -1.0, 2.0, -2.0, 1e-300, -1e-300]), min_size=1, max_size=60
)


class TestMagnitudeTopK:
    @settings(max_examples=300, deadline=None)
    @given(values=TIE_HEAVY, data=st.data())
    def test_kept_set_is_the_sort_oracles_in_index_order(self, values, data):
        weights = np.array(values)
        k = data.draw(st.integers(0, weights.size + 2))
        order = sorted(range(weights.size), key=lambda i: (-abs(weights[i]), i))
        np.testing.assert_array_equal(magnitude_top_k(weights, k), sorted(order[:k]))

    def test_nan_ranks_below_every_number(self):
        weights = np.array([np.nan, 0.0, -np.inf, np.nan, 1.0, -0.0])
        for k, expected in enumerate([[], [2], [2, 4], [1, 2, 4], [1, 2, 4, 5], [0, 1, 2, 4, 5]]):
            np.testing.assert_array_equal(magnitude_top_k(weights, k), expected)

    def test_two_dimensional_weights_give_flat_indices(self):
        weights = np.array([[0.1, -3.0], [3.0, 0.2]])
        np.testing.assert_array_equal(magnitude_top_k(weights, 3), [1, 2, 3])

    def test_negative_k_rejected(self):
        with pytest.raises(ValueError, match="k must be"):
            magnitude_top_k(np.ones(3), -1)


class TestL1:
    def test_strength_zero_matches_dense_training_exactly(self, blob_data):
        train, valid, _ = blob_data
        dense, _ = train_dense(train, blob_config(), valid)
        l1net, _ = train_l1(train, blob_config(), 0.0, valid)
        np.testing.assert_array_equal(dense.layers[0].weights, l1net.layers[0].weights)
        np.testing.assert_array_equal(dense.head.weights, l1net.head.weights)

    def test_penalty_subgradient_matches_finite_differences(self):
        rng = np.random.default_rng(7)
        net = dense_network(6, DenseNetConfig(hidden_widths=(4,), seed=7), classes=3)
        net.layers[0].values[:] = rng.normal(size=24)  # all 4 x 6 connections
        net.head.weights[:] = rng.normal(size=(3, 4))
        strength = 0.37
        weights = nn.stack_params(net.layers, net.head)[::2]
        assert weights[0] is net.layers[0].values and weights[1] is net.head.weights
        analytic = [np.zeros_like(w) for w in weights]
        l1_gradients(weights, analytic, strength)
        numeric = central_diff_grads(
            lambda: l1_penalty(weights, strength),
            {"w0": net.layers[0].values, "head_w": net.head.weights},
        )
        assert max_relative_error(analytic[0], numeric["w0"]) <= 1e-4
        assert max_relative_error(analytic[1], numeric["head_w"]) <= 1e-4

    def test_penalty_is_added_in_place_with_the_whole_terms_bits(self):
        """Across block boundaries, at zero and nan weights, and on -0.0 gradients."""
        rng = np.random.default_rng(11)
        weights = [rng.normal(size=2 * nn.ADAM_BLOCK + 7), rng.normal(size=(3, 5))]
        weights[0][[0, 1, nn.ADAM_BLOCK, -1]] = [0.0, -0.0, 0.0, np.nan]
        grads = [rng.normal(size=w.shape) for w in weights]
        grads[0][[0, 1, nn.ADAM_BLOCK]] = -0.0
        want = [g + 0.37 * np.sign(w) for w, g in zip(weights, grads)]
        l1_gradients(weights, grads, 0.37)
        assert [g.tobytes() for g in grads] == [g.tobytes() for g in want]
        assert np.isnan(grads[0][-1])

    def test_effective_sparsity_non_increasing_in_strength(self, blob_data):
        train, valid, _ = blob_data
        sparsities = []
        for strength in (0.0, 1e-4, 1e-2):
            _, report = train_l1(train, blob_config(epochs=30), strength, valid)
            sparsities.append(report.effective_sparsity)
        assert sparsities[0] >= sparsities[1] >= sparsities[2]

    def test_negative_strength_rejected(self, blob_data):
        train, valid, _ = blob_data
        with pytest.raises(ValueError):
            train_l1(train, blob_config(), -1.0, valid)
