import base64
import hashlib
import re
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import markov_chain, seed_with_first_center
from oracles import average_ranks_reference
from trfnet import nn
from trfnet.builder import (
    BuildConfig,
    EvalReport,
    FinetuneHyper,
    TrfNetwork,
    _average_ranks,
    attach_head,
    binary_auc,
    build_trf_net,
    clone,
    evaluate,
    finetune,
    load,
    load_report,
    report_to_text,
    save,
    save_report,
)
from trfnet.dae import CorruptionConfig, DaeHyper
from trfnet.data import Dataset, DiscretizationPolicy
from trfnet.errors import EmptyStructureError, ModelFormatError
from trfnet.receptive_field import ReceptiveFieldPlan


def quick_config(**kw):
    base = dict(
        radius=2,
        stride=2,
        depth=1,
        global_fraction=0.1,
        policy=DiscretizationPolicy.fixed(0.0),
        dae=DaeHyper(epochs=3, batch_size=64, seed=0),
        corruption=CorruptionConfig("masking", 0.2),
        seed=0,
    )
    base.update(kw)
    return BuildConfig(**base)


class TestBuild:
    def test_depth_three_chains_widths(self, small_corpus):
        net = build_trf_net(small_corpus, quick_config(depth=3))
        assert net.depth == 3
        for k in range(1, 3):
            assert net.layers[k].visible_count == net.layers[k - 1].hidden_count
        assert net.layers[0].visible_count == small_corpus.n_features
        assert len(net.training_logs) == 3

    def test_chain_path_center_count(self):
        # a 32-variable chain with stride 2 from endpoint 0 puts centers on the
        # 16 even nodes, so the layer has 16 units when no globals are added
        seed = seed_with_first_center(32, 0)
        d = markov_chain(32, 1200, flip_prob=0.05, seed=8)
        cfg = quick_config(
            radius=1,
            stride=2,
            depth=1,
            global_fraction=0.0,
            policy=DiscretizationPolicy.already_binary(),
            dae=DaeHyper(epochs=1, batch_size=128, seed=0),
            seed=seed,
        )
        net = build_trf_net(d, cfg)
        assert net.layers[0].hidden_count == 16
        assert net.plans[0].centers == tuple(range(0, 32, 2))

    def test_build_deterministic(self, tmp_path, small_corpus):
        cfg = quick_config(depth=2, seed=13)
        a, b = build_trf_net(small_corpus, cfg), build_trf_net(small_corpus, cfg)
        save(a, tmp_path / "a.trf")
        save(b, tmp_path / "b.trf")
        assert (tmp_path / "a.trf").read_bytes() == (tmp_path / "b.trf").read_bytes()

    def test_per_layer_radius_and_stride(self, small_corpus):
        cfg = quick_config(radius=(2, 1), stride=(2, 3), depth=2)
        net = build_trf_net(small_corpus, cfg)
        assert net.plans[0].radius == 2 and net.plans[1].radius == 1
        assert net.plans[0].stride == 2 and net.plans[1].stride == 3

    def test_collapsed_layer_is_an_error_naming_the_layer(self, small_corpus):
        cfg = quick_config(radius=99, stride=99, depth=2, global_fraction=0.0)
        with pytest.raises(EmptyStructureError, match="layer 0"):
            build_trf_net(small_corpus, cfg)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            quick_config(depth=0)
        with pytest.raises(ValueError):
            quick_config(radius=(1, 2, 3), depth=2)


class TestFullPlanLayer:
    """A tiny tree that one field covers whole, plus a global row: the plan
    lists every connection, so the layer is full and stores no index."""

    @staticmethod
    def built():
        d = markov_chain(4, 300, flip_prob=0.1, seed=5)
        x = d.dense()
        labeled = Dataset(x, labels=(x[:, 0] == x[:, 3]).astype(np.int64))
        cfg = quick_config(
            radius=3, stride=4, global_fraction=1.0, policy=DiscretizationPolicy.already_binary()
        )
        return build_trf_net(labeled, cfg), labeled

    def test_build_finetune_and_round_trip(self, tmp_path):
        net, d = self.built()
        assert net.plans[0].fields == ((0, 1, 2, 3),) and net.plans[0].global_count == 1
        assert net.layers[0].index is None
        assert net.hidden_sparsity() == 1.0
        assert net.parameter_count() == 8 + 2
        assert net.mask_violation() == 0.0
        save(net, tmp_path / "built.trf")
        again, _ = self.built()
        save(again, tmp_path / "again.trf")
        assert (tmp_path / "built.trf").read_bytes() == (tmp_path / "again.trf").read_bytes()

        attach_head(net, 2)
        tuned, _ = finetune(net, d, None, FinetuneHyper(epochs=3, seed=1))
        assert tuned.mask_violation() == 0.0
        save(tuned, tmp_path / "tuned.trf")
        back = load(tmp_path / "tuned.trf")
        assert back.layers[0].index is None
        assert_same_bits(tuned, back)
        save(back, tmp_path / "resaved.trf")
        assert (tmp_path / "resaved.trf").read_bytes() == (tmp_path / "tuned.trf").read_bytes()

    def test_finetune_has_the_bits_of_the_buffered_path(self, tmp_path):
        """The same layer given its arange index after construction goes
        through a buffer pair; both paths write the same file.

        The layer is already ReLU, so finetune keeps the layer object, and
        the index is set past the constructor, which would turn it into None.
        """
        net, d = self.built()
        attach_head(net, 2)
        net.layers = [replace(net.layers[0], activation=FinetuneHyper.activation)]
        buffered = clone(net)
        object.__setattr__(buffered.layers[0], "index", np.arange(8))
        assert nn.buffers(buffered.layers[0]) is not None
        for name, model in (("full", net), ("buffered", buffered)):
            tuned, _ = finetune(model, d, None, FinetuneHyper(epochs=3, seed=1))
            assert (tuned.layers[0].index is None) == (name == "full")
            save(tuned, tmp_path / f"{name}.trf")
        assert (tmp_path / "full.trf").read_bytes() == (tmp_path / "buffered.trf").read_bytes()

    def test_a_narrower_plan_reports_the_off_plan_weight(self):
        net, _ = self.built()
        layer = net.layers[0]
        layer.values[3] = -2.5  # unit 0, feature 3
        narrower = ReceptiveFieldPlan(radius=1, stride=4, centers=(1,), fields=((0, 1, 2),), global_count=1)
        net.plans = [narrower]
        assert net.mask_violation() == 2.5


class TestHead:
    def test_shapes(self, small_corpus):
        net = build_trf_net(small_corpus, quick_config())
        attach_head(net, 2)
        assert net.head.weights.shape == (2, net.top_width)
        assert net.head.bias.shape == (2,)

    def test_reattach_replaces(self, small_corpus):
        net = build_trf_net(small_corpus, quick_config())
        attach_head(net, 2)
        first = net.head
        attach_head(net, 5)
        assert net.head is not first
        assert net.head.out_count == 5

    def test_parameter_count_grows_by_head_size(self, small_corpus):
        net = build_trf_net(small_corpus, quick_config())
        before = net.parameter_count()
        attach_head(net, 3)
        assert net.parameter_count() == before + 3 * net.top_width + 3

    def test_too_few_classes(self, small_corpus):
        net = build_trf_net(small_corpus, quick_config())
        with pytest.raises(ValueError):
            attach_head(net, 1)


class TestFinetune:
    def test_separable_blobs_reach_high_accuracy(self, blob_data):
        train, valid, test = blob_data
        cfg = quick_config(
            radius=1,
            stride=1,
            policy=DiscretizationPolicy.median(),
            corruption=CorruptionConfig("gaussian-additive", 0.2),
            dae=DaeHyper(epochs=5, batch_size=32, seed=1),
            seed=1,
        )
        net = build_trf_net(train, cfg)
        attach_head(net, 2)
        net, _ = finetune(
            net,
            train,
            valid,
            FinetuneHyper(epochs=60, batch_size=32, dropout_rate=0.2, patience=20, seed=1),
        )
        report = evaluate(net, test)
        assert report.accuracy >= 0.99

    def test_size_metrics_unchanged_by_finetuning(self, small_corpus, blob_data):
        train, valid, _ = blob_data
        cfg = quick_config(
            radius=1, stride=1, policy=DiscretizationPolicy.median(),
            corruption=CorruptionConfig("gaussian-additive", 0.2), seed=2,
        )
        net = build_trf_net(train, cfg)
        attach_head(net, 2)
        sparsity, params = net.hidden_sparsity(), net.parameter_count()
        net, report = finetune(net, train, valid, FinetuneHyper(epochs=10, seed=2))
        assert net.hidden_sparsity() == sparsity
        assert net.parameter_count() == params
        assert report.sparsity == sparsity

    def test_masked_weights_stay_zero(self, small_corpus):
        net = build_trf_net(small_corpus, quick_config(depth=2))
        attach_head(net, 3)
        train = small_corpus
        net, _ = finetune(net, train, None, FinetuneHyper(epochs=5, seed=3))
        assert net.mask_violation() == 0.0

    def test_mask_violation_holds_layers_to_their_plans(self, small_corpus):
        net = build_trf_net(small_corpus, quick_config())
        layer = net.layers[0]
        stray = np.setdiff1d(np.arange(layer.hidden_count * layer.visible_count), layer.index)[0]
        at = np.searchsorted(layer.index, stray)
        net.layers[0] = replace(  # a connection the plan lacks
            layer, index=np.insert(layer.index, at, stray), values=np.insert(layer.values, at, -0.75)
        )
        assert net.mask_violation() == 0.75
        net.plans = [None]  # without a plan the layer's own index is the reference
        assert net.mask_violation() == 0.0

    def test_mask_violation_reads_what_the_dense_views_show(self, small_corpus):
        net = build_trf_net(small_corpus, quick_config(depth=2))
        rng = np.random.default_rng(7)
        for k, layer in enumerate(net.layers):
            size = layer.hidden_count * layer.visible_count
            strays = rng.choice(np.setdiff1d(np.arange(size), layer.index), size=5, replace=False)
            index = np.concatenate([layer.index, strays])
            values = np.concatenate([layer.values, rng.normal(size=5)])
            order = np.argsort(index)
            net.layers[k] = replace(layer, index=index[order], values=values[order])
        dense = 0.0
        for layer, plan in zip(net.layers, net.plans):
            outside = np.abs(layer.weights).ravel()
            outside[plan.index(layer.visible_count)] = 0.0
            dense = max(dense, float(outside.max()))
        assert dense > 0.0
        assert net.mask_violation() == dense

    def test_reinit_forgets_the_pretrained_layers(self, small_corpus, tmp_path):
        net = build_trf_net(small_corpus, quick_config())
        attach_head(net, 3)
        twin = clone(net)  # same index and head, other hidden values and biases
        rng = np.random.default_rng(8)
        for layer in twin.layers:
            for array in (layer.values, layer.bias_hidden, layer.bias_visible):
                array[...] = rng.normal(size=array.shape)

        def tuned_bytes(model, reinit, name):
            tuned, _ = finetune(clone(model), small_corpus, None, FinetuneHyper(epochs=2, reinit=reinit, seed=9))
            save(tuned, tmp_path / name)
            return (tmp_path / name).read_bytes()

        assert tuned_bytes(net, True, "a.trf") == tuned_bytes(twin, True, "b.trf")
        assert tuned_bytes(net, False, "c.trf") != tuned_bytes(twin, False, "d.trf")

    def test_evaluation_is_deterministic(self, blob_data):
        train, valid, test = blob_data
        cfg = quick_config(
            radius=1, stride=1, policy=DiscretizationPolicy.median(),
            corruption=CorruptionConfig("gaussian-additive", 0.2), seed=4,
        )
        net = build_trf_net(train, cfg)
        attach_head(net, 2)
        net, _ = finetune(net, train, valid, FinetuneHyper(epochs=5, seed=4))
        r1, r2 = evaluate(net, test), evaluate(net, test)
        assert r1.accuracy == r2.accuracy

    def test_requires_labels_and_head(self, small_corpus):
        net = build_trf_net(small_corpus, quick_config())
        with pytest.raises(ValueError, match="head"):
            finetune(net, small_corpus, None, FinetuneHyper(epochs=1))
        attach_head(net, 3)
        unlabeled = Dataset(small_corpus.values)
        with pytest.raises(ValueError, match="label"):
            finetune(net, unlabeled, None, FinetuneHyper(epochs=1))


def identity_network():
    """V=2 network whose class-1 logit is feature 0, class-0 logit is 0."""
    layer = nn.MaskedLayer(
        index=np.array([0, 3]),
        values=np.ones(2),
        bias_hidden=np.zeros(2),
        bias_visible=np.zeros(2),
        activation="relu",
    )
    head = nn.DenseLayer(weights=np.array([[0.0, 0.0], [10.0, 0.0]]), bias=np.array([1e-6, 0.0]))
    return TrfNetwork(layers=[layer], plans=[None], head=head)


class TestEvaluate:
    def test_perfect_predictor_scores_one(self):
        rng = np.random.default_rng(0)
        labels = rng.integers(0, 2, 50)
        values = np.column_stack([labels.astype(float), rng.normal(size=50)])
        report = evaluate(identity_network(), Dataset(values, labels=labels))
        assert report.accuracy == 1.0

    def test_random_scorer_auc_near_half(self):
        rng = np.random.default_rng(1)
        n = 10_000
        scores = rng.normal(size=n)
        targets = np.repeat([0, 1], n // 2)
        assert binary_auc(scores, targets) == pytest.approx(0.5, abs=0.02)

    def test_auc_with_ties_uses_average_ranks(self):
        scores = np.array([0.5, 0.5, 0.5, 0.5])
        targets = np.array([0, 1, 0, 1])
        assert binary_auc(scores, targets) == 0.5

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(
            st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.25, 1e-300, -1e-300, np.inf, -np.inf, np.nan]),
            max_size=40,
        )
    )
    def test_average_ranks_match_the_reference_bytes(self, values):
        x = np.array(values, dtype=np.float64)
        assert _average_ranks(x).tobytes() == average_ranks_reference(x).tobytes()

    def test_dense_masks_report_full_sparsity(self, blob_data):
        train, _, _ = blob_data
        layer = nn.init_masked_layer(np.arange(32), (4, 8), np.random.default_rng(0), "relu")
        net = TrfNetwork(layers=[layer], plans=[None])
        attach_head(net, 2)
        report = evaluate(net, train)
        assert report.sparsity == 1.0

    def test_multitask_aucs(self):
        rng = np.random.default_rng(2)
        n = 400
        labels = rng.integers(0, 2, size=(n, 3))
        labels[rng.random((n, 3)) < 0.2] = -1  # missing task labels
        values = np.column_stack([labels[:, 0].clip(0).astype(float), rng.normal(size=n)])
        net = identity_network()
        net.head = nn.DenseLayer(weights=np.array([[5.0, 0], [0, 0.1], [0, -0.1]]), bias=np.zeros(3))
        net.head_mode = "multitask"
        report = evaluate(net, Dataset(values, labels=labels))
        assert report.accuracy is None
        assert len(report.auc_per_task) == 3
        assert report.auc_per_task[0] > 0.9  # task 0 is wired to its own labels
        assert report.auc_mean == pytest.approx(np.mean(report.auc_per_task), abs=1e-12)


class TestMultitask:
    def test_end_to_end_training_lifts_auc(self):
        # three binary tasks driven by three feature groups, some labels missing
        rng = np.random.default_rng(21)
        n = 500
        values = rng.normal(size=(n, 9))
        labels = np.stack(
            [(values[:, 3 * t : 3 * t + 3].sum(axis=1) > 0).astype(np.int64) for t in range(3)],
            axis=1,
        )
        labels[rng.random((n, 3)) < 0.15] = -1
        d = Dataset(values, labels=labels)
        from trfnet.data import split as split_ds

        train, valid, test = split_ds(d, 0.7, 0.15, seed=0)
        layer = nn.init_masked_layer(np.arange(108), (12, 9), np.random.default_rng(0), "relu")
        net = TrfNetwork(layers=[layer], plans=[None])
        attach_head(net, 3, mode="multitask", seed=1)
        net, _ = finetune(
            net, train, valid,
            FinetuneHyper(epochs=60, batch_size=32, dropout_rate=0.1, patience=15, seed=1),
        )
        report = evaluate(net, test)
        assert report.auc_mean > 0.85
        assert len(report.auc_per_task) == 3

    def test_label_shape_checked(self, blob_data):
        train, _, _ = blob_data
        layer = nn.init_masked_layer(np.arange(32), (4, 8), np.random.default_rng(0), "relu")
        net = TrfNetwork(layers=[layer], plans=[None])
        attach_head(net, 3, mode="multitask")
        with pytest.raises(ValueError, match="multitask"):
            finetune(net, train, None, FinetuneHyper(epochs=1))



class TestLabelRange:
    def blobs_with_label(self, blob_data, bad):
        train, _, _ = blob_data
        labels = train.labels.copy()
        labels[5] = bad
        return Dataset(train.values, labels=labels)

    def dense_net(self, classes=2, mode="softmax"):
        layer = nn.init_masked_layer(np.arange(32), (4, 8), np.random.default_rng(0), "relu")
        return attach_head(TrfNetwork(layers=[layer], plans=[None]), classes, mode=mode)

    @pytest.mark.parametrize("bad", [-1, 2])
    def test_evaluate_rejects_label_outside_head(self, blob_data, bad):
        d = self.blobs_with_label(blob_data, bad)
        with pytest.raises(ValueError, match=f"test: label {bad} "):
            evaluate(self.dense_net(), d)

    @pytest.mark.parametrize("bad", [-1, 2])
    def test_finetune_rejects_label_outside_head(self, blob_data, bad):
        d = self.blobs_with_label(blob_data, bad)
        with pytest.raises(ValueError, match=f"train: label {bad} "):
            finetune(self.dense_net(), d, None, FinetuneHyper(epochs=1))
        _, valid, _ = blob_data
        with pytest.raises(ValueError, match=f"valid: label {bad} "):
            finetune(self.dense_net(), valid, d, FinetuneHyper(epochs=1))

    def test_multitask_missing_label_accepted(self, blob_data):
        train, _, _ = blob_data
        labels = np.stack([train.labels, 1 - train.labels], axis=1)
        labels[::7, 0] = -1
        d = Dataset(train.values, labels=labels)
        net, _ = finetune(self.dense_net(2, "multitask"), d, d, FinetuneHyper(epochs=1))
        assert len(evaluate(net, d).auc_per_task) == 2

    def test_multitask_label_values_and_width_checked(self, blob_data):
        train, _, _ = blob_data
        labels = np.stack([train.labels, 1 - train.labels], axis=1)
        labels[3, 1] = 2
        with pytest.raises(ValueError, match="multitask label 2"):
            evaluate(self.dense_net(2, "multitask"), Dataset(train.values, labels=labels))
        with pytest.raises(ValueError, match="2 label columns"):
            evaluate(self.dense_net(3, "multitask"), Dataset(train.values, labels=labels.clip(0, 1)))


class TestFinetuneReport:
    """finetune reports from its best epoch's validation pass: evaluate on the
    network it returns, over the same gate, gives the same report."""

    @pytest.fixture(scope="class")
    def corpus_splits(self, small_corpus):
        from trfnet.data import split

        train, valid, _ = split(small_corpus, 0.7, 0.15, seed=0)
        return build_trf_net(train, quick_config()), train, valid

    @staticmethod
    def instrument(monkeypatch):
        """Records the score of each report builder._evaluate gives, and counts
        the eval forwards and the Adam steps."""
        from trfnet import builder

        seen = {"scores": [], "forwards": 0, "steps": 0}
        scoring, forward, step = builder._evaluate, nn.hidden_representation, nn.Adam.step

        def recording(net, d, bufs):
            report = scoring(net, d, bufs)
            seen["scores"].append(report.score)
            return report

        def counted_forward(*args, **kw):
            seen["forwards"] += 1
            return forward(*args, **kw)

        def counted_step(self):
            seen["steps"] += 1
            return step(self)

        monkeypatch.setattr(builder, "_evaluate", recording)
        monkeypatch.setattr(nn, "hidden_representation", counted_forward)
        monkeypatch.setattr(nn.Adam, "step", counted_step)
        return seen

    @staticmethod
    def epochs_run(seen, train, batch_size=32) -> int:
        steps_per_epoch = -(-train.n_samples // batch_size)
        epochs, rest = divmod(seen["steps"], steps_per_epoch)
        assert rest == 0
        return epochs

    @staticmethod
    def assert_reports_match(report, net, gate):
        expected = evaluate(net, gate)
        # repr is exact for floats, so it compares every field bit for bit
        assert report == expected and repr(report) == repr(expected)

    def tuned(self, corpus_splits, use_valid, **hyper):
        base, train, valid = corpus_splits
        net = attach_head(clone(base), 3, seed=0)
        return finetune(net, train, valid if use_valid else None, FinetuneHyper(batch_size=32, seed=0, **hyper))

    def test_softmax_with_validation(self, corpus_splits):
        net, report = self.tuned(corpus_splits, True, epochs=3)
        self.assert_reports_match(report, net, corpus_splits[2])

    def test_without_validation_the_gate_is_the_training_set(self, corpus_splits):
        net, report = self.tuned(corpus_splits, False, epochs=3)
        self.assert_reports_match(report, net, corpus_splits[1])

    def test_multitask(self):
        from trfnet.data import split

        rng = np.random.default_rng(21)
        values = rng.normal(size=(300, 9))
        labels = np.stack([(values[:, 3 * t : 3 * t + 3].sum(axis=1) > 0).astype(np.int64) for t in range(3)], axis=1)
        labels[rng.random((300, 3)) < 0.15] = -1
        train, valid, _ = split(Dataset(values, labels=labels), 0.7, 0.15, seed=0)
        layer = nn.init_masked_layer(np.arange(0, 108, 2), (12, 9), np.random.default_rng(0), "relu")
        net = attach_head(TrfNetwork(layers=[layer], plans=[None]), 3, mode="multitask", seed=1)
        net, report = finetune(net, train, valid, FinetuneHyper(epochs=6, batch_size=32, seed=1))
        assert len(report.auc_per_task) == 3
        self.assert_reports_match(report, net, valid)

    def test_early_stop_returns_the_best_epoch(self, corpus_splits, monkeypatch):
        seen = self.instrument(monkeypatch)
        net, report = self.tuned(corpus_splits, True, epochs=8, patience=2)
        epochs_run = self.epochs_run(seen, corpus_splits[1])
        best = int(np.argmax(seen["scores"][:epochs_run])) + 1
        assert best < epochs_run < 8
        self.assert_reports_match(report, net, corpus_splits[2])
        # the same run cut at the best epoch holds the same parameters, bit for bit
        cut, cut_report = self.tuned(corpus_splits, True, epochs=best, patience=2)
        for a, b in zip(nn.stack_params(net.layers, net.head), nn.stack_params(cut.layers, cut.head)):
            assert a.tobytes() == b.tobytes()
        assert repr(report.accuracy) == repr(cut_report.accuracy)

    def test_best_epoch_is_the_last(self, corpus_splits, monkeypatch):
        seen = self.instrument(monkeypatch)
        net, report = self.tuned(corpus_splits, True, epochs=3)
        assert seen["scores"][2] > max(seen["scores"][:2])
        self.assert_reports_match(report, net, corpus_splits[2])

    def test_one_eval_forward_per_epoch_and_none_after(self, corpus_splits, monkeypatch):
        seen = self.instrument(monkeypatch)
        self.tuned(corpus_splits, True, epochs=8, patience=2)
        epochs_run = self.epochs_run(seen, corpus_splits[1])
        assert epochs_run < 8  # stopped early
        assert seen["forwards"] == epochs_run


V1_FIXTURE = Path(__file__).parent / "data" / "model_v1.trf"


def v1_fixture_network() -> TrfNetwork:
    """The network that data/model_v1.trf holds, rebuilt from fixed seeds.

    Layer 0 (4 x 10) has a plan: three fields and one all-ones global row.
    Layer 1 (3 x 4) has no plan and sparse rows, the last one full.  A
    2-class head sits on top.  The weights include -0.0, the smallest
    subnormal and 1e300.
    """
    rng = np.random.default_rng(2018)
    plan = ReceptiveFieldPlan(
        radius=1, stride=2, centers=(1, 4, 8), fields=((0, 1, 2), (3, 4, 5), (6, 7, 8, 9)), global_count=1
    )
    index0 = plan.index(10)
    values0 = rng.normal(size=index0.size)
    values0[:3] = (-0.0, 5e-324, 1e300)
    layer0 = nn.MaskedLayer(index0, values0, rng.normal(size=4), rng.normal(size=10), "relu")
    index1 = np.array([0, 2, 5, 8, 9, 10, 11])
    layer1 = nn.MaskedLayer(index1, rng.normal(size=7), rng.normal(size=3), rng.normal(size=4), "relu")
    head = nn.DenseLayer(rng.normal(size=(2, 3)), rng.normal(size=2))
    cfg = BuildConfig(
        radius=(1, 1), stride=(2, 2), depth=2, global_fraction=0.1,
        policy=DiscretizationPolicy.fixed(0.0), dae=DaeHyper(epochs=3, batch_size=64, seed=7),
        corruption=CorruptionConfig("masking", 0.2, seed=7), seed=7,
    )
    return TrfNetwork([layer0, layer1], [plan, None], head, "softmax", cfg)


def bits(a: np.ndarray | None) -> tuple | None:
    """dtype, shape and raw bytes: equal bits, so -0.0 differs from 0.0.
    None, a full layer's index, stays None."""
    return None if a is None else (a.dtype.str, a.shape, a.tobytes())


def assert_same_bits(a: TrfNetwork, b: TrfNetwork) -> None:
    assert (a.head_mode, a.plans, a.config) == (b.head_mode, b.plans, b.config)
    assert len(a.layers) == len(b.layers)
    for la, lb in zip(a.layers, b.layers):
        assert la.activation == lb.activation
        for f in ("index", "values", "bias_hidden", "bias_visible"):
            assert bits(getattr(la, f)) == bits(getattr(lb, f))
    assert (a.head.activation, bits(a.head.weights), bits(a.head.bias)) == (
        b.head.activation, bits(b.head.weights), bits(b.head.bias)
    )


def report_text_with(line: str) -> str:
    """A report's text with line in place of its key's line, where report_to_text writes that key."""
    key = line.split(" ")[0]
    placeholder = {"parameter_count": 1, "auc_per_task": (0.5,)}.get(key, 0.5)
    r = replace(EvalReport(parameter_count=123, sparsity=0.25, accuracy=0.875), **{key: placeholder})
    return "".join((line if ln.startswith(key + " ") else ln) + "\n" for ln in report_to_text(r).splitlines())


def sealed(body: bytes) -> bytes:
    """body followed by the v2 checksum line over it."""
    return body + b"end trfnet-model sha256 " + hashlib.sha256(body).hexdigest().encode() + b"\n"


def reseal(lines: list[str]) -> bytes:
    """v2 bytes with the checksum line recomputed over the edited lines."""
    return sealed(("\n".join(ln for ln in lines if not ln.startswith("end trfnet-model")) + "\n").encode())


def b64_floats(line: str) -> np.ndarray:
    return np.frombuffer(base64.b64decode(line.split(" ", 1)[1]), dtype="<f8").copy()


def b64_line(key: str, a) -> str:
    return key + " " + base64.b64encode(np.asarray(a, dtype="<f8").tobytes()).decode()


class TestSaveLoad:
    def test_roundtrip_bitwise(self, tmp_path, small_corpus):
        net = build_trf_net(small_corpus, quick_config(depth=2, seed=5))
        attach_head(net, 3)
        net, _ = finetune(net, small_corpus, None, FinetuneHyper(epochs=2, seed=5))
        p1, p2 = tmp_path / "m1.trf", tmp_path / "m2.trf"
        save(net, p1)
        back = load(p1)
        save(back, p2)
        assert p1.read_bytes() == p2.read_bytes()
        for a, b in zip(net.layers, back.layers):
            np.testing.assert_array_equal(a.weights, b.weights)
            np.testing.assert_array_equal(a.mask, b.mask)
        assert back.config == net.config
        assert [p for p in back.plans] == [p for p in net.plans]

    def test_load_preserves_evaluation_exactly(self, tmp_path, blob_data):
        train, valid, test = blob_data
        cfg = quick_config(
            radius=1, stride=1, policy=DiscretizationPolicy.median(),
            corruption=CorruptionConfig("gaussian-additive", 0.2), seed=6,
        )
        net = build_trf_net(train, cfg)
        attach_head(net, 2)
        net, _ = finetune(net, train, valid, FinetuneHyper(epochs=5, seed=6))
        save(net, tmp_path / "m.trf")
        assert evaluate(load(tmp_path / "m.trf"), test).accuracy == evaluate(net, test).accuracy

    def test_v1_fixture_loads_bit_for_bit(self):
        assert V1_FIXTURE.read_text().startswith("trfnet-model v1\n")
        assert_same_bits(v1_fixture_network(), load(V1_FIXTURE))

    def test_a_plan_layer_holds_its_plans_index(self, tmp_path, small_corpus):
        """Built, fine-tuned, loaded or cloned, a plan layer's index is the
        array its plan built once, so TrfNetwork.check compares no values."""

        def shares(net):
            return all(l.index is p.index(l.visible_count) for l, p in zip(net.layers, net.plans))

        net = build_trf_net(small_corpus, quick_config(depth=2))
        assert shares(net)
        labeled = Dataset(small_corpus.dense(), labels=np.arange(small_corpus.n_samples) % 2)
        net, _ = finetune(attach_head(net, 2), labeled, None, FinetuneHyper(epochs=1))
        assert shares(net)
        net, _ = finetune(net, labeled, None, FinetuneHyper(epochs=1, activation="sigmoid", reinit=True))
        assert shares(net)
        save(net, tmp_path / "m.trf")
        assert shares(load(tmp_path / "m.trf"))
        assert shares(clone(net))
        assert not net.plans[0].index(net.input_width).flags.writeable
        assert not clone(net).plans[0].index(net.input_width).flags.writeable

    def test_v2_keeps_every_bit(self, tmp_path):
        net = v1_fixture_network()
        save(net, tmp_path / "m.trf")
        back = load(tmp_path / "m.trf")
        assert_same_bits(net, back)
        assert np.signbit(back.layers[0].values[0]) and back.layers[0].values[1] == 5e-324

    def test_connectivity_stored_only_without_a_plan(self, tmp_path):
        save(v1_fixture_network(), tmp_path / "m.trf")
        lines = (tmp_path / "m.trf").read_text().splitlines()
        assert not any(ln.startswith(("maskrow ", "w ")) for ln in lines)
        stored = [ln for ln in lines if ln.startswith("index ")]
        assert len(stored) == 1 and lines.index(stored[0]) > lines.index("layer 1 3 4 relu")
        assert lines[-1].startswith("end trfnet-model sha256 ")
        rng = np.random.default_rng(0)
        dense = TrfNetwork(layers=[nn.init_masked_layer(np.arange(12), (3, 4), rng)], plans=[None])
        save(dense, tmp_path / "d.trf")
        assert "index dense" in (tmp_path / "d.trf").read_text().splitlines()

    def test_truncated_file_rejected(self, tmp_path, small_corpus):
        net = build_trf_net(small_corpus, quick_config())
        path = tmp_path / "m.trf"
        save(net, path)
        text = path.read_text()
        path.write_text(text[: len(text) // 2])
        with pytest.raises(ModelFormatError):
            load(path)

    def test_damaged_byte_fails_the_checksum(self, tmp_path):
        save(v1_fixture_network(), tmp_path / "m.trf")
        data = bytearray((tmp_path / "m.trf").read_bytes())
        at = data.index(b"\nvalues ") + 12
        data[at] = ord("A") if data[at] != ord("A") else ord("B")
        (tmp_path / "m.trf").write_bytes(bytes(data))
        with pytest.raises(ModelFormatError, match="checksum"):
            load(tmp_path / "m.trf")

    @pytest.mark.parametrize(
        "edit, message",
        [
            ((b"trfnet-model v1", b"trfnet-model v9"), "not a model file, or unsupported version"),
            ((b"layers 2", b"layers two"), "line 13: layers: invalid literal for int() with base 10: 'two'"),
            ((b"layer 1 3 4 relu", b"layer 1 3 4 tanh"), "layer 1: unknown activation 'tanh'"),
            ((b"softmax", b"soft\xffmax"), "corrupted model file: 'utf-8' codec can't decode byte 0xff"),
        ],
        ids=["magic", "field", "layer", "undecodable"],
    )
    def test_error_names_the_file_first(self, tmp_path, edit, message):
        path = tmp_path / "m.trf"
        path.write_bytes(V1_FIXTURE.read_bytes().replace(*edit))
        with pytest.raises(ModelFormatError) as e:
            load(path)
        assert str(e.value).startswith(f"{path}: {message}")

    def test_missing_checksum_line_rejected(self, tmp_path):
        save(v1_fixture_network(), tmp_path / "m.trf")
        lines = (tmp_path / "m.trf").read_text().splitlines()
        (tmp_path / "m.trf").write_text("\n".join(lines[:-1]) + "\n")
        with pytest.raises(ModelFormatError, match="checksum line"):
            load(tmp_path / "m.trf")

    def test_wrong_magic_rejected(self, tmp_path):
        path = tmp_path / "m.trf"
        path.write_text("something-else v9\n")
        with pytest.raises(ModelFormatError):
            load(path)

    @pytest.mark.parametrize("version", ["v1", "v2"])
    def test_undecodable_bytes_rejected(self, tmp_path, version):
        if version == "v1":
            data = V1_FIXTURE.read_bytes().replace(b"softmax", b"soft\xffmax")
        else:  # sealed after the damage, so decoding is what fails
            save(v1_fixture_network(), tmp_path / "m.trf")
            body = (tmp_path / "m.trf").read_bytes().rsplit(b"end trfnet-model", 1)[0]
            data = sealed(body.replace(b"softmax", b"soft\xffmax"))
        (tmp_path / "bad.trf").write_bytes(data)
        with pytest.raises(ModelFormatError, match="utf-8"):
            load(tmp_path / "bad.trf")

    def saved_lines(self, tmp_path, small_corpus):
        net = build_trf_net(small_corpus, quick_config())
        attach_head(net, 3)
        save(net, tmp_path / "m.trf")
        return (tmp_path / "m.trf").read_text().splitlines()

    def rejects(self, tmp_path, lines, match):
        (tmp_path / "bad.trf").write_bytes(reseal(lines))
        with pytest.raises(ModelFormatError, match=match):
            load(tmp_path / "bad.trf")

    # each reproduction of a line read out of the order save writes, or with
    # another field count: (lines replaced, their replacement, message)
    LINE_EDITS = {
        "repeated-key": (["seed 7"], ["seed 7", "seed 99"], "line 12: expected 'config end', found 'seed 99'"),
        "reordered-keys": (
            ["radius 1,1", "stride 2,2"], ["stride 2,2", "radius 1,1"], "line 4: expected 'radius', found 'stride 2,2'"
        ),
        "layer-extra": (
            ["layer 0 4 10 relu"], ["layer 0 4 10 relu junk"], "line 14: 'layer 0' takes 3 field(s), found 4"
        ),
        "layer-short": (["layer 0 4 10 relu"], ["layer 0 4 10"], "line 14: 'layer 0' takes 3 field(s), found 2"),
        "layers-extra": (["layers 2"], ["layers 2 x"], "line 13: 'layers' takes 1 field(s), found 2"),
        "head-mode-extra": (["head_mode softmax"], ["head_mode softmax extra"], "line 2: 'head_mode' takes 1 field(s)"),
        "dae-extra": (
            ["dae 3 64 0.001 0.9 0.999 1e-08 auto 7"], ["dae 3 64 0.001 0.9 0.999 1e-08 auto 7 junk"],
            "line 9: 'dae' takes 8 field(s), found 9",
        ),
        "plan-extra": (["plan 1 2 1"], ["plan 1 2 1 9"], "line 15: 'plan' takes 3 field(s), found 4"),
        "unknown-key": (["seed 7"], ["bogus_key 7", "seed 7"], "line 11: expected 'seed', found 'bogus_key 7'"),
        "missing-key": (["depth 2"], [], "line 6: expected 'depth', found 'global_fraction 0.1'"),
    }

    @pytest.mark.parametrize("version", ["v1", "v2"])
    @pytest.mark.parametrize("edit", LINE_EDITS)
    def test_line_out_of_order_or_with_other_fields_rejected(self, tmp_path, version, edit):
        """The v1 fixture, and the v2 file of its network, with one edit; the header lines are the same in both."""
        old, new, message = self.LINE_EDITS[edit]
        if version == "v1":
            lines = V1_FIXTURE.read_text().splitlines()
        else:
            save(v1_fixture_network(), tmp_path / "m.trf")
            lines = (tmp_path / "m.trf").read_text().splitlines()
        i = lines.index(old[0])
        assert lines[i : i + len(old)] == old
        lines[i : i + len(old)] = new
        data = ("\n".join(lines) + "\n").encode() if version == "v1" else reseal(lines)
        (tmp_path / "bad.trf").write_bytes(data)
        with pytest.raises(ModelFormatError, match=re.escape(message)):
            load(tmp_path / "bad.trf")

    @pytest.mark.parametrize("version", ["v1", "v2"])
    def test_line_after_the_last_rejected(self, tmp_path, version):
        if version == "v1":
            lines = V1_FIXTURE.read_text().splitlines()
            data = ("\n".join(lines + ["hb 0.5"]) + "\n").encode()
        else:
            save(v1_fixture_network(), tmp_path / "m.trf")
            lines = (tmp_path / "m.trf").read_text().splitlines()[:-1]  # the body, before its checksum line
            data = reseal(lines + ["hb 0.5"])
        (tmp_path / "bad.trf").write_bytes(data)
        message = f"line {len(lines) + 1}: expected the end of the file, found 'hb 0.5'"
        with pytest.raises(ModelFormatError, match=message):
            load(tmp_path / "bad.trf")

    def test_missing_config_key_rejected(self, tmp_path, small_corpus):
        lines = [ln for ln in self.saved_lines(tmp_path, small_corpus) if not ln.startswith("seed ")]
        self.rejects(tmp_path, lines, "seed")

    # the DAE step size is the third value of the "dae" line, and Adam's
    # beta1, beta2 and eps the fourth to sixth
    @pytest.mark.parametrize(
        "key, at, bad, match",
        [("radius", 1, "-1", "radius"), ("stride", 1, "0", "stride"), ("dae", 3, "0.0", "step_size"),
         ("dae", 4, "0.8", "beta1"), ("dae", 5, "0.99", "beta2"), ("dae", 6, "1e-07", "eps")],
    )
    def test_out_of_range_config_value_rejected(self, tmp_path, small_corpus, key, at, bad, match):
        lines = self.saved_lines(tmp_path, small_corpus)
        i = next(i for i, ln in enumerate(lines) if ln.startswith(key + " "))
        fields = lines[i].split(" ")
        fields[at] = bad
        lines[i] = " ".join(fields)
        self.rejects(tmp_path, lines, match)

    def test_unknown_head_mode_rejected(self, tmp_path, small_corpus):
        lines = self.saved_lines(tmp_path, small_corpus)
        lines[1] = "head_mode banana"
        self.rejects(tmp_path, lines, "banana")

    @pytest.mark.parametrize("prefix", ["layer 0 ", "head "])
    def test_unknown_activation_rejected(self, tmp_path, small_corpus, prefix):
        lines = self.saved_lines(tmp_path, small_corpus)
        i = next(i for i, ln in enumerate(lines) if ln.startswith(prefix))
        lines[i] = lines[i].rsplit(" ", 1)[0] + " swish"
        self.rejects(tmp_path, lines, "swish")

    @pytest.mark.parametrize("activation", ["sigmoid", "relu"])
    def test_head_activation_other_than_identity_rejected(self, tmp_path, small_corpus, activation):
        lines = self.saved_lines(tmp_path, small_corpus)
        i = next(i for i, ln in enumerate(lines) if ln.startswith("head "))
        assert lines[i].endswith(" identity")
        lines[i] = lines[i].rsplit(" ", 1)[0] + " " + activation
        self.rejects(tmp_path, lines, f"head activation must be identity, got '{activation}'")

    @pytest.mark.parametrize(
        "prefix, bad", [("values ", "nan"), ("bh ", "inf"), ("bv ", "nan"), ("hw ", "-inf"), ("hb ", "nan")]
    )
    def test_non_finite_parameter_rejected(self, tmp_path, small_corpus, prefix, bad):
        lines = self.saved_lines(tmp_path, small_corpus)
        i = next(i for i, ln in enumerate(lines) if ln.startswith(prefix))
        a = b64_floats(lines[i])
        a[-1] = float(bad)
        lines[i] = b64_line(prefix.strip(), a)
        self.rejects(tmp_path, lines, "non-finite")

    @pytest.mark.parametrize("bad", ["-1", "120"])
    def test_plan_center_outside_features_rejected(self, tmp_path, small_corpus, bad):
        lines = self.saved_lines(tmp_path, small_corpus)
        i = next(i for i, ln in enumerate(lines) if ln.startswith("centers "))
        lines[i] = "centers " + bad + " " + lines[i].split(" ", 2)[2]
        self.rejects(tmp_path, lines, r"outside \[0, 120\)")

    def test_plan_field_member_outside_features_rejected(self, tmp_path, small_corpus):
        lines = self.saved_lines(tmp_path, small_corpus)
        i = lines.index(next(ln for ln in lines if ln.startswith("field 0 ")))
        lines[i] += " 120"
        self.rejects(tmp_path, lines, r"outside \[0, 120\)")

    def test_plan_unit_count_must_match_layer(self, tmp_path, small_corpus):
        lines = self.saved_lines(tmp_path, small_corpus)
        i = next(i for i, ln in enumerate(lines) if ln.startswith("plan "))
        r, s, g = lines[i].split(" ")[1:]
        lines[i] = f"plan {r} {s} {int(g) + 1}"
        self.rejects(tmp_path, lines, "units")

    def test_plan_connections_must_rise(self, tmp_path, small_corpus):
        lines = self.saved_lines(tmp_path, small_corpus)
        i = lines.index(next(ln for ln in lines if ln.startswith("field 0 ")))
        members = lines[i].split(" ")[2:]
        lines[i] = "field 0 " + " ".join(members[::-1] + members[:1])  # unsorted and a repeat
        self.rejects(tmp_path, lines, "rise strictly")

    @pytest.mark.parametrize("index", [[0, 2, 2, 8], [0, 2, 8, 12], [-1, 2, 5, 8], [2, 0, 5, 8]])
    def test_stored_index_must_rise_inside_layer(self, tmp_path, index):
        save(v1_fixture_network(), tmp_path / "m.trf")
        lines = (tmp_path / "m.trf").read_text().splitlines()
        i = next(i for i, ln in enumerate(lines) if ln.startswith("index "))
        lines[i] = "index " + base64.b64encode(np.array(index, dtype="<i8").tobytes()).decode()
        lines[i + 1] = b64_line("values", np.ones(4))
        self.rejects(tmp_path, lines, r"rise strictly inside \[0, 12\)")

    @pytest.mark.parametrize("key", ["values", "index", "hw"])
    def test_array_length_must_match(self, tmp_path, key):
        save(v1_fixture_network(), tmp_path / "m.trf")
        lines = (tmp_path / "m.trf").read_text().splitlines()
        i = max(i for i, ln in enumerate(lines) if ln.startswith(key + " "))
        raw = base64.b64decode(lines[i].split(" ", 1)[1])
        lines[i] = key + " " + base64.b64encode(raw[:-8]).decode()
        self.rejects(tmp_path, lines, "weights for")

    @pytest.mark.parametrize("text", ["not*base64", "AAAA", "AAAAAAAAAA=="])
    def test_undecodable_array_rejected(self, tmp_path, text):
        save(v1_fixture_network(), tmp_path / "m.trf")
        lines = (tmp_path / "m.trf").read_text().splitlines()
        i = next(i for i, ln in enumerate(lines) if ln.startswith("bh "))
        lines[i] = "bh " + text
        self.rejects(tmp_path, lines, "corrupted model file")

    @pytest.mark.parametrize("chunk", [4, 8, 1 << 16])
    @pytest.mark.parametrize(
        "text, decoded",
        [
            ("", b""),
            ("A" * 11 + "=", bytes(8)),
            ("A" * 32, bytes(24)),
            ("A" * 32 + "=", None),  # a full last quad carries no padding
            ("A" * 32 + "==", None),
            ("=", None),
            ("==", None),
            ("A" * 11, None),
            ("A" * 11 + "==", None),
            ("A" * 10 + "==", None),  # 7 bytes
            ("A" * 10 + "B=", None),  # nonzero pad bits
            ("A" * 8 + "=" + "A" * 3, None),
            ("AA==" + "A" * 28, None),  # a padded quad, 24 bytes in all
            ("A" * 32 + "===", None),
            ("A" * 10 + "\u00e9=", None),
        ],
    )
    def test_chunked_decode_takes_what_b64decode_takes(self, monkeypatch, chunk, text, decoded):
        """_unb64 decodes a line's text chunk by chunk, and takes only what _b64 writes:
        padding only at its end, and only where the bytes need it."""
        from trfnet import builder

        monkeypatch.setattr(builder, "_B64_CHUNK", chunk)
        if decoded is None:
            with pytest.raises(ValueError):
                builder._unb64("values " + text, np.dtype("<f8"), len("values "))
        else:
            out = builder._unb64("values " + text, np.dtype("<f8"), len("values "))
            assert out.tobytes() == decoded and out.flags.writeable

    def test_load_decodes_across_chunks(self, tmp_path, small_corpus, monkeypatch):
        from trfnet import builder

        save(build_trf_net(small_corpus, quick_config()), tmp_path / "m.trf")
        monkeypatch.setattr(builder, "_B64_CHUNK", 8)
        save(load(tmp_path / "m.trf"), tmp_path / "again.trf")
        assert (tmp_path / "again.trf").read_bytes() == (tmp_path / "m.trf").read_bytes()

    def v1_rejects(self, tmp_path, lines, match):
        (tmp_path / "bad.trf").write_text("\n".join(lines) + "\n")
        with pytest.raises(ModelFormatError, match=match):
            load(tmp_path / "bad.trf")

    def test_field_row_must_match_plan(self, tmp_path):
        lines = V1_FIXTURE.read_text().splitlines()
        i = lines.index("maskrow 0 sparse 0 1 2")
        lines[i] = lines[i].rsplit(" ", 1)[0]  # drop the last connection of field 0
        lines[i + 1] = lines[i + 1].rsplit(" ", 1)[0]
        self.v1_rejects(tmp_path, lines, "disagree with the plan")

    def test_global_row_must_match_plan(self, tmp_path):
        lines = V1_FIXTURE.read_text().splitlines()
        i = lines.index("maskrow 3 dense")  # layer 0's one global unit
        lines[i] = "maskrow 3 sparse 0"
        lines[i + 1] = " ".join(lines[i + 1].split(" ")[:3])
        self.v1_rejects(tmp_path, lines, "disagree with the plan")

    def test_mask_column_outside_layer_rejected(self, tmp_path):
        lines = V1_FIXTURE.read_text().splitlines()
        i = lines.index("maskrow 0 sparse 0 1 2")
        lines[i] = "maskrow 0 sparse -1 1 2"
        self.v1_rejects(tmp_path, lines, "mask columns")

    def dense_stack_lines(self, tmp_path):
        """A saved 8 -> 4 -> 3 network of all-ones layers with a 2-class head."""
        rng = np.random.default_rng(0)
        layers = [nn.init_masked_layer(np.arange(h * v), (h, v), rng) for h, v in ((4, 8), (3, 4))]
        net = attach_head(TrfNetwork(layers=layers, plans=[None, None]), 2)
        save(net, tmp_path / "m.trf")
        return (tmp_path / "m.trf").read_text().splitlines()

    def rejects_in_small_memory(self, tmp_path, data: bytes, match):
        """load raises ModelFormatError without allocating what the file declares."""
        (tmp_path / "bad.trf").write_bytes(data)
        tracemalloc.start()
        try:
            with pytest.raises(ModelFormatError, match=match):
                load(tmp_path / "bad.trf")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    @staticmethod
    def resized(lines: list[str], k: int, h: int, v: int) -> list[str]:
        """lines with layer k's line declaring an h x v layer."""
        i = next(i for i, ln in enumerate(lines) if ln.startswith(f"layer {k} "))
        parts = lines[i].split(" ")
        return lines[:i] + [" ".join(parts[:2] + [str(h), str(v)] + parts[4:])] + lines[i + 1 :]

    def test_dense_layer_declaring_two_to_the_40_positions_rejected(self, tmp_path):
        lines = self.resized(self.dense_stack_lines(tmp_path), 0, 2**20, 2**20)
        self.rejects_in_small_memory(tmp_path, reseal(lines), f"32 weights for {2**40} connections")

    def test_global_rows_declaring_two_to_the_40_positions_rejected(self, tmp_path):
        save(v1_fixture_network(), tmp_path / "m.trf")
        lines = self.resized((tmp_path / "m.trf").read_text().splitlines(), 0, 4, 2**40)
        self.rejects_in_small_memory(tmp_path, reseal(lines), f"weights for {10 + 2**40} connections")

    def test_v1_dense_row_declaring_two_to_the_40_columns_rejected(self, tmp_path):
        lines = self.resized(V1_FIXTURE.read_text().splitlines(), 0, 4, 2**40)
        data = ("\n".join(lines) + "\n").encode()
        self.rejects_in_small_memory(tmp_path, data, "layer 0 row 3: weight count mismatch")

    def test_v1_mask_column_beyond_int64_rejected(self, tmp_path):
        lines = V1_FIXTURE.read_text().splitlines()
        i = lines.index("maskrow 0 sparse 0 1 2")
        lines[i] = f"maskrow 0 sparse 0 1 {2**63}"
        (tmp_path / "bad.trf").write_text("\n".join(lines) + "\n")
        with pytest.raises(ModelFormatError, match="corrupted model file"):
            load(tmp_path / "bad.trf")

    @pytest.mark.parametrize("h, v", [(2**32, 2**32), (3, 2**62)])
    def test_positions_beyond_int64_rejected(self, tmp_path, h, v):
        lines = self.resized(self.dense_stack_lines(tmp_path), 0, h, v)
        self.rejects_in_small_memory(tmp_path, reseal(lines), "more positions than int64 holds")

    def test_zero_layers_rejected(self, tmp_path):
        lines = self.dense_stack_lines(tmp_path)
        first = lines.index("layers 2")
        head = next(i for i, ln in enumerate(lines) if ln.startswith("head "))
        self.rejects(tmp_path, lines[:first] + ["layers 0"] + lines[head:], "at least one layer")

    def test_layer_width_must_chain(self, tmp_path):
        lines = self.dense_stack_lines(tmp_path)
        start = lines.index("layer 1 3 4 sigmoid")
        lines[start] = "layer 1 3 5 sigmoid"
        # a consistent 3 x 5 all-ones layer on a 4-wide input
        values = b64_floats(lines[start + 3]).reshape(3, 4)
        lines[start + 3] = b64_line("values", np.hstack([values, np.zeros((3, 1))]))
        lines[start + 5] = b64_line("bv", np.append(b64_floats(lines[start + 5]), 0.0))
        self.rejects(tmp_path, lines, "layer 1 expects width 5")

    @pytest.mark.parametrize("shape", ["0 4", "3 0", "-3 4"])
    def test_layer_without_connections_rejected(self, tmp_path, shape):
        lines = self.dense_stack_lines(tmp_path)
        lines[lines.index("layer 1 3 4 sigmoid")] = f"layer 1 {shape} sigmoid"
        self.rejects(tmp_path, lines, "has no connections")

    def test_head_width_must_match_top_layer(self, tmp_path):
        lines = self.dense_stack_lines(tmp_path)
        i = lines.index("head 2 3 identity")
        lines[i] = "head 2 4 identity"
        lines[i + 1] = b64_line("hw", np.hstack([b64_floats(lines[i + 1]).reshape(2, 3), np.zeros((2, 1))]))
        self.rejects(tmp_path, lines, "head width")

    def test_clone_is_independent(self, small_corpus):
        net = build_trf_net(small_corpus, quick_config())
        twin = clone(net)
        twin.layers[0].values[...] += 1.0
        assert net.mask_violation() == 0.0
        assert not np.array_equal(net.layers[0].weights, twin.layers[0].weights)


@st.composite
def damaged(draw, original: bytes) -> bytes:
    """original cut short, or with one byte replaced by any byte."""
    at = draw(st.integers(0, len(original) - 1))
    if draw(st.booleans()):
        return original[:at]
    return original[:at] + bytes([draw(st.integers(0, 255))]) + original[at + 1 :]


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


# what a mutated token becomes: the edges of the integer and float parsers,
# an empty token, and keywords of the format in the wrong place
BOUNDARY_TOKENS = [
    "0", "-1", str(2**63), "9" * 400, "nan", "", "none", "dense", "layer", "plan", "field", "head",
    "identity", "sigmoid", "multitask", "config", "begin", "end",
]


@st.composite
def mutated(draw, lines: list[str]) -> list[str]:
    """lines after one to three edits: a line dropped, duplicated or swapped
    with another, or one token of a line replaced by a boundary token."""
    lines = list(lines)
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.integers(0, len(lines) - 1))
        edit = draw(st.sampled_from(["drop", "duplicate", "swap", "token"]))
        if edit == "drop":
            del lines[i]
        elif edit == "duplicate":
            lines.insert(i, lines[i])
        elif edit == "swap":
            j = draw(st.integers(0, len(lines) - 1))
            lines[i], lines[j] = lines[j], lines[i]
        else:
            tokens = lines[i].split(" ")
            tokens[draw(st.integers(0, len(tokens) - 1))] = draw(st.sampled_from(BOUNDARY_TOKENS))
            lines[i] = " ".join(tokens)
    return lines


@pytest.fixture(scope="module")
def saved_bodies(fuzz_dir, small_corpus, blob_data):
    """The body lines of a 2-layer TRF-net, a dense and a pruned baseline as
    saved, checksum line dropped, and of the v1 fixture, which has none."""
    from trfnet.baselines import DenseNetConfig, hyper_from_config, prune_and_retrain, train_dense

    trf = attach_head(build_trf_net(small_corpus, quick_config(depth=2, seed=5)), 3)
    train, valid, _ = blob_data
    cfg = DenseNetConfig(hidden_widths=(6,), epochs=1, seed=3)
    dense, _ = train_dense(train, cfg, valid)
    pruned, _ = prune_and_retrain(dense, 0.3, train, hyper_from_config(cfg), valid)
    bodies = {}
    for name, net in (("trf", trf), ("dense", dense), ("pruned", pruned)):
        save(net, fuzz_dir / f"{name}.trf")
        bodies[name] = (fuzz_dir / f"{name}.trf").read_text().splitlines()[:-1]
    bodies["v1"] = V1_FIXTURE.read_text().splitlines()
    return bodies


class TestLoaderFuzz:
    """Damaged files raise their typed error; nothing else escapes."""

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_v2_model_rejected_or_identical(self, fuzz_dir, data):
        save(v1_fixture_network(), fuzz_dir / "v2.trf")
        original = (fuzz_dir / "v2.trf").read_bytes()
        (fuzz_dir / "bad.trf").write_bytes(data.draw(damaged(original)))
        try:
            back = load(fuzz_dir / "bad.trf")
        except ModelFormatError:
            return
        save(back, fuzz_dir / "again.trf")
        assert (fuzz_dir / "again.trf").read_bytes() == original

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_v1_model_rejected_or_loaded(self, fuzz_dir, data):
        (fuzz_dir / "bad.trf").write_bytes(data.draw(damaged(V1_FIXTURE.read_bytes())))
        try:
            load(fuzz_dir / "bad.trf")
        except ModelFormatError:
            pass

    @pytest.mark.parametrize("name", ["trf", "dense", "pruned", "v1"])
    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_mutated_model_rejected_or_round_trips(self, fuzz_dir, saved_bodies, name, data):
        """A body edited and sealed again (a checksum, not a signature) still
        parses to ModelFormatError or to a network that saves and reloads
        to the same bytes, and load allocates in proportion to the file."""
        lines = data.draw(mutated(saved_bodies[name]))
        path = fuzz_dir / "mutated.trf"
        path.write_bytes(("\n".join(lines) + "\n").encode() if name == "v1" else reseal(lines))
        tracemalloc.start()
        try:
            try:
                back = load(path)
            except ModelFormatError:
                back = None
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * path.stat().st_size + (1 << 20)
        if back is not None:
            save(back, fuzz_dir / "again.trf")
            save(load(fuzz_dir / "again.trf"), fuzz_dir / "twice.trf")
            assert (fuzz_dir / "twice.trf").read_bytes() == (fuzz_dir / "again.trf").read_bytes()

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_report_rejected_or_loaded(self, fuzz_dir, data):
        r = EvalReport(parameter_count=40, sparsity=0.5, auc_per_task=(0.75, -1.0, 1.0), auc_mean=0.875)
        save_report(r, fuzz_dir / "r.report", name="multi")
        (fuzz_dir / "bad.report").write_bytes(data.draw(damaged((fuzz_dir / "r.report").read_bytes())))
        try:
            load_report(fuzz_dir / "bad.report")
        except ModelFormatError:
            pass


class TestReportFiles:
    def test_roundtrip(self, tmp_path):
        r = EvalReport(
            parameter_count=123,
            sparsity=0.25,
            accuracy=0.875,
            effective_sparsity=0.5,
        )
        path = tmp_path / "x.report"
        save_report(r, path, name="demo")
        name, back = load_report(path)
        assert name == "demo"
        assert back.accuracy == r.accuracy
        assert back.parameter_count == r.parameter_count
        assert back.sparsity == r.sparsity
        assert back.effective_sparsity == r.effective_sparsity

    def report_text(self, tmp_path):
        save_report(EvalReport(parameter_count=123, sparsity=0.25, accuracy=0.875), tmp_path / "r.report")
        return (tmp_path / "r.report").read_text()

    @pytest.mark.parametrize("key", ["parameter_count", "sparsity"])
    def test_missing_key_rejected(self, tmp_path, key):
        lines = [ln for ln in self.report_text(tmp_path).splitlines() if not ln.startswith(key + " ")]
        (tmp_path / "r.report").write_text("\n".join(lines) + "\n")
        with pytest.raises(ModelFormatError, match=key):
            load_report(tmp_path / "r.report")

    def test_unparsable_value_rejected(self, tmp_path):
        text = self.report_text(tmp_path).replace("accuracy 0.875", "accuracy high")
        (tmp_path / "r.report").write_text(text)
        with pytest.raises(ModelFormatError, match="high"):
            load_report(tmp_path / "r.report")

    def test_sparsity_outside_unit_interval_rejected(self, tmp_path):
        text = self.report_text(tmp_path).replace("sparsity 0.25", "sparsity 1.5")
        (tmp_path / "r.report").write_text(text)
        with pytest.raises(ModelFormatError, match="sparsity"):
            load_report(tmp_path / "r.report")

    @pytest.mark.parametrize(
        "line",
        [
            "accuracy nan",
            "accuracy 1.5",
            "accuracy -0.25",
            "auc_mean inf",
            "effective_sparsity 2.0",
            "auc_per_task 0.5,1.5",
            "auc_per_task -0.5,0.75",
            "auc_per_task 0.5,nan",
            "parameter_count -5",
        ],
    )
    def test_value_out_of_range_rejected(self, tmp_path, line):
        (tmp_path / "r.report").write_text(report_text_with(line))
        with pytest.raises(ModelFormatError, match=f"corrupted report: {line.split(' ')[0]}"):
            load_report(tmp_path / "r.report")

    # each report body (after its first line) read out of the order
    # report_to_text writes it, or with another field count, and its message
    LINE_EDITS = {
        "repeated-and-unknown-keys": (
            "name a\naccuracy 0.5\naccuracy 0.9\nparameter_count 3\nsparsity 0.1\nbogus_key 7\n",
            "line 4: expected 'parameter_count', found 'accuracy 0.9'",
        ),
        "unknown-key": (
            "name a\nparameter_count 3\nsparsity 0.1\nbogus_key 7\n",
            "line 5: expected the end of the file, found 'bogus_key 7'",
        ),
        "second-name": (
            "name a\nparameter_count 3\nsparsity 0.1\nname b\n", "line 5: expected the end of the file, found 'name b'"
        ),
        "missing-key": ("name a\nparameter_count 3\n", "line 4: expected 'sparsity', found the end of the file"),
        "missing-name": (
            "accuracy 0.5\nparameter_count 3\nsparsity 0.1\n", "line 2: expected 'name', found 'accuracy 0.5'"
        ),
        "reordered-keys": (
            "name a\nsparsity 0.1\nparameter_count 3\n", "line 3: expected 'parameter_count', found 'sparsity 0.1'"
        ),
        "reordered-optional-keys": (
            "name a\nauc_per_task 0.5\nauc_mean 0.5\nparameter_count 3\nsparsity 0.1\n",
            "line 4: expected 'parameter_count', found 'auc_mean 0.5'",
        ),
        "extra-field": (
            "name a\nparameter_count 3 4\nsparsity 0.1\n", "line 3: 'parameter_count' takes 1 field(s), found 2"
        ),
        "extra-optional-field": (
            "name a\naccuracy 0.5 x\nparameter_count 3\nsparsity 0.1\n", "line 3: 'accuracy' takes 1 field(s), found 2"
        ),
        "blank-line-at-the-end": (
            "name a\nparameter_count 3\nsparsity 0.1\n\n", "line 5: expected the end of the file, found ''"
        ),
    }

    @pytest.mark.parametrize("edit", LINE_EDITS)
    def test_line_out_of_order_or_with_other_fields_rejected(self, tmp_path, edit):
        text, message = self.LINE_EDITS[edit]
        (tmp_path / "r.report").write_text("trfnet-report v1\n" + text)
        with pytest.raises(ModelFormatError, match=re.escape(message)):
            load_report(tmp_path / "r.report")

    @pytest.mark.parametrize(
        "text, message",
        [LINE_EDITS["reordered-keys"], ("name a\nparameter_count 3\nsparsity 1.5\n", "corrupted report: sparsity")],
        ids=["reordered-keys", "out-of-range"],
    )
    def test_error_names_the_file_first(self, tmp_path, text, message):
        path = tmp_path / "r.report"
        path.write_text("trfnet-report v1\n" + text)
        with pytest.raises(ModelFormatError) as e:
            load_report(path)
        assert str(e.value).startswith(f"{path}: {message}")

    def test_undecodable_bytes_rejected(self, tmp_path):
        data = self.report_text(tmp_path).encode().replace(b"0.875", b"0.8\xff75")
        (tmp_path / "r.report").write_bytes(data)
        with pytest.raises(ModelFormatError, match="not UTF-8"):
            load_report(tmp_path / "r.report")

    def test_unscored_task_marker_round_trips(self, tmp_path):
        r = EvalReport(parameter_count=40, sparsity=0.5, auc_per_task=(0.75, -1.0, 1.0), auc_mean=0.875)
        save_report(r, tmp_path / "m.report", name="multi")
        name, back = load_report(tmp_path / "m.report")
        assert name == "multi"
        assert back.auc_per_task == (0.75, -1.0, 1.0)
        assert back.auc_mean == 0.875
        assert back.accuracy is None
