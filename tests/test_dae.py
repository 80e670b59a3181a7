import tracemalloc

import numpy as np
import pytest

from conftest import random_binary_dataset
from trfnet import nn
from trfnet.dae import CorruptionConfig, DaeHyper, corrupt, project, resolve_family, train_dae
from trfnet.data import Dataset, Nonzeros
from trfnet.errors import DomainError


def dense_mask(h, v):
    """(index, shape) of a fully connected h x v layer, as train_dae takes them."""
    return np.arange(h * v), (h, v)


class TestCorrupt:
    def test_rate_zero_is_identity(self):
        x = np.random.default_rng(0).normal(size=(4, 5))
        out = corrupt(x, CorruptionConfig("masking", 0.0), np.random.default_rng(1))
        np.testing.assert_array_equal(out, x)

    def test_rate_one_zeroes_everything(self):
        x = np.random.default_rng(0).normal(size=(4, 5))
        out = corrupt(x, CorruptionConfig("masking", 1.0), np.random.default_rng(1))
        np.testing.assert_array_equal(out, 0.0)

    def test_masking_fraction_concentrates(self):
        x = np.ones((1, 100_000))
        out = corrupt(x, CorruptionConfig("masking", 0.3), np.random.default_rng(2))
        assert (out == 0).mean() == pytest.approx(0.3, abs=0.01)

    def test_gaussian_additive_changes_scale_not_support(self):
        x = np.zeros((1, 50_000))
        out = corrupt(x, CorruptionConfig("gaussian-additive", 0.2), np.random.default_rng(3))
        assert out.std() == pytest.approx(0.2, abs=0.01)

    def test_bad_configs_rejected(self):
        with pytest.raises(ValueError):
            CorruptionConfig("masking", 1.5)
        with pytest.raises(ValueError):
            CorruptionConfig("gaussian-additive", -0.1)
        with pytest.raises(ValueError):
            CorruptionConfig("salt-pepper", 0.1)


class TestResolveFamily:
    def test_auto_picks_bernoulli_for_unit_interval(self):
        assert resolve_family(np.array([[0.0, 1.0]]), "auto") == nn.BERNOULLI

    def test_auto_picks_gaussian_for_counts(self):
        assert resolve_family(np.array([[0.0, 3.0]]), "auto") == nn.GAUSSIAN

    def test_explicit_request_wins(self):
        assert resolve_family(np.array([[0.0, 1.0]]), "gaussian") == nn.GAUSSIAN


class TestTrainDae:
    def test_loss_decreases(self, small_corpus):
        _, log = train_dae(
            *dense_mask(16, small_corpus.n_features),
            small_corpus,
            CorruptionConfig("masking", 0.2),
            DaeHyper(epochs=8, batch_size=64, seed=0),
        )
        assert len(log) == 8
        assert log[-1] < log[0]

    def test_identity_capable_autoencoder_drives_loss_down(self):
        d = random_binary_dataset(120, 6, seed=3)
        index, shape = dense_mask(6, 6)
        _, log = train_dae(
            d=d,
            index=index,
            shape=shape,
            c=CorruptionConfig("masking", 0.0),
            h=DaeHyper(epochs=1000, batch_size=120, step_size=0.2, seed=1),
        )
        assert log[-1] < 0.01  # near-perfect copy of binary input

    def test_mask_invariance_after_training(self):
        rng = np.random.default_rng(5)
        a = (rng.random((10, 12)) < 0.4).astype(np.uint8)
        a[np.arange(10), rng.integers(0, 12, 10)] = 1
        d = random_binary_dataset(80, 12, seed=6)
        layer, _ = train_dae(
            np.flatnonzero(a), a.shape, d, CorruptionConfig("masking", 0.2), DaeHyper(epochs=5, seed=2)
        )
        np.testing.assert_array_equal(layer.mask, a)
        np.testing.assert_array_equal(layer.weights * (1 - a), 0.0)

    def test_bernoulli_rejects_out_of_range_data(self):
        d = Dataset(np.array([[0.0, 5.0], [1.0, 2.0]]))
        with pytest.raises(DomainError):
            train_dae(
                *dense_mask(2, 2), d, CorruptionConfig(), DaeHyper(epochs=1, loss_family="bernoulli")
            )

    def test_deterministic_given_seed(self, small_corpus):
        mask = dense_mask(8, small_corpus.n_features)
        c = CorruptionConfig("masking", 0.2)
        h = DaeHyper(epochs=3, batch_size=64, seed=9)
        layer1, log1 = train_dae(*mask, small_corpus, c, h)
        layer2, log2 = train_dae(*mask, small_corpus, c, h)
        np.testing.assert_array_equal(layer1.weights, layer2.weights)
        assert log1 == log2

    def test_width_mismatch(self, small_corpus):
        with pytest.raises(ValueError, match="width 7"):
            train_dae(*dense_mask(4, 7), small_corpus, CorruptionConfig(), DaeHyper(epochs=1))


class TestProject:
    def test_zero_weights_give_half_probabilities_and_zero_binary(self):
        layer = nn.MaskedLayer(
            index=np.arange(12),
            values=np.zeros(12),
            bias_hidden=np.zeros(3),
            bias_visible=np.zeros(4),
        )
        d = random_binary_dataset(10, 4, seed=1)
        probs, hard = project(layer, d)
        np.testing.assert_array_equal(probs.values, 0.5)
        np.testing.assert_array_equal(hard.rows(np.arange(hard.n_samples)), 0)  # strict > 0.5

    def test_threshold(self):
        layer = nn.MaskedLayer(
            index=np.arange(8),
            values=np.zeros(8),
            bias_hidden=np.array([np.log(0.7 / 0.3), -1.0]),
            bias_visible=np.zeros(4),
        )
        d = random_binary_dataset(5, 4, seed=2)
        probs, hard = project(layer, d)
        assert probs.values[0, 0] == pytest.approx(0.7, abs=1e-12)
        np.testing.assert_array_equal(hard.rows(np.arange(hard.n_samples))[:, 0], 1)
        np.testing.assert_array_equal(hard.rows(np.arange(hard.n_samples))[:, 1], 0)

    def test_projected_width_is_hidden_count(self, small_corpus):
        mask = dense_mask(9, small_corpus.n_features)
        layer, _ = train_dae(*mask, small_corpus, CorruptionConfig(), DaeHyper(epochs=1, seed=0))
        probs, hard = project(layer, small_corpus)
        assert probs.n_features == 9 and hard.n_features == 9
        np.testing.assert_array_equal(probs.labels, small_corpus.labels)
        from trfnet.tree import chow_liu

        t = chow_liu(hard)
        assert t.node_count == 9

    def test_probabilities_strictly_inside_unit_interval(self, small_corpus):
        mask = dense_mask(5, small_corpus.n_features)
        layer, _ = train_dae(*mask, small_corpus, CorruptionConfig(), DaeHyper(epochs=2, seed=3))
        probs, hard = project(layer, small_corpus)
        assert (probs.values > 0).all() and (probs.values < 1).all()
        np.testing.assert_array_equal(hard.rows(np.arange(hard.n_samples)), (probs.values > 0.5).astype(np.int8))


class TestProjectMemory:
    def test_peak_holds_one_dense_input_and_two_hidden_arrays(self):
        """project at news-d2's layer-0 shape (N = 1400 documents, V = 2000 words,
        H = 550 units), with the bits of the out-of-place forward."""
        n, v, h = 1400, 2000, 550
        rng = np.random.default_rng(43)
        counts = rng.poisson(0.05, size=(n, v)).astype(np.float64)
        rows, cols = np.nonzero(counts)
        d = Dataset(Nonzeros(counts.shape, np.searchsorted(rows, np.arange(n + 1)), cols, counts[rows, cols]))
        index = np.sort(rng.choice(h * v, size=105_896, replace=False))
        layer = nn.init_masked_layer(index, (h, v), rng)
        layer.bias_hidden[:] = rng.normal(size=h)
        tracemalloc.start()
        try:
            probs, hard = project(layer, d)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        dense_input = n * v * 8
        buffer_pair = 2 * h * v * 8  # nn.buffers' w and g; g is never written here
        hidden = n * h * 8
        # 46.2 MB measured: the input, the pair and the product.  Keeping the input alive
        # through an out-of-place sigmoid, which holds four hidden arrays, reads 64.6 MB
        assert peak < dense_input + buffer_pair + 2 * hidden + (1 << 20)
        w = np.zeros((h, v))
        w.ravel()[layer.index] = layer.values
        expected = nn.sigmoid(counts @ w.T + layer.bias_hidden)
        assert probs.values.tobytes() == expected.tobytes()
        np.testing.assert_array_equal(hard.rows(np.arange(hard.n_samples)), (expected > 0.5).astype(np.int8))


class TestDaeBernoulliLoss:
    def setup_method(self):
        rng = np.random.default_rng(41)
        mask = rng.random((40, 70)) < 0.3
        self.layer = nn.init_masked_layer(np.flatnonzero(mask), mask.shape, rng)
        self.layer.values[...] *= 40.0  # decoder logits reach well past +-30
        self.layer.bias_visible[:] = rng.normal(scale=5.0, size=70)
        self.x = (rng.random((25, 70)) < 0.4).astype(np.float64)
        self.x_tilde = self.x * (rng.random(self.x.shape) >= 0.3)

    def grads(self):
        return [np.zeros_like(a) for a in (self.layer.values, self.layer.bias_hidden, self.layer.bias_visible)]

    def test_loss_equals_reconstruction_loss_bits(self):
        loss = nn.dae_gradients(self.layer, self.x, self.x_tilde, nn.BERNOULLI, nn.buffers(self.layer), self.grads())
        h = nn.hidden_representation([self.layer], self.x_tilde, [nn.buffers(self.layer)])
        z = h @ self.layer.weights + self.layer.bias_visible  # tied-transpose decoder
        assert np.abs(z).max() > 30.0
        expected = nn.reconstruction_loss(self.x, z, nn.BERNOULLI)
        assert np.float64(loss).tobytes() == np.float64(expected).tobytes()

    @pytest.mark.parametrize("bad", [1.5, -0.5])
    def test_targets_outside_unit_interval_raise(self, bad):
        x = self.x.copy()
        x[3, 5] = bad
        with pytest.raises(DomainError):
            nn.dae_gradients(self.layer, x, self.x_tilde, nn.BERNOULLI, nn.buffers(self.layer), self.grads())
