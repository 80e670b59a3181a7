import tracemalloc

import numpy as np
import pytest

from oracles import central_diff_grads, dense_sigmoid, max_relative_error
from trfnet import nn
from trfnet.errors import DomainError


def random_masked_layer(h, v, seed, density=0.5, activation="sigmoid"):
    rng = np.random.default_rng(seed)
    mask = (rng.random((h, v)) < density).astype(np.float64)
    mask[np.arange(h), rng.integers(0, v, size=h)] = 1.0  # no empty rows
    layer = nn.init_masked_layer(np.flatnonzero(mask), mask.shape, rng, activation=activation)
    layer.bias_hidden[:] = rng.normal(scale=0.3, size=h)
    layer.bias_visible[:] = rng.normal(scale=0.3, size=v)
    return layer, rng


def encode(layer, x):
    """One layer's eval forward through a fresh buffer pair."""
    return nn.hidden_representation([layer], x, [nn.buffers(layer)])


class TestForward:
    def test_sigmoid_at_zero(self):
        layer, _ = random_masked_layer(3, 4, seed=0)
        layer.values[:] = 0.0
        layer.bias_hidden[:] = 0.0
        out = encode(layer, np.zeros((2, 4)))
        np.testing.assert_array_equal(out, 0.5)

    def test_masked_input_has_no_influence(self):
        layer, rng = random_masked_layer(3, 5, seed=1)
        keep = layer.index % 5 != 2  # cut every connection to input 2
        layer.index, layer.values = layer.index[keep], layer.values[keep]
        x = rng.normal(size=(4, 5))
        base = encode(layer, x)
        x2 = x.copy()
        x2[:, 2] += 100.0
        np.testing.assert_array_equal(encode(layer, x2), base)

    def test_hand_values_match_scalar_evaluation(self):
        # connections (0, 0), (1, 0), (1, 1); (0, 1) does not exist
        w = np.array([0.5, -0.25, 2.0])
        layer = nn.MaskedLayer(np.array([0, 2, 3]), w, np.array([0.1, -0.2]), np.zeros(2), "sigmoid")
        x = np.array([[2.0, 3.0]])
        out = encode(layer, x)
        import math

        expect0 = 1 / (1 + math.exp(-(0.5 * 2.0 + 0.1)))
        expect1 = 1 / (1 + math.exp(-(-0.25 * 2.0 + 2.0 * 3.0 - 0.2)))
        assert out[0, 0] == pytest.approx(expect0, abs=1e-12)
        assert out[0, 1] == pytest.approx(expect1, abs=1e-12)

    def test_width_mismatch(self):
        layer, _ = random_masked_layer(3, 4, seed=2)
        with pytest.raises(ValueError):
            encode(layer, np.zeros((2, 5)))

    def test_dense_views_are_read_only(self):
        layer, _ = random_masked_layer(3, 4, seed=2)
        np.testing.assert_array_equal(np.flatnonzero(layer.mask), layer.index)
        np.testing.assert_array_equal(layer.weights.ravel()[layer.index], layer.values)
        for view in (layer.weights, layer.mask):
            with pytest.raises(ValueError):
                view[0, 0] = 1.0


def bits(a) -> bytes:
    return np.asarray(a, dtype=np.float64).tobytes()


class TestSigmoidOracle:
    def test_special_values_match_oracle_bits(self):
        z = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan,
                      709.0, -709.0, 745.0, -745.0, 1e-300, -1e-300])
        assert bits(nn.sigmoid(z)) == bits(dense_sigmoid(z))

    def test_scaled_normals_match_oracle_bits(self):
        z = np.random.default_rng(13).normal(size=10_000) * 50.0
        assert bits(nn.sigmoid(z)) == bits(dense_sigmoid(z))

    @pytest.mark.parametrize("shape", [(7,), (40, 25), (0,), (0, 3), (3, 0)])
    def test_shapes_match_oracle_bits(self, shape):
        z = np.random.default_rng(17).normal(size=shape) * 20.0
        out = nn.sigmoid(z)
        assert out.shape == shape
        assert bits(out) == bits(dense_sigmoid(z))


def single_draw_init(mask, rng):
    """init_masked_layer as one H x V uniform draw, gathered at the mask."""
    m = np.asarray(mask, dtype=np.float64)
    h, v = m.shape
    limit = np.sqrt(6.0 / (m.sum(axis=1) + h))
    w = rng.uniform(-1.0, 1.0, size=(h, v)) * limit[:, None]
    index = np.flatnonzero(m)
    return index, w.ravel()[index]


class TestInitMaskedLayer:
    @pytest.mark.parametrize("h", [1, nn.INIT_ROW_BLOCK, 2 * nn.INIT_ROW_BLOCK + 5])
    @pytest.mark.parametrize("dtype", [np.float64, np.uint8, bool])
    def test_same_bits_as_single_draw(self, h, dtype):
        mask = (np.random.default_rng(h).random((h, 37)) < 0.3).astype(dtype)
        mask[0] = 0  # an empty row
        layer = nn.init_masked_layer(np.flatnonzero(mask), mask.shape, np.random.default_rng(2))
        index, values = single_draw_init(mask, np.random.default_rng(2))
        assert layer.index.dtype == index.dtype
        np.testing.assert_array_equal(layer.index, index)
        assert bits(layer.values) == bits(values)

    def test_generator_advances_by_full_draw(self):
        mask = np.random.default_rng(4).random((70, 11)) < 0.2
        rng = np.random.default_rng(5)
        nn.init_masked_layer(np.flatnonzero(mask), mask.shape, rng)
        ref = np.random.default_rng(5)
        ref.uniform(size=70 * 11)
        assert rng.random() == ref.random()

    def test_narrow_integer_index_stored_as_int64(self):
        mask = np.random.default_rng(8).random((9, 13)) < 0.4
        index = np.flatnonzero(mask)
        layer = nn.init_masked_layer(index.astype(np.int32), mask.shape, np.random.default_rng(1))
        ref = nn.init_masked_layer(index, mask.shape, np.random.default_rng(1))
        assert layer.index.dtype == np.int64
        np.testing.assert_array_equal(layer.index, index)
        assert bits(layer.values) == bits(ref.values)

    @pytest.mark.parametrize(
        "index",
        [
            np.array([0, 5, 3]),  # unsorted
            np.array([0, 3, 3]),  # duplicate
            np.array([-1, 2]),  # before the first position
            np.array([4, 12]),  # past the last of 3 x 4 positions
            np.array([0.0, 1.0]),  # not integer
            np.array([True, False]),  # a 0/1 mask is not an index
            np.array([[0, 1], [2, 3]]),  # not 1-D
        ],
        ids=["unsorted", "duplicate", "negative", "past-end", "float", "bool", "2-d"],
    )
    def test_rejects_bad_index(self, index):
        with pytest.raises(ValueError, match="index"):
            nn.init_masked_layer(index, (3, 4), np.random.default_rng(0))

    def test_peak_memory_a_third_of_single_draw(self):
        mask = (np.random.default_rng(6).random((1005, 4000)) < 0.1).astype(np.float64)
        index = np.flatnonzero(mask)
        inits = (
            lambda rng: single_draw_init(mask, rng),
            lambda rng: nn.init_masked_layer(index, mask.shape, rng),
        )
        peaks = []
        for init in inits:
            tracemalloc.start()
            try:
                init(np.random.default_rng(0))
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] < peaks[0] / 3


class TestReconstructionLoss:
    def test_gaussian_perfect_reconstruction(self):
        x = np.random.default_rng(0).normal(size=(3, 5))
        assert nn.reconstruction_loss(x, x, nn.GAUSSIAN) == 0.0

    def test_bernoulli_at_fair_point_is_ln2_per_unit(self):
        x = np.ones((2, 4))
        z = np.zeros((2, 4))
        assert nn.reconstruction_loss(x, z, nn.BERNOULLI) == pytest.approx(
            4 * np.log(2), abs=1e-12
        )

    def test_bernoulli_vanishes_at_confident_correct(self):
        x = np.ones((1, 3))
        z = np.full((1, 3), 80.0)
        assert nn.reconstruction_loss(x, z, nn.BERNOULLI) < 1e-20

    def test_bernoulli_finite_for_huge_logits(self):
        x = np.zeros((1, 2))
        z = np.array([[1e4, -1e4]])
        assert np.isfinite(nn.reconstruction_loss(x, z, nn.BERNOULLI))

    def test_bernoulli_domain_check(self):
        with pytest.raises(DomainError):
            nn.reconstruction_loss(np.array([[1.5, 0.0]]), np.zeros((1, 2)), nn.BERNOULLI)


class TestDaeGradients:
    @pytest.mark.parametrize("family", [nn.BERNOULLI, nn.GAUSSIAN])
    def test_against_finite_differences(self, family):
        rng = np.random.default_rng(17)
        layer, _ = random_masked_layer(5, 7, seed=17)
        if family == nn.BERNOULLI:
            x = (rng.random((6, 7)) < 0.5).astype(np.float64)
        else:
            x = rng.normal(size=(6, 7))
        x_tilde = x * (rng.random(x.shape) >= 0.3)
        buf = nn.buffers(layer)
        _, analytic = nn.dae_gradients(layer, x, x_tilde, family, buf)
        arrays = {
            "weights": layer.values,
            "bias_hidden": layer.bias_hidden,
            "bias_visible": layer.bias_visible,
        }
        numeric = central_diff_grads(
            lambda: nn.dae_gradients(layer, x, x_tilde, family, buf)[0], arrays
        )
        for name in arrays:
            assert max_relative_error(analytic[name], numeric[name]) <= 1e-4

    def test_masked_positions_get_zero_gradient(self):
        layer, rng = random_masked_layer(4, 6, seed=23)
        x = (rng.random((5, 6)) < 0.5).astype(np.float64)
        _, grads = nn.dae_gradients(layer, x, x, nn.BERNOULLI, nn.buffers(layer))
        # one gradient per connection: an unconnected position has none to take
        assert grads["weights"].shape == layer.index.shape

    def test_loss_equals_composed_operations(self):
        layer, rng = random_masked_layer(4, 6, seed=29)
        x = (rng.random((5, 6)) < 0.5).astype(np.float64)
        x_tilde = x * (rng.random(x.shape) >= 0.2)
        loss, _ = nn.dae_gradients(layer, x, x_tilde, nn.BERNOULLI, nn.buffers(layer))
        h = encode(layer, x_tilde)
        z = h @ layer.weights + layer.bias_visible  # tied-transpose decoder
        assert loss == nn.reconstruction_loss(x, z, nn.BERNOULLI)


class TestClassifierStack:
    def test_gradients_against_finite_differences(self):
        rng = np.random.default_rng(31)
        layer, _ = random_masked_layer(5, 7, seed=31, activation="relu")
        head = nn.init_dense_layer(3, 5, rng)
        x = rng.normal(size=(6, 7))
        y = rng.integers(0, 3, size=6)
        bufs = [nn.buffers(layer)]

        def loss_fn():
            logits, _ = nn.stack_forward([layer], head, x, bufs)
            return nn.softmax_cross_entropy(logits, y)[0]

        logits, caches = nn.stack_forward([layer], head, x, bufs)
        _, dlogits = nn.softmax_cross_entropy(logits, y)
        g = nn.stack_backward([layer], head, caches, dlogits, bufs)
        arrays = {
            "w": layer.values,
            "bh": layer.bias_hidden,
            "hw": head.weights,
            "hb": head.bias,
        }
        numeric = central_diff_grads(loss_fn, arrays)
        assert max_relative_error(g["layers"][0]["weights"], numeric["w"]) <= 1e-4
        assert max_relative_error(g["layers"][0]["bias_hidden"], numeric["bh"]) <= 1e-4
        assert max_relative_error(g["head"]["weights"], numeric["hw"]) <= 1e-4
        assert max_relative_error(g["head"]["bias"], numeric["hb"]) <= 1e-4

    def test_multitask_loss_gradients_and_missing_labels(self):
        rng = np.random.default_rng(37)
        logits = rng.normal(size=(5, 3))
        targets = rng.integers(0, 2, size=(5, 3)).astype(np.float64)
        targets[0, 1] = -1
        targets[3, 2] = -1

        z = logits.copy()
        _, dlogits = nn.multitask_sigmoid_loss(z, targets)
        assert dlogits[0, 1] == 0.0 and dlogits[3, 2] == 0.0
        numeric = central_diff_grads(
            lambda: nn.multitask_sigmoid_loss(z, targets)[0], {"z": z}
        )
        assert max_relative_error(dlogits, numeric["z"]) <= 1e-4


class TestMultitaskLossBits:
    """multitask_sigmoid_loss against the textbook form, bit for bit, out to
    the logits where exp(-|z|) reaches the last subnormal."""

    @staticmethod
    def reference(z, t):
        observed = t >= 0
        count = int(observed.sum())
        t_safe = np.where(observed, t, 0.0)
        elem = np.maximum(z, 0.0) - t_safe * z + np.log1p(np.exp(-np.abs(z)))
        loss = float((elem * observed).sum() / count)
        return loss, (dense_sigmoid(z) - t_safe) * observed / count

    def grid(self):
        rng = np.random.default_rng(59)
        z = rng.uniform(-745.0, 745.0, size=(9, 6))
        z[0] = [745.0, -745.0, 744.5, -744.5, 0.0, -0.0]
        z[1] = [36.8, -36.8, 1e-300, -1e-300, 709.0, -709.0]
        t = rng.integers(-1, 2, size=z.shape).astype(np.float64)
        t[0] = [1.0, 0.0, 0.0, 1.0, 1.0, -1.0]
        t[1] = [1.0, 1.0, 0.0, 0.0, 0.0, 1.0]
        return z, t

    def test_batch_matches_the_reference_bits(self):
        z, t = self.grid()
        loss, dlogits = nn.multitask_sigmoid_loss(z, t)
        want_loss, want_dlogits = self.reference(z, t)
        assert bits(loss) == bits(want_loss)
        assert bits(dlogits) == bits(want_dlogits)
        np.testing.assert_array_equal(dlogits[t < 0], 0.0)

    def test_each_observed_entry_matches_the_reference_bits(self):
        z, t = self.grid()
        for i, j in zip(*np.nonzero(t >= 0)):
            one_z, one_t = z[i : i + 1, j : j + 1], t[i : i + 1, j : j + 1]
            loss, dlogits = nn.multitask_sigmoid_loss(one_z, one_t)
            want_loss, want_dlogits = self.reference(one_z, one_t)
            assert bits(loss) == bits(want_loss), (one_z, one_t)
            assert bits(dlogits) == bits(want_dlogits), (one_z, one_t)


def repeat_allocation(call) -> int:
    """Bytes a second call allocates above what is live before it, under
    tracemalloc: the peak minus the current size after the first call."""
    tracemalloc.start()
    try:
        call()
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        call()
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


class TestLoopBuffers:
    """A training loop's steps reuse its dense H x V buffers: a step after the
    first allocates less than one H x V float64 array."""

    H, V, B = 300, 400, 8

    def test_dae_step_reuses_the_loops_buffers(self):
        layer, rng = random_masked_layer(self.H, self.V, seed=43, density=0.1)
        x = (rng.random((self.B, self.V)) < 0.5).astype(np.float64)
        x_tilde = x * (rng.random(x.shape) >= 0.2)
        buf = nn.buffers(layer)
        grown = repeat_allocation(lambda: nn.dae_gradients(layer, x, x_tilde, nn.BERNOULLI, buf))
        assert grown < self.H * self.V * 8

    def test_classifier_step_reuses_the_loops_buffers(self):
        layer, rng = random_masked_layer(self.H, self.V, seed=47, density=0.1, activation="relu")
        head = nn.init_dense_layer(3, self.H, rng)
        x = rng.normal(size=(self.B, self.V))
        bufs = [nn.buffers(layer)]

        def step():
            logits, caches = nn.stack_forward([layer], head, x, bufs, 0.5, rng)
            _, dlogits = nn.softmax_cross_entropy(logits, np.zeros(self.B, dtype=np.int64))
            return nn.stack_backward([layer], head, caches, dlogits, bufs)

        assert repeat_allocation(step) < self.H * self.V * 8

    def test_reused_pair_gives_a_fresh_pairs_bits(self):
        layer, rng = random_masked_layer(7, 9, seed=53)
        x = (rng.random((5, 9)) < 0.5).astype(np.float64)
        buf = nn.buffers(layer)
        nn.dae_gradients(layer, x, x, nn.BERNOULLI, buf)
        layer.values[:] = rng.normal(size=layer.values.shape)
        loss, grads = nn.dae_gradients(layer, x, x, nn.BERNOULLI, buf)
        fresh_loss, fresh = nn.dae_gradients(layer, x, x, nn.BERNOULLI, nn.buffers(layer))
        assert loss == fresh_loss
        for name in fresh:
            assert grads[name].tobytes() == fresh[name].tobytes()

    def test_buffer_of_another_shape_rejected(self):
        layer, rng = random_masked_layer(4, 6, seed=59)
        other, _ = random_masked_layer(6, 4, seed=59)
        x = (rng.random((3, 6)) < 0.5).astype(np.float64)
        with pytest.raises(ValueError, match="buffer shape"):
            nn.dae_gradients(layer, x, x, nn.BERNOULLI, nn.buffers(other))


class TestSoftmaxLabels:
    @pytest.mark.parametrize("bad", [-1, 3])
    def test_out_of_range_label_named(self, bad):
        logits = np.zeros((4, 3))
        with pytest.raises(ValueError, match=f"label {bad} "):
            nn.softmax_cross_entropy(logits, np.array([0, 1, bad, 2]))

    def test_float_labels_rejected(self):
        with pytest.raises(ValueError, match="integers"):
            nn.softmax_cross_entropy(np.zeros((2, 3)), np.array([0.0, 1.0]))

    def test_label_count_must_match_batch(self):
        with pytest.raises(ValueError, match="labels"):
            nn.softmax_cross_entropy(np.zeros((2, 3)), np.array([0, 1, 2]))


class TestAdam:
    def test_zero_gradient_is_fixed_point(self):
        p = {"w": np.array([1.0, -2.0, 3.0])}
        adam = nn.Adam()
        for _ in range(5):
            adam.step(p, {"w": np.zeros(3)})
        np.testing.assert_array_equal(p["w"], [1.0, -2.0, 3.0])

    def test_first_step_moves_by_stepsize_times_sign(self):
        # with constant gradient g, the bias-corrected first step is
        # -step * g / (|g| + eps') ~= -step * sign(g)
        for g in (0.3, -4.0):
            p = {"w": np.array([0.0])}
            nn.Adam(step_size=1e-3).step(p, {"w": np.array([g])})
            assert p["w"][0] == pytest.approx(-1e-3 * np.sign(g), rel=1e-6)

    def test_mask_reapplied_after_step(self):
        # a 1 x 2 layer connected at (0, 0) only: the step updates its one value
        layer = nn.MaskedLayer(np.array([0]), np.array([0.5]), np.zeros(1), np.zeros(2))
        p = {"w": layer.values}
        with pytest.raises(ValueError):  # a gradient for the unconnected slot has no place
            nn.Adam().step(p, {"w": np.array([0.1, 0.7])})
        nn.Adam().step(p, {"w": np.array([0.1])})
        assert layer.values[0] != 0.5
        assert layer.weights[0, 1] == 0.0

    def test_nan_gradient_aborts_without_state_change(self):
        p = {"w": np.array([1.0])}
        adam = nn.Adam()
        with pytest.raises(FloatingPointError):
            adam.step(p, {"w": np.array([np.nan])})
        assert p["w"][0] == 1.0
        assert adam.t == 0


class TestDropout:
    def test_rate_zero_is_identity(self):
        x = np.random.default_rng(0).normal(size=(3, 4))
        y, scale = nn.dropout(x, 0.0, np.random.default_rng(1))
        np.testing.assert_array_equal(y, x)
        np.testing.assert_array_equal(scale, 1.0)

    def test_zeroed_fraction_concentrates(self):
        x = np.ones((1, 100_000))
        y, _ = nn.dropout(x, 0.5, np.random.default_rng(2))
        assert (y == 0).mean() == pytest.approx(0.5, abs=0.01)

    def test_survivors_scaled_up(self):
        x = np.ones((1, 1000))
        y, _ = nn.dropout(x, 0.25, np.random.default_rng(3))
        survivors = y[y != 0]
        np.testing.assert_allclose(survivors, 1.0 / 0.75)

    def test_rate_one_rejected(self):
        with pytest.raises(ValueError):
            nn.dropout(np.ones((1, 2)), 1.0, np.random.default_rng(0))


class TestMaskInvariance:
    def test_training_steps_never_write_masked_entries(self):
        rng = np.random.default_rng(41)
        layer, _ = random_masked_layer(6, 9, seed=41)
        adam = nn.Adam(step_size=0.01)
        params = {
            "w": layer.values,
            "bh": layer.bias_hidden,
            "bv": layer.bias_visible,
        }
        x = (rng.random((30, 9)) < 0.5).astype(np.float64)
        buf = nn.buffers(layer)
        for _ in range(25):
            x_tilde = x * (rng.random(x.shape) >= 0.2)
            _, grads = nn.dae_gradients(layer, x, x_tilde, nn.BERNOULLI, buf)
            adam.step(
                params,
                {"w": grads["weights"], "bh": grads["bias_hidden"], "bv": grads["bias_visible"]},
            )
        np.testing.assert_array_equal(layer.weights * (1 - layer.mask), 0.0)
        assert np.isfinite(layer.weights).all()
