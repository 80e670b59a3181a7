import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from oracles import DenseMaskedAdam, central_diff_grads, dense_sigmoid, max_relative_error
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


def dae_grads(layer):
    """A gradient list for dae_gradients to write: one zero array per trainable array of layer."""
    return [np.zeros_like(a) for a in (layer.values, layer.bias_hidden, layer.bias_visible)]


def stack_grads(layers, head):
    """A gradient list for stack_backward to write, in stack_params order."""
    return [np.zeros_like(a) for a in nn.stack_params(layers, head)]


def encode(layer, x):
    """One layer's eval forward through what a fresh buffers() call gives it."""
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
        layer = replace(layer, index=layer.index[keep], values=layer.values[keep])
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


# every class of input the in-place activations must treat as the fresh ones do
SPECIAL_INPUTS = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 709.0, -709.0,
                           745.0, -745.0, 746.0, -746.0, 1e4, -1e4, 1e-300, -1e-300, 2.5, -2.5])


class TestInPlaceActivations:
    """fn(z, out=z) overwrites z with the bits the out-of-place call gives."""

    def test_sigmoid_in_place_matches_oracle_bits(self):
        z = np.concatenate([SPECIAL_INPUTS, np.random.default_rng(19).normal(size=5000) * 400.0])
        expected = bits(dense_sigmoid(z))
        work = z.copy()
        out = nn.sigmoid(work, out=work)
        assert out is work
        assert bits(work) == expected
        assert bits(nn.sigmoid(z)) == expected

    def test_relu_in_place_matches_maximum_bits(self):
        z = np.concatenate([SPECIAL_INPUTS, np.random.default_rng(23).normal(size=5000)])
        work = z.copy()
        assert nn.relu(work, out=work) is work
        assert bits(work) == bits(np.maximum(z, 0.0))

    def test_out_of_place_calls_leave_their_input(self):
        z = np.concatenate([SPECIAL_INPUTS, np.random.default_rng(29).normal(size=100)])
        before = bits(z)
        for name, act in nn.ACTIVATIONS.items():
            act.fn(z)
            assert bits(z) == before, name


def two_layer_stack(activation, seed):
    """A sparse 9 x 12 layer feeding a full 5 x 9 layer, both of one activation."""
    first, rng = random_masked_layer(9, 12, seed=seed, activation=activation)
    second = nn.init_masked_layer(np.arange(5 * 9), (5, 9), rng, activation=activation)
    second.bias_hidden[:] = rng.normal(scale=0.3, size=5)
    return [first, second], rng


def dense_weights(layer):
    w = np.zeros((layer.hidden_count, layer.visible_count))
    w.ravel()[layer.index] = layer.values
    return w


class TestEvalForwardInPlace:
    """hidden_representation activates in place and lets go of its input; the
    bits are those of the chained out-of-place forward, and no array the caller
    holds is written."""

    @pytest.mark.parametrize("activation", ["sigmoid", "relu", "identity"])
    def test_two_layers_match_chained_out_of_place_reference(self, activation):
        layers, rng = two_layer_stack(activation, seed=31)
        x = rng.normal(scale=3.0, size=(20, 12))
        x[0, :4] = [1e4, -1e4, 5e3, -5e3]  # pre-activations past |z| = 745
        x[1, :2] = [800.0, -800.0]
        reference = {"sigmoid": dense_sigmoid, "relu": lambda z: np.maximum(z, 0.0), "identity": lambda z: z}
        expected = x
        for layer in layers:
            expected = reference[activation](expected @ dense_weights(layer).T + layer.bias_hidden)
        got = nn.hidden_representation(layers, x, [nn.buffers(layer) for layer in layers])
        assert bits(got) == bits(expected)

    @pytest.mark.parametrize("activation", ["sigmoid", "relu", "identity"])
    def test_callers_arrays_are_never_written(self, activation):
        """Neither the input nor the values, which the full second layer computes on in place."""
        layers, rng = two_layer_stack(activation, seed=37)
        x = rng.normal(size=(8, 12))
        before = [bits(x)] + [bits(layer.values) for layer in layers]
        bufs = [nn.buffers(layer) for layer in layers]
        nn.hidden_representation(layers, x, bufs)
        nn.hidden_representation(layers[:1], x, bufs[:1])
        assert [bits(x)] + [bits(layer.values) for layer in layers] == before
        x.flags.writeable = False  # a read-only input needs no copy either
        nn.hidden_representation(layers, x, bufs)


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

    @pytest.mark.parametrize("rows", [1, 35])
    def test_bernoulli_in_place_gives_the_expression_bits(self, rows):
        rng = np.random.default_rng(rows)
        x = (rng.random((rows, 37)) < 0.4).astype(np.float64)
        z = rng.normal(scale=30.0, size=x.shape)
        z[0, :4] = [0.0, -0.0, 800.0, -800.0]
        whole = np.maximum(z, 0.0) - x * z + np.log1p(np.exp(-np.abs(z)))
        expected = bits(float(whole.sum(axis=1).mean()))
        assert bits(nn.reconstruction_loss(x, z, nn.BERNOULLI)) == expected
        spent = z.copy()
        assert bits(nn._bernoulli_loss(x, spent, nn._exp_neg_abs(z), out=spent)) == expected


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
        analytic = dae_grads(layer)
        arrays = {
            "weights": layer.values,
            "bias_hidden": layer.bias_hidden,
            "bias_visible": layer.bias_visible,
        }
        numeric = central_diff_grads(
            lambda: nn.dae_gradients(layer, x, x_tilde, family, buf, analytic), arrays
        )
        nn.dae_gradients(layer, x, x_tilde, family, buf, analytic)  # at the unperturbed arrays
        for g, name in zip(analytic, arrays, strict=True):
            assert max_relative_error(g, numeric[name]) <= 1e-4

    def test_masked_positions_get_no_gradient_slot(self):
        layer, rng = random_masked_layer(4, 6, seed=23)
        x = (rng.random((5, 6)) < 0.5).astype(np.float64)
        grads = dae_grads(layer)
        nn.dae_gradients(layer, x, x, nn.BERNOULLI, nn.buffers(layer), grads)
        # one gradient per connection: an unconnected position has none to take
        assert grads[0].shape == layer.index.shape
        with pytest.raises(ValueError):
            nn.dae_gradients(layer, x, x, nn.BERNOULLI, nn.buffers(layer), [np.zeros(4 * 6), *grads[1:]])

    def test_one_call_holds_three_batch_by_visible_arrays(self):
        """At news-d2's layer-0 shape (550 x 2000, about 10% connected, batch
        128) a call's batch x V arrays are the decoder output (which becomes
        the loss terms, then the output gradient), exp(-|z|) and the loss's
        one scratch array, beside batch x H and connection-sized ones: under
        3.6 such arrays at its peak (3.4 measured).  With the bias added out
        of place, a fresh output gradient and a fresh loss expression it held
        4.7, one array more.
        """
        h, v, b = 550, 2000, 128
        layer, rng = random_masked_layer(h, v, seed=31, density=0.1)
        x = (rng.random((b, v)) < 0.1).astype(np.float64)
        x_tilde = x * (rng.random(x.shape) >= 0.3)
        buf, grads = nn.buffers(layer), dae_grads(layer)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            nn.dae_gradients(layer, x, x_tilde, nn.BERNOULLI, buf, grads)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak < 3.6 * b * v * 8

    def test_loss_equals_composed_operations(self):
        layer, rng = random_masked_layer(4, 6, seed=29)
        x = (rng.random((5, 6)) < 0.5).astype(np.float64)
        x_tilde = x * (rng.random(x.shape) >= 0.2)
        loss = nn.dae_gradients(layer, x, x_tilde, nn.BERNOULLI, nn.buffers(layer), dae_grads(layer))
        h = encode(layer, x_tilde)
        z = h @ layer.weights + layer.bias_visible  # tied-transpose decoder
        assert loss == nn.reconstruction_loss(x, z, nn.BERNOULLI)


class TestClassifierStack:
    @pytest.mark.parametrize("activation", sorted(nn.ACTIVATIONS))
    def test_gradients_against_finite_differences(self, activation):
        rng = np.random.default_rng(31)
        layer, _ = random_masked_layer(5, 7, seed=31, activation=activation)
        head = nn.init_dense_layer(3, 5, rng)
        x = rng.normal(size=(6, 7))
        y = rng.integers(0, 3, size=6)
        bufs = [nn.buffers(layer)]

        def loss_fn():
            logits, _ = nn.stack_forward([layer], head, x, bufs)
            return nn.softmax_cross_entropy(logits, y)[0]

        logits, caches = nn.stack_forward([layer], head, x, bufs)
        _, dlogits = nn.softmax_cross_entropy(logits, y)
        g = stack_grads([layer], head)
        nn.stack_backward([layer], head, caches, dlogits, bufs, g)
        arrays = {
            "w": layer.values,
            "bh": layer.bias_hidden,
            "hw": head.weights,
            "hb": head.bias,
        }
        assert [id(a) for a in nn.stack_params([layer], head)] == [id(a) for a in arrays.values()]
        numeric = central_diff_grads(loss_fn, arrays)
        assert max_relative_error(g[0], numeric["w"]) <= 1e-4
        assert max_relative_error(g[1], numeric["bh"]) <= 1e-4
        assert max_relative_error(g[2], numeric["hw"]) <= 1e-4
        assert max_relative_error(g[3], numeric["hb"]) <= 1e-4

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
        buf, grads = nn.buffers(layer), dae_grads(layer)
        grown = repeat_allocation(lambda: nn.dae_gradients(layer, x, x_tilde, nn.BERNOULLI, buf, grads))
        assert grown < self.H * self.V * 8

    def test_classifier_step_reuses_the_loops_buffers(self):
        layer, rng = random_masked_layer(self.H, self.V, seed=47, density=0.1, activation="relu")
        head = nn.init_dense_layer(3, self.H, rng)
        x = rng.normal(size=(self.B, self.V))
        bufs, grads = [nn.buffers(layer)], stack_grads([layer], head)

        def step():
            logits, caches = nn.stack_forward([layer], head, x, bufs, 0.5, rng)
            _, dlogits = nn.softmax_cross_entropy(logits, np.zeros(self.B, dtype=np.int64))
            nn.stack_backward([layer], head, caches, dlogits, bufs, grads)

        assert repeat_allocation(step) < self.H * self.V * 8

    def test_full_layer_finetune_step_allocates_less_than_one_layer(self):
        """A fine-tuning step of a full 256 x 2000 layer (baselines-dense256's
        shape, batch 128) writes its weight gradient into Adam's array, so it
        allocates less than one 256 x 2000 float64 array: a fresh a.T @ b per
        step would be one such array by itself."""
        h, v, b = 256, 2000, 128
        layer, rng = full_layer(h, v, seed=83)
        layer = replace(layer, activation="relu")
        head = nn.init_dense_layer(2, h, rng)
        x = (rng.random((b, v)) < 0.05).astype(np.float64)
        y = rng.integers(0, 2, size=b)
        adam = nn.Adam(nn.stack_params([layer], head))

        def step():
            logits, caches = nn.stack_forward([layer], head, x, [None], 0.5, rng)
            _, dlogits = nn.softmax_cross_entropy(logits, y)
            nn.stack_backward([layer], head, caches, dlogits, [None], adam.grads)
            adam.step()

        assert repeat_allocation(step) < h * v * 8

    def test_sparse_gather_copies_at_most_one_block_of_the_index(self):
        """np.take copies a read-only index, so a sparse layer's weight gradient
        is gathered nn.ADAM_BLOCK connections at a time: a gather into a bound
        gradient allocates less than a quarter of the int64 index, where one
        whole-index np.take allocates all of it, with the same bits."""
        layer, rng = random_masked_layer(400, 2000, seed=89, density=0.3)
        assert layer.index.size >= 200_000 and not layer.index.flags.writeable
        a, b = rng.normal(size=(4, 400)), rng.normal(size=(4, 2000))
        buf, out = nn.buffers(layer), np.empty(layer.values.size)
        assert repeat_allocation(lambda: nn._weight_gradient(layer, a, b, buf, out)) < layer.index.nbytes / 4
        assert out.tobytes() == buf.g.ravel()[layer.index].tobytes()

    def test_reused_pair_gives_a_fresh_pairs_bits(self):
        layer, rng = random_masked_layer(7, 9, seed=53)
        x = (rng.random((5, 9)) < 0.5).astype(np.float64)
        buf, grads, fresh = nn.buffers(layer), dae_grads(layer), dae_grads(layer)
        nn.dae_gradients(layer, x, x, nn.BERNOULLI, buf, grads)
        layer.values[:] = rng.normal(size=layer.values.shape)
        loss = nn.dae_gradients(layer, x, x, nn.BERNOULLI, buf, grads)
        fresh_loss = nn.dae_gradients(layer, x, x, nn.BERNOULLI, nn.buffers(layer), fresh)
        assert loss == fresh_loss
        for g, f in zip(grads, fresh, strict=True):
            assert g.tobytes() == f.tobytes()

    @pytest.mark.parametrize(
        "index",
        [
            np.random.default_rng(61).permutation(12),  # every connection, out of order
            np.array([0, 5, 3]),
            np.array([0, 3, 3]),
            np.array([-1, 2]),
            np.array([4, 12]),
        ],
        ids=["permuted-arange", "unsorted", "duplicate", "negative", "past-end"],
    )
    def test_index_that_does_not_rise_strictly_rejected(self, index):
        """The layer rejects it when it is made, so buffers never sees one."""
        with pytest.raises(ValueError, match=r"index must rise strictly inside \[0, 12\)"):
            nn.MaskedLayer(index, np.zeros(index.size), np.zeros(3), np.zeros(4))

    def test_buffer_of_another_shape_rejected(self):
        layer, rng = random_masked_layer(4, 6, seed=59)
        other, _ = random_masked_layer(6, 4, seed=59)
        x = (rng.random((3, 6)) < 0.5).astype(np.float64)
        with pytest.raises(ValueError, match="buffer shape"):
            nn.dae_gradients(layer, x, x, nn.BERNOULLI, nn.buffers(other), dae_grads(layer))

    def test_sparse_layer_without_a_pair_rejected(self):
        layer, rng = random_masked_layer(4, 6, seed=59)
        head = nn.init_dense_layer(2, 4, rng)
        x = (rng.random((3, 6)) < 0.5).astype(np.float64)
        with pytest.raises(ValueError, match="buffer shape None"):
            nn.dae_gradients(layer, x, x, nn.BERNOULLI, None, dae_grads(layer))
        with pytest.raises(ValueError, match="buffer shape None"):
            nn.stack_forward([layer], head, x, [None])
        with pytest.raises(ValueError, match="buffer shape None"):
            nn.hidden_representation([layer], x, [None])


def full_layer(h, v, seed):
    """A layer that holds all h x v connections, with random biases; it stores no index."""
    layer, rng = random_masked_layer(h, v, seed=seed, density=1.0)
    assert layer.index is None and layer.values.size == h * v
    return layer, rng


class TestFullLayer:
    """A full layer computes on values.reshape(H, V): it needs no buffer pair
    and keeps no view of its values between calls."""

    def test_buffers_allocate_less_than_one_weight_array(self):
        layer, _ = full_layer(300, 400, seed=67)
        tracemalloc.start()
        try:
            buf = nn.buffers(layer)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 300 * 400 * 8
        assert buf is None

    def test_rebound_values_are_read_at_the_next_call(self):
        layer, rng = full_layer(5, 7, seed=71)
        head = nn.init_dense_layer(3, 5, rng)
        x = (rng.random((6, 7)) < 0.5).astype(np.float64)
        y = rng.integers(0, 3, size=6)

        def results(net_layer):
            grads, back = dae_grads(net_layer), stack_grads([net_layer], head)
            loss = nn.dae_gradients(net_layer, x, x, nn.BERNOULLI, None, grads)
            logits, caches = nn.stack_forward([net_layer], head, x, [None])
            _, dlogits = nn.softmax_cross_entropy(logits, y)
            nn.stack_backward([net_layer], head, caches, dlogits, [None], back)
            hidden = nn.hidden_representation([net_layer], x, [None])
            return [bits(loss), *map(bits, grads), bits(logits), *map(bits, back), bits(hidden)]

        old = results(layer)
        layer = replace(layer, values=rng.normal(size=layer.values.size))
        twin = nn.MaskedLayer(layer.index, layer.values.copy(), layer.bias_hidden, layer.bias_visible)
        new = results(layer)
        assert new == results(twin)
        assert new[0] != old[0]


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


def write(grads, values):
    """Copy each of values into the gradient array of grads at its place."""
    for g, value in zip(grads, values, strict=True):
        np.copyto(g, value)


class TestAdam:
    def test_zero_gradient_is_fixed_point(self):
        p = [np.array([1.0, -2.0, 3.0])]
        adam = nn.Adam(p)
        for _ in range(5):
            adam.grads[0][:] = 0.0
            adam.step()
        np.testing.assert_array_equal(p[0], [1.0, -2.0, 3.0])

    def test_first_step_moves_by_stepsize_times_sign(self):
        # with constant gradient g, the bias-corrected first step is
        # -step * g / (|g| + eps') ~= -step * sign(g)
        for g in (0.3, -4.0):
            p = [np.array([0.0])]
            adam = nn.Adam(p, step_size=1e-3)
            adam.grads[0][:] = g
            adam.step()
            assert p[0][0] == pytest.approx(-1e-3 * np.sign(g), rel=1e-6)

    def test_mask_reapplied_after_step(self):
        # a 1 x 2 layer connected at (0, 0) only: the step updates its one value
        layer = nn.MaskedLayer(np.array([0]), np.array([0.5]), np.zeros(1), np.zeros(2))
        adam = nn.Adam([layer.values])
        assert adam.grads[0].shape == (1,)  # a gradient for the unconnected slot has no place
        adam.grads[0][:] = 0.1
        adam.step()
        assert layer.values[0] != 0.5
        assert layer.weights[0, 1] == 0.0

    def test_nan_gradient_aborts_without_state_change(self):
        p = [np.array([1.0])]
        adam = nn.Adam(p)
        adam.grads[0][:] = np.nan
        with pytest.raises(FloatingPointError):
            adam.step()
        assert p[0][0] == 1.0
        assert adam.t == 0

    def test_nan_in_the_last_block_aborts_without_state_change(self):
        rng = np.random.default_rng(73)
        size = 3 * nn.ADAM_BLOCK + 5
        params = [rng.normal(size=size), rng.normal(size=3)]
        adam = nn.Adam(params)
        write(adam.grads, [rng.normal(size=size), rng.normal(size=3)])
        adam.step()
        before = [bits(p) for p in params] + [bits(a) for pair in adam.moments for a in pair]
        # the first parameter's gradient fails only in its last, partial block
        write(adam.grads, [rng.normal(size=size), rng.normal(size=3)])
        adam.grads[0][-1] = np.nan
        with pytest.raises(FloatingPointError, match="parameter 0"):
            adam.step()
        assert [bits(p) for p in params] + [bits(a) for pair in adam.moments for a in pair] == before
        assert adam.t == 1

    def test_step_allocates_less_than_two_blocks(self):
        rng = np.random.default_rng(79)
        p = rng.normal(size=4 * nn.ADAM_BLOCK)
        adam = nn.Adam([p])
        write(adam.grads, [rng.normal(size=p.shape)])
        assert repeat_allocation(adam.step) < 2 * nn.ADAM_BLOCK

    @pytest.mark.parametrize(
        "shape",
        [(1,), (nn.ADAM_BLOCK - 1,), (nn.ADAM_BLOCK + 1,), (3 * nn.ADAM_BLOCK + 5,), (37, 1000)],
        ids=["1", "block-1", "block+1", "3block+5", "2-d"],
    )
    def test_blocked_steps_match_the_whole_array_update_bits(self, shape):
        rng = np.random.default_rng(67)
        # a small bias next to the parameter: both share the scratch blocks
        params = [rng.normal(size=shape), rng.normal(size=3)]
        ref = {"p": params[0].copy(), "b": params[1].copy()}
        adam, oracle = nn.Adam(params, step_size=0.01), DenseMaskedAdam(step_size=0.01)
        for scale in (1.0, 1e-3, 50.0, 0.0):
            grads = [rng.normal(scale=scale, size=shape), rng.normal(scale=scale, size=3)]
            write(adam.grads, grads)
            adam.step()
            oracle.step(ref, {"p": grads[0], "b": grads[1]}, {})
        for p, name in zip(params, ("p", "b")):
            assert bits(p) == bits(ref[name])
        for (m, v), name in zip(adam.moments, ("p", "b")):
            assert bits(m) == bits(oracle.moments[name][0])
            assert bits(v) == bits(oracle.moments[name][1])

    @pytest.mark.parametrize(
        "param",
        [np.zeros((4, 6))[:, ::2], np.zeros((4, 6)).T],
        ids=["strided", "fortran-order"],
    )
    def test_parameter_that_is_not_c_contiguous_rejected(self, param):
        with pytest.raises(ValueError, match="parameter 1 is not C-contiguous"):
            nn.Adam([np.zeros(3), param])

    def test_step_allocates_less_than_one_parameter(self):
        rng = np.random.default_rng(71)
        p = rng.normal(size=(200, 1000))
        adam = nn.Adam([p, np.zeros(200)])
        write(adam.grads, [rng.normal(size=p.shape), rng.normal(size=200)])
        assert repeat_allocation(adam.step) < p.nbytes

    def test_binding_makes_one_zero_gradient_per_parameter(self):
        params = [np.ones((2, 3)), np.ones(4)]
        adam = nn.Adam(params)
        assert [g.shape for g in adam.grads] == [(2, 3), (4,)]
        assert all(g.flags.c_contiguous and not g.any() for g in adam.grads)
        assert not any(np.shares_memory(g, p) for g in adam.grads for p in params)


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
        adam = nn.Adam([layer.values, layer.bias_hidden, layer.bias_visible], step_size=0.01)
        x = (rng.random((30, 9)) < 0.5).astype(np.float64)
        buf = nn.buffers(layer)
        for _ in range(25):
            x_tilde = x * (rng.random(x.shape) >= 0.2)
            nn.dae_gradients(layer, x, x_tilde, nn.BERNOULLI, buf, adam.grads)
            adam.step()
        np.testing.assert_array_equal(layer.weights * (1 - layer.mask), 0.0)
        assert np.isfinite(layer.weights).all()
