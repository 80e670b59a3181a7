import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import dense_sigmoid, mean_pairwise_cosine
from trfnet import interpret, nn
from trfnet.builder import TrfNetwork
from trfnet.data import Dataset, Nonzeros
from trfnet.errors import DataFormatError, DegenerateUnitWarning, NoCoverageError
from trfnet.interpret import (
    EmbeddingTable,
    interpretability_score,
    load_embeddings,
    top_correlated_features,
    unit_interpretability,
)


def passthrough_network(v: int, wired_to: int):
    """One hidden layer whose unit 0 equals feature `wired_to` (identity relu)."""
    index = np.array([wired_to, v + (wired_to + 1) % v])
    layer = nn.MaskedLayer(
        index=index, values=np.ones(2), bias_hidden=np.zeros(2), bias_visible=np.zeros(v),
        activation="identity",
    )
    return TrfNetwork(layers=[layer], plans=[None])


def table(mapping):
    vectors = {k: np.asarray(v, dtype=np.float64) for k, v in mapping.items()}
    dim = len(next(iter(vectors.values())))
    return EmbeddingTable(dim, vectors)


class TestTopCorrelatedFeatures:
    def test_wired_feature_ranks_first(self):
        rng = np.random.default_rng(0)
        d = Dataset(rng.normal(size=(200, 6)))
        net = passthrough_network(6, wired_to=3)
        top = top_correlated_features(net, d, unit=0, k=3)
        assert top[0][0] == 3
        assert top[0][1] == pytest.approx(1.0, abs=1e-12)

    def test_k_clamped_to_feature_count(self):
        rng = np.random.default_rng(1)
        d = Dataset(rng.normal(size=(50, 4)))
        net = passthrough_network(4, wired_to=0)
        assert len(top_correlated_features(net, d, unit=0, k=99)) == 4

    def test_constant_feature_ranked_last_with_zero(self):
        rng = np.random.default_rng(2)
        values = rng.normal(size=(80, 5))
        values[:, 4] = 7.0
        net = passthrough_network(5, wired_to=1)
        top = top_correlated_features(net, Dataset(values), unit=0, k=5)
        assert top[-1] == (4, 0.0)

    def test_constant_unit_warns_and_zeroes(self):
        rng = np.random.default_rng(3)
        values = rng.normal(size=(60, 4))
        values[:, 2] = 0.0  # the wired feature is constant, so the unit is too
        net = passthrough_network(4, wired_to=2)
        with pytest.warns(DegenerateUnitWarning):
            top = top_correlated_features(net, Dataset(values), unit=0, k=4)
        assert all(r == 0.0 for _, r in top)
        assert [j for j, _ in top] == [0, 1, 2, 3]  # index order on full ties

    @given(
        scale=st.floats(min_value=0.01, max_value=50.0),
        shift=st.floats(min_value=-5.0, max_value=5.0),
    )
    @settings(max_examples=30, deadline=None)
    def test_ranking_invariant_to_affine_feature_rescaling(self, scale, shift):
        rng = np.random.default_rng(4)
        values = rng.normal(size=(100, 5))
        net = passthrough_network(5, wired_to=1)
        base = [j for j, _ in top_correlated_features(net, Dataset(values), 0, 5)]
        rescaled = values.copy()
        rescaled[:, 3] = scale * rescaled[:, 3] + shift
        # the unit reads feature 1, so rescaling feature 3 only affects its own
        # correlation through Pearson invariance: |rho| is unchanged
        after = [j for j, _ in top_correlated_features(net, Dataset(rescaled), 0, 5)]
        assert base == after


class TestEmbeddings:
    def test_load_roundtrip(self, tmp_path):
        path = tmp_path / "emb.txt"
        path.write_text("2 3\nfoo 1.0 0.0 0.5\nbar 0.25 -1 2\n")
        emb = load_embeddings(path)
        assert emb.dim == 3
        np.testing.assert_array_equal(emb.vectors["bar"], [0.25, -1.0, 2.0])

    def test_bad_header(self, tmp_path):
        path = tmp_path / "emb.txt"
        path.write_text("three 3\nfoo 1 2 3\n")
        with pytest.raises(DataFormatError, match="line 1"):
            load_embeddings(path)

    @pytest.mark.parametrize("dim", [0, -2])
    def test_dimension_below_one_names_line_1(self, tmp_path, dim):
        path = tmp_path / "emb.txt"
        path.write_text(f"1 {dim}\nfoo\n")
        with pytest.raises(DataFormatError, match=rf"emb\.txt: line 1: dimension {dim} must be >= 1"):
            load_embeddings(path)

    def test_wrong_arity_line(self, tmp_path):
        path = tmp_path / "emb.txt"
        path.write_text("1 3\nfoo 1 2\n")
        with pytest.raises(DataFormatError, match="line 2"):
            load_embeddings(path)

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_non_finite_entry_rejected(self, tmp_path, bad):
        path = tmp_path / "emb.txt"
        path.write_text(f"2 2\nfoo 1 0.5\nbar 1 {bad}\n")
        with pytest.raises(DataFormatError, match=r"emb\.txt: line 3"):
            load_embeddings(path)


    def test_duplicate_token_rejected(self, tmp_path):
        path = tmp_path / "emb.txt"
        path.write_text("2 2\nfoo 1 0\nbar 0 1\nfoo 5 5\n")
        with pytest.raises(DataFormatError, match=r"emb\.txt: line 4: duplicate token 'foo'"):
            load_embeddings(path)

    def test_undecodable_bytes_rejected(self, tmp_path):
        path = tmp_path / "emb.txt"
        path.write_bytes(b"2 2\nfoo 1 0\nb\xffr 0 1\n")
        with pytest.raises(DataFormatError, match=r"emb\.txt: not UTF-8"):
            load_embeddings(path)


class TestInterpretabilityScore:
    def setup_method(self):
        rng = np.random.default_rng(5)
        self.values = rng.normal(size=(120, 4))
        self.names = ("alpha", "beta", "gamma", "delta")
        self.d = Dataset(self.values, feature_names=self.names)
        self.net = passthrough_network(4, wired_to=0)

    def test_identical_embeddings_score_exactly_one(self):
        emb = table({n: [0.3, 0.7] for n in self.names})
        assert interpretability_score(self.net, self.d, emb, k=3) == 1.0

    def test_orthogonal_embeddings_score_exactly_zero(self):
        emb = table(
            {
                "alpha": [1, 0, 0, 0],
                "beta": [0, 1, 0, 0],
                "gamma": [0, 0, 1, 0],
                "delta": [0, 0, 0, 1],
            }
        )
        assert interpretability_score(self.net, self.d, emb, k=3) == 0.0

    def test_zero_vectors_score_zero_even_against_each_other(self):
        # pairs: (zero, zero) 0.0, (zero, [1, 0]) 0.0 twice
        emb = table({"alpha": [0.0, 0.0], "beta": [0.0, 0.0], "gamma": [1.0, 0.0]})
        assert unit_interpretability(["alpha", "beta", "gamma"], emb) == 0.0
        assert unit_interpretability(["alpha", "beta"], emb) == 0.0

    def test_hand_computed_three_token_case(self):
        vectors = {"alpha": [1.0, 0.0], "beta": [1.0, 1.0], "gamma": [0.0, 1.0]}
        emb = table(vectors)
        expected = mean_pairwise_cosine(list(vectors.values()))
        unit_score = unit_interpretability(["alpha", "beta", "gamma"], emb)
        assert unit_score == pytest.approx(expected, abs=1e-12)

    def test_missing_tokens_are_skipped_not_zeroed(self):
        emb = table({"alpha": [1.0, 0.0], "beta": [1.0, 0.0]})
        # gamma and delta are absent; the only scored pair is (alpha, beta) = 1
        assert interpretability_score(self.net, self.d, emb, k=4) == 1.0

    def test_no_coverage_raises(self):
        emb = table({"nope": [1.0, 0.0]})
        with pytest.raises(NoCoverageError):
            interpretability_score(self.net, self.d, emb, k=3)

    def test_score_invariant_to_positive_rescaling(self):
        base = {"alpha": [1.0, 2.0], "beta": [0.5, -1.0], "gamma": [2.0, 2.0], "delta": [3.0, 0.1]}
        s1 = interpretability_score(self.net, self.d, table(base), k=4)
        scaled = {k: [17.0 * x for x in v] for k, v in base.items()}
        s2 = interpretability_score(self.net, self.d, table(scaled), k=4)
        assert s1 == pytest.approx(s2, abs=1e-12)

    def test_needs_feature_names(self):
        unnamed = Dataset(self.values)
        with pytest.raises(ValueError, match="names"):
            interpretability_score(self.net, unnamed, table({"a": [1.0]}), k=2)


def two_layer_network(v: int, widths, seed: int):
    """Random sparse sigmoid layers; top unit 1 gets no input and is constant."""
    rng = np.random.default_rng(seed)
    layers, width = [], v
    for h in widths:
        mask = (rng.random((h, width)) < 0.4).astype(np.float64)
        layer = nn.init_masked_layer(np.flatnonzero(mask), mask.shape, rng)
        layer.bias_hidden[:] = rng.normal(scale=0.2, size=h)
        layers.append(layer)
        width = h
    top = layers[-1]
    keep = top.index // top.visible_count != 1
    layers[-1] = replace(top, index=top.index[keep], values=top.values[keep])
    return TrfNetwork(layers=layers, plans=[None] * len(layers))


def reference_ranking(layers, x: np.ndarray, unit: int, k: int):
    """The per-unit computation: its own forward, centring and Pearson column."""
    acts = x
    for layer in layers:
        acts = dense_sigmoid(acts @ layer.weights.T + layer.bias_hidden)
    y = acts[:, unit]
    xc = x - x.mean(axis=0)
    yc = y - y.mean()
    sx = np.sqrt((xc**2).sum(axis=0))
    sy = float(np.sqrt((yc**2).sum()))
    with np.errstate(divide="ignore", invalid="ignore"):
        r = (xc.T @ yc) / (sx * sy)
    r = np.where((sx > 0) & (sy > 0), r, 0.0)
    order = np.lexsort((np.arange(r.size), -np.abs(r)))
    return [(int(j), float(r[j])) for j in order[: min(k, r.size)]]


class TestAllUnitsFromOneForward:
    def setup_method(self):
        rng = np.random.default_rng(8)
        v = 30
        values = (rng.random((90, v)) < 0.3).astype(np.float64)
        values[:, 7] = 1.0  # a zero-variance feature
        self.names = tuple(f"w{j}" for j in range(v))
        self.d = Dataset(values, feature_names=self.names)
        self.net = two_layer_network(v, (16, 10), seed=9)
        self.emb = table({n: rng.normal(size=3) for n in self.names[::2] + self.names[1:9]})

    def test_top_correlated_features_match_per_unit_reference(self):
        assert self.net.top_width >= 8
        for unit in range(self.net.top_width):
            expected = reference_ranking(self.net.layers, self.d.values, unit, 6)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", DegenerateUnitWarning)
                got = top_correlated_features(self.net, self.d, unit, 6)
            assert [(j, np.float64(r).tobytes()) for j, r in got] == [
                (j, np.float64(r).tobytes()) for j, r in expected
            ]

    def test_score_matches_per_unit_reference(self):
        per_unit = []
        for unit in range(self.net.top_width):
            top = reference_ranking(self.net.layers, self.d.values, unit, 5)
            score = unit_interpretability([self.names[j] for j, _ in top], self.emb)
            if score is not None:
                per_unit.append(score)
        expected = float(np.mean(per_unit))
        got = interpretability_score(self.net, self.d, self.emb, k=5)
        assert np.float64(got).tobytes() == np.float64(expected).tobytes()

    def test_centring_in_place_leaves_the_dataset(self):
        """The features are centred in a dense copy the call owns: made from the
        nonzeros, or copied from a stored array, which keeps its bits."""
        rows, cols = np.nonzero(self.d.values)
        indptr = np.searchsorted(rows, np.arange(self.d.n_samples + 1))
        nz = Nonzeros(self.d.values.shape, indptr, cols, self.d.values[rows, cols])
        stored = self.d.values.tobytes()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DegenerateUnitWarning)
            for d in (Dataset(nz, feature_names=self.names), self.d):
                for unit in range(self.net.top_width):
                    expected = reference_ranking(self.net.layers, self.d.values, unit, 6)
                    got = top_correlated_features(self.net, d, unit, 6)
                    assert [(j, np.float64(r).tobytes()) for j, r in got] == [
                        (j, np.float64(r).tobytes()) for j, r in expected
                    ]
        assert self.d.values.tobytes() == stored

    def test_constant_unit_still_warns(self):
        with pytest.warns(DegenerateUnitWarning, match="unit 1 "):
            top_correlated_features(self.net, self.d, 1, 3)

    def test_one_forward_per_score(self, monkeypatch):
        calls = []

        def counting(layers, x, bufs):
            calls.append(1)
            return nn.hidden_representation(layers, x, bufs)

        monkeypatch.setattr(interpret, "hidden_representation", counting)
        interpretability_score(self.net, self.d, self.emb, k=5)
        assert len(calls) == 1
        top_correlated_features(self.net, self.d, 3, 5)
        assert len(calls) == 2

    def test_bad_unit_and_k_rejected(self):
        with pytest.raises(ValueError, match="out of range"):
            top_correlated_features(self.net, self.d, self.net.top_width, 3)
        with pytest.raises(ValueError, match="k must be"):
            top_correlated_features(self.net, self.d, 0, 0)
