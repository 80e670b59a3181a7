import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    MatrixBlocks,
    edge_pairs,
    make_path_tree,
    markov_chain,
    make_star_tree,
    random_binary_dataset,
    sparse_binaries,
    tree_from_edges,
)
from oracles import (
    all_spanning_trees,
    best_tree_weight,
    bfs_parents,
    empirical_mi,
    floyd_warshall_hops,
    max_log_likelihood,
    pair_counts,
    tree_loglik_reference,
)
from trfnet.data import BinaryDataset, Dataset, DiscretizationPolicy, discretize, split
from trfnet import stats
from trfnet import tree as tree_module
from trfnet.stats import MiBlocks, MiPairs, mi_matrix, mi_source
from trfnet.synth import news_corpus
from trfnet.tree import (
    WEIGHT_CLAMP,
    ChowLiuTree,
    chow_liu,
    hop_distances,
    max_spanning_tree,
    to_dot,
)


def symmetric(entries, n):
    w = np.zeros((n, n))
    for u, v, x in entries:
        w[u, v] = w[v, u] = x
    return w


def random_mi_matrix(n, seed):
    rng = np.random.default_rng(seed)
    w = np.triu(rng.random((n, n)), k=1)
    return w + w.T


def as_binary(d: Dataset) -> BinaryDataset:
    return BinaryDataset.of(d.values)


random_trees = st.integers(3, 10).flatmap(
    lambda n: st.tuples(
        st.just(n), st.lists(st.integers(0, n - 1), min_size=n - 2, max_size=n - 2)
    )
)


class TestMaxSpanningTree:
    def test_triangle_drops_weakest_edge(self):
        m = symmetric([(0, 1, 0.5), (0, 2, 0.3), (1, 2, 0.1)], 3)
        t = max_spanning_tree(MatrixBlocks(m))
        assert edge_pairs(t) == {(0, 1), (0, 2)}

    def test_equal_weights_lexicographic_star(self):
        m = symmetric([(u, v, 0.25) for u in range(4) for v in range(u + 1, 4)], 4)
        t = max_spanning_tree(MatrixBlocks(m))
        assert edge_pairs(t) == {(0, 1), (0, 2), (0, 3)}

    def test_matches_exhaustive_enumeration(self):
        for seed in range(6):
            m = random_mi_matrix(6, seed)
            t = max_spanning_tree(MatrixBlocks(m))
            total = sum(w for _, _, w in t.edges)
            assert total == pytest.approx(best_tree_weight(m), abs=1e-12)

    @given(st.integers(0, 10_000))
    @settings(max_examples=20, deadline=None)
    def test_permutation_stable_with_distinct_weights(self, seed):
        rng = np.random.default_rng(seed)
        n = 6
        # distinct weights: a random permutation of well-separated values
        vals = np.arange(1, n * (n - 1) // 2 + 1, dtype=np.float64)
        rng.shuffle(vals)
        w = np.zeros((n, n))
        w[np.triu_indices(n, 1)] = vals
        w = w + w.T
        base = edge_pairs(max_spanning_tree(MatrixBlocks(w)))
        perm = rng.permutation(n)
        wp = w[np.ix_(perm, perm)]
        mapped_back = {
            (min(perm[u], perm[v]), max(perm[u], perm[v]))
            for u, v in edge_pairs(max_spanning_tree(MatrixBlocks(wp)))
        }
        assert mapped_back == base



def full_order_kruskal(w: np.ndarray):
    """Kruskal over the fully lexsorted edge list: the reference for the prefix scan."""
    n = w.shape[0]
    iu, ju = np.triu_indices(n, k=1)
    weights = w[iu, ju].copy()
    weights[np.abs(weights) < WEIGHT_CLAMP] = 0.0
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    chosen = []
    for k in np.lexsort((ju, iu, -weights)):
        ru, rv = find(int(iu[k])), find(int(ju[k]))
        if ru != rv:
            parent[rv] = ru
            chosen.append((int(iu[k]), int(ju[k]), float(weights[k])))
    return tuple(sorted(chosen))


# few distinct values, plus noise below the clamp, so ties are everywhere
tied_matrices = st.integers(2, 24).flatmap(
    lambda n: st.tuples(
        st.just(n),
        st.lists(
            st.sampled_from([0.0, 0.0, 3e-13, -4e-13, 0.1, 0.1, 0.25, 0.5]),
            min_size=n * (n - 1) // 2,
            max_size=n * (n - 1) // 2,
        ),
    )
)


def matrix_of(n, upper) -> np.ndarray:
    w = np.zeros((n, n))
    w[np.triu_indices(n, k=1)] = upper
    return w + w.T


class TestPrefixKruskal:
    # row blocks of 1-3 rows put ties across block edges, and Kruskal chunks
    # of 1-3 edges drop joined edges between nearly every union
    @given(
        tied_matrices,
        st.sampled_from([1, 2, 32]),
        st.sampled_from([1, 2, 3, 256]),
        st.sampled_from([1, 2, 3, tree_module.KRUSKAL_CHUNK]),
    )
    @settings(max_examples=300, deadline=None)
    def test_matches_full_lexsort_reference_under_ties(self, spec, per_node, row_block, chunk):
        n, upper = spec
        w = matrix_of(n, upper)
        with mock.patch.object(tree_module, "PREFIX_EDGES_PER_NODE", per_node), \
                mock.patch.object(tree_module, "KRUSKAL_CHUNK", chunk):
            t = max_spanning_tree(MatrixBlocks(w, rows=row_block))
        assert t.edges == full_order_kruskal(w)

    def test_clamped_negative_weight_ties_at_zero_across_row_blocks(self):
        # rows 0-1 push the band's cut to 0 before row 2 is read; (2, 3) weighs
        # -4e-13, which clamps to 0, so it must enter the band and win its tie
        # with (3, 4) on (u, v) order
        upper = [0.5, 0.5, -0.1, 0.5, 0.0, -0.1, 0.0, -4e-13, 0.0, 0.0]
        w = matrix_of(5, upper)
        with mock.patch.object(tree_module, "PREFIX_EDGES_PER_NODE", 1):
            t = max_spanning_tree(MatrixBlocks(w, rows=1))
        assert t.edges == full_order_kruskal(w)
        assert (2, 3) in edge_pairs(t)

    @pytest.mark.parametrize("per_node", [1, 2, 32])
    def test_planted_corpus_with_constant_features(self, per_node):
        # correlated topic blocks plus words that occur in no document and in
        # every document: the constant words have MI exactly 0 with every word,
        # so Kruskal can attach them only after every band of heavier edges
        rng = np.random.default_rng(7)
        n, blocks, size = 300, 6, 8
        topic = rng.integers(0, blocks, size=n)
        x = (topic[:, None] == np.repeat(np.arange(blocks), size)[None, :]) & (rng.random((n, blocks * size)) < 0.6)
        x |= rng.random(x.shape) < 0.02
        never, always = np.zeros((n, 3), dtype=bool), np.ones((n, 2), dtype=bool)
        values = np.column_stack([never[:, :1], x[:, :20], always[:, :1], x[:, 20:], never[:, 1:], always[:, 1:]])
        m = mi_matrix(BinaryDataset.of(values))
        with mock.patch.object(tree_module, "PREFIX_EDGES_PER_NODE", per_node):
            t = max_spanning_tree(MatrixBlocks(m))
        assert t.edges == full_order_kruskal(m)
        constant = {0, 21, *range(values.shape[1] - 3, values.shape[1])}
        assert sum(w == 0.0 for _, _, w in t.edges) >= len(constant)
        assert all(w == 0.0 for u, v, w in t.edges if u in constant or v in constant)

    def test_all_zero_matrix_takes_the_full_order(self):
        n = 150  # more edges than the first prefix, all tied at zero
        t = max_spanning_tree(MatrixBlocks(np.zeros((n, n))))
        assert t.edges == full_order_kruskal(np.zeros((n, n)))
        assert edge_pairs(t) == {(0, v) for v in range(1, n)}

    def test_widens_when_the_heaviest_edges_do_not_span(self):
        # a heavy clique on 90 of 120 nodes fills the first 32 x V prefix
        n, clique = 120, 90
        rng = np.random.default_rng(4)
        w = np.triu(rng.random((n, n)), k=1)
        w[:clique, :clique] += 10.0 * np.triu(np.ones((clique, clique)), k=1)
        w = w + w.T
        assert clique * (clique - 1) // 2 > tree_module.PREFIX_EDGES_PER_NODE * n
        assert max_spanning_tree(MatrixBlocks(w)).edges == full_order_kruskal(w)

    @pytest.mark.parametrize("seed", range(3))
    def test_random_real_weights(self, seed):
        w = random_mi_matrix(200, seed)
        assert max_spanning_tree(MatrixBlocks(w)).edges == full_order_kruskal(w)

    def test_infinite_weights_are_kept(self):
        w = matrix_of(4, [np.inf, 0.5, 0.5, 0.2, np.inf, 0.1])
        assert max_spanning_tree(MatrixBlocks(w)).edges == full_order_kruskal(w)


class TestStreamedChowLiu:
    # MI blocks of 1-3 rows and one edge per node make most trees need later
    # bands, each of which streams the MI blocks again
    @given(sparse_binaries((2, 13)), st.sampled_from([1, 2, 3, 256]), st.sampled_from([1, 32]))
    @settings(max_examples=200, deadline=None)
    def test_same_edges_as_the_whole_matrix(self, bd, row_block, per_node):
        with mock.patch.object(stats, "MI_ROW_BLOCK", row_block), \
                mock.patch.object(tree_module, "PREFIX_EDGES_PER_NODE", per_node):
            assert chow_liu(bd).edges == full_order_kruskal(mi_matrix(bd))

    def test_memory_stays_below_half_the_mi_matrix(self):
        # the whole V x V float64 matrix would take v * v * 8 bytes
        v = 2048
        corpus = news_corpus(n_docs=500, vocab_size=v, seed=0)
        bd = discretize(corpus, DiscretizationPolicy.fixed(0.0))
        with mock.patch.object(stats, "MI_ROW_BLOCK", 32):
            tracemalloc.start()
            try:
                chow_liu(bd)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peak < v * v * 8 / 2

    def test_block_stream_memory_stays_below_half_the_mi_matrix(self):
        v = 2048
        corpus = news_corpus(n_docs=500, vocab_size=v, seed=0)
        bd = discretize(corpus, DiscretizationPolicy.fixed(0.0))
        with mock.patch.object(stats, "MI_ROW_BLOCK", 32):
            tracemalloc.start()
            try:
                max_spanning_tree(MiBlocks(bd))
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peak < v * v * 8 / 2


def weight_bits(t: ChowLiuTree) -> bytes:
    return np.array([w for _, _, w in t.edges]).tobytes()


def same_tree(a: ChowLiuTree, b: ChowLiuTree) -> bool:
    """The same edges, with weights of the same bits."""
    return a.edges == b.edges and weight_bits(a) == weight_bits(b)


class TestPairList:
    # ranges of 1-7 increments split rows of the pair count across many sorts,
    # and one edge per node makes most trees need later bands
    @given(
        sparse_binaries((2, 14)),
        st.sampled_from([1, 7, stats.PAIR_BLOCK]),
        st.sampled_from([1, 32]),
    )
    @settings(max_examples=300, deadline=None)
    def test_same_tree_as_the_block_stream(self, bd, pair_block, per_node):
        with mock.patch.object(stats, "PAIR_BLOCK", pair_block), \
                mock.patch.object(tree_module, "PREFIX_EDGES_PER_NODE", per_node):
            reference = max_spanning_tree(MiBlocks(bd))
            assert same_tree(max_spanning_tree(MiPairs(bd)), reference)
            assert same_tree(chow_liu(bd), reference)

    @pytest.mark.parametrize("ratio", [0, np.inf])
    def test_chow_liu_gives_the_same_tree_on_either_path(self, ratio):
        bd = as_binary(random_binary_dataset(60, 12, seed=6))
        with mock.patch.object(stats, "PAIR_PATH_MIN_RATIO", ratio):
            assert isinstance(mi_source(bd), MiPairs if ratio == 0 else MiBlocks)
            assert same_tree(chow_liu(bd), max_spanning_tree(MiBlocks(bd)))

    def test_path_chosen_by_the_increment_count(self):
        # 40 rows of 2 ones: 40 increments against 40 * 50**2 / 2 = 50,000
        sparse = np.zeros((40, 50), dtype=np.int8)
        sparse[np.arange(40), np.arange(40) % 50] = 1
        sparse[np.arange(40), (np.arange(40) + 7) % 50] = 1
        assert isinstance(mi_source(BinaryDataset.of(sparse)), MiPairs)
        assert isinstance(mi_source(BinaryDataset.of(np.ones((40, 50), dtype=np.int8))), MiBlocks)

    def test_absent_pairs_enter_the_first_band(self):
        # columns 2i and 2i + 1 are complements: they never co-occur, and each
        # pair is the heaviest there is; the pairs that do co-occur weigh less
        rng = np.random.default_rng(11)
        base = rng.random((80, 10)) < 0.5
        noise = rng.random((80, 20)) < 0.05
        x = np.column_stack([np.column_stack([base[:, i], ~base[:, i]]) for i in range(10)] + [noise])
        bd = BinaryDataset.of(x)
        mi = tree_module._clamped(MiPairs(bd).compute())
        _, keys = tree_module._pair_band(mi, 10, None)
        absent = keys[~np.isin(keys, mi.keys)]
        v = x.shape[1]
        assert set(absent.tolist()) == {2 * i * v + 2 * i + 1 for i in range(10)}
        with mock.patch.object(tree_module, "PREFIX_EDGES_PER_NODE", 1):
            t = max_spanning_tree(MiPairs(bd))
        assert same_tree(t, max_spanning_tree(MiBlocks(bd)))
        assert {(2 * i, 2 * i + 1) for i in range(10)} <= edge_pairs(t)

    def test_later_bands_read_the_list_again(self):
        # one edge per node cannot span a corpus of topic blocks and constant words
        corpus = news_corpus(n_docs=200, vocab_size=120, block_size=8, seed=2)
        bd = discretize(corpus, DiscretizationPolicy.fixed(0.0))
        calls = []
        band = tree_module._pair_band

        def counted(mi, k, roots):
            calls.append(roots is not None)
            return band(mi, k, roots)

        with mock.patch.object(tree_module, "PREFIX_EDGES_PER_NODE", 1), \
                mock.patch.object(tree_module, "_pair_band", counted), \
                mock.patch.object(MiPairs, "compute", wraps=MiPairs(bd).compute) as compute:
            t = max_spanning_tree(MiPairs(bd))
        assert len(calls) >= 2 and calls[1:] == [True] * (len(calls) - 1)
        assert compute.call_count == 1
        with mock.patch.object(tree_module, "PREFIX_EDGES_PER_NODE", 1):
            assert same_tree(t, max_spanning_tree(MiBlocks(bd)))


class TestChowLiu:
    def test_chain_recovery(self):
        d = markov_chain(8, 1500, flip_prob=0.1, seed=5)
        t = chow_liu(as_binary(d))
        assert edge_pairs(t) == {(i, i + 1) for i in range(7)}

    def test_duplicated_pair_is_an_edge(self):
        rng = np.random.default_rng(1)
        a = (rng.random(400) < 0.5).astype(float)
        c = (rng.random(400) < 0.5).astype(float)
        d = Dataset(np.column_stack([a, a, c]))
        t = chow_liu(as_binary(d))
        assert (0, 1) in edge_pairs(t)

    def test_two_features_single_edge(self):
        d = random_binary_dataset(50, 2, seed=2)
        t = chow_liu(as_binary(d))
        assert edge_pairs(t) == {(0, 1)}

    def test_layer_zero_tree_joins_every_planted_block(self):
        # 100 planted blocks of 16 topic words (words 0-1599, block j // 16), so at
        # most 100 x 15 tree edges can join two words of one block
        corpus = news_corpus(n_docs=2000, vocab_size=2000, block_size=16, confusion=0.025, seed=0)
        train, _, _ = split(corpus, 0.7, 0.15, seed=0)
        t = chow_liu(discretize(train, DiscretizationPolicy.fixed(0.0)))
        assert sum(u < 1600 and v < 1600 and u // 16 == v // 16 for u, v, _ in t.edges) == 1500
        # the dense route into a BinaryDataset finds the same ones, so the same tree
        dense = Dataset(train.dense(), train.feature_names, train.labels)
        assert chow_liu(discretize(dense, DiscretizationPolicy.fixed(0.0))).edges == t.edges

    def test_stored_weights_are_mi(self):
        d = random_binary_dataset(120, 5, seed=8)
        t = chow_liu(as_binary(d))
        bd = as_binary(d)
        for u, v, w in t.edges:
            assert w == pytest.approx(empirical_mi(pair_counts(bd, u, v)), abs=1e-12)


class TestHopDistances:
    def test_path(self):
        t = make_path_tree(4)
        np.testing.assert_array_equal(hop_distances(t, 0), [0, 1, 2, 3])

    def test_star(self):
        t = make_star_tree(4)
        np.testing.assert_array_equal(hop_distances(t, 0), [0, 1, 1, 1, 1])

    @given(random_trees)
    @settings(max_examples=50, deadline=None)
    def test_matches_floyd_warshall(self, tree_spec):
        n, seq = tree_spec
        from oracles import prufer_edges

        edges = prufer_edges(seq, n) if n > 2 else [(0, 1)]
        t = tree_from_edges(n, edges)
        ref = floyd_warshall_hops(n, [(u, v) for u, v, _ in t.edges])
        for src in range(n):
            np.testing.assert_array_equal(hop_distances(t, src), ref[src])

    @given(random_trees, st.integers(0, 10**6))
    @settings(max_examples=30, deadline=None)
    def test_tree_metric_along_paths(self, tree_spec, pick):
        n, seq = tree_spec
        from oracles import prufer_edges

        edges = prufer_edges(seq, n) if n > 2 else [(0, 1)]
        t = tree_from_edges(n, edges)
        rng = np.random.default_rng(pick)
        u, w = rng.integers(n), rng.integers(n)
        du = hop_distances(t, int(u))
        # walk the u->w path; every node v on it satisfies d(u,w) = d(u,v) + d(v,w)
        dw = hop_distances(t, int(w))
        on_path = np.flatnonzero(du + dw == du[w])
        assert int(u) in on_path and int(w) in on_path
        assert on_path.size == du[w] + 1


class TestMaxLogLikelihood:
    def test_constant_features_zero(self):
        values = np.column_stack([np.ones(30), np.zeros(30), np.ones(30)])
        d = Dataset(values)
        bd = as_binary(d)
        t = tree_from_edges(3, [(0, 1), (1, 2)])
        assert max_log_likelihood(t, bd) == 0.0

    def test_edge_swap_decreases(self):
        d = markov_chain(4, 800, flip_prob=0.1, seed=9)
        bd = as_binary(d)
        best = chow_liu(bd)
        worse = tree_from_edges(4, [(0, 1), (1, 2), (0, 3)])  # (2,3) swapped for (0,3)
        assert edge_pairs(best) == {(0, 1), (1, 2), (2, 3)}
        assert max_log_likelihood(best, bd) > max_log_likelihood(worse, bd)

    def test_matches_plugin_cpt_evaluation(self):
        d = random_binary_dataset(150, 4, seed=3)
        bd = as_binary(d)
        t = chow_liu(bd)
        ref = tree_loglik_reference(bfs_parents(t.node_count, t.edges, 0), 0, d.values.tolist())
        assert max_log_likelihood(t, bd) == pytest.approx(ref, rel=1e-9, abs=1e-9)

    def test_chow_liu_is_optimal_over_all_trees(self):
        d = random_binary_dataset(100, 5, seed=4)
        bd = as_binary(d)
        best = chow_liu(bd)
        best_ll = max_log_likelihood(best, bd)
        for edges in all_spanning_trees(5):
            other = tree_from_edges(5, edges)
            assert best_ll >= max_log_likelihood(other, bd) - 1e-9


class TestTreeType:
    def test_cycle_rejected(self):
        with pytest.raises(ValueError):
            ChowLiuTree(node_count=3, edges=((0, 1, 1.0), (0, 1, 1.0)))

    def test_dot_export_shape(self):
        t = make_path_tree(4)
        dot = to_dot(t, ["a", "b", "c", "d"])
        assert dot.count("--") == 3
        assert 'label="a"' in dot and 'label="1.0000"' in dot

    def test_dot_labels_escape_quotes_and_backslashes(self):
        dot = to_dot(make_path_tree(2), ['say "hi"', "a\\b"])
        assert 'n0 [label="say \\"hi\\""];' in dot
        assert 'n1 [label="a\\\\b"];' in dot
