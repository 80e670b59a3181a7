import numpy as np
import pytest
from hypothesis import strategies as st

from trfnet.data import BinaryDataset, Dataset
from trfnet.tree import ChowLiuTree, max_spanning_tree


class MatrixBlocks:
    """A test stand-in for stats.MiBlocks over a hand-built weight matrix.

    Yields (lo, w[lo:lo + rows, lo:]) for every rows-row block, as MiBlocks
    yields MI blocks, so max_spanning_tree can be driven with any weights;
    it reads only the strict upper triangle of each block.
    """

    def __init__(self, w, rows: int = 256):
        self.w = np.asarray(w, dtype=np.float64)
        self.rows = rows
        self.n_features = self.w.shape[0]

    def __iter__(self):
        for lo in range(0, self.n_features, self.rows):
            yield lo, self.w[lo : lo + self.rows, lo:]


def edge_pairs(t: ChowLiuTree) -> set[tuple[int, int]]:
    """The tree's edges as (u, v) pairs, weights dropped."""
    return {(u, v) for u, v, _ in t.edges}


def make_path_tree(n: int) -> ChowLiuTree:
    """The path 0-1-...-(n-1) with descending weights so the MST is forced."""
    w = np.zeros((n, n))
    for i in range(n - 1):
        w[i, i + 1] = w[i + 1, i] = 1.0 - 0.01 * i
    return max_spanning_tree(MatrixBlocks(w))


def make_star_tree(leaves: int) -> ChowLiuTree:
    """Hub node 0 connected to `leaves` leaf nodes."""
    n = leaves + 1
    w = np.zeros((n, n))
    for leaf in range(1, n):
        w[0, leaf] = w[leaf, 0] = 1.0
    return max_spanning_tree(MatrixBlocks(w))


def tree_from_edges(n: int, edges) -> ChowLiuTree:
    """Any explicit edge list as a ChowLiuTree with unit weights."""
    w = np.zeros((n, n))
    for u, v in edges:
        w[u, v] = w[v, u] = 1.0
    return max_spanning_tree(MatrixBlocks(w))


def seed_with_first_center(node_count: int, target: int, limit: int = 100000) -> int:
    """Smallest seed whose uniform first-center draw lands on target."""
    for seed in range(limit):
        if int(np.random.default_rng(seed).integers(node_count)) == target:
            return seed
    raise AssertionError(f"no seed below {limit} picks node {target} of {node_count}")


@pytest.fixture(scope="session")
def blob_data():
    from trfnet.data import split
    from trfnet.synth import gaussian_blobs

    d = gaussian_blobs(n_samples=400, n_features=8, separation=6.0, seed=11)
    train, valid, test = split(d, 0.7, 0.15, seed=0)
    return train, valid, test


@pytest.fixture(scope="session")
def small_corpus():
    """A quick 300-doc, 120-word, 3-class bag-of-words corpus."""
    from trfnet.synth import news_corpus

    return news_corpus(n_docs=300, vocab_size=120, n_classes=3, block_size=8, seed=1)


def random_binary_dataset(n: int, v: int, seed: int) -> Dataset:
    rng = np.random.default_rng(seed)
    values = (rng.random((n, v)) < rng.uniform(0.2, 0.8, size=v)).astype(np.float64)
    return Dataset(values)


@st.composite
def sparse_binaries(draw, v_range):
    """Bag-of-words-like 0/1 data: mostly-zero columns, so most pairs never
    co-occur, mixed with never-present and always-present columns and with
    rolled copies, which share a column's marginal count but not its rows."""
    n = draw(st.integers(1, 40))
    v = draw(st.integers(*v_range))
    density = draw(st.sampled_from([0.0, 0.02, 0.05, 0.2]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = rng.random((n, v)) < density
    kind = rng.integers(0, 6, size=v)
    x[:, kind == 0] = False
    x[:, kind == 1] = True
    for j in np.flatnonzero(kind == 2):
        x[:, j] = np.roll(x[:, rng.integers(v)], int(rng.integers(n)))
    return BinaryDataset(x.astype(np.int8))


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """Echo the acceptance criteria results where capture cannot hide them."""
    try:
        from test_acceptance import RESULT_LINES
    except ImportError:
        return
    if RESULT_LINES:
        terminalreporter.write_sep("-", "acceptance criteria")
        for line in RESULT_LINES:
            terminalreporter.write_line(line)
