"""Maximum-weight spanning trees over mutual information.

The learned tree is the classic Chow-Liu structure: weight every feature
pair by its empirical mutual information and keep a maximum-weight spanning
tree.  Kruskal's algorithm with a fixed tie order makes the result
deterministic.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from .data import BinaryDataset
from .stats import MiMatrix, mi_matrix

# weights this close to zero are treated as exact ties at zero, so float
# noise cannot reorder otherwise-equal edges
WEIGHT_CLAMP = 1e-12

# max_spanning_tree first sorts this many of the heaviest edges per node; MI
# trees of the bundled corpora span within the heaviest 15-27 x V edges
PREFIX_EDGES_PER_NODE = 32


class _UnionFind:
    def __init__(self, n: int):
        self.parent = list(range(n))

    def find(self, x: int) -> int:
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, a: int, b: int) -> bool:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        self.parent[rb] = ra
        return True


@dataclass(frozen=True)
class ChowLiuTree:
    """A spanning tree over V feature nodes; edges hold (u, v, weight) with
    u < v, sorted by (u, v)."""

    node_count: int
    edges: tuple[tuple[int, int, float], ...]

    def __post_init__(self):
        v = self.node_count
        if v < 2:
            raise ValueError(f"need at least 2 nodes, got {v}")
        if len(self.edges) != v - 1:
            raise ValueError(f"expected {v - 1} edges, got {len(self.edges)}")
        uf = _UnionFind(v)
        for u, w, weight in self.edges:
            if not (0 <= u < w < v):
                raise ValueError(f"bad edge ({u}, {w}): need 0 <= u < v < {v}")
            if weight < 0:
                raise ValueError(f"edge ({u}, {w}) has negative weight {weight}")
            if not uf.union(u, w):
                raise ValueError(f"edge ({u}, {w}) closes a cycle")

    def adjacency(self) -> list[list[int]]:
        adj: list[list[int]] = [[] for _ in range(self.node_count)]
        for u, v, _ in self.edges:
            adj[u].append(v)
            adj[v].append(u)
        return adj


def _is_symmetric(w: np.ndarray) -> bool:
    """w == w.T, compared tile by tile so the transposed reads stay in cache."""
    v, tile = w.shape[0], 128
    for lo in range(0, v, tile):
        for lo2 in range(lo, v, tile):
            if not np.array_equal(w[lo : lo + tile, lo2 : lo2 + tile], w[lo2 : lo2 + tile, lo : lo + tile].T):
                return False
    return True


# rows of the weight matrix max_spanning_tree reads at a time
TREE_ROW_BLOCK = 256


def _band(w: np.ndarray, k: int, roots: np.ndarray | None):
    """Every candidate edge at least as heavy as the k-th heaviest candidate.

    Candidates are the edges (u, t), u < t, whose ends have different roots
    (every edge when roots is None).  The strict upper triangle is read
    TREE_ROW_BLOCK rows at a time.  Whenever more than k candidates are held,
    those below the k-th heaviest of them are dropped: that weight is at most
    the k-th heaviest of all candidates, so no edge of the band is lost, and
    ties at the cut stay in.  Returns the clamped weights and the keys u * V + t.
    """
    v = w.shape[0]
    xs, keys = [], []
    held, floor = 0, -np.inf
    for lo in range(0, v - 1, TREE_ROW_BLOCK):
        hi = min(lo + TREE_ROW_BLOCK, v)
        block = w[lo:hi, lo:]
        block = np.where(np.abs(block) < WEIGHT_CLAMP, 0.0, block)
        sel = block >= floor
        if roots is not None:
            sel &= roots[lo:hi, None] != roots[None, lo:]
        rows, cols = np.divmod(np.flatnonzero(sel), v - lo)
        upper = cols > rows
        rows, cols = rows[upper], cols[upper]
        x = block[rows, cols]
        xs.append(x)
        keys.append((lo + rows) * v + (lo + cols))
        held += x.size
        if x.size and held > k:
            x, key = np.concatenate(xs), np.concatenate(keys)
            floor = np.partition(x, x.size - k)[x.size - k]
            keep = x >= floor
            xs, keys, held = [x[keep]], [key[keep]], int(np.count_nonzero(keep))
    return np.concatenate(xs), np.concatenate(keys)


def max_spanning_tree(m: MiMatrix) -> ChowLiuTree:
    """Kruskal over edges sorted by weight descending, ties by (u, v) ascending.

    Only the heaviest edges are sorted: every edge of weight >= theta, where
    theta is the weight of the k-th heaviest, so edges tied at theta come
    along.  Those edges are exactly the first ones of the full order, so
    Kruskal makes the same choices on them.  If they do not span, the next
    band of lighter edges is sorted and scanned, k growing each time, down
    to the full edge list.  A band after the first is taken from the edges
    whose ends are still in different components: Kruskal rejects every
    other edge, since components only merge, and that leaves out every edge
    of the earlier bands too.
    """
    w = m.m
    if not _is_symmetric(w):
        raise ValueError("weight matrix must be symmetric")
    v = m.n_features
    uf = _UnionFind(v)
    chosen = []
    k = PREFIX_EDGES_PER_NODE * v
    while len(chosen) < v - 1:
        roots = np.array([uf.find(i) for i in range(v)]) if chosen else None
        x, key = _band(w, k, roots)
        # lexsort's last key is primary: -weight first, then u * V + t
        order = np.lexsort((key, -x))
        iu, ju = np.divmod(key[order], v)
        for u, t, wt in zip(iu.tolist(), ju.tolist(), x[order].tolist()):
            if uf.union(u, t):
                chosen.append((u, t, wt))
                if len(chosen) == v - 1:
                    break
        k *= 4
    chosen.sort(key=lambda e: (e[0], e[1]))
    return ChowLiuTree(v, tuple(chosen))


def chow_liu(bd: BinaryDataset) -> ChowLiuTree:
    """Weight feature pairs by mutual information and keep the best tree."""
    return max_spanning_tree(mi_matrix(bd))


def hop_distances(t: ChowLiuTree, source: int) -> np.ndarray:
    """Tree hop distance from source to every node, by breadth-first traversal."""
    if not (0 <= source < t.node_count):
        raise ValueError(f"source {source} out of range for {t.node_count} nodes")
    adj = t.adjacency()
    dist = np.full(t.node_count, -1, dtype=np.int64)
    dist[source] = 0
    queue = deque([source])
    while queue:
        u = queue.popleft()
        for v in adj[u]:
            if dist[v] < 0:
                dist[v] = dist[u] + 1
                queue.append(v)
    return dist


def to_dot(t: ChowLiuTree, feature_names=None) -> str:
    """Graphviz rendering; edge labels are mutual information to 4 decimals."""
    names = feature_names or [str(i) for i in range(t.node_count)]
    if len(names) != t.node_count:
        raise ValueError(f"expected {t.node_count} names, got {len(names)}")
    lines = ["graph chowliu {"]
    for i, name in enumerate(names):
        lines.append(f'  n{i} [label="{name}"];')
    for u, v, w in t.edges:
        lines.append(f'  n{u} -- n{v} [label="{w:.4f}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
