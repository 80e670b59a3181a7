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
from .stats import MiBlocks

# weights this close to zero are treated as exact ties at zero, so float
# noise cannot reorder otherwise-equal edges
WEIGHT_CLAMP = 1e-12

# max_spanning_tree first sorts this many of the heaviest edges per node; MI
# trees of the bundled corpora span within the heaviest 15-27 x V edges
PREFIX_EDGES_PER_NODE = 32

# sorted edges Kruskal scans before it drops those already inside one component
KRUSKAL_CHUNK = 16384


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

    def roots(self) -> np.ndarray:
        """The root of every node, by pointer jumping; the parent links are left as they are."""
        roots = np.array(self.parent)
        while True:
            up = roots[roots]
            if np.array_equal(up, roots):
                return roots
            roots = up


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


def _band(blocks, v: int, k: int, roots: np.ndarray | None):
    """Every candidate edge at least as heavy as the k-th heaviest candidate.

    Candidates are the edges (u, t), u < t, whose ends have different roots
    (every edge when roots is None).  blocks yields (lo, rows lo:hi x
    columns lo:) of the weights; only their strict upper triangle is read.
    Whenever more than k candidates are held, those below the k-th heaviest
    of them are dropped: that weight is at most the k-th heaviest of all
    candidates, so no edge of the band is lost, and ties at the cut stay in.
    Returns the clamped weights and the keys u * V + t.
    """
    xs, keys = [], []
    held, floor = 0, -np.inf
    for lo, block in blocks:
        block = np.where(np.abs(block) < WEIGHT_CLAMP, 0.0, block)
        sel = block >= floor
        if roots is not None:
            sel &= roots[lo : lo + block.shape[0], None] != roots[None, lo:]
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


def max_spanning_tree(blocks: MiBlocks) -> ChowLiuTree:
    """Kruskal over edges sorted by weight descending, ties by (u, v) ascending.

    The weights are the MI row blocks of a dataset, computed again for each
    band and never held together.

    Only the heaviest edges are sorted: every edge of weight >= theta, where
    theta is the weight of the k-th heaviest, so edges tied at theta come
    along.  Those edges are exactly the first ones of the full order, so
    Kruskal makes the same choices on them.  If they do not span, the next
    band of lighter edges is sorted and scanned, k growing each time, down
    to the full edge list.  A band after the first is taken from the edges
    whose ends are still in different components: Kruskal rejects every
    other edge, since components only merge, and that leaves out every edge
    of the earlier bands too.  For the same reason each KRUSKAL_CHUNK of a
    sorted band after the first drops the edges whose ends are already
    joined before it is scanned.
    """
    v = blocks.n_features
    uf = _UnionFind(v)
    chosen = []
    k = PREFIX_EDGES_PER_NODE * v
    while len(chosen) < v - 1:
        x, key = _band(blocks, v, k, uf.roots() if chosen else None)
        # lexsort's last key is primary: -weight first, then u * V + t
        order = np.lexsort((key, -x))
        key, x = key[order], x[order]
        for lo in range(0, x.size, KRUSKAL_CHUNK):
            iu, ju = np.divmod(key[lo : lo + KRUSKAL_CHUNK], v)
            wts = x[lo : lo + KRUSKAL_CHUNK]
            if lo:
                roots = uf.roots()
                apart = roots[iu] != roots[ju]
                iu, ju, wts = iu[apart], ju[apart], wts[apart]
            for u, t, wt in zip(iu.tolist(), ju.tolist(), wts.tolist()):
                if uf.union(u, t):
                    chosen.append((u, t, wt))
                    if len(chosen) == v - 1:
                        break
            if len(chosen) == v - 1:
                break
        k *= 4
    chosen.sort(key=lambda e: (e[0], e[1]))
    return ChowLiuTree(v, tuple(chosen))


def chow_liu(bd: BinaryDataset) -> ChowLiuTree:
    """Weight feature pairs by mutual information and keep the best tree.

    The MI row blocks stream straight into the tree's band selection, so no
    more than a few blocks of MI are held at once.
    """
    return max_spanning_tree(MiBlocks(bd))


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
