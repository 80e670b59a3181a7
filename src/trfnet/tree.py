"""Maximum-weight spanning trees over mutual information.

The learned tree is the classic Chow-Liu structure: weight every feature
pair by its empirical mutual information and keep a maximum-weight spanning
tree.  Kruskal's algorithm with a fixed tie order makes the result
deterministic.  The weights come from either source in stats, the MI block
stream or the pair list of sparse data; both give the same tree, weights
bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import partial

import numpy as np

from .data import BinaryDataset
from .stats import MiBlocks, MiPairs, PairMi, mi_source

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


def ball(adj: list[list[int]], center: int, depth: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes within depth hops of center in the graph adj and their hop
    distances, in breadth-first order."""
    nodes, dists, seen = [center], [0], {center}
    for u, d in zip(nodes, dists):  # the lists are the queue: zip reads what the loop appends
        if d == depth:
            break
        for v in adj[u]:
            if v not in seen:
                seen.add(v)
                nodes.append(v)
                dists.append(d + 1)
    return np.array(nodes, dtype=np.int64), np.array(dists, dtype=np.int64)


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
        block = _clamp(block)
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


def _clamp(x: np.ndarray) -> np.ndarray:
    return np.where(np.abs(x) < WEIGHT_CLAMP, 0.0, x)


def _kth_heaviest(x: np.ndarray, w: np.ndarray, copies: np.ndarray, k: int) -> float:
    """The k-th heaviest of the weights x, one each, and w, copies[i] of w[i]; the lightest if fewer than k."""
    weights = np.concatenate([x, w])
    order = np.argsort(-weights, kind="stable")
    reach = np.cumsum(np.concatenate([np.ones(x.size, dtype=np.int64), copies])[order])
    return weights[order[min(int(np.searchsorted(reach, k)), weights.size - 1)]]


def _pair_band(mi: PairMi, k: int, roots: np.ndarray | None):
    """_band's result from a clamped pair list: every candidate at least as heavy as the k-th heaviest.

    Candidates are the listed pairs and the absent ones (pairs that never
    co-occur), counted by level pair; theta is the k-th heaviest of both.
    It is at least the k-th heaviest listed candidate, so the absent pairs
    are counted only when some level pair weighs that much.  The band is
    every listed candidate of weight >= theta plus every absent candidate
    whose level pair weighs >= theta; absent pairs are enumerated for those
    level pairs only.
    """
    apart = None if roots is None else mi.apart(roots)
    x = mi.weights if apart is None else mi.weights[apart]
    theta = np.partition(x, x.size - k)[x.size - k] if x.size >= k else -np.inf
    wanted = np.zeros(mi.absent.shape, dtype=bool)
    if (mi.absent >= theta).any():
        count = mi.absent_counts(roots)
        some = (count > 0) & (mi.absent >= theta)
        theta = _kth_heaviest(x[x >= theta], mi.absent[some], count[some], k)
        wanted = some & (mi.absent >= theta)
    held = mi.weights >= theta
    if apart is not None:
        held &= apart
    extra = mi.absent_pairs(wanted, roots)
    u, t = np.divmod(extra, mi.n_features)
    return (
        np.concatenate([mi.weights[held], mi.absent[mi.level[u], mi.level[t]]]),
        np.concatenate([mi.keys[held], extra]),
    )


def _clamped(mi: PairMi) -> PairMi:
    return replace(mi, weights=_clamp(mi.weights), absent=_clamp(mi.absent))


def max_spanning_tree(weights: MiBlocks | MiPairs) -> ChowLiuTree:
    """Kruskal over edges sorted by weight descending, ties by (u, v) ascending.

    The weights are either the MI row blocks of a dataset, computed again
    for each band and never held together, or the pair list of an MiPairs
    source, computed once here and read by every band.

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
    v = weights.n_features
    if isinstance(weights, MiPairs):
        band = partial(_pair_band, _clamped(weights.compute()))
    else:
        band = partial(_band, weights, v)
    uf = _UnionFind(v)
    chosen = []
    k = PREFIX_EDGES_PER_NODE * v
    while len(chosen) < v - 1:
        x, key = band(k, uf.roots() if chosen else None)
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

    stats.mi_source picks the weights: the pair list for sparse data, else
    the MI row blocks, which stream straight into the band selection.  The
    tree is the same either way.
    """
    return max_spanning_tree(mi_source(bd))


def hop_distances(t: ChowLiuTree, source: int) -> np.ndarray:
    """Tree hop distance from source to every node: the ball that holds the whole tree."""
    if not (0 <= source < t.node_count):
        raise ValueError(f"source {source} out of range for {t.node_count} nodes")
    nodes, dists = ball(t.adjacency(), source, t.node_count - 1)
    return dists[np.argsort(nodes)]  # the ball holds every node once


def to_dot(t: ChowLiuTree, feature_names=None) -> str:
    """Graphviz rendering; node labels escape \\ and ", edge labels are mutual information to 4 decimals."""
    names = feature_names or [str(i) for i in range(t.node_count)]
    if len(names) != t.node_count:
        raise ValueError(f"expected {t.node_count} names, got {len(names)}")
    lines = ["graph chowliu {"]
    for i, name in enumerate(names):
        label = name.replace("\\", "\\\\").replace('"', '\\"')
        lines.append(f'  n{i} [label="{label}"];')
    for u, v, w in t.edges:
        lines.append(f'  n{u} -- n{v} [label="{w:.4f}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
