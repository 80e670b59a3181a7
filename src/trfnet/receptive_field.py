"""Covering a feature tree with receptive fields and emitting the connectivity.

A receptive field is the <= r hop ball around a center node.  Centers are
chosen greedily: the first uniformly at random (seeded), each later one the
lowest-indexed node whose minimum hop distance to the chosen centers is
exactly the stride.  Each field becomes the input set of one hidden unit,
and optional global units connect to every node; ReceptiveFieldPlan.index
gives that connectivity as sorted flat positions, the form a layer stores.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .tree import ChowLiuTree, ball


@dataclass(frozen=True)
class ReceptiveFieldPlan:
    """Ordered centers with their member-node sets plus a global-unit count."""

    radius: int
    stride: int
    centers: tuple[int, ...]
    fields: tuple[tuple[int, ...], ...]
    global_count: int
    # index(V) per V, each built once and read-only; not part of the plan's value
    _indexes: dict[int, np.ndarray] = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        if len(self.centers) != len(set(self.centers)):
            raise ValueError("centers must be distinct")
        if len(self.fields) != len(self.centers):
            raise ValueError("need exactly one field per center")
        if self.global_count < 0:
            raise ValueError("global_count must be nonnegative")

    def __setstate__(self, state: dict) -> None:
        """A copy's indexes, its own arrays, are read-only too."""
        self.__dict__.update(state)
        for index in self._indexes.values():
            index.flags.writeable = False

    @property
    def hidden_count(self) -> int:
        return len(self.centers) + self.global_count

    def index(self, visible_count: int) -> np.ndarray:
        """Flat row-major positions of the planned H x visible_count
        connectivity: field rows in center order, then all-ones global rows;
        a center or field member outside [0, visible_count) raises ValueError.
        The array is built once per visible_count and is read-only, so every
        layer made from it holds this one array."""
        index = self._indexes.get(visible_count)
        if index is None:
            if any(min(f) < 0 or max(f) >= visible_count for f in (self.centers, *self.fields) if f):
                raise ValueError(f"plan names a feature outside [0, {visible_count})")
            sizes = [len(f) for f in self.fields]
            members = np.fromiter((m for f in self.fields for m in f), np.int64, sum(sizes))
            rows = np.repeat(np.arange(len(sizes), dtype=np.int64) * visible_count, sizes) + members
            index = np.concatenate([rows, np.arange(len(sizes) * visible_count, self.hidden_count * visible_count)])
            index.flags.writeable = False
            self._indexes[visible_count] = index
        return index


def _cover(adj: list[list[int]], s: int, seed: int, depth: int):
    """Greedy stride-s centers, each with its ball of radius depth >= s.

    The distance to the nearest chosen center is tracked only up to depth
    hops and reads depth + 1 beyond; "exactly s hops" needs no more.
    Returns the centers, per center its ball as (nodes, distances), and per
    node the index of its nearest center, ties to the earliest (meaningful
    where that distance is at most depth).
    """
    if s < 1:
        raise ValueError(f"stride must be >= 1, got {s}")
    rng = np.random.default_rng(seed)
    c = int(rng.integers(len(adj)))
    min_dist = np.full(len(adj), depth + 1, dtype=np.int64)
    owner = np.zeros(len(adj), dtype=np.int64)
    centers, balls = [], []
    while True:
        nodes, dists = ball(adj, c, depth)
        closer = dists < min_dist[nodes]
        min_dist[nodes[closer]] = dists[closer]
        owner[nodes[closer]] = len(centers)
        centers.append(c)
        balls.append((nodes, dists))
        candidates = np.flatnonzero(min_dist == s)
        if candidates.size == 0:
            return centers, balls, owner
        c = int(candidates[0])


def build_masks(
    t: ChowLiuTree,
    r: int,
    s: int,
    global_fraction: float,
    seed: int,
) -> ReceptiveFieldPlan:
    """Plan receptive fields over the tree; plan.index(V) is the layer's connectivity.

    Hidden units are ordered field units first (center order), then global
    units.  global_count rounds half-up from global_fraction * #centers, with
    a floor of one whenever global_fraction > 0.  If the stride leaves nodes
    outside every ball (possible once s > r + 1), each such node is appended
    to the field of the nearest center, ties to the earliest center, so no
    input unit is silently dropped.

    The adjacency is built once and every BFS stops at max(r, s) hops.  That
    is exact: distance to the nearest center changes by at most 1 along a
    tree edge, so once no node sits exactly s hops from the nearest center,
    every node is within s - 1 hops of one, and the nearest center of an
    uncovered node lies inside the balls already traversed.
    """
    if r < 0:
        raise ValueError(f"radius must be >= 0, got {r}")
    if not 0.0 <= global_fraction <= 1.0:
        raise ValueError(f"global_fraction must be in [0, 1], got {global_fraction}")
    centers, balls, owner = _cover(t.adjacency(), s, seed, max(r, s))
    fields = [nodes[dists <= r].tolist() for nodes, dists in balls]
    covered = np.zeros(t.node_count, dtype=bool)
    for f in fields:
        covered[f] = True
    for v in np.flatnonzero(~covered).tolist():
        fields[owner[v]].append(v)
    fields = [sorted(f) for f in fields]

    global_count = int(np.floor(global_fraction * len(centers) + 0.5))
    if global_fraction > 0:
        global_count = max(1, global_count)
    return ReceptiveFieldPlan(
        radius=r,
        stride=s,
        centers=tuple(centers),
        fields=tuple(tuple(f) for f in fields),
        global_count=global_count,
    )
