"""Empirical pairwise mutual information of binary features.

All information quantities are in nats.  The cell counts of each 2x2 table
are exact integers, turned into probabilities only at the final division,
and zero joint counts contribute exactly zero, per the 0 * ln(0 / q) = 0
convention.

Two sources give the same weights, bit for bit, in two shapes: MiBlocks
streams the strict upper triangle in row blocks from dense co-occurrence
products; MiPairs counts co-occurrences from each row's nonzero columns and
lists only the pairs that co-occur, with one table of marginal levels for
every other pair.  mi_source picks the cheaper one for a dataset.  All three
read a BinaryDataset, the Nonzeros of its ones: row pointers and (row,
column) pairs, so MiPairs never makes a binary matrix dense.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import BinaryDataset


def _mi_from_cells(n: np.ndarray, row_marg: np.ndarray, col_marg: np.ndarray, total: float):
    """Per-cell p * ln(p / (p_row * p_col)) with zero cells contributing 0.

    All inputs are float arrays of exact integer counts, broadcastable to the
    cell shape.  Row/column marginals of a nonzero cell are always nonzero, so
    masking on the cell count alone is safe.
    """
    p = n / total
    with np.errstate(divide="ignore", invalid="ignore"):
        term = p * np.log(p / ((row_marg / total) * (col_marg / total)))
    return np.where(n > 0, term, 0.0)


def _pair_mi(n11: np.ndarray, r1: np.ndarray, c1: np.ndarray, total: float) -> np.ndarray:
    """MI of the 2x2 tables with joint count n11 and marginal counts r1, c1.

    Inputs are float64 scalars or arrays of exact integer counts,
    broadcastable to one shape.  Pairing the diagonal and off-diagonal cell terms keeps the sum
    invariant under table transpose.
    """
    n10 = r1 - n11
    n01 = c1 - n11
    n00 = total - r1 - c1 + n11
    r0, c0 = total - r1, total - c1
    t00 = _mi_from_cells(n00, r0, c0, total)
    t01 = _mi_from_cells(n01, r0, c1, total)
    t10 = _mi_from_cells(n10, r1, c0, total)
    t11 = _mi_from_cells(n11, r1, c1, total)
    return (t00 + t11) + (t01 + t10)


def _count_dtype(n_samples: int):
    """float32 while every co-occurrence count, an integer <= n_samples, is exact in it."""
    return np.float32 if n_samples < 2**24 else np.float64


# rows of the upper triangle computed together; memory on top of the binary
# data in float32 is a few MI_ROW_BLOCK x V arrays
MI_ROW_BLOCK = 256


@dataclass(frozen=True)
class MiBlocks:
    """The strict upper triangle of the MI matrix of data, one row block at a time.

    Iterating yields (lo, block) per MI_ROW_BLOCK rows: block holds rows
    lo:hi against columns lo:, with zeros on and below the diagonal.  Each
    iteration computes the blocks afresh from data's ones and keeps none, so
    the whole V x V matrix is never held.
    """

    data: BinaryDataset

    @property
    def n_features(self) -> int:
        return self.data.n_features

    def __iter__(self):
        """Each block from one co-occurrence product against the columns from the block onwards.

        Every entry is the single-pair formula on its own 2x2 table, as in
        MiPairs, so the bits agree.  mi_source sends only dense data here,
        where most pairs co-occur and a table of marginal levels saves little.
        """
        d = self.data
        n_samples = float(d.n_samples)
        v = d.n_features
        rows, cols = d.row_ids(), d.columns
        # features as rows, so every block product reads contiguous memory
        xt = np.zeros((v, d.n_samples), dtype=_count_dtype(d.n_samples))
        xt[cols, rows] = 1
        ones = np.bincount(cols, minlength=v).astype(np.float64)
        del rows, cols
        for lo in range(0, v, MI_ROW_BLOCK):
            hi = min(lo + MI_ROW_BLOCK, v)
            n11 = (xt[lo:hi] @ xt[lo:].T).astype(np.float64, copy=False)
            upper = _pair_mi(n11, ones[lo:hi, None], ones[None, lo:], n_samples)
            upper[:, : hi - lo][np.tril_indices(hi - lo)] = 0.0  # strict upper triangle only
            yield lo, upper


# pairs handled together from the nonzeros: co-occurrence increments
# generated and sorted at once, listed pairs read at once, never-co-occurring
# pairs enumerated at once; a few int64 arrays of this length are all the
# pair list needs on top of itself
PAIR_BLOCK = 1 << 16

# mi_source counts from the nonzeros when the V^2 / 2 pairs MiBlocks weighs
# are at least this many times the co-occurrence increments.  Weighing every
# pair, not the N * V^2 / 2 multiply-adds of its product, is what the block
# path's time follows at these sizes: at V = 2000 it took 0.24-0.29 s at
# N = 1400 and 0.27-0.48 s at N = 300.  Measured with max_spanning_tree on
# random V = 2000 data held as nonzeros, column rates uniform or Pareto
# (2-core box, best of 3 or 5, pairs against blocks; BENCH_21.json): at N = 1400, ratio 1.15 took
# 0.22 s against 0.28 (uniform) and 0.19 against 0.26 (Pareto), 0.80 took
# 0.28 against 0.27 and 0.81 took 0.22 against 0.26, 0.58 took 0.36 against
# 0.26 and 0.60 took 0.27 against 0.24; at N = 700, 0.90 took 0.24 against
# 0.25 and 0.40 took 0.54 against 0.21; at N = 300, 1.36 took 0.18 against
# 0.29 and 0.94 took 0.23 against 0.21.  The two cost the same near 0.75;
# the list also holds memory in proportion to the pairs, not to V.  Ratios
# of the perfbench train splits: wide-v4000 about 6.5, news-d2 layer 0 about
# 1.6, news-d2 layer 1 (23.4% dense) about 0.013.
PAIR_PATH_MIN_RATIO = 0.75


def _later_pairs(first: np.ndarray, end: np.ndarray):
    """Entry index pairs (i, j) with i in first and i < j < end of i's group.

    Entries are grouped contiguously and end[m] is one past the group of
    first[m]; the pairs come in the order of first, then of j.
    """
    span = end - first - 1
    i = np.repeat(first, span)
    j = np.arange(i.size) + np.repeat(first + 1 - (np.cumsum(span) - span), span)
    return i, j


@dataclass(frozen=True)
class PairMi:
    """The MI of every feature pair: a list of the pairs that co-occur, a table for the rest.

    keys holds u * V + t (u < t) of every pair whose joint count is above 0,
    ascending, and weights their MI.  Every other pair never co-occurs, so its
    MI depends only on its two marginal counts: levels holds the L distinct
    marginal counts, ascending, level maps each feature to its index in
    levels, and absent[a, b] is the MI of a pair whose ends have levels a
    and b (symmetric, bit for bit).  The distinct counts are distinct
    integers summing to at most the number of nonzeros, so L * (L - 1) / 2
    is at most that number too.
    """

    keys: np.ndarray
    weights: np.ndarray
    levels: np.ndarray
    level: np.ndarray
    absent: np.ndarray

    @property
    def n_features(self) -> int:
        return self.level.size

    def apart(self, roots: np.ndarray) -> np.ndarray:
        """Whether the ends of each listed pair have different roots."""
        out = np.empty(self.keys.size, dtype=bool)
        for lo in range(0, self.keys.size, PAIR_BLOCK):
            u, t = np.divmod(self.keys[lo : lo + PAIR_BLOCK], self.n_features)
            out[lo : lo + PAIR_BLOCK] = roots[u] != roots[t]
        return out

    def absent_counts(self, roots: np.ndarray | None = None) -> np.ndarray:
        """Pairs that never co-occur, by level pair: an L x L upper triangle.

        With roots, only pairs whose ends have different roots are counted.
        """
        n_levels = self.absent.shape[0]
        per_level = np.bincount(self.level, minlength=n_levels)
        count = np.triu(np.outer(per_level, per_level))
        count[np.diag_indices(n_levels)] = per_level * (per_level - 1) // 2
        if roots is not None:
            count -= _same_root_counts(roots, self.level, n_levels)
        listed = np.zeros(n_levels**2, dtype=np.int64)
        for lo in range(0, self.keys.size, PAIR_BLOCK):
            u, t = np.divmod(self.keys[lo : lo + PAIR_BLOCK], self.n_features)
            if roots is not None:
                apart = roots[u] != roots[t]
                u, t = u[apart], t[apart]
            a, b = self.level[u], self.level[t]
            listed += np.bincount(np.minimum(a, b) * n_levels + np.maximum(a, b), minlength=n_levels**2)
        return count - listed.reshape(n_levels, n_levels)

    def absent_pairs(self, wanted: np.ndarray, roots: np.ndarray | None = None) -> np.ndarray:
        """Keys u * V + t of the pairs that never co-occur and whose level pair is wanted.

        wanted is an L x L boolean upper triangle.  With roots, only pairs
        whose ends have different roots are kept.  Features are paired
        PAIR_BLOCK candidates at a time.
        """
        v = self.n_features
        by_level = np.argsort(self.level, kind="stable")
        sorted_level = self.level[by_level]
        bounds = np.searchsorted(sorted_level, np.arange(self.absent.shape[0] + 1))
        out = [np.empty(0, dtype=np.int64)]
        for a in np.flatnonzero(wanted.any(axis=1)):
            # the features of every wanted level b >= a; a pair inside level a
            # comes up from both ends, and keep takes it once
            partners = by_level[wanted[a][sorted_level]]
            ends = by_level[bounds[a] : bounds[a + 1]]
            step = max(1, PAIR_BLOCK // max(1, partners.size))
            for lo in range(0, ends.size, step):
                u = np.repeat(ends[lo : lo + step], partners.size)
                t = np.tile(partners, min(step, ends.size - lo))
                keep = (self.level[t] != a) | (u < t)
                if roots is not None:
                    keep &= roots[u] != roots[t]
                u, t = u[keep], t[keep]
                key = np.minimum(u, t) * v + np.maximum(u, t)
                if self.levels[a] > 0:  # a feature that never occurs co-occurs with nothing
                    key = key[~_member(key, self.keys)]
                out.append(key)
        return np.concatenate(out)


def _member(key: np.ndarray, sorted_keys: np.ndarray) -> np.ndarray:
    """Whether each key is in sorted_keys."""
    if not sorted_keys.size:
        return np.zeros(key.shape, dtype=bool)
    at = np.minimum(np.searchsorted(sorted_keys, key), sorted_keys.size - 1)
    return sorted_keys[at] == key


def _same_root_counts(roots: np.ndarray, level: np.ndarray, n_levels: int) -> np.ndarray:
    """Feature pairs with the same root, by level pair: an L x L upper triangle."""
    group, size = np.unique(roots * n_levels + level, return_counts=True)
    root, lev = np.divmod(group, n_levels)
    # (root, level) groups sorted by level inside each root, so lev[i] < lev[j]
    i, j = _later_pairs(np.arange(root.size), np.searchsorted(root, root, side="right"))
    flat = np.zeros(n_levels**2)
    flat += np.bincount(lev[i] * n_levels + lev[j], weights=size[i] * size[j], minlength=n_levels**2)
    flat += np.bincount(lev * (n_levels + 1), weights=size * (size - 1) // 2, minlength=n_levels**2)
    # every count is an integer below 2**53, exact in float64
    return flat.astype(np.int64).reshape(n_levels, n_levels)


@dataclass(frozen=True)
class MiPairs:
    """The MI of data's feature pairs from its ones, row by row, computed on demand by compute().

    Meant for sparse data: the work grows with the co-occurrence increments
    (sum over rows of L(L - 1) / 2 for a row of L ones), not with V^2.
    """

    data: BinaryDataset

    @property
    def n_features(self) -> int:
        return self.data.n_features

    def compute(self) -> PairMi:
        """Count every pair's co-occurrences exactly, as integers, and weigh the pairs that co-occur.

        Each weight is the single-pair formula on the pair's 2x2 table, the
        same float operations on the same integer counts as MiBlocks, so the
        bits agree.
        """
        d = self.data
        rows, cols = d.row_ids(), d.columns
        ones = np.bincount(cols, minlength=d.n_features).astype(np.float64)
        levels, level = np.unique(ones, return_inverse=True)
        absent = _pair_mi(0.0, levels[:, None], levels[None, :], float(d.n_samples))
        blocks = [(np.empty(0, dtype=np.int64), np.empty(0)), *self._weighed(rows, cols, ones)]
        keys, weights = zip(*blocks)
        return PairMi(np.concatenate(keys), np.concatenate(weights), levels, level, absent)

    def _weighed(self, rows: np.ndarray, cols: np.ndarray, ones: np.ndarray):
        """(keys, MI) of the pairs that co-occur, one range of first columns at a time.

        Each row's nonzero columns are paired with its later ones.  A range
        holds at most PAIR_BLOCK increments (or one column), so its keys are
        sorted and counted apart from the others and already come out in
        order.
        """
        n_samples = float(self.data.n_samples)
        v = self.n_features
        row_end = self.data.indptr[1:][rows]
        by_col = np.argsort(cols, kind="stable")
        col_start = np.searchsorted(cols[by_col], np.arange(v + 1))
        # increments generated before each column's first entry, in column order
        before = np.concatenate(([0], np.cumsum(row_end[by_col] - by_col - 1)))[col_start]
        lo = 0
        while lo < v:
            hi = max(lo + 1, int(np.searchsorted(before, before[lo] + PAIR_BLOCK, side="right")) - 1)
            first = by_col[col_start[lo] : col_start[hi]]
            i, j = _later_pairs(first, row_end[first])
            key, n11 = np.unique(cols[i] * v + cols[j], return_counts=True)
            u, t = np.divmod(key, v)
            yield key, _pair_mi(n11.astype(np.float64), ones[u], ones[t], n_samples)
            lo = hi


def mi_source(d: BinaryDataset) -> MiPairs | MiBlocks:
    """MiPairs when the co-occurrence increments (from d's row pointers) are few against the V^2 / 2 pairs, else MiBlocks.

    Both give the same weights, bit for bit; PAIR_PATH_MIN_RATIO says where
    the list is the cheaper of the two.
    """
    per_row = np.diff(d.indptr).astype(np.float64)
    increments = float(np.sum(per_row * (per_row - 1) / 2))
    pairs = float(d.n_features) ** 2 / 2
    return MiPairs(d) if pairs >= PAIR_PATH_MIN_RATIO * increments else MiBlocks(d)


def mi_matrix(d: BinaryDataset) -> np.ndarray:
    """All-pairs mutual information as a read-only, symmetric V x V array.

    The row blocks of MiBlocks(d), each mirrored into the lower triangle as
    it arrives; the diagonal is 0.
    """
    v = d.n_features
    out = np.empty((v, v))
    for lo, upper in MiBlocks(d):
        hi = lo + upper.shape[0]
        out[lo:hi, lo:] = upper
        out[lo:hi, lo:hi] += upper[:, : hi - lo].T
        out[hi:, lo:hi] = upper[:, hi - lo :].T
    out.setflags(write=False)
    return out
