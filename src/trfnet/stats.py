"""Contingency counting and empirical pairwise mutual information.

All information quantities are in nats.  Counts are kept as exact integers
and turned into probabilities only at the final division, and zero joint
counts contribute exactly zero, per the 0 * ln(0 / q) = 0 convention.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import BinaryDataset


@dataclass(frozen=True)
class ContingencyCounts:
    """2x2 joint counts of a binary feature pair; n[j][k] = #(x_s = j, x_t = k)."""

    n: np.ndarray
    total: int

    def __post_init__(self):
        n = np.array(self.n, dtype=np.int64)
        if n.shape != (2, 2):
            raise ValueError(f"contingency table must be 2x2, got {n.shape}")
        if (n < 0).any():
            raise ValueError("counts must be nonnegative")
        if int(n.sum()) != self.total:
            raise ValueError(f"cells sum to {int(n.sum())}, not total={self.total}")
        if self.total < 1:
            raise ValueError("total must be >= 1")
        n.setflags(write=False)
        object.__setattr__(self, "n", n)


@dataclass(frozen=True)
class MiMatrix:
    """Symmetric V x V matrix of pairwise mutual information; diagonal fixed to 0."""

    m: np.ndarray

    def __post_init__(self):
        m = self.m
        # a read-only float64 array that owns its data cannot change under us,
        # so it is kept as is; anything else is copied
        if not (isinstance(m, np.ndarray) and m.dtype == np.float64
                and m.base is None and not m.flags.writeable):
            m = np.array(m, dtype=np.float64)
        if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] < 2:
            raise ValueError(f"expected a square V x V matrix with V >= 2, got {m.shape}")
        m.setflags(write=False)
        object.__setattr__(self, "m", m)

    @property
    def n_features(self) -> int:
        return self.m.shape[0]

    def save_csv(self, path) -> None:
        """Dense V x V CSV dump for inspection."""
        with open(path, "w", encoding="utf-8") as fh:
            for row in self.m:
                fh.write(",".join(repr(x) for x in row.tolist()) + "\n")


def pair_counts(d: BinaryDataset, s: int, t: int) -> ContingencyCounts:
    """Exact joint counts of features s and t over all samples."""
    if s == t:
        raise ValueError(f"need two distinct features, got s = t = {s}")
    v = d.n_features
    if not (0 <= s < v and 0 <= t < v):
        raise ValueError(f"feature indices out of range: s={s}, t={t}, V={v}")
    xs = d.values[:, s].astype(np.int64)
    xt = d.values[:, t].astype(np.int64)
    n11 = int((xs & xt).sum())
    n1_ = int(xs.sum())
    n_1 = int(xt.sum())
    n = np.array(
        [
            [d.n_samples - n1_ - n_1 + n11, n_1 - n11],
            [n1_ - n11, n11],
        ],
        dtype=np.int64,
    )
    return ContingencyCounts(n, d.n_samples)


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


def empirical_mi(c: ContingencyCounts) -> float:
    """Mutual information (nats) of the pair behind a 2x2 contingency table."""
    n = c.n.astype(np.float64)
    total = float(c.total)
    row = n.sum(axis=1)
    col = n.sum(axis=0)
    t = _mi_from_cells(n, row[:, None], col[None, :], total)
    # pairing the diagonal and off-diagonal terms keeps the float sum exactly
    # invariant under table transpose, so mi(s, t) == mi(t, s) bit for bit
    return float((t[0, 0] + t[1, 1]) + (t[0, 1] + t[1, 0]))


# rows of the upper triangle computed together; peak memory is about a dozen
# MI_ROW_BLOCK x V float arrays on top of the V x V result
MI_ROW_BLOCK = 256


def mi_matrix(d: BinaryDataset) -> MiMatrix:
    """All-pairs mutual information, vectorized over the 2x2 cell counts.

    The upper triangle is computed in blocks of MI_ROW_BLOCK rows, each from
    one co-occurrence product against the columns from the block onwards,
    and mirrored block by block.  Every entry equals
    empirical_mi(pair_counts(d, s, t)) exactly because both paths perform the
    same float operations on the same integer counts.
    """
    # features as rows, so every block product reads contiguous memory
    xt = np.ascontiguousarray(d.values.T, dtype=np.float64)
    n_samples = float(d.n_samples)
    v = d.n_features
    ones = xt.sum(axis=1)
    zeros = n_samples - ones
    out = np.zeros((v, v))
    for lo in range(0, v, MI_ROW_BLOCK):
        hi = min(lo + MI_ROW_BLOCK, v)
        n11 = xt[lo:hi] @ xt[lo:].T
        r1, c1 = ones[lo:hi, None], ones[None, lo:]
        r0, c0 = zeros[lo:hi, None], zeros[None, lo:]
        n10 = r1 - n11
        n01 = c1 - n11
        n00 = n_samples - r1 - c1 + n11
        t00 = _mi_from_cells(n00, r0, c0, n_samples)
        t01 = _mi_from_cells(n01, r0, c1, n_samples)
        t10 = _mi_from_cells(n10, r1, c0, n_samples)
        t11 = _mi_from_cells(n11, r1, c1, n_samples)
        upper = out[lo:hi, lo:]
        upper[...] = (t00 + t11) + (t01 + t10)
        upper[:, : hi - lo][np.tril_indices(hi - lo)] = 0.0  # strict upper triangle only
        out[lo:, lo:hi] += upper.T
    out.setflags(write=False)
    return MiMatrix(out)


def marginal_log_prob_sum(d: BinaryDataset) -> float:
    """Sum over features and states of p_hat * ln(p_hat), zero states skipped.

    This is the negated total marginal entropy of the dataset.
    """
    x = d.values.astype(np.float64)
    n = float(d.n_samples)
    counts = np.stack([n - x.sum(axis=0), x.sum(axis=0)])
    p = counts / n
    with np.errstate(divide="ignore", invalid="ignore"):
        term = p * np.log(p)
    return float(np.where(counts > 0, term, 0.0).sum())
