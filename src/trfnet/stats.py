"""Empirical pairwise mutual information of binary features.

All information quantities are in nats.  The cell counts of each 2x2 table
are exact integers, turned into probabilities only at the final division,
and zero joint counts contribute exactly zero, per the 0 * ln(0 / q) = 0
convention.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import BinaryDataset


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


# rows of the upper triangle computed together; peak memory is about a dozen
# MI_ROW_BLOCK x V float arrays on top of the V x V result
MI_ROW_BLOCK = 256


def mi_matrix(d: BinaryDataset) -> MiMatrix:
    """All-pairs mutual information, vectorized over the 2x2 cell counts.

    The upper triangle is computed in blocks of MI_ROW_BLOCK rows, each from
    one co-occurrence product against the columns from the block onwards,
    and mirrored block by block.  Each entry is the single-pair formula on
    its 2x2 table, bit for bit: the same float operations on the same integer
    counts.  Pairing the diagonal and off-diagonal cell terms keeps the sum
    invariant under table transpose.
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
