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
    iteration computes the blocks afresh and keeps none, so the whole V x V
    matrix is never held.
    """

    data: BinaryDataset

    @property
    def n_features(self) -> int:
        return self.data.n_features

    def __iter__(self):
        """Each block from one co-occurrence product against the columns from the block onwards.

        A pair that never co-occurs has an MI that depends only on its two
        marginal counts, so it is read from a table of the block's rows
        against the distinct marginal counts (at most min(V, N + 1) of them);
        only pairs with a joint count above 0 are computed one by one.  Each
        entry is the single-pair formula on its 2x2 table, bit for bit: the
        same float operations on the same integer counts.
        """
        d = self.data
        n_samples = float(d.n_samples)
        v = d.n_features
        # features as rows, so every block product reads contiguous memory
        xt = np.ascontiguousarray(d.values.T, dtype=_count_dtype(d.n_samples))
        ones = d.values.sum(axis=0, dtype=np.float64)
        levels, level = np.unique(ones, return_inverse=True)
        for lo in range(0, v, MI_ROW_BLOCK):
            hi = min(lo + MI_ROW_BLOCK, v)
            n11 = xt[lo:hi] @ xt[lo:].T
            absent = _pair_mi(0.0, ones[lo:hi, None], levels[None, :], n_samples)
            # every index is in range, so "clip" only skips take's buffered bounds check
            upper = np.take(absent, level[lo:], axis=1, mode="clip")
            rows, cols = np.divmod(np.flatnonzero(n11 > 0), v - lo)
            upper[rows, cols] = _pair_mi(
                n11[rows, cols].astype(np.float64), ones[lo + rows], ones[lo + cols], n_samples
            )
            upper[:, : hi - lo][np.tril_indices(hi - lo)] = 0.0  # strict upper triangle only
            yield lo, upper


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
