"""Dataset containers, file loaders, binarization, and train/valid/test splitting.

Two on-disk formats are supported:

* dense CSV: UTF-8, comma separated, one header row of at least 2 distinct
  feature names, decimal-point floats; with labels, the last column holds an
  integer class label.
* sparse bag-of-words: a vocabulary file (one token per line) plus a document
  file whose lines read ``label idx:count idx:count ...`` with 0-based,
  strictly in-vocabulary indices and integer counts from 1 to 2**53.

A Dataset holds its N x V matrix one of two ways, and only that way: a dense
float64 array (CSV input, projected layers, arrays given by a caller) or
the matrix's nonzeros, row by row (bag-of-words counts, as load_sparse_bow
and synth.news_corpus make them).  Subsets, splits, the bag-of-words
writer and discretize work on the nonzeros of a count corpus.  A binary
matrix, from any source, is a BinaryDataset: the Nonzeros of its int8 ones,
which the mutual-information code reads as (row, column) pairs.  Dense rows of
a count corpus are made only where the math reads them -- Dataset.rows for
a training batch, Dataset.dense for one scoring, projection or
interpretation call -- and dropped after it; none is stored.

load_sparse_bow reads a document file with one regular-expression match per
line, one integer conversion of all its numbers and vectorized checks of
range, count and duplicates.  A file any of them rejects is parsed again
line by line, so every error names its line exactly as the per-line parser
always has.  On a 2-core box the 1400 x 4000 train split of the wide-v4000
benchmark loads in 18 ms at a 4.0 MB tracemalloc peak, and the 1400 x 16000
train split of make_news_fixture.py --vocab 16000 in 23 ms at 4.8 MB; the
dense float64 arrays of the two are 43 and 171 MB.
"""

from __future__ import annotations

import math
import re
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .errors import DataFormatError, EmptyInputError, PolicyViolationError

MEDIAN = "median-threshold"
FIXED = "fixed-threshold"
ALREADY_BINARY = "already-binary"


class _Fresh:
    """An array this module has made for a container, which no one will write to."""

    __slots__ = ("array",)

    def __init__(self, array: np.ndarray):
        self.array = array


def _frozen(values, dtype=None) -> np.ndarray:
    """values as a read-only array of dtype (by default its own): a _Fresh array of that dtype is frozen in place, anything else copied."""
    if isinstance(values, _Fresh):
        values = values.array
        if dtype is None or values.dtype == dtype:
            values.setflags(write=False)
            return values
    out = np.array(values, dtype=dtype)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class Nonzeros:
    """An N x V matrix held as its nonzero entries, row by row (compressed sparse rows).

    Row i holds entries[indptr[i]:indptr[i + 1]] at columns[indptr[i]:indptr[i + 1]],
    columns strictly rising; every other entry is 0.  Entries are finite
    and above 0 -- counts, or the int8 ones of a BinaryDataset -- and keep their
    dtype.  The arrays are made read-only (copied unless this module just
    made them), so a Nonzeros can be shared.
    """

    shape: tuple[int, int]
    indptr: np.ndarray
    columns: np.ndarray
    entries: np.ndarray

    def __post_init__(self):
        n, v = (int(x) for x in self.shape)
        indptr = _frozen(self.indptr, np.int64)
        columns = _frozen(self.columns, np.int64)
        entries = _frozen(self.entries)
        if indptr.shape != (n + 1,) or indptr[0] != 0 or (np.diff(indptr) < 0).any():
            raise ValueError(f"indptr must rise from 0 in {n + 1} steps")
        if columns.shape != (indptr[-1],) or entries.shape != columns.shape:
            raise ValueError(f"expected {indptr[-1]} columns and entries, got {columns.size} and {entries.size}")
        if columns.size and (columns.min() < 0 or columns.max() >= v):
            raise ValueError(f"columns must lie in [0, {v})")
        rising = np.diff(columns) > 0
        starts = indptr[1:-1]
        rising[starts[(starts > 0) & (starts < columns.size)] - 1] = True  # a row may start anywhere
        if not rising.all():
            raise ValueError("columns must rise strictly inside each row")
        if not (np.isfinite(entries) & (entries > 0)).all():
            raise ValueError("nonzero entries must be finite and above 0")
        for name, value in (("shape", (n, v)), ("indptr", indptr), ("columns", columns), ("entries", entries)):
            object.__setattr__(self, name, value)

    def row_ids(self) -> np.ndarray:
        """The row of each entry."""
        return np.repeat(np.arange(self.shape[0]), np.diff(self.indptr))

    def _positions(self, idx: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The entry positions of rows idx, row after row, and each row's entry count."""
        start = self.indptr[idx]
        count = self.indptr[idx + 1] - start
        return np.arange(count.sum()) + np.repeat(start - (np.cumsum(count) - count), count), count

    def take(self, idx: np.ndarray) -> "Nonzeros":
        """Rows idx, in that order, as a new Nonzeros."""
        pos, count = self._positions(idx)
        indptr = np.concatenate(([0], np.cumsum(count)))
        return Nonzeros((idx.size, self.shape[1]), _Fresh(indptr), _Fresh(self.columns[pos]), _Fresh(self.entries[pos]))

    def rows(self, idx: np.ndarray) -> np.ndarray:
        """Rows idx, in that order, as a fresh dense array of the entries' dtype."""
        pos, count = self._positions(idx)
        out = np.zeros((idx.size, self.shape[1]), dtype=self.entries.dtype)
        out[np.repeat(np.arange(idx.size), count), self.columns[pos]] = self.entries[pos]
        return out

    def ones_at(self, kept: np.ndarray) -> "BinaryDataset":
        """The binary matrix with a 1 at each entry where kept is True, a 0 everywhere else."""
        before = np.concatenate(([0], np.cumsum(kept)))
        ones = np.ones(int(before[-1]), dtype=np.int8)
        columns = self.columns if ones.size == self.columns.size else self.columns[kept]
        return BinaryDataset(self.shape, _Fresh(before[self.indptr]), _Fresh(columns), _Fresh(ones))


def _row_index(n: int, indices) -> np.ndarray:
    """indices as nonnegative int64 row numbers; negative, boolean and out-of-range ones act as numpy's."""
    return np.arange(n)[indices]


@contextmanager
def open_utf8(path):
    """path opened as UTF-8 text; bytes that do not decode raise DataFormatError."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            yield fh
    except UnicodeDecodeError as e:
        raise DataFormatError(f"{path}: not UTF-8 text ({e.reason})") from None


@dataclass(frozen=True)
class Dataset:
    """An N x V matrix of real feature values with optional names and labels.

    values is either a dense N x V float64 array or a Nonzeros of float64
    entries (see the module docstring); code that reads the numbers goes
    through rows, dense, bounds and is_binary, which serve both.  ``labels``
    is either a length-N integer vector (single-task classes) or an N x C
    matrix of {0, 1, -1} entries for multi-task binary problems, -1 marking
    a missing task label.  Arrays are copied and made read-only, so a
    Dataset is safe to share across threads; only the arrays this module
    makes for a Dataset (the loaders' and subset's) are frozen without a
    copy.
    """

    values: np.ndarray | Nonzeros
    feature_names: tuple[str, ...] | None = None
    labels: np.ndarray | None = None

    def __post_init__(self):
        if isinstance(self.values, Nonzeros):
            values = self.values
            if values.entries.dtype != np.float64:
                raise ValueError(f"nonzero values must be float64, got {values.entries.dtype}")
            n, v = values.shape
        else:
            values = _frozen(self.values, np.float64)
            if values.ndim != 2:
                raise ValueError(f"values must be 2-D, got shape {values.shape}")
            n, v = values.shape
            if not np.isfinite(values).all():
                raise ValueError("values must be finite")
        if n < 1 or v < 2:
            raise ValueError(f"need N >= 1 and V >= 2, got N={n}, V={v}")
        object.__setattr__(self, "values", values)
        if self.feature_names is not None:
            names = tuple(self.feature_names)
            if len(names) != v:
                raise ValueError(f"expected {v} feature names, got {len(names)}")
            if len(set(names)) != len(names):
                raise ValueError("feature names must be distinct")
            object.__setattr__(self, "feature_names", names)
        if self.labels is not None:
            labels = _frozen(self.labels, np.int64)
            if labels.ndim not in (1, 2):
                raise ValueError("labels must be a vector or an N x C matrix")
            if labels.shape[0] != n:
                raise ValueError(f"expected {n} labels, got {labels.shape[0]}")
            object.__setattr__(self, "labels", labels)

    @property
    def n_samples(self) -> int:
        return self.values.shape[0]

    @property
    def n_features(self) -> int:
        return self.values.shape[1]

    def rows(self, indices) -> np.ndarray:
        """The rows at indices, in that order, as a fresh dense float64 array (a batch)."""
        idx = _row_index(self.n_samples, indices)
        if isinstance(self.values, Nonzeros):
            return self.values.rows(idx)
        return self.values[idx]

    def dense(self) -> np.ndarray:
        """The whole N x V float64 matrix: the stored array, or a fresh one made from the nonzeros.

        For one call that reads every row; keep no reference to it.
        """
        if isinstance(self.values, Nonzeros):
            return self.values.rows(np.arange(self.n_samples))
        return self.values

    def bounds(self) -> tuple[float, float]:
        """The smallest and the largest value, zeros the nonzeros leave out included."""
        if not isinstance(self.values, Nonzeros):
            return float(self.values.min()), float(self.values.max())
        entries = self.values.entries
        full = entries.size == self.n_samples * self.n_features
        return (float(entries.min()) if full else 0.0), (float(entries.max()) if entries.size else 0.0)

    def is_binary(self) -> bool:
        """Whether every value is 0 or 1."""
        if isinstance(self.values, Nonzeros):
            return bool((self.values.entries == 1.0).all())
        return bool(np.isin(self.values, (0.0, 1.0)).all())

    def subset(self, indices) -> "Dataset":
        """Row subset preserving names, labels and the kind of storage."""
        idx = _row_index(self.n_samples, indices)
        labels = None if self.labels is None else self.labels[idx]
        if isinstance(self.values, Nonzeros):
            return Dataset(self.values.take(idx), self.feature_names, labels)
        return Dataset(_Fresh(self.values[idx]), self.feature_names, labels)


@dataclass(frozen=True)
class DiscretizationPolicy:
    """How real values are mapped to {0, 1}.

    Ties always break to 0: an entry equal to its threshold stays 0.
    """

    kind: str
    threshold: float | None = None

    def __post_init__(self):
        if self.kind not in (MEDIAN, FIXED, ALREADY_BINARY):
            raise ValueError(f"unknown discretization kind {self.kind!r}")
        if self.kind == FIXED:
            if self.threshold is None or not math.isfinite(self.threshold):
                raise ValueError("fixed-threshold needs a finite threshold")
        elif self.threshold is not None:
            raise ValueError(f"{self.kind} takes no threshold")

    @classmethod
    def median(cls) -> "DiscretizationPolicy":
        return cls(MEDIAN)

    @classmethod
    def fixed(cls, threshold: float) -> "DiscretizationPolicy":
        return cls(FIXED, float(threshold))

    @classmethod
    def already_binary(cls) -> "DiscretizationPolicy":
        return cls(ALREADY_BINARY)


@dataclass(frozen=True)
class BinaryDataset(Nonzeros):
    """An N x V matrix of {0, 1} values held as its ones: a Nonzeros whose entries are int8 ones.

    Nonzeros.ones_at makes one from the entries it keeps, BinaryDataset.of from a dense 0/1 matrix.
    """

    def __post_init__(self):
        super().__post_init__()
        if self.entries.dtype != np.int8 or (self.entries != 1).any():
            raise ValueError("binary nonzeros must be int8 ones")

    @classmethod
    def of(cls, x) -> "BinaryDataset":
        """The ones of a dense 2-D matrix of 0/1 numbers or bools, row by row."""
        x = np.asarray(x)
        if x.ndim != 2:
            raise ValueError(f"binary values must be 2-D, got shape {x.shape}")
        at = np.flatnonzero(x)  # the flat scan is several times faster than a 2-D nonzero
        if not (np.take(x, at) == 1).all():
            raise ValueError("binary values must be exactly 0 or 1")
        indptr = np.concatenate(([0], np.cumsum(np.count_nonzero(x, axis=1))))
        columns = np.remainder(at, x.shape[1], out=at)
        return cls(x.shape, _Fresh(indptr), _Fresh(columns), _Fresh(np.ones(at.size, dtype=np.int8)))

    @property
    def n_samples(self) -> int:
        return self.shape[0]

    @property
    def n_features(self) -> int:
        return self.shape[1]


def load_dense_csv(path, has_labels: bool = False) -> Dataset:
    """Read a dense CSV file; see the module docstring for the format."""
    with open_utf8(path) as fh:
        numbered = [
            (lineno, ln.rstrip("\n"))
            for lineno, ln in enumerate(fh, start=1)
            if ln.strip() != ""
        ]
    if not numbered:
        raise EmptyInputError(f"{path}: file is empty")
    header = numbered[0][1].split(",")
    n_cols = len(header)
    names = tuple(h.strip() for h in (header[:-1] if has_labels else header))
    if len(names) < 2:
        raise DataFormatError(f"{path}: need at least 2 features{' plus a label column' if has_labels else ''}")
    seen = set()
    for name in names:
        if name in seen:
            raise DataFormatError(f"{path}: line {numbered[0][0]}: feature name {name!r} is repeated")
        seen.add(name)
    rows, labels = [], []
    for lineno, ln in numbered[1:]:
        cells = ln.split(",")
        if len(cells) != n_cols:
            raise DataFormatError(
                f"{path}: line {lineno}: expected {n_cols} cells, got {len(cells)}"
            )
        if has_labels:
            labels.append(_label(cells[-1], path, lineno))
            cells = cells[:-1]
        row = []
        for cell in cells:
            try:
                x = float(cell)
            except ValueError:
                raise DataFormatError(
                    f"{path}: line {lineno}: cell {cell!r} is not a number"
                ) from None
            if not math.isfinite(x):
                raise DataFormatError(f"{path}: line {lineno}: cell {cell!r} is not finite")
            row.append(x)
        rows.append(row)
    if not rows:
        raise EmptyInputError(f"{path}: no data rows after the header")
    return Dataset(
        np.array(rows, dtype=np.float64),
        feature_names=names,
        labels=np.array(labels, dtype=np.int64) if has_labels else None,
    )


def _label(text: str, path, lineno: int) -> int:
    """A class label cell as an int64 value, or DataFormatError naming the line."""
    try:
        label = int(text)
    except ValueError:
        raise DataFormatError(f"{path}: line {lineno}: label {text!r} is not an integer") from None
    if not -(2**63) <= label < 2**63:
        raise DataFormatError(f"{path}: line {lineno}: label {text!r} is outside int64")
    return label


# a line the whole-file parse accepts: a label of at most 18 digits fits int64
# and entries of at most 15 digits are below 2**53, so np.fromstring reads
# every number exactly; any other line goes to the per-line parser
_PLAIN_LINE = re.compile(r"[ \t]*-?[0-9]{1,18}(?:[ \t]+[0-9]{1,15}:[0-9]{1,15})*[ \t]*")


def load_sparse_bow(doc_path, vocab_path) -> Dataset:
    """Read a sparse bag-of-words corpus as its nonzeros; see the module docstring for the format."""
    with open_utf8(vocab_path) as fh:
        vocab = [ln.strip() for ln in fh if ln.strip() != ""]
    if len(vocab) < 2:
        raise EmptyInputError(f"{vocab_path}: need at least 2 vocabulary tokens")
    if len(set(vocab)) != len(vocab):
        raise DataFormatError(f"{vocab_path}: duplicate tokens in vocabulary")
    v = len(vocab)
    parsed = _parse_whole(doc_path, v)
    if parsed is None:
        parsed = _parse_lines(doc_path, v)
    labels, per_row, cols, counts = parsed
    if not labels.size:
        raise EmptyInputError(f"{doc_path}: no documents")
    indptr = np.concatenate(([0], np.cumsum(per_row)))
    nonzeros = Nonzeros((labels.size, v), _Fresh(indptr), _Fresh(cols), _Fresh(counts))
    return Dataset(nonzeros, feature_names=tuple(vocab), labels=_Fresh(labels))


def _parse_whole(doc_path, v: int):
    """(labels, entries per row, columns, counts) of a well-formed document file, or None.

    Columns and counts come row by row, each row's columns rising.  None
    means a check rejected the file or a line holds something _PLAIN_LINE
    does not take (a sign on a count, more digits, other whitespace);
    _parse_lines then reads it.
    """
    try:
        with open_utf8(doc_path) as fh:
            text = fh.read()
    except DataFormatError:
        return None  # an earlier line may hold the first error
    lines = [ln for ln in text.split("\n") if ln.strip() != ""]
    if not all(_PLAIN_LINE.fullmatch(ln) for ln in lines):
        return None
    per_row = np.array([ln.count(":") for ln in lines], dtype=np.int64)
    numbers = np.fromstring(" ".join(lines).replace(":", " "), dtype=np.int64, sep=" ")
    is_label = np.zeros(numbers.size, dtype=bool)
    is_label[np.cumsum(1 + 2 * per_row) - (1 + 2 * per_row)] = True
    entries = numbers[~is_label]
    cols, counts = entries[0::2], entries[1::2]
    if (cols >= v).any() or (counts < 1).any():
        return None
    key = np.repeat(np.arange(per_row.size), per_row) * v + cols
    if not (np.diff(key) > 0).all():  # a document lists its entries out of order, or one twice
        order = np.argsort(key, kind="stable")
        if not (np.diff(key[order]) > 0).all():
            return None  # a duplicate index
        cols, counts = cols[order], counts[order]
    return numbers[is_label], per_row, cols, counts.astype(np.float64)


def _parse_lines(doc_path, v: int):
    """(labels, entries per row, columns, counts) of a document file, read line by line.

    Columns and counts come as _parse_whole gives them.  Raises
    DataFormatError naming the first line at fault.
    """
    labels, per_row, cols, counts = [], [], [], []
    with open_utf8(doc_path) as fh:
        for lineno, ln in enumerate(fh, start=1):
            if ln.strip() == "":
                continue
            parts = ln.split()
            labels.append(_label(parts[0], doc_path, lineno))
            seen = {}
            for tok in parts[1:]:
                try:
                    idx_s, cnt_s = tok.split(":")
                    idx, cnt = int(idx_s), int(cnt_s)
                except ValueError:
                    raise DataFormatError(
                        f"{doc_path}: line {lineno}: malformed entry {tok!r}"
                    ) from None
                if idx < 0 or idx >= v:
                    raise DataFormatError(
                        f"{doc_path}: line {lineno}: index {idx} outside vocabulary of size {v}"
                    )
                if idx in seen:
                    raise DataFormatError(f"{doc_path}: line {lineno}: duplicate index {idx}")
                if cnt < 1:
                    raise DataFormatError(f"{doc_path}: line {lineno}: count {cnt} must be >= 1")
                if cnt > 2**53:  # float64 holds every integer up to 2**53 exactly
                    raise DataFormatError(
                        f"{doc_path}: line {lineno}: count {cnt} above 2**53 is not exact in float64"
                    )
                seen[idx] = cnt
            for idx in sorted(seen):
                cols.append(idx)
                counts.append(seen[idx])
            per_row.append(len(seen))
    return (
        np.array(labels, dtype=np.int64),
        np.array(per_row, dtype=np.int64),
        np.array(cols, dtype=np.int64),
        np.array(counts, dtype=np.float64),
    )


def save_sparse_bow(d: Dataset, doc_path, vocab_path) -> None:
    """Inverse of load_sparse_bow.  Requires 1-D labels and, for every
    nonzero value, an integer count from 1 to 2**53; otherwise ValueError
    names the first row at fault and nothing is written."""
    if d.labels is None or d.labels.ndim != 1:
        raise ValueError("bag-of-words export needs single-task labels")
    if isinstance(d.values, Nonzeros):
        rows, cols, counts = d.values.row_ids(), d.values.columns, d.values.entries
    else:
        rows, cols = np.nonzero(d.values)  # columns ascend within each row
        counts = d.values[rows, cols]
    bad = np.flatnonzero((counts < 1) | (counts > 2.0**53) | (counts != np.floor(counts)))
    if bad.size:
        at = bad[0]
        raise ValueError(
            f"row {rows[at]}: value {counts[at]!r} in column {cols[at]} is not an integer count from 1 to 2**53"
        )
    names = d.feature_names or tuple(f"w{i}" for i in range(d.n_features))
    with open(vocab_path, "w", encoding="utf-8") as fh:
        for name in names:
            fh.write(name + "\n")
    starts = np.searchsorted(rows, np.arange(d.n_samples + 1)).tolist()
    cols, counts = cols.tolist(), counts.astype(np.int64).tolist()
    with open(doc_path, "w", encoding="utf-8") as fh:
        for i, label in enumerate(d.labels.tolist()):
            toks = [f"{j}:{c}" for j, c in zip(cols[starts[i] : starts[i + 1]], counts[starts[i] : starts[i + 1]])]
            fh.write(" ".join([str(label)] + toks) + "\n")


def _column_medians(nz: Nonzeros) -> np.ndarray:
    """np.median of every column, bit for bit, from the nonzeros.

    The entries are above 0, so a column sorts as its zeros, then its
    entries; the median is its middle order statistic, or the mean of the
    two middle ones, as numpy computes it.
    """
    n, v = nz.shape
    order = np.lexsort((nz.entries, nz.columns))
    values = np.append(nz.entries[order], 0.0)  # the extra slot keeps every clipped index valid
    first = np.searchsorted(nz.columns[order], np.arange(v))
    zeros = n - np.bincount(nz.columns, minlength=v)

    def order_statistic(k: int) -> np.ndarray:
        at = k - zeros  # position among the column's sorted entries; below 0 it is a zero
        return np.where(at >= 0, values[np.clip(first + at, 0, values.size - 1)], 0.0)

    lower = order_statistic((n - 1) // 2)
    return lower if n % 2 else (lower + order_statistic(n // 2)) / 2


def discretize(d: Dataset, policy: DiscretizationPolicy) -> BinaryDataset:
    """Map a Dataset to {0,1} per the policy; the source is left untouched.

    median-threshold compares each entry against its feature's median (the
    midpoint of the two central order statistics for even N); fixed-threshold
    compares against the given constant.  Both use strict ``>``; already-binary
    checks for 0/1 values, then thresholds at 0.  Nonzeros give nonzeros: a
    zero stays 0 under every threshold at or above 0, which a median of
    counts always is; a fixed threshold below 0 makes every zero a 1 and,
    like dense values, goes through the dense matrix and BinaryDataset.of.
    """
    if policy.kind == ALREADY_BINARY:
        if not d.is_binary():
            raise PolicyViolationError("already-binary policy given non-binary values")
        policy = DiscretizationPolicy.fixed(0.0)
    if isinstance(d.values, Nonzeros) and (policy.kind == MEDIAN or policy.threshold >= 0):
        nz = d.values
        threshold = _column_medians(nz)[nz.columns] if policy.kind == MEDIAN else policy.threshold
        return nz.ones_at(nz.entries > threshold)
    values = d.dense()
    threshold = np.median(values, axis=0) if policy.kind == MEDIAN else policy.threshold
    return BinaryDataset.of(values > threshold)


def check_split_fractions(train_frac: float, valid_frac: float) -> None:
    """ValueError unless 0 < train_frac, 0 <= valid_frac and train_frac + valid_frac < 1."""
    if not 0 < train_frac < 1:
        raise ValueError(f"train_frac must be in (0, 1), got {train_frac}")
    if not (0 <= valid_frac and train_frac + valid_frac < 1):
        raise ValueError(f"valid_frac must be >= 0 with train_frac + valid_frac < 1, got {valid_frac} and {train_frac}")


def split(d: Dataset, train_frac: float, valid_frac: float, seed: int):
    """Seeded disjoint train/valid/test partition.

    Sizes are floor(N * frac) for train and valid; the remainder is test.
    A fraction small enough to floor to zero rows yields None for that piece
    (a Dataset cannot be empty).
    """
    check_split_fractions(train_frac, valid_frac)
    n = d.n_samples
    perm = np.random.default_rng(seed).permutation(n)
    n_train = int(n * train_frac)
    n_valid = int(n * valid_frac)

    def piece(idx):
        return d.subset(idx) if idx.size else None

    return (
        piece(perm[:n_train]),
        piece(perm[n_train : n_train + n_valid]),
        piece(perm[n_train + n_valid :]),
    )
