"""Dataset containers, file loaders, binarization, and train/valid/test splitting.

Two on-disk formats are supported:

* dense CSV: UTF-8, comma separated, one header row, decimal-point floats;
  with labels, the last column holds an integer class label.
* sparse bag-of-words: a vocabulary file (one token per line) plus a document
  file whose lines read ``label idx:count idx:count ...`` with 0-based,
  strictly in-vocabulary indices and integer counts from 1 to 2**53.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .errors import DataFormatError, EmptyInputError, PolicyViolationError

MEDIAN = "median-threshold"
FIXED = "fixed-threshold"
ALREADY_BINARY = "already-binary"


def _frozen(values, dtype) -> np.ndarray:
    out = np.array(values, dtype=dtype)
    out.setflags(write=False)
    return out


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

    ``labels`` is either a length-N integer vector (single-task classes) or
    an N x C matrix of {0, 1, -1} entries for multi-task binary problems,
    -1 marking a missing task label.  Arrays are copied and made read-only,
    so a Dataset is safe to share across threads.
    """

    values: np.ndarray
    feature_names: tuple[str, ...] | None = None
    labels: np.ndarray | None = None

    def __post_init__(self):
        values = _frozen(self.values, np.float64)
        if values.ndim != 2:
            raise ValueError(f"values must be 2-D, got shape {values.shape}")
        n, v = values.shape
        if n < 1 or v < 2:
            raise ValueError(f"need N >= 1 and V >= 2, got N={n}, V={v}")
        if not np.isfinite(values).all():
            raise ValueError("values must be finite")
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
            if labels.shape[0] != n:
                raise ValueError(f"expected {n} labels, got {labels.shape[0]}")
            if labels.ndim not in (1, 2):
                raise ValueError("labels must be a vector or an N x C matrix")
            object.__setattr__(self, "labels", labels)

    @property
    def n_samples(self) -> int:
        return self.values.shape[0]

    @property
    def n_features(self) -> int:
        return self.values.shape[1]

    def subset(self, indices) -> "Dataset":
        """Row subset preserving names and labels."""
        idx = np.asarray(indices, dtype=np.int64)
        labels = None if self.labels is None else self.labels[idx]
        return Dataset(self.values[idx], self.feature_names, labels)


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
class BinaryDataset:
    """An N x V matrix of {0, 1} values, as discretize makes it from a Dataset."""

    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values)
        if values.ndim != 2:
            raise ValueError(f"binary values must be 2-D, got shape {values.shape}")
        if not np.isin(values, (0, 1)).all():
            raise ValueError("binary values must be exactly 0 or 1")
        object.__setattr__(self, "values", _frozen(values, np.int8))

    @property
    def n_samples(self) -> int:
        return self.values.shape[0]

    @property
    def n_features(self) -> int:
        return self.values.shape[1]


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
    if has_labels and n_cols < 3:
        raise DataFormatError(f"{path}: need at least 2 features plus a label column")
    rows, labels = [], []
    for lineno, ln in numbered[1:]:
        cells = ln.split(",")
        if len(cells) != n_cols:
            raise DataFormatError(
                f"{path}: line {lineno}: expected {n_cols} cells, got {len(cells)}"
            )
        if has_labels:
            try:
                labels.append(int(cells[-1]))
            except ValueError:
                raise DataFormatError(
                    f"{path}: line {lineno}: label {cells[-1]!r} is not an integer"
                ) from None
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
    names = tuple(h.strip() for h in (header[:-1] if has_labels else header))
    return Dataset(
        np.array(rows, dtype=np.float64),
        feature_names=names,
        labels=np.array(labels, dtype=np.int64) if has_labels else None,
    )


def save_dense_csv(d: Dataset, path) -> None:
    """Inverse of load_dense_csv; floats are written with round-trip precision."""
    names = d.feature_names or tuple(f"f{i}" for i in range(d.n_features))
    with open(path, "w", encoding="utf-8") as fh:
        header = list(names) + (["label"] if d.labels is not None else [])
        fh.write(",".join(header) + "\n")
        for i in range(d.n_samples):
            cells = [repr(x) for x in d.values[i].tolist()]
            if d.labels is not None:
                cells.append(str(int(d.labels[i])))
            fh.write(",".join(cells) + "\n")


def load_sparse_bow(doc_path, vocab_path) -> Dataset:
    """Read a sparse bag-of-words corpus; see the module docstring for the format."""
    with open_utf8(vocab_path) as fh:
        vocab = [ln.strip() for ln in fh if ln.strip() != ""]
    if len(vocab) < 2:
        raise EmptyInputError(f"{vocab_path}: need at least 2 vocabulary tokens")
    if len(set(vocab)) != len(vocab):
        raise DataFormatError(f"{vocab_path}: duplicate tokens in vocabulary")
    v = len(vocab)
    labels, rows, cols, counts = [], [], [], []
    with open_utf8(doc_path) as fh:
        for lineno, ln in enumerate(fh, start=1):
            if ln.strip() == "":
                continue
            parts = ln.split()
            try:
                labels.append(int(parts[0]))
            except ValueError:
                raise DataFormatError(
                    f"{doc_path}: line {lineno}: label {parts[0]!r} is not an integer"
                ) from None
            row = len(labels) - 1
            seen = set()
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
                seen.add(idx)
                rows.append(row)
                cols.append(idx)
                counts.append(cnt)
    if not labels:
        raise EmptyInputError(f"{doc_path}: no documents")
    values = np.zeros((len(labels), v))
    values[rows, cols] = counts
    return Dataset(values, feature_names=tuple(vocab), labels=np.array(labels, dtype=np.int64))


def save_sparse_bow(d: Dataset, doc_path, vocab_path) -> None:
    """Inverse of load_sparse_bow.  Requires integer counts and 1-D labels."""
    if d.labels is None or d.labels.ndim != 1:
        raise ValueError("bag-of-words export needs single-task labels")
    names = d.feature_names or tuple(f"w{i}" for i in range(d.n_features))
    with open(vocab_path, "w", encoding="utf-8") as fh:
        for name in names:
            fh.write(name + "\n")
    with open(doc_path, "w", encoding="utf-8") as fh:
        for i in range(d.n_samples):
            row = d.values[i]
            nz = np.flatnonzero(row)
            toks = [f"{j}:{int(row[j])}" for j in nz]
            fh.write(" ".join([str(int(d.labels[i]))] + toks) + "\n")


def discretize(d: Dataset, policy: DiscretizationPolicy) -> BinaryDataset:
    """Map a Dataset to {0,1} per the policy; the source is left untouched.

    median-threshold compares each entry against its feature's median (the
    midpoint of the two central order statistics for even N); fixed-threshold
    compares against the given constant.  Both use strict ``>``.
    """
    if policy.kind == ALREADY_BINARY:
        if not np.isin(d.values, (0.0, 1.0)).all():
            raise PolicyViolationError("already-binary policy given non-binary values")
        binary = d.values.astype(np.int8)
    elif policy.kind == MEDIAN:
        med = np.median(d.values, axis=0)
        binary = (d.values > med).astype(np.int8)
    else:
        binary = (d.values > policy.threshold).astype(np.int8)
    return BinaryDataset(binary)


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
