"""Characterizing hidden units by correlated inputs and embedding coherence.

A top-layer unit is described by the input features whose raw values
correlate most strongly (by absolute Pearson correlation) with the unit's
post-activation output.  When features are words with pretrained embeddings,
a unit's coherence is the mean pairwise cosine similarity among its top
features, and the model score averages that over the top layer.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .builder import TrfNetwork
from .data import Dataset, open_utf8
from .errors import DataFormatError, DegenerateUnitWarning, NoCoverageError
from .nn import buffers, hidden_representation


@dataclass(frozen=True)
class EmbeddingTable:
    """Token -> vector map, all vectors of one dimension."""

    dim: int
    vectors: dict[str, np.ndarray]

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError(f"embedding dim must be >= 1, got {self.dim}")
        for token, vec in self.vectors.items():
            if vec.shape != (self.dim,):
                raise ValueError(f"token {token!r} has vector of shape {vec.shape}")


def load_embeddings(path) -> EmbeddingTable:
    """Text format: first line "count dim", then "token x1 ... xdim" lines."""
    with open_utf8(path) as fh:
        header = fh.readline().split()
        if len(header) != 2:
            raise DataFormatError(f"{path}: line 1: expected 'count dim'")
        try:
            count, dim = int(header[0]), int(header[1])
        except ValueError:
            raise DataFormatError(f"{path}: line 1: expected two integers") from None
        if dim < 1:
            raise DataFormatError(f"{path}: line 1: dimension {dim} must be >= 1")
        vectors: dict[str, np.ndarray] = {}
        for lineno, ln in enumerate(fh, start=2):
            if ln.strip() == "":
                continue
            parts = ln.split()
            if len(parts) != dim + 1:
                raise DataFormatError(
                    f"{path}: line {lineno}: expected token plus {dim} numbers"
                )
            try:
                vec = np.array([float(x) for x in parts[1:]], dtype=np.float64)
            except ValueError:
                raise DataFormatError(f"{path}: line {lineno}: bad number") from None
            if not np.isfinite(vec).all():
                raise DataFormatError(f"{path}: line {lineno}: vector entries must be finite")
            if parts[0] in vectors:
                raise DataFormatError(f"{path}: line {lineno}: duplicate token {parts[0]!r}")
            vectors[parts[0]] = vec
    if len(vectors) != count:
        raise DataFormatError(f"{path}: header promised {count} tokens, found {len(vectors)}")
    return EmbeddingTable(dim=dim, vectors=vectors)


def unit_activations(net: TrfNetwork, d: Dataset) -> np.ndarray:
    """Top-layer activations over a dataset, eval mode, through fresh buffer pairs."""
    if d.n_features != net.input_width:
        raise ValueError(f"data width {d.n_features} != network input {net.input_width}")
    return hidden_representation(net.layers, d.dense(), [buffers(layer) for layer in net.layers])


def _rank_units(
    net: TrfNetwork, d: Dataset, k: int, units: list[int] | None = None
) -> list[list[tuple[int, float]]]:
    """top_correlated_features for each of units (default: every top unit).

    One forward pass and one centring of the features serve every unit.  Each
    unit's Pearson correlations (zero-variance columns get 0) come from its
    own matrix-vector product, so the numbers match a one-unit call exactly.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    acts = unit_activations(net, d)
    if units is None:
        units = range(acts.shape[1])
    for unit in units:
        if not 0 <= unit < acts.shape[1]:
            raise ValueError(f"unit {unit} out of range for top width {acts.shape[1]}")
    xc = d.dense()
    if not xc.flags.writeable:  # the stored array; one made from the nonzeros is this call's own
        xc = xc.copy()
    xc -= xc.mean(axis=0)
    sx = np.sqrt((xc**2).sum(axis=0))
    rankings = []
    for unit in units:
        y = acts[:, unit]
        if np.ptp(y) == 0.0:
            warnings.warn(f"unit {unit} has constant activation", DegenerateUnitWarning)
        yc = y - y.mean()
        sy = float(np.sqrt((yc**2).sum()))
        with np.errstate(divide="ignore", invalid="ignore"):
            r = (xc.T @ yc) / (sx * sy)
        r = np.where((sx > 0) & (sy > 0), r, 0.0)
        order = np.lexsort((np.arange(r.size), -np.abs(r)))
        rankings.append([(int(j), float(r[j])) for j in order[: min(k, r.size)]])
    return rankings


def top_correlated_features(net: TrfNetwork, d: Dataset, unit: int, k: int) -> list[tuple[int, float]]:
    """The min(k, V) features most correlated with one top-layer unit.

    Returns (feature index, correlation) pairs sorted by |correlation|
    descending, ties by index.  A constant unit triggers a warning and an
    all-zero ranking.
    """
    return _rank_units(net, d, k, [unit])[0]


def _cosine(a: np.ndarray, b: np.ndarray) -> float:
    # a zero vector is like nothing, itself included; identical nonzero
    # vectors score exactly 1 so degenerate test embeddings behave
    denom = float(np.sqrt(a @ a) * np.sqrt(b @ b))
    if denom == 0.0:
        return 0.0
    if np.array_equal(a, b):
        return 1.0
    return float(a @ b) / denom


def unit_interpretability(names: list[str], emb: EmbeddingTable) -> float | None:
    """Mean pairwise cosine among the named tokens found in the table.

    Pairs with a missing token are skipped; None means no scorable pair.
    """
    present = [emb.vectors[n] for n in names if n in emb.vectors]
    if len(present) < 2:
        return None
    sims = [
        _cosine(present[i], present[j])
        for i in range(len(present))
        for j in range(i + 1, len(present))
    ]
    return float(np.mean(sims))


def model_interpretability(unit_scores: list[float | None]) -> float | None:
    """Mean of the unit scores that are not None; None when every one is.

    The one aggregation behind interpretability_score and `trfnet inspect`.
    """
    scored = [s for s in unit_scores if s is not None]
    return float(np.mean(scored)) if scored else None


def describe_units(
    net: TrfNetwork, d: Dataset, k: int, emb: EmbeddingTable | None = None
) -> list[tuple[list[tuple[int, float]], float | None]]:
    """(top features, coherence) for every top-layer unit, in unit order.

    The top features are top_correlated_features for each unit, from one
    forward pass, with no DegenerateUnitWarning for a constant unit.  The
    coherence is unit_interpretability of their names (d.feature_names, or
    the column numbers when it has none); None without emb.
    """
    names = d.feature_names or tuple(str(j) for j in range(d.n_features))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DegenerateUnitWarning)
        rankings = _rank_units(net, d, k)
    return [
        (top, None if emb is None else unit_interpretability([names[j] for j, _ in top], emb)) for top in rankings
    ]


def interpretability_score(net: TrfNetwork, d: Dataset, emb: EmbeddingTable, k: int) -> float:
    """Mean unit coherence over top-layer units with at least one scored pair."""
    if k < 2:
        raise ValueError(f"k must be >= 2, got {k}")
    if d.feature_names is None:
        raise ValueError("interpretability needs feature names")
    score = model_interpretability([score for _, score in describe_units(net, d, k, emb)])
    if score is None:
        raise NoCoverageError("no top-layer unit has an embedding-covered feature pair")
    return score
