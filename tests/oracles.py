"""Independent reference implementations used to check the library.

Everything here is deliberately written the slow, obvious way (plain Python
loops, textbook formulas) and never calls into the package's own code paths.
"""

from __future__ import annotations

import itertools
import math
from collections import deque
from dataclasses import dataclass

import numpy as np

from trfnet.errors import DataFormatError, EmptyInputError


def mi_reference(table) -> float:
    """Mutual information of a 2x2 count table by direct summation."""
    total = float(sum(sum(row) for row in table))
    row_marg = [sum(table[j][k] for k in range(2)) for j in range(2)]
    col_marg = [sum(table[j][k] for j in range(2)) for k in range(2)]
    mi = 0.0
    for j in range(2):
        for k in range(2):
            n = table[j][k]
            if n == 0:
                continue
            p = n / total
            pj = row_marg[j] / total
            pk = col_marg[k] / total
            mi += p * math.log(p / (pj * pk))
    return mi


# ---------------------------------------------------------------------------
# single-pair mutual information: one 2x2 table at a time, with the cell
# arithmetic of the package's all-pairs code, so mi_matrix must agree with it
# bit for bit.  Datasets are anything with an N x V {0, 1} ``values`` array.
# ---------------------------------------------------------------------------


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


def pair_counts(d, s: int, t: int) -> ContingencyCounts:
    """Exact joint counts of features s and t over all samples."""
    if s == t:
        raise ValueError(f"need two distinct features, got s = t = {s}")
    n_samples, v = d.shape
    if not (0 <= s < v and 0 <= t < v):
        raise ValueError(f"feature indices out of range: s={s}, t={t}, V={v}")
    x = d.rows(np.arange(n_samples))
    xs = x[:, s].astype(np.int64)
    xt = x[:, t].astype(np.int64)
    n11 = int((xs & xt).sum())
    n1_ = int(xs.sum())
    n_1 = int(xt.sum())
    n = np.array(
        [
            [n_samples - n1_ - n_1 + n11, n_1 - n11],
            [n1_ - n11, n11],
        ],
        dtype=np.int64,
    )
    return ContingencyCounts(n, n_samples)


def _mi_from_cells(n, row_marg, col_marg, total: float):
    """Per-cell p * ln(p / (p_row * p_col)) with zero cells contributing 0."""
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


def marginal_log_prob_sum(d) -> float:
    """Sum over features and states of p_hat * ln(p_hat), zero states skipped.

    This is the negated total marginal entropy of the dataset.
    """
    x = d.rows(np.arange(d.n_samples)).astype(np.float64)
    n = float(x.shape[0])
    counts = np.stack([n - x.sum(axis=0), x.sum(axis=0)])
    p = counts / n
    with np.errstate(divide="ignore", invalid="ignore"):
        term = p * np.log(p)
    return float(np.where(counts > 0, term, 0.0).sum())


def max_log_likelihood(t, d) -> float:
    """Data log-likelihood of a tree structure at its best-fitting parameters.

    Equals N * (sum_t sum_k p_hat ln p_hat  +  sum_edges mutual information):
    the marginal term is structure independent, so trees are ranked purely by
    their total edge mutual information.  t is anything with node_count and
    (u, v, weight) edges.
    """
    n_samples, v = d.shape
    if t.node_count != v:
        raise ValueError(f"tree has {t.node_count} nodes but data has {v} features")
    edge_mi = sum(empirical_mi(pair_counts(d, u, w)) for u, w, _ in t.edges)
    return n_samples * (marginal_log_prob_sum(d) + edge_mi)


def entropy_reference(counts) -> float:
    """Shannon entropy (nats) of a count vector."""
    total = float(sum(counts))
    return -sum((c / total) * math.log(c / total) for c in counts if c > 0)


def prufer_edges(seq, n: int) -> list[tuple[int, int]]:
    """Decode a Prufer sequence over nodes 0..n-1 into its tree's edge list."""
    degree = [1] * n
    for x in seq:
        degree[x] += 1
    edges = []
    for x in seq:
        for v in range(n):
            if degree[v] == 1:
                edges.append((min(v, x), max(v, x)))
                degree[v] -= 1
                degree[x] -= 1
                break
    last = [v for v in range(n) if degree[v] == 1]
    edges.append((min(last), max(last)))
    return edges


def all_spanning_trees(n: int):
    """Every labeled tree on n nodes, one edge list per Prufer sequence."""
    if n == 2:
        yield [(0, 1)]
        return
    for seq in itertools.product(range(n), repeat=n - 2):
        yield prufer_edges(seq, n)


def best_tree_weight(weights) -> float:
    """Maximum total weight over all spanning trees, by full enumeration."""
    n = len(weights)
    return max(
        sum(weights[u][v] for u, v in edges) for edges in all_spanning_trees(n)
    )


def tree_loglik_reference(parent, root: int, rows) -> float:
    """Log-likelihood of binary rows under the tree with plug-in empirical CPTs."""
    rows = [tuple(int(x) for x in r) for r in rows]
    n = len(rows)
    v = len(rows[0])
    root_counts = [0, 0]
    for r in rows:
        root_counts[r[root]] += 1
    joint_counts: dict[int, dict[tuple[int, int], int]] = {}
    parent_counts: dict[int, list[int]] = {}
    for t in range(v):
        if t == root:
            continue
        joint_counts[t] = {}
        parent_counts[t] = [0, 0]
        for r in rows:
            key = (r[t], r[parent[t]])
            joint_counts[t][key] = joint_counts[t].get(key, 0) + 1
            parent_counts[t][r[parent[t]]] += 1
    ll = 0.0
    for r in rows:
        ll += math.log(root_counts[r[root]] / n)
        for t in range(v):
            if t == root:
                continue
            joint = joint_counts[t][(r[t], r[parent[t]])]
            ll += math.log(joint / parent_counts[t][r[parent[t]]])
    return ll


def bfs_parents(node_count: int, edges, root: int) -> list[int]:
    """Parent of every node in the tree on edges rooted at root; -1 at the root."""
    adj = [[] for _ in range(node_count)]
    for u, v, *_ in edges:
        adj[u].append(v)
        adj[v].append(u)
    parent = [-1] * node_count
    seen = {root}
    queue = deque([root])
    while queue:
        u = queue.popleft()
        for v in adj[u]:
            if v not in seen:
                seen.add(v)
                parent[v] = u
                queue.append(v)
    return parent


def floyd_warshall_hops(n: int, edges) -> np.ndarray:
    """All-pairs hop distances of an unweighted graph."""
    dist = np.full((n, n), 10**9, dtype=np.int64)
    np.fill_diagonal(dist, 0)
    for u, v in edges:
        dist[u, v] = dist[v, u] = 1
    for k in range(n):
        dist = np.minimum(dist, dist[:, k : k + 1] + dist[k : k + 1, :])
    return dist


def average_ranks_reference(x: np.ndarray) -> np.ndarray:
    """1-based ranks with ties sharing their average rank, by walking each
    run of == values in the stable sort order."""
    order = np.argsort(x, kind="mergesort")
    ranks = np.empty(len(x), dtype=np.float64)
    sorted_x = x[order]
    i = 0
    while i < len(x):
        j = i
        while j + 1 < len(x) and sorted_x[j + 1] == sorted_x[i]:
            j += 1
        ranks[order[i : j + 1]] = (i + j) / 2.0 + 1.0
        i = j + 1
    return ranks


def central_diff_grads(f, arrays: dict[str, np.ndarray], eps: float = 1e-5):
    """Central finite-difference gradient of scalar f() w.r.t. each array entry.

    f must recompute from the (mutated-in-place) arrays on every call.
    """
    grads = {}
    for name, arr in arrays.items():
        g = np.zeros_like(arr)
        flat, gf = arr.ravel(), g.ravel()
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            fp = f()
            flat[i] = orig - eps
            fm = f()
            flat[i] = orig
            gf[i] = (fp - fm) / (2.0 * eps)
        grads[name] = g
    return grads


def l1_penalty(weights: list[np.ndarray], strength: float) -> float:
    """The L1 baseline's penalty, whose subgradient baselines.l1_gradients adds."""
    return strength * sum(float(np.abs(w).sum()) for w in weights)


def max_relative_error(analytic: np.ndarray, numeric: np.ndarray, floor: float = 1e-6) -> float:
    """Worst elementwise |a - n| / max(|a|, |n|, floor)."""
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), floor)
    return float((np.abs(analytic - numeric) / denom).max())


def mean_pairwise_cosine(vectors) -> float:
    """Average cosine similarity over unordered vector pairs, plain loops."""
    sims = []
    for i in range(len(vectors)):
        for j in range(i + 1, len(vectors)):
            a, b = vectors[i], vectors[j]
            na = math.sqrt(sum(x * x for x in a))
            nb = math.sqrt(sum(x * x for x in b))
            sims.append(sum(x * y for x, y in zip(a, b)) / (na * nb))
    return sum(sims) / len(sims)


# ---------------------------------------------------------------------------
# dense masked training: every layer as an H x V weight matrix W next to a
# 0/1 mask A, the forward pass through A o W, gradients multiplied by A, and
# Adam over the full matrices followed by W *= A.  The numpy operations are
# the ones the sparse code performs, in the same order, so both must agree
# bit for bit on the connected positions.
# ---------------------------------------------------------------------------


def dense_sigmoid(z):
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


class DenseMaskedAdam:
    """Bias-corrected Adam over full arrays, re-masking after every update.

    With no masks it is the whole-array update that nn.Adam's blocked step
    must match bit for bit."""

    def __init__(self, step_size=1e-3, beta1=0.9, beta2=0.999, eps=1e-8):
        self.step_size, self.beta1, self.beta2, self.eps = step_size, beta1, beta2, eps
        self.t = 0
        self.moments = {}

    def step(self, params, grads, masks):
        self.t += 1
        c1 = 1.0 - self.beta1**self.t
        c2 = 1.0 - self.beta2**self.t
        for name, p in params.items():
            g = grads[name]
            if name not in self.moments:
                self.moments[name] = (np.zeros_like(p), np.zeros_like(p))
            m, v = self.moments[name]
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * g * g
            p -= self.step_size * (m / c1) / (np.sqrt(v / c2) + self.eps)
            if name in masks:
                p *= masks[name]


def dense_dae_gradients(a, w, bias_hidden, bias_visible, x_clean, x_tilde, bernoulli):
    """Tied denoising autoencoder gradients with the weights used as A o W."""
    we = a * w
    h = dense_sigmoid(x_tilde @ we.T + bias_hidden)
    z = h @ we + bias_visible
    b = x_clean.shape[0]
    dz = ((dense_sigmoid(z) if bernoulli else z) - x_clean) / b
    da = dz @ we.T * h * (1.0 - h)
    return {
        "weights": (da.T @ x_tilde + h.T @ dz) * a,
        "bias_hidden": da.sum(axis=0),
        "bias_visible": dz.sum(axis=0),
    }


def dense_train_dae(a, values, rate, epochs, batch_size, step_size, seed, bernoulli):
    """train_dae with masking corruption, as the dense masked algorithm.

    Draws init, epoch orders and corruption from one generator seeded with
    seed, in train_dae's order.  Returns (W, bias_hidden, bias_visible).
    """
    rng = np.random.default_rng(seed)
    h, v = a.shape
    limit = np.sqrt(6.0 / (a.sum(axis=1) + h))
    w = rng.uniform(-1.0, 1.0, size=(h, v)) * limit[:, None]
    w *= a
    params = {"weights": w, "bias_hidden": np.zeros(h), "bias_visible": np.zeros(v)}
    adam = DenseMaskedAdam(step_size)
    n = values.shape[0]
    for _ in range(epochs):
        order = rng.permutation(n)
        for start in range(0, n, batch_size):
            batch = values[order[start : start + batch_size]]
            x_tilde = batch * (rng.random(batch.shape) >= rate)
            grads = dense_dae_gradients(
                a, w, params["bias_hidden"], params["bias_visible"], batch, x_tilde, bernoulli
            )
            adam.step(params, grads, {"weights": a})
    return w, params["bias_hidden"], params["bias_visible"]


def dense_relu_logits(masks, ws, bhs, head_w, head_b, x, rate=0.0, rng=None):
    """ReLU hidden stack through A o W, inverted dropout when rng is given."""
    caches, out = [], x
    for a, w, bh in zip(masks, ws, bhs):
        pre = out @ (a * w).T + bh
        act = np.maximum(pre, 0.0)
        scale = None
        if rng is not None:
            scale = (rng.random(act.shape) >= rate) / (1.0 - rate)
        caches.append((out, pre, scale))
        out = act if scale is None else act * scale
    return out @ head_w.T + head_b, caches, out


def dense_finetune(masks, ws, bhs, head_w, head_b, train, valid, epochs, batch_size,
                   step_size, rate, seed, l1_strength):
    """Softmax fine-tuning of a ReLU stack, as builder.finetune runs it with an
    L1 penalty on every weight and patience of at least epochs.

    Mutates ws, bhs, head_w and head_b into the best-validation snapshot.
    """
    x_train, y_train = train
    rng = np.random.default_rng(seed)
    params = {}
    for i, (w, bh) in enumerate(zip(ws, bhs)):
        params[f"w{i}"], params[f"bh{i}"] = w, bh
    params["head_w"], params["head_b"] = head_w, head_b
    param_masks = {f"w{i}": a for i, a in enumerate(masks)}
    adam = DenseMaskedAdam(step_size)
    best_score, best_state = -np.inf, None
    n = x_train.shape[0]
    for _ in range(epochs):
        order = rng.permutation(n)
        for start in range(0, n, batch_size):
            idx = order[start : start + batch_size]
            x, y = x_train[idx], y_train[idx]
            logits, caches, head_in = dense_relu_logits(masks, ws, bhs, head_w, head_b, x, rate, rng)
            shifted = logits - logits.max(axis=1, keepdims=True)
            log_probs = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
            dlogits = np.exp(log_probs)
            dlogits[np.arange(len(y)), y] -= 1.0
            dlogits = dlogits / len(y)
            grads = {"head_w": dlogits.T @ head_in, "head_b": dlogits.sum(axis=0)}
            dx = dlogits @ head_w
            for i in reversed(range(len(ws))):
                inp, pre, scale = caches[i]
                dx = dx * scale
                dpre = dx * (pre > 0).astype(np.float64)
                grads[f"w{i}"] = (dpre.T @ inp) * masks[i]
                grads[f"bh{i}"] = dpre.sum(axis=0)
                dx = dpre @ (masks[i] * ws[i])
            for i, w in enumerate(ws):
                grads[f"w{i}"] = grads[f"w{i}"] + l1_strength * np.sign(w)
            grads["head_w"] = grads["head_w"] + l1_strength * np.sign(head_w)
            adam.step(params, grads, param_masks)
        logits, _, _ = dense_relu_logits(masks, ws, bhs, head_w, head_b, valid[0])
        score = float((logits.argmax(axis=1) == valid[1]).mean())
        if score > best_score:
            best_score = score
            best_state = {k: v.copy() for k, v in params.items()}
    for k, v in params.items():
        v[...] = best_state[k]


# ---------------------------------------------------------------------------
# the bag-of-words loader as it was before it kept the nonzeros: one Python
# pass per token, a dense N x V result.  load_sparse_bow must return its
# numbers or raise its exception, message for message.
# ---------------------------------------------------------------------------


def _read_utf8_lines(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            yield from fh
    except UnicodeDecodeError as e:
        raise DataFormatError(f"{path}: not UTF-8 text ({e.reason})") from None


def load_sparse_bow_reference(doc_path, vocab_path):
    """(dense N x V float64 values, int64 labels, vocabulary tuple) of a bag-of-words corpus."""
    vocab = [ln.strip() for ln in _read_utf8_lines(vocab_path) if ln.strip() != ""]
    if len(vocab) < 2:
        raise EmptyInputError(f"{vocab_path}: need at least 2 vocabulary tokens")
    if len(set(vocab)) != len(vocab):
        raise DataFormatError(f"{vocab_path}: duplicate tokens in vocabulary")
    v = len(vocab)
    labels, rows, cols, counts = [], [], [], []
    for lineno, ln in enumerate(_read_utf8_lines(doc_path), start=1):
        if ln.strip() == "":
            continue
        parts = ln.split()
        try:
            label = int(parts[0])
        except ValueError:
            raise DataFormatError(
                f"{doc_path}: line {lineno}: label {parts[0]!r} is not an integer"
            ) from None
        if not -(2**63) <= label < 2**63:
            raise DataFormatError(f"{doc_path}: line {lineno}: label {parts[0]!r} is outside int64")
        labels.append(label)
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
            if cnt > 2**53:
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
    return values, np.array(labels, dtype=np.int64), tuple(vocab)


# ---------------------------------------------------------------------------
# the synthetic corpus generator as it was written first: one Python pass per
# document, a choice and a unique per document.  synth.news_corpus makes the
# same draws in the same order and must return the same arrays, byte for byte.
# ---------------------------------------------------------------------------


def news_corpus_reference(
    n_docs: int = 2000,
    vocab_size: int = 2000,
    n_classes: int = 4,
    block_size: int = 16,
    background_fraction: float = 0.2,
    active_blocks: int = 3,
    topic_token_share: float = 0.8,
    doc_length_mean: float = 50.0,
    confusion: float = 0.0,
    seed: int = 0,
):
    """(labels, indptr, columns, entries, feature names) of news_corpus's corpus."""
    rng = np.random.default_rng(seed)
    n_background = int(vocab_size * background_fraction)
    n_topic = vocab_size - n_background
    per_class = n_topic // n_classes
    blocks_per_class = per_class // block_size
    if blocks_per_class < active_blocks:
        raise ValueError("vocabulary too small for the requested block layout")

    # topic words first (class-major, block-major), background words last
    class_blocks = []
    w = 0
    for _ in range(n_classes):
        blocks = []
        for _ in range(blocks_per_class):
            blocks.append(np.arange(w, w + block_size))
            w += block_size
        class_blocks.append(blocks)
    background = np.arange(vocab_size - n_background, vocab_size)

    columns, counts = [], []
    labels = rng.integers(0, n_classes, size=n_docs)
    for i in range(n_docs):
        sources = np.full(active_blocks, labels[i])
        borrowed = rng.random(active_blocks) < confusion
        sources[borrowed] = rng.integers(0, n_classes, size=int(borrowed.sum()))
        picked = set()
        for cls in sources:
            blocks = class_blocks[cls]
            while True:
                j = int(rng.integers(len(blocks)))
                if (cls, j) not in picked:
                    picked.add((cls, j))
                    break
        topic_words = np.concatenate([class_blocks[c][j] for c, j in sorted(picked)])
        length = int(rng.poisson(doc_length_mean)) + 10
        from_topic = rng.random(length) < topic_token_share
        if n_background == 0:
            from_topic[:] = True
        n_topic_tokens = int(from_topic.sum())
        tokens = np.concatenate(
            [
                rng.choice(topic_words, size=n_topic_tokens),
                rng.choice(background, size=length - n_topic_tokens),
            ]
        )
        words, times = np.unique(tokens, return_counts=True)
        columns.append(words)
        counts.append(times)
    indptr = np.concatenate(([0], np.cumsum([c.size for c in columns])))
    names = tuple(f"w{j:04d}" for j in range(vocab_size))
    return labels, indptr, np.concatenate(columns), np.concatenate(counts).astype(np.float64), names
