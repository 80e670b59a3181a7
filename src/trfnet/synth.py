"""A seeded synthetic bag-of-words corpus for the fixture script and the benchmark.

news_corpus plants topic blocks of co-occurring words with a class signal,
so structure recovery and end-to-end classification can be checked without
shipping a corpus.
"""

from __future__ import annotations

import math

import numpy as np

from .data import Dataset, Nonzeros


class BlockLayoutError(ValueError):
    """The vocabulary holds too few topic blocks per class for news_corpus."""


def news_corpus(
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
) -> Dataset:
    """Bag-of-words corpus with class-specific correlated topic blocks.

    The vocabulary splits into a shared background pool and per-class topic
    blocks of block_size words.  A document activates a few blocks of its
    class and draws most tokens from them, the rest from the background.
    Words of one block therefore co-occur strongly, words of different
    blocks barely, which plants a block-structured dependency tree and a
    clean class signal.

    confusion is the probability that an active block is borrowed from a
    uniformly random class instead of the document's own, which lowers the
    achievable accuracy away from 100%.  The counts are held as their
    nonzeros, as load_sparse_bow holds them.

    The same arguments and seed give the same corpus bytes: the draws come
    in a fixed order -- every label first, then for each document in turn
    its borrowed blocks and their classes, its block picks, its length, the
    topic-or-background split of its tokens and the tokens themselves.
    Arguments outside their ranges raise ValueError before the first draw;
    a vocabulary too small for the blocks raises BlockLayoutError.
    """
    for name, value in (("n_docs", n_docs), ("n_classes", n_classes),
                        ("block_size", block_size), ("active_blocks", active_blocks)):
        if value < 1:
            raise ValueError(f"{name} must be at least 1, got {value}")
    for name, value in (("background_fraction", background_fraction),
                        ("topic_token_share", topic_token_share), ("confusion", confusion)):
        if not 0.0 <= value <= 1.0:
            raise ValueError(f"{name} must lie in [0, 1], got {value}")
    if not 0.0 <= doc_length_mean < math.inf:
        raise ValueError(f"doc_length_mean must be finite and at least 0, got {doc_length_mean}")
    rng = np.random.default_rng(seed)
    n_background = int(vocab_size * background_fraction)
    n_topic = vocab_size - n_background
    per_class = n_topic // n_classes
    blocks_per_class = per_class // block_size
    if blocks_per_class < active_blocks:
        raise BlockLayoutError("vocabulary too small for the requested block layout")

    # topic words first (class-major, block-major), background words last:
    # block j of class cls holds the words of row cls * blocks_per_class + j
    block_words = np.arange(n_classes * blocks_per_class * block_size).reshape(-1, block_size)
    labels = rng.integers(0, n_classes, size=n_docs)
    tokens, lengths = [], []
    for label in labels.tolist():
        sources = [label] * active_blocks
        borrowed = [k for k, u in enumerate(rng.random(active_blocks).tolist()) if u < confusion]
        if borrowed:
            for k, cls in zip(borrowed, rng.integers(0, n_classes, size=len(borrowed)).tolist()):
                sources[k] = cls
        picked = set()
        for cls in sources:
            block = cls * blocks_per_class + int(rng.integers(blocks_per_class))
            while block in picked:
                block = cls * blocks_per_class + int(rng.integers(blocks_per_class))
            picked.add(block)
        pool = block_words[sorted(picked)].ravel()
        length = int(rng.poisson(doc_length_mean)) + 10
        from_topic = rng.random(length) < topic_token_share  # drawn even with no background pool
        n_topic_tokens = int(np.count_nonzero(from_topic)) if n_background else length
        # pool[integers(0, pool.size, n)] is Generator.choice(pool, n) with replacement, draw for draw
        tokens.append(pool[rng.integers(0, pool.size, size=n_topic_tokens)])
        if n_topic_tokens < length:
            tokens.append(n_topic + rng.integers(0, n_background, size=length - n_topic_tokens))
        lengths.append(length)
    # one count for the whole corpus: key doc * V + word sorts row by row, columns rising
    keys = np.concatenate(tokens) + np.repeat(np.arange(n_docs) * vocab_size, lengths)
    cells, counts = np.unique(keys, return_counts=True)
    rows, columns = np.divmod(cells, vocab_size)
    indptr = np.zeros(n_docs + 1, np.int64)
    np.cumsum(np.bincount(rows, minlength=n_docs), out=indptr[1:])
    nonzeros = Nonzeros((n_docs, vocab_size), indptr, columns, counts.astype(np.float64))
    names = tuple(f"w{j:04d}" for j in range(vocab_size))
    return Dataset(nonzeros, feature_names=names, labels=labels)
