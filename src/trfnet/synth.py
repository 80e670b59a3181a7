"""A seeded synthetic bag-of-words corpus for the fixture script and the benchmark.

news_corpus plants topic blocks of co-occurring words with a class signal,
so structure recovery and end-to-end classification can be checked without
shipping a corpus.
"""

from __future__ import annotations

import numpy as np

from .data import Dataset


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
    achievable accuracy away from 100%.
    """
    rng = np.random.default_rng(seed)
    n_background = int(vocab_size * background_fraction)
    n_topic = vocab_size - n_background
    per_class = n_topic // n_classes
    blocks_per_class = per_class // block_size
    if blocks_per_class < active_blocks:
        raise BlockLayoutError("vocabulary too small for the requested block layout")

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

    values = np.zeros((n_docs, vocab_size), dtype=np.float64)
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
        np.add.at(values[i], tokens, 1.0)
    names = tuple(f"w{j:04d}" for j in range(vocab_size))
    return Dataset(values, feature_names=names, labels=labels)
