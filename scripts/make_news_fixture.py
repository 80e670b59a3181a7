#!/usr/bin/env python3
"""Generate the synthetic news-style bag-of-words fixture as on-disk files.

Writes docs/vocab files in the sparse format the CLI consumes, split into
train/valid/test, plus a tiny random embedding table covering the vocabulary
(handy for exercising `trfnet inspect --embeddings`).
"""

import argparse
from pathlib import Path

import numpy as np

from trfnet.data import save_sparse_bow, split
from trfnet.synth import BlockLayoutError, news_corpus


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out-dir", default="data/news", help="output directory")
    ap.add_argument("--docs", type=int, default=2000)
    ap.add_argument("--vocab", type=int, default=2000)
    ap.add_argument("--classes", type=int, default=4)
    ap.add_argument("--block-size", type=int, default=16, help="words per topic block")
    ap.add_argument("--confusion", type=float, default=0.025)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    for flag, value, least in (
        ("--docs", args.docs, 1),
        ("--classes", args.classes, 1),
        ("--block-size", args.block_size, 1),
        ("--seed", args.seed, 0),
    ):
        if value < least:
            ap.error(f"{flag} must be at least {least}, got {value}")
    try:
        corpus = news_corpus(
            n_docs=args.docs,
            vocab_size=args.vocab,
            n_classes=args.classes,
            block_size=args.block_size,
            confusion=args.confusion,
            seed=args.seed,
        )
    except BlockLayoutError as e:
        ap.error(f"--vocab {args.vocab} with --block-size {args.block_size}: {e}; "
                 "raise --vocab or lower --block-size")
    pieces = split(corpus, 0.7, 0.15, seed=args.seed)
    if any(piece is None for piece in pieces):
        ap.error(f"--docs {args.docs} leaves a split without documents; raise --docs")
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for name, piece in zip(("train", "valid", "test"), pieces):
        save_sparse_bow(piece, out / f"{name}.txt", out / "vocab.txt")
        print(f"{name}: {piece.n_samples} docs -> {out / f'{name}.txt'}")

    rng = np.random.default_rng(args.seed)
    with open(out / "embeddings.txt", "w", encoding="utf-8") as fh:
        fh.write(f"{corpus.n_features} 16\n")
        for token in corpus.feature_names:
            vec = " ".join(f"{x:.5f}" for x in rng.normal(size=16))
            fh.write(f"{token} {vec}\n")
    print(f"embeddings -> {out / 'embeddings.txt'}")


if __name__ == "__main__":
    main()
