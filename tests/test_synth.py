"""synth.news_corpus: the same bytes as the per-document reference, and typed errors."""

import math

import numpy as np
import pytest

from oracles import news_corpus_reference
from trfnet.synth import BlockLayoutError, news_corpus, planted_blocks

HARD_PRESET = dict(confusion=0.4, doc_length_mean=15.0, topic_token_share=0.4)

GRID = [
    dict(n_docs=300, vocab_size=200, block_size=8, seed=1),
    # an empty background pool; the topic-or-background draw is still made
    dict(n_docs=200, vocab_size=160, block_size=8, background_fraction=0.0, seed=2),
    dict(n_docs=300, vocab_size=200, block_size=8, confusion=0.0, seed=5),
    dict(n_docs=300, vocab_size=200, block_size=8, confusion=0.4, seed=5),
    dict(n_docs=300, vocab_size=200, block_size=8, confusion=1.0, seed=5),
    # every block of a class is active: the rejection loop's worst case
    dict(n_docs=200, vocab_size=120, n_classes=3, block_size=8, active_blocks=4, confusion=0.3, seed=6),
    dict(n_docs=100, vocab_size=100, n_classes=1, block_size=8, seed=7),
    dict(n_docs=100, vocab_size=20, n_classes=2, block_size=1, active_blocks=3, confusion=0.5, seed=8),
    dict(n_docs=1, vocab_size=200, block_size=8, seed=9),
    # the ends of the [0, 1] ranges and a zero mean length are valid
    dict(n_docs=50, vocab_size=200, block_size=8, confusion=0.0, topic_token_share=0.0, background_fraction=0.5),
    dict(n_docs=50, vocab_size=200, block_size=8, confusion=1.0, topic_token_share=1.0, doc_length_mean=0.0),
    dict(n_docs=300, vocab_size=200, block_size=8, seed=10, **HARD_PRESET),
    dict(n_docs=2000, vocab_size=2000, seed=0, **HARD_PRESET),
    dict(n_docs=2000, vocab_size=16000, confusion=0.025, seed=3),
]


@pytest.mark.parametrize("kwargs", GRID, ids=[str(i) for i in range(len(GRID))])
def test_news_corpus_equals_the_reference_byte_for_byte(kwargs):
    labels, indptr, columns, entries, names = news_corpus_reference(**kwargs)
    corpus = news_corpus(**kwargs)
    nz = corpus.values
    assert corpus.labels.dtype == labels.dtype and corpus.labels.tobytes() == labels.tobytes()
    for got, want in ((nz.indptr, indptr), (nz.columns, columns), (nz.entries, entries)):
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    assert corpus.feature_names == names
    assert nz.shape == (kwargs["n_docs"], kwargs["vocab_size"])


@pytest.mark.parametrize("kwargs, name", [
    (dict(doc_length_mean=-1.0), "doc_length_mean"),
    (dict(doc_length_mean=math.nan), "doc_length_mean"),
    (dict(doc_length_mean=math.inf), "doc_length_mean"),
    (dict(topic_token_share=1.5), "topic_token_share"),
    (dict(topic_token_share=-0.1), "topic_token_share"),
    (dict(topic_token_share=math.nan), "topic_token_share"),
    (dict(confusion=2.0), "confusion"),
    (dict(confusion=-0.5), "confusion"),
    (dict(background_fraction=1.2), "background_fraction"),
    (dict(background_fraction=-0.2), "background_fraction"),
    (dict(n_docs=0), "n_docs"),
    (dict(active_blocks=0), "active_blocks"),
    (dict(n_classes=0), "n_classes"),
    (dict(block_size=0), "block_size"),
])
def test_out_of_range_arguments_raise_value_error_naming_them(kwargs, name, monkeypatch):
    def no_generator(*args, **kwargs):
        raise AssertionError("a draw was made before the arguments were checked")

    monkeypatch.setattr(np.random, "default_rng", no_generator)
    with pytest.raises(ValueError, match=f"^{name} "):
        news_corpus(**{"n_docs": 50, "vocab_size": 200, "block_size": 8, **kwargs})


def test_too_small_a_vocabulary_still_raises_block_layout_error():
    with pytest.raises(BlockLayoutError):
        news_corpus(n_docs=10, vocab_size=200, block_size=16)


def test_planted_blocks_give_each_block_word_its_block_and_every_other_word_minus_one():
    # 210 words: 42 background, 168 topic = 42 per class = 5 blocks of 8 and 2 words in none
    block = planted_blocks(210, n_classes=4, block_size=8, background_fraction=0.2)
    assert block.dtype == np.int64 and block.shape == (210,)
    np.testing.assert_array_equal(block[:160], np.repeat(np.arange(20), 8))
    assert (block[160:] == -1).all()


def test_without_confusion_a_document_draws_topic_words_from_at_most_3_blocks_of_its_class():
    corpus = news_corpus(n_docs=300, vocab_size=200, block_size=8, confusion=0.0, seed=5)
    block = planted_blocks(200, n_classes=4, block_size=8, background_fraction=0.2)  # 5 blocks per class
    nz = corpus.values
    for doc, label in enumerate(corpus.labels.tolist()):
        blocks = block[nz.columns[nz.indptr[doc] : nz.indptr[doc + 1]]]
        blocks = np.unique(blocks[blocks >= 0])
        assert blocks.size <= 3 and (blocks // 5 == label).all()


@pytest.mark.parametrize("kwargs, name", [
    (dict(n_classes=0), "n_classes"),
    (dict(block_size=0), "block_size"),
    (dict(background_fraction=1.5), "background_fraction"),
])
def test_planted_blocks_raise_value_error_naming_an_out_of_range_argument(kwargs, name):
    with pytest.raises(ValueError, match=f"^{name} "):
        planted_blocks(**{"vocab_size": 200, "n_classes": 4, "block_size": 8, "background_fraction": 0.2, **kwargs})
