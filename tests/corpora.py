"""Synthetic corpora with planted structure, shared across the test suite."""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from relwords import Corpus, Document
from relwords.corpus import parse_timestamp

TREND_WORDS = ("avalanche", "marches", "nominee", "openers", "protest")


def planted_topic_corpus(
    n_topics: int = 3,
    docs_per_topic: int = 15,
    keywords_per_topic: int = 10,
    filler_per_doc: int = 50,
    filler_pool: int = 40,
    keyword_repeats: int = 2,
    seed: int = 123,
):
    """Corpus of ``n_topics`` recoverable topics.

    Each topic owns exclusive keywords that appear in all of its documents;
    every document also carries filler tokens drawn from a pool shared by all
    topics, so documents overlap across topics without blurring them.

    Returns (corpus, topic_of_doc_id, keywords_by_topic).
    """
    rng = np.random.default_rng(seed)
    fillers = [f"filler{i:02d}" for i in range(filler_pool)]
    docs: list[Document] = []
    topic_of: dict[str, int] = {}
    keywords: dict[int, set[str]] = {}
    for topic in range(n_topics):
        kws = [f"topic{topic}word{i:02d}" for i in range(keywords_per_topic)]
        keywords[topic] = set(kws)
        for d in range(docs_per_topic):
            tokens = kws * keyword_repeats + [
                fillers[i] for i in rng.integers(0, filler_pool, filler_per_doc)
            ]
            rng.shuffle(tokens)
            doc_id = f"t{topic}d{d:02d}"
            docs.append(Document(id=doc_id, text=" ".join(tokens)))
            topic_of[doc_id] = topic
    return Corpus(tuple(docs)), topic_of, keywords


def phrase_corpus() -> Corpus:
    """``planted_topic_corpus`` with one distinctive bigram, "new york", at
    both ends of every topic-0 document."""
    corpus, _, _ = planted_topic_corpus()
    return Corpus(
        tuple(
            replace(doc, text=f"New York {doc.text} new york") if doc.id.startswith("t0") else doc
            for doc in corpus.docs
        )
    )


def trending_corpus(
    n_before: int = 30,
    n_after: int = 30,
    trend_words: tuple[str, ...] = TREND_WORDS,
    background_pool: int = 80,
    tokens_per_doc: int = 40,
    seed: int = 321,
):
    """Two-period corpus where the trend words occur only after the boundary.

    Background tokens come from one shared pool in both periods. Returns
    (corpus, trend_words, boundary_timestamp).
    """
    rng = np.random.default_rng(seed)
    background = [f"common{i:02d}" for i in range(background_pool)]
    docs: list[Document] = []
    for d in range(n_before):
        tokens = [background[i] for i in rng.integers(0, background_pool, tokens_per_doc)]
        rng.shuffle(tokens)
        day = 2 + d % 12
        docs.append(
            Document(
                id=f"before{d:02d}",
                text=" ".join(tokens),
                timestamp=parse_timestamp(f"2017-01-{day:02d}T09:00:00"),
            )
        )
    for d in range(n_after):
        tokens = [background[i] for i in rng.integers(0, background_pool, tokens_per_doc)]
        tokens.extend(trend_words)
        rng.shuffle(tokens)
        day = 16 + d % 7
        docs.append(
            Document(
                id=f"after{d:02d}",
                text=" ".join(tokens),
                timestamp=parse_timestamp(f"2017-01-{day:02d}T09:00:00"),
            )
        )
    return Corpus(tuple(docs)), trend_words, parse_timestamp("2017-01-16T00:00:00")
