"""Seeded corpus generators for the benchmark workloads.

Each generator takes the workload seed and returns a ``Generated`` record:
the documents as JSON-lines records (all the program ever sees), the planted
topic of every document, the planted terms of every topic, and the fixed
sample of documents to highlight. The same seed gives the same records.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_CONSONANTS = "bcdfghjklmnprstvwz"
_VOWELS = "aeiou"

# Words whose lowercase form is longer than the word ("İ" lowers to "i" plus
# U+0307). Highlighting such documents fails today; inspect-1k keeps them in
# its highlight sample so the failures are counted.
LENGTH_CHANGING_WORDS = ("İstanbul", "İzmir", "İnegöl")
# Non-ASCII words whose lowercase form keeps its length.
NON_ASCII_WORDS = ("café", "über", "straße", "naïve", "façade", "jalapeño", "zürich", "ørsted")

HIGHLIGHT_SAMPLE = 20


@dataclass(frozen=True)
class Generated:
    records: list[dict]
    topics: dict[str, int]
    topic_terms: list[frozenset[str]]
    highlight_ids: tuple[str, ...]


def pseudo_words(rng: np.random.Generator, n: int, taken: set[str]) -> list[str]:
    """``n`` distinct pronounceable lowercase ASCII words not in ``taken``."""
    words: list[str] = []
    while len(words) < n:
        picks = rng.integers(0, [len(_CONSONANTS), len(_VOWELS)] * int(rng.integers(2, 5)))
        word = "".join((_CONSONANTS if k % 2 == 0 else _VOWELS)[p] for k, p in enumerate(picks))
        if word not in taken:
            taken.add(word)
            words.append(word)
    return words


def _to_text(tokens: list[str], rng: np.random.Generator) -> str:
    """Join tokens into sentences of 8-20 words with a capital and a full stop."""
    out: list[str] = []
    start = 0
    while start < len(tokens):
        end = start + int(rng.integers(8, 21))
        sentence = tokens[start:end]
        sentence[0] = sentence[0][:1].upper() + sentence[0][1:]
        out.append(" ".join(sentence) + ".")
        start = end
    return " ".join(out)


def _doc_id(row: int) -> str:
    return f"doc{row:05d}"


def _sample(rng: np.random.Generator, n_docs: int, size: int, special: set[int]) -> tuple[str, ...]:
    """A seeded sample of ``size`` documents that holds the corpus share of
    the ``special`` rows, so no kind of document is dropped from it."""
    n_special = round(size * len(special) / n_docs)
    plain = [r for r in rng.permutation(n_docs).tolist() if r not in special][: size - n_special]
    chosen = sorted(special)
    chosen = [chosen[i] for i in rng.permutation(len(chosen))[:n_special].tolist()]
    return tuple(_doc_id(r) for r in sorted(plain + chosen))


def _planted(seed: int, n_topics: int, docs_per_topic: int, *, highlight: int, unicode_every: int = 0) -> Generated:
    """Short documents: 30 fillers from a 2,000-word shared pool plus the
    topic's 10 keywords, each twice. Document order is shuffled."""
    rng = np.random.default_rng(seed)
    taken: set[str] = set()
    fillers = pseudo_words(rng, 2000, taken)
    keywords = [pseudo_words(rng, 10, taken) for _ in range(n_topics)]
    n_docs = n_topics * docs_per_topic
    topic_of_row = rng.permutation(np.repeat(np.arange(n_topics), docs_per_topic))
    unicode_rows: set[int] = set()
    if unicode_every:
        unicode_rows = set(rng.permutation(n_docs)[: n_docs // unicode_every].tolist())
    records, topics = [], {}
    for row, topic in enumerate(topic_of_row.tolist()):
        tokens = keywords[topic] * 2 + [fillers[i] for i in rng.integers(0, len(fillers), 30)]
        if row in unicode_rows:
            tokens.append(LENGTH_CHANGING_WORDS[row % len(LENGTH_CHANGING_WORDS)])
        rng.shuffle(tokens)
        records.append({"id": _doc_id(row), "text": _to_text(tokens, rng)})
        topics[_doc_id(row)] = topic
    terms = [frozenset(words) for words in keywords]
    return Generated(records, topics, terms, _sample(rng, n_docs, highlight, unicode_rows))


def planted_3k(seed: int) -> Generated:
    return _planted(seed, n_topics=40, docs_per_topic=75, highlight=1)


def inspect_1k(seed: int) -> Generated:
    return _planted(seed, n_topics=40, docs_per_topic=25, highlight=HIGHLIGHT_SAMPLE, unicode_every=10)


def longdocs_600(seed: int) -> Generated:
    """Long documents: ~1,000 tokens from a 20k-word Zipf vocabulary, plus
    each topic's own words and planted two-word phrases; 5% of the documents
    carry non-ASCII words."""
    rng = np.random.default_rng(seed)
    n_topics, docs_per_topic = 12, 50
    taken: set[str] = set()
    background = pseudo_words(rng, 20_000, taken)
    zipf = 1.0 / np.arange(1, len(background) + 1) ** 1.05
    zipf /= zipf.sum()
    topic_words = [pseudo_words(rng, 30, taken) for _ in range(n_topics)]
    # 24 phrases per topic and 10 per document: each phrase occurs ~20 times,
    # which puts phrase scores on both sides of the bigram selection cut.
    phrases = [
        list(zip(pseudo_words(rng, 24, taken), pseudo_words(rng, 24, taken)))
        for _ in range(n_topics)
    ]
    n_docs = n_topics * docs_per_topic
    topic_of_row = rng.permutation(np.repeat(np.arange(n_topics), docs_per_topic))
    unicode_rows = set(rng.permutation(n_docs)[: n_docs // 20].tolist())
    lengths = rng.integers(900, 1100, n_docs)
    drawn = rng.choice(len(background), int(lengths.sum()), p=zipf)
    records, topics = [], {}
    offset = 0
    for row, topic in enumerate(topic_of_row.tolist()):
        n_topic, n_phrase = int(lengths[row]) // 6, 10
        n_background = int(lengths[row]) - n_topic - 2 * n_phrase
        tokens = [background[i] for i in drawn[offset : offset + n_background]]
        offset += n_background
        tokens += [topic_words[topic][i] for i in rng.integers(0, 30, n_topic)]
        tokens += [" ".join(phrases[topic][i]) for i in rng.integers(0, 24, n_phrase)]
        if row in unicode_rows:
            tokens += [NON_ASCII_WORDS[i] for i in rng.integers(0, len(NON_ASCII_WORDS), 3)]
        rng.shuffle(tokens)
        records.append({"id": _doc_id(row), "text": _to_text(tokens, rng)})
        topics[_doc_id(row)] = topic
    terms = [
        frozenset(topic_words[t]).union(*({a, b, f"{a}_{b}"} for a, b in phrases[t]))
        for t in range(n_topics)
    ]
    return Generated(records, topics, terms, _sample(rng, n_docs, 1, set()))


GENERATORS = {
    "planted-3k": planted_3k,
    "longdocs-600": longdocs_600,
    "inspect-1k": inspect_1k,
}
