"""Tokenization and distinctive-bigram detection.

Tokens are the runs of alphanumeric characters, lowercased. Word pairs
that co-occur adjacently far more often than chance are merged into single
``first_second`` tokens so they act as one feature downstream.
"""

from __future__ import annotations

import io
import re
from collections.abc import Collection, Iterable
from dataclasses import dataclass
from itertools import chain, compress, count
from pathlib import Path

import numpy as np

JOINER = "_"


class _Separators(dict):
    """A ``str.translate`` table: a space for each character that is not
    ``str.isalnum`` (underscore included: it joins merged bigrams), else the
    character itself. Filled on first sight of each character, so it holds
    the characters tokenized so far, not all of Unicode.
    """

    def __missing__(self, code: int) -> int | str:
        self[code] = value = code if chr(code).isalnum() else " "
        return value


_SEPARATORS = _Separators()


@dataclass(frozen=True)
class TokenStream:
    """The ordered tokens of one document."""

    doc_id: str
    tokens: tuple[str, ...]

    def __len__(self) -> int:
        return len(self.tokens)


@dataclass(frozen=True)
class BigramCandidate:
    first: str
    second: str
    joint_count: int
    score: float


def normalize_tokenize(text: str, doc_id: str = "") -> TokenStream:
    """The runs of alphanumeric (``str.isalnum``) characters, lowercased.

    Every other character becomes a space (``_SEPARATORS``), and the spaced
    text is lowercased and split, in order. Lowercasing the spaced text
    equals lowercasing each token on its own: spaces are neither cased nor
    case-ignorable, so context rules such as the final sigma see the same
    token boundaries, and no letter or digit lowercases to whitespace.
    """
    return TokenStream(doc_id, tuple(text.translate(_SEPARATORS).lower().split()))


def token_spans(text: str) -> list[tuple[int, int, str]]:
    """The tokens of ``normalize_tokenize`` with their (start, end) positions.

    ``_SEPARATORS`` maps each character to one character, so the non-space
    runs of the spaced text sit where the tokens sit in the original string,
    which lets renderers wrap tokens in place without touching other
    characters.
    """
    spaced = text.translate(_SEPARATORS)
    return [(m.start(), m.end(), m.group().lower()) for m in re.finditer(r"\S+", spaced)]


@dataclass(frozen=True)
class CorpusCounts:
    """A corpus counted on interned tokens.

    Token ids rank the sorted distinct ``tokens``; ``unigrams[i]`` counts
    token i. Each adjacent ordered pair within a document is the key
    ``first * n + second`` (n tokens), so keys sort in the pairs' tuple
    order: ``pairs`` holds the distinct keys, sorted, and ``pair_counts``
    how often each occurs. ``total`` is the corpus token count.
    """

    tokens: tuple[str, ...]
    unigrams: np.ndarray
    pairs: np.ndarray
    pair_counts: np.ndarray
    total: int


def count_corpus(streams: list[TokenStream]) -> CorpusCounts:
    """Count the unigrams and within-document adjacent pairs of a corpus,
    interning every token once."""
    if not streams:
        raise ValueError("empty corpus")
    flat = list(chain.from_iterable(stream.tokens for stream in streams))
    tokens = tuple(sorted(dict.fromkeys(flat)))
    rank = {token: r for r, token in enumerate(tokens)}
    ids = np.fromiter(map(rank.__getitem__, flat), dtype=np.int64, count=len(flat))
    n, total = len(tokens), len(flat)
    keys = ids[:-1] * n + ids[1:]
    # The pair ending a document and starting the next is no adjacency.
    ends = np.cumsum(np.fromiter(map(len, streams), dtype=np.int64, count=len(streams)))
    keys = np.delete(keys, ends[(ends > 0) & (ends < total)] - 1)
    pairs, pair_counts = np.unique(keys, return_counts=True)
    return CorpusCounts(tokens, np.bincount(ids, minlength=n), pairs, pair_counts, total)


def _phrase_scores(counts: CorpusCounts, keys: np.ndarray, joint: np.ndarray):
    """(first ids, second ids, joint * W / (count(first) * count(second))).

    Both products are int64 and, below 2**53, exact in float64; the IEEE
    quotient is then correctly rounded, the same bits as Python's int / int.
    """
    first, second = np.divmod(keys, len(counts.tokens))
    return first, second, joint * counts.total / (counts.unigrams[first] * counts.unigrams[second])


def score_bigrams(counts: CorpusCounts, discount: int = 5) -> list[BigramCandidate]:
    """Score every adjacent word pair in the corpus, in pair order.

    score(a, b) = (count(a b) - discount) * W / (count(a) * count(b)) with W
    the corpus token count; pairs adjacent at most ``discount`` times are
    omitted. The discount suppresses one-off co-occurrences of rare words.
    Scores are exact quotients while W * count(a b) and count(a) * count(b)
    stay below 2**53.
    """
    frequent = counts.pair_counts > discount
    joint = counts.pair_counts[frequent]
    first, second, scores = _phrase_scores(counts, counts.pairs[frequent], joint - discount)
    tokens = counts.tokens
    return [
        BigramCandidate(tokens[a], tokens[b], j, score)
        for a, b, j, score in zip(first.tolist(), second.tolist(), joint.tolist(), scores.tolist())
    ]


def select_bigrams(
    candidates: list[BigramCandidate], counts: CorpusCounts
) -> dict[tuple[str, str], BigramCandidate]:
    """Keep the candidates scoring far above randomly chosen adjacent pairs.

    The baseline is the undiscounted score of ``10 * len(candidates)`` pairs
    sampled uniformly (with replacement) from all pairs adjacent anywhere in
    the corpus, in pair order; the cut is mean + 2 std of those baseline
    scores. The draw is fixed (``np.random.default_rng(0)``), so the same
    corpus always gets the same cut. Returns the kept candidates keyed by
    ``(first, second)``.
    """
    if not candidates or len(counts.tokens) < 2 or not len(counts.pairs):
        return {}
    rng = np.random.default_rng(0)
    picks = rng.integers(0, len(counts.pairs), size=10 * len(candidates))
    *_, baseline = _phrase_scores(counts, counts.pairs[picks], counts.pair_counts[picks])
    threshold = baseline.mean() + 2.0 * baseline.std()
    return {(c.first, c.second): c for c in candidates if c.score > threshold}


def apply_bigrams(stream: TokenStream, selected: Collection[tuple[str, str]]) -> TokenStream:
    """Merge selected adjacent pairs into single joined tokens.

    Greedy left-to-right scan; a token consumed by a merge cannot start
    another merge.
    """
    if not selected:
        return stream
    tokens = stream.tokens
    hits = compress(count(), map(selected.__contains__, zip(tokens, tokens[1:])))
    merged: list[str] = []
    start = 0
    for i in hits:
        if i >= start:  # token i is not the second half of the previous merge
            merged.extend(tokens[start:i])
            merged.append(tokens[i] + JOINER + tokens[i + 1])
            start = i + 2
    if not start:
        return stream
    merged.extend(tokens[start:])
    return TokenStream(stream.doc_id, tuple(merged))


_BIGRAMS_HEADER = "first,second,score\n"


def write_bigrams_csv(selected: Iterable[BigramCandidate], path) -> None:
    """The selected bigrams as ``first,second,score`` CSV, best first."""
    rows = sorted(selected, key=lambda c: (-c.score, c.first, c.second))
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(_BIGRAMS_HEADER)
        for cand in rows:
            handle.write(f"{cand.first},{cand.second},{cand.score:.12g}\n")


def read_bigrams_csv(source: str | Path | bytes) -> set[tuple[str, str]]:
    """The ``(first, second)`` pairs of a ``write_bigrams_csv`` file.

    ``source`` is the file's path, or its bytes when the caller has read
    them to hash (so that what is hashed is what is parsed). Tokens are
    letters and digits only, so every row splits on ``,`` into three fields;
    any other row is an error naming its line (and the file, given its path).
    """
    if isinstance(source, bytes):
        where, data = "", source
    else:
        where, data = f"{source}: ", Path(source).read_bytes()
    handle = io.StringIO(data.decode("utf-8"), newline="\n")  # lines end at "\n" only
    if handle.readline() != _BIGRAMS_HEADER:
        raise ValueError(f"{where}not a bigrams CSV (no first,second,score header)")
    rows = [line.split(",", 2) for line in handle]
    for number, row in enumerate(rows, start=2):
        if len(row) != 3:
            raise ValueError(f"{where}line {number}: not a first,second,score row: {','.join(row)!r}")
    return {(first, second) for first, second, _ in rows}
