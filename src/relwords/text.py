"""Tokenization and distinctive-bigram detection.

Tokens are the runs of alphanumeric characters, lowercased. Word pairs
that co-occur adjacently far more often than chance are merged into single
``first_second`` tokens so they act as one feature downstream.
"""

from __future__ import annotations

import io
import re
from bisect import bisect_left
from collections import defaultdict
from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from functools import cached_property
from itertools import count

import numpy as np
from scipy import sparse

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


@dataclass(frozen=True, eq=False)
class TokenIds:
    """The token streams of a corpus as integer ids.

    ``tokens`` are distinct and sorted, so ids order as their strings do.
    ``ids`` (int32) holds every document's token ids in corpus order, and
    document k (``doc_ids[k]``) is the next ``lengths[k]`` of them. An id
    need not occur: a merge leaves the ids of the tokens it consumed.
    Strings are built back one document at a time, by ``corpus[k]``.
    """

    doc_ids: tuple[str, ...]
    tokens: tuple[str, ...]
    ids: np.ndarray
    lengths: np.ndarray

    def __len__(self) -> int:
        return len(self.doc_ids)

    def __getitem__(self, k: int) -> TokenStream:
        """Document k as a token stream."""
        k = range(len(self))[k]
        end = int(self.ends[k])
        ids = self.ids[end - int(self.lengths[k]) : end]
        return TokenStream(self.doc_ids[k], tuple(map(self.tokens.__getitem__, ids.tolist())))

    @cached_property
    def ends(self) -> np.ndarray:
        """int64: document k is ``ids[ends[k] - lengths[k] : ends[k]]``. Made on first use."""
        return np.cumsum(self.lengths)

    @cached_property
    def counts(self) -> sparse.csr_matrix:
        """N x len(tokens) int64: row k counts each id of document k, in id
        order. Made on first use, by one sort of the (document, id) keys,
        and shared by the vocabulary and the count matrix."""
        n = len(self.tokens)
        keys = np.repeat(np.arange(len(self), dtype=np.int64) * n, self.lengths)
        keys += self.ids
        keys, counts = np.unique(keys, return_counts=True)
        rows, ids = np.divmod(keys, n)
        indptr = np.zeros(len(self) + 1, dtype=np.int64)
        np.cumsum(np.bincount(rows, minlength=len(self)), out=indptr[1:])
        return sparse.csr_matrix((counts, ids, indptr), shape=(len(self), n))


def token_ids(streams: Iterable[TokenStream]) -> TokenIds:
    """Intern a corpus in one pass over its streams: one dict lookup per
    token numbers it by first sight, a document at a time, and ranking the
    distinct tokens once turns those numbers into ids. ``streams`` may be a
    generator, so no stream need outlive its numbering."""
    first_seen = defaultdict(count().__next__)
    doc_ids, seen = [], []
    for stream in streams:
        doc_ids.append(stream.doc_id)
        numbers = map(first_seen.__getitem__, stream.tokens)
        seen.append(np.fromiter(numbers, dtype=np.int32, count=len(stream)))
    lengths = np.fromiter(map(len, seen), dtype=np.int64, count=len(seen))
    distinct = list(first_seen)
    order = sorted(range(len(distinct)), key=distinct.__getitem__)
    rank = np.empty(len(distinct), dtype=np.int32)
    rank[order] = np.arange(len(distinct), dtype=np.int32)
    ids = rank[np.concatenate(seen)] if seen else rank  # no documents: rank is empty
    return TokenIds(tuple(doc_ids), tuple(map(distinct.__getitem__, order)), ids, lengths)


@dataclass(frozen=True)
class CorpusCounts:
    """The unigrams and within-document adjacent pairs of a corpus.

    ``corpus`` is the corpus as token ids, which the merge
    (``apply_bigrams``), the vocabulary and the count matrix carry on from;
    no stage after ``token_ids`` hashes a token occurrence.
    ``unigrams[i]`` counts token id i of ``corpus``. Each adjacent ordered
    pair within a document is the key ``first * n + second`` (n tokens), so
    keys sort in the pairs' tuple order: ``pairs`` holds the distinct keys,
    sorted, and ``pair_counts`` how often each occurs. ``total`` is the
    corpus token count.
    """

    corpus: TokenIds
    unigrams: np.ndarray
    pairs: np.ndarray
    pair_counts: np.ndarray
    total: int


def count_corpus(corpus: TokenIds) -> CorpusCounts:
    """Count the unigrams and within-document adjacent pairs of a corpus of
    token ids, from its ids alone."""
    if not len(corpus):
        raise ValueError("empty corpus")
    ids, n, total = corpus.ids, len(corpus.tokens), corpus.ids.size
    keys = ids[:-1] * np.int64(n)
    keys += ids[1:]
    # The pair ending a document and starting the next is no adjacency.
    ends = corpus.ends
    keys = np.delete(keys, ends[(ends > 0) & (ends < total)] - 1)
    pairs, pair_counts = np.unique(keys, return_counts=True)
    return CorpusCounts(corpus, np.bincount(ids, minlength=n), pairs, pair_counts, total)


def _phrase_scores(counts: CorpusCounts, keys: np.ndarray, joint: np.ndarray):
    """(first ids, second ids, joint * W / (count(first) * count(second))).

    Both products are int64 and, below 2**53, exact in float64; the IEEE
    quotient is then correctly rounded, the same bits as Python's int / int.
    """
    first, second = np.divmod(keys, len(counts.corpus.tokens))
    return first, second, joint * counts.total / (counts.unigrams[first] * counts.unigrams[second])


@dataclass(frozen=True, eq=False)
class BigramCandidates:
    """Scored adjacent pairs in pair order, as arrays: the ids ``first`` and
    ``second`` into ``tokens``, and each pair's score. Iterating yields each
    pair's ``(first, second)`` strings, in pair order."""

    tokens: tuple[str, ...]
    first: np.ndarray
    second: np.ndarray
    scores: np.ndarray

    def __len__(self) -> int:
        return self.scores.size

    def __iter__(self) -> Iterator[tuple[str, str]]:
        token = self.tokens.__getitem__
        return zip(map(token, self.first.tolist()), map(token, self.second.tolist()))


def score_bigrams(counts: CorpusCounts, discount: int = 5) -> BigramCandidates:
    """Score every adjacent word pair in the corpus, in pair order.

    score(a, b) = (count(a b) - discount) * W / (count(a) * count(b)) with W
    the corpus token count; pairs adjacent at most ``discount`` times are
    omitted. The discount suppresses one-off co-occurrences of rare words.
    Scores are exact quotients while W * count(a b) and count(a) * count(b)
    stay below 2**53.
    """
    frequent = counts.pair_counts > discount
    joint = counts.pair_counts[frequent] - discount
    return BigramCandidates(counts.corpus.tokens, *_phrase_scores(counts, counts.pairs[frequent], joint))


def select_bigrams(candidates: BigramCandidates, counts: CorpusCounts) -> BigramCandidates:
    """Keep the candidates scoring far above randomly chosen adjacent pairs.

    The baseline is the undiscounted score of ``10 * len(candidates)`` pairs
    sampled uniformly (with replacement) from all pairs adjacent anywhere in
    the corpus, in pair order; the cut is mean + 2 std of those baseline
    scores. The draw is fixed (``np.random.default_rng(0)``), so the same
    corpus always gets the same cut. Returns the kept candidates, in pair
    order: none when there are no candidates, fewer than two distinct
    tokens or no adjacent pairs.
    """
    threshold = np.inf
    if len(candidates) and len(counts.corpus.tokens) >= 2 and len(counts.pairs):
        rng = np.random.default_rng(0)
        picks = rng.integers(0, len(counts.pairs), size=10 * len(candidates))
        *_, baseline = _phrase_scores(counts, counts.pairs[picks], counts.pair_counts[picks])
        threshold = baseline.mean() + 2.0 * baseline.std()
    keep = candidates.scores > threshold
    first, second, scores = candidates.first[keep], candidates.second[keep], candidates.scores[keep]
    return BigramCandidates(candidates.tokens, first, second, scores)


def apply_bigrams(corpus: TokenIds, selected: Iterable[tuple[str, str]]) -> TokenIds:
    """Merge selected adjacent pairs into single joined tokens.

    Greedy left-to-right within each document: a token consumed by a merge
    cannot start another merge. A position whose pair is selected is a hit,
    and in each run of consecutive hits the first, third, ... merge, each
    consuming the next. The joined tokens take their places in string order
    among the others, whose ids move up to make room. Returns ``corpus``
    itself when nothing merges.
    """
    tokens, ids, n = corpus.tokens, corpus.ids, len(corpus.tokens)
    rank = dict(zip(tokens, count()))
    wanted = np.array(
        sorted({rank[a] * n + rank[b] for a, b in selected if a in rank and b in rank}), dtype=np.int64
    )
    if not wanted.size:
        return corpus
    first = np.zeros(n, dtype=bool)
    first[wanted // n] = True
    at = np.flatnonzero(first[ids[:-1]])  # positions whose token starts a selected pair
    keys = ids[at] * np.int64(n) + ids[at + 1]
    pair = np.minimum(np.searchsorted(wanted, keys), wanted.size - 1)
    doc = np.searchsorted(corpus.ends, at, side="right")
    hit = (wanted[pair] == keys) & (at + 1 < corpus.ends[doc])  # selected, and within one document
    hits, pair, doc = at[hit], pair[hit], doc[hit]
    if not hits.size:
        return corpus
    # each hit's run starts at the last hit not one after the hit before it
    run_start = np.maximum.accumulate(np.where(np.diff(hits, prepend=-2) != 1, np.arange(hits.size), 0))
    merging = (np.arange(hits.size) - run_start) % 2 == 0

    joined = [tokens[key // n] + JOINER + tokens[key % n] for key in wanted.tolist()]
    table = tuple(sorted((*tokens, *joined)))  # tokens are one sorted run, so this merges
    joined_ids = np.array([bisect_left(table, token) for token in joined])
    is_old = np.ones(len(table), dtype=bool)
    is_old[joined_ids] = False
    merged = np.flatnonzero(is_old).astype(np.int32)[ids]  # each old id's place in the table
    merged[hits[merging]] = joined_ids[pair[merging]]
    merged = np.delete(merged, hits[merging] + 1)
    lengths = corpus.lengths - np.bincount(doc[merging], minlength=len(corpus))
    return TokenIds(corpus.doc_ids, table, merged, lengths)


_BIGRAMS_HEADER = "first,second,score\n"


def write_bigrams_csv(selected: BigramCandidates, path) -> None:
    """The selected bigrams as ``first,second,score`` CSV, best first, then
    by first and second token (ids order as their strings)."""
    order = np.lexsort((selected.second, selected.first, -selected.scores))
    tokens = selected.tokens
    rows = zip(*(column[order].tolist() for column in (selected.first, selected.second, selected.scores)))
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(_BIGRAMS_HEADER)
        for first, second, score in rows:
            handle.write(f"{tokens[first]},{tokens[second]},{score:.12g}\n")


def read_bigrams_csv(data: bytes) -> set[tuple[str, str]]:
    """The ``(first, second)`` pairs of a ``write_bigrams_csv`` file's bytes.

    The caller reads the bytes to hash them, so what is hashed is what is
    parsed. Tokens are letters and digits only, so every row splits on ``,``
    into three fields; any other row is an error naming its line.
    """
    handle = io.StringIO(data.decode("utf-8"), newline="\n")  # lines end at "\n" only
    if handle.readline() != _BIGRAMS_HEADER:
        raise ValueError("not a bigrams CSV (no first,second,score header)")
    rows = [line.split(",", 2) for line in handle]
    for number, row in enumerate(rows, start=2):
        if len(row) != 3:
            raise ValueError(f"line {number}: not a first,second,score row: {','.join(row)!r}")
    return {(first, second) for first, second, _ in rows}
