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


def normalize_tokenize(text: str) -> tuple[str, ...]:
    """The runs of alphanumeric (``str.isalnum``) characters, lowercased.

    Every other character becomes a space (``_SEPARATORS``), and the spaced
    text is lowercased and split, in order. Lowercasing the spaced text
    equals lowercasing each token on its own: spaces are neither cased nor
    case-ignorable, so context rules such as the final sigma see the same
    token boundaries, and no letter or digit lowercases to whitespace.
    """
    return tuple(text.translate(_SEPARATORS).lower().split())


def token_spans(text: str, selected: Iterable[tuple[str, str]]) -> list[tuple[int, int, str]]:
    """Each token of ``normalize_tokenize(text)`` as ``(start, end, term)``:
    its place in ``text``, and the term it counts as once the ``selected``
    bigrams merge (``apply_bigrams``); both tokens of a merged pair get the
    joined term. ``_SEPARATORS`` maps each character to one character, so
    the non-space runs of the spaced text sit where the tokens sit in
    ``text``, and renderers can wrap tokens in place, touching nothing else.
    """
    merged = apply_bigrams(token_ids([normalize_tokenize(text)]), selected)[0]
    terms = [term for term in merged for _ in term.split(JOINER)]  # tokens hold no JOINER
    runs = re.finditer(r"\S+", text.translate(_SEPARATORS))
    return [(run.start(), run.end(), term) for run, term in zip(runs, terms)]


@dataclass(frozen=True, eq=False)
class TokenIds:
    """The token streams of a corpus as integer ids, in corpus order.

    ``tokens`` are distinct and sorted, so ids order as their strings do.
    ``ids`` (int32) holds every document's token ids in corpus order, and
    document k is the next ``lengths[k]`` of them. An id need not occur: a
    merge leaves the ids of the tokens it consumed. Documents are rows, not
    names: the ``Corpus`` the ids were made from names them. Strings are
    built back one document at a time, by ``corpus[k]``.
    """

    tokens: tuple[str, ...]
    ids: np.ndarray
    lengths: np.ndarray

    def __len__(self) -> int:
        return self.lengths.size

    def __getitem__(self, k: int) -> tuple[str, ...]:
        """Document k's tokens."""
        k = range(len(self))[k]
        end = int(self.ends[k])
        ids = self.ids[end - int(self.lengths[k]) : end]
        return tuple(map(self.tokens.__getitem__, ids.tolist()))

    @staticmethod
    def term(name: str) -> str:
        """``name`` lowercased as tokens are, if a token can equal it: one
        token, or two joined by ``JOINER`` as a merged bigram is."""
        parts = name.split(JOINER)
        if len(parts) > 2 or any(normalize_tokenize(part) != (part.lower(),) for part in parts):
            raise ValueError(f"trend term is neither a token nor a merged bigram: {name!r}")
        return name.lower()

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


def token_ids(documents: Iterable[tuple[str, ...]]) -> TokenIds:
    """Intern a corpus in one pass over its documents' token tuples: one
    dict lookup per token numbers it by first sight, a document at a time,
    and ranking the distinct tokens once turns those numbers into ids.
    ``documents`` may be a generator, so no tuple need outlive its
    numbering."""
    first_seen = defaultdict(count().__next__)
    seen = []
    for tokens in documents:
        numbers = map(first_seen.__getitem__, tokens)
        seen.append(np.fromiter(numbers, dtype=np.int32, count=len(tokens)))
    lengths = np.fromiter(map(len, seen), dtype=np.int64, count=len(seen))
    distinct = list(first_seen)
    order = sorted(range(len(distinct)), key=distinct.__getitem__)
    rank = np.empty(len(distinct), dtype=np.int32)
    rank[order] = np.arange(len(distinct), dtype=np.int32)
    ids = rank[np.concatenate(seen)] if seen else rank  # no documents: rank is empty
    return TokenIds(tuple(map(distinct.__getitem__, order)), ids, lengths)


@dataclass(frozen=True, eq=False)
class BigramCandidates:
    """Scored adjacent pairs in pair order, as arrays: the ids ``first`` and
    ``second`` into ``tokens``, and each pair's score. ``threshold`` is the
    cut of the corpus they were scored on: ``select_bigrams`` keeps the
    pairs scoring above it. Iterating yields each pair's ``(first, second)``
    strings, in pair order."""

    tokens: tuple[str, ...]
    first: np.ndarray
    second: np.ndarray
    scores: np.ndarray
    threshold: float

    def __len__(self) -> int:
        return self.scores.size

    def __iter__(self) -> Iterator[tuple[str, str]]:
        token = self.tokens.__getitem__
        return zip(map(token, self.first.tolist()), map(token, self.second.tolist()))


def score_bigrams(corpus: TokenIds, discount: int = 5) -> BigramCandidates:
    """Score every adjacent word pair in the corpus, in pair order, and draw
    the cut.

    score(a, b) = (count(a b) - discount) * W / (count(a) * count(b)) with W
    the corpus token count; pairs adjacent at most ``discount`` times are
    omitted. The discount suppresses one-off co-occurrences of rare words.
    Both products are int64 and, below 2**53, exact in float64; the IEEE
    quotient is then correctly rounded, the same bits as Python's int / int.

    Only pairs within a document are adjacent. Each is the key
    ``first * n + second`` (n tokens), so keys sort in the pairs' tuple
    order. The cut is mean + 2 std of the undiscounted scores of
    ``10 * len(candidates)`` pairs sampled uniformly (with replacement) from
    the distinct adjacent pairs, in pair order. The draw is fixed
    (``np.random.default_rng(0)``), so the same corpus always gets the same
    cut. It is ``inf`` when there are no candidates or fewer than two
    distinct tokens.
    """
    if not len(corpus):
        raise ValueError("empty corpus")
    ids, n, total = corpus.ids, len(corpus.tokens), corpus.ids.size
    keys = ids[:-1] * np.int64(n)
    keys += ids[1:]
    # The pair ending a document and starting the next is no adjacency.
    ends = corpus.ends
    keys = np.delete(keys, ends[(ends > 0) & (ends < total)] - 1)
    keys, joint = np.unique(keys, return_counts=True)
    unigrams = np.bincount(ids, minlength=n)

    def phrase_scores(keys, joint):
        first, second = np.divmod(keys, n)
        return first, second, joint * total / (unigrams[first] * unigrams[second])

    frequent = joint > discount
    first, second, scores = phrase_scores(keys[frequent], joint[frequent] - discount)
    threshold = np.inf
    if scores.size and n >= 2:
        picks = np.random.default_rng(0).integers(0, keys.size, size=10 * scores.size)
        *_, baseline = phrase_scores(keys[picks], joint[picks])
        threshold = baseline.mean() + 2.0 * baseline.std()
    return BigramCandidates(corpus.tokens, first, second, scores, threshold)


def select_bigrams(candidates: BigramCandidates) -> BigramCandidates:
    """The candidates scoring above their threshold, in pair order, with the
    threshold kept."""
    keep = candidates.scores > candidates.threshold
    first, second, scores = candidates.first[keep], candidates.second[keep], candidates.scores[keep]
    return BigramCandidates(candidates.tokens, first, second, scores, candidates.threshold)


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
    return TokenIds(table, merged, lengths)


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
