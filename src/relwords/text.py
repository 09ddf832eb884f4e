"""Tokenization and distinctive-bigram detection.

Texts are split on every non-alphanumeric character, then each token is
lowercased. Word pairs that co-occur adjacently far more often than chance
are merged into single ``first_second`` tokens so they act as one feature
downstream.
"""

from __future__ import annotations

import re
from collections import Counter
from collections.abc import Collection, Iterable
from dataclasses import dataclass

import numpy as np

JOINER = "_"

# Letters and digits only; underscore is a separator in raw text but is the
# joiner of merged bigrams.
_TOKEN = re.compile(r"[^\W_]+")


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
    """Split a text into alphanumeric tokens, then lowercase each token.

    Every character that is not a letter or digit separates tokens; empty
    tokens are dropped and order is preserved. Splitting comes before
    lowercasing, so the tokens are exactly those of ``token_spans``.
    """
    return TokenStream(doc_id, tuple(map(str.lower, _TOKEN.findall(text))))


def token_spans(text: str) -> list[tuple[int, int, str]]:
    """The tokens of ``normalize_tokenize`` with their (start, end) positions.

    Positions refer to the original string, which lets renderers wrap tokens
    in place without touching other characters.
    """
    return [(m.start(), m.end(), m.group().lower()) for m in _TOKEN.finditer(text)]


@dataclass(frozen=True)
class CorpusCounts:
    """Corpus-wide unigram counts, adjacent ordered-pair counts, total tokens."""

    unigrams: Counter
    pairs: Counter
    total: int


def count_corpus(streams: list[TokenStream]) -> CorpusCounts:
    """Count the unigrams and adjacent pairs of a corpus in one pass."""
    if not streams:
        raise ValueError("empty corpus")
    unigrams: Counter = Counter()
    pairs: Counter = Counter()
    total = 0
    for stream in streams:
        tokens = stream.tokens
        unigrams.update(tokens)
        pairs.update(zip(tokens, tokens[1:]))
        total += len(tokens)
    return CorpusCounts(unigrams, pairs, total)


def score_bigrams(counts: CorpusCounts, discount: int = 5) -> list[BigramCandidate]:
    """Score every adjacent word pair in the corpus, in pair order.

    score(a, b) = (count(a b) - discount) * W / (count(a) * count(b)) with W
    the corpus token count; pairs adjacent at most ``discount`` times are
    omitted. The discount suppresses one-off co-occurrences of rare words.
    """
    unigrams, total = counts.unigrams, counts.total
    frequent = ((pair, joint) for pair, joint in counts.pairs.items() if joint > discount)
    candidates = []
    for (first, second), joint in sorted(frequent):
        score = (joint - discount) * total / (unigrams[first] * unigrams[second])
        candidates.append(BigramCandidate(first, second, joint, score))
    return candidates


def select_bigrams(
    candidates: list[BigramCandidate], counts: CorpusCounts, *, seed: int = 0
) -> dict[tuple[str, str], BigramCandidate]:
    """Keep the candidates scoring far above randomly chosen adjacent pairs.

    The baseline is the undiscounted score of ``10 * len(candidates)`` pairs
    sampled uniformly (with replacement, seeded) from all pairs adjacent
    anywhere in the corpus; the cut is mean + 2 std of those baseline
    scores. Returns the kept candidates keyed by ``(first, second)``.
    """
    unigrams, pairs, total = counts.unigrams, counts.pairs, counts.total
    if not candidates or len(unigrams) < 2 or not pairs:
        return {}
    # Each pair as one integer, rank(first) * n + rank(second) over the n
    # sorted tokens: these sort in the pairs' own order, much faster than
    # the tuples, and hold no object per pair.
    tokens = sorted(unigrams)
    rank = {token: r for r, token in enumerate(tokens)}
    n = len(tokens)
    universe = np.fromiter(
        (rank[a] * n + rank[b] for a, b in pairs), dtype=np.int64, count=len(pairs)
    )
    universe.sort()
    rng = np.random.default_rng(seed)
    picks = universe[rng.integers(0, len(universe), size=10 * len(candidates))]
    sample = ((tokens[first], tokens[second]) for first, second in zip(*np.divmod(picks, n)))
    baseline = np.array([pairs[(a, b)] * total / (unigrams[a] * unigrams[b]) for a, b in sample])
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
    merged: list[str] = []
    i = 0
    while i < len(tokens):
        if i + 1 < len(tokens) and (tokens[i], tokens[i + 1]) in selected:
            merged.append(tokens[i] + JOINER + tokens[i + 1])
            i += 2
        else:
            merged.append(tokens[i])
            i += 1
    return TokenStream(stream.doc_id, tuple(merged))


_BIGRAMS_HEADER = "first,second,score\n"


def write_bigrams_csv(selected: Iterable[BigramCandidate], path) -> None:
    """The selected bigrams as ``first,second,score`` CSV, best first."""
    rows = sorted(selected, key=lambda c: (-c.score, c.first, c.second))
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(_BIGRAMS_HEADER)
        for cand in rows:
            handle.write(f"{cand.first},{cand.second},{cand.score:.12g}\n")


def read_bigrams_csv(path) -> set[tuple[str, str]]:
    """The ``(first, second)`` pairs of a ``write_bigrams_csv`` file.

    Tokens are letters and digits only, so every row splits on ``,`` into
    three fields; any other row is an error naming its line.
    """
    with open(path, "r", encoding="utf-8", newline="\n") as handle:
        if handle.readline() != _BIGRAMS_HEADER:
            raise ValueError(f"{path}: not a bigrams CSV (no first,second,score header)")
        rows = [line.split(",", 2) for line in handle]
    for number, row in enumerate(rows, start=2):
        if len(row) != 3:
            raise ValueError(f"{path}: line {number}: not a first,second,score row: {','.join(row)!r}")
    return {(first, second) for first, second, _ in rows}
