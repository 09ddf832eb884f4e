from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from relwords.text import (
    BigramCandidate,
    TokenStream,
    apply_bigrams,
    count_corpus,
    normalize_tokenize,
    read_bigrams_csv,
    score_bigrams,
    select_bigrams,
    token_spans,
    write_bigrams_csv,
)

from oracles import select_bigrams_reference


def stream(*tokens):
    return TokenStream("doc", tuple(tokens))


class TestNormalizeTokenize:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("Trump's Inauguration!", ("trump", "s", "inauguration")),
            ("A-B 42", ("a", "b", "42")),
            ("", ()),
            ("under_score splits", ("under", "score", "splits")),
            ("comma,separated;stuff", ("comma", "separated", "stuff")),
        ],
    )
    def test_examples(self, text, expected):
        assert normalize_tokenize(text).tokens == expected

    def test_split_before_lowercasing(self):
        # "İ" lowers to "i" + U+0307, which is not alphanumeric; and "Σ" lowers
        # to "σ" or final "ς" depending on the characters around it. Splitting
        # first keeps "İstanbul" one token and lowercases "ΟΔΟΣ" as a word.
        assert normalize_tokenize("İstanbul").tokens == ("i\u0307stanbul",)
        assert normalize_tokenize("ΟΔΟΣ.Α").tokens == ("οδος", "α")

    @settings(max_examples=200, deadline=None)
    @given(st.text(max_size=200))
    @example("İstanbul")
    @example("ΟΔΟΣ.Α")
    def test_same_tokens_as_token_spans(self, text):
        assert normalize_tokenize(text).tokens == tuple(t for *_, t in token_spans(text))

    def test_token_spans_match_tokens(self):
        text = "Hello, World-2"
        spans = token_spans(text)
        assert [t for _, _, t in spans] == ["hello", "world", "2"]
        assert [text[a:b].lower() for a, b, _ in spans] == ["hello", "world", "2"]


class TestCountCorpus:
    def test_unigrams_pairs_and_total(self):
        counts = count_corpus([stream("a", "b", "a"), stream("b")])
        assert counts.unigrams == {"a": 2, "b": 2}
        assert counts.pairs == {("a", "b"): 1, ("b", "a"): 1}
        assert counts.total == 4


class TestScoreBigrams:
    def test_hand_computed_score(self):
        # "new york" adjacent 10 times, each word counted 10 times, corpus of
        # 1000 tokens, discount 5 -> (10-5)*1000/(10*10) = 50.
        streams = [stream("new", "york") for _ in range(10)]
        streams.append(TokenStream("filler", tuple(f"f{i}" for i in range(980))))
        candidates = score_bigrams(count_corpus(streams), discount=5)
        by_pair = {(c.first, c.second): c for c in candidates}
        assert ("new", "york") in by_pair
        assert by_pair[("new", "york")].score == pytest.approx(50.0)
        assert by_pair[("new", "york")].joint_count == 10

    def test_pair_at_discount_count_omitted(self):
        streams = [stream("a", "b") for _ in range(5)]
        assert score_bigrams(count_corpus(streams), discount=5) == []
        streams.append(stream("a", "b"))
        kept = score_bigrams(count_corpus(streams), discount=5)
        assert [(c.first, c.second) for c in kept] == [("a", "b")]

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValueError, match="empty corpus"):
            score_bigrams(count_corpus([]))

    def test_candidates_in_pair_order(self):
        streams = [stream("b", "a", "b", "a", "c", "a")]
        candidates = score_bigrams(count_corpus(streams), discount=0)
        pairs = [(c.first, c.second) for c in candidates]
        assert pairs == sorted(pairs) == [("a", "b"), ("a", "c"), ("b", "a"), ("c", "a")]

    def test_chance_adjacency_scores_low(self):
        # Two frequent words adjacent exactly once score ~ W/(count*count),
        # far below a planted collocation of the same corpus.
        alpha_doc = [t for i in range(50) for t in ("alpha", f"xa{i}")]
        beta_doc = [t for i in range(50) for t in ("beta", f"xb{i}")]
        streams = [
            stream(*alpha_doc),
            stream(*beta_doc),
            stream("alpha", "beta"),
            *[stream("liquid", "nitrogen")] * 30,
        ]
        total = sum(len(s.tokens) for s in streams)
        candidates = {
            (c.first, c.second): c.score for c in score_bigrams(count_corpus(streams), discount=0)
        }
        assert candidates[("alpha", "beta")] == pytest.approx(total / (51 * 51))
        assert candidates[("liquid", "nitrogen")] > 10 * candidates[("alpha", "beta")]


def score_and_select(streams, discount, seed=0):
    counts = count_corpus(streams)
    candidates = score_bigrams(counts, discount=discount)
    return candidates, select_bigrams(candidates, counts, seed=seed)


class TestSelectBigrams:
    def make_planted(self, seed=7):
        rng = np.random.default_rng(seed)
        pool = [f"filler{i:02d}" for i in range(30)]
        streams = []
        for d in range(20):
            tokens = [pool[i] for i in rng.integers(0, 30, 20)]
            pos = int(rng.integers(0, len(tokens) + 1))
            tokens[pos:pos] = ["betsy", "devos"]
            streams.append(TokenStream(f"d{d}", tuple(tokens)))
        return streams

    def test_planted_collocation_selected(self):
        candidates, selected = score_and_select(self.make_planted(), discount=5)
        assert ("betsy", "devos") in selected
        # the kept candidates are handed back, keyed by their pair
        assert all(selected[pair] in candidates for pair in selected)
        assert all((c.first, c.second) == pair for pair, c in selected.items())

    def test_shuffled_corpus_selects_almost_nothing(self):
        rng = np.random.default_rng(11)
        words = [f"w{i:02d}" for i in range(50)]
        probs = np.array([1.0 / (i + 1) for i in range(50)])
        probs /= probs.sum()
        tokens = rng.choice(words, size=5000, p=probs)
        rng.shuffle(tokens)
        streams = [
            TokenStream(f"d{i}", tuple(tokens[i * 100 : (i + 1) * 100])) for i in range(50)
        ]
        candidates, selected = score_and_select(streams, discount=5)
        assert len(candidates) > 20  # the corpus does produce frequent pairs
        assert len(selected) <= max(1, len(candidates) // 100)

    def test_single_document_two_word_corpus(self):
        # "a b a b a b": score(a,b)=2, score(b,a)=4/3; any baseline sample
        # containing both pairs puts mean+2std above 2, so nothing passes.
        candidates, selected = score_and_select([stream(*"ababab")], discount=0)
        assert {(c.first, c.second) for c in candidates} == {("a", "b"), ("b", "a")}
        assert selected == {}

    def test_single_term_corpus_yields_empty_set(self):
        _, selected = score_and_select([stream("a", "a", "a")], discount=0)
        assert selected == {}

    def test_threshold_invariant_to_candidate_order(self):
        counts = count_corpus(self.make_planted())
        candidates = score_bigrams(counts, discount=0)
        forward = select_bigrams(candidates, counts, seed=0)
        backward = select_bigrams(list(reversed(candidates)), counts, seed=0)
        assert forward == backward

    def test_seed_is_respected(self):
        streams = self.make_planted()
        assert score_and_select(streams, 5, seed=0) == score_and_select(streams, 5, seed=0)

    @pytest.mark.parametrize("seed", range(5))
    def test_same_selection_and_threshold_as_the_tuple_sorted_universe(self, seed):
        # tokens that are prefixes of one another, as in ("a", "bc"),
        # ("ab", "c") and ("a", "b"), a digit and non-ASCII letters: the pair
        # universe must be sampled in tuple order all the same
        rng = np.random.default_rng(seed)
        words = ["a", "ab", "abc", "b", "bc", "c", "a0", "é", "éa", "z", "zz", "0"]
        streams = [stream("a", "bc", "ab", "c", "a", "b")] + [
            TokenStream(f"d{d}", tuple(words[i] for i in rng.integers(0, len(words), 10)))
            for d in range(6)
        ]
        counts = count_corpus(streams)
        candidates = score_bigrams(counts, discount=0)
        expected, threshold = select_bigrams_reference(candidates, counts, seed=seed)
        assert select_bigrams(candidates, counts, seed=seed) == expected
        # rescored to the reference's threshold and to the next float above
        # it, only the second candidate is kept iff the thresholds are equal
        at, above = (
            replace(c, score=score)
            for c, score in zip(candidates, (threshold, np.nextafter(threshold, np.inf)))
        )
        selected = select_bigrams([at, above, *candidates[2:]], counts, seed=seed)
        assert (at.first, at.second) not in selected
        assert (above.first, above.second) in selected


class TestApplyBigrams:
    def test_single_merge(self):
        merged = apply_bigrams(stream("new", "york", "times"), {("new", "york")})
        assert merged.tokens == ("new_york", "times")

    def test_greedy_non_overlap(self):
        merged = apply_bigrams(stream("a", "a", "a"), {("a", "a")})
        assert merged.tokens == ("a_a", "a")

    def test_no_selected_pairs_is_identity(self):
        original = stream("just", "plain", "words")
        assert apply_bigrams(original, {("other", "pair")}).tokens == original.tokens
        assert apply_bigrams(original, set()).tokens == original.tokens

    @settings(max_examples=100, deadline=None)
    @given(
        tokens=st.lists(st.sampled_from("abcd"), max_size=30),
        pairs=st.sets(
            st.tuples(st.sampled_from("abcd"), st.sampled_from("abcd")), max_size=6
        ),
    )
    def test_token_count_drops_by_merge_count(self, tokens, pairs):
        merged = apply_bigrams(TokenStream("x", tuple(tokens)), pairs)
        n_merges = sum(1 for t in merged.tokens if "_" in t)
        assert len(merged.tokens) == len(tokens) - n_merges
        assert len(merged.tokens) <= len(tokens)


def test_bigrams_csv_dump(tmp_path):
    streams = [stream("new", "york")] * 8 + [stream("other", "words")]
    candidates = score_bigrams(count_corpus(streams), discount=5)
    out = tmp_path / "bigrams.csv"
    write_bigrams_csv([c for c in candidates if (c.first, c.second) == ("new", "york")], out)
    lines = out.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "first,second,score"
    assert lines[1].startswith("new,york,")
    assert len(lines) == 2


def test_bigrams_csv_round_trip(tmp_path):
    selected = [
        BigramCandidate("new", "york", 9, 12.5),
        BigramCandidate("são", "paulo", 7, 3.25),
        BigramCandidate("i̇stanbul", "şehir", 6, 1e-7),
        BigramCandidate("東京", "都", 6, 40.0),
    ]
    out = tmp_path / "bigrams.csv"
    write_bigrams_csv(selected, out)
    assert read_bigrams_csv(out) == {(c.first, c.second) for c in selected}


def test_empty_bigram_selection_round_trip(tmp_path):
    out = tmp_path / "bigrams.csv"
    write_bigrams_csv([], out)
    assert out.read_text(encoding="utf-8") == "first,second,score\n"
    assert read_bigrams_csv(out) == set()
    out.write_text("", encoding="utf-8")
    with pytest.raises(ValueError, match="not a bigrams CSV"):
        read_bigrams_csv(out)
