import re
import sys
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from relwords.text import (
    BigramCandidate,
    CorpusCounts,
    TokenIds,
    TokenStream,
    apply_bigrams,
    count_corpus,
    normalize_tokenize,
    read_bigrams_csv,
    score_bigrams,
    select_bigrams,
    token_ids,
    token_spans,
    write_bigrams_csv,
)

from oracles import (
    CounterCounts,
    apply_bigrams_reference,
    count_corpus_reference,
    score_bigrams_reference,
    select_bigrams_reference,
    token_spans_reference,
)


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

    def test_final_sigma_per_token(self):
        assert normalize_tokenize("ΣΑΣ-ΣΑΣ").tokens == ("σας", "σας")
        assert normalize_tokenize("ΑΣ'Β").tokens == ("ας", "β")

    # Lowercasing the whole spaced text must equal lowercasing each token.
    @settings(max_examples=500, deadline=None)
    @given(
        st.text(alphabet=st.sampled_from("aZ9_-.' ΑΣσςİiI\u0301\u0307ʰ²Ⅷ１\u0085\u2028\u3000\u001c"), max_size=40)
        | st.text(max_size=200)
    )
    # Σ lowers to final ς only before a non-cased character, looking past
    # case-ignorable ones such as "'" (but not "_" or "-").
    @example("ΑΣ'Β")
    @example("ΑΣ_Β")
    @example("ΣΑΣ-ΣΑΣ")
    @example("x.ΟΔΟΣ")
    # İ lowers to two characters, the second a combining mark; U+0301 is a
    # case-ignorable separator.
    @example("a İstanbul")
    @example("ΑΣ \u0301Β")
    @example("ΑΣ\u0301Β")
    # Separators str.split splits on (U+00A0 too), and one it does not.
    @example("ΑΣ\u0085Β a\u2028b c\u3000d e\u001cf")
    @example("ΑΣ\u00a0Β\u200bΣΑ")
    # Alphanumeric beyond ASCII letters and digits.
    @example("１２３ x² Ⅷ ⅷ ΑⅧΣ")
    def test_matches_the_regex_oracle(self, text):
        spans = token_spans_reference(text)
        assert normalize_tokenize(text).tokens == tuple(token for *_, token in spans)
        assert token_spans(text) == spans

    def test_isalnum_is_the_token_rule_over_all_of_unicode(self):
        # The library separates on "not str.isalnum", the oracle on [\W_]:
        # they must agree on every code point. (Checked on one string, not
        # through the library's table, which would then hold all of Unicode.)
        everything = "".join(map(chr, range(sys.maxunicode + 1)))
        assert re.sub(r"[\W_]", " ", everything) == "".join(c if c.isalnum() else " " for c in everything)

    def test_token_spans_match_tokens(self):
        text = "Hello, World-2"
        spans = token_spans(text)
        assert [t for _, _, t in spans] == ["hello", "world", "2"]
        assert [text[a:b].lower() for a, b, _ in spans] == ["hello", "world", "2"]


def counts_as_dicts(counts):
    """(unigrams, pairs, total) of a ``CorpusCounts`` keyed by the strings."""
    tokens, n = counts.corpus.tokens, len(counts.corpus.tokens)
    unigrams = dict(zip(tokens, counts.unigrams.tolist()))
    pairs = {
        (tokens[key // n], tokens[key % n]): joint
        for key, joint in zip(counts.pairs.tolist(), counts.pair_counts.tolist())
    }
    return unigrams, pairs, counts.total


def as_bits(candidates):
    """Each candidate's fields, its score by its exact bits."""
    return [(c.first, c.second, c.joint_count, c.score.hex()) for c in candidates]


# Token streams counted the same way by the interned counts and the
# Counter oracle: empty documents first, between others and throughout,
# one-token documents, non-ASCII tokens, and tokens that are prefixes of
# one another, whose pairs must still sort as tuples.
COUNT_FIXTURES = {
    "leading-empty": [(), ("a", "b", "a"), ("b",)],
    "middle-empty": [("a", "b"), (), (), ("b", "a", "b")],
    "all-empty": [(), (), ()],
    "one-token-docs": [("a",), ("b",), ("a",), ("c",)],
    "non-ascii": [("é", "東京", "都", "é"), ("東京", "都", "i̇stanbul"), ("straße", "é", "東京", "都")],
    "prefixes": [("a", "bc", "ab", "c", "a", "b"), ("a0", "0", "a", "ab", "a", "b")],
}

WORDS = ["a", "ab", "abc", "b", "bc", "c", "a0", "0", "é", "éa", "東京", "都", "z"]
random_streams = st.lists(
    st.lists(st.sampled_from(WORDS), max_size=12).map(lambda tokens: stream(*tokens)),
    min_size=1,
    max_size=6,
)


class TestCountCorpus:
    def test_unigrams_pairs_and_total(self):
        counts = count_corpus([stream("a", "b", "a"), stream("b")])
        assert counts.corpus.tokens == ("a", "b")
        assert counts_as_dicts(counts) == ({"a": 2, "b": 2}, {("a", "b"): 1, ("b", "a"): 1}, 4)

    @pytest.mark.parametrize("name", sorted(COUNT_FIXTURES))
    def test_same_counts_as_the_counter_oracle(self, name):
        streams = [stream(*tokens) for tokens in COUNT_FIXTURES[name]]
        counts = count_corpus(streams)
        reference = count_corpus_reference(streams)
        assert counts_as_dicts(counts) == (reference.unigrams, reference.pairs, reference.total)
        assert list(counts.corpus.tokens) == sorted(reference.unigrams)
        assert np.all(np.diff(counts.pairs) > 0)  # distinct and sorted

    def test_no_pair_across_a_document_boundary(self):
        # doc k ends with "y" and doc k + 1 starts with "z", also across an
        # empty document and after a one-token one
        streams = [stream("x", "y"), stream("z", "x"), stream(), stream("y"), stream("z")]
        _, pairs, total = counts_as_dicts(count_corpus(streams))
        assert pairs == {("x", "y"): 1, ("z", "x"): 1}
        assert total == 6

    @settings(max_examples=200, deadline=None)
    @given(streams=random_streams, discount=st.integers(0, 3))
    def test_counts_and_candidates_as_the_oracle(self, streams, discount):
        counts = count_corpus(streams)
        reference = count_corpus_reference(streams)
        assert counts_as_dicts(counts) == (reference.unigrams, reference.pairs, reference.total)
        candidates = score_bigrams(counts, discount=discount)
        assert as_bits(candidates) == as_bits(score_bigrams_reference(reference, discount=discount))
        # the oracle averages an empty baseline when there is nothing to select
        expected = select_bigrams_reference(candidates, reference)[0] if candidates else {}
        assert select_bigrams(candidates, counts) == expected


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
        assert len(score_bigrams(count_corpus(streams), discount=5)) == 0
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

    @pytest.mark.parametrize("name", sorted(COUNT_FIXTURES))
    @pytest.mark.parametrize("discount", [0, 1])
    def test_bitwise_equal_to_the_counter_oracle(self, name, discount):
        streams = [stream(*tokens) for tokens in COUNT_FIXTURES[name]]
        candidates = score_bigrams(count_corpus(streams), discount=discount)
        reference = score_bigrams_reference(count_corpus_reference(streams), discount=discount)
        assert as_bits(candidates) == as_bits(reference)
        assert all(type(c.joint_count) is int and type(c.score) is float for c in candidates)

    @settings(max_examples=300, deadline=None)
    @given(
        unigrams=st.tuples(st.integers(1, 2**26), st.integers(1, 2**26)),
        joint=st.integers(1, 2**21),
        total=st.integers(1, 2**31),
        discount=st.integers(0, 5),
    )
    def test_large_counts_score_as_python_integers(self, unigrams, joint, total, discount):
        # both products below 2**53: the float64 quotient is Python's int / int
        joint += discount
        corpus = TokenIds((), ("a", "b"), np.zeros(0, dtype=np.int32), np.zeros(0, dtype=np.int64))
        counts = CorpusCounts(corpus, np.array(unigrams), np.array([1]), np.array([joint]), total)
        reference = CounterCounts(
            Counter(dict(zip("ab", unigrams))), Counter({("a", "b"): joint}), total
        )
        assert as_bits(score_bigrams(counts, discount=discount)) == as_bits(
            score_bigrams_reference(reference, discount=discount)
        )

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


def score_and_select(streams, discount):
    counts = count_corpus(streams)
    candidates = score_bigrams(counts, discount=discount)
    return candidates, select_bigrams(candidates, counts)


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
        forward = select_bigrams(candidates, counts)
        reverse = {name: getattr(candidates, name)[::-1] for name in ("first", "second", "joint", "scores")}
        backward = select_bigrams(replace(candidates, **reverse), counts)
        assert forward == backward

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
        expected, threshold = select_bigrams_reference(
            candidates, count_corpus_reference(streams)
        )
        assert select_bigrams(candidates, counts) == expected
        # rescored to the reference's threshold and to the next float above
        # it, only the second candidate is kept iff the thresholds are equal
        scores = candidates.scores.copy()
        scores[:2] = threshold, np.nextafter(threshold, np.inf)
        rescored = replace(candidates, scores=scores)
        at, above = rescored[0], rescored[1]
        selected = select_bigrams(rescored, counts)
        assert (at.first, at.second) not in selected
        assert (above.first, above.second) in selected


def merge_one(stream, selected):
    """``stream`` merged as the one document of a corpus."""
    return apply_bigrams(token_ids([stream]), selected)[0]


class TestApplyBigrams:
    def test_single_merge(self):
        merged = merge_one(stream("new", "york", "times"), {("new", "york")})
        assert merged.tokens == ("new_york", "times")

    def test_greedy_non_overlap(self):
        merged = merge_one(stream("a", "a", "a"), {("a", "a")})
        assert merged.tokens == ("a_a", "a")

    def test_no_selected_pairs_is_identity(self):
        original = token_ids([stream("just", "plain", "words")])
        assert apply_bigrams(original, {("other", "pair")}) is original
        assert apply_bigrams(original, {("just", "words")}) is original
        assert apply_bigrams(original, set()) is original

    @settings(max_examples=100, deadline=None)
    @given(
        tokens=st.lists(st.sampled_from("abcd"), max_size=30),
        pairs=st.sets(
            st.tuples(st.sampled_from("abcd"), st.sampled_from("abcd")), max_size=6
        ),
    )
    def test_token_count_drops_by_merge_count(self, tokens, pairs):
        merged = merge_one(TokenStream("x", tuple(tokens)), pairs)
        assert merged == apply_bigrams_reference(TokenStream("x", tuple(tokens)), pairs)
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


@pytest.mark.parametrize("row", ["broken\n", "\n", "new,york\n"])
def test_malformed_bigrams_row_rejected_naming_file_and_line(tmp_path, row):
    out = tmp_path / "bigrams.csv"
    out.write_text("first,second,score\nnew,york,12.5\n" + row, encoding="utf-8")
    with pytest.raises(ValueError, match=rf"{re.escape(str(out))}: line 3: "):
        read_bigrams_csv(out)


def test_bigrams_csv_bytes_parse_as_the_file(tmp_path):
    out = tmp_path / "bigrams.csv"
    write_bigrams_csv([BigramCandidate("new", "york", 9, 12.5), BigramCandidate("東京", "都", 6, 40.0)], out)
    assert read_bigrams_csv(out.read_bytes()) == read_bigrams_csv(out) == {("new", "york"), ("東京", "都")}
    with pytest.raises(ValueError, match=r"^line 4: not a first,second,score row"):
        read_bigrams_csv(out.read_bytes() + b"broken\n")
