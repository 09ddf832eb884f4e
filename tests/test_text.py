import re
import sys
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from relwords.text import (
    BigramCandidates,
    TokenIds,
    apply_bigrams,
    normalize_tokenize,
    read_bigrams_csv,
    score_bigrams,
    select_bigrams,
    token_ids,
    token_spans,
    write_bigrams_csv,
)

from oracles import (
    ScoredPair,
    apply_bigrams_reference,
    count_corpus_reference,
    score_bigrams_reference,
    select_bigrams_reference,
    token_spans_reference,
    write_bigrams_csv_reference,
)


def stream(*tokens):
    return tuple(tokens)


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
        assert normalize_tokenize(text) == expected

    def test_split_before_lowercasing(self):
        # "İ" lowers to "i" + U+0307, which is not alphanumeric; and "Σ" lowers
        # to "σ" or final "ς" depending on the characters around it. Splitting
        # first keeps "İstanbul" one token and lowercases "ΟΔΟΣ" as a word.
        assert normalize_tokenize("İstanbul") == ("i\u0307stanbul",)
        assert normalize_tokenize("ΟΔΟΣ.Α") == ("οδος", "α")

    @settings(max_examples=200, deadline=None)
    @given(st.text(max_size=200))
    @example("İstanbul")
    @example("ΟΔΟΣ.Α")
    def test_same_tokens_as_token_spans(self, text):
        assert normalize_tokenize(text) == tuple(t for *_, t in token_spans(text, ()))

    def test_final_sigma_per_token(self):
        assert normalize_tokenize("ΣΑΣ-ΣΑΣ") == ("σας", "σας")
        assert normalize_tokenize("ΑΣ'Β") == ("ας", "β")

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
        assert normalize_tokenize(text) == tuple(token for *_, token in spans)
        assert token_spans(text, ()) == spans

    def test_isalnum_is_the_token_rule_over_all_of_unicode(self):
        # The library separates on "not str.isalnum", the oracle on [\W_]:
        # they must agree on every code point. (Checked on one string, not
        # through the library's table, which would then hold all of Unicode.)
        everything = "".join(map(chr, range(sys.maxunicode + 1)))
        assert re.sub(r"[\W_]", " ", everything) == "".join(c if c.isalnum() else " " for c in everything)

    def test_token_spans_match_tokens(self):
        text = "Hello, World-2"
        spans = token_spans(text, ())
        assert [t for _, _, t in spans] == ["hello", "world", "2"]
        assert [text[a:b].lower() for a, b, _ in spans] == ["hello", "world", "2"]


class TestTokenSpans:
    """token_spans(text, selected): where each token sits in the text, and
    the term it counts as once the selected bigrams merge."""

    def test_both_halves_of_a_merge_get_the_joined_term(self):
        spans = token_spans("Betsy DeVos spoke; DeVos left.", {("betsy", "devos"), ("spoke", "left")})
        assert spans == [
            (0, 5, "betsy_devos"),
            (6, 11, "betsy_devos"),
            (12, 17, "spoke"),
            (19, 24, "devos"),
            (25, 29, "left"),
        ]

    # Short texts over a few letters repeat their pairs, so merges run into
    # each other; the bigrams are a subset of the text's own adjacent pairs,
    # picked by the bits of ``mask`` in order of first occurrence.
    @settings(max_examples=300, deadline=None)
    @given(
        st.text(alphabet=st.sampled_from("abİΣσ .-_'"), max_size=40) | st.text(max_size=200),
        st.integers(min_value=0, max_value=2**12 - 1),
    )
    @example("İstanbul", 0)
    @example("ΟΔΟΣ.Α", 1)
    @example("a a a a b", 0b11)
    def test_spans_and_terms_of_the_pipeline_tokens(self, text, mask):
        tokens = normalize_tokenize(text)
        pairs = list(dict.fromkeys(zip(tokens, tokens[1:])))
        selected = {pair for bit, pair in enumerate(pairs) if mask >> bit & 1}
        spans = token_spans(text, selected)
        assert len(spans) == len(tokens)
        ends = [0] + [end for _, end, _ in spans]
        assert all(ends[i] <= start < end for i, (start, end, _) in enumerate(spans))
        assert tuple(text[start:end].lower() for start, end, _ in spans) == tokens
        merged = apply_bigrams(token_ids([tokens]), selected)[0]
        assert [term for _, _, term in spans] == [
            term for term in merged for _ in range(2 if "_" in term else 1)
        ]


def as_bits(candidates):
    """(first, second, score by its exact bits) of each candidate, of the
    library's arrays or of the oracle's records."""
    if isinstance(candidates, BigramCandidates):
        return [(a, b, score.hex()) for (a, b), score in zip(candidates, candidates.scores.tolist())]
    return [(c.first, c.second, c.score.hex()) for c in candidates]


def scores_by_pair(candidates):
    return dict(zip(candidates, candidates.scores.tolist()))


# Token streams counted the same way by score_bigrams and the Counter
# oracle: empty documents first, between others and throughout,
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


class TestTokenIds:
    @settings(max_examples=100, deadline=None)
    @given(streams=random_streams)
    def test_ids_of_a_one_shot_generator_as_of_the_list(self, streams):
        # token_ids makes one pass, so the streams may be made as it numbers them
        once, listed = token_ids(s for s in streams), token_ids(streams)
        assert len(once) == len(listed) and once.tokens == listed.tokens
        for name in ("ids", "lengths"):
            value, reference = getattr(once, name), getattr(listed, name)
            assert value.dtype == reference.dtype and np.array_equal(value, reference), name
        assert list(once) == streams

    def test_iterating_equals_indexing_around_empty_documents(self):
        # "!!!" has no tokens: an empty document first, in the middle and last
        texts = ["!!!", "a b", "!!!", "c a b", "b", "!!!"]
        streams = [normalize_tokenize(text) for text in texts]
        corpus = token_ids(streams)
        assert list(corpus) == [corpus[k] for k in range(len(corpus))] == streams
        assert corpus[-1] == streams[-1] and corpus[-5] == streams[1]
        with pytest.raises(IndexError):
            corpus[len(texts)]


class TestCountCorpus:
    """``score_bigrams`` counts the corpus itself. At discount 0 every
    distinct adjacent pair is a candidate, scored from its count, both
    unigram counts and the token count, so the counts show in the scores."""

    def test_unigrams_pairs_and_total(self):
        # a 2, b 3 and c 1 times among 6 tokens; (a, b) adjacent twice and
        # (b, a) and (b, c) once: 2 * 6 / (2 * 3), 1 * 6 / (3 * 2), 1 * 6 / (3 * 1)
        candidates = score_bigrams(token_ids([stream("a", "b", "a", "b"), stream("b", "c")]), discount=0)
        assert candidates.tokens == ("a", "b", "c")
        assert scores_by_pair(candidates) == {("a", "b"): 2.0, ("b", "a"): 1.0, ("b", "c"): 2.0}

    @pytest.mark.parametrize("name", sorted(COUNT_FIXTURES))
    def test_same_counts_as_the_counter_oracle(self, name):
        streams = [stream(*tokens) for tokens in COUNT_FIXTURES[name]]
        candidates = score_bigrams(token_ids(streams), discount=0)
        reference = count_corpus_reference(streams)
        assert list(candidates.tokens) == sorted(reference.unigrams)
        assert list(candidates) == sorted(reference.pairs)
        keys = candidates.first * len(candidates.tokens) + candidates.second
        assert np.all(np.diff(keys) > 0)  # distinct and sorted

    def test_no_pair_across_a_document_boundary(self):
        # doc k ends with "y" and doc k + 1 starts with "z", also across an
        # empty document and after a one-token one; x, y and z are counted
        # twice each among 6 tokens
        streams = [stream("x", "y"), stream("z", "x"), stream(), stream("y"), stream("z")]
        candidates = score_bigrams(token_ids(streams), discount=0)
        assert scores_by_pair(candidates) == {("x", "y"): 1.5, ("z", "x"): 1.5}

    @settings(max_examples=200, deadline=None)
    @given(streams=random_streams, discount=st.integers(1, 3))
    def test_counts_and_candidates_as_the_oracle(self, streams, discount):
        reference = count_corpus_reference(streams)
        for d in (0, discount):
            candidates = score_bigrams(token_ids(streams), discount=d)
            reference_candidates = score_bigrams_reference(reference, discount=d)
            assert as_bits(candidates) == as_bits(reference_candidates)
            if not candidates:  # the oracle averages an empty baseline when there is nothing to select
                assert candidates.threshold == np.inf and not select_bigrams(candidates)
                continue
            expected, threshold = select_bigrams_reference(reference_candidates, reference)
            if len(candidates.tokens) >= 2:
                assert candidates.threshold.hex() == threshold.hex()
            assert as_bits(select_bigrams(candidates)) == as_bits(expected)


class TestScoreBigrams:
    def test_hand_computed_score(self):
        # "new york" adjacent 10 times, each word counted 10 times, corpus of
        # 1000 tokens, discount 5 -> (10-5)*1000/(10*10) = 50.
        streams = [stream("new", "york") for _ in range(10)]
        streams.append(tuple(f"f{i}" for i in range(980)))
        candidates = score_bigrams(token_ids(streams), discount=5)
        assert ("new", "york") in candidates
        assert scores_by_pair(candidates)[("new", "york")] == pytest.approx(50.0)

    def test_pair_at_discount_count_omitted(self):
        streams = [stream("a", "b") for _ in range(5)]
        assert len(score_bigrams(token_ids(streams), discount=5)) == 0
        streams.append(stream("a", "b"))
        kept = score_bigrams(token_ids(streams), discount=5)
        assert list(kept) == [("a", "b")]

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValueError, match="empty corpus"):
            score_bigrams(token_ids([]))

    def test_candidates_in_pair_order(self):
        streams = [stream("b", "a", "b", "a", "c", "a")]
        candidates = score_bigrams(token_ids(streams), discount=0)
        pairs = list(candidates)
        assert pairs == sorted(pairs) == [("a", "b"), ("a", "c"), ("b", "a"), ("c", "a")]

    @pytest.mark.parametrize("name", sorted(COUNT_FIXTURES))
    @pytest.mark.parametrize("discount", [0, 1])
    def test_bitwise_equal_to_the_counter_oracle(self, name, discount):
        streams = [stream(*tokens) for tokens in COUNT_FIXTURES[name]]
        candidates = score_bigrams(token_ids(streams), discount=discount)
        reference = score_bigrams_reference(count_corpus_reference(streams), discount=discount)
        assert as_bits(candidates) == as_bits(reference)
        assert candidates.scores.dtype == np.float64

    @settings(max_examples=50, deadline=None)
    @given(
        unigrams=st.tuples(st.integers(1, 2**17), st.integers(1, 2**17)),
        joint=st.integers(1, 2**17),
        padding=st.integers(0, 2**18),
        discount=st.integers(0, 5),
    )
    @example(unigrams=(2**17, 2**17), joint=2**17, padding=2**18, discount=0)
    @example(unigrams=(99_991, 131_071), joint=65_537, padding=12_345, discount=5)
    def test_large_counts_score_as_python_integers(self, unigrams, joint, padding, discount):
        # count(a) * count(b) up to 2**34 and W * count(a b) up to 2**36,
        # past int32: the float64 quotient is Python's int / int
        count_a, count_b = unigrams
        joint = min(joint, count_a, count_b)
        docs = [np.tile([0, 1], joint), np.zeros(count_a - joint), np.ones(count_b - joint), np.full(padding, 2)]
        lengths = np.array([doc.size for doc in docs], dtype=np.int64)
        corpus = TokenIds(("a", "b", "c"), np.concatenate(docs).astype(np.int32), lengths)
        scores = scores_by_pair(score_bigrams(corpus, discount=discount))
        if joint > discount:
            total = count_a + count_b + padding
            assert scores[("a", "b")].hex() == ((joint - discount) * total / (count_a * count_b)).hex()
        else:
            assert ("a", "b") not in scores

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
        total = sum(len(s) for s in streams)
        candidates = scores_by_pair(score_bigrams(token_ids(streams), discount=0))
        assert candidates[("alpha", "beta")] == pytest.approx(total / (51 * 51))
        assert candidates[("liquid", "nitrogen")] > 10 * candidates[("alpha", "beta")]


def score_and_select(streams, discount):
    candidates = score_bigrams(token_ids(streams), discount=discount)
    return candidates, select_bigrams(candidates)


class TestSelectBigrams:
    def make_planted(self, seed=7):
        rng = np.random.default_rng(seed)
        pool = [f"filler{i:02d}" for i in range(30)]
        streams = []
        for d in range(20):
            tokens = [pool[i] for i in rng.integers(0, 30, 20)]
            pos = int(rng.integers(0, len(tokens) + 1))
            tokens[pos:pos] = ["betsy", "devos"]
            streams.append(tuple(tokens))
        return streams

    def test_planted_collocation_selected(self):
        candidates, selected = score_and_select(self.make_planted(), discount=5)
        assert ("betsy", "devos") in selected
        # the kept candidates are handed back as rows of the candidates, in pair order
        kept = set(selected)
        assert selected.tokens is candidates.tokens
        assert as_bits(selected) == [row for row in as_bits(candidates) if row[:2] in kept]

    def test_shuffled_corpus_selects_almost_nothing(self):
        rng = np.random.default_rng(11)
        words = [f"w{i:02d}" for i in range(50)]
        probs = np.array([1.0 / (i + 1) for i in range(50)])
        probs /= probs.sum()
        tokens = rng.choice(words, size=5000, p=probs)
        rng.shuffle(tokens)
        streams = [
            tuple(tokens[i * 100 : (i + 1) * 100]) for i in range(50)
        ]
        candidates, selected = score_and_select(streams, discount=5)
        assert len(candidates) > 20  # the corpus does produce frequent pairs
        assert len(selected) <= max(1, len(candidates) // 100)

    def test_single_document_two_word_corpus(self):
        # "a b a b a b": score(a,b)=2, score(b,a)=4/3; any baseline sample
        # containing both pairs puts mean+2std above 2, so nothing passes.
        candidates, selected = score_and_select([stream(*"ababab")], discount=0)
        assert set(candidates) == {("a", "b"), ("b", "a")}
        assert len(selected) == 0

    def test_single_term_corpus_yields_empty_set(self):
        _, selected = score_and_select([stream("a", "a", "a")], discount=0)
        assert len(selected) == 0

    @pytest.mark.parametrize(
        "text,discount,n_candidates",
        [("a a a a a a a a", 5, 1), ("new york times", 5, 0)],
    )
    def test_nothing_to_select_is_an_empty_selection(self, text, discount, n_candidates):
        # one distinct token (its pair a candidate all the same), or no
        # candidates: the selection is empty, not the candidates handed back
        candidates, selected = score_and_select([normalize_tokenize(text)], discount)
        assert len(candidates) == n_candidates
        assert candidates.threshold == selected.threshold == np.inf
        assert isinstance(selected, BigramCandidates) and selected is not candidates
        assert len(selected) == 0 and list(selected) == []
        assert selected.first.size == selected.second.size == 0

    def test_threshold_invariant_to_document_order(self):
        streams = self.make_planted()
        forward = score_bigrams(token_ids(streams), discount=0)
        backward = score_bigrams(token_ids(streams[::-1]), discount=0)
        assert np.isfinite(forward.threshold) and forward.threshold.hex() == backward.threshold.hex()
        kept = select_bigrams(forward)
        assert len(kept) and as_bits(kept) == as_bits(select_bigrams(backward))

    @pytest.mark.parametrize("seed", range(5))
    def test_same_selection_and_threshold_as_the_tuple_sorted_universe(self, seed):
        # tokens that are prefixes of one another, as in ("a", "bc"),
        # ("ab", "c") and ("a", "b"), a digit and non-ASCII letters: the pair
        # universe must be sampled in tuple order all the same
        rng = np.random.default_rng(seed)
        words = ["a", "ab", "abc", "b", "bc", "c", "a0", "é", "éa", "z", "zz", "0"]
        streams = [stream("a", "bc", "ab", "c", "a", "b")] + [
            tuple(words[i] for i in rng.integers(0, len(words), 10))
            for d in range(6)
        ]
        candidates = score_bigrams(token_ids(streams), discount=0)
        reference = count_corpus_reference(streams)
        expected, threshold = select_bigrams_reference(score_bigrams_reference(reference, 0), reference)
        assert candidates.threshold.hex() == threshold.hex()
        assert as_bits(select_bigrams(candidates)) == as_bits(expected)
        # rescored to the reference's threshold and to the next float above
        # it, only the second candidate is kept iff the thresholds are equal
        scores = candidates.scores.copy()
        scores[:2] = threshold, np.nextafter(threshold, np.inf)
        rescored = replace(candidates, scores=scores)
        at, above, *_ = rescored
        selected = select_bigrams(rescored)
        assert at not in selected
        assert above in selected


def merge_one(stream, selected):
    """``stream`` merged as the one document of a corpus."""
    return apply_bigrams(token_ids([stream]), selected)[0]


class TestApplyBigrams:
    def test_single_merge(self):
        merged = merge_one(stream("new", "york", "times"), {("new", "york")})
        assert merged == ("new_york", "times")

    def test_greedy_non_overlap(self):
        merged = merge_one(stream("a", "a", "a"), {("a", "a")})
        assert merged == ("a_a", "a")

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
        merged = merge_one(tuple(tokens), pairs)
        assert merged == apply_bigrams_reference(tuple(tokens), pairs)
        n_merges = sum(1 for t in merged if "_" in t)
        assert len(merged) == len(tokens) - n_merges
        assert len(merged) <= len(tokens)


def selection(*rows):
    """A ``BigramCandidates`` of (first, second, score) rows, in the given
    order, over the sorted tokens they name."""
    tokens = tuple(sorted({token for first, second, _ in rows for token in (first, second)}))
    first, second, scores = zip(*rows) if rows else ((), (), ())
    ids = [np.array([tokens.index(t) for t in column], dtype=np.int64) for column in (first, second)]
    return BigramCandidates(tokens, *ids, np.array(scores, dtype=np.float64), -np.inf)


def test_bigrams_csv_dump(tmp_path):
    streams = [stream("new", "york")] * 8 + [stream("other", "words")]
    candidates = score_bigrams(token_ids(streams), discount=5)
    out = tmp_path / "bigrams.csv"
    write_bigrams_csv(candidates, out)  # "other words" is adjacent once: no candidate
    lines = out.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "first,second,score"
    assert lines[1].startswith("new,york,")
    assert len(lines) == 2


def test_bigrams_csv_round_trip(tmp_path):
    selected = selection(
        ("new", "york", 12.5),
        ("são", "paulo", 3.25),
        ("i̇stanbul", "şehir", 1e-7),
        ("東京", "都", 40.0),
    )
    out = tmp_path / "bigrams.csv"
    write_bigrams_csv(selected, out)
    assert read_bigrams_csv(out.read_bytes()) == set(selected)


def test_bigrams_csv_ties_ordered_by_first_then_second_token(tmp_path):
    # equal scores fall back to the tokens in code-point order: "sao" before
    # "são", and "zebra" before "é" (U+00E9) before "東京"
    rows = [
        ("東京", "都", 3.0),
        ("são", "paulo", 3.0),
        ("é", "a", 3.0),
        ("new", "york", 3.0),
        ("sao", "paulo", 3.0),
        ("zebra", "z", 5.5),
        ("new", "jersey", 3.0),
        ("zebra", "a", 3.0),
        ("são", "bento", 3.0),
    ]
    out, expected = tmp_path / "bigrams.csv", tmp_path / "expected.csv"
    write_bigrams_csv(selection(*rows), out)
    assert out.read_text(encoding="utf-8").splitlines()[1:] == [
        "zebra,z,5.5",
        "new,jersey,3",
        "new,york,3",
        "sao,paulo,3",
        "são,bento,3",
        "são,paulo,3",
        "zebra,a,3",
        "é,a,3",
        "東京,都,3",
    ]
    write_bigrams_csv_reference([ScoredPair(*row) for row in rows], expected)
    assert out.read_bytes() == expected.read_bytes()


def test_empty_bigram_selection_round_trip(tmp_path):
    out = tmp_path / "bigrams.csv"
    write_bigrams_csv(selection(), out)
    assert out.read_text(encoding="utf-8") == "first,second,score\n"
    assert read_bigrams_csv(out.read_bytes()) == set()
    with pytest.raises(ValueError, match="not a bigrams CSV"):
        read_bigrams_csv(b"")


@pytest.mark.parametrize("row", ["broken\n", "\n", "new,york\n"])
def test_malformed_bigrams_row_rejected_naming_line(row):
    data = ("first,second,score\nnew,york,12.5\n" + row).encode("utf-8")
    with pytest.raises(ValueError, match=r"^line 3: not a first,second,score row"):
        read_bigrams_csv(data)


def test_bigrams_csv_bytes_parse_as_the_file(tmp_path):
    out = tmp_path / "bigrams.csv"
    write_bigrams_csv(selection(("new", "york", 12.5), ("東京", "都", 40.0)), out)
    assert read_bigrams_csv(out.read_bytes()) == {("new", "york"), ("東京", "都")}
    with pytest.raises(ValueError, match=r"^line 4: not a first,second,score row"):
        read_bigrams_csv(out.read_bytes() + b"broken\n")
