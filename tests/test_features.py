import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from relwords.clustering import NOISE
from relwords.features import build_vocabulary, idf, term_counts, vectorize, write_matrix_csv
from relwords.relevance import build_occurrence_index
from relwords.text import TokenStream, apply_bigrams, count_corpus, token_ids

from oracles import (
    apply_bigrams_reference,
    build_vocabulary_reference,
    count_corpus_reference,
    occurrence_reference,
    vectorize_reference,
)


def stream(doc_id, *tokens):
    return TokenStream(doc_id, tuple(tokens))


class TestBuildVocabulary:
    def test_counts_and_order(self):
        vocab = build_vocabulary(token_ids([stream("1", "a", "b"), stream("2", "b", "c")]))
        assert vocab.terms == ("a", "b", "c")
        assert vocab.doc_freq.tolist() == [1, 2, 1]
        assert vocab.index == {"a": 0, "b": 1, "c": 2}

    def test_min_df_cutoff(self):
        vocab = build_vocabulary(token_ids([stream("1", "a", "b"), stream("2", "b", "c")]), min_df=2)
        assert vocab.terms == ("b",)

    def test_min_df_above_corpus_size_rejected(self):
        with pytest.raises(ValueError, match="empty vocabulary"):
            build_vocabulary(token_ids([stream("1", "a"), stream("2", "a")]), min_df=3)

    def test_repeated_token_counts_once_per_doc(self):
        vocab = build_vocabulary(token_ids([stream("1", "a", "a", "a"), stream("2", "b")]))
        assert vocab.doc_freq.tolist() == [1, 1]


class TestIdf:
    def test_formula_values(self):
        vocab = build_vocabulary(
            token_ids([stream("1", "half", "all"), stream("2", "all"), stream("3", "all"), stream("4", "half", "all")])
        )
        values = idf(vocab, 4)
        by_term = dict(zip(vocab.terms, values))
        assert by_term["half"] == pytest.approx(math.log(2), abs=1e-12)
        assert by_term["all"] == 0.0

    def test_rare_term_large_idf(self):
        vocab = build_vocabulary(token_ids([stream("1", "rare")]))
        assert idf(vocab, 1000)[0] == pytest.approx(math.log(1000), abs=1e-12)


class TestVectorize:
    def test_hand_computed_weights(self):
        corpus = token_ids([stream("1", "a", "a", "b"), stream("2", "b")])
        fm = vectorize(corpus, build_vocabulary(corpus))
        dense = fm.matrix.toarray()
        assert dense[0, 0] == pytest.approx(2 / 3 * math.log(2))
        assert dense[0, 1] == 0.0  # b occurs everywhere -> idf 0
        assert dense[1].tolist() == [0.0, 0.0]

    def test_exclusive_term_weight(self):
        corpus = token_ids([stream("1", "only"), stream("2", "other"), stream("3", "other")])
        vocab = build_vocabulary(corpus)
        fm = vectorize(corpus, vocab)
        assert fm.matrix[0, vocab.index["only"]] == pytest.approx(math.log(3))

    def test_out_of_vocabulary_doc_warns_and_zeroes(self):
        streams = [stream("known", "a", "a"), stream("unknown", "zzz")]
        vocab = build_vocabulary(token_ids([streams[0]]))
        with pytest.warns(UserWarning, match="unknown"):
            fm = vectorize(token_ids(streams), vocab)
        assert fm.matrix[1].nnz == 0

    def test_empty_stream_zero_vector(self):
        streams = [stream("full", "a"), stream("empty")]
        vocab = build_vocabulary(token_ids([streams[0]]))
        with pytest.warns(UserWarning, match="empty"):
            fm = vectorize(token_ids(streams), vocab)
        assert fm.matrix[1].nnz == 0

    def test_empty_documents_warned_by_count_and_first_five(self):
        streams = [stream("full", "a")] + [stream(f"empty{k}") for k in range(8)]
        with pytest.warns(UserWarning) as caught:
            vectorize(token_ids(streams), build_vocabulary(token_ids(streams[:1])))
        assert [str(w.message) for w in caught] == [
            "8 document(s) with no in-vocabulary tokens (zero feature vectors): "
            "empty0, empty1, empty2, empty3, empty4, ..."
        ]

    def test_tf_sums_to_at_most_one(self):
        rng = np.random.default_rng(5)
        words = [f"w{i}" for i in range(30)]
        streams = [
            stream(f"d{k}", *rng.choice(words, size=rng.integers(1, 40)))
            for k in range(15)
        ]
        corpus = token_ids(streams)
        vocab = build_vocabulary(corpus, min_df=2)
        raw_idf = idf(vocab, len(streams))
        fm = vectorize(corpus, vocab)
        for k, s in enumerate(streams):
            row = fm.matrix[k].toarray().ravel()
            tf_sum = sum(
                row[i] / raw_idf[i] for i in np.flatnonzero(row) if raw_idf[i] > 0
            )
            in_vocab = sum(1 for t in s.tokens if t in vocab.index)
            assert tf_sum <= 1.0 + 1e-12
            if in_vocab == len(s.tokens):
                # equality only when every token is in-vocabulary and none has
                # idf 0 (those weights vanish from the stored row)
                zero_idf_tokens = any(
                    t in vocab.index and raw_idf[vocab.index[t]] == 0 for t in s.tokens
                )
                if not zero_idf_tokens:
                    assert tf_sum == pytest.approx(1.0, abs=1e-12)

    def test_nonzero_iff_present_and_df_below_n(self):
        streams = [stream("1", "a", "b"), stream("2", "b", "c"), stream("3", "b")]
        corpus = token_ids(streams)
        vocab = build_vocabulary(corpus)
        fm = vectorize(corpus, vocab)
        dense = fm.matrix.toarray()
        for k, s in enumerate(streams):
            for term, i in vocab.index.items():
                present = term in s.tokens
                ubiquitous = vocab.doc_freq[i] == len(streams)
                assert (dense[k, i] != 0) == (present and not ubiquitous)

    def test_row_permutation_equivariance(self):
        streams = [stream("1", "a", "b"), stream("2", "b", "c"), stream("3", "c", "a")]
        vocab = build_vocabulary(token_ids(streams))
        forward = vectorize(token_ids(streams), vocab).matrix.toarray()
        backward = vectorize(token_ids(streams[::-1]), vocab).matrix.toarray()
        assert np.array_equal(backward, forward[::-1])


class TestTermCounts:
    def test_counts_in_stream_order(self):
        streams = [stream("1", "b", "a", "b"), stream("2"), stream("3", "x", "a")]
        counts = term_counts(token_ids(streams), {"a": 0, "b": 1})
        assert counts.shape == (3, 2)
        assert counts.dtype == np.int64
        assert counts.toarray().tolist() == [[1, 2], [0, 0], [1, 0]]


def csr_arrays(matrix):
    return [(a.dtype, a.tobytes()) for a in (matrix.indptr, matrix.indices, matrix.data)]


# Small alphabets so that repeated tokens, empty streams, terms present in
# every document (idf 0) and, with min_df > 1, out-of-vocabulary tokens all
# turn up.
token_lists = st.lists(st.lists(st.sampled_from("abcde"), max_size=8), min_size=1, max_size=12)


def streams_and_vocab(docs, min_df):
    streams = [TokenStream(f"d{k}", tuple(tokens)) for k, tokens in enumerate(docs)]
    corpus = token_ids(streams)
    try:
        return streams, corpus, build_vocabulary(corpus, min_df=min_df)
    except ValueError:
        assume(False)


class TestCountsMatchReference:
    @settings(max_examples=200, deadline=None)
    @given(docs=token_lists, min_df=st.integers(1, 3))
    def test_vectorize_bitwise(self, docs, min_df):
        streams, corpus, vocab = streams_and_vocab(docs, min_df)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            fm = vectorize(corpus, vocab)
        assert csr_arrays(fm.matrix) == csr_arrays(vectorize_reference(streams, vocab))
        # the counts it keeps are the ones it weighted, even where idf-0
        # weights were dropped from the tf-idf matrix
        assert csr_arrays(fm.counts) == csr_arrays(term_counts(corpus, vocab.index))

    @settings(max_examples=200, deadline=None)
    @given(
        docs=token_lists,
        min_df=st.integers(1, 3),
        label_pool=st.sampled_from([[NOISE, 0, 1, 2], ["after", "before"]]),
        data=st.data(),
    )
    def test_occurrence_index_exact(self, docs, min_df, label_pool, data):
        streams, corpus, vocab = streams_and_vocab(docs, min_df)
        labels = data.draw(st.lists(st.sampled_from(label_pool), min_size=len(docs), max_size=len(docs)))
        assume(any(label != NOISE for label in labels))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            kept_counts = vectorize(corpus, vocab).counts
        clusters, counts, sizes = occurrence_reference(streams, vocab, labels)
        # from counts taken afresh (contrast) and from vectorize's (cluster)
        for doc_terms in (term_counts(corpus, vocab.index), kept_counts):
            index = build_occurrence_index(doc_terms, vocab, labels)
            assert index.clusters == clusters
            assert index.counts.dtype == counts.dtype and np.array_equal(index.counts, counts)
            assert index.sizes.dtype == sizes.dtype and np.array_equal(index.sizes, sizes)


# Non-ASCII tokens, one a prefix of another, and a pair that is never
# adjacent (or names a token the corpus lacks) among the selected ones.
ORACLE_WORDS = ["a", "b", "ab", "é", "東京", "i̇stanbul"]
oracle_docs = st.lists(st.lists(st.sampled_from(ORACLE_WORDS), max_size=10), min_size=1, max_size=6)
oracle_pairs = st.sets(
    st.tuples(st.sampled_from(ORACLE_WORDS + ["absent"]), st.sampled_from(ORACLE_WORDS)), max_size=8
)


class TestIdPathAsTheStringOracles:
    """count_corpus -> apply_bigrams -> build_vocabulary -> vectorize on
    token ids, against the same stages on strings."""

    @settings(max_examples=300, deadline=None)
    @given(docs=oracle_docs, selected=oracle_pairs, min_df=st.integers(1, 3))
    # overlapping runs: a a a, and a b a b a with both orders selected
    @example(docs=[["a", "a", "a"], ["a", "a", "a", "a"]], selected={("a", "a")}, min_df=1)
    @example(docs=[["a", "b", "a", "b", "a"]], selected={("a", "b"), ("b", "a")}, min_df=1)
    # a selected pair only ever across a document boundary, and empty documents
    @example(docs=[["b", "a"], [], ["b", "é"], []], selected={("a", "b")}, min_df=1)
    # min_df > 1 with merged and non-ASCII terms
    @example(
        docs=[["東京", "i̇stanbul", "a"], ["東京", "i̇stanbul"], ["a", "b", "é"]],
        selected={("東京", "i̇stanbul"), ("absent", "a")},
        min_df=2,
    )
    def test_same_streams_vocabulary_and_matrix(self, docs, selected, min_df):
        streams = [TokenStream(f"d{k}", tuple(tokens)) for k, tokens in enumerate(docs)]
        counts = count_corpus(token_ids(streams))
        reference_counts = count_corpus_reference(streams)
        assert dict(zip(counts.corpus.tokens, counts.unigrams.tolist())) == reference_counts.unigrams
        assert counts.total == reference_counts.total

        merged = apply_bigrams(counts.corpus, selected)
        reference = [apply_bigrams_reference(stream, selected) for stream in streams]
        assert list(merged) == reference
        assert list(merged.tokens) == sorted(set(merged.tokens))

        terms, doc_freq = build_vocabulary_reference(reference, min_df)
        if not terms:
            with pytest.raises(ValueError, match="empty vocabulary"):
                build_vocabulary(merged, min_df=min_df)
            return
        vocab = build_vocabulary(merged, min_df=min_df)
        assert list(vocab.terms) == terms
        assert vocab.doc_freq.dtype == np.int64 and vocab.doc_freq.tolist() == doc_freq

        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            fm = vectorize(merged, vocab)
        assert csr_arrays(fm.matrix) == csr_arrays(vectorize_reference(reference, vocab))
        expected = [[stream.tokens.count(term) for term in terms] for stream in reference]
        assert fm.counts.dtype == np.int64 and fm.counts.toarray().tolist() == expected


def test_matrix_csv_dump(tmp_path):
    corpus = token_ids([stream("1", "a", "a", "b"), stream("2", "b"), stream("3", "c")])
    fm = vectorize(corpus, build_vocabulary(corpus))
    out = tmp_path / "matrix.csv"
    write_matrix_csv(fm, ("1", "2", "3"), out)
    lines = out.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "doc_id,term,weight"
    assert all(line.count(",") == 2 for line in lines[1:])
    assert len(lines) == 1 + fm.matrix.nnz
    with pytest.raises(ValueError, match="doc_ids length"):
        write_matrix_csv(fm, ("1", "2"), out)
