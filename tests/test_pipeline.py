import tracemalloc
from dataclasses import asdict, replace

import numpy as np
import pytest

import relwords
from relwords.clustering import NOISE
from relwords.corpus import Corpus, Document
from relwords.features import build_vocabulary, vectorize
from relwords.pipeline import PipelineConfig, prepare_streams, run_clustering, tokenize_corpus
from relwords.text import normalize_tokenize

from corpora import planted_topic_corpus


class TestPipelineConfig:
    def test_defaults(self):
        config = PipelineConfig()
        assert config.eps == 0.45
        assert config.min_pts == 3
        assert config.kpca_components == 250
        assert config.bigram_discount == 5

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"eps": 0.0},
            {"eps": 2.0},
            {"min_pts": 0},
            {"kpca_components": 0},
            {"min_df": 0},
            {"bigram_discount": -1},
        ],
    )
    def test_invalid_values_rejected(self, kwargs):
        with pytest.raises(ValueError):
            PipelineConfig(**kwargs)

    def test_invalid_replacement_rejected(self):
        # a config is checked wherever it is made, also by dataclasses.replace
        with pytest.raises(ValueError, match="eps"):
            replace(PipelineConfig(), eps=0.0)

    def test_round_trips_through_dict(self):
        config = PipelineConfig(eps=0.3)
        assert PipelineConfig(**asdict(config)) == config


class TestTokenizeCorpus:
    # "İ" lowercases to two code points; the punctuation-only document has
    # no tokens
    CORPUS = Corpus((
        Document(id="a", text="İstanbul und Straße; the café-bar, THE Café 42"),
        Document(id="b", text="the İSTANBUL café... straße 42 zürich"),
        Document(id="c", text="-- !"),
        Document(id="d", text="Zürich the the"),
    ))

    def test_streams_as_each_document_tokenized_alone(self):
        streams = list(tokenize_corpus(self.CORPUS))
        assert streams == [normalize_tokenize(doc.text) for doc in self.CORPUS.docs]
        assert "i\u0307stanbul" in streams[0]

    def test_equal_tokens_are_one_object_within_a_call(self):
        tokens = [t for stream in tokenize_corpus(self.CORPUS) for t in stream]
        assert len({id(t) for t in tokens}) == len(set(tokens)) < len(tokens)
        # no table outlives a call: a second call shares nothing with the first
        assert tokenize_corpus(self.CORPUS)[0][0] is not tokens[0]


class TestTextStageMemory:
    # The bound is the traced peak of prepare_streams -> build_vocabulary ->
    # vectorize on the corpus below, per token, of the stages that held the
    # whole corpus as string tuples until it was counted (47.3 B). Numbering
    # each document's tokens as it is split peaks at ~39 B; a per-token int64
    # temporary alive across a stage adds 8 B.
    PEAK_BYTES_PER_TOKEN = 47

    @staticmethod
    def long_corpus(n_docs=100, doc_tokens=1000, seed=5):
        """100 documents of 1,000 tokens: Zipf-drawn from 5,000 words, with
        ten two-word phrases planted in each, so that bigrams merge."""
        rng = np.random.default_rng(seed)
        words = [f"w{i}x" for i in range(5000)]
        p = 1.0 / np.arange(1, len(words) + 1)
        p /= p.sum()
        phrases = [(f"p{i}a", f"p{i}b") for i in range(40)]
        docs = []
        for d in range(n_docs):
            tokens = [words[i] for i in rng.choice(len(words), doc_tokens - 20, p=p)]
            for i in rng.integers(0, len(phrases), 10):
                pos = int(rng.integers(0, len(tokens) + 1))
                tokens[pos:pos] = phrases[i]
            docs.append(Document(id=f"d{d}", text=" ".join(tokens)))
        return Corpus(tuple(docs))

    def test_peak_per_token_bounded(self):
        corpus = self.long_corpus()
        tracemalloc.start()
        try:
            merged, selected = prepare_streams(corpus, PipelineConfig())
            vectorize(merged, build_vocabulary(merged))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert selected and len(merged.ids) < 100_000  # bigrams merged
        assert peak / 100_000 <= self.PEAK_BYTES_PER_TOKEN


class TestRunClustering:
    def test_tiny_eps_marks_everything_noise(self):
        corpus, _, _ = planted_topic_corpus()
        result = run_clustering(corpus, PipelineConfig(eps=0.01))
        assert result.assignment.n_clusters == 0
        assert np.all(result.assignment.labels == NOISE)

    def test_degenerate_corpus_error_carries_stage(self):
        docs = tuple(Document(id=f"d{i}", text="same words here") for i in range(4))
        # every word is in every document, so every feature vector is zero
        with pytest.warns(UserWarning, match="4 document"):
            with pytest.raises(ValueError, match="embedding: degenerate corpus"):
                run_clustering(Corpus(docs))

    def test_empty_documents_are_noise(self):
        # A zero tf-idf row embeds at -mean @ V, the same point for every
        # such document; like any vector with no direction it is at distance
        # 2 from every document, so the five form no topic of their own.
        corpus, _, _ = planted_topic_corpus()
        clean = run_clustering(corpus).assignment
        empty = tuple(Document(id=f"empty{k}", text="?!") for k in range(5))
        with pytest.warns(UserWarning, match="5 document"):
            result = run_clustering(Corpus(corpus.docs + empty))
        labels = result.assignment.labels
        assert result.assignment.n_clusters == clean.n_clusters == 3
        assert np.all(labels[-5:] == NOISE)
        assert np.array_equal(labels[:-5], clean.labels)
        # the embedding itself keeps them where kernel PCA put them
        assert np.all(np.linalg.norm(result.model.coords[-5:], axis=1) > 0)

    @pytest.mark.parametrize("eps", [1.0, 1.2])
    def test_an_empty_document_stays_noise_at_a_wide_eps(self, eps):
        # At distance 2 from every document, an empty one is within no eps
        # < 2 of any, so it cannot be a core point that joins every topic.
        corpus, _, _ = planted_topic_corpus()
        docs = corpus.docs + (Document(id="empty", text="?!"),)
        with pytest.warns(UserWarning, match="1 document"):
            result = run_clustering(Corpus(docs), PipelineConfig(eps=eps))
        assert result.assignment.n_clusters == 3
        assert result.assignment.labels[-1] == NOISE

    def test_intermediate_shapes_consistent(self):
        corpus, _, _ = planted_topic_corpus(docs_per_topic=5)
        result = run_clustering(corpus)
        n = len(corpus)
        merged, _ = prepare_streams(corpus, PipelineConfig())
        assert len(merged) == n
        assert result.features.matrix.shape[0] == n
        assert result.model.coords.shape[0] == n
        assert result.assignment.labels.shape == (n,)
        assert result.model.coords.shape[1] == result.model.eigenvalues.shape[0]

    def test_bigram_merge_feeds_features(self):
        # a collocation planted in every doc becomes one merged feature
        docs = []
        rng = np.random.default_rng(2)
        pool = [f"pad{i:02d}" for i in range(20)]
        for d in range(20):
            tokens = [pool[i] for i in rng.integers(0, 20, 15)]
            pos = int(rng.integers(0, len(tokens) + 1))
            tokens[pos:pos] = ["betsy", "devos"]
            docs.append(Document(id=f"d{d}", text=" ".join(tokens)))
        corpus = Corpus(tuple(docs))
        merged, selected = prepare_streams(corpus, PipelineConfig())
        assert ("betsy", "devos") in selected
        assert any("betsy_devos" in s for s in merged)
        assert not any("betsy" in s for s in merged)


def test_every_exported_name_resolves():
    # a name left in __all__ after its definition is deleted breaks
    # ``from relwords import *``
    assert [name for name in relwords.__all__ if not hasattr(relwords, name)] == []
