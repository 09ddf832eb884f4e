import numpy as np
import pytest

import relwords
from relwords.clustering import NOISE
from relwords.corpus import Corpus, Document
from relwords.pipeline import PipelineConfig, prepare_streams, run_clustering

from corpora import planted_topic_corpus


class TestPipelineConfig:
    def test_defaults(self):
        config = PipelineConfig()
        assert config.eps == 0.45
        assert config.min_pts == 3
        assert config.kpca_components == 250
        assert config.bigram_discount == 5
        config.validate()

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
            PipelineConfig(**kwargs).validate()

    def test_round_trips_through_dict(self):
        config = PipelineConfig(eps=0.3, bigram_seed=11)
        assert PipelineConfig(**config.as_dict()) == config


class TestRunClustering:
    def test_tiny_eps_marks_everything_noise(self):
        corpus, _, _ = planted_topic_corpus()
        result = run_clustering(corpus, PipelineConfig(eps=0.01))
        assert result.assignment.n_clusters == 0
        assert np.all(result.assignment.labels == NOISE)

    def test_degenerate_corpus_error_carries_stage(self):
        docs = tuple(Document(id=f"d{i}", text="same words here") for i in range(4))
        with pytest.raises(ValueError, match="embedding: degenerate corpus"):
            run_clustering(Corpus(docs))

    def test_intermediate_shapes_consistent(self):
        corpus, _, _ = planted_topic_corpus(docs_per_topic=5)
        result = run_clustering(corpus)
        n = len(corpus)
        assert len(result.streams) == n
        assert result.features.matrix.shape[0] == n
        assert result.embedding.coords.shape[0] == n
        assert result.assignment.labels.shape == (n,)
        assert result.embedding.coords.shape[1] == result.model.eigenvalues.shape[0]

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
        streams, selected = prepare_streams(corpus, PipelineConfig())
        assert ("betsy", "devos") in selected
        assert any("betsy_devos" in s.tokens for s in streams)
        assert not any("betsy" in s.tokens for s in streams)


def test_every_exported_name_resolves():
    # a name left in __all__ after its definition is deleted breaks
    # ``from relwords import *``
    assert [name for name in relwords.__all__ if not hasattr(relwords, name)] == []
