"""Orchestration of the clustering pipeline with a single config object.

Stages: tokenize -> distinctive bigrams -> tf-idf -> kernel PCA -> cosine
DBSCAN. Every knob, including the bigram sampling seed, lives in
``PipelineConfig`` so a run is fully reproducible from its recorded config.
"""

from __future__ import annotations

from collections.abc import Collection
from dataclasses import asdict, dataclass

from .clustering import DEFAULT_EPS, DEFAULT_MIN_PTS, ClusterAssignment, dbscan, pairwise_distances
from .corpus import Corpus
from .embedding import DEFAULT_COMPONENTS, Embedding, KernelPca, fit_kpca, transform
from .features import FeatureMatrix, build_vocabulary, vectorize
from .text import (
    BigramCandidate,
    TokenStream,
    apply_bigrams,
    count_corpus,
    normalize_tokenize,
    score_bigrams,
    select_bigrams,
)


@dataclass(frozen=True)
class PipelineConfig:
    min_df: int = 1
    bigram_discount: int = 5
    bigram_seed: int = 0
    kpca_components: int = DEFAULT_COMPONENTS
    eps: float = DEFAULT_EPS
    min_pts: int = DEFAULT_MIN_PTS

    def validate(self) -> None:
        if not 0.0 < self.eps < 2.0:
            raise ValueError(f"eps must be in (0, 2), got {self.eps}")
        if self.min_pts < 1:
            raise ValueError(f"min_pts must be >= 1, got {self.min_pts}")
        if self.kpca_components < 1:
            raise ValueError(f"kpca_components must be >= 1, got {self.kpca_components}")
        if self.min_df < 1:
            raise ValueError(f"min_df must be >= 1, got {self.min_df}")
        if self.bigram_discount < 0:
            raise ValueError(f"bigram_discount must be >= 0, got {self.bigram_discount}")

    def as_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class PipelineResult:
    streams: tuple[TokenStream, ...]
    selected_bigrams: dict[tuple[str, str], BigramCandidate]
    features: FeatureMatrix
    model: KernelPca
    embedding: Embedding
    assignment: ClusterAssignment


def tokenize_corpus(corpus: Corpus) -> list[TokenStream]:
    return [normalize_tokenize(doc.text, doc.id) for doc in corpus.docs]


def tokenize_with_bigrams(
    corpus: Corpus, selected: Collection[tuple[str, str]]
) -> list[TokenStream]:
    """Tokenize the corpus and merge an already chosen bigram selection, such
    as the one a cluster run recorded."""
    return [apply_bigrams(stream, selected) for stream in tokenize_corpus(corpus)]


def prepare_streams(
    corpus: Corpus, config: PipelineConfig
) -> tuple[list[TokenStream], dict[tuple[str, str], BigramCandidate]]:
    """Tokenize the corpus, count it once, and merge its distinctive bigrams
    (returned with the merged streams, keyed by pair)."""
    streams = tokenize_corpus(corpus)
    counts = count_corpus(streams)
    candidates = score_bigrams(counts, discount=config.bigram_discount)
    selected = select_bigrams(candidates, counts, seed=config.bigram_seed)
    merged = [apply_bigrams(stream, selected) for stream in streams]
    return merged, selected


def run_clustering(corpus: Corpus, config: PipelineConfig | None = None) -> PipelineResult:
    """Run the full pipeline and return every intermediate artifact."""
    if config is None:
        config = PipelineConfig()
    config.validate()
    streams, selected = prepare_streams(corpus, config)
    vocab = build_vocabulary(streams, min_df=config.min_df)
    features = vectorize(streams, vocab)
    try:
        model = fit_kpca(features, max_components=config.kpca_components)
    except ValueError as exc:
        raise ValueError(f"embedding: {exc}") from exc
    emb = transform(model, features)
    assignment = dbscan(pairwise_distances(emb), eps=config.eps, min_pts=config.min_pts)
    return PipelineResult(
        streams=tuple(streams),
        selected_bigrams=selected,
        features=features,
        model=model,
        embedding=emb,
        assignment=assignment,
    )
