"""Orchestration of the clustering pipeline with a single config object.

Stages: tokenize -> distinctive bigrams -> tf-idf -> kernel PCA -> cosine
DBSCAN. Every knob lives in ``PipelineConfig``, which is checked when it is
made, so a run is fully reproducible from its recorded config.
"""

from __future__ import annotations

from dataclasses import dataclass

from .clustering import DEFAULT_EPS, DEFAULT_MIN_PTS, ClusterAssignment, dbscan, pairwise_distances
from .corpus import Corpus
from .embedding import DEFAULT_COMPONENTS, KernelPca, fit_kpca, transform
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
    kpca_components: int = DEFAULT_COMPONENTS
    eps: float = DEFAULT_EPS
    min_pts: int = DEFAULT_MIN_PTS

    def __post_init__(self) -> None:
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


@dataclass(frozen=True)
class PipelineResult:
    selected_bigrams: dict[tuple[str, str], BigramCandidate]
    features: FeatureMatrix
    model: KernelPca
    assignment: ClusterAssignment


def tokenize_corpus(corpus: Corpus) -> list[TokenStream]:
    """``normalize_tokenize`` of every document, in corpus order.

    Equal tokens share one string object across the corpus: each token is
    mapped through a dict that lives only for this call. The later stages
    then hash and compare one string per distinct token, with its hash
    cached and equal keys pointer-equal, not a copy per occurrence.
    """
    shared: dict[str, str] = {}
    intern = shared.setdefault
    streams = []
    for doc in corpus.docs:
        tokens = normalize_tokenize(doc.text).tokens
        streams.append(TokenStream(doc.id, tuple(map(intern, tokens, tokens))))
    return streams


def prepare_streams(
    corpus: Corpus, config: PipelineConfig
) -> tuple[list[TokenStream], dict[tuple[str, str], BigramCandidate]]:
    """Tokenize the corpus, count it once, and merge its distinctive bigrams
    (returned with the merged streams, keyed by pair)."""
    streams = tokenize_corpus(corpus)
    counts = count_corpus(streams)
    candidates = score_bigrams(counts, discount=config.bigram_discount)
    selected = select_bigrams(candidates, counts)
    merged = [apply_bigrams(stream, selected) for stream in streams]
    return merged, selected


def run_clustering(corpus: Corpus, config: PipelineConfig | None = None) -> PipelineResult:
    """Run the full pipeline and return every intermediate artifact."""
    if config is None:
        config = PipelineConfig()
    streams, selected = prepare_streams(corpus, config)
    vocab = build_vocabulary(streams, min_df=config.min_df)
    features = vectorize(streams, vocab)
    del streams  # the features hold all that is needed of them from here on
    try:
        model = fit_kpca(features, max_components=config.kpca_components)
    except ValueError as exc:
        raise ValueError(f"embedding: {exc}") from exc
    coords = transform(model).coords
    assignment = dbscan(pairwise_distances(coords), eps=config.eps, min_pts=config.min_pts)
    return PipelineResult(
        selected_bigrams=selected, features=features, model=model, assignment=assignment
    )
