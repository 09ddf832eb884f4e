"""Orchestration of the clustering pipeline with a single config object.

Stages: tokenize -> distinctive bigrams -> tf-idf -> kernel PCA -> cosine
DBSCAN. Every knob lives in ``PipelineConfig``, which is checked when it is
made, so a run is fully reproducible from its recorded config.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .clustering import DEFAULT_EPS, DEFAULT_MIN_PTS, ClusterAssignment, dbscan, pairwise_distances
from .corpus import Corpus
from .embedding import DEFAULT_COMPONENTS, KernelPca, fit_kpca, transform
from .features import FeatureMatrix, build_vocabulary, vectorize
from .text import (
    BigramCandidates,
    TokenIds,
    apply_bigrams,
    normalize_tokenize,
    score_bigrams,
    select_bigrams,
    token_ids,
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
    selected_bigrams: BigramCandidates
    features: FeatureMatrix
    model: KernelPca
    assignment: ClusterAssignment


def tokenize_corpus(corpus: Corpus) -> TokenIds:
    """The corpus as token ids: ``normalize_tokenize`` of every document, in
    corpus order, each numbered by ``token_ids`` as it is split, so no string
    tuple outlives its document."""
    return token_ids(normalize_tokenize(doc.text) for doc in corpus.docs)


def prepare_streams(corpus: Corpus, config: PipelineConfig) -> tuple[TokenIds, BigramCandidates]:
    """Tokenize the corpus and merge its distinctive bigrams (returned with
    the merged token ids)."""
    ids = tokenize_corpus(corpus)
    selected = select_bigrams(score_bigrams(ids, discount=config.bigram_discount))
    return apply_bigrams(ids, selected), selected


def run_clustering(corpus: Corpus, config: PipelineConfig | None = None) -> PipelineResult:
    """Run the full pipeline and return every intermediate artifact.

    Documents with zero feature vectors, the rows the embedding sees as
    empty, get one warning naming how many there are and the first five, by
    ``corpus`` id. A row is zero when its document has no in-vocabulary
    token, or only terms found in every document (idf 0). Kernel PCA puts
    them all at one point, so clustering sees them as zero vectors instead,
    at distance 2 from every other document, which no eps below 2 reaches;
    ``model.coords`` is left as it is.
    """
    if config is None:
        config = PipelineConfig()
    merged, selected = prepare_streams(corpus, config)
    vocab = build_vocabulary(merged, min_df=config.min_df)
    features = vectorize(merged, vocab)
    del merged  # the features hold all that is needed of it from here on
    empty = np.flatnonzero(np.diff(features.matrix.indptr) == 0).tolist()
    if empty:
        more = ", ..." if len(empty) > 5 else ""
        warnings.warn(
            f"{len(empty)} document(s) with zero feature vectors (no in-vocabulary token, "
            "or only terms found in every document): "
            + ", ".join(corpus.docs[k].id for k in empty[:5])
            + more
        )
    try:
        model = fit_kpca(features, max_components=config.kpca_components)
    except ValueError as exc:
        raise ValueError(f"embedding: {exc}") from exc
    coords = transform(model).coords
    if empty:
        coords = coords.copy()
        coords[empty] = 0.0
    assignment = dbscan(pairwise_distances(coords), eps=config.eps, min_pts=config.min_pts)
    return PipelineResult(
        selected_bigrams=selected, features=features, model=model, assignment=assignment
    )
