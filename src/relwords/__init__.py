"""Topic discovery for unlabeled text corpora.

Clusters tf-idf / kernel-PCA document vectors with cosine-distance DBSCAN,
then scores and visualizes the words that distinguish each cluster from the
rest of the corpus. The ``relwords`` CLI stages the pipeline into persisted,
reproducible artifacts.
"""

__version__ = "0.1.0"

from .clustering import NOISE, ClusterAssignment, CosineDistances, dbscan, pairwise_distances
from .corpus import (
    Corpus,
    Document,
    fetch_archive,
    load_dir,
    load_jsonl,
    parse_timestamp,
    save_jsonl,
    split_by_period,
)
from .embedding import fit_kpca
from .features import FeatureMatrix, Vocabulary, build_vocabulary, idf, vectorize
from .pipeline import PipelineConfig, PipelineResult, prepare_streams, run_clustering, tokenize_corpus
from .relevance import (
    OccurrenceIndex,
    RelevanceTable,
    build_occurrence_index,
    compute_relevance,
    rank_terms,
    score_diff,
    score_final,
    score_quot,
)
from .report import (
    WordCloudSpec,
    highlight_html,
    layout_wordcloud,
    render_contrast_cloud,
    render_svg,
    term_trends,
)
from .text import (
    BigramCandidates,
    TokenIds,
    apply_bigrams,
    normalize_tokenize,
    score_bigrams,
    select_bigrams,
    token_ids,
)

__all__ = [
    "__version__",
    "NOISE",
    "BigramCandidates",
    "ClusterAssignment",
    "Corpus",
    "CosineDistances",
    "Document",
    "FeatureMatrix",
    "OccurrenceIndex",
    "PipelineConfig",
    "PipelineResult",
    "RelevanceTable",
    "TokenIds",
    "Vocabulary",
    "WordCloudSpec",
    "apply_bigrams",
    "build_occurrence_index",
    "build_vocabulary",
    "compute_relevance",
    "dbscan",
    "fetch_archive",
    "fit_kpca",
    "highlight_html",
    "idf",
    "layout_wordcloud",
    "load_dir",
    "load_jsonl",
    "normalize_tokenize",
    "pairwise_distances",
    "parse_timestamp",
    "prepare_streams",
    "rank_terms",
    "render_contrast_cloud",
    "render_svg",
    "run_clustering",
    "save_jsonl",
    "score_bigrams",
    "score_diff",
    "score_final",
    "score_quot",
    "select_bigrams",
    "split_by_period",
    "term_trends",
    "token_ids",
    "tokenize_corpus",
    "vectorize",
]
