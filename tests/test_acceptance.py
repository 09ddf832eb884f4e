"""Acceptance suite: one test per release criterion, each printing a
pass/fail line (run with ``pytest tests/test_acceptance.py -v -s``).

The criteria pin exact score values, oracle equivalence of the clustering,
spectral reconstruction of the embedding, end-to-end recovery of planted
topics and trends on synthetic corpora, and byte-level determinism of the
pipeline artifacts.
"""

import functools
import math
import time

import numpy as np
import pytest

from relwords.cli import main
from relwords.clustering import NOISE, dbscan, pairwise_distances
from relwords.corpus import save_jsonl, split_by_period
from relwords.embedding import fit_kpca
from relwords.features import build_vocabulary, idf, term_counts
from relwords.pipeline import PipelineConfig, prepare_streams, run_clustering
from relwords.relevance import (
    build_occurrence_index,
    compute_relevance,
    rank_terms,
    score_final,
    score_quot,
)
from relwords.text import token_ids

from corpora import planted_topic_corpus, trending_corpus
from oracles import TiledMatrix, dbscan_reference, partition_of, random_distance_matrix
from test_embedding import centered_gram, make_feature_matrix, random_tfidf


def criterion(number, name, time_limit):
    """Wrap a test so it reports PASS/FAIL and enforces its runtime budget."""

    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            started = time.perf_counter()
            try:
                fn(*args, **kwargs)
            except BaseException:
                elapsed = time.perf_counter() - started
                print(f"[criterion {number}] {name}: FAIL ({elapsed:.2f}s)")
                raise
            elapsed = time.perf_counter() - started
            print(f"[criterion {number}] {name}: PASS ({elapsed:.2f}s)")
            assert elapsed < time_limit, f"runtime {elapsed:.2f}s exceeds {time_limit}s"

        return wrapper

    return decorate


@criterion(1, "score fixed points", time_limit=1.0)
def test_score_fixed_points():
    assert score_quot(0.3, 0.05) == 1.0
    assert score_quot(1.0, 0.05) == 1.0
    assert score_quot(0.3, 0.05) == score_quot(1.0, 0.05)
    assert score_final(1.0, 0.0) == 1.0
    for f in (0.0, 0.05, 0.3, 0.7, 1.0):
        assert score_final(0.0, f) == 0.0


@criterion(2, "score surface shape on the 21x21 grid", time_limit=1.0)
def test_score_surface_shape():
    grid = np.arange(21) * 0.05
    surface = score_final(grid[:, None], grid[None, :])  # rows: TPR, cols: FPR
    assert surface.shape == (21, 21)
    assert surface.min() >= 0.0 and surface.max() <= 1.0
    assert np.all(np.diff(surface, axis=0) >= 0.0), "not nondecreasing in TPR"
    assert np.all(np.diff(surface, axis=1) <= 0.0), "not nonincreasing in FPR"


@criterion(3, "DBSCAN equals the brute-force oracle on 100 random instances", time_limit=30.0)
def test_dbscan_oracle_equivalence():
    for seed in range(100):
        dist = random_distance_matrix(seed)
        assert dist.shape[0] <= 200
        fast = dbscan(TiledMatrix(dist), eps=0.45, min_pts=3).labels
        reference = dbscan_reference(dist, eps=0.45, min_pts=3)
        fast_clusters, fast_noise = partition_of(fast)
        ref_clusters, ref_noise = partition_of(reference)
        assert fast_noise == ref_noise, f"noise mismatch at seed {seed}"
        assert fast_clusters == ref_clusters, f"partition mismatch at seed {seed}"


@criterion(4, "kernel-PCA spectral reconstruction", time_limit=10.0)
def test_kpca_spectral_reconstruction():
    rng = np.random.default_rng(2024)
    for trial in range(8):
        n = int(rng.integers(5, 101))
        t = int(rng.integers(10, 150))
        rows = random_tfidf(rng, n, t)
        rows[n // 2] = rows[n // 3]  # plant a duplicate document
        fm = make_feature_matrix(rows)
        model = fit_kpca(fm, max_components=n)  # keep every positive component
        coords = model.coords
        reference = centered_gram(rows)
        err = np.linalg.norm(coords @ coords.T - reference) / np.linalg.norm(reference)
        assert err <= 1e-8, f"trial {trial}: relative error {err:.2e}"
        assert np.array_equal(coords[n // 2], coords[n // 3]), f"trial {trial}: duplicates differ"


@criterion(5, "planted-topic recovery end to end", time_limit=10.0)
def test_planted_topic_recovery():
    corpus, topic_of, keywords = planted_topic_corpus(
        n_topics=3, docs_per_topic=15, keywords_per_topic=10, filler_per_doc=50, seed=123
    )
    result = run_clustering(corpus, PipelineConfig())  # paper defaults
    assignment = result.assignment

    assert assignment.n_clusters == 3
    assert int((assignment.labels == NOISE).sum()) == 0

    # zero misassignments: clusters and topics induce the same partition
    cluster_of_topic = {}
    for doc, label in zip(corpus.docs, assignment.labels):
        topic = topic_of[doc.id]
        cluster_of_topic.setdefault(topic, int(label))
        assert cluster_of_topic[topic] == int(label), f"{doc.id} misassigned"
    assert len(set(cluster_of_topic.values())) == 3

    features = result.features
    index = build_occurrence_index(features.counts, features.vocab, list(assignment.labels))
    table = compute_relevance(index)
    for topic, cluster in cluster_of_topic.items():
        top5 = {term for term, _ in rank_terms(table, cluster, 5)}
        assert len(top5) == 5
        assert top5 <= keywords[topic], (
            f"cluster {cluster} top-5 {sorted(top5)} not all planted for topic {topic}"
        )


@criterion(6, "two-period contrast surfaces the planted trend words", time_limit=5.0)
def test_contrast_mode():
    corpus, trend_words, boundary = trending_corpus()
    periods = split_by_period(corpus, boundary)
    merged, _ = prepare_streams(corpus, PipelineConfig())
    vocab = build_vocabulary(merged)
    table = compute_relevance(build_occurrence_index(term_counts(merged, vocab.index), vocab, periods))
    top10_after = {term for term, _ in rank_terms(table, "after", 10)}
    top10_before = {term for term, _ in rank_terms(table, "before", 10)}
    assert set(trend_words) <= top10_after
    assert not set(trend_words) & top10_before


@criterion(7, "formula exactness", time_limit=1.0)
def test_formula_exactness():
    streams = [("half", "all"), ("all",), ("all",), ("half", "all")]
    vocab = build_vocabulary(token_ids(streams))
    assert abs(idf(vocab, 4)[vocab.index["half"]] - math.log(2)) <= 1e-12

    # other-cluster TPRs {0.2, 0.0, 0.1} -> 0.1 + sqrt(0.02/3)
    table = compute_relevance(_index_with_other_tprs())
    expected = 0.1 + math.sqrt(0.02 / 3)
    fpr_w = table.fpr[table.cluster_position("target"), table.terms.index("w")]
    assert abs(fpr_w - expected) <= 1e-12

    v = [3.0, 4.0]
    rows = np.array([v, v, [-4.0, 3.0], [-3.0, -4.0]])  # v, v, orthogonal, -v
    distances = pairwise_distances(rows)  # exactly 0, 1 and 2 apart: within eps from there on
    assert (distances <= np.nextafter(0.0, 1.0))[0, 1]
    assert (distances <= 1.0)[0, 2] and not (distances <= np.nextafter(1.0, 0.0))[0, 2]
    assert (distances <= 2.0)[0, 3] and not (distances <= np.nextafter(2.0, 0.0))[0, 3]


def _index_with_other_tprs():
    """Occurrence index where 'w' has TPRs 0.2, 0.0, 0.1 outside the target."""

    def docs(with_w, total, cluster):
        return [("w", "pad") if i < with_w else ("pad",) for i in range(total)]

    streams, labels = [], []
    for cluster, (with_w, total) in {
        "target": (1, 1),
        "a": (2, 10),
        "b": (0, 2),
        "c": (1, 10),
    }.items():
        block = docs(with_w, total, cluster)
        streams.extend(block)
        labels.extend([cluster] * len(block))
    corpus = token_ids(streams)
    vocab = build_vocabulary(corpus)
    return build_occurrence_index(term_counts(corpus, vocab.index), vocab, labels)


@criterion(8, "pipeline determinism (byte-identical artifacts)", time_limit=120.0)
def test_pipeline_determinism(tmp_path):
    corpus, _, _ = planted_topic_corpus()
    corpus_path = tmp_path / "corpus.jsonl"
    save_jsonl(corpus, corpus_path)

    trend, _, _ = trending_corpus()
    trend_path = tmp_path / "trend.jsonl"
    save_jsonl(trend, trend_path)

    def run_once(tag):
        outdir = tmp_path / f"run-{tag}"
        assert main(["cluster", "--corpus", str(corpus_path), "--outdir", str(outdir)]) == 0
        assert main(["relevant", "--run", str(outdir)]) == 0
        assert main(["wordcloud", "--run", str(outdir), "--cluster", "0",
                     "--out", str(outdir / "cluster0.svg")]) == 0
        assert main(["contrast", "--corpus", str(trend_path), "--boundary", "2017-01-16",
                     "--out", str(outdir / "contrast.svg")]) == 0
        return {
            name: (outdir / name).read_bytes()
            for name in ("labels.csv", "relevance.csv", "cluster0.svg", "contrast.svg")
        }

    first = run_once("a")
    second = run_once("b")
    for name in first:
        assert first[name] == second[name], f"{name} differs between identical runs"
    assert first["labels.csv"].startswith(b"doc_id,label\n")
