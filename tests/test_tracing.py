"""The bench tracer patches functions by name in ``relwords.cli`` and
``relwords.pipeline`` and reads some of their arguments back. These tests
pin that contract, and run ``cluster`` under the tracer to check the counts
it derives, so renaming or dropping one of those names, or changing what
they receive, fails here and not only in a traced bench run."""

import csv
import importlib.util
import inspect
import json
import sys
from pathlib import Path

import numpy as np
import pytest

import relwords.cli
import relwords.pipeline
from relwords import Corpus, Document
from relwords.clustering import NOISE
from relwords.corpus import save_jsonl
from relwords.features import build_vocabulary, vectorize
from relwords.pipeline import PipelineConfig
from relwords.text import apply_bigrams, normalize_tokenize, score_bigrams, select_bigrams, token_ids

from corpora import phrase_corpus, planted_topic_corpus
from oracles import pairwise_distances_reference

ROOT = Path(__file__).resolve().parents[1]
TRACING_PATH = ROOT / "perfbench" / "tracing.py"

MODULES = {"cli": relwords.cli, "pipeline": relwords.pipeline}

# Span name -> the parameters op_counts reads from that call.
READ_PARAMETERS = {
    "embedding.fit_kpca": {"features"},
    "clustering.dbscan": {"dist", "eps", "min_pts"},
    "report.layout_wordcloud": {"ranked", "top_k"},
}


# The counts op_counts derives from the embedding and clustering stages.
STAGE_COUNTS = {
    "embedding.components_kept",
    "embedding.explained_variance",
    "embedding.dense_bytes",
    "clustering.distance_bytes",
    "clustering.core_points",
    "clustering.eps_degree_mean",
    "clustering.eps_degree_max",
    "clustering.noise_frac",
}


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING_PATH)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


def test_every_target_exists(tracing):
    missing = [
        f"{module}.{attribute}"
        for module, attribute, _ in tracing.TARGETS
        if not callable(getattr(MODULES[module], attribute, None))
    ]
    assert missing == []


@pytest.mark.parametrize("span", sorted(READ_PARAMETERS))
def test_captured_functions_take_the_parameters_op_counts_reads(tracing, span):
    targets = [(module, attribute) for module, attribute, name in tracing.TARGETS if name == span]
    assert targets, f"no target traces {span}"
    for module, attribute in targets:
        parameters = inspect.signature(getattr(MODULES[module], attribute)).parameters
        assert READ_PARAMETERS[span] <= parameters.keys()


def test_traced_cluster_run_counts(tracing, tmp_path):
    # three planted topics plus four documents that share no word with any
    # other, so the run has core points and noise
    corpus, _, _ = planted_topic_corpus()
    strays = tuple(
        Document(id=f"stray{k}", text=" ".join(f"stray{k}word{j}" for j in range(12))) for k in range(4)
    )
    save_jsonl(Corpus(corpus.docs + strays), tmp_path / "corpus.jsonl")
    run = tmp_path / "run"
    tracer = tracing.Tracer()
    with tracer.installed(MODULES):
        code = tracer.operation(
            relwords.cli.main, ["cluster", "--corpus", str(tmp_path / "corpus.jsonl"), "--outdir", str(run)]
        )
    assert code == 0
    calls = tracer.take_calls()
    counts = tracing.op_counts(calls)
    assert STAGE_COUNTS <= counts.keys()

    (model,) = [result for name, _, result in calls if name == "embedding.transform"]
    config = PipelineConfig()
    # the degrees from the dense oracle, not from the glue op_counts calls
    degree = np.count_nonzero(pairwise_distances_reference(model.coords) <= config.eps, axis=1)
    with open(run / "labels.csv", encoding="utf-8", newline="") as handle:
        labels = [int(label) for _, label in list(csv.reader(handle))[1:]]
    assert counts["clustering.core_points"] == np.count_nonzero(degree >= config.min_pts) == 45
    assert counts["clustering.eps_degree_mean"] == degree.mean()
    assert counts["clustering.eps_degree_max"] == degree.max()
    assert counts["clustering.noise_frac"] == labels.count(NOISE) / len(labels) == 4 / 49


def test_traced_text_counts_as_the_documents_tokenized_one_by_one(tracing, tmp_path):
    # the text and feature counts of a traced run, derived again from each
    # document tokenized on its own; the corpus merges "new york" and holds
    # words whose lowercase form is longer
    docs = phrase_corpus().docs
    docs = docs[:-3] + tuple(
        Document(id=doc.id, text=f"İstanbul Straße CAFÉ {doc.text} café") for doc in docs[-3:]
    )
    save_jsonl(Corpus(docs), tmp_path / "corpus.jsonl")
    tracer = tracing.Tracer()
    with tracer.installed(MODULES):
        code = tracer.operation(
            relwords.cli.main,
            ["cluster", "--corpus", str(tmp_path / "corpus.jsonl"), "--outdir", str(tmp_path / "run")],
        )
    assert code == 0
    counts = tracing.op_counts(tracer.take_calls())

    streams = [normalize_tokenize(doc.text) for doc in docs]
    ids = token_ids(streams)
    candidates = score_bigrams(ids)
    selected = select_bigrams(candidates)
    merged = apply_bigrams(ids, selected)
    vocab = build_vocabulary(merged)
    features = vectorize(merged, vocab)
    expected = {
        "text.tokens": sum(map(len, streams)),
        "text.bigram_candidates": len(candidates),
        "text.bigrams_kept": len(selected),
        "features.vocab_size": len(vocab),
        "features.nnz": features.matrix.nnz,
        "features.empty_docs": 0,
    }
    assert {name: counts[name] for name in expected} == expected == {
        "text.tokens": 3222,
        "text.bigram_candidates": 1,
        "text.bigrams_kept": 1,
        "features.vocab_size": 74,
        "features.nnz": 1757,
        "features.empty_docs": 0,
    }
    assert "i\u0307stanbul" in vocab.index and ("new", "york") in selected


def test_traced_round_counts_agree_and_spans_cover_the_declared_timings(tracing, tmp_path):
    # The bench requires every count two operations both produce to be
    # equal, and a recorded span behind every per-layer time it declares.
    corpus, _, _ = planted_topic_corpus()
    save_jsonl(corpus, tmp_path / "corpus.jsonl")
    run = str(tmp_path / "run")
    operations = [
        ["cluster", "--corpus", str(tmp_path / "corpus.jsonl"), "--outdir", run],
        ["relevant", "--run", run],
        ["wordcloud", "--run", run, "--cluster", "0"],
        ["highlight", "--run", run, "--doc-id", "t0d00", "--out", str(tmp_path / "t0d00.html")],
    ]
    tracer = tracing.Tracer()
    seen: dict[str, set] = {}
    with tracer.installed(MODULES):
        for argv in operations:
            assert tracer.operation(relwords.cli.main, argv) == 0, argv
            for name, value in tracing.op_counts(tracer.take_calls()).items():
                seen.setdefault(name, set()).add(value)
    assert {name: values for name, values in seen.items() if len(values) > 1} == {}
    assert "text.tokens" in seen

    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["per_layer"]
    timings = {
        metric["name"][: -len("_s")]
        for metric in declared
        if metric["name"].endswith("_s") and not metric["name"].endswith(".self_s")
    }
    assert timings - {span.name for span in tracer.spans} == set()
