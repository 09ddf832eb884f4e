import csv
import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import relwords
from relwords import pipeline
from relwords.cli import main
from relwords.corpus import Corpus, load_jsonl, save_jsonl
from relwords.features import build_vocabulary
from relwords.relevance import build_occurrence_index, compute_relevance, write_relevance_csv

from corpora import planted_topic_corpus, trending_corpus


@pytest.fixture(scope="module")
def corpus_file(tmp_path_factory):
    corpus, _, _ = planted_topic_corpus()
    path = tmp_path_factory.mktemp("data") / "corpus.jsonl"
    save_jsonl(corpus, path)
    return path


@pytest.fixture(scope="module")
def run_dir(tmp_path_factory, corpus_file):
    outdir = tmp_path_factory.mktemp("run")
    code = main(["cluster", "--corpus", str(corpus_file), "--outdir", str(outdir)])
    assert code == 0
    return outdir


@pytest.fixture(scope="module")
def phrase_run(tmp_path_factory):
    """A run whose corpus has one distinctive bigram, "new york", in topic 0."""
    corpus, _, _ = planted_topic_corpus()
    docs = tuple(
        replace(doc, text=f"New York {doc.text} new york") if doc.id.startswith("t0") else doc
        for doc in corpus.docs
    )
    base = tmp_path_factory.mktemp("phrase")
    save_jsonl(Corpus(docs), base / "corpus.jsonl")
    outdir = base / "run"
    assert main(["cluster", "--corpus", str(base / "corpus.jsonl"), "--outdir", str(outdir)]) == 0
    return outdir


def read_commands(run, out):
    """relevant, wordcloud and highlight on ``run``, writing into ``out``."""
    return [
        ["relevant", "--run", str(run), "--out", str(out / "relevance.csv")],
        ["wordcloud", "--run", str(run), "--outdir", str(out)],
        ["highlight", "--run", str(run), "--doc-id", "t0d00", "--out", str(out / "t0d00.html")],
    ]


def written(out):
    return {path.name: path.read_bytes() for path in sorted(out.iterdir())}


class TestIngest:
    def test_from_directory(self, tmp_path, capsys):
        (tmp_path / "b.txt").write_text("second file text", encoding="utf-8")
        (tmp_path / "a.txt").write_text("first file text", encoding="utf-8")
        out = tmp_path / "corpus.jsonl"
        assert main(["ingest", "--dir", str(tmp_path), "--out", str(out)]) == 0
        corpus = load_jsonl(out)
        assert corpus.ids() == ("a.txt", "b.txt")
        assert "2 documents" in capsys.readouterr().out

    def test_from_jsonl_with_custom_fields(self, tmp_path):
        src = tmp_path / "raw.jsonl"
        src.write_text('{"key": "x", "body": "some text"}\n', encoding="utf-8")
        out = tmp_path / "corpus.jsonl"
        code = main(
            ["ingest", "--jsonl", str(src), "--id-field", "key", "--text-field", "body",
             "--out", str(out)]
        )
        assert code == 0
        assert load_jsonl(out).ids() == ("x",)

    def test_bad_path_nonzero_exit(self, tmp_path, capsys):
        code = main(["ingest", "--jsonl", str(tmp_path / "missing.jsonl"),
                     "--out", str(tmp_path / "o.jsonl")])
        assert code != 0
        assert "error" in capsys.readouterr().err


class TestCluster:
    def test_artifacts_and_summary(self, run_dir, capsys, corpus_file):
        assert (run_dir / "labels.csv").exists()
        manifest = json.loads((run_dir / "manifest.json").read_text(encoding="utf-8"))
        assert manifest["n_clusters"] == 3
        assert manifest["n_docs"] == 45
        assert manifest["config"]["eps"] == 0.45
        assert manifest["config"]["min_pts"] == 3
        assert manifest["config"]["kpca_components"] == 250
        labels = (run_dir / "labels.csv").read_text(encoding="utf-8").splitlines()
        assert labels[0] == "doc_id,label"
        assert len(labels) == 46
        bigrams = (run_dir / "bigrams.csv").read_text(encoding="utf-8")
        assert bigrams.startswith("first,second,score\n")

    def test_extreme_eps_all_noise(self, tmp_path, corpus_file, capsys):
        outdir = tmp_path / "run"
        code = main(["cluster", "--corpus", str(corpus_file), "--outdir", str(outdir),
                     "--eps", "0.01", "--min-pts", "3"])
        assert code == 0
        lines = (outdir / "labels.csv").read_text(encoding="utf-8").splitlines()[1:]
        assert all(line.endswith(",-1") for line in lines)
        assert "0 clusters" in capsys.readouterr().out

    def test_missing_corpus_nonzero_exit(self, tmp_path, capsys):
        code = main(["cluster", "--corpus", str(tmp_path / "nope.jsonl"),
                     "--outdir", str(tmp_path / "run")])
        assert code != 0
        assert "error" in capsys.readouterr().err

    def test_optional_dumps(self, tmp_path, corpus_file):
        outdir = tmp_path / "run"
        code = main(["cluster", "--corpus", str(corpus_file), "--outdir", str(outdir),
                     "--dump-matrix", "--dump-embedding"])
        assert code == 0
        for name in ("matrix.csv", "embedding.csv"):
            assert (outdir / name).exists()


class TestReadCommandsReuseRunBigrams:
    def test_no_bigram_counting_scoring_or_selection(self, phrase_run, tmp_path, monkeypatch):
        bigrams = (phrase_run / "bigrams.csv").read_text(encoding="utf-8")
        assert bigrams.splitlines()[1].startswith("new,york,")
        before, after = tmp_path / "before", tmp_path / "after"
        before.mkdir()
        after.mkdir()
        for argv in read_commands(phrase_run, before):
            assert main(argv) == 0

        def refuse(*args, **kwargs):
            raise AssertionError("the run's bigrams are re-derived")

        for name in ("count_corpus", "score_bigrams", "select_bigrams"):
            monkeypatch.setattr(pipeline, name, refuse)
        for argv in read_commands(phrase_run, after):
            assert main(argv) == 0
        assert written(after) == written(before)

    def test_relevance_same_as_from_the_clustering_streams(self, phrase_run, tmp_path):
        corpus = load_jsonl(phrase_run.parent / "corpus.jsonl")
        config = pipeline.PipelineConfig()
        result = pipeline.run_clustering(corpus, config)
        streams = list(result.streams)
        vocab = build_vocabulary(streams, min_df=config.min_df)
        index = build_occurrence_index(streams, vocab, list(result.assignment.labels))
        expected = tmp_path / "expected.csv"
        write_relevance_csv(compute_relevance(index, epsilon=config.epsilon), expected)
        out = tmp_path / "relevance.csv"
        assert main(["relevant", "--run", str(phrase_run), "--out", str(out)]) == 0
        assert out.read_bytes() == expected.read_bytes()
        assert "new_york" in vocab.index

    def test_run_without_bigrams_csv_rejected(self, tmp_path, corpus_file, capsys):
        outdir = tmp_path / "run"
        assert main(["cluster", "--corpus", str(corpus_file), "--outdir", str(outdir)]) == 0
        (outdir / "bigrams.csv").unlink()
        capsys.readouterr()
        for argv in read_commands(outdir, tmp_path):
            assert main(argv) != 0
            err = capsys.readouterr().err
            assert "bigrams.csv" in err and "rerun cluster" in err


class TestOddDocumentIds:
    def test_ids_with_comma_quote_and_newline(self, tmp_path):
        corpus, _, _ = planted_topic_corpus()
        odd = {"t0d00": "a,b", "t1d00": 'say "hi"', "t2d00": "two\nlines"}
        docs = tuple(replace(doc, id=odd.get(doc.id, doc.id)) for doc in corpus.docs)
        corpus_path = tmp_path / "corpus.jsonl"
        save_jsonl(Corpus(docs), corpus_path)
        outdir = tmp_path / "run"
        assert main(["cluster", "--corpus", str(corpus_path), "--outdir", str(outdir),
                     "--dump-matrix", "--dump-embedding"]) == 0
        assert main(["relevant", "--run", str(outdir)]) == 0
        for doc_id in odd.values():
            code = main(["highlight", "--run", str(outdir), "--doc-id", doc_id,
                         "--out", str(tmp_path / "doc.html")])
            assert code == 0
        ids = [doc.id for doc in docs]
        first_columns = {}
        for name in ("labels.csv", "matrix.csv", "embedding.csv"):
            with open(outdir / name, encoding="utf-8", newline="") as handle:
                first_columns[name] = [row[0] for row in list(csv.reader(handle))[1:]]
        assert first_columns["labels.csv"] == ids
        assert first_columns["embedding.csv"] == ids
        assert set(first_columns["matrix.csv"]) == set(ids)

    def test_id_with_carriage_return_rejected_at_load(self, tmp_path, capsys):
        # A bare "\r" would be written unquoted to labels.csv and split the
        # row on reading, so such an id is refused before anything is written.
        corpus, _, _ = planted_topic_corpus()
        docs = tuple(replace(doc, id="a\rb") if doc.id == "t1d03" else doc for doc in corpus.docs)
        line = 1 + [doc.id for doc in docs].index("a\rb")
        corpus_path = tmp_path / "corpus.jsonl"
        save_jsonl(Corpus(docs), corpus_path)
        outdir = tmp_path / "run"
        code = main(["cluster", "--corpus", str(corpus_path), "--outdir", str(outdir)])
        assert code != 0
        assert f"line {line}: document id holds a carriage return" in capsys.readouterr().err
        assert not outdir.exists()


def subprocess_env(**variables):
    """This environment plus ``variables``, with the imported ``relwords``
    first on PYTHONPATH so ``python -m relwords.cli`` finds the same code."""
    src = str(Path(relwords.__file__).resolve().parents[1])
    env = dict(os.environ, **variables)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    return env


def test_reruns_identical_across_blas_thread_counts(tmp_path, corpus_file):
    artifacts = {}
    for threads in ("1", "2"):
        env = subprocess_env(OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
        outdir = tmp_path / f"threads{threads}"
        for argv in (["cluster", "--corpus", str(corpus_file), "--outdir", str(outdir)],
                     ["relevant", "--run", str(outdir)],
                     ["wordcloud", "--run", str(outdir)]):
            subprocess.run([sys.executable, "-m", "relwords.cli", *argv],
                           env=env, check=True, capture_output=True)
        names = ["labels.csv", "bigrams.csv", "relevance.csv"]
        names += sorted(path.name for path in outdir.glob("*.svg"))
        artifacts[threads] = {name: (outdir / name).read_bytes() for name in names}
    assert len(artifacts["1"]) == 6
    assert artifacts["1"] == artifacts["2"]


class TestRelevant:
    def test_writes_relevance_csv(self, run_dir, tmp_path):
        out = tmp_path / "relevance.csv"
        assert main(["relevant", "--run", str(run_dir), "--out", str(out)]) == 0
        lines = out.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "cluster,term,tpr,fpr,r_diff,r_quot,r"
        assert len(lines) > 3

    def test_stale_corpus_detected(self, tmp_path, corpus_file, capsys):
        corpus_copy = tmp_path / "corpus.jsonl"
        corpus_copy.write_bytes(corpus_file.read_bytes())
        outdir = tmp_path / "run"
        assert main(["cluster", "--corpus", str(corpus_copy), "--outdir", str(outdir)]) == 0
        # the corpus drifts after clustering: downstream must refuse to run
        corpus_copy.write_bytes(
            corpus_copy.read_bytes() + b'{"id": "new", "text": "late arrival"}\n'
        )
        capsys.readouterr()
        code = main(["relevant", "--run", str(outdir)])
        assert code != 0
        assert "stale artifacts; rerun cluster" in capsys.readouterr().err


class TestWordcloud:
    def test_single_cluster_svg(self, run_dir, tmp_path):
        out = tmp_path / "cluster0.svg"
        code = main(["wordcloud", "--run", str(run_dir), "--cluster", "0",
                     "--top", "50", "--out", str(out)])
        assert code == 0
        content = out.read_text(encoding="utf-8")
        assert content.startswith("<?xml")
        assert "<text" in content

    def test_all_clusters(self, run_dir, tmp_path):
        outdir = tmp_path / "clouds"
        code = main(["wordcloud", "--run", str(run_dir), "--outdir", str(outdir)])
        assert code == 0
        assert sorted(p.name for p in outdir.glob("*.svg")) == [
            "cluster0.svg", "cluster1.svg", "cluster2.svg",
        ]

    def test_unknown_cluster_rejected(self, run_dir, tmp_path, capsys):
        code = main(["wordcloud", "--run", str(run_dir), "--cluster", "99",
                     "--out", str(tmp_path / "x.svg")])
        assert code != 0
        assert "no such cluster" in capsys.readouterr().err

    def test_out_without_cluster_rejected(self, run_dir, tmp_path, capsys):
        out = tmp_path / "x.svg"
        code = main(["wordcloud", "--run", str(run_dir), "--outdir", str(tmp_path),
                     "--out", str(out)])
        assert code != 0
        assert "--out needs --cluster" in capsys.readouterr().err
        assert not out.exists() and not list(tmp_path.glob("*.svg"))

    def test_top_below_one_rejected(self, run_dir, tmp_path, capsys):
        code = main(["wordcloud", "--run", str(run_dir), "--cluster", "0", "--top", "0",
                     "--out", str(tmp_path / "x.svg")])
        assert code != 0
        assert "--top must be >= 1, got 0" in capsys.readouterr().err
        assert not (tmp_path / "x.svg").exists()


class TestContrast:
    def test_two_halves_with_trend_words(self, tmp_path):
        corpus, trend_words, _ = trending_corpus()
        corpus_path = tmp_path / "corpus.jsonl"
        save_jsonl(corpus, corpus_path)
        out = tmp_path / "contrast.svg"
        code = main(["contrast", "--corpus", str(corpus_path),
                     "--boundary", "2017-01-16", "--out", str(out)])
        assert code == 0
        content = out.read_text(encoding="utf-8")
        for word in trend_words:
            assert f'fill="green">{word}</text>' in content
            assert f'fill="red">{word}</text>' not in content

    def test_missing_timestamps_fail(self, tmp_path, corpus_file, capsys):
        code = main(["contrast", "--corpus", str(corpus_file),
                     "--boundary", "2017-01-16", "--out", str(tmp_path / "c.svg")])
        assert code != 0
        assert "without timestamps" in capsys.readouterr().err


class TestHighlight:
    def test_writes_html(self, run_dir, tmp_path):
        out = tmp_path / "doc.html"
        code = main(["highlight", "--run", str(run_dir), "--doc-id", "t0d00",
                     "--out", str(out)])
        assert code == 0
        content = out.read_text(encoding="utf-8")
        assert "<span" in content and "t0d00" in content

    def test_dotted_capital_i_document(self, tmp_path):
        # "İ" lowers to two characters; the highlighted tokens must still
        # line up with the document text.
        corpus, _, _ = planted_topic_corpus()
        docs = [
            replace(doc, text=f"İstanbul {doc.text}") if doc.id.startswith("t0") else doc
            for doc in corpus.docs
        ]
        corpus_path = tmp_path / "corpus.jsonl"
        save_jsonl(Corpus(tuple(docs)), corpus_path)
        outdir = tmp_path / "run"
        assert main(["cluster", "--corpus", str(corpus_path), "--outdir", str(outdir)]) == 0
        out = tmp_path / "doc.html"
        code = main(["highlight", "--run", str(outdir), "--doc-id", "t0d00", "--out", str(out)])
        assert code == 0
        assert ">İstanbul</span>" in out.read_text(encoding="utf-8")

    def test_unknown_doc_rejected(self, run_dir, tmp_path, capsys):
        code = main(["highlight", "--run", str(run_dir), "--doc-id", "ghost",
                     "--out", str(tmp_path / "x.html")])
        assert code != 0
        assert "no such document" in capsys.readouterr().err


class TestFetch:
    def test_fetch_from_cache_needs_no_network(self, tmp_path):
        import relwords.corpus as corpus_mod

        endpoint = "https://archive.example/{year}/{month}.json?api-key={key}"
        payload = {
            "response": {
                "docs": [
                    {"_id": "a1", "snippet": "first cached snippet",
                     "pub_date": "2017-01-03T00:00:00+0000"},
                    {"_id": "a2", "snippet": "second cached snippet",
                     "pub_date": "2017-01-05T00:00:00+0000"},
                ]
            }
        }
        cache_dir = tmp_path / "cache"
        cache_dir.mkdir()
        cache_file = corpus_mod._cache_path(cache_dir, endpoint, 2017, 1)
        cache_file.write_text(json.dumps(payload), encoding="utf-8")
        out = tmp_path / "corpus.jsonl"
        code = main(["fetch", "--months", "2017-01", "--endpoint", endpoint,
                     "--api-key", "k", "--cache-dir", str(cache_dir), "--out", str(out)])
        assert code == 0
        assert load_jsonl(out).ids() == ("a1", "a2")


def test_module_entry_point(tmp_path):
    result = subprocess.run(
        [sys.executable, "-m", "relwords.cli", "--version"],
        env=subprocess_env(),
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    assert result.stdout.strip().startswith("relwords ")


class TestTrends:
    def test_daily_trends_csv(self, tmp_path):
        corpus, trend_words, _ = trending_corpus()
        corpus_path = tmp_path / "corpus.jsonl"
        save_jsonl(corpus, corpus_path)
        out = tmp_path / "trends.csv"
        code = main(["trends", "--corpus", str(corpus_path),
                     "--terms", f"{trend_words[0]},common00", "--by", "day",
                     "--out", str(out)])
        assert code == 0
        lines = out.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "term,bucket_start,count,rate"
        trend_rows = [l for l in lines[1:] if l.startswith(trend_words[0] + ",2017-01-0")]
        # the trend word never occurs before the boundary
        assert all(row.split(",")[2] == "0" for row in trend_rows)
