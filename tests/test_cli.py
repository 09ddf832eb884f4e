import builtins
import csv
import hashlib
import io
import json
import os
import re
import shlex
import shutil
import subprocess
import sys
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

import relwords
from relwords import cli, pipeline, report
from relwords.clustering import NOISE
from relwords.cli import CONFIG_FLAGS, _load_run, _relevance, build_parser, config_from_args, main
from relwords.corpus import Corpus, Document, load_jsonl, save_jsonl
from relwords.features import build_vocabulary, term_counts
from relwords.pipeline import PipelineConfig, run_clustering
from relwords.relevance import (
    RelevanceTable,
    build_occurrence_index,
    compute_relevance,
    rank_terms,
    write_relevance_csv,
)
from relwords.report import svg_markup
from relwords.text import read_bigrams_csv

from corpora import phrase_corpus, planted_topic_corpus, trending_corpus
from oracles import (
    count_corpus_reference,
    layout_wordcloud_reference,
    relevance_from_corpus,
    score_bigrams_reference,
    select_bigrams_reference,
    write_bigrams_csv_reference,
)


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
    base = tmp_path_factory.mktemp("phrase")
    save_jsonl(phrase_corpus(), base / "corpus.jsonl")
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

    def test_file_name_with_carriage_return_refused(self, tmp_path, capsys):
        # The id would be written to the corpus, and cluster would refuse it.
        docs = tmp_path / "docs"
        docs.mkdir()
        (docs / "a\rb.txt").write_text("some text", encoding="utf-8")
        out = tmp_path / "corpus.jsonl"
        assert main(["ingest", "--dir", str(docs), "--out", str(out)]) != 0
        assert "document id holds a carriage return: 'a\\rb.txt'" in capsys.readouterr().err
        assert not out.exists()

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

    def test_line_not_utf8_cites_file_and_line(self, tmp_path, capsys):
        src = not_utf8_corpus(tmp_path / "raw.jsonl", bad_line=250)
        code = main(["ingest", "--jsonl", str(src), "--out", str(tmp_path / "o.jsonl")])
        assert code == 1
        assert f"{src}: line 250: not UTF-8" in capsys.readouterr().err


def not_utf8_corpus(path, bad_line):
    """A corpus whose line ``bad_line`` holds the Latin-1 byte of "é", past
    the first 8 KiB of the file."""
    lines = [json.dumps({"id": f"d{k}", "text": f"document {k} text"}).encode() for k in range(300)]
    lines[bad_line - 1] = b'{"id": "bad", "text": "caf\xe9"}'
    assert len(b"\n".join(lines[:bad_line - 1])) > 8192
    path.write_bytes(b"\n".join(lines) + b"\n")
    return path


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
        occurrence = json.loads((outdir / "occurrence.json").read_text(encoding="utf-8"))
        assert occurrence["clusters"] == occurrence["sizes"] == []
        assert occurrence["columns"] == occurrence["counts"] == []
        assert occurrence["terms"]
        for argv in (["relevant", "--run", str(outdir)], ["wordcloud", "--run", str(outdir)]):
            assert main(argv) == 1
            assert "all documents are noise" in capsys.readouterr().err

    def test_missing_corpus_nonzero_exit(self, tmp_path, capsys):
        code = main(["cluster", "--corpus", str(tmp_path / "nope.jsonl"),
                     "--outdir", str(tmp_path / "run")])
        assert code != 0
        assert "error" in capsys.readouterr().err

    def test_corpus_line_not_utf8_cited(self, tmp_path, capsys):
        corpus = not_utf8_corpus(tmp_path / "corpus.jsonl", bad_line=250)
        code = main(["cluster", "--corpus", str(corpus), "--outdir", str(tmp_path / "run")])
        assert code == 1
        assert "error: line 250: not UTF-8" in capsys.readouterr().err

    def test_optional_dumps(self, tmp_path, corpus_file):
        outdir = tmp_path / "run"
        code = main(["cluster", "--corpus", str(corpus_file), "--outdir", str(outdir),
                     "--dump-matrix", "--dump-embedding"])
        assert code == 0
        assert (outdir / "matrix.csv").exists()
        # the embedding is the fit's own coordinates, in corpus order
        corpus = load_jsonl(corpus_file)
        coords = run_clustering(corpus, PipelineConfig()).model.coords
        with open(outdir / "embedding.csv", encoding="utf-8", newline="") as handle:
            rows = list(csv.reader(handle))
        assert rows[0] == ["doc_id"] + [f"c{d}" for d in range(coords.shape[1])]
        assert rows[1:] == [
            [doc_id] + [f"{v:.12g}" for v in row] for doc_id, row in zip(corpus.ids(), coords.tolist())
        ]


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
            raise AssertionError("the run's bigrams or counts are re-derived")

        tokenize_corpus = cli.tokenize_corpus
        for name in ("tokenize_corpus", "count_corpus", "score_bigrams", "select_bigrams"):
            monkeypatch.setattr(pipeline, name, refuse)
        for name in ("build_vocabulary", "term_counts", "build_occurrence_index"):
            monkeypatch.setattr(cli, name, refuse)
        tokenized = []

        def tokenize(corpus):
            tokenized.extend(corpus.ids())
            return tokenize_corpus(corpus)

        monkeypatch.setattr(cli, "tokenize_corpus", tokenize)
        for argv in read_commands(phrase_run, after):
            assert main(argv) == 0
        assert written(after) == written(before)
        assert tokenized == ["t0d00"]  # highlight's own document, and no other

    def test_relevance_same_as_from_the_clustering_streams(self, phrase_run, tmp_path):
        corpus = load_jsonl(phrase_run.parent / "corpus.jsonl")
        config = pipeline.PipelineConfig()
        merged, _ = pipeline.prepare_streams(corpus, config)
        vocab = build_vocabulary(merged, min_df=config.min_df)
        labels = list(pipeline.run_clustering(corpus, config).assignment.labels)
        index = build_occurrence_index(term_counts(merged, vocab.index), vocab, labels)
        expected = tmp_path / "expected.csv"
        write_relevance_csv(compute_relevance(index), expected)
        out = tmp_path / "relevance.csv"
        assert main(["relevant", "--run", str(phrase_run), "--out", str(out)]) == 0
        assert out.read_bytes() == expected.read_bytes()
        assert "new_york" in vocab.index

    def test_recorded_counts_score_as_the_corpus_derived_again(self, tmp_path):
        # merged bigrams, non-ASCII terms, terms only noise documents hold,
        # and words in one document only, which --min-df 2 drops
        corpus, _, _ = planted_topic_corpus()
        phrases = {"t0": "New York", "t1": "São Paulo größe"}
        docs = tuple(
            replace(doc, text=f"{phrases[doc.id[:2]]} {doc.text} {phrases[doc.id[:2]]}")
            if doc.id[:2] in phrases else doc
            for doc in corpus.docs
        )
        # two pairs of documents sharing words with each other only: noise
        shared = [" ".join(f"stray{pair}wörd{j}" for j in range(12)) for pair in (0, 1)]
        strays = tuple(Document(id=f"stray{k}", text=f"{shared[k // 2]} lone{k}") for k in range(4))
        corpus = Corpus(docs + strays)
        save_jsonl(corpus, tmp_path / "corpus.jsonl")
        outdir = tmp_path / "run"
        argv = ["cluster", "--corpus", str(tmp_path / "corpus.jsonl"), "--outdir", str(outdir)]
        assert main(argv + ["--min-df", "2"]) == 0
        table = _relevance(_load_run(outdir)[1]["occurrence.json"])
        with open(outdir / "labels.csv", encoding="utf-8", newline="") as handle:
            labels = [int(label) for _, label in list(csv.reader(handle))[1:]]
        expected = relevance_from_corpus(corpus, outdir / "bigrams.csv", labels, min_df=2)
        assert labels.count(NOISE) == 4
        assert {"new_york", "são_paulo", "größe", "stray0wörd0"} <= set(table.terms)
        assert not {"lone0", "york"} & set(table.terms)
        assert not table.tpr[:, table.terms.index("stray0wörd0")].any()
        for field in fields(RelevanceTable):
            value, reference = getattr(table, field.name), getattr(expected, field.name)
            if isinstance(value, tuple):
                assert value == reference, field.name
            else:
                assert value.dtype == reference.dtype and np.array_equal(value, reference), field.name

    def test_bigrams_csv_as_written_from_the_oracle_counts(self, phrase_run, tmp_path):
        corpus = load_jsonl(phrase_run.parent / "corpus.jsonl")
        config = PipelineConfig()
        streams = [relwords.normalize_tokenize(doc.text, doc.id) for doc in corpus.docs]
        counts = count_corpus_reference(streams)
        candidates = score_bigrams_reference(counts, discount=config.bigram_discount)
        selected, _ = select_bigrams_reference(candidates, counts)
        expected = tmp_path / "bigrams.csv"
        write_bigrams_csv_reference(selected, expected)
        assert ("new", "york") in {(c.first, c.second) for c in selected}
        assert (phrase_run / "bigrams.csv").read_bytes() == expected.read_bytes()

    def test_run_without_bigrams_csv_rejected(self, tmp_path, corpus_file, capsys):
        outdir = tmp_path / "run"
        assert main(["cluster", "--corpus", str(corpus_file), "--outdir", str(outdir)]) == 0
        (outdir / "bigrams.csv").unlink()
        capsys.readouterr()
        for argv in read_commands(outdir, tmp_path):
            assert main(argv) != 0
            err = capsys.readouterr().err
            assert "bigrams.csv" in err and "rerun cluster" in err

    def test_run_without_occurrence_json_rejected(self, tmp_path, corpus_file, capsys):
        outdir = tmp_path / "run"
        assert main(["cluster", "--corpus", str(corpus_file), "--outdir", str(outdir)]) == 0
        (outdir / "occurrence.json").unlink()
        capsys.readouterr()
        for argv in read_commands(outdir, tmp_path):
            assert main(argv) != 0
            err = capsys.readouterr().err
            assert "occurrence.json" in err and "rerun cluster" in err

    @pytest.mark.parametrize("field, value", [("clusters", [0, 1, 5]), ("sizes", [15, 15, 14])])
    def test_occurrence_json_disagreeing_with_labels_rejected(
        self, tmp_path, corpus_file, capsys, field, value
    ):
        outdir = tmp_path / "run"
        assert main(["cluster", "--corpus", str(corpus_file), "--outdir", str(outdir)]) == 0
        path = outdir / "occurrence.json"
        occurrence = json.loads(path.read_text(encoding="utf-8"))
        assert occurrence[field] != value
        occurrence[field] = value
        path.write_text(json.dumps(occurrence), encoding="utf-8")
        capsys.readouterr()
        for argv in read_commands(outdir, tmp_path):
            assert main(argv) != 0
            assert "stale artifacts; rerun cluster" in capsys.readouterr().err


def recorded_index(run, monkeypatch):
    """The OccurrenceIndex ``_relevance`` rebuilds from the run's ``occurrence.json``."""
    with monkeypatch.context() as patch:
        patch.setattr(cli, "compute_relevance", lambda index, clusters=None: index)
        return _relevance(_load_run(run)[1]["occurrence.json"])


def clustered_index(corpus, config):
    """The OccurrenceIndex of ``corpus`` clustered under ``config``."""
    result = run_clustering(corpus, config)
    labels = result.assignment.labels.tolist()
    return build_occurrence_index(result.features.counts, result.features.vocab, labels)


def assert_same_index(index, expected):
    assert index.terms == expected.terms and index.clusters == expected.clusters
    for name in ("counts", "sizes"):
        value, reference = getattr(index, name), getattr(expected, name)
        assert value.dtype == np.int64 and np.array_equal(value, reference), name


class TestOccurrenceJson:
    @pytest.mark.filterwarnings(r"ignore:1 document\(s\) with no in-vocabulary tokens")
    def test_round_trip_with_a_cluster_counting_no_term(self, tmp_path, monkeypatch):
        # with --min-pts 1 the lone document is a cluster of its own, and
        # --min-df 2 drops every one of its words
        corpus, _, _ = planted_topic_corpus()
        corpus = Corpus(corpus.docs + (Document(id="lone", text="solitary unmatched wording"),))
        save_jsonl(corpus, tmp_path / "corpus.jsonl")
        outdir = tmp_path / "run"
        argv = ["cluster", "--corpus", str(tmp_path / "corpus.jsonl"), "--outdir", str(outdir)]
        assert main(argv + ["--min-pts", "1", "--min-df", "2"]) == 0
        expected = clustered_index(corpus, PipelineConfig(min_pts=1, min_df=2))
        index = recorded_index(outdir, monkeypatch)
        assert_same_index(index, expected)
        lone = index.sizes.tolist().index(1)
        assert not index.counts[lone].any()
        recorded = json.loads((outdir / "occurrence.json").read_text(encoding="utf-8"))
        assert recorded["columns"][lone] == recorded["counts"][lone] == ""
        # nonzero counts at the first and the last term position
        assert index.counts[:, 0].any() and index.counts[:, -1].any()
        table = _relevance(_load_run(outdir)[1]["occurrence.json"])
        reference = compute_relevance(expected)
        for field in fields(RelevanceTable):
            value, wanted = getattr(table, field.name), getattr(reference, field.name)
            if isinstance(value, tuple):
                assert value == wanted, field.name
            else:
                assert value.dtype == wanted.dtype and np.array_equal(value, wanted), field.name

    def test_round_trip_of_an_all_noise_run(self, tmp_path, corpus_file, monkeypatch):
        outdir = tmp_path / "run"
        argv = ["cluster", "--corpus", str(corpus_file), "--outdir", str(outdir)]
        assert main(argv + ["--eps", "0.01", "--min-pts", "3"]) == 0
        expected = clustered_index(load_jsonl(corpus_file), PipelineConfig(eps=0.01, min_pts=3))
        index = recorded_index(outdir, monkeypatch)
        assert index.clusters == () and index.counts.shape == (0, len(expected.terms))
        assert_same_index(index, expected)

    def test_older_format_rejected_though_its_digest_matches(self, tmp_path, corpus_file, capsys):
        outdir = tmp_path / "run"
        assert main(["cluster", "--corpus", str(corpus_file), "--outdir", str(outdir)]) == 0
        index = clustered_index(load_jsonl(corpus_file), PipelineConfig())
        # as versions that stored every count wrote it, with its digest recorded
        older = json.dumps(vars(index), default=np.ndarray.tolist) + "\n"
        (outdir / "occurrence.json").write_text(older, encoding="utf-8")
        manifest = json.loads((outdir / "manifest.json").read_text(encoding="utf-8"))
        manifest["artifact_sha256"]["occurrence.json"] = hashlib.sha256(older.encode("utf-8")).hexdigest()
        (outdir / "manifest.json").write_text(json.dumps(manifest), encoding="utf-8")
        capsys.readouterr()
        for argv in read_commands(outdir, tmp_path):
            assert main(argv) == 1
            err = capsys.readouterr().err
            assert "occurrence.json" in err and "rerun cluster" in err
            assert "stale" not in err


def drop_last_bigram(run):
    path = run / "bigrams.csv"
    lines = path.read_bytes().splitlines(keepends=True)
    assert len(lines) >= 2  # the header and at least one bigram
    path.write_bytes(b"".join(lines[:-1]))


def swap_labels_across_clusters(run):
    # cluster sizes stay as occurrence.json records them
    path = run / "labels.csv"
    rows = [line.rsplit(",", 1) for line in path.read_text(encoding="utf-8").splitlines()]
    assert rows[1][0] == "t0d00"  # the document read_commands highlights
    other = next(k for k, (_, label) in enumerate(rows[1:], 1) if label not in (rows[1][1], "-1"))
    rows[1][1], rows[other][1] = rows[other][1], rows[1][1]
    path.write_text("".join(f"{doc_id},{label}\n" for doc_id, label in rows), encoding="utf-8")


def drop_artifact_digests(run):
    # as runs written before cluster recorded them
    path = run / "manifest.json"
    manifest = json.loads(path.read_text(encoding="utf-8"))
    del manifest["artifact_sha256"]
    path.write_text(json.dumps(manifest), encoding="utf-8")


@pytest.mark.parametrize("tamper", [drop_last_bigram, swap_labels_across_clusters, drop_artifact_digests])
def test_run_unlike_its_recorded_digests_rejected(tmp_path, phrase_run, capsys, tamper):
    outdir = tmp_path / "run"
    corpus = phrase_run.parent / "corpus.jsonl"
    assert main(["cluster", "--corpus", str(corpus), "--outdir", str(outdir)]) == 0
    tamper(outdir)
    capsys.readouterr()
    for argv in read_commands(outdir, tmp_path):
        assert main(argv) == 1
        assert "stale artifacts; rerun cluster" in capsys.readouterr().err


def test_cluster_records_the_digest_of_every_artifact(tmp_path, corpus_file):
    outdir = tmp_path / "run"
    assert main(["cluster", "--corpus", str(corpus_file), "--outdir", str(outdir)]) == 0
    manifest = json.loads((outdir / "manifest.json").read_text(encoding="utf-8"))
    on_disk = {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in outdir.iterdir() if path.name != "manifest.json"
    }
    assert manifest["artifact_sha256"] == on_disk


def test_read_commands_open_only_the_verified_run_files(tmp_path, run_dir, monkeypatch):
    manifest = json.loads((run_dir / "manifest.json").read_text(encoding="utf-8"))
    verified = {"manifest.json", *manifest["artifact_sha256"]}
    opened = []
    real_open = io.open

    def recording_open(file, *args, **kwargs):
        if isinstance(file, (str, os.PathLike)) and Path(file).resolve().parent == run_dir.resolve():
            opened.append(Path(file).name)
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr(io, "open", recording_open)
    monkeypatch.setattr(builtins, "open", recording_open)
    for argv in read_commands(run_dir, tmp_path):
        opened.clear()
        assert main(argv) == 0
        assert opened and set(opened) <= verified, argv
        # what a command verified is what it parses: no file is read twice
        assert sorted(opened) == sorted(set(opened)), argv


def test_relevant_and_wordcloud_parse_no_corpus(tmp_path, run_dir, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the corpus is parsed")

    parsed = []

    def parse_document(line, **fields):
        parsed.append(line)
        return relwords.corpus.parse_document(line, **fields)

    monkeypatch.setattr(cli, "load_jsonl", refuse)
    monkeypatch.setattr(cli, "parse_document", parse_document)
    relevant, wordcloud, highlight = read_commands(run_dir, tmp_path)
    assert main(relevant) == 0
    assert main(wordcloud) == 0
    assert parsed == []
    # highlight parses its own document's line, and no other
    assert main(highlight) == 0
    assert [json.loads(line)["id"] for line in parsed] == ["t0d00"]


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
        # Document refuses such an id too, so the line is written by hand.
        corpus, _, _ = planted_topic_corpus()
        line = 1 + corpus.ids().index("t1d03")
        corpus_path = tmp_path / "corpus.jsonl"
        save_jsonl(corpus, corpus_path)
        lines = corpus_path.read_text(encoding="utf-8").split("\n")
        record = json.loads(lines[line - 1])
        record["id"] = "a\rb"
        lines[line - 1] = json.dumps(record, ensure_ascii=False)
        corpus_path.write_text("\n".join(lines), encoding="utf-8", newline="\n")
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
        names = ["labels.csv", "bigrams.csv", "occurrence.json", "relevance.csv"]
        names += sorted(path.name for path in outdir.glob("*.svg"))
        artifacts[threads] = {name: (outdir / name).read_bytes() for name in names}
    assert len(artifacts["1"]) == 7
    assert artifacts["1"] == artifacts["2"]


def without_key(key):
    """A manifest damage: the manifest without ``key``."""
    return lambda data: json.dumps({k: v for k, v in json.loads(data).items() if k != key}).encode()


def with_value(key, value):
    """A manifest damage: the manifest with ``key`` set to ``value``."""
    return lambda data: json.dumps({**json.loads(data), key: value}).encode()


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

    def test_moved_corpus_named(self, tmp_path, corpus_file, capsys):
        corpus_copy = tmp_path / "corpus.jsonl"
        corpus_copy.write_bytes(corpus_file.read_bytes())
        outdir = tmp_path / "run"
        assert main(["cluster", "--corpus", str(corpus_copy), "--outdir", str(outdir)]) == 0
        corpus_copy.rename(tmp_path / "elsewhere.jsonl")
        capsys.readouterr()
        for argv in read_commands(outdir, tmp_path):
            assert main(argv) == 1
            expected = f"the corpus this run clustered is missing: {corpus_copy.resolve()}; rerun cluster"
            assert expected in capsys.readouterr().err

    # epsilon and bigram_seed: recorded by runs of older versions
    @pytest.mark.parametrize("key", ["epsilon", "bigram_seed"])
    def test_run_with_a_config_key_this_version_lacks_rejected(self, tmp_path, corpus_file, capsys, key):
        outdir = tmp_path / "run"
        assert main(["cluster", "--corpus", str(corpus_file), "--outdir", str(outdir)]) == 0
        manifest_path = outdir / "manifest.json"
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
        manifest["config"][key] = 0
        manifest_path.write_text(json.dumps(manifest), encoding="utf-8")
        capsys.readouterr()
        assert main(["relevant", "--run", str(outdir)]) == 1
        err = capsys.readouterr().err
        assert f"run config keys differ from this version's: {key}; rerun cluster" in err

    @pytest.mark.parametrize(
        "damage, cause",
        [
            *(
                pytest.param(without_key(key), f": {key} missing", id=f"no-{key}")
                for key in ("config", "corpus_path", "corpus_sha256")
            ),
            pytest.param(with_value("config", 5), ": config missing or of the wrong type", id="config-5"),
            pytest.param(with_value("corpus_path", None), ": corpus_path missing", id="corpus_path-null"),
            pytest.param(lambda data: data[: len(data) // 2], " is not JSON", id="truncated"),
            pytest.param(lambda data: b"\xff" + data, " is not JSON", id="not-utf8"),
            pytest.param(lambda data: json.dumps([json.loads(data)]).encode(), " is not a JSON object", id="list"),
        ],
    )
    def test_damaged_manifest_named_with_its_cause(self, tmp_path, run_dir, capsys, damage, cause):
        run = tmp_path / "run"
        shutil.copytree(run_dir, run)
        manifest_path = run / "manifest.json"
        manifest_path.write_bytes(damage(manifest_path.read_bytes()))
        capsys.readouterr()
        for argv in read_commands(run, tmp_path):
            assert main(argv) == 1
            err = capsys.readouterr().err
            assert err.startswith(f"relwords {argv[0]}: error: manifest.json{cause}"), err
            assert err.endswith("; rerun cluster\n"), err


@pytest.mark.parametrize("command", ["cluster", "relevant"])
def test_corpus_file_read_once(tmp_path, corpus_file, run_dir, monkeypatch, command):
    # the hash a run records or checks is of the very bytes it parses, so a
    # file that changes between two reads cannot pass as the hashed one
    argv = {
        "cluster": ["cluster", "--corpus", str(corpus_file), "--outdir", str(tmp_path / "run")],
        "relevant": ["relevant", "--run", str(run_dir), "--out", str(tmp_path / "relevance.csv")],
    }[command]
    opened = []
    real_open = io.open

    def counting_open(file, *args, **kwargs):
        if isinstance(file, (str, os.PathLike)) and Path(file).resolve() == corpus_file.resolve():
            opened.append(file)
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr(io, "open", counting_open)
    monkeypatch.setattr(builtins, "open", counting_open)
    assert main(argv) == 0
    assert len(opened) == 1


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


    def test_cluster_of_an_all_noise_run_names_the_cause(self, tmp_path, corpus_file, capsys):
        outdir = tmp_path / "run"
        assert main(["cluster", "--corpus", str(corpus_file), "--outdir", str(outdir),
                     "--eps", "0.01", "--min-pts", "3"]) == 0
        capsys.readouterr()
        code = main(["wordcloud", "--run", str(outdir), "--cluster", "0",
                     "--out", str(tmp_path / "x.svg")])
        assert code == 1
        assert "no clusters to score (all documents are noise)" in capsys.readouterr().err
        assert not (tmp_path / "x.svg").exists()


def rows_scored(monkeypatch):
    """The number of cluster rows each ``cli.compute_relevance`` call scores,
    in call order, from the calls made after it is patched."""
    scored = []

    def counting(index, clusters=None):
        table = compute_relevance(index, clusters)
        scored.append(table.r.shape[0])
        return table

    monkeypatch.setattr(cli, "compute_relevance", counting)
    return scored


def test_one_cluster_cloud_scores_one_row_and_is_the_all_cluster_cloud(tmp_path, run_dir, monkeypatch):
    scored = rows_scored(monkeypatch)
    assert main(["wordcloud", "--run", str(run_dir), "--outdir", str(tmp_path / "all")]) == 0
    assert scored == [3]
    for cluster in range(3):
        out = tmp_path / f"one{cluster}.svg"
        assert main(["wordcloud", "--run", str(run_dir), "--cluster", str(cluster), "--out", str(out)]) == 0
        assert out.read_bytes() == (tmp_path / "all" / f"cluster{cluster}.svg").read_bytes(), cluster
    assert scored == [3, 1, 1, 1]


def test_highlight_scores_one_row_and_marks_as_the_whole_table(tmp_path, run_dir, corpus_file, monkeypatch):
    _, artifacts = _load_run(run_dir)
    table = _relevance(artifacts["occurrence.json"])
    selected = read_bigrams_csv(artifacts["bigrams.csv"])
    labels = [int(label) for _, label in list(csv.reader(io.StringIO(artifacts["labels.csv"].decode())))[1:]]
    corpus = load_jsonl(corpus_file)
    positions = (0, len(corpus) // 2, len(corpus) - 1)
    assert sorted(labels[position] for position in positions) == [0, 1, 2]
    scored = rows_scored(monkeypatch)
    for position in positions:
        doc = corpus.docs[position]
        expected = tmp_path / f"expected{position}.html"
        stream = relwords.apply_bigrams(relwords.token_ids([relwords.normalize_tokenize(doc.text, doc.id)]), selected)[0]
        report.highlight_html(doc, stream, table, labels[position], expected)
        out = tmp_path / f"{position}.html"
        assert main(["highlight", "--run", str(run_dir), "--doc-id", doc.id, "--out", str(out)]) == 0
        assert out.read_bytes() == expected.read_bytes(), doc.id
    assert scored == [1, 1, 1]


# sha256 of the contrast cloud of trending_corpus() at its boundary, as the
# per-position spiral walk drew it
CONTRAST_SVG_SHA256 = "1a24474f895b9f4fee2f91b99a072c5635bb9f04f51c27e247dbc40dbaafe550"


def test_clouds_byte_identical_to_the_reference_layout(tmp_path, run_dir):
    # the contrast's 800x300 halves are laid out first, so a spiral cached
    # for one canvas size would show in the 800x600 clouds drawn after it
    report._spiral.cache_clear()
    corpus, _, boundary = trending_corpus()
    save_jsonl(corpus, tmp_path / "trending.jsonl")
    contrast = tmp_path / "contrast.svg"
    assert main(["contrast", "--corpus", str(tmp_path / "trending.jsonl"),
                 "--boundary", boundary.date().isoformat(), "--out", str(contrast)]) == 0
    assert hashlib.sha256(contrast.read_bytes()).hexdigest() == CONTRAST_SVG_SHA256

    outdir = tmp_path / "clouds"
    assert main(["wordcloud", "--run", str(run_dir), "--outdir", str(outdir)]) == 0
    table = _relevance(_load_run(run_dir)[1]["occurrence.json"])
    for cluster in table.clusters:
        expected = svg_markup(layout_wordcloud_reference(rank_terms(table, cluster, 50), top_k=50))
        assert (outdir / f"cluster{cluster}.svg").read_bytes() == expected.encode("utf-8")
    assert sorted(path.name for path in outdir.glob("cluster*.svg")) == [
        f"cluster{cluster}.svg" for cluster in table.clusters
    ]


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

    @pytest.mark.parametrize("boundary, empty", [("2016-12-31", "before"), ("2017-02-01", "after")])
    def test_boundary_outside_the_corpus_names_the_empty_period(
        self, tmp_path, capsys, boundary, empty
    ):
        corpus, _, _ = trending_corpus()
        corpus_path = tmp_path / "corpus.jsonl"
        save_jsonl(corpus, corpus_path)
        out = tmp_path / "contrast.svg"
        code = main(["contrast", "--corpus", str(corpus_path),
                     "--boundary", boundary, "--out", str(out)])
        assert code == 1
        assert f"no documents {empty} {boundary}" in capsys.readouterr().err
        assert not out.exists()

    def test_unparseable_boundary_names_the_flag(self, tmp_path, capsys):
        corpus, _, _ = trending_corpus()
        corpus_path = tmp_path / "corpus.jsonl"
        save_jsonl(corpus, corpus_path)
        out = tmp_path / "contrast.svg"
        code = main(["contrast", "--corpus", str(corpus_path),
                     "--boundary", "notadate", "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert "bad --boundary (expected YYYY-MM-DD or an ISO datetime): 'notadate'" in err
        assert not out.exists()

    def test_period_without_scored_terms_drawn_empty(self, tmp_path, capsys):
        # every "before" document holds both words, each "after" one only
        # one of them: nothing scores above zero after the boundary
        corpus_path = tmp_path / "corpus.jsonl"
        corpus_path.write_text("".join(
            json.dumps({"id": doc_id, "text": text, "date": date}) + "\n"
            for doc_id, text, date in (
                ("b0", "alpha beta", "2017-01-01"),
                ("b1", "alpha beta", "2017-01-02"),
                ("a0", "alpha", "2017-01-20"),
                ("a1", "beta", "2017-01-21"),
            )
        ), encoding="utf-8")
        out = tmp_path / "contrast.svg"
        code = main(["contrast", "--corpus", str(corpus_path),
                     "--boundary", "2017-01-15", "--out", str(out)])
        assert code == 0
        err = capsys.readouterr().err
        assert "after 2017-01-15" in err and "no positively scored terms" in err
        content = out.read_text(encoding="utf-8")
        assert 'fill="green"' not in content
        assert 'fill="red">alpha</text>' in content and 'fill="red">beta</text>' in content

    def test_top_below_one_rejected(self, tmp_path, capsys):
        corpus, _, _ = trending_corpus()
        corpus_path = tmp_path / "corpus.jsonl"
        save_jsonl(corpus, corpus_path)
        out = tmp_path / "contrast.svg"
        code = main(["contrast", "--corpus", str(corpus_path), "--boundary", "2017-01-16",
                     "--top", "0", "--out", str(out)])
        assert code == 1
        assert "--top must be >= 1, got 0" in capsys.readouterr().err
        assert not out.exists()

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

    def test_same_bytes_as_from_the_whole_corpus_between_blank_lines(self, tmp_path):
        # blank and whitespace-only lines, "\r\n" and "\r" endings and no
        # final newline: the document on a line is the one load_jsonl reads
        corpus, _, _ = planted_topic_corpus()
        ends = [b"\n", b"\r\n", b"\n  \t\n", "\r\n\u3000\r\n".encode("utf-8"), b"\r", b"\n\n"]
        lines = [json.dumps({"id": doc.id, "text": doc.text}).encode("utf-8") for doc in corpus.docs]
        data = b"\n \n" + b"".join(line + ends[k % len(ends)] for k, line in enumerate(lines[:-1]))
        data += lines[-1]
        corpus_path = tmp_path / "corpus.jsonl"
        corpus_path.write_bytes(data)
        loaded = load_jsonl(data)
        assert loaded == corpus
        outdir = tmp_path / "run"
        assert main(["cluster", "--corpus", str(corpus_path), "--outdir", str(outdir)]) == 0
        _, artifacts = _load_run(outdir)
        table = _relevance(artifacts["occurrence.json"])
        selected = read_bigrams_csv(artifacts["bigrams.csv"])
        with open(outdir / "labels.csv", encoding="utf-8", newline="") as handle:
            labels = [int(label) for _, label in list(csv.reader(handle))[1:]]
        for position in (0, len(loaded) // 2, len(loaded) - 1):
            doc = loaded.docs[position]
            expected = tmp_path / f"expected{position}.html"
            stream = relwords.apply_bigrams(relwords.token_ids([relwords.normalize_tokenize(doc.text, doc.id)]), selected)[0]
            report.highlight_html(doc, stream, table, labels[position], expected)
            out = tmp_path / f"{position}.html"
            assert main(["highlight", "--run", str(outdir), "--doc-id", doc.id, "--out", str(out)]) == 0
            assert out.read_bytes() == expected.read_bytes(), doc.id


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

    def test_id_with_carriage_return_refused(self, tmp_path, capsys):
        import relwords.corpus as corpus_mod

        endpoint = "https://archive.example/{year}/{month}.json?api-key={key}"
        item = {"_id": "a\rb", "snippet": "a cached snippet", "pub_date": "2017-01-03T00:00:00+0000"}
        cache_dir = tmp_path / "cache"
        cache_dir.mkdir()
        cache_file = corpus_mod._cache_path(cache_dir, endpoint, 2017, 1)
        cache_file.write_text(json.dumps({"response": {"docs": [item]}}), encoding="utf-8")
        out = tmp_path / "corpus.jsonl"
        code = main(["fetch", "--months", "2017-01", "--endpoint", endpoint,
                     "--api-key", "k", "--cache-dir", str(cache_dir), "--out", str(out)])
        assert code != 0
        assert "document id holds a carriage return: 'a\\rb'" in capsys.readouterr().err
        assert not out.exists()


def test_cli_never_imports_scipy_linalg_below_the_partial_solve(corpus_file, tmp_path):
    # scipy.linalg costs ~8 MiB of resident memory; only a kernel PCA above
    # the size rule of embedding._leading_eigenpairs may import it.
    script = f"""
import sys
import numpy as np
from relwords import embedding
from relwords.cli import main
run, out = {str(tmp_path / "run")!r}, {str(tmp_path)!r}
assert main(["cluster", "--corpus", {str(corpus_file)!r}, "--outdir", run]) == 0
assert main(["relevant", "--run", run, "--out", out + "/relevance.csv"]) == 0
assert main(["wordcloud", "--run", run, "--outdir", out]) == 0
print("scipy.linalg" in sys.modules)
d = embedding._PARTIAL_SOLVE_RATIO  # one component of a d x d matrix: the partial path
embedding._leading_eigenpairs(np.diag(np.arange(d, dtype=float)), d * d, 1)
print("scipy.linalg" in sys.modules)
"""
    result = subprocess.run(
        [sys.executable, "-c", script], env=subprocess_env(), capture_output=True, text=True
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[-2:] == ["False", "True"]  # the check sees the import


def test_read_commands_never_import_urllib_request(corpus_file, tmp_path):
    # urllib.request loads http.client, email and ssl; only fetch needs them
    script = f"""
import sys
from relwords.cli import main
run, out = {str(tmp_path / "run")!r}, {str(tmp_path)!r}
assert main(["cluster", "--corpus", {str(corpus_file)!r}, "--outdir", run]) == 0
assert main(["relevant", "--run", run, "--out", out + "/relevance.csv"]) == 0
assert main(["wordcloud", "--run", run, "--outdir", out]) == 0
assert main(["highlight", "--run", run, "--doc-id", "t0d00", "--out", out + "/t0d00.html"]) == 0
print(sorted({{"urllib.request", "http.client"}} & set(sys.modules)))
"""
    result = subprocess.run(
        [sys.executable, "-c", script], env=subprocess_env(), capture_output=True, text=True
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[-1] == "[]"


def test_module_entry_point(tmp_path):
    result = subprocess.run(
        [sys.executable, "-m", "relwords.cli", "--version"],
        env=subprocess_env(),
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    assert result.stdout.strip().startswith("relwords ")


def readme_command_lines():
    """The ``relwords ...`` lines of the README's ``sh`` blocks."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```sh\n(.*?)^```", readme, re.DOTALL | re.MULTILINE)
    return [line for block in blocks for line in block.splitlines() if line.startswith("relwords ")]


def test_readme_commands_parse():
    lines = readme_command_lines()
    assert lines
    parser = build_parser()
    for line in lines:
        argv = shlex.split(line, comments=True)[1:]
        try:
            parser.parse_args(argv)
        except SystemExit:
            pytest.fail(f"README command does not parse: {line}")


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

    def test_duplicate_terms_fail_naming_the_term(self, tmp_path, capsys):
        corpus, trend_words, _ = trending_corpus()
        corpus_path = tmp_path / "corpus.jsonl"
        save_jsonl(corpus, corpus_path)
        word = trend_words[0]
        code = main(["trends", "--corpus", str(corpus_path),
                     "--terms", f"{word},{word.upper()}", "--out", str(tmp_path / "t.csv")])
        assert code == 1
        assert f"duplicate trend term: {word!r}" in capsys.readouterr().err

    @pytest.mark.parametrize("term", ["new york", "alpha-beta", "a__b", "a_b_c"])
    def test_term_no_token_can_equal_fails_naming_it(self, tmp_path, capsys, term):
        corpus, _, _ = trending_corpus()
        corpus_path = tmp_path / "corpus.jsonl"
        save_jsonl(corpus, corpus_path)
        out = tmp_path / "t.csv"
        code = main(["trends", "--corpus", str(corpus_path), "--terms", term, "--out", str(out)])
        assert code == 1
        assert repr(term) in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("terms", [",", "", " , "])
    def test_empty_term_list_fails_naming_the_flag(self, tmp_path, capsys, terms):
        corpus, _, _ = trending_corpus()
        corpus_path = tmp_path / "corpus.jsonl"
        save_jsonl(corpus, corpus_path)
        out = tmp_path / "t.csv"
        code = main(["trends", "--corpus", str(corpus_path), "--terms", terms, "--out", str(out)])
        assert code == 1
        assert "--terms" in capsys.readouterr().err
        assert not out.exists()


# Each command takes only the config flags it reads: contrast scores with
# min_df 1 and never clusters, trends only tokenizes and merges bigrams. The
# relevance floor, the number of words drawn and the seed of the bigram
# baseline draw are no config fields at all.
UNREAD_FLAGS = [
    ("contrast", flag, value)
    for flag, value in (("--min-df", "2"), ("--components", "5"), ("--eps", "0.3"), ("--min-pts", "4"))
] + [
    ("trends", flag, value)
    for flag, value in (("--min-df", "2"), ("--components", "5"), ("--eps", "0.3"),
                        ("--min-pts", "4"), ("--epsilon", "0.01"), ("--top-k", "10"))
] + [
    (command, flag, value)
    for command in ("cluster", "contrast")
    for flag, value in (("--epsilon", "0.01"), ("--top-k", "10"))
] + [(command, "--seed", "0") for command in ("cluster", "contrast", "trends")]


@pytest.mark.parametrize("command, flag, value", UNREAD_FLAGS)
def test_config_flags_a_command_does_not_read_are_rejected(tmp_path, capsys, command, flag, value):
    corpus, trend_words, _ = trending_corpus()
    corpus_path = tmp_path / "corpus.jsonl"
    save_jsonl(corpus, corpus_path)
    out = tmp_path / "out"
    argv = {
        "cluster": ["cluster", "--corpus", str(corpus_path), "--outdir", str(out)],
        "contrast": ["contrast", "--corpus", str(corpus_path), "--boundary", "2017-01-16", "--out", str(out)],
        "trends": ["trends", "--corpus", str(corpus_path), "--terms", trend_words[0], "--out", str(out)],
    }[command]
    with pytest.raises(SystemExit) as exit_info:
        main(argv + [flag, value])
    assert exit_info.value.code == 2
    assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err
    assert not out.exists()


def test_config_flags_set_every_config_field_on_cluster():
    assert {field for field, _, _ in CONFIG_FLAGS.values()} == {
        f.name for f in fields(pipeline.PipelineConfig)
    }
    argv = ["cluster", "--corpus", "c.jsonl", "--outdir", "run"]
    args = build_parser().parse_args(argv + [part for flag in CONFIG_FLAGS for part in (flag, "1")])
    assert config_from_args(args) == pipeline.PipelineConfig(
        **{field: kind("1") for field, kind, _ in CONFIG_FLAGS.values()}
    )
