"""Command-line pipeline with persisted, reproducible intermediate artifacts.

``relwords cluster`` writes a labels CSV, the selected bigrams and a manifest
recording the full config and a hash of the input corpus; downstream commands
(relevant, wordcloud, highlight) re-tokenize the corpus, merge the run's
bigrams and score relevance from them, and refuse to run against a corpus
that changed since clustering.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import sys
from dataclasses import dataclass
from pathlib import Path

from . import __version__
from .clustering import NOISE, write_labels_csv
from .corpus import (
    Corpus,
    fetch_archive,
    load_dir,
    load_jsonl,
    month_range,
    parse_timestamp,
    save_jsonl,
    split_by_period,
)
from .embedding import write_embedding_csv
from .features import build_vocabulary, write_matrix_csv
from .pipeline import PipelineConfig, prepare_streams, run_clustering, tokenize_with_bigrams
from .relevance import (
    RelevanceTable,
    build_occurrence_index,
    compute_relevance,
    contrast_relevance,
    rank_terms,
    write_relevance_csv,
)
from .report import (
    WordCloudSpec,
    highlight_html,
    layout_wordcloud,
    render_contrast_cloud,
    render_svg,
    term_trends,
    write_trends_csv,
)
from .text import TokenStream, read_bigrams_csv, write_bigrams_csv

MANIFEST_NAME = "manifest.json"
LABELS_NAME = "labels.csv"
BIGRAMS_NAME = "bigrams.csv"

DEFAULT_ENDPOINT = (
    "https://api.nytimes.com/svc/archive/v1/{year}/{month}.json?api-key={key}"
)


def corpus_sha256(path: str | Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _add_config_flags(parser: argparse.ArgumentParser) -> None:
    defaults = PipelineConfig()
    parser.add_argument("--min-df", type=int, default=defaults.min_df,
                        help="drop terms in fewer documents than this")
    parser.add_argument("--delta", type=int, default=defaults.bigram_discount,
                        help="bigram count discount")
    parser.add_argument("--seed", type=int, default=defaults.bigram_seed,
                        help="seed for the bigram baseline sampling")
    parser.add_argument("--components", type=int, default=defaults.kpca_components,
                        help="max kernel-PCA components")
    parser.add_argument("--eps", type=float, default=defaults.eps,
                        help="DBSCAN cosine-distance threshold")
    parser.add_argument("--min-pts", type=int, default=defaults.min_pts,
                        help="DBSCAN minimum neighborhood size (point included)")
    parser.add_argument("--epsilon", type=float, default=defaults.epsilon,
                        help="FPR floor in the quotient score")
    parser.add_argument("--top-k", type=int, default=defaults.top_k,
                        help="words per word cloud / ranking")


def config_from_args(args: argparse.Namespace) -> PipelineConfig:
    config = PipelineConfig(
        min_df=args.min_df,
        bigram_discount=args.delta,
        bigram_seed=args.seed,
        kpca_components=args.components,
        eps=args.eps,
        min_pts=args.min_pts,
        epsilon=args.epsilon,
        top_k=args.top_k,
    )
    config.validate()
    return config


def cmd_ingest(args: argparse.Namespace) -> int:
    if args.dir:
        corpus = load_dir(args.dir)
    else:
        corpus = load_jsonl(
            args.jsonl,
            id_field=args.id_field,
            text_field=args.text_field,
            date_field=args.date_field,
        )
    save_jsonl(corpus, args.out)
    print(f"wrote {len(corpus)} documents to {args.out}")
    return 0


def cmd_fetch(args: argparse.Namespace) -> int:
    months = month_range(args.months)
    corpus = fetch_archive(
        args.endpoint,
        months,
        api_key=args.api_key,
        cache_dir=args.cache_dir,
    )
    save_jsonl(corpus, args.out)
    print(f"fetched {len(corpus)} documents over {len(months)} month(s) to {args.out}")
    return 0


def cmd_cluster(args: argparse.Namespace) -> int:
    corpus = load_jsonl(args.corpus)
    config = config_from_args(args)
    result = run_clustering(corpus, config)
    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    write_labels_csv(result.assignment, corpus.ids(), outdir / LABELS_NAME)
    write_bigrams_csv(result.selected_bigrams.values(), outdir / BIGRAMS_NAME)
    manifest = {
        "config": config.as_dict(),
        "corpus_path": str(Path(args.corpus).resolve()),
        "corpus_sha256": corpus_sha256(args.corpus),
        "n_docs": len(corpus),
        "n_clusters": result.assignment.n_clusters,
        "n_noise": int((result.assignment.labels == NOISE).sum()),
        "kpca_components_kept": int(result.model.eigenvalues.shape[0]),
        "relwords_version": __version__,
    }
    (outdir / MANIFEST_NAME).write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    if args.dump_matrix:
        write_matrix_csv(result.features, outdir / "matrix.csv")
    if args.dump_embedding:
        write_embedding_csv(result.embedding, outdir / "embedding.csv")
    print(
        f"{result.assignment.n_clusters} clusters, {manifest['n_noise']} noise "
        f"documents out of {len(corpus)}; artifacts in {outdir}"
    )
    return 0


@dataclass(frozen=True)
class _Run:
    """A cluster run read back, with its relevance table recomputed."""

    corpus: Corpus
    config: PipelineConfig
    labels: list[int]
    streams: list[TokenStream]
    table: RelevanceTable


def _load_run(run_dir: str | Path) -> _Run:
    run = Path(run_dir)
    manifest_path = run / MANIFEST_NAME
    labels_path = run / LABELS_NAME
    bigrams_path = run / BIGRAMS_NAME
    if not manifest_path.exists() or not labels_path.exists():
        raise FileNotFoundError(f"no cluster run in {run} (expected {MANIFEST_NAME} and {LABELS_NAME})")
    if not bigrams_path.exists():
        raise ValueError(f"no {BIGRAMS_NAME} in {run}; rerun cluster")
    manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    corpus_path = manifest["corpus_path"]
    if corpus_sha256(corpus_path) != manifest["corpus_sha256"]:
        raise ValueError("stale artifacts; rerun cluster")
    corpus = load_jsonl(corpus_path)
    config = PipelineConfig(**manifest["config"])
    with open(labels_path, "r", encoding="utf-8", newline="") as handle:
        rows = list(csv.reader(handle))[1:]  # after the header
    if tuple(doc_id for doc_id, _ in rows) != corpus.ids():
        raise ValueError("stale artifacts; rerun cluster")
    labels = [int(label) for _, label in rows]
    streams = tokenize_with_bigrams(corpus, read_bigrams_csv(bigrams_path))
    vocab = build_vocabulary(streams, min_df=config.min_df)
    index = build_occurrence_index(streams, vocab, labels)
    table = compute_relevance(index, epsilon=config.epsilon)
    return _Run(corpus, config, labels, streams, table)


def cmd_relevant(args: argparse.Namespace) -> int:
    table = _load_run(args.run).table
    out = Path(args.out) if args.out else Path(args.run) / "relevance.csv"
    write_relevance_csv(table, out)
    print(f"wrote relevance table for {len(table.clusters)} clusters to {out}")
    return 0


def cmd_wordcloud(args: argparse.Namespace) -> int:
    if args.out and args.cluster is None:
        raise ValueError("--out needs --cluster (without it, every cloud goes to --outdir)")
    if args.top is not None and args.top < 1:
        raise ValueError(f"--top must be >= 1, got {args.top}")
    run = _load_run(args.run)
    table = run.table
    top_k = args.top if args.top is not None else run.config.top_k
    if args.cluster is not None:
        clusters = [args.cluster]
        if args.cluster not in table.clusters:
            raise ValueError(f"no such cluster: {args.cluster}")
    else:
        clusters = list(table.clusters)
    outdir = Path(args.outdir) if args.outdir else Path(args.run)
    outdir.mkdir(parents=True, exist_ok=True)
    written = []
    for cluster in clusters:
        ranked = rank_terms(table, cluster, top_k)
        if args.out:
            out = Path(args.out)
        else:
            out = outdir / f"cluster{cluster}.svg"
        if ranked:
            spec = layout_wordcloud(ranked, top_k=top_k)
        else:
            print(f"cluster {cluster}: no positively scored terms; empty cloud", file=sys.stderr)
            spec = WordCloudSpec(entries=(), width=800, height=600)
        render_svg(spec, out)
        written.append(out)
    print(f"wrote {len(written)} word cloud(s): " + ", ".join(str(p) for p in written))
    return 0


def cmd_contrast(args: argparse.Namespace) -> int:
    corpus = load_jsonl(args.corpus)
    config = config_from_args(args)
    boundary = parse_timestamp(args.boundary)
    split = split_by_period(corpus, boundary)
    streams, _ = prepare_streams(split, config)
    groups = [doc.group for doc in split.docs]
    table = contrast_relevance(streams, groups, epsilon=config.epsilon)
    ranked_after = rank_terms(table, "after", config.top_k)
    ranked_before = rank_terms(table, "before", config.top_k)
    render_contrast_cloud(ranked_after, ranked_before, args.out, top_k=config.top_k)
    print(f"wrote contrast cloud ({len(ranked_after)} after / {len(ranked_before)} before) to {args.out}")
    return 0


def cmd_highlight(args: argparse.Namespace) -> int:
    run = _load_run(args.run)
    try:
        position = run.corpus.ids().index(args.doc_id)
    except ValueError:
        raise ValueError(f"no such document: {args.doc_id!r}") from None
    label = run.labels[position]
    if label == NOISE:
        raise ValueError(f"document {args.doc_id!r} is noise; nothing to highlight")
    highlight_html(
        run.corpus.docs[position], run.streams[position], run.table, label, args.out, label=label
    )
    print(f"wrote highlighted document {args.doc_id!r} (cluster {label}) to {args.out}")
    return 0


def cmd_trends(args: argparse.Namespace) -> int:
    corpus = load_jsonl(args.corpus)
    config = config_from_args(args)
    streams, _ = prepare_streams(corpus, config)
    terms = [t.strip() for t in args.terms.split(",") if t.strip()]
    table = term_trends(corpus, streams, terms, bucket=args.by)
    write_trends_csv(table, args.out)
    print(f"wrote {len(terms)} term trend(s) over {len(table.starts)} bucket(s) to {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="relwords",
        description="Cluster a text corpus and surface the words that set each topic apart.",
    )
    parser.add_argument("--version", action="version", version=f"relwords {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="normalize raw texts into a JSON-lines corpus")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--dir", help="directory of plain-text files")
    src.add_argument("--jsonl", help="existing JSON-lines file to normalize")
    p.add_argument("--id-field", default="id")
    p.add_argument("--text-field", default="text")
    p.add_argument("--date-field", default="date")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("fetch", help="download article snippets from a monthly archive API")
    p.add_argument("--months", required=True, help="e.g. 2017-01 or 2016-12..2017-01")
    p.add_argument("--endpoint", default=DEFAULT_ENDPOINT,
                   help="URL template with {year}, {month}, {key} placeholders")
    p.add_argument("--api-key", default=None,
                   help="credential (falls back to RELWORDS_API_KEY)")
    p.add_argument("--cache-dir", default="archive_cache")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_fetch)

    p = sub.add_parser("cluster", help="run the clustering pipeline and persist a run")
    p.add_argument("--corpus", required=True)
    p.add_argument("--outdir", required=True)
    _add_config_flags(p)
    p.add_argument("--dump-matrix", action="store_true")
    p.add_argument("--dump-embedding", action="store_true")
    p.set_defaults(func=cmd_cluster)

    p = sub.add_parser("relevant", help="score relevant words per cluster of a run")
    p.add_argument("--run", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_relevant)

    p = sub.add_parser("wordcloud", help="render per-cluster word clouds from a run")
    p.add_argument("--run", required=True)
    p.add_argument("--cluster", type=int, default=None, help="one cluster (default: all)")
    p.add_argument("--top", type=int, default=None)
    p.add_argument("--out", default=None, help="output file (single cluster only)")
    p.add_argument("--outdir", default=None, help="output directory (default: the run dir)")
    p.set_defaults(func=cmd_wordcloud)

    p = sub.add_parser("contrast", help="two-period contrast cloud around a boundary date")
    p.add_argument("--corpus", required=True)
    p.add_argument("--boundary", required=True, help="ISO date; documents on/after it are 'after'")
    p.add_argument("--out", required=True)
    _add_config_flags(p)
    p.set_defaults(func=cmd_contrast)

    p = sub.add_parser("highlight", help="render one document with relevant words marked")
    p.add_argument("--run", required=True)
    p.add_argument("--doc-id", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_highlight)

    p = sub.add_parser("trends", help="term frequencies over time as CSV")
    p.add_argument("--corpus", required=True)
    p.add_argument("--terms", required=True, help="comma-separated terms")
    p.add_argument("--by", choices=("day", "week"), default="day")
    p.add_argument("--out", required=True)
    _add_config_flags(p)
    p.set_defaults(func=cmd_trends)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:  # CLI boundary: report and exit nonzero
        print(f"relwords {args.command}: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
