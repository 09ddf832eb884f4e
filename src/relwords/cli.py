"""Command-line pipeline with persisted, reproducible intermediate artifacts.

``relwords cluster`` writes a labels CSV, the selected bigrams, per-cluster
term occurrence counts and, last, a manifest recording the full config and
the sha256 of the input corpus and of each of those three files. The
downstream commands (relevant, wordcloud, highlight) score relevance from
the recorded counts, and run only when the corpus and every artifact still
hash to the recorded digests; relevant and wordcloud never parse the corpus,
and highlight parses only its document's line. highlight and
``wordcloud --cluster`` score only the one cluster they draw.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import itertools
import json
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import __version__
from .clustering import NOISE, write_labels_csv
from .corpus import (
    Corpus,
    fetch_archive,
    jsonl_lines,
    load_dir,
    load_jsonl,
    month_range,
    parse_document,
    parse_timestamp,
    save_jsonl,
    split_by_period,
)
from .embedding import write_embedding_csv
from .features import build_vocabulary, term_counts, write_matrix_csv
from .pipeline import PipelineConfig, prepare_streams, run_clustering, tokenize_corpus
from .relevance import (
    OccurrenceIndex,
    RelevanceTable,
    build_occurrence_index,
    compute_relevance,
    rank_terms,
    write_relevance_csv,
)
from .report import (
    CANVAS_HEIGHT,
    CANVAS_WIDTH,
    WordCloudSpec,
    highlight_html,
    layout_wordcloud,
    render_contrast_cloud,
    render_svg,
    term_trends,
    write_trends_csv,
)
from .text import apply_bigrams, read_bigrams_csv, write_bigrams_csv

MANIFEST_NAME = "manifest.json"
LABELS_NAME = "labels.csv"
BIGRAMS_NAME = "bigrams.csv"
OCCURRENCE_NAME = "occurrence.json"
OCCURRENCE_KEYS = {"terms", "clusters", "sizes", "columns", "counts"}
# What cluster writes besides the manifest, which records each one's sha256.
ARTIFACT_NAMES = (LABELS_NAME, BIGRAMS_NAME, OCCURRENCE_NAME)

DEFAULT_ENDPOINT = (
    "https://api.nytimes.com/svc/archive/v1/{year}/{month}.json?api-key={key}"
)


def corpus_sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


# Flag -> (PipelineConfig field, type, help). Each command takes the flags
# of the fields it reads.
CONFIG_FLAGS = {
    "--min-df": ("min_df", int, "drop terms in fewer documents than this"),
    "--delta": ("bigram_discount", int, "bigram count discount"),
    "--components": ("kpca_components", int, "max kernel-PCA components"),
    "--eps": ("eps", float, "DBSCAN cosine-distance threshold"),
    "--min-pts": ("min_pts", int, "DBSCAN minimum neighborhood size (point included)"),
}


def _add_config_flags(parser: argparse.ArgumentParser, *flags: str) -> None:
    defaults = PipelineConfig()
    for flag in flags:
        field, kind, text = CONFIG_FLAGS[flag]
        parser.add_argument(flag, dest=field, type=kind, default=getattr(defaults, field), help=text)


def config_from_args(args: argparse.Namespace) -> PipelineConfig:
    """The config of the flags ``args`` holds; fields without a flag keep
    their defaults."""
    return PipelineConfig(**{
        field: getattr(args, field) for field, _, _ in CONFIG_FLAGS.values() if hasattr(args, field)
    })


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
    data = Path(args.corpus).read_bytes()  # one read, hashed and parsed
    digest = corpus_sha256(data)
    corpus = load_jsonl(data)
    del data  # not held through clustering
    config = config_from_args(args)
    result = run_clustering(corpus, config)
    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    doc_ids = corpus.ids()
    write_labels_csv(result.assignment, doc_ids, outdir / LABELS_NAME)
    write_bigrams_csv(result.selected_bigrams, outdir / BIGRAMS_NAME)
    features, labels = result.features, result.assignment.labels.tolist()
    index = build_occurrence_index(features.counts, features.vocab, labels)
    (outdir / OCCURRENCE_NAME).write_text(_occurrence_json(index) + "\n", encoding="utf-8")
    manifest = {
        "artifact_sha256": {
            name: hashlib.sha256((outdir / name).read_bytes()).hexdigest() for name in ARTIFACT_NAMES
        },
        "config": asdict(config),
        "corpus_path": str(Path(args.corpus).resolve()),
        "corpus_sha256": digest,
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
        write_matrix_csv(result.features, doc_ids, outdir / "matrix.csv")
    if args.dump_embedding:
        write_embedding_csv(result.model.coords, doc_ids, outdir / "embedding.csv")
    print(
        f"{result.assignment.n_clusters} clusters, {manifest['n_noise']} noise "
        f"documents out of {len(corpus)}; artifacts in {outdir}"
    )
    return 0


def _occurrence_json(index: OccurrenceIndex) -> str:
    """``index`` as the JSON text of ``occurrence.json``: per cluster, the
    positions in ``terms`` of its nonzero counts, the first as is and each
    later one as the gap from the one before (``columns``), and those counts
    (``counts``), each as one string of space-separated decimal integers."""
    columns, counts = [], []
    for row in index.counts:
        positions = np.flatnonzero(row)
        columns.append(" ".join(map(str, np.diff(positions, prepend=0).tolist())))
        counts.append(" ".join(map(str, row[positions].tolist())))
    return json.dumps({
        "terms": index.terms,
        "clusters": index.clusters,
        "sizes": index.sizes.tolist(),
        "columns": columns,
        "counts": counts,
    })


def _load_run(run_dir: str | Path) -> tuple[bytes, dict[str, bytes]]:
    """The bytes of a cluster run's corpus and of each of its artifacts, all
    of them as the run's manifest recorded them."""
    run = Path(run_dir)
    manifest_path = run / MANIFEST_NAME
    if not manifest_path.exists():
        raise FileNotFoundError(f"no cluster run in {run} (expected {MANIFEST_NAME})")
    for name in ARTIFACT_NAMES:
        if not (run / name).exists():
            raise ValueError(f"no {name} in {run}; rerun cluster")
    try:
        manifest = json.loads(manifest_path.read_bytes())
    except ValueError as exc:  # not UTF-8, or not JSON
        raise ValueError(f"{MANIFEST_NAME} is not JSON ({exc}); rerun cluster") from None
    if not isinstance(manifest, dict):
        raise ValueError(f"{MANIFEST_NAME} is not a JSON object; rerun cluster")
    kinds = {"config": dict, "corpus_path": str, "corpus_sha256": str}
    wrong = [key for key, kind in kinds.items() if not isinstance(manifest.get(key), kind)]
    if wrong:
        raise ValueError(f"{MANIFEST_NAME}: {', '.join(wrong)} missing or of the wrong type; rerun cluster")
    differing = set(manifest["config"]) ^ set(asdict(PipelineConfig()))
    if differing:
        raise ValueError(
            f"run config keys differ from this version's: {', '.join(sorted(differing))}; rerun cluster"
        )
    corpus_path = Path(manifest["corpus_path"])
    try:
        data = corpus_path.read_bytes()  # one read, hashed and parsed
    except FileNotFoundError:
        raise ValueError(
            f"the corpus this run clustered is missing: {corpus_path}; rerun cluster"
        ) from None
    if corpus_sha256(data) != manifest["corpus_sha256"]:
        raise ValueError("stale artifacts; rerun cluster")
    artifacts = {name: (run / name).read_bytes() for name in ARTIFACT_NAMES}
    digests = {name: hashlib.sha256(content).hexdigest() for name, content in artifacts.items()}
    if digests != manifest.get("artifact_sha256"):  # runs of older versions recorded none
        raise ValueError("stale artifacts; rerun cluster")
    return data, artifacts


def _relevance(occurrence: bytes, clusters: list[int] | None = None) -> RelevanceTable:
    """The relevance table of the counts an ``occurrence.json`` records, for
    the clusters ``clusters`` (default: all)."""
    recorded = json.loads(occurrence)
    if recorded.keys() != OCCURRENCE_KEYS:
        # older versions wrote every count, as a nested list under "counts"
        raise ValueError(f"{OCCURRENCE_NAME} is in an older format; rerun cluster")
    keys, terms = tuple(recorded["clusters"]), tuple(recorded["terms"])
    if keys:  # with none, compute_relevance says all documents are noise
        for cluster in clusters or ():
            if cluster not in keys:
                raise ValueError(f"no such cluster: {cluster}")
    counts = np.zeros((len(keys), len(terms)), dtype=np.int64)
    for row, columns, values in zip(counts, recorded["columns"], recorded["counts"]):
        positions = np.cumsum(np.fromstring(columns, dtype=np.int64, sep=" "))
        row[positions] = np.fromstring(values, dtype=np.int64, sep=" ")
    sizes = np.array(recorded["sizes"], dtype=np.int64)
    return compute_relevance(OccurrenceIndex(terms, keys, counts, sizes), clusters)


def cmd_relevant(args: argparse.Namespace) -> int:
    _, artifacts = _load_run(args.run)
    table = _relevance(artifacts[OCCURRENCE_NAME])
    out = Path(args.out) if args.out else Path(args.run) / "relevance.csv"
    write_relevance_csv(table, out)
    print(f"wrote relevance table for {len(table.clusters)} clusters to {out}")
    return 0


def _check_top(top: int) -> None:
    if top < 1:
        raise ValueError(f"--top must be >= 1, got {top}")


def cmd_wordcloud(args: argparse.Namespace) -> int:
    if args.out and args.cluster is None:
        raise ValueError("--out needs --cluster (without it, every cloud goes to --outdir)")
    _check_top(args.top)
    _, artifacts = _load_run(args.run)
    table = _relevance(artifacts[OCCURRENCE_NAME], None if args.cluster is None else [args.cluster])
    outdir = Path(args.outdir) if args.outdir else Path(args.run)
    outdir.mkdir(parents=True, exist_ok=True)
    written = []
    for cluster in table.clusters:
        ranked = rank_terms(table, cluster, args.top)
        if args.out:
            out = Path(args.out)
        else:
            out = outdir / f"cluster{cluster}.svg"
        if ranked:
            spec = layout_wordcloud(ranked, top_k=args.top)
        else:
            print(f"cluster {cluster}: no positively scored terms; empty cloud", file=sys.stderr)
            spec = WordCloudSpec(entries=(), width=CANVAS_WIDTH, height=CANVAS_HEIGHT)
        render_svg(spec, out)
        written.append(out)
    print(f"wrote {len(written)} word cloud(s): " + ", ".join(str(p) for p in written))
    return 0


def cmd_contrast(args: argparse.Namespace) -> int:
    _check_top(args.top)
    try:
        boundary = parse_timestamp(args.boundary)
    except ValueError:
        raise ValueError(
            f"bad --boundary (expected YYYY-MM-DD or an ISO datetime): {args.boundary!r}"
        ) from None
    corpus = load_jsonl(args.corpus)
    config = config_from_args(args)
    periods = split_by_period(corpus, boundary)
    for period in ("before", "after"):
        if period not in periods:
            raise ValueError(f"no documents {period} {args.boundary}")
    merged, _ = prepare_streams(corpus, config)
    vocab = build_vocabulary(merged, min_df=config.min_df)
    table = compute_relevance(build_occurrence_index(term_counts(merged, vocab.index), vocab, periods))
    ranked_after = rank_terms(table, "after", args.top)
    ranked_before = rank_terms(table, "before", args.top)
    for period, ranked in (("after", ranked_after), ("before", ranked_before)):
        if not ranked:
            print(f"{period} {args.boundary}: no positively scored terms; empty half", file=sys.stderr)
    render_contrast_cloud(ranked_after, ranked_before, args.out, top_k=args.top)
    print(f"wrote contrast cloud ({len(ranked_after)} after / {len(ranked_before)} before) to {args.out}")
    return 0


def cmd_highlight(args: argparse.Namespace) -> int:
    data, artifacts = _load_run(args.run)
    rows = csv.reader(io.StringIO(artifacts[LABELS_NAME].decode("utf-8"), newline=""))
    next(rows)  # the header; then one row per document, in corpus order
    for position, (doc_id, label) in enumerate(rows):
        if doc_id == args.doc_id:
            break
    else:
        raise ValueError(f"no such document: {args.doc_id!r}")
    label = int(label)
    if label == NOISE:
        raise ValueError(f"document {args.doc_id!r} is noise; nothing to highlight")
    # the corpus and labels.csv hashed to the run's digests, so the document
    # is on the corpus's position-th non-blank line
    _, line = next(itertools.islice(jsonl_lines(data), position, None))
    doc = parse_document(line)
    selected = read_bigrams_csv(artifacts[BIGRAMS_NAME])
    stream = apply_bigrams(tokenize_corpus(Corpus((doc,))), selected)[0]
    highlight_html(doc, stream, _relevance(artifacts[OCCURRENCE_NAME], [label]), label, args.out)
    print(f"wrote highlighted document {args.doc_id!r} (cluster {label}) to {args.out}")
    return 0


def cmd_trends(args: argparse.Namespace) -> int:
    terms = [t.strip() for t in args.terms.split(",") if t.strip()]
    if not terms:
        raise ValueError(f"--terms names no term: {args.terms!r}")
    corpus = load_jsonl(args.corpus)
    merged, _ = prepare_streams(corpus, config_from_args(args))
    table = term_trends(corpus, merged, terms, bucket=args.by)
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
    _add_config_flags(p, *CONFIG_FLAGS)
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
    p.add_argument("--top", type=int, default=50, help="words per cloud")
    p.add_argument("--out", default=None, help="output file (single cluster only)")
    p.add_argument("--outdir", default=None, help="output directory (default: the run dir)")
    p.set_defaults(func=cmd_wordcloud)

    p = sub.add_parser("contrast", help="two-period contrast cloud around a boundary date")
    p.add_argument("--corpus", required=True)
    p.add_argument("--boundary", required=True, help="ISO date; documents on/after it are 'after'")
    p.add_argument("--out", required=True)
    _add_config_flags(p, "--delta")
    p.add_argument("--top", type=int, default=50, help="words per half")
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
    _add_config_flags(p, "--delta")
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
