"""Static report artifacts: word clouds, contrast clouds, per-document
highlighting, and term-frequency-over-time tables.

Everything here is deterministic: identical inputs produce byte-identical
SVG/HTML/CSV files. Word-cloud geometry uses a fixed-metric approximation
(character advance = 0.6 * font size) instead of real font metrics, which
keeps the layout dependency-free and verifiable.
"""

from __future__ import annotations

import html
import warnings
from dataclasses import dataclass, replace
from datetime import date, timedelta
from functools import lru_cache
from math import ceil, cos, hypot, isfinite, sin
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .corpus import Corpus, Document
from .features import group_doc_freq, term_counts
from .relevance import ClusterKey, RelevanceTable
from .text import TokenIds, token_spans

MIN_FONT_PT = 10.0
MAX_FONT_PT = 48.0
CHAR_ADVANCE = 0.6  # box width per character, in units of font size

CANVAS_WIDTH = 800
CANVAS_HEIGHT = 600

GROUP_A_COLOR = "green"
GROUP_B_COLOR = "red"

_PALETTE = (
    "#1f77b4",
    "#ff7f0e",
    "#2ca02c",
    "#d62728",
    "#9467bd",
    "#8c564b",
    "#e377c2",
    "#7f7f7f",
    "#bcbd22",
    "#17becf",
)

_SPIRAL_STEP = 0.1  # radians between candidate positions
_SPIRAL_GROWTH = 1.0  # radius gained per radian
# Spiral positions tested together against every placed box: on 50-word
# clouds 64 was faster than 32, and than 128 in most runs.
_GROUP = 64


@dataclass(frozen=True)
class CloudEntry:
    term: str
    weight: float
    font_size: float
    x: float  # box center
    y: float
    color: str

    @property
    def box(self) -> tuple[float, float, float, float]:
        """Axis-aligned bounding box (x0, y0, x1, y1)."""
        half_w = CHAR_ADVANCE * self.font_size * len(self.term) / 2.0
        half_h = self.font_size / 2.0
        return (self.x - half_w, self.y - half_h, self.x + half_w, self.y + half_h)


@dataclass(frozen=True)
class WordCloudSpec:
    entries: tuple[CloudEntry, ...]
    width: int
    height: int


@lru_cache(maxsize=8)
def _spiral(width: int, height: int) -> tuple[np.ndarray, np.ndarray]:
    """The x and y of the spiral positions, from the canvas center out to
    its corners, in the order a word tries them.

    Computed with ``math.cos``/``math.sin`` one step at a time, because
    ``np.cos`` may differ in the last bit and move a word. The arrays are
    shared by every cloud of this size, so they are read-only.
    """
    center_x, center_y = width / 2.0, height / 2.0
    max_radius = hypot(width, height) / 2.0
    max_steps = ceil(max_radius / (_SPIRAL_GROWTH * _SPIRAL_STEP)) + 1
    xs, ys = np.empty(max_steps), np.empty(max_steps)
    for step in range(max_steps):
        theta = step * _SPIRAL_STEP
        radius = _SPIRAL_GROWTH * theta
        xs[step] = center_x + radius * cos(theta)
        ys[step] = center_y + radius * sin(theta)
    xs.flags.writeable = ys.flags.writeable = False
    return xs, ys


def layout_wordcloud(
    ranked: Sequence[tuple[str, float]],
    *,
    top_k: int = 50,
    width: int = CANVAS_WIDTH,
    height: int = CANVAS_HEIGHT,
    color: str | None = None,
) -> WordCloudSpec:
    """Place the top-k ranked words on an Archimedean spiral.

    Font size is affine in the word's score (MIN_FONT_PT..MAX_FONT_PT, or
    MAX_FONT_PT for all when scores are equal). Words are placed largest
    first; each takes the first spiral position from the canvas center where
    its bounding box fits inside the canvas without overlapping a placed box
    (touching edges are allowed). Words that fit nowhere are skipped with a
    warning. A NaN or infinite score among the top k is rejected, naming its
    word. With no positive score the cloud is the empty canvas. No
    randomness.
    """
    head = list(ranked)[:top_k]
    for term, weight in head:
        if not isfinite(weight):
            raise ValueError(f"word {term!r} has a non-finite score: {weight!r}")
    chosen = [(term, weight) for term, weight in head if weight > 0.0]
    if not chosen:
        return WordCloudSpec(entries=(), width=width, height=height)
    chosen.sort(key=lambda entry: -entry[1])  # stable: ties keep ranking order
    weights = [w for _, w in chosen]
    w_min, w_max = min(weights), max(weights)
    span = w_max - w_min
    xs, ys = _spiral(width, height)

    # Per spiral position, the last placed box (x0, y0, x1, y1) found to
    # cover it, or an empty box at infinity. It only saves work: each word
    # tests its own box against it, so a position is ruled out only by a box
    # that covers it there, and taken only once no placed box does.
    last_box = np.empty((4, xs.size))
    last_box[:2], last_box[2:] = np.inf, -np.inf
    placed = np.empty((4, len(chosen)))
    entries: list[CloudEntry] = []
    for rank, (term, weight) in enumerate(chosen):
        if span > 0.0:
            size = MIN_FONT_PT + (MAX_FONT_PT - MIN_FONT_PT) * (weight - w_min) / span
        else:
            size = MAX_FONT_PT
        box_w = CHAR_ADVANCE * size * len(term)
        box_h = size
        if box_w > width or box_h > height:
            warnings.warn(f"word {term!r} does not fit the canvas; skipped")
            continue
        x0, y0 = xs - box_w / 2.0, ys - box_h / 2.0
        x1, y1 = xs + box_w / 2.0, ys + box_h / 2.0
        blocked = (x0 < 0) | (y0 < 0) | (x1 > width) | (y1 > height)
        l0, l1, l2, l3 = last_box
        blocked |= ~((x1 <= l0) | (l2 <= x0) | (y1 <= l1) | (l3 <= y0))
        # The positions left, in order, a group at a time against every box.
        b0, b1, b2, b3 = placed[:, : len(entries)]
        candidates = np.flatnonzero(~blocked)
        step = None
        for start in range(0, candidates.size, _GROUP):
            group = candidates[start : start + _GROUP]
            gx0, gy0, gx1, gy1 = x0[group, None], y0[group, None], x1[group, None], y1[group, None]
            hits = ~((gx1 <= b0) | (b2 <= gx0) | (gy1 <= b1) | (b3 <= gy0))
            covered = hits.any(axis=1)
            if covered.any():
                last_box[:, group[covered]] = placed[:, hits[covered].argmax(axis=1)]
            if not covered.all():
                step = int(group[covered.argmin()])
                break
        if step is None:
            warnings.warn(f"no free position for word {term!r}; skipped")
            continue
        placed[:, len(entries)] = x0[step], y0[step], x1[step], y1[step]
        entries.append(
            CloudEntry(
                term=term,
                weight=weight,
                font_size=size,
                x=float(xs[step]),
                y=float(ys[step]),
                color=color if color is not None else _PALETTE[rank % len(_PALETTE)],
            )
        )
    return WordCloudSpec(entries=tuple(entries), width=width, height=height)


def svg_markup(spec: WordCloudSpec, extra: Sequence[str] = ()) -> str:
    """Standalone SVG for a word-cloud spec; stable byte-for-byte."""
    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{spec.width}" '
        f'height="{spec.height}" viewBox="0 0 {spec.width} {spec.height}">',
        f'<rect width="{spec.width}" height="{spec.height}" fill="white"/>',
    ]
    lines.extend(extra)
    for entry in spec.entries:
        lines.append(
            f'<text x="{entry.x:.2f}" y="{entry.y:.2f}" font-size="{entry.font_size:.2f}" '
            f'font-family="sans-serif" text-anchor="middle" dominant-baseline="central" '
            f'fill="{entry.color}">{html.escape(entry.term, quote=False)}</text>'
        )
    lines.append("</svg>")
    return "\n".join(lines) + "\n"


def render_svg(spec: WordCloudSpec, path) -> None:
    Path(path).write_bytes(svg_markup(spec).encode("utf-8"))


def render_contrast_cloud(
    ranked_a: Sequence[tuple[str, float]], ranked_b: Sequence[tuple[str, float]], path, *, top_k: int = 50
) -> WordCloudSpec:
    """Two-group cloud on the canvas: group A green in the upper half, group
    B red in the lower half, each half sized independently; an empty ranking
    leaves its half empty."""
    half = CANVAS_HEIGHT // 2
    spec_a, spec_b = (
        layout_wordcloud(ranked, top_k=top_k, width=CANVAS_WIDTH, height=half, color=color)
        for ranked, color in ((ranked_a, GROUP_A_COLOR), (ranked_b, GROUP_B_COLOR))
    )
    entries = spec_a.entries + tuple(replace(e, y=e.y + half) for e in spec_b.entries)
    spec = WordCloudSpec(entries=entries, width=CANVAS_WIDTH, height=CANVAS_HEIGHT)
    divider = f'<line x1="0" y1="{half}" x2="{CANVAS_WIDTH}" y2="{half}" stroke="#cccccc" stroke-width="1"/>'
    Path(path).write_bytes(svg_markup(spec, extra=[divider]).encode("utf-8"))
    return spec


def highlight_html(
    doc: Document,
    selected: Iterable[tuple[str, str]],
    table: RelevanceTable,
    cluster: ClusterKey,
    path,
) -> None:
    """Write the document as HTML with its cluster's relevant words marked.

    ``selected`` are the run's bigrams: each token counts as the term
    ``token_spans`` gives it, a merged pair's two tokens as their joined
    term. Each token whose term scores above zero is wrapped in a span whose
    background opacity is the score; all other characters pass through
    untouched, so stripping the spans (and unescaping) restores the original
    text exactly.
    """
    row = table.r[table.cluster_position(cluster)]
    positive = np.flatnonzero(row > 0.0)
    scores = dict(zip([table.terms[i] for i in positive.tolist()], row[positive].tolist()))
    pieces: list[str] = []
    cursor = 0
    for start, end, term in token_spans(doc.text, selected):
        token_markup = html.escape(doc.text[start:end])
        if term in scores:
            style = f"background-color: rgba(255, 200, 0, {scores[term]:.4f})"
            token_markup = f'<span style="{style}">{token_markup}</span>'
        pieces += html.escape(doc.text[cursor:start]), token_markup
        cursor = end
    pieces.append(html.escape(doc.text[cursor:]))
    body = "".join(pieces)
    markup = (
        "<!DOCTYPE html>\n"
        '<html lang="en">\n<head>\n<meta charset="utf-8"/>\n'
        f"<title>{html.escape(doc.id)}</title>\n</head>\n<body>\n"
        f"<p>document <b>{html.escape(doc.id)}</b>, cluster {html.escape(str(cluster))}</p>\n"
        f'<div class="doc" style="white-space: pre-wrap; font-family: sans-serif;">'
        f"{body}</div>\n</body>\n</html>\n"
    )
    Path(path).write_bytes(markup.encode("utf-8"))


@dataclass(frozen=True)
class TrendTable:
    """Per (term, time bucket): document count and rate within the bucket."""

    terms: tuple[str, ...]
    starts: tuple[date, ...]
    totals: np.ndarray
    counts: np.ndarray
    rates: np.ndarray


def _bucket_start(when: date, bucket: str) -> date:
    if bucket == "day":
        return when
    if bucket == "week":
        return when - timedelta(days=when.weekday())
    raise ValueError(f"unknown bucket size: {bucket!r} (expected 'day' or 'week')")


def term_trends(
    corpus: Corpus,
    merged: TokenIds,
    terms: Sequence[str],
    bucket: str = "day",
) -> TrendTable:
    """Document-occurrence counts of selected terms per day or week.

    A term is one token, or two joined by ``_`` as a merged bigram is; any
    other term is rejected, since no token can equal it. Terms are
    lowercased as tokens are, and a term given twice is rejected.
    Buckets cover the corpus time span contiguously, including empty ones;
    the rate is the fraction of that bucket's documents containing the term
    (0 for empty buckets).
    """
    term_rows: dict[str, int] = {}
    for term in map(TokenIds.term, terms):
        if term in term_rows:
            raise ValueError(f"duplicate trend term: {term!r}")
        term_rows[term] = len(term_rows)
    step = timedelta(days=1 if bucket == "day" else 7)
    doc_buckets = [_bucket_start(ts.date(), bucket) for ts in corpus.timestamps()]
    first, last = min(doc_buckets), max(doc_buckets)
    starts: list[date] = []
    cursor = first
    while cursor <= last:
        starts.append(cursor)
        cursor += step
    bucket_of = np.array([(b - first) // step for b in doc_buckets], dtype=np.int64)
    totals = np.bincount(bucket_of, minlength=len(starts))
    counts = group_doc_freq(term_counts(merged, term_rows), bucket_of, len(starts)).T
    safe_totals = np.where(totals == 0, 1, totals)
    rates = counts / safe_totals
    return TrendTable(
        terms=tuple(term_rows),
        starts=tuple(starts),
        totals=totals,
        counts=counts,
        rates=rates,
    )


def write_trends_csv(table: TrendTable, path) -> None:
    """Dump as ``term,bucket_start,count,rate`` CSV."""
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write("term,bucket_start,count,rate\n")
        for i, term in enumerate(table.terms):
            for b, start in enumerate(table.starts):
                handle.write(
                    f"{term},{start.isoformat()},{int(table.counts[i, b])},"
                    f"{table.rates[i, b]:.12g}\n"
                )
