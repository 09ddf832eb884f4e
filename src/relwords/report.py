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
from math import ceil, cos, hypot, inf, isfinite, sin
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
# Live spiral steps a word tests first against every placed box; each
# further chunk is twice the last. On 40 clouds of 50 words, 32 and 64 were
# even and faster than 8, 16 and 128.
_FIRST_CHUNK = 32


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


def _clear(px: np.ndarray, py: np.ndarray, half_w: float, half_h: float, boxes: np.ndarray) -> np.ndarray:
    """Per step (px, py): whether the box of these half sizes centred there
    overlaps none of ``boxes`` (rows x0, y0, x1, y1); touching is allowed."""
    b0, b1, b2, b3 = boxes[:, :, None]
    return ((px + half_w <= b0) | (b2 <= px - half_w) | (py + half_h <= b1) | (b3 <= py - half_h)).all(axis=0)


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
    warning. A top_k below 1 is rejected, and so is a NaN or infinite score
    among the top k, naming its word. With no positive score the cloud is
    the empty canvas. No randomness.
    """
    if top_k < 1:
        raise ValueError(f"top_k must be >= 1, got {top_k}")
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
    if span > 0.0:
        sizes = [MIN_FONT_PT + (MAX_FONT_PT - MIN_FONT_PT) * (w - w_min) / span for w in weights]
    else:
        sizes = [MAX_FONT_PT] * len(chosen)
    widths = [CHAR_ADVANCE * size * len(term) for size, (term, _) in zip(sizes, chosen)]
    # The smallest half width and half height among the words from each on.
    halves = np.array([(w / 2.0, h / 2.0) for w, h in zip(widths, sizes)] + [(inf, inf)])
    smallest = np.minimum.accumulate(halves[::-1])[::-1].tolist()

    # The canvas's surroundings as four boxes placed before any word: a box
    # overlaps one exactly where it crosses that edge of the canvas.
    placed = np.empty((4, 4 + len(chosen)))
    placed[:, :4] = np.transpose(
        [(-inf, -inf, 0.0, inf), (width, -inf, inf, inf), (-inf, -inf, inf, 0.0), (-inf, height, inf, inf)]
    )
    # The live spiral steps, in order: those some word still to come may
    # take. Each placed box drops the steps where the smallest box still to
    # come overlaps it; every such box is at least as large and rounding is
    # monotone, so each overlaps the placed box there too.
    xs, ys = _spiral(width, height)
    live = _clear(xs, ys, *smallest[0], placed[:, :4])
    px, py = xs[live], ys[live]
    entries: list[CloudEntry] = []
    for rank, (term, weight) in enumerate(chosen):
        size, box_w = sizes[rank], widths[rank]
        box_h = size
        if box_w > width or box_h > height:
            warnings.warn(f"word {term!r} does not fit the canvas; skipped")
            continue
        half_w, half_h = box_w / 2.0, box_h / 2.0
        # The first live step where the box is clear, in doubling chunks.
        boxes = placed[:, : 4 + len(entries)]
        step, start, chunk = None, 0, _FIRST_CHUNK
        while step is None and start < px.size:
            free = _clear(px[start : start + chunk], py[start : start + chunk], half_w, half_h, boxes)
            if free.any():
                step = start + int(free.argmax())
            start, chunk = start + chunk, 2 * chunk
        if step is None:
            warnings.warn(f"no free position for word {term!r}; skipped")
            continue
        x, y = float(px[step]), float(py[step])
        new = 4 + len(entries)
        placed[:, new] = x - half_w, y - half_h, x + half_w, y + half_h
        live = _clear(px, py, *smallest[rank + 1], placed[:, new : new + 1])
        px, py = px[live], py[live]
        entries.append(
            CloudEntry(
                term=term,
                weight=weight,
                font_size=size,
                x=x,
                y=y,
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
