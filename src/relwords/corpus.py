"""Load, normalize, persist, and partition document collections.

The canonical on-disk corpus format is JSON-lines with one object per line,
``{"id": ..., "text": ..., "date": ...}`` (date optional, other keys
ignored). Document order in a corpus is stable and is the index order used
by every downstream stage.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import tempfile
import time
import warnings
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path
from typing import Iterator

API_KEY_ENV_VAR = "RELWORDS_API_KEY"

# Archive requests: seconds before a request times out, attempts per month,
# and the first retry's delay in seconds, doubled after each further failure.
_FETCH_TIMEOUT = 30.0
_FETCH_ATTEMPTS = 3
_FETCH_BACKOFF = 0.5


def parse_timestamp(value: str) -> datetime:
    """Parse an ISO-8601 date or datetime string.

    Timezone-aware values are converted to UTC and returned naive so that
    timestamps from mixed sources stay mutually comparable.
    """
    raw = value.strip()
    if raw.endswith(("Z", "z")):  # fromisoformat reads "Z" and "+0000", not "z"
        raw = raw[:-1] + "+00:00"
    ts = datetime.fromisoformat(raw)
    if ts.tzinfo is not None:
        ts = ts.astimezone(timezone.utc).replace(tzinfo=None)
    return ts


@dataclass(frozen=True)
class Document:
    """One raw text with a unique id and optional timestamp."""

    id: str
    text: str
    timestamp: datetime | None = None

    def __post_init__(self) -> None:
        if not self.id:
            raise ValueError("document id must be non-empty")
        if "\r" in self.id:
            # csv.writer leaves a bare "\r" unquoted, which would split
            # this document's row in labels.csv.
            raise ValueError(f"document id holds a carriage return: {self.id!r}")
        if not self.text.strip():
            raise ValueError(f"document {self.id!r}: empty text")


@dataclass(frozen=True)
class Corpus:
    """An ordered, immutable collection of documents.

    The element order is canonical: row k of every downstream matrix refers
    to ``docs[k]``.
    """

    docs: tuple[Document, ...]

    def __post_init__(self) -> None:
        if not isinstance(self.docs, tuple):
            object.__setattr__(self, "docs", tuple(self.docs))
        if not self.docs:
            raise ValueError("empty corpus")
        seen: set[str] = set()
        for doc in self.docs:
            if doc.id in seen:
                raise ValueError(f"duplicate document id: {doc.id!r}")
            seen.add(doc.id)

    def __len__(self) -> int:
        return len(self.docs)

    def __iter__(self):
        return iter(self.docs)

    def ids(self) -> tuple[str, ...]:
        return tuple(doc.id for doc in self.docs)

    def timestamps(self) -> tuple[datetime, ...]:
        """Every document's timestamp; raises ValueError naming how many
        documents have none and the first five of them."""
        missing = [doc.id for doc in self.docs if doc.timestamp is None]
        if missing:
            more = ", ..." if len(missing) > 5 else ""
            raise ValueError(
                f"{len(missing)} document(s) without timestamps: {', '.join(missing[:5])}{more}"
            )
        return tuple(doc.timestamp for doc in self.docs)


def jsonl_lines(data: bytes, where: str = "") -> Iterator[tuple[int, str]]:
    """(line number, line) for each line of a JSON-lines file's bytes that is
    not blank, numbering lines from 1.

    Raises ValueError naming the line, after ``where`` (the file's name and
    ": ", or nothing), for a line that is not UTF-8.
    """
    # bytes.splitlines() breaks only at "\n", "\r\n" and "\r", as a text-mode
    # read does; str.splitlines() would also break inside a JSON string, at
    # characters such as "\x1c" or "\u2028".
    for lineno, raw in enumerate(data.splitlines(), start=1):
        try:
            line = raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ValueError(f"{where}line {lineno}: not UTF-8: {exc}") from exc
        if line.strip():
            yield lineno, line


def parse_document(
    line: str,
    *,
    id_field: str = "id",
    text_field: str = "text",
    date_field: str = "date",
) -> Document:
    """The document one JSON-lines line holds.

    Raises ValueError for malformed JSON, a value that is not an object,
    missing, null or empty id/text fields, an unparseable date, and
    whatever ``Document`` refuses.
    """
    try:
        record = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ValueError(f"malformed JSON: {exc}") from exc
    if not isinstance(record, dict):
        raise ValueError("expected a JSON object")
    for name in (id_field, text_field):
        if name not in record:
            raise ValueError(f"missing {name!r} field")
    if record[id_field] in (None, ""):
        raise ValueError(f"empty {id_field!r} field")
    doc_id = str(record[id_field])
    text = record[text_field]
    if not isinstance(text, str) or not text.strip():
        raise ValueError(f"empty {text_field!r} field")
    timestamp = None
    if record.get(date_field) is not None:
        try:
            timestamp = parse_timestamp(str(record[date_field]))
        except ValueError as exc:
            raise ValueError(f"bad {date_field!r} value: {exc}") from exc
    return Document(id=doc_id, text=text, timestamp=timestamp)


def load_jsonl(
    source: str | Path | bytes,
    *,
    id_field: str = "id",
    text_field: str = "text",
    date_field: str = "date",
) -> Corpus:
    """Read a JSON-lines corpus, preserving line order.

    ``source`` is the file's path, or its bytes when the caller has read
    them to hash (so that what is hashed is what is parsed).

    Raises ValueError naming the offending line (and the file, given its
    path) for a line that is not UTF-8 or that ``parse_document`` refuses;
    duplicate ids are rejected with the id in the message.
    """
    if isinstance(source, bytes):
        where, data = "", source
    else:
        where, data = f"{Path(source)}: ", Path(source).read_bytes()
    docs: list[Document] = []
    for lineno, line in jsonl_lines(data, where):
        try:
            doc = parse_document(line, id_field=id_field, text_field=text_field, date_field=date_field)
        except ValueError as exc:
            raise ValueError(f"{where}line {lineno}: {exc}") from exc
        docs.append(doc)
    return Corpus(tuple(docs))


def save_jsonl(corpus: Corpus, path: str | Path) -> None:
    """Write a corpus in the canonical JSON-lines format (UTF-8)."""
    path = Path(path)
    with path.open("w", encoding="utf-8", newline="\n") as handle:
        for doc in corpus.docs:
            record: dict[str, object] = {"id": doc.id, "text": doc.text}
            if doc.timestamp is not None:
                record["date"] = doc.timestamp.isoformat()
            handle.write(json.dumps(record, ensure_ascii=False) + "\n")


def load_dir(path: str | Path) -> Corpus:
    """Build a corpus from the plain-text files under a directory.

    One document per file (recursively), id = relative file path, files
    ordered lexicographically by that path.
    """
    root = Path(path)
    if not root.is_dir():
        raise FileNotFoundError(f"not a directory: {root}")
    files = sorted(
        (p for p in root.rglob("*") if p.is_file()),
        key=lambda p: p.relative_to(root).as_posix(),
    )
    docs = []
    for file_path in files:
        rel = file_path.relative_to(root).as_posix()
        try:
            text = file_path.read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as exc:
            raise ValueError(f"unreadable file: {file_path}: {exc}") from exc
        if not text.strip():
            raise ValueError(f"{file_path}: empty document text")
        docs.append(Document(id=rel, text=text))
    return Corpus(tuple(docs))


def month_range(spec: str) -> list[tuple[int, int]]:
    """Parse a month list like ``2017-01``, ``2016-12..2017-02``, or a
    comma-separated mix of both, into (year, month) pairs in the order given.
    A range running backwards, or a month given twice (directly or by
    overlapping ranges), is an error naming it."""
    months: list[tuple[int, int]] = []
    for part in filter(None, map(str.strip, spec.split(","))):
        lo, dots, hi = part.partition("..")
        year, month = start = _parse_month(lo)
        end = _parse_month(hi) if dots else start
        if start > end:
            raise ValueError(f"reversed month range: {part!r} (start after end)")
        while (year, month) <= end:
            if (year, month) in months:
                raise ValueError(f"month given twice: {year:04d}-{month:02d} (again in {part!r})")
            months.append((year, month))
            year, month = (year + 1, 1) if month == 12 else (year, month + 1)
    if not months:
        raise ValueError(f"no months in range spec: {spec!r}")
    return months


def _parse_month(text: str) -> tuple[int, int]:
    match = re.fullmatch(r"(\d{4})-(\d{1,2})", text.strip())
    if not match or not 1 <= int(match.group(2)) <= 12:
        raise ValueError(f"bad month (expected YYYY-MM): {text!r}")
    return int(match.group(1)), int(match.group(2))


def fetch_archive(
    endpoint: str,
    months: list[tuple[int, int]],
    *,
    api_key: str | None = None,
    cache_dir: str | Path = "archive_cache",
) -> Corpus:
    """Fetch article snippets from a monthly archive HTTP API.

    ``endpoint`` is a URL template with ``{year}``, ``{month}``, and ``{key}``
    placeholders. Raw responses are cached on disk keyed by (endpoint, month)
    so reruns need no network. Expected response shape::

        {"response": {"docs": [{"_id": ..., "snippet": ..., "pub_date": ...}, ...]}}
    """
    key = api_key if api_key is not None else os.environ.get(API_KEY_ENV_VAR, "")
    cache_root = Path(cache_dir)
    cache_root.mkdir(parents=True, exist_ok=True)
    docs: list[Document] = []
    dropped = 0
    for year, month in months:
        month_docs, month_dropped = _fetch_month(endpoint, year, month, key, cache_root)
        docs += month_docs
        dropped += month_dropped
    if dropped:
        warnings.warn(f"dropped {dropped} archive items with empty snippets")
    docs.sort(key=lambda d: (d.timestamp, d.id))
    return Corpus(tuple(docs))


def _month_documents(payload) -> tuple[list[Document], int]:
    """The documents of one month's archive response, and how many of its
    items have an empty snippet and are dropped. Raises ValueError for a
    response without its ``response.docs`` list, or an item that lacks a
    field or holds no valid document."""
    response = payload.get("response") if isinstance(payload, dict) else None
    if not isinstance(response, dict):
        raise ValueError("archive response missing field 'response'")
    items = response.get("docs")
    if not isinstance(items, list):
        raise ValueError("archive response missing field 'response.docs'")
    docs: list[Document] = []
    dropped = 0
    for item in items:
        for name in ("_id", "snippet", "pub_date"):
            if not isinstance(item, dict) or name not in item:
                raise ValueError(f"archive response missing field {name!r}")
        snippet = item["snippet"]
        if not isinstance(snippet, str) or not snippet.strip():
            dropped += 1
            continue
        try:
            timestamp = parse_timestamp(str(item["pub_date"]))
        except ValueError as exc:
            raise ValueError(f"archive item {item['_id']!r}: bad 'pub_date' value: {exc}") from exc
        docs.append(Document(id=str(item["_id"]), text=snippet, timestamp=timestamp))
    return docs, dropped


def _cache_path(cache_root: Path, endpoint: str, year: int, month: int) -> Path:
    digest = hashlib.sha256(endpoint.encode("utf-8")).hexdigest()[:12]
    return cache_root / f"{digest}-{year:04d}-{month:02d}.json"


def _http_get(url: str, timeout: float) -> tuple[int, bytes]:
    """(status, body) of a GET for every HTTP status; network failures raise OSError."""
    # Imported here, not at the top: urllib.request loads http.client, email
    # and ssl, ~36 ms that only fetch needs.
    import urllib.error
    import urllib.request

    try:
        with urllib.request.urlopen(url, timeout=timeout) as resp:
            return resp.status, resp.read()
    except urllib.error.HTTPError as exc:
        with exc:
            return exc.code, exc.read()


def _fetch_month(
    endpoint: str, year: int, month: int, key: str, cache_root: Path
) -> tuple[list[Document], int]:
    """``_month_documents`` of the month's cache file, or of its response,
    which is cached only once they are made."""
    from http.client import HTTPException  # as urllib.request, only fetch needs it

    cached = _cache_path(cache_root, endpoint, year, month)
    if cached.exists():
        try:
            return _month_documents(json.loads(cached.read_text(encoding="utf-8")))
        except ValueError as exc:  # not UTF-8, not JSON, or not an archive response
            where = f"archive cache file for {year:04d}-{month:02d}: {cached}"
            raise ValueError(f"damaged {where}: {exc}; delete it to fetch again") from exc
    url = endpoint.format(year=year, month=month, key=key)
    last_error: Exception | None = None
    for attempt in range(_FETCH_ATTEMPTS):
        try:
            status, body = _http_get(url, _FETCH_TIMEOUT)
        except (OSError, HTTPException) as exc:
            last_error = exc
        else:
            if status in (401, 403):
                detail = body.decode("utf-8", errors="replace")
                raise RuntimeError(f"archive authentication failed ({status}): {detail}")
            if status != 200:
                shown = endpoint.format(year=year, month=month, key="***")  # no credential in messages
                last_error = RuntimeError(f"HTTP {status} from {shown}")
            else:
                try:
                    payload = json.loads(body)
                except ValueError as exc:
                    last_error = ValueError(f"HTTP 200 with a non-JSON body ({exc})")
                else:
                    try:
                        month_docs = _month_documents(payload)  # validate before caching
                    except ValueError as exc:
                        raise ValueError(f"archive response for {year:04d}-{month:02d}: {exc}") from exc
                    _atomic_write(cached, json.dumps(payload, ensure_ascii=False))
                    return month_docs
        if attempt < _FETCH_ATTEMPTS - 1:
            time.sleep(_FETCH_BACKOFF * (2**attempt))
    raise RuntimeError(f"archive fetch failed for {year:04d}-{month:02d}: {last_error}")


def _atomic_write(path: Path, content: str) -> None:
    fd, tmp_name = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(content)
        os.replace(tmp_name, path)
    except BaseException:
        if os.path.exists(tmp_name):
            os.unlink(tmp_name)
        raise


def split_by_period(corpus: Corpus, boundary: datetime) -> list[str]:
    """One period label per document: "after" for a timestamp >= boundary
    (half-open interval convention), "before" otherwise.

    The labels stand in for cluster labels in contrast scoring.
    """
    return ["after" if ts >= boundary else "before" for ts in corpus.timestamps()]
