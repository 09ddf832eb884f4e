import datetime
import json
import threading
import urllib.error
from http.server import BaseHTTPRequestHandler, HTTPServer

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import relwords.corpus as corpus_mod
from relwords.corpus import (
    Corpus,
    Document,
    fetch_archive,
    load_dir,
    load_jsonl,
    month_range,
    parse_timestamp,
    save_jsonl,
    split_by_period,
)


def write_jsonl(path, records):
    path.write_text("\n".join(json.dumps(r) for r in records) + "\n", encoding="utf-8")


class TestLoadJsonl:
    def test_preserves_line_order(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        write_jsonl(path, [{"id": i, "text": f"doc {i}"} for i in ("a", "b", "c")])
        corpus = load_jsonl(path)
        assert corpus.ids() == ("a", "b", "c")
        assert corpus.docs[1].text == "doc b"

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        path.write_text("", encoding="utf-8")
        with pytest.raises(ValueError, match="empty corpus"):
            load_jsonl(path)

    def test_missing_text_field_cites_line(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        write_jsonl(path, [{"id": "a", "text": "ok"}, {"id": "b"}, {"id": "c", "text": "ok"}])
        with pytest.raises(ValueError, match="line 2"):
            load_jsonl(path)

    def test_malformed_line_cites_line(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        path.write_text('{"id": "a", "text": "ok"}\nnot json\n', encoding="utf-8")
        with pytest.raises(ValueError, match="line 2.*malformed"):
            load_jsonl(path)

    def test_duplicate_id_named(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        write_jsonl(path, [{"id": "dup", "text": "x"}, {"id": "dup", "text": "y"}])
        with pytest.raises(ValueError, match="dup"):
            load_jsonl(path)

    def test_empty_text_rejected(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        write_jsonl(path, [{"id": "a", "text": "   "}])
        with pytest.raises(ValueError, match="line 1"):
            load_jsonl(path)

    @pytest.mark.parametrize("bad_id", ["", None])
    def test_empty_or_null_id_cites_line(self, tmp_path, bad_id):
        path = tmp_path / "corpus.jsonl"
        write_jsonl(path, [{"id": "a", "text": "ok"}, {"id": bad_id, "text": "ok"}])
        with pytest.raises(ValueError, match=r"corpus\.jsonl: line 2: empty 'id' field"):
            load_jsonl(path)

    def test_configurable_field_names(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        write_jsonl(path, [{"key": "a", "body": "hello", "when": "2017-01-05"}])
        corpus = load_jsonl(path, id_field="key", text_field="body", date_field="when")
        assert corpus.docs[0].id == "a"
        assert corpus.docs[0].timestamp == datetime.datetime(2017, 1, 5)

    def test_other_keys_ignored(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        write_jsonl(path, [{"id": "a", "text": "hello", "group": "before", "section": 3}])
        assert load_jsonl(path).docs == (Document(id="a", text="hello"),)


class TestRoundTrip:
    def test_full_record_round_trip(self, tmp_path):
        docs = (
            Document(id="a", text="first text", timestamp=parse_timestamp("2017-01-10T08:30:00")),
            Document(id="b", text="second\nwith newline"),
            Document(id="c", text="third: ünïcode"),
        )
        path = tmp_path / "corpus.jsonl"
        save_jsonl(Corpus(docs), path)
        loaded = load_jsonl(path)
        assert loaded.docs == docs

    @settings(max_examples=30, deadline=None)
    @given(
        texts=st.lists(
            st.text(
                alphabet=st.characters(blacklist_categories=("Cs",)), min_size=1, max_size=80
            ).filter(lambda s: s.strip()),
            min_size=1,
            max_size=8,
        )
    )
    def test_any_texts_survive_round_trip(self, tmp_path_factory, texts):
        docs = tuple(Document(id=f"d{i}", text=t) for i, t in enumerate(texts))
        path = tmp_path_factory.mktemp("rt") / "corpus.jsonl"
        save_jsonl(Corpus(docs), path)
        loaded = load_jsonl(path)
        assert loaded.ids() == tuple(f"d{i}" for i in range(len(texts)))
        assert [d.text for d in loaded.docs] == texts


class TestLoadDir:
    def test_lexicographic_order(self, tmp_path):
        (tmp_path / "b.txt").write_text("beta", encoding="utf-8")
        (tmp_path / "a.txt").write_text("alpha", encoding="utf-8")
        corpus = load_dir(tmp_path)
        assert corpus.ids() == ("a.txt", "b.txt")

    def test_empty_dir_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="empty corpus"):
            load_dir(tmp_path)

    def test_nested_files_get_relative_path_ids(self, tmp_path):
        (tmp_path / "sub").mkdir()
        (tmp_path / "sub" / "inner.txt").write_text("inner", encoding="utf-8")
        (tmp_path / "outer.txt").write_text("outer", encoding="utf-8")
        corpus = load_dir(tmp_path)
        assert corpus.ids() == ("outer.txt", "sub/inner.txt")

    def test_unreadable_file_named(self, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_bytes(b"\xff\xfe\xff")
        with pytest.raises(ValueError, match="bad.txt"):
            load_dir(tmp_path)


class TestSplitByPeriod:
    def test_boundary_splits_before_and_after(self):
        corpus = Corpus(
            (
                Document(id="early", text="x", timestamp=parse_timestamp("2017-01-10")),
                Document(id="late", text="y", timestamp=parse_timestamp("2017-01-18")),
            )
        )
        assert split_by_period(corpus, parse_timestamp("2017-01-16")) == ["before", "after"]

    def test_timestamp_equal_to_boundary_goes_after(self):
        corpus = Corpus(
            (Document(id="edge", text="x", timestamp=parse_timestamp("2017-01-16")),)
        )
        assert split_by_period(corpus, parse_timestamp("2017-01-16")) == ["after"]

    def test_missing_timestamps_listed(self):
        corpus = Corpus(
            (
                Document(id="ok", text="x", timestamp=parse_timestamp("2017-01-10")),
                Document(id="nodate1", text="y"),
                Document(id="nodate2", text="z"),
            )
        )
        with pytest.raises(ValueError, match="nodate1, nodate2"):
            split_by_period(corpus, parse_timestamp("2017-01-16"))

    def test_many_missing_timestamps_counted_not_listed(self):
        corpus = Corpus(tuple(Document(id=f"doc-{i:06d}", text="x") for i in range(2000)))
        with pytest.raises(ValueError) as info:
            corpus.timestamps()
        message = str(info.value)
        assert "2000" in message
        assert "doc-000000" in message and "doc-000004" in message
        assert "doc-000005" not in message
        assert len(message.encode("utf-8")) < 300

    def test_partition_covers_every_document(self):
        docs = tuple(
            Document(id=f"d{i}", text="x", timestamp=parse_timestamp(f"2017-01-{i + 1:02d}"))
            for i in range(20)
        )
        periods = split_by_period(Corpus(docs), parse_timestamp("2017-01-08"))
        assert periods == ["before"] * 7 + ["after"] * 13


def response(status=200, payload=None, body=None):
    """What ``corpus._http_get`` returns: (status, body bytes)."""
    if body is None:
        body = json.dumps(payload or {}).encode("utf-8")
    return status, body


def archive_payload(items):
    return {"response": {"docs": items}}


def archive_item(doc_id, text, when):
    return {"_id": doc_id, "snippet": text, "pub_date": when}


class TestFetchArchive:
    ENDPOINT = "https://archive.example/{year}/{month}.json?api-key={key}"

    def test_cache_hit_makes_no_network_call(self, tmp_path, monkeypatch):
        payload = archive_payload([archive_item("a1", "cached text", "2017-01-03T00:00:00+0000")])
        cache = corpus_mod._cache_path(tmp_path, self.ENDPOINT, 2017, 1)
        cache.write_text(json.dumps(payload), encoding="utf-8")

        def no_network(*args, **kwargs):
            raise AssertionError("network call on cache hit")

        monkeypatch.setattr(corpus_mod, "_http_get", no_network)
        corpus = fetch_archive(self.ENDPOINT, [(2017, 1)], api_key="k", cache_dir=tmp_path)
        assert corpus.ids() == ("a1",)
        assert corpus.docs[0].text == "cached text"

    def test_two_month_range_sorted_by_timestamp(self, tmp_path, monkeypatch):
        by_month = {
            (2016, 12): archive_payload([archive_item("dec", "december", "2016-12-20T10:00:00+0000")]),
            (2017, 1): archive_payload([archive_item("jan", "january", "2017-01-05T10:00:00+0000")]),
        }

        def fake_get(url, timeout):
            for (year, month), payload in by_month.items():
                if f"/{year}/{month}.json" in url:
                    return response(payload=payload)
            raise AssertionError(url)

        monkeypatch.setattr(corpus_mod, "_http_get", fake_get)
        corpus = fetch_archive(
            self.ENDPOINT, [(2017, 1), (2016, 12)], api_key="k", cache_dir=tmp_path
        )
        assert corpus.ids() == ("dec", "jan")
        # second run is served from cache
        monkeypatch.setattr(corpus_mod, "_http_get", lambda *a, **k: pytest.fail("network"))
        again = fetch_archive(self.ENDPOINT, [(2017, 1), (2016, 12)], api_key="k", cache_dir=tmp_path)
        assert again.ids() == corpus.ids()

    def test_invalid_credential_surfaced(self, tmp_path, monkeypatch):
        monkeypatch.setattr(
            corpus_mod,
            "_http_get",
            lambda url, timeout: response(401, body=b"invalid api key"),
        )
        with pytest.raises(RuntimeError, match="invalid api key"):
            fetch_archive(self.ENDPOINT, [(2017, 1)], api_key="bad", cache_dir=tmp_path)

    def test_retries_with_backoff_then_succeeds(self, tmp_path, monkeypatch):
        calls = {"n": 0}
        payload = archive_payload([archive_item("a1", "late success", "2017-01-03T00:00:00+0000")])

        def flaky_get(url, timeout):
            calls["n"] += 1
            if calls["n"] < 3:
                return response(503)
            return response(payload=payload)

        delays = []
        monkeypatch.setattr(corpus_mod, "_http_get", flaky_get)
        monkeypatch.setattr(corpus_mod.time, "sleep", delays.append)
        corpus = fetch_archive(self.ENDPOINT, [(2017, 1)], api_key="k", cache_dir=tmp_path)
        assert corpus.docs[0].text == "late success"
        assert calls["n"] == 3
        assert delays == [0.5, 1.0]  # exponential backoff

    def test_gives_up_after_bounded_retries(self, tmp_path, monkeypatch):
        monkeypatch.setattr(
            corpus_mod, "_http_get", lambda url, timeout: response(500)
        )
        monkeypatch.setattr(corpus_mod.time, "sleep", lambda s: None)
        with pytest.raises(RuntimeError, match="HTTP 500"):
            fetch_archive(self.ENDPOINT, [(2017, 1)], api_key="k", cache_dir=tmp_path)

    def test_non_json_body_retried_then_succeeds(self, tmp_path, monkeypatch):
        payload = archive_payload([archive_item("a1", "second try", "2017-01-03T00:00:00+0000")])
        replies = [response(body=b"<html>gateway hiccup</html>"), response(payload=payload)]
        delays = []
        monkeypatch.setattr(corpus_mod, "_http_get", lambda url, timeout: replies.pop(0))
        monkeypatch.setattr(corpus_mod.time, "sleep", delays.append)
        corpus = fetch_archive(self.ENDPOINT, [(2017, 1)], api_key="k", cache_dir=tmp_path)
        assert corpus.docs[0].text == "second try"
        assert delays == [0.5]
        cached = corpus_mod._cache_path(tmp_path, self.ENDPOINT, 2017, 1)
        assert json.loads(cached.read_text(encoding="utf-8")) == payload

    def test_non_json_body_gives_up_naming_month(self, tmp_path, monkeypatch):
        calls = []

        def html_get(url, timeout):
            calls.append(url)
            return response(body=b"<html>maintenance</html>")

        monkeypatch.setattr(corpus_mod, "_http_get", html_get)
        monkeypatch.setattr(corpus_mod.time, "sleep", lambda s: None)
        with pytest.raises(RuntimeError, match="2017-01: .*non-JSON body"):
            fetch_archive(self.ENDPOINT, [(2017, 1)], api_key="k", cache_dir=tmp_path)
        assert len(calls) == 3
        assert not corpus_mod._cache_path(tmp_path, self.ENDPOINT, 2017, 1).exists()

    def test_connection_error_retried(self, tmp_path, monkeypatch):
        payload = archive_payload([archive_item("a1", "reconnected", "2017-01-03T00:00:00+0000")])
        replies = [urllib.error.URLError("connection refused"), TimeoutError("timed out")]

        def failing_get(url, timeout):
            if replies:
                raise replies.pop(0)
            return response(payload=payload)

        monkeypatch.setattr(corpus_mod, "_http_get", failing_get)
        monkeypatch.setattr(corpus_mod.time, "sleep", lambda s: None)
        corpus = fetch_archive(self.ENDPOINT, [(2017, 1)], api_key="k", cache_dir=tmp_path)
        assert corpus.docs[0].text == "reconnected"

    @pytest.mark.parametrize(
        "error,shown",
        [
            (None, "HTTP 500 from https://archive.example/2017/1.json?api-key=***"),
            (urllib.error.URLError("connection refused"), "connection refused"),
        ],
        ids=["http-status", "os-error"],
    )
    def test_gave_up_message_hides_the_api_key(self, tmp_path, monkeypatch, error, shown):
        requested = []

        def failing_get(url, timeout):
            requested.append(url)
            if error is not None:
                raise error
            return response(500)

        monkeypatch.setattr(corpus_mod, "_http_get", failing_get)
        monkeypatch.setattr(corpus_mod.time, "sleep", lambda s: None)
        with pytest.raises(RuntimeError, match="archive fetch failed for 2017-01") as caught:
            fetch_archive(self.ENDPOINT, [(2017, 1)], api_key="SECRET123", cache_dir=tmp_path)
        assert "SECRET123" not in str(caught.value)
        assert shown in str(caught.value)
        assert requested == ["https://archive.example/2017/1.json?api-key=SECRET123"] * 3

    @pytest.mark.parametrize(
        "content,cause",
        [
            ('{"response": {"docs": [', "Expecting value: line 1 column 24"),
            ("", "Expecting value: line 1 column 1"),
            ('{"response": {"notdocs": []}}', "missing field 'response.docs'"),
            ("[1, 2]", "missing field 'response'"),
            ('{"response": {"docs": [{"_id": "a1", "snippet": "text"}]}}', "missing field 'pub_date'"),
            (
                '{"response": {"docs": [{"_id": "a1", "snippet": "text", "pub_date": "soon"}]}}',
                "archive item 'a1': bad 'pub_date' value",
            ),
        ],
    )
    def test_damaged_cache_file_named_not_refetched(self, tmp_path, monkeypatch, content, cause):
        cache = corpus_mod._cache_path(tmp_path, self.ENDPOINT, 2017, 1)
        cache.write_text(content, encoding="utf-8")
        monkeypatch.setattr(corpus_mod, "_http_get", lambda *a, **k: pytest.fail("refetched"))
        with pytest.raises(ValueError) as caught:
            fetch_archive(self.ENDPOINT, [(2017, 1)], api_key="k", cache_dir=tmp_path)
        message = str(caught.value)
        assert str(cache) in message and "2017-01" in message and cause in message
        assert message.endswith("delete it to fetch again")
        assert cache.read_text(encoding="utf-8") == content  # left as it was

    def test_schema_mismatch_names_missing_field(self, tmp_path, monkeypatch):
        monkeypatch.setattr(
            corpus_mod,
            "_http_get",
            lambda url, timeout: response(payload={"response": {"notdocs": []}}),
        )
        with pytest.raises(ValueError, match="response.docs"):
            fetch_archive(self.ENDPOINT, [(2017, 1)], api_key="k", cache_dir=tmp_path)

    def test_item_missing_field_named(self, tmp_path, monkeypatch):
        payload = archive_payload([{"_id": "a1", "snippet": "text"}])
        monkeypatch.setattr(
            corpus_mod, "_http_get", lambda url, timeout: response(payload=payload)
        )
        with pytest.raises(ValueError, match="pub_date") as caught:
            fetch_archive(self.ENDPOINT, [(2017, 1)], api_key="k", cache_dir=tmp_path)
        assert "2017-01" in str(caught.value)
        assert not corpus_mod._cache_path(tmp_path, self.ENDPOINT, 2017, 1).exists()

    def test_credential_from_environment(self, tmp_path, monkeypatch):
        seen_urls = []
        payload = archive_payload([archive_item("a1", "txt", "2017-01-03T00:00:00+0000")])

        def capture_get(url, timeout):
            seen_urls.append(url)
            return response(payload=payload)

        monkeypatch.setattr(corpus_mod, "_http_get", capture_get)
        monkeypatch.setenv("RELWORDS_API_KEY", "env-secret")
        fetch_archive(self.ENDPOINT, [(2017, 1)], cache_dir=tmp_path)
        assert seen_urls == ["https://archive.example/2017/1.json?api-key=env-secret"]

    def test_empty_snippets_dropped_with_warning(self, tmp_path, monkeypatch):
        payload = archive_payload(
            [
                archive_item("a1", "kept", "2017-01-03T00:00:00+0000"),
                archive_item("a2", "   ", "2017-01-04T00:00:00+0000"),
            ]
        )
        monkeypatch.setattr(
            corpus_mod, "_http_get", lambda url, timeout: response(payload=payload)
        )
        with pytest.warns(UserWarning, match="empty snippets"):
            corpus = fetch_archive(self.ENDPOINT, [(2017, 1)], api_key="k", cache_dir=tmp_path)
        assert corpus.ids() == ("a1",)

    def test_empty_snippets_warned_once_over_cached_and_fetched_months(self, tmp_path, monkeypatch):
        cached = archive_payload([archive_item("dec", " ", "2016-12-20T10:00:00+0000")])
        corpus_mod._cache_path(tmp_path, self.ENDPOINT, 2016, 12).write_text(json.dumps(cached))
        fetched = archive_payload(
            [archive_item("jan", "kept", "2017-01-05T10:00:00+0000"), archive_item("x", "", "2017-01-06")]
        )
        monkeypatch.setattr(corpus_mod, "_http_get", lambda url, timeout: response(payload=fetched))
        with pytest.warns(UserWarning) as caught:
            corpus = fetch_archive(self.ENDPOINT, [(2016, 12), (2017, 1)], api_key="k", cache_dir=tmp_path)
        assert [str(w.message) for w in caught] == ["dropped 2 archive items with empty snippets"]
        assert corpus.ids() == ("jan",)


class _Handler(BaseHTTPRequestHandler):
    def do_GET(self):
        status = 200 if self.path == "/ok" else 404
        self.send_response(status)
        self.end_headers()
        self.wfile.write(f"body of {self.path}".encode("utf-8"))

    def log_message(self, *args):
        pass


def test_http_get_returns_status_and_body_for_any_status(monkeypatch):
    monkeypatch.setenv("no_proxy", "*")  # the server is local
    server = HTTPServer(("127.0.0.1", 0), _Handler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    base = f"http://127.0.0.1:{server.server_address[1]}"
    try:
        assert corpus_mod._http_get(f"{base}/ok", timeout=5) == (200, b"body of /ok")
        assert corpus_mod._http_get(f"{base}/gone", timeout=5) == (404, b"body of /gone")
    finally:
        server.shutdown()
        server.server_close()
        thread.join()


class TestParseHelpers:
    def test_parse_timestamp_variants(self):
        assert parse_timestamp("2017-01-20") == datetime.datetime(2017, 1, 20)
        assert parse_timestamp("2017-01-20T14:30:00Z") == datetime.datetime(2017, 1, 20, 14, 30)
        assert parse_timestamp("2017-01-20T14:30:00+0000") == datetime.datetime(2017, 1, 20, 14, 30)
        assert parse_timestamp("2017-01-20T15:30:00+01:00") == datetime.datetime(2017, 1, 20, 14, 30)

    def test_month_range(self):
        assert month_range("2017-01") == [(2017, 1)]
        assert month_range("2016-11..2017-01") == [(2016, 11), (2016, 12), (2017, 1)]
        assert month_range("2016-12,2017-02") == [(2016, 12), (2017, 2)]
        with pytest.raises(ValueError):
            month_range("2017-13")

    def test_month_range_rejects_a_reversed_range_naming_it(self):
        with pytest.raises(ValueError, match=r"reversed month range: '2017-03\.\.2017-01'"):
            month_range("2017-03..2017-01,2017-05")
        assert month_range("2017-03..2017-03") == [(2017, 3)]

    @pytest.mark.parametrize(
        "spec,month",
        [
            ("2017-01..2017-02,2017-02", "2017-02"),  # a month and a range holding it
            ("2017-02,2017-2", "2017-02"),  # one month, spelled twice
            ("2016-11..2017-01,2016-12..2017-03", "2016-12"),  # overlapping ranges
            ("2017-05,2017-01..2017-06", "2017-05"),  # a month, then a range holding it
        ],
    )
    def test_month_range_rejects_a_month_given_twice_naming_it(self, spec, month):
        with pytest.raises(ValueError, match=f"month given twice: {month}"):
            month_range(spec)

    def test_corpus_rejects_duplicate_ids(self):
        with pytest.raises(ValueError, match="dup"):
            Corpus((Document(id="dup", text="a"), Document(id="dup", text="b")))
