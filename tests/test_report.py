import html
import re
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from relwords.corpus import Corpus, Document, parse_timestamp
from relwords.features import build_vocabulary, term_counts
from relwords.relevance import build_occurrence_index, compute_relevance, score_final
from relwords.report import (
    GROUP_A_COLOR,
    GROUP_B_COLOR,
    MAX_FONT_PT,
    MIN_FONT_PT,
    CloudEntry,
    WordCloudSpec,
    highlight_html,
    layout_wordcloud,
    render_contrast_cloud,
    render_svg,
    svg_markup,
    term_trends,
    write_trends_csv,
)
from relwords.text import apply_bigrams, normalize_tokenize, token_ids

from oracles import layout_wordcloud_reference


def boxes_disjoint(entries):
    boxes = [e.box for e in entries]
    for i in range(len(boxes)):
        for j in range(i + 1, len(boxes)):
            a, b = boxes[i], boxes[j]
            if not (a[2] <= b[0] or b[2] <= a[0] or a[3] <= b[1] or b[3] <= a[1]):
                return False
    return True


class TestLayoutWordcloud:
    def test_single_word_centered_at_max_size(self):
        spec = layout_wordcloud([("inauguration", 1.0)], width=800, height=600)
        assert len(spec.entries) == 1
        entry = spec.entries[0]
        assert entry.font_size == MAX_FONT_PT
        assert (entry.x, entry.y) == (400.0, 300.0)

    def test_equal_scores_equal_sizes_no_overlap(self):
        spec = layout_wordcloud([("first", 0.5), ("second", 0.5)])
        sizes = {e.font_size for e in spec.entries}
        assert sizes == {MAX_FONT_PT}
        assert boxes_disjoint(spec.entries)

    def test_fifty_words_distinct_scores(self):
        ranked = [(f"word{i:02d}", 1.0 - i * 0.015) for i in range(50)]
        spec = layout_wordcloud(ranked, top_k=50)
        assert len(spec.entries) == 50
        assert boxes_disjoint(spec.entries)
        # font size monotone in score
        by_weight = sorted(spec.entries, key=lambda e: e.weight)
        sizes = [e.font_size for e in by_weight]
        assert all(a <= b for a, b in zip(sizes, sizes[1:]))
        # extreme scores hit the extreme sizes
        assert max(sizes) == MAX_FONT_PT and min(sizes) == MIN_FONT_PT

    def test_entries_stay_inside_canvas(self):
        ranked = [(f"sometoken{i}", 1.0 / (i + 1)) for i in range(30)]
        spec = layout_wordcloud(ranked, width=400, height=300)
        for entry in spec.entries:
            x0, y0, x1, y1 = entry.box
            assert x0 >= 0 and y0 >= 0 and x1 <= 400 and y1 <= 300

    def test_word_too_large_skipped_with_warning(self):
        with pytest.warns(UserWarning, match="does not fit"):
            spec = layout_wordcloud([("a" * 500, 1.0), ("fits", 0.9)], width=300, height=200)
        assert [e.term for e in spec.entries] == ["fits"]

    def test_top_k_truncates(self):
        ranked = [(f"w{i}", 1.0 - i * 0.01) for i in range(30)]
        spec = layout_wordcloud(ranked, top_k=5)
        assert len(spec.entries) == 5

    @pytest.mark.parametrize("top_k", [0, -1])
    def test_top_k_below_one_rejected(self, top_k):
        # a negative top_k would slice from the end
        with pytest.raises(ValueError, match="top_k"):
            layout_wordcloud([("a", 1.0), ("b", 0.5)], top_k=top_k)

    def test_empty_or_unscored_ranking_is_the_empty_canvas(self):
        for ranked in ([], [("a", 0.0), ("b", -0.5)]):
            assert layout_wordcloud(ranked) == WordCloudSpec(entries=(), width=800, height=600)
            assert layout_wordcloud(ranked, width=300, height=200) == WordCloudSpec((), 300, 200)

    @pytest.mark.parametrize("bad", [float("inf"), float("-inf"), float("nan")])
    def test_non_finite_weight_rejected_by_word(self, bad):
        ranked = [("beta", 0.5), ("alpha", bad), ("gamma", 0.2)]
        with pytest.raises(ValueError, match="'alpha'"):
            layout_wordcloud(ranked)
        # only the words the cloud would draw are read
        assert [e.term for e in layout_wordcloud(ranked, top_k=1).entries] == ["beta"]

    def test_word_without_free_position_skipped_with_warning(self):
        # "abc" fills the middle of the canvas, no position is left for
        # "defg" beside it, and the smaller "h" still fits in a corner
        ranked = [("abc", 1.0), ("defg", 0.6), ("h", 0.0001)]
        with pytest.warns(UserWarning, match="no free position for word 'defg'") as caught:
            spec = layout_wordcloud(ranked, width=100, height=60)
        assert len(caught) == 1
        assert [e.term for e in spec.entries] == ["abc", "h"]
        assert boxes_disjoint(spec.entries)


def layout_outcome(layout, ranked, **kwargs):
    """(the spec, or the text of the ValueError raised; the warning messages
    in the order they were issued) of one layout call."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            result = layout(ranked, **kwargs)
        except ValueError as exc:
            result = str(exc)
    return result, [str(w.message) for w in caught]


# 800x600 is the cloud canvas, 800x300 a contrast half; small canvases fill
# up, so words find no free position there.
CANVASES = st.one_of(
    st.sampled_from([(800, 600), (800, 300), (60, 40)]),
    st.tuples(st.integers(1, 400), st.integers(1, 300)),
)
# 28 or more characters at 48 pt are wider than 800; the empty term's box
# has no width, so it can touch another box's edge exactly.
RANKED_WORD = st.tuples(
    st.one_of(st.text(alphabet="abxy", max_size=8), st.text(alphabet="abxy", min_size=28, max_size=40)),
    st.one_of(st.sampled_from([0.0, 0.5, 1.0]), st.floats(-1.0, 1.0)),
)
RANKINGS = st.integers(1, 60).flatmap(lambda n: st.lists(RANKED_WORD, min_size=n, max_size=n))


@given(ranked=RANKINGS, top_k=st.integers(1, 60), canvas=CANVASES)
@example(ranked=[("a" * 40, 1.0), ("fits", 0.5)], top_k=50, canvas=(800, 600))  # too wide
@example(ranked=[("abc", 1.0), ("defg", 0.6), ("h", 0.0001)], top_k=50, canvas=(100, 60))  # no free position
@example(ranked=[(f"w{i}", 0.5) for i in range(20)], top_k=50, canvas=(800, 300))  # all weights equal
@example(ranked=[(f"w{i}", 1.0 - 0.1 * i) for i in range(10)], top_k=3, canvas=(800, 600))  # top_k truncates
@example(ranked=[("a", 0.0), ("b", 1.0), ("c", 0.0)], top_k=50, canvas=(60, 40))  # zero weights
@example(ranked=[("a", 0.0)], top_k=50, canvas=(800, 600))  # all weights zero
@example(ranked=[("abcde", 1.0)], top_k=50, canvas=(144, 48))  # box exactly the canvas
@example(ranked=[("", 1.0), ("", 1.0), ("ab", 0.5)], top_k=50, canvas=(800, 300))  # boxes touch
# two equal 48-point boxes, then a 10-point word
@example(ranked=[("abba", 1.0), ("abba", 1.0), ("y", 0.1)], top_k=50, canvas=(800, 300))
# ten tied top scores among 50 words on the cloud canvas
@example(
    ranked=[(f"word{i:02d}", 1.0 if i < 10 else 0.9 - 0.015 * i) for i in range(50)],
    top_k=50,
    canvas=(800, 600),
)
# words that take a live step of the second chunk
@example(ranked=[("", 1.0), ("ab", 0.6), ("abcd", 0.4), ("ab", 0.1)], top_k=50, canvas=(800, 300))
@example(ranked=[("a", 0.6), ("b", 0.5), ("xy", 0.4), ("abc", 0.1)], top_k=50, canvas=(200, 100))
# "ab" takes the gap just above "abcd", where a box as large as "abcd" would
# not fit: a placed box drops only the steps the smallest box still to come
# cannot take
@example(ranked=[("abcd", 1.0), ("ab", 0.5)], top_k=50, canvas=(800, 600))
# the second "" touches the first one's zero-width box at the canvas centre:
# touching keeps a step live
@example(ranked=[("", 1.0), ("", 0.5)], top_k=50, canvas=(800, 600))
# "a" takes the last live step of the first chunk and "aa" the first of the
# second
@example(ranked=[("a", 0.5), ("aa", 0.5), ("", 0.6), ("", 0.5)], top_k=50, canvas=(200, 100))
@settings(max_examples=60, deadline=None)
def test_layout_same_as_the_per_position_walk(ranked, top_k, canvas):
    width, height = canvas
    kwargs = dict(top_k=top_k, width=width, height=height)
    expected = layout_outcome(layout_wordcloud_reference, ranked, **kwargs)
    if expected == ("nothing to lay out: all scores are zero", []):
        # the walk rejects a cloud with no positive score; the layout draws the empty canvas
        expected = (WordCloudSpec(entries=(), width=width, height=height), [])
    assert layout_outcome(layout_wordcloud, ranked, **kwargs) == expected


def test_layout_carries_no_state_into_the_next_call():
    a = [(f"alpha{i}", 1.0 - 0.02 * i) for i in range(40)]
    b = [("abba", 1.0), ("bbb", 1.0), ("ab", 1.0), ("abxy", 0.5), ("abxy", 0.25)]
    first = layout_wordcloud(b)
    layout_wordcloud(a)
    assert layout_wordcloud(b) == first
    layout_wordcloud(a, width=800, height=300)
    assert layout_wordcloud(b) == first


class TestRenderSvg:
    def test_empty_spec_is_valid_svg(self, tmp_path):
        out = tmp_path / "empty.svg"
        render_svg(WordCloudSpec(entries=(), width=200, height=100), out)
        content = out.read_text(encoding="utf-8")
        assert content.startswith("<?xml")
        assert "<svg" in content and "</svg>" in content
        assert "<text" not in content

    def test_term_present_at_max_size(self, tmp_path):
        out = tmp_path / "cloud.svg"
        render_svg(layout_wordcloud([("inauguration", 1.0)]), out)
        content = out.read_text(encoding="utf-8")
        assert ">inauguration</text>" in content
        assert f'font-size="{MAX_FONT_PT:.2f}"' in content

    def test_byte_identical_rerender(self, tmp_path):
        ranked = [(f"w{i}", 1.0 - 0.02 * i) for i in range(20)]
        spec = layout_wordcloud(ranked)
        first, second = tmp_path / "a.svg", tmp_path / "b.svg"
        render_svg(spec, first)
        render_svg(layout_wordcloud(ranked), second)
        assert first.read_bytes() == second.read_bytes()


class TestContrastCloud:
    def test_groups_in_their_halves_with_their_colors(self, tmp_path):
        out = tmp_path / "contrast.svg"
        spec = render_contrast_cloud([("inauguration", 1.0)], [("christmas", 1.0)], out)
        by_term = {e.term: e for e in spec.entries}
        top = by_term["inauguration"]
        bottom = by_term["christmas"]
        assert top.color == GROUP_A_COLOR and top.box[3] <= 300
        assert bottom.color == GROUP_B_COLOR and bottom.box[1] >= 300
        content = out.read_text(encoding="utf-8")
        assert 'fill="green">inauguration' in content
        assert 'fill="red">christmas' in content

    def test_no_overlap_across_halves(self, tmp_path):
        ranked_a = [(f"up{i}", 1.0 - 0.03 * i) for i in range(15)]
        ranked_b = [(f"down{i}", 1.0 - 0.03 * i) for i in range(15)]
        spec = render_contrast_cloud(ranked_a, ranked_b, tmp_path / "c.svg")
        assert boxes_disjoint(spec.entries)


def table_for(streams, labels):
    corpus = token_ids(streams)
    vocab = build_vocabulary(corpus)
    return compute_relevance(build_occurrence_index(term_counts(corpus, vocab.index), vocab, labels))


def highlighted_text(path):
    """The document text of a highlight page, spans stripped and unescaped."""
    content = path.read_bytes().decode("utf-8")
    body = re.search(r'<div class="doc"[^>]*>(.*)</div>', content, re.DOTALL).group(1)
    return html.unescape(re.sub(r"</?span[^>]*>", "", body))


class TestHighlightHtml:
    def make_fixture(self):
        doc = Document(id="d0", text="DeVos hearing: the DeVos vote looms!")
        stream = normalize_tokenize(doc.text)
        other = ("the", "weather", "looms")
        other2 = ("the", "weather", "vote")
        table = table_for([stream, other, other2], [0, 1, 1])
        return doc, stream, table

    def test_span_per_positive_token_occurrence(self, tmp_path):
        doc, stream, table = self.make_fixture()
        out = tmp_path / "doc.html"
        highlight_html(doc, (), table, 0, out)
        content = out.read_text(encoding="utf-8")
        r = score_final(table.tpr[0], table.fpr_raw[0])
        positive = {t for i, t in enumerate(table.terms) if r[i] > 0}
        expected_spans = sum(1 for t in stream if t in positive)
        assert content.count("<span") == expected_spans
        # devos twice + hearing, vote, looms once each ("the" is everywhere)
        assert expected_spans == 5

    def test_full_score_term_at_full_opacity(self, tmp_path):
        doc, stream, table = self.make_fixture()
        out = tmp_path / "doc.html"
        highlight_html(doc, (), table, 0, out)
        content = out.read_text(encoding="utf-8")
        assert "rgba(255, 200, 0, 1.0000)" in content

    def test_no_positive_terms_no_spans(self, tmp_path):
        streams = [("same", "words"), ("same", "words")]
        table = table_for(streams, [0, 1])
        doc = Document(id="d0", text="same words")
        out = tmp_path / "doc.html"
        highlight_html(doc, (), table, 0, out)
        assert "<span" not in out.read_text(encoding="utf-8")

    def test_round_trip_strips_to_original_text(self, tmp_path):
        doc = Document(id="d0", text="A <b>tricky</b> text & DeVos,\nwith newline.")
        stream = normalize_tokenize(doc.text)
        other = ("text", "with", "a")
        table = table_for([stream, other], [0, 1])
        out = tmp_path / "doc.html"
        highlight_html(doc, (), table, 0, out)
        assert highlighted_text(out) == doc.text

    @settings(
        max_examples=100,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(st.text(min_size=1, max_size=200).filter(str.strip))
    @example("İstanbul")
    @example("ΟΔΟΣ.Α")
    def test_round_trip_on_any_text(self, tmp_path, text):
        doc = Document(id="d0", text=text)
        stream = normalize_tokenize(doc.text)
        table = table_for([stream, ("other",)], [0, 1])
        out = tmp_path / "doc.html"
        highlight_html(doc, (), table, 0, out)
        assert highlighted_text(out) == doc.text

    def test_merged_bigram_tokens_highlighted(self, tmp_path):
        doc = Document(id="d0", text="betsy devos spoke")
        raw = normalize_tokenize(doc.text)
        merged = apply_bigrams(token_ids([raw]), {("betsy", "devos")})[0]
        other = ("spoke", "again")
        table = table_for([merged, other], [0, 1])
        out = tmp_path / "doc.html"
        highlight_html(doc, {("betsy", "devos")}, table, 0, out)
        content = out.read_text(encoding="utf-8")
        assert content.count("<span") == 2  # both halves of the merged pair
        stripped = re.sub(r"</?span[^>]*>", "", content)
        assert "betsy devos spoke" in html.unescape(stripped)


def dated_doc(doc_id, text, when):
    return Document(id=doc_id, text=text, timestamp=parse_timestamp(when))


def printed_rates(index, tmp_path):
    """Per term, the rates ``write_trends_csv`` prints for it, bucket by bucket."""
    out = tmp_path / "trends.csv"
    write_trends_csv(index, out)
    rates = {}
    for line in out.read_text(encoding="utf-8").splitlines()[1:]:
        term, _, _, rate = line.split(",")
        rates.setdefault(term, []).append(float(rate))
    return rates


class TestTermTrends:
    def test_rate_one_on_single_day(self, tmp_path):
        corpus = Corpus(
            (
                dated_doc("a", "trump speech", "2017-01-20"),
                dated_doc("b", "trump rally", "2017-01-20"),
                dated_doc("c", "weather report", "2017-01-21"),
            )
        )
        streams = token_ids([normalize_tokenize(d.text) for d in corpus.docs])
        index = term_trends(corpus, streams, ["trump"], bucket="day")
        assert [s.isoformat() for s in index.clusters] == ["2017-01-20", "2017-01-21"]
        assert index.counts.tolist() == [[2], [0]]
        assert printed_rates(index, tmp_path) == {"trump": [1.0, 0.0]}

    def test_buckets_contiguous_including_empty_days(self, tmp_path):
        corpus = Corpus(
            (
                dated_doc("a", "start here", "2017-01-01"),
                dated_doc("b", "end there", "2017-01-05"),
            )
        )
        streams = token_ids([normalize_tokenize(d.text) for d in corpus.docs])
        index = term_trends(corpus, streams, ["start"], bucket="day")
        assert len(index.clusters) == 5
        assert index.sizes.tolist() == [1, 0, 0, 0, 1]
        assert printed_rates(index, tmp_path)["start"] == [1.0, 0.0, 0.0, 0.0, 0.0]

    def test_weekday_word_spikes_weekly(self, tmp_path):
        # "tuesday" planted in every Tuesday document -> weekly spikes
        docs = []
        for day in range(1, 29):  # 2017-01-01 is a Sunday
            when = f"2017-01-{day:02d}"
            ts = parse_timestamp(when)
            word = "tuesday" if ts.weekday() == 1 else "plain"
            docs.append(dated_doc(f"d{day}", f"{word} news", when))
        corpus = Corpus(tuple(docs))
        streams = token_ids([normalize_tokenize(d.text) for d in corpus.docs])
        index = term_trends(corpus, streams, ["tuesday"], bucket="day")
        rates = np.array(printed_rates(index, tmp_path)["tuesday"])
        spike_days = {index.clusters[i].weekday() for i in np.flatnonzero(rates == 1.0)}
        assert spike_days == {1}
        assert set(np.diff(np.flatnonzero(rates == 1.0))) == {7}

    def test_week_buckets_start_monday(self):
        corpus = Corpus(
            (
                dated_doc("a", "one", "2017-01-18"),  # Wednesday
                dated_doc("b", "two", "2017-01-27"),  # next week's Friday
            )
        )
        streams = token_ids([normalize_tokenize(d.text) for d in corpus.docs])
        index = term_trends(corpus, streams, ["one"], bucket="week")
        assert [s.isoformat() for s in index.clusters] == ["2017-01-16", "2017-01-23"]

    def test_empty_term_list_empty_table(self):
        corpus = Corpus((dated_doc("a", "text", "2017-01-01"),))
        streams = token_ids([normalize_tokenize(d.text) for d in corpus.docs])
        index = term_trends(corpus, streams, [])
        assert index.terms == ()
        assert index.counts.shape == (1, 0)

    def test_missing_timestamps_listed(self):
        corpus = Corpus((Document(id="undated", text="x"),))
        with pytest.raises(ValueError, match="undated"):
            term_trends(corpus, token_ids([normalize_tokenize("x")]), ["x"])

    def test_terms_are_lowercased_like_tokens(self):
        corpus = Corpus(
            (dated_doc("a", "Trump speech", "2017-01-20"), dated_doc("b", "calm", "2017-01-21"))
        )
        streams = token_ids([normalize_tokenize(d.text) for d in corpus.docs])
        index = term_trends(corpus, streams, ["Trump", "CALM"], bucket="day")
        assert index.terms == ("trump", "calm")
        assert index.counts.tolist() == [[1, 0], [0, 1]]

    @pytest.mark.parametrize("terms", [["trump", "trump"], ["trump", "Trump"]])
    def test_duplicate_term_rejected_by_name(self, terms):
        corpus = Corpus((dated_doc("a", "trump", "2017-01-20"),))
        streams = token_ids([normalize_tokenize(d.text) for d in corpus.docs])
        with pytest.raises(ValueError, match="duplicate trend term: 'trump'"):
            term_trends(corpus, streams, terms)

    @pytest.mark.parametrize("term", ["new york", "alpha-beta", "a__b", "a_b_c", "_york", "new_"])
    def test_term_no_token_can_equal_rejected_by_name(self, term):
        # the corpus holds every word of these terms, yet no token (nor a
        # merged bigram) can be any of them: no all-zero row for them
        corpus = Corpus((dated_doc("a", "new york alpha beta a b c", "2017-01-20"),))
        streams = apply_bigrams(
            token_ids([normalize_tokenize(d.text) for d in corpus.docs]), {("new", "york")}
        )
        with pytest.raises(ValueError, match=re.escape(repr(term))):
            term_trends(corpus, streams, [term])

    def test_tokens_and_merged_bigrams_counted_as_given(self):
        # each part of a term is checked before lowercasing, so "İstanbul"
        # counts the token "i̇stanbul" that the tokenizer makes of it
        corpus = Corpus(
            (
                dated_doc("a", "İstanbul and New York", "2017-01-20"),
                dated_doc("b", "york", "2017-01-21"),
            )
        )
        streams = apply_bigrams(
            token_ids([normalize_tokenize(d.text) for d in corpus.docs]), {("new", "york")}
        )
        index = term_trends(corpus, streams, ["İstanbul", "New_York", "york"], bucket="day")
        assert index.terms == ("i̇stanbul", "new_york", "york")
        assert index.counts.tolist() == [[1, 1, 0], [0, 0, 1]]

    def test_csv_dump(self, tmp_path):
        corpus = Corpus(
            (dated_doc("a", "trump", "2017-01-20"), dated_doc("b", "calm", "2017-01-21"))
        )
        streams = token_ids([normalize_tokenize(d.text) for d in corpus.docs])
        index = term_trends(corpus, streams, ["trump", "calm"], bucket="day")
        out = tmp_path / "trends.csv"
        write_trends_csv(index, out)
        lines = out.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "term,bucket_start,count,rate"
        assert "trump,2017-01-20,1,1" in lines
        assert "trump,2017-01-21,0,0" in lines
        assert len(lines) == 1 + 2 * 2


def test_svg_markup_escapes_terms():
    entry = CloudEntry(term="a<b&c", weight=1.0, font_size=12.0, x=50.0, y=50.0, color="green")
    spec = WordCloudSpec(entries=(entry,), width=100, height=100)
    assert "a&lt;b&amp;c" in svg_markup(spec)
