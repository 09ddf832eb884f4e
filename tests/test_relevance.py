import math

import numpy as np
import pytest

from relwords.clustering import NOISE
from relwords.features import build_vocabulary, term_counts
from relwords.relevance import (
    _distinct,
    _fpr_raw,
    build_occurrence_index,
    compute_relevance,
    rank_terms,
    score_diff,
    score_final,
    score_quot,
    OccurrenceIndex,
    RelevanceTable,
    write_relevance_csv,
)
from relwords.text import token_ids

from oracles import write_relevance_csv_reference


def at(table, column, cluster, term):
    """One stored value of a relevance table column."""
    return float(getattr(table, column)[table.cluster_position(cluster), table.terms.index(term)])


def csv_terms(table, cluster, tmp_path):
    """The terms of ``cluster``'s rows in the relevance CSV, in row order."""
    out = tmp_path / "relevance.csv"
    write_relevance_csv(table, out)
    rows = [line.split(",") for line in out.read_text(encoding="utf-8").splitlines()[1:]]
    return [term for c, term, *_ in rows if c == str(cluster)]


def make_index(cluster_docs):
    """cluster_docs: {cluster: [token lists]} -> OccurrenceIndex over all terms."""
    streams, labels = [], []
    for cluster, docs in cluster_docs.items():
        for tokens in docs:
            streams.append(tuple(tokens))
            labels.append(cluster)
    corpus = token_ids(streams)
    vocab = build_vocabulary(corpus)
    return build_occurrence_index(term_counts(corpus, vocab.index), vocab, labels)


class TestRates:
    def test_tpr_counting(self):
        table = compute_relevance(make_index({0: [["x"], ["x"], ["x"], ["y"]], 1: [["y"]]}))
        assert at(table, "tpr", 0, "x") == 0.75
        assert at(table, "tpr", 0, "y") == 0.25
        assert at(table, "tpr", 1, "x") == 0.0
        assert at(table, "tpr", 1, "y") == 1.0

    def test_tpr_unknown_cluster(self):
        table = compute_relevance(make_index({0: [["x"]], 1: [["y"]]}))
        with pytest.raises(ValueError, match="unknown cluster"):
            at(table, "tpr", 9, "x")

    def test_fpr_mean_plus_population_std(self):
        # Other-cluster TPRs {0.2, 0.0, 0.1}: mean 0.1, population std
        # sqrt(0.02/3), so FPR = 0.1 + sqrt(0.02/3).
        index = make_index(
            {
                "target": [["w"]],
                "a": [["w"], ["w"], ["z"], ["z"], ["z"], ["z"], ["z"], ["z"], ["z"], ["z"]],
                "b": [["z"], ["z"]],
                "c": [["w"], ["z"], ["z"], ["z"], ["z"], ["z"], ["z"], ["z"], ["z"], ["z"]],
            }
        )
        expected = 0.1 + math.sqrt(0.02 / 3)
        assert at(compute_relevance(index), "fpr", "target", "w") == pytest.approx(expected, abs=1e-12)

    def test_fpr_singleton_other_cluster(self):
        index = make_index({0: [["w"]], 1: [["w"], ["w"], ["w"], ["z"], ["z"]]})
        assert at(compute_relevance(index), "fpr", 0, "w") == pytest.approx(0.6, abs=1e-12)

    def test_fpr_absent_everywhere_else(self):
        index = make_index({0: [["w"]], 1: [["z"]], 2: [["z"]]})
        assert at(compute_relevance(index), "fpr", 0, "w") == 0.0

    def test_fpr_single_cluster_warns_and_returns_zero(self):
        index = make_index({0: [["w"], ["z"]]})
        with pytest.warns(UserWarning, match="single cluster"):
            table = compute_relevance(index)
        assert at(table, "fpr", 0, "w") == 0.0

    def test_noise_documents_excluded(self):
        streams = [("w",), ("w",), ("w",), ("z",)]
        corpus = token_ids(streams)
        vocab = build_vocabulary(corpus)
        index = build_occurrence_index(term_counts(corpus, vocab.index), vocab, [0, 0, NOISE, 1])
        assert index.sizes.tolist() == [2, 1]
        assert at(compute_relevance(index), "tpr", 0, "w") == 1.0


class TestScores:
    def test_diff_examples(self):
        assert score_diff(0.75, 0.1 + math.sqrt(0.02 / 3)) == pytest.approx(
            0.75 - 0.1 - math.sqrt(0.02 / 3), abs=1e-12
        )
        assert score_diff(0.1, 0.3) == 0.0
        assert score_diff(1.0, 0.0) == 1.0

    def test_quot_saturates_at_four_to_one(self):
        assert score_quot(0.3, 0.05) == 1.0
        assert score_quot(1.0, 0.05) == 1.0
        assert score_quot(0.3, 0.05) == score_quot(1.0, 0.05)

    def test_quot_examples(self):
        assert score_quot(0.05, 0.05) == 0.0
        assert score_quot(0.15, 0.05) == pytest.approx(2 / 3, abs=1e-12)

    def test_final_examples(self):
        assert score_final(1.0, 0.0) == 1.0
        assert score_final(0.0, 0.3) == 0.0
        assert score_final(0.0, 0.0) == 0.0
        assert score_final(0.3, 0.05) == pytest.approx(0.625, abs=1e-12)

    def test_grid_bounds_and_monotonicity(self):
        grid = np.round(np.arange(0, 21) * 0.05, 2)
        r = score_final(grid[:, None], grid[None, :])
        assert r.min() >= 0.0 and r.max() <= 1.0
        assert np.all(np.diff(r, axis=0) >= 0.0)  # nondecreasing in TPR
        assert np.all(np.diff(r, axis=1) <= 0.0)  # nonincreasing in FPR

    def test_zero_when_ratio_at_most_one(self):
        for t, f in [(0.2, 0.2), (0.1, 0.5), (0.0, 0.0), (0.3, 0.9)]:
            assert score_final(t, f) == 0.0


class TestRelevanceTable:
    def test_all_values_in_unit_interval(self):
        rng = np.random.default_rng(0)
        words = [f"w{i}" for i in range(20)]
        cluster_docs = {
            c: [list(rng.choice(words, size=8)) for _ in range(rng.integers(2, 9))]
            for c in range(4)
        }
        table = compute_relevance(make_index(cluster_docs))
        for field in (table.tpr, table.fpr, table.r_diff, table.r_quot, table.r):
            assert field.min() >= 0.0 and field.max() <= 1.0
        np.testing.assert_allclose(table.r, (table.r_diff + table.r_quot) / 2)

    def test_exclusive_term_scores_one(self):
        table = compute_relevance(
            make_index({0: [["devos", "x"], ["devos", "y"]], 1: [["x"], ["y"]]})
        )
        assert at(table, "r", 0, "devos") == 1.0

    def test_ubiquitous_term_scores_zero(self):
        table = compute_relevance(
            make_index({0: [["the", "a"], ["the"]], 1: [["the", "b"], ["the"]]})
        )
        assert at(table, "r", 0, "the") == 0.0
        assert at(table, "r", 1, "the") == 0.0

    def test_cluster_relabeling_keeps_scores(self):
        docs_a = [["u", "v"], ["u"]]
        docs_b = [["v"], ["v", "w"], ["w"]]
        table1 = compute_relevance(make_index({0: docs_a, 1: docs_b}))
        table2 = compute_relevance(make_index({5: docs_b, 9: docs_a}))
        # same cluster contents, different ids/order: scores must agree
        for column in ("tpr", "fpr", "r_diff", "r_quot", "r"):
            for term in table1.terms:
                assert at(table1, column, 0, term) == at(table2, column, 9, term)
                assert at(table1, column, 1, term) == at(table2, column, 5, term)

    def test_stored_fpr_clamped_but_scores_use_raw(self):
        # Other TPRs {1, 1, 0}: mean 2/3, std sqrt(2)/3 -> raw FPR ~ 1.138.
        index = make_index(
            {
                "t": [["w"]],
                "a": [["w"]],
                "b": [["w"]],
                "c": [["z"]],
            }
        )
        raw = _fpr_raw(index.counts / index.sizes[:, None], [index.clusters.index("t")])[
            0, index.terms.index("w")
        ]
        assert raw > 1.0
        table = compute_relevance(index)
        assert at(table, "fpr", "t", "w") == 1.0
        assert at(table, "r_diff", "t", "w") == score_diff(1.0, raw)


SCORES = ("tpr", "fpr", "r_diff", "r_quot", "r")


def assert_rows_of(table, full, rows):
    """``table`` holds rows ``rows`` of ``full``, bit for bit (so -0.0 is
    not 0.0)."""
    assert table.terms == full.terms
    assert table.clusters == tuple(full.clusters[row] for row in rows)
    for name in SCORES:
        value, wanted = getattr(table, name), getattr(full, name)[rows]
        assert value.dtype == wanted.dtype == np.float64, name
        assert np.array_equal(value.view(np.uint64), wanted.view(np.uint64)), name


def random_index(n_clusters, n_terms, seed):
    """Random counts, most of them zero, over clusters of 1 to 60 documents."""
    rng = np.random.default_rng(seed)
    sizes = rng.integers(1, 61, size=n_clusters)
    counts = rng.integers(0, sizes[:, None] + 1, size=(n_clusters, n_terms))
    counts[rng.random(counts.shape) < 0.7] = 0
    terms = tuple(f"t{i:04d}" for i in range(n_terms))
    return OccurrenceIndex(terms, tuple(range(n_clusters)), counts, sizes)


class TestScoreSomeClusters:
    """compute_relevance(index, clusters) holds the given clusters' rows of
    the whole table, in the order given."""

    @pytest.mark.parametrize("cluster_docs", [
        {0: [["x"], ["x"], ["x"], ["y"]], 1: [["y"]]},
        {
            "target": [["w"]],
            "a": [["w"], ["w"]] + [["z"]] * 8,
            "b": [["z"], ["z"]],
            "c": [["w"]] + [["z"]] * 9,
        },
        {"t": [["w"]], "a": [["w"]], "b": [["w"]], "c": [["z"]]},  # raw FPR above 1
        {0: [["w"]], 1: [["w"], ["w"], ["w"], ["z"], ["z"]]},
        {"after": [["inauguration", "x"], ["inauguration", "y"]], "before": [["x"], ["y"]]},
        {0: [["the", "a"], ["the"]], 1: [["the", "b"], ["the"]], 2: [["c"]]},
    ])
    def test_each_row_of_the_small_fixtures(self, cluster_docs):
        index = make_index(cluster_docs)
        full = compute_relevance(index)
        for row, cluster in enumerate(index.clusters):
            assert_rows_of(compute_relevance(index, [cluster]), full, [row])

    def test_each_row_of_200_clusters_by_2000_terms(self):
        index = random_index(200, 2000, seed=11)
        full = compute_relevance(index)
        for row, cluster in enumerate(index.clusters):
            assert_rows_of(compute_relevance(index, [cluster]), full, [row])

    def test_clusters_in_the_order_given(self):
        index = make_index({"a": [["x"], ["y"]], "b": [["y"]], "c": [["x", "z"]]})
        full = compute_relevance(index)
        table = compute_relevance(index, ["c", "a"])
        assert_rows_of(table, full, [2, 0])
        assert table.cluster_position("c") == 0 and table.cluster_position("a") == 1
        assert rank_terms(table, "a", 3) == rank_terms(full, "a", 3)

    def test_single_cluster_still_warns(self):
        index = make_index({0: [["w"], ["z"]]})
        with pytest.warns(UserWarning, match="single cluster: FPR is 0"):
            table = compute_relevance(index, [0])
        assert at(table, "fpr", 0, "w") == 0.0

    def test_all_noise_still_raises(self):
        streams = [("w",), ("z",)]
        corpus = token_ids(streams)
        vocab = build_vocabulary(corpus)
        index = build_occurrence_index(term_counts(corpus, vocab.index), vocab, [NOISE, NOISE])
        with pytest.raises(ValueError, match=r"no clusters to score \(all documents are noise\)"):
            compute_relevance(index, [0])

    def test_unknown_cluster_rejected(self):
        index = make_index({0: [["x"]], 1: [["y"]]})
        with pytest.raises(ValueError, match="unknown cluster: 9"):
            compute_relevance(index, [0, 9])


class TestRankTerms:
    def test_exclusive_term_ranks_first(self):
        table = compute_relevance(
            make_index({0: [["devos", "x"], ["devos", "x"]], 1: [["x"], ["x"]]})
        )
        ranked = rank_terms(table, 0, 5)
        assert ranked[0] == ("devos", 1.0)

    def test_tie_broken_by_tpr_then_term(self, tmp_path):
        # high: in 9/10 target docs; low: in 7/10; both absent elsewhere get
        # r_quot 1, so r orders by the diff part, i.e. by TPR.
        target = [["high", "low"]] * 7 + [["high"]] * 2 + [["pad"]]
        table = compute_relevance(make_index({0: target, 1: [["pad"], ["pad"]]}))
        ranked = rank_terms(table, 0, 3)
        assert [t for t, _ in ranked[:2]] == ["high", "low"]
        assert csv_terms(table, 0, tmp_path)[: len(ranked)] == [t for t, _ in ranked]

    def test_zero_scores_excluded_even_if_k_unreached(self):
        # every cluster-0 term occurs at the same rate in cluster 1, so no
        # term scores above zero there
        table = compute_relevance(
            make_index({0: [["shared"], ["shared"]], 1: [["shared", "other"], ["shared", "other"]]})
        )
        assert rank_terms(table, 0, 10) == []
        assert [t for t, _ in rank_terms(table, 1, 10)] == ["other"]

    @pytest.mark.parametrize("k", [0, -1])
    def test_k_below_one_rejected(self, k):
        # a negative k would slice from the end
        table = compute_relevance(make_index({0: [["a", "b"], ["a"]], 1: [["x"], ["x"]]}))
        with pytest.raises(ValueError, match="k must be >= 1"):
            rank_terms(table, 0, k)

    def test_lexicographic_tiebreak(self, tmp_path):
        table = compute_relevance(
            make_index({0: [["zeta", "alpha"], ["zeta", "alpha"]], 1: [["x"], ["x"]]})
        )
        ranked = rank_terms(table, 0, 2)
        assert [t for t, _ in ranked] == ["alpha", "zeta"]
        assert csv_terms(table, 0, tmp_path)[:2] == ["alpha", "zeta"]

    def test_order_matches_sorted_reference(self, tmp_path):
        # few documents per cluster make many exact score and TPR ties
        rng = np.random.default_rng(5)
        words = [f"w{i:02d}" for i in range(40)]
        index = make_index(
            {c: [list(rng.choice(words, size=6)) for _ in range(4)] for c in range(3)}
        )
        table = compute_relevance(index)
        for c in table.clusters:
            row = table.cluster_position(c)
            expected = sorted(
                range(len(table.terms)),
                key=lambda i: (-table.r[row, i], -table.tpr[row, i], table.terms[i]),
            )
            ranked = [(table.terms[i], float(table.r[row, i])) for i in expected if table.r[row, i] > 0]
            assert rank_terms(table, c, len(table.terms)) == ranked
            assert csv_terms(table, c, tmp_path) == [table.terms[i] for i in expected]


class TestContrastRelevance:
    """Period labels take the place of cluster labels."""

    def test_group_exclusive_term(self):
        table = compute_relevance(make_index({
            "after": [["inauguration", "x"], ["inauguration", "y"]],
            "before": [["x"], ["y"]],
        }))
        assert at(table, "r", "after", "inauguration") == 1.0
        assert at(table, "r", "before", "inauguration") == 0.0

    def test_term_everywhere_scores_zero_both_sides(self):
        table = compute_relevance(make_index({
            "after": [["everywhere", "u0"], ["everywhere", "u1"]],
            "before": [["everywhere", "u2"], ["everywhere", "u3"]],
        }))
        assert at(table, "r", "after", "everywhere") == 0.0
        assert at(table, "r", "before", "everywhere") == 0.0


def test_relevance_csv_sorted_by_cluster_then_score(tmp_path):
    table = compute_relevance(
        make_index({0: [["devos", "x"], ["devos"]], 1: [["x"], ["x", "y"]]})
    )
    out = tmp_path / "relevance.csv"
    write_relevance_csv(table, out)
    lines = out.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "cluster,term,tpr,fpr,r_diff,r_quot,r"
    rows = [line.split(",") for line in lines[1:]]
    clusters = [row[0] for row in rows]
    assert clusters == sorted(clusters)
    for cluster in set(clusters):
        scores = [float(row[6]) for row in rows if row[0] == cluster]
        assert scores == sorted(scores, reverse=True)
    assert rows[0][:2] == ["0", "devos"]


def test_distinct_bit_patterns_equal_np_unique():
    values = np.array([
        [0.5, -0.0, 0.0, 1 / 3, 0.5, 5e-324, 0.1 + 0.2],
        [1.0, 0.0, -0.0, 1e-300, 0.5, 5e-324, 0.0],
    ]).view(np.uint64)
    rng = np.random.default_rng(3)
    drawn = rng.choice(rng.random(50), size=(4, 200)).view(np.uint64)  # many repeats
    for case in (values, drawn, values[:0], values[:1, :1]):
        distinct = _distinct(case)
        assert distinct.dtype == np.uint64
        assert np.array_equal(distinct, np.unique(case))
    assert _distinct(values).size == 8  # -0.0 and 0.0 stay apart


def test_relevance_csv_same_bytes_as_the_per_row_writer(tmp_path):
    # repeated values, score ties, 0.0 and -0.0 (equal as values but
    # printed "0" and "-0"), a subnormal, and terms out of order
    values = np.array([
        [0.5, -0.0, 0.0, 1 / 3, 0.5, 5e-324, 0.1 + 0.2],
        [1.0, 0.0, -0.0, 1e-300, 0.5, 0.5, 0.0],
    ])
    table = RelevanceTable(
        terms=("b", "a", "d", "c", "e", "ab", "f"),
        clusters=(0, 7),
        tpr=values,
        fpr=values.copy(),
        r_diff=values.copy(),
        r_quot=values.copy(),
        r=np.array([[0.5, 0.5, -0.0, 0.0, 1 / 3, 0.5, 0.5], [0.0, -0.0, 0.25, 0.25, 1.0, 0.0, 0.25]]),
    )
    computed = compute_relevance(make_index({0: [["x", "y"], ["x"], ["z"]], 1: [["y"], ["y", "w"]]}))
    for name, case in (("made", table), ("computed", computed)):
        write_relevance_csv(case, tmp_path / f"{name}.csv")
        write_relevance_csv_reference(case, tmp_path / f"{name}.reference.csv")
        written = (tmp_path / f"{name}.csv").read_bytes()
        assert written == (tmp_path / f"{name}.reference.csv").read_bytes(), name
    assert b",-0," in (tmp_path / "made.csv").read_bytes()
