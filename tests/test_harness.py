"""Query loading, ranking comparison, experiment runs, and CSV reports."""

from __future__ import annotations

import copy
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats as scipy_stats

from affret import (
    BuildConfig,
    InputError,
    Query,
    QueryFormatError,
    build_index,
    compare_rankings,
    compute_query_affordance,
    emit_report,
    load_qrels,
    load_queries,
    populate_case_base,
    retrieve_top_k,
    revise_case_affordance,
    run_experiment,
)

import oracles
from conftest import TOURISM_WORDS, write_corpus


def topic_block(num, title, desc="", narr=""):
    parts = [f"<top>", f"<num> {num} </num>", f"<title> {title} </title>"]
    if desc:
        parts.append(f"<desc> {desc} </desc>")
    if narr:
        parts.append(f"<narr> {narr} </narr>")
    parts.append("</top>")
    return "\n".join(parts)


def write_queries(tmp_path, blocks, name="queries.txt"):
    path = tmp_path / name
    path.write_text("\n".join(blocks) + "\n", encoding="utf-8")
    return path


class TestLoadQueries:
    def test_twenty_five_topics(self, tmp_path):
        blocks = [topic_block(f"Q{i}", f"beach trip {i}") for i in range(25)]
        queries = load_queries(write_queries(tmp_path, blocks))
        assert len(queries) == 25
        assert [q.query_id for q in queries] == [f"Q{i}" for i in range(25)]

    def test_missing_narr_loads_empty(self, tmp_path):
        path = write_queries(tmp_path, [topic_block("Q1", "beach", desc="sunny beaches")])
        (query,) = load_queries(path)
        assert query.desc == ["sunny", "beaches"]

    def test_narr_ends_a_field_and_is_not_kept(self, tmp_path):
        narr_last = topic_block("Q1", "beach holiday", desc="sunny beaches", narr="relevant pages mention surfing")
        narr_first = "\n".join(
            [
                "<top>",
                "<num> Q2 </num>",
                "<title> temple visit",
                "<narr> relevant pages mention surfing </narr>",
                "<desc> old temples",
                "</top>",
            ]
        )
        q1, q2 = load_queries(write_queries(tmp_path, [narr_last, narr_first]))
        assert (q1.title, q1.desc) == (["beach", "holiday"], ["sunny", "beaches"])
        assert (q2.title, q2.desc) == (["temple", "visit"], ["old", "temples"])

    def test_duplicate_num_rejected(self, tmp_path):
        path = write_queries(tmp_path, [topic_block("Q1", "beach"), topic_block("Q1", "temple")])
        with pytest.raises(QueryFormatError, match="Q1"):
            load_queries(path)

    def test_title_tokenized_and_stop_worded(self, tmp_path):
        path = write_queries(tmp_path, [topic_block("Q1", "The Beaches of Goa")])
        (query,) = load_queries(path)
        assert query.title == ["beaches", "goa"]

    def test_empty_title_after_stop_wording_rejected(self, tmp_path):
        path = write_queries(tmp_path, [topic_block("q-empty", "the of and")])
        with pytest.raises(QueryFormatError, match="q-empty"):
            load_queries(path)

    def test_number_prefix_stripped(self, tmp_path):
        path = write_queries(tmp_path, ["<top><num> Number: 401 </num><title>beach</title></top>"])
        assert load_queries(path)[0].query_id == "401"

    def test_file_without_topics_rejected(self, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("no topics here\n", encoding="utf-8")
        with pytest.raises(QueryFormatError):
            load_queries(path)

    def test_topic_without_num_rejected(self, tmp_path):
        path = write_queries(tmp_path, ["<top><title>beach</title></top>"])
        with pytest.raises(QueryFormatError):
            load_queries(path)


class TestLoadQrels:
    def test_triples_parsed(self, tmp_path):
        path = tmp_path / "qrels.tsv"
        path.write_text("Q1\ta.html\t1\nQ1\tb.html\t0\n# note\n\nQ2\ta.html\t1\n", encoding="utf-8")
        qrels = load_qrels(path)
        assert qrels == {("Q1", "a.html"): 1, ("Q1", "b.html"): 0, ("Q2", "a.html"): 1}

    def test_identical_repeats_accepted(self, tmp_path):
        path = tmp_path / "qrels.tsv"
        path.write_text("Q1\ta.html\t1\nQ1\tb.html\t0\nQ1\ta.html\t1\nQ1\tb.html\t0\n", encoding="utf-8")
        assert load_qrels(path) == {("Q1", "a.html"): 1, ("Q1", "b.html"): 0}

    def test_conflicting_judgments_rejected(self, tmp_path):
        path = tmp_path / "qrels.tsv"
        path.write_text("T1\td1\t1\n# note\nT1\td2\t1\nT1\td1\t0\n", encoding="utf-8")
        message = "lines 1 and 4 judge query 'T1', document 'd1' differently (1 and 0)"
        with pytest.raises(QueryFormatError, match=f"^{re.escape(str(path))}: {re.escape(message)}$"):
            load_qrels(path)

    @pytest.mark.parametrize("line", ["Q1\ta.html", "Q1\ta.html\t2", "Q1 a.html 1"])
    def test_malformed_lines_rejected(self, tmp_path, line):
        path = tmp_path / "qrels.tsv"
        path.write_text(line + "\n", encoding="utf-8")
        with pytest.raises(QueryFormatError):
            load_qrels(path)


class TestCompareRankings:
    def test_identical_orders(self):
        assert compare_rankings(["a", "b", "c"], ["a", "b", "c"]) == 1.0

    def test_full_reversal(self):
        assert compare_rankings(["a", "b", "c", "d"], ["d", "c", "b", "a"]) == -1.0

    def test_single_swap(self):
        # 2 concordant pairs, 1 discordant: (2 - 1) / 3
        assert compare_rankings(["a", "b", "c"], ["a", "c", "b"]) == pytest.approx(1 / 3)

    def test_singleton_is_one(self):
        assert compare_rankings(["a"], ["a"]) == 1.0

    def test_set_mismatch_rejected(self):
        with pytest.raises(InputError):
            compare_rankings(["a", "b"], ["a", "c"])

    def test_repeated_ids_rejected(self):
        with pytest.raises(InputError):
            compare_rankings(["a", "a"], ["a", "a"])

    @given(st.integers(min_value=2, max_value=9), st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=150, deadline=None)
    def test_matches_reference_implementation(self, n, seed):
        docs = [f"d{i}" for i in range(n)]
        shuffled = docs[:]
        random.Random(seed).shuffle(shuffled)
        mine = compare_rankings(docs, shuffled)
        position = {d: i for i, d in enumerate(shuffled)}
        reference = scipy_stats.kendalltau(range(n), [position[d] for d in docs]).statistic
        assert mine == pytest.approx(reference, abs=1e-12)


# ids with non-ASCII letters, digits and a space, so they differ in more than their position
doc_ids = st.text(st.sampled_from("ab7 éßж京🙂"), min_size=1, max_size=4)


class TestKendallMatchesOracle:
    """Discordant pairs counted in C against both kinds counted one by one, bit for bit."""

    @given(data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_matches_pairwise_count(self, data):
        # n drawn first: a list strategy alone seldom draws past 20 elements
        n = data.draw(st.integers(0, 40), label="n")
        baseline = data.draw(st.lists(doc_ids, min_size=n, max_size=n, unique=True), label="baseline")
        final = data.draw(st.permutations(baseline), label="final")
        assert compare_rankings(baseline, final).hex() == oracles.compare_rankings(baseline, final).hex()

    @given(data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_rejects_what_the_oracle_rejects(self, data):
        baseline = data.draw(st.lists(doc_ids, min_size=0, max_size=12), label="baseline")
        final = data.draw(st.lists(doc_ids, min_size=0, max_size=12) | st.permutations(baseline), label="final")
        try:
            expected = oracles.compare_rankings(baseline, final)
        except InputError as exc:
            with pytest.raises(InputError, match=f"^{re.escape(str(exc))}$"):
                compare_rankings(baseline, final)
        else:
            assert compare_rankings(baseline, final).hex() == expected.hex()


@pytest.fixture
def shift_setup(tmp_path, lexicon3):
    """Three docs lexically matching "beach"; the weakest lexical match is the
    one whose topic profile aligns with the query."""
    corpus = write_corpus(
        tmp_path / "corpus",
        {
            "big1.html": "<p>beach beach beach beach temple temple temple temple temple temple</p>",
            "big2.html": "<p>beach beach beach temple temple temple temple temple temple</p>",
            "target.html": "<p>beach sand sand sand sand sand sand</p>",
        },
    )
    cb = populate_case_base(corpus, lexicon3, BuildConfig(k_terms=10))
    return cb, build_index(cb)


class TestRunExperiment:
    def run(self, tmp_path, setup, title, **config_kwargs):
        cb, index = setup
        path = write_queries(tmp_path, [topic_block("Q1", title)])
        queries = load_queries(path)
        config = BuildConfig(**config_kwargs)
        return run_experiment(cb, index, queries, config)

    def test_topically_aligned_doc_rises_to_first(self, tmp_path, shift_setup):
        report = self.run(tmp_path, shift_setup, "beach", alpha=0.0)
        by_doc = {e.doc_id: e for _, e in report.rows}
        assert by_doc["target.html"].baseline_rank == 3
        assert by_doc["target.html"].final_rank == 1

    def test_alpha_one_keeps_baseline_order(self, tmp_path, shift_setup):
        report = self.run(tmp_path, shift_setup, "beach", alpha=1.0)
        assert report.rows
        assert all(e.baseline_rank == e.final_rank for _, e in report.rows)

    def test_unmatchable_query_yields_summary_only(self, tmp_path, shift_setup):
        report = self.run(tmp_path, shift_setup, "zzzqqq", alpha=0.0)
        assert report.rows == []
        (summary,) = report.summaries
        assert summary.pool_size == 0
        assert summary.kendall_tau is None

    def test_ranks_form_permutations_per_query(self, tmp_path, shift_setup):
        report = self.run(tmp_path, shift_setup, "beach temple")
        n = len(report.rows)
        assert sorted(e.baseline_rank for _, e in report.rows) == list(range(1, n + 1))
        assert sorted(e.final_rank for _, e in report.rows) == list(range(1, n + 1))

    def test_summary_tau_quantifies_reordering(self, tmp_path, shift_setup):
        report = self.run(tmp_path, shift_setup, "beach", alpha=1.0)
        assert report.summaries[0].kendall_tau == 1.0
        report = self.run(tmp_path, shift_setup, "beach", alpha=0.0)
        assert report.summaries[0].kendall_tau < 1.0

    def test_precision_columns_only_with_qrels(self, tmp_path, shift_setup):
        cb, index = shift_setup
        queries = load_queries(write_queries(tmp_path, [topic_block("Q1", "beach")]))
        plain = run_experiment(cb, index, queries, BuildConfig())
        assert not plain.has_precision
        assert plain.summaries[0].precision_final is None
        qrels = {("Q1", "target.html"): 1}
        judged = run_experiment(cb, index, queries, BuildConfig(k_retrieve=3), qrels=qrels)
        assert judged.has_precision
        assert judged.summaries[0].precision_final == pytest.approx(1 / 3)
        assert judged.summaries[0].precision_baseline == pytest.approx(1 / 3)

    def test_feedback_revises_pool_in_query_order(self, tmp_path, shift_setup):
        cb, index = shift_setup
        raw_avs = {c.doc_id: list(c.av) for c in cb.cases}
        blocks = [topic_block("Q1", "temple visit"), topic_block("Q2", "temple visit")]
        queries = load_queries(write_queries(tmp_path, blocks))
        report = run_experiment(cb, index, queries, BuildConfig(eta=0.5, alpha=0.0))
        cos = {(query_id, e.doc_id): e.affordance_cosine for query_id, e in report.rows}
        moved = [d for d in ("big1.html", "big2.html") if (("Q1", d) in cos and ("Q2", d) in cos)]
        assert moved
        # the first query pulled av_revised toward the temple axis, so the
        # identical second query sees strictly higher cosines
        assert all(cos[("Q2", d)] > cos[("Q1", d)] for d in moved)
        assert all(list(c.av) == raw_avs[c.doc_id] for c in cb.cases)
        assert any(c.av_revised != c.av for c in cb.cases)

    @pytest.mark.parametrize("eta", [0.0, 0.5])
    def test_feedback_goes_through_revise_case_affordance(self, tmp_path, shift_setup, monkeypatch, eta):
        cb, index = shift_setup
        calls = []

        def counting(cases, query_av, rate):
            calls.append([case.doc_id for case in cases])
            return revise_case_affordance(cases, query_av, rate)

        monkeypatch.setattr("affret.harness.revise_case_affordance", counting)
        blocks = [topic_block("Q1", "temple visit"), topic_block("Q2", "beach"), topic_block("Q3", "zzzqqq")]
        queries = load_queries(write_queries(tmp_path, blocks))
        report = run_experiment(cb, index, queries, BuildConfig(eta=eta))
        # one call per query with a non-empty pool (Q3 has none), in query order, each with its pool in baseline order
        pools = {}
        for query_id, entry in sorted(report.rows, key=lambda row: (row[0], row[1].baseline_rank)):
            pools.setdefault(query_id, []).append(entry.doc_id)
        assert list(pools) == ["Q1", "Q2"]
        assert sum(map(len, pools.values())) == 5
        assert calls == (list(pools.values()) if eta else [])

    def test_feedback_equals_per_candidate_revisions(self, tmp_path, lexicon3):
        rng = random.Random(7)
        pages = {
            f"d{i:02d}.html": "<p>" + " ".join(rng.choices(TOURISM_WORDS, k=rng.randint(3, 10))) + "</p>"
            for i in range(12)
        }
        cb = populate_case_base(write_corpus(tmp_path / "corpus", pages), lexicon3, BuildConfig(k_terms=6))
        # random queries, then one repeated until aligned feedback reaches the overflow rescale
        titles = [rng.choices(TOURISM_WORDS, k=rng.randint(1, 4)) for _ in range(60)]
        titles += [["beach", "temple"]] * 1800
        queries = [Query(query_id=f"Q{i}", title=title) for i, title in enumerate(titles)]
        config = BuildConfig(k_retrieve=5, eta=0.5)
        expected = copy.deepcopy(cb)
        expected_index = build_index(expected)
        rescaled = 0
        for query in queries:
            query_av = compute_query_affordance(query.title, expected.lexicon)
            for cand in retrieve_top_k(query.title, expected_index, expected, config.k_retrieve):
                peak = max(cand.case.av_revised)
                oracles.revise_case_affordance(cand.case, query_av, config.eta)
                # a non-negative step never lowers a component; only the rescale does
                rescaled += max(cand.case.av_revised) < peak
        assert rescaled
        run_experiment(cb, build_index(cb), queries, config)
        assert [[v.hex() for v in c.av_revised] for c in cb.cases] == [
            [v.hex() for v in c.av_revised] for c in expected.cases
        ]


class TestEmitReport:
    def emit(self, tmp_path, shift_setup, out="report", queries=None, **kwargs):
        cb, index = shift_setup
        blocks = queries or [topic_block("Q1", "beach")]
        loaded = load_queries(write_queries(tmp_path, blocks, name=f"{out}.txt"))
        report = run_experiment(cb, index, loaded, BuildConfig(), **kwargs)
        return emit_report(report, tmp_path / out)

    def test_rows_file_shape(self, tmp_path, shift_setup):
        rows_path, _ = self.emit(tmp_path, shift_setup)
        lines = rows_path.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "query_id,doc_id,baseline_rank,final_rank,baseline_score,affordance_cosine,final_score"
        assert len(lines) == 1 + 3

    def test_summary_line_count_is_query_count_plus_header(self, tmp_path, shift_setup):
        blocks = [topic_block(f"Q{i}", "beach") for i in range(4)]
        _, summary_path = self.emit(tmp_path, shift_setup, out="multi", queries=blocks)
        lines = summary_path.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "query_id,kendall_tau,pool_size"
        assert len(lines) == 1 + 4

    def test_rerun_is_byte_identical(self, tmp_path, shift_setup):
        first = self.emit(tmp_path, shift_setup, out="r1")
        second = self.emit(tmp_path, shift_setup, out="r2")
        for a, b in zip(first, second):
            assert a.read_bytes() == b.read_bytes()

    def test_rows_sorted_by_query_then_final_rank(self, tmp_path, shift_setup):
        blocks = [topic_block("Q2", "beach temple"), topic_block("Q1", "beach")]
        rows_path, _ = self.emit(tmp_path, shift_setup, out="sorted", queries=blocks)
        lines = rows_path.read_text(encoding="utf-8").splitlines()[1:]
        keys = [(line.split(",")[0], int(line.split(",")[3])) for line in lines]
        assert keys == sorted(keys)

    def test_six_decimal_scores(self, tmp_path, shift_setup):
        rows_path, _ = self.emit(tmp_path, shift_setup)
        for line in rows_path.read_text(encoding="utf-8").splitlines()[1:]:
            for cell in line.split(",")[4:]:
                whole, frac = cell.split(".")
                assert len(frac) == 6

    def test_precision_columns_present_with_qrels(self, tmp_path, shift_setup):
        _, summary_path = self.emit(
            tmp_path, shift_setup, out="judged", qrels={("Q1", "target.html"): 1}
        )
        header = summary_path.read_text(encoding="utf-8").splitlines()[0]
        assert header.endswith("precision_at_k_baseline,precision_at_k_final")

    def test_config_echo_written(self, tmp_path, shift_setup):
        import json

        self.emit(tmp_path, shift_setup, out="echoed")
        echo = json.loads((tmp_path / "echoed" / "run_config.json").read_text(encoding="utf-8"))
        assert echo["alpha"] == 0.0
        assert echo["k_retrieve"] == 10
        assert "lexicon_fingerprint" in echo
