"""Case construction, corpus builds, persistence, and feedback revision."""

from __future__ import annotations

import json
import logging
import math
import re
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from affret import (
    BuildConfig,
    Case,
    CaseBase,
    CaseBaseBuildError,
    CaseBaseFormatError,
    CompatibilityError,
    CorpusStats,
    DimensionError,
    InputError,
    Lexicon,
    ParseError,
    Topic,
    build_case,
    compute_block_affordance,
    cosine_sim,
    dedupe_sentences,
    extract_block_text,
    load_case_base,
    load_lexicon,
    parse_document,
    populate_case_base,
    revise_case_affordance,
    round12,
    save_case_base,
    segment_blocks,
    select_top_k_terms,
    selection_idf,
    tokenize,
)

import oracles
from conftest import fuzz_html, write_corpus

SAMPLE = Path(__file__).resolve().parent.parent / "sample"

# values affret never computes: 17 significant digits, not 12
FOREIGN_DIGITS = [0.30000000000000004, 1.2345678901234567, 12345.678901234567, 3.0000000000000004]
assert all(len(repr(v).replace(".", "").lstrip("0")) == 17 for v in FOREIGN_DIGITS)


def bits(values):
    """Values compared bit for bit: each one's type and exact repr (which tells -0.0 from 0.0)."""
    return [(type(v), repr(v)) for v in values]


class TestRound12:
    def test_quantizes_to_twelve_significant_digits(self):
        assert round12(1.0 / 3.0) == 0.333333333333

    def test_integers_unchanged(self):
        assert round12(2.0) == 2.0

    def test_survives_json_round_trip(self):
        x = round12(math.log(7) * 3)
        assert json.loads(json.dumps(x)) == x


class TestBuildConfig:
    def test_defaults(self):
        config = BuildConfig()
        assert (config.k_terms, config.tau, config.k_retrieve) == (20, 0.5, 10)
        assert (config.alpha, config.eta) == (0.0, 0.0)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"k_terms": 0},
            {"tau": -0.1},
            {"tau": 1.5},
            {"k_retrieve": 0},
            {"alpha": 2.0},
            {"eta": -1.0},
            {"k_terms": 2.5},
            {"k_retrieve": True},
            {"alpha": True},
        ],
    )
    def test_out_of_range_rejected(self, kwargs):
        with pytest.raises(InputError):
            BuildConfig(**kwargs)


def top_k(tokens: list[str], stats: CorpusStats, k: int) -> list[tuple[str, float]]:
    """``select_top_k_terms`` over a block's tokens, with each term's selection idf."""
    tf = Counter(tokens)
    return select_top_k_terms(tf, {term: selection_idf(term, stats) for term in tf}, k)


class TestSelectTopKTerms:
    def test_tf_dominates_at_equal_idf(self):
        stats = CorpusStats(df={"beach": 1, "goa": 1}, n_cases=2)
        top = top_k(["beach", "beach", "goa"], stats, k=1)
        assert [t for t, _ in top] == ["beach"]

    def test_saturation_returns_all_distinct(self):
        stats = CorpusStats(df={}, n_cases=1)
        top = top_k(["a", "b", "a"], stats, k=10)
        assert sorted(t for t, _ in top) == ["a", "b"]

    def test_lexicographic_tie_break(self):
        stats = CorpusStats(df={"a": 1, "b": 1}, n_cases=2)
        top = top_k(["a", "b"], stats, k=1)
        assert [t for t, _ in top] == ["a"]

    def test_weights_are_tf_times_idf(self):
        stats = CorpusStats(df={"rare": 1, "common": 9}, n_cases=10)
        top = dict(top_k(["rare", "common"], stats, k=2))
        assert top["rare"] == round12(selection_idf("rare", stats))
        assert top["rare"] > top["common"]

    def test_rarer_term_outranks_frequent_common_one(self):
        # tf 2 on a ubiquitous term loses to tf 1 on a rare one
        stats = CorpusStats(df={"rare": 1, "common": 99}, n_cases=100)
        top = top_k(["common", "common", "rare"], stats, k=1)
        assert [t for t, _ in top] == ["rare"]

    def test_reads_weights_from_the_given_idf_map(self):
        top = select_top_k_terms(Counter({"a": 2, "b": 1}), {"a": 0.25, "b": 3.0}, k=2)
        assert top == [("b", 3.0), ("a", 0.5)]


def doc(markup: str, doc_id: str = "d"):
    return parse_document(markup.encode("utf-8"), doc_id)


class TestBuildCase:
    def test_two_block_doc_bounds_and_av_sum(self, lexicon3):
        stats = CorpusStats(df={}, n_cases=1)
        config = BuildConfig(k_terms=2)
        markup = "<p>beach sand surf holiday</p><p>temple stone carvings</p>"
        case = build_case(doc(markup), lexicon3, config, stats)
        assert case is not None
        assert len(case.prob_desc) <= 4
        blocks = segment_blocks(doc(markup))
        avs = [
            compute_block_affordance(tokenize(dedupe_sentences(extract_block_text(b, 0.5))), lexicon3)
            for b in blocks
        ]
        assert case.av == [a + b for a, b in zip(*avs)]

    def test_all_anchor_document_skipped(self, lexicon3):
        stats = CorpusStats(df={}, n_cases=1)
        markup = '<p><a href="/">home</a></p><div><a href="/x">more links</a></div>'
        assert build_case(doc(markup), lexicon3, BuildConfig(), stats) is None

    def test_repeated_topic_term_counts_with_multiplicity(self, lexicon3):
        stats = CorpusStats(df={}, n_cases=1)
        case = build_case(doc("<p>beach beach</p>"), lexicon3, BuildConfig(), stats)
        assert case.av[0] == 2.0

    def test_av_revised_starts_equal_to_av(self, lexicon3):
        stats = CorpusStats(df={}, n_cases=1)
        case = build_case(doc("<p>beach temple</p>"), lexicon3, BuildConfig(), stats)
        assert case.av_revised == case.av
        assert case.av_revised is not case.av


class TestPopulateCaseBase:
    def test_three_files_three_cases(self, make_corpus, lexicon3):
        corpus = make_corpus(
            {
                "a.html": "<p>beach day</p>",
                "b.html": "<p>temple walk</p>",
                "c.html": "<p>sand dunes</p>",
            }
        )
        cb = populate_case_base(corpus, lexicon3, BuildConfig())
        assert len(cb.cases) == 3
        assert cb.corpus_stats.n_cases == 3

    def test_noise_only_page_skipped(self, make_corpus, lexicon3):
        corpus = make_corpus(
            {
                "a.html": "<p>beach day</p>",
                "b.html": "<p>temple walk</p>",
                "c.html": "<p>sand dunes</p>",
                "nav.html": '<p><a href="/">one</a><a href="/2">two</a></p>',
            }
        )
        cb = populate_case_base(corpus, lexicon3, BuildConfig())
        assert len(cb.cases) == 4 - 1
        assert "nav.html" not in [c.doc_id for c in cb.cases]

    def test_cases_sorted_by_doc_id(self, make_corpus, lexicon3):
        corpus = make_corpus(
            {
                "z.html": "<p>beach</p>",
                "a.html": "<p>temple</p>",
                "sub/m.html": "<p>sand</p>",
            }
        )
        cb = populate_case_base(corpus, lexicon3, BuildConfig())
        assert [c.doc_id for c in cb.cases] == ["a.html", "sub/m.html", "z.html"]

    def test_rebuild_is_byte_identical(self, make_corpus, lexicon3, tmp_path):
        corpus = make_corpus(
            {
                "a.html": "<p>beach sand beach</p><div>temple near the shore</div>",
                "b.html": "<p>quiet village market with spice stalls</p>",
            }
        )
        paths = [tmp_path / "cb1.jsonl", tmp_path / "cb2.jsonl"]
        for path in paths:
            save_case_base(populate_case_base(corpus, lexicon3, BuildConfig()), path)
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_empty_corpus_is_a_build_error(self, tmp_path, lexicon3):
        empty = tmp_path / "none"
        empty.mkdir()
        with pytest.raises(CaseBaseBuildError):
            populate_case_base(empty, lexicon3, BuildConfig())

    def test_undecodable_file_skipped_not_fatal(self, make_corpus, lexicon3, tmp_path):
        corpus = make_corpus({"good.html": "<p>beach</p>"})
        (corpus / "bad.html").write_bytes(b"\xff\xfe\xfa")
        cb = populate_case_base(corpus, lexicon3, BuildConfig())
        assert [c.doc_id for c in cb.cases] == ["good.html"]

    def test_case_count_bounded_by_file_count(self, small_case_base):
        assert len(small_case_base.cases) <= 3
        assert all(c.prob_desc for c in small_case_base.cases)

    def test_av_matches_full_pipeline_recomputation(self, make_corpus, lexicon3):
        pages = {
            "one.html": "<p>beach sand</p><div>temple festival lights</div>",
            "two.html": "<table><tr><td>sand art</td></tr></table>",
        }
        corpus = make_corpus(pages)
        cb = populate_case_base(corpus, lexicon3, BuildConfig())
        for case in cb.cases:
            document = doc(pages[case.doc_id], case.doc_id)
            expected = [0.0] * lexicon3.m
            for block in segment_blocks(document):
                text = extract_block_text(block, 0.5)
                if not text:
                    continue
                av = compute_block_affordance(tokenize(dedupe_sentences(text)), lexicon3)
                expected = [a + b for a, b in zip(expected, av)]
            assert case.av == expected

    def test_terms_holding_stop_words_are_reported(self, make_corpus, caplog):
        lexicon = Lexicon(
            topics=[
                Topic(name="Accommodation", terms=frozenset({"bed and breakfast", "hostel"})),
                Topic(name="Heritage", terms=frozenset({"hill of temples"})),
                Topic(name="Views", terms=frozenset({"over", "river"})),
                Topic(name="Miscellaneous", terms=frozenset(), miscellaneous=True),
            ]
        )
        text = "A bed and breakfast near the hill of temples, over the river"
        corpus = make_corpus({"a.html": f"<p>{text}</p>"})
        with caplog.at_level(logging.WARNING, logger="affret"):
            cb = populate_case_base(corpus, lexicon, BuildConfig())
        # only "river" survives stop-wording as a term
        assert cb.cases[0].av == [0.0, 0.0, 1.0, 5.0]
        dead = "lexicon term %r of topic %r can never match: stop-worded text drops %s"
        assert [r.getMessage() for r in caplog.records] == [
            dead % ("bed and breakfast", "Accommodation", "and"),
            dead % ("hill of temples", "Heritage", "of"),
            dead % ("over", "Views", "over"),
        ]
        # the build's own stop list decides: one that spares these words reports none
        caplog.clear()
        with caplog.at_level(logging.WARNING, logger="affret"):
            spared = populate_case_base(corpus, lexicon, BuildConfig(), stop_words=frozenset({"a", "the"}))
        assert not caplog.records
        assert spared.cases[0].av == [1.0, 1.0, 2.0, 1.0]


class TestBuildCaseAgreesWithPopulate:
    PAGES = {
        # zircon is among the top 2 of the second block only, but counted 3 times in the first
        "split.html": "<p>xenon xenon xenon xenon yodel yodel yodel yodel zircon zircon zircon</p><p>zircon quokka</p>",
        "stops.html": "<p>the and of</p><p>quokka harbor</p>",
        "anchors.html": '<p><a href="/">home</a></p><div><a href="/x">more links</a></div>',
    }

    def test_each_page_alone_builds_its_case(self, make_corpus, lexicon3):
        pages = {f"fuzz{seed:02d}.html": fuzz_html(seed) for seed in range(30)} | self.PAGES
        corpus = make_corpus(pages)
        (corpus / "latin1.html").write_bytes("<p>caf\xe9 beach</p>".encode("latin-1"))
        config = BuildConfig(k_terms=2)
        cb = populate_case_base(corpus, lexicon3, config)
        stats = cb.corpus_stats

        def alone(path):
            try:
                document = parse_document(path.read_bytes(), path.name)
            except ParseError:
                return None
            return build_case(document, lexicon3, config, stats)

        built = {case.doc_id: case for case in cb.cases}
        for path in sorted(corpus.iterdir()):
            case = alone(path)
            if path.name in built:
                assert (case.prob_desc, case.av) == (built[path.name].prob_desc, built[path.name].av)
            else:
                assert case is None
        assert {"anchors.html", "latin1.html"}.isdisjoint(built)
        split = built["split.html"].prob_desc
        assert sorted(split) == ["quokka", "xenon", "yodel", "zircon"]
        assert split["zircon"] == round12(3 * selection_idf("zircon", stats))
        assert sorted(built["stops.html"].prob_desc) == ["harbor", "quokka"]


class TestPersistence:
    def test_round_trip_structural_equality(self, small_case_base, tmp_path):
        path = tmp_path / "cb.jsonl"
        save_case_base(small_case_base, path)
        loaded = load_case_base(path)
        assert loaded.cases == small_case_base.cases
        assert loaded.corpus_stats == small_case_base.corpus_stats
        assert loaded.config == small_case_base.config
        assert loaded.lexicon == small_case_base.lexicon
        assert loaded.lexicon_fingerprint == small_case_base.lexicon_fingerprint

    def test_active_lexicon_mismatch_rejected(self, small_case_base, tmp_path, lexicon_no_misc):
        path = tmp_path / "cb.jsonl"
        save_case_base(small_case_base, path)
        message = (
            "(m=3, active m=3): topic 1 is 'Beaches' in the case base and 'Beaches' in the active lexicon;"
            " terms only in the case base ['sand'], only in the active lexicon []"
        )
        with pytest.raises(CompatibilityError, match=re.escape(message) + "$"):
            load_case_base(path, lexicon=lexicon_no_misc)

    @pytest.mark.parametrize(
        "edit, message",
        [
            (
                lambda beaches, temple, misc: [Topic("Beaches", beaches.terms | {"shore"}), temple, misc],
                "(m=3, active m=3): topic 1 is 'Beaches' in the case base and 'Beaches' in the active lexicon;"
                " terms only in the case base [], only in the active lexicon ['shore']",
            ),
            (
                lambda beaches, temple, misc: [beaches, misc, temple],
                "(m=3, active m=3): topic 2 is 'Spirituality' in the case base and 'Miscellaneous' (catch-all)"
                " in the active lexicon; terms only in the case base ['temple'], only in the active lexicon []",
            ),
        ],
        ids=["one-extra-term", "moved-catch-all"],
    )
    def test_mismatch_names_the_first_differing_topic(self, small_case_base, tmp_path, lexicon3, edit, message):
        path = tmp_path / "cb.jsonl"
        save_case_base(small_case_base, path)
        with pytest.raises(CompatibilityError, match=re.escape(message) + "$"):
            load_case_base(path, lexicon=Lexicon(topics=edit(*lexicon3.topics)))

    def test_matching_active_lexicon_accepted(self, small_case_base, tmp_path, lexicon3):
        path = tmp_path / "cb.jsonl"
        save_case_base(small_case_base, path)
        assert load_case_base(path, lexicon=lexicon3).cases == small_case_base.cases

    def test_truncated_file_rejected(self, small_case_base, tmp_path):
        path = tmp_path / "cb.jsonl"
        save_case_base(small_case_base, path)
        lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
        (tmp_path / "cut.jsonl").write_text("".join(lines[:-1]), encoding="utf-8")
        with pytest.raises(CaseBaseFormatError, match="truncated"):
            load_case_base(tmp_path / "cut.jsonl")

    @pytest.mark.parametrize("separator", ["\u2028", "\x85"], ids=["u2028", "x85"])
    def test_records_split_only_at_newlines(self, small_case_base, tmp_path, separator):
        path = tmp_path / "cb.jsonl"
        save_case_base(small_case_base, path)
        lines = path.read_text(encoding="utf-8").split("\n")
        case = json.loads(lines[1])
        case["doc_id"] = f"a{separator}b.html"
        # valid JSON: ensure_ascii=False writes the line separator raw
        lines[1] = json.dumps(case, sort_keys=True, ensure_ascii=False)
        path.write_text("\n".join(lines), encoding="utf-8")
        assert load_case_base(path).cases[0].doc_id == f"a{separator}b.html"
        # an error after that line is reported at its own line
        lines[3] = lines[3][: len(lines[3]) // 2]
        path.write_text("\n".join(lines), encoding="utf-8")
        with pytest.raises(CaseBaseFormatError, match=f"^{re.escape(str(path))}: line 4 is not valid JSON"):
            load_case_base(path)

    def test_corrupt_json_line_rejected(self, small_case_base, tmp_path):
        path = tmp_path / "cb.jsonl"
        save_case_base(small_case_base, path)
        lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
        lines[1] = lines[1][: len(lines[1]) // 2] + "\n"
        (tmp_path / "bad.jsonl").write_text("".join(lines), encoding="utf-8")
        with pytest.raises(CaseBaseFormatError):
            load_case_base(tmp_path / "bad.jsonl")

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(CaseBaseFormatError):
            load_case_base(tmp_path / "absent.jsonl")

    def test_dimension_mismatch_against_header_rejected(self, small_case_base, tmp_path):
        path = tmp_path / "cb.jsonl"
        save_case_base(small_case_base, path)
        lines = path.read_text(encoding="utf-8").splitlines()
        case = json.loads(lines[1])
        case["av"] = case["av"] + [0.0]
        lines[1] = json.dumps(case, sort_keys=True)
        (tmp_path / "dim.jsonl").write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(CaseBaseFormatError, match="dimension"):
            load_case_base(tmp_path / "dim.jsonl")

    def edited(self, cb, tmp_path, edit):
        """The saved case base after ``edit`` rewrites the first case's record (a dict)."""
        path = tmp_path / "cb.jsonl"
        save_case_base(cb, path)
        lines = path.read_text(encoding="utf-8").splitlines()
        case = json.loads(lines[1])
        edit(case)
        # json.dumps writes inf and nan as Infinity and NaN; 1e999 goes in through a placeholder
        lines[1] = json.dumps(case, sort_keys=True).replace('"@value@"', "1e999")
        edited = tmp_path / "edited.jsonl"
        edited.write_text("\n".join(lines) + "\n", encoding="utf-8")
        return edited

    @pytest.mark.parametrize("field", ["prob_desc", "av", "av_revised"])
    @pytest.mark.parametrize(
        "value",
        [math.inf, -math.inf, math.nan, "@value@"],
        ids=["Infinity", "-Infinity", "NaN", "1e999"],
    )
    def test_non_finite_value_rejected(self, small_case_base, tmp_path, field, value):
        def edit(case):
            if field == "prob_desc":
                case[field][-1][1] = value
            else:
                case[field][1] = value

        path = self.edited(small_case_base, tmp_path, edit)
        doc_id = small_case_base.cases[0].doc_id
        with pytest.raises(CaseBaseFormatError, match=f"{doc_id!r} at line 2 has a non-finite {field} value"):
            load_case_base(path)

    def test_finite_values_whose_sum_overflows_accepted(self, small_case_base, tmp_path):
        def edit(case):
            for pair in case["prob_desc"]:
                pair[1] = 1.7e308
            case["av"] = case["av_revised"] = [1.7e308, 1.7e308, 0.0]

        loaded = load_case_base(self.edited(small_case_base, tmp_path, edit))
        assert set(loaded.cases[0].prob_desc.values()) == {1.7e308}
        assert loaded.cases[0].av == [1.7e308, 1.7e308, 0.0]

    def test_foreign_digits_are_carried_exactly(self, small_case_base, tmp_path):
        foreign = FOREIGN_DIGITS

        def edit(case):
            for i, pair in enumerate(case["prob_desc"]):
                pair[1] = foreign[i % 4]
            case["av"] = foreign[:3]
            case["av_revised"] = foreign[1:]

        path = self.edited(small_case_base, tmp_path, edit)
        loaded = load_case_base(path)
        first = loaded.cases[0]
        assert [first.prob_desc[t] for t in sorted(first.prob_desc)] == [foreign[i % 4] for i in range(len(first.prob_desc))]
        assert (first.av, first.av_revised) == (foreign[:3], foreign[1:])
        saved, again = tmp_path / "saved.jsonl", tmp_path / "again.jsonl"
        save_case_base(loaded, saved)
        assert saved.read_bytes() == path.read_bytes()
        save_case_base(load_case_base(saved), again)
        assert again.read_bytes() == saved.read_bytes()

    def test_integer_past_the_digit_limit_rejected(self, small_case_base, tmp_path):
        def edit(case):
            case["av"][0] = "@value@"

        # json.loads raises a bare ValueError for an integer past Python's 4300-digit conversion limit
        path = self.edited(small_case_base, tmp_path, edit)
        path.write_text(path.read_text(encoding="utf-8").replace("1e999", "9" * 5000), encoding="utf-8")
        with pytest.raises(CaseBaseFormatError, match=f"^{re.escape(str(path))}: .*line 2"):
            load_case_base(path)

    def test_foreign_integers_are_carried(self, small_case_base, tmp_path):
        def edit(case):
            for i, pair in enumerate(case["prob_desc"]):
                pair[1] = 13 + i
            case["av"] = [3, 0, 1]
            case["av_revised"] = [3, 0, 1.5]

        path = self.edited(small_case_base, tmp_path, edit)
        first = load_case_base(path).cases[0]
        assert bits(first.prob_desc[t] for t in sorted(first.prob_desc)) == bits(range(13, 13 + len(first.prob_desc)))
        assert (bits(first.av), bits(first.av_revised)) == (bits([3, 0, 1]), bits([3, 0, 1.5]))
        saved = tmp_path / "saved.jsonl"
        save_case_base(load_case_base(path), saved)
        assert saved.read_bytes() == path.read_bytes()


# doc ids and terms that JSON must escape: quote, backslash, non-ASCII, controls
escaped_text = st.text(st.sampled_from('"\\/é日\u2028\x00\tab'), min_size=1) | st.text(min_size=1)


@pytest.fixture(scope="module")
def built_bases(tmp_path_factory):
    """Case bases as the build writes them: fuzzed pages under names JSON escapes, and the sample."""
    lexicon = Lexicon(
        topics=[
            Topic(name="Beaches", terms=frozenset({"beach", "sand"})),
            Topic(name="Spirituality", terms=frozenset({"temple", "café"})),
            Topic(name="Miscellaneous", terms=frozenset(), miscellaneous=True),
        ]
    )
    pages = {f"fuzz{seed:02d}.html": fuzz_html(seed) for seed in range(30)}
    pages['quo"te.html'] = "<p>beach café crème Zürich temple</p>"
    pages["back\\slash.html"] = "<div>sand 日本 sand temple</div>"
    pages["naïve-日本.html"] = "<p>naïve beach</p><p>temple temple</p>"
    corpus = write_corpus(tmp_path_factory.mktemp("fuzz"), pages)
    return {
        "fuzz": populate_case_base(corpus, lexicon, BuildConfig(k_terms=5)),
        "sample": populate_case_base(SAMPLE / "corpus", load_lexicon(SAMPLE / "lexicon.tsv"), BuildConfig()),
    }


def copied_cases(cb: CaseBase) -> list[Case]:
    return [Case(c.doc_id, dict(c.prob_desc), list(c.av), list(c.av_revised)) for c in cb.cases]


class TestSaveMatchesOracle:
    @given(data=st.data())
    @settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_bytes_equal_the_rounding_writer(self, built_bases, tmp_path, data):
        built = built_bases[data.draw(st.sampled_from(sorted(built_bases)), label="base")]
        cases = copied_cases(built)
        cb = CaseBase(cases=cases, corpus_stats=built.corpus_stats, lexicon=built.lexicon, config=built.config)
        m = cb.lexicon.m
        query_avs = st.lists(st.integers(0, 6).map(float), min_size=m, max_size=m)
        for _ in range(data.draw(st.integers(0, 25), label="revisions")):
            case = cases[data.draw(st.integers(0, len(cases) - 1))]
            revise_case_affordance(case, data.draw(query_avs), eta=0.5)
        if data.draw(st.booleans(), label="overflow"):
            case = data.draw(st.sampled_from([c for c in cases if any(c.av_revised)]))
            query_av = data.draw(query_avs.filter(any))
            rescaled = False
            for _ in range(2000):
                peak = max(case.av_revised)
                revise_case_affordance(case, query_av, eta=0.5)
                # steps only add non-negative components, so only the overflow rescale lowers the peak
                rescaled = rescaled or max(case.av_revised) < peak
            assert rescaled
        for _ in range(data.draw(st.integers(0, 3), label="escaped")):
            case = cases[data.draw(st.integers(0, len(cases) - 1))]
            case.doc_id = data.draw(escaped_text)
            weight = data.draw(st.floats(min_value=0.0, max_value=1e6, allow_nan=False))
            case.prob_desc[data.draw(escaped_text)] = round12(weight)
        new, reference = tmp_path / "new.jsonl", tmp_path / "reference.jsonl"
        save_case_base(cb, new)
        oracles.save_case_base(cb, reference)
        assert new.read_bytes() == reference.read_bytes()


class TestReviseCaseAffordance:
    def make_case(self, av):
        return Case(doc_id="d", prob_desc={"t": 1.0}, av=list(av), av_revised=list(av))

    def test_eta_zero_is_noop(self):
        case = self.make_case([1.0, 2.0])
        revise_case_affordance(case, [0.0, 1.0], eta=0.0)
        assert case.av_revised == [1.0, 2.0]

    def test_unit_step_toward_query(self):
        case = self.make_case([1.0, 0.0])
        revise_case_affordance(case, [0.0, 1.0], eta=1.0)
        assert case.av_revised == [1.0, 1.0]

    def test_zero_query_av_changes_nothing(self):
        case = self.make_case([3.0, 4.0])
        for eta in (0.1, 1.0):
            revise_case_affordance(case, [0.0, 0.0], eta=eta)
        assert case.av_revised == [3.0, 4.0]

    def test_raw_av_never_touched(self):
        case = self.make_case([1.0, 1.0])
        revise_case_affordance(case, [1.0, 0.0], eta=0.7)
        assert case.av == [1.0, 1.0]
        assert case.av_revised != case.av

    def test_preserves_non_negativity(self):
        case = self.make_case([0.5, 0.5])
        for _ in range(5):
            revise_case_affordance(case, [1.0, 3.0], eta=0.9)
        assert all(v >= 0 for v in case.av_revised)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(DimensionError):
            revise_case_affordance(self.make_case([1.0]), [1.0, 2.0], eta=0.5)

    def test_out_of_range_eta_rejected(self):
        with pytest.raises(InputError):
            revise_case_affordance(self.make_case([1.0]), [1.0], eta=1.5)

    def test_step_scales_with_vector_length(self):
        short = self.make_case([1.0, 0.0])
        long = self.make_case([10.0, 0.0])
        revise_case_affordance(short, [0.0, 1.0], eta=0.5)
        revise_case_affordance(long, [0.0, 1.0], eta=0.5)
        assert long.av_revised[1] == pytest.approx(10 * short.av_revised[1])

    def test_endless_aligned_feedback_stays_finite(self, small_case_base, tmp_path):
        case = small_case_base.cases[0]
        query_av = [1.0, 2.0, 0.0]
        plain = list(case.av_revised)
        for _ in range(5000):
            revise_case_affordance(case, query_av, eta=0.5)
            if plain is not None:
                # the unguarded step, kept while it stays finite
                scale = 0.5 * math.hypot(*plain)
                unit = [v / math.hypot(*query_av) for v in query_av]
                plain = [round12(v + scale * d) for v, d in zip(plain, unit)]
                if all(map(math.isfinite, plain)):
                    assert case.av_revised == plain
                else:
                    plain = None
            assert all(map(math.isfinite, case.av_revised))
            assert 0.0 <= cosine_sim(query_av, case.av_revised) <= 1.0
        assert plain is None, "5000 revisions no longer reach the overflow"
        assert cosine_sim(query_av, case.av_revised) == pytest.approx(1.0)
        first, second = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        save_case_base(small_case_base, first)
        loaded = load_case_base(first)
        assert loaded.cases[0].av_revised == case.av_revised
        save_case_base(loaded, second)
        assert first.read_bytes() == second.read_bytes()

    def test_unmoved_foreign_digits_are_carried(self, small_case_base, tmp_path):
        case = small_case_base.cases[0]
        case.av_revised = FOREIGN_DIGITS[:3]
        scale = 0.5 * math.hypot(*FOREIGN_DIGITS[:3])
        revise_case_affordance(case, [0.0, 2.0, 0.0], eta=0.5)
        # the step moves component 1 only: it is rounded, the others keep all 17 digits
        assert case.av_revised == [FOREIGN_DIGITS[0], round12(FOREIGN_DIGITS[1] + scale), FOREIGN_DIGITS[2]]
        assert round12(case.av_revised[1]) == case.av_revised[1]
        assert round12(case.av_revised[0]) != case.av_revised[0]
        first, second = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        save_case_base(small_case_base, first)
        loaded = load_case_base(first)
        assert loaded.cases[0].av_revised == case.av_revised
        save_case_base(loaded, second)
        assert first.read_bytes() == second.read_bytes()


class TestReviseMatchesOracle:
    """The support-only feedback step against the dense one it replaced, bit for bit and by type."""

    @given(data=st.data())
    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_revision_chains(self, built_bases, data):
        built = built_bases[data.draw(st.sampled_from(sorted(built_bases)), label="base")]
        eta = data.draw(st.sampled_from([0.5, 1.0]), label="eta")
        cases, reference = copied_cases(built), copied_cases(built)
        m = built.lexicon.m
        if data.draw(st.booleans(), label="huge"):
            # hypot overflows to inf, so the step must rescale, for a zero query too
            i = data.draw(st.integers(0, len(cases) - 1))
            cases[i].av_revised = [1.7e308, 1.7e308] + [0.0] * (m - 2)
            reference[i].av_revised = list(cases[i].av_revised)
        counts = st.integers(0, 6).map(float) | st.just(-0.0)
        query_avs = st.lists(counts, min_size=m, max_size=m) | st.just([0.0] * m)
        for _ in range(data.draw(st.integers(0, 25), label="revisions")):
            i = data.draw(st.integers(0, len(cases) - 1))
            query_av = data.draw(query_avs)
            revise_case_affordance(cases[i], query_av, eta)
            oracles.revise_case_affordance(reference[i], query_av, eta)
            assert bits(cases[i].av_revised) == bits(reference[i].av_revised)
        assert [bits(c.av_revised) for c in cases] == [bits(c.av_revised) for c in reference]

    @pytest.mark.parametrize("eta", [0.5, 1.0])
    @pytest.mark.parametrize("query_av", [[0.0, 0.0, 0.0], [0.0, 0.0, 1.0], [1.0, 2.0, 0.0]], ids=["zero", "off", "on"])
    def test_overflowing_scale_rescales(self, eta, query_av):
        case = Case("d", {"t": 1.0}, [1.0, 1.0, 0.0], [1.7e308, 1.7e308, 0.0])
        reference = Case("d", {"t": 1.0}, [1.0, 1.0, 0.0], [1.7e308, 1.7e308, 0.0])
        assert math.hypot(*case.av_revised) == math.inf
        revise_case_affordance(case, query_av, eta)
        oracles.revise_case_affordance(reference, query_av, eta)
        assert bits(case.av_revised) == bits(reference.av_revised)
        # rescaled to a peak of 1 before the step, so nothing is near 1.7e308
        assert max(case.av_revised) < 3.0
