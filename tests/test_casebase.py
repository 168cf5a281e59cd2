"""Case construction, corpus builds, persistence, and feedback revision."""

from __future__ import annotations

import dataclasses
import json
import logging
import math
import os
import re
from collections import Counter
from pathlib import Path
from unittest import mock

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
from affret import casebase

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

    @pytest.mark.parametrize("field", ["tau", "alpha", "eta"])
    @pytest.mark.parametrize("value", [True, "0.5", None])
    def test_dial_that_is_not_a_number_rejected(self, field, value):
        with pytest.raises(InputError, match=rf"{field} must lie in \[0, 1\]"):
            BuildConfig(**{field: value})


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

    @pytest.mark.parametrize("k", [0, -1])
    def test_k_below_one_rejected(self, k):
        # a slice would read k=-1 as every term but the lowest-ranked
        with pytest.raises(InputError, match="k must be an integer >= 1"):
            select_top_k_terms(Counter({"a": 2, "b": 1}), {"a": 0.25, "b": 3.0}, k)

    @pytest.mark.parametrize("k", [2.5, True, "3"])
    def test_k_not_an_int_rejected(self, k):
        # a bool is an int to Python, and a slice would read True as k = 1
        with pytest.raises(InputError, match="k must be an integer"):
            select_top_k_terms(Counter({"a": 2, "b": 1}), {"a": 0.25, "b": 3.0}, k)


TERMS = [f"t{i:02d}" for i in range(14)]


@st.composite
def blocks(draw, k: int) -> Counter:
    """A block's term counts, often of k - 1, k or k + 1 distinct terms."""
    size = draw(st.sampled_from([k - 1, k, k + 1]) | st.integers(0, len(TERMS)), label="distinct terms")
    chosen = draw(st.permutations(TERMS))[:size]
    return Counter({term: draw(st.integers(1, 4)) for term in chosen})


@st.composite
def idf_maps(draw) -> dict[str, float]:
    """Selection idfs where some weights tie (count 1 at 2x, count 2 at x) and some differ below the 12th digit."""
    base = draw(st.floats(1e-3, 1e3))
    pool = [base, 2 * base, math.nextafter(base, math.inf), base * (1 + 1e-13), draw(st.floats(0.0, 1e6))]
    return {term: draw(st.sampled_from(pool) | st.floats(0.0, 1e6)) for term in TERMS}


@st.composite
def corpus_stats(draw) -> CorpusStats:
    if draw(st.booleans(), label="idfs a few ulps apart"):
        # distinct dfs whose idfs, and so weights, round to the same 12 digits
        n, dfs = 10**26, st.integers(10**11, 10**11 + 3)
    else:
        n = draw(st.integers(1, 40))
        dfs = st.integers(0, n)
    df = {term: draw(dfs) for term in TERMS if draw(st.booleans())}
    return CorpusStats(df=df, n_cases=n)


@st.composite
def described_pages(draw, k: int) -> list[tuple[str, dict[str, int], list[Counter], list[int]]]:
    """1-8 pages as pass 1 describes them: doc id, per-term max tf, block term counts, vector."""
    described = []
    for n in range(draw(st.integers(1, 8), label="pages")):
        block_tfs = draw(st.lists(blocks(k), min_size=1, max_size=5))
        max_tf: dict[str, int] = {}
        for tf in block_tfs:
            for term, count in tf.items():
                max_tf[term] = max(max_tf.get(term, 0), count)
        described.append((f"p{n}", max_tf, block_tfs, [0]))
    return described


@pytest.mark.differential
class TestSelectionMatchesOracle:
    """Pass 2's memos and small-block shortcut against every block ranked and every weight rounded on its own."""

    @given(data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_select_top_k_terms(self, data):
        k = data.draw(st.integers(1, 6), label="k")
        # one rounding memo for every block, as a corpus stats holds
        rounded = CorpusStats(df={}, n_cases=1)._rounded
        for _ in range(data.draw(st.integers(1, 6), label="blocks")):
            tf, idf = data.draw(blocks(k)), data.draw(idf_maps())
            expected = oracles.select_top_k_terms(tf, idf, k)
            for top in (select_top_k_terms(tf, idf, k), select_top_k_terms(tf, idf, k, rounded)):
                assert [term for term, _ in top] == [term for term, _ in expected]
                assert bits(value for _, value in top) == bits(value for _, value in expected)

    @given(data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_descriptions_over_many_pages(self, data):
        k = data.draw(st.integers(1, 6), label="k")
        described = data.draw(described_pages(k))
        stats = data.draw(corpus_stats())
        # the same dfs over twice the cases: other idfs for the same memo keys
        for stats in (stats, CorpusStats(df=stats.df, n_cases=2 * stats.n_cases)):
            with mock.patch.object(casebase, "select_top_k_terms", wraps=select_top_k_terms) as ranking:
                cases = casebase._cases(described, k, stats)
            ranked = [len(call.args[0]) for call in ranking.call_args_list]
            assert ranked == [len(tf) for _, _, block_tfs, _ in described for tf in block_tfs if len(tf) > k]
            for case, (doc_id, max_tf, block_tfs, _) in zip(cases, described, strict=True):
                expected = oracles.case_description(max_tf, block_tfs, k, stats)
                assert case.doc_id == doc_id
                assert list(case.prob_desc) == list(expected)
                assert bits(case.prob_desc.values()) == bits(expected.values())

    @given(data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_memos_shared_by_single_page_calls(self, data):
        """build_case's shape: one page per call, many calls on one stats, next to a stats over the same dfs and another N."""
        k = data.draw(st.integers(1, 6), label="k")
        pages = data.draw(described_pages(k))
        # some terms are absent from df, and the two tables key the same dfs
        stats = data.draw(corpus_stats())
        n_other = data.draw(st.integers(1, 2 * stats.n_cases + 1).filter(lambda n: n != stats.n_cases), label="other N")
        other = CorpusStats(df=stats.df, n_cases=n_other)
        calls = []
        for page in data.draw(st.lists(st.sampled_from(pages), min_size=1, max_size=8), label="call order"):
            calls.append((page, stats))
            if data.draw(st.booleans(), label="a call on the other stats next"):
                calls.append((data.draw(st.sampled_from(pages)), other))
        for page, stats_of_call in calls:
            [case] = casebase._cases([page], k, stats_of_call)
            expected = oracles.case_description(page[1], page[2], k, stats_of_call)
            assert list(case.prob_desc) == list(expected)
            assert bits(case.prob_desc.values()) == bits(expected.values())

    def test_corpus_stats_is_frozen(self):
        # a reassigned N would leave the idf table stale
        stats = CorpusStats(df={"a": 1}, n_cases=2)
        with pytest.raises(dataclasses.FrozenInstanceError):
            stats.n_cases = 3
        assert stats == CorpusStats(df={"a": 1}, n_cases=2)


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

    def test_markup_the_parser_rejects_is_a_parse_error(self, lexicon3):
        # the error populate_case_base logs as a skipped page
        stats = CorpusStats(df={}, n_cases=1)
        with pytest.raises(ParseError, match="markup the HTML parser rejects"):
            build_case(doc("<p>beach<![foo[ x ]]> sand</p>"), lexicon3, BuildConfig(), stats)

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


def plant(link: Path, target: str) -> bool:
    """A symlink at ``link`` to ``target``, or False where the platform refuses one."""
    try:
        os.symlink(target, link)
    except (OSError, NotImplementedError):
        return False
    return True


class TestCorpusDiscovery:
    """The scandir walk against the rglob rule it replaced, on a tree of the names that rule tells apart."""

    @pytest.fixture
    def tree(self, tmp_path):
        """The corpus and the doc ids it must give, in order."""
        root = tmp_path / "corpus"
        files = [name for name in oracles.CORPUS_NAMES if name != "dir.html"]
        files += ["dir.html/inner.html", "sub/s.html", "sub/deeper/t.htm", "sub/deeper/u.txt"]
        write_corpus(root, dict.fromkeys(files, "<p>beach sand</p>"))
        ids = ["...html", "C.HTM", "a.html", "b.htm", "d.Html", "dir.html/inner.html", "sub/deeper/t.htm", "sub/s.html"]
        # a symlinked directory (and a loop back to the root) is not entered; a
        # symlinked page is read; a broken or looping link, or a link to a
        # directory, is no page
        if plant(root / "link.html", "sub/s.html"):
            ids.append("link.html")
        for name, target in [
            ("linkdir", "sub"),
            ("self", "."),
            ("dirlink.html", "sub"),
            ("broken.html", "missing.html"),
            ("loop.html", "loop.html"),
        ]:
            plant(root / name, target)
        if hasattr(os, "mkfifo"):
            os.mkfifo(root / "fifo.html")
        name = os.fsdecode(b"caf\xe9.html")
        try:
            (root / name).write_text("<p>beach sand</p>", encoding="utf-8")
            ids.append(name)
        except (OSError, UnicodeError):
            pass
        return root, sorted(ids)

    @pytest.mark.differential
    def test_doc_ids_match_the_rglob_rule(self, tree):
        root, ids = tree
        listed = casebase._corpus_files(root)
        assert [doc_id for doc_id, _ in listed] == ids
        assert listed == [(doc_id, str(path)) for doc_id, path in oracles.corpus_files(root)]

    def test_a_corpus_reached_through_a_symlink_lists_alike(self, tree, tmp_path):
        root, ids = tree
        if not plant(tmp_path / "linked", str(root)):
            pytest.skip("the platform refuses a symlink")
        assert [doc_id for doc_id, _ in casebase._corpus_files(tmp_path / "linked")] == ids

    def test_build_reads_every_listed_page(self, tree, lexicon3):
        root, ids = tree
        cb = populate_case_base(root, lexicon3, BuildConfig())
        # a file name that is not UTF-8 is listed, then skipped by the build
        assert [c.doc_id for c in cb.cases] == [doc_id for doc_id in ids if "\udce9" not in doc_id]


class TestBuildCaseAgreesWithPopulate:
    PAGES = {
        # zircon is among the top 2 of the second block only, but counted 3 times in the first
        "split.html": "<p>xenon xenon xenon xenon yodel yodel yodel yodel zircon zircon zircon</p><p>zircon quokka</p>",
        "stops.html": "<p>the and of</p><p>quokka harbor</p>",
        "anchors.html": '<p><a href="/">home</a></p><div><a href="/x">more links</a></div>',
    }

    def test_each_page_alone_builds_its_case(self, make_corpus, lexicon3, tmp_path):
        pages = {f"fuzz{seed:02d}.html": fuzz_html(seed) for seed in range(30)} | self.PAGES
        corpus = make_corpus(pages)
        (corpus / "latin1.html").write_bytes("<p>caf\xe9 beach</p>".encode("latin-1"))
        config = BuildConfig(k_terms=2)
        cb = populate_case_base(corpus, lexicon3, config)
        stats = cb.corpus_stats
        save_case_base(cb, tmp_path / "cb.jsonl")
        # fresh memos over JSON-decoded dfs
        reloaded = load_case_base(tmp_path / "cb.jsonl").corpus_stats

        def alone(path, stats):
            try:
                document = parse_document(path.read_bytes(), path.name)
            except ParseError:
                return None
            return build_case(document, lexicon3, config, stats)

        built = {case.doc_id: case for case in cb.cases}
        paths = sorted(corpus.iterdir())
        for path, stats_of_run in [(path, stats) for path in paths] + [(path, reloaded) for path in reversed(paths)]:
            case = alone(path, stats_of_run)
            if path.name in built:
                assert case.prob_desc == built[path.name].prob_desc
                assert bits(case.prob_desc.values()) == bits(built[path.name].prob_desc.values())
                assert case.av == built[path.name].av
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
        assert loaded.lexicon.fingerprint() == small_case_base.lexicon.fingerprint()

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
            (
                lambda beaches, temple, misc: [beaches, temple],
                "(m=3, active m=2): topic 3 is 'Miscellaneous' (catch-all) in the case base and no topic"
                " in the active lexicon; terms only in the case base [], only in the active lexicon []",
            ),
        ],
        ids=["one-extra-term", "moved-catch-all", "dropped-catch-all"],
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
        # two weights of 9e307 overflow a sum, yet over N = 3 each still
        # divides by its selection idf (at least log(1.75)) to a finite tf
        def edit(case):
            for pair in case["prob_desc"]:
                pair[1] = 9e307
            case["av"] = case["av_revised"] = [1.7e308, 1.7e308, 0.0]

        loaded = load_case_base(self.edited(small_case_base, tmp_path, edit))
        assert set(loaded.cases[0].prob_desc.values()) == {9e307}
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


@pytest.mark.differential
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
            revise_case_affordance([case], data.draw(query_avs), eta=0.5)
        if data.draw(st.booleans(), label="overflow"):
            case = data.draw(st.sampled_from([c for c in cases if any(c.av_revised)]))
            query_av = data.draw(query_avs.filter(any))
            rescaled = False
            for _ in range(2000):
                peak = max(case.av_revised)
                revise_case_affordance([case], query_av, eta=0.5)
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

    @given(data=st.data())
    @settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_bytes_equal_the_whole_record_writer(self, built_bases, tmp_path, data):
        built = built_bases[data.draw(st.sampled_from(sorted(built_bases)), label="base")]
        cases = copied_cases(built)
        cb = CaseBase(cases=cases, corpus_stats=built.corpus_stats, lexicon=built.lexicon, config=built.config)
        # weights a library caller can hold and no build computes, all in one save: equal keys
        # with different texts (-0.0 and 0.0; 1, True and 1.0), nan, infinities, the extremes
        held = [-0.0, 0.0, 1, True, math.nan, math.inf, -math.inf, 5e-324, 1.7e308, *FOREIGN_DIGITS]
        terms = data.draw(st.lists(escaped_text, min_size=len(held) + 1, max_size=len(held) + 1, unique=True))
        at = data.draw(st.lists(st.integers(0, len(cases) - 1), min_size=len(held), max_size=len(held)), label="cases")
        for term, value, i in zip(terms, held, at):
            cases[i].prob_desc[term] = value
        # a float 1.0 in another case than the int 1 (held[2])
        other = (at[2] + data.draw(st.integers(1, len(cases) - 1), label="other")) % len(cases)
        cases[other].prob_desc[terms[-1]] = 1.0
        for _ in range(data.draw(st.integers(0, 3), label="escaped")):
            cases[data.draw(st.integers(0, len(cases) - 1))].doc_id = data.draw(escaped_text)
        if data.draw(st.booleans(), label="reversed"):
            for case in cases:
                case.prob_desc = dict(reversed(case.prob_desc.items()))
        new, reference = tmp_path / "new.jsonl", tmp_path / "reference.jsonl"
        save_case_base(cb, new)
        oracles.save_case_base_as_held(cb, reference)
        assert new.read_bytes() == reference.read_bytes()


@pytest.mark.differential
class TestLoadDecodePaths:
    @given(data=st.data())
    @settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_blanks_around_case_lines_load_the_same_base(self, built_bases, tmp_path, data):
        # load decodes a bare case line itself and hands a wrapped one to json.loads
        plain = tmp_path / "plain.jsonl"
        save_case_base(built_bases[data.draw(st.sampled_from(sorted(built_bases)), label="base")], plain)
        lines = plain.read_text(encoding="utf-8").split("\n")
        blanks = st.text(st.sampled_from(" \t"), max_size=3)
        for i in range(1, len(lines) - 3):
            if data.draw(st.booleans(), label=f"wrap line {i + 1}"):
                lines[i] = data.draw(blanks) + lines[i] + data.draw(blanks)
        wrapped = tmp_path / "wrapped.jsonl"
        wrapped.write_text("\n".join(lines), encoding="utf-8")
        expected, loaded = load_case_base(plain), load_case_base(wrapped)
        assert loaded.cases == expected.cases
        assert loaded.corpus_stats == expected.corpus_stats
        assert loaded.lexicon == expected.lexicon


class TestReviseCaseAffordance:
    def make_case(self, av):
        return Case(doc_id="d", prob_desc={"t": 1.0}, av=list(av), av_revised=list(av))

    def test_eta_zero_is_noop(self):
        case = self.make_case([1.0, 2.0])
        revise_case_affordance([case], [0.0, 1.0], eta=0.0)
        assert case.av_revised == [1.0, 2.0]

    def test_unit_step_toward_query(self):
        case = self.make_case([1.0, 0.0])
        revise_case_affordance([case], [0.0, 1.0], eta=1.0)
        assert case.av_revised == [1.0, 1.0]

    def test_zero_query_av_changes_nothing(self):
        case = self.make_case([3.0, 4.0])
        for eta in (0.1, 1.0):
            revise_case_affordance([case], [0.0, 0.0], eta=eta)
        assert case.av_revised == [3.0, 4.0]

    def test_raw_av_never_touched(self):
        case = self.make_case([1.0, 1.0])
        revise_case_affordance([case], [1.0, 0.0], eta=0.7)
        assert case.av == [1.0, 1.0]
        assert case.av_revised != case.av

    def test_preserves_non_negativity(self):
        case = self.make_case([0.5, 0.5])
        for _ in range(5):
            revise_case_affordance([case], [1.0, 3.0], eta=0.9)
        assert all(v >= 0 for v in case.av_revised)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(DimensionError):
            revise_case_affordance([self.make_case([1.0])], [1.0, 2.0], eta=0.5)

    @pytest.mark.parametrize("eta", [0.0, 0.5])
    def test_dimension_mismatch_in_the_last_case_moves_no_case(self, eta):
        cases = [self.make_case([1.0, 0.0]), self.make_case([0.0, 1.0]), self.make_case([1.0])]
        with pytest.raises(DimensionError, match="^dimension mismatch: 2 vs 1$"):
            revise_case_affordance(cases, [1.0, 1.0], eta=eta)
        assert [c.av_revised for c in cases] == [[1.0, 0.0], [0.0, 1.0], [1.0]]

    def test_out_of_range_eta_rejected(self):
        with pytest.raises(InputError):
            revise_case_affordance([self.make_case([1.0])], [1.0], eta=1.5)

    @pytest.mark.parametrize("eta", [True, "0.5", None])
    def test_eta_that_is_not_a_number_rejected(self, eta):
        with pytest.raises(InputError, match=r"eta must lie in \[0, 1\]"):
            revise_case_affordance([self.make_case([1.0])], [1.0], eta=eta)

    def test_step_scales_with_vector_length(self):
        short = self.make_case([1.0, 0.0])
        long = self.make_case([10.0, 0.0])
        revise_case_affordance([short], [0.0, 1.0], eta=0.5)
        revise_case_affordance([long], [0.0, 1.0], eta=0.5)
        assert long.av_revised[1] == pytest.approx(10 * short.av_revised[1])

    def test_endless_aligned_feedback_stays_finite(self, small_case_base, tmp_path):
        case = small_case_base.cases[0]
        query_av = [1.0, 2.0, 0.0]
        plain = list(case.av_revised)
        for _ in range(5000):
            revise_case_affordance([case], query_av, eta=0.5)
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
        revise_case_affordance([case], [0.0, 2.0, 0.0], eta=0.5)
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


@pytest.mark.differential
class TestReviseMatchesOracle:
    """The pool's support-only feedback step against the dense per-case one it replaced, bit for bit and by type."""

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
        # a pool may list a case more than once
        pools = st.lists(st.integers(0, len(cases) - 1), min_size=1, max_size=10)
        for _ in range(data.draw(st.integers(0, 25), label="revisions")):
            pool = data.draw(pools)
            query_av = data.draw(query_avs)
            revise_case_affordance([cases[i] for i in pool], query_av, eta)
            for i in pool:
                oracles.revise_case_affordance(reference[i], query_av, eta)
            assert [bits(cases[i].av_revised) for i in pool] == [bits(reference[i].av_revised) for i in pool]
        assert [bits(c.av_revised) for c in cases] == [bits(c.av_revised) for c in reference]

    @pytest.mark.parametrize("eta", [0.5, 1.0])
    @pytest.mark.parametrize("query_av", [[0.0, 0.0, 0.0], [0.0, 0.0, 1.0], [1.0, 2.0, 0.0]], ids=["zero", "off", "on"])
    def test_overflowing_scale_rescales(self, eta, query_av):
        avs = [[1.7e308, 1.7e308, 0.0], [1.0, 0.0, 2.0], [0.0, 0.0, 0.0]]
        # the huge case alone, among others, and listed three times
        for pool in ([0], [1, 0, 2], [0, 1, 0, 0]):
            cases = [Case(f"d{i}", {"t": 1.0}, [1.0, 1.0, 0.0], list(av)) for i, av in enumerate(avs)]
            reference = [Case(f"d{i}", {"t": 1.0}, [1.0, 1.0, 0.0], list(av)) for i, av in enumerate(avs)]
            assert math.hypot(*cases[0].av_revised) == math.inf
            revise_case_affordance([cases[i] for i in pool], query_av, eta)
            for i in pool:
                oracles.revise_case_affordance(reference[i], query_av, eta)
            assert [bits(c.av_revised) for c in cases] == [bits(c.av_revised) for c in reference]
            # rescaled to a peak of 1 before its first step, so one step stays below 3;
            # each further step grows the vector's norm by at most a factor 1 + eta
            assert max(cases[0].av_revised) < 3.0 * (1 + eta) ** (pool.count(0) - 1)
