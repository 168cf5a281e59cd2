"""Baseline lexical scoring, candidate retrieval, and affordance re-ranking."""

from __future__ import annotations

import math
import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from affret import (
    BuildConfig,
    Candidate,
    Case,
    CaseBase,
    CaseBaseBuildError,
    CaseBaseFormatError,
    CorpusStats,
    InputError,
    Lexicon,
    Topic,
    baseline_score,
    build_case,
    build_index,
    cosine_sim,
    load_case_base,
    parse_document,
    populate_case_base,
    rerank,
    retrieve_top_k,
    round12,
    save_case_base,
    selection_idf,
)

import oracles
from conftest import TOURISM_WORDS, write_corpus


def corpus_cb(tmp_path, lexicon, pages, **config):
    corpus = write_corpus(tmp_path / "corpus", pages)
    return populate_case_base(corpus, lexicon, BuildConfig(**config))


class TestBuildIndex:
    def test_singleton_posting(self, tmp_path, lexicon3):
        cb = corpus_cb(tmp_path, lexicon3, {"d1.html": "<p>beach</p>"})
        index = build_index(cb)
        assert list(index.postings) == ["beach"]
        assert index.postings["beach"] == [(0, 1)]

    def test_posting_length_equals_document_frequency(self, tmp_path, lexicon3):
        cb = corpus_cb(
            tmp_path,
            lexicon3,
            {
                "a.html": "<p>beach temple</p>",
                "b.html": "<p>beach sand</p>",
                "c.html": "<p>temple gardens</p>",
            },
        )
        index = build_index(cb)
        assert len(index.postings["beach"]) == 2
        assert len(index.postings["temple"]) == 2
        assert len(index.postings["sand"]) == 1

    def test_build_twice_identical(self, small_case_base):
        assert build_index(small_case_base) == build_index(small_case_base)

    def test_empty_case_base_rejected(self, lexicon3):
        empty = CaseBase(
            cases=[],
            corpus_stats=CorpusStats(df={}, n_cases=0),
            lexicon=lexicon3,
            config=BuildConfig(),
        )
        with pytest.raises(CaseBaseBuildError):
            build_index(empty)

    def test_term_frequencies_recovered_exactly(self, tmp_path, lexicon3):
        cb = corpus_cb(tmp_path, lexicon3, {"d.html": "<p>beach beach beach temple</p>"})
        index = build_index(cb)
        assert dict(index.postings["beach"]) == {0: 3}
        assert dict(index.postings["temple"]) == {0: 1}

    def test_norm_is_inverse_sqrt_of_description_size(self, tmp_path, lexicon3):
        cb = corpus_cb(tmp_path, lexicon3, {"d.html": "<p>beach sand temple gardens</p>"})
        index = build_index(cb)
        assert index.doc_norms[0] == pytest.approx(1 / math.sqrt(4))

    def test_unrecoverable_tf_is_a_format_error_in_every_view(self, tmp_path):
        for weight, problem, on_load in (
            # over N = 1 and df = 1 the selection idf is below 1, so 1.5e308 / idf
            # overflows to inf, which rounds to no tf
            (1.5e308, "is too large to recover its tf", "line 2: case base weight of 'beach' is too large to recover its tf"),
            (math.nan, "is not a number", "case 'd' at line 2 has a non-finite prob_desc value"),
        ):
            cb = CaseBase(
                cases=[Case(doc_id="d", prob_desc={"beach": weight}, av=[1.0], av_revised=[1.0])],
                corpus_stats=CorpusStats(df={"beach": 1}, n_cases=1),
                lexicon=MISC_ONLY,
                config=BuildConfig(),
            )
            views = {
                "query": lambda index: retrieve_top_k(["beach"], index, cb, 1),
                "postings": lambda index: index.postings,
                "case_tfs": lambda index: index.case_tfs,
                "baseline_score": lambda index: baseline_score(["beach"], cb.cases[0], index),
            }
            for view in views.values():
                with pytest.raises(CaseBaseFormatError, match=f"^case base weight of 'beach' {problem}$"):
                    view(build_index(cb))
            # load refuses the saved base, so only an in-memory one reaches the views
            save_case_base(cb, tmp_path / "cb.jsonl")
            with pytest.raises(CaseBaseFormatError, match=on_load):
                load_case_base(tmp_path / "cb.jsonl")

    @pytest.mark.parametrize(
        ("n_cases", "df"),
        # at the bare idf formula: a division by zero (N = 0 makes every idf 0, df = -1 divides by
        # 1 + df), and the log of a negative number
        [(0, 1), (3, -1), (3, -3)],
        ids=["no-cases", "df-minus-one", "df-minus-three"],
    )
    def test_stats_without_a_positive_idf_are_a_format_error_in_every_view(self, n_cases, df):
        stats = CorpusStats(df={"beach": df}, n_cases=n_cases)
        cb = CaseBase(
            cases=[Case(doc_id="d", prob_desc={"beach": 1.0}, av=[1.0], av_revised=[1.0])],
            corpus_stats=stats,
            lexicon=MISC_ONLY,
            config=BuildConfig(),
        )
        views = {
            "query": lambda: retrieve_top_k(["beach"], build_index(cb), cb, 1),
            "baseline_score": lambda: baseline_score(["beach"], cb.cases[0], build_index(cb)),
            "build_case": lambda: build_case(parse_document(b"<p>beach</p>", "e"), MISC_ONLY, BuildConfig(), stats),
        }
        message = f"^corpus stats need N >= 1 and every df >= 0, got N {n_cases} and df {df}$"
        for view in views.values():
            with pytest.raises(CaseBaseFormatError, match=message):
                view()

    def test_description_insertion_order_is_irrelevant(self, small_case_base):
        shuffled = CaseBase(
            cases=[
                Case(
                    doc_id=c.doc_id,
                    prob_desc=dict(reversed(c.prob_desc.items())),
                    av=c.av,
                    av_revised=c.av_revised,
                )
                for c in small_case_base.cases
            ],
            corpus_stats=small_case_base.corpus_stats,
            lexicon=small_case_base.lexicon,
            config=small_case_base.config,
        )
        assert any(list(c.prob_desc) != sorted(c.prob_desc) for c in shuffled.cases)
        index, shuffled_index = build_index(small_case_base), build_index(shuffled)
        assert shuffled_index == index
        for query in (["beach"], ["beach", "temple", "sand", "walk"]):
            got = retrieve_top_k(query, shuffled_index, shuffled, 5)
            expected = retrieve_top_k(query, index, small_case_base, 5)
            assert [(c.case.doc_id, c.baseline_score) for c in got] == [
                (c.case.doc_id, c.baseline_score) for c in expected
            ]


class TestBaselineScore:
    def two_doc_index(self, tmp_path, lexicon3):
        cb = corpus_cb(
            tmp_path, lexicon3, {"d1.html": "<p>beach</p>", "d2.html": "<p>temple</p>"}
        )
        return cb, build_index(cb)

    def test_no_overlap_scores_zero(self, tmp_path, lexicon3):
        cb, index = self.two_doc_index(tmp_path, lexicon3)
        assert baseline_score(["temple"], cb.case("d1.html"), index) == 0.0

    def test_hand_evaluated_unit_score(self, tmp_path, lexicon3):
        # N=2, df=1: idf = 1 + ln(2/2) = 1; tf=1, one-term description,
        # one-term query: coord=1, so the score is exactly 1
        cb, index = self.two_doc_index(tmp_path, lexicon3)
        assert baseline_score(["beach"], cb.case("d1.html"), index) == 1.0

    def test_coord_halves_score_for_unmatched_query_term(self, tmp_path, lexicon3):
        cb, index = self.two_doc_index(tmp_path, lexicon3)
        assert baseline_score(["beach", "zzz"], cb.case("d1.html"), index) == 0.5
        # duplicating the unmatched term must not change coord: terms are distinct
        assert baseline_score(["beach", "zzz", "zzz"], cb.case("d1.html"), index) == 0.5

    def test_empty_query_scores_zero(self, tmp_path, lexicon3):
        cb, index = self.two_doc_index(tmp_path, lexicon3)
        assert baseline_score([], cb.case("d1.html"), index) == 0.0


class TestRetrieveTopK:
    def test_truncates_to_nonzero_scorers(self, tmp_path, lexicon3):
        cb = corpus_cb(
            tmp_path,
            lexicon3,
            {
                "a.html": "<p>beach sand</p>",
                "b.html": "<p>beach walk</p>",
                "c.html": "<p>temple stay</p>",
            },
        )
        pool = retrieve_top_k(["beach"], build_index(cb), cb, k=5)
        assert sorted(c.case.doc_id for c in pool) == ["a.html", "b.html"]

    def test_ties_break_by_doc_id(self, tmp_path, lexicon3):
        cb = corpus_cb(
            tmp_path,
            lexicon3,
            {"x.html": "<p>beach</p>", "m.html": "<p>beach</p>", "a.html": "<p>beach</p>"},
        )
        pool = retrieve_top_k(["beach"], build_index(cb), cb, k=3)
        assert [c.case.doc_id for c in pool] == ["a.html", "m.html", "x.html"]

    def test_k_must_be_positive(self, small_case_base):
        with pytest.raises(InputError):
            retrieve_top_k(["beach"], build_index(small_case_base), small_case_base, k=0)

    @pytest.mark.parametrize("k", [2.5, True, "3"])
    def test_k_must_be_an_int(self, small_case_base, k):
        # rejected before any posting is scored; a bool is an int to Python but not a pool size
        with pytest.raises(InputError, match="k must be an integer"):
            retrieve_top_k(["beach"], build_index(small_case_base), small_case_base, k)

    def test_empty_query_returns_empty_pool(self, small_case_base):
        assert retrieve_top_k([], build_index(small_case_base), small_case_base, k=3) == []

    def test_matches_brute_force_on_random_bases(self, tmp_path, lexicon3):
        rng = random.Random(40)
        for trial in range(10):
            pages = {
                f"d{i:02d}.html": "<p>" + " ".join(rng.choices(TOURISM_WORDS, k=rng.randint(2, 12))) + "</p>"
                for i in range(rng.randint(2, 12))
            }
            cb = corpus_cb(tmp_path / f"t{trial}", lexicon3, pages, k_terms=8)
            index = build_index(cb)
            query = rng.choices(TOURISM_WORDS, k=rng.randint(1, 4))
            k = rng.randint(1, 15)
            expected = [
                Candidate(case=c, baseline_score=s)
                for c in cb.cases
                if (s := baseline_score(query, c, index)) > 0
            ]
            expected.sort(key=lambda c: (-c.baseline_score, c.case.doc_id))
            assert retrieve_top_k(query, index, cb, k) == expected[:k]


VOCAB = ["beach", "sand", "temple", "trail", "curry", "ferry"]
QUERY_WORDS = VOCAB + ["unknown", "zzz"]
MISC_ONLY = Lexicon(topics=[Topic(name="Miscellaneous", terms=frozenset(), miscellaneous=True)])


def case_base_of(descriptions: list[dict[str, int]], doc_ids: list[str]) -> CaseBase:
    """A case base whose cases hold the given term counts, weighted as a build weights them."""
    stats = CorpusStats(df=dict(Counter(t for d in descriptions for t in d)), n_cases=len(descriptions))
    cases = [
        Case(
            doc_id=doc_id,
            prob_desc={t: round12(tf * selection_idf(t, stats)) for t, tf in sorted(desc.items())},
            av=[1.0],
            av_revised=[1.0],
        )
        for doc_id, desc in zip(doc_ids, descriptions)
    ]
    return CaseBase(
        cases=cases,
        corpus_stats=stats,
        lexicon=MISC_ONLY,
        config=BuildConfig(),
    )


@st.composite
def tied_case_bases(draw):
    """Cases drawn from a few distinct descriptions (so exact score ties are
    common), in an ordinal order unrelated to doc_id order."""
    templates = draw(
        st.lists(
            st.dictionaries(st.sampled_from(VOCAB), st.integers(1, 3), min_size=1, max_size=4),
            min_size=1,
            max_size=8,
        )
    )
    descriptions = draw(st.lists(st.sampled_from(templates), min_size=1, max_size=16))
    doc_ids = draw(st.permutations([f"d{i:02d}" for i in range(len(descriptions))]))
    return case_base_of(descriptions, doc_ids)


@st.composite
def large_tied_case_bases(draw):
    """50-300 cases drawn from 2-5 descriptions, so hundreds of cases tie at
    the cut, in an ordinal order unrelated to doc_id order."""
    templates = draw(
        st.lists(
            st.dictionaries(st.sampled_from(VOCAB), st.integers(1, 3), min_size=1, max_size=4),
            min_size=2,
            max_size=5,
        )
    )
    n = draw(st.integers(50, 300))
    rnd = draw(st.randoms(use_true_random=False))
    descriptions = [rnd.choice(templates) for _ in range(n)]
    doc_ids = [f"d{i:03d}" for i in range(n)]
    rnd.shuffle(doc_ids)
    return case_base_of(descriptions, doc_ids)


def identities(pool):
    """Each candidate's case identity and the bits of its score."""
    return [(id(c.case), c.baseline_score.hex()) for c in pool]


class TestRetrieveMatchesOracle:
    @given(
        tied_case_bases(),
        st.lists(st.sampled_from(QUERY_WORDS), min_size=1, max_size=6),
        st.integers(1, 20),
    )
    @settings(max_examples=300, deadline=None)
    def test_equals_reference_retrieval(self, cb, query, k):
        index = build_index(cb)
        for k_ in (1, k, len(cb.cases) + 3):
            expected = identities(oracles.retrieve_top_k(query, index, cb, k_))
            # a fresh index fills its scoring entries; ``index`` reuses them after the first k
            assert identities(retrieve_top_k(query, build_index(cb), cb, k_)) == expected
            assert identities(retrieve_top_k(query, index, cb, k_)) == expected

    @given(large_tied_case_bases(), st.lists(st.sampled_from(QUERY_WORDS), min_size=1, max_size=8))
    @settings(max_examples=100, deadline=None)
    def test_many_way_ties_at_the_cut_on_large_bases(self, cb, query):
        warm = build_index(cb)
        retrieve_top_k(query, warm, cb, 1)
        for k in (1, 10, len(cb.cases) + 3):
            expected = identities(oracles.retrieve_top_k(query, warm, cb, k))
            assert identities(retrieve_top_k(query, build_index(cb), cb, k)) == expected
            assert identities(retrieve_top_k(query, warm, cb, k)) == expected

    def test_ties_across_the_cut_keep_lowest_doc_ids(self):
        doc_ids = [f"d{i:02d}" for i in range(12)]
        descriptions = [{"beach": 1}] * 12
        cb = case_base_of(descriptions, list(reversed(doc_ids)))
        index = build_index(cb)
        pool = retrieve_top_k(["beach"], index, cb, 5)
        assert [c.case.doc_id for c in pool] == doc_ids[:5]
        assert len({c.baseline_score for c in pool}) == 1

    def test_warm_query_reuses_cold_result(self, small_case_base):
        index = build_index(small_case_base)
        cold = retrieve_top_k(["beach", "sand", "temple"], index, small_case_base, 3)
        warm = retrieve_top_k(["beach", "sand", "temple"], index, small_case_base, 3)
        assert identities(warm) == identities(cold)
        # the filled scoring entries take no part in index equality
        assert build_index(small_case_base) == index


@st.composite
def weighted_case_bases(draw):
    """Case bases whose weights are drawn as multiples of the selection idf:
    fractions below one half (tf rounds to 0 and is lifted to 1), exact
    half-way ties (rounded to even), terms shared
    by many cases, corpus stats counting more than the descriptions hold,
    doc_ids in an order unrelated to the ordinals."""
    n = draw(st.integers(1, 12))
    terms = st.sampled_from(VOCAB + ["walk", "quiet"])
    descriptions = [draw(st.lists(terms, min_size=1, max_size=5, unique=True)) for _ in range(n)]
    # a build counts every token of every admitted page, not only the selected terms
    df = {t: count + draw(st.integers(0, 3)) for t, count in Counter(t for d in descriptions for t in d).items()}
    stats = CorpusStats(df=df, n_cases=n + draw(st.integers(0, 3)))
    multiples = st.sampled_from([0.05, 0.3, 0.49, 0.5, 0.51, 1.0, 1.4, 2.0, 2.5, 3.0, 7.0])
    # unquantized, a weight of 0.5 or 2.5 idfs usually divides back to an exact tie
    quantize = st.sampled_from([round12, float])
    doc_ids = draw(st.permutations([f"d{i:02d}" for i in range(n)]))
    cases = [
        Case(
            doc_id=doc_id,
            prob_desc={t: draw(quantize)(draw(multiples) * selection_idf(t, stats)) for t in desc},
            av=[1.0],
            av_revised=[1.0],
        )
        for doc_id, desc in zip(doc_ids, descriptions)
    ]
    return CaseBase(
        cases=cases,
        corpus_stats=stats,
        lexicon=MISC_ONLY,
        config=BuildConfig(),
    )


class TestIndexMatchesOracle:
    @given(
        weighted_case_bases(),
        st.lists(st.sampled_from(QUERY_WORDS + ["walk", "quiet"]), min_size=1, max_size=6),
        st.integers(1, 15),
    )
    @settings(max_examples=300, deadline=None)
    def test_equals_reference_index(self, cb, query, k):
        index, expected = build_index(cb), oracles.build_index(cb)
        for k_ in (1, k, len(cb.cases) + 3):
            assert identities(retrieve_top_k(query, index, cb, k_)) == identities(
                oracles.retrieve_top_k(query, expected, cb, k_)
            )
        assert [list(tfs.items()) for tfs in index.case_tfs] == [list(tfs.items()) for tfs in expected.case_tfs]
        assert list(index.postings.items()) == list(expected.postings.items())
        assert index.doc_norms == expected.doc_norms
        assert index.n_cases == expected.n_cases
        for term in [*expected.postings, "zzz"]:
            assert index.idf(term) == expected.idf(term)

    def test_query_path_builds_no_tf_views(self, small_case_base):
        index = build_index(small_case_base)
        for query in (["beach"], ["beach", "temple", "sand", "zzz"], ["walk"]):
            pool = retrieve_top_k(query, index, small_case_base, 3)
            rerank(pool, [1.0, 0.0, 0.0], small_case_base, alpha=0.25, use_revised=True)
        assert "postings" not in vars(index)
        assert "case_tfs" not in vars(index)
        # case_tfs is built from the descriptions, not from the posting lists
        assert index.case_tfs == oracles.build_index(small_case_base).case_tfs
        assert "postings" not in vars(index)


affordance_components = st.one_of(
    st.just(0.0),
    st.sampled_from([5e-324, 1e-310, 2.2250738585072014e-308]),
    st.floats(min_value=0.0, max_value=1e6, allow_nan=False, allow_infinity=False),
)


def pool_of(scores_and_avs):
    candidates = []
    for i, (score, av) in enumerate(scores_and_avs):
        case = Case(doc_id=f"c{i}", prob_desc={"t": 1.0}, av=list(av), av_revised=list(av))
        candidates.append(Candidate(case=case, baseline_score=score))
    return candidates


class TestRerank:
    def test_alpha_one_reproduces_baseline_order(self, lexicon3):
        pool = pool_of([(9.0, [0.0, 1.0, 0.0]), (5.0, [1.0, 0.0, 0.0]), (1.0, [1.0, 1.0, 0.0])])
        result = rerank(pool, [1.0, 0.0, 0.0], None, alpha=1.0)
        assert [e.doc_id for e in result.entries] == ["c0", "c1", "c2"]
        assert all(e.final_rank == e.baseline_rank for e in result.entries)

    def test_alpha_zero_is_pure_cosine_order(self):
        pool = pool_of([(9.0, [0.0, 1.0]), (5.0, [1.0, 0.0])])
        result = rerank(pool, [1.0, 0.0], None, alpha=0.0)
        assert [e.doc_id for e in result.entries] == ["c1", "c0"]
        assert result.entries[0].affordance_cosine == pytest.approx(1.0)

    def test_half_blend_matches_hand_computed_table(self):
        query_av = [1.0, 0.0]
        spec = [
            (10.0, [1.0, 0.0]),
            (8.0, [1.0, 1.0]),
            (6.0, [0.0, 1.0]),
            (4.0, [2.0, 1.0]),
            (2.0, [1.0, 3.0]),
        ]
        result = rerank(pool_of(spec), query_av, None, alpha=0.5)
        # independent recomputation of every blended score
        lo, hi = 2.0, 10.0
        expected = []
        for i, (score, av) in enumerate(spec):
            cos = av[0] / math.sqrt(av[0] ** 2 + av[1] ** 2)
            expected.append((0.5 * (score - lo) / (hi - lo) + 0.5 * cos, f"c{i}"))
        expected.sort(key=lambda pair: (-pair[0], pair[1]))
        assert [e.doc_id for e in result.entries] == [doc_id for _, doc_id in expected]
        for entry, (final, _) in zip(result.entries, expected):
            assert entry.final_score == pytest.approx(final, abs=1e-12)

    def test_is_a_permutation_of_the_pool(self):
        pool = pool_of([(3.0, [1.0, 0.0]), (2.0, [0.0, 1.0]), (1.0, [1.0, 1.0])])
        result = rerank(pool, [0.0, 1.0], None, alpha=0.25)
        assert sorted(e.doc_id for e in result.entries) == ["c0", "c1", "c2"]
        assert sorted(e.final_rank for e in result.entries) == [1, 2, 3]
        assert sorted(e.baseline_rank for e in result.entries) == [1, 2, 3]

    def test_zero_query_av_falls_back_to_doc_id_ties_at_alpha_zero(self):
        pool = pool_of([(9.0, [1.0, 0.0]), (5.0, [0.0, 1.0])])
        result = rerank(pool, [0.0, 0.0], None, alpha=0.0)
        assert all(e.affordance_cosine == 0.0 for e in result.entries)
        assert [e.doc_id for e in result.entries] == ["c0", "c1"]

    def test_zero_query_av_follows_baseline_with_positive_alpha(self):
        pool = pool_of([(9.0, [1.0, 0.0]), (5.0, [0.0, 1.0]), (2.0, [1.0, 1.0])])
        result = rerank(pool, [0.0, 0.0], None, alpha=0.5)
        assert [e.doc_id for e in result.entries] == ["c0", "c1", "c2"]

    def test_constant_score_pool_contributes_zero_baseline_component(self):
        pool = pool_of([(4.0, [1.0, 0.0]), (4.0, [0.0, 1.0])])
        result = rerank(pool, [0.0, 1.0], None, alpha=1.0)
        # span is zero: every blended score is 0, order falls to doc_id
        assert [e.final_score for e in result.entries] == [0.0, 0.0]
        assert [e.doc_id for e in result.entries] == ["c0", "c1"]

    def test_empty_pool_gives_empty_result(self):
        assert rerank([], [1.0], None, alpha=0.0).entries == []

    def test_alpha_out_of_range_rejected(self):
        with pytest.raises(InputError):
            rerank(pool_of([(1.0, [1.0])]), [1.0], None, alpha=1.2)

    @pytest.mark.parametrize("alpha", [True, "0.5", None])
    def test_alpha_that_is_not_a_number_rejected(self, alpha):
        with pytest.raises(InputError, match=r"alpha must lie in \[0, 1\]"):
            rerank(pool_of([(1.0, [1.0])]), [1.0], None, alpha=alpha)

    def test_use_revised_switches_vector(self):
        case = Case(doc_id="c0", prob_desc={"t": 1.0}, av=[1.0, 0.0], av_revised=[0.0, 1.0])
        pool = [Candidate(case=case, baseline_score=1.0)]
        raw = rerank(pool, [0.0, 1.0], None, alpha=0.0, use_revised=False)
        revised = rerank(pool, [0.0, 1.0], None, alpha=0.0, use_revised=True)
        assert raw.entries[0].affordance_cosine == 0.0
        assert revised.entries[0].affordance_cosine == pytest.approx(1.0)

    def test_monotone_in_cosine_for_fixed_baseline(self):
        # same baseline scores, better-aligned vector must not rank lower
        pool = pool_of([(5.0, [1.0, 9.0]), (5.0, [9.0, 1.0])])
        result = rerank(pool, [1.0, 0.0], None, alpha=0.3)
        assert result.entries[0].doc_id == "c1"

    @given(
        st.one_of(st.just([0.0, 0.0, 0.0]), st.lists(affordance_components, min_size=3, max_size=3)),
        st.lists(st.lists(affordance_components, min_size=3, max_size=3), min_size=1, max_size=6),
        st.booleans(),
    )
    @settings(max_examples=300, deadline=None)
    def test_cosines_equal_cosine_sim(self, query_av, avs, use_revised):
        cases = [Case(doc_id=f"c{i}", prob_desc={"t": 1.0}, av=list(av), av_revised=av[::-1]) for i, av in enumerate(avs)]
        pool = [Candidate(case=case, baseline_score=1.0) for case in cases]
        result = rerank(pool, query_av, None, alpha=0.0, use_revised=use_revised)
        expected = {c.doc_id: cosine_sim(query_av, c.av_revised if use_revised else c.av) for c in cases}
        assert {e.doc_id: e.affordance_cosine for e in result.entries} == expected
        assert all(0.0 <= e.affordance_cosine <= 1.0 for e in result.entries)
