"""Lexicon loading, serialization, and term matching."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from affret import (
    Lexicon,
    LexiconFormatError,
    Topic,
    load_lexicon,
    serialize_lexicon,
)

import oracles

TOPIC_NAMES_17 = [
    "Beaches", "Hiking", "Wildlife", "Museums", "Spirituality", "Accommodation",
    "Food", "Shopping", "Nightlife", "Transport", "Sports", "Festivals",
    "Heritage", "Nature", "Adventure", "Wellness", "Photography",
]


def write_lexicon_file(tmp_path, lines):
    path = tmp_path / "lexicon.tsv"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


class TestLoadLexicon:
    def test_eighteen_topics_including_catchall(self, tmp_path):
        lines = [f"{name}\t{name.lower()}1,{name.lower()}2" for name in TOPIC_NAMES_17]
        lines.append("Miscellaneous\t*")
        lex = load_lexicon(write_lexicon_file(tmp_path, lines))
        assert lex.m == 18
        assert lex.topics[-1].miscellaneous

    def test_term_counts_preserved(self, tmp_path):
        sports = ",".join(f"sport{i:02d}" for i in range(66))
        transport = ",".join(f"ride{i:02d}" for i in range(61))
        lex = load_lexicon(write_lexicon_file(tmp_path, [f"Sports\t{sports}", f"Transport\t{transport}"]))
        assert len(lex.topics[0].terms) == 66
        assert len(lex.topics[1].terms) == 61

    def test_duplicate_topic_name_rejected(self, tmp_path):
        path = write_lexicon_file(tmp_path, ["Beaches\tbeach", "Beaches\tsand"])
        with pytest.raises(LexiconFormatError, match="Beaches"):
            load_lexicon(path)

    def test_two_catchall_topics_rejected(self, tmp_path):
        path = write_lexicon_file(tmp_path, ["Rest\t*", "Other\t*"])
        with pytest.raises(LexiconFormatError):
            load_lexicon(path)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.tsv"
        path.write_text("", encoding="utf-8")
        with pytest.raises(LexiconFormatError):
            load_lexicon(path)

    def test_comments_and_blank_lines_skipped(self, tmp_path):
        path = write_lexicon_file(tmp_path, ["# a comment", "", "Beaches\tbeach"])
        assert load_lexicon(path).m == 1

    def test_terms_case_folded_and_deduplicated(self, tmp_path):
        lex = load_lexicon(write_lexicon_file(tmp_path, ["Beaches\tBeach, beach, SAND"]))
        assert lex.topics[0].terms == frozenset({"beach", "sand"})

    def test_missing_tab_rejected(self, tmp_path):
        path = write_lexicon_file(tmp_path, ["Beaches beach,sand"])
        with pytest.raises(LexiconFormatError, match="TAB"):
            load_lexicon(path)

    def test_named_topic_without_terms_rejected(self, tmp_path):
        path = write_lexicon_file(tmp_path, ["Beaches\t  "])
        with pytest.raises(LexiconFormatError):
            load_lexicon(path)


def topic_count(tokens, topic):
    """One named topic's count, read from a lexicon holding only that topic."""
    return Lexicon([topic]).match_counts(tokens)[0]


class TestMatchCount:
    def test_multiplicity_counted(self):
        topic = Topic(name="Beaches", terms=frozenset({"beach", "sand"}))
        assert topic_count(["beach", "sand", "beach"], topic) == 3

    def test_empty_tokens(self):
        topic = Topic(name="Beaches", terms=frozenset({"beach"}))
        assert topic_count([], topic) == 0

    def test_catchall_counts_unmatched(self, lexicon3):
        assert lexicon3.match_counts(["qwerty"])[2] == 1

    def test_phrase_terms_match_contiguous_tokens(self):
        topic = Topic(name="Hills", terms=frozenset({"hill station"}))
        assert topic_count(["visit", "hill", "station", "today"], topic) == 1
        assert topic_count(["hill", "top", "station"], topic) == 0

    def test_longest_phrase_wins_within_topic(self):
        topic = Topic(name="Cities", terms=frozenset({"new delhi", "delhi"}))
        assert topic_count(["new", "delhi"], topic) == 1
        assert topic_count(["old", "delhi"], topic) == 1

    def test_topics_match_independently(self):
        lex = Lexicon(
            topics=[
                Topic(name="Hills", terms=frozenset({"hill station"})),
                Topic(name="Terrain", terms=frozenset({"hill"})),
                Topic(name="Miscellaneous", terms=frozenset(), miscellaneous=True),
            ]
        )
        counts = lex.match_counts(["hill", "station"])
        # the phrase consumes both tokens for Hills; Terrain still sees "hill";
        # nothing is left over for the catch-all
        assert counts == [1, 1, 0]

    def test_matching_case_folds(self):
        topic = Topic(name="Beaches", terms=frozenset({"beach"}))
        assert topic_count(["BEACH", "Beach"], topic) == 2


class TestRoundTrip:
    def test_serialize_load_round_trip(self, tmp_path, lexicon3):
        path = tmp_path / "lex.tsv"
        path.write_text(serialize_lexicon(lexicon3), encoding="utf-8")
        assert load_lexicon(path) == lexicon3

    def test_fingerprint_stable_and_discriminating(self, lexicon3, lexicon_no_misc):
        assert lexicon3.fingerprint() == lexicon3.fingerprint()
        assert lexicon3.fingerprint() != lexicon_no_misc.fingerprint()

    def test_serialization_is_order_sensitive(self):
        a = Lexicon(topics=[Topic("A", frozenset({"x"})), Topic("B", frozenset({"y"}))])
        b = Lexicon(topics=[Topic("B", frozenset({"y"})), Topic("A", frozenset({"x"}))])
        assert serialize_lexicon(a) != serialize_lexicon(b)


@st.composite
def tokens_and_lexicon(draw):
    vocab = [f"w{i}" for i in range(12)]
    n_topics = draw(st.integers(min_value=1, max_value=4))
    rng = random.Random(draw(st.integers(min_value=0, max_value=10**6)))
    topics = [
        Topic(name=f"T{i}", terms=frozenset(rng.sample(vocab, rng.randint(1, 5))))
        for i in range(n_topics)
    ]
    if draw(st.booleans()):
        topics.append(Topic(name="Misc", terms=frozenset(), miscellaneous=True))
    tokens = draw(st.lists(st.sampled_from(vocab + ["zz1", "zz2"]), max_size=30))
    return tokens, Lexicon(topics=topics)


@st.composite
def phrase_lexicon_and_tokens(draw):
    """Overlapping multi-word terms, some shared between topics, plus a catch-all."""
    vocab = ["a", "b", "c", "d", "e"]
    phrase = st.lists(st.sampled_from(vocab), min_size=1, max_size=4).map(" ".join)
    shared = draw(st.lists(phrase, min_size=1, max_size=3))
    topics = []
    for i in range(draw(st.integers(min_value=1, max_value=5))):
        own = draw(st.lists(phrase, max_size=5))
        picked = draw(st.lists(st.sampled_from(shared), max_size=2))
        terms = frozenset(own + picked) or frozenset(shared)
        if draw(st.booleans()):
            # an upper-case spelling of a term the topic already has
            terms |= {next(iter(terms)).upper()}
        topics.append(Topic(name=f"T{i}", terms=terms))
    if draw(st.booleans()):
        at = draw(st.integers(min_value=0, max_value=len(topics)))
        topics.insert(at, Topic(name="Misc", terms=frozenset(), miscellaneous=True))
    tokens = draw(st.lists(st.sampled_from(vocab + ["A", "B", "zz"]), max_size=40))
    return tokens, Lexicon(topics=topics)


class TestProperties:
    @given(tokens_and_lexicon())
    @settings(max_examples=200, deadline=None)
    def test_catchall_is_exact_complement(self, pair):
        tokens, lex = pair
        named_terms = set().union(*(t.terms for t in lex.topics if not t.miscellaneous))
        expected_misc = sum(1 for tok in tokens if tok not in named_terms)
        counts = lex.match_counts(tokens)
        for i, topic in enumerate(lex.topics):
            if topic.miscellaneous:
                assert counts[i] == expected_misc

    @given(tokens_and_lexicon(), st.sampled_from([f"w{i}" for i in range(12)]))
    @settings(max_examples=200, deadline=None)
    def test_appending_a_token_never_decreases_counts(self, pair, extra):
        tokens, lex = pair
        before = lex.match_counts(tokens)
        after = lex.match_counts(tokens + [extra])
        assert all(b >= a for a, b in zip(before, after))

    @given(phrase_lexicon_and_tokens())
    @settings(max_examples=200, deadline=None)
    def test_compiled_matcher_matches_per_topic_scans(self, pair):
        tokens, lex = pair
        expected = oracles.match_counts(tokens, lex)
        assert lex.match_counts(tokens) == expected
        # each named topic reads the block alone, unaffected by the others
        for i, topic in enumerate(lex.topics):
            if not topic.miscellaneous:
                assert topic_count(tokens, topic) == expected[i]

    @given(tokens_and_lexicon())
    @settings(max_examples=100, deadline=None)
    def test_round_trip_through_file_form(self, pair):
        import tempfile
        from pathlib import Path

        _, lex = pair
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "l.tsv"
            path.write_text(serialize_lexicon(lex), encoding="utf-8")
            assert load_lexicon(path) == lex
