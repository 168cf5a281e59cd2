"""Block segmentation, noise filtering, and text cleanup."""

from __future__ import annotations

import re
import sys
from html.parser import HTMLParser
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from affret import (
    DEFAULT_STOPWORDS,
    ParseError,
    dedupe_sentences,
    extract_block_text,
    link_to_text_ratio,
    parse_document,
    segment_blocks,
    tokenize,
)
from affret.segmenter import BREAK_MARK, _TOKEN, _BlockWalker, _collapse_repeated_phrases, _longest_square, _render

import oracles
from conftest import fuzz_html
from markup_pieces import SOUP_ENDS, SOUP_GROUPS, SUBSET_PIECES

MARKUP_LEAK = re.compile(r"<[a-zA-Z/!]")


def blocks_of(markup: str):
    return segment_blocks(parse_document(markup.encode("utf-8"), "t"))


def texts_of(markup: str) -> list[str]:
    """Each block's full rendering, anchors included."""
    return [extract_block_text(b, 1.0) for b in blocks_of(markup)]


class TestParseDocument:
    def test_minimal_well_formed(self):
        doc = parse_document(b"<p>hi</p>", "d1")
        assert doc.doc_id == "d1"
        assert doc.markup == "<p>hi</p>"

    def test_hex_character_reference_decodes(self):
        assert texts_of("<p>&#x41;</p>") == ["A"]

    def test_decimal_character_reference_decodes(self):
        assert texts_of("<p>&#2309;</p>") == ["अ"]

    def test_empty_bytes_rejected(self):
        with pytest.raises(ParseError):
            parse_document(b"", "d3")

    def test_undecodable_bytes_name_the_document(self):
        with pytest.raises(ParseError, match="bad-doc"):
            parse_document(b"\xff\xfe\xfa", "bad-doc")

    def test_name_that_is_not_utf8_is_rejected(self):
        # how a file named by the bytes caf\xe9.html reads on a UTF-8 file system
        with pytest.raises(ParseError, match="^caf\udce9.html: name is not UTF-8 \\("):
            parse_document(b"<p>x</p>", "caf\udce9.html")


    @pytest.mark.parametrize("markup", ["<p>x<![foo[ y ]]> z", "<p>x<![a]>", "<p>x<![ ", "<p>x<![1"])
    def test_markup_the_parser_rejects_names_the_document(self, markup):
        with pytest.raises(ParseError, match=r"^t: markup the HTML parser rejects \("):
            blocks_of(markup)

    @pytest.mark.parametrize("markup", ["<p>x<![CDATA[y]]> z", "<p>x<![if]> z", "<p>x<!["])
    def test_marked_sections_the_parser_reads_are_kept(self, markup):
        assert texts_of(markup)


class TestSegmentBlocks:
    def test_two_disjoint_segments(self):
        assert texts_of("<div>a</div><p>b</p>") == ["a", "b"]

    def test_bare_text_yields_synthetic_block(self):
        assert texts_of("plain text only") == ["plain text only"]

    def test_nested_paragraphs_split_at_deepest(self):
        assert texts_of("<div><p>x</p><p>y</p></div>") == ["x", "y"]

    def test_wrapper_text_around_nested_paragraph_stays_with_wrapper(self):
        assert texts_of("<div>intro<p>x</p>end</div>") == ["intro\nend", "x"]

    def test_table_cells_do_not_glue_words(self):
        assert texts_of("<table><tr><td>cell one</td><td>cell two</td></tr></table>") == ["cell one\ncell two"]

    def test_trailing_text_outside_tags_forms_synthetic_block(self):
        assert texts_of("<p>body</p>loose tail") == ["body", "loose tail"]

    def test_unclosed_tags_are_repaired(self):
        assert texts_of("<div>open forever<p>inner") == ["open forever", "inner"]

    def test_new_segmenting_tag_closes_open_paragraph(self):
        assert texts_of("<p>first<p>second</p>") == ["first", "second"]

    def test_stray_end_tags_ignored(self):
        assert texts_of("</div></p><p>fine</p>") == ["fine"]

    def test_script_and_style_are_invisible(self):
        assert texts_of("<p>keep</p><script>var beach = 1;</script><style>p{}</style>") == ["keep"]

    def test_headings_become_sentence_breaks(self):
        assert texts_of("<div><h2>Goa</h2>beaches here</div>") == ["Goa\nbeaches here"]

    def test_deterministic(self):
        markup = fuzz_html(7)
        doc = parse_document(markup.encode("utf-8"), "t")
        assert segment_blocks(doc) == segment_blocks(doc)


class TestLinkToTextRatio:
    def test_no_anchors(self):
        (block,) = blocks_of("<p>12345</p>")
        assert block.linked_chars == 0
        assert block.unlinked_chars == 5
        assert link_to_text_ratio(block) == 0.0

    def test_all_anchor_block(self):
        (block,) = blocks_of('<p><a href="#">12345</a></p>')
        assert link_to_text_ratio(block) == 1.0

    def test_quarter_linked(self):
        (block,) = blocks_of('<p><a href="#">ab</a> cdefgh</p>')
        assert block.linked_chars == 2
        assert block.unlinked_chars == 6
        assert link_to_text_ratio(block) == 0.25

    def test_empty_block_counts_as_zero(self):
        # only whitespace: both counts zero, ratio pinned to 0
        blocks = blocks_of("<p>   </p><p>real</p>")
        assert all(0.0 <= link_to_text_ratio(b) <= 1.0 for b in blocks)


class TestExtractBlockText:
    def test_below_threshold_unchanged(self):
        (block,) = blocks_of("<p>goa beach</p>")
        assert link_to_text_ratio(block) == 0.0
        assert extract_block_text(block, 0.5) == "goa beach"

    def test_pure_link_block_empties(self):
        (block,) = blocks_of('<p><a href="#">home about contact</a></p>')
        assert link_to_text_ratio(block) == 1.0
        assert extract_block_text(block, 0.5) == ""

    def test_link_heavy_block_keeps_only_body_text(self):
        anchor = "home about contact sitemap navigation bookmarks search"
        (block,) = blocks_of(f'<p><a href="#">{anchor}</a> beach resorts</p>')
        assert link_to_text_ratio(block) == pytest.approx(0.8)
        assert extract_block_text(block, 0.5) == "beach resorts"

    def test_threshold_boundary_keeps_anchors(self):
        # ratio equal to tau is not "more": anchors stay
        (block,) = blocks_of('<p><a href="#">abcd</a> efgh</p>')
        assert link_to_text_ratio(block) == 0.5
        assert extract_block_text(block, 0.5) == "abcd efgh"


# tokens whose case folding grows or merges (ß, İ, final sigma, the ﬁ ligature), beside plain ones
_DEDUPE_TOKENS = ["a", "A", "b", "ß", "SS", "ss", "İ", "i\u0307", "Σ", "σ", "ς", "ﬁ", "FI", "x_y", "7"]
_DEDUPE_BLANKS = [" ", "  ", "\t", "\u2028", "\x1c", "\xa0"]


@st.composite
def sentence_tokens(draw):
    """0-9 tokens, sometimes with a phrase repeated in place in another case."""
    tokens = draw(st.lists(st.sampled_from(_DEDUPE_TOKENS), max_size=9))
    if tokens and draw(st.booleans()):
        start = draw(st.integers(min_value=0, max_value=len(tokens) - 1))
        phrase = tokens[start : start + draw(st.integers(min_value=1, max_value=4))]
        tokens[start + len(phrase) : start + len(phrase)] = [t.swapcase() if draw(st.booleans()) else t for t in phrase]
    return tokens


@st.composite
def dedupe_texts(draw):
    """Sentences between delimiters, at the ends too; some repeat an earlier one in another case and spacing."""
    blank = st.sampled_from(_DEDUPE_BLANKS)
    delimiter = st.sampled_from(["", ".", "!", "?", "\n"])
    parts = [draw(delimiter)]
    sentences = []
    for _ in range(draw(st.integers(min_value=0, max_value=5))):
        if sentences and draw(st.booleans()):
            tokens = [t.swapcase() if draw(st.booleans()) else t for t in draw(st.sampled_from(sentences))]
        else:
            tokens = draw(sentence_tokens())
            sentences.append(tokens)
        parts.append(draw(blank) if draw(st.booleans()) else "")
        for token in tokens:
            parts += [token, draw(blank)]
        parts.append(draw(delimiter))
    return "".join(parts)


class TestDedupeSentences:
    def test_exact_duplicate_sentence(self):
        assert dedupe_sentences("A b. A b.") == "A b."

    def test_first_occurrence_wins(self):
        assert dedupe_sentences("x. y. x.") == "x. y."

    def test_phrase_collapse(self):
        assert dedupe_sentences("visit goa beach visit goa beach now.") == "visit goa beach now."

    def test_two_token_repeat_is_kept(self):
        # phrase collapse needs three or more tokens
        assert dedupe_sentences("goa beach goa beach.") == "goa beach goa beach."

    def test_case_folded_matching(self):
        assert dedupe_sentences("Goa Beach. goa beach.") == "Goa Beach."

    def test_newline_boundaries_count_as_sentence_ends(self):
        assert dedupe_sentences("heading\nheading\nbody") == "heading\nbody"

    @given(st.integers(min_value=0, max_value=500))
    @settings(max_examples=60, deadline=None)
    def test_idempotent_on_fuzz_blocks(self, seed):
        doc = parse_document(fuzz_html(seed).encode("utf-8"), "f")
        for block in segment_blocks(doc):
            once = dedupe_sentences(extract_block_text(block, 0.5))
            assert dedupe_sentences(once) == once

    @pytest.mark.differential
    @given(dedupe_texts())
    @settings(max_examples=1000, deadline=None)
    @example(".!?\nA b c d e.\n?!.")  # delimiters at both ends, around a 5-token sentence
    @example("\nx\n")
    @example("a b a c a d. a b c a b c! a b c A B")  # repeated tokens with no repeated 3-gram; two squares
    @example("ß a b SS A B ss a b?")  # a square only once folded
    @example("ﬁ x\x1cy σ ς z. FI X\u2028Y Σ σ Z!")  # a duplicate that differs only in case and whitespace
    @example("İ i\u0307 İ i\u0307 İ i\u0307.\nİ\u2028İ İ.")
    def test_matches_reference(self, text):
        assert dedupe_sentences(text) == oracles.dedupe_sentences(text)


@st.composite
def tokens_with_repeats(draw):
    """Tokens over a small mixed-case alphabet, with phrases repeated in place."""
    alphabet = draw(st.sampled_from([["a", "A", "b"], ["x", "y"], ["p", "q", "Q", "r", "s", "t"]]))
    tokens = draw(st.lists(st.sampled_from(alphabet), max_size=40))
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        if not tokens:
            break
        start = draw(st.integers(min_value=0, max_value=len(tokens) - 1))
        phrase = tokens[start : start + draw(st.integers(min_value=1, max_value=8))]
        copy = [t.swapcase() if draw(st.booleans()) else t for t in phrase]
        tokens[start + len(phrase) : start + len(phrase)] = copy
    return tokens


def collapse(tokens: list[str], min_len: int = 3) -> list[str]:
    return _collapse_repeated_phrases(list(tokens), [t.casefold() for t in tokens], min_len)


class TestCollapseRepeatedPhrases:
    @pytest.mark.differential
    @given(tokens_with_repeats(), st.sampled_from([3, 3, 1, 2, 4]))
    @settings(max_examples=400, deadline=None)
    def test_matches_reference(self, tokens, min_len):
        expected = oracles.collapse_repeated_phrases(list(tokens), min_len)
        assert collapse(tokens, min_len) == expected

    def test_longest_repeat_collapses_first(self):
        # collapsing the 3-token repeat first would leave five tokens
        assert collapse("A a a a a a a a".split()) == ["A", "a", "a", "a"]

    def test_leftmost_repeat_collapses_first(self):
        # collapsing the rightmost 3-token repeat first would leave six tokens
        tokens = "a b A a a a a a B A a b".split()
        assert collapse(tokens) == ["a", "b", "A", "a", "b"]

    def test_no_repeated_trigram_is_unchanged(self):
        tokens = [f"w{i}" for i in range(5000)]
        assert collapse(tokens) == tokens

    def test_no_repeated_trigram_has_no_square(self):
        # "a b" repeats, but no 3-gram does
        assert _longest_square("x a b a b y a b c".split(), 3) is None
        assert _longest_square("a b c a b c".split(), 3) == (0, 3)


# whitespace that regex \s and str.split agree on, beside text and boundary marks;
# the walker records every boundary mark unlinked
_WHITESPACE = [" ", "\n", "\t", "\x1c", "\x1d", "\x1e", "\x1f", "\x85", "\xa0", "\u2003", "\u3000"]
_RENDER_TEXT = st.text(alphabet=st.sampled_from(["a", "ß", *_WHITESPACE]), max_size=6)
_RENDER_SEGMENT = st.one_of(
    st.tuples(_RENDER_TEXT, st.booleans()),
    st.just((BREAK_MARK, False)),
)


@pytest.mark.differential
class TestRenderMatchesReference:
    @given(st.lists(_RENDER_SEGMENT, max_size=12), st.booleans())
    @settings(max_examples=1000, deadline=None)
    @example([(" ", False), (BREAK_MARK, False), (BREAK_MARK, False), ("a ", True), (" ", False)], True)
    @example([("\xa0a", False), (BREAK_MARK, False), ("\u3000", True)], False)
    @example([("a", False), (BREAK_MARK, False), ("b", True)], True)  # a mark glued to text on both sides
    @example([(" ", False), (BREAK_MARK, False), ("\t", True), (BREAK_MARK, False), (BREAK_MARK, False)], True)
    def test_matches_reference(self, segments, include_linked):
        assert _render(segments, include_linked) == oracles.render(segments, include_linked)


class TestTokenize:
    def test_stop_words_removed(self):
        assert tokenize("The Taj Mahal") == ["taj", "mahal"]

    def test_empty_input(self):
        assert tokenize("") == []

    def test_punctuation_stripped_repeats_preserved(self):
        assert tokenize("beach, beach!") == ["beach", "beach"]

    def test_custom_stop_word_list(self):
        assert tokenize("the beach", stop_words=frozenset({"beach"})) == ["the"]

    def test_underscore_is_not_a_word_character(self):
        assert tokenize("goa_beach") == ["goa", "beach"]

    def test_default_stop_words_are_whole_tokens(self):
        # an entry that tokenizes to anything else can never equal a token
        assert sorted(w for w in DEFAULT_STOPWORDS if _TOKEN.findall(w) != [w]) == []

    def test_token_characters_are_the_isalnum_ones_on_every_code_point(self):
        # tokenize keeps a whitespace-delimited piece whole when it is isalnum
        # throughout, and scans the others with [^\W_]; that is one scan of the
        # whole text only because the class is exactly str.isalnum and holds
        # no str.isspace character
        text = "".join(map(chr, range(sys.maxunicode + 1)))
        alnum = [ch for ch in text if ch.isalnum()]
        assert re.findall(r"[^\W_]", text) == alnum
        assert not any(ch.isspace() for ch in alnum)

    # letters, digits, the underscore, characters whose case folding grows
    # (ß, İ), a digit that is not decimal (²), a combining mark,
    # punctuation and boundary marks, beside every whitespace that render sees
    @pytest.mark.differential
    @given(
        st.text(
            alphabet=st.sampled_from(["a", "Q", "7", "_", "ß", "İ", "\u0301", "²", ".", "-", "'", BREAK_MARK, *_WHITESPACE]),
            max_size=24,
        ),
        st.sampled_from([DEFAULT_STOPWORDS, frozenset(), frozenset({"a", "ss", "7", "q²"})]),
    )
    @settings(max_examples=1000, deadline=None)
    @example("İ goa_beach ß²", DEFAULT_STOPWORDS)
    # pieces that end a sentence: alphanumeric but for the last character, or not
    @example("word.", frozenset())
    @example("ß.", frozenset())
    @example("İ!", frozenset())
    @example("_.", frozenset())
    @example("a_.", frozenset())
    @example(".", frozenset())
    @example("..", frozenset())
    @example("x..", frozenset())
    @example("a.b", frozenset())
    @example("q²?", frozenset())
    def test_matches_reference(self, text, stop_words):
        assert tokenize(text, stop_words) == oracles.tokenize(text, stop_words)


class _VisibleCounter:
    """Independent count of visible non-whitespace characters."""

    def __init__(self, markup: str):
        from html.parser import HTMLParser

        class P(HTMLParser):
            def __init__(self):
                super().__init__(convert_charrefs=True)
                self.depth = 0
                self.count = 0

            def handle_starttag(self, tag, attrs):
                if tag in ("script", "style", "noscript", "template", "head", "title"):
                    self.depth += 1

            def handle_endtag(self, tag):
                if tag in ("script", "style", "noscript", "template", "head", "title"):
                    self.depth = max(0, self.depth - 1)

            def handle_data(self, data):
                if self.depth == 0:
                    self.count += sum(1 for ch in data if not ch.isspace() and ch != "")

        p = P()
        p.feed(markup)
        p.close()
        self.count = p.count


class TestVisibleCharacterCount:
    def test_regex_whitespace_agrees_with_isspace_on_every_code_point(self):
        # the walker counts visible characters by stripping regex whitespace and
        # keeps a block when that count is positive; the count equals the
        # per-character isspace count only because the two classes coincide
        text = "".join(map(chr, range(sys.maxunicode + 1)))
        assert re.findall(r"\s", text) == [ch for ch in text if ch.isspace()]

    def test_counts_non_whitespace_by_anchor_state(self):
        (block,) = blocks_of("<p>a\u00a0b\u2003<a>\tlink  text</a>\n</p>")
        assert (block.unlinked_chars, block.linked_chars) == (2, 8)


# pages spliced from markup_pieces: tag soup from its six groups, and the walk's own subset
tag_soup = st.tuples(
    st.lists(st.one_of(*map(st.sampled_from, SOUP_GROUPS)), min_size=1, max_size=40),
    st.sampled_from(SOUP_ENDS),
).map(lambda soup: "".join(soup[0]) + soup[1])

subset_page = st.lists(st.sampled_from(SUBSET_PIECES), max_size=30).map("".join)


def segmentation_view(block):
    return (
        block.linked_chars,
        block.unlinked_chars,
        block.segments,
        *(extract_block_text(block, threshold) for threshold in (0.0, 0.5, 1.0)),
    )


@pytest.mark.differential
class TestSegmentationMatchesReference:
    def assert_matches(self, markup):
        try:
            expected = [segmentation_view(b) for b in oracles.segment_blocks(markup)]
        except ParseError:
            with pytest.raises(ParseError):
                blocks_of(markup)
        else:
            assert [segmentation_view(b) for b in blocks_of(markup)] == expected

    @given(st.integers(min_value=0, max_value=100_000))
    @settings(max_examples=200, deadline=None)
    def test_fuzz_pages(self, seed):
        self.assert_matches(fuzz_html(seed))

    @given(tag_soup)
    @example("<div>a<p>b<div>c</div>d")  # implicit <p> close inside a block
    @settings(max_examples=1000, deadline=None)
    def test_tag_soup(self, markup):
        self.assert_matches(markup)

    @given(subset_page, tag_soup)
    @settings(max_examples=1000, deadline=None)
    def test_subset_page_then_tag_soup(self, page, tail):
        # the walk hands the page to the stdlib wherever the tail leaves its subset
        self.assert_matches(page + tail)

    def test_open_tag_after_the_last_close(self):
        # the walk's match attempts end at the page's last ">"; the stdlib reads the rest
        for head in ("<p>x<a", "<p>x</p><a", "<a", '<div>a<b>b</b>c<a href="y"', "x > y<a"):
            for tail in ("", " ", " " * 100_000, "\n\t" * 1000 + "z", " <p>"):
                self.assert_matches(head + tail)


class _Recorder:
    """Keeps every handler call, with its arguments, in order."""

    def __init__(self):
        super().__init__()
        self.calls = []

    def handle_starttag(self, tag, attrs):
        self.calls.append(("starttag", tag, attrs))

    def handle_startendtag(self, tag, attrs):
        self.calls.append(("startendtag", tag, attrs))

    def handle_endtag(self, tag):
        self.calls.append(("endtag", tag))

    def handle_data(self, data):
        self.calls.append(("data", data))

    def handle_comment(self, data):
        self.calls.append(("comment", data))

    def handle_decl(self, decl):
        self.calls.append(("decl", decl))

    def handle_pi(self, data):
        self.calls.append(("pi", data))

    def unknown_decl(self, data):
        self.calls.append(("unknown_decl", data))


class _WalkRecorder(_Recorder, _BlockWalker):
    pass


class _StdlibRecorder(_Recorder, HTMLParser):
    pass


def handler_calls(markup: str, walk: bool) -> list:
    """The handler calls of the walk, or of a stdlib ``feed`` and ``close``; a rejected construct ends them."""
    recorder = _WalkRecorder() if walk else _StdlibRecorder()
    try:
        if walk:
            recorder.walk(markup)
        else:
            recorder.feed(markup)
            recorder.close()
    except AssertionError:
        recorder.calls.append("rejected")
    return recorder.calls


SAMPLE_CORPUS = Path(__file__).resolve().parent.parent / "sample" / "corpus"
# what a real page opens with: a doctype, a title, a script, a comment, quoted and bare attributes
HANDMADE_PAGE = (
    "<!DOCTYPE html>\n<html lang=en><head><title>Goa beaches</title>"
    '<script type="text/javascript">if (a && b) {}</script><style>p { color: red }</style></head>\n'
    '<body><!-- navigation --><div class="nav" id=top><a href="/offers">offers</a></div>'
    "<p>Goa beach &amp; temple walk.<br/>Sand &#x41;.</p></body></html>\n"
)


@pytest.mark.differential
class TestWalk:
    @given(st.one_of(tag_soup, st.tuples(subset_page, tag_soup).map("".join)))
    @example("<p>a&am")
    @example("<a href=x/>b")
    @example("<title>a&amp;b</title>")
    @example("<plaintext><p>x</p>")
    @example("<script/>x</script>")
    @settings(max_examples=1000, deadline=None)
    def test_calls_the_handlers_the_stdlib_calls(self, markup):
        assert handler_calls(markup, walk=True) == handler_calls(markup, walk=False)

    @given(subset_page)
    @settings(max_examples=300, deadline=None)
    def test_subset_pages_are_read_without_the_stdlib(self, page):
        recorder = _WalkRecorder()
        recorder.feed = recorder.close = None  # calling either fails the test
        recorder.walk(page)

    def test_sample_pages_are_read_without_the_stdlib(self, monkeypatch):
        # a regex slip that handed every page to the stdlib would keep every
        # output and lose the walk's speed; only this test would notice
        fed = []
        feed = HTMLParser.feed
        monkeypatch.setattr(HTMLParser, "feed", lambda self, data: (fed.append(data), feed(self, data))[1])
        pages = [path.read_bytes() for path in sorted(SAMPLE_CORPUS.glob("*.html"))]
        assert len(pages) == 20
        for raw in [*pages, HANDMADE_PAGE.encode("utf-8")]:
            segment_blocks(parse_document(raw, "t"))
        assert fed == []
        assert texts_of("<p>a</p><p>b<![CDATA[c]]>d") == ["a", "bd"]
        assert fed == ["<![CDATA[c]]>d"]

    def test_handmade_page_blocks(self):
        assert texts_of(HANDMADE_PAGE) == ["offers", "Goa beach & temple walk.\nSand A."]


class TestFuzzProperties:
    @given(st.integers(min_value=0, max_value=2000))
    @settings(max_examples=120, deadline=None)
    def test_ratio_bounds_and_no_markup_leakage(self, seed):
        markup = fuzz_html(seed)
        doc = parse_document(markup.encode("utf-8"), "f")
        blocks = segment_blocks(doc)
        for block in blocks:
            assert 0.0 <= link_to_text_ratio(block) <= 1.0
            for threshold in (0.0, 0.5, 1.0):
                assert not MARKUP_LEAK.search(extract_block_text(block, threshold))

    @given(st.integers(min_value=0, max_value=2000))
    @settings(max_examples=120, deadline=None)
    def test_char_counts_bounded_by_document_total(self, seed):
        markup = fuzz_html(seed)
        doc = parse_document(markup.encode("utf-8"), "f")
        blocks = segment_blocks(doc)
        total = sum(b.linked_chars + b.unlinked_chars for b in blocks)
        assert total <= _VisibleCounter(markup).count
