"""HTML block segmentation and text cleanup.

A web page is decomposed into blocks scoped by ``table``, ``p``, and ``div``
elements. Blocks are the topical unit everything downstream scores, so the
segmentation rules matter:

- Every visible text node belongs to its *nearest* open segmenting element.
  A ``<div>`` wrapper therefore never swallows the ``<p>`` children that carry
  the actual text: the split happens at the deepest segmenting elements that
  directly contain text.
- Visible text outside any segmenting element is collected into one synthetic
  block appended after the element blocks.
- Heading (``h1``-``h6``), ``br``, ``hr``, ``li`` and ``tr`` boundaries are
  kept as explicit sentence breaks (rendered as ``"\\n"``) so that later
  duplicate-sentence elimination does not merge a heading into its body text.
- Markup is repaired permissively: unclosed elements are closed at end of
  input, a new segmenting element closes an open ``<p>``, and stray end tags
  are ignored. The hard failures are an empty or undecodable byte stream and
  a construct the stdlib parser rejects, such as ``<![foo[``; each raises
  ``ParseError``, which a build logs as a skipped page.
- ``script``/``style``/``head`` content is invisible and never extracted.

Each text node is counted as the walk appends it to its block: the block's
visible (non-whitespace) characters inside and outside anchor elements. A
block is kept when those counts are not both zero, and the link-to-text ratio
built from them is the noise signal used to drop navigational blocks.

The walk reads well-formed markup itself and hands the rest of a page to the
stdlib ``html.parser``. Each construct of its subset costs one compiled regex
match (a start tag with attributes two more, to check and decode them), and
the walk calls the handlers ``HTMLParser.feed`` would call, with the same
arguments, in the same text chunks and order. The subset is the part of the
HTML tokenizer that every supported ``html.parser`` reads alike, before and
after the 2025 rework (CVE-2025-6069) that moved it toward the WHATWG rules:

- Start tags: an ASCII name, then attributes, each after whitespace from
  ``[ \\t\\n\\r\\f]``, then an optional ``/`` and ``>``; ``/>`` calls
  ``handle_startendtag``. Between attributes older parsers also take ``\\v``
  and non-ASCII whitespace for whitespace and newer ones do not; after the
  name neither does (``<div\\xa0class=x>`` is one tag name). An attribute
  name is name characters (ASCII letters and digits, ``-.:_``). Its value is
  quoted with no ``<``, ``>`` or ``&`` inside, since older and newer parsers
  decode references in values by different rules, or is bare name
  characters followed by whitespace or ``>``, so that ``href=x/>`` is never
  read as a self-closing tag.
- End tags: exactly ``</name>``. Older parsers allow blanks around the
  name; newer ones read ``</ div>`` as a bogus comment.
- Text: a run without ``<``, through ``html.unescape``.
- ``<!DOCTYPE ...>`` with no ``<`` or ``>`` inside, and comments whose body
  holds no ``-``, ``<`` or ``>``: newer parsers also end a comment at
  ``--!>`` and read ``<!-->`` as an empty one. Real pages open with a
  doctype, so without it the walk would hand off at their first byte.
- ``script`` and ``style``, raw text to every parser, and ``title``,
  ``textarea``, ``xmp``, ``iframe``, ``noembed``, ``noframes`` and
  ``noscript``, raw text (or text with decoded references) to newer ones:
  only whole, with no ``<`` in the content, closed by a literal ``</name>``
  in any ASCII case, and, but for script and style, no ``&`` either.

Everything else, ``<plaintext>`` and self-closing raw-text tags included, is
handed off: at the first construct outside the subset, ``feed`` and ``close``
walk the rest of the page from that construct's ``<``. Nothing is walked
twice, and hostile markup meets exactly the stdlib's behaviour. A failed
attempt costs one linear scan, not a quadratic one, that stops at the
page's last ``>``: a start tag is first matched up to its first ``>`` and
only then checked attribute by attribute.
"""

from __future__ import annotations

import operator
import re
from dataclasses import dataclass, field
from html import unescape
from html.parser import HTMLParser

from .errors import ParseError
from .stopwords import DEFAULT_STOPWORDS

SEGMENT_TAGS = {"table", "p", "div"}
BREAK_TAGS = {"h1", "h2", "h3", "h4", "h5", "h6", "br", "hr", "li", "tr", "td", "th"}
INVISIBLE_TAGS = {"script", "style", "noscript", "template", "head", "title"}
VOID_TAGS = {"br", "hr", "img", "input", "meta", "link", "area", "base", "col", "embed", "source", "track", "wbr"}

# Private-use sentinel standing in for a retained heading/paragraph boundary
# until whitespace collapsing turns it into a single "\n".
BREAK_MARK = ""

_TOKEN = re.compile(r"[^\W_]+")
_SENTENCE_SPLIT = re.compile(r"([.!?]|\n)")

# The markup the walk reads itself; the module docstring says why each rule
# is there.
_WS = "[ \t\n\r\f]"
_ATTR_NAME = "[a-zA-Z_:][-a-zA-Z0-9_:.]*"
_ATTR_VALUE = "(?:\"[^\"<>&]*\"|'[^'<>&]*'|[-a-zA-Z0-9_:.]+(?=[ \t\n\r\f>]))"
# One construct and the text before it: a start tag (its name, then what
# follows the name up to and with the first ">"), an end tag, a comment, or
# a doctype.
_CONSTRUCT = re.compile(
    "([^<]*)<(?:"
    "([a-zA-Z][a-zA-Z0-9]*)(?:>|([ \t\n\r\f/][^<>]*>))"
    "|/([a-zA-Z][a-zA-Z0-9]*)>"
    "|!--([^-<>]*)-->"
    "|!((?ai:doctype)[^<>]*)>)"
)
# What follows a start tag's name: attributes, then an optional "/".
_TAG_REST = re.compile(f"((?:{_WS}+{_ATTR_NAME}(?:{_WS}*={_WS}*{_ATTR_VALUE})?)*){_WS}*(/?)>")
_ATTR = re.compile(f"{_WS}+({_ATTR_NAME})(?:{_WS}*(=){_WS}*(\"[^\"]*\"|'[^']*'|[^ \t\n\r\f]+))?")
# The content and end tag of each element that some supported html.parser
# reads as raw text, by its name; <plaintext> has no end tag.
_RAW_TEXT_END = {
    **{name: re.compile(f"([^<]*)</{name}>", re.I | re.A) for name in ("script", "style")},
    **{
        name: re.compile(f"([^<&]*)</{name}>", re.I | re.A)
        for name in ("title", "textarea", "xmp", "iframe", "noembed", "noframes", "noscript")
    },
    "plaintext": None,
}


@dataclass(frozen=True)
class RawDocument:
    """A parsed document ready for segmentation."""

    doc_id: str
    markup: str


@dataclass(frozen=True)
class Block:
    """One structural segment of a page.

    ``linked_chars`` and ``unlinked_chars`` count its visible characters
    inside and outside anchors. ``segments`` preserves the linked/unlinked
    interleaving needed to drop anchor text later; an unlinked
    ``BREAK_MARK`` entry marks a retained heading or paragraph boundary.
    ``extract_block_text(block, 1.0)`` is the full clean rendering, anchors
    included.
    """

    linked_chars: int
    unlinked_chars: int
    segments: tuple[tuple[str, bool], ...] = field(repr=False)


def parse_document(raw: bytes, doc_id: str) -> RawDocument:
    """Decode raw bytes into a document; rejects empty or undecodable input.

    A ``doc_id`` that does not encode as UTF-8 is rejected too: a file name
    of bytes that are not UTF-8 reads as one with lone surrogates, which no
    report can write and ``load_case_base`` refuses.

    Numeric character references (hex or decimal) in the markup are decoded
    to their code points during segmentation, so multilingual content stored
    as character references survives extraction.
    """
    try:
        doc_id.encode("utf-8")
    except UnicodeEncodeError as exc:
        raise ParseError(f"{doc_id}: name is not UTF-8 ({exc})") from exc
    if not raw:
        raise ParseError(f"{doc_id}: empty document")
    try:
        markup = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"{doc_id}: undecodable byte stream ({exc})") from exc
    return RawDocument(doc_id=doc_id, markup=markup)


class _Accumulator:
    __slots__ = ("tag", "depth", "segments", "counts")

    def __init__(self, tag: str, depth: int):
        self.tag = tag  # the opening tag; "" for the synthetic block
        self.depth = depth  # stack index of the frame that opened it; the synthetic block owns frame 0
        self.segments: list[tuple[str, bool]] = []
        self.counts = [0, 0]  # visible characters: [unlinked, linked]


class _BlockWalker(HTMLParser):
    """Event-driven walker assigning text to its nearest segmenting element."""

    def __init__(self):
        super().__init__(convert_charrefs=True)
        # stack frames: (tag, nearest open segmenting accumulator). A segmenting
        # frame carries its own, any other frame the one of the frame below it.
        # Frames are pushed and cut off at the top only, so each keeps its index;
        # frame 0, the synthetic block's, is never cut off.
        self.accumulators: list[_Accumulator] = []
        self.synthetic = _Accumulator("", 0)
        self.stack: list[tuple[str, _Accumulator]] = [("", self.synthetic)]
        self.anchor_depth = 0
        self.invisible_depth = 0

    def _break(self):
        # unlinked, so every rendering keeps it; it counts no character
        if self.invisible_depth == 0:
            self.stack[-1][1].segments.append((BREAK_MARK, False))

    def handle_starttag(self, tag, attrs):
        if tag in INVISIBLE_TAGS:
            self.invisible_depth += 1
            return
        if tag == "a":
            self.anchor_depth += 1
            return
        if tag in SEGMENT_TAGS:
            # A new segmenting element closes an open <p>: paragraphs do not
            # nest, and real pages rely on that implicit close.
            nearest = self.stack[-1][1]
            if nearest.tag == "p":
                del self.stack[nearest.depth :]
            # The nested element is a paragraph boundary in its parent's flow.
            self._break()
            acc = _Accumulator(tag, len(self.stack))
            self.accumulators.append(acc)
            self.stack.append((tag, acc))
            return
        if tag in BREAK_TAGS:
            self._break()
        if tag not in VOID_TAGS:
            self.stack.append((tag, self.stack[-1][1]))

    def handle_endtag(self, tag):
        if tag in INVISIBLE_TAGS:
            self.invisible_depth = max(0, self.invisible_depth - 1)
            return
        if tag == "a":
            self.anchor_depth = max(0, self.anchor_depth - 1)
            return
        if tag in BREAK_TAGS:
            self._break()
        for i in range(len(self.stack) - 1, 0, -1):
            if self.stack[i][0] == tag:
                del self.stack[i:]
                if tag in SEGMENT_TAGS:
                    self._break()
                return
        # stray end tag: ignore

    def handle_data(self, data):
        text = data.replace(BREAK_MARK, "")
        if self.invisible_depth == 0 and text:
            acc = self.stack[-1][1]
            linked = self.anchor_depth > 0
            acc.segments.append((text, linked))
            # str.split splits on exactly the characters regex \s matches
            # (str.isspace), so this counts the non-whitespace characters
            acc.counts[linked] += len("".join(text.split()))

    def walk(self, markup: str):
        """Call the handlers the stdlib would for ``markup``, reading the subset itself.

        At the first construct outside the subset, ``feed`` and ``close``
        walk the rest of the page from its ``<``.
        """
        pos = 0
        # every construct ends in ">", so none ends past the last one, and a
        # failed attempt scans no further
        end = markup.rfind(">") + 1
        construct = _CONSTRUCT.match
        handle_data, handle_starttag, handle_endtag = self.handle_data, self.handle_starttag, self.handle_endtag
        while m := construct(markup, pos, end):
            text, tag, rest, end_tag, comment, decl = m.groups()
            if text:
                handle_data(unescape(text))
            pos = m.end()
            if end_tag:
                handle_endtag(end_tag.lower())
            elif tag:
                tag = tag.lower()
                attrs, slash = [], ""
                if rest:
                    if not (inside := _TAG_REST.fullmatch(rest)):
                        pos = m.end(1)
                        break
                    attr_text, slash = inside.groups()
                    attrs = [
                        (name.lower(), None if not eq else value[1:-1] if value[0] in "\"'" else value)
                        for name, eq, value in _ATTR.findall(attr_text)
                    ]
                if tag in _RAW_TEXT_END:
                    content_end = _RAW_TEXT_END[tag]
                    if slash or content_end is None or not (raw := content_end.match(markup, pos)):
                        pos = m.end(1)
                        break
                    handle_starttag(tag, attrs)
                    if content := raw.group(1):
                        handle_data(content)
                    handle_endtag(tag)
                    pos = raw.end()
                elif slash:
                    self.handle_startendtag(tag, attrs)
                else:
                    handle_starttag(tag, attrs)
            elif comment is not None:
                self.handle_comment(comment)
            else:
                self.handle_decl(decl)
        else:
            lt = markup.find("<", pos)
            if lt < 0:
                if pos < len(markup):
                    handle_data(unescape(markup[pos:]))
                return
            if lt > pos:
                handle_data(unescape(markup[pos:lt]))
            pos = lt
        self.feed(markup[pos:])
        self.close()

    def updatepos(self, i, j):
        # HTMLParser only reads the returned index; the line and column it
        # would track are never queried here
        return j


def _render(segments, include_linked: bool) -> str:
    """The kept segments' text: one blank per whitespace run, one ``"\\n"`` per run of break marks.

    Pieces between break marks are collapsed on their own and joined by
    ``"\\n"``; a piece of whitespace alone drops out, so the blanks around a
    break and a break at either end leave nothing behind.
    """
    joined = "".join([text for text, linked in segments if include_linked or not linked])
    return "\n".join(filter(None, [" ".join(piece.split()) for piece in joined.split(BREAK_MARK)]))


def segment_blocks(doc: RawDocument) -> list[Block]:
    """Split a document into blocks, one per text-bearing segmenting element.

    Stray text outside every ``table``/``p``/``div`` becomes a trailing
    synthetic block; a tag-free document therefore yields exactly one block.
    Elements without directly contained text produce no block. Markup the
    stdlib parser gives up on (``<![foo[``, ``<![ ``) raises ``ParseError``.

    The walk reads the markup every supported ``html.parser`` tokenizes
    alike and feeds the page to the stdlib from the first construct outside
    it (the module docstring lists the subset), so the blocks are the ones a
    stdlib walk of the whole page gives.
    """
    walker = _BlockWalker()
    try:
        walker.walk(doc.markup)
    except AssertionError as exc:  # how html.parser and _markupbase reject a construct
        raise ParseError(f"{doc.doc_id}: markup the HTML parser rejects ({exc})") from exc
    return [
        Block(acc.counts[True], acc.counts[False], tuple(acc.segments))
        for acc in (*walker.accumulators, walker.synthetic)
        if any(acc.counts)
    ]


def link_to_text_ratio(block: Block) -> float:
    """Fraction of the block's visible characters that sit inside anchors."""
    total = block.linked_chars + block.unlinked_chars
    if total == 0:
        return 0.0
    return block.linked_chars / total


def extract_block_text(block: Block, threshold: float) -> str:
    """Clean text of a block, skipping anchor text in link-heavy blocks.

    When the link-to-text ratio exceeds ``threshold`` the hyperlinked text is
    dropped and only the remaining body text is returned; an empty result
    signals a navigational noise block the caller should discard.
    """
    include_linked = link_to_text_ratio(block) <= threshold
    return _render(block.segments, include_linked=include_linked)


def _collapse_repeated_phrases(tokens: list[str], folded: list[str], min_len: int = 3) -> list[str]:
    # Immediately repeated phrase of >= min_len tokens collapses to one
    # occurrence: longest first, leftmost among equals, rescanning until
    # stable. Comparison reads ``folded``, the tokens case-folded, and
    # collapses it alongside; the kept copy keeps its casing.
    while (square := _longest_square(folded, min_len)) is not None:
        start, length = square
        del tokens[start + length : start + 2 * length]
        del folded[start + length : start + 2 * length]
    return tokens


def _longest_square(folded: list[str], min_len: int) -> tuple[int, int] | None:
    """Start and length of the longest, then leftmost, ``ww`` with ``|w| >= min_len``.

    A square of length L starting at i repeats its first ``min_len``-gram at
    i + L, so only shifts between two equal grams can be square lengths: a
    list with no repeated gram is settled in O(n) by one set of its grams,
    before any positions are collected. Each candidate length L costs one
    O(n) pass for the leftmost run of L positions j with
    ``folded[j] == folded[j + L]``. When the equal-gram pairs outnumber the
    tokens, every length is a candidate instead, which bounds a scan by
    O(n^2) comparisons.
    """
    n = len(folded)
    gram_list = list(zip(*(folded[k:] for k in range(min_len))))
    if len(set(gram_list)) == len(gram_list):
        return None
    grams: dict[tuple[str, ...], list[int]] = {}
    for i, gram in enumerate(gram_list):
        grams.setdefault(gram, []).append(i)
    groups = [positions for positions in grams.values() if len(positions) > 1]
    longest = n // 2
    if sum(len(p) * (len(p) - 1) // 2 for p in groups) > n:
        lengths = range(longest, min_len - 1, -1)
    else:
        shifts = set()
        for positions in groups:
            for a, first in enumerate(positions):
                for second in positions[a + 1 :]:
                    if second - first > longest:
                        break
                    shifts.add(second - first)
        lengths = sorted((s for s in shifts if s >= min_len), reverse=True)
    for length in lengths:
        equal = bytes(map(operator.eq, folded, folded[length:]))
        start = equal.find(b"\x01" * length)
        if start >= 0:
            return start, length
    return None


def dedupe_sentences(text: str) -> str:
    """Drop repeated sentences and immediately repeated in-sentence phrases.

    Sentences are delimited by terminal punctuation or a retained boundary
    marker. A normalized (case-folded, whitespace-collapsed) sentence seen
    once is removed on every later occurrence; inside a sentence a phrase of
    three or more tokens immediately repeating collapses to one occurrence.
    Idempotent: applying it twice changes nothing further.

    A repeat needs six tokens and a repeated 3-gram, so most sentences are
    settled by one set of the 3-grams of the normalized sentence's blank-split
    pieces, its folded tokens (no character folds to whitespace).
    """
    pieces = _SENTENCE_SPLIT.split(text)
    out: list[str] = []
    seen: set[str] = set()
    for i in range(0, len(pieces), 2):
        tokens = pieces[i].split()
        if not tokens:
            continue
        sentence = " ".join(tokens)
        key = sentence.casefold()
        if len(tokens) >= 6:
            folded = key.split(" ")
            if len(set(zip(folded, folded[1:], folded[2:]))) < len(folded) - 2:
                sentence = " ".join(_collapse_repeated_phrases(tokens, folded))
                key = sentence.casefold()
        if key in seen:
            continue
        seen.add(key)
        # a blank after each sentence not ended by "\n"; the one at the very end is cut
        delim = pieces[i + 1] if i + 1 < len(pieces) else ""
        out.append(sentence + ("\n" if delim == "\n" else delim + " "))
    joined = "".join(out)
    return joined[:-1] if joined.endswith(" ") else joined


def tokenize(text: str, stop_words: frozenset[str] = DEFAULT_STOPWORDS) -> list[str]:
    """Case-folded, punctuation-free tokens in document order, stop words removed.

    A token is a maximal run of ``str.isalnum`` characters, the class regex
    ``[^\\W_]`` matches. No whitespace character is alphanumeric, so each
    whitespace-delimited piece is tokenized on its own. One that is
    alphanumeric throughout is a token as it stands, and so is one that is
    but for its last character, such as the ``word.`` at a sentence end,
    less that character; only the other pieces are scanned by the regex.
    """
    tokens = []
    for piece in text.casefold().split():
        if piece.isalnum():
            tokens.append(piece)
        elif (head := piece[:-1]).isalnum():
            tokens.append(head)
        else:
            tokens += _TOKEN.findall(piece)
    return [t for t in tokens if t not in stop_words]
