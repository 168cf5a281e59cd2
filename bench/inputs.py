"""Seeded input generator for the benchmark: pages, lexicon, queries, qrels.

Everything derives from one integer seed through ``random.Random``, so a
given seed gives byte-identical files. The seed changes the words, themes
and markup; the *shape* of each corpus (page sizes, block counts, the share
of each page kind, the lengths of the unpunctuated blocks, anchor farms and
nestings) is stratified over or fixed to set ranges, so the cost of a
workload barely moves from one seed to the next.

Properties varied per page: size, block count, anchor density, duplicate
sentence share, vocabulary skew (Zipf exponent) and lexicon-term density.
Queries vary in length (1-8 tokens) and draw from the same Zipf vocabulary,
so head words with long posting lists mix with rare ones.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from pathlib import Path

# Stop words the tokenizer drops; generated words must avoid them.
_RESERVED = {"a", "i", "an", "am", "as", "at", "be", "by", "do", "he", "if", "in", "is", "it",
             "me", "my", "no", "of", "on", "or", "so", "to", "up", "we"}

N_TOPICS = 18
TERMS_PER_TOPIC = 10
FILLER_WORDS = 20000
NAV_WORDS = 40
ZIPF_EXPONENTS = (0.9, 1.1, 1.3)


@dataclass
class Vocabulary:
    """Seeded word lists shared by every generator of one seed."""

    topics: list[tuple[str, list[str]]]  # (name, terms); a term may span words
    filler: list[str]
    nav: list[str]
    zipf_cum: dict[float, list[float]] = field(repr=False)

    def filler_words(self, rng: random.Random, k: int, exponent: float) -> list[str]:
        return rng.choices(self.filler, cum_weights=self.zipf_cum[exponent], k=k)

    def lexicon_tsv(self) -> str:
        lines = [f"{name}\t{','.join(terms)}" for name, terms in self.topics]
        lines.append("Miscellaneous\t*")
        return "\n".join(lines) + "\n"


def _words(rng: random.Random, count: int, taken: set[str]) -> list[str]:
    consonants = "bcdfghjklmnprstvz"
    vowels = "aeiou"
    out: list[str] = []
    while len(out) < count:
        syllables = rng.randint(2, 4)
        word = "".join(rng.choice(consonants) + rng.choice(vowels) for _ in range(syllables))
        if rng.random() < 0.3:
            word += rng.choice("nrst")
        if word in taken or word in _RESERVED:
            continue
        taken.add(word)
        out.append(word)
    return out


def vocabulary(seed: int) -> Vocabulary:
    rng = random.Random(f"vocab-{seed}")
    taken: set[str] = set()
    topic_words = _words(rng, N_TOPICS * TERMS_PER_TOPIC * 2, taken)
    topics = []
    it = iter(topic_words)
    for t in range(N_TOPICS):
        terms = []
        for j in range(TERMS_PER_TOPIC):
            # two phrases per topic; every third topic's last phrase has three words
            width = 1 if j % 5 != 4 else 3 if (j == 9 and t % 3 == 0) else 2
            terms.append(" ".join(next(it) for _ in range(width)))
        topics.append((f"Topic{t:02d}", terms))
    filler = _words(rng, FILLER_WORDS, taken)
    nav = _words(rng, NAV_WORDS, taken)
    zipf_cum = {
        s: list(itertools.accumulate(1.0 / (rank ** s) for rank in range(1, FILLER_WORDS + 1)))
        for s in ZIPF_EXPONENTS
    }
    return Vocabulary(topics=topics, filler=filler, nav=nav, zipf_cum=zipf_cum)


# ---------------------------------------------------------------- web pages


@dataclass
class PageSpec:
    """Per-page knobs; ``themes`` are topic indices (primary first)."""

    size: int
    blocks: int
    anchor_density: float
    duplicate_share: float
    zipf: float
    lexicon_density: float
    themes: tuple[int, int]


class _SentenceMaker:
    def __init__(self, rng: random.Random, vocab: Vocabulary, spec: PageSpec):
        self.rng = rng
        self.vocab = vocab
        self.spec = spec
        self.made: list[str] = []

    def words(self, n: int) -> list[str]:
        rng, vocab, spec = self.rng, self.vocab, self.spec
        out: list[str] = []
        fillers = iter(vocab.filler_words(rng, n, spec.zipf))
        while len(out) < n:
            if rng.random() < spec.lexicon_density:
                roll = rng.random()
                topic = spec.themes[0] if roll < 0.7 else spec.themes[1] if roll < 0.9 else rng.randrange(N_TOPICS)
                out.extend(rng.choice(vocab.topics[topic][1]).split())
            else:
                out.append(next(fillers))
        return out

    def sentence(self) -> str:
        rng = self.rng
        if self.made and rng.random() < self.spec.duplicate_share:
            return rng.choice(self.made)
        words = self.words(rng.randint(6, 18))
        if rng.random() < self.spec.anchor_density:
            at = rng.randrange(len(words))
            span = rng.randint(1, 3)
            words[at : at + span] = [f'<a href="/{words[at]}">{" ".join(words[at : at + span])}</a>']
        if rng.random() < 0.05:
            words.insert(rng.randrange(len(words)), rng.choice(["&amp;", "&#233;t&#233;", "&#x20b9;40"]))
        text = " ".join(words)
        text = text[0].upper() + text[1:] + rng.choice(".....!?")
        self.made.append(text)
        return text


def _nav_strip(rng: random.Random, vocab: Vocabulary) -> str:
    links = " ".join(f'<a href="/{w}">{w}</a>' for w in rng.sample(vocab.nav, rng.randint(5, 15)))
    return f'<div class="nav">{links}</div>'


def web_page(rng: random.Random, vocab: Vocabulary, spec: PageSpec, title: str) -> str:
    maker = _SentenceMaker(rng, vocab, spec)
    head = f"<html><head><title>{title}</title><script>var page = '{title}';</script></head><body>"
    parts = [head, _nav_strip(rng, vocab), f"<h1>{title}</h1>"]
    per_block = max(1, (spec.size - 400) // spec.blocks)
    for b in range(spec.blocks):
        kind = rng.random()
        sentences: list[str] = []
        while sum(len(s) + 1 for s in sentences) < per_block:
            sentences.append(maker.sentence())
        if kind < 0.5:
            parts.append(f"<p>{' '.join(sentences)}</p>")
        elif kind < 0.8:
            inner = " ".join(sentences)
            parts.append(f'<div class="c{b}"><div>{inner}</div></div>')
        else:
            rows = "".join(f"<tr><td>{s}</td></tr>" for s in sentences)
            parts.append(f"<table>{rows}</table>")
    parts.append("</body></html>")
    return "\n".join(parts) + "\n"


def _stratified(rng: random.Random, n: int, lo: float, hi: float) -> list[float]:
    """n values, one drawn from each of n equal slices of [lo, hi), shuffled."""
    values = [lo + (hi - lo) * (k + rng.random()) / n for k in range(n)]
    rng.shuffle(values)
    return values


def _cycled(rng: random.Random, n: int, choices: tuple) -> list:
    """n values taking each choice in turn, shuffled: equal shares for every seed."""
    values = [choices[k % len(choices)] for k in range(n)]
    rng.shuffle(values)
    return values


def web_specs(rng: random.Random, n: int, size: tuple[int, int], blocks: tuple[int, int]) -> list[PageSpec]:
    sizes = _stratified(rng, n, *size)
    block_counts = _cycled(rng, n, tuple(range(blocks[0], blocks[1] + 1)))
    anchor_densities = _cycled(rng, n, (0.0, 0.05, 0.15, 0.3))
    duplicate_shares = _cycled(rng, n, (0.0, 0.05, 0.1, 0.2))
    lexicon_densities = _stratified(rng, n, 0.15, 0.35)
    specs = []
    for k in range(n):
        primary = k % N_TOPICS
        secondary = (primary + 1 + rng.randrange(N_TOPICS - 1)) % N_TOPICS
        specs.append(
            PageSpec(
                size=int(sizes[k]),
                blocks=block_counts[k],
                anchor_density=anchor_densities[k],
                duplicate_share=duplicate_shares[k],
                zipf=ZIPF_EXPONENTS[k % len(ZIPF_EXPONENTS)],
                lexicon_density=lexicon_densities[k],
                themes=(primary, secondary),
            )
        )
    return specs


@dataclass
class Corpus:
    """A generated corpus: files by relative name, plus the primary theme of each page."""

    files: dict[str, bytes]
    themes: dict[str, int]

    def write(self, directory: Path) -> None:
        directory.mkdir(parents=True, exist_ok=True)
        for name, data in self.files.items():
            (directory / name).write_bytes(data)


def web_corpus(
    seed: int,
    vocab: Vocabulary,
    n_pages: int,
    size: tuple[int, int] = (2048, 8192),
    blocks: tuple[int, int] = (4, 10),
    tag: str = "web",
) -> Corpus:
    rng = random.Random(f"{tag}-{seed}")
    files: dict[str, bytes] = {}
    themes: dict[str, int] = {}
    for k, spec in enumerate(web_specs(rng, n_pages, size, blocks)):
        name = f"p{k:05d}.html"
        title = f"{vocab.topics[spec.themes[0]][1][0]} page {k}"
        files[name] = web_page(rng, vocab, spec, title).encode("utf-8")
        themes[name] = spec.themes[0]
    return Corpus(files=files, themes=themes)


# ------------------------------------------------------- the build corpus

# Share of each page kind in the build corpus, per 100 pages. Plain web pages
# are the majority, so the median page is a plain one and lexicon matching
# sets it; the unpunctuated pages are the slowest tenth, so the cubic phrase
# dedupe sets the tail. The rest are the hostile kinds: anchor farms, link-only
# blocks, deep inline and deep block nesting, unclosed and stray tags, and
# files that must become logged skips.
BUILD_MIX = (
    ("plain", 60),
    ("unpunctuated", 10),
    ("anchor_farm", 6),
    ("link_only", 2),
    ("deep_inline", 5),
    ("deep_segment", 6),
    ("malformed", 8),
    ("non_utf8", 2),
    ("empty", 1),
)
UNPUNCTUATED_TOKENS = (150, 500)
ANCHOR_LINKS = (50, 300)
NESTING_DEPTH = (50, 250)


def _build_kinds(n: int) -> list[str]:
    kinds: list[str] = []
    for kind, per_hundred in BUILD_MIX:
        kinds.extend([kind] * max(1, round(n * per_hundred / 100)))
    return kinds[:n] + ["plain"] * (n - len(kinds))


def _evenly(n: int, lo: int, hi: int) -> list[int]:
    """n lengths at the midpoints of n equal slices of [lo, hi]: the same for every seed.

    A page's cost grows steeply with these lengths (cubically for the
    unpunctuated blocks), so they are fixed, not drawn; the seed still picks
    which page gets which length and all of the words.
    """
    return [int(lo + (hi - lo) * (k + 0.5) / n) for k in range(n)]


def _malformed(rng: random.Random, maker: _SentenceMaker) -> str:
    pieces = []
    for _ in range(rng.randint(8, 30)):
        roll = rng.random()
        text = maker.sentence()
        if roll < 0.2:
            pieces.append(f"<div>{text}")  # never closed
        elif roll < 0.4:
            tag = rng.choice(["p", "div", "table"])
            pieces.append(f"<{tag}>{text}</{tag}>")
        elif roll < 0.5:
            pieces.append(f"</{rng.choice(['p', 'div', 'span', 'b', 'table', 'td'])}>")
        elif roll < 0.6:
            pieces.append(f"<p>{text}<p>{maker.sentence()}")  # implicit close
        elif roll < 0.7:
            pieces.append(f"<h{rng.randint(1, 6)}>{text}")
        elif roll < 0.8:
            pieces.append(f"<table><tr><td>{text}<td>{maker.sentence()}</table>")
        elif roll < 0.9:
            pieces.append(f"<script>var x = '{text}';")  # unterminated script eats the rest
            break
        else:
            pieces.append(f"{text} < {rng.randint(1, 99)} &amp items <b")
    return "".join(pieces)


def _without_repeats(maker: _SentenceMaker, length: int) -> list[str]:
    """``length`` words in which no three-word sequence occurs twice.

    affret collapses an immediately repeated phrase of three or more words
    and then rescans the whole block, so one chance repeat would double the
    cost of a long block. Without repeats the cost is set by the length.
    """
    words: list[str] = []
    seen: set[tuple[str, ...]] = set()
    while len(words) < length:
        for word in maker.words(length):
            trigram = tuple(words[-2:]) + (word,)
            if len(trigram) == 3 and trigram in seen:
                continue
            seen.add(trigram)
            words.append(word)
            if len(words) == length:
                break
    return words


def build_page(rng: random.Random, vocab: Vocabulary, kind: str, spec: PageSpec, length: int) -> bytes:
    maker = _SentenceMaker(rng, vocab, spec)
    if kind == "empty":
        return b""
    if kind == "non_utf8":
        text = f"<p>{maker.sentence()} caf\xe9 na\xefve</p>"
        return text.encode("latin-1") + b"\xff\xfe\x80"
    if kind == "unpunctuated":
        words = _without_repeats(maker, length)
        body = f"<p>{maker.sentence()}</p><p>{' '.join(words)}</p><p>{maker.sentence()}</p>"
    elif kind in ("anchor_farm", "link_only"):
        anchors = " ".join(
            f'<a href="/{w}">{" ".join(maker.words(rng.randint(1, 3)))}</a>' for w in maker.words(length)
        )
        body = f"<div>{anchors}</div>"
        if kind == "anchor_farm":
            body += f"<p>{maker.sentence()} {maker.sentence()}</p>"
            body += f"<div>{maker.sentence()} {anchors[: len(anchors) // 3]}</div>"
    elif kind == "deep_inline":
        tags = [rng.choice(["span", "b", "em", "i", "font"]) for _ in range(length)]
        opening = "".join(f"<{t}>{' '.join(maker.words(3))}. " for t in tags)
        body = f"<p>{opening}{''.join(f'</{t}>' for t in reversed(tags))}</p>"
    elif kind == "deep_segment":
        tags = [rng.choice(["div", "table", "div"]) for _ in range(length)]
        opening = "".join(f"<{t}>{maker.sentence()} " for t in tags)
        body = opening + "".join(f"</{t}>" for t in reversed(tags[: length // 2]))  # half left open
    elif kind == "malformed":
        body = _malformed(rng, maker)
    else:
        return web_page(rng, vocab, spec, f"plain {length}").encode("utf-8")
    return f"<html><body>{_nav_strip(rng, vocab)}{body}</body></html>\n".encode("utf-8")


def build_corpus(seed: int, vocab: Vocabulary, n_pages: int) -> Corpus:
    """Plain 2-8 KB web pages mixed with the hostile kinds of ``BUILD_MIX``."""
    rng = random.Random(f"build-{seed}")
    kinds = _build_kinds(n_pages)
    rng.shuffle(kinds)
    # the plain pages get a stratified set of specs of their own, so that
    # their sizes (which set the median page) do not depend on the seed
    n_plain = kinds.count("plain")
    plain_specs = iter(web_specs(rng, n_plain, (2048, 8192), (4, 10)))
    other_specs = iter(web_specs(rng, n_pages - n_plain, (2048, 8192), (4, 10)))
    specs = [next(plain_specs if kind == "plain" else other_specs) for kind in kinds]
    n_unpunct = kinds.count("unpunctuated")
    # Each unpunctuated length is used twice. These pages are the slowest
    # tenth, so the p95 page time lies between the fifth and sixth slowest
    # of them; with pairs those two have the same length, and the p95 does
    # not jump between two lengths a 1.5x step in cost apart.
    paired = (_evenly((n_unpunct + 1) // 2, *UNPUNCTUATED_TOKENS) * 2)[:n_unpunct]
    lengths = {"unpunctuated": iter(rng.sample(paired, n_unpunct))}
    lengths |= {
        kind: iter(rng.sample(_evenly(kinds.count(kind), *bounds), kinds.count(kind)))
        for kind, bounds in (
            ("anchor_farm", ANCHOR_LINKS),
            ("link_only", ANCHOR_LINKS),
            ("deep_inline", NESTING_DEPTH),
            ("deep_segment", NESTING_DEPTH),
        )
    }
    files: dict[str, bytes] = {}
    themes: dict[str, int] = {}
    for k, (kind, spec) in enumerate(zip(kinds, specs)):
        length = next(lengths[kind]) if kind in lengths else k
        name = f"b{k:04d}-{kind}.html"
        files[name] = build_page(rng, vocab, kind, spec, length)
        themes[name] = spec.themes[0]
    return Corpus(files=files, themes=themes)


# ------------------------------------------------------- queries and qrels


def adhoc_queries(seed: int, vocab: Vocabulary, n: int) -> list[str]:
    """Free-text queries of 1-8 tokens: Zipf filler (head and tail) mixed with lexicon terms."""
    rng = random.Random(f"adhoc-{seed}")
    lengths = [1 + k % 8 for k in range(n)]
    rng.shuffle(lengths)
    out = []
    for length in lengths:
        words: list[str] = []
        while len(words) < length:
            if rng.random() < 0.3:
                topic = vocab.topics[rng.randrange(N_TOPICS)][1]
                words.extend(rng.choice(topic).split())
            else:
                words.extend(vocab.filler_words(rng, 1, rng.choice(ZIPF_EXPONENTS)))
        out.append(" ".join(words[:length]))
    return out


@dataclass
class TopicQuery:
    query_id: str
    title: str
    desc: str
    topic: int


def topic_queries(seed: int, vocab: Vocabulary, n: int) -> list[TopicQuery]:
    """Judged queries: lexicon terms of one topic plus a few filler words."""
    rng = random.Random(f"topics-{seed}")
    out = []
    for k in range(n):
        topic = k % N_TOPICS
        terms = rng.sample(vocab.topics[topic][1], rng.randint(1, 3))
        words = " ".join(terms).split() + vocab.filler_words(rng, rng.randint(0, 3), 1.1)
        desc = " ".join(vocab.filler_words(rng, 6, 1.1))
        out.append(TopicQuery(query_id=f"T{k:03d}", title=" ".join(words), desc=desc, topic=topic))
    return out


def topics_file(queries: list[TopicQuery]) -> str:
    blocks = [
        f"<top>\n<num> {q.query_id} </num>\n<title> {q.title} </title>\n<desc> {q.desc} </desc>\n</top>"
        for q in queries
    ]
    return "\n\n".join(blocks) + "\n"


def qrels_file(queries: list[TopicQuery], corpus: Corpus) -> str:
    """A page is relevant to a query when its primary theme is the query's topic."""
    lines = [
        f"{q.query_id}\t{name}\t1"
        for q in queries
        for name, theme in sorted(corpus.themes.items())
        if theme == q.topic
    ]
    return "\n".join(lines) + "\n"
