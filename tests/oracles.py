"""Reference implementations that the fast build and query code is checked against.

Each is the straightforward version of an algorithm the package implements
faster; tests require the two to agree exactly.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import asdict, dataclass
from html.parser import HTMLParser
from pathlib import Path

from affret import (
    Block,
    Candidate,
    CaseBaseBuildError,
    DimensionError,
    InputError,
    ParseError,
    normalize_av,
    round12,
)
from affret.segmenter import (
    BREAK_MARK,
    BREAK_TAGS,
    INVISIBLE_TAGS,
    SEGMENT_TAGS,
    VOID_TAGS,
)
from affret.stopwords import DEFAULT_STOPWORDS

_WS_RUN = re.compile(r"\s+")
_SENTENCE_SPLIT = re.compile(r"([.!?]|\n)")
_BREAK_RUN = re.compile(f" ?(?:{BREAK_MARK} ?)+")
_TOKEN = re.compile(r"[^\W_]+")


class _Accumulator:
    def __init__(self):
        self.segments: list[tuple[str, bool]] = []

    def has_text(self) -> bool:
        return any(seg != BREAK_MARK and seg.strip() for seg, _ in self.segments)


class _BlockWalker(HTMLParser):
    """Walker behind the reference ``segment_blocks``: scans the stack for every lookup."""

    def __init__(self):
        super().__init__(convert_charrefs=True)
        # stack frames: (tag, accumulator-or-None for non-segmenting tags)
        self.stack: list[tuple[str, _Accumulator | None]] = []
        self.accumulators: list[_Accumulator] = []
        self.synthetic = _Accumulator()
        self.anchor_depth = 0
        self.invisible_depth = 0

    def _target(self) -> _Accumulator:
        for _, acc in reversed(self.stack):
            if acc is not None:
                return acc
        return self.synthetic

    def _append(self, text: str):
        if self.invisible_depth == 0 and text:
            # a break is unlinked even inside an anchor
            self._target().segments.append((text, text != BREAK_MARK and self.anchor_depth > 0))

    def handle_starttag(self, tag, attrs):
        if tag in INVISIBLE_TAGS:
            self.invisible_depth += 1
            return
        if tag == "a":
            self.anchor_depth += 1
            return
        if tag in SEGMENT_TAGS:
            for i in range(len(self.stack) - 1, -1, -1):
                if self.stack[i][1] is not None:
                    if self.stack[i][0] == "p":
                        del self.stack[i:]
                    break
            self._append(BREAK_MARK)
            acc = _Accumulator()
            self.accumulators.append(acc)
            self.stack.append((tag, acc))
            return
        if tag in BREAK_TAGS:
            self._append(BREAK_MARK)
        if tag not in VOID_TAGS:
            self.stack.append((tag, None))

    def handle_endtag(self, tag):
        if tag in INVISIBLE_TAGS:
            self.invisible_depth = max(0, self.invisible_depth - 1)
            return
        if tag == "a":
            self.anchor_depth = max(0, self.anchor_depth - 1)
            return
        if tag in BREAK_TAGS:
            self._append(BREAK_MARK)
        for i in range(len(self.stack) - 1, -1, -1):
            if self.stack[i][0] == tag:
                del self.stack[i:]
                if tag in SEGMENT_TAGS:
                    self._append(BREAK_MARK)
                return

    def handle_data(self, data):
        self._append(data.replace(BREAK_MARK, ""))


def _count_visible(segments, linked: bool) -> int:
    return sum(
        len(_WS_RUN.sub("", text))
        for text, is_linked in segments
        if text != BREAK_MARK and is_linked == linked
    )


def render(segments, include_linked: bool) -> str:
    """Reference ``segmenter._render``: a regex turns each whitespace run into one blank."""
    parts = []
    for text, linked in segments:
        if text == BREAK_MARK:
            parts.append(BREAK_MARK)
        elif include_linked or not linked:
            parts.append(text)
    joined = _WS_RUN.sub(" ", "".join(parts))
    return _BREAK_RUN.sub("\n", joined).strip(" \n")


def tokenize(text: str, stop_words: frozenset[str] = DEFAULT_STOPWORDS) -> list[str]:
    """Reference ``segmenter.tokenize``: one regex scan for word-character runs, underscore excluded."""
    return [t for t in _TOKEN.findall(text.casefold()) if t not in stop_words]


def segment_blocks(markup: str) -> list[Block]:
    """Reference ``segmenter.segment_blocks``: the walk collects, later passes count.

    Every text node's block is found by scanning the tag stack; after the
    walk each accumulator is asked whether it holds visible text, and the
    kept ones have their linked and unlinked characters counted separately.
    A construct the parser rejects raises ``ParseError``.
    """
    walker = _BlockWalker()
    try:
        walker.feed(markup)
        walker.close()
    except AssertionError as exc:
        raise ParseError(f"markup the HTML parser rejects ({exc})") from exc
    ordered = [acc for acc in walker.accumulators if acc.has_text()]
    if walker.synthetic.has_text():
        ordered.append(walker.synthetic)
    return [
        Block(
            linked_chars=_count_visible(acc.segments, linked=True),
            unlinked_chars=_count_visible(acc.segments, linked=False),
            segments=tuple(acc.segments),
        )
        for acc in ordered
    ]


def collapse_repeated_phrases(tokens: list[str], min_len: int = 3) -> list[str]:
    """Reference for ``segmenter._collapse_repeated_phrases``: O(n^3) per scan.

    Tries every phrase length, longest first, at every offset, leftmost
    first; deletes the second copy of the first immediate repeat found and
    starts over until no repeat is left.
    """
    changed = True
    while changed:
        changed = False
        for length in range(len(tokens) // 2, min_len - 1, -1):
            for i in range(len(tokens) - 2 * length + 1):
                first = [t.casefold() for t in tokens[i : i + length]]
                second = [t.casefold() for t in tokens[i + length : i + 2 * length]]
                if first == second:
                    del tokens[i + length : i + 2 * length]
                    changed = True
                    break
            if changed:
                break
    return tokens


def dedupe_sentences(text: str) -> str:
    """Reference ``segmenter.dedupe_sentences``: every sentence's tokens are collapsed, then written in a second pass.

    Each sentence is split into tokens and run through the reference
    ``collapse_repeated_phrases``, which folds every token it compares; its
    case-folded join is the key that drops a later repeat. The kept
    sentences are then joined with their delimiters, a blank after each
    terminal mark but the last sentence's.
    """
    pieces = _SENTENCE_SPLIT.split(text)
    kept: list[tuple[str, str]] = []
    seen: set[str] = set()
    for i in range(0, len(pieces), 2):
        delim = pieces[i + 1] if i + 1 < len(pieces) else ""
        tokens = pieces[i].split()
        if not tokens:
            continue
        sentence = " ".join(collapse_repeated_phrases(tokens))
        key = sentence.casefold()
        if key in seen:
            continue
        seen.add(key)
        kept.append((sentence, delim))

    out: list[str] = []
    for j, (sentence, delim) in enumerate(kept):
        out.append(sentence)
        if delim == "\n":
            out.append("\n")
        elif delim:
            out.append(delim)
            if j + 1 < len(kept):
                out.append(" ")
    return "".join(out)


def scan(tokens: list[str], ngrams: dict[int, set[tuple[str, ...]]]) -> tuple[int, set[int]]:
    """Reference greedy matcher for one topic: longest phrase first at each position.

    ``ngrams`` maps phrase length to the topic's phrases of that length.
    Returns the match count and the consumed token positions.
    """
    lengths = sorted(ngrams, reverse=True)
    count = 0
    consumed: set[int] = set()
    i = 0
    while i < len(tokens):
        for length in lengths:
            if i + length <= len(tokens) and tuple(tokens[i : i + length]) in ngrams[length]:
                count += 1
                consumed.update(range(i, i + length))
                i += length
                break
        else:
            i += 1
    return count, consumed


def topic_ngrams(terms) -> dict[int, set[tuple[str, ...]]]:
    """A topic's terms as case-folded token tuples keyed by length."""
    table: dict[int, set[tuple[str, ...]]] = {}
    for term in terms:
        toks = tuple(re.findall(r"[^\W_]+", term.casefold()))
        table.setdefault(len(toks), set()).add(toks)
    return table


def match_counts(tokens: list[str], lexicon) -> list[int]:
    """Reference ``Lexicon.match_counts``: one ``scan`` per named topic.

    The miscellaneous topic counts the positions no named topic consumed.
    """
    folded = [t.casefold() for t in tokens]
    counts = [0] * len(lexicon.topics)
    matched_anywhere: set[int] = set()
    for i, topic in enumerate(lexicon.topics):
        if topic.miscellaneous:
            continue
        counts[i], consumed = scan(folded, topic_ngrams(topic.terms))
        matched_anywhere |= consumed
    for i, topic in enumerate(lexicon.topics):
        if topic.miscellaneous:
            counts[i] = len(folded) - len(matched_anywhere)
    return counts


def select_top_k_terms(tf, idf: dict[str, float], k: int) -> list[tuple[str, float]]:
    """Reference ``casebase.select_top_k_terms``: every weight rounded on its own, sorted through a key."""
    weighted = [(term, round12(count * idf[term])) for term, count in tf.items()]
    weighted.sort(key=lambda tw: (-tw[1], tw[0]))
    return weighted[:k]


def selection_idf(term: str, stats) -> float:
    """Reference ``casebase.selection_idf``: the smoothed idf computed from the term's df on every call."""
    return math.log(1.0 + stats.n_cases / (1.0 + stats.df.get(term, 0)))


def case_description(max_tf: dict[str, int], block_tfs: list, k: int, stats) -> dict[str, float]:
    """Reference problem description: one idf per term of the page, every block ranked."""
    idf = {term: selection_idf(term, stats) for term in max_tf}
    selected = {term for tf in block_tfs for term, _ in select_top_k_terms(tf, idf, k)}
    return {term: round12(max_tf[term] * idf[term]) for term in sorted(selected)}


def retrieve_top_k(q_tokens: list[str], index, cb, k: int) -> list:
    """Reference ``retrieval.retrieve_top_k``: per-query dict accumulators, full sort.

    Sums ``tf * idf^2 * norm`` per case over the posting lists in sorted term
    order, builds a candidate for every case touched and sorts them all.
    """
    if k < 1:
        raise InputError("k must be >= 1")
    q_terms = sorted(set(q_tokens))
    if not q_terms:
        return []
    sums: dict[int, float] = {}
    matches: dict[int, int] = {}
    for t in q_terms:
        postings = index.postings.get(t)
        if not postings:
            continue
        idf_sq = index.idf(t) ** 2
        for ordinal, tf in postings:
            sums[ordinal] = sums.get(ordinal, 0.0) + tf * idf_sq * index.doc_norms[ordinal]
            matches[ordinal] = matches.get(ordinal, 0) + 1
    scored = [
        Candidate(case=cb.cases[ordinal], baseline_score=(matches[ordinal] / len(q_terms)) * total)
        for ordinal, total in sums.items()
    ]
    scored.sort(key=lambda c: (-c.baseline_score, c.case.doc_id))
    return scored[:k]


@dataclass
class Index:
    """What the reference ``build_index`` computes up front."""

    postings: dict[str, list[tuple[int, int]]]
    doc_norms: list[float]
    n_cases: int
    case_tfs: list[dict[str, int]]

    def idf(self, term: str) -> float:
        df = len(self.postings.get(term, ()))
        return 1.0 + math.log(self.n_cases / (df + 1.0))


def build_index(cb) -> Index:
    """Reference ``retrieval.build_index``: every posting's tf recovered at build time.

    Term frequencies are recovered from the stored weights (weight divided by
    the term's selection idf gives back the build-time count exactly, since
    weights are quantized well past integer resolution).
    """
    if not cb.cases:
        raise CaseBaseBuildError("cannot index an empty case base")
    postings: dict[str, list[tuple[int, int]]] = {}
    case_tfs: list[dict[str, int]] = []
    doc_norms: list[float] = []
    idfs: dict[str, float] = {}
    for ordinal, case in enumerate(cb.cases):
        doc_norms.append(1.0 / math.sqrt(len(case.prob_desc)))
        tfs: dict[str, int] = {}
        for term, weight in case.prob_desc.items():
            idf = idfs.get(term)
            if idf is None:
                idf = idfs[term] = selection_idf(term, cb.corpus_stats)
            tf = tfs[term] = max(1, round(weight / idf))
            postings.setdefault(term, []).append((ordinal, tf))
        case_tfs.append(tfs)
    return Index(
        postings=postings,
        doc_norms=doc_norms,
        n_cases=len(cb.cases),
        case_tfs=case_tfs,
    )


def _dump(record: dict) -> str:
    return json.dumps(record, sort_keys=True) + "\n"


def save_case_base(cb, path) -> None:
    """Reference ``casebase.save_case_base``: rounds every value again and sorts every record's keys."""
    lines = [
        _dump(
            {
                "config": asdict(cb.config),
                "lexicon_fingerprint": cb.lexicon.fingerprint(),
                "m": cb.lexicon.m,
                "N": cb.corpus_stats.n_cases,
            }
        )
    ]
    for case in cb.cases:
        lines.append(
            _dump(
                {
                    "doc_id": case.doc_id,
                    "prob_desc": [[t, round12(w)] for t, w in sorted(case.prob_desc.items())],
                    "av": [round12(v) for v in case.av],
                    "av_revised": [round12(v) for v in case.av_revised],
                }
            )
        )
    lines.append(_dump({"corpus_stats": {"df": cb.corpus_stats.df, "N": cb.corpus_stats.n_cases}}))
    lines.append(
        _dump(
            {
                "lexicon": {
                    "topics": [
                        {"name": t.name, "terms": sorted(t.terms), "miscellaneous": t.miscellaneous}
                        for t in cb.lexicon.topics
                    ]
                }
            }
        )
    )
    Path(path).write_text("".join(lines), encoding="utf-8")


_ENCODER = json.JSONEncoder(sort_keys=True, check_circular=False)


def save_case_base_as_held(cb, path) -> None:
    """Reference ``casebase.save_case_base``: the encoder writes each record whole, every value as held."""
    encode = _ENCODER.encode
    header = {
        "config": asdict(cb.config),
        "lexicon_fingerprint": cb.lexicon.fingerprint(),
        "m": cb.lexicon.m,
        "N": cb.corpus_stats.n_cases,
    }
    lines = [encode(header) + "\n"]
    for case in cb.cases:
        record = {
            "av": case.av,
            "av_revised": case.av_revised,
            "doc_id": case.doc_id,
            "prob_desc": sorted(case.prob_desc.items()),
        }
        lines.append(encode(record) + "\n")
    lines.append(encode({"corpus_stats": {"df": cb.corpus_stats.df, "N": cb.corpus_stats.n_cases}}) + "\n")
    topics = [{"name": t.name, "terms": sorted(t.terms), "miscellaneous": t.miscellaneous} for t in cb.lexicon.topics]
    lines.append(encode({"lexicon": {"topics": topics}}) + "\n")
    Path(path).write_text("".join(lines), encoding="utf-8")


def cosine_to_unit(unit: list[float], b: list[float]) -> float:
    """Reference ``affordance.cosine_to_unit``: dense, over every component of ``normalize_av(b)``."""
    if len(unit) != len(b):
        raise DimensionError(f"dimension mismatch: {len(unit)} vs {len(b)}")
    dot = sum(x * y for x, y in zip(unit, normalize_av(b)))
    return min(max(dot, 0.0), 1.0)


def cosine_sim(a: list[float], b: list[float]) -> float:
    """Reference ``affordance.cosine_sim`` through the dense ``cosine_to_unit``."""
    return cosine_to_unit(normalize_av(a), b)


def revise_case_affordance(case, query_av: list[float], eta: float):
    """Reference ``casebase.revise_case_affordance``: steps and rounds every component."""
    if not 0.0 <= eta <= 1.0:
        raise InputError("eta must lie in [0, 1]")
    if len(query_av) != len(case.av_revised):
        raise DimensionError(f"dimension mismatch: {len(query_av)} vs {len(case.av_revised)}")
    if eta == 0.0:
        return case
    direction = normalize_av(query_av)
    revised = _step(case.av_revised, direction, eta)
    if not all(map(math.isfinite, revised)):
        peak = max(map(abs, case.av_revised))
        revised = _step([v / peak for v in case.av_revised], direction, eta)
    case.av_revised = revised
    return case


def _step(av: list[float], direction: list[float], eta: float) -> list[float]:
    scale = eta * math.hypot(*av)
    return [round12(v + scale * d) for v, d in zip(av, direction)]


def compare_rankings(baseline_order: list[str], final_order: list[str]) -> float:
    """Reference ``harness.compare_rankings``: Kendall tau-a, counting both kinds of pair one by one."""
    if len(baseline_order) != len(set(baseline_order)) or len(final_order) != len(set(final_order)):
        raise InputError("orderings must not repeat doc_ids")
    if set(baseline_order) != set(final_order):
        raise InputError("orderings cover different doc_id sets")
    n = len(baseline_order)
    if n < 2:
        return 1.0
    position = {doc_id: i for i, doc_id in enumerate(final_order)}
    concordant = discordant = 0
    for i in range(n):
        for j in range(i + 1, n):
            if position[baseline_order[i]] < position[baseline_order[j]]:
                concordant += 1
            else:
                discordant += 1
    return (concordant - discordant) / (n * (n - 1) / 2)
