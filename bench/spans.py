"""In-memory span tracing around affret's public functions.

The tracer swaps each traced function, in every ``affret`` module namespace
that refers to it, for a wrapper that records a span: id, parent span id,
name, request id, start and end (``perf_counter_ns``) while
``Tracer.installed()`` is active. Nothing inside affret changes, and leaving
the context puts the original objects back. Spans stay in a list until the
run ends and are then written as JSON lines.

Self time of a span is its duration minus the durations of its direct
children. Because the benchmark is single-threaded, spans nest strictly and
self times of all spans add up to the traced wall time.

Hot leaf helpers (``cosine_sim``, ``normalize_av``, ``selection_idf``,
``round12``, ``link_to_text_ratio``) are not wrapped: they run per candidate
or per term, a span there would cost more than the work, and their time is
part of the self time of the function that calls them.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter
from contextlib import contextmanager
from pathlib import Path

# (module, function, span name). ``lexicon.match`` is the block-level
# affordance count, which is where the lexicon matcher runs.
TRACED = (
    ("segmenter", "parse_document", "segmenter.parse"),
    ("segmenter", "segment_blocks", "segmenter.segment"),
    ("segmenter", "extract_block_text", "segmenter.link_filter"),
    ("segmenter", "dedupe_sentences", "segmenter.dedupe"),
    ("segmenter", "tokenize", "segmenter.tokenize"),
    ("affordance", "compute_block_affordance", "lexicon.match"),
    ("affordance", "compute_query_affordance", "affordance.query_av"),
    ("casebase", "select_top_k_terms", "casebase.select_terms"),
    ("casebase", "populate_case_base", "casebase.populate"),
    ("casebase", "build_case", "casebase.build_case"),
    ("casebase", "save_case_base", "casebase.save"),
    ("casebase", "load_case_base", "casebase.load"),
    ("casebase", "revise_case_affordance", "casebase.revise"),
    ("retrieval", "build_index", "retrieval.index"),
    ("retrieval", "retrieve_top_k", "retrieval.retrieve"),
    ("retrieval", "rerank", "retrieval.rerank"),
    ("harness", "run_experiment", "harness.run"),
    ("harness", "compare_rankings", "harness.kendall"),
    ("harness", "emit_report", "harness.report"),
)

# Calls made from inside the defining module that stay untraced, so that the
# query vector's own matching counts as affordance.query_av, not lexicon.match.
_KEEP_LOCAL = {("affordance", "compute_block_affordance")}

_BUILD_SPANS = {"casebase.populate", "casebase.build_case"}


class Tracer:
    """Records spans and layer counters while installed."""

    def __init__(self):
        # (id, parent id, name, request id, start ns, end ns)
        self.spans: list[tuple[int, int, str, str, int, int] | None] = []
        self.counts: Counter = Counter()
        self._names: list[str] = []
        self._stack: list[int] = []
        self._requests: list[str] = ["-"]

    # -- recording

    def _open(self, name: str) -> tuple[int, int]:
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(None)
        self._names.append(name)
        self._stack.append(sid)
        return sid, parent

    def _close(self, sid: int, parent: int, name: str, start: int, end: int) -> None:
        self._stack.pop()
        self.spans[sid] = (sid, parent, name, self._requests[-1], start, end)

    @contextmanager
    def request(self, name: str, request_id: str):
        """A benchmark-level span that starts one request (page, query, build or cycle)."""
        self._requests.append(request_id)
        sid, parent = self._open(name)
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            self._close(sid, parent, name, start, time.perf_counter_ns())
            self._requests.pop()

    def _wrap(self, fn, name: str):
        count = _COUNTERS.get(name)
        tracer = self

        def traced(*args, **kwargs):
            sid, parent = tracer._open(name)
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(sid, parent, name, start, time.perf_counter_ns())
            if count is not None:
                count(tracer.counts, args, result, tracer._names[parent] if parent >= 0 else None)
            return result

        return traced

    # -- installation

    @contextmanager
    def installed(self):
        """Swap the wrappers in for the traced functions; restore the originals on exit."""
        modules = {name: mod for name, mod in sys.modules.items() if name == "affret" or name.startswith("affret.")}
        saved = []
        for module_name, func_name, span_name in TRACED:
            original = getattr(modules[f"affret.{module_name}"], func_name)
            wrapper = self._wrap(original, span_name)
            for mod_name, mod in modules.items():
                if (mod_name.rpartition(".")[2], func_name) in _KEEP_LOCAL:
                    continue
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        saved.append((mod, attr, original))
                        setattr(mod, attr, wrapper)
        try:
            yield self
        finally:
            for mod, attr, original in reversed(saved):
                setattr(mod, attr, original)

    # -- analysis

    def self_ns(self, request=None) -> Counter:
        """Total self time per span name, in nanoseconds; ``request`` filters on request ids."""
        child_ns: Counter = Counter()
        for span in self.spans:
            if span is not None and span[1] >= 0:
                child_ns[span[1]] += span[5] - span[4]
        totals: Counter = Counter()
        for span in self.spans:
            if span is not None and (request is None or request(span[3])):
                totals[span[2]] += span[5] - span[4] - child_ns[span[0]]
        return totals

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fout:
            for span in self.spans:
                if span is None:
                    continue
                sid, parent, name, request, start, end = span
                fout.write(
                    json.dumps({"id": sid, "parent": parent, "name": name, "request": request, "start_ns": start, "end_ns": end})
                    + "\n"
                )


# -- layer counters, taken after the span has closed so they add no span time


def _count_segment(counts, args, result, parent):
    counts["segmenter.pages"] += 1
    counts["segmenter.blocks"] += len(result)


def _count_extract(counts, args, result, parent):
    counts["segmenter.extracted"] += 1
    counts["segmenter.kept"] += bool(result)


def _count_dedupe(counts, args, result, parent):
    counts["segmenter.dedupe_chars_in"] += len(args[0])
    counts["segmenter.dedupe_chars_out"] += len(result)


def _count_tokenize(counts, args, result, parent):
    if parent in _BUILD_SPANS:
        counts["segmenter.tokens"] += len(result)


def _count_match(counts, args, result, parent):
    tokens, lexicon = args[0], args[1]
    counts["lexicon.tokens"] += len(tokens)
    counts["lexicon.unmatched"] += sum(int(c) for c, t in zip(result, lexicon.topics) if t.miscellaneous)


def _count_retrieve(counts, args, result, parent):
    q_tokens, index = args[0], args[1]
    scanned = 0
    scored: set[int] = set()
    for term in set(q_tokens):
        postings = index.postings.get(term, ())
        scanned += len(postings)
        scored.update(ordinal for ordinal, _ in postings)
    counts["retrieval.queries"] += 1
    counts["retrieval.postings_scanned"] += scanned
    counts["retrieval.scored"] += len(scored)
    counts["retrieval.results"] += len(result)


_COUNTERS = {
    "segmenter.segment": _count_segment,
    "segmenter.link_filter": _count_extract,
    "segmenter.dedupe": _count_dedupe,
    "segmenter.tokenize": _count_tokenize,
    "lexicon.match": _count_match,
    "retrieval.retrieve": _count_retrieve,
}
