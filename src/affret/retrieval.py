"""Query answering: lexical candidate retrieval, then affordance re-ranking.

Stage one scores query tokens against each case's problem description with a
coord * sum(tf * idf^2 * norm) formula over exact term matches and keeps the
top-k nonzero scorers. Stage two compares the query's affordance vector with
each candidate's by cosine and orders the pool by

    final = alpha * minmax(baseline over pool) + (1 - alpha) * cosine

so alpha = 0 is the pure affordance ordering and alpha = 1 reproduces the
baseline ordering exactly.

All term iteration during score summation is in sorted order: float addition
is not associative, and a fixed order is what makes ranking byte-stable
across runs.

``build_index`` stores only what every query needs: the ordinals of the
cases holding each term (which also give the term's idf) and each case's
norm. Stage one runs term at a time. The first query that uses a term fills
the index's scoring entry for it: the term's posting ordinals and each
posting's contribution ``tf * idf^2 * norm``, with tf recovered from the
case's ``prob_desc`` weight at that moment by ``casebase.recover_tfs``, the
one module that knows the weight format. ``baseline_score`` recovers tf
through the same function and norm from the case's own ``prob_desc`` with
the same expression, so the same floats. A query adds the entries of its
terms, in sorted term order, into per-ordinal sums, which is the order in
which ``baseline_score`` adds a case's matched terms. A ``Counter`` counts each
touched case's matched terms in C, coord (``count / n_terms``) is taken once
per match count, and each touched case's score is ``coord * sum`` in one
list, so every score is the float ``baseline_score`` gives. Selection keeps
the scores at or above the k-th largest (so ties at the cut survive), sorts
only those, and builds candidates for the k it returns. The ``(ordinal, tf)``
posting lists and per-case tf maps that reference scorers read are built on
first access, never by a query or by ``baseline_score``.
"""

from __future__ import annotations

import heapq
import math
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

from .affordance import AffordanceVector, cosine_to_unit, unit_support
from .casebase import Case, CaseBase, CorpusStats, recover_tfs
from .errors import CaseBaseBuildError, check_count, check_unit_dial


@dataclass
class Query:
    """A parsed topic: tokenized title and desc."""

    query_id: str
    title: list[str]
    desc: list[str] = field(default_factory=list)


@dataclass
class InvertedIndex:
    # term -> ascending ordinals of the cases whose description holds it,
    # terms in first-seen order
    term_ordinals: dict[str, list[int]]
    doc_norms: list[float]
    n_cases: int
    # each case's prob_desc, by ordinal, and the corpus stats: a posting's tf
    # is recovered from its weight by casebase.recover_tfs when first needed
    descriptions: list[dict[str, float]] = field(repr=False)
    corpus_stats: CorpusStats = field(repr=False)
    # term -> (posting ordinals, tf * idf^2 * norm per posting), filled by
    # scoring_entry on a term's first query
    _entries: dict[str, tuple[list[int], list[float]]] = field(default_factory=dict, repr=False, compare=False)

    def idf(self, term: str) -> float:
        df = len(self.term_ordinals.get(term, ()))
        return 1.0 + math.log(self.n_cases / (df + 1.0))

    def scoring_entry(self, term: str) -> tuple[list[int], list[float]] | None:
        """The term's posting ordinals and score contributions; None for an unindexed term."""
        entry = self._entries.get(term)
        if entry is None:
            term_ordinals = self.term_ordinals.get(term)
            if not term_ordinals:
                return None
            idf_sq, norms = self.idf(term) ** 2, self.doc_norms
            contributions = [tf * idf_sq * norms[o] for tf, o in zip(self._posting_tfs(term), term_ordinals)]
            entry = self._entries[term] = (term_ordinals, contributions)
        return entry

    def _posting_tfs(self, term: str) -> list[int]:
        """The tf of each posting of an indexed term, in ordinal order: what scoring and both tf views read."""
        descriptions = self.descriptions
        return recover_tfs(term, [descriptions[o][term] for o in self.term_ordinals[term]], self.corpus_stats)

    @cached_property
    def postings(self) -> dict[str, list[tuple[int, int]]]:
        """term -> [(case ordinal, tf)] sorted by ordinal; built on first access.

        The query path never reads it; it is the tf view that reference
        scorers walk.
        """
        return {term: list(zip(ordinals, self._posting_tfs(term))) for term, ordinals in self.term_ordinals.items()}

    @cached_property
    def case_tfs(self) -> list[dict[str, int]]:
        """Per case ordinal, term -> tf in description order; built on first access.

        Read by reference scorers only, never by the query path.
        """
        # a term's postings run in ascending ordinal order, so walking the
        # cases in that order takes each term's tfs in turn
        columns = {term: iter(self._posting_tfs(term)) for term in self.term_ordinals}
        return [{term: next(columns[term]) for term in description} for description in self.descriptions]


class Candidate(NamedTuple):
    case: Case
    baseline_score: float


@dataclass
class ResultEntry:
    doc_id: str
    baseline_score: float
    affordance_cosine: float
    final_score: float
    baseline_rank: int
    final_rank: int


@dataclass
class RankedResult:
    entries: list[ResultEntry]


def build_index(cb: CaseBase) -> InvertedIndex:
    """Inverted index over problem-description terms.

    Groups case ordinals by term and computes each case's norm; every query
    needs these. Term frequencies are read from the cases' ``prob_desc``
    weights when a term is first queried, so index a case base only after
    its descriptions are final (feedback changes ``av_revised`` only).
    """
    if not cb.cases:
        raise CaseBaseBuildError("cannot index an empty case base")
    descriptions = [case.prob_desc for case in cb.cases]
    term_ordinals: dict[str, list[int]] = {}
    doc_norms: list[float] = []
    for ordinal, description in enumerate(descriptions):
        doc_norms.append(1.0 / math.sqrt(len(description)))
        for term in description:
            term_ordinals.setdefault(term, []).append(ordinal)
    return InvertedIndex(
        term_ordinals=term_ordinals,
        doc_norms=doc_norms,
        n_cases=len(cb.cases),
        descriptions=descriptions,
        corpus_stats=cb.corpus_stats,
    )


def baseline_score(q_tokens: list[str], case: Case, index: InvertedIndex) -> float:
    """Lexical score of one case: coord(q,c) * sum over matched terms of
    tf * idf^2 * norm, with query terms counted once each."""
    q_terms = sorted(set(q_tokens))
    if not q_terms:
        return 0.0
    description = case.prob_desc
    matched = [t for t in q_terms if t in description]
    if not matched:
        return 0.0
    coord = len(matched) / len(q_terms)
    norm = 1.0 / math.sqrt(len(description))
    total = 0.0
    for t in matched:
        [tf] = recover_tfs(t, (description[t],), index.corpus_stats)
        total += tf * index.idf(t) ** 2 * norm
    return coord * total


def retrieve_top_k(q_tokens: list[str], index: InvertedIndex, cb: CaseBase, k: int) -> list[Candidate]:
    """Top-k cases by baseline score via the posting lists.

    Only cases with a nonzero score qualify, so fewer than k candidates may
    come back. Ties break by ascending doc_id. Equivalent to scoring every
    case with ``baseline_score`` and sorting, bit for bit. The posting loop
    only adds contributions into per-ordinal sums; a ``Counter`` counts each
    touched case's matched terms in C, and coord is computed once per
    match count. Each score is the float ``baseline_score`` gives: the same
    sum order, the same ``count / n_terms`` and the same product.
    """
    check_count("k", k)
    q_terms = sorted(set(q_tokens))
    if not q_terms:
        return []
    sums = [0.0] * index.n_cases
    matches: Counter[int] = Counter()
    for t in q_terms:
        entry = index.scoring_entry(t)
        if entry is None:
            continue
        term_ordinals, contributions = entry
        matches.update(term_ordinals)
        for ordinal, contribution in zip(term_ordinals, contributions):
            sums[ordinal] += contribution
    n_terms = len(q_terms)
    coord = [count / n_terms for count in range(n_terms + 1)]
    # aligned with the Counter's keys, the touched ordinals
    totals = [coord[count] * sums[ordinal] for ordinal, count in matches.items()]
    if len(totals) > k:
        cut = heapq.nlargest(k, totals)[-1]
        scores = {ordinal: score for ordinal, score in zip(matches, totals) if score >= cut}
    else:
        scores = dict(zip(matches, totals))
    cases = cb.cases
    ranked = sorted(scores, key=lambda ordinal: (-scores[ordinal], cases[ordinal].doc_id))
    return [Candidate(case=cases[ordinal], baseline_score=scores[ordinal]) for ordinal in ranked[:k]]


def rerank(
    candidates: list[Candidate],
    query_av: AffordanceVector,
    cb: CaseBase,
    alpha: float = 0.0,
    use_revised: bool = False,
) -> RankedResult:
    """Order the candidate pool by blended affordance/baseline score.

    ``candidates`` must arrive baseline-sorted (as retrieve_top_k returns
    them); their positions define baseline_rank. The baseline component is
    min-max normalized over the pool (a constant pool contributes 0). The
    result is a permutation of the input pool.
    """
    check_unit_dial("alpha", alpha)
    if not candidates:
        return RankedResult(entries=[])
    scores = [c.baseline_score for c in candidates]
    lo, hi = min(scores), max(scores)
    span = hi - lo
    # normalized, and its support taken, once for the whole pool
    query_unit = unit_support(query_av)
    entries = []
    for i, cand in enumerate(candidates):
        av = cand.case.av_revised if use_revised else cand.case.av
        cosine = cosine_to_unit(query_unit, av)
        norm_baseline = (cand.baseline_score - lo) / span if span > 0 else 0.0
        entries.append(
            ResultEntry(
                doc_id=cand.case.doc_id,
                baseline_score=cand.baseline_score,
                affordance_cosine=cosine,
                final_score=alpha * norm_baseline + (1.0 - alpha) * cosine,
                baseline_rank=i + 1,
                final_rank=0,
            )
        )
    entries.sort(key=lambda e: (-e.final_score, e.doc_id))
    for rank, entry in enumerate(entries, start=1):
        entry.final_rank = rank
    return RankedResult(entries=entries)
