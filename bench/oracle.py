"""Output checks the benchmark runs outside its timed regions.

Each check raises ``CheckError`` with a message naming what differed. They
compare affret's fast paths with independent recomputations: retrieval pools
with exhaustive scoring of every case, rerank entries with ``cosine_sim`` and
the min-max blend, and saved case bases with a load/save round trip.
"""

from __future__ import annotations

import hashlib
from pathlib import Path


class CheckError(Exception):
    """An output of the program differs from its reference."""


def digest(path: Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


class ExhaustiveScorer:
    """Scores every case as ``baseline_score`` does, column by column.

    One pass over every case's term frequencies (``index.case_tfs``, the data
    ``baseline_score`` reads) gives each term's tf column; the posting lists
    that ``retrieve_top_k`` walks are not used. Per case, matched terms are
    summed in sorted order with the same expression as ``baseline_score``,
    so the scores agree bit for bit; a case in no column scores exactly 0.
    """

    def __init__(self, cb, index):
        self.index = index
        self.doc_ids = [c.doc_id for c in cb.cases]
        self.columns: dict[str, list[tuple[int, int]]] = {}
        for i, tfs in enumerate(index.case_tfs):
            for term, tf in tfs.items():
                self.columns.setdefault(term, []).append((i, tf))

    def top_k(self, q_tokens, k: int) -> list[tuple[str, float]]:
        q_terms = sorted(set(q_tokens))
        totals: dict[int, float] = {}
        matched: dict[int, int] = {}
        norms = self.index.doc_norms
        for t in q_terms:
            col = self.columns.get(t)
            if not col:
                continue
            idf_sq = self.index.idf(t) ** 2
            for i, tf in col:
                totals[i] = totals.get(i, 0.0) + tf * idf_sq * norms[i]
                matched[i] = matched.get(i, 0) + 1
        scored = [(self.doc_ids[i], (matched[i] / len(q_terms)) * total) for i, total in totals.items()]
        scored.sort(key=lambda ds: (-ds[1], ds[0]))
        return scored[:k]


def pool_pairs(pool) -> list[tuple[str, float]]:
    """(doc_id, baseline score) of each candidate, in pool order."""
    return [(c.case.doc_id, c.baseline_score) for c in pool]


def check_pool(query_id: str, got: list[tuple[str, float]], expected: list[tuple[str, float]]) -> None:
    if got != expected:
        raise CheckError(f"{query_id}: retrieve_top_k pool {got[:3]}... differs from exhaustive scoring {expected[:3]}...")


def check_pool_with_library_oracle(query_id: str, q_tokens, got, cb, index, baseline_score, k: int) -> None:
    """The same comparison through affret's own ``baseline_score``; slower, so run on a sample."""
    scored = [(case.doc_id, baseline_score(q_tokens, case, index)) for case in cb.cases]
    expected = sorted((ds for ds in scored if ds[1] > 0.0), key=lambda ds: (-ds[1], ds[0]))[:k]
    check_pool(query_id, got, expected)


def check_rerank(query_id: str, pool: list[tuple[str, float]], query_av, entries, alpha: float, cb, cosine_sim) -> None:
    """Entries must equal the cosine / min-max blend recomputed from the (doc_id, score) pool."""
    if not pool:
        if entries:
            raise CheckError(f"{query_id}: rerank of an empty pool returned entries")
        return
    scores = [score for _, score in pool]
    lo, hi = min(scores), max(scores)
    span = hi - lo
    expected = []
    for rank, (doc_id, score) in enumerate(pool, start=1):
        cosine = cosine_sim(query_av, cb.case(doc_id).av)
        norm = (score - lo) / span if span > 0 else 0.0
        expected.append((doc_id, score, cosine, alpha * norm + (1.0 - alpha) * cosine, rank))
    expected.sort(key=lambda e: (-e[3], e[0]))
    got = [(e.doc_id, e.baseline_score, e.affordance_cosine, e.final_score, e.baseline_rank) for e in entries]
    if got != expected:
        raise CheckError(f"{query_id}: rerank entries differ from the recomputed blend")
    if [e.final_rank for e in entries] != list(range(1, len(entries) + 1)):
        raise CheckError(f"{query_id}: final ranks are not 1..{len(entries)}")


def _case_tuple(case):
    return (case.doc_id, case.prob_desc, case.av, case.av_revised)


def check_case_base_file(path: Path, cb, affret, scratch: Path) -> None:
    """The file holds exactly ``cb``, and load -> save reproduces it byte for byte."""
    try:
        loaded = affret.load_case_base(path)
    except affret.AffretError as exc:
        raise CheckError(f"{path.name}: saved case base does not load ({exc})") from exc
    if [_case_tuple(c) for c in loaded.cases] != [_case_tuple(c) for c in cb.cases]:
        raise CheckError(f"{path.name}: reloaded cases differ from the in-memory case base")
    if loaded.corpus_stats != cb.corpus_stats:
        raise CheckError(f"{path.name}: reloaded corpus stats differ")
    again = scratch / "resaved.jsonl"
    affret.save_case_base(loaded, again)
    if again.read_bytes() != Path(path).read_bytes():
        raise CheckError(f"{path.name}: save -> load -> save is not byte-identical")


def check_build_accounting(pages: list[str], case_ids: list[str], skipped: list[str]) -> None:
    """Every page ends as exactly one of: a case, or a logged skip."""
    cases, skips = set(case_ids), set(skipped)
    if cases & skips:
        raise CheckError(f"pages both built and skipped: {sorted(cases & skips)[:5]}")
    missing = set(pages) - cases - skips
    if missing:
        raise CheckError(f"pages neither built nor logged as skipped: {sorted(missing)[:5]}")
    extra = (cases | skips) - set(pages)
    if extra:
        raise CheckError(f"cases or skips for unknown pages: {sorted(extra)[:5]}")
