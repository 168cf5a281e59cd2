"""End-to-end evaluation: run query sets, compare orderings, emit CSV reports.

The report quantifies how much affordance re-ranking moved the baseline
ordering (per-query Kendall tau plus full rank columns). Precision metrics
appear only when the caller supplies relevance judgments; nothing is ever
fabricated. Output files are byte-identical across reruns: rows are
order-normalized by (query_id, final_rank) and all numbers carry a fixed
6-decimal format.
"""

from __future__ import annotations

import csv
import json
import re
from dataclasses import asdict, dataclass
from itertools import combinations, repeat, starmap
from operator import gt
from pathlib import Path

from .affordance import compute_query_affordance
from .casebase import CaseBase, BuildConfig, revise_case_affordance
from .errors import InputError, QueryFormatError, read_text
from .retrieval import InvertedIndex, Query, ResultEntry, rerank, retrieve_top_k
from .segmenter import tokenize
from .stopwords import DEFAULT_STOPWORDS

_TOP_BLOCK = re.compile(r"<top>(.*?)</top>", re.DOTALL | re.IGNORECASE)
_TOP_OPEN = re.compile(r"<top>", re.IGNORECASE)
_FIELD = {
    name: re.compile(rf"<{name}>(.*?)(?=</{name}>|<num>|<title>|<desc>|<narr>|$)", re.DOTALL | re.IGNORECASE)
    for name in ("num", "title", "desc")
}

ROWS_HEADER = (
    "query_id",
    "doc_id",
    "baseline_rank",
    "final_rank",
    "baseline_score",
    "affordance_cosine",
    "final_score",
)
SUMMARY_HEADER = ("query_id", "kendall_tau", "pool_size")
PRECISION_COLUMNS = ("precision_at_k_baseline", "precision_at_k_final")


@dataclass
class QuerySummary:
    query_id: str
    kendall_tau: float | None
    pool_size: int
    precision_baseline: float | None = None
    precision_final: float | None = None


@dataclass
class RunReport:
    rows: list[tuple[str, ResultEntry]]
    summaries: list[QuerySummary]
    config_echo: dict
    has_precision: bool = False


def _field_text(block: str, name: str) -> str:
    match = _FIELD[name].search(block)
    return match.group(1).strip() if match else ""


def _topic_num(block: str) -> str:
    return re.sub(r"^number\s*:\s*", "", _field_text(block, "num"), flags=re.IGNORECASE).strip()


def load_queries(path: str | Path, stop_words: frozenset[str] = DEFAULT_STOPWORDS) -> list[Query]:
    """Parse a topic file of <top> blocks with num/title and optional desc.

    Titles run through the same tokenizer as document text; a query whose
    title is empty after stop-wording cannot be served and is rejected. A
    <narr> field is skipped: it only ends the field before it. Unclosed
    <num>, <title> and <desc> fields are read, but a <top> with no </top>
    before the next <top> or the end of the file is rejected.
    """
    text = read_text(path, QueryFormatError)
    blocks = _TOP_BLOCK.findall(text)
    openings = [m.start() for m in _TOP_OPEN.finditer(text)]
    # the lazy match runs an unclosed topic into the next one, or skips it at the end
    if len(openings) != len(blocks):
        for start, end in zip(openings, [*openings[1:], len(text)]):
            topic = text[start:end]
            if "</top>" not in topic.lower():
                line = text.count("\n", 0, start) + 1
                raise QueryFormatError(f"{path}: line {line}: topic {_topic_num(topic)!r} has no </top>")
    if not blocks:
        raise QueryFormatError(f"{path}: no <top> blocks found")
    queries: list[Query] = []
    seen: set[str] = set()
    for block in blocks:
        num = _topic_num(block)
        if not num:
            raise QueryFormatError(f"{path}: topic without a <num> identifier")
        if num in seen:
            raise QueryFormatError(f"{path}: duplicate query id {num!r}")
        seen.add(num)
        title = tokenize(_field_text(block, "title"), stop_words)
        if not title:
            raise QueryFormatError(f"{path}: query {num!r} has an empty title after stop-wording")
        queries.append(
            Query(
                query_id=num,
                title=title,
                desc=tokenize(_field_text(block, "desc"), stop_words),
            )
        )
    return queries


def load_qrels(path: str | Path) -> dict[tuple[str, str], int]:
    """Relevance judgments: one `query_id<TAB>doc_id<TAB>0|1` per line; a pair judged twice must agree."""
    judged: dict[tuple[str, str], tuple[int, int]] = {}
    for lineno, line in enumerate(read_text(path, QueryFormatError).split("\n"), start=1):
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        parts = line.split("\t")
        if len(parts) != 3 or parts[2] not in ("0", "1"):
            raise QueryFormatError(f"{path}: line {lineno}: expected 'query_id<TAB>doc_id<TAB>0|1'")
        label = int(parts[2])
        held, first = judged.setdefault((parts[0], parts[1]), (label, lineno))
        if held != label:
            raise QueryFormatError(
                f"{path}: lines {first} and {lineno} judge query {parts[0]!r}, document {parts[1]!r}"
                f" differently ({held} and {label})"
            )
    return {pair: label for pair, (label, _) in judged.items()}


def compare_rankings(baseline_order: list[str], final_order: list[str]) -> float:
    """Kendall tau-a between two orderings of the same doc_id set.

    +1 for identical orders, -1 for a full reversal; a singleton (or empty)
    set compares as 1. Each pair of doc_ids is discordant when the final
    order reverses it; the pairs are counted in C, and tau-a is
    ``(pairs - 2 * discordant) / pairs``, the same correctly rounded
    quotient of concordant minus discordant over the pair count as counting
    both kinds pair by pair.
    """
    baseline_ids, final_ids = set(baseline_order), set(final_order)
    if len(baseline_order) != len(baseline_ids) or len(final_order) != len(final_ids):
        raise InputError("orderings must not repeat doc_ids")
    if baseline_ids != final_ids:
        raise InputError("orderings cover different doc_id sets")
    n = len(baseline_order)
    if n < 2:
        return 1.0
    position = dict(zip(final_order, range(n)))
    discordant = sum(starmap(gt, combinations(map(position.__getitem__, baseline_order), 2)))
    pairs = n * (n - 1) // 2
    return (pairs - 2 * discordant) / pairs


def _precision_at_k(order: list[str], query_id: str, qrels: dict[tuple[str, str], int], k: int) -> float:
    hits = sum(map(qrels.get, zip(repeat(query_id), order[:k]), repeat(0)))
    return hits / k


def run_experiment(
    cb: CaseBase,
    index: InvertedIndex,
    queries: list[Query],
    config: BuildConfig,
    use_desc: bool = False,
    qrels: dict[tuple[str, str], int] | None = None,
) -> RunReport:
    """Retrieve, re-rank, and summarize every query, in query order.

    With a positive feedback rate (eta) each query's pool is re-ranked against
    the revised vectors accumulated so far and then revises them in turn: one
    ``revise_case_affordance`` call moves the whole pool along the query's
    direction.
    ``RunReport.rows`` holds one ``(query_id, ResultEntry)`` pair per ranked
    document.
    """
    feedback = config.eta > 0
    rows: list[tuple[str, ResultEntry]] = []
    summaries: list[QuerySummary] = []
    for query in queries:
        tokens = query.title + query.desc if use_desc else query.title
        pool = retrieve_top_k(tokens, index, cb, config.k_retrieve)
        if not pool:
            summaries.append(QuerySummary(query_id=query.query_id, kendall_tau=None, pool_size=0))
            continue
        query_av = compute_query_affordance(tokens, cb.lexicon)
        ranked = rerank(pool, query_av, cb, alpha=config.alpha, use_revised=feedback)
        rows.extend((query.query_id, entry) for entry in ranked.entries)
        baseline_order = [c.case.doc_id for c in pool]
        final_order = [e.doc_id for e in ranked.entries]
        summary = QuerySummary(
            query_id=query.query_id,
            kendall_tau=compare_rankings(baseline_order, final_order),
            pool_size=len(pool),
        )
        if qrels is not None:
            summary.precision_baseline = _precision_at_k(baseline_order, query.query_id, qrels, config.k_retrieve)
            summary.precision_final = _precision_at_k(final_order, query.query_id, qrels, config.k_retrieve)
        summaries.append(summary)
        if feedback:
            revise_case_affordance([c.case for c in pool], query_av, config.eta)

    # the build dials are the case base's own; config sets only the retrieval dials
    build = {"k_terms": cb.config.k_terms, "tau": cb.config.tau}
    echo = {**asdict(config), **build, "use_desc": use_desc, "lexicon_fingerprint": cb.lexicon.fingerprint()}
    return RunReport(rows=rows, summaries=summaries, config_echo=echo, has_precision=qrels is not None)


def _fmt(x: float | None) -> str:
    return "" if x is None else f"{x:.6f}"


def emit_report(report: RunReport, out_dir: str | Path) -> tuple[Path, Path]:
    """Write rows.csv and summary.csv (plus a config echo), byte-stable."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    rows_path = out_dir / "rows.csv"
    summary_path = out_dir / "summary.csv"

    with open(rows_path, "w", encoding="utf-8", newline="") as fout:
        writer = csv.writer(fout, lineterminator="\n")
        writer.writerow(ROWS_HEADER)
        for query_id, e in sorted(report.rows, key=lambda row: (row[0], row[1].final_rank)):
            writer.writerow(
                [
                    query_id,
                    e.doc_id,
                    e.baseline_rank,
                    e.final_rank,
                    _fmt(e.baseline_score),
                    _fmt(e.affordance_cosine),
                    _fmt(e.final_score),
                ]
            )

    with open(summary_path, "w", encoding="utf-8", newline="") as fout:
        writer = csv.writer(fout, lineterminator="\n")
        header = SUMMARY_HEADER + PRECISION_COLUMNS if report.has_precision else SUMMARY_HEADER
        writer.writerow(header)
        for summary in sorted(report.summaries, key=lambda s: s.query_id):
            record = [summary.query_id, _fmt(summary.kendall_tau), summary.pool_size]
            if report.has_precision:
                record += [_fmt(summary.precision_baseline), _fmt(summary.precision_final)]
            writer.writerow(record)

    (out_dir / "run_config.json").write_text(
        json.dumps(report.config_echo, sort_keys=True, indent=2) + "\n", encoding="utf-8"
    )
    return rows_path, summary_path
