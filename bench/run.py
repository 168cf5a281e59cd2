#!/usr/bin/env python3
"""Layered benchmark for affret: one command, three workloads, stdlib only.

    python3 bench/run.py --workload build --seed 1 --seconds 30 --trace 0

Each workload is a closed loop with one client (affret is a library and a
CLI whose callers wait for every reply), driven in-process from one thread
with affret's default ``workers=1``. Inputs come from ``inputs.py`` and depend
only on ``--seed``. ``--trace 0`` measures the end-to-end metrics untraced;
``--trace 1`` spends half of ``--seconds`` untraced and half with spans
around affret's public functions (``spans.py``), and reports per-layer self
time, layer counters and the tracing overhead between the two halves. Output
checks (``oracle.py``) run outside the timed regions; a failed check makes the
command exit 1. The last stdout line is one JSON object; see README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import logging
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK_ROOT = ROOT / ".bench_work"
OUT_ROOT = ROOT / ".bench_out"

sys.path.insert(0, str(BENCH))

import inputs  # noqa: E402
import oracle  # noqa: E402
from hostspeed import HostSpeed  # noqa: E402
from spans import Tracer  # noqa: E402

ROUNDS = 3  # measured rounds per run, one after each of the last ROUNDS set-ups
K = 10
ALPHA = 0.25
ETA = 0.5
TAIL_LADDER = (99, 95, 90, 75, 50)

now = time.perf_counter


def load_affret():
    """Import affret from this checkout's sources, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "affret" / "__init__.py").is_file():
        raise SystemExit(f"error: affret sources not found under {src}")
    sys.path.insert(0, str(src))
    import affret

    if Path(affret.__file__).resolve().parent != (src / "affret").resolve():
        raise SystemExit(f"error: imported affret from {affret.__file__}, expected {src}")
    return affret


class SkipLog(logging.Handler):
    """Collects the doc ids of affret's 'skipping <doc>: <reason>' records."""

    def __init__(self):
        super().__init__(logging.INFO)
        self.skipped: list[str] = []

    def emit(self, record):
        if str(record.msg).startswith("skipping ") and record.args:
            self.skipped.append(str(record.args[0]))


def answer(A, cb, index, text):
    """One ad-hoc query, the path `affret query` takes."""
    tokens = A.segmenter.tokenize(text)
    query_av = A.affordance.compute_query_affordance(tokens, cb.lexicon)
    pool = A.retrieval.retrieve_top_k(tokens, index, cb, K)
    ranked = A.retrieval.rerank(pool, query_av, cb, alpha=ALPHA)
    return tokens, query_av, pool, ranked


def cold_query(A, cb_path, text) -> tuple[float, float]:
    """Saved case base to first answer: load, index, one query. Returns (start, end)."""
    t0 = now()
    cb = A.casebase.load_case_base(cb_path)
    index = A.retrieval.build_index(cb)
    answer(A, cb, index, text)
    return t0, now()


def request_span(tracer, name, request_id):
    return tracer.request(name, request_id) if tracer is not None else contextlib.nullcontext()


# ------------------------------------------------------------------ workloads


class Workload:
    """Shared bookkeeping; subclasses implement setup, iterate and check.

    One object lives for the whole run. ``setup`` runs ``setups`` times
    (setup_s is their median); each of the last ROUNDS set-ups is followed by
    an equal share of the measured time, so set-up and request samples come
    from the whole run. ``setup`` replaces only the per-setup state; samples
    accumulate across rounds.
    """

    name = ""
    tail_pct = 95
    setups = ROUNDS

    def __init__(self, A, seed: int, skiplog: SkipLog):
        self.A = A
        self.seed = seed
        self.skiplog = skiplog
        self.host = HostSpeed()
        # timings are (start, end) pairs of perf_counter seconds
        self.latencies: list[tuple[float, float]] = []  # per request
        self.units = 0  # work units for per-layer normalisation (pages, queries, cycles)
        self.attempted = 0
        self.failed = 0
        self.build_s: list[tuple[float, float]] = []  # populate + save, per build
        self.build_pages = 0
        self.build_digests: set[str] = set()
        self.cold_s: list[tuple[float, float]] = []
        self.cb_bytes_per_case = 0.0
        self.cases = 0
        self.docs_skipped = 0

    def prepare_checks(self) -> None:
        """Untimed work after a set-up that only the output checks need."""

    def trace_notes(self, tracer) -> list[str]:
        return []

    def lexicon(self, wdir: Path, vocab):
        path = wdir / "lexicon.tsv"
        path.write_text(vocab.lexicon_tsv(), encoding="utf-8")
        return self.A.lexicon.load_lexicon(path)

    def timed_build(self, corpus_dir: Path, lexicon, cb_path: Path, pages: int):
        """populate_case_base + save_case_base, timed as one build sample."""
        self.skiplog.skipped.clear()
        # a build is seconds long, with no host samples inside it: take some on either side
        self.host.sample()
        self.host.sample()
        t0 = now()
        cb = self.A.casebase.populate_case_base(corpus_dir, lexicon, self.A.BuildConfig())
        self.A.casebase.save_case_base(cb, cb_path)
        self.build_s.append((t0, now()))
        self.host.sample()
        self.host.sample()
        self.build_pages = pages
        self.cases = len(cb.cases)
        self.docs_skipped = pages - len(cb.cases)
        self.cb_bytes_per_case = cb_path.stat().st_size / len(cb.cases)
        self.build_digests.add(oracle.digest(cb_path))
        return cb

    def check_builds(self) -> None:
        if len(self.build_digests) > 1:
            raise oracle.CheckError(f"case base digest changed between builds of one seed: {sorted(self.build_digests)}")


class Build(Workload):
    """Plain web pages mixed with hostile ones: populate_case_base + save_case_base,
    then every page replayed on its own, with cold queries spread among them."""

    name = "build"
    setups = 7  # a set-up only writes the inputs, well under a second
    n_pages = 100
    cold_queries = 10  # per build; each loads the saved case base

    def __init__(self, *args):
        super().__init__(*args)
        self.mismatches: list[str] = []
        self.accounting: tuple[list[str], list[str]] | None = None
        self.iteration = 0

    def setup(self, wdir: Path) -> None:
        vocab = inputs.vocabulary(self.seed)
        corpus = inputs.build_corpus(self.seed, vocab, self.n_pages)
        self.corpus_dir = wdir / "corpus"
        corpus.write(self.corpus_dir)
        self.pages = corpus.files
        self.replay = sorted(self.pages)
        self.lex = self.lexicon(wdir, vocab)
        self.cold_texts = inputs.adhoc_queries(self.seed, vocab, self.cold_queries)
        self.wdir = wdir

    def iterate(self, tracer) -> None:
        A = self.A
        self.iteration += 1
        cb_path = self.wdir / "cb.jsonl"
        with request_span(tracer, "bench.build", f"build-{self.iteration}"):
            cb = self.timed_build(self.corpus_dir, self.lex, cb_path, len(self.pages))
        self.attempted += len(self.pages)
        self.units += len(self.pages)
        self.accounting = ([c.doc_id for c in cb.cases], list(self.skiplog.skipped))
        self.last_cb, self.last_cb_path = cb, cb_path

        config, stats = cb.config, cb.corpus_stats
        built = {c.doc_id: c for c in cb.cases}
        # cold queries are spread through the replay so both sample the same stretch of time
        cold_every = max(1, len(self.replay) // len(self.cold_texts))
        for n, name in enumerate(self.replay):
            raw = self.pages[name]
            self.host.maybe_sample()
            with request_span(tracer, "bench.page", name):
                t0 = now()
                try:
                    doc = A.segmenter.parse_document(raw, name)
                    case = A.casebase.build_case(doc, self.lex, config, stats)
                except A.ParseError:
                    case = None
                t1 = now()
            self.latencies.append((t0, t1))
            self.attempted += 1
            self.units += 1
            expected = built.get(name)
            if (case is None) != (expected is None) or (
                case is not None and (case.prob_desc, case.av) != (expected.prob_desc, expected.av)
            ):
                self.mismatches.append(name)
            k, due = divmod(n + 1, cold_every)
            if due == 0 and k <= len(self.cold_texts):
                with request_span(tracer, "bench.cold_query", f"cold-{k}"):
                    self.cold_s.append(cold_query(A, cb_path, self.cold_texts[k - 1]))

    def trace_notes(self, tracer) -> list[str]:
        """The largest layers of the replayed pages, per page kind."""
        notes = []
        kinds = sorted({name.split("-", 1)[1].removesuffix(".html") for name in self.pages})
        for kind in kinds:
            pages = sum(1 for span in tracer.spans if span and span[2] == "bench.page" and span[3].endswith(f"-{kind}.html"))
            if not pages:
                continue
            self_ns = tracer.self_ns(lambda rid: rid.endswith(f"-{kind}.html"))
            top = [f"{name} {ns / 1e6 / pages:.2f}" for name, ns in self_ns.most_common() if not name.startswith("bench.")][:3]
            notes.append(f"{kind} pages ({pages} replays), self ms per page: {', '.join(top)}")
        return notes

    def check(self) -> None:
        case_ids, skipped = self.accounting
        oracle.check_build_accounting(sorted(self.pages), case_ids, skipped)
        if self.mismatches:
            raise oracle.CheckError(f"per-page build_case differs from populate_case_base for {self.mismatches[:5]}")
        self.check_builds()
        oracle.check_case_base_file(self.last_cb_path, self.last_cb, self.A, self.wdir)
        print(f"case base sha256 {next(iter(self.build_digests))}", file=sys.stderr)


class QueryWarm(Workload):
    """Warm in-memory case base; tokenize -> query_av -> retrieve_top_k -> rerank per query."""

    name = "query-warm"
    # Not p99: on a shared 2-core VM, host stalls of several ms hit about 1%
    # of these ~2.5 ms queries in some runs and not in others, so the p99 of
    # runs of the same code and seed differed by 1.6x; the p95 does not see them.
    tail_pct = 95
    n_pages = 2000
    n_queries = 10000
    cold_every = 200  # one cold query (load, index, answer) per this many warm ones
    library_oracle_every = 32

    def __init__(self, *args):
        super().__init__(*args)
        self.next_query = 0
        self.checked = 0
        self.check_errors: list[str] = []

    def setup(self, wdir: Path) -> None:
        A = self.A
        vocab = inputs.vocabulary(self.seed)
        corpus = inputs.web_corpus(self.seed, vocab, self.n_pages, size=(200, 700), blocks=(1, 2), tag="warm")
        corpus.write(wdir / "corpus")
        lex = self.lexicon(wdir, vocab)
        self.cb_path = wdir / "cb.jsonl"
        self.timed_build(wdir / "corpus", lex, self.cb_path, len(corpus.files))
        self.queries = inputs.adhoc_queries(self.seed, vocab, self.n_queries)
        self.cb = A.casebase.load_case_base(self.cb_path)
        self.index = A.retrieval.build_index(self.cb)

    def prepare_checks(self) -> None:
        self.scorer = oracle.ExhaustiveScorer(self.cb, self.index)

    def iterate(self, tracer) -> None:
        A, cb, index = self.A, self.cb, self.index
        qid = self.next_query % len(self.queries)
        self.next_query += 1
        text = self.queries[qid]
        if self.next_query % self.cold_every == 0:
            with request_span(tracer, "bench.cold_query", f"cold-q{qid}"):
                self.cold_s.append(cold_query(A, self.cb_path, text))
        with request_span(tracer, "bench.query", f"q{qid}"):
            t0 = now()
            try:
                tokens, query_av, pool, ranked = answer(A, cb, index, text)
            except A.AffretError:
                pool = None
                self.failed += 1
            t1 = now()
        self.latencies.append((t0, t1))
        self.attempted += 1
        self.units += 1
        if pool is not None:
            # Checked right away, outside the timed region, so results need
            # not be kept and memory stays flat however many queries run.
            self.check_query(f"q{qid}", tokens, query_av, oracle.pool_pairs(pool), ranked.entries)

    def check_query(self, query_id, tokens, query_av, pool, entries) -> None:
        A, cb, index = self.A, self.cb, self.index
        try:
            oracle.check_pool(query_id, pool, self.scorer.top_k(tokens, K))
            if self.checked % self.library_oracle_every == 0:
                oracle.check_pool_with_library_oracle(query_id, tokens, pool, cb, index, A.baseline_score, K)
            oracle.check_rerank(query_id, pool, query_av, entries, ALPHA, cb, A.cosine_sim)
        except oracle.CheckError as exc:
            self.check_errors.append(str(exc))
        self.checked += 1

    def check(self) -> None:
        if self.check_errors:
            raise oracle.CheckError(f"{len(self.check_errors)} queries failed: {self.check_errors[0]}")
        self.check_builds()
        print(f"checked {self.checked} queries against exhaustive scoring", file=sys.stderr)


class EvalCycle(Workload):
    """Repeated `eval` cycles whose feedback persists from one cycle to the next.

    A chain starts from a freshly built case base (one build sample) and runs
    CHAIN cycles, each loading what the previous one saved. Chains restart
    because feedback grows the revised vectors geometrically; a fixed chain
    length keeps the work per cycle steady and makes cycle i of every chain
    reproduce the same rows.csv.
    """

    name = "eval-cycle"
    tail_pct = 90
    setups = 7  # a set-up only writes the inputs, well under a second
    n_pages = 400
    n_queries = 100
    CHAIN = 8

    def __init__(self, *args):
        super().__init__(*args)
        self.rows_digests: dict[int, set[str]] = {}
        self.cycle_no = 0

    def setup(self, wdir: Path) -> None:
        A = self.A
        vocab = inputs.vocabulary(self.seed)
        corpus = inputs.web_corpus(self.seed, vocab, self.n_pages, size=(200, 700), blocks=(1, 2), tag="eval")
        self.corpus_dir = wdir / "corpus"
        corpus.write(self.corpus_dir)
        self.n_files = len(corpus.files)
        self.lex = self.lexicon(wdir, vocab)
        topics = inputs.topic_queries(self.seed, vocab, self.n_queries)
        (wdir / "queries.txt").write_text(inputs.topics_file(topics), encoding="utf-8")
        (wdir / "qrels.tsv").write_text(inputs.qrels_file(topics, corpus), encoding="utf-8")
        self.queries = A.harness.load_queries(wdir / "queries.txt")
        self.qrels = A.harness.load_qrels(wdir / "qrels.tsv")
        self.cold_text = inputs.adhoc_queries(self.seed, vocab, 1)[0]
        self.config = A.BuildConfig(k_retrieve=K, alpha=ALPHA, eta=ETA)
        self.fresh = wdir / "fresh.jsonl"
        self.wdir = wdir
        self.position = 0  # a new set-up starts a new chain

    def cycle(self, cb_path: Path, out_dir: Path, tracer=None):
        A = self.A
        with request_span(tracer, "bench.cycle", f"cycle-{self.cycle_no}"):
            t0 = now()
            cb = A.casebase.load_case_base(cb_path)
            index = A.retrieval.build_index(cb)
            answer(A, cb, index, self.cold_text)
            t1 = now()
            report = A.harness.run_experiment(cb, index, self.queries, self.config, qrels=self.qrels)
            A.harness.emit_report(report, out_dir)
            A.casebase.save_case_base(cb, cb_path)
            t2 = now()
        return cb, (t0, t1), (t0, t2)

    def iterate(self, tracer) -> None:
        live = self.wdir / "live.jsonl"
        position = self.position
        if position == 0:
            with request_span(tracer, "bench.build", f"build-{self.cycle_no}"):
                self.timed_build(self.corpus_dir, self.lex, self.fresh, self.n_files)
            shutil.copyfile(self.fresh, live)
        self.position = (position + 1) % self.CHAIN
        self.cycle_no += 1
        try:
            cb, cold, total = self.cycle(live, self.wdir / "report", tracer)
        except self.A.AffretError:
            self.failed += 1
            self.attempted += 1
            return
        self.cold_s.append(cold)
        self.latencies.append(total)
        self.attempted += 1
        self.units += 1
        self.rows_digests.setdefault(position, set()).add(oracle.digest(self.wdir / "report" / "rows.csv"))

    def check(self) -> None:
        self.check_builds()
        for position, digests in sorted(self.rows_digests.items()):
            if len(digests) != 1:
                raise oracle.CheckError(f"rows.csv of cycle {position + 1} differs between chains")
        # Replay the first cycle of a chain from a fresh build, untimed.
        replay = self.wdir / "replay.jsonl"
        shutil.copyfile(self.fresh, replay)
        cb, _, _ = self.cycle(replay, self.wdir / "replay-report")
        rows = oracle.digest(self.wdir / "replay-report" / "rows.csv")
        if rows not in self.rows_digests.get(0, {rows}):
            raise oracle.CheckError("rows.csv digest does not repeat for the same case base and queries")
        reloaded = self.A.casebase.load_case_base(replay)
        if [c.av_revised for c in reloaded.cases] != [c.av_revised for c in cb.cases]:
            raise oracle.CheckError("reloaded case base lost the feedback written to av_revised")
        if all(c.av_revised == c.av for c in reloaded.cases):
            raise oracle.CheckError("eta > 0 but no saved case carries a revised vector")
        print(f"rows.csv sha256 per chain position {[sorted(d)[0][:12] for _, d in sorted(self.rows_digests.items())]}", file=sys.stderr)


WORKLOADS = {w.name: w for w in (Build, QueryWarm, EvalCycle)}


# ------------------------------------------------------------------ metrics


def tail_percentile(n: int, preferred: int) -> int:
    """The workload's tail percentile if at least 10 samples lie beyond it, else the highest that has."""
    for p in (preferred,) + tuple(q for q in TAIL_LADDER if q < preferred):
        if n * (100 - p) / 100 >= 10:
            return p
    return 50


def percentile(values: list[float], p: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def timing_stats(latencies: list[float], builds: list[float], colds: list[float], pages: int, p: int) -> tuple[float, ...]:
    """p50, tail, requests per unit time, build time per page, cold query: one unit of time throughout."""
    return (
        statistics.median(latencies),
        percentile(latencies, p),
        len(latencies) / sum(latencies),
        statistics.median(builds) / pages,
        statistics.median(colds),
    )


def end_to_end(w: Workload, setup_s: list[float]) -> tuple[dict, list[str]]:
    p = tail_percentile(len(w.latencies), w.tail_pct)
    in_ref = timing_stats(*(w.host.in_ref(t) for t in (w.latencies, w.build_s, w.cold_s)), w.build_pages, p)
    wall = timing_stats(*([end - start for start, end in t] for t in (w.latencies, w.build_s, w.cold_s)), w.build_pages, p)
    metrics = {
        "setup_s": (statistics.median(setup_s), "s"),
        **dict(zip(("request_p50", "request_tail", "requests_per_ref", "build_per_doc", "cold_query"), zip(in_ref, ("ref", "ref", "1/ref", "ref/page", "ref")))),
        "cb_bytes_per_case": (w.cb_bytes_per_case, "bytes"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "success_ratio": ((w.attempted - w.failed) / w.attempted, "ratio"),
    }
    ref = w.host.durations
    notes = [
        f"requests: {len(w.latencies)} ({'page' if isinstance(w, Build) else 'query' if isinstance(w, QueryWarm) else 'eval cycle'}); request_tail is p{p}",
        f"builds: {len(w.build_s)} of {w.build_pages} pages; cold queries: {len(w.cold_s)}; setups: {len(setup_s)}",
        f"attempted {w.attempted}, failed {w.failed}",
        f"1 ref = the reference loop's time: {len(ref)} samples, median {1000 * statistics.median(ref):.3f} ms, "
        f"fastest {1000 * min(ref):.3f} ms, slowest {1000 * max(ref):.3f} ms",
        "wall time: request_ms_p50 {:.3f}, request_ms_tail {:.3f}, requests_per_s {:.3f}, build_ms_per_doc {:.3f}, cold_query_ms {:.3f}".format(
            *(v * f for v, f in zip(wall, (1000, 1000, 1, 1000, 1000)))
        ),
    ]
    return metrics, notes


def per_layer(w: Workload, tracer: Tracer, units: int, overhead: float) -> dict:
    self_ns = tracer.self_ns()
    c = tracer.counts

    def ms(*names):
        return (sum(self_ns[n] for n in names) / 1e6 / units if units else 0.0, "ms")

    def ratio(num, den, unit="ratio"):
        return (c[num] / c[den] if c[den] else 0.0, unit)

    return {
        "segmenter.parse_ms": ms("segmenter.parse"),
        "segmenter.segment_ms": ms("segmenter.segment"),
        "segmenter.link_filter_ms": ms("segmenter.link_filter"),
        "segmenter.dedupe_ms": ms("segmenter.dedupe"),
        "segmenter.tokenize_ms": ms("segmenter.tokenize"),
        "segmenter.blocks": ratio("segmenter.blocks", "segmenter.pages", "count"),
        "segmenter.block_keep_ratio": ratio("segmenter.kept", "segmenter.extracted"),
        "segmenter.dedupe_keep_ratio": ratio("segmenter.dedupe_chars_out", "segmenter.dedupe_chars_in"),
        "segmenter.tokens": ratio("segmenter.tokens", "segmenter.pages", "count"),
        "lexicon.match_ms": ms("lexicon.match"),
        "lexicon.matched_token_ratio": (1.0 - c["lexicon.unmatched"] / c["lexicon.tokens"] if c["lexicon.tokens"] else 0.0, "ratio"),
        "casebase.select_terms_ms": ms("casebase.select_terms"),
        "casebase.populate_self_ms": ms("casebase.populate", "casebase.build_case"),
        "casebase.save_ms": ms("casebase.save"),
        "casebase.load_ms": ms("casebase.load"),
        "casebase.revise_ms": ms("casebase.revise"),
        "casebase.cases": (float(w.cases), "count"),
        "casebase.docs_skipped": (float(w.docs_skipped), "count"),
        "retrieval.index_ms": ms("retrieval.index"),
        "retrieval.retrieve_ms": ms("retrieval.retrieve"),
        "retrieval.rerank_ms": ms("retrieval.rerank"),
        "affordance.query_av_ms": ms("affordance.query_av"),
        "retrieval.postings_scanned": ratio("retrieval.postings_scanned", "retrieval.queries", "count"),
        "retrieval.scored_per_result": ratio("retrieval.scored", "retrieval.results"),
        "retrieval.pool_size": ratio("retrieval.results", "retrieval.queries", "count"),
        "harness.run_ms": ms("harness.run"),
        "harness.kendall_ms": ms("harness.kendall"),
        "harness.report_ms": ms("harness.report"),
        "trace.requests": (float(units), "count"),
        "trace.overhead_ratio": (overhead, "ratio"),
    }


# ------------------------------------------------------------------ main


def measure(w: Workload, seconds: float, tracer) -> tuple[float, int]:
    """Run whole iterations for about ``seconds``; returns (wall s, units).

    Another iteration starts only if at least half of it, judged by the last
    one, fits before the deadline, so a long build iteration is not started
    just before time is up.
    """
    units0 = w.units
    start = now()
    deadline = start + seconds
    w.host.sample()
    while True:
        t0 = now()
        w.iterate(tracer)
        t1 = now()
        w.host.maybe_sample()
        if t1 + (t1 - t0) / 2 >= deadline:
            break
    w.host.sample()
    return now() - start, w.units - units0


def emit(correct: bool, w: Workload, metrics: dict, notes: list[str]) -> None:
    for note in notes:
        print(f"# {note}")
    for name, (value, unit) in metrics.items():
        print(f"{name:32s} {value:14.6f} {unit}")
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": w.attempted,
                "failed": w.failed,
                "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
            }
        )
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    A = load_affret()
    skiplog = SkipLog()
    affret_log = logging.getLogger("affret")
    affret_log.setLevel(logging.INFO)
    affret_log.addHandler(skiplog)
    affret_log.propagate = False

    wroot = WORK_ROOT / f"{args.workload}-s{args.seed}-{os.getpid()}"
    w = WORKLOADS[args.workload](A, args.seed, skiplog)
    tracer = Tracer() if args.trace else None
    setup_s: list[float] = []
    plain_s = traced_s = 0.0
    plain_units = traced_units = 0
    try:
        share = args.seconds / ROUNDS
        for i in range(w.setups):
            shutil.rmtree(wroot, ignore_errors=True)
            wdir = wroot / f"setup{i}"
            wdir.mkdir(parents=True)
            gc.unfreeze()
            gc.collect()
            t0 = now()
            w.setup(wdir)
            setup_s.append(now() - t0)
            w.prepare_checks()
            # The benchmark's own long-lived objects (inputs, samples, spans)
            # leave the collector's view, as if affret ran in a process of its
            # own; the garbage affret makes is still collected as usual.
            gc.collect()
            gc.freeze()
            if i < w.setups - ROUNDS:
                continue
            if tracer is None:
                measure(w, share, None)
                continue
            # traced run: half of every round untraced, half traced
            elapsed, units = measure(w, share / 2, None)
            plain_s, plain_units = plain_s + elapsed, plain_units + units
            with tracer.installed():
                elapsed, units = measure(w, share / 2, tracer)
            traced_s, traced_units = traced_s + elapsed, traced_units + units

        if tracer is None:
            metrics, notes = end_to_end(w, setup_s)
        else:
            overhead = (traced_s / traced_units) / (plain_s / plain_units) - 1.0
            metrics = per_layer(w, tracer, traced_units, overhead)
            spans_path = OUT_ROOT / f"spans-{args.workload}-s{args.seed}.jsonl"
            tracer.write(spans_path)
            notes = [f"{len(tracer.spans)} spans written to {spans_path.relative_to(ROOT)}",
                     f"per-layer times are self ms per {traced_units} traced work units",
                     *w.trace_notes(tracer)]
        try:
            w.check()
        except oracle.CheckError as exc:
            print(f"CHECK FAILED: {exc}", file=sys.stderr)
            emit(False, w, metrics, notes)
            return 1
        emit(True, w, metrics, notes)
        return 0
    finally:
        shutil.rmtree(wroot, ignore_errors=True)
        if WORK_ROOT.is_dir() and not any(WORK_ROOT.iterdir()):
            WORK_ROOT.rmdir()


if __name__ == "__main__":
    sys.exit(main())
