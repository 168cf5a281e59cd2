"""Command-line front end: build a case base, query it, or run an eval batch.

Exit codes: 0 success, 1 bad input (unreadable files, malformed formats,
out-of-range parameters, usage errors), 2 unexpected internal failure.
"""

from __future__ import annotations

import argparse
import logging
import sys

from .casebase import BuildConfig, load_case_base, populate_case_base, save_case_base
from .errors import AffretError, CompatibilityError
from .harness import emit_report, load_qrels, load_queries, run_experiment
from .lexicon import load_lexicon
from .retrieval import InvertedIndex, Query, build_index
from .segmenter import tokenize
from .stopwords import DEFAULT_STOPWORDS, load_stopwords

log = logging.getLogger("affret")


def _dial(parser: argparse.ArgumentParser, flag: str, name: str, help: str) -> None:
    """A flag for the BuildConfig field ``name``, whose type and default it takes."""
    default = getattr(BuildConfig, name)
    parser.add_argument(flag, type=type(default), default=default, help=f"{help} (default %(default)s)")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="affret",
        description="Affordance-guided retrieval over block-segmented web pages.",
    )
    stop_words = argparse.ArgumentParser(add_help=False)
    stop_words.add_argument("--stopwords", help="stop-word file, one word per line; without one, a built-in English list")
    retrieval = argparse.ArgumentParser(add_help=False)
    retrieval.add_argument("--cb", required=True, help="case base file from `build`")
    _dial(retrieval, "--k", "k_retrieve", "candidate pool size")
    _dial(retrieval, "--alpha", "alpha", "blend weight: 0 pure affordance, 1 pure baseline")
    sub = parser.add_subparsers(dest="command", required=True)

    build = sub.add_parser("build", parents=[stop_words], help="segment a corpus and persist its case base")
    build.set_defaults(run=_cmd_build)
    build.add_argument("--corpus", required=True, help="directory of .html/.htm files")
    build.add_argument("--lexicon", required=True, help="topic lexicon file (TSV)")
    build.add_argument("--out", required=True, help="case base output path")
    _dial(build, "--k-terms", "k_terms", "top terms kept per block")
    _dial(build, "--tau", "tau", "link-to-text noise threshold")

    query = sub.add_parser("query", parents=[stop_words, retrieval], help="run a single ad-hoc text query")
    query.set_defaults(run=_cmd_query)
    query.add_argument("--text", required=True, help="query text")

    ev = sub.add_parser("eval", parents=[stop_words, retrieval], help="run a query batch and write CSV reports")
    ev.set_defaults(run=_cmd_eval)
    ev.add_argument("--queries", required=True, help="topic file of <top> blocks")
    ev.add_argument("--out", required=True, help="report output directory")
    ev.add_argument("--use-desc", action="store_true", help="append <desc> tokens to the title query")
    ev.add_argument("--qrels", help="relevance judgments for precision@k columns")
    _dial(ev, "--eta", "eta", "feedback rate; > 0 revises top-k vectors per query")

    return parser


def _stop_words(path: str | None) -> frozenset[str]:
    return load_stopwords(path) if path else DEFAULT_STOPWORDS


def _query_stop_words(args: argparse.Namespace, index: InvertedIndex) -> frozenset[str]:
    """The active stop list, checked against the case base: it must drop no term the build kept."""
    stop_words = _stop_words(args.stopwords)
    # every indexed term passed the build's stop list, so an indexed stop word proves the lists differ
    if indexed := sorted(index.term_ordinals.keys() & stop_words):
        raise CompatibilityError(
            f"{args.cb}: case base was built with a different stop-word list; it indexes the active"
            f" stop words {indexed[:5]}, so pass --stopwords with the list it was built with"
        )
    return stop_words


def _cmd_build(args: argparse.Namespace) -> int:
    config = BuildConfig(k_terms=args.k_terms, tau=args.tau)
    lexicon = load_lexicon(args.lexicon)
    cb = populate_case_base(args.corpus, lexicon, config, stop_words=_stop_words(args.stopwords))
    save_case_base(cb, args.out)
    log.info("wrote %d cases to %s", len(cb.cases), args.out)
    return 0


def _cmd_query(args: argparse.Namespace) -> int:
    cb = load_case_base(args.cb)
    config = BuildConfig(k_retrieve=args.k, alpha=args.alpha)
    index = build_index(cb)
    tokens = tokenize(args.text, _query_stop_words(args, index))
    if not tokens:
        print("query is empty after stop-wording", file=sys.stderr)
        return 1
    report = run_experiment(cb, index, [Query(query_id="query", title=tokens)], config)
    if not report.rows:
        print("no matching cases")
        return 0
    print(f"{'rank':>4}  {'doc_id':<40}  {'final':>9}  {'cosine':>8}  {'base_rank':>9}")
    for _, entry in report.rows:
        print(
            f"{entry.final_rank:>4}  {entry.doc_id:<40}  {entry.final_score:>9.6f}"
            f"  {entry.affordance_cosine:>8.6f}  {entry.baseline_rank:>9}"
        )
    return 0


def _cmd_eval(args: argparse.Namespace) -> int:
    cb = load_case_base(args.cb)
    config = BuildConfig(k_retrieve=args.k, alpha=args.alpha, eta=args.eta)
    index = build_index(cb)
    queries = load_queries(args.queries, _query_stop_words(args, index))
    qrels = load_qrels(args.qrels) if args.qrels else None
    report = run_experiment(cb, index, queries, config, use_desc=args.use_desc, qrels=qrels)
    rows_path, summary_path = emit_report(report, args.out)
    log.info("wrote %s and %s", rows_path, summary_path)
    return 0


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s", stream=sys.stderr)
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors; usage errors are input errors here
        code = exc.code if isinstance(exc.code, int) else 0
        return 1 if code != 0 else 0
    try:
        return args.run(args)
    except (AffretError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # pragma: no cover - defensive
        print(f"internal error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
