#!/usr/bin/env python3
"""Build the sample case base and run the sample query set end to end.

Writes the case base and CSV reports under --out (default: ./sample_run) and
prints the per-query summary. A quick way to see the whole pipeline work and
to eyeball how much affordance re-ranking moves the lexical baseline at a
given alpha.
"""

from __future__ import annotations

import argparse
from pathlib import Path

from affret import (
    BuildConfig,
    build_index,
    load_lexicon,
    load_qrels,
    load_queries,
    populate_case_base,
    run_experiment,
    emit_report,
    save_case_base,
)


def main() -> int:
    sample = Path(__file__).resolve().parent.parent / "sample"
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--sample", default=str(sample), help="sample data directory")
    parser.add_argument("--out", default="sample_run", help="output directory")
    parser.add_argument("--alpha", type=float, default=0.0)
    parser.add_argument("--k", type=int, default=10)
    parser.add_argument("--eta", type=float, default=0.0)
    args = parser.parse_args()

    sample = Path(args.sample)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    config = BuildConfig(k_retrieve=args.k, alpha=args.alpha, eta=args.eta)
    lexicon = load_lexicon(sample / "lexicon.tsv")
    cb = populate_case_base(sample / "corpus", lexicon, config)
    save_case_base(cb, out / "cb.jsonl")
    print(f"built {len(cb.cases)} cases over m={lexicon.m} topics")

    queries = load_queries(sample / "queries.txt")
    qrels = load_qrels(sample / "qrels.tsv")
    report = run_experiment(cb, build_index(cb), queries, config, qrels=qrels)
    rows_path, summary_path = emit_report(report, out)

    print(f"reports: {rows_path}, {summary_path}")
    print(f"{'query':<6} {'tau':>7} {'pool':>5} {'p@k base':>9} {'p@k final':>10}")
    for s in report.summaries:
        tau, base, final = (
            "n/a" if x is None else f"{x:.3f}" for x in (s.kendall_tau, s.precision_baseline, s.precision_final)
        )
        print(f"{s.query_id:<6} {tau:>7} {s.pool_size:>5} {base:>9} {final:>10}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
