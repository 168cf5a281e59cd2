"""End-to-end acceptance checks.

Eight independently verifiable properties, each printed as one PASS/FAIL line
when run. They combine randomized oracle comparisons (retrieval vs exhaustive
scoring, affordance counts vs naive counting), numerical contracts, a
constructed rank-shift experiment whose expected ranks come from an
independent brute-force oracle, fuzzed segmentation robustness, bitwise build
determinism on the bundled sample, and persistence round-trips.
"""

from __future__ import annotations

import hashlib
import math
import random
import time
from collections import Counter
from contextlib import contextmanager
from pathlib import Path

import pytest

from affret import (
    BuildConfig,
    Candidate,
    Case,
    CaseBase,
    CorpusStats,
    Lexicon,
    Topic,
    baseline_score,
    build_index,
    compute_block_affordance,
    cosine_sim,
    dedupe_sentences,
    emit_report,
    extract_block_text,
    link_to_text_ratio,
    load_case_base,
    load_lexicon,
    load_queries,
    normalize_av,
    parse_document,
    populate_case_base,
    rerank,
    retrieve_top_k,
    round12,
    run_experiment,
    save_case_base,
    save_lexicon,
    segment_blocks,
    selection_idf,
)
from affret.cli import main as cli_main

from conftest import fuzz_html, write_corpus

SAMPLE = Path(__file__).resolve().parent.parent / "sample"


@contextmanager
def criterion(capsys, number: int, label: str):
    try:
        yield
    except BaseException:
        with capsys.disabled():
            print(f"[criterion {number}] FAIL {label}")
        raise
    with capsys.disabled():
        print(f"[criterion {number}] PASS {label}")


def tiny_lexicon() -> Lexicon:
    return Lexicon(
        topics=[
            Topic(name="Beaches", terms=frozenset({"beach", "sand"})),
            Topic(name="Food", terms=frozenset({"curry", "spice"})),
            Topic(name="Miscellaneous", terms=frozenset(), miscellaneous=True),
        ]
    )


def case_base_from_token_lists(doc_tokens: dict[str, list[str]], lexicon: Lexicon) -> CaseBase:
    """A consistent case base built straight from token lists (one block each)."""
    df: Counter = Counter()
    for tokens in doc_tokens.values():
        df.update(set(tokens))
    stats = CorpusStats(df=dict(df), n_cases=len(doc_tokens))
    cases = []
    for doc_id in sorted(doc_tokens):
        counts = Counter(doc_tokens[doc_id])
        prob_desc = {t: round12(c * selection_idf(t, stats)) for t, c in counts.items()}
        av = compute_block_affordance(doc_tokens[doc_id], lexicon)
        cases.append(Case(doc_id=doc_id, prob_desc=prob_desc, av=av, av_revised=list(av)))
    return CaseBase(
        cases=cases,
        corpus_stats=stats,
        lexicon=lexicon,
        config=BuildConfig(),
    )


def test_criterion_1_retrieval_equals_exhaustive_scoring(capsys):
    with criterion(capsys, 1, "top-k retrieval matches exhaustive brute-force scoring (100 random bases)"):
        lexicon = tiny_lexicon()
        vocab = [f"t{i:02d}" for i in range(20)]
        started = time.monotonic()
        for seed in range(100):
            rng = random.Random(seed)
            doc_tokens = {
                f"d{i:03d}": rng.choices(vocab, k=rng.randint(1, 15))
                for i in range(rng.randint(1, 50))
            }
            cb = case_base_from_token_lists(doc_tokens, lexicon)
            index = build_index(cb)
            query = rng.choices(vocab + ["zz1", "zz2"], k=rng.randint(1, 6))
            k = rng.randint(1, 60)
            brute = [
                Candidate(case=c, baseline_score=s)
                for c in cb.cases
                if (s := baseline_score(query, c, index)) > 0.0
            ]
            brute.sort(key=lambda c: (-c.baseline_score, c.case.doc_id))
            assert retrieve_top_k(query, index, cb, k) == brute[:k], f"seed {seed}"
        assert time.monotonic() - started < 10.0


def test_criterion_2_affordance_counts_match_naive_oracle(capsys):
    with criterion(capsys, 2, "affordance vectors equal naive term counting (1000 random pairs)"):
        rng = random.Random(12)
        vocab = [f"w{i}" for i in range(15)]
        for _ in range(1000):
            n_topics = rng.randint(1, 5)
            topics = [
                Topic(name=f"T{i}", terms=frozenset(rng.sample(vocab, rng.randint(1, 6))))
                for i in range(n_topics)
            ]
            has_misc = rng.random() < 0.5
            if has_misc:
                topics.append(Topic(name="Misc", terms=frozenset(), miscellaneous=True))
            lexicon = Lexicon(topics=topics)
            tokens = rng.choices(vocab + ["qq1", "qq2", "qq3"], k=rng.randint(0, 25))

            named_union = set().union(*(t.terms for t in topics if not t.miscellaneous))
            expected = [
                float(sum(1 for tok in tokens if tok in topic.terms))
                if not topic.miscellaneous
                else float(sum(1 for tok in tokens if tok not in named_union))
                for topic in topics
            ]
            assert compute_block_affordance(tokens, lexicon) == expected


def test_criterion_3_normalization_and_cosine_contracts(capsys):
    with criterion(capsys, 3, "norm, self-cosine, and scale-invariance within 1e-9 (1000 vectors)"):
        rng = random.Random(3)
        for _ in range(1000):
            m = rng.randint(1, 12)
            av = [rng.uniform(0.0, 50.0) for _ in range(m)]
            if not any(av):
                av[rng.randrange(m)] = 1.0
            unit = normalize_av(av)
            assert abs(math.hypot(*unit) - 1.0) <= 1e-9
            assert abs(cosine_sim(av, av) - 1.0) <= 1e-9
            other = [rng.uniform(0.0, 50.0) for _ in range(m)]
            scale = rng.uniform(1e-3, 1e3)
            scaled = [v * scale for v in av]
            assert abs(cosine_sim(scaled, other) - cosine_sim(av, other)) <= 1e-9


def test_criterion_4_weak_lexical_match_rises_on_topic_alignment(capsys, tmp_path):
    with criterion(capsys, 4, "lexically weak but topically aligned doc: baseline rank >= 10 to final rank <= 2"):
        started = time.monotonic()
        lexicon = tiny_lexicon()
        pages = {}
        for i in range(14):
            filler = f"special{i:02d}"
            pages[f"decoy{i:02d}.html"] = (
                "<p>" + "beach " * 5 + "curry spice " * 8 + filler + "</p>"
            )
        pages["target.html"] = "<p>beach " + "sand " * 8 + "</p>"
        corpus = write_corpus(tmp_path / "corpus", pages)
        config = BuildConfig(k_terms=20, k_retrieve=15, alpha=0.0)
        cb = populate_case_base(corpus, lexicon, config)
        index = build_index(cb)

        # independent oracle: recompute both rankings from the raw token
        # lists with plain arithmetic, no retrieval code involved
        doc_tokens = {
            doc_id: [t for t in markup.replace("<p>", " ").replace("</p>", " ").split()]
            for doc_id, markup in pages.items()
        }
        n = len(doc_tokens)
        df = Counter()
        for tokens in doc_tokens.values():
            df.update(set(tokens))
        query = ["beach"]
        expected_baseline = []
        for doc_id, tokens in doc_tokens.items():
            counts = Counter(tokens)
            matched = [t for t in query if t in counts]
            idf = 1.0 + math.log(n / (df["beach"] + 1.0))
            score = (len(matched) / len(set(query))) * counts["beach"] * idf * idf / math.sqrt(len(counts))
            expected_baseline.append((doc_id, score))
        expected_baseline.sort(key=lambda pair: (-pair[1], pair[0]))
        baseline_rank = {doc_id: i + 1 for i, (doc_id, _) in enumerate(expected_baseline)}

        topic_terms = [{"beach", "sand"}, {"curry", "spice"}]
        expected_final = []
        for doc_id, tokens in doc_tokens.items():
            av = [sum(1 for t in tokens if t in terms) for terms in topic_terms]
            av.append(sum(1 for t in tokens if t not in topic_terms[0] | topic_terms[1]))
            q_av = [1.0, 0.0, 0.0]
            norm = math.hypot(*av)
            cos = sum(a * b for a, b in zip(av, q_av)) / norm if norm else 0.0
            expected_final.append((doc_id, cos))
        expected_final.sort(key=lambda pair: (-pair[1], pair[0]))
        final_rank = {doc_id: i + 1 for i, (doc_id, _) in enumerate(expected_final)}

        assert baseline_rank["target.html"] >= 10
        assert final_rank["target.html"] <= 2

        queries = load_queries(write_topic_file(tmp_path, "T1", "beach"))
        report = run_experiment(cb, index, queries, config)
        assert len(report.rows) == 15
        for _, entry in report.rows:
            assert entry.baseline_rank == baseline_rank[entry.doc_id], entry.doc_id
            assert entry.final_rank == final_rank[entry.doc_id], entry.doc_id
        assert time.monotonic() - started < 5.0


def write_topic_file(tmp_path, qid: str, title: str) -> Path:
    path = tmp_path / f"{qid}.txt"
    path.write_text(f"<top><num>{qid}</num><title>{title}</title></top>\n", encoding="utf-8")
    return path


def test_criterion_5_blend_degeneracies(capsys):
    with criterion(capsys, 5, "alpha=1 reproduces baseline order, alpha=0 pure cosine order (20 pools)"):
        for seed in range(20):
            rng = random.Random(1000 + seed)
            m = rng.randint(2, 6)
            pool = []
            for i in range(rng.randint(1, 12)):
                av = [float(rng.randint(0, 9)) for _ in range(m)]
                case = Case(doc_id=f"c{i:02d}", prob_desc={"t": 1.0}, av=av, av_revised=list(av))
                pool.append(Candidate(case=case, baseline_score=rng.uniform(0.0, 10.0)))
            pool.sort(key=lambda c: (-c.baseline_score, c.case.doc_id))
            query_av = [float(rng.randint(0, 9)) for _ in range(m)]

            as_baseline = rerank(pool, query_av, None, alpha=1.0)
            assert [e.doc_id for e in as_baseline.entries] == [c.case.doc_id for c in pool]
            assert all(e.final_rank == e.baseline_rank for e in as_baseline.entries)

            pure_cosine = rerank(pool, query_av, None, alpha=0.0)
            expected = sorted(
                ((cosine_sim(query_av, c.case.av), c.case.doc_id) for c in pool),
                key=lambda pair: (-pair[0], pair[1]),
            )
            assert [e.doc_id for e in pure_cosine.entries] == [d for _, d in expected]


def test_criterion_6_segmentation_robust_on_malformed_pages(capsys):
    with criterion(capsys, 6, "ratio bounds, no markup leakage, dedupe idempotence (50 fuzzed pages)"):
        import re

        leak = re.compile(r"<[a-zA-Z/!]")
        for seed in range(50):
            markup = fuzz_html(seed)
            doc = parse_document(markup.encode("utf-8"), f"fuzz{seed}")
            blocks = segment_blocks(doc)
            assert blocks == segment_blocks(doc)
            for block in blocks:
                assert 0.0 <= link_to_text_ratio(block) <= 1.0
                for threshold in (0.0, 0.5, 1.0):
                    text = extract_block_text(block, threshold)
                    assert not leak.search(text)
                    deduped = dedupe_sentences(text)
                    assert dedupe_sentences(deduped) == deduped


def test_criterion_7_bitwise_determinism_on_bundled_sample(capsys, tmp_path):
    with criterion(capsys, 7, "build + eval on the bundled sample are byte-identical across runs"):
        lexicon = load_lexicon(SAMPLE / "lexicon.tsv")
        config = BuildConfig(k_retrieve=10, alpha=0.25)
        queries = load_queries(SAMPLE / "queries.txt")

        artifacts = []
        for run in range(2):
            cb = populate_case_base(SAMPLE / "corpus", lexicon, config)
            cb_path = tmp_path / f"cb{run}.jsonl"
            save_case_base(cb, cb_path)
            report = run_experiment(cb, build_index(cb), queries, config)
            out = tmp_path / f"report{run}"
            emit_report(report, out)
            artifacts.append(
                (
                    cb_path.read_bytes(),
                    (out / "rows.csv").read_bytes(),
                    (out / "summary.csv").read_bytes(),
                    (out / "run_config.json").read_bytes(),
                )
            )
        assert artifacts[0] == artifacts[1]


# The CLI's bytes for the bundled sample; a change to them changes the output contract.
SAMPLE_DIGESTS = {
    "cb.jsonl": "c076e09e581b94152b7080719dcec0cc5c7569b3592b09399d067eacfa305d1b",
    "rows.csv": "c684e0c4f459dc1a91e4c165c8460f36feba845393be9ec18ddf26d2042244f6",
    "summary.csv": "935f5c275d84c5def9c543d385aaf05d82a1dc71a058027e096e5b27d1dcdc82",
}


def test_criterion_7_bundled_sample_bytes_are_pinned(capsys, tmp_path):
    with criterion(capsys, 7, "affret build + eval on the bundled sample write the pinned bytes"):
        cb = tmp_path / "cb.jsonl"
        report = tmp_path / "report"
        build = ["build", "--corpus", str(SAMPLE / "corpus"), "--lexicon", str(SAMPLE / "lexicon.tsv"), "--out", str(cb)]
        assert cli_main(build) == 0
        evaluate = [
            "eval", "--cb", str(cb), "--queries", str(SAMPLE / "queries.txt"), "--qrels", str(SAMPLE / "qrels.tsv"),
            "--eta", "0.5", "--alpha", "0.25", "--out", str(report),
        ]
        assert cli_main(evaluate) == 0
        written = {name: report / name for name in ("rows.csv", "summary.csv")}
        written["cb.jsonl"] = cb
        digests = {name: hashlib.sha256(path.read_bytes()).hexdigest() for name, path in written.items()}
        assert digests == SAMPLE_DIGESTS


def test_criterion_8_round_trips(capsys, tmp_path):
    with criterion(capsys, 8, "case base save/load and lexicon serialize/load round-trip exactly"):
        lexicon = load_lexicon(SAMPLE / "lexicon.tsv")
        cb = populate_case_base(SAMPLE / "corpus", lexicon, BuildConfig())
        path = tmp_path / "cb.jsonl"
        save_case_base(cb, path)
        loaded = load_case_base(path, lexicon=lexicon)
        assert loaded.cases == cb.cases
        assert loaded.corpus_stats == cb.corpus_stats
        assert loaded.config == cb.config
        assert loaded.lexicon == cb.lexicon
        assert loaded.lexicon_fingerprint == cb.lexicon_fingerprint

        # a second generation of the file from the loaded object is identical
        path2 = tmp_path / "cb2.jsonl"
        save_case_base(loaded, path2)
        assert path.read_bytes() == path2.read_bytes()

        lex_path = tmp_path / "lexicon.tsv"
        save_lexicon(lexicon, lex_path)
        assert load_lexicon(lex_path) == lexicon
