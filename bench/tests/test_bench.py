"""Tests of the benchmark itself: input determinism and the output checks.

Run from the repository root with ``python3 -m pytest bench/tests -q``.
"""

from __future__ import annotations

import json
import logging
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import affret  # noqa: E402
import hostspeed  # noqa: E402
import inputs  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402


def _snapshot(seed: int) -> dict:
    vocab = inputs.vocabulary(seed)
    topics = inputs.topic_queries(seed, vocab, 12)
    web = inputs.web_corpus(seed, vocab, 12)
    return {
        "lexicon": vocab.lexicon_tsv(),
        "web": web.files,
        "build": inputs.build_corpus(seed, vocab, 40).files,
        "adhoc": inputs.adhoc_queries(seed, vocab, 50),
        "topics": inputs.topics_file(topics),
        "qrels": inputs.qrels_file(topics, web),
    }


def test_generator_is_byte_identical_for_a_seed():
    assert _snapshot(3) == _snapshot(3)


def test_generator_changes_with_the_seed():
    a, b = _snapshot(3), _snapshot(4)
    for key in a.keys() - {"qrels"}:  # relevance follows page order, not words
        assert a[key] != b[key], key


def test_build_mix_covers_every_kind():
    vocab = inputs.vocabulary(5)
    corpus = inputs.build_corpus(5, vocab, 200)
    kinds = [name.split("-", 1)[1].removesuffix(".html") for name in corpus.files]
    assert set(kinds) == {kind for kind, _ in inputs.BUILD_MIX}
    assert kinds.count("plain") == 120
    long_blocks = [
        data for name, data in corpus.files.items() if name.endswith("-unpunctuated.html")
    ]
    assert len(long_blocks) == 20
    lo, hi = inputs.UNPUNCTUATED_TOKENS
    lengths = []
    for data in long_blocks:
        blocks = re.findall(r"<p>([^<]*)</p>", data.decode("utf-8"))
        longest = max(blocks, key=len)
        assert not re.search(r"[.!?]", longest)
        lengths.append(len(longest.split()))
    assert lo <= min(lengths) and max(lengths) <= hi
    assert any(data == b"" for data in corpus.files.values())
    undecodable = 0
    for data in corpus.files.values():
        try:
            data.decode("utf-8")
        except UnicodeDecodeError:
            undecodable += 1
    assert undecodable > 0


def test_unpunctuated_lengths_do_not_depend_on_the_seed():
    def lengths(seed):
        vocab = inputs.vocabulary(seed)
        corpus = inputs.build_corpus(seed, vocab, 100)
        return sorted(
            len(max(re.findall(r"<p>([^<]*)</p>", data.decode("utf-8")), key=len).split())
            for name, data in corpus.files.items()
            if name.endswith("-unpunctuated.html")
        )

    assert lengths(1) == lengths(2)


def test_queries_span_one_to_eight_tokens():
    vocab = inputs.vocabulary(2)
    lengths = {len(affret.tokenize(q)) for q in inputs.adhoc_queries(2, vocab, 80)}
    assert lengths == set(range(1, 9))


@pytest.fixture(scope="module")
def small_base(tmp_path_factory):
    wdir = tmp_path_factory.mktemp("base")
    vocab = inputs.vocabulary(9)
    corpus = inputs.web_corpus(9, vocab, 120, size=(200, 700), blocks=(1, 2), tag="warm")
    corpus.write(wdir / "corpus")
    (wdir / "lexicon.tsv").write_text(vocab.lexicon_tsv(), encoding="utf-8")
    lexicon = affret.load_lexicon(wdir / "lexicon.tsv")
    cb = affret.populate_case_base(wdir / "corpus", lexicon, affret.BuildConfig())
    index = affret.build_index(cb)
    queries = [affret.tokenize(q) for q in inputs.adhoc_queries(9, vocab, 40)]
    return wdir, cb, index, queries


def test_checks_accept_the_library_outputs(small_base):
    _, cb, index, queries = small_base
    scorer = oracle.ExhaustiveScorer(cb, index)
    for n, tokens in enumerate(queries):
        pool = affret.retrieve_top_k(tokens, index, cb, run.K)
        pairs = oracle.pool_pairs(pool)
        oracle.check_pool(f"q{n}", pairs, scorer.top_k(tokens, run.K))
        oracle.check_pool_with_library_oracle(f"q{n}", tokens, pairs, cb, index, affret.baseline_score, run.K)
        query_av = affret.compute_query_affordance(tokens, cb.lexicon)
        ranked = affret.rerank(pool, query_av, cb, alpha=run.ALPHA)
        oracle.check_rerank(f"q{n}", pairs, query_av, ranked.entries, run.ALPHA, cb, affret.cosine_sim)


def _query_with_pool(cb, index, queries):
    for tokens in queries:
        pool = affret.retrieve_top_k(tokens, index, cb, run.K)
        if len(pool) >= 3 and len({c.baseline_score for c in pool}) == len(pool):
            return tokens, pool
    raise AssertionError("no query with a full pool of distinct scores")


def test_check_rejects_a_perturbed_pool(small_base):
    _, cb, index, queries = small_base
    tokens, pool = _query_with_pool(cb, index, queries)
    expected = oracle.ExhaustiveScorer(cb, index).top_k(tokens, run.K)
    pairs = oracle.pool_pairs(pool)
    oracle.check_pool("q", pairs, expected)
    swapped = [pairs[1], pairs[0]] + pairs[2:]
    with pytest.raises(oracle.CheckError):
        oracle.check_pool("q", swapped, expected)
    with pytest.raises(oracle.CheckError):
        oracle.check_pool("q", pairs[:-1], expected)


def test_check_rejects_a_perturbed_rerank(small_base):
    _, cb, index, queries = small_base
    tokens, pool = _query_with_pool(cb, index, queries)
    query_av = affret.compute_query_affordance(tokens, cb.lexicon)
    entries = affret.rerank(pool, query_av, cb, alpha=run.ALPHA).entries
    pairs = oracle.pool_pairs(pool)
    oracle.check_rerank("q", pairs, query_av, entries, run.ALPHA, cb, affret.cosine_sim)
    reordered = [entries[1], entries[0]] + entries[2:]
    with pytest.raises(oracle.CheckError):
        oracle.check_rerank("q", pairs, query_av, reordered, run.ALPHA, cb, affret.cosine_sim)
    # the blend computed with another alpha is also wrong
    other = affret.rerank(pool, query_av, cb, alpha=0.9).entries
    with pytest.raises(oracle.CheckError):
        oracle.check_rerank("q", pairs, query_av, other, run.ALPHA, cb, affret.cosine_sim)


def test_check_rejects_a_truncated_case_base(small_base, tmp_path):
    _, cb, _, _ = small_base
    path = tmp_path / "cb.jsonl"
    affret.save_case_base(cb, path)
    oracle.check_case_base_file(path, cb, affret, tmp_path)
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)

    path.write_text("".join(lines[:-1]), encoding="utf-8")  # trailing lexicon record lost
    with pytest.raises(oracle.CheckError):
        oracle.check_case_base_file(path, cb, affret, tmp_path)

    path.write_text("".join(lines[:1] + lines[2:]), encoding="utf-8")  # one case lost
    with pytest.raises(oracle.CheckError):
        oracle.check_case_base_file(path, cb, affret, tmp_path)


def test_build_pages_end_as_cases_or_logged_skips(tmp_path):
    vocab = inputs.vocabulary(4)
    corpus = inputs.build_corpus(4, vocab, 100)
    # keep the test quick: drop the slow unpunctuated pages
    corpus.files = {n: d for n, d in corpus.files.items() if "unpunctuated" not in n}
    corpus.write(tmp_path / "corpus")
    (tmp_path / "lexicon.tsv").write_text(vocab.lexicon_tsv(), encoding="utf-8")
    log = run.SkipLog()
    logger = logging.getLogger("affret")
    logger.addHandler(log)
    old_level = logger.level
    logger.setLevel(logging.INFO)
    try:
        cb = affret.populate_case_base(tmp_path / "corpus", affret.load_lexicon(tmp_path / "lexicon.tsv"), affret.BuildConfig())
    finally:
        logger.removeHandler(log)
        logger.setLevel(old_level)
    pages = sorted(corpus.files)
    case_ids = [c.doc_id for c in cb.cases]
    assert log.skipped, "the mix holds empty and undecodable pages"
    oracle.check_build_accounting(pages, case_ids, log.skipped)
    with pytest.raises(oracle.CheckError):
        oracle.check_build_accounting(pages, case_ids, log.skipped[1:])


def test_tail_percentile_keeps_ten_samples_beyond():
    assert run.tail_percentile(1000, 99) == 99
    assert run.tail_percentile(200, 95) == 95
    assert run.tail_percentile(120, 95) == 90
    assert run.tail_percentile(45, 75) == 75
    assert run.tail_percentile(30, 75) == 50


def test_timings_are_divided_by_the_nearby_reference_samples():
    host = hostspeed.HostSpeed()
    host.mids, host.durations = [0.0, 1.0, 10.0], [0.01, 0.03, 0.5]
    # samples within 1 s of [0.5, 0.7] are those at 0 and 1: median 0.02
    assert host.in_ref([(0.5, 0.7)]) == [pytest.approx(0.2 / 0.02)]
    # none within 1 s of [5, 5.5]: the nearest sample, at 1.0, scales it
    assert host.in_ref([(5.0, 5.5)]) == [pytest.approx(0.5 / 0.03)]
    # a 3 s timing looks 3 s to either side: [1, 10] holds the samples at 1.0 and 10.0
    assert host.in_ref([(4.0, 7.0)]) == [pytest.approx(3.0 / 0.265)]


def _bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", *args], cwd=cwd, capture_output=True, text=True, timeout=170
    )


def test_one_short_run_prints_every_end_to_end_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    proc = _bench(ROOT, "--workload", "eval-cycle", "--seed", "2", "--seconds", "0.5", "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert set(result["metrics"]) == {m["name"] for m in spec["end_to_end"]}
    for metric in spec["end_to_end"]:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
        assert result["metrics"][metric["name"]]["value"] > 0


def test_fails_without_the_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench(tmp_path, "--workload", "build", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert "{" not in proc.stdout
