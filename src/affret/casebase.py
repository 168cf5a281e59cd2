"""Case base construction and persistence.

One case per admitted document: a problem description (the top-k
discriminative terms of each block, weighted by block-local tf-idf) plus a
solution (the document's affordance vector and id). The build is two-pass so
document frequencies exist before term selection; pass order is sorted by
doc_id, which makes rebuilds bit-identical. Pass 1 keeps each page's per-term
max tf, block term counts and affordance vector, not its tokens; pass 2 takes
each distinct term's selection idf once per page.

Persistence is line-delimited JSON with sorted keys. affret quantizes every
float it computes to 12 significant digits *at construction time*: term
weights when a case is built, and the revised-vector components that
feedback moves, when it moves them; affordance vectors hold integer counts.
Save and load, and feedback for the components it does not move, carry the
held values exactly, so the in-memory case base and its file round-trip
losslessly and rebuilds compare byte-for-byte. Load reads only the layout
save writes and keeps each value as decoded, so a case base that affret did
not write keeps whatever digits its values carry, and an integer stays an
integer, until feedback moves them; a value of the wrong type is rejected.
"""

from __future__ import annotations

import json
import logging
import math
import sys
from collections import Counter
from dataclasses import asdict, dataclass, field
from pathlib import Path

from .affordance import AffordanceVector, compute_block_affordance, compute_doc_affordance, normalize_av
from .errors import (
    CaseBaseBuildError,
    CaseBaseFormatError,
    CompatibilityError,
    DimensionError,
    InputError,
    LexiconFormatError,
    ParseError,
    read_text,
)
from .lexicon import Lexicon, Topic
from .segmenter import RawDocument, dedupe_sentences, extract_block_text, parse_document, segment_blocks, tokenize
from .stopwords import DEFAULT_STOPWORDS

logger = logging.getLogger(__name__)


def round12(x: float) -> float:
    """Quantize to 12 significant digits (the serialization precision)."""
    return float(f"{x:.12g}")


@dataclass
class BuildConfig:
    """Pipeline dials; defaults match the CLI."""

    k_terms: int = 20
    tau: float = 0.5
    k_retrieve: int = 10
    alpha: float = 0.0
    eta: float = 0.0

    def __post_init__(self):
        if any(type(v) is bool for v in vars(self).values()):
            raise InputError("config values must be numbers, not true or false")
        if type(self.k_terms) is not int or self.k_terms < 1:
            raise InputError("k_terms must be an integer >= 1")
        if not 0.0 <= self.tau <= 1.0:
            raise InputError("tau must lie in [0, 1]")
        if type(self.k_retrieve) is not int or self.k_retrieve < 1:
            raise InputError("k_retrieve must be an integer >= 1")
        if not 0.0 <= self.alpha <= 1.0:
            raise InputError("alpha must lie in [0, 1]")
        if not 0.0 <= self.eta <= 1.0:
            raise InputError("eta must lie in [0, 1]")


@dataclass
class CorpusStats:
    df: dict[str, int]
    n_cases: int


@dataclass
class Case:
    doc_id: str
    prob_desc: dict[str, float]
    av: AffordanceVector
    av_revised: AffordanceVector


@dataclass
class CaseBase:
    cases: list[Case]
    corpus_stats: CorpusStats
    lexicon: Lexicon
    config: BuildConfig
    _by_id: dict[str, Case] = field(default=None, repr=False, compare=False)

    @property
    def lexicon_fingerprint(self) -> str:
        return self.lexicon.fingerprint()

    def case(self, doc_id: str) -> Case:
        if self._by_id is None:
            self._by_id = {c.doc_id: c for c in self.cases}
        return self._by_id[doc_id]


def selection_idf(term: str, stats: CorpusStats) -> float:
    """Smoothed idf used for discriminative-term selection."""
    return math.log(1.0 + stats.n_cases / (1.0 + stats.df.get(term, 0)))


def select_top_k_terms(tf: Counter, idf: dict[str, float], k: int) -> list[tuple[str, float]]:
    """The k distinct highest tf-idf terms of a block, ties broken by term order.

    ``tf`` holds the block's term counts and ``idf`` the selection idf of each
    of its terms; fewer than k distinct terms returns them all.
    """
    weighted = [(term, round12(count * idf[term])) for term, count in tf.items()]
    weighted.sort(key=lambda tw: (-tw[1], tw[0]))
    return weighted[:k]


def _describe(
    doc: RawDocument, lexicon: Lexicon, tau: float, stop_words: frozenset[str] | None
) -> tuple[dict[str, int], list[Counter], AffordanceVector] | None:
    """A page's per-term max tf, kept blocks' term counts and affordance vector; noise blocks drop out.

    The one keep/skip rule of the build: a page with no term left is logged as skipped and yields None.
    """
    block_tfs = []
    block_avs = []
    # not Counter's |=, which calls __missing__ per new term and sweeps every block
    max_tf: dict[str, int] = {}
    for block in segment_blocks(doc):
        text = extract_block_text(block, tau)
        if not text:
            continue
        tokens = tokenize(dedupe_sentences(text), stop_words)
        tf = Counter(tokens)
        block_tfs.append(tf)
        block_avs.append(compute_block_affordance(tokens, lexicon))
        for term, count in tf.items():
            if count > max_tf.get(term, 0):
                max_tf[term] = count
    if not max_tf:
        logger.info("skipping %s: no admissible text blocks", doc.doc_id)
        return None
    return max_tf, block_tfs, compute_doc_affordance(block_avs, m=lexicon.m)


def _case(
    doc_id: str, max_tf: dict[str, int], block_tfs: list[Counter], av: AffordanceVector, k: int, stats: CorpusStats
) -> Case:
    idf = {term: selection_idf(term, stats) for term in max_tf}
    selected = {term for tf in block_tfs for term, _ in select_top_k_terms(tf, idf, k)}
    prob_desc = {term: round12(max_tf[term] * idf[term]) for term in sorted(selected)}
    return Case(doc_id=doc_id, prob_desc=prob_desc, av=av, av_revised=list(av))


def build_case(
    doc: RawDocument,
    lexicon: Lexicon,
    config: BuildConfig,
    corpus_stats: CorpusStats,
    stop_words: frozenset[str] | None = None,
) -> Case | None:
    """Build one case, or None when every block filters out as noise."""
    description = _describe(doc, lexicon, config.tau, stop_words)
    return None if description is None else _case(doc.doc_id, *description, config.k_terms, corpus_stats)


def _corpus_files(corpus_dir: Path) -> list[tuple[str, Path]]:
    files = [
        (p.relative_to(corpus_dir).as_posix(), p)
        for p in corpus_dir.rglob("*")
        if p.is_file() and p.suffix.lower() in (".html", ".htm")
    ]
    files.sort(key=lambda item: item[0])
    return files


def populate_case_base(
    corpus_dir: str | Path,
    lexicon: Lexicon,
    config: BuildConfig,
    stop_words: frozenset[str] | None = None,
) -> CaseBase:
    """Two-pass batch build over a directory of .html/.htm files.

    Pass 1 describes every document in sorted doc_id order (its blocks' term
    counts and its affordance vector) and accumulates document frequencies;
    pass 2 selects terms and constructs cases in the same order. Documents
    that fail to parse or contain no admissible text are skipped with a
    logged diagnostic.
    """
    corpus_dir = Path(corpus_dir)
    if not corpus_dir.is_dir():
        raise InputError(f"corpus directory not found: {corpus_dir}")
    stops = DEFAULT_STOPWORDS if stop_words is None else stop_words
    for topic in lexicon.topics:
        for term in sorted(topic.terms):
            if hits := [word for word in tokenize(term, frozenset()) if word in stops]:
                message = "lexicon term %r of topic %r can never match: stop-worded text drops %s"
                logger.warning(message, term, topic.name, ", ".join(hits))

    df: Counter = Counter()
    described: list[tuple[str, dict[str, int], list[Counter], AffordanceVector]] = []
    for doc_id, path in _corpus_files(corpus_dir):
        try:
            doc = parse_document(path.read_bytes(), doc_id)
        except ParseError as exc:
            logger.warning("skipping %s: %s", doc_id, exc)
            continue
        description = _describe(doc, lexicon, config.tau, stop_words)
        if description is not None:
            df.update(description[0].keys())
            described.append((doc_id, *description))

    stats = CorpusStats(df=dict(df), n_cases=len(described))
    cases = [_case(*description, config.k_terms, stats) for description in described]
    if not cases:
        raise CaseBaseBuildError(f"no admissible cases in {corpus_dir}")
    return CaseBase(
        cases=cases,
        corpus_stats=stats,
        lexicon=lexicon,
        config=config,
    )


# every record save_case_base builds is flat lists and dicts, never cyclic
_ENCODER = json.JSONEncoder(sort_keys=True, check_circular=False)


def save_case_base(cb: CaseBase, path: str | Path) -> None:
    """Write line-delimited JSON: header, one line per case, corpus stats, lexicon.

    Values are written as held, not rounded again: affret rounds every value
    it computes, so a case base it built or revised saves byte-identically,
    and one it did not write keeps the digits it was loaded with.
    """
    encode = _ENCODER.encode
    header = {
        "config": asdict(cb.config),
        "lexicon_fingerprint": cb.lexicon_fingerprint,
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


def load_case_base(path: str | Path, lexicon: Lexicon | None = None) -> CaseBase:
    """Read a saved case base; verify fingerprint when an active lexicon is given.

    Reads only save_case_base's layout: the header, a case per line, then the
    corpus stats and the lexicon. Values are kept as decoded, so each must
    already have the type save writes; a bool is not a number.
    """
    try:
        raw_lines = read_text(path, CaseBaseFormatError).split("\n")
    except OSError as exc:
        raise CaseBaseFormatError(f"cannot read case base: {exc}") from exc
    # records end at a newline, so the piece after the last one is empty
    if raw_lines[-1] == "":
        raw_lines.pop()
    if not raw_lines:
        raise CaseBaseFormatError(f"{path}: empty case base file")

    def parse_line(line: str, lineno: int) -> dict:
        try:
            record = json.loads(line)
        except ValueError as exc:  # a JSONDecodeError, or an integer past Python's digit limit
            raise CaseBaseFormatError(f"{path}: line {lineno} is not valid JSON ({exc})") from exc
        if not isinstance(record, dict):
            raise CaseBaseFormatError(f"{path}: line {lineno} is not an object")
        return record

    header = parse_line(raw_lines[0], 1)
    required = {"config", "lexicon_fingerprint", "m", "N"}
    if not required.issubset(header):
        raise CaseBaseFormatError(f"{path}: header missing keys {sorted(required - set(header))}")
    try:
        config = BuildConfig(**header["config"])
    except (TypeError, InputError) as exc:
        raise CaseBaseFormatError(f"{path}: bad config in header ({exc})") from exc
    for key in ("m", "N"):
        if type(header[key]) is not int:
            raise CaseBaseFormatError(f"{path}: header {key} must be an integer, got {header[key]!r}")
    m = header["m"]

    # the last two lines, never the header
    last = len(raw_lines)
    stats_record, lexicon_record = (parse_line(raw_lines[i - 1], i) if i > 1 else {} for i in (last - 1, last))
    if "corpus_stats" not in stats_record or "lexicon" not in lexicon_record:
        raise CaseBaseFormatError(f"{path}: truncated case base (line {last} is not a lexicon record after corpus_stats)")
    try:
        body = stats_record["corpus_stats"]
        stats = CorpusStats(df=body["df"], n_cases=body["N"])
        n, dfs = stats.n_cases, stats.df.values()
        if type(n) is not int or set(map(type, dfs)) - {int}:
            raise TypeError("N and every df must be integers")
        # selection_idf divides by N as a float, and is positive only for
        # N >= 1 and every df in [0, N]
        if not 1 <= n <= sys.float_info.max or min(dfs, default=0) < 0 or max(dfs, default=0) > n:
            raise ValueError(f"need 1 <= N <= {sys.float_info.max:.4g} and 0 <= df <= N, N is {n}")
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise CaseBaseFormatError(f"{path}: malformed corpus_stats at line {last - 1} ({exc})") from exc
    try:
        topics = []
        for t in lexicon_record["lexicon"]["topics"]:
            name, terms, miscellaneous = t["name"], t["terms"], t["miscellaneous"]
            if type(name) is not str or type(terms) is not list or type(miscellaneous) is not bool:
                raise TypeError("a topic needs a string name, a list of terms and a true or false miscellaneous")
            "".join(terms)  # rejects a term that is not a string
            topics.append(Topic(name=name, terms=frozenset(terms), miscellaneous=miscellaneous))
        embedded = Lexicon(topics=topics)
        embedded_fingerprint = embedded.fingerprint()
    except (KeyError, TypeError, LexiconFormatError) as exc:
        raise CaseBaseFormatError(f"{path}: malformed lexicon at line {last} ({exc})") from exc

    cases: list[Case] = []
    case_lines: dict[str, int] = {}
    for lineno, line in enumerate(raw_lines[1:-2], start=2):
        record = parse_line(line, lineno)
        if "doc_id" not in record:
            raise CaseBaseFormatError(f"{path}: unrecognized record at line {lineno}")
        if not isinstance(record["doc_id"], str):
            raise CaseBaseFormatError(f"{path}: doc_id at line {lineno} is not a string")
        try:
            if type(record["prob_desc"]) is not list:  # dict() would take a JSON object too
                raise TypeError("prob_desc is not a list")
            case = Case(
                doc_id=record["doc_id"],
                prob_desc=dict(record["prob_desc"]),
                av=record["av"],
                av_revised=record["av_revised"],
            )
            # one C-level join rejects a term that is not a string, and a sum
            # from 0.0 a value that is not a number or is too large for a float
            "".join(case.prob_desc)
            total = sum(case.prob_desc.values(), sum(case.av, sum(case.av_revised, 0.0)))
            # the sum takes a bool as a number; only a line that spells one is searched
            if "true" in line or "false" in line:
                if any(type(v) is bool for v in (*case.prob_desc.values(), *case.av, *case.av_revised)):
                    raise TypeError("true and false are not numbers")
        except (KeyError, OverflowError, TypeError, ValueError) as exc:
            raise CaseBaseFormatError(f"{path}: malformed case at line {lineno} ({exc})") from exc
        if not case.prob_desc:
            raise CaseBaseFormatError(f"{path}: case {case.doc_id!r} at line {lineno} has an empty prob_desc")
        if len(case.av) != m or len(case.av_revised) != m:
            raise CaseBaseFormatError(
                f"{path}: case {case.doc_id!r} has dimension {len(case.av)}, header says {m}"
            )
        # JSON Infinity, NaN and 1e999 load as inf or nan, which make any sum
        # non-finite; only such a sum (finite values reach one by overflow too)
        # is checked value by value
        if not math.isfinite(total):
            _reject_non_finite(case, path, lineno)
        first = case_lines.setdefault(case.doc_id, lineno)
        if first != lineno:
            raise CaseBaseFormatError(
                f"{path}: duplicate doc_id {case.doc_id!r} at lines {first} and {lineno}"
            )
        cases.append(case)

    if embedded.m != m:
        raise CaseBaseFormatError(f"{path}: embedded lexicon dimension {embedded.m} != header m {m}")
    if embedded_fingerprint != header["lexicon_fingerprint"]:
        raise CaseBaseFormatError(f"{path}: embedded lexicon does not match header fingerprint")
    if header["N"] != stats.n_cases:
        raise CaseBaseFormatError(f"{path}: header N {header['N']} != corpus_stats N {stats.n_cases}")
    if lexicon is not None and lexicon.fingerprint() != header["lexicon_fingerprint"]:
        raise CompatibilityError(
            f"{path}: case base was built against a different lexicon "
            f"(m={m}, active m={lexicon.m}){_first_difference(embedded, lexicon)}"
        )
    return CaseBase(
        cases=cases,
        corpus_stats=stats,
        lexicon=embedded,
        config=config,
    )


def _first_difference(built: Lexicon, active: Lexicon) -> str:
    """The first topic, by position, that two lexicons hold differently, and its one-sided terms."""
    for i, (ours, theirs) in enumerate(zip(built.topics, active.topics), start=1):
        if ours != theirs:
            ours_name, theirs_name = (repr(t.name) + " (catch-all)" * t.miscellaneous for t in (ours, theirs))
            return (
                f": topic {i} is {ours_name} in the case base and {theirs_name} in the active lexicon;"
                f" terms only in the case base {sorted(ours.terms - theirs.terms)},"
                f" only in the active lexicon {sorted(theirs.terms - ours.terms)}"
            )
    return ""


def _reject_non_finite(case: Case, path: str | Path, lineno: int) -> None:
    """Raise ``CaseBaseFormatError`` if the case holds an inf or a nan."""
    for name, values in (("prob_desc", case.prob_desc.values()), ("av", case.av), ("av_revised", case.av_revised)):
        if not all(map(math.isfinite, values)):
            raise CaseBaseFormatError(f"{path}: case {case.doc_id!r} at line {lineno} has a non-finite {name} value")


def revise_case_affordance(case: Case, query_av: AffordanceVector, eta: float) -> Case:
    """Nudge the revised vector toward the query's affordance profile.

    The update adds ``eta * unit(query_av) * |av_revised|``, a step
    proportional to the vector's own length, so feedback strength scales with
    the case rather than with raw query counts. The stored raw counts in
    ``av`` are never touched; ``eta = 0`` disables feedback entirely.
    Only the components the query names move, and only they are rounded to
    12 digits; the others are carried as held (``v + 0.0`` is ``v``, and
    every value affret writes is already 12-digit). Repeated aligned
    feedback grows the vector geometrically; a step that would overflow is
    taken from the vector scaled to a peak of 1 instead, over every component.
    """
    if not 0.0 <= eta <= 1.0:
        raise InputError("eta must lie in [0, 1]")
    if len(query_av) != len(case.av_revised):
        raise DimensionError(f"dimension mismatch: {len(query_av)} vs {len(case.av_revised)}")
    if eta == 0.0:
        return case
    direction = normalize_av(query_av)
    av = case.av_revised
    scale = eta * math.hypot(*av)
    revised = list(av)
    for j, d in enumerate(direction):
        if d:
            revised[j] = round12(av[j] + scale * d)
    # a finite scale means every carried component is finite, so this checks
    # the moved ones; an infinite scale would make even a zero query's step nan
    if not (math.isfinite(scale) and all(map(math.isfinite, revised))):
        # cosine reads only the direction, and the step is scale-invariant
        peak = max(map(abs, av))
        revised = _step([v / peak for v in av], direction, eta)
    case.av_revised = revised
    return case


def _step(av: AffordanceVector, direction: AffordanceVector, eta: float) -> AffordanceVector:
    scale = eta * math.hypot(*av)
    return [round12(v + scale * d) for v, d in zip(av, direction)]
