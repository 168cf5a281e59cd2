"""Case base construction and persistence.

One case per admitted document: a problem description (the top-k
discriminative terms of each block, weighted by block-local tf-idf) plus a
solution (the document's affordance vector and id). The build is two-pass so
document frequencies exist before term selection; pass order is sorted by
doc_id, which makes rebuilds bit-identical. Pass 1 keeps each page's per-term
max tf, block term counts and affordance vector, not its tokens. Pass 2 takes
one selection idf per distinct document frequency and one rounding per
distinct weight, both kept by the corpus stats, so the build and every later
``build_case`` against the same stats share them; it keeps a block of at most
k distinct terms whole without ranking it.

This module alone knows the weight format. A description weight is
``round12(max_tf * selection idf)``, every selection idf comes from the
stats' one idf table, and ``recover_tfs`` is the one rule that gives the tf
back, for retrieval's scoring and tf views and for load's check.

Persistence is line-delimited JSON with sorted keys. affret quantizes every
float it computes to 12 significant digits *at construction time*: term
weights when a case is built, and the revised-vector components that
feedback moves, when it moves them; affordance vectors hold integer counts.
Save and load, and feedback for the components it does not move, carry the
held values exactly, so the in-memory case base and its file round-trip
losslessly and rebuilds compare byte-for-byte. Load reads only the layout
save writes and keeps each value as decoded, so a case base that affret did
not write keeps whatever digits its values carry, and an integer stays an
integer, until feedback moves them; a value of the wrong type is rejected,
and so is a description weight whose tf ``recover_tfs`` cannot give back.
Load decodes each case line once; ``json.loads`` decides a line that is not
one bare record, so blanks around it, a BOM or trailing text get its outcome
and message. Save converts each distinct description weight to its JSON
text once per call and splices each case line from those texts; the bytes
stay the ones that encoding each record whole writes.
"""

from __future__ import annotations

import json
import logging
import math
import sys
from collections import Counter
from collections.abc import Callable, Iterable
from dataclasses import asdict, dataclass, field
from functools import cached_property
from itertools import accumulate, repeat
from json.encoder import encode_basestring_ascii as quote
from operator import neg
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
    check_count,
    check_unit_dial,
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
    """Pipeline dials; the CLI takes its defaults from here. ``tau``, ``alpha`` and ``eta`` are numbers in [0, 1]."""

    k_terms: int = 20
    tau: float = 0.5
    k_retrieve: int = 10
    alpha: float = 0.0
    eta: float = 0.0

    def __post_init__(self):
        check_count("k_terms", self.k_terms)
        check_unit_dial("tau", self.tau)
        check_count("k_retrieve", self.k_retrieve)
        check_unit_dial("alpha", self.alpha)
        check_unit_dial("eta", self.eta)


class _Memo(dict):
    """key -> ``compute(key)``, each computed on its first lookup."""

    def __init__(self, compute: Callable):
        super().__init__()
        self.compute = compute

    def __missing__(self, key):
        value = self[key] = self.compute(key)
        return value


@dataclass(frozen=True)
class CorpusStats:
    """Document frequencies over the ``n_cases`` cases of a build.

    It also holds two memos: the selection idf of each df, the one idf table
    that ``selection_idf``, pass 2, tf recovery and load read, and the
    ``round12`` of each weight, shared by every ``_cases`` call. An idf
    depends only on its df and ``n_cases``, and a rounding only on its
    weight, so both stay valid for the object's life: it is frozen, so
    ``n_cases`` cannot change under the idf table. ``df`` must not be mutated
    in place either, since the cases' weights were built from it and tf is
    recovered through it; build a new object instead.
    """

    df: dict[str, int]
    n_cases: int
    _rounded: _Memo = field(default_factory=lambda: _Memo(round12), init=False, repr=False, compare=False)

    @cached_property
    def _idf_by_df(self) -> _Memo:
        """df -> the selection idf of a term with that df, computed once per df.

        Only ``N >= 1`` and ``df >= 0`` give a positive idf, so any other df
        or ``N`` raises ``CaseBaseFormatError`` on its lookup. A ``df`` above
        ``N`` still gives one; load rejects such stats with its own message.
        """
        n_cases = self.n_cases

        def idf(df: int) -> float:
            # not "N < 1 or df < 0": a nan N or df fails this test too
            if not (n_cases >= 1 and df >= 0):
                raise CaseBaseFormatError(f"corpus stats need N >= 1 and every df >= 0, got N {n_cases} and df {df}")
            return math.log(1.0 + n_cases / (1.0 + df))

        return _Memo(idf)


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

    @cached_property
    def _by_id(self) -> dict[str, Case]:
        return {c.doc_id: c for c in self.cases}

    def case(self, doc_id: str) -> Case:
        return self._by_id[doc_id]


def selection_idf(term: str, stats: CorpusStats) -> float:
    """Smoothed idf used for discriminative-term selection, read from the stats' idf table."""
    return stats._idf_by_df[stats.df.get(term, 0)]


def recover_tfs(term: str, weights: Iterable[float], stats: CorpusStats) -> list[int]:
    """The tf behind each of a term's description weights: the one tf rule of the weight format.

    A weight is ``round12(max_tf * selection idf)``, quantized well past
    integer resolution, so the weight divided by the selection idf rounds
    back to the build-time count exactly; a tf below 1 is lifted to 1. A
    quotient that overflows to inf, or a nan weight, rounds to no integer
    and raises ``CaseBaseFormatError`` naming the term.
    """
    selection = selection_idf(term, stats)
    try:
        # not max(1, ...): this runs per posting of every queried term
        return [tf if (tf := round(weight / selection)) > 1 else 1 for weight in weights]
    except OverflowError as exc:
        raise CaseBaseFormatError(f"case base weight of {term!r} is too large to recover its tf") from exc
    except ValueError as exc:
        raise CaseBaseFormatError(f"case base weight of {term!r} is not a number") from exc


def select_top_k_terms(
    tf: Counter, idf: dict[str, float], k: int, _rounded: dict[float, float] | None = None
) -> list[tuple[str, float]]:
    """The k distinct highest tf-idf terms of a block, ties broken by term order.

    ``tf`` holds the block's term counts and ``idf`` the selection idf of each
    of its terms; fewer than k distinct terms returns them all. A term's
    weight is ``round12(count * idf)``, read from ``_rounded``, a memo that
    rounds each weight on its first lookup (a corpus stats' memo). The build
    ranks only blocks of more than k distinct terms and passes one memo for
    all its blocks.
    """
    check_count("k", k)
    rounded = _Memo(round12) if _rounded is None else _rounded
    values = map(rounded.__getitem__, [count * idf[term] for term, count in tf.items()])
    ranked = sorted(zip(map(neg, values), tf))
    return [(term, -value) for value, term in ranked[:k]]


def _describe(
    doc: RawDocument, lexicon: Lexicon, tau: float, stop_words: frozenset[str]
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
    return max_tf, block_tfs, compute_doc_affordance(block_avs)


def _cases(
    described: list[tuple[str, dict[str, int], list[Counter], AffordanceVector]], k: int, stats: CorpusStats
) -> list[Case]:
    """Pass 2: each described page's case, whose description is the union of its blocks' top-k terms.

    A term's idf depends only on its df, and a weight's rounding only on the
    weight, so each is computed once per distinct df and weight through the
    memos ``stats`` holds, shared by every call against the same stats: the
    build's one call and each later ``build_case``. A weight is
    ``count * idf`` with count >= 1 and an idf from ``math.log``, which never
    returns -0.0, so no weight is -0.0 and no two distinct weights (0.0 and
    -0.0 would) share a memo key.
    """
    df, idf_by_df, rounded = stats.df, stats._idf_by_df, stats._rounded
    cases = []
    for doc_id, max_tf, block_tfs, av in described:
        # a term absent from df has df 0
        idf = dict(zip(max_tf, map(idf_by_df.__getitem__, map(df.get, max_tf, repeat(0)))))
        selected = set()
        for tf in block_tfs:
            # select_top_k_terms keeps every term of such a block
            if len(tf) <= k:
                selected.update(tf)
            else:
                selected.update(term for term, _ in select_top_k_terms(tf, idf, k, rounded))
        terms = sorted(selected)
        prob_desc = dict(zip(terms, map(rounded.__getitem__, [max_tf[term] * idf[term] for term in terms])))
        cases.append(Case(doc_id=doc_id, prob_desc=prob_desc, av=av, av_revised=list(av)))
    return cases


def build_case(
    doc: RawDocument,
    lexicon: Lexicon,
    config: BuildConfig,
    corpus_stats: CorpusStats,
    stop_words: frozenset[str] = DEFAULT_STOPWORDS,
) -> Case | None:
    """Build one case, or None when every block filters out as noise.

    Selection reads and fills the idf and rounding memos of ``corpus_stats``,
    so pages built against the build's own stats reuse what the build
    computed. Raises ``ParseError`` for markup the parser rejects, the page a
    build skips.
    """
    description = _describe(doc, lexicon, config.tau, stop_words)
    return None if description is None else _cases([(doc.doc_id, *description)], config.k_terms, corpus_stats)[0]


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
    stop_words: frozenset[str] = DEFAULT_STOPWORDS,
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
    for topic in lexicon.topics:
        for term in sorted(topic.terms):
            if hits := [word for word in tokenize(term, frozenset()) if word in stop_words]:
                message = "lexicon term %r of topic %r can never match: stop-worded text drops %s"
                logger.warning(message, term, topic.name, ", ".join(hits))

    df: Counter = Counter()
    described: list[tuple[str, dict[str, int], list[Counter], AffordanceVector]] = []
    for doc_id, path in _corpus_files(corpus_dir):
        try:
            description = _describe(parse_document(path.read_bytes(), doc_id), lexicon, config.tau, stop_words)
        except ParseError as exc:
            # each ParseError names the page first; the log line names it once
            logger.warning("skipping %s: %s", doc_id, str(exc).removeprefix(f"{doc_id}: "))
            continue
        if description is not None:
            df.update(description[0].keys())
            described.append((doc_id, *description))

    stats = CorpusStats(df=dict(df), n_cases=len(described))
    cases = _cases(described, config.k_terms, stats)
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

    Description weights repeat across cases (each is ``max_tf * idf(df)``,
    rounded), so each distinct one is converted to its JSON text once per
    call and the case line is spliced from those texts; the bytes are the
    ones the encoder writes for the whole record.
    """
    encode = _ENCODER.encode
    header = {
        "config": asdict(cb.config),
        "lexicon_fingerprint": cb.lexicon.fingerprint(),
        "m": cb.lexicon.m,
        "N": cb.corpus_stats.n_cases,
    }
    lines = [encode(header) + "\n"]
    # weight -> its JSON text. Only a nonzero exact float is a key: equal
    # ones then have the same text, while -0.0 and 0.0, or 1, True and 1.0,
    # are equal keys with different texts. A nan never finds another nan.
    texts: dict[float, str] = {}
    for case in cb.cases:
        pairs = []
        for term, weight in sorted(case.prob_desc.items()):
            if type(weight) is not float or not weight:
                text = encode(weight)
            elif (text := texts.get(weight)) is None:
                text = texts[weight] = encode(weight)
            # the encoder's own string writer under ensure_ascii
            pairs.append(f"[{quote(term) if type(term) is str else encode(term)}, {text}]")
        # sorted keys put prob_desc last, so its empty list ends the line as "[]}"
        head = encode({"av": case.av, "av_revised": case.av_revised, "doc_id": case.doc_id, "prob_desc": []})
        lines.append(f"{head[:-2]}{', '.join(pairs)}]}}\n")
    lines.append(encode({"corpus_stats": {"df": cb.corpus_stats.df, "N": cb.corpus_stats.n_cases}}) + "\n")
    topics = [{"name": t.name, "terms": sorted(t.terms), "miscellaneous": t.miscellaneous} for t in cb.lexicon.topics]
    lines.append(encode({"lexicon": {"topics": topics}}) + "\n")
    Path(path).write_text("".join(lines), encoding="utf-8")


# the decoder json.loads uses, without its whitespace and trailing-text checks
_DECODER = json.JSONDecoder()


def load_case_base(path: str | Path, lexicon: Lexicon | None = None) -> CaseBase:
    """Read a saved case base; verify fingerprint when an active lexicon is given.

    Reads only save_case_base's layout: the header, a case per line, then the
    corpus stats and the lexicon. Values are kept as decoded, so each must
    already have the type save writes; a bool is not a number. Each case line
    is decoded once; a line that is not one bare JSON object, such as one with
    blanks around it, goes to ``json.loads``, whose outcome and message it gets.
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
        # a JSONDecodeError, an integer past Python's digit limit, or arrays
        # and objects nested deeper than the decoder's recursion limit
        except (ValueError, RecursionError) as exc:
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
        # N >= 1 and every df in [0, N]; CorpusStats._idf_by_df guards the
        # same N >= 1 and df >= 0 for hand-built stats, so change both together
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
        # encodes every topic name and term as UTF-8, which a lone surrogate fails
        embedded_fingerprint = embedded.fingerprint()
    except (KeyError, TypeError, LexiconFormatError, UnicodeEncodeError) as exc:
        raise CaseBaseFormatError(f"{path}: malformed lexicon at line {last} ({exc})") from exc

    cases: list[Case] = []
    case_lines: dict[str, int] = {}
    decode = _DECODER.raw_decode
    for lineno, line in enumerate(raw_lines[1:-2], start=2):
        # json.loads decides a line that raw_decode rejects, stops short of or
        # reads as no object: it may hold blanks, a BOM or trailing text
        try:
            record, end = decode(line)
        except (ValueError, RecursionError):
            end = -1
        if end != len(line) or type(record) is not dict:
            record = parse_line(line, lineno)
        if "doc_id" not in record:
            raise CaseBaseFormatError(f"{path}: unrecognized record at line {lineno}")
        doc_id = record["doc_id"]
        if not isinstance(doc_id, str):
            raise CaseBaseFormatError(f"{path}: doc_id at line {lineno} is not a string")
        try:
            prob_desc = record["prob_desc"]
            if type(prob_desc) is not list:  # dict() would take a JSON object too
                raise TypeError("prob_desc is not a list")
            prob_desc = dict(prob_desc)
            av = record["av"]
            av_revised = record["av_revised"]
            # one C-level join rejects a term that is not a string, and a sum
            # from 0.0 a value that is not a number or is too large for a float
            "".join(prob_desc)
            weights = prob_desc.values()
            weight_total = sum(weights, 0.0)
            total = sum(av, sum(av_revised, weight_total))
            # the sum takes a bool as a number; only a line that spells one is searched
            if "true" in line or "false" in line:
                if any(type(v) is bool for v in (*weights, *av, *av_revised)):
                    raise TypeError("true and false are not numbers")
        except (KeyError, OverflowError, TypeError, ValueError) as exc:
            raise CaseBaseFormatError(f"{path}: malformed case at line {lineno} ({exc})") from exc
        case = Case(doc_id, prob_desc, av, av_revised)
        if not prob_desc:
            raise CaseBaseFormatError(f"{path}: case {doc_id!r} at line {lineno} has an empty prob_desc")
        if len(av) != m or len(av_revised) != m:
            raise CaseBaseFormatError(f"{path}: case {doc_id!r} has dimension {len(av)}, header says {m}")
        # JSON Infinity, NaN and 1e999 load as inf or nan, which make any sum
        # non-finite; only such a sum (finite values reach one by overflow too)
        # is checked value by value
        if not math.isfinite(total):
            _reject_non_finite(case, path, lineno)
        # the sum of weights none of which is negative bounds each of them;
        # a line that holds no "-" holds no negative number
        if weight_total > _RECOVERABLE_WEIGHT or ("-" in line and min(weights) < 0):
            try:
                for term, weight in prob_desc.items():
                    recover_tfs(term, (weight,), stats)
            except CaseBaseFormatError as exc:
                raise CaseBaseFormatError(f"{path}: line {lineno}: {exc}") from exc
        first = case_lines.setdefault(doc_id, lineno)
        if first != lineno:
            raise CaseBaseFormatError(f"{path}: duplicate doc_id {doc_id!r} at lines {first} and {lineno}")
        cases.append(case)

    # a JSON "\udce9" escape loads as a lone surrogate, which no report can
    # write as UTF-8; one encode of the joined ids checks every case
    try:
        "".join(case_lines).encode("utf-8")
    except UnicodeEncodeError as exc:
        # the line of the id holding the character the encode stopped at
        ends = accumulate(map(len, case_lines))
        lineno = next(n for n, end in zip(case_lines.values(), ends) if end > exc.start)
        raise CaseBaseFormatError(f"{path}: doc_id at line {lineno} is not UTF-8 ({exc.reason})") from exc

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


# recover_tfs fails once a weight's quotient by its selection idf is inf.
# Load accepts only N >= 1 and df <= N, so every selection idf is at least
# log(1.5), and no weight up to this bound, which is below log(1.5) times
# the float maximum, can overflow.
_RECOVERABLE_WEIGHT = 7e307


def revise_case_affordance(cases: list[Case], query_av: AffordanceVector, eta: float) -> None:
    """Nudge each pool case's revised vector toward the query's affordance profile.

    The update adds ``eta * unit(query_av) * |av_revised|``, a step
    proportional to the vector's own length, so feedback strength scales with
    the case rather than with raw query counts. The stored raw counts in
    ``av`` are never touched; ``eta = 0`` disables feedback entirely.
    Every case's dimension is checked before any case moves, so a mismatch
    raises ``DimensionError`` and leaves the whole pool as it was.

    The whole pool moves along one direction: ``unit(query_av)`` and the
    components it names are computed once per call. Only those components
    move, and only they are rounded to 12 digits; the others are carried as
    held (``v + 0.0`` is ``v``, and every value affret writes is already
    12-digit). Cases are revised in pool order, so a case listed twice takes
    its second step from its first step's result. Repeated aligned feedback
    grows a vector geometrically; a step that would overflow is taken from
    the vector scaled to a peak of 1 instead, over every component.
    """
    check_unit_dial("eta", eta)
    m = len(query_av)
    for case in cases:
        if len(case.av_revised) != m:
            raise DimensionError(f"dimension mismatch: {m} vs {len(case.av_revised)}")
    if eta == 0.0:
        return
    direction = normalize_av(query_av)
    support = [(j, d) for j, d in enumerate(direction) if d]
    for case in cases:
        av = case.av_revised
        scale = eta * math.hypot(*av)
        revised = list(av)
        for j, d in support:
            revised[j] = round12(av[j] + scale * d)
        # a finite scale means every carried component is finite, so this checks
        # the moved ones; an infinite scale would make even a zero query's step nan
        if not (math.isfinite(scale) and all(map(math.isfinite, revised))):
            # cosine reads only the direction, and the step is scale-invariant
            peak = max(map(abs, av))
            revised = _step([v / peak for v in av], direction, eta)
        case.av_revised = revised


def _step(av: AffordanceVector, direction: AffordanceVector, eta: float) -> AffordanceVector:
    scale = eta * math.hypot(*av)
    return [round12(v + scale * d) for v, d in zip(av, direction)]
