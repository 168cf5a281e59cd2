"""Affordance-guided retrieval over block-segmented web pages.

Pipeline: segment HTML into visible-text blocks, drop link-farm noise by
link-to-text ratio, describe each document by its top tf-idf terms plus a
per-topic affordance vector, then answer queries with tf-idf candidate
retrieval re-ranked by affordance cosine similarity.
"""

from .affordance import (
    AffordanceVector,
    compute_block_affordance,
    compute_doc_affordance,
    compute_query_affordance,
    cosine_sim,
    normalize_av,
)
from .casebase import (
    BuildConfig,
    Case,
    CaseBase,
    CorpusStats,
    build_case,
    load_case_base,
    populate_case_base,
    revise_case_affordance,
    round12,
    save_case_base,
    select_top_k_terms,
    selection_idf,
)
from .errors import (
    AffretError,
    CaseBaseBuildError,
    CaseBaseFormatError,
    CompatibilityError,
    DimensionError,
    InputError,
    LexiconFormatError,
    ParseError,
    QueryFormatError,
)
from .harness import (
    QuerySummary,
    RunReport,
    compare_rankings,
    emit_report,
    load_qrels,
    load_queries,
    run_experiment,
)
from .lexicon import (
    Lexicon,
    Topic,
    load_lexicon,
    serialize_lexicon,
)
from .retrieval import (
    Candidate,
    InvertedIndex,
    Query,
    RankedResult,
    ResultEntry,
    baseline_score,
    build_index,
    rerank,
    retrieve_top_k,
)
from .segmenter import (
    Block,
    RawDocument,
    dedupe_sentences,
    extract_block_text,
    link_to_text_ratio,
    parse_document,
    segment_blocks,
    tokenize,
)
from .stopwords import DEFAULT_STOPWORDS, load_stopwords

__version__ = "0.1.0"

__all__ = [
    "AffordanceVector",
    "AffretError",
    "Block",
    "BuildConfig",
    "Candidate",
    "Case",
    "CaseBase",
    "CaseBaseBuildError",
    "CaseBaseFormatError",
    "CompatibilityError",
    "CorpusStats",
    "DEFAULT_STOPWORDS",
    "DimensionError",
    "InputError",
    "InvertedIndex",
    "Lexicon",
    "LexiconFormatError",
    "ParseError",
    "Query",
    "QueryFormatError",
    "QuerySummary",
    "RankedResult",
    "RawDocument",
    "ResultEntry",
    "RunReport",
    "Topic",
    "baseline_score",
    "build_case",
    "build_index",
    "compare_rankings",
    "compute_block_affordance",
    "compute_doc_affordance",
    "compute_query_affordance",
    "cosine_sim",
    "dedupe_sentences",
    "emit_report",
    "extract_block_text",
    "link_to_text_ratio",
    "load_case_base",
    "load_lexicon",
    "load_qrels",
    "load_queries",
    "load_stopwords",
    "normalize_av",
    "parse_document",
    "populate_case_base",
    "rerank",
    "retrieve_top_k",
    "revise_case_affordance",
    "round12",
    "run_experiment",
    "save_case_base",
    "segment_blocks",
    "select_top_k_terms",
    "selection_idf",
    "serialize_lexicon",
    "tokenize",
]
