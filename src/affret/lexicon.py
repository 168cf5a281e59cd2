"""Topic lexicon: ordered topics with term sets that drive affordance scoring.

File format, one topic per line, ``#`` comments allowed:

    Beaches<TAB>beach,sand,shore,hill station
    Miscellaneous<TAB>*

``*`` marks the single catch-all topic whose count is the number of token
occurrences matching no other topic. Topic order is significant: element i of
every affordance vector refers to topic i for the life of a case base.

Terms are split by ``segmenter.tokenize`` with no stop words, so every word
is kept; text is stop-worded before matching, so a term holding a stop word
never matches (``populate_case_base`` warns of each).

Matching is compiled: on first use every topic's terms go into one table
from token n-gram to the ids of the topics holding it, so a block is matched
against all topics in one pass over its tokens. Each topic keeps its own
cursor and therefore its own greedy, longest-phrase-first reading of the
block; a hash table of n-grams stands in for an Aho-Corasick automaton
because lexicon phrases are only a few tokens long.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

from .errors import LexiconFormatError, read_text
from .segmenter import tokenize


def _term_tokens(term: str) -> tuple[str, ...]:
    # no stop words: a term is kept whole, whatever words it holds
    return tuple(tokenize(term, frozenset()))


@dataclass
class Topic:
    name: str
    terms: frozenset[str]
    miscellaneous: bool = False


class _PhraseTable:
    """A topic list compiled for one-pass matching.

    ``phrases`` maps each term's token tuple to the ids of the topics holding
    it; ``lengths`` maps a term's first token to the distinct lengths of the
    terms starting with it, longest first, so a token that starts no term
    costs one lookup.
    """

    __slots__ = ("width", "misc", "phrases", "lengths")

    def __init__(self, topics: list[Topic]):
        self.width = len(topics)
        self.misc = [i for i, t in enumerate(topics) if t.miscellaneous]
        owners: dict[tuple[str, ...], list[int]] = {}
        for i, topic in enumerate(topics):
            # a set, so two spellings of one term count once per topic
            for toks in {_term_tokens(term) for term in topic.terms}:
                owners.setdefault(toks, []).append(i)
        # a term without word characters can never match a token
        owners.pop((), None)
        self.phrases = owners
        self.lengths = {}
        for toks in sorted(owners, key=len, reverse=True):
            lengths = self.lengths.setdefault(toks[0], [])
            if len(toks) not in lengths:
                lengths.append(len(toks))

    def counts(self, tokens: list[str]) -> list[int]:
        folded = [t.casefold() for t in tokens]
        n = len(folded)
        counts = [0] * self.width
        # position at which each topic's own greedy scan resumes
        cursor = [0] * self.width
        consumed = bytearray(n)
        phrases, starts = self.phrases, self.lengths
        for i, tok in enumerate(folded):
            lengths = starts.get(tok)
            if lengths is None:
                continue
            for length in lengths:
                end = i + length
                if end > n:
                    continue
                ids = phrases.get(tuple(folded[i:end]))
                if ids is None:
                    continue
                for t in ids:
                    if cursor[t] <= i:
                        counts[t] += 1
                        cursor[t] = end
                        consumed[i:end] = b"\x01" * length
        if self.misc:
            unmatched = n - consumed.count(1)
            for t in self.misc:
                counts[t] = unmatched
        return counts


@dataclass
class Lexicon:
    topics: list[Topic]

    def __post_init__(self):
        if not self.topics:
            raise LexiconFormatError("lexicon has no topics")
        names = [t.name for t in self.topics]
        if len(set(names)) != len(names):
            dup = next(n for n in names if names.count(n) > 1)
            raise LexiconFormatError(f"duplicate topic name: {dup!r}")
        misc = [t for t in self.topics if t.miscellaneous]
        if len(misc) > 1:
            raise LexiconFormatError("more than one miscellaneous topic")
        for t in self.topics:
            if t.miscellaneous and t.terms:
                raise LexiconFormatError(f"miscellaneous topic {t.name!r} must have no terms")
            if not t.miscellaneous and not t.terms:
                raise LexiconFormatError(f"topic {t.name!r} has no terms")

    @property
    def m(self) -> int:
        return len(self.topics)

    def fingerprint(self) -> str:
        """Stable hash binding a case base to this exact lexicon."""
        return hashlib.sha256(serialize_lexicon(self).encode("utf-8")).hexdigest()

    @cached_property
    def _table(self) -> _PhraseTable:
        return _PhraseTable(self.topics)

    def match_counts(self, tokens: list[str]) -> list[int]:
        """Per-topic matched-occurrence counts for an already tokenized text.

        Each named topic counts its term occurrences (multiplicity included,
        phrases matched longest-first over contiguous tokens); the
        miscellaneous topic counts the token occurrences no named topic
        matched.
        """
        return self._table.counts(tokens)


def _canonical_terms(raw_terms: str, where: str) -> frozenset[str]:
    terms = set()
    for piece in raw_terms.split(","):
        piece = piece.strip()
        if not piece:
            continue
        toks = _term_tokens(piece)
        if not toks:
            raise LexiconFormatError(f"{where}: term {piece!r} has no word characters")
        terms.add(" ".join(toks))
    return frozenset(terms)


def load_lexicon(path: str | Path) -> Lexicon:
    """Parse a lexicon file; terms are case-folded and deduplicated per topic."""
    topics: list[Topic] = []
    for lineno, line in enumerate(read_text(path, LexiconFormatError).split("\n"), start=1):
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        if "\t" not in line:
            raise LexiconFormatError(f"{path}: line {lineno}: expected 'name<TAB>terms'")
        name, _, raw_terms = line.partition("\t")
        name = name.strip()
        if not name:
            raise LexiconFormatError(f"{path}: line {lineno}: empty topic name")
        if raw_terms.strip() == "*":
            topics.append(Topic(name=name, terms=frozenset(), miscellaneous=True))
        else:
            terms = _canonical_terms(raw_terms, f"{path}: line {lineno}: topic {name!r}")
            topics.append(Topic(name=name, terms=terms))
    try:
        return Lexicon(topics=topics)
    except LexiconFormatError as exc:
        raise LexiconFormatError(f"{path}: {exc}") from None


def serialize_lexicon(lexicon: Lexicon) -> str:
    """Canonical text form: topic order preserved, terms sorted."""
    lines = []
    for topic in lexicon.topics:
        body = "*" if topic.miscellaneous else ",".join(sorted(topic.terms))
        lines.append(f"{topic.name}\t{body}")
    return "\n".join(lines) + "\n"


def save_lexicon(lexicon: Lexicon, path: str | Path) -> None:
    Path(path).write_text(serialize_lexicon(lexicon), encoding="utf-8")
