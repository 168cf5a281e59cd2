"""Exception types shared across the pipeline, and the one reader of text input files."""

from __future__ import annotations

from pathlib import Path


class AffretError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(AffretError):
    """Raw document bytes could not be decoded into a character stream."""


class LexiconFormatError(AffretError):
    """Lexicon file violates the one-topic-per-line format."""


class CaseBaseFormatError(AffretError):
    """Case base file is truncated or structurally invalid."""


class CaseBaseBuildError(AffretError):
    """Corpus build produced no admissible cases."""


class CompatibilityError(AffretError):
    """Case base was built against a different lexicon or stop-word list than the active one."""


class QueryFormatError(AffretError):
    """Query or qrels file violates its expected format."""


class DimensionError(AffretError):
    """Vector operands have mismatched lengths."""


class InputError(AffretError):
    """Caller-supplied data violates an operation's preconditions."""


def read_text(path: str | Path, error_type: type[AffretError]) -> str:
    """A text file's contents, newlines read as ``\\n``; one that is not UTF-8 raises ``error_type`` naming it."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise error_type(f"{path}: not UTF-8 ({exc})") from exc
